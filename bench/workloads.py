"""The benchmark's four workloads: op lists generated from a workload seed.

An op is one argv for ``normsum.cli.main``.  One pass of a workload is its
whole op list, run in order in one fresh process.  The grid of sizes in a
pass is fixed per workload, so every seed gives a pass of about the same
cost; the seed picks each grid entry's instance from a fixed pool of
candidates, and the order of the ops.  Every op's size is computed here,
up front, and checked against the package caps, so no op can be refused
or skipped for size.

Why each workload exists (see README.md for the full table):

- ``charsum``: lifted and direct box sums at a few primes, each prime
  repeated with other instances, so fields are shared across ops and per-field
  caches pay off.
- ``complete``: ``weil-check`` and ``moment``, each over its own field
  F_{p^m}, enumerated whole; nothing is shared, so set-up and table-build
  costs are not amortised.
- ``energy``: the pair histogram, with closed-form kernels at n = 2 and the
  generic field multiply at n = 3; it also sets the memory peak.
- ``structure``: ``gen-form``, ``decompose`` of that form, then
  ``lattice``: closure splitting, verification, HNF and lattice reduction.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from normsum import charsum as cs
from normsum import energy as en
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn
from normsum import lattice as lat

WORK_DIR = "bench/out/work"
SEED_BITS = 32


@dataclass(frozen=True)
class Op:
    """One CLI call; ``save_as`` names a file the benchmark writes the
    op's stdout to after it returns, for a later op to read."""

    argv: tuple
    cost: dict = field(default_factory=dict, compare=False)
    save_as: str | None = None


# ---------------------------------------------------------------------------
# size figures, computed exactly as the program computes them


def box_side(p: int, kappa: str) -> int:
    return max(1, int(p ** (0.25 + float(kappa))))


def kappa_for_side(p: int, side: int) -> str:
    """The shortest decimal kappa for which ``box_side`` gives ``side``."""
    target = math.log(side + 0.5) / math.log(p) - 0.25
    for digits in range(2, 10):
        text = f"{target:.{digits}f}"
        if float(text) >= 0 and box_side(p, text) == side:
            return text
    raise ValueError(f"no kappa gives side {side} at p={p}")


def moment_window(p: int, m: int, r: int) -> int:
    return max(1, int(p ** (m / (2 * r))))


def _check_caps(op: Op) -> Op:
    c = op.cost
    caps = {
        "box_points": cs.BOX_CAP,
        "field_size": fc.FIELD_SIZE_CAP,
        "moment_terms": cs.MOMENT_CAP,
        "pair_table": en.PAIR_CAP,
        "lattice_dim": lat.MINIMA_DIM_CAP,
    }
    for key, value in c.items():
        if key in caps and value > caps[key]:
            raise ValueError(f"{' '.join(op.argv)}: {key} {value} over cap {caps[key]}")
    return op


# ---------------------------------------------------------------------------
# workloads


# Every workload draws its instances from a fixed pool: each entry of its
# grid has ``POOL_SIZE`` candidate instance seeds, derived from the entry
# alone.  The run seed picks one candidate per entry and the order of the
# ops, so every op any seed can produce is in the pool, and its stdout
# digest is pinned in pinned.json.  A builder maps ``choose(i)``, the
# instance seed of grid entry i, to a list of groups; the ops of one group
# run in order, and the groups are shuffled.

POOL_SIZE = 3


def instance_seed(workload: str, entry: int, candidate: int) -> int:
    digest = hashlib.sha256(f"{workload}/{entry}/{candidate}".encode()).digest()
    return int.from_bytes(digest[:SEED_BITS // 8], "big")


# (p, n, k, box side): boxes of 1,296 to 1,600 points; each entry twice.
CHARSUM_GRID = (
    (37, 2, 3, 36),
    (61, 2, 3, 36),
    (101, 2, 3, 36),
    (197, 2, 3, 36),
    (37, 2, 2, 40),
    (101, 2, 2, 40),
    (37, 3, 4, 11),
    (101, 3, 4, 11),
    (37, 3, 5, 11),
    (61, 3, 5, 11),
) * 2


def charsum_ops(choose) -> list:
    groups = []
    for i, (p, n, k, side) in enumerate(CHARSUM_GRID):
        argv = ("charsum", "--p", str(p), "--n", str(n), "--k", str(k),
                "--kappa", kappa_for_side(p, side), "--seed", str(choose(i)))
        groups.append([Op(argv, {"box_points": side**n, "field_size": p ** (k - n + 1)})])
    return groups


# Each field F_{p^m} appears once, q from 25 to 729.  weil-check at r = 1
# enumerates its field 9 times per character; moment enumerates it T
# times, with r chosen so that T is 2 to 5.  No op takes a seed.
COMPLETE_WEIL = ((5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (3, 4), (5, 3))
COMPLETE_MOMENT = (
    (17, 2, 2), (19, 2, 2), (23, 2, 2), (29, 2, 2), (7, 3, 2), (5, 4, 2),
    (3, 5, 3), (3, 6, 3),
)


def complete_ops(_choose) -> list:
    ops = []
    for p, m in COMPLETE_WEIL:
        argv = ("weil-check", "--p", str(p), "--k", str(m), "--r", "1")
        ops.append(Op(argv, {"field_size": p**m}))
    for p, m, r in COMPLETE_MOMENT:
        T = moment_window(p, m, r)
        argv = ("moment", "--p", str(p), "--k", str(m), "--r", str(r))
        ops.append(Op(argv, {"field_size": p**m, "moment_terms": p**m * T ** (2 * r)}))
    fields = [(int(op.argv[2]), int(op.argv[4])) for op in ops]
    if len(set(fields)) != len(fields):
        raise ValueError("complete workload visits a field twice")
    return [[op] for op in ops]


# energy-scan at n = 2 (windows of half-width 7 and 8); energy at n = 3
# in F_{p^3}, p = 5 and 7 twice each.
ENERGY_GRID = tuple((2, p) for p in (53, 59, 61, 67, 71, 73)) + tuple(
    (3, p) for p in (3, 5, 5, 7, 7))


def energy_ops(choose) -> list:
    groups = []
    for i, (n, p) in enumerate(ENERGY_GRID):
        vol = (2 * math.isqrt(p) + 1) ** n
        argv = ("energy-scan" if n == 2 else "energy", "--p", str(p), "--n", str(n),
                "--seed", str(choose(i)))
        groups.append([Op(argv, {"pair_table": vol * vol, "field_size": p**n})])
    return groups


# (p, n, k): one gen-form, decompose, lattice triple each.  Lattices at
# n = 3 have dimension 6, the minima cap.  At n = 2 and p >= 11 a
# lattice's cost changes up to tenfold with its seed, and decompose's
# with the form, so this workload has one candidate per entry: the run
# seed only orders the triples, and every seed gives a pass of the same
# instances.
STRUCTURE_GRID = (
    (5, 2, 2), (7, 2, 3), (29, 2, 3), (37, 2, 3), (41, 2, 3),
    (3, 3, 3), (3, 3, 4), (3, 3, 5),
)


def structure_ops(choose) -> list:
    groups = []
    for i, (p, n, k) in enumerate(STRUCTURE_GRID):
        seed = str(choose(i))
        path = f"{WORK_DIR}/form-{p}-{n}-{k}-{seed}.json"
        base = ("--p", str(p), "--n", str(n))
        field_size = {"field_size": p ** (k - n + 1)}
        groups.append([
            Op(("gen-form",) + base + ("--k", str(k), "--seed", seed), field_size,
               save_as=path),
            Op(("decompose", "--form", path, "--seed", seed), field_size),
            Op(("lattice",) + base + ("--seed", seed),
               {"lattice_dim": 2 * n, "field_size": p**n}),
        ])
    return groups


# workload: (builder, candidates per grid entry)
WORKLOADS = {
    "charsum": (charsum_ops, POOL_SIZE),
    "complete": (complete_ops, 1),
    "energy": (energy_ops, POOL_SIZE),
    "structure": (structure_ops, 1),
}


def generate(workload: str, seed: int) -> list:
    """The op list of one pass; the same seed always gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    builder, candidates = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    groups = builder(lambda i: instance_seed(workload, i, rng.randrange(candidates)))
    rng.shuffle(groups)
    return [_check_caps(op) for group in groups for op in group]


def pool(workload: str) -> list:
    """Every op that any seed can put in the workload's op list, each once,
    with each group's ops in order."""
    builder, candidates = WORKLOADS[workload]
    ops: dict = {}
    for c in range(candidates):
        for group in builder(lambda i: instance_seed(workload, i, c)):
            for op in group:
                ops.setdefault(op.argv, _check_caps(op))
    return list(ops.values())


def pin_key(op: Op) -> str:
    return " ".join(op.argv)


# ---------------------------------------------------------------------------
# output checks, independent of the pinned digests


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _ints(cell: str) -> list:
    return [int(v) for v in cell.split(",")]


def _check_charsum(op, text, _forms):
    rows = {r["quantity"]: r for r in _rows(text)}
    volume = op.cost["box_points"]
    weights = _ints(rows["charsum_weights"]["value"])
    zeros = int(rows["charsum_zero_terms"]["value"])
    if sum(weights) + zeros != volume:
        return f"weights and zero terms sum to {sum(weights) + zeros}, box has {volume}"
    if float(rows["charsum_abs"]["value"]) > volume:
        return "character sum exceeds the trivial bound"
    return None


def _check_weil(op, text, _forms):
    p = int(op.argv[2])
    rows = [r for r in _rows(text) if r["quantity"].startswith("weil_max_ratio")]
    if len(rows) != len({1, (p - 1) // 2}):
        return f"{len(rows)} weil_max_ratio rows, expected one per character"
    for r in rows:
        if float(r["value"]) > float(r["bound"]) + 1e-9:
            return f"{r['quantity']} {r['value']} over the square-root bound"
    return None


def _check_energy(op, text, _forms):
    rows = {r["quantity"]: r for r in _rows(text)}
    if int(rows["energy"]["value"]) < float(rows["energy"]["bound"]):
        return "energy under the diagonal count"
    return None


def _check_moment(op, text, _forms):
    rows = {r["quantity"]: r for r in _rows(text)}
    if float(rows["s2_moment"]["value"]) <= 0:
        return "moment is not positive"
    if sum(_ints(rows["s2_moment_weights"]["value"])) <= 0:
        return "moment weights are empty"
    return None


def _check_energy_scan(op, text, _forms):
    (row,) = _rows(text)
    diagonal = math.prod(2 * h + 1 for h in _ints(row["H"])) ** 2
    if int(row["value"]) < diagonal:
        return f"energy {row['value']} under the diagonal count {diagonal}"
    return None


def _check_gen_form(op, text, forms):
    doc = json.loads(text)
    forms[op.save_as] = fm.form_from_dict(doc["form"])
    D = fm.decomposition_from_dict(doc["decomposition"])
    if fm.synthesize_form(D) != forms[op.save_as]:
        return "stored decomposition does not synthesize the stored form"
    return None


def _check_decompose(op, text, forms):
    D = fm.decomposition_from_dict(json.loads(text))
    if fm.synthesize_form(D) != forms[op.argv[2]]:
        return "decomposition does not synthesize the input form"
    return None


def _check_lattice(op, text, _forms):
    p, n = int(op.argv[2]), int(op.argv[4])
    rows = _rows(text)
    dets = [r for r in rows if r["quantity"] == "lattice_det"]
    if len(dets) != len(hn.square_partitions(n)):
        return f"{len(dets)} lattices, expected one per partition of {n}"
    if any(int(r["value"]) != p**n for r in dets):
        return "lattice determinant differs from p^n"
    for r in rows:
        if r["quantity"].startswith("transference_product"):
            if Fraction(r["value"]) > Fraction(r["bound"]):
                return f"{r['quantity']} over its bound"
    return None


CHECKS = {
    "charsum": _check_charsum,
    "weil-check": _check_weil,
    "moment": _check_moment,
    "energy": _check_energy,
    "energy-scan": _check_energy_scan,
    "gen-form": _check_gen_form,
    "decompose": _check_decompose,
    "lattice": _check_lattice,
}


def check_outputs(ops, outputs) -> list:
    """One problem string or None per op; run after the pass, untimed."""
    forms: dict = {}
    problems = []
    for op, text in zip(ops, outputs):
        try:
            problems.append(CHECKS[op.argv[0]](op, text, forms))
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return problems
