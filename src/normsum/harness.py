"""Experiment drivers: deterministic scans, bound tables, identity suite.

Every driver is a pure function of its configuration, so a rerun with the
same seed produces byte-identical output in either serialization.  Exact
quantities are kept as integers or rational strings; only sum magnitudes
are floats, and those are rounded to 15 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import char_core as cc
from . import charsum as cs
from . import energy as en
from . import field_core as fc
from . import forms as fm
from . import lattice as lat
from . import linalg as la

COMMANDS = (
    "gen-form",
    "decompose",
    "charsum",
    "energy",
    "lattice",
    "weil-check",
    "moment",
    "bound-table",
    "energy-scan",
    "identity-suite",
)

SCAN_COLUMNS = ("p", "n", "k", "H", "quantity", "value", "bound", "ratio")
BOUND_COLUMNS = (
    "p",
    "n",
    "k",
    "H",
    "r",
    "S_abs",
    "weights",
    "trivial",
    "rhs",
    "ratio",
    "delta",
    "r_opt",
    "r_brute",
)
IDENTITY_COLUMNS = ("check", "p", "n", "instance", "status", "lhs", "rhs")

SCAN_SAMPLES = 2
SEED_CAP = 2**64


class UsageError(ValueError):
    """Bad configuration or request; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    p_lo: int = 3
    p_hi: int = 13
    n: int = 1
    k: int = 1
    r: int = 2
    eps: float = 0.0
    kappa: float = 0.0
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if not 0 <= int(self.seed) < SEED_CAP:
            raise UsageError("seed must be a 64-bit nonnegative integer")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.fmt!r}")
        if min(self.n, self.k, self.r) < 1:
            raise UsageError("n, k and r must be positive")
        if not (math.isfinite(self.eps) and math.isfinite(self.kappa)):
            raise UsageError("eps and kappa must be finite")
        if self.eps < 0 or self.kappa < 0:
            raise UsageError("eps and kappa must be nonnegative")
        # every command builds F_{p^m} with m >= 1, so no prime above the
        # field cap can run; refuse before primes_in walks the range
        if self.p_hi > fc.FIELD_SIZE_CAP:
            raise UsageError(
                f"prime range ends at {self.p_hi}, above the field size cap "
                f"{fc.FIELD_SIZE_CAP}"
            )
        # box sides are p^(1/4 + kappa) and bound exponents stay below 1/2 + eps
        try:
            float(max(2, self.p_hi)) ** (1 + self.kappa + self.eps)
        except OverflowError:
            raise UsageError(
                f"kappa {self.kappa} or eps {self.eps} too large: "
                f"p^(1 + kappa + eps) overflows at p = {self.p_hi}"
            ) from None


@dataclass(frozen=True)
class ScanRow:
    p: int
    n: int
    k: int
    H: tuple
    quantity: str
    value: object
    bound: object
    ratio: object

    def cells(self) -> tuple:
        return tuple(getattr(self, c) for c in SCAN_COLUMNS)


def scan_row(p, n, k, H, quantity, value, bound) -> ScanRow:
    ratio = None
    if bound is not None and bound > 0:
        ratio = float(value) / float(bound)
    return ScanRow(p, n, k, tuple(H), quantity, value, bound, ratio)


# ---------------------------------------------------------------------------
# serialization


def encode_cell(v):
    """One cell in both formats: int, 15-digit float, or exact string."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return float(f"{v:.15g}")
    if isinstance(v, (tuple, list)):
        return ",".join(str(int(x)) for x in v)
    return str(v)


def _encoded_rows(columns, rows) -> list:
    out = []
    for row in rows:
        if isinstance(row, dict):
            cells = tuple(row[c] for c in columns)
        elif hasattr(row, "cells"):
            cells = row.cells()
        else:
            cells = tuple(row)
        if len(cells) != len(columns):
            raise ValueError("row width and column count differ")
        out.append(tuple(encode_cell(c) for c in cells))
    return out


def render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for cells in _encoded_rows(columns, rows):
        writer.writerow(cells)
    return buf.getvalue()


def render_json(columns, rows) -> str:
    doc = {
        "columns": list(columns),
        "rows": [list(cells) for cells in _encoded_rows(columns, rows)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(columns, rows)
    if fmt == "json":
        return render_json(columns, rows)
    raise UsageError(f"format must be csv or json, got {fmt!r}")


def render_object(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# shared helpers


def primes_in(lo: int, hi: int) -> list:
    return [p for p in range(max(2, lo), hi + 1) if la.is_prime(p)]


def square_partitions(n: int) -> tuple:
    """Partitions of n in nonincreasing order, largest part first."""
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, rest), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(n, n, [])
    return tuple(out)


def canonical_partition(n: int, k: int) -> tuple:
    if not 1 <= n <= k < 2 * n:
        raise UsageError(f"need 1 <= n <= k < 2n, got n={n}, k={k}")
    return (k - n + 1,) + (1,) * (n - 1)


def _derived_seed(seed: int, *tags: int) -> int:
    x = seed % SEED_CAP
    for t in tags:
        x = (x * 1000003 + t + 1) % SEED_CAP
    return x


def _random_unit(ctx, rng: random.Random):
    while True:
        e = ctx.element(tuple(rng.randrange(ctx.p) for _ in range(ctx.m)))
        if not e.is_zero():
            return e


def _nonprincipal_char(p: int) -> cc.DirichletChar:
    if p == 2:
        raise UsageError("no nonprincipal character mod 2")
    return cc.DirichletChar(p, 1)


# ---------------------------------------------------------------------------
# object-producing commands


def run_gen_form(config: ExperimentConfig) -> dict:
    """Seeded decomposition with its synthesized form, as one JSON object."""
    primes = primes_in(config.p_lo, config.p_hi)
    if not primes:
        raise UsageError("no prime in the requested range")
    p = primes[0]
    rng = random.Random(_derived_seed(config.seed, p, config.n, config.k))
    D = fm.random_decomposition(p, config.n, canonical_partition(config.n, config.k), rng)
    F = fm.synthesize_form(D)
    assert fm.verify_decomposition(F, D, seed=config.seed)
    return {"form": fm.form_to_dict(F), "decomposition": fm.decomposition_to_dict(D)}


def _load_object(path: str, key: str) -> dict:
    """The JSON object in path, or its `key` member when it holds one."""
    d = fm.load_json(path)
    if not isinstance(d, dict):
        raise UsageError(f"{path}: expected a JSON object, got {type(d).__name__}")
    return d.get(key, d)


def _load_form(path: str) -> fm.FormSpec:
    return fm.form_from_dict(_load_object(path, "form"))


def _load_decomposition(path: str) -> fm.NormFormDecomposition:
    D = fm.decomposition_from_dict(_load_object(path, "decomposition"))
    if not fm.decomposition_in_class(D):
        raise UsageError(
            f"{path}: decomposition is outside the supported class "
            "(a rank condition fails or two closure factors are proportional)"
        )
    return D


def run_decompose(config: ExperimentConfig, form_path: str | None) -> dict:
    if not form_path:
        raise UsageError("decompose needs --form FILE")
    F = _load_form(form_path)
    D = fm.decompose(F, seed=config.seed)
    assert fm.verify_decomposition(F, D, seed=config.seed)
    return fm.decomposition_to_dict(D)


# ---------------------------------------------------------------------------
# tabular commands


def run_charsum(config: ExperimentConfig, form_path=None, decomp_path=None):
    """Character sums with magnitude, exact weight histogram, and size.

    With a stored form or decomposition the sum runs at that object's own
    modulus; otherwise seeded instances are built per prime and both
    summation routes are run and must agree.
    """
    rows, skips = [], []
    if decomp_path or form_path:
        if decomp_path:
            D = _load_decomposition(decomp_path)
            chi = _nonprincipal_char(D.p)
            side = max(1, int(D.p ** (0.25 + config.kappa)))
            box = fm.BoxSpec((0,) * D.n, (side,) * D.n)
            res = cs.charsum_lifted(D, chi, box)
            meta = (D.p, D.n, D.k)
        else:
            F = _load_form(form_path)
            chi = _nonprincipal_char(F.p)
            side = max(1, int(F.p ** (0.25 + config.kappa)))
            box = fm.BoxSpec((0,) * F.n, (side,) * F.n)
            res = cs.charsum_direct(chi, F, box)
            meta = (F.p, F.n, F.k)
        rows.extend(_charsum_rows(meta, box, res))
        return rows, skips

    for p in primes_in(config.p_lo, config.p_hi):
        if p == 2:
            skips.append("p=2: no nonprincipal character, skipped")
            continue
        rng = random.Random(_derived_seed(config.seed, p, config.n, config.k))
        try:
            D = fm.random_decomposition(
                p, config.n, canonical_partition(config.n, config.k), rng
            )
        except ValueError as exc:
            skips.append(f"p={p}: {exc}")
            continue
        F = fm.synthesize_form(D)
        chi = _nonprincipal_char(p)
        side = max(1, int(p ** (0.25 + config.kappa)))
        box = fm.BoxSpec((0,) * config.n, (side,) * config.n)
        direct = cs.charsum_direct(chi, F, box)
        lifted = cs.charsum_lifted(D, chi, box)
        assert direct.weights == lifted.weights, f"route mismatch at p={p}"
        assert direct.zero_terms == lifted.zero_terms, f"route mismatch at p={p}"
        rows.extend(_charsum_rows((p, config.n, config.k), box, direct))
    return rows, skips


def _charsum_rows(meta, box, res):
    p, n, k = meta
    return [
        scan_row(p, n, k, box.H, "charsum_abs", abs(res.value), float(box.volume)),
        ScanRow(p, n, k, box.H, "charsum_weights", res.weights, None, None),
        ScanRow(p, n, k, box.H, "charsum_zero_terms", res.zero_terms, None, None),
    ]


def run_energy(config: ExperimentConfig):
    """Window energy per prime against its diagonal lower bound."""
    rows, skips = [], []
    n = config.n
    for p in primes_in(config.p_lo, config.p_hi):
        H = math.isqrt(p)
        vol = (2 * H + 1) ** n
        if vol * vol > en.PAIR_CAP:
            skips.append(f"p={p}: pair table {vol}^2 exceeds cap, skipped")
            continue
        rng = random.Random(_derived_seed(config.seed, p, n))
        D = fm.random_decomposition(p, n, square_partitions(n)[0], rng)
        box = fm.BoxSpec.symmetric((H,) * n)
        report = en.elementary_bounds_check(
            en.EnergyInstance(D, box, box), cross_check=False
        )
        rows.append(
            scan_row(
                p, n, n, (H,) * n, "energy", report["energy"],
                float(report["diagonal_lower"]),
            )
        )
        rows.append(
            ScanRow(
                p, n, n, (H,) * n, "energy_upper_ratio",
                report["upper_ratio"], None, None,
            )
        )
    return rows, skips


def run_lattice(config: ExperimentConfig):
    """Congruence-lattice battery: determinant, duality, minima, counts."""
    rows, skips = [], []
    n = config.n
    if 2 * n > lat.MINIMA_DIM_CAP:
        raise UsageError(f"lattice dimension 2n = {2 * n} over the minima cap")
    for p in primes_in(config.p_lo, config.p_hi):
        for part in square_partitions(n):
            rng = random.Random(_derived_seed(config.seed, p, n, *part))
            try:
                D1 = fm.random_decomposition(p, n, part, rng)
                D2 = fm.random_decomposition(p, n, part, rng)
            except ValueError as exc:
                skips.append(f"p={p} partition={part}: {exc}")
                continue
            z = tuple(_random_unit(ctx, rng) for ctx in D1.ctxs)
            L = lat.build_lattice(D1.A, D2.A, z)
            det = L.det()
            rows.append(scan_row(p, n, n, (0,) * n, "lattice_det", det, float(p**n)))
            dual = lat.dual_lattice(L)
            lat.dual_pairing_check(L, dual)
            rows.append(scan_row(p, n, n, (0,) * n, "dual_pairing", 1, 1.0))
            H = (max(1, math.isqrt(p)),) * (2 * n)
            count = lat.points_in_box(L, H, cross_check=False)[0]
            rows.append(scan_row(p, n, n, H, "box_count", count, float(det)))
            rep = lat.successive_minima(L, H)
            prod = math.prod(rep.minima, start=Fraction(1))
            rows.append(
                ScanRow(p, n, n, H, "minima_product", prod, det, float(prod / det))
            )
            mahler = lat.mahler_check(L, H)
            for i, pr in enumerate(mahler["products"]):
                rows.append(
                    ScanRow(
                        p, n, n, H, f"transference_product_{i}",
                        pr, Fraction(math.factorial(2 * n) ** 2),
                        float(pr / math.factorial(2 * n) ** 2),
                    )
                )
    return rows, skips


def run_weil_check(config: ExperimentConfig):
    """Complete-sum magnitudes against the square-root bound, worst case."""
    rows, skips = [], []
    m = config.k
    r = config.r
    T = 3
    for p in primes_in(config.p_lo, config.p_hi):
        if p == 2:
            skips.append("p=2: no nonprincipal character, skipped")
            continue
        if p**m > fc.FIELD_SIZE_CAP:
            skips.append(f"p={p}: field size {p**m} exceeds cap, skipped")
            continue
        ctx = fc.ext_field_ctx(p, m)
        for idx in sorted({1, (p - 1) // 2}):
            chi = cc.DirichletChar(p, idx)
            psi = cc.lift_character(chi, ctx)
            d = cc.char_order(chi)
            worst = 0.0
            nonpower = 0
            for t in _tuples_in_window(T, 2 * r):
                factors = [(t[j], 1) for j in range(r)]
                factors += [(t[r + j], max(1, d - 1)) for j in range(r)]
                value, bound, holds = cs.weil_complete_sum(psi, factors)
                assert holds
                if 0 < bound < float(ctx.order):
                    nonpower += 1
                    worst = max(worst, abs(value) / bound)
            rows.append(
                scan_row(p, config.n, m, (T,), f"weil_max_ratio_chi{idx}", worst, 1.0)
            )
            rows.append(
                ScanRow(
                    p, config.n, m, (T,), f"weil_nonpower_count_chi{idx}",
                    nonpower, None, None,
                )
            )
    return rows, skips


def _tuples_in_window(T: int, length: int):
    if length == 0:
        yield ()
        return
    for head in range(1, T + 1):
        for tail in _tuples_in_window(T, length - 1):
            yield (head,) + tail


def run_moment(config: ExperimentConfig):
    """Even moments of the twisted interval sum over a degree-k field."""
    rows, skips = [], []
    k, r = config.k, config.r
    for p in primes_in(config.p_lo, config.p_hi):
        if p == 2:
            skips.append("p=2: no nonprincipal character, skipped")
            continue
        T = max(1, int(p ** (k / (2 * r))))
        if p**k * T ** (2 * r) > cs.MOMENT_CAP:
            skips.append(f"p={p}: moment enumeration over cap, skipped")
            continue
        ctx = fc.ext_field_ctx(p, k)
        chi = cc.DirichletChar(p, (p - 1) // 2)
        psi = cc.lift_character(chi, ctx)
        res = cs.s2_moment((k,), (psi,), T, r)
        rows.append(
            scan_row(p, config.n, k, (T,), "s2_moment", res["value"], res["bound_terms"][0])
        )
        rows.append(
            ScanRow(p, config.n, k, (T,), "s2_moment_weights", res["weights"], None, None)
        )
    return rows, skips


def run_bound_table(config: ExperimentConfig):
    """Burgess-shape table: sum magnitude against the r-indexed bound family.

    One deterministic decomposition per prime; r sweeps k+1..k+6.  The
    savings-optimal exponent from the closed formula is cross-checked
    against brute maximization over r in [2, 100] on every row group.
    """
    n, k = config.n, config.k
    if not 1 <= n <= k < 2 * n:
        raise UsageError(f"need 1 <= n <= k < 2n, got n={n}, k={k}")
    rows, skips = [], []
    for p in primes_in(config.p_lo, config.p_hi):
        if p == 2:
            skips.append("p=2: no nonprincipal character, skipped")
            continue
        side = max(1, int(p ** (0.25 + config.kappa)))
        box = fm.BoxSpec((0,) * n, (side,) * n)
        if box.volume > cs.BOX_CAP:
            skips.append(f"p={p}: box volume {box.volume} exceeds cap, skipped")
            continue
        rng = random.Random(_derived_seed(config.seed, p, n, k))
        try:
            D = fm.random_decomposition(p, n, canonical_partition(n, k), rng)
        except ValueError as exc:
            skips.append(f"p={p}: {exc}")
            continue
        chi = _nonprincipal_char(p)
        res = cs.charsum_lifted(D, chi, box)
        s_abs = abs(res.value)
        if config.kappa > 0:
            target = cs.optimal_moment_exponent(n, config.kappa)
            r_opt = int(math.floor(target + 0.5))
            r_brute = max(
                range(2, 101),
                key=lambda rr: cs.delta_savings(n, float(rr), config.kappa),
            )
            assert abs(r_opt - r_brute) <= 1, (
                f"optimal exponent mismatch: formula {r_opt}, brute {r_brute}"
            )
        else:
            r_opt = r_brute = None
        for r in range(k + 1, k + 7):
            params = cs.BoundParams(n, k, r, config.eps, config.kappa)
            rhs = cs.bound_rhs(params, side, box.volume, p)
            rows.append(
                {
                    "p": p,
                    "n": n,
                    "k": k,
                    "H": box.H,
                    "r": r,
                    "S_abs": s_abs,
                    "weights": res.weights,
                    "trivial": box.volume,
                    "rhs": rhs,
                    "ratio": s_abs / rhs if rhs > 0 else None,
                    "delta": cs.delta_savings(n, float(r), config.kappa),
                    "r_opt": r_opt,
                    "r_brute": r_brute,
                }
            )
    return rows, skips


def run_energy_scan(config: ExperimentConfig):
    """Per prime: the largest sampled window energy against H^{2n} sqrt(p).

    The window half-width is floor(sqrt(p)) in every coordinate.  Sampling
    covers every field partition of the arity with SCAN_SAMPLES seeded
    draws; skipped primes are reported, never dropped silently.
    """
    n = config.n
    rows, skips = [], []
    for p in primes_in(config.p_lo, config.p_hi):
        H = math.isqrt(p)
        vol = (2 * H + 1) ** n
        if vol * vol > en.PAIR_CAP:
            skips.append(f"p={p}: pair table {vol}^2 exceeds cap, skipped")
            continue
        rng = random.Random(_derived_seed(config.seed, p, n))
        best = None
        for part in square_partitions(n):
            for _ in range(SCAN_SAMPLES):
                D = fm.random_decomposition(p, n, part, rng)
                e = en.energy_symmetric(D, (H,) * n, cross_check=False)
                if best is None or e > best:
                    best = e
        bound = float(H ** (2 * n)) * math.sqrt(p)
        rows.append(scan_row(p, n, n, (H,) * n, "max_sampled_energy", best, bound))
    return rows, skips


# ---------------------------------------------------------------------------
# identity suite


def _point_indices(chi, F, D, x):
    """Direct and lifted character index of one point; None marks a zero."""
    direct = cc.char_index(chi, fm._eval_int(F, x))
    order = max(1, chi.p - 1)
    idx_sum = 0
    for i, ctx in enumerate(D.ctxs):
        idx = cc.lifted_index(cc.lift_character(chi, ctx), D.lam(i, x))
        if idx is None:
            return direct, None
        idx_sum += idx
    return direct, idx_sum % order


def _weights_over(chi, F, pts):
    weights = [0] * max(1, chi.p - 1)
    zeros = 0
    for x in pts:
        idx = cc.char_index(chi, fm._eval_int(F, x))
        if idx is None:
            zeros += 1
        else:
            weights[idx] += 1
    return tuple(weights), zeros


def run_identity_suite(config: ExperimentConfig):
    """Identity battery on a small grid; returns (results, failures).

    Failing rows name the instance and carry both sides.  The battery ends
    with a negative control per prime: one corrupted block entry in a
    decomposition must break the lifted-sum identity pointwise.
    """
    results = []

    def record(check, p, n, instance, ok, lhs, rhs):
        results.append(
            {
                "check": check,
                "p": p,
                "n": n,
                "instance": instance,
                "status": "pass" if ok else "fail",
                "lhs": lhs,
                "rhs": rhs,
            }
        )

    for p in primes_in(config.p_lo, config.p_hi):
        if p == 2:
            continue
        chi = _nonprincipal_char(p)
        for n in (1, 2):
            rng = random.Random(_derived_seed(config.seed, p, n))
            for part in square_partitions(n):
                D = fm.random_decomposition(p, n, part, rng)
                F = fm.synthesize_form(D)
                tag = f"p={p} n={n} partition={part}"

                boxes = [
                    fm.BoxSpec((0,) * n, (2,) * n),
                    fm.BoxSpec((-2,) * n, (3,) * n),
                    fm.BoxSpec(tuple(rng.randint(-p, p) for _ in range(n)), (2,) * n),
                ]
                for B in boxes:
                    direct = cs.charsum_direct(chi, F, B)
                    lifted = cs.charsum_lifted(D, chi, B)
                    ok = (
                        direct.weights == lifted.weights
                        and direct.zero_terms == lifted.zero_terms
                    )
                    record(
                        "lifted_sum", p, n, f"{tag} N={B.N} H={B.H}", ok,
                        direct.weights, lifted.weights,
                    )

                B = fm.BoxSpec((-1,) * n, (4,) * n)
                whole = cs.charsum_direct(chi, F, B)
                merged = [0] * len(whole.weights)
                zeros = 0
                for piece in fm.split_box(B, 2):
                    piece_res = cs.charsum_direct(chi, F, piece)
                    zeros += piece_res.zero_terms
                    for i, c in enumerate(piece_res.weights):
                        merged[i] += c
                ok = tuple(merged) == whole.weights and zeros == whole.zero_terms
                record(
                    "box_partition", p, n, f"{tag} N={B.N} H={B.H}", ok,
                    whole.weights, tuple(merged),
                )

                base = fm.BoxSpec((0,) * n, (3,) * n)
                for shift in [(0,) * n, (1,) + (0,) * (n - 1)]:
                    moved = fm.BoxSpec(
                        tuple(a + s for a, s in zip(base.N, shift)), base.H
                    )
                    pts_base = set(base.iter_points())
                    pts_moved = set(moved.iter_points())
                    w_moved, z_moved = _weights_over(chi, F, sorted(pts_moved))
                    w_base, z_base = _weights_over(chi, F, sorted(pts_base))
                    w_in, z_in = _weights_over(chi, F, sorted(pts_moved - pts_base))
                    w_out, z_out = _weights_over(chi, F, sorted(pts_base - pts_moved))
                    lhs = tuple(a - b for a, b in zip(w_moved, w_base))
                    lhs += (z_moved - z_base,)
                    rhs = tuple(a - b for a, b in zip(w_in, w_out))
                    rhs += (z_in - z_out,)
                    ok = lhs == rhs
                    if not any(shift):
                        ok = ok and all(v == 0 for v in lhs)
                    record("shift_identity", p, n, f"{tag} shift={shift}", ok, lhs, rhs)

                Hvec = (2,) * n
                centered = en.energy_symmetric(D, Hvec, cross_check=False)
                all_below = True
                worst = None
                for _ in range(5):
                    N = tuple(rng.randint(-p, p) for _ in range(n))
                    Bn = fm.BoxSpec(N, Hvec)
                    e = en.energy_bruteforce(
                        en.EnergyInstance(D, Bn, Bn), cross_check=False
                    )
                    if worst is None or e > worst[0]:
                        worst = (e, N)
                    all_below = all_below and e <= centered
                record(
                    "shift_inequality", p, n, f"{tag} H={Hvec} worst_N={worst[1]}",
                    all_below, worst[0], centered,
                )

                bx = fm.BoxSpec((1,) * n, (2,) * n)
                by = fm.BoxSpec((0,) * n, (2,) * n)
                s1, quads, equal = en.s1_identity_check(D, bx, by)
                record("s1_cauchy_schwarz", p, n, tag, equal, s1, quads)

            if n == 2:
                rng_r = random.Random(_derived_seed(config.seed, p, 21))
                D_rect = fm.random_decomposition(p, 2, (2, 1), rng_r)
                inst = en.EnergyInstance(
                    D_rect, fm.BoxSpec((0, 0), (2, 2)), fm.BoxSpec((0, 0), (2, 2))
                )
                e_small, e_big, ok = en.embed_energy(inst, cross_check=False)
                record(
                    "embedding_inequality", p, 2, f"p={p} partition=(2, 1)",
                    ok, e_small, e_big,
                )

        rng_c = random.Random(_derived_seed(config.seed, p, 99))
        D = fm.random_decomposition(p, 1, (1,), rng_c)
        F = fm.synthesize_form(D)
        box = fm.BoxSpec((0,), (min(3, p - 1),))
        detected = False
        culprit = None
        sides = None
        for delta in range(1, p):
            bumped = (D.blocks[0][0][0] + delta) % p
            bad = fm.NormFormDecomposition(
                p, 1, D.partition, D.ctxs, (((bumped,),),)
            )
            for x in box.iter_points():
                direct_idx, lifted_idx = _point_indices(chi, F, bad, x)
                if direct_idx != lifted_idx:
                    detected = True
                    culprit = (delta, x)
                    sides = (direct_idx, lifted_idx)
                    break
            if detected:
                break
        record(
            "negative_control", p, 1,
            f"p={p} corrupted block entry, bump={culprit}", detected,
            str(sides[0]) if sides else "", str(sides[1]) if sides else "",
        )

    failures = [r for r in results if r["status"] == "fail"]
    return results, failures
