"""Experiment drivers: deterministic scans, bound tables, identity suite.

Every driver is a pure function of its configuration, so a rerun with the
same seed produces byte-identical output in either serialization.  Exact
quantities are kept as integers or rational strings; only sum magnitudes
are floats, and those are rounded to 15 significant digits.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import itertools
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
# one row type per table: every runner's rows are these tuples, cell by column
ScanRow = collections.namedtuple("ScanRow", SCAN_COLUMNS)
BoundRow = collections.namedtuple("BoundRow", BOUND_COLUMNS)
IdentityRow = collections.namedtuple("IdentityRow", IDENTITY_COLUMNS)

SCAN_SAMPLES = 2
# bound-table's rows per prime, one per r in k+1..k+BOUND_SWEEP
BOUND_SWEEP = 6
# the fastest measured time of an identity-suite prime per element of the F_{p^2}
# whose log table and fold it builds, in ns (1,000 to 1,730 at p = 307..997, 2 vCPUs)
IDENTITY_ELEMENT_NS = 1_000
SEED_CAP = 2**64
# the most a command may cost, in ns: the modules' costs, each times its
# measured time per unit, summed over the primes the command walks
COMMAND_CAP = 25 * 10**9


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
        # field cap can run; refuse before the range is walked
        if not fc.field_fits(self.p_hi, 1):
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


def scan_row(p, n, k, H, quantity, value, bound) -> ScanRow:
    ratio = None
    if bound is not None and bound > 0:
        ratio = float(value / bound)
    return ScanRow(p, n, k, tuple(H), quantity, value, bound, ratio)


# ---------------------------------------------------------------------------
# serialization

# the fastest measured time of one entry of a weight cell, rendered in either
# format, in ns (190 to 300 on a 2-vCPU virtual machine): the weight of the
# p - 1 entries that each weight histogram prints, in a command's cost
CELL_ENTRY_NS = 190


def encode_cell(v):
    """One cell in both formats: int, 15-digit float, or exact string; a
    tuple or list of ints is one string of comma-separated entries."""
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
        # int.__repr__ prints a bool entry as 1 or 0, as str(int(x)) did
        return ",".join(map(int.__repr__, v))
    return str(v)


def _encoded_rows(columns, rows) -> list:
    out = []
    for cells in rows:
        if len(cells) != len(columns):
            raise ValueError("row width and column count differ")
        out.append(tuple(map(encode_cell, cells)))
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
    """The table in fmt, which ExperimentConfig has checked is csv or json."""
    return render_json(columns, rows) if fmt == "json" else render_csv(columns, rows)


def render_object(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# shared helpers


def primes_in(lo: int, hi: int):
    """The primes of [lo, hi] ascending, each tested only when reached."""
    return (p for p in range(max(2, lo), hi + 1) if la.is_prime(p))


def _walk(config: ExperimentConfig, cost, skips: list, characters: bool = True):
    """The primes of the range that run, ascending; each other prime's skip
    line goes to skips as the walk passes it.

    cost(p) is p's cost in ns, as COMMAND_CAP, or its skip line; with
    characters set, p = 2 is skipped.  The costs are summed before the first
    prime is handed out, so a command is refused before any row is computed,
    at the first prime that takes the sum past COMMAND_CAP.
    """
    plan, total = [], 0
    for p in primes_in(config.p_lo, config.p_hi):
        c = "p=2: no nonprincipal character, skipped" if characters and p == 2 else cost(p)
        if not isinstance(c, str):
            total += c
            if total > COMMAND_CAP:
                raise UsageError(
                    f"{config.command} would run over {COMMAND_CAP // 10**9} s by p={p}, "
                    f"past the command cap; narrow the prime range or the sizes"
                )
        plan.append((p, c))
    for p, c in plan:
        if isinstance(c, str):
            skips.append(c)
        else:
            yield p


def _short_box(p: int, n: int, kappa: float) -> fm.BoxSpec:
    """The box (0, p^(1/4 + kappa)]^n of the short-sum bounds."""
    side = max(1, int(p ** (0.25 + kappa)))
    return fm.BoxSpec((0,) * n, (side,) * n)


def _window_cost(p: int, n: int, fields: int = 1):
    """The cost of one energy on [-sqrt(p), sqrt(p)]^n over this many
    fields, or the skip line."""
    vol = fm.BoxSpec.symmetric((math.isqrt(p),) * n).volume
    if not en.pairs_fit(vol, vol):
        return f"p={p}: pair table {vol}^2 exceeds cap, skipped"
    return en.pair_cost(vol, vol) * en.pair_ns(n, fields)


def _field_skip(p: int, m: int, tag: str = ""):
    """The skip line of p, tag appended, whose F_{p^m} is past the field cap, else None."""
    if not fc.field_fits(p, m):
        shown = fc.field_size(p, m) if fc.field_size(p, m) < fc.SIZE_CEILING else f"{p}^{m}"
        return f"p={p}{tag}: field size {shown} exceeds cap, skipped"


def _character_cost(p: int, weight_rows: int) -> int:
    """In ns, the F_p log table that a character mod p reads and the weight
    cells of p - 1 entries that weight_rows rows print."""
    return fc.field_size(p, 1) * fc.LOG_ENTRY_NS + weight_rows * (p - 1) * CELL_ENTRY_NS


def _box_cost(p: int, n: int, kappa: float, routes: int, weight_rows: int):
    """In ns, routes sums over p's short box and the character's table and
    weight_rows rows, or the skip line of a box past the box cap."""
    volume = _short_box(p, n, kappa).volume
    if not cs.box_fits(volume):
        return f"p={p}: box volume {volume} exceeds cap, skipped"
    return routes * volume * cs.BOX_POINT_NS + _character_cost(p, weight_rows)


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


def _seeded_decomposition(config: ExperimentConfig, p: int):
    """The one seeded draw of shape (n, k) at p, for gen-form, charsum and bound-table."""
    rng = random.Random(_derived_seed(config.seed, p, config.n, config.k))
    return fm.random_decomposition(p, config.n, canonical_partition(config.n, config.k), rng)


def _seeded_boxes(config: ExperimentConfig, routes: int, weight_rows: int, skips: list):
    """(p, D, chi of index 1, short box) per prime that runs, each priced by
    D's largest field, then routes sums over its box and weight_rows rows; a
    draw that fails rejection sampling is p's skip line."""
    n, k, kappa = config.n, config.k, config.kappa
    canonical_partition(n, k)  # a bad shape: exit 2 before the walk, never a skip line
    for p in _walk(config, lambda p: _field_skip(p, k - n + 1)
                   or _box_cost(p, n, kappa, routes, weight_rows), skips):
        try:
            D = _seeded_decomposition(config, p)
        except ValueError as exc:
            skips.append(f"p={p}: {exc}")
            continue
        yield p, D, cc.DirichletChar(p, 1), _short_box(p, n, kappa)


def _random_unit(ctx, rng: random.Random):
    while True:
        e = tuple(rng.randrange(ctx.p) for _ in range(ctx.m))
        if any(e):
            return e


# ---------------------------------------------------------------------------
# object-producing commands


def run_gen_form(config: ExperimentConfig) -> dict:
    """Seeded decomposition with its synthesized form, as one JSON object."""
    p = next(primes_in(config.p_lo, config.p_hi), None)
    if p is None:
        raise UsageError("no prime in the requested range")
    D = _seeded_decomposition(config, p)
    F = fm.synthesize_form(D)
    if not fm.verify_decomposition(F, D):
        raise la.CheckFailed("synthesized form failed verification")
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
    return fm.decomposition_to_dict(fm.decompose(_load_form(form_path)))


# ---------------------------------------------------------------------------
# tabular commands


def run_charsum(config: ExperimentConfig, form_path=None, decomp_path=None):
    """Character sums with magnitude, exact weight histogram, and size.

    With a stored form or decomposition the sum runs at that object's own
    modulus; otherwise seeded instances are built per prime and both
    summation routes are run and must agree.
    """
    if decomp_path or form_path:
        # a FormSpec and a NormFormDecomposition both carry p, n and k
        obj = _load_decomposition(decomp_path) if decomp_path else _load_form(form_path)
        if obj.p == 2:
            raise UsageError("no nonprincipal character mod 2")
        # one route's box, priced as a walk over obj.p alone before chi is built
        alone, skips = dataclasses.replace(config, p_lo=obj.p, p_hi=obj.p), []
        for p in _walk(alone, lambda p: _box_cost(p, obj.n, config.kappa, 1, 1), skips):
            chi, box = cc.DirichletChar(p, 1), _short_box(p, obj.n, config.kappa)
            res = (cs.charsum_lifted(obj, chi, box) if decomp_path
                   else cs.charsum_direct(chi, obj, box))
            return _charsum_rows(p, obj.n, obj.k, box, res), []
        return [], skips
    rows, skips = [], []
    for p, D, chi, box in _seeded_boxes(config, 2, 1, skips):
        direct = cs.charsum_direct(chi, fm.synthesize_form(D), box)
        lifted = cs.charsum_lifted(D, chi, box)
        if direct != lifted:
            raise la.CheckFailed(f"route mismatch at p={p}")
        rows.extend(_charsum_rows(p, config.n, config.k, box, direct))
    return rows, skips


def _charsum_rows(p, n, k, box, res):
    return [
        scan_row(p, n, k, box.H, "charsum_abs", abs(res.value), float(box.volume)),
        scan_row(p, n, k, box.H, "charsum_weights", res.weights, None),
        scan_row(p, n, k, box.H, "charsum_zero_terms", res.zero_terms, None),
    ]


def run_energy(config: ExperimentConfig):
    """Window energy per prime against its diagonal lower bound."""
    rows, skips = [], []
    n = config.n
    for p in _walk(config, lambda p: _window_cost(p, n), skips, characters=False):
        H = math.isqrt(p)
        rng = random.Random(_derived_seed(config.seed, p, n))
        D = fm.random_decomposition(p, n, square_partitions(n)[0], rng)
        box = fm.BoxSpec.symmetric((H,) * n)
        report = en.elementary_bounds_check(en.EnergyInstance(D, box, box))
        rows.append(
            scan_row(
                p, n, n, (H,) * n, "energy", report["energy"],
                float(report["diagonal_lower"]),
            )
        )
        rows.append(
            scan_row(p, n, n, (H,) * n, "energy_upper_ratio", report["upper_ratio"], None)
        )
    return rows, skips


def run_lattice(config: ExperimentConfig):
    """Congruence-lattice battery: determinant, duality, minima, counts."""
    rows, skips = [], []
    n = config.n
    if not lat.minima_fit(2 * n):
        raise UsageError(f"lattice dimension 2n = {2 * n} over the minima cap")

    def cost(p):
        # a partition past the field cap is skipped before any work
        lattices = sum(fc.field_fits(p, part[0]) for part in square_partitions(n))
        return lattices * (lat.LATTICE_NS + lat.minima_cost(p, n) * lat.MINIMA_PREFIX_NS[n - 1])

    for p in _walk(config, cost, skips, characters=False):
        for part in square_partitions(n):
            if skip := _field_skip(p, part[0], f" partition={part}"):
                skips.append(skip)
                continue
            rng = random.Random(_derived_seed(config.seed, p, n, *part))
            try:
                D1 = fm.random_decomposition(p, n, part, rng)
                D2 = fm.random_decomposition(p, n, part, rng)
            except ValueError as exc:
                skips.append(f"p={p} partition={part}: {exc}")
                continue
            z = tuple(_random_unit(ctx, rng) for ctx in D1.ctxs)
            L = lat.build_lattice(D1.A, D2.A, D1.ctxs, z)
            det = L.det()
            rows.append(scan_row(p, n, n, (0,) * n, "lattice_det", det, float(p**n)))
            H = (max(1, math.isqrt(p)),) * (2 * n)
            # builds the dual, whose last step is the pairing check, and the box minima
            mahler = lat.mahler_check(L, H)
            rows.append(scan_row(p, n, n, (0,) * n, "dual_pairing", 1, 1.0))
            count = lat.points_in_box(L, H)[0]
            rows.append(scan_row(p, n, n, H, "box_count", count, float(det)))
            prod = math.prod(mahler["minima"], start=Fraction(1))
            rows.append(scan_row(p, n, n, H, "minima_product", prod, det))
            bound = Fraction(math.factorial(2 * n) ** 2)
            rows.extend(
                scan_row(p, n, n, H, f"transference_product_{i}", pr, bound)
                for i, pr in enumerate(mahler["products"])
            )
    return rows, skips


def run_weil_check(config: ExperimentConfig):
    """Complete-sum magnitudes against the square-root bound, worst case."""
    rows, skips = [], []
    m = config.k
    r = config.r
    T = 3

    def cost(p):
        # every list priced as its own sum: an upper bound, as a class sums once
        lists = fc.capped_power(p, m) * fc.capped_power(T, 2 * r)
        return _field_skip(p, m) or len({1, (p - 1) // 2}) * lists * cs.WEIL_TERM_NS

    for p in _walk(config, cost, skips):
        ctx = fc.ext_field_ctx(p, m)
        for idx in sorted({1, (p - 1) // 2}):
            chi = cc.DirichletChar(p, idx)
            d = cc.char_order(chi)
            worst = 0.0
            nonpower = 0
            # one complete sum per translation class; every list is checked
            sums = {}
            for t in itertools.product(range(1, T + 1), repeat=2 * r):
                factors = [(t[j], 1) for j in range(r)]
                factors += [(t[r + j], max(1, d - 1)) for j in range(r)]
                key = cs.factor_class(factors, p, d)
                if key not in sums:
                    sums[key] = cs.weil_complete_sum(chi, ctx, factors)
                value, bound, holds = sums[key]
                if not holds:
                    raise la.CheckFailed(
                        f"p={p} chi{idx} {factors}: |sum| {abs(value)} > {bound}"
                    )
                if 0 < bound < float(ctx.order):
                    nonpower += 1
                    worst = max(worst, abs(value) / bound)
            rows.append(
                scan_row(p, config.n, m, (T,), f"weil_max_ratio_chi{idx}", worst, 1.0)
            )
            rows.append(
                scan_row(p, config.n, m, (T,), f"weil_nonpower_count_chi{idx}", nonpower, None)
            )
    return rows, skips


def run_moment(config: ExperimentConfig):
    """Even moments of the twisted interval sum over a degree-k field."""
    rows, skips = [], []
    k, r = config.k, config.r

    def window(p):
        # T^(2r) is about p^k, so past a float's range it is past every cap
        try:
            return max(1, int(p ** (k / (2 * r))))
        except OverflowError:
            return fc.SIZE_CEILING

    def cost(p):
        # the quadratic character over one field: its indices take two values
        if not cs.moment_fits(p, k, window(p), r, 2, 1):
            return f"p={p}: moment enumeration over cap, skipped"
        reads, entries = cs.moment_work(p, k, window(p), r, 2, 1)
        return _field_skip(p, k) or (reads * cs.MOMENT_READ_NS + entries * cs.MOMENT_ENTRY_NS
                                     + _character_cost(p, 1))

    for p in _walk(config, cost, skips):
        T = window(p)
        chi = cc.DirichletChar(p, (p - 1) // 2)
        res = cs.s2_moment(chi, (fc.ext_field_ctx(p, k),), T, r)
        rows.append(
            scan_row(p, config.n, k, (T,), "s2_moment", res["value"], res["bound_terms"][0])
        )
        rows.append(scan_row(p, config.n, k, (T,), "s2_moment_weights", res["weights"], None))
    return rows, skips


def run_bound_table(config: ExperimentConfig):
    """Burgess-shape table: sum magnitude against the r-indexed bound family.

    One deterministic decomposition per prime; r sweeps k+1..k+6.  delta is
    the exact saving of each r, and its optimal r by closed form must equal
    the one an exact search finds; both are blank where no r peaks.
    """
    n, k = config.n, config.k
    canonical_partition(n, k)  # a bad shape: exit 2 before BoundParams
    rows, skips = [], []
    params = cs.BoundParams(n, k, k + 1, config.eps, config.kappa)
    r_opt, r_brute = cs.optimal_exponent(params), cs.search_exponent(params)
    if r_opt != r_brute:
        raise la.CheckFailed(f"optimal exponent mismatch: formula {r_opt}, search {r_brute}")
    for p, D, chi, box in _seeded_boxes(config, 1, BOUND_SWEEP, skips):
        res = cs.charsum_lifted(D, chi, box)
        s_abs = abs(res.value)
        for r in range(k + 1, k + 1 + BOUND_SWEEP):
            params = cs.BoundParams(n, k, r, config.eps, config.kappa)
            rhs = cs.bound_rhs(params, box.H[0], box.volume, p)
            rows.append(
                BoundRow(
                    p, n, k, box.H, r, s_abs, res.weights, box.volume, rhs,
                    s_abs / rhs if rhs > 0 else None,
                    float(cs.saving(params)), r_opt, r_brute,
                )
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

    # the partitions, some 10^8 at n = 100, are listed only for a window that fits
    def cost(p):
        window = _window_cost(p, n)
        return window if isinstance(window, str) else SCAN_SAMPLES * sum(
            _window_cost(p, n, len(part)) for part in square_partitions(n))

    for p in _walk(config, cost, skips, characters=False):
        H = math.isqrt(p)
        rng = random.Random(_derived_seed(config.seed, p, n))
        best = None
        for part in square_partitions(n):
            for _ in range(SCAN_SAMPLES):
                D = fm.random_decomposition(p, n, part, rng)
                e = en.energy_symmetric(D, (H,) * n)
                if best is None or e > best:
                    best = e
        bound = float(H ** (2 * n)) * math.sqrt(p)
        rows.append(scan_row(p, n, n, (H,) * n, "max_sampled_energy", best, bound))
    return rows, skips


# ---------------------------------------------------------------------------
# identity suite


def _lifted_sum(chi, D, F, rng, tag):
    """chi(F(x)) = prod psi_i(lambda_i(x)): both routes sum three boxes alike."""
    n = D.n
    boxes = [fm.BoxSpec((0,) * n, (2,) * n), fm.BoxSpec((-2,) * n, (3,) * n),
             fm.BoxSpec(tuple(rng.randint(-D.p, D.p) for _ in range(n)), (2,) * n)]
    for B in boxes:
        direct, lifted = cs.charsum_direct(chi, F, B), cs.charsum_lifted(D, chi, B)
        holds = direct == lifted
        yield "lifted_sum", f"{tag} N={B.N} H={B.H}", holds, direct.weights, lifted.weights


def _box_partition(chi, D, F, rng, tag):
    """A box's sum is the sum of its pieces' sums."""
    B = fm.BoxSpec((-1,) * D.n, (4,) * D.n)
    whole = cs.charsum_direct(chi, F, B)
    pieces = [cs.charsum_direct(chi, F, piece) for piece in B.pieces(2)]
    merged = tuple(map(sum, zip(*(res.weights for res in pieces))))
    holds = (merged, sum(res.zero_terms for res in pieces)) == (whole.weights, whole.zero_terms)
    yield "box_partition", f"{tag} N={B.N} H={B.H}", holds, whole.weights, merged


def _shift_identity(chi, D, F, rng, tag):
    """A shifted box's sum moves by the points it gains less the points it loses."""
    n = D.n
    base = fm.BoxSpec((0,) * n, (3,) * n)
    for shift in [(0,) * n, (1,) + (0,) * (n - 1)]:
        moved = fm.BoxSpec(tuple(a + s for a, s in zip(base.N, shift)), base.H)
        pts_base, pts_moved = set(base.iter_points()), set(moved.iter_points())
        (w_moved, z_moved), (w_base, z_base), (w_in, z_in), (w_out, z_out) = (
            cc.index_histogram(chi, (fm.eval_form(F, x) for x in pts))
            for pts in (pts_moved, pts_base, pts_moved - pts_base, pts_base - pts_moved)
        )
        lhs = tuple(a - b for a, b in zip(w_moved + (z_moved,), w_base + (z_base,)))
        rhs = tuple(a - b for a, b in zip(w_in + (z_in,), w_out + (z_out,)))
        holds = lhs == rhs and (any(shift) or not any(lhs))
        yield "shift_identity", f"{tag} shift={shift}", holds, lhs, rhs


def _shift_inequality(chi, D, F, rng, tag):
    """No sampled shift of a box has more energy than the centered box."""
    H = (2,) * D.n
    centered = en.energy_symmetric(D, H)
    boxes = [fm.BoxSpec(tuple(rng.randint(-D.p, D.p) for _ in range(D.n)), H) for _ in range(5)]
    energies = [en.energy_histogram(en.EnergyInstance(D, B, B)) for B in boxes]
    # the first largest: every sampled energy is within the centered one when it is
    worst = max(range(5), key=energies.__getitem__)
    yield ("shift_inequality", f"{tag} H={H} worst_N={boxes[worst].N}",
           energies[worst] <= centered, energies[worst], centered)


def _s1_cauchy_schwarz(chi, D, F, rng, tag):
    """S_1 equals the Cauchy-Schwarz quadruple count of its two boxes."""
    n = D.n
    s1, quads, equal = en.s1_identity_check(
        D, fm.BoxSpec((1,) * n, (2,) * n), fm.BoxSpec((0,) * n, (2,) * n))
    yield "s1_cauchy_schwarz", tag, equal, s1, quads


def _embedding_inequality(chi, rng):
    """A rectangular system's energy is within that of its square embedding."""
    box = fm.BoxSpec((0, 0), (2, 2))
    inst = en.EnergyInstance(fm.random_decomposition(chi.p, 2, (2, 1), rng), box, box)
    e_small, e_big, holds = en.embed_energy(inst)
    yield "embedding_inequality", f"p={chi.p} partition=(2, 1)", holds, e_small, e_big


def _negative_control(chi, rng):
    """One corrupted block entry must break the lifted-sum identity pointwise."""
    p = chi.p
    D = fm.random_decomposition(p, 1, (1,), rng)
    F = fm.synthesize_form(D)
    box = fm.BoxSpec((0,), (min(3, p - 1),))
    entry = D.blocks[0][0][0]
    bumps = ((d, dataclasses.replace(D, blocks=((((entry + d) % p,),),))) for d in range(1, p))
    # hit: the first (bump, x, direct index, lifted index) where they differ
    sides = ((d, x, cc.char_index(chi, fm.eval_form(F, x)), cc.char_index(chi, bad.value(x)))
             for d, bad in bumps for x in box.iter_points())
    hit = next((side for side in sides if side[2] != side[3]), None)
    yield ("negative_control", f"p={p} corrupted block entry, bump={hit and hit[:2]}",
           hit is not None, *((str(hit[2]), str(hit[3])) if hit else ("", "")))


# Each family is a generator over one seeded instance that yields its rows as
# (check, instance, holds, lhs, rhs).  These run once per (p, n, partition)
# instance, in the order in which they draw from the instance's rng.  The order
# is load-bearing: a family moved draws other numbers, as do those after it.
INSTANCE_FAMILIES = (
    _lifted_sum, _box_partition, _shift_identity, _shift_inequality, _s1_cauchy_schwarz,
)
# The families run once per prime after its instances, each on its own rng:
# (seed tag, n of its rows, family).
PRIME_FAMILIES = ((21, 2, _embedding_inequality), (99, 1, _negative_control))


def _identity_instances(seed: int, p: int):
    """(n, families, their arguments) of each seeded instance at p, in row order;
    the instances of one n share one rng, so each is drawn after the last has run."""
    chi = cc.DirichletChar(p, 1)
    for n in (1, 2):
        rng = random.Random(_derived_seed(seed, p, n))
        for part in square_partitions(n):
            D = fm.random_decomposition(p, n, part, rng)
            tag = f"p={p} n={n} partition={part}"
            yield n, INSTANCE_FAMILIES, (chi, D, fm.synthesize_form(D), rng, tag)
    for seed_tag, n, family in PRIME_FAMILIES:
        yield n, (family,), (chi, random.Random(_derived_seed(seed, p, seed_tag)))


def run_identity_suite(config: ExperimentConfig):
    """Identity battery on a small grid; returns (rows, failures).  Failing
    rows name the instance and carry both sides; each failure is the note
    "check instance"."""
    # every prime builds F_{p^2}, so the largest prime decides whether all fit
    top = next((p for p in range(config.p_hi, max(1, config.p_lo - 1), -1) if la.is_prime(p)), 2)
    if not fc.field_fits(top, 2):
        raise UsageError(f"field size {top}^2 exceeds cap {fc.FIELD_SIZE_CAP}")
    rows = []
    # p = 2 has no nonprincipal character; its skip line is no failure
    for p in _walk(config, lambda p: fc.field_size(p, 2) * IDENTITY_ELEMENT_NS, []):
        for n, families, args in _identity_instances(config.seed, p):
            rows += [IdentityRow(check, p, n, instance, "pass" if holds else "fail", lhs, rhs)
                     for family in families for check, instance, holds, lhs, rhs in family(*args)]
    return rows, [f"{r.check} {r.instance}" for r in rows if r.status == "fail"]


# ---------------------------------------------------------------------------
# command table


@dataclass(frozen=True)
class Command:
    """One CLI command: its runner, its output, its seeding and default range.

    run names the runner in this module; it is looked up when the command
    runs, so a wrapper set on the module attribute is the one called.  With
    columns None the runner returns one JSON object.  Otherwise it returns
    (rows, notes): rows of the namedtuple over columns, and note strings,
    each a skipped prime, or with fails set a failed check, which makes the
    exit code 1.  inputs names the stored-object flags passed to the runner
    after the config.
    """

    run: str
    columns: tuple | None
    seeded: bool = True
    p_range: tuple = (3, 13)
    inputs: tuple = ()
    fails: bool = False


COMMANDS = {
    "gen-form": Command("run_gen_form", None),
    "decompose": Command("run_decompose", None, seeded=False, inputs=("form",)),
    "charsum": Command("run_charsum", SCAN_COLUMNS, inputs=("form", "decomp")),
    "energy": Command("run_energy", SCAN_COLUMNS),
    "lattice": Command("run_lattice", SCAN_COLUMNS),
    "weil-check": Command("run_weil_check", SCAN_COLUMNS, seeded=False),
    "moment": Command("run_moment", SCAN_COLUMNS, seeded=False),
    "bound-table": Command("run_bound_table", BOUND_COLUMNS),
    "energy-scan": Command("run_energy_scan", SCAN_COLUMNS),
    "identity-suite": Command(
        "run_identity_suite", IDENTITY_COLUMNS, p_range=(3, 7), fails=True
    ),
}
