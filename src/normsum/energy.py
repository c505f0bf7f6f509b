"""Exact multiplicative-energy counting for norm-form systems.

Every count is an integer, and each is produced by two independent
algorithms where feasible: a literal quadruple loop and a histogram over
per-field pair products.  The histogram key's zero pattern carries the
vanishing index set, so degenerate classes stay separated rather than
being skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import field_core as fc
from . import forms as fm
from . import linalg as la

PAIR_CAP = 4 * 10**6
QUAD_CROSS_CHECK_CAP = 10**6
QUAD_SCAN_CAP = 10**9


@dataclass(frozen=True)
class EnergyInstance:
    decomposition: fm.NormFormDecomposition
    box_x: fm.BoxSpec
    box_y: fm.BoxSpec

    def __post_init__(self):
        D = self.decomposition
        if self.box_x.dim != D.n or self.box_y.dim != D.n:
            raise ValueError("box dimension and system arity differ")
        if la.mat_rank(D.A, D.p) != D.n:
            raise fm.RankConditionError(
                "stacked coefficient matrix must have full column rank"
            )


def _lam_table(D: fm.NormFormDecomposition, box: fm.BoxSpec) -> list:
    return [tuple(D.lam(i, x) for i in range(D.s)) for x in box.iter_points()]


def _raw(table) -> list:
    return [tuple(e.coeffs for e in lam) for lam in table]


def _kernels(D: fm.NormFormDecomposition) -> tuple:
    """Raw-tuple products per field: the histogram loops are the hot path."""
    return tuple(fc.mul_kernel(ctx) for ctx in D.ctxs)


def _pair_histogram(raw_u, raw_v, kernels) -> dict:
    hist: dict = {}
    if len(kernels) == 1:
        mul = kernels[0]
        for (a,) in raw_u:
            for (b,) in raw_v:
                key = (mul(a, b),)
                hist[key] = hist.get(key, 0) + 1
        return hist
    for lu in raw_u:
        for lv in raw_v:
            key = tuple(mul(a, b) for mul, a, b in zip(kernels, lu, lv))
            hist[key] = hist.get(key, 0) + 1
    return hist


def energy_histogram(inst: EnergyInstance) -> int:
    """Pair-product histogram route: E = sum of squared class sizes.

    Quadruples (x, x', y, y') biject with pair couples ((x, y'), (x', y)),
    and the defining equations say the two pairs share their product
    tuple, zeros included.
    """
    D = inst.decomposition
    table_x = _lam_table(D, inst.box_x)
    table_y = _lam_table(D, inst.box_y)
    if len(table_x) * len(table_y) > PAIR_CAP:
        raise ValueError("pair enumeration infeasible at this size")
    hist = _pair_histogram(_raw(table_x), _raw(table_y), _kernels(D))
    return sum(c * c for c in hist.values())


def energy_quadruple_loop(inst: EnergyInstance) -> int:
    """Literal definition: test the per-field equation on each quadruple."""
    D = inst.decomposition
    table_x = _lam_table(D, inst.box_x)
    table_y = _lam_table(D, inst.box_y)
    if (len(table_x) * len(table_y)) ** 2 > QUAD_SCAN_CAP:
        raise ValueError("quadruple enumeration infeasible at this size")
    count = 0
    s = D.s
    for lx in table_x:
        for lxp in table_x:
            for ly in table_y:
                for lyp in table_y:
                    if all(
                        fc.ext_mul(lx[i], lyp[i]) == fc.ext_mul(lxp[i], ly[i])
                        for i in range(s)
                    ):
                        count += 1
    return count


def energy_bruteforce(inst: EnergyInstance, cross_check=None) -> int:
    """Exact energy count; both routes must agree whenever both run."""
    value = energy_histogram(inst)
    quads = (inst.box_x.volume * inst.box_y.volume) ** 2
    if cross_check is None:
        cross_check = quads <= QUAD_CROSS_CHECK_CAP
    if cross_check:
        assert energy_quadruple_loop(inst) == value
    return value


def energy_symmetric(D: fm.NormFormDecomposition, H, cross_check=None) -> int:
    """Energy over the centered window [-H, H] in both slots."""
    box = fm.BoxSpec.symmetric(H)
    return energy_bruteforce(EnergyInstance(D, box, box), cross_check)


def eta_count(D: fm.NormFormDecomposition, z, box_x: fm.BoxSpec, box_y: fm.BoxSpec) -> int:
    """Pairs (x, y) with lambda_i(x) = z_i lambda_i(y), all factors nonzero."""
    z = tuple(z)
    if len(z) != D.s:
        raise ValueError("one ratio component per field factor")
    if any(zi.is_zero() for zi in z):
        raise ValueError("ratio components must be nonzero")
    hist_x: dict = {}
    for lx in _lam_table(D, box_x):
        key = tuple(e.coeffs for e in lx)
        hist_x[key] = hist_x.get(key, 0) + 1
    count = 0
    for ly in _lam_table(D, box_y):
        if any(e.is_zero() for e in ly):
            continue
        target = tuple(fc.ext_mul(zi, e).coeffs for zi, e in zip(z, ly))
        count += hist_x.get(target, 0)
    return count


def s1_identity_check(D: fm.NormFormDecomposition, box_x: fm.BoxSpec, box_y: fm.BoxSpec):
    """Ratio-histogram second moment against the all-nonzero quadruple count.

    Returns (sum of eta^2, quadruple count, equal).  Also asserts the
    Cauchy-Schwarz bound against the two single-box energies.
    """
    table_x = _lam_table(D, box_x)
    table_y = _lam_table(D, box_y)
    if len(table_x) * len(table_y) > PAIR_CAP:
        raise ValueError("pair enumeration infeasible at this size")
    live_x = [lx for lx in table_x if not any(e.is_zero() for e in lx)]
    live_y = [ly for ly in table_y if not any(e.is_zero() for e in ly)]

    ratio_hist: dict = {}
    for lx in live_x:
        for ly in live_y:
            key = tuple(
                fc.ext_mul(a, fc.ext_inv(b)).coeffs for a, b in zip(lx, ly)
            )
            ratio_hist[key] = ratio_hist.get(key, 0) + 1
    s1 = sum(c * c for c in ratio_hist.values())

    prod_hist = _pair_histogram(_raw(live_x), _raw(live_y), _kernels(D))
    quads = sum(c * c for c in prod_hist.values())

    if (len(table_x) * len(table_y)) ** 2 <= QUAD_CROSS_CHECK_CAP:
        literal = 0
        for lx in live_x:
            for lxp in live_x:
                for ly in live_y:
                    for lyp in live_y:
                        if all(
                            fc.ext_mul(lx[i], lyp[i]) == fc.ext_mul(lxp[i], ly[i])
                            for i in range(D.s)
                        ):
                            literal += 1
        assert literal == quads

    e_x = energy_bruteforce(EnergyInstance(D, box_x, box_x), cross_check=False)
    e_y = energy_bruteforce(EnergyInstance(D, box_y, box_y), cross_check=False)
    assert s1 * s1 <= e_x * e_y
    return s1, quads, s1 == quads


@dataclass(frozen=True)
class GeneralizedEnergyInstance:
    decomposition: fm.NormFormDecomposition
    matrices: tuple
    box_x: fm.BoxSpec
    box_y: fm.BoxSpec

    def __post_init__(self):
        D = self.decomposition
        if D.k != D.n:
            raise ValueError("generalized instances need a square system")
        if len(self.matrices) != 4:
            raise ValueError("exactly four coefficient matrices required")
        mats = []
        for M in self.matrices:
            M = tuple(tuple(int(v) % D.p for v in row) for row in M)
            if len(M) != D.n or any(len(row) != D.n for row in M):
                raise ValueError(f"matrices must be {D.n} x {D.n}")
            if la.mat_rank(M, D.p) != D.n:
                raise ValueError("matrices must be nonsingular")
            mats.append(M)
        object.__setattr__(self, "matrices", tuple(mats))
        if self.box_x.dim != D.n or self.box_y.dim != D.n:
            raise ValueError("box dimension and system arity differ")


def _block_slices(partition):
    slices = []
    r0 = 0
    for ki in partition:
        slices.append((r0, r0 + ki))
        r0 += ki
    return slices


def _sliced_lam_table(D: fm.NormFormDecomposition, M, box: fm.BoxSpec) -> list:
    # rows of M sliced by the partition, read in the power bases
    slices = _block_slices(D.partition)
    table = []
    for x in box.iter_points():
        v = la.mat_vec(M, [int(c) for c in x], D.p)
        table.append(
            tuple(
                D.ctxs[i].element(tuple(v[a:b])) for i, (a, b) in enumerate(slices)
            )
        )
    return table


def energy_restricted(
    inst: GeneralizedEnergyInstance, symmetric_variant=False, cross_check=None
):
    """Split the four-matrix energy by vanishing of lambda^1(x) lambda^4(y').

    Returns (E_live, E_degenerate, total) with the first component counting
    quadruples whose tested products are all nonzero.  The defining
    equations force the two sides to vanish together, so the variant that
    tests all four factors counts the same quadruples; the literal loop
    checks that when symmetric_variant is set.
    """
    D = inst.decomposition
    a1, a2, a3, a4 = inst.matrices
    t1 = _sliced_lam_table(D, a1, inst.box_x)
    t2 = _sliced_lam_table(D, a2, inst.box_x)
    t3 = _sliced_lam_table(D, a3, inst.box_y)
    t4 = _sliced_lam_table(D, a4, inst.box_y)
    if len(t1) * len(t4) > PAIR_CAP:
        raise ValueError("pair enumeration infeasible at this size")
    kernels = _kernels(D)
    h14 = _pair_histogram(_raw(t1), _raw(t4), kernels)
    h23 = _pair_histogram(_raw(t2), _raw(t3), kernels)
    total = 0
    live = 0
    degenerate = 0
    for key, c14 in h14.items():
        c = c14 * h23.get(key, 0)
        total += c
        if any(all(v == 0 for v in comp) for comp in key):
            degenerate += c
        else:
            live += c
    assert live + degenerate == total

    quads = (len(t1) * len(t3)) ** 2
    if cross_check is None:
        cross_check = quads <= QUAD_CROSS_CHECK_CAP
    if cross_check:
        lit_live = lit_deg = 0
        for l1 in t1:
            for l2 in t2:
                for l3 in t3:
                    for l4 in t4:
                        if any(
                            fc.ext_mul(l1[i], l4[i]) != fc.ext_mul(l2[i], l3[i])
                            for i in range(D.s)
                        ):
                            continue
                        if symmetric_variant:
                            ok = not any(
                                e.is_zero() for l in (l1, l2, l3, l4) for e in l
                            )
                        else:
                            ok = not any(
                                l1[i].is_zero() or l4[i].is_zero()
                                for i in range(D.s)
                            )
                        if ok:
                            lit_live += 1
                        else:
                            lit_deg += 1
        assert (lit_live, lit_deg) == (live, degenerate)
    return live, degenerate, total


def derived_quadruples(matrices):
    """The two Cauchy-Schwarz companion quadruples of a matrix quadruple."""
    a1, a2, a3, a4 = matrices
    return (a1, a1, a2, a2), (a3, a3, a4, a4)


def _random_nonsingular(rng: random.Random, n: int, p: int):
    while True:
        M = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if la.mat_rank(M, p) == n:
            return M


def sampled_quadruple_family(
    D: fm.NormFormDecomposition, seed=0, count=100, extra=()
):
    """All-identity plus seeded random nonsingular quadruples plus extras."""
    rng = random.Random(seed)
    ident = tuple(tuple(row) for row in la.identity(D.n))
    family = [(ident, ident, ident, ident)]
    for _ in range(count):
        family.append(
            tuple(_random_nonsingular(rng, D.n, D.p) for _ in range(4))
        )
    family.extend(tuple(tuple(tuple(row) for row in M) for M in q) for q in extra)
    seen = set()
    unique = []
    for q in family:
        if q not in seen:
            seen.add(q)
            unique.append(q)
    return tuple(unique)


def c_sampled(D: fm.NormFormDecomposition, box: fm.BoxSpec, family, cross_check=False) -> int:
    """Family maximum of the same-box restricted energy."""
    best = 0
    for mats in family:
        live, _, _ = energy_restricted(
            GeneralizedEnergyInstance(D, mats, box, box), cross_check=cross_check
        )
        best = max(best, live)
    return best


def _extend_to_basis(A, p: int):
    """Append standard basis vectors until the columns span F_p^k."""
    k = len(A)
    cols = [list(col) for col in zip(*A)]
    for j in range(k):
        if len(cols) == k:
            break
        unit = [1 if i == j else 0 for i in range(k)]
        candidate = cols + [unit]
        if la.mat_rank(tuple(zip(*candidate)), p) == len(candidate):
            cols.append(unit)
    assert len(cols) == k
    return tuple(tuple(row) for row in zip(*cols))


def embed_energy(inst: EnergyInstance, cross_check=None):
    """Compare a rectangular-system count with its square-system embedding.

    Extends the stacked matrix's columns to a basis and pins the appended
    coordinates to the single value 0, so embedded quadruples biject with
    the originals.  Returns (E_small, E_big, E_small <= E_big).
    """
    D = inst.decomposition
    n, k, p = D.n, D.k, D.p
    A_big = _extend_to_basis(D.A, p)
    slices = _block_slices(D.partition)
    blocks = tuple(A_big[a:b] for a, b in slices)
    D_big = fm.NormFormDecomposition(p, k, D.partition, D.ctxs, blocks)
    pad_n = (-1,) * (k - n)
    pad_h = (1,) * (k - n)
    big_x = fm.BoxSpec(inst.box_x.N + pad_n, inst.box_x.H + pad_h)
    big_y = fm.BoxSpec(inst.box_y.N + pad_n, inst.box_y.H + pad_h)
    e_small = energy_bruteforce(inst, cross_check)
    e_big = energy_bruteforce(EnergyInstance(D_big, big_x, big_y), cross_check)
    return e_small, e_big, e_small <= e_big


def elementary_bounds_check(inst: EnergyInstance, cross_check=None) -> dict:
    """Diagonal lower bound asserted; cube-scale upper ratio reported."""
    value = energy_bruteforce(inst, cross_check)
    lower = inst.box_x.volume * inst.box_y.volume
    assert value >= lower
    n = inst.decomposition.n
    h_max = max(inst.box_x.H + inst.box_y.H)
    return {
        "energy": value,
        "diagonal_lower": lower,
        "upper_ratio": value / h_max ** (3 * n),
    }
