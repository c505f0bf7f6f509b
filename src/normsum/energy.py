"""Exact multiplicative-energy counting for norm-form systems.

Every count is an integer, and each is produced by two independent
algorithms where feasible: a literal quadruple loop and a histogram over
per-field pair products, taken as sums of discrete logs and counted by the
class keys they fold to.  The histogram key's zero pattern carries the
vanishing index set, so degenerate classes stay separated, not skipped.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from . import field_core as fc
from . import forms as fm
from . import linalg as la

PAIR_CAP = 4 * 10**6
QUAD_CROSS_CHECK_CAP = 10**6
QUAD_SCAN_CAP = 10**9
# the weight of pair_cost in a command's cost: ns per pair of a window energy
# at n = 1, n = 2 and n >= 3.  With field tables built, a pair took 72 to 254
# at n = 1, 33 to 116 at n = 2 and 29 to 241 at n >= 3 (2-vCPU virtual
# machine, slowest on the smallest windows); the weights stay above most of
# these, as no cost prices each prime's fixed work
PAIR_NS = (175, 95, 40)


def pair_cost(vol_x: int, vol_y: int) -> int:
    """The pairs a histogram over boxes of these volumes enumerates."""
    return vol_x * vol_y


def pair_ns(n: int) -> int:
    """PAIR_NS's weight of one pair of a window energy in n variables."""
    return PAIR_NS[min(n, 3) - 1]


def pairs_fit(vol_x: int, vol_y: int) -> bool:
    """Whether a pair histogram over boxes of these volumes is within PAIR_CAP."""
    return pair_cost(vol_x, vol_y) <= PAIR_CAP


def quadruple_cost(vol_x: int, vol_y: int) -> int:
    """The quadruples the literal loop tests over boxes of these volumes."""
    return pair_cost(vol_x, vol_y) ** 2


def _require_pairs(box_x: fm.BoxSpec, box_y: fm.BoxSpec):
    if not pairs_fit(box_x.volume, box_y.volume):
        raise ValueError("pair enumeration infeasible at this size")


def _cross_checks(box_x: fm.BoxSpec, box_y: fm.BoxSpec, cross_check) -> bool:
    """cross_check, or when it is None whether the literal loop over the
    boxes is within QUAD_CROSS_CHECK_CAP."""
    if cross_check is None:
        return quadruple_cost(box_x.volume, box_y.volume) <= QUAD_CROSS_CHECK_CAP
    return cross_check


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


def _lam_table(D: fm.NormFormDecomposition, box: fm.BoxSpec, blocks=None) -> list:
    """lambda(x) per point as coefficient tuples, for the literal oracle loops;
    the restricted energies pass a matrix's partition blocks for D's own."""
    blocks = D.blocks if blocks is None else blocks
    return [
        tuple(tuple(la.mat_vec(U, x, D.p)) for U in blocks) for x in box.iter_points()
    ]


# ---------------------------------------------------------------------------
# pair histograms in the log domain
#
# Each F_{q_i}^* is cyclic, so a product class of lambda_i values is the
# sum of their discrete logs mod q_i - 1, with zero a class of its own.  A
# point is coded as one int, sum_i L_i S_i, where L_i is the log of
# lambda_i(x) or the zero sentinel Z_i = 2(q_i - 1) - 1 of fc.log_table,
# in the mixed radix S_{i+1} = S_i (4(q_i - 1) - 1).  Adding two codes
# adds digit-wise without carries (a digit sum is at most 2 Z_i), and a
# digit sum is below Z_i exactly when both factors are nonzero.  Each row
# of sums is folded to class keys by C-level maps as it is counted.


def _log_codes(D: fm.NormFormDecomposition, box: fm.BoxSpec, blocks=None) -> list:
    """The log code of lambda(x) for each point x of the box, in box order.

    Each row's residues u.x mod p are built over the whole box from its
    steps u_j t along each axis, in iter_points order; the base-p index, the
    log lookup and the digit of each field are then taken list-wide.
    """
    p = D.p
    blocks = D.blocks if blocks is None else blocks
    codes, scale = [0] * box.volume, 1
    for U, ctx in zip(blocks, D.ctxs):
        idx = itertools.repeat(0)
        for j, row in enumerate(U):
            steps = ([u * t for t in axis] for u, axis in zip(row, box.axes()))
            residues = map(operator.mod, map(sum, itertools.product(*steps)), itertools.repeat(p))
            idx = map(operator.add, idx, map(operator.mul, residues, itertools.repeat(p**j)))
        logs = map(fc.log_table(ctx).__getitem__, idx)
        codes = list(map(operator.add, codes, map(operator.mul, logs, itertools.repeat(scale))))
        scale *= 4 * (ctx.order - 1) - 1
    return codes


def _class_keys(D: fm.NormFormDecomposition):
    """The map from a row of raw code sums to their class keys.  A class key
    has digit t_i in base q_i: the log of the product, or the zero marker
    q_i - 1 (_has_zero_factor).  Each lower digit of a sum is taken by mod
    and floordiv by its base 4(q_i - 1) - 1, the top digit is what the
    floordivs leave, and each is read from its fc.log_fold, pre-scaled by
    the product of the lower q's."""
    folds, scale = [], 1
    for ctx in D.ctxs:
        fold = fc.log_fold(ctx) if scale == 1 else [t * scale for t in fc.log_fold(ctx)]
        folds.append((itertools.repeat(4 * (ctx.order - 1) - 1), fold.__getitem__))
        scale *= ctx.order
    *lower, (_, top) = folds

    def keys(row):
        rest, digits = list(row) if lower else row, []
        for base, read in lower:
            digits.append(map(read, map(operator.mod, rest, base)))
            rest = list(map(operator.floordiv, rest, base))
        return functools.reduce(functools.partial(map, operator.add), digits, map(top, rest))

    return keys


def _pair_histogram(D: fm.NormFormDecomposition, codes_u, codes_v) -> Counter:
    """Pair counts per product class over all pairs (u, v): each u's row of
    sums is mapped to class keys and counted by one Counter update."""
    keys, hist = _class_keys(D), Counter()
    for a in codes_u:
        hist.update(keys(map(a.__add__, codes_v)))
    return hist


def _orbit_energy(D: fm.NormFormDecomposition, codes) -> int:
    """The energy sum c^2 over _pair_histogram(D, codes, codes), for a symmetric box.

    Each lambda_i is F_p-linear, so (x, y) -> (y, x) and (x, y) -> (-x, -y)
    keep a pair's class; one pair per orbit is counted, weighted by the
    orbit's size.  Point i's negative is point vol - 1 - i.  With x in the
    positive half: (x, +-z) for each z after x weighs 4, (x, x) and (x, -x)
    weigh 2, the origin's pairs 2 and (0, 0) itself 1.  A class of c
    weight-4 pairs and e from the rest has size 4c + e, and e is nonzero
    at few classes: E is 16 sum c^2 plus e(8c + e) at each of those.
    """
    h = len(codes) // 2
    pos, origin, neg = codes[:h], codes[h], codes[:h:-1]
    # z and -z in turn, so each x's partners are one slice
    both = [c for pair in zip(pos, neg) for c in pair]
    keys, fours = _class_keys(D), Counter()
    for i, a in enumerate(pos):
        fours.update(keys(map(a.__add__, both[2 * i + 2:])))
    twos = [a + b for a, b in zip(pos + pos, pos + neg)] + [origin + c for c in pos + neg]
    rest = Counter(keys(twos * 2 + [origin + origin]))
    energy = 16 * sum(map(operator.mul, fours.values(), fours.values()))
    return energy + sum(e * (8 * fours[key] + e) for key, e in rest.items())


def _inverse_codes(D: fm.NormFormDecomposition, codes) -> list:
    """The codes of lambda(x)^-1: each log L becomes -L mod (q_i - 1), and
    a zero sentinel stays, so a ratio's class shows a zero factor as a
    product's does."""
    out = []
    for code in codes:
        inverse, scale = 0, 1
        for ctx in D.ctxs:
            base, order = 4 * (ctx.order - 1) - 1, ctx.order - 1
            code, log = divmod(code, base)
            inverse += (-log % order if log < order else log) * scale
            scale *= base
        out.append(inverse)
    return out


def _has_zero_factor(D: fm.NormFormDecomposition, key: int) -> bool:
    """Whether a class key of _pair_histogram marks a zero product."""
    for ctx in D.ctxs:
        key, t = divmod(key, ctx.order)
        if t == ctx.order - 1:
            return True
    return False


def energy_histogram(inst: EnergyInstance) -> int:
    """Pair-product histogram route: E = sum of squared class sizes.

    Quadruples (x, x', y, y') biject with pair couples ((x, y'), (x', y)),
    and the defining equations say the two pairs share their product
    tuple, zeros included.
    """
    D = inst.decomposition
    _require_pairs(inst.box_x, inst.box_y)
    box = inst.box_x
    codes = _log_codes(D, box)
    # one box in both slots, with box == -box
    if inst.box_y == box and all(2 * n + h == -1 for n, h in zip(box.N, box.H)):
        return _orbit_energy(D, codes)
    hist = _pair_histogram(D, codes, _log_codes(D, inst.box_y))
    return sum(map(operator.mul, hist.values(), hist.values()))


def _literal_quadruples(D: fm.NormFormDecomposition, t1, t2, t3, t4):
    """Each (l1, l2, l3, l4) of the four lambda tables with l1_i l4_i = l2_i l3_i.

    The literal oracle: the equation is tested in every field, quadruple by
    quadruple, on products taken with fc.mul_kernel, each pair's once.
    """
    muls = [fc.mul_kernel(ctx) for ctx in D.ctxs]

    def products(ta, tb):
        return [
            (a, b, tuple(mul(u, v) for mul, u, v in zip(muls, a, b))) for a in ta for b in tb
        ]

    right = products(t2, t3)
    for l1, l4, left in products(t1, t4):
        for l2, l3, prod in right:
            if prod == left:
                yield l1, l2, l3, l4


def energy_quadruple_loop(inst: EnergyInstance) -> int:
    """Literal definition: test the per-field equation on each quadruple."""
    D = inst.decomposition
    if quadruple_cost(inst.box_x.volume, inst.box_y.volume) > QUAD_SCAN_CAP:
        raise ValueError("quadruple enumeration infeasible at this size")
    table_x = _lam_table(D, inst.box_x)
    table_y = _lam_table(D, inst.box_y)
    return sum(1 for _ in _literal_quadruples(D, table_x, table_x, table_y, table_y))


def energy_bruteforce(inst: EnergyInstance, cross_check=None) -> int:
    """Exact energy count; both routes must agree whenever both run."""
    value = energy_histogram(inst)
    checks = _cross_checks(inst.box_x, inst.box_y, cross_check)
    if checks and energy_quadruple_loop(inst) != value:
        raise la.CheckFailed("quadruple loop and pair histogram give different energies")
    return value


def energy_symmetric(D: fm.NormFormDecomposition, H, cross_check=None) -> int:
    """Energy over the centered window [-H, H] in both slots."""
    box = fm.BoxSpec.symmetric(H)
    return energy_bruteforce(EnergyInstance(D, box, box), cross_check)


def s1_identity_check(D: fm.NormFormDecomposition, box_x: fm.BoxSpec, box_y: fm.BoxSpec):
    """Ratio-histogram second moment against the all-nonzero quadruple count.

    Returns (sum of eta^2, quadruple count, equal).  Also checks the
    Cauchy-Schwarz bound against the two single-box energies.
    """
    _require_pairs(box_x, box_y)
    codes_x, codes_y = _log_codes(D, box_x), _log_codes(D, box_y)
    # lambda(x)/lambda(y) and lambda(x)lambda(y), counted over the pairs
    # with no zero factor: those whose points are both live
    s1, quads = (
        sum(c * c for key, c in _pair_histogram(D, codes_x, codes).items()
            if not _has_zero_factor(D, key))
        for codes in (_inverse_codes(D, codes_y), codes_y)
    )

    if _cross_checks(box_x, box_y, None):
        lx, ly = ([l for l in _lam_table(D, b) if all(map(any, l))] for b in (box_x, box_y))
        literal = sum(1 for _ in _literal_quadruples(D, lx, lx, ly, ly))
        if literal != quads:
            raise la.CheckFailed(f"literal loop counts {literal}, histogram {quads}")

    e_x = energy_bruteforce(EnergyInstance(D, box_x, box_x), cross_check=False)
    e_y = energy_bruteforce(EnergyInstance(D, box_y, box_y), cross_check=False)
    if s1 * s1 > e_x * e_y:
        raise la.CheckFailed(f"Cauchy-Schwarz fails: {s1}^2 > {e_x} * {e_y}")
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


def _split_rows(M, partition) -> tuple:
    """The rows of M cut into blocks of the partition's sizes."""
    ends = list(itertools.accumulate(partition))
    return tuple(M[a:b] for a, b in zip([0] + ends, ends))


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
    box_x, box_y = inst.box_x, inst.box_y
    _require_pairs(box_x, box_y)
    # lambda^j(x): the rows of a_j sliced by the partition, in the power bases
    blocks = [_split_rows(M, D.partition) for M in inst.matrices]
    h14, h23 = (
        _pair_histogram(D, _log_codes(D, box_x, blocks[i]), _log_codes(D, box_y, blocks[j]))
        for i, j in ((0, 3), (1, 2))
    )
    total = live = degenerate = 0
    for key, c14 in h14.items():
        c = c14 * h23.get(key, 0)
        total += c
        if _has_zero_factor(D, key):
            degenerate += c
        else:
            live += c
    if live + degenerate != total:
        raise la.CheckFailed(f"live {live} + degenerate {degenerate} != {total}")

    if _cross_checks(box_x, box_y, cross_check):
        tables = (
            _lam_table(D, box, U) for box, U in zip((box_x, box_x, box_y, box_y), blocks)
        )
        lit_live = lit_deg = 0
        for quad in _literal_quadruples(D, *tables):
            tested = quad if symmetric_variant else (quad[0], quad[3])
            if not all(any(e) for l in tested for e in l):
                lit_deg += 1
            else:
                lit_live += 1
        if (lit_live, lit_deg) != (live, degenerate):
            raise la.CheckFailed(f"literal split {lit_live, lit_deg} != {live, degenerate}")
    return live, degenerate, total


def embed_energy(inst: EnergyInstance, cross_check=None):
    """Compare a rectangular-system count with its square-system embedding.

    Extends the stacked matrix's columns to a basis and pins the appended
    coordinates to the single value 0, so embedded quadruples biject with
    the originals.  Returns (E_small, E_big, E_small <= E_big).
    """
    D = inst.decomposition
    n, k, p = D.n, D.k, D.p
    A_big = tuple(zip(*la.extend_to_basis(zip(*D.A), p)))
    D_big = fm.NormFormDecomposition(p, k, D.partition, D.ctxs, _split_rows(A_big, D.partition))
    pad_n = (-1,) * (k - n)
    pad_h = (1,) * (k - n)
    big_x = fm.BoxSpec(inst.box_x.N + pad_n, inst.box_x.H + pad_h)
    big_y = fm.BoxSpec(inst.box_y.N + pad_n, inst.box_y.H + pad_h)
    e_small = energy_bruteforce(inst, cross_check)
    e_big = energy_bruteforce(EnergyInstance(D_big, big_x, big_y), cross_check)
    return e_small, e_big, e_small <= e_big


def elementary_bounds_check(inst: EnergyInstance, cross_check=None) -> dict:
    """Diagonal lower bound checked; cube-scale upper ratio reported."""
    value = energy_bruteforce(inst, cross_check)
    lower = inst.box_x.volume * inst.box_y.volume
    if value < lower:
        raise la.CheckFailed(f"energy {value} below the diagonal count {lower}")
    n = inst.decomposition.n
    h_max = max(inst.box_x.H + inst.box_y.H)
    return {
        "energy": value,
        "diagonal_lower": lower,
        "upper_ratio": value / h_max ** (3 * n),
    }
