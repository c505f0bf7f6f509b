"""Exact multiplicative-energy counting for norm-form systems.

Every count is an integer, taken by a histogram over per-field pair
products: sums of discrete logs, counted by the class keys they fold to.
The histogram key's zero pattern carries the vanishing index set, so
degenerate classes stay separated, not skipped.  A symmetric window counts
its live pairs once per class up to -1 and the swap: as one squared
integer, the histogram of its live points packed as digits, while
_square_route says that is cheaper, else by the pair loop.  The literal
quadruple loop is the oracle: the restricted split runs it on every box
pair within QUAD_CROSS_CHECK_CAP, and no caller can turn it off.
energy_restricted and s1_identity_check's live count both read that one
split.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass

from . import field_core as fc
from . import forms as fm
from . import linalg as la

PAIR_CAP = 4 * 10**6
QUAD_CROSS_CHECK_CAP = 10**6
QUAD_SCAN_CAP = 10**9
# the weight of pair_cost in a command's cost: ns per pair of a window energy
# at n = 1, n = 2, and at n >= 3 over one field, two, and three or more.  With
# field tables built (best of 10, 2-vCPU virtual machine), a pair took 25 to
# 46 at n = 1 (p = 10^4 to 10^5); 18 to 33 with one field and 34 to 40 with
# two at n = 2 (p = 101 to 223); 16 to 23, 34 to 44 and 53 to 75 with one, two
# and three at n = 3 (p = 13 to 31).  At n >= 2 each weight is the floor (at
# n = 2 of two fields); at n = 1, where a prime's fixed work outweighs its
# pairs, it is energy-scan's wall time per pair from p = 3 to 18,000 (68 ns)
PAIR_NS = (70, 40, 16, 34, 53)
# _square_route's crossover: the squared integer's limb products, limbs^log2 3,
# against this many times a symmetric window's live pairs N(N - 1)/2.  With
# field tables built (best of 5, 2-vCPU virtual machine) the two routes tie at
# 34 (n = 1, p = 30,011) and between 27 and 43 with one field at n = 2
# (p = 199 to 251); with two or three fields a pair costs more and the tie
# lies past 60, so there the pair loop keeps a window the square would win
SQUARE_LIMB_WEIGHT = 35


def pair_cost(vol_x: int, vol_y: int) -> int:
    """The pairs a histogram over boxes of these volumes enumerates."""
    return vol_x * vol_y


def pair_ns(n: int, fields: int = 1) -> int:
    """PAIR_NS's weight of one pair of a window energy in n variables over
    this many fields, which it reads only at n >= 3."""
    return PAIR_NS[n - 1] if n < 3 else PAIR_NS[min(fields, 3) + 1]


def pairs_fit(vol_x: int, vol_y: int) -> bool:
    """Whether a pair histogram over boxes of these volumes is within PAIR_CAP."""
    return pair_cost(vol_x, vol_y) <= PAIR_CAP


def quadruple_cost(vol_x: int, vol_y: int) -> int:
    """The quadruples the literal loop tests over boxes of these volumes."""
    return pair_cost(vol_x, vol_y) ** 2


def _require_pairs(box_x: fm.BoxSpec, box_y: fm.BoxSpec):
    if not pairs_fit(box_x.volume, box_y.volume):
        raise ValueError("pair enumeration infeasible at this size")


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
    """lambda(x) per point by D.lam, for the literal oracle loops."""
    return [tuple(D.lam(i, x) for i in range(D.s)) for x in box.iter_points()]


# ---------------------------------------------------------------------------
# pair histograms in the log domain
#
# Each F_{q_i}^* is cyclic, so a product class of lambda_i values is the
# sum of their discrete logs mod q_i - 1, with zero a class of its own.  A
# box is held as one list per field (fc.linear_logs): the discrete log of
# lambda_i(x) at each point, in box order, or for zero a sentinel above
# every sum of two logs.  A pair's sums are taken field by field, and
# each row of sums is folded to class keys by C-level maps as it is counted.


def _box_logs(D: fm.NormFormDecomposition, box: fm.BoxSpec) -> list:
    """The log list of each lambda_i over the box (fc.linear_logs)."""
    return [fc.linear_logs(ctx, U, box.axes()) for U, ctx in zip(D.blocks, D.ctxs)]


def _class_keys(folds):
    """The map from per-field rows of sums to class keys, for a list of
    (fold, radix) pairs: each field's sums are read from its fold, pre-scaled
    by the product of the lower radices, and the reads are added."""
    reads, scale = [], 1
    for fold, radix in folds:
        reads.append((fold if scale == 1 else [t * scale for t in fold]).__getitem__)
        scale *= radix

    def keys(sums):
        return functools.reduce(functools.partial(map, operator.add), map(map, reads, sums))

    return keys


def _pair_histogram(D: fm.NormFormDecomposition, logs_u, logs_v) -> Counter:
    """Pair counts per product class over all pairs (u, v): each u's entries
    are added to the partner lists of their fields, and the row's keys, read
    from each field's fc.log_fold in base q_i (a log, or the zero marker
    q_i - 1: _has_zero_factor), are counted by one Counter update."""
    keys, hist = _class_keys([(fc.log_fold(ctx), ctx.order) for ctx in D.ctxs]), Counter()
    for adds in zip(*([a.__add__ for a in logs] for logs in logs_u)):
        hist.update(keys(map(map, adds, logs_v)))
    return hist


def _sign_quotient(D: fm.NormFormDecomposition, logs):
    """(coords, keys, moduli, |<-1>|): live points' coordinates in G = Q / <-1>,
    Q = prod Z/(q_i - 1), from their log lists; the map from rows of
    coordinate sums to keys, equal exactly when the classes are equal up to
    -1, whose log is h_i = (q_i - 1)/2; and G's moduli m_i, one per field.  The
    pivot r has the fewest factors 2 in q_r - 1, so c_i h_r = h_i mod q_i - 1
    is solvable: a point's coordinates are a_r mod m_r = h_r and
    a_i - c_i a_r mod m_i = q_i - 1.  At p = 2, -1 = 1: they are the logs."""
    moduli = [ctx.order - 1 for ctx in D.ctxs]
    r = min(range(D.s), key=lambda i: moduli[i] & -moduli[i])
    folds = [(fc.log_fold(ctx), m) for ctx, m in zip(D.ctxs, moduli)]
    shifts = [0] * D.s
    if D.p > 2:
        h = moduli[r] = moduli[r] // 2
        folds[r] = (folds[r][0][:h] * 2, h)
        for i, o in enumerate(moduli):
            if i != r:
                g = math.gcd(h, o)
                shifts[i] = o // 2 // g * pow(h // g, -1, o // g)
                if shifts[i] * h % o != o // 2:
                    raise la.CheckFailed(f"sign quotient: no c with c {h} = {o // 2} mod {o}")
    coords = [[(a - c * b) % m for a, b in zip(field, logs[r])]
              for field, c, m in zip(logs, shifts, moduli)]
    return coords, _class_keys(folds), moduli, 2 if D.p > 2 else 1


def _pair_count(coords, keys) -> int:
    """sum_x (h*h)(x)^2 for the histogram h of the coordinates, by the pair
    loop: each unordered pair of points, and each point with itself, is keyed
    by keys, and a class of U pairs and Dg diagonal ones holds 2U + Dg."""
    pairs = Counter()
    for j, adds in enumerate(zip(*([a.__add__ for a in field] for field in coords))):
        pairs.update(keys(map(map, adds, [field[j + 1:] for field in coords])))
    diagonal = Counter(keys([a + a for a in field] for field in coords))
    count = 4 * sum(map(operator.mul, pairs.values(), pairs.values()))
    return count + sum(d * (4 * pairs[key] + d) for key, d in diagonal.items())


def _class_histogram(coords, moduli):
    """(h, sizes): the Counter of the points' row-major indices over G =
    prod Z/m_i, largest modulus outermost, and G's moduli in that order."""
    order = sorted(range(len(moduli)), key=moduli.__getitem__, reverse=True)
    index = coords[order[0]]
    for i in order[1:]:
        index = map(operator.add, map(operator.mul, index, itertools.repeat(moduli[i])), coords[i])
    return Counter(index), [moduli[i] for i in order]


def _digit_code(bound: int) -> str:
    """The array typecode of the narrowest of 8, 16, 32 and 64 bits above bound."""
    for code in "BHIQ":
        if bound < 1 << 8 * array.array(code).itemsize:
            return code
    raise ValueError(f"digit bound {bound} needs more than 64 bits")


def _square_route(h: Counter, moduli) -> bool:
    """Whether a live count takes the squared integer: _cyclic_square's packed
    operand's 30-bit limbs to the power log2 3 (the Karatsuba square's limb
    products) are at most SQUARE_LIMB_WEIGHT times the pair loop's N(N - 1)/2
    pairs."""
    n = sum(h.values())
    width = 8 * array.array(_digit_code(n * max(h.values(), default=0))).itemsize
    limbs = -(-width * moduli[0] * math.prod(2 * m for m in moduli[1:]) // 30)
    return limbs ** math.log2(3) <= SQUARE_LIMB_WEIGHT * n * (n - 1) // 2


def _square_count(h: Counter, moduli) -> int:
    """sum_x (h*h)(x)^2 for a Counter h of row-major indices over prod Z/m_i,
    by _cyclic_square."""
    digits = _cyclic_square(h, moduli)
    return sum(map(operator.mul, digits, digits))


def _little_endian(digits: array.array) -> array.array:
    """The digits, byte-swapped in place on a big-endian machine, so that
    their bytes read as one little-endian int."""
    if sys.byteorder == "big":
        digits.byteswap()
    return digits


def _cyclic_square(h, moduli) -> array.array:
    """The cyclic self-convolution h*h over G = prod Z/m_i of a nonnegative
    histogram h, a map from row-major indices (moduli[0] outermost) to
    counts, listed in that order; at s = 1, the cyclic self-convolution mod
    m_0 of the weight vector that h maps.

    Kronecker substitution: h is packed as fixed-width unsigned digits of one
    int, dimension 0 as it is and every other one padded to 2 m_i, where a
    sum a + b of two indices stays.  The int is squared once; the square's
    outer half is folded onto dimension 0 by one mask and shift, and each
    inner dimension's upper half onto its lower by one repeating mask.  Every
    digit, folded or not, is a sum of class counts of h*h, so at most
    N max(h), N = sum(h), which the digit width exceeds.  The folded digits
    must total N^2, else the width was short and CheckFailed is raised.
    """
    n = sum(h.values())
    code = _digit_code(n * max(h.values(), default=0))
    width = 8 * array.array(code).itemsize
    # digits per step of each dimension, the last one's being 1, and the
    # first digit of each row of the last dimension
    steps = [1]
    for m in reversed(moduli[1:]):
        steps.insert(0, 2 * m * steps[0])
    size, last = moduli[0] * steps[0], moduli[-1]
    rows = [sum(t) for t in itertools.product(
        *(range(0, m * step, step) for m, step in zip(moduli[:-1], steps)))]
    packed = array.array(code, bytes(size * width // 8))
    for index, c in h.items():
        row, a = divmod(index, last)
        packed[rows[row] + a] = c
    x = int.from_bytes(_little_endian(packed).tobytes(), "little")
    x *= x
    x = (x & ((1 << size * width) - 1)) + (x >> size * width)
    for m, step in zip(moduli[1:], steps[1:]):
        half = m * step * width // 8
        upper = x & int.from_bytes((bytes(half) + b"\xff" * half) * (size // (2 * m * step)),
                                   "little")
        x += (upper >> 8 * half) - upper
    try:
        folded = _little_endian(array.array(code, x.to_bytes(size * width // 8, "little")))
    except OverflowError:
        raise la.CheckFailed(f"cyclic square: digits of {width} bits overflow") from None
    square = array.array(code)
    for row in rows:
        square += folded[row:row + last]
    if sum(square) != n * n:
        raise la.CheckFailed(f"cyclic square: digits total {sum(square)}, not {n}^2")
    return square


def _quotient_energy(D: fm.NormFormDecomposition, logs) -> int:
    """The energy sum c^2 over _pair_histogram(D, logs, logs), for a symmetric box.

    Each lambda_i is F_p-linear, so (-x, y) moves a live pair's class by -1
    and (y, x) keeps it: live classes are counted in G = Q / <-1>
    (_sign_quotient) over ordered pairs of live points in the box's first
    half (point i's negative is point vol - 1 - i), where a class holds
    (h*h)(x) of them for the histogram h of their coordinates, and 4 (h*h)(x)
    pairs in each of |<-1>| classes.  sum_x (h*h)(x)^2 is taken by one
    squared integer or by the pair loop, as _square_route says.  Pairs
    with a dead point (some lambda_i = 0) have zero-marked classes: a dead
    point of the first half weighs 4 with a live point and 2 with a dead one,
    and the origin's other pairs, vol + |live|, are all-zero.
    """
    vol, orders = len(logs[0]), [ctx.order - 1 for ctx in D.ctxs]
    live = [all(map(operator.lt, point, orders)) for point in zip(*logs)]
    dead = list(map(operator.not_, live))
    live_half, dead_half, lives, deads = (
        [list(itertools.compress(field, mask)) for field in logs]
        for mask in (live[:vol // 2], dead[:vol // 2], live, dead))
    coords, keys, moduli, sign = _sign_quotient(D, live_half)
    h, sizes = _class_histogram(coords, moduli)
    energy = _square_count(h, sizes) if _square_route(h, sizes) else _pair_count(coords, keys)

    zeros = Counter()
    for weight, partners in ((4, lives), (2, deads)):
        for key, c in _pair_histogram(D, dead_half, partners).items():
            zeros[key] += weight * c
    zeros[math.prod(ctx.order for ctx in D.ctxs) - 1] += vol + len(lives[0])
    return 16 // sign * energy + sum(map(operator.mul, zeros.values(), zeros.values()))


def _inverse_logs(D: fm.NormFormDecomposition, logs) -> list:
    """The log lists of lambda(x)^-1: each log L becomes -L mod (q_i - 1),
    and a zero sentinel stays, so a ratio's class shows a zero factor as a
    product's does."""
    return [[-t % (ctx.order - 1) if t < ctx.order - 1 else t for t in field]
            for ctx, field in zip(D.ctxs, logs)]


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
    logs = _box_logs(D, box)
    # one box in both slots, with box == -box
    if inst.box_y == box and all(2 * n + h == -1 for n, h in zip(box.N, box.H)):
        return _quotient_energy(D, logs)
    hist = _pair_histogram(D, logs, _box_logs(D, inst.box_y))
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


def energy_symmetric(D: fm.NormFormDecomposition, H) -> int:
    """Energy over the centered window [-H, H] in both slots."""
    box = fm.BoxSpec.symmetric(H)
    return energy_histogram(EnergyInstance(D, box, box))


def s1_identity_check(D: fm.NormFormDecomposition, box_x: fm.BoxSpec, box_y: fm.BoxSpec):
    """Ratio-histogram second moment against the all-nonzero quadruple count.

    Returns (sum of eta^2, quadruple count, equal).  Also checks the
    Cauchy-Schwarz bound against the two single-box energies.
    """
    _require_pairs(box_x, box_y)
    logs_x, logs_y = _box_logs(D, box_x), _box_logs(D, box_y)
    quads = _restricted_split(D, (D,) * 4, box_x, box_y, (logs_x, logs_x, logs_y, logs_y))[0]
    # lambda(x)/lambda(y) over the pairs with no zero factor: both points live
    ratios = _pair_histogram(D, logs_x, _inverse_logs(D, logs_y))
    s1 = sum(c * c for key, c in ratios.items() if not _has_zero_factor(D, key))

    e_x = energy_histogram(EnergyInstance(D, box_x, box_x))
    e_y = energy_histogram(EnergyInstance(D, box_y, box_y))
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


def energy_restricted(inst: GeneralizedEnergyInstance):
    """Split the four-matrix energy by vanishing of lambda^1(x) lambda^4(y').

    Returns (E_live, E_degenerate, total) with the first component counting
    quadruples whose tested products are all nonzero.  The defining
    equations force the two sides to vanish together, so testing all four
    factors splits the same way; within QUAD_CROSS_CHECK_CAP, the literal loop
    checks both splits in one pass.
    """
    D = inst.decomposition
    # lambda^j(x): the rows of a_j sliced by the partition, in the power bases
    Ds = [fm.NormFormDecomposition(D.p, D.n, D.partition, D.ctxs, _split_rows(M, D.partition))
          for M in inst.matrices]
    box_x, box_y = inst.box_x, inst.box_y
    _require_pairs(box_x, box_y)
    logs = [_box_logs(Dj, box) for Dj, box in zip(Ds, (box_x, box_x, box_y, box_y))]
    return _restricted_split(D, Ds, box_x, box_y, logs)


def _restricted_split(D: fm.NormFormDecomposition, Ds, box_x: fm.BoxSpec, box_y: fm.BoxSpec,
                      logs):
    """energy_restricted's split of the energy of the four systems Ds, with
    lambda^1 and lambda^2 over box_x and lambda^3 and lambda^4 over box_y,
    from their _box_logs; h14 is h23 when each box has one system."""
    h14 = _pair_histogram(D, logs[0], logs[3])
    h23 = h14 if Ds[0] is Ds[1] and Ds[2] is Ds[3] else _pair_histogram(D, logs[1], logs[2])
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

    if quadruple_cost(box_x.volume, box_y.volume) <= QUAD_CROSS_CHECK_CAP:
        tables = (_lam_table(Dj, box) for Dj, box in zip(Ds, (box_x, box_x, box_y, box_y)))
        count = two = four = 0
        for l1, l2, l3, l4 in _literal_quadruples(D, *tables):
            count += 1
            two += all(map(any, l1 + l4))
            four += all(map(any, l1 + l2 + l3 + l4))
        for factors, lit_live in ((2, two), (4, four)):
            if (lit_live, count - lit_live) != (live, degenerate):
                raise la.CheckFailed(
                    f"literal loop counts {lit_live}, histogram {live}: split testing "
                    f"{factors} factors {lit_live, count - lit_live} != {live, degenerate}"
                )
    return live, degenerate, total


def embed_energy(inst: EnergyInstance):
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
    e_small = energy_histogram(inst)
    e_big = energy_histogram(EnergyInstance(D_big, big_x, big_y))
    return e_small, e_big, e_small <= e_big


def elementary_bounds_check(inst: EnergyInstance) -> dict:
    """Diagonal lower bound checked; cube-scale upper ratio reported."""
    value = energy_histogram(inst)
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
