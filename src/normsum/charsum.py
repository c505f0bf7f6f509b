"""Short character sums, complete-sum checks, moments, bound calculators.

Sums accumulate exact char_core weight vectors and convert to a complex
number once at the end, so no float error accrues over the box.

The bound family has one exponent of p, p_exponent, the repository's
reading of the abstract's bound on boxes of side p^(1/4 + kappa); saving,
its optimal r by closed form and the same r by exact search all derive
from it in Fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import char_core as cc
from . import field_core as fc
from . import forms as fm
from . import linalg as la

BOX_CAP = 10**8
# moment_work's units: the command cap's 25 s of MOMENT_ENTRY_NS is 2.3 x 10^8
MOMENT_CAP = 25 * 10**7
# the fastest measured times of one unit of each cost below, in ns (on a
# 2-vCPU virtual machine): the weights of these costs in a command's cost.
# A term of weil_complete_sum took 640 to 860.  A box point of one route
# alone, evaluated a plane at a time with its P_ab packed for it, took 430
# to 730 (direct) and 432 to 742 (lifted) at n = 2 and 449 to 608 and 527
# to 758 at n = 3 over the bench's charsum boxes, in a slow spell where the
# line evaluators took 309 to 403, 287 to 730, 791 to 1073 and 1236 to
# 1936; two routes over one box pack once.  BOX_POINT_NS stays at 900, as
# a point costs more at field degree >= 4 or with hundreds of monomials.
# s2_moment's two units are fitted instead, as its time per unit moves
# with T and r (see moment_work)
BOX_POINT_NS = 900
WEIL_TERM_NS = 640
MOMENT_READ_NS = 330
MOMENT_ENTRY_NS = 110


def box_fits(volume: int) -> bool:
    """Whether a box sum over this many points is within BOX_CAP."""
    return volume <= BOX_CAP


def moment_work(p: int, k: int, T: int, r: int, d: int, fields: int) -> tuple[int, int]:
    """s2_moment's units over `fields` fields of total degree k with a
    character of order d: the p^k T index reads that key its z's, and the
    p - 1 entries that each inner weight class passes over in |inner|^2 and
    the r-th power, once per convolution.  The classes are at most the z's,
    and at most the multisets of T - j values among d, where j <= fields
    ceil(T/p) shifts z + t vanish in some field, summed by the hockey stick."""
    q, m = fc.capped_power(p, k), min(T, d - 1)
    zeros = min(T, fields * -(-T // p))
    # C(T + d - 1, m) >= ((T + d - 1) // m)^m multisets at j = 0: a count past
    # the z's is decided without computing it
    classes = q if m and fc.capped_power((T + d - 1) // m, m) >= q else (
        math.comb(T + d, d) - math.comb(T - zeros + d - 1, d))
    # |inner|^2, then a squaring per bit of r past the first and a product
    # per set bit
    convolutions = r.bit_length() + bin(r).count("1")
    return q * T, min(q, classes) * (p - 1) * convolutions


def moment_fits(p: int, k: int, T: int, r: int, d: int, fields: int) -> bool:
    """Whether s2_moment's index reads and class entries at these sizes
    together are within MOMENT_CAP."""
    return sum(moment_work(p, k, T, r, d, fields)) <= MOMENT_CAP


@dataclass(frozen=True)
class CharSumResult:
    term_count: int
    weights: tuple[int, ...]
    zero_terms: int

    @property
    def value(self) -> complex:
        """The sum as a complex float, taken from the weights."""
        return cc.weights_value(self.weights)

    def __post_init__(self):
        # with no negative count, |sum| <= sum(weights) <= term_count exactly
        if self.zero_terms < 0 or any(w < 0 for w in self.weights):
            raise la.CheckFailed("a weight or the zero count is negative")
        if sum(self.weights) + self.zero_terms != self.term_count:
            raise la.CheckFailed(
                f"weights and zero terms do not add up to {self.term_count} terms"
            )


def _box_sum(chi, B: fm.BoxSpec, values) -> CharSumResult:
    """The sum of chi over values(B), the box's residues a plane at a time."""
    if not box_fits(B.volume):
        raise ValueError(f"box volume {B.volume} over cap {BOX_CAP}")
    weights, zeros = cc.index_histogram(chi, itertools.chain.from_iterable(values(B)))
    return CharSumResult(B.volume, weights, zeros)


def charsum_direct(chi: cc.DirichletChar, F: fm.FormSpec, B: fm.BoxSpec) -> CharSumResult:
    """Sum chi(F(x)) over the box, zero arguments contributing zero.

    The values stream a plane at a time from fm.form_values, over pieces of
    the box with at most fm.PIECE_SIDE points in a plane, so memory holds one
    plane and the packed powers P_ab of one piece, whatever the shape of the
    box; each plane's last point is checked against fm.eval_form.
    """
    if chi.p != F.p:
        raise ValueError("character modulus and form modulus differ")
    if B.dim != F.n:
        raise ValueError("box dimension and form arity differ")
    return _box_sum(chi, B, functools.partial(fm.form_values, F))


def charsum_lifted(
    D: fm.NormFormDecomposition, chi: cc.DirichletChar, B: fm.BoxSpec
) -> CharSumResult:
    """Sum the product of norm-pulled-back character values over the box.

    prod_i psi_i(lambda_i(x)) = chi(prod_i N_i(U_i x)) = chi(D.value(x)),
    streamed a plane at a time from D.values over the same pieces as the
    direct route: each block's norm on a plane is interpolated from its
    field's norm kernel (or, for a block of degree m >= p or a plane no
    larger than its grid, taken by the kernel at every point), F is never
    read, and each plane's last point is checked against D.value.
    """
    if chi.p != D.p:
        raise ValueError("character modulus and decomposition modulus differ")
    if B.dim != D.n:
        raise ValueError("box dimension and decomposition arity differ")
    return _box_sum(chi, B, D.values)


def _merge_shifts(factors: Sequence[tuple[int, int]], p: int) -> dict[int, int]:
    """shift mod p -> total multiplicity of a (shift, multiplicity) list."""
    merged: dict[int, int] = {}
    for shift, mult in factors:
        if mult <= 0:
            raise ValueError("factor multiplicities must be positive")
        merged[shift % p] = merged.get(shift % p, 0) + mult
    if not merged:
        raise ValueError("factor list is empty")
    return merged


def factor_class(factors: Sequence[tuple[int, int]], p: int, d: int) -> tuple:
    """The translation class of a weil_complete_sum factor list for a
    character of order d mod p: lists of one class have the same sum over
    every F_{p^m}.

    x -> x - c permutes F_{p^m} for c in F_p, so the shifts count only up
    to a common translation, and the class keeps the least sorted tuple
    with some present shift at 0.  The character reads a multiplicity only
    mod d, but a shift whose multiplicity is 0 mod d still makes x = -s a
    zero, so it stays in the class as (s, 0).  O(r^2) for r shifts.
    """
    merged = _merge_shifts(factors, p)
    return min(
        tuple(sorted(((s - c) % p, mult % d) for s, mult in merged.items()))
        for c in merged
    )


def weil_complete_sum(
    chi: cc.DirichletChar, ctx: fc.ExtFieldCtx, factors: Sequence[tuple[int, int]]
):
    """Complete sum of psi = chi o N over F_q = ctx at a monic product of
    integer-shift linear factors.

    `factors` lists (shift, multiplicity) pairs for f(X) = prod (X+shift)^mult.
    Returns (value, bound, holds): the exact sum over the whole field, the
    square-root bound (m-1) sqrt(q) when f is not a d-th power for d the
    character order, the trivial bound q when it is, and whether |value|
    stays within that bound.  At degree 1 the norm is the identity, so psi
    is chi.
    """
    if ctx.p != chi.p:
        raise ValueError("character modulus and field characteristic differ")
    p, q = chi.p, ctx.order
    d = cc.char_order(chi)
    if not fc.field_fits(p, ctx.m):
        raise ValueError(f"field size {q} over cap {fc.FIELD_SIZE_CAP}")
    merged = _merge_shifts(factors, p)
    m = len(merged)
    is_power = all(mult % d == 0 for mult in merged.values())

    # psi(f(x)) = chi(prod_j N(x + s_j)^{m_j})
    residues = [1] * q
    for s, mult in merged.items():
        power = [pow(v, mult, p) for v in range(p)]
        residues = [a * power[n] % p for a, n in zip(residues, fc.shifted_norms(ctx, s))]
    value = cc.weights_value(cc.index_histogram(chi, residues)[0])
    bound = float(q) if is_power else (m - 1) * math.sqrt(q)
    return value, bound, abs(value) <= bound + 1e-9


def s2_moment(
    chi: cc.DirichletChar, ctxs: Sequence[fc.ExtFieldCtx], T: int, r: int
) -> dict:
    """Exact 2r-th moment of the shifted product sum over the fields ctxs,
    each carrying the lift of chi through its norm, fully enumerated.

    For each tuple z with one component per field, the inner sum runs over
    t in (0, T].  The z's are counted by the sorted tuple of their T
    character indices, each distinct tuple becomes its inner weight tuple
    once, and |inner|^{2r} is taken once per weight tuple as integer weights
    on root-of-unity differences, so the value is exact; their symmetry,
    which makes it real, is checked.
    """
    p = chi.p
    if not ctxs:
        raise ValueError("need at least one field")
    if any(ctx.p != p for ctx in ctxs):
        raise ValueError("character modulus and field characteristic differ")
    if T < 1 or r < 1:
        raise ValueError("window and exponent must be positive")
    k = sum(ctx.m for ctx in ctxs)
    if not moment_fits(p, k, T, r, cc.char_order(chi), len(ctxs)):
        raise ValueError("moment enumeration infeasible at this size")
    # chi's index of N(z_i + t) for t in (0, T] at each element code of
    # field i, N marking a zero norm; over several fields the index of a
    # product is the sum of the indices mod N, and a zero anywhere is zero
    N, index = max(1, p - 1), cc.index_list(chi)
    fields = [
        zip(*(map(index.__getitem__, fc.shifted_norms(ctx, t)) for t in range(1, T + 1)))
        for ctx in ctxs
    ]
    rows = fields[0]
    if len(fields) > 1:
        rows = (
            tuple(N if N in column else sum(column) % N for column in zip(*z))
            for z in itertools.product(*fields)
        )
    # the z's are counted by their rows of indices, and each distinct row is
    # sorted once into its key; every row has T entries, so no two keys
    # share a weight vector
    keys = Counter()
    for row, count in Counter(rows).items():
        keys[tuple(sorted(row))] += count
    total = [0] * N
    for key, count in keys.items():
        powed = cc.power(cc.modulus(cc.index_weights(N, Counter(key).items())[0]), r)
        for e in itertools.compress(range(N), powed):
            total[e] += count * powed[e]
    total = tuple(total)
    value = cc.real_value(total)
    bound_terms = (T ** (2 * r) * p ** (k / 2), T**r * float(p**k))
    return {
        "value": value,
        "weights": total,
        "bound_terms": bound_terms,
        "ratio": value / (bound_terms[0] + bound_terms[1]),
    }


@dataclass(frozen=True)
class BoundParams:
    n: int
    k: int
    r: int
    eps: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 1 <= self.n <= self.k < 2 * self.n:
            raise ValueError("need 1 <= n <= k < 2n")
        if self.r <= self.k:
            raise ValueError("moment exponent r must exceed the degree k")
        if self.eps < 0 or self.kappa < 0:
            raise ValueError("eps and kappa must be nonnegative")


def p_exponent(params: BoundParams) -> Fraction:
    """Exact exponent of p in the main short-sum bound."""
    n, k, r = params.n, params.k, params.r
    return Fraction(k * (r + 2 * n - k), 4 * r * r)


def bound_rhs(params: BoundParams, H_min: int, H_norm: int, p: int) -> float:
    """Right-hand side of the main bound, with unit implied constant."""
    if H_min < 1 or H_norm < 1:
        raise ValueError("box data must be positive")
    n, k, r = params.n, params.k, params.r
    expo = float(p_exponent(params)) + params.eps
    return H_norm * H_min ** (-(2 * n - k) / r) * p**expo


def saving(params: BoundParams) -> Fraction:
    """The power of p by which bound_rhs beats the trivial bound H_norm at
    H_min = p^(1/4 + kappa), kappa and eps read exactly as the decimals given."""
    kappa, eps = Fraction(str(params.kappa)), Fraction(str(params.eps))
    gain = (Fraction(1, 4) + kappa) * (2 * params.n - params.k) / params.r
    return gain - p_exponent(params) - eps


def optimal_exponent(params: BoundParams) -> int | None:
    """The r > k of the largest saving, the least on a tie, or None if none.

    The saving is a/r - b/r^2 - eps, with a = (n - k)/2 + (2n - k) kappa and
    b = k(2n - k)/4: for a > 0 it peaks at r = 2b/a, so the answer is its
    floor or its ceiling; for a <= 0 it rises toward -eps with no maximum.
    """
    n, k = params.n, params.k
    a = Fraction(n - k, 2) + (2 * n - k) * Fraction(str(params.kappa))
    b = Fraction(k * (2 * n - k), 4)
    if a <= 0:
        return None
    near = sorted({max(k + 1, f(2 * b / a)) for f in (math.floor, math.ceil)})
    return max(near, key=lambda r: saving(replace(params, r=r)))


def search_exponent(params: BoundParams) -> int | None:
    """optimal_exponent by exact search on saving alone, in no window.

    r^2 (saving + eps) = a r - b, so two values give a.  For a > 0 the sign
    of saving(r + 1) - saving(r) changes once, from + to -: doubling finds an
    r past the change, and bisection the least such r.
    """
    eps, lo = Fraction(str(params.eps)), params.k + 1

    def at(r):
        return saving(replace(params, r=r)) + eps

    if (lo + 1) ** 2 * at(lo + 1) - lo**2 * at(lo) <= 0:
        return None
    hi = lo
    while at(hi + 1) > at(hi):
        lo, hi = hi, 2 * hi
    # unless hi = lo, the saving rises at lo and not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at(mid + 1) > at(mid) else (lo, mid)
    return hi
