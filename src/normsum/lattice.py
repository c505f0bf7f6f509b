"""Congruence lattices over Z^{2n}: duals, point counts, successive minima.

A congruence lattice here is the set of integer pairs (x, y) satisfying
P x = Q y mod p for nonsingular P, Q; the main instances couple two
invertible coordinate maps through a block multiplication matrix built
from nonzero extension-field multipliers.  Everything is exact: integer
bases stored in Hermite normal form, minima as rationals.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import field_core as fc
from . import linalg as la

MINIMA_DIM_CAP = 6
SCAN_CAP = 10**8


def minima_fit(dim: int) -> bool:
    """Whether successive minima in this lattice dimension are within MINIMA_DIM_CAP."""
    return dim <= MINIMA_DIM_CAP


def mult_matrix(ctx: fc.ExtFieldCtx, a) -> tuple[tuple[int, ...], ...]:
    """Matrix acting on power-basis coordinates as multiplication by the tuple `a`."""
    cols = fc.mult_columns(ctx, a)
    return tuple(tuple(col[i] % ctx.p for col in cols) for i in range(ctx.m))


def mult_matrix_via_columns(ctx: fc.ExtFieldCtx, a) -> tuple[tuple[int, ...], ...]:
    """Same matrix assembled column by column from field multiplication."""
    m = ctx.m
    cols = [fc.ext_mul(ctx, a, tuple(1 if t == j else 0 for t in range(m))) for j in range(m)]
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def _block_diagonal(blocks) -> list[list[int]]:
    n = sum(len(blk) for blk in blocks)
    M = [[0] * n for _ in range(n)]
    off = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            M[off + i][off : off + len(row)] = row
        off += len(blk)
    return M


def block_mult_matrix(ctxs: Sequence[fc.ExtFieldCtx], z) -> list[list[int]]:
    """Block-diagonal multiplication matrix, one block per component of z.

    Raises ValueError unless z holds one nonzero coefficient tuple per
    context, of that field's degree, and the fields share one prime.
    """
    if not z:
        raise ValueError("multiplier tuple is empty")
    if len(z) != len(ctxs):
        raise ValueError(f"{len(z)} multiplier components for {len(ctxs)} fields")
    if any(ctx.p != ctxs[0].p for ctx in ctxs):
        raise ValueError("multiplier components live over different primes")
    for ctx, a in zip(ctxs, z):
        if len(a) != ctx.m:
            raise ValueError(f"component of length {len(a)} for a field of degree {ctx.m}")
        if not any(v % ctx.p for v in a):
            raise ValueError("multiplier components must be nonzero")
    return _block_diagonal([mult_matrix(ctx, a) for ctx, a in zip(ctxs, z)])


@functools.cache
def symmetrizer(ctx: fc.ExtFieldCtx) -> tuple[tuple[int, ...], ...]:
    """Symmetric nonsingular C with M_a C = C M_a^T mod p for every a in F_{p^m},
    computed once per field.

    C is the inverse of the trace form's Gram matrix G_ij = Tr(w^(i+j)) on
    the power basis, w the generator.  Multiplication by a is self-adjoint
    for Tr(xy), so M_a^T G = G M_a, which is M_a C = C M_a^T.  G is
    nonsingular because F_{p^m} is separable over F_p.
    """
    p, m, w = ctx.p, ctx.m, ctx.gen()
    traces = [fc.trace(ctx, fc.pow_coeffs(ctx, w, k)) for k in range(2 * m - 1)]
    C = la.mat_inv([[traces[i + j] for j in range(m)] for i in range(m)], p)
    return tuple(map(tuple, C))


def block_symmetrizer(ctxs: Sequence[fc.ExtFieldCtx]) -> list[list[int]]:
    """Direct sum of the fields' symmetrizers, one block per context."""
    return _block_diagonal([symmetrizer(ctx) for ctx in ctxs])


@dataclass(frozen=True)
class CongruenceForm:
    """The relation P x = Q y mod p on pairs of n-vectors, P and Q nonsingular."""

    p: int
    P: tuple[tuple[int, ...], ...]
    Q: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.P)

    def holds(self, vec: Sequence[int]) -> bool:
        n = self.n
        x, y = list(vec[:n]), list(vec[n:])
        return la.mat_vec(self.P, x, self.p) == la.mat_vec(self.Q, y, self.p)


@dataclass(frozen=True)
class BlockData:
    """Provenance of a lattice built from coordinate maps and multipliers."""

    A: tuple[tuple[int, ...], ...]
    A_prime: tuple[tuple[int, ...], ...]
    ctxs: tuple[fc.ExtFieldCtx, ...]
    z: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntegerLattice:
    """A full-rank lattice in Z^dim with a lower-triangular basis, positive
    pivots on the diagonal: the shape of `congruence_lattice`'s basis
    [[I, 0], [S, pI]]."""

    dim: int
    basis: tuple[tuple[int, ...], ...]  # rows; the basis vectors are the columns
    form: Optional[CongruenceForm] = None
    block: Optional[BlockData] = None

    def __post_init__(self):
        d = self.dim
        if len(self.basis) != d or any(len(r) != d for r in self.basis):
            raise ValueError("basis must be a square matrix of size dim")
        if any(self.basis[i][j] for j in range(d) for i in range(j)) or any(
            self.basis[j][j] <= 0 for j in range(d)
        ):
            raise ValueError("basis must be lower-triangular with positive pivots")

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.basis))

    def det(self) -> int:
        return math.prod(self.basis[j][j] for j in range(self.dim))

    def contains(self, vec: Sequence[int]) -> bool:
        """Exact membership: does some integer combination of columns give vec.

        The basis is triangular, so back-substitution fixes each coefficient.
        """
        d = self.dim
        v = list(vec)
        for j in range(d):
            piv = self.basis[j][j]
            if v[j] % piv:
                return False
            c = v[j] // piv
            for i in range(j, d):
                v[i] -= c * self.basis[i][j]
        return all(t == 0 for t in v)


def congruence_lattice(p: int, P, Q) -> IntegerLattice:
    """Lattice of integer pairs (x, y) with P x = Q y mod p, that is y = S x
    mod p with S = Q^-1 P.  Its basis [[I, 0], [S, pI]] is the Hermite normal
    form: pivots 1 then p, and S's entries in [0, p) below them."""
    la.check_prime(p)
    n = len(P)
    if len(Q) != n or any(len(r) != n for r in P) or any(len(r) != n for r in Q):
        raise ValueError("coupling matrices must be square of equal size")
    if la.mat_rank(P, p) < n:
        raise ValueError(f"matrix singular mod {p}")
    S = la.mat_mul(la.mat_inv(Q, p), P, p)
    basis = tuple(tuple(int(i == j) for j in range(2 * n)) for i in range(n)) + tuple(
        tuple(S[i]) + tuple(p * (i == j) for j in range(n)) for i in range(n)
    )
    form = CongruenceForm(p, *(tuple(tuple(v % p for v in row) for row in M) for M in (P, Q)))
    # the columns (e_j, S e_j) hold P x = Q y iff Q S = P; the columns (0, p e_j) always do
    if la.mat_mul(form.Q, S, p) != [list(row) for row in form.P]:
        raise la.CheckFailed(f"basis [[I, 0], [S, pI]] breaks P x = Q y mod {p}: Q S != P")
    return IntegerLattice(2 * n, basis, form=form)


def build_lattice(A, A_prime, ctxs: Sequence[fc.ExtFieldCtx], z) -> IntegerLattice:
    """Lattice of (x, y) with A x = M A' y mod p, M the block multiplier of
    the coefficient tuples z, one per field of ctxs (checked as
    block_mult_matrix checks them)."""
    ctxs, z = tuple(ctxs), tuple(tuple(a) for a in z)
    M = block_mult_matrix(ctxs, z)
    p = ctxs[0].p
    n = len(M)
    if len(A) != n or len(A_prime) != n:
        raise ValueError("coordinate maps must match the multiplier dimension")
    lat = congruence_lattice(p, A, la.mat_mul(M, A_prime, p))
    block = BlockData(
        tuple(tuple(v % p for v in row) for row in A),
        tuple(tuple(v % p for v in row) for row in A_prime),
        ctxs,
        z,
    )
    return IntegerLattice(lat.dim, lat.basis, form=lat.form, block=block)


def dual_pairing_check(L: IntegerLattice, dual: IntegerLattice) -> None:
    """Every dual basis column pairs to 0 mod p with every basis column: the
    product of the transposed dual basis with the basis vanishes mod p."""
    p = L.form.p
    pairing = la.mat_mul(la.transpose(dual.basis), L.basis, p)
    bad = next(((a, b) for a, row in enumerate(pairing) for b, t in enumerate(row) if t), None)
    if bad is not None:
        u, x = dual.columns()[bad[0]], L.columns()[bad[1]]
        raise la.CheckFailed(f"dual column {u} pairs nonzero mod {p} with column {x}")


def dual_lattice(L: IntegerLattice) -> IntegerLattice:
    """The dual lattice scaled by p, again as an integer congruence lattice.

    Computed from the transposed coupling relation.  When block provenance is
    present, two more routes are taken: the explicit inverse-transpose
    relation, and the structured variant that couples the dual coordinate
    maps through the original block multiplier after symmetrizing it.  All
    routes must produce the identical canonical basis.
    """
    if L.form is None:
        raise ValueError("dual construction requires congruence provenance")
    p, n = L.form.p, L.form.n
    P_inv = la.mat_inv(L.form.P, p)  # L.form.P is A mod p when block provenance is present
    R = la.mat_mul(P_inv, L.form.Q, p)
    neg_id = [[(p - 1) if i == j else 0 for j in range(n)] for i in range(n)]
    dual = congruence_lattice(p, la.transpose(R), neg_id)
    if L.block is not None:
        A_prime, ctxs = L.block.A_prime, L.block.ctxs
        M = block_mult_matrix(ctxs, L.block.z)
        inv_t = la.transpose(P_inv)
        P0 = la.mat_mul(la.transpose(M), inv_t, p)
        Q0 = la.mat_neg(la.transpose(la.mat_inv(A_prime, p)), p)
        alt = congruence_lattice(p, P0, Q0)
        if alt.basis != dual.basis:
            raise la.CheckFailed("inverse-transpose dual route gives a different basis")
        C = block_symmetrizer(ctxs)
        A2 = la.mat_neg(
            la.transpose(la.mat_inv(la.mat_mul(la.mat_inv(C, p), A_prime, p), p)), p
        )
        A3 = la.mat_mul(la.transpose(C), inv_t, p)
        structured = congruence_lattice(p, la.mat_mul(M, A3, p), A2)
        if structured.basis != dual.basis:
            raise la.CheckFailed("structured dual route gives a different basis")
    dual_pairing_check(L, dual)
    return dual


def _box_gauge(H: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Integer form of the box gauge: max_i |v_i| / H_i = max_i w_i |v_i| / scale.

    scale is the lcm of the positive sides and w_i = scale // H_i.  A zero
    side gets a weight above scale, so within budget scale (the box itself)
    its coordinate must vanish.
    """
    scale = math.lcm(*(h for h in H if h))
    return scale, tuple(scale // h if h else scale + 1 for h in H)


# the weights of a whole `harness.run_lattice` lattice, in ns: LATTICE_NS, plus
# MINIMA_PREFIX_NS[n - 1] per minima_cost prefix.  Timed prime by prime (seed 1,
# 2-vCPU virtual machine), a lattice took 1.6 to 19 ms at p <= 7, most of it the
# decompositions, HNF and three dual routes.  Per prefix, the walk took (median,
# best of 9 a prime) 6,900, 4,200 and 7,000 ns at n = 1, 2, 3 (p = 101 to 3,119,
# 101 to 997, 13 to 97): 0.49, 0.21 and 0.21 of the whole-ball walk from radius 1
# there, so the weights are that walk's (10,000, 40,000, 60,000) so scaled.  A
# range is priced at or over its time: 1.25 s for 1.19 to 1.36 s at p = 3..400,
# n = 2; the widest admitted ran 18.4 s (3..3078, n = 2) and 11.8 s (3..310, n = 3).
# Both were fitted before the minima read each shell once, so they now over-estimate
LATTICE_NS = 2_000_000
MINIMA_PREFIX_NS = (5_000, 8_500, 12_500)


def minima_cost(p: int, n: int) -> int:
    """The prefixes (x_1..x_n) in [-isqrt p, isqrt p]^n, as the basis [[I, 0],
    [S, pI]] has pivot 1 at each x_i and p at each y_i: _gauge_ball walks the
    half of them whose first nonzero coordinate is positive, at each budget up
    to the last, whose walk may stop once the minima reach full rank."""
    return (2 * max(1, math.isqrt(p)) + 1) ** n


def _gauge_ball(
    cols, w: Sequence[int], budget: int, additive: bool
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The half ball: the lattice vectors v with g(v) <= budget whose first
    nonzero coordinate is positive, as (g(v), v) pairs, v descending.

    g(v) = sum_i w_i |v_i| if additive, else max_i w_i |v_i|, with positive
    integer weights w.  cols is a triangular basis (column j vanishes above
    row j, pivot cols[j][j] > 0), so coordinate j is final once coefficient
    j is chosen: the walk carries the gauge acc[j] of the coordinates fixed
    before j and bounds each coefficient by the budget that remains, so no
    point outside the ball is visited (Fincke-Pohst pruning).  As g(-v) =
    g(v), the zero vector and the negations are left to the caller.  Each
    coefficient is walked from its top value coef[j] down to low[j], so v_j
    falls with it and the vectors come out in descending lexicographic order.
    """
    d = len(cols)
    v = [0] * d
    # column j's step, on the rows where it is nonzero
    steps = [[(i, col[i]) for i in range(j, d) if col[i]] for j, col in enumerate(cols)]
    coef, low, acc = [0] * d, [0] * d, [0] * d
    for top in range(d):
        # coefficients 0 before column top leave v = 0: v_top > 0 is coefficient top > 0
        hi = budget // w[top] // cols[top][top]
        if not hi:
            continue
        j, coef[top], low[top], acc[top] = top, hi, 1, 0
        for i, c in steps[top]:
            v[i] += hi * c
        while j >= top:
            g = w[j] * abs(v[j])
            a = acc[j] + g if additive else max(acc[j], g)
            if j == d - 1:
                yield a, tuple(v)
            else:
                k = j + 1
                W = ((budget - a) if additive else budget) // w[k]
                pk, x0 = cols[k][k], v[k]
                lo, hi = -((W + x0) // pk), (W - x0) // pk
                if lo <= hi:  # enter level k at its top coefficient
                    j, coef[k], low[k], acc[k] = k, hi, lo, a
                    for i, c in steps[k]:
                        v[i] += hi * c
                    continue
            # leave the levels whose coefficients are spent, then step one down
            while j >= top and coef[j] == low[j]:
                for i, c in steps[j]:
                    v[i] -= coef[j] * c
                j -= 1
            if j >= top:
                coef[j] -= 1
                for i, c in steps[j]:
                    v[i] -= c


def _scan_points(L: IntegerLattice, H: Sequence[int]) -> list[tuple[int, ...]]:
    """The box's lattice vectors by a membership test at every point: the
    oracle of points_in_box, refused past SCAN_CAP points."""
    vol = math.prod(2 * h + 1 for h in H)
    if vol > SCAN_CAP:
        raise ValueError(f"scan infeasible: box volume {vol} over cap {SCAN_CAP}")
    member = L.form.holds if L.form is not None else L.contains
    return [
        v
        for v in itertools.product(*[range(-h, h + 1) for h in H])
        if member(v)
    ]


def points_in_box(L: IntegerLattice, H: Sequence[int]):
    """Count and list the lattice vectors v with |v_i| <= H_i for all i.

    The vectors are the ball of the box gauge at radius 1, walked over
    bounded basis coefficients (_gauge_ball), in sorted order: the half
    ball's negations ascending, the zero vector, then the half ball ascending.
    """
    H = tuple(int(h) for h in H)
    if len(H) != L.dim or any(h < 0 for h in H):
        raise ValueError("box bounds must be one nonnegative integer per dimension")
    scale, w = _box_gauge(H)
    half = [v for _, v in _gauge_ball(L.columns(), w, scale, False)]
    pts = [tuple([-x for x in v]) for v in half] + [(0,) * L.dim] + half[::-1]
    return len(pts), tuple(pts)


def _iroot(N: int, d: int) -> int:
    """The largest b >= 1 with b^d <= N, or 1, by integer Newton steps from
    above; a step from over the root never falls below its floor."""
    b = 1 << -(-N.bit_length() // d)
    while b > 1 and b**d > N:
        b = ((d - 1) * b + N // b ** (d - 1)) // d
    return b


@dataclass(frozen=True)
class SuccessiveMinimaReport:
    minima: tuple[Fraction, ...]
    s: int
    vectors: tuple[tuple[int, ...], ...]


def successive_minima(
    L: IntegerLattice, H: Sequence[int], gauge: str = "box"
) -> SuccessiveMinimaReport:
    """Exact successive minima of a box (or its polar body) on the lattice.

    gauge "box": |v| = max_i |v_i| / H_i, the gauge of [-H, H].
    gauge "polar": |v| = sum_i H_i |v_i|, the gauge of the polar body.
    Minima are exact rationals with their achieving vectors; s counts those
    at most 1.  The product of the minima is checked against both sides of
    Minkowski's second theorem (explicit classical constants) on every call.
    """
    d = L.dim
    if not minima_fit(d):
        raise ValueError(f"successive minima supported up to dimension {MINIMA_DIM_CAP}")
    H = tuple(int(h) for h in H)
    if len(H) != d or any(h <= 0 for h in H):
        raise ValueError("box sides must be positive")
    if gauge not in ("box", "polar"):
        raise ValueError(f"unknown gauge {gauge!r}")

    # |v| = g(v) / scale with an integer gauge g; sorting on (g, v) is
    # sorting on (|v|, v).  The body's volume is num / den, so the ratio
    # vol prod(minima) / det is N / D below, both integers.
    scale, w = _box_gauge(H) if gauge == "box" else (1, H)
    fact = math.factorial(d)
    num, den = (math.prod(2 * h for h in H), 1) if gauge == "box" else (2**d, fact * math.prod(H))
    D = den * scale**d * L.det()
    # by Minkowski's second theorem the g-minima multiply to at least
    # 2^d D / (d! num): start at its d-th root and grow by about sqrt 2.  The
    # greedy pass over the ball sorted by (g, v) reads only candidates with
    # g <= lambda_d scale, and of v and -v the negative one first, so it reads
    # each new shell done < g <= budget of the half ball, negated, into one echelon.
    budget, done = _iroot(2**d * D // (fact * num), d), 0
    cols, echelon = L.columns(), la.IntegerEchelon()
    chosen: list[tuple[int, ...]] = []
    gauges: list[int] = []
    while len(chosen) < d:
        shell = (
            (g, tuple([-x for x in v]))
            for g, v in _gauge_ball(cols, w, budget, gauge == "polar") if g > done
        )
        # a shell of one gauge value is already in (g, v) order, as the walk is descending
        for g, v in shell if budget == done + 1 else sorted(shell):
            if echelon.add(v):
                chosen.append(v)
                gauges.append(g)
                if len(chosen) == d:
                    break
        done, budget = budget, max(budget + 1, math.isqrt(2 * budget * budget))
    N = num * math.prod(gauges)
    if not 2**d * D <= fact * N <= fact * 2**d * D:
        raise la.CheckFailed(f"minima product outside the Minkowski range: {Fraction(N, D)}")
    minima = [Fraction(g, scale) for g in gauges]
    s = sum(1 for lam in minima if lam <= 1)
    return SuccessiveMinimaReport(tuple(minima), s, tuple(chosen))


def mahler_check(L: IntegerLattice, H: Sequence[int]) -> dict:
    """Pair box minima with the dual's polar minima; products lie in [1, (d!)^2].

    The dual minima are taken on the p-scaled dual and divided back by p, so
    every intermediate quantity stays an exact rational.
    """
    d = L.dim
    rep = successive_minima(L, H, gauge="box")
    dual = dual_lattice(L)
    rep_dual = successive_minima(dual, H, gauge="polar")
    p = L.form.p
    dual_minima = tuple(lam / p for lam in rep_dual.minima)
    products = tuple(rep.minima[i] * dual_minima[d - 1 - i] for i in range(d))
    bound = Fraction(math.factorial(d) ** 2)
    for prod in products:
        if not 1 <= prod <= bound:
            raise la.CheckFailed(f"transference product {prod} outside [1, {bound}]")
    return {"minima": rep.minima, "dual_minima": dual_minima, "products": products}
