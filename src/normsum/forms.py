"""Homogeneous forms over F_p, factorization over the closure, and norm-form
decompositions.

The factorization routine works by splitting a form into linear factors with
coefficients in one extension field F_{p^K}: after normalizing a leading
variable, the candidate coefficients of each linear factor are read off as
roots of univariate restrictions, each candidate is confirmed by exact
polynomial division, and Frobenius orbits of the confirmed factors give the
irreducible factors over F_p. A norm-form decomposition then records, per
orbit, the coordinates of one representative factor over the power basis of
the matching extension field.

Supported factorization classes: any binary form; products of linear forms;
forms assembled from a norm-form decomposition (every form whose closure
factorization is into linear forms, really), unless the form vanishes on all
of F_p^n, as L1 L2 (L1 + L2) does at p = 2. Anything else fails loudly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import sys
from array import array
from dataclasses import dataclass

from . import field_core as fc
from . import linalg

POINTWISE_EXHAUSTIVE_CAP = 10**5
POINTWISE_SAMPLES = 10**4
PIECE_SIDE = 4096  # most points in a plane of a piece, and longest side of a piece
# most monomials that synthesize_form's estimate admits: dense n = 9, k = 10
# (43,758) takes 0.9 s on a 2-vCPU Xeon VM, n = k = 10 (92,378) 2.0 s
EXPANSION_CAP = 5 * 10**4


class UnsupportedFormError(ValueError):
    """Raised when a form is outside the supported factorization classes."""


class RepeatedFactorError(ValueError):
    """Raised when a form has a repeated linear factor over the closure."""


class RankConditionError(ValueError):
    """Raised when recovered factor coordinates violate a rank requirement."""


@dataclass(frozen=True)
class FormSpec:
    """A homogeneous form: monomials map exponent vectors to nonzero coefficients."""

    p: int
    n: int
    k: int
    monomials: tuple

    def __post_init__(self):
        linalg.check_prime(self.p)
        if self.n < 1:
            raise ValueError("need at least one variable")
        cleaned = {}
        for exp, coef in self.monomials:
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if sum(exp) != self.k:
                raise ValueError(f"monomial {exp} breaks homogeneity of degree {self.k}")
            c = (cleaned.get(exp, 0) + coef) % self.p
            cleaned[exp] = c
        cleaned = {e: c for e, c in cleaned.items() if c != 0}
        if not cleaned:
            raise ValueError("form has no nonzero monomials")
        monomials = tuple(sorted(cleaned.items()))
        object.__setattr__(self, "monomials", monomials)
        # for eval_form: (coef, ((i, e), ...)) per monomial, zero exponents
        # dropped
        object.__setattr__(self, "_terms", tuple(
            (c, tuple((i, e) for i, e in enumerate(exp) if e)) for exp, c in monomials
        ))

    def coefficient(self, exp) -> int:
        return dict(self.monomials).get(tuple(exp), 0)


def _power_rows(values, k: int, p: int) -> list:
    """The power row [1, v, ..., v^k] mod p of each integer v of values."""
    rows = []
    for v in values:
        v = int(v) % p
        row = [1]
        for _ in range(k):
            row.append(row[-1] * v % p)
        rows.append(row)
    return rows


def eval_form(F: FormSpec, x) -> int:
    """F(x) as a residue in [0, p).

    Each coordinate gets one power list [1, x_i, ..., x_i^k] mod p, and the
    compiled monomials read their factors from it.
    """
    if len(x) != F.n:
        raise ValueError(f"expected {F.n} coordinates, got {len(x)}")
    powers = _power_rows(x, F.k, F.p)
    total = 0
    for term, factors in F._terms:
        for i, e in factors:
            term *= powers[i][e]
        total += term
    return total % F.p


# ---------------------------------------------------------------------------
# plane evaluation over the last two axes (s, t) = (x_{n-1}, x_n), a piece of
# the box at a time.  A piece whose s side is 1, and every piece at n = 1, has
# planes of one row: s joins the prefix, and the terms are t^b alone.


@functools.cache
def _plane_terms(k: int, rows: bool) -> tuple:
    """The exponents (a, b) of s^a t^b of total degree at most k, by degree;
    (0, b) alone for planes of one row."""
    return tuple((a, d - a) for d in range(k + 1) for a in range(d + 1 if rows else 1))


def _plane_code(p: int, k: int, rows: bool) -> str:
    """The array typecode of the narrowest of 8, 16, 32 and 64 bits above
    the digit bound of a plane's packed sum: each of its terms adds at most
    (p - 1)^2 to a digit.  ValueError past 64 bits, before any power row."""
    bound = _term_count(k, rows) * (p - 1) ** 2
    for code in "BHIQ":
        if bound < 1 << 8 * array(code).itemsize:
            return code
    raise ValueError(f"degree {k} at p={p}: the packed digit bound {bound} reaches 2^64")


def _plane_pieces(B: BoxSpec):
    """B cut into pieces with at most PIECE_SIDE points in a plane and every
    side at most PIECE_SIDE: the t side at PIECE_SIDE, the s side at
    PIECE_SIDE // (the t side)."""
    t = min(B.H[-1], PIECE_SIDE)
    sides = (PIECE_SIDE,) * (B.dim - 1) + (t,)
    return B.pieces(sides[:-2] + (PIECE_SIDE // t, t) if B.dim > 1 else sides)


@functools.lru_cache(maxsize=1)
def _plane_powers(p: int, k: int, S, T, code: str) -> tuple:
    """P_ab for each (a, b) of _plane_terms: s^a t^b mod p at every point
    (s, t) of S x T in row order, or t^b along T when S is None, packed as
    one integer of `code` digits.  The last piece's powers are kept, so the
    two routes over the same piece pack them once."""
    cols_t = list(zip(*_power_rows(T, k, p)))
    if S is None:
        digits = [array(code, col) for col in cols_t]
    else:
        cols_s = list(zip(*_power_rows(S, k, p)))
        # t^b repeats row by row and s^a along a row; only the rest multiply
        digits = [array(code, cols_t[b]) * len(S) if not a
                  else array(code, [u for u in cols_s[a] for _ in T]) if not b
                  else array(code, [u * v % p for u in cols_s[a] for v in cols_t[b]])
                  for a, b in _plane_terms(k, True)]
    return tuple(int.from_bytes(d.tobytes(), sys.byteorder) for d in digits)


def _plane_values(coeffs, packed, code: str, size: int, p: int) -> list:
    """The digits of sum_ab c_ab P_ab mod p, c_ab in [0, p): one residue per
    point of a plane of `size` points."""
    digits = array(code)
    digits.frombytes(sum(map(operator.mul, coeffs, packed)).to_bytes(
        size * digits.itemsize, sys.byteorder))
    return list(map(operator.mod, digits, itertools.repeat(p)))


def _plane_coords(coords, S, T) -> list:
    """Each coordinate a + b s + c t of (a, b, c) in coords at the points
    (s, t) of S x T in row order, or a + c t along T when S is None."""
    return [[a + b * s + c * t for s in S or (0,) for t in T] for a, b, c in coords]


def _term_count(k: int, rows: bool) -> int:
    """len(_plane_terms(k, rows)), which is also the number of grid nodes
    that fix a plane polynomial of degree k."""
    return (k + 1) * (k + 2) // 2 if rows else k + 1


@functools.cache
def _interpolation(p: int, m: int, rows: bool, width: int, stride: int) -> tuple:
    """The grid nodes (u, v), u + v <= m (u = 0 alone for planes of one row),
    on which the polynomials f of degree m < p are unisolvent, and for each
    node an integer: f's values at the nodes times these sum to f packed,
    its coefficient of s^a t^b at digit a * stride + b of `width` bits.

    Newton's forward differences give f = sum_ij d_ij C(s, i) C(t, j) with
    d_ij = sum_{u <= i, v <= j} (-1)^(i-u) C(i, u) (-1)^(j-v) C(j, v) f(u, v),
    and C(s, i) = sum_a L[i][a] s^a, L[i] being the falling factorial
    s (s - 1) ... (s - i + 1) over i!.  So the weight of f(u, v) in s^a t^b
    is the sum over i + j <= m of A[i][a][u] A[j][b][v], with
    A[i][a][u] = L[i][a] (-1)^(i-u) C(i, u), each taken mod p.
    """
    nodes = _plane_terms(m, rows)
    A, falling = [], [1]
    for i in range(m + 1):
        if i:
            falling = [hi - (i - 1) * lo for lo, hi in zip(falling + [0], [0] + falling)]
        inv = linalg.inv_mod(math.factorial(i), p)
        A.append([[c * inv * (-1) ** (i - u) * math.comb(i, u) for u in range(i + 1)]
                  for c in falling])
    index = {node: n for n, node in enumerate(nodes)}
    weights = {node: [0] * len(nodes) for node in nodes}
    for i, j in nodes:
        for a, b in itertools.product(range(i + 1), range(j + 1)):
            w = weights[a, b]
            for u, v in itertools.product(range(i + 1), range(j + 1)):
                w[index[u, v]] += A[i][a][u] * A[j][b][v]
    return nodes, tuple(sum(weights[a, b][n] % p << width * (a * stride + b) for a, b in nodes)
                        for n in range(len(nodes)))


def _plane_norm(norm, coords, p: int, rows: bool, width: int, stride: int) -> int:
    """N(a + b s + c t) of degree m = len(coords) < p, coordinates (a, b, c)
    as in _plane_coords, packed as in _interpolation from the kernel's values
    at the grid nodes: each digit is below len(nodes) (p - 1)^2."""
    nodes, weights = _interpolation(p, len(coords), rows, width, stride)
    values = [norm([a + b * i + c * j for a, b, c in coords]) for i, j in nodes]
    return sum(map(operator.mul, values, weights))


def _packed_planes(B: BoxSpec, p: int, k: int, exact, planes):
    """The plane evaluator that both routes share: for each piece of B, the
    residues of every plane that planes(prefix axes, S, T) yields as
    (x', coefficients c_ab mod p, kernel factors), each the one packed sum
    of the piece's P_ab times its kernel factors point by point; S is None
    on planes of one row.  Each plane's last point x is checked against
    exact(x), which packs nothing: linalg.CheckFailed on a mismatch."""
    code = _plane_code(p, k, B.dim > 1)
    for piece in _plane_pieces(B):
        *prefix, T = piece.axes()
        S = prefix.pop() if prefix and len(prefix[-1]) > 1 else None
        size, packed = len(T) * len(S or (0,)), _plane_powers(p, k, S, T, code)
        last = (S[-1], T[-1]) if S else (T[-1],)
        for x, coeffs, kernels in planes(prefix, S, T):
            values = _plane_values(coeffs, packed, code, size, p)
            if kernels:
                product = functools.reduce(functools.partial(map, operator.mul),
                                           kernels, values)
                values = list(map(operator.mod, product, itertools.repeat(p)))
            if values[-1] != exact(x + last):
                raise linalg.CheckFailed(
                    f"packed value {values[-1]} at {x + last} is not {exact(x + last)}")
            yield values


def form_values(F: FormSpec, B: BoxSpec):
    """F at every point of B: one list of residues per plane of the last two
    axes, each of at most PIECE_SIDE points, planes and points in
    B.iter_points() order within each piece of _plane_pieces(B); a box with
    at most PIECE_SIDE points in a plane and sides of at most PIECE_SIDE is
    one piece.

    On a plane, F is a polynomial of degree k in (s, t): its coefficients
    c_ab are collected once per plane from the monomials and reduced mod p,
    and the plane is one packed sum of the piece's P_ab.  A digit of the sum
    is at most C(k + 2, 2) (p - 1)^2 (k + 1 terms at n = 1), which picks the
    narrowest of 8, 16, 32 and 64-bit digits and is checked, ValueError past
    2^64, before any power row is built.  Each plane's last point is checked
    against eval_form, which packs nothing: linalg.CheckFailed on a mismatch.
    """
    if B.dim != F.n:
        raise ValueError("box dimension and form arity differ")
    p, k = F.p, F.k

    def planes(prefix, S, T):
        cut = len(prefix)
        index = {ab: j for j, ab in enumerate(_plane_terms(k, S is not None))}
        monomials = [(c, [(i, e) for i, e in enumerate(exp[:cut]) if e],
                      index[exp[cut] if S else 0, exp[-1]]) for exp, c in F.monomials]
        for point in itertools.product(*(zip(axis, _power_rows(axis, k, p)) for axis in prefix)):
            coeffs = [0] * len(index)
            for term, factors, j in monomials:
                for i, e in factors:
                    term *= point[i][1][e]
                coeffs[j] += term
            yield tuple(x for x, _ in point), [c % p for c in coeffs], ()

    return _packed_planes(B, p, k, functools.partial(eval_form, F), planes)


@dataclass(frozen=True)
class BoxSpec:
    """The half-open box (N, N+H]: points x with N_i < x_i <= N_i + H_i."""

    N: tuple
    H: tuple

    def __post_init__(self):
        N = tuple(int(v) for v in self.N)
        H = tuple(int(v) for v in self.H)
        if len(N) != len(H):
            raise ValueError("start and side-length vectors differ in length")
        if any(h < 1 for h in H):
            raise ValueError("side lengths must be >= 1")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "H", H)

    @property
    def dim(self) -> int:
        return len(self.N)

    @property
    def volume(self) -> int:
        return math.prod(self.H)

    def axes(self) -> list:
        """The coordinate range of each axis."""
        return [range(n + 1, n + h + 1) for n, h in zip(self.N, self.H)]

    def iter_points(self):
        yield from itertools.product(*self.axes())

    def pieces(self, side):
        """The box cut into boxes with every side at most `side`, or with
        side i at most side[i] for a tuple."""
        sides = side if isinstance(side, tuple) else (side,) * self.dim
        cuts = [
            [(s, min(c, n + h - s)) for s in range(n, n + h, c)]
            for n, h, c in zip(self.N, self.H, sides)
        ]
        for piece in itertools.product(*cuts):
            yield BoxSpec(*zip(*piece))

    @classmethod
    def symmetric(cls, H) -> "BoxSpec":
        """The symmetric box [-H, H], realized as (-H-1, H]."""
        H = tuple(int(h) for h in H)
        return cls(tuple(-h - 1 for h in H), tuple(2 * h + 1 for h in H))


@dataclass(frozen=True)
class NormFormDecomposition:
    """F(x) = prod_i N_i(lambda_i(x)) with lambda_i read off the row block U_i.

    partition lists the factor degrees (k_1, ..., k_s); ctxs[i] is the field
    F_{p^{k_i}}; blocks[i] is the k_i x n matrix U_i whose column j holds the
    power-basis coordinates of the coefficient of x_j in lambda_i.
    """

    p: int
    n: int
    partition: tuple
    ctxs: tuple
    blocks: tuple

    def __post_init__(self):
        linalg.check_prime(self.p)
        partition = tuple(int(v) for v in self.partition)
        if not partition or any(v < 1 for v in partition):
            raise ValueError("partition entries must be >= 1")
        if len(self.ctxs) != len(partition) or len(self.blocks) != len(partition):
            raise ValueError("partition, ctxs, blocks must have equal length")
        blocks = []
        for ki, ctx, U in zip(partition, self.ctxs, self.blocks):
            if ctx.p != self.p or ctx.m != ki:
                raise ValueError("field context does not match partition entry")
            U = tuple(tuple(v % self.p for v in row) for row in U)
            if len(U) != ki or any(len(row) != self.n for row in U):
                raise ValueError(f"block must be {ki} x {self.n}")
            blocks.append(U)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(
            self, "_factors", tuple(zip(self.blocks, map(fc.norm_kernel, self.ctxs)))
        )

    @property
    def k(self) -> int:
        return sum(self.partition)

    @property
    def s(self) -> int:
        return len(self.partition)

    @property
    def A(self) -> tuple:
        """The stacked k x n matrix of all row blocks."""
        return tuple(row for U in self.blocks for row in U)

    def lam(self, i: int, x) -> tuple:
        """lambda_i(x) = U_i x, a coefficient tuple of the i-th field."""
        return tuple(linalg.mat_vec(self.blocks[i], [int(v) for v in x], self.p))

    def value(self, x) -> int:
        """F(x) = prod_i N_i(U_i x) mod p, by each field's norm kernel.

        The block coordinates go into the kernel as they are (it reduces
        them), so no field element is built per point.
        """
        total = 1
        for U, norm in self._factors:
            total *= norm([sum(map(operator.mul, row, x)) for row in U])
        return total % self.p

    def values(self, B: BoxSpec):
        """value(x) at every point of B: one list of residues per plane, in
        the order and over the pieces of form_values, by the same packed
        evaluator; F is never read.

        On a plane with prefix x', block i's coordinates are a + b s + c t,
        (a, b, c) = (U_i[r][:-2] x', U_i[r][-2], U_i[r][-1]) per row r, so its
        norm is a polynomial of degree m = k_i in (s, t).  The rule: a block
        of degree 1 is that linear polynomial; one of degree m >= 2 is
        interpolated from its field's norm kernel at the grid nodes (i, j),
        i + j <= m, when m < p and the plane has more points than the grid,
        and otherwise runs its kernel at every point of the plane.  The
        polynomials' product is one integer with the coefficient of s^a t^b
        at digit a * stride + b, so a degree-1 block multiplies it in by
        index shifts; its coefficients mod p are the plane's c_ab, the
        kernel factors are multiplied in point by point, and each plane's
        last point is checked against value.
        """
        if B.dim != self.n:
            raise ValueError("box dimension and decomposition arity differ")
        return _packed_planes(B, self.p, self.k, self.value, self._planes)

    def _planes(self, prefix, S, T):
        """(x', c_ab mod p, kernel factors) of each plane of a piece, for values."""
        p, cut, rows = self.p, len(prefix), S is not None
        size = len(T) * len(S or (0,))
        # each block's route, and digits for the plane polynomial: the
        # product over its blocks of their terms times their largest
        # coefficient bounds each
        routes = ["linear" if m == 1 else "grid" if m < p and size > _term_count(m, rows)
                  else "kernel" for m in self.partition]
        degrees = [m for m, route in zip(self.partition, routes) if route != "kernel"]
        width = math.prod(3 * (p - 1) if m == 1 else (_term_count(m, rows) * (p - 1)) ** 2
                          for m in degrees).bit_length()
        stride, mask = sum(degrees) + 1, (1 << width) - 1
        shifts = [width * (a * stride + b) for a, b in _plane_terms(sum(degrees), rows)]
        for x in itertools.product(*prefix):
            poly, kernels = 1, []
            for (U, norm), route in zip(self._factors, routes):
                coords = [(sum(map(operator.mul, row, x)), row[cut] if rows else 0, row[-1])
                          for row in U]
                if route == "linear":
                    (a, b, c), = coords
                    poly = poly * (a % p) + (poly << width) * c + (poly << width * stride) * b
                elif route == "grid":
                    poly *= _plane_norm(norm, coords, p, rows, width, stride)
                else:
                    kernels.append(map(norm, zip(*_plane_coords(coords, S, T))))
            yield x, [(poly >> shift & mask) % p for shift in shifts], kernels


# ---------------------------------------------------------------------------
# polynomial dictionaries: exponent tuple -> coefficient tuple of a field
# context; F_p is the degree-1 field, its coefficients 1-tuples


def compose_form(F: FormSpec, M) -> FormSpec:
    """The form G(x) = F(Mx) for a square matrix M over F_p: each monomial
    expanded by _poly_mul, the terms summed mod p."""
    n, p = F.n, F.p
    rows = [{_unit(n, j): M[i][j] % p for j in range(n) if M[i][j] % p} for i in range(n)]
    acc: dict = {}
    for exp, coef in F.monomials:
        term = {(0,) * n: coef}
        for i, e in enumerate(exp):
            for _ in range(e):
                term = _poly_mul(term, rows[i], p)
        for e, c in term.items():
            acc[e] = (acc.get(e, 0) + c) % p
    return FormSpec(p, n, F.k, tuple(acc.items()))


def _unit(n: int, j: int) -> tuple:
    return tuple(1 if t == j else 0 for t in range(n))


def _poly_mul(f: dict, g: dict, p: int) -> dict:
    """The product of two polynomials over F_p, exponent tuples to
    coefficients, its coefficients reduced and the zero ones dropped."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c % p for e, c in out.items() if c % p}


def _epoly_mul(a: dict, b: dict, ctx) -> dict:
    """Product of two polynomials whose coefficients are ctx coefficient tuples."""
    mul = fc.mul_kernel(ctx)
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            prev = out.get(e)
            out[e] = mul(c1, c2) if prev is None else fc.ext_add(ctx, prev, mul(c1, c2))
    return {e: c for e, c in out.items() if any(c)}


def _divide_by_linear(poly: dict, b, ctx, n: int):
    """Divide an n-variable polynomial over ctx by X_1 + b_2 X_2 + ... + b_n X_n.

    poly maps exponent tuples to ctx coefficient tuples, and b holds
    coefficient tuples. Returns the quotient dict, or None when the division
    leaves a remainder. Exact long division in X_1.
    """
    mul, p = fc.mul_kernel(ctx), ctx.p
    zero = (0,) * ctx.m
    rem = dict(poly)
    quo: dict = {}
    while True:
        d = max((e[0] for e in rem), default=0)
        if d == 0:
            break
        for e in [e for e in rem if e[0] == d]:
            c = rem.pop(e)
            quo[(d - 1,) + e[1:]] = c
            # subtract c * X1^(d-1) * (sum_j b_j X_j) from the remainder
            for j in range(1, n):
                if any(b[j]):
                    se = (d - 1,) + e[1:j] + (e[j] + 1,) + e[j + 1 :]
                    v = tuple((x - y) % p for x, y in zip(rem.get(se, zero), mul(c, b[j])))
                    if any(v):
                        rem[se] = v
                    else:
                        rem.pop(se, None)
    if rem:
        return None
    return quo


# ---------------------------------------------------------------------------
# roots of univariate polynomials over F_p (coefficient lists, low to high)


def _roots_in(parts, ctx: fc.ExtFieldCtx) -> list:
    """The distinct roots in ctx of a monic polynomial over F_p, given as its
    (d, h) parts from field_core.degree_parts, as coefficient tuples sorted
    as ctx.iter_elements() lists them.

    The roots of h, a product of distinct irreducibles of degree d, lie in
    F_{p^K} only when d | K, and then in the subfield F_{p^d}, in Frobenius
    orbits r, r^p, ..., r^(p^(d-1)) (Lidl-Niederreiter, Finite Fields, Thm
    2.14).  At d = 1 every residue is tried; for d > 1 the powers of beta =
    g^((p^K - 1)/(p^d - 1)) for the primitive element g, the nonzero
    elements of F_{p^d}, until deg h roots are found.
    """
    p, K = ctx.p, ctx.m
    mul = fc.mul_kernel(ctx)
    one, zero = ctx.from_int(1), ctx.from_int(0)
    roots = set()
    for d, h in parts:
        if d == 1:
            for x in range(p):
                value = 0
                for c in reversed(h):
                    value = (value * x + c) % p
                if value == 0:
                    roots.add((x,) + zero[1:])
            continue
        if K % d:
            continue
        beta = fc.pow_coeffs(ctx, fc.primitive_element(ctx), (p**K - 1) // (p**d - 1))
        found, r = set(), beta
        for _ in range(p**d - 1):
            value = one
            for c in reversed(h[:-1]):
                value = mul(value, r)
                value = ((value[0] + c) % p,) + value[1:]
            if value == zero and r not in found:
                # the orbit of r, ending at r^(p^d) = r, where the walk goes on
                for _ in range(d):
                    found.add(r)
                    r = fc.pow_coeffs(ctx, r, p)
                if len(found) == len(h) - 1:
                    break
            r = mul(r, beta)
        else:
            raise linalg.CheckFailed(f"part {h} has fewer than {len(h) - 1} roots in F_{p}^{d}")
        roots |= found
    return sorted(roots)


# ---------------------------------------------------------------------------
# closure splitting


@dataclass(frozen=True)
class ClosureSplitting:
    """Linear factors of F over one splitting field, grouped by Frobenius orbit.

    change is the matrix M with F(M x) = c * prod of the recorded factors at x;
    each orbit entry is (tuples, multiplicity) where tuples lists the orbit of
    coefficient vectors (b_2, ..., b_n) of monic factors X_1 + sum b_j X_j.
    """

    c: int
    ctx: fc.ExtFieldCtx
    change: tuple
    orbits: tuple


def _closure_split(F: FormSpec) -> ClosureSplitting:
    p, n, k = F.p, F.n, F.k
    M = _leading_change(F)
    G = compose_form(F, M)
    c = G.coefficient((k,) + (0,) * (n - 1))
    if c == 0:
        raise linalg.CheckFailed("change of variables left the X_1^k coefficient zero")
    G = FormSpec(p, n, k, tuple((e, (v * linalg.inv_mod(c, p)) % p) for e, v in G.monomials))

    parts = [list(fc.degree_parts(_restriction(G, j), p)) for j in range(1, n)]
    K = math.lcm(*(d for restriction in parts for d, _ in restriction))
    if not fc.field_fits(p, K):
        raise UnsupportedFormError(
            f"factorization unsupported: splitting field {p}^{K} exceeds cap {fc.FIELD_SIZE_CAP}"
        )
    ctx = fc.ext_field_ctx(p, K)
    one = ctx.from_int(1)

    # roots of each restriction in the splitting field, negated
    candidates = [[tuple(-v % p for v in r) for r in _roots_in(rp, ctx)] for rp in parts]

    # F_{p^K}[X] factors uniquely, so X_1 + b_2 X_2 + ... + b_j X_j divides
    # G(X_1, ..., X_j, 0, ..., 0) only when it starts a linear factor of G
    rem = {e: (v,) + one[1:] for e, v in G.monomials}
    tails = [()]
    for j, cands in enumerate(candidates[:-1], 2):
        head = {e: v for e, v in rem.items() if not any(e[j:])}
        tails = [t + (x,) for t in tails for x in cands
                 if _divide_by_linear(head, (one,) + t + (x,), ctx, j) is not None]
    # distinct monic linear forms are coprime, so each factor's multiplicity
    # is counted on what the earlier orbits left of G; its conjugates share it
    orbits, seen = [], set()
    for tail in itertools.product(tails, *candidates[-1:]):
        b, mult = (one,) + tail[0] + tail[1:], 0
        while b not in seen and (q := _divide_by_linear(rem, b, ctx, n)) is not None:
            rem, mult = q, mult + 1
        if not mult:
            continue
        orbit = []
        while b not in seen:
            seen.add(b)
            orbit.append(b)
            b = tuple(fc.pow_coeffs(ctx, x, p) for x in b)
        for ob in orbit[1:] * mult:
            if (rem := _divide_by_linear(rem, ob, ctx, n)) is None:
                raise linalg.CheckFailed("conjugate factors must share multiplicity")
        orbits.append((tuple(ob[1:] for ob in orbit), mult))
    matched = sum(len(orbit) * mult for orbit, mult in orbits)
    if matched != k or rem != {(0,) * n: one}:
        raise UnsupportedFormError(
            "factorization unsupported: form does not split into linear factors "
            f"over the splitting field of size {p**K} (matched degree {matched} of {k})"
        )
    return ClosureSplitting(c, ctx, tuple(tuple(row) for row in M), tuple(orbits))


def _leading_change(F: FormSpec):
    """An invertible M making the X_1^k coefficient of F(Mx) nonzero."""
    p, n, k = F.p, F.n, F.k
    for a in range(n):
        if F.coefficient(tuple(k if t == a else 0 for t in range(n))):
            M = linalg.identity(n)
            M[0][0] = M[a][a] = 0
            M[0][a] = M[a][0] = 1
            return M
    return linalg.transpose(linalg.extend_to_basis([_first_nonvanishing_point(F)], p))


def _first_nonvanishing_point(F: FormSpec) -> list:
    """The first w of F_p^n in lexicographic order with F(w) != 0.

    Reduced mod x^p = x, F keeps its values on F_p^n and has exponents below
    p, so it vanishes there only when it is zero; each w_i is the least value
    that leaves a nonzero polynomial in the remaining variables.
    """
    p = F.p
    rest = {}
    for exp, coef in F.monomials:
        key = tuple(e and 1 + (e - 1) % (p - 1) for e in exp)
        rest[key] = (rest.get(key, 0) + coef) % p
    w = []
    for _ in range(F.n):
        for v in range(p):
            left = {}
            for exp, coef in rest.items():
                left[exp[1:]] = (left.get(exp[1:], 0) + coef * pow(v, exp[0], p)) % p
            if any(left.values()):
                w.append(v)
                rest = left
                break
        else:
            raise UnsupportedFormError(
                "factorization unsupported: form vanishes on all of F_p^n"
            )
    return w


def _restriction(G: FormSpec, j: int):
    """Coefficient list of g_j(t) = G(t e_1 + e_{j+1}), monic of degree k."""
    out = [0] * (G.k + 1)
    for exp, coef in G.monomials:
        if all(e == 0 for t, e in enumerate(exp) if t not in (0, j)):
            out[exp[0]] = (out[exp[0]] + coef) % G.p
    return out


def _prime_field_part(poly: dict, what: str) -> dict:
    """A polynomial over F_{p^m} with every coefficient in F_p, its
    coefficients as 1-tuples of F_p = F_{p^1}.

    Raises linalg.CheckFailed when a coefficient has a nonzero w-part.
    """
    for e, v in poly.items():
        if any(v[1:]):
            raise linalg.CheckFailed(f"{what} left the prime field: coefficient {v} at {e}")
    return {e: v[:1] for e, v in poly.items()}


def form_sort_key(F: FormSpec):
    """Ascending degree, then descending lexicographic leading monomial."""
    return (F.k, tuple((tuple(-e for e in exp), coef) for exp, coef in reversed(F.monomials)))


def decompose(F: FormSpec) -> NormFormDecomposition:
    """Recover a norm-form decomposition with F(x) = prod_i N_i(lambda_i(x)).

    Factors the form over the closure, groups the linear factors into
    Frobenius orbits, writes one representative per orbit in the power basis
    of the canonical field of matching degree, and absorbs the leading
    constant into the first block as a norm. Each norm is expanded once; after
    the ranks, their product must equal F coefficient by coefficient.
    """
    if F.k == 0:
        raise UnsupportedFormError("factorization unsupported: form of degree 0")
    split = _closure_split(F)
    p, n = F.p, F.n
    for orbit, mult in split.orbits:
        if mult > 1:
            raise RepeatedFactorError(
                f"form has a repeated factor (multiplicity {mult}); not in the supported class"
            )

    Minv = linalg.mat_inv([list(r) for r in split.change], p)
    blocks = []
    for orbit, _ in split.orbits:
        ki = len(orbit)
        ctx_i = fc.ext_field_ctx(p, ki)
        cols = [_subfield_coords(coeffs, ctx_i, split.ctx) for coeffs in min(orbit)]
        U = [[1 if r == 0 else 0] + [col[r] for col in cols] for r in range(ki)]
        blocks.append((ki, ctx_i, linalg.mat_mul(U, Minv, p)))

    # each block's F_p-irreducible factor N_i(lambda_i) orders the blocks
    norms = _block_norms(n, F.k, blocks)
    order = sorted(range(len(blocks)), key=lambda i: form_sort_key(norms[i]))
    norms, blocks = [norms[i] for i in order], [blocks[i] for i in order]
    if split.c != 1:
        k1, ctx1, U1 = blocks[0]
        # the first element with norm c in iter_elements order scales lambda_1;
        # U1 keeps its zero columns, so the size estimate stands
        norm, mul = fc.norm_kernel(ctx1), fc.mul_kernel(ctx1)
        gamma = next(a for a in ctx1.iter_elements() if norm(a) == split.c)
        blocks[0] = (k1, ctx1, list(zip(*(mul(gamma, col) for col in zip(*U1)))))
        norms[0] = _block_norm(n, ctx1, blocks[0][2], 0)

    D = NormFormDecomposition(p, n, *zip(*blocks))
    _check_ranks(D)
    if _product_form(norms) != F:
        raise linalg.CheckFailed("decomposition failed verification")
    return D


@functools.cache
def _embedding_powers(sub_ctx: fc.ExtFieldCtx, big_ctx: fc.ExtFieldCtx) -> tuple:
    """Images of the sub_ctx power basis in big_ctx, as coefficient tuples.

    The canonical embedding sends the subfield generator to the smallest root
    of its defining polynomial in the big field, in iter_elements order. The
    powers depend only on the two (memoized) contexts, so each pair is
    computed once.
    """
    if sub_ctx == big_ctx:
        gamma = big_ctx.gen()
    else:
        # ExtFieldCtx has proved the defining polynomial irreducible
        roots = _roots_in([(sub_ctx.m, sub_ctx.defining_poly)], big_ctx)
        if not roots:
            raise linalg.CheckFailed("defining polynomial has no root in the splitting field")
        gamma = roots[0]
    mul = fc.mul_kernel(big_ctx)
    powers = [big_ctx.from_int(1)]
    for _ in range(sub_ctx.m - 1):
        powers.append(mul(powers[-1], gamma))
    return tuple(powers)


def _subfield_coords(a, sub_ctx: fc.ExtFieldCtx, big_ctx: fc.ExtFieldCtx):
    """Coordinates of the tuple a over the power basis of the subfield copy inside big_ctx."""
    powers = _embedding_powers(sub_ctx, big_ctx)
    B = [[powers[c][r] for c in range(sub_ctx.m)] for r in range(big_ctx.m)]
    sol = linalg.solve_mod(B, list(a), big_ctx.p)
    if sol is None:
        raise linalg.CheckFailed("element does not lie in the expected subfield")
    return sol


def _check_ranks(D: NormFormDecomposition):
    """Raise RankConditionError unless each block U_i has rank min(k_i, n) and,
    when n = k, every stack of blocks has full row rank.

    At n = k the stacked matrix A is n x n, and every stack of its row
    blocks has full row rank exactly when A is nonsingular, so one rank
    covers all 2^s - 1 stacks.
    """
    for idx, (ki, U) in enumerate(zip(D.partition, D.blocks)):
        if linalg.mat_rank(U, D.p) != min(ki, D.n):
            raise RankConditionError(
                f"factor {idx} has coefficient rank below min(k_i, n) = {min(ki, D.n)}"
            )
    if D.n == D.k and linalg.mat_rank(D.A, D.p) != D.n:
        raise RankConditionError(f"stacked blocks {tuple(range(D.s))} have rank below {D.n}")


def _ranks_hold(D: NormFormDecomposition) -> bool:
    """Each block U_i has rank min(k_i, n) and, when n = k, so does every stack."""
    try:
        _check_ranks(D)
    except RankConditionError:
        return False
    return True


def verify_decomposition(F: FormSpec, D: NormFormDecomposition) -> bool:
    """The rank invariants, and F(x) = prod N_i(lambda_i(x)) by form_values
    against D.values, plane by plane: over all of F_p^n, or past POINTWISE_EXHAUSTIVE_CAP
    points over runs of s points along x_n drawn by random.Random(repr(F.monomials)),
    each run one plane of one row.  Each plane of either route also checks its last
    point against eval_form or D.value, which pack nothing (linalg.CheckFailed).
    A run tests as much as a point: for k < p, F - D is nonzero on all but a k/p share
    of lines (Schwartz-Zippel), and a nonzero restriction cannot vanish at s > k points.
    Both compare functions: for k >= p a nonzero F - D can vanish on all of F_p^n
    (x1 x2 (x1 + x2) on F_2^2), so F_p^n decides the polynomial only for k < p."""
    if F.p != D.p or F.n != D.n or F.k != D.k or not _ranks_hold(D):
        return False
    p, n = F.p, F.n
    boxes = [BoxSpec((-1,) * n, (p,) * n)]
    if p**n > POINTWISE_EXHAUSTIVE_CAP:
        rng, s = random.Random(repr(F.monomials)), min(p, math.isqrt(POINTWISE_SAMPLES))
        boxes = (BoxSpec([rng.randrange(p) for _ in range(n)], (1,) * (n - 1) + (s,))
                 for _ in range(-(-POINTWISE_SAMPLES // s)))
    return all(all(map(operator.eq, form_values(F, B), D.values(B))) for B in boxes)


def synthesize_form(D: NormFormDecomposition) -> FormSpec:
    """Expand prod_i N_i(lambda_i(X)) symbolically into a FormSpec over F_p;
    ValueError before any expansion past EXPANSION_CAP (_block_norms)."""
    return _product_form(_block_norms(D.n, D.k, list(zip(D.partition, D.ctxs, D.blocks))))


def _block_norms(n: int, k: int, blocks) -> list:
    """_block_norm of each (k_i, ctx_i, U_i) of blocks, after one size estimate:
    ValueError, before any expansion, when their product may have more than
    EXPANSION_CAP monomials, the smaller of C(n + k - 1, k) and the product of
    C(v_i + k_i - 1, k_i), where U_i reads v_i variables."""
    size = min(math.comb(n + k - 1, k), math.prod(
        math.comb(sum(map(any, zip(*U))) + ki - 1, ki) for ki, _, U in blocks))
    if size > EXPANSION_CAP:
        raise ValueError(f"expanding a degree-{k} form in {n} variables may take {size} "
                         f"monomials, over the cap {EXPANSION_CAP}")
    return [_block_norm(n, ctx, U, i) for i, (_, ctx, U) in enumerate(blocks)]


def _block_norm(n: int, ctx: fc.ExtFieldCtx, U, i: int) -> FormSpec:
    """The form N(lambda(x)) of block i, U over ctx: the product of the Frobenius
    conjugates of lambda, its coefficients in F_p or else a broken invariant."""
    poly = lin = {_unit(n, j): c for j, c in enumerate(zip(*U)) if any(c)}
    if not lin:
        raise ValueError(f"block {i} defines the zero linear form")
    for _ in range(ctx.m - 1):
        lin = {e: fc.pow_coeffs(ctx, c, ctx.p) for e, c in lin.items()}
        poly = _epoly_mul(poly, lin, ctx)
    poly = _prime_field_part(poly, f"norm expansion of block {i}")
    return FormSpec(ctx.p, n, ctx.m, tuple((e, c) for e, (c,) in poly.items()))


def _product_form(factors: list) -> FormSpec:
    """The product of a nonempty list of forms over one F_p in the same variables."""
    p, n = factors[0].p, factors[0].n
    total = {(0,) * n: 1}
    for G in factors:
        total = _poly_mul(total, dict(G.monomials), p)
    return FormSpec(p, n, sum(G.k for G in factors), tuple(total.items()))


def decomposition_in_class(D: NormFormDecomposition) -> bool:
    """Whether D's closure-linear factors are pairwise distinct with full ranks.

    Pairwise distinct means no two of the k factors, across all blocks and
    Frobenius conjugates, are proportional; this is the class to which the
    factorization machinery is total.
    """
    if not _ranks_hold(D):
        return False
    L = math.lcm(*D.partition)
    big = fc.ext_field_ctx(D.p, L)
    mul = fc.mul_kernel(big)
    seen = set()
    for ctx, U in zip(D.ctxs, D.blocks):
        powers = _embedding_powers(ctx, big)
        cols = [
            tuple(sum(row[j] * pw[t] for row, pw in zip(U, powers)) % D.p for t in range(L))
            for j in range(D.n)
        ]
        lead = next((c for c in cols if any(c)), None)
        if lead is None:
            return False
        # Frobenius keeps the lead column, so it maps each normalized key to the next
        inv = fc.pow_coeffs(big, lead, big.order - 2)
        key = tuple(mul(inv, c) for c in cols)
        for t in range(ctx.m):
            if t:
                key = tuple(fc.pow_coeffs(big, c, big.p) for c in key)
            if key in seen:
                return False
            seen.add(key)
    return True


def random_decomposition(p: int, n: int, partition, rng) -> NormFormDecomposition:
    """A uniformly sampled decomposition, rejection-sampled into the class.

    Blocks are filled with uniform entries and resampled until the closure
    factors are pairwise non-proportional and all rank conditions hold.
    """
    partition = tuple(int(v) for v in partition)
    k = sum(partition)
    if not 1 <= n <= k < 2 * n:
        raise ValueError(f"need 1 <= n <= k < 2n, got n={n}, k={k}")
    ctxs = tuple(fc.ext_field_ctx(p, ki) for ki in partition)
    for _ in range(2000):
        blocks = tuple(
            tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(ki))
            for ki in partition
        )
        D = NormFormDecomposition(p, n, partition, ctxs, blocks)
        if decomposition_in_class(D):
            return D
    raise ValueError(f"no in-class decomposition found for p={p}, partition={partition}")


# ---------------------------------------------------------------------------
# JSON round trips


def form_to_dict(F: FormSpec) -> dict:
    return {
        "p": F.p,
        "n": F.n,
        "k": F.k,
        "monomials": [{"exp": list(e), "coef": c} for e, c in F.monomials],
    }


def _checked(d, keys, what: str) -> dict:
    """Return d after checking that it is a JSON object with every key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{what} lacks key(s): {', '.join(missing)}")
    return d


def _checked_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list, got {type(v).__name__}")
    return v


def _checked_int(v, what: str) -> int:
    # JSON true/false load as bool, a subclass of int
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, got {type(v).__name__}")
    return v


def _checked_ints(v, what: str) -> tuple:
    return tuple(_checked_int(x, what) for x in _checked_list(v, what))


def form_from_dict(d: dict) -> FormSpec:
    d = _checked(d, ("p", "n", "k", "monomials"), "form")
    monos = [
        _checked(m, ("exp", "coef"), "form monomial")
        for m in _checked_list(d["monomials"], "form monomials")
    ]
    return FormSpec(
        _checked_int(d["p"], "form p"),
        _checked_int(d["n"], "form n"),
        _checked_int(d["k"], "form k"),
        tuple(
            (
                _checked_ints(m["exp"], "form exponent"),
                _checked_int(m["coef"], "form coefficient"),
            )
            for m in monos
        ),
    )


def decomposition_to_dict(D: NormFormDecomposition) -> dict:
    return {
        "p": D.p,
        "n": D.n,
        "partition": list(D.partition),
        "ctxs": [
            {"p": c.p, "m": c.m, "defining_poly": list(c.defining_poly)} for c in D.ctxs
        ],
        "blocks": [[list(row) for row in U] for U in D.blocks],
    }


def decomposition_from_dict(d: dict) -> NormFormDecomposition:
    d = _checked(d, ("p", "n", "partition", "ctxs", "blocks"), "decomposition")
    ctxs = []
    for c in _checked_list(d["ctxs"], "decomposition ctxs"):
        c = _checked(c, ("p", "m", "defining_poly"), "field context")
        ctxs.append(
            fc.ext_field_ctx(
                _checked_int(c["p"], "field context p"),
                _checked_int(c["m"], "field context m"),
                _checked_ints(c["defining_poly"], "defining polynomial"),
            )
        )
    blocks = tuple(
        tuple(
            _checked_ints(row, "block entry")
            for row in _checked_list(U, "decomposition block")
        )
        for U in _checked_list(d["blocks"], "decomposition blocks")
    )
    return NormFormDecomposition(
        _checked_int(d["p"], "decomposition p"),
        _checked_int(d["n"], "decomposition n"),
        _checked_ints(d["partition"], "partition entry"),
        tuple(ctxs),
        blocks,
    )


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
