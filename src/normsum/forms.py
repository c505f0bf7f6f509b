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
factorization is into linear forms, really). Anything else fails loudly.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass

from . import field_core as fc
from . import linalg

POINTWISE_EXHAUSTIVE_CAP = 10**5
POINTWISE_SAMPLES = 10**4


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
        object.__setattr__(self, "monomials", tuple(sorted(cleaned.items())))

    @classmethod
    def from_monomials(cls, p: int, n: int, monomials) -> "FormSpec":
        items = monomials.items() if isinstance(monomials, dict) else list(monomials)
        items = [(tuple(e), c) for e, c in items]
        if not items:
            raise ValueError("form has no nonzero monomials")
        k = sum(items[0][0])
        return cls(p, n, k, tuple(items))

    def coefficient(self, exp) -> int:
        return dict(self.monomials).get(tuple(exp), 0)

    def as_dict(self) -> dict:
        return dict(self.monomials)


def eval_form(F: FormSpec, x) -> int:
    """F(x) as a residue in [0, p)."""
    if len(x) != F.n:
        raise ValueError(f"expected {F.n} coordinates, got {len(x)}")
    total = 0
    for exp, coef in F.monomials:
        term = coef
        for xi, e in zip(x, exp):
            if e:
                term = term * pow(int(xi) % F.p, e, F.p)
        total += term
    return total % F.p


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

    def contains(self, x) -> bool:
        return all(n < v <= n + h for v, n, h in zip(x, self.N, self.H))

    def iter_points(self):
        for x in itertools.product(
            *[range(n + 1, n + h + 1) for n, h in zip(self.N, self.H)]
        ):
            yield x

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

    def lam(self, i: int, x) -> fc.ExtFieldElement:
        coords = linalg.mat_vec(self.blocks[i], [int(v) for v in x], self.p)
        return self.ctxs[i].element(tuple(coords))

    def value(self, x) -> int:
        """F(x) = prod_i N_i(U_i x) mod p, by each field's norm kernel.

        The block coordinates go into the kernel as they are (it reduces
        them), so no field element is built per point.
        """
        total = 1
        for U, norm in self._factors:
            total *= norm([sum(map(operator.mul, row, x)) for row in U])
        return total % self.p


# ---------------------------------------------------------------------------
# polynomial dictionaries: exponent tuple -> coefficient


def _ipoly_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _ipoly_pow(a: dict, e: int, p: int, n: int) -> dict:
    out = {(0,) * n: 1}
    for _ in range(e):
        out = _ipoly_mul(out, a, p)
    return out


def compose_form(F: FormSpec, M) -> FormSpec:
    """The form G(x) = F(Mx) for a square matrix M over F_p."""
    n, p = F.n, F.p
    rows = [{_unit(n, j): M[i][j] % p for j in range(n) if M[i][j] % p} for i in range(n)]
    acc: dict = {}
    for exp, coef in F.monomials:
        term = {(0,) * n: coef}
        for i, e in enumerate(exp):
            if e:
                term = _ipoly_mul(term, _ipoly_pow(rows[i], e, p, n), p)
        for e, c in term.items():
            acc[e] = (acc.get(e, 0) + c) % p
    acc = {e: c for e, c in acc.items() if c}
    return FormSpec(p, n, F.k, tuple(acc.items()))


def _unit(n: int, j: int) -> tuple:
    return tuple(1 if t == j else 0 for t in range(n))


def _epoly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            prev = out.get(e)
            v = fc.ext_mul(c1, c2) if prev is None else fc.ext_add(prev, fc.ext_mul(c1, c2))
            out[e] = v
    return {e: c for e, c in out.items() if not c.is_zero()}


def _divide_by_linear(poly: dict, b, ctx, n: int):
    """Divide an n-variable polynomial over ctx by X_1 + b_2 X_2 + ... + b_n X_n.

    poly maps exponent tuples to ctx elements. Returns the quotient dict, or
    None when the division leaves a remainder. Exact long division in X_1.
    """
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
                if not b[j].is_zero():
                    se = (d - 1,) + e[1:j] + (e[j] + 1,) + e[j + 1 :]
                    v = fc.ext_mul(c, b[j])
                    rem[se] = fc.ext_sub(rem[se], v) if se in rem else fc.ext_neg(v)
                    if rem[se].is_zero():
                        del rem[se]
    if rem:
        return None
    return quo


# ---------------------------------------------------------------------------
# univariate helpers over F_p (coefficient lists, low to high)


def _factor_univariate(coeffs, p: int):
    """Monic irreducible factors of a monic univariate polynomial over F_p.

    Trial division by monic irreducibles of increasing degree. Returns a list
    of (factor coefficient tuple, multiplicity).
    """
    rem = [v % p for v in coeffs]
    assert rem and rem[-1] == 1
    out = []
    deg = 1
    while len(rem) - 1 > 0:
        if len(rem) - 1 < 2 * deg:
            # whatever is left has no factor of degree < its own: irreducible
            out.append((tuple(rem), 1))
            break
        if p**deg > fc.FIELD_SIZE_CAP:
            raise UnsupportedFormError(
                f"factorization unsupported: univariate trial division needs p^{deg} candidates"
            )
        for tail in itertools.product(range(p), repeat=deg):
            cand = list(reversed(tail)) + [1]
            if deg > 1 and not fc.is_irreducible_poly(cand, p):
                continue
            mult = 0
            while True:
                q, r = fc.poly_divmod(rem, cand, p)
                if r:
                    break
                rem = q if q else [1]
                mult += 1
            if mult:
                out.append((tuple(cand), mult))
            if len(rem) - 1 == 0:
                break
        deg += 1
    return out


def _eval_poly_ext(coeffs, x: fc.ExtFieldElement) -> fc.ExtFieldElement:
    acc = x.ctx.zero()
    for c in reversed(list(coeffs)):
        acc = fc.ext_add(fc.ext_mul(acc, x), x.ctx.from_int(c))
    return acc


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
    if n == 1:
        c = F.coefficient((k,))
        ctx = fc.ext_field_ctx(p, 1)
        return ClosureSplitting(c, ctx, ((1,),), (((tuple(),), k),))

    M = _leading_change(F)
    G = compose_form(F, M)
    c = G.coefficient((k,) + (0,) * (n - 1))
    assert c != 0
    G = FormSpec(p, n, k, tuple((e, (v * linalg.inv_mod(c, p)) % p) for e, v in G.monomials))

    restrictions = [_restriction(G, j) for j in range(1, n)]
    K = 1
    for g in restrictions:
        for fac, _ in _factor_univariate(g, p):
            K = K * (len(fac) - 1) // math.gcd(K, len(fac) - 1)
    ctx = fc.ext_field_ctx(p, K)

    # roots of each restriction in the splitting field, negated
    candidates = []
    for g in restrictions:
        roots = [x for x in ctx.iter_elements() if _eval_poly_ext(g, x).is_zero()]
        candidates.append([fc.ext_neg(r) for r in roots])

    Ghat = {e: ctx.from_int(v) for e, v in G.monomials}
    divisors = []
    for tail in itertools.product(*candidates):
        b = (ctx.one(),) + tuple(tail)
        if _hyperplane_vanishes(Ghat, b, ctx, n):
            divisors.append(b)

    rem = Ghat
    mults = []
    for b in divisors:
        mult = 0
        while True:
            q = _divide_by_linear(rem, b, ctx, n)
            if q is None:
                break
            rem = q
            mult += 1
        mults.append(mult)
    leftover_ok = rem == {(0,) * n: ctx.one()}
    if sum(mults) != k or not leftover_ok:
        raise UnsupportedFormError(
            "factorization unsupported: form does not split into linear factors "
            f"over the splitting field of size {p**K} (matched degree {sum(mults)} of {k})"
        )

    mult_of = {tuple(x.coeffs for x in b): m for b, m in zip(divisors, mults)}
    orbits = []
    seen = set()
    for b in divisors:
        key = tuple(x.coeffs for x in b)
        if key in seen:
            continue
        orbit = []
        cur = b
        while True:
            ck = tuple(x.coeffs for x in cur)
            if ck in seen:
                break
            seen.add(ck)
            orbit.append(cur)
            cur = tuple(fc.ext_pow(x, ctx.p) for x in cur)
        orbit_mults = {mult_of[tuple(x.coeffs for x in ob)] for ob in orbit}
        assert len(orbit_mults) == 1, "conjugate factors must share multiplicity"
        orbits.append((tuple(tuple(x.coeffs for x in ob)[1:] for ob in orbit), orbit_mults.pop()))
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
    for w in itertools.product(range(p), repeat=n):
        if any(w) and eval_form(F, w) != 0:
            cols = [list(w)]
            for j in range(n):
                trial = cols + [list(_unit(n, j))]
                if linalg.mat_rank(trial, p) > len(cols):
                    cols.append(list(_unit(n, j)))
                if len(cols) == n:
                    break
            return linalg.transpose(cols)
    raise UnsupportedFormError(
        "factorization unsupported: form vanishes on all of F_p^n"
    )


def _restriction(G: FormSpec, j: int):
    """Coefficient list of g_j(t) = G(t e_1 + e_{j+1}), monic of degree k."""
    out = [0] * (G.k + 1)
    for exp, coef in G.monomials:
        if all(e == 0 for t, e in enumerate(exp) if t not in (0, j)):
            out[exp[0]] = (out[exp[0]] + coef) % G.p
    return out


def _hyperplane_vanishes(poly: dict, b, ctx, n: int) -> bool:
    """Exact test: substitute X_1 = -(b_2 X_2 + ... + b_n X_n) and compare to 0."""
    sub = {}
    for j in range(1, n):
        if not b[j].is_zero():
            sub[_unit(n - 1, j - 1)] = fc.ext_neg(b[j])
    acc: dict = {}
    for exp, coef in poly.items():
        term = {(0,) * (n - 1): coef}
        if exp[0]:
            if not sub:
                continue
            power = {(0,) * (n - 1): ctx.one()}
            for _ in range(exp[0]):
                power = _epoly_mul(power, sub)
            term = _epoly_mul(term, power)
        term = _epoly_mul(term, {tuple(exp[1:]): ctx.one()})
        for e, v in term.items():
            acc[e] = fc.ext_add(acc[e], v) if e in acc else v
    return all(v.is_zero() for v in acc.values())


def _orbit_factor_form(orbit, split: ClosureSplitting, F: FormSpec) -> FormSpec:
    """One Frobenius orbit expanded into an F_p-irreducible factor of F."""
    n, p = F.n, F.p
    ctx = split.ctx
    poly = {(0,) * n: ctx.one()}
    for tail in orbit:
        lin = {_unit(n, 0): ctx.one()}
        for j, coeffs in enumerate(tail, start=1):
            el = ctx.element(coeffs)
            if not el.is_zero():
                lin[_unit(n, j)] = el
        poly = _epoly_mul(poly, lin)
    int_monos = {}
    for e, v in poly.items():
        int_monos[e] = v.as_int()  # raises if a coefficient escapes F_p
    factor = FormSpec(p, n, len(orbit), tuple(int_monos.items()))
    Minv = linalg.mat_inv([list(r) for r in split.change], p)
    return compose_form(factor, Minv)


def form_sort_key(F: FormSpec):
    """Ascending degree, then descending lexicographic leading monomial."""
    return (F.k, tuple((tuple(-e for e in exp), coef) for exp, coef in reversed(F.monomials)))


def factor_form(F: FormSpec):
    """Irreducible factors of F over F_p, with multiplicity, product equal to F.

    The leading constant is folded into the first factor. Raises
    UnsupportedFormError outside the supported classes.
    """
    split = _closure_split(F)
    factors = []
    for orbit, mult in split.orbits:
        factor = _orbit_factor_form(orbit, split, F)
        factors.extend([factor] * mult)
    factors.sort(key=form_sort_key)
    if split.c != 1:
        first = factors[0]
        factors[0] = FormSpec(
            F.p, F.n, first.k, tuple((e, (v * split.c) % F.p) for e, v in first.monomials)
        )
    prod = {(0,) * F.n: 1}
    for fac in factors:
        prod = _ipoly_mul(prod, fac.as_dict(), F.p)
    assert FormSpec(F.p, F.n, F.k, tuple(prod.items())) == F, "factor product mismatch"
    return factors


def decompose(F: FormSpec, seed: int = 0) -> NormFormDecomposition:
    """Recover a norm-form decomposition with F(x) = prod_i N_i(lambda_i(x)).

    Factors the form over the closure, groups the linear factors into
    Frobenius orbits, writes one representative per orbit in the power basis
    of the canonical field of matching degree, and absorbs the leading
    constant into the first block as a norm. The seed only feeds the sampled
    fallback of the final verification.
    """
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
        rep = min(orbit)
        ctx_i = fc.ext_field_ctx(p, ki)
        cols = [_subfield_coords(split.ctx.element(coeffs), ctx_i, split.ctx) for coeffs in rep]
        U = [[1 if r == 0 else 0] + [col[r] for col in cols] for r in range(ki)]
        U = linalg.mat_mul(U, Minv, p)
        factor = _orbit_factor_form(orbit, split, F)
        blocks.append((factor, ki, ctx_i, U))

    blocks.sort(key=lambda b: form_sort_key(b[0]))
    for idx, (_, ki, _, U) in enumerate(blocks):
        if linalg.mat_rank(U, p) != min(ki, n):
            raise RankConditionError(
                f"factor {idx} has coefficient rank below min(k_i, n) = {min(ki, n)}"
            )

    if split.c != 1:
        _, k1, ctx1, U1 = blocks[0]
        gamma = next(a for a in ctx1.iter_elements() if fc.norm(a) == split.c)
        cols = [
            fc.ext_mul(gamma, ctx1.element(tuple(U1[r][j] for r in range(k1)))).coeffs
            for j in range(n)
        ]
        blocks[0] = (
            blocks[0][0],
            k1,
            ctx1,
            [[cols[j][r] for j in range(n)] for r in range(k1)],
        )

    D = NormFormDecomposition(
        p,
        n,
        tuple(b[1] for b in blocks),
        tuple(b[2] for b in blocks),
        tuple(tuple(tuple(row) for row in b[3]) for b in blocks),
    )
    if F.n == F.k:
        _check_stacked_ranks(D)
    assert verify_decomposition(F, D, seed=seed), "decomposition failed verification"
    return D


def _embedding_powers(sub_ctx: fc.ExtFieldCtx, big_ctx: fc.ExtFieldCtx):
    """Images of the sub_ctx power basis in big_ctx, via the canonical embedding.

    The embedding sends the subfield generator to the lexicographically
    smallest root of its defining polynomial in the big field.
    """
    if sub_ctx.m == big_ctx.m and tuple(sub_ctx.defining_poly) == tuple(
        big_ctx.defining_poly
    ):
        gamma = big_ctx.gen()
    else:
        gamma = _smallest_root(sub_ctx.defining_poly, big_ctx)
    powers = [big_ctx.one()]
    for _ in range(sub_ctx.m - 1):
        powers.append(fc.ext_mul(powers[-1], gamma))
    return powers


def embed_element(a: fc.ExtFieldElement, powers, big_ctx: fc.ExtFieldCtx) -> fc.ExtFieldElement:
    acc = big_ctx.zero()
    for coef, pw in zip(a.coeffs, powers):
        acc = fc.ext_add(acc, fc.ext_scalar_mul(coef, pw))
    return acc


def _subfield_coords(a: fc.ExtFieldElement, sub_ctx: fc.ExtFieldCtx, big_ctx: fc.ExtFieldCtx):
    """Coordinates of a over the power basis of the subfield copy inside big_ctx."""
    powers = _embedding_powers(sub_ctx, big_ctx)
    B = [[powers[c].coeffs[r] for c in range(sub_ctx.m)] for r in range(big_ctx.m)]
    sol = linalg.solve_mod(B, list(a.coeffs), big_ctx.p)
    assert sol is not None, "element does not lie in the expected subfield"
    return sol


def _smallest_root(poly, ctx: fc.ExtFieldCtx) -> fc.ExtFieldElement:
    for x in ctx.iter_elements():
        if _eval_poly_ext(poly, x).is_zero():
            return x
    raise AssertionError("defining polynomial has no root in the splitting field")


def _check_stacked_ranks(D: NormFormDecomposition):
    s = D.s
    for size in range(1, s + 1):
        for subset in itertools.combinations(range(s), size):
            rows = [list(row) for i in subset for row in D.blocks[i]]
            want = min(sum(D.partition[i] for i in subset), D.n)
            if linalg.mat_rank(rows, D.p) != want:
                raise RankConditionError(
                    f"stacked blocks {subset} have rank below {want}"
                )


def verify_decomposition(F: FormSpec, D: NormFormDecomposition, seed: int = 0) -> bool:
    """Pointwise identity F(x) = prod N_i(lambda_i(x)) plus the rank invariants."""
    if F.p != D.p or F.n != D.n or F.k != D.k:
        return False
    for ki, U in zip(D.partition, D.blocks):
        if linalg.mat_rank([list(r) for r in U], D.p) != min(ki, D.n):
            return False
    if D.n == D.k:
        try:
            _check_stacked_ranks(D)
        except RankConditionError:
            return False
    p, n = F.p, F.n
    if p**n <= POINTWISE_EXHAUSTIVE_CAP:
        points = itertools.product(range(p), repeat=n)
    else:
        rng = random.Random(seed)
        points = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(POINTWISE_SAMPLES))
    return all(eval_form(F, x) == D.value(x) for x in points)


def synthesize_form(D: NormFormDecomposition) -> FormSpec:
    """Expand prod_i N_i(lambda_i(X)) symbolically into a FormSpec over F_p.

    Each norm is the product of the Frobenius conjugates of lambda_i; every
    coefficient of the expansion must land in F_p, anything else signals a
    broken invariant.
    """
    p, n = D.p, D.n
    total = {(0,) * n: 1}
    for i, (ki, ctx, U) in enumerate(zip(D.partition, D.ctxs, D.blocks)):
        cols = [ctx.element(tuple(U[r][j] for r in range(ki))) for j in range(n)]
        block_poly = {(0,) * n: ctx.one()}
        for t in range(ki):
            lin = {}
            for j in range(n):
                conj = fc.frobenius(cols[j], t) if ki > 1 else cols[j]
                if not conj.is_zero():
                    lin[_unit(n, j)] = conj
            if not lin:
                raise ValueError(f"block {i} defines the zero linear form")
            block_poly = _epoly_mul(block_poly, lin)
        int_block = {}
        for e, v in block_poly.items():
            try:
                int_block[e] = v.as_int()
            except ValueError as exc:
                raise AssertionError(
                    f"norm expansion of block {i} left the prime field: {exc}"
                ) from exc
        total = _ipoly_mul(total, int_block, p)
    return FormSpec(p, n, D.k, tuple(total.items()))


def split_box(B: BoxSpec, side: int):
    """Split (N, N+H] into disjoint boxes with every side in [side, 2*side).

    Along each axis there are floor(H_i/side) pieces; the last piece absorbs
    the remainder.
    """
    if side < 1 or any(side > h for h in B.H):
        raise ValueError(f"need 1 <= side <= min H_i, got {side} vs {B.H}")
    axis_pieces = []
    for n0, h in zip(B.N, B.H):
        q = h // side
        pieces = [(n0 + t * side, side) for t in range(q - 1)]
        pieces.append((n0 + (q - 1) * side, h - (q - 1) * side))
        axis_pieces.append(pieces)
    return [
        BoxSpec(tuple(s for s, _ in combo), tuple(l for _, l in combo))
        for combo in itertools.product(*axis_pieces)
    ]


def decomposition_in_class(D: NormFormDecomposition) -> bool:
    """Whether D's closure-linear factors are pairwise distinct with full ranks.

    Pairwise distinct means no two of the k factors, across all blocks and
    Frobenius conjugates, are proportional; this is the class to which the
    factorization machinery is total.
    """
    for ki, U in zip(D.partition, D.blocks):
        if linalg.mat_rank([list(r) for r in U], D.p) != min(ki, D.n):
            return False
    if D.n == D.k:
        try:
            _check_stacked_ranks(D)
        except RankConditionError:
            return False
    L = 1
    for ki in D.partition:
        L = L * ki // math.gcd(L, ki)
    big = fc.ext_field_ctx(D.p, L)
    seen = set()
    for ki, ctx, U in zip(D.partition, D.ctxs, D.blocks):
        powers = _embedding_powers(ctx, big)
        cols = [
            embed_element(ctx.element(tuple(U[r][j] for r in range(ki))), powers, big)
            for j in range(D.n)
        ]
        for _ in range(ki):
            lead = next((c for c in cols if not c.is_zero()), None)
            if lead is None:
                return False
            inv = fc.ext_inv(lead)
            key = tuple(fc.ext_mul(inv, c).coeffs for c in cols)
            if key in seen:
                return False
            seen.add(key)
            cols = [fc.ext_pow(c, big.p) for c in cols]
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


def save_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
