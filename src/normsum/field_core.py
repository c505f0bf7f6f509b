"""Prime fields F_p and their extensions F_{p^m} in a fixed power basis.

Elements of F_{p^m} are coefficient tuples over the power basis
1, w, ..., w^(m-1) of a monic irreducible defining polynomial f, where w is
the class of X mod f. All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import linalg

FIELD_SIZE_CAP = 10**6


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p: int):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = linalg.inv_mod(b[-1], p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        shift = len(a) - len(b)
        f = (a[-1] * inv_lead) % p
        q[shift] = f
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - f * bi) % p
        _trim(a)
    return _trim(q), _trim(a)


def _poly_gcd(a, b, p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = linalg.inv_mod(a[-1], p)
        a = [(v * inv) % p for v in a]
    return a


def _poly_powmod(base, e: int, mod, p: int) -> list[int]:
    result = [1]
    base = _poly_divmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, p), mod, p)[1]
        base = _poly_divmod(_poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (by trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_poly(coeffs, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p (Rabin's criterion)."""
    f = list(coeffs)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    x_mod_f = _poly_divmod([0, 1], f, p)[1]
    if _poly_powmod([0, 1], p**m, f, p) != x_mod_f:
        return False
    for q in prime_divisors(m):
        h = _poly_sub(_poly_powmod([0, 1], p ** (m // q), f, p), x_mod_f, p)
        if len(_poly_gcd(h, f, p)) != 1:
            return False
    return True


def _poly_sub(a, b, p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v % p
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lex-smallest monic irreducible of degree m over F_p.

    Candidates X^m + c_{m-1}X^{m-1} + ... + c_0 are scanned in ascending
    lexicographic order of (c_{m-1}, ..., c_0), so the choice is canonical.
    Returns coefficients low-to-high, length m+1, leading 1.
    """
    linalg.check_prime(p)
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if p**m > FIELD_SIZE_CAP:
        raise ValueError(f"field size {p}^{m} exceeds cap {FIELD_SIZE_CAP}")
    for tail in itertools.product(range(p), repeat=m):
        coeffs = tuple(reversed(tail)) + (1,)
        if is_irreducible_poly(coeffs, p):
            return coeffs
    raise AssertionError("unreachable: irreducibles of every degree exist")


@dataclass(frozen=True)
class PrimeFieldElement:
    """A residue in F_p."""

    p: int
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def __int__(self) -> int:
        return self.value

    def _check(self, other: "PrimeFieldElement"):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement(self.p, self.value + other.value)

    def __mul__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement(self.p, self.value * other.value)

    def __neg__(self) -> "PrimeFieldElement":
        return PrimeFieldElement(self.p, -self.value)

    def inverse(self) -> "PrimeFieldElement":
        return PrimeFieldElement(self.p, linalg.inv_mod(self.value, self.p))


@dataclass(frozen=True)
class ExtFieldCtx:
    """The field F_{p^m} presented as F_p[X]/(f) with f monic irreducible.

    defining_poly holds the coefficients of f low-to-high (length m+1,
    leading coefficient 1). Use ext_field_ctx() to get the canonical f.
    """

    p: int
    m: int
    defining_poly: tuple[int, ...]

    def __post_init__(self):
        linalg.check_prime(self.p)
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        f = tuple(v % self.p for v in self.defining_poly)
        if len(f) != self.m + 1 or f[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree m")
        if not is_irreducible_poly(f, self.p):
            raise ValueError(f"defining polynomial {f} is reducible mod {self.p}")
        object.__setattr__(self, "defining_poly", f)

    @property
    def order(self) -> int:
        return self.p**self.m

    def element(self, coeffs) -> "ExtFieldElement":
        return ExtFieldElement(self, tuple(coeffs))

    def from_int(self, c: int) -> "ExtFieldElement":
        return self.element((c,) + (0,) * (self.m - 1))

    def zero(self) -> "ExtFieldElement":
        return self.from_int(0)

    def one(self) -> "ExtFieldElement":
        return self.from_int(1)

    def gen(self) -> "ExtFieldElement":
        """The class of X mod f (the power-basis generator w)."""
        if self.m == 1:
            return self.from_int(-self.defining_poly[0])
        return self.element((0, 1) + (0,) * (self.m - 2))

    def iter_elements(self):
        """All p^m elements, lexicographic in the coefficient tuple."""
        for coeffs in itertools.product(range(self.p), repeat=self.m):
            yield self.element(coeffs)


_ctx_cache: dict = {}


def ext_field_ctx(p: int, m: int, defining_poly=None) -> ExtFieldCtx:
    """F_{p^m}; the canonical defining polynomial unless one is given.

    Contexts are memoized on (p, m, poly), so the irreducibility search and
    Rabin's test run once per field.
    """
    key = (p, m, None if defining_poly is None else tuple(defining_poly))
    ctx = _ctx_cache.get(key)
    if ctx is None:
        poly = find_irreducible(p, m) if defining_poly is None else key[2]
        ctx = _ctx_cache[key] = ExtFieldCtx(p, m, poly)
    return ctx


@dataclass(frozen=True)
class ExtFieldElement:
    """An element of F_{p^m}: coefficients over the power basis, length m."""

    ctx: ExtFieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.m:
            raise ValueError(
                f"expected {self.ctx.m} coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(
            self, "coeffs", tuple(v % self.ctx.p for v in self.coeffs)
        )

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)

    def as_int(self) -> int:
        """The value of a prime-subfield element as a plain residue."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self.coeffs} is not in the prime subfield")
        return self.coeffs[0]


def _same_ctx(a: ExtFieldElement, b: ExtFieldElement):
    if a.ctx != b.ctx:
        raise ValueError("elements live in different field presentations")


def ext_add(a: ExtFieldElement, b: ExtFieldElement) -> ExtFieldElement:
    _same_ctx(a, b)
    return a.ctx.element(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def ext_sub(a: ExtFieldElement, b: ExtFieldElement) -> ExtFieldElement:
    _same_ctx(a, b)
    return a.ctx.element(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def ext_neg(a: ExtFieldElement) -> ExtFieldElement:
    return a.ctx.element(tuple(-x for x in a.coeffs))


def ext_scalar_mul(c: int, a: ExtFieldElement) -> ExtFieldElement:
    return a.ctx.element(tuple(c * x for x in a.coeffs))


def ext_mul(a: ExtFieldElement, b: ExtFieldElement) -> ExtFieldElement:
    _same_ctx(a, b)
    ctx = a.ctx
    prod = _poly_mul(list(a.coeffs), list(b.coeffs), ctx.p)
    rem = _poly_divmod(prod, list(ctx.defining_poly), ctx.p)[1]
    rem = rem + [0] * (ctx.m - len(rem))
    return ctx.element(tuple(rem))


def ext_inv(a: ExtFieldElement) -> ExtFieldElement:
    """Multiplicative inverse via the extended Euclidean algorithm."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of 0 in F_{p^m}")
    ctx = a.ctx
    p = ctx.p
    r0, r1 = list(ctx.defining_poly), _trim(list(a.coeffs))
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, p), p)
    # r0 is a unit constant: scale s0 by its inverse
    inv = linalg.inv_mod(r0[0], p)
    s0 = [(v * inv) % p for v in s0]
    s0 = s0 + [0] * (ctx.m - len(s0))
    return ctx.element(tuple(s0))


def ext_pow(a: ExtFieldElement, e: int) -> ExtFieldElement:
    if e < 0:
        return ext_pow(ext_inv(a), -e)
    result = a.ctx.one()
    base = a
    while e > 0:
        if e & 1:
            result = ext_mul(result, base)
        base = ext_mul(base, base)
        e >>= 1
    return result


def frobenius(a: ExtFieldElement, i: int) -> ExtFieldElement:
    """The automorphism x -> x^(p^i); requires 0 <= i < m."""
    if not 0 <= i < a.ctx.m:
        raise ValueError(f"frobenius power must satisfy 0 <= i < {a.ctx.m}")
    return ext_pow(a, a.ctx.p**i)


def norm(a: ExtFieldElement) -> int:
    """Field norm down to F_p, by the context's raw kernel; norm(0) = 0."""
    return norm_kernel(a.ctx)(a.coeffs)


def norm_via_conjugates(a: ExtFieldElement) -> int:
    """Oracle route: the product of all Frobenius conjugates of a.

    The exponent route ext_pow(a, (p^m - 1)/(p - 1)) is the other oracle;
    the tests hold both against norm_kernel.
    """
    prod = a.ctx.one()
    for i in range(a.ctx.m):
        prod = ext_mul(prod, frobenius(a, i))
    return prod.as_int()


def is_normal_element(a: ExtFieldElement) -> bool:
    """True iff the conjugates of a form an F_p-basis of F_{p^m}."""
    rows = [list(frobenius(a, i).coeffs) for i in range(a.ctx.m)]
    return linalg.mat_rank(rows, a.ctx.p) == a.ctx.m


# ---------------------------------------------------------------------------
# raw-coordinate kernels: functions on coefficient tuples, one per context

_norm_kernels: dict = {}
_mul_kernels: dict = {}


def _det3(M, p: int) -> int:
    (a, b, c), (d, e, f), (g, h, i) = M
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def norm_kernel(ctx: ExtFieldCtx):
    """N(a) in F_p from the coefficient tuple of a, cached per context.

    The norm is the determinant of multiplication by a (Lidl-Niederreiter,
    Finite Fields, ch. 2).  Degree 1 is the coordinate itself and degree 2
    the quadratic a0^2 - f1 a0 a1 + f0 a1^2 for f = X^2 + f1 X + f0.  For
    degree m >= 3 that matrix is sum_k a_k C^k, C the companion matrix of f;
    its columns a, w a, ..., w^(m-1) a come from m - 1 shifts reduced by f,
    and its determinant is expanded in closed form at m = 3.  Coordinates
    need not be reduced mod p.
    """
    kernel = _norm_kernels.get(ctx)
    if kernel is not None:
        return kernel
    p, m = ctx.p, ctx.m
    if m == 1:
        def kernel(a):
            return a[0] % p
    elif m == 2:
        f0, f1 = ctx.defining_poly[0], ctx.defining_poly[1]

        def kernel(a):
            a0, a1 = a
            return (a0 * (a0 - f1 * a1) + f0 * a1 * a1) % p
    else:
        tail = ctx.defining_poly[:m]
        det = _det3 if m == 3 else linalg.mat_det

        def kernel(a):
            # columns a, w a, ..., w^(m-1) a: the matrix sum_k a_k C^k
            col = a
            cols = [col]
            for _ in range(m - 1):
                top = col[-1]
                col = [-top * tail[0]] + [col[i - 1] - top * tail[i] for i in range(1, m)]
                cols.append(col)
            return det(cols, p)

    _norm_kernels[ctx] = kernel
    return kernel


def mul_kernel(ctx: ExtFieldCtx):
    """Product of two coefficient tuples as a reduced tuple, cached per context.

    Closed forms for degrees 1 and 2; degree m >= 3 multiplies the
    polynomials and reduces by the monic defining polynomial, so no field
    element is built per product.
    """
    kernel = _mul_kernels.get(ctx)
    if kernel is not None:
        return kernel
    p, m = ctx.p, ctx.m
    f = ctx.defining_poly
    if m == 1:
        def kernel(a, b):
            return ((a[0] * b[0]) % p,)
    elif m == 2:
        f0, f1 = f[0], f[1]

        def kernel(a, b):
            t = a[1] * b[1]
            return (
                (a[0] * b[0] - f0 * t) % p,
                (a[0] * b[1] + a[1] * b[0] - f1 * t) % p,
            )
    else:
        tail = f[:m]

        def kernel(a, b):
            prod = [0] * (2 * m - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] += ai * bj
            # X^m = -(f_0 + ... + f_{m-1} X^{m-1}), from the top degree down
            for d in range(2 * m - 2, m - 1, -1):
                c = prod[d] % p
                if c:
                    for t, ft in enumerate(tail, start=d - m):
                        prod[t] -= c * ft
            return tuple(v % p for v in prod[:m])

    _mul_kernels[ctx] = kernel
    return kernel


# a field's log table and fold hold about 5q references (some 100 MB at
# q = 10^6), and a scan over a prime range builds them for new fields at
# every prime, so only the most recently built are kept, up to this many
# elements: room for F_p, F_{p^2}, ... of one prime up to the field cap
LOG_CACHE_ELEMENTS = FIELD_SIZE_CAP
_log_tables: dict = {}


def log_table(ctx: ExtFieldCtx) -> list:
    """Discrete logs in F_q^*, indexed by element code.

    The code of a = (a_0, ..., a_{m-1}) is sum_j a_j p^j.  For a != 0 the
    entry is the j in [0, q - 2] with g^j = a, where g is the primitive
    element of smallest code (g^((q-1)/r) != 1 for every prime r | q - 1).
    The entry for 0 is the sentinel 2(q - 1) - 1, above every sum of two
    logs, so the sum of two entries shows whether either factor is zero.
    The table is filled by stepping with mul_kernel and fails closed: a
    repeated code raises rather than store a table that is not a bijection.
    """
    return _log_tables_of(ctx)[0]


def log_fold(ctx: ExtFieldCtx) -> list:
    """The log of a product from the sum of its factors' log_table entries.

    For a sum s = log[a] + log[b] of two entries (0 <= s <= 4(q - 1) - 2),
    fold[s] is log[ab] = s mod (q - 1) when a and b are nonzero, and the
    marker q - 1, which is no log, when either is zero.
    """
    return _log_tables_of(ctx)[1]


def _log_tables_of(ctx: ExtFieldCtx) -> tuple:
    tables = _log_tables.get(ctx)
    if tables is not None:
        return tables
    p, m, q = ctx.p, ctx.m, ctx.order
    # make room first, so an evicted field is freed before the new one grows
    while _log_tables and (
        sum(len(t) for t, _ in _log_tables.values()) + q > LOG_CACHE_ELEMENTS
    ):
        del _log_tables[next(iter(_log_tables))]
    order = q - 1
    weights = [p**j for j in range(m)]
    exponents = [order // r for r in prime_divisors(order)]
    one = ctx.one()
    for code in range(1, q):
        g = ctx.element(tuple(code // w % p for w in weights))
        if all(ext_pow(g, e) != one for e in exponents):
            break
    mul = mul_kernel(ctx)
    logs = list(range(order))  # one int object per log, shared with the fold
    table = [None] * q
    acc = one.coeffs
    for j in logs:
        code = sum(map(operator.mul, acc, weights))
        if code == 0 or table[code] is not None:
            raise AssertionError(
                f"log table of F_{p}^{m}: step {j} revisits code {code}"
            )
        table[code] = j
        acc = mul(acc, g.coeffs)
    table[0] = 2 * order - 1
    fold = logs + logs[: order - 1] + [order] * (2 * order)
    tables = _log_tables[ctx] = (table, fold)
    return tables
