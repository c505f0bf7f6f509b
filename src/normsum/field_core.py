"""Prime fields F_p and their extensions F_{p^m} in a fixed power basis.

An element of F_{p^m} is a tuple of m residues in [0, p): its coefficients
over the power basis 1, w, ..., w^(m-1) of a monic irreducible defining
polynomial f, where w is the class of X mod f.  Every function takes the
field's ExtFieldCtx beside the tuples.  All arithmetic is exact.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator
import types
from dataclasses import dataclass

from . import linalg

FIELD_SIZE_CAP = 10**6
# past every cap, yet printable in decimal: sizes and costs stop here
SIZE_CEILING = 2**4096


def capped_power(base: int, exp: int) -> int:
    """min(base^exp, SIZE_CEILING) for base >= 0.  base^exp >= 2^(exp
    floor(log2 base)), so a huge exponent is decided without computing it."""
    if exp * (base.bit_length() - 1) >= SIZE_CEILING.bit_length() - 1:
        return SIZE_CEILING
    return min(base**exp, SIZE_CEILING)


def field_size(p: int, m: int) -> int:
    """p^m, the elements an enumeration of F_{p^m} walks, up to SIZE_CEILING."""
    return capped_power(p, m)


def field_fits(p: int, m: int) -> bool:
    """Whether F_{p^m} is within FIELD_SIZE_CAP: every field-size refusal asks here."""
    return field_size(p, m) <= FIELD_SIZE_CAP


def _check_fits(p: int, m: int):
    if not field_fits(p, m):
        raise ValueError(f"field size {p}^{m} exceeds cap {FIELD_SIZE_CAP}")


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
    """(quotient, remainder) of a by b over F_p, coefficients low to high.

    Each coefficient of a is reduced mod p once: a quotient coefficient's
    when the division reaches it, a remainder coefficient's at the end.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a, n = list(a), len(b) - 1
    inv_lead = linalg.inv_mod(b[-1], p)
    q = [0] * max(0, len(a) - n)
    for shift in range(len(q) - 1, -1, -1):
        f = q[shift] = a[shift + n] % p * inv_lead % p
        if f:
            for i in range(n):
                a[shift + i] -= f * b[i]
    return _trim(q), _trim([v % p for v in a[:n]])


def _poly_mulmod(a, b, f, p: int) -> list[int]:
    """The coefficients of a b mod the monic f over F_p, for a and b of
    degree below n = deg f: at most n of them, reduced but not trimmed.

    The product is taken over Z and reduced from the top degree down by
    X^n = -(f_0 + ... + f_{n-1} X^{n-1}), each coefficient mod p once, so
    neither a's nor b's coefficients need be reduced mod p.
    """
    n, tail = len(f) - 1, f[:-1]
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d] % p
        if c:
            for t, ft in enumerate(tail, start=d - n):
                prod[t] -= c * ft
    return [v % p for v in prod[:n]]


def _poly_gcd(a, b, p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = linalg.inv_mod(a[-1], p)
        a = [(v * inv) % p for v in a]
    return a


def power_by_squaring(mul, one, a, e: int):
    """a^e in the monoid of mul with identity one, for e >= 0, by the
    right-to-left binary method (Knuth, TAOCP vol. 2, 4.6.3): from one,
    e.bit_length() - 1 squarings and one product per set bit of e."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative (>= 0), got {e}")
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
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


def degree_parts(f, p: int):
    """Yield (d, h) for each degree d of the F_p-irreducible factors of the
    monic f, lowest d first: h is the product of f's distinct monic
    irreducible factors of degree d, as a coefficient tuple.

    Distinct-degree split (Ben-Or; Lidl-Niederreiter, Finite Fields, ch. 4):
    X^(p^d) - X is the product of the monic irreducibles of degree dividing
    d, so h = gcd(X^(p^d) - X, rem) once the factors of lower degree are
    divided out of rem with all their powers.  A remainder of degree below
    2d has no factor of degree below its own, so it is irreducible.
    """
    rem = [v % p for v in f]
    if len(rem) < 2 or rem[-1] != 1:
        raise ValueError(f"polynomial {tuple(f)} is not monic of degree >= 1 over F_{p}")
    d, x_power = 1, [0, 1]
    while len(rem) > 1:
        if len(rem) - 1 < 2 * d:
            yield len(rem) - 1, tuple(rem)
            return
        x_power = power_by_squaring(functools.partial(_poly_mulmod, f=rem, p=p), [1], x_power, p)
        # X^(p^d) - X: x_power, padded to degree 1, less 1 at X
        h = _poly_gcd([(v - (i == 1)) % p for i, v in enumerate(x_power + [0])], rem, p)
        if len(h) > 1:
            # one power of each factor still in rem per pass
            g = h
            while len(g) > 1:
                rem = _poly_divmod(rem, g, p)[0]
                g = _poly_gcd(rem, g, p)
            x_power = _poly_divmod(x_power, rem, p)[1]
            yield d, tuple(h)
        d += 1


def is_irreducible_poly(coeffs, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p: its first degree part
    is the whole polynomial.  One verdict is kept per polynomial, so the
    defining polynomial that find_irreducible returns is not split again
    when ExtFieldCtx checks it."""
    return _irreducible(tuple(coeffs), p)


@functools.cache
def _irreducible(f: tuple, p: int) -> bool:
    return next(degree_parts(f, p))[0] == len(f) - 1


def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lex-smallest monic irreducible of degree m over F_p.

    Candidates X^m + c_{m-1}X^{m-1} + ... + c_0 are scanned in ascending
    lexicographic order of (c_{m-1}, ..., c_0), so the choice is canonical.
    From degree 2 on, a candidate with a root at 0, 1 or -1 has a linear
    factor, so it is passed over before its distinct-degree split.
    Returns coefficients low-to-high, length m+1, leading 1.
    """
    linalg.check_prime(p)
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    _check_fits(p, m)
    # code sum_j c_j p^j ascending is that order, and builds no pool of p values
    for code in range(p**m):
        coeffs = tuple(code // p**j % p for j in range(m)) + (1,)
        if m > 1 and 0 in (
            coeffs[0], sum(coeffs) % p, (sum(coeffs[::2]) - sum(coeffs[1::2])) % p
        ):
            continue
        if is_irreducible_poly(coeffs, p):
            return coeffs
    raise linalg.CheckFailed("unreachable: irreducibles of every degree exist")


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
        _check_fits(self.p, self.m)  # before the irreducibility test, which grows with m
        if not is_irreducible_poly(f, self.p):
            raise ValueError(f"defining polynomial {f} is reducible mod {self.p}")
        object.__setattr__(self, "defining_poly", f)

    @property
    def order(self) -> int:
        return self.p**self.m

    def from_int(self, c: int) -> tuple:
        """The prime-field element c as a coefficient tuple."""
        return (c % self.p,) + (0,) * (self.m - 1)

    def gen(self) -> tuple:
        """The class of X mod f (the power-basis generator w)."""
        if self.m == 1:
            return self.from_int(-self.defining_poly[0])
        return (0, 1) + (0,) * (self.m - 2)

    def iter_elements(self):
        """All p^m elements, lexicographic in the coefficient tuple."""
        yield from itertools.product(range(self.p), repeat=self.m)


def ext_field_ctx(p: int, m: int, defining_poly=None) -> ExtFieldCtx:
    """F_{p^m}; the canonical defining polynomial unless one is given.

    Contexts are memoized on (p, m, poly), a given poly as a tuple, so the
    irreducibility search runs once per field; a refused polynomial is not
    kept.  ExtFieldCtx tests every defining polynomial, a given one or the
    search's, with is_irreducible_poly, which keeps its verdict per
    polynomial: the distinct-degree test of the search's polynomial, too,
    runs once per field.
    """
    return _ext_field_ctx(p, m, None if defining_poly is None else tuple(defining_poly))


@functools.cache
def _ext_field_ctx(p: int, m: int, poly) -> ExtFieldCtx:
    return ExtFieldCtx(p, m, find_irreducible(p, m) if poly is None else poly)


def ext_add(ctx: ExtFieldCtx, a, b) -> tuple:
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def ext_mul(ctx: ExtFieldCtx, a, b) -> tuple:
    """Oracle of mul_kernel: the list product of a and b, reduced by _poly_divmod."""
    prod = _poly_mul(a, b, ctx.p)
    rem = _poly_divmod(prod, ctx.defining_poly, ctx.p)[1]
    return tuple(rem) + (0,) * (ctx.m - len(rem))


def ext_pow(ctx: ExtFieldCtx, a, e: int) -> tuple:
    """Oracle of pow_coeffs: a^e for e >= 0 by squaring with ext_mul."""
    return power_by_squaring(functools.partial(ext_mul, ctx), ctx.from_int(1), a, e)


def frobenius(ctx: ExtFieldCtx, a, i: int) -> tuple:
    """The automorphism x -> x^(p^i); requires 0 <= i < m."""
    if not 0 <= i < ctx.m:
        raise ValueError(f"frobenius power must satisfy 0 <= i < {ctx.m}")
    return ext_pow(ctx, a, ctx.p**i)


def norm(ctx: ExtFieldCtx, a) -> int:
    """Field norm down to F_p, by the context's raw kernel; norm(0) = 0."""
    return norm_kernel(ctx)(a)


def norm_via_conjugates(ctx: ExtFieldCtx, a) -> int:
    """Oracle route: the product of all Frobenius conjugates of a.

    The exponent route ext_pow(ctx, a, (p^m - 1)/(p - 1)) is the other
    oracle; the tests hold both against norm_kernel.  Raises
    linalg.CheckFailed if the product leaves F_p.
    """
    prod = ctx.from_int(1)
    for i in range(ctx.m):
        prod = ext_mul(ctx, prod, frobenius(ctx, a, i))
    if any(prod[1:]):
        raise linalg.CheckFailed(f"product of conjugates {prod} is not in the prime subfield")
    return prod[0]


# ---------------------------------------------------------------------------
# raw-coordinate kernels: functions on coefficient tuples, one per context


def mult_columns(ctx: ExtFieldCtx, a) -> list:
    """The columns a, w a, ..., w^(m-1) a of the matrix of multiplication by a
    on the power basis, w the generator: each is the one before shifted up a
    degree, with X^m = -(f_0 + ... + f_{m-1} X^{m-1}) put back.  Entries are
    not reduced mod p, nor need a's coordinates be."""
    m, tail = ctx.m, ctx.defining_poly
    col = list(a)
    cols = [col]
    for _ in range(m - 1):
        top = col[-1]
        col = [-top * tail[0]] + [col[i - 1] - top * tail[i] for i in range(1, m)]
        cols.append(col)
    return cols


def trace(ctx: ExtFieldCtx, a) -> int:
    """Tr(a) in F_p: the trace of multiplication by a, the sum of the diagonal
    of mult_columns (Lidl-Niederreiter, Finite Fields, ch. 2)."""
    return sum(col[j] for j, col in enumerate(mult_columns(ctx, a))) % ctx.p


@functools.cache
def norm_kernel(ctx: ExtFieldCtx):
    """N(a) in F_p from the coefficient tuple of a, cached per context.

    The norm is the determinant of multiplication by a (Lidl-Niederreiter,
    Finite Fields, ch. 2), in closed forms through degree 3.  Degree 1 is
    the coordinate itself, degree 2 the quadratic a0^2 - f1 a0 a1 + f0 a1^2
    for f = X^2 + f1 X + f0, and degree 3 the cubic form det(mult_columns)
    expanded over Z for f = X^3 + f2 X^2 + f1 X + f0:

      x^3 - f2 x^2 y + (f2^2 - 2 f1) x^2 z + f1 x y^2 + (3 f0 - f1 f2) x y z
      + (f1^2 - 2 f0 f2) x z^2 - f0 y^3 + f0 f2 y^2 z - f0 f1 y z^2 + f0^2 z^3

    at a = x + y w + z w^2, with its 9 constants taken once per context.
    Degree 4 is the determinant of mult_columns by Laplace expansion in
    complementary 2 x 2 minors, and degree m >= 5 linalg.mat_det of it.
    Coordinates need not be reduced mod p.
    """
    p, m = ctx.p, ctx.m
    if m == 1:
        def kernel(a):
            return a[0] % p
    elif m == 2:
        f0, f1 = ctx.defining_poly[0], ctx.defining_poly[1]

        def kernel(a):
            a0, a1 = a
            return (a0 * (a0 - f1 * a1) + f0 * a1 * a1) % p
    elif m == 3:
        f0, f1, f2 = ctx.defining_poly[:3]
        # each constant named by its monomial
        xxy, xxz, xyy, xyz = -f2, f2 * f2 - 2 * f1, f1, 3 * f0 - f1 * f2
        xzz, yyy, yyz, yzz, zzz = f1 * f1 - 2 * f0 * f2, -f0, f0 * f2, -f0 * f1, f0 * f0

        def kernel(a):
            x, y, z = a
            return (x * (x * (x + xxy * y + xxz * z) + y * (xyy * y + xyz * z) + xzz * z * z)
                    + y * y * (yyy * y + yyz * z) + z * z * (yzz * y + zzz * z)) % p
    elif m == 4:
        def kernel(a):
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = (
                mult_columns(ctx, a))
            return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                    - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                    + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                    + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                    - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                    + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)) % p
    else:
        def kernel(a):
            return linalg.mat_det(mult_columns(ctx, a), p)

    return kernel


@functools.cache
def mul_kernel(ctx: ExtFieldCtx):
    """Product of two coefficient tuples as a reduced tuple, cached per context.

    Closed forms through degree 3.  At degree 3 the product's coefficients
    of X^3 and X^4, d3 = a1 b2 + a2 b1 and d4 = a2 b2, are put back through
    the reduction rows X^3 and X^4 mod f, read from mult_columns once per
    context.  Degree m >= 4 multiplies the polynomials and reduces by the
    monic defining polynomial with _poly_mulmod, so no field element is
    built per product.  Coordinates need not be reduced mod p.
    """
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
    elif m == 3:
        # X^3 and X^4 mod f: the columns w^3 and w^4 of multiplication by w^2
        rows = mult_columns(ctx, (0, 0, 1))[1:]
        (r0, r1, r2), (s0, s1, s2) = ([v % p for v in col] for col in rows)

        def kernel(a, b):
            a0, a1, a2 = a
            b0, b1, b2 = b
            d3, d4 = a1 * b2 + a2 * b1, a2 * b2
            return (
                (a0 * b0 + d3 * r0 + d4 * s0) % p,
                (a0 * b1 + a1 * b0 + d3 * r1 + d4 * s1) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 + d3 * r2 + d4 * s2) % p,
            )
    else:
        def kernel(a, b):
            return tuple(_poly_mulmod(a, b, f, p))

    return kernel


def pow_coeffs(ctx: ExtFieldCtx, a, e: int) -> tuple:
    """a^e for a coefficient tuple a and e >= 0, by squaring with mul_kernel."""
    return power_by_squaring(mul_kernel(ctx), ctx.from_int(1), a, e)


# a field's log table, fold and norm table hold about 6q references (some
# 120 MB at q = 10^6), and a scan over a prime range builds them for new
# fields at every prime, so only the most recent fields are kept, up to this
# many elements: room for F_p, F_{p^2}, ... of one prime up to the field cap
LOG_CACHE_ELEMENTS = FIELD_SIZE_CAP
# the fastest measured time of one log_table entry of F_p, in ns (130 to 520
# on a 2-vCPU virtual machine, slowest from p = 10^5 up): the weight of the
# p entries of the table that a character mod p reads, in a command's cost
LOG_ENTRY_NS = 130
# one record per cached field, oldest first, charged its q elements whichever
# of its tables are built: its log_table, fold, norm_table and, at degree 2,
# the classes of linear_logs
_tables: dict = {}


def _kept(name: str):
    """Decorator of a function that builds one of a field's tables, which is
    kept in the field's record under name and built on first use.

    A field with no record has the oldest records evicted until its q
    elements fit, before the build, so an evicted field is freed before the
    new one grows, and again after it, past the records the build made.  The
    record is made when the build returns, so a build that raises keeps
    nothing.
    """
    def fit(ctx: ExtFieldCtx):
        while ctx not in _tables and _tables and sum(
                map(operator.attrgetter("order"), _tables)) + ctx.order > LOG_CACHE_ELEMENTS:
            del _tables[next(iter(_tables))]

    def memo(build):
        @functools.wraps(build)
        def table(ctx: ExtFieldCtx):
            record = _tables.get(ctx)
            if record is None or getattr(record, name) is None:
                fit(ctx)
                built = build(ctx)
                fit(ctx)
                record = _tables.setdefault(ctx, types.SimpleNamespace(
                    log_table=None, fold=None, norm_table=None, classes=None))
                setattr(record, name, built)
            return getattr(record, name)
        return table
    return memo


@_kept("log_table")
def log_table(ctx: ExtFieldCtx) -> list:
    """Discrete logs in F_q^*, indexed by element code.

    The code of a = (a_0, ..., a_{m-1}) is sum_j a_j p^j.  For a != 0 the
    entry is the j in [0, q - 2] with g^j = a, where g is the primitive
    element of smallest code (g^((q-1)/r) != 1 for every prime r | q - 1).
    The entry for 0 is the sentinel 2(q - 1) - 1, above every sum of two
    logs, so the sum of two entries shows whether either factor is zero.
    The table is _power_walk's over range(q - 1), so it fails closed: a
    repeated code raises linalg.CheckFailed rather than store a table that
    is not a bijection.  F_p's table is also the one that characters mod p
    read.
    """
    return _power_walk(ctx, range(ctx.order - 1), 2 * ctx.order - 3)


def norm_table(ctx: ExtFieldCtx):
    """N(a) for every element a of F_q, indexed by element code as log_table.

    N(g^j) = N(g)^j mod p (Lidl-Niederreiter, Finite Fields, Thm 2.28), so
    the table is _power_walk's over the p - 1 powers of N(g) repeated: it
    builds and reads no log table.  Degree 1 is range(p), kept in no record.
    Built on first use, it raises linalg.CheckFailed unless N(g) =
    norm_kernel(g) is of order p - 1 and the walk's first step from code 1
    writes it at g.
    """
    return range(ctx.p) if ctx.m == 1 else _norm_table(ctx)


@_kept("norm_table")
def _norm_table(ctx: ExtFieldCtx) -> list:
    p, g = ctx.p, primitive_element(ctx)
    norm_g = norm_kernel(ctx)(g)
    powers = [pow(norm_g, j, p) for j in range(p - 1)]
    table = _power_walk(ctx, itertools.islice(itertools.cycle(powers), ctx.order - 1), 0)
    if len(set(powers)) != p - 1 or table[sum(c * p**j for j, c in enumerate(g))] != norm_g:
        raise linalg.CheckFailed(f"norm table of F_{p}^{ctx.m}: bad N(g) = {norm_g}")
    return table


def shifted_norms(ctx: ExtFieldCtx, s: int) -> list:
    """N(a + s) for every element a of F_q, indexed by element code as
    norm_table.  Adding s in F_p moves only coordinate 0, the lowest base-p
    digit of the code: the code moves by s, or by s - p where that digit
    wraps past p - 1.  So the table is norm_table rotated by s, with the
    codes whose digit wraps read again by one strided slice per digit."""
    p, norms, s = ctx.p, norm_table(ctx), s % ctx.p
    out = list(norms[s:]) + list(norms[:s])
    for digit in range(p - s, p):
        out[digit::p] = norms[digit + s - p :: p]
    return out


def linear_logs(ctx: ExtFieldCtx, U, axes) -> list:
    """The log_table entry of U x for each x in itertools.product(*axes), in
    that order, for an m x n matrix U over F_p.  Each row's residues u.x mod p
    are built over the whole product, an axis at a time, from its steps u_j t
    along each axis (_box_residues).  At degree m != 2 the base-p code and the
    lookup are taken list-wide.  At degree 2 no table of F_{p^2} is read:
    each point's log comes from F_p's log table and the field's class
    tables, list-wide (_projective_logs)."""
    p = ctx.p
    rows = (_box_residues(p, row, axes) for row in U)
    if ctx.m == 2:
        a0, a1 = rows
        return _projective_logs(_class_tables(ctx), a0, a1)
    idx = next(rows)
    for j, residues in enumerate(rows, start=1):
        idx = map(operator.add, idx, map(operator.mul, residues, itertools.repeat(p**j)))
    return list(map(log_table(ctx).__getitem__, idx))


def _box_residues(p: int, row, axes) -> list:
    """u.x mod p for each x in itertools.product(*axes), in that order: the
    sums over the axes so far, each with every step u_j t of the next axis."""
    sums = [0]
    for u, axis in zip(row, axes):
        steps = [u * t for t in axis]
        sums = [s + t for s in sums for t in steps]
    return list(map(operator.mod, sums, itertools.repeat(p)))


@_kept("fold")
def log_fold(ctx: ExtFieldCtx) -> list:
    """The log of a product from the sum of its factors' log_table entries.

    For a sum s = log[a] + log[b] of two entries (0 <= s <= 4(q - 1) - 2),
    fold[s] is log[ab] = s mod (q - 1) when a and b are nonzero, and the
    marker q - 1, which is no log, when either is zero.  It is built on first
    use from q alone, so it walks no field.
    """
    order = ctx.order - 1
    # logs, then logs again up to 2(q - 1) - 2, then the marker
    fold = list(range(order)) * 2
    fold.pop()
    fold += itertools.repeat(order, 2 * order)
    return fold


@_kept("classes")
def _class_tables(ctx: ExtFieldCtx) -> tuple:
    """(A, B, W, P, M), the tables of _projective_logs for F_{p^2}, built
    once per field into its record.

    F_{p^2}^* / F_p^* is cyclic of order p + 1, its classes the points of
    the projective line: a = a0 (1 + t w) with t = a1 / a0, or a = a1 w
    (t = oo).  g^(p+1) = N(g) generates F_p^*, so log_g c = (p + 1)
    log_{N(g)} c for c in F_p^*, and log a = T[class(a)] + (p + 1)
    log_{N(g)} c, c the first nonzero coordinate of a and T[class] the log
    of 1 + t w, or of w (Lidl-Niederreiter, Finite Fields, ch. 2).

    A is F_p's log table (A[0] = 2p - 3), B the same with B[0] = 3p - 4, so
    that e = B[a1] - A[a0] falls in one of four disjoint ranges:
    [-(p - 2), p - 2] when both coordinates are nonzero (t = r^e, r the root
    of F_p's table), [2p - 2, 3p - 4] when a1 = 0 (t = 0), [-(2p - 3),
    -(p - 1)] when a0 = 0 (t = oo), and p - 1 for a = 0.  W, indexed by e
    (the negative ranges from its end), holds T[class], the whole log of a1 w
    at t = oo, and the zero sentinel 2(q - 1) - 1; P[a0] = log_g a0, 0 at
    a0 = 0; M[a0] the modulus, q - 1, or 2(q - 1) at a0 = 0, where W's entry
    is already the answer.

    T is _class_walk's.  The tables are checked before they are kept: the
    log they give to g times each class's representative must be T's at
    that class plus one, else linalg.CheckFailed is raised.  With
    T[class(1)] = 0 that makes them the logs, so two entries of T swapped
    are caught here, and a g that is not primitive here or by the walk.
    """
    p, q = ctx.p, ctx.order
    A = log_table(ext_field_ctx(p, 1))
    g = primitive_element(ctx)
    try:
        k = pow(A[norm_kernel(ctx)(g)], -1, p - 1)
    except ValueError:
        raise linalg.CheckFailed(f"class table of F_{p}^2: N(g) is not of order p - 1") from None
    # log_g c = (p + 1) k log_r c for c in F_p^*, from the log L = log_r c
    scaled = [(p + 1) * (k * L % (p - 1)) for L in range(p - 1)]
    P = [0, *map(scaled.__getitem__, A[1:])]
    T = _class_walk(ctx, g, A, P)
    B = [3 * p - 4, *A[1:]]
    # W by e: both coordinates nonzero (slot e mod (p - 1)), a = 0, a1 = 0, and
    # a0 = 0, where e = log a1 - (2p - 3) is read from the end
    W = [None] * (5 * p - 6)
    W[: p - 1], W[4 * p - 4:] = T[: p - 1], T[1: p - 1]
    W[p - 1] = 2 * q - 3
    W[2 * p - 2: 3 * p - 3] = [T[p - 1]] * (p - 1)
    W[3 * p - 3: 4 * p - 4] = [(T[p] + s) % (q - 1) for s in scaled]
    tables = A, B, W, P, [2 * q - 2] + [q - 1] * (p - 1)
    # g (1 + t w) = g + t (w g) for each t of F_p, and g w
    (g0, g1), (h0, h1) = mult_columns(ctx, g)
    images = _projective_logs(tables, [(g0 + t * h0) % p for t in range(p)] + [h0 % p],
                              [(g1 + t * h1) % p for t in range(p)] + [h1 % p])
    slots = [p - 1, *A[1:], p]
    if images != [(T[s] + 1) % (q - 1) for s in slots]:
        raise linalg.CheckFailed(f"class table of F_{p}^2: g times a class representative "
                                 "is not one log further")
    return tables


def _class_walk(ctx: ExtFieldCtx, g, A: list, P: list) -> list:
    """T, the log of each class's representative 1 + t w, or w, by slot: the
    slot of t = r^e is e, of t = 0 it is p - 1, and of oo it is p.

    The walk takes g^j for j = 0, ..., p with mul_kernel: g^j = c u for the
    representative u of its class and c in F_p^*, so log u = j - log_g c, with
    log_g c = P[c].  It fails closed as the log walk does: a class met twice
    raises linalg.CheckFailed, so g's class generates the p + 1 classes.
    """
    p, q = ctx.p, ctx.order
    mul, a, T = mul_kernel(ctx), ctx.from_int(1), [None] * (p + 1)
    for j in range(p + 1):
        a0, a1 = a
        slot, c = (p, a1) if not a0 else (p - 1, a0) if not a1 else (
            (A[a1] - A[a0]) % (p - 1), a0)
        if T[slot] is not None:
            raise linalg.CheckFailed(f"class table of F_{p}^2: step {j} revisits class {slot}")
        T[slot] = (j - P[c]) % (q - 1)
        a = mul(a, g)
    return T


def _projective_logs(tables: tuple, a0: list, a1) -> list:
    """The logs of the elements a0 + a1 w of F_{p^2}, from _class_tables:
    (W[B[a1] - A[a0]] + P[a0]) mod M[a0], by C-level maps over the lists."""
    A, B, W, P, M = tables
    e = map(operator.sub, map(B.__getitem__, a1), map(A.__getitem__, a0))
    return list(map(operator.mod, map(operator.add, map(W.__getitem__, e), map(P.__getitem__, a0)),
                    map(M.__getitem__, a0)))


def _power_walk(ctx: ExtFieldCtx, values, zero) -> list:
    """A table indexed by element code: zero at code 0, and the j-th of the
    q - 1 values at the code of g^j, g the primitive element.

    The walk goes from code to code, multiplying by g: at degree 1 with int
    products mod p, at degree m >= 2 through _times_code_table.  It fails
    closed: a code met twice, 0 included, raises linalg.CheckFailed.
    """
    p, table = ctx.p, [None] * ctx.order
    table[0] = zero  # set first, so a step onto code 0 is a revisit
    code, g = 1, primitive_element(ctx)
    if ctx.m == 1:
        # a residue is its own code, so the walk is int products mod p
        step = g[0]
        for value in values:
            if table[code] is not None:
                _revisit(ctx, table, code)
            table[code] = value
            code = code * step % p
    else:
        step = _times_code_table(ctx, g)
        for value in values:
            if table[code] is not None:
                _revisit(ctx, table, code)
            table[code] = value
            code = step[code]
    return table


def _times_code_table(ctx: ExtFieldCtx, g) -> array.array:
    """step[c], the code of g times the element of code c, for every code c.

    Multiplication by g is F_p-linear, with columns w^k g from mult_columns.
    The codes come in rows of p^L over their lowest L = max(1, m // 2)
    digits, so there are about as many rows as a row is long.  Coordinate j
    of g times a row is (r_j + s_j) mod p, where r_j runs over the row's
    digits and s_j is fixed along it, built from the steps c_k (w^k g)_j
    along the higher digits with itertools.product.  With k the highest row
    digit whose column moves coordinate j, r_j has period p^(k+1) along the
    row, and adding s_j adds t = s_j / (w^k g)_j to digit k mod p, which
    rotates each period by t p^k: the row's share is one slice, at t p^k, of
    the share at s_j = 0 repeated one period past the row (at L = 1, the
    share along the lowest digit rotated).  The coordinates that no row
    digit moves are constant along a row, and are added to it as one sum.
    """
    p, m = ctx.p, ctx.m
    cols = [[v % p for v in col] for col in mult_columns(ctx, g)]
    L = max(1, m // 2)
    width, shares, fixed = p**L, [], []
    for j in range(m):
        w, k = p**j, max((i for i in range(L) if cols[i][j]), default=-1)
        # s_j / (w^k g)_j mod p, times p^k; or s_j mod p times p^j, if fixed
        scale, inv = (p**k, pow(cols[k][j], -1, p)) if k >= 0 else (w, 1)
        digits = ([c * col[j] * inv * scale for c in range(p)] for col in reversed(cols[L:]))
        ts = list(map(operator.mod, map(sum, itertools.product(*digits)),
                      itertools.repeat(p * scale)))
        if k < 0:
            fixed.append(ts)
            continue
        ring = [0]
        for col in cols[: k + 1]:
            ring = [r + c * col[j] for c in range(p) for r in ring]
        ring = [r % p * w for r in ring] * (width // len(ring) + 1)
        shares.append(map(ring.__getitem__, map(slice, ts, [t + width for t in ts])))
    if fixed:
        shares.append(map(itertools.repeat, map(sum, zip(*fixed)), itertools.repeat(width)))
    # each coordinate's shares row after row, added across the coordinates
    coordinates = map(itertools.chain.from_iterable, shares)
    return array.array("l", functools.reduce(functools.partial(map, operator.add), coordinates))


def _revisit(ctx: ExtFieldCtx, table: list, code: int):
    # the steps so far each filled one entry, past the one at code 0
    step = len(table) - table.count(None) - 1
    raise linalg.CheckFailed(f"walk of F_{ctx.p}^{ctx.m}: step {step} revisits code {code}")


@functools.cache
def primitive_element(ctx: ExtFieldCtx) -> tuple:
    """The generator of F_q^* of smallest code: g^((q-1)/r) != 1 for r | q - 1
    (for m > 1 the codes below p, the prime field, are passed over).

    g^((q-1)/(p-1)) is N(g) (Lidl-Niederreiter, Finite Fields, ch. 2), so
    for a prime r | p - 1 the power g^((q-1)/r) is N(g)^((p-1)/r), an int
    power mod p; those tests come first.  The other primes r | q - 1 divide
    (q - 1)/(p - 1), and only they take pow_coeffs; at m = 1 there are none.
    """
    p, m, q = ctx.p, ctx.m, ctx.order
    norm_exponents = [(p - 1) // r for r in prime_divisors(p - 1)]
    exponents = [(q - 1) // r for r in prime_divisors((q - 1) // (p - 1)) if (p - 1) % r]
    one, norm_of = ctx.from_int(1), norm_kernel(ctx)
    for code in range(p if m > 1 else 1, q):
        g = tuple(code // p**j % p for j in range(m))
        n = norm_of(g)
        if all(pow(n, e, p) != 1 for e in norm_exponents) and all(
            pow_coeffs(ctx, g, e) != one for e in exponents
        ):
            return g
    raise linalg.CheckFailed(f"unreachable: F_{p}^{m} has a primitive element")
