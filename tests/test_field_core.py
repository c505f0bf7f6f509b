"""Extension field arithmetic against hand-checked values and field axioms."""

import array
import contextlib
import functools
import io
import itertools
import random

import pytest

from normsum import char_core as cc
from normsum import charsum as cs
from normsum import cli
from normsum import field_core as fc
from normsum import linalg as la


def F9():
    return fc.ext_field_ctx(3, 2)


def is_normal_element(ctx, a):
    """True iff the conjugates of a form an F_p-basis of F_{p^m}."""
    rows = [list(fc.frobenius(ctx, a, i)) for i in range(ctx.m)]
    return la.mat_rank(rows, ctx.p) == ctx.m


def test_find_irreducible_canonical_choices():
    assert fc.find_irreducible(3, 1) == (0, 1)
    assert fc.find_irreducible(3, 2) == (1, 0, 1)
    assert fc.find_irreducible(5, 2) == (2, 0, 1)


def test_find_irreducible_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fc.find_irreducible(4, 2)
    with pytest.raises(ValueError):
        fc.find_irreducible(3, 0)


def test_ctx_rejects_reducible_poly():
    with pytest.raises(ValueError):
        fc.ext_field_ctx(5, 2, (1, 0, 1))  # X^2+1 = (X+2)(X+3) mod 5


SCANNED_FIELDS = [(p, m) for p in range(2, 10**4) if la.is_prime(p)
                  for m in range(1, 14) if p**m <= 10**4]


def test_find_irreducible_is_the_first_irreducible_of_a_plain_scan():
    # the root filter at 0, 1 and -1 passes over reducible candidates only:
    # every field with p^m <= 10^4 gets the first candidate a scan of every
    # monic polynomial finds
    assert len(SCANNED_FIELDS) == 1280
    for p, m in SCANNED_FIELDS:
        scan = next(tail[::-1] + (1,) for tail in itertools.product(range(p), repeat=m)
                    if fc.is_irreducible_poly(tail[::-1] + (1,), p))
        assert fc.find_irreducible(p, m) == scan, (p, m)
    assert fc.find_irreducible(2, 1) == fc.find_irreducible(9973, 1) == (0, 1)


def test_a_field_reads_the_verdict_of_the_search(monkeypatch):
    # ExtFieldCtx tests its defining polynomial, but the search has already
    # split it: one distinct-degree split per candidate, none twice
    fc._irreducible.cache_clear()
    monkeypatch.setattr(fc, "_ext_field_ctx", functools.cache(fc._ext_field_ctx.__wrapped__))
    degree_parts, splits = fc.degree_parts, []

    def counted(f, p):
        splits.append(tuple(f))
        return degree_parts(f, p)

    monkeypatch.setattr(fc, "degree_parts", counted)
    ctx = fc.ext_field_ctx(3, 6)
    assert splits.count(ctx.defining_poly) == 1 and len(splits) == len(set(splits))
    # X^2 + 1 = (X + 2)(X + 3) mod 5 passes the root filter, so the search
    # for F_25 keeps its verdict, and a field given it still refuses it
    fc.find_irreducible(5, 2)
    assert (1, 0, 1) in splits
    monkeypatch.setattr(fc, "degree_parts", None)
    with pytest.raises(ValueError, match="reducible mod 5"):
        fc.ext_field_ctx(5, 2, (1, 0, 1))


def test_a_list_and_a_tuple_defining_polynomial_give_one_context():
    ctx = fc.ext_field_ctx(5, 2, [1, 1, 1])
    assert fc.ext_field_ctx(5, 2, (1, 1, 1)) is ctx
    assert fc.ext_field_ctx(5, 2) is fc.ext_field_ctx(5, 2, None)


def test_a_refused_polynomial_leaves_no_context(monkeypatch):
    # the memo keeps only contexts that were built, so the refusal repeats
    monkeypatch.setattr(fc, "_ext_field_ctx", functools.cache(fc._ext_field_ctx.__wrapped__))
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible mod 5"):
            fc.ext_field_ctx(5, 2, [1, 0, 1])
        assert fc._ext_field_ctx.cache_info().currsize == 0


def monic_polys(p, degree):
    """Every monic polynomial of the degree over F_p, low to high."""
    for tail in itertools.product(range(p), repeat=degree):
        yield tail + (1,)


def divide_exactly(f, g, p):
    """f / g over F_p for a monic g, or None when g does not divide f."""
    f, q = list(f), [0] * (len(f) - len(g) + 1)
    for shift in range(len(q) - 1, -1, -1):
        q[shift] = c = f[shift + len(g) - 1]
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gi) % p
    return q if q and not any(f) else None


def parts_by_trial_division(f, p):
    """(d, product of the distinct degree-d irreducible factors), ascending d:
    every monic candidate of degree 1, 2, ... is divided out with all its
    powers, so the candidates that divide are the irreducible factors."""
    parts, rem, d = {}, list(f), 1
    while len(rem) > 1:
        for g in monic_polys(p, d):
            if (q := divide_exactly(rem, g, p)) is not None:
                while q is not None:
                    rem, q = q, divide_exactly(q, g, p)
                h = parts.get(d, [1])
                parts[d] = [sum(h[i] * g[t - i] for i in range(len(h)) if 0 <= t - i < len(g)) % p
                            for t in range(len(h) + len(g) - 1)]
        d += 1
    return [(d, tuple(h)) for d, h in sorted(parts.items())]


def test_degree_parts_match_trial_division_on_every_small_polynomial():
    # every monic polynomial of small degree, the factor X and repeated
    # factors included: 1,796 of them
    checked = 0
    for p, top in ((2, 7), (3, 5), (5, 4), (7, 3)):
        for degree in range(1, top + 1):
            for f in monic_polys(p, degree):
                assert list(fc.degree_parts(f, p)) == parts_by_trial_division(f, p), (p, f)
                checked += 1
    assert checked == 1796
    assert list(fc.degree_parts((0, 0, 0, 1), 5)) == [(1, (0, 1))]  # X^3
    with pytest.raises(ValueError, match="not monic"):
        next(fc.degree_parts((1, 2), 3))
    with pytest.raises(ValueError, match="not monic"):
        next(fc.degree_parts((1,), 3))


def mobius(n):
    return 0 if any(n % (r * r) == 0 for r in fc.prime_divisors(n)) else (
        (-1) ** len(fc.prime_divisors(n)))


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_irreducible_count_is_the_necklace_count(p, top):
    # (1/m) sum_{d | m} mu(d) p^(m/d) monic irreducibles of degree m
    for m in range(1, top + 1):
        necklaces = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        assert sum(fc.is_irreducible_poly(f, p) for f in monic_polys(p, m)) == necklaces, m


def test_elements_are_coefficient_tuples():
    ctx = F9()
    assert ctx.gen() == (0, 1)
    assert ctx.from_int(1) == (1, 0) and ctx.from_int(-1) == (2, 0)
    assert fc.ext_field_ctx(7, 1).gen() == (0,)  # the root of X
    assert fc.primitive_element(ctx) == (1, 1)
    assert list(ctx.iter_elements())[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len(list(ctx.iter_elements())) == 9
    assert fc.ext_add(ctx, (1, 2), (2, 2)) == (0, 1)


def test_ext_mul_F9():
    ctx = F9()
    w = ctx.gen()
    assert fc.ext_mul(ctx, w, w) == (2, 0)
    assert fc.ext_mul(ctx, (1, 1), (1, 2)) == (2, 0)


def test_inverse_by_power_F9():
    ctx = F9()
    w = ctx.gen()
    assert fc.pow_coeffs(ctx, w, ctx.order - 2) == (0, 2)
    assert fc.ext_pow(ctx, w, ctx.order - 2) == (0, 2)


def _fields_up_to(q_max):
    for p in range(2, q_max + 1):
        if la.is_prime(p):
            m = 1
            while p**m <= q_max:
                yield fc.ext_field_ctx(p, m)
                m += 1


def test_inverse_by_power_every_field():
    """a a^(q-2) = 1 for every nonzero a of every field with q <= 625: the
    inverse that decomposition_in_class takes, checked by the oracle multiply."""
    fields = 0
    for ctx in _fields_up_to(625):
        one, e = ctx.from_int(1), ctx.order - 2
        for a in itertools.islice(ctx.iter_elements(), 1, None):
            assert fc.ext_mul(ctx, a, fc.pow_coeffs(ctx, a, e)) == one, (ctx, a)
        fields += 1
    assert fields == 136


def test_ext_pow_refuses_negative_exponents():
    ctx = F9()
    assert fc.ext_pow(ctx, ctx.gen(), 0) == (1, 0)
    with pytest.raises(ValueError, match=">= 0"):
        fc.ext_pow(ctx, ctx.gen(), -1)


def test_frobenius_F9():
    ctx = F9()
    w = ctx.gen()
    assert fc.frobenius(ctx, w, 1) == (0, 2)
    assert fc.frobenius(ctx, w, 0) == w
    with pytest.raises(ValueError):
        fc.frobenius(ctx, w, 2)


def test_norm_F9_values():
    ctx = F9()
    w = ctx.gen()
    assert fc.norm(ctx, w) == 1
    assert fc.norm(ctx, (1, 1)) == 2
    assert fc.norm(ctx, ctx.from_int(0)) == 0


def test_norm_via_conjugates_fails_closed(monkeypatch):
    # a Frobenius that returns its argument makes the product (1 + w)^2 = 2w
    # at F_9 = F_3[w]/(w^2 + 1), which is not in F_3
    ctx = F9()
    monkeypatch.setattr(fc, "frobenius", lambda ctx, a, i: a)
    with pytest.raises(la.CheckFailed, match="not in the prime subfield"):
        fc.norm_via_conjugates(ctx, (1, 1))


def test_normal_elements_F9():
    ctx = F9()
    assert not is_normal_element(ctx, ctx.from_int(0))
    assert not is_normal_element(ctx, ctx.from_int(1))
    assert is_normal_element(ctx, (1, 1))


def test_prime_subfield_behavior_m1():
    ctx = fc.ext_field_ctx(7, 1)
    a = ctx.from_int(3)
    assert fc.norm(ctx, a) == 3
    assert is_normal_element(ctx, a)
    assert not is_normal_element(ctx, ctx.from_int(0))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 4), (5, 2), (7, 2)])
def test_field_axioms_sampled(p, m):
    """Associativity, distributivity, commutativity, inverses on sampled triples."""
    ctx = fc.ext_field_ctx(p, m)
    rng = random.Random(20260822)
    elems = list(ctx.iter_elements())
    for _ in range(80):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert fc.ext_add(ctx, a, b) == fc.ext_add(ctx, b, a)
        assert fc.ext_mul(ctx, a, b) == fc.ext_mul(ctx, b, a)
        assert fc.ext_mul(ctx, a, fc.ext_mul(ctx, b, c)) == fc.ext_mul(
            ctx, fc.ext_mul(ctx, a, b), c
        )
        assert fc.ext_mul(ctx, a, fc.ext_add(ctx, b, c)) == fc.ext_add(
            ctx, fc.ext_mul(ctx, a, b), fc.ext_mul(ctx, a, c)
        )
        if any(a):
            inv = fc.ext_pow(ctx, a, ctx.order - 2)
            assert fc.ext_mul(ctx, a, inv) == ctx.from_int(1)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (3, 4), (5, 4)])
def test_norm_multiplicative_exhaustive(p, m):
    ctx = fc.ext_field_ctx(p, m)
    elems = list(ctx.iter_elements())
    norms = {a: fc.norm(ctx, a) for a in elems}
    for a in elems:
        for b in elems:
            assert norms[fc.ext_mul(ctx, a, b)] == (norms[a] * norms[b]) % p


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (3, 4), (5, 4)])
def test_norm_routes_agree_exhaustive(p, m):
    ctx = fc.ext_field_ctx(p, m)
    for a in ctx.iter_elements():
        assert fc.norm(ctx, a) == fc.norm_via_conjugates(ctx, a)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (2, 4)])
def test_frobenius_is_field_automorphism_exhaustive(p, m):
    """x -> x^p respects + and * and fixes exactly the prime subfield."""
    ctx = fc.ext_field_ctx(p, m)
    elems = list(ctx.iter_elements())
    frob = {a: fc.frobenius(ctx, a, 1) for a in elems}
    for a in elems:
        for b in elems:
            assert frob[fc.ext_add(ctx, a, b)] == fc.ext_add(ctx, frob[a], frob[b])
            assert frob[fc.ext_mul(ctx, a, b)] == fc.ext_mul(ctx, frob[a], frob[b])
    fixed = [a for a in elems if frob[a] == a]
    assert sorted(fixed) == sorted(ctx.from_int(c) for c in range(p))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_normal_element_exists(p, m):
    ctx = fc.ext_field_ctx(p, m)
    assert any(is_normal_element(ctx, a) for a in ctx.iter_elements())


def test_frobenius_composes_to_identity():
    ctx = fc.ext_field_ctx(3, 4)
    rng = random.Random(7)
    elems = list(ctx.iter_elements())
    for _ in range(30):
        a = rng.choice(elems)
        b = a
        for _ in range(ctx.m):
            b = fc.frobenius(ctx, b, 1)
        assert b == a


def test_ext_pow_matches_repeated_mul():
    ctx = fc.ext_field_ctx(5, 2)
    a = (2, 3)
    acc = ctx.from_int(1)
    for e in range(12):
        assert fc.ext_pow(ctx, a, e) == acc
        acc = fc.ext_mul(ctx, acc, a)


@pytest.mark.parametrize("p,m,poly", [(2, 5, None), (3, 4, None), (5, 2, None),
                                      (7, 3, None), (3, 3, (2, 1, 1, 1))])
def test_pow_coeffs_matches_ext_pow(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    rng = random.Random(p * 100 + m)
    for _ in range(40):
        a = tuple(rng.randrange(p) for _ in range(m))
        e = rng.choice([0, 1, 2, p, ctx.order - 1, rng.randrange(3 * ctx.order)])
        assert fc.pow_coeffs(ctx, a, e) == fc.ext_pow(ctx, a, e)
    with pytest.raises(ValueError, match=">= 0"):
        fc.pow_coeffs(ctx, a, -1)


def chain_power(mul, one, a, e):
    """a^e by e-fold repeated multiplication, one, one a, one a a, ...: the
    walk stops at its first repeated value, from which the sequence of
    powers is periodic, so a huge e costs no more than the cycle."""
    chain, seen = [one], {one: 0}
    while len(chain) <= e:
        nxt = mul(chain[-1], a)
        if nxt in seen:
            start = seen[nxt]
            return chain[start + (e - start) % (len(chain) - start)]
        seen[nxt] = len(chain)
        chain.append(nxt)
    return chain[e]


def _power_monoids():
    """pytest.param(mul, one, elements, exponents) for ints mod a prime, F_{p^m}
    tuples through mul_kernel for m = 1..5, and weight vectors through
    cc.convolve; the exponents are 0..64, p, q - 1, 3q + 1 and 10^6 + 3."""
    def exponents(p, q):
        return list(range(65)) + [p, q - 1, 3 * q + 1, 10**6 + 3]

    p = 1009
    yield pytest.param(lambda a, b: a * b % p, 1, [0, 1, 2, 11, p - 1], exponents(p, p),
                       id="ints mod 1009")
    for m in range(1, 6):
        ctx = fc.ext_field_ctx(3, m)
        rng = random.Random(m)
        elements = [ctx.from_int(0), ctx.from_int(1), ctx.from_int(2), ctx.gen()]
        elements += [tuple(rng.randrange(3) for _ in range(m)) for _ in range(4)]
        yield pytest.param(fc.mul_kernel(ctx), ctx.from_int(1), elements,
                           exponents(3, ctx.order), id=f"F_3^{m}")
    # the powers of a signed unit vector cycle; the others' weights grow, so
    # they take the exponents the repeated products reach
    one = (1, 0, 0, 0)
    yield pytest.param(cc.convolve, one, [(0, 0, 0, 0), one, (0, 1, 0, 0), (0, 0, -1, 0)],
                       exponents(5, 5), id="cycling weights")
    yield pytest.param(cc.convolve, one, [(1, 1, 0, 0), (2, 0, -1, 1), (0, 3, 1, 1)],
                       [e for e in exponents(5, 5) if e <= 64], id="growing weights")


@pytest.mark.parametrize("mul,one,elements,exponents", _power_monoids())
def test_power_by_squaring_matches_repeated_multiplication(mul, one, elements, exponents):
    for a in elements:
        for e in exponents:
            assert fc.power_by_squaring(mul, one, a, e) == chain_power(mul, one, a, e), (a, e)


def test_power_by_squaring_takes_one_squaring_per_bit_and_one_product_per_set_bit(monkeypatch):
    """For e >= 1, e.bit_length() - 1 + e.bit_count() products: the per-power
    part of charsum.moment_work's r.bit_length() + bin(r).count("1"), which
    adds cc.modulus's one product.  e = 0 returns one without a product."""
    calls = []

    def counting(a, b):
        calls.append(None)
        return a * b % 1009

    def refuse(a, b):
        raise AssertionError("e = 0 took a product")

    one = object()
    assert fc.power_by_squaring(refuse, one, 5, 0) is one
    for e in list(range(1, 300)) + [1009, 10**6 + 3, 2**40 - 1, 2**40]:
        calls.clear()
        fc.power_by_squaring(counting, 1, 5, e)
        assert len(calls) == e.bit_length() - 1 + e.bit_count(), e
    convolve = cc.convolve

    def counted_convolve(a, b):
        calls.append(None)
        return convolve(a, b)

    monkeypatch.setattr(cc, "convolve", counted_convolve)
    for r in range(1, 65):
        calls.clear()
        cc.power(cc.modulus((1, 2, 0, 1)), r)
        assert len(calls) == r.bit_length() + bin(r).count("1"), r


def test_power_by_squaring_refuses_a_negative_exponent_before_any_product():
    def refuse(a, b):
        raise AssertionError("a negative exponent took a product")

    for e in (-1, -2, -(10**6)):
        with pytest.raises(ValueError) as info:
            fc.power_by_squaring(refuse, 1, 2, e)
        assert str(info.value) == f"exponent must be nonnegative (>= 0), got {e}"


def test_ext_field_ctx_memoized():
    assert fc.ext_field_ctx(3, 2) is fc.ext_field_ctx(3, 2)
    assert fc.ext_field_ctx(3, 2, [1, 0, 1]) is fc.ext_field_ctx(3, 2, (1, 0, 1))
    assert fc.ext_field_ctx(3, 2, (2, 2, 1)).defining_poly == (2, 2, 1)
    assert fc.ext_field_ctx(3, 2, (2, 2, 1)) != fc.ext_field_ctx(3, 2)


# every field with m = 1..6 and q <= 729 at p = 2, 3, 5, plus larger p, in
# the canonical presentation (odd p gives X^2 + c at m = 2)
KERNEL_FIELDS = [(2, m, None) for m in range(1, 7)] + [(3, m, None) for m in range(1, 7)] + [
    (5, 1, None), (5, 2, None), (5, 3, None), (5, 4, None), (7, 1, None),
    (7, 2, None), (7, 3, None), (11, 2, None), (13, 2, None), (23, 2, None),
]
# presentations with every coefficient nonzero, so each f_i enters the kernel
NONCANONICAL_FIELDS = [
    (3, 2, (2, 1, 1)), (5, 2, (1, 1, 1)), (7, 2, (3, 1, 1)), (3, 3, (2, 1, 1, 1)),
    (5, 3, (3, 1, 1, 1)), (2, 4, (1, 1, 1, 1, 1)), (3, 4, (1, 1, 1, 1, 1)),
]
# every monic irreducible cubic over F_2, F_3 and F_5: each presentation of
# F_8, F_27 and F_125 (F_{7^3} is in KERNEL_FIELDS)
CUBIC_FIELDS = [
    (p, 3, f + (1,)) for p in (2, 3, 5) for f in itertools.product(range(p), repeat=3)
    if fc.is_irreducible_poly(f + (1,), p)
]


def test_cubic_fields_are_every_presentation():
    assert [sum(1 for q, _, _ in CUBIC_FIELDS if q == p) for p in (2, 3, 5)] == [2, 8, 40]


@pytest.mark.parametrize("p,m,poly", KERNEL_FIELDS + NONCANONICAL_FIELDS + CUBIC_FIELDS)
def test_norm_kernel_matches_exponent_and_conjugate_routes(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    kernel = fc.norm_kernel(ctx)
    e = (ctx.order - 1) // (p - 1)
    for a in ctx.iter_elements():
        value = kernel(a)
        assert fc.ext_pow(ctx, a, e) == ctx.from_int(value)
        assert value == fc.norm_via_conjugates(ctx, a)
        assert fc.norm(ctx, a) == value


@pytest.mark.parametrize("p,m,poly", KERNEL_FIELDS + NONCANONICAL_FIELDS)
def test_trace_is_the_sum_of_the_conjugates(p, m, poly):
    # the oracle: a + a^p + ... + a^(p^(m-1)) lies in F_p and is Tr(a)
    ctx = fc.ext_field_ctx(p, m, poly)
    for a in ctx.iter_elements():
        total = ctx.from_int(0)
        for i in range(m):
            total = fc.ext_add(ctx, total, fc.frobenius(ctx, a, i))
        assert total == ctx.from_int(fc.trace(ctx, a)), (ctx, a)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 2), (3, 3), (5, 3), (7, 3), (2, 4), (3, 5)])
def test_norm_kernel_accepts_unreduced_coordinates(p, m):
    ctx = fc.ext_field_ctx(p, m)
    kernel = fc.norm_kernel(ctx)
    rng = random.Random(p * 10 + m)
    for a in ctx.iter_elements():
        lifted = _lift(a, p, rng)
        assert kernel(lifted) == kernel(a)
    assert fc.norm_kernel(ctx) is kernel


def _lift(a, p, rng):
    """a with each coordinate moved by a multiple of p, negative or not."""
    return tuple(c + p * rng.randint(-3, 3) for c in a)


def _element_pairs(ctx, sample=None):
    """Every pair of elements of ctx, or a sample of that many pairs seeded
    by the field and its presentation."""
    elems = list(ctx.iter_elements())
    if sample is None:
        return list(itertools.product(elems, repeat=2))
    rng = random.Random(str((ctx.p, ctx.defining_poly)))
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(sample)]


def _product_pairs(ctx):
    """Every pair up to q = 64, a seeded sample of 2,000 above."""
    return _element_pairs(ctx, None if ctx.order <= 64 else 2000)


class TestMulKernel:
    @pytest.mark.parametrize("p,m,poly", KERNEL_FIELDS + NONCANONICAL_FIELDS + CUBIC_FIELDS)
    def test_matches_field_product(self, p, m, poly):
        ctx = fc.ext_field_ctx(p, m, poly)
        mul = fc.mul_kernel(ctx)
        for a, b in _product_pairs(ctx):
            assert mul(a, b) == fc.ext_mul(ctx, a, b)

    @pytest.mark.parametrize("col,j", list(itertools.product((1, 2), range(3))))
    def test_an_altered_reduction_constant_is_caught(self, monkeypatch, col, j):
        # X^3 or X^4 mod f off by one in coordinate j: the product test's
        # sample finds a pair that the kernel built from it gets wrong
        ctx = fc.ext_field_ctx(5, 3, (3, 1, 1, 1))
        columns = fc.mult_columns

        def altered(ctx, a):
            cols = columns(ctx, a)
            cols[col][j] += 1
            return cols

        monkeypatch.setattr(fc, "mult_columns", altered)
        mul = fc.mul_kernel.__wrapped__(ctx)
        assert any(mul(a, b) != fc.ext_mul(ctx, a, b) for a, b in _product_pairs(ctx))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_accepts_unreduced_coordinates(self, p):
        ctx = fc.ext_field_ctx(p, 3)
        mul = fc.mul_kernel(ctx)
        rng = random.Random(p)
        for a, b in _element_pairs(ctx, 500):
            assert mul(_lift(a, p, rng), _lift(b, p, rng)) == mul(a, b)

    @pytest.mark.parametrize("m", [3, 4])
    def test_reduces_by_defining_poly(self, m):
        ctx = fc.ext_field_ctx(2, m)
        mul = fc.mul_kernel(ctx)
        g = ctx.gen()
        top = fc.ext_pow(ctx, g, m - 1)
        assert mul(g, top) == fc.ext_mul(ctx, g, top) == fc.ext_pow(ctx, g, m)
        assert mul(top, top) == fc.ext_pow(ctx, g, 2 * m - 2)

    def test_cached_per_context(self):
        ctx = fc.ext_field_ctx(3, 3)
        assert fc.mul_kernel(ctx) is fc.mul_kernel(fc.ext_field_ctx(3, 3))


@pytest.mark.parametrize("p,poly", [(7, None), (5, (3, 1, 1, 1))])
def test_degree_3_kernels_build_no_matrix(monkeypatch, p, poly):
    # the closed forms read neither the multiplication columns nor a
    # determinant per call
    ctx = fc.ext_field_ctx(p, 3, poly)
    norm, mul = fc.norm_kernel(ctx), fc.mul_kernel(ctx)
    pairs = _element_pairs(ctx, 200)
    expected = [(fc.norm_via_conjugates(ctx, a), fc.ext_mul(ctx, a, b)) for a, b in pairs]

    def refused(*args):
        raise AssertionError("a degree-3 kernel built a matrix")

    monkeypatch.setattr(fc, "mult_columns", refused)
    monkeypatch.setattr(la, "mat_det", refused)
    assert [(norm(a), mul(a, b)) for a, b in pairs] == expected


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
def test_lifted_index_matches_conjugate_norm(p, m):
    ctx = fc.ext_field_ctx(p, m)
    norms = [(a, fc.norm_via_conjugates(ctx, a)) for a in ctx.iter_elements()]
    for t in range(p - 1):
        chi = cc.DirichletChar(p, t)
        for a, value in norms:
            assert cc.lifted_index(chi, ctx, a) == cc.char_index(chi, value)


def test_lifted_index_rejects_tuples_of_another_degree():
    chi, ctx = cc.DirichletChar(5, 1), fc.ext_field_ctx(5, 2)
    assert cc.lifted_index(chi, ctx, (0, 0)) is None
    assert cc.lifted_index(chi, ctx, (2, 0)) == 2  # N(2) = 4 = g^2, g = 2
    for a in [(), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="degree 2"):
            cc.lifted_index(chi, ctx, a)


def test_a_field_of_another_characteristic_raises():
    chi = cc.DirichletChar(5, 2)
    for ctx in (fc.ext_field_ctx(3, 2), fc.ext_field_ctx(7, 1)):
        with pytest.raises(ValueError, match="characteristic"):
            cc.lifted_index(chi, ctx, ctx.from_int(1))
        with pytest.raises(ValueError, match="characteristic"):
            cs.weil_complete_sum(chi, ctx, [(1, 1)])
        with pytest.raises(ValueError, match="characteristic"):
            cs.s2_moment(chi, (ctx,), 2, 1)
        with pytest.raises(ValueError, match="characteristic"):
            cs.s2_moment(chi, (fc.ext_field_ctx(5, 1), ctx), 2, 1)


def _element_route_index(chi, ctx, x, shift):
    """Lifted index of x + shift through field elements, the pre-kernel route."""
    return cc.lifted_index(chi, ctx, fc.ext_add(ctx, x, ctx.from_int(shift)))


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (3, 4)])
def test_weil_raw_route_matches_element_route(p, m):
    ctx = fc.ext_field_ctx(p, m)
    for t in sorted({1, (p - 1) // 2}):
        chi = cc.DirichletChar(p, t)
        for factors in ([(1, 1)], [(0, 1), (2, 2)], [(1, 1), (p - 1, 3), (p + 1, 1)]):
            merged = {}
            for shift, mult in factors:
                merged[shift % p] = merged.get(shift % p, 0) + mult
            weights = [0] * (p - 1)
            for x in ctx.iter_elements():
                idx = [_element_route_index(chi, ctx, x, s) for s in merged]
                if None not in idx:
                    total = sum(mult * i for mult, i in zip(merged.values(), idx))
                    weights[total % (p - 1)] += 1
            value = cs.weil_complete_sum(chi, ctx, factors)[0]
            assert value == cc.weights_value(weights)


@pytest.mark.parametrize(
    "p,partition,T,r",
    [(5, (2,), 3, 2), (7, (2,), 2, 2), (3, (3,), 3, 2), (5, (3,), 2, 2),
     (5, (1, 1), 3, 2), (3, (2, 1), 2, 3), (3, (1, 2), 2, 2)],
)
def test_s2_moment_raw_route_matches_element_route(p, partition, T, r):
    # |inner|^{2r} = inner^r conj(inner)^r, expanded over every 2r-tuple of
    # shifts: the tuple adds zeta^(sum of r indices - sum of the other r)
    chi = cc.DirichletChar(p, (p - 1) // 2)
    ctxs = [fc.ext_field_ctx(p, m) for m in partition]
    order = p - 1
    total = [0] * order
    for z in itertools.product(*[list(ctx.iter_elements()) for ctx in ctxs]):
        live = []
        for t in range(1, T + 1):
            idx = [_element_route_index(chi, ctx, zi, t) for ctx, zi in zip(ctxs, z)]
            if None not in idx:
                live.append(sum(idx))
        for ts in itertools.product(live, repeat=2 * r):
            total[(sum(ts[:r]) - sum(ts[r:])) % order] += 1
    assert cs.s2_moment(chi, ctxs, T, r)["weights"] == tuple(total)


def _code(ctx, a):
    return sum(c * ctx.p**j for j, c in enumerate(a))


@pytest.mark.parametrize("p,m,poly", KERNEL_FIELDS + NONCANONICAL_FIELDS)
def test_log_table_inverts_ext_pow(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    q = ctx.order
    table = fc.log_table(ctx)
    assert len(table) == q
    assert table[0] == 2 * (q - 1) - 1
    assert sorted(table[1:]) == list(range(q - 1))
    elems = list(ctx.iter_elements())
    one = ctx.from_int(1)
    g = next(a for a in elems if table[_code(ctx, a)] == 1) if q > 2 else one
    # g is the primitive element of smallest code
    exponents = [(q - 1) // r for r in fc.prime_divisors(q - 1)]
    for a in elems:
        if 0 < _code(ctx, a) < _code(ctx, g):
            assert any(fc.ext_pow(ctx, a, e) == one for e in exponents)
    for a in elems:
        if any(a):
            assert fc.ext_pow(ctx, g, table[_code(ctx, a)]) == a
    assert fc.log_table(ctx) is table


def test_log_table_fails_closed(monkeypatch):
    # multiplication by g given the identity's columns never moves, so the
    # walk revisits the code of 1 at the first step (g is found first: its
    # search multiplies by mul_kernel, not by these columns)
    ctx = fc.ext_field_ctx(5, 2)
    fc.primitive_element(ctx)
    monkeypatch.setattr(fc, "_tables", {})
    monkeypatch.setattr(
        fc, "mult_columns", lambda ctx, a: [[int(i == k) for i in range(ctx.m)] for k in range(ctx.m)]
    )
    with pytest.raises(la.CheckFailed, match="revisits code 1"):
        fc.log_table(ctx)
    assert fc._tables == {}


def test_prime_field_log_walk_fails_closed(monkeypatch):
    # 4 has order 2 mod 5: the int walk 1, 4, 1 revisits the code of 1
    monkeypatch.setattr(fc, "_tables", {})
    monkeypatch.setattr(fc, "primitive_element", lambda ctx: ctx.from_int(4))
    with pytest.raises(la.CheckFailed, match="step 2 revisits code 1"):
        fc.log_table(fc.ext_field_ctx(5, 1))
    assert fc._tables == {}


# every field up to F_{2^12}, F_{3^7}, F_{5^4}, F_{7^3} and F_{53^2}
WALKED_FIELDS = [(p, m) for p, top in [(2, 12), (3, 7), (5, 4), (7, 3), (53, 2)]
                 for m in range(1, top + 1)]


@pytest.mark.parametrize("p,m", WALKED_FIELDS)
def test_walked_log_table_is_the_log_of_each_power(p, m):
    # the walk through the table of g times every element lands where
    # squaring with mul_kernel does, at every exponent
    ctx = fc.ext_field_ctx(p, m)
    g, table = fc.primitive_element(ctx), fc.log_table(ctx)
    assert [table[_code(ctx, fc.pow_coeffs(ctx, g, j))] for j in range(ctx.order - 1)] == list(
        range(ctx.order - 1)
    )


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3)]
                         + [(2, m) for m in range(4, 9)] + [(3, 4), (3, 5), (3, 6), (5, 4)])
def test_times_code_table_is_the_code_of_each_product(p, m):
    # step[c] is the code of g times the element of code c, on every element,
    # for the generator the walk uses and for units with some zero coordinates;
    # from m = 4 on a row spans L = m // 2 >= 2 digits, and the unit vectors
    # w^j leave coordinates that no row digit moves, or that only a lower
    # row digit moves
    ctx = fc.ext_field_ctx(p, m)
    mul = fc.mul_kernel(ctx)
    units = {fc.primitive_element(ctx), ctx.from_int(1), ctx.from_int(p - 1)}
    units |= {tuple(int(i == j) for i in range(m)) for j in range(m)}
    units |= {tuple(int(i % 2 == 0) for i in range(m)), tuple(int(i >= m - 2) for i in range(m))}
    units.add(tuple(range(1, m + 1)) if p > m else ctx.from_int(1))
    for g in units:
        step = fc._times_code_table(ctx, g)
        assert isinstance(step, array.array) and len(step) == ctx.order
        for a in ctx.iter_elements():
            assert step[_code(ctx, a)] == _code(ctx, mul(g, a)), (g, a)


@pytest.mark.parametrize("p,m", [(5, 2), (3, 3), (2, 4)])
def test_extension_log_walk_fails_closed(monkeypatch, p, m):
    # g^2 has order (q - 1) / 2 in F_q^* (q odd) or g^3 order (q - 1) / 3
    # (q = 16): the walk comes back to the code of 1 at that step
    ctx = fc.ext_field_ctx(p, m)
    e = 2 if p > 2 else 3
    h = fc.pow_coeffs(ctx, fc.primitive_element(ctx), e)
    monkeypatch.setattr(fc, "_tables", {})
    monkeypatch.setattr(fc, "primitive_element", lambda ctx: h)
    with pytest.raises(la.CheckFailed, match=f"step {(ctx.order - 1) // e} revisits code 1"):
        fc.log_table(ctx)
    assert fc._tables == {}


# the prime-field discrete logs that characters mod p read before they read
# log_table: the smallest primitive root and a walk of its powers mod p


def primitive_root(p):
    """Smallest primitive root mod p."""
    if p == 2:
        return 1
    prime_factors = fc.prime_divisors(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in prime_factors))


def dlog_table(p, g):
    """dlog[a] = j with g^j = a mod p; dlog[0] = None."""
    table = [None] * p
    acc = 1
    for j in range(p - 1):
        if table[acc] is not None:
            raise ValueError(f"{g} is not a primitive root mod {p}")
        table[acc] = j
        acc = (acc * g) % p
    return table


ORACLE_PRIMES = [p for p in range(2, 3000) if la.is_prime(p)] + [99991, 100003, 999983]


def test_prime_field_logs_match_the_primitive_root_oracle(monkeypatch):
    monkeypatch.setattr(fc, "_tables", {})
    for p in ORACLE_PRIMES:
        ctx = fc.ext_field_ctx(p, 1)
        g = primitive_root(p)
        assert fc.primitive_element(ctx) == (g,), p
        oracle = dlog_table(p, g)
        table = fc.log_table(ctx)
        assert table[0] == 2 * (p - 1) - 1
        assert table[1:] == oracle[1:], p
        if p < 3000:
            for t in sorted({1, (p - 1) // 2}):
                chi = cc.DirichletChar(p, t)
                assert [cc.char_index(chi, a) for a in range(p)] == (
                    [None] + [t * j % (p - 1) for j in oracle[1:]]
                ), (p, t)
        del oracle, table
        fc._tables.clear()


def test_character_holds_the_prime_field_log_table(monkeypatch):
    monkeypatch.setattr(fc, "_tables", {})
    ctx = fc.ext_field_ctx(7, 1)
    chi = cc.DirichletChar(7, 2)
    assert list(fc._tables) == [ctx]
    assert chi == cc.DirichletChar(7, 8) and repr(chi) == "DirichletChar(p=7, index=2)"
    # an evicted table is still the character's: no rebuild per lookup
    fc._tables.clear()
    assert [cc.char_index(chi, a) for a in range(7)] == [None, 0, 4, 2, 2, 4, 0]
    assert fc._tables == {}
    with pytest.raises(ValueError, match="modulus must be prime"):
        cc.DirichletChar(9, 1)
    with pytest.raises(ValueError, match="exceeds cap"):
        cc.DirichletChar(1000003, 1)


@pytest.mark.parametrize("p,m,n", [(2, 1, 1), (5, 1, 2), (3, 2, 2), (2, 3, 3), (7, 2, 3)])
def test_linear_logs_is_the_log_of_each_image(p, m, n):
    # U x for every x of the axes' product, in its order, with unreduced
    # entries of U, negative coordinates and axes of one value
    ctx, rng = fc.ext_field_ctx(p, m), random.Random(p * m + n)
    table = fc.log_table(ctx)
    for _ in range(4):
        U = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(m)]
        axes = [range(a, a + rng.randint(1, 4)) for a in (rng.randint(-p, p) for _ in range(n))]
        images = ([sum(u * v for u, v in zip(row, x)) % p for row in U]
                  for x in itertools.product(*axes))
        assert fc.linear_logs(ctx, U, axes) == [table[_code(ctx, y)] for y in images]


@pytest.mark.parametrize("p,m,poly", [(2, 1, None), (2, 3, None), (7, 1, None),
                                        (3, 3, None), (5, 2, (1, 1, 1))])
def test_log_fold_gives_the_log_of_the_product(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    q = ctx.order
    table, fold = fc.log_table(ctx), fc.log_fold(ctx)
    assert len(fold) == 4 * (q - 1) - 1
    elems = list(ctx.iter_elements())
    for a in elems:
        for b in elems:
            folded = fold[table[_code(ctx, a)] + table[_code(ctx, b)]]
            ab = fc.ext_mul(ctx, a, b)
            assert folded == (table[_code(ctx, ab)] if any(ab) else q - 1)


def test_log_cache_is_bounded_by_elements(monkeypatch):
    monkeypatch.setattr(fc, "_tables", {})
    monkeypatch.setattr(fc, "LOG_CACHE_ELEMENTS", 30)
    ctxs = [fc.ext_field_ctx(p, 1) for p in (3, 5, 7, 11, 13, 17, 31)]
    for ctx in ctxs:
        table = fc.log_table(ctx)
        assert fc.log_table(ctx) is table
        sizes = [len(t.log_table) for t in fc._tables.values()]
        assert sum(sizes) <= 30 or sizes == [ctx.order]
    assert list(fc._tables) == ctxs[-1:]
    # 17 + 13 fit together; evicting the oldest keeps the newest
    fc.log_table(ctxs[4])
    fc.log_table(ctxs[5])
    assert list(fc._tables) == [ctxs[4], ctxs[5]]
    # a norm table and a fold live in their field's record and leave with it
    f4, f9, f25 = (fc.ext_field_ctx(p, 2) for p in (2, 3, 5))
    n9, fold9 = fc.norm_table(f9), fc.log_fold(f9)
    n4 = fc.norm_table(f4)
    assert list(fc._tables) == [ctxs[5], f9, f4]
    assert [fc._tables[f].norm_table for f in (f9, f4)] == [n9, n4]
    fc.log_table(f25)
    assert list(fc._tables) == [f4, f25]
    assert fc._tables[f25].norm_table is None
    assert fc.norm_table(f4) is n4
    rebuilt, refolded = fc.norm_table(f9), fc.log_fold(f9)
    assert rebuilt == n9 and rebuilt is not n9
    assert refolded == fold9 and refolded is not fold9
    assert list(fc._tables) == [f9]
    assert fc._tables[f9].norm_table is rebuilt


NORM_TABLE_FIELDS = (
    [(2, m, None) for m in range(1, 5)] + [(3, m, None) for m in range(1, 7)]
    + [(5, m, None) for m in range(1, 5)] + [(7, 3, None), (29, 2, None)]
)


@pytest.mark.parametrize("p,m,poly", NORM_TABLE_FIELDS + NONCANONICAL_FIELDS)
def test_norm_table_matches_norm_kernel(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    table = fc.norm_table(ctx)
    kernel = fc.norm_kernel(ctx)
    assert len(table) == ctx.order
    for a in ctx.iter_elements():
        assert table[_code(ctx, a)] == kernel(a)
        if ctx.order <= 125:
            assert table[_code(ctx, a)] == fc.norm_via_conjugates(ctx, a)
    assert fc.norm_table(ctx) is table or m == 1


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (2, 4)])
def test_shifted_norms_is_the_norm_at_each_shifted_element(p, m):
    ctx = fc.ext_field_ctx(p, m)
    kernel = fc.norm_kernel(ctx)
    for s in range(p):
        shifted = fc.shifted_norms(ctx, s)
        assert len(shifted) == ctx.order
        for a in ctx.iter_elements():
            assert shifted[_code(ctx, a)] == kernel(fc.ext_add(ctx, a, ctx.from_int(s)))
    assert fc.shifted_norms(ctx, p + 1) == fc.shifted_norms(ctx, 1)
    assert fc.shifted_norms(ctx, 0) == list(fc.norm_table(ctx))


def test_norm_table_is_built_on_first_use(monkeypatch):
    monkeypatch.setattr(fc, "_tables", {})
    ctx = fc.ext_field_ctx(5, 2)
    fc.log_table(ctx)
    fold = fc.log_fold(ctx)
    assert fc._tables[ctx].norm_table is None
    table = fc.norm_table(ctx)
    assert fc._tables[ctx].norm_table is table and fc.log_fold(ctx) is fold
    assert fc.norm_table(ctx) is table
    assert fc.norm_table(fc.ext_field_ctx(5, 1)) == range(5)
    assert list(fc._tables) == [ctx]


def test_a_norm_table_drops_the_walk_and_a_later_fold_is_the_same(monkeypatch):
    # weil-check reads norm tables and builds no fold, so its field's record
    # holds no walk list; a fold asked for afterwards is built from fresh ints
    monkeypatch.setattr(fc, "_tables", {})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["weil-check", "--p", "29", "--k", "2", "--r", "1"]) == 0
    ctx, order = fc.ext_field_ctx(29, 2), 29**2 - 1
    tables = fc._tables[ctx]
    assert tables.fold is None and tables.walk is None and tables.norm_table is not None
    fold = fc.log_fold(ctx)
    logs = list(range(order))
    assert tables.fold is fold and fold == logs + logs[:-1] + [order] * (2 * order)


def test_norm_table_fails_closed(monkeypatch):
    ctx = fc.ext_field_ctx(5, 2)
    g = fc.primitive_element(ctx)
    # a norm kernel whose N(g) has order 1, not p - 1
    monkeypatch.setattr(fc, "_tables", {})
    monkeypatch.setattr(fc, "norm_kernel", lambda ctx: lambda a: 1)
    with pytest.raises(la.CheckFailed, match="norm table of F_5"):
        fc.norm_table(ctx)
    assert fc._tables[ctx].norm_table is None
    monkeypatch.undo()
    # g^7 is primitive with N(g^7) of order 4, but the log walk is in powers
    # of g, so the table's entry at g^7 is N(g^7)^7 = N(g) != N(g^7)
    monkeypatch.setattr(fc, "_tables", {})
    fc.log_table(ctx)
    monkeypatch.setattr(fc, "primitive_element", lambda ctx: fc.ext_pow(ctx, g, 7))
    with pytest.raises(la.CheckFailed, match="norm table of F_5"):
        fc.norm_table(ctx)
    assert fc._tables[ctx].norm_table is None


def test_prime_divisors():
    assert fc.prime_divisors(1) == []
    assert fc.prime_divisors(2) == [2]
    assert fc.prime_divisors(360) == [2, 3, 5]
    assert fc.prime_divisors(97 * 97) == [97]
    assert fc.primitive_element(fc.ext_field_ctx(41, 1)) == (6,)


# every extension field with q <= 5000: 42 of them
EXTENSION_FIELDS = [(p, m) for p, m in SCANNED_FIELDS if m > 1 and p**m <= 5000]


def first_generator(ctx):
    """The unit of smallest code past F_p with g^((q-1)/r) != 1 for every
    prime r | q - 1, each power taken with pow_coeffs."""
    p, m, q = ctx.p, ctx.m, ctx.order
    one = ctx.from_int(1)
    for code in range(p, q):
        g = tuple(code // p**j % p for j in range(m))
        if all(fc.pow_coeffs(ctx, g, (q - 1) // r) != one for r in fc.prime_divisors(q - 1)):
            return g
    return None


def test_primitive_element_matches_the_power_oracle():
    assert len(EXTENSION_FIELDS) == 42
    for p, m in EXTENSION_FIELDS:
        ctx = fc.ext_field_ctx(p, m)
        assert fc.primitive_element(ctx) == first_generator(ctx), (p, m)


def test_a_power_of_a_unit_at_a_prime_of_p_minus_1_is_a_power_of_its_norm():
    # g^((q-1)/r) = N(g)^((p-1)/r) for r | p - 1, as g^((q-1)/(p-1)) = N(g)
    rng = random.Random(33)
    checked = 0
    for p, m in EXTENSION_FIELDS:
        ctx = fc.ext_field_ctx(p, m)
        for _ in range(4):
            g = tuple(rng.randrange(p) for _ in range(m - 1)) + (rng.randrange(1, p),)
            for r in fc.prime_divisors(p - 1):
                power = pow(fc.norm(ctx, g), (p - 1) // r, p)
                assert fc.pow_coeffs(ctx, g, (ctx.order - 1) // r) == ctx.from_int(power)
                checked += 1
    assert checked == 216


def test_a_norm_test_at_a_prime_not_dividing_p_minus_1_is_caught(monkeypatch):
    # the norm test taken at every prime r | q - 1, with exponent
    # (p - 1) // r, decides something other than g^((q-1)/r) != 1 where r
    # does not divide p - 1: the oracle sees it on 23 of the 39 fields that
    # have such a prime (every one with r > p - 1, where no g passes)
    real, fields, caught = fc.prime_divisors, 0, 0
    for p, m in EXTENSION_FIELDS:
        ctx = fc.ext_field_ctx(p, m)
        primes = real(ctx.order - 1)
        if set(primes) <= set(real(p - 1)):
            continue
        monkeypatch.setattr(fc, "prime_divisors", lambda n: primes if n == p - 1 else real(n))
        try:
            wrong = fc.primitive_element.__wrapped__(ctx)
        except la.CheckFailed:
            wrong = None
        monkeypatch.setattr(fc, "prime_divisors", real)
        fields += 1
        caught += wrong != first_generator(ctx)
    assert (fields, caught) == (39, 23)
