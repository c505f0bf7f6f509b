"""Extension field arithmetic against hand-checked values and field axioms."""

import itertools
import random

import pytest

from normsum import char_core as cc
from normsum import charsum as cs
from normsum import field_core as fc


def F9():
    return fc.ext_field_ctx(3, 2)


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


def test_ext_mul_F9():
    ctx = F9()
    w = ctx.gen()
    assert fc.ext_mul(w, w).coeffs == (2, 0)
    one_plus = ctx.element((1, 1))
    one_minus = ctx.element((1, 2))
    assert fc.ext_mul(one_plus, one_minus).coeffs == (2, 0)


def test_ext_inv_F9():
    ctx = F9()
    w = ctx.gen()
    assert fc.ext_inv(w).coeffs == (0, 2)
    with pytest.raises(ZeroDivisionError):
        fc.ext_inv(ctx.zero())


def test_frobenius_F9():
    ctx = F9()
    w = ctx.gen()
    assert fc.frobenius(w, 1).coeffs == (0, 2)
    assert fc.frobenius(w, 0) == w
    with pytest.raises(ValueError):
        fc.frobenius(w, 2)


def test_norm_F9_values():
    ctx = F9()
    w = ctx.gen()
    assert fc.norm(w) == 1
    assert fc.norm(ctx.element((1, 1))) == 2
    assert fc.norm(ctx.zero()) == 0


def test_normal_elements_F9():
    ctx = F9()
    assert not fc.is_normal_element(ctx.zero())
    assert not fc.is_normal_element(ctx.one())
    assert fc.is_normal_element(ctx.element((1, 1)))


def test_prime_subfield_behavior_m1():
    ctx = fc.ext_field_ctx(7, 1)
    a = ctx.from_int(3)
    assert fc.norm(a) == 3
    assert fc.is_normal_element(a)
    assert not fc.is_normal_element(ctx.zero())


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 4), (5, 2), (7, 2)])
def test_field_axioms_sampled(p, m):
    """Associativity, distributivity, commutativity, inverses on sampled triples."""
    ctx = fc.ext_field_ctx(p, m)
    rng = random.Random(20260822)
    elems = list(ctx.iter_elements())
    for _ in range(80):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert fc.ext_add(a, b) == fc.ext_add(b, a)
        assert fc.ext_mul(a, b) == fc.ext_mul(b, a)
        assert fc.ext_mul(a, fc.ext_mul(b, c)) == fc.ext_mul(fc.ext_mul(a, b), c)
        assert fc.ext_mul(a, fc.ext_add(b, c)) == fc.ext_add(
            fc.ext_mul(a, b), fc.ext_mul(a, c)
        )
        if not a.is_zero():
            assert fc.ext_mul(a, fc.ext_inv(a)) == ctx.one()


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (3, 4), (5, 4)])
def test_norm_multiplicative_exhaustive(p, m):
    ctx = fc.ext_field_ctx(p, m)
    elems = list(ctx.iter_elements())
    norms = {a.coeffs: fc.norm(a) for a in elems}
    for a in elems:
        for b in elems:
            ab = fc.ext_mul(a, b)
            assert norms[ab.coeffs] == (norms[a.coeffs] * norms[b.coeffs]) % p


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (3, 4), (5, 4)])
def test_norm_routes_agree_exhaustive(p, m):
    ctx = fc.ext_field_ctx(p, m)
    for a in ctx.iter_elements():
        assert fc.norm(a) == fc.norm_via_conjugates(a)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (2, 4)])
def test_frobenius_is_field_automorphism_exhaustive(p, m):
    """x -> x^p respects + and * and fixes exactly the prime subfield."""
    ctx = fc.ext_field_ctx(p, m)
    elems = list(ctx.iter_elements())
    frob = {a.coeffs: fc.frobenius(a, 1) for a in elems}
    for a in elems:
        for b in elems:
            assert frob[fc.ext_add(a, b).coeffs] == fc.ext_add(frob[a.coeffs], frob[b.coeffs])
            assert frob[fc.ext_mul(a, b).coeffs] == fc.ext_mul(frob[a.coeffs], frob[b.coeffs])
    fixed = [a for a in elems if frob[a.coeffs] == a]
    assert sorted(a.coeffs for a in fixed) == sorted(
        ctx.from_int(c).coeffs for c in range(p)
    )


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_normal_element_exists(p, m):
    ctx = fc.ext_field_ctx(p, m)
    assert any(fc.is_normal_element(a) for a in ctx.iter_elements())


def test_frobenius_composes_to_identity():
    ctx = fc.ext_field_ctx(3, 4)
    rng = random.Random(7)
    elems = list(ctx.iter_elements())
    for _ in range(30):
        a = rng.choice(elems)
        b = a
        for _ in range(ctx.m):
            b = fc.frobenius(b, 1)
        assert b == a


def test_ext_pow_matches_repeated_mul():
    ctx = fc.ext_field_ctx(5, 2)
    a = ctx.element((2, 3))
    acc = ctx.one()
    for e in range(12):
        assert fc.ext_pow(a, e) == acc
        acc = fc.ext_mul(acc, a)


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


@pytest.mark.parametrize("p,m,poly", KERNEL_FIELDS + NONCANONICAL_FIELDS)
def test_norm_kernel_matches_exponent_and_conjugate_routes(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    kernel = fc.norm_kernel(ctx)
    e = (ctx.order - 1) // (p - 1)
    for a in ctx.iter_elements():
        value = kernel(a.coeffs)
        assert value == fc.ext_pow(a, e).as_int()
        assert value == fc.norm_via_conjugates(a)
        assert fc.norm(a) == value


@pytest.mark.parametrize("p,m", [(5, 1), (7, 2), (3, 3), (2, 4), (3, 5)])
def test_norm_kernel_accepts_unreduced_coordinates(p, m):
    ctx = fc.ext_field_ctx(p, m)
    kernel = fc.norm_kernel(ctx)
    rng = random.Random(p * 10 + m)
    for a in ctx.iter_elements():
        lifted = tuple(c + p * rng.randint(-3, 3) for c in a.coeffs)
        assert kernel(lifted) == kernel(a.coeffs)
    assert fc.norm_kernel(ctx) is kernel


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
def test_lifted_index_matches_conjugate_norm(p, m):
    ctx = fc.ext_field_ctx(p, m)
    norms = [(a, fc.norm_via_conjugates(a)) for a in ctx.iter_elements()]
    for t in range(p - 1):
        chi = cc.DirichletChar(p, t)
        psi = cc.lift_character(chi, ctx)
        for a, value in norms:
            assert cc.lifted_index(psi, a) == cc.char_index(chi, value)


def _element_route_index(psi, x, shift):
    """Lifted index of x + shift through field elements, the pre-kernel route."""
    return cc.lifted_index(psi, fc.ext_add(x, psi.ctx.from_int(shift)))


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (3, 4)])
def test_weil_raw_route_matches_element_route(p, m):
    ctx = fc.ext_field_ctx(p, m)
    for t in sorted({1, (p - 1) // 2}):
        psi = cc.lift_character(cc.DirichletChar(p, t), ctx)
        for factors in ([(1, 1)], [(0, 1), (2, 2)], [(1, 1), (p - 1, 3), (p + 1, 1)]):
            merged = {}
            for shift, mult in factors:
                merged[shift % p] = merged.get(shift % p, 0) + mult
            weights = [0] * (p - 1)
            for x in ctx.iter_elements():
                idx = [_element_route_index(psi, x, s) for s in merged]
                if None not in idx:
                    total = sum(mult * i for mult, i in zip(merged.values(), idx))
                    weights[total % (p - 1)] += 1
            value = cs.weil_complete_sum(psi, factors)[0]
            assert value == cs._histogram_value(weights, p)


@pytest.mark.parametrize(
    "p,partition,T,r",
    [(5, (2,), 3, 2), (7, (2,), 2, 2), (3, (3,), 3, 2), (5, (3,), 2, 2),
     (5, (1, 1), 3, 2), (3, (2, 1), 2, 3), (3, (1, 2), 2, 2)],
)
def test_s2_moment_raw_route_matches_element_route(p, partition, T, r):
    chi = cc.DirichletChar(p, (p - 1) // 2)
    psis = [cc.lift_character(chi, fc.ext_field_ctx(p, m)) for m in partition]
    order = p - 1
    total = [0] * order
    for z in itertools.product(*[list(psi.ctx.iter_elements()) for psi in psis]):
        inner = [0] * order
        for t in range(1, T + 1):
            idx = [_element_route_index(psi, zi, t) for psi, zi in zip(psis, z)]
            if None not in idx:
                inner[sum(idx) % order] += 1
        sq = cs._cyclic_correlate(inner, inner, order)
        powed = sq
        for _ in range(r - 1):
            powed = cs._cyclic_convolve(powed, sq, order)
        total = [a + b for a, b in zip(total, powed)]
    assert cs.s2_moment(partition, psis, T, r)["weights"] == tuple(total)


def _code(a):
    return sum(c * a.ctx.p**j for j, c in enumerate(a.coeffs))


@pytest.mark.parametrize("p,m,poly", KERNEL_FIELDS + NONCANONICAL_FIELDS)
def test_log_table_inverts_ext_pow(p, m, poly):
    ctx = fc.ext_field_ctx(p, m, poly)
    q = ctx.order
    table = fc.log_table(ctx)
    assert len(table) == q
    assert table[0] == 2 * (q - 1) - 1
    assert sorted(table[1:]) == list(range(q - 1))
    elems = list(ctx.iter_elements())
    g = next(a for a in elems if table[_code(a)] == 1) if q > 2 else ctx.one()
    # g is the primitive element of smallest code
    exponents = [(q - 1) // r for r in fc.prime_divisors(q - 1)]
    for a in elems:
        if 0 < _code(a) < _code(g):
            assert any(fc.ext_pow(a, e) == ctx.one() for e in exponents)
    for a in elems:
        if not a.is_zero():
            assert fc.ext_pow(g, table[_code(a)]) == a
    assert fc.log_table(ctx) is table


def test_log_table_fails_closed(monkeypatch):
    # a multiply that never moves revisits the code of 1 at the first step
    monkeypatch.setattr(fc, "_log_tables", {})
    monkeypatch.setattr(fc, "mul_kernel", lambda ctx: lambda a, b: a)
    with pytest.raises(AssertionError, match="revisits code 1"):
        fc.log_table(fc.ext_field_ctx(5, 2))
    assert fc._log_tables == {}


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
            folded = fold[table[_code(a)] + table[_code(b)]]
            ab = fc.ext_mul(a, b)
            assert folded == (q - 1 if ab.is_zero() else table[_code(ab)])


def test_log_cache_is_bounded_by_elements(monkeypatch):
    monkeypatch.setattr(fc, "_log_tables", {})
    monkeypatch.setattr(fc, "LOG_CACHE_ELEMENTS", 30)
    ctxs = [fc.ext_field_ctx(p, 1) for p in (3, 5, 7, 11, 13, 17, 31)]
    for ctx in ctxs:
        table = fc.log_table(ctx)
        assert fc.log_table(ctx) is table
        sizes = [len(t) for t, _ in fc._log_tables.values()]
        assert sum(sizes) <= 30 or sizes == [ctx.order]
    assert list(fc._log_tables) == ctxs[-1:]
    # 17 + 13 fit together; evicting the oldest keeps the newest
    fc.log_table(ctxs[4])
    fc.log_table(ctxs[5])
    assert list(fc._log_tables) == [ctxs[4], ctxs[5]]


def test_prime_divisors():
    assert fc.prime_divisors(1) == []
    assert fc.prime_divisors(2) == [2]
    assert fc.prime_divisors(360) == [2, 3, 5]
    assert fc.prime_divisors(97 * 97) == [97]
    assert cc.primitive_root(41) == 6
