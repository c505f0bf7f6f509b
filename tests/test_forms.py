"""Forms, factorization, norm-form decompositions, boxes cut into pieces."""

import ast
import collections
import functools
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normsum import cli
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn
from normsum import linalg as la

PRIMES = (2, 3, 5, 7, 11, 13)
PARTS_BY_N = {2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}


def form(p, n, monos):
    """The form with monomials {exponent vector: coefficient}; k is read off
    the first exponent vector."""
    items = [(tuple(e), c) for e, c in monos.items()]
    return fm.FormSpec(p, n, sum(items[0][0]), tuple(items))


def save_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# FormSpec and evaluation


def test_eval_form_values():
    F = form(5, 2, {(1, 1): 1})
    assert fm.eval_form(F, (2, 3)) == 1
    G = form(3, 2, {(2, 0): 1, (0, 2): 1})
    assert fm.eval_form(G, (1, 1)) == 2
    with pytest.raises(ValueError):
        fm.eval_form(F, (1, 2, 3))


def test_formspec_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        fm.FormSpec(5, 2, 2, (((2, 0), 1), ((1, 0), 1)))
    with pytest.raises(ValueError):
        fm.FormSpec(5, 2, 2, (((2, 0), 5),))  # coefficient 0 mod 5


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_homogeneity(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    exps = data.draw(
        st.lists(
            st.lists(st.integers(0, k), min_size=n, max_size=n).filter(
                lambda e: sum(e) == k
            ),
            min_size=1,
            max_size=4,
        )
    )
    monos = {tuple(e): data.draw(st.integers(1, p - 1)) for e in exps}
    F = form(p, n, monos)
    c = data.draw(st.integers(0, p - 1))
    x = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    lhs = fm.eval_form(F, tuple(c * v for v in x))
    rhs = (pow(c, k, p) * fm.eval_form(F, x)) % p
    assert lhs == rhs


def test_eval_form_matches_one_pow_per_monomial_factor():
    # the power lists against the literal sum of coef * prod x_i^e_i
    rng = random.Random(17)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 101])
        n = rng.randint(1, 4)
        k = rng.randint(0, 6)
        homogeneous = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
        exps = {rng.choice(homogeneous) for _ in range(rng.randint(1, 5))}
        F = form(p, n, {e: rng.randint(1, p - 1) for e in exps})
        x = tuple(rng.randint(-3 * p, 3 * p) for _ in range(n))
        want = sum(c * math.prod(pow(v % p, e, p) for v, e in zip(x, exp))
                   for exp, c in F.monomials) % p
        assert fm.eval_form(F, x) == want, (F, x)


# ---------------------------------------------------------------------------
# factor_form: the F_p-irreducible factors, a test-side reading of the
# closure splitting that decompose uses


def orbit_factor_form(orbit, split, F):
    """One Frobenius orbit expanded into an F_p-irreducible factor of F."""
    n, p = F.n, F.p
    ctx = split.ctx
    one = ctx.from_int(1)
    poly = {(0,) * n: one}
    for tail in orbit:
        lin = {fm._unit(n, 0): one}
        for j, coeffs in enumerate(tail, start=1):
            if any(coeffs):
                lin[fm._unit(n, j)] = coeffs
        poly = fm._epoly_mul(poly, lin, ctx)
    monos = fm._prime_field_part(poly, "orbit product")
    factor = fm.FormSpec(p, n, len(orbit), tuple((e, c) for e, (c,) in monos.items()))
    Minv = la.mat_inv([list(r) for r in split.change], p)
    return fm.compose_form(factor, Minv)


def form_product(factors, p, n, k):
    """The product of forms over F_p, taken by fm._epoly_mul over F_p = F_{p^1}."""
    fp = fc.ext_field_ctx(p, 1)
    prod = {(0,) * n: (1,)}
    for f in factors:
        prod = fm._epoly_mul(prod, {e: (c,) for e, c in f.monomials}, fp)
    return fm.FormSpec(p, n, k, tuple((e, c) for e, (c,) in prod.items()))


def factor_form(F):
    """Irreducible factors of F over F_p, with multiplicity, product equal to F.

    The leading constant is folded into the first factor. Raises
    UnsupportedFormError outside the supported classes, and
    linalg.CheckFailed when the factors do not multiply back to F.
    """
    split = fm._closure_split(F)
    factors = []
    for orbit, mult in split.orbits:
        factors.extend([orbit_factor_form(orbit, split, F)] * mult)
    factors.sort(key=fm.form_sort_key)
    if split.c != 1:
        first = factors[0]
        factors[0] = fm.FormSpec(
            F.p, F.n, first.k, tuple((e, (v * split.c) % F.p) for e, v in first.monomials)
        )
    if form_product(factors, F.p, F.n, F.k) != F:
        raise la.CheckFailed("factor product mismatch")
    return factors


def test_factor_X1X2():
    fs = factor_form(form(5, 2, {(1, 1): 1}))
    assert [f.monomials for f in fs] == [(((1, 0), 1),), (((0, 1), 1),)]


def test_factor_sum_of_squares_mod3_irreducible():
    F = form(3, 2, {(2, 0): 1, (0, 2): 1})
    assert factor_form(F) == [F]


def test_factor_sum_of_squares_mod5_splits():
    fs = factor_form(form(5, 2, {(2, 0): 1, (0, 2): 1}))
    assert [f.monomials for f in fs] == [
        (((0, 1), 2), ((1, 0), 1)),  # X1 + 2 X2
        (((0, 1), 3), ((1, 0), 1)),  # X1 + 3 X2
    ]


def test_factor_repeated_and_constant():
    fs = factor_form(form(3, 2, {(2, 1): 2}))
    assert form_product(fs, 3, 2, 3) == form(3, 2, {(2, 1): 2})
    assert len(fs) == 3


def test_factor_unsupported_is_loud():
    F = form(7, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(fm.UnsupportedFormError, match="factorization unsupported"):
        factor_form(F)


def test_compose_form_matches_evaluation_at_mx():
    # k < p: a form of degree k is pinned by its values on F_p^n, so the
    # values of F(Mx) at every x pin every coefficient of compose_form(F, M)
    rng = random.Random(28)
    checked = 0
    while checked < 60:
        p, n = rng.choice((3, 5, 7, 11)), rng.randint(1, 3)
        k = rng.randint(1, p - 1)
        M = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(n)]
        if la.mat_det(M, p) == 0:
            continue
        homogeneous = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
        F = form(p, n, {rng.choice(homogeneous): rng.randint(1, p - 1) for _ in range(4)})
        G = fm.compose_form(F, M)
        assert (G.p, G.n, G.k) == (p, n, k)
        for x in itertools.product(range(p), repeat=n):
            Mx = [sum(a * b for a, b in zip(row, x)) % p for row in M]
            assert fm.eval_form(G, x) == fm.eval_form(F, Mx), (F, M, x)
        checked += 1


def test_compose_form_with_zero_matrix_is_refused():
    F = form(5, 2, {(2, 0): 1, (1, 1): 3})
    with pytest.raises(ValueError, match="form has no nonzero monomials"):
        fm.compose_form(F, [[0, 0], [0, 0]])


def test_prime_field_part_keeps_one_tuples_and_refuses_a_w_part():
    assert fm._prime_field_part({(1, 0): (3, 0, 0), (0, 1): (0, 0, 0)}, "poly") == {
        (1, 0): (3,), (0, 1): (0,)
    }
    with pytest.raises(la.CheckFailed, match="poly left the prime field"):
        fm._prime_field_part({(1, 0): (3, 0), (0, 1): (1, 2)}, "poly")


def first_nonvanishing_by_scan(F):
    """The lexicographic scan of F_p^n that the coordinate search replaced."""
    for w in itertools.product(range(F.p), repeat=F.n):
        if any(w) and fm.eval_form(F, w) != 0:
            return list(w)
    return None


def test_point_search_matches_the_lexicographic_scan():
    rng = random.Random(21)
    checked = 0
    while checked < 300:
        p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        k = rng.randint(1, 2 * p + 1)  # exponents reach p and past it
        monos = {}
        for _ in range(rng.randint(1, 5)):
            cut = sorted(rng.randint(0, k) for _ in range(n - 1))
            exp = tuple(b - a for a, b in zip([0] + cut, cut + [k]))
            monos[exp] = monos.get(exp, 0) + rng.randrange(1, p)
        if all(c % p == 0 for c in monos.values()):
            continue
        F = form(p, n, monos)
        want = first_nonvanishing_by_scan(F)
        if want is None:
            with pytest.raises(fm.UnsupportedFormError, match="vanishes on all of F_p"):
                fm._first_nonvanishing_point(F)
        else:
            assert fm._first_nonvanishing_point(F) == want, (p, n, F.monomials)
        checked += 1


def test_point_search_on_forms_that_vanish_or_nearly_vanish():
    # x^p y - x y^p vanishes on all of F_p^2, and adding y^(p+1) leaves
    # only the points with y != 0
    for p in (2, 3, 5, 7):
        F = form(p, 2, {(p, 1): 1, (1, p): p - 1})
        assert first_nonvanishing_by_scan(F) is None
        with pytest.raises(fm.UnsupportedFormError, match="vanishes on all of F_p"):
            fm._first_nonvanishing_point(F)
        G = form(p, 2, {(p, 1): 1, (1, p): p - 1, (0, p + 1): 1})
        assert fm._first_nonvanishing_point(G) == first_nonvanishing_by_scan(G) == [0, 1]


def test_point_search_on_the_product_form():
    # x_1 ... x_7 over F_7: the scan's first hit is point number (7^7 - 1)/6
    F = form(7, 7, {(1,) * 7: 1})
    assert fm._first_nonvanishing_point(F) == first_nonvanishing_by_scan(F) == [1] * 7


def test_factor_products_agree_pointwise():
    rng = random.Random(5)
    for p, n, monos in [
        (5, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 3}),
        (7, 2, {(3, 0): 2, (0, 3): 1}),
        (11, 2, {(2, 0): 1, (0, 2): 1}),
    ]:
        F = form(p, n, monos)
        fs = factor_form(F)
        for _ in range(50):
            x = tuple(rng.randrange(p) for _ in range(n))
            prod = 1
            for f in fs:
                prod = (prod * fm.eval_form(f, x)) % p
            assert prod == fm.eval_form(F, x)


# ---------------------------------------------------------------------------
# roots in the splitting field: the whole-field scan is the oracle


def eval_poly_ext(ctx, coeffs, x):
    """The F_p polynomial coeffs (low to high) at x, by Horner with the oracle arithmetic."""
    acc = ctx.from_int(0)
    for c in reversed(list(coeffs)):
        acc = fc.ext_add(ctx, fc.ext_mul(ctx, acc, x), ctx.from_int(c))
    return acc


def scan_roots(coeffs, ctx):
    """Every root of coeffs in ctx, evaluated at each element in iter_elements order."""
    return [x for x in ctx.iter_elements() if not any(eval_poly_ext(ctx, coeffs, x))]


def product_of(parts, p):
    """The F_p polynomial prod h over the (d, h) parts of degree_parts, low
    to high: it has the distinct roots of the polynomial split into parts."""
    out = [1]
    for _, h in parts:
        out = [
            sum(out[i] * h[t - i] for i in range(len(out)) if 0 <= t - i < len(h)) % p
            for t in range(len(out) + len(h) - 1)
        ]
    return out


def test_roots_in_matches_scan_on_round_trip_restrictions(monkeypatch):
    # every restriction that closure splitting meets in the round-trip
    # classes, and every embedding root, checked against the scan
    roots_in = fm._roots_in
    seen = []

    def checked(parts, ctx):
        got = roots_in(parts, ctx)
        assert got == scan_roots(product_of(parts, ctx.p), ctx), (parts, ctx)
        seen.append(ctx.m)
        return got

    monkeypatch.setattr(fm, "_roots_in", checked)
    fm._embedding_powers.cache_clear()
    rng = random.Random(404)
    for p in PRIMES:
        for n in (2, 3):
            for part in PARTS_BY_N[n]:
                for _ in range(3):
                    D = fm.random_decomposition(p, n, part, rng)
                    F = fm.synthesize_form(D)
                    assert fm.synthesize_form(fm.decompose(F)) == F
    fm._embedding_powers.cache_clear()
    assert len(seen) >= 120 and set(seen) == {1, 2, 3}


def test_smallest_root_of_every_canonical_subfield_polynomial():
    # the embedding of F_{p^d} into F_{p^K} sends w to the smallest root of
    # its canonical polynomial; all d roots are there, and the first one is
    # the scan's first hit
    checked = 0
    for p in PRIMES:
        K = 1
        while p**K <= 10**4:
            big = fc.ext_field_ctx(p, K)
            for d in (d for d in range(1, K + 1) if K % d == 0):
                sub = fc.ext_field_ctx(p, d)
                roots = fm._roots_in([(d, sub.defining_poly)], big)
                first = next(x for x in big.iter_elements()
                             if not any(eval_poly_ext(big, sub.defining_poly, x)))
                assert len(roots) == d and roots[0] == first, (p, K, d)
                if d > 1 and d < K:
                    assert fm._embedding_powers(sub, big)[1] == first
                checked += 1
            K += 1
    assert checked >= 40


def test_roots_in_outside_the_splitting_field():
    # X^2 + 1 is irreducible mod 3: no root in F_3 or F_27, both in F_9
    irreducible = list(fc.degree_parts((1, 0, 1), 3))
    assert irreducible == [(2, (1, 0, 1))]
    assert fm._roots_in(irreducible, fc.ext_field_ctx(3, 1)) == []
    assert fm._roots_in(irreducible, fc.ext_field_ctx(3, 3)) == []
    F9 = fc.ext_field_ctx(3, 2)
    assert fm._roots_in(irreducible, F9) == scan_roots((1, 0, 1), F9)
    # repeated factors give each root once
    assert fm._roots_in(list(fc.degree_parts((0, 0, 1), 3)), F9) == [(0, 0)]
    # (X + 1)(X^2 + 1)^2 = X^5 + X^4 + 2X^3 + 2X^2 + X + 1 mod 3
    mixed = list(fc.degree_parts((1, 1, 2, 2, 1, 1), 3))
    assert mixed == [(1, (1, 1)), (2, (1, 0, 1))]
    assert fm._roots_in(mixed, F9) == scan_roots((1, 1, 2, 2, 1, 1), F9)
    with pytest.raises(ValueError, match="not monic"):
        next(fc.degree_parts((1, 2), 3))


def test_embedding_is_computed_once_per_field_pair():
    fm._embedding_powers.cache_clear()
    rng = random.Random(8)
    for _ in range(20):
        fm.random_decomposition(5, 3, (2, 1), rng)
    # (F_25, F_25) and (F_5, F_25), however many draws were rejected
    assert fm._embedding_powers.cache_info().misses == 2


# ---------------------------------------------------------------------------
# decompose / verify / synthesize


def test_decompose_split_case():
    for p in (3, 5, 7):
        D = fm.decompose(form(p, 2, {(1, 1): 1}))
        assert D.partition == (1, 1)
        assert D.A == ((1, 0), (0, 1))
        assert all(c.m == 1 for c in D.ctxs)


def test_decompose_sum_of_squares_mod3():
    F = form(3, 2, {(2, 0): 1, (0, 2): 1})
    D = fm.decompose(F)
    assert D.partition == (2,)
    assert D.ctxs[0].defining_poly == (1, 0, 1)
    assert D.blocks[0] == ((1, 0), (0, 1))
    assert fm.verify_decomposition(F, D)


def test_decompose_x2_xy_y2_mod5():
    F = form(5, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    D = fm.decompose(F)
    assert D.partition == (2,)
    assert D.ctxs[0].order == 25
    assert fm.verify_decomposition(F, D)


def test_decompose_rejects_repeated_factor():
    with pytest.raises(fm.RepeatedFactorError):
        fm.decompose(form(3, 2, {(2, 1): 1}))


def test_verify_decomposition_counterexample():
    F = form(3, 2, {(2, 0): 1, (0, 2): 1})
    ctx = fc.ext_field_ctx(3, 2)
    good = fm.NormFormDecomposition(3, 2, (2,), (ctx,), (((1, 0), (0, 1)),))
    bad = fm.NormFormDecomposition(3, 2, (2,), (ctx,), (((1, 1), (0, 1)),))
    assert fm.verify_decomposition(F, good)
    assert not fm.verify_decomposition(F, bad)


def gen_form(tmp_path, p, n, k, seed=1):
    """The form and decomposition that gen-form prints for (p, n, k, seed)."""
    path = tmp_path / f"gen-{p}-{n}-{k}-{seed}.json"
    argv = ["gen-form", "--p", str(p), "--n", str(n), "--k", str(k), "--seed", str(seed),
            "--out", str(path)]
    assert cli.main(argv) == 0
    obj = json.loads(path.read_text())
    return fm.form_from_dict(obj["form"]), fm.decomposition_from_dict(obj["decomposition"])


@pytest.mark.xfail(
    strict=True,
    reason=(
        "verify_decomposition, now only gen-form's cross-check, compares values on "
        "F_p^n, which fixes a form only for k < p: x1 x2 (x1 + x2) is zero on F_2^2 "
        "and x1 x2 (x1^2 - x2^2) on F_3^2, so adding x3 (k = 4) or x1 x3 (k = 5) "
        "times the first to the synthesized form of gen-form --p 2 --n 3 --seed 1, "
        "or the second itself at p = 3, k = 4, gives a different form that is still "
        "accepted; decompose compares coefficients and refuses it"
    ),
)
@pytest.mark.parametrize("p,k,extra", [
    (2, 4, {(2, 1, 1): 1, (1, 2, 1): 1}),
    (2, 5, {(3, 1, 1): 1, (2, 2, 1): 1}),
    (3, 4, {(3, 1, 0): 1, (1, 3, 0): -1}),
])
def test_verify_decomposition_rejects_a_form_that_differs_only_as_a_polynomial(
        tmp_path, p, k, extra):
    F, D = gen_form(tmp_path, p, 3, k)
    G = fm.FormSpec(p, 3, k, F.monomials + tuple(extra.items()))
    assert G != F and fm.verify_decomposition(F, D)
    assert not fm.verify_decomposition(G, D)


@pytest.mark.parametrize("p,k,extra", [
    (2, 4, {(2, 1, 1): 1, (1, 2, 1): 1}),
    (2, 5, {(3, 1, 1): 1, (2, 2, 1): 1}),
    (3, 4, {(3, 1, 0): 1, (1, 3, 0): -1}),
])
def test_decompose_refuses_a_form_that_differs_only_as_a_polynomial(
        monkeypatch, tmp_path, p, k, extra):
    # G agrees with F at every point of F_p^n; handed F's closure split, decompose
    # builds F's decomposition for G, and its expansion differs from G
    F, _ = gen_form(tmp_path, p, 3, k)
    G = fm.FormSpec(p, 3, k, F.monomials + tuple(extra.items()))
    split = fm._closure_split
    monkeypatch.setattr(fm, "_closure_split", lambda H: split(F if H == G else H))
    assert fm.synthesize_form(fm.decompose(F)) == F
    with pytest.raises(la.CheckFailed, match="decomposition failed verification"):
        fm.decompose(G)


def test_synthesize_examples():
    ctx5 = fc.ext_field_ctx(5, 1)
    D = fm.NormFormDecomposition(
        5, 2, (1, 1), (ctx5, ctx5), (((1, 0),), ((0, 1),))
    )
    assert fm.synthesize_form(D) == form(5, 2, {(1, 1): 1})
    ctx9 = fc.ext_field_ctx(3, 2)
    D2 = fm.NormFormDecomposition(3, 2, (2,), (ctx9,), (((1, 0), (0, 1)),))
    assert fm.synthesize_form(D2) == form(3, 2, {(2, 0): 1, (0, 2): 1})


def test_synthesize_form_refuses_past_its_estimate_before_expanding(monkeypatch):
    # a dense draw is priced at C(n + k - 1, k); blocks that read v_i of the n
    # variables at the product of C(v_i + k_i - 1, k_i) when that is smaller
    def never(*args):
        raise AssertionError("synthesize_form expanded past its cap")

    monkeypatch.setattr(fm, "_epoly_mul", never)
    D = fm.random_decomposition(13, 8, (2,) * 6, random.Random(5))
    assert all(all(map(any, zip(*U))) for U in D.blocks)
    with pytest.raises(ValueError, match=(
            "expanding a degree-12 form in 8 variables may take 50388 monomials, "
            f"over the cap {fm.EXPANSION_CAP}")):
        fm.synthesize_form(D)
    # six blocks of degree 3 in ten variables, each reading three: C(5, 3)^6 < C(27, 18)
    blocks = [[[int(j == 3 * (i % 3) + r) for j in range(10)] for r in range(3)] for i in range(6)]
    D = fm.NormFormDecomposition(13, 10, (3,) * 6, (fc.ext_field_ctx(13, 3),) * 6, blocks)
    assert math.comb(27, 18) > 10**6
    with pytest.raises(ValueError, match="may take 1000000 monomials"):
        fm.synthesize_form(D)


def test_synthesize_decompose_round_trip_50():
    rng = random.Random(99)
    count = 0
    cases = [(3, (2,)), (3, (1, 1)), (5, (2, 1)), (5, (3,)), (7, (1, 1, 1)), (7, (2,))]
    while count < 50:
        p, part = cases[count % len(cases)]
        D = fm.random_decomposition(p, sum(part), part, rng)
        F = fm.synthesize_form(D)
        D2 = fm.decompose(F)
        assert fm.verify_decomposition(F, D2)
        assert fm.synthesize_form(D2) == F
        count += 1


@pytest.mark.xfail(
    strict=True,
    raises=fm.UnsupportedFormError,
    reason=(
        "gen-form --p 2 --n 4 --k 7 --seed 1 draws partition (4, 1, 1, 1) with "
        "linear blocks (0, 1, 0, 1), (1, 0, 0, 0) and (1, 1, 0, 1) = their sum, so "
        "L1 L2 (L1 + L2) is zero on F_2^4 and so is the form; decompose finds no "
        "point where it is nonzero, and no change of variables over F_p can give "
        "X_1^k a nonzero coefficient. 7 of 324 round trips at seeds 1-12, "
        "p in {2, 3, 5}, 2 <= n <= 4, n <= k < 2n fail so, all at p = 2, n = 4"
    ),
)
def test_gen_form_round_trips_when_its_form_vanishes_on_all_of_F2_n(tmp_path):
    F, D = gen_form(tmp_path, 2, 4, 7)
    assert D.partition == (4, 1, 1, 1)
    assert fm.verify_decomposition(F, fm.decompose(F))


def test_decompose_round_trips_every_gen_form_draw_that_is_nonzero_somewhere(tmp_path, capsys):
    # seeds 1-12, p in {2, 3, 5}, 2 <= n <= 4, n <= k < 2n through the CLI; the
    # only refusals are the draws that vanish on all of F_2^4
    refused, trips = [], 0
    for seed, p, n in itertools.product(range(1, 13), (2, 3, 5), (2, 3, 4)):
        for k in range(n, 2 * n):
            F, _ = gen_form(tmp_path, p, n, k, seed)
            # decompose reads the form from the object gen-form wrote
            printed, path = tmp_path / f"gen-{p}-{n}-{k}-{seed}.json", tmp_path / "decomposition.json"
            capsys.readouterr()
            code = cli.main(["decompose", "--form", str(printed), "--out", str(path)])
            if code:
                assert (code, capsys.readouterr().err) == (2, (
                    "usage error: factorization unsupported: form vanishes on all of F_p^n\n"))
                refused.append((p, n, k))
                continue
            D = fm.decomposition_from_dict(json.loads(path.read_text()))
            assert fm.synthesize_form(D) == F, (seed, p, n, k)
            trips += 1
    assert trips == 317 and len(refused) == 7
    assert {(p, n) for p, n, _ in refused} == {(2, 4)} and {k for *_, k in refused} == {5, 6, 7}


def test_decompose_takes_a_form_past_the_dense_expansion_cap():
    # x_1 ... x_12 over F_7: C(23, 12) = 1,352,078 monomials for a dense degree-12
    # form in 12 variables, but every block here reads one variable
    F = form(7, 12, {(1,) * 12: 1})
    assert math.comb(23, 12) > fm.EXPANSION_CAP
    D = fm.decompose(F)
    assert D.partition == (1,) * 12 and fm.synthesize_form(D) == F


def test_decompose_absorbs_leading_constant():
    F = form(5, 2, {(1, 1): 2})
    D = fm.decompose(F)
    assert fm.verify_decomposition(F, D)
    F2 = form(7, 2, {(2, 0): 3, (0, 2): 3})  # 3(X1^2+X2^2), X^2+1 irred mod 7
    D2 = fm.decompose(F2)
    assert fm.verify_decomposition(F2, D2)


def test_closure_split_factors_each_restriction_once(monkeypatch):
    # one degree_parts split per restriction, and none for an embedding:
    # ExtFieldCtx has already proved its defining polynomial irreducible.
    # Every context is built before the spy, whose irreducibility test
    # also splits.
    rng = random.Random(41)
    forms = []
    for p, n, part in ((5, 1, (1,)), (3, 2, (2,)), (7, 2, (2, 1)), (5, 3, (3,)),
                       (3, 3, (2, 1)), (5, 3, (2, 1, 1))):
        forms.append((fm.synthesize_form(fm.random_decomposition(p, n, part, rng)), part))
        fc.ext_field_ctx(p, math.lcm(*part))
    pairs = [(fc.ext_field_ctx(p, d), fc.ext_field_ctx(p, K))
             for p in (2, 3, 5) for K, d in ((2, 1), (2, 2), (4, 2), (6, 3))]
    degree_parts = fc.degree_parts
    calls = []

    def counted(coeffs, p):
        calls.append(tuple(coeffs))
        return degree_parts(coeffs, p)

    monkeypatch.setattr(fc, "degree_parts", counted)
    for F, part in forms:
        calls.clear()
        fm._closure_split(F)
        assert len(calls) == F.n - 1, (F.p, F.n, part)
    fm._embedding_powers.cache_clear()
    calls.clear()
    for sub, big in pairs:
        fm._embedding_powers(sub, big)
    fm._embedding_powers.cache_clear()
    assert calls == []


def test_closure_split_of_one_variable():
    # c X^k splits into one orbit, the empty tail, of multiplicity k over F_p
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            for c in range(1, p):
                split = fm._closure_split(form(p, 1, {(k,): c}))
                want = fm.ClosureSplitting(c, fc.ext_field_ctx(p, 1), ((1,),), ((((),), k),))
                assert split == want, (p, k, c)


def closure_split_by_product(F):
    """The oracle: fm._closure_split as it searched by trying every tuple of
    the restrictions' negated roots on the whole form, then grouped the
    factors found into Frobenius orbits."""
    p, n, k = F.p, F.n, F.k
    M = fm._leading_change(F)
    G = fm.compose_form(F, M)
    c = G.coefficient((k,) + (0,) * (n - 1))
    if c == 0:
        raise la.CheckFailed("change of variables left the X_1^k coefficient zero")
    G = fm.FormSpec(p, n, k, tuple((e, (v * la.inv_mod(c, p)) % p) for e, v in G.monomials))
    parts = [list(fc.degree_parts(fm._restriction(G, j), p)) for j in range(1, n)]
    K = math.lcm(*(d for restriction in parts for d, _ in restriction))
    if not fc.field_fits(p, K):
        raise fm.UnsupportedFormError(
            f"factorization unsupported: splitting field {p}^{K} exceeds cap {fc.FIELD_SIZE_CAP}"
        )
    ctx = fc.ext_field_ctx(p, K)
    one = ctx.from_int(1)
    candidates = [[tuple(-v % p for v in r) for r in fm._roots_in(rp, ctx)] for rp in parts]
    rem = {e: (v,) + one[1:] for e, v in G.monomials}
    mult_of = {}
    for tail in itertools.product(*candidates):
        b = (one,) + tail
        mult = 0
        while (q := fm._divide_by_linear(rem, b, ctx, n)) is not None:
            rem = q
            mult += 1
        if mult:
            mult_of[b] = mult
    matched = sum(mult_of.values())
    if matched != k or rem != {(0,) * n: one}:
        raise fm.UnsupportedFormError(
            "factorization unsupported: form does not split into linear factors "
            f"over the splitting field of size {p**K} (matched degree {matched} of {k})"
        )
    orbits = []
    seen = set()
    for b in mult_of:
        if b in seen:
            continue
        orbit = []
        while b not in seen:
            seen.add(b)
            orbit.append(b)
            b = tuple(fc.pow_coeffs(ctx, x, p) for x in b)
        orbit_mults = {mult_of.get(ob) for ob in orbit}
        if len(orbit_mults) != 1:
            raise la.CheckFailed("conjugate factors must share multiplicity")
        orbits.append((tuple(ob[1:] for ob in orbit), orbit_mults.pop()))
    return fm.ClosureSplitting(c, ctx, tuple(tuple(row) for row in M), tuple(orbits))


def split_or_error(split, F):
    """split(F), or the type and message of what it raised."""
    try:
        return split(F)
    except (ValueError, la.CheckFailed) as exc:
        return type(exc), str(exc)


def random_form(rng):
    """A random form over F_p with p <= 7, n <= 4 and k <= 5, mostly outside
    the supported class: a product of random factors, the last on about two
    thirds of its monomials and any earlier one on at most three, so that
    repeated factors come now and then."""
    p, n, k = rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3, 3, 4, 4)), rng.randint(1, 5)
    factors, left = [], k
    while left:
        d = rng.randint(1, left) if rng.random() < 0.25 else left
        homogeneous = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        keep = 3 if d < left else len(homogeneous)
        monos = {rng.choice(homogeneous): rng.randint(1, p - 1) for _ in range(keep)}
        factors.append(fm.FormSpec(p, n, d, tuple(monos.items())))
        left -= d
    return form_product(factors, p, n, k)


def test_closure_split_matches_the_product_search():
    # the same orbits in the same order, or the same refusal, as trying every
    # tuple: on the round-trip forms and on random forms
    rng = random.Random(99)
    cases = [(3, (2,)), (3, (1, 1)), (5, (2, 1)), (5, (3,)), (7, (1, 1, 1)), (7, (2,))]
    forms = [fm.synthesize_form(fm.random_decomposition(p, sum(part), part, rng))
             for p, part in (cases[i % len(cases)] for i in range(50))]
    rng = random.Random(39)
    forms += [random_form(rng) for _ in range(200)]
    outcomes = collections.Counter()
    for F in forms:
        got = split_or_error(fm._closure_split, F)
        assert got == split_or_error(closure_split_by_product, F), F
        outcomes[got[0] if isinstance(got, tuple) else fm.ClosureSplitting] += 1
    assert outcomes[fm.ClosureSplitting] >= 50 and outcomes[fm.UnsupportedFormError] >= 100


def counted_divisions(monkeypatch, refuse=lambda b: False):
    """Spy on fm._divide_by_linear: the list of divisor tuples it is asked
    for; a divisor that refuse accepts leaves a remainder."""
    divide, calls = fm._divide_by_linear, []

    def spy(poly, b, ctx, n):
        calls.append(b)
        return None if refuse(b) else divide(poly, b, ctx, n)

    monkeypatch.setattr(fm, "_divide_by_linear", spy)
    return calls


def test_closure_split_divides_polynomially_often(monkeypatch, tmp_path):
    # at most k tails live per coordinate, so (n - 2) k^2 divisions of
    # restricted forms and k^2 + 2k of the whole form; trying every tuple
    # made 18,824 on this form of 1,179 monomials
    path = tmp_path / "form.json"
    argv = ["gen-form", "--p", "13", "--n", "6", "--k", "8", "--seed", "1", "--out", str(path)]
    assert cli.main(argv) == 0
    F = fm.form_from_dict(json.loads(path.read_text())["form"])
    calls = counted_divisions(monkeypatch)
    split = fm._closure_split(F)
    assert sum(len(orbit) * mult for orbit, mult in split.orbits) == F.k
    assert len(calls) <= (F.n - 1) * F.k**2 + 2 * F.k == 336


def test_closure_split_fails_closed_on_a_conjugate_that_does_not_divide(monkeypatch):
    # X1^2 + X2^2 is irreducible mod 3: one orbit of two conjugate factors
    F = form(3, 2, {(2, 0): 1, (0, 2): 1})
    (orbit, mult), = fm._closure_split(F).orbits
    assert (len(orbit), mult) == (2, 1)
    one = fc.ext_field_ctx(3, 2).from_int(1)
    calls = counted_divisions(monkeypatch, refuse=lambda b: b == (one,) + orbit[1])
    with pytest.raises(la.CheckFailed, match="conjugate factors must share multiplicity"):
        fm._closure_split(F)
    assert calls[-1] == (one,) + orbit[1]


def check_stacked_ranks(D):
    """The all-subsets oracle: every stack of blocks has rank min(sum k_i, n)."""
    for size in range(1, D.s + 1):
        for subset in itertools.combinations(range(D.s), size):
            rows = [list(row) for i in subset for row in D.blocks[i]]
            want = min(sum(D.partition[i] for i in subset), D.n)
            if la.mat_rank(rows, D.p) != want:
                raise fm.RankConditionError(f"stacked blocks {subset} have rank below {want}")


def oracle_ranks_hold(D):
    """Each block has rank min(k_i, n) and, when n = k, so does every stack."""
    if any(la.mat_rank(U, D.p) != min(ki, D.n) for ki, U in zip(D.partition, D.blocks)):
        return False
    if D.n == D.k:
        try:
            check_stacked_ranks(D)
        except fm.RankConditionError:
            return False
    return True


def test_ranks_hold_matches_the_all_subsets_oracle():
    rng = random.Random(43)
    held = failed = 0
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for k in range(n, 2 * n):
                for part in hn.square_partitions(k):
                    ctxs = tuple(fc.ext_field_ctx(p, ki) for ki in part)
                    for _ in range(4):
                        blocks = tuple(
                            tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(ki))
                            for ki in part
                        )
                        D = fm.NormFormDecomposition(p, n, part, ctxs, blocks)
                        want = oracle_ranks_hold(D)
                        assert fm._ranks_hold(D) is want, (p, part, blocks)
                        held += want
                        failed += not want
    assert held >= 50 and failed >= 50


def test_dependent_stack_fails_the_rank_rule():
    # X1, X2 and X1 + X2: each block has rank 1, the stack only rank 2 < n = 3
    ctx = fc.ext_field_ctx(5, 1)
    blocks = (((1, 0, 0),), ((0, 1, 0),), ((1, 1, 0),))
    D = fm.NormFormDecomposition(5, 3, (1, 1, 1), (ctx,) * 3, blocks)
    assert not fm._ranks_hold(D)
    with pytest.raises(fm.RankConditionError, match="rank below 3"):
        check_stacked_ranks(D)
    F = fm.synthesize_form(D)
    assert F == form(5, 3, {(2, 1, 0): 1, (1, 2, 0): 1})
    with pytest.raises(fm.RankConditionError, match=r"stacked blocks \(0, 1, 2\) have rank below 3"):
        fm.decompose(F)


def test_ranks_hold_takes_one_rank_per_block_and_one_for_the_stack(monkeypatch):
    s = 20
    ctx = fc.ext_field_ctx(3, 1)
    blocks = tuple((tuple(int(j == i) for j in range(s)),) for i in range(s))
    D = fm.NormFormDecomposition(3, s, (1,) * s, (ctx,) * s, blocks)
    mat_rank = la.mat_rank
    calls = []

    def counted(A, p):
        calls.append(len(A))
        return mat_rank(A, p)

    monkeypatch.setattr(la, "mat_rank", counted)
    assert fm._ranks_hold(D)
    assert len(calls) <= s + 1


def test_decompose_checks_ranks_once(monkeypatch):
    check, calls = fm._check_ranks, []
    monkeypatch.setattr(fm, "_check_ranks", lambda D: calls.append(D) or check(D))
    D = fm.decompose(form(5, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}))
    assert calls == [D]


def test_decompose_expands_each_block_norm_once(monkeypatch, tmp_path):
    # the (13, 5, 6) gen-form draw, whose leading constant c != 1 scales the
    # first block, expanded again alone; divided by c, the form has c = 1
    F, _ = gen_form(tmp_path, 13, 5, 6)
    c = fm._closure_split(F).c
    G = fm.FormSpec(F.p, F.n, F.k, tuple((e, v * la.inv_mod(c, F.p)) for e, v in F.monomials))
    assert c != 1 and fm._closure_split(G).c == 1
    block_norm, calls = fm._block_norm, []
    monkeypatch.setattr(fm, "_block_norm", lambda *a: calls.append(a) or block_norm(*a))
    for H, extra in ((F, 1), (G, 0)):
        calls.clear()
        D = fm.decompose(H)
        assert D.s >= 2 and len(calls) == D.s + extra
        assert fm.synthesize_form(D) == H


def test_decompose_refuses_past_the_cap_before_expanding_a_block(monkeypatch, tmp_path):
    F, _ = gen_form(tmp_path, 13, 5, 6)
    D = fm.decompose(F)
    estimate = min(math.comb(D.n + D.k - 1, D.k), math.prod(
        math.comb(sum(map(any, zip(*U))) + ki - 1, ki) for ki, U in zip(D.partition, D.blocks)))

    def never(*args):
        raise AssertionError("decompose expanded a block past the cap")

    monkeypatch.setattr(fm, "_block_norm", never)
    monkeypatch.setattr(fm, "EXPANSION_CAP", estimate - 1)
    with pytest.raises(ValueError, match=f"may take {estimate} monomials, over the cap"):
        fm.decompose(F)


def test_lambda_linearity_and_kernel():
    rng = random.Random(31)
    for p, part in [(5, (2, 1)), (7, (3,)), (3, (1, 1))]:
        n = sum(part)
        D = fm.random_decomposition(p, n, part, rng)
        for _ in range(25):
            x = [rng.randrange(p) for _ in range(n)]
            y = [rng.randrange(p) for _ in range(n)]
            c = rng.randrange(p)
            for i in range(D.s):
                lx, ly = D.lam(i, x), D.lam(i, y)
                ctx = D.ctxs[i]
                assert D.lam(i, [(a + b) % p for a, b in zip(x, y)]) == fc.ext_add(ctx, lx, ly)
                assert D.lam(i, [(c * a) % p for a in x]) == tuple(c * v % p for v in lx)


def test_lambda_vanishing_iff_zero_when_square():
    rng = random.Random(32)
    for p, part in [(3, (2, 1)), (5, (2,)), (7, (1, 1))]:
        n = sum(part)
        D = fm.random_decomposition(p, n, part, rng)
        import itertools

        for x in itertools.product(range(p), repeat=n):
            all_zero = not any(any(D.lam(i, x)) for i in range(D.s))
            assert all_zero == (all(v == 0 for v in x))


# ---------------------------------------------------------------------------
# JSON round trips


def test_form_json_round_trip(tmp_path):
    F = form(7, 3, {(2, 1, 0): 3, (0, 1, 2): 6})
    d = fm.form_to_dict(F)
    path = tmp_path / "form.json"
    save_json(d, str(path))
    loaded = fm.load_json(str(path))
    assert fm.form_from_dict(loaded) == F
    save_json(loaded, str(path) + ".again")
    assert path.read_bytes() == (tmp_path / "form.json.again").read_bytes()
    assert json.loads(path.read_text())["p"] == 7


def test_decomposition_json_round_trip(tmp_path):
    rng = random.Random(12)
    D = fm.random_decomposition(5, 3, (2, 1), rng)
    d = fm.decomposition_to_dict(D)
    path = tmp_path / "decomp.json"
    save_json(d, str(path))
    D2 = fm.decomposition_from_dict(fm.load_json(str(path)))
    assert D2 == D
    save_json(fm.decomposition_to_dict(D2), str(path) + ".again")
    assert path.read_bytes() == (tmp_path / "decomp.json.again").read_bytes()


def test_value_is_the_product_of_conjugate_norms():
    # D.value runs the norm kernels on unreduced block coordinates; the
    # oracle builds lambda_i(x) as a field element and multiplies its
    # Frobenius conjugates
    rng = random.Random(13)
    for p in (3, 5):
        for n in (1, 2, 3):
            for k in range(n, 2 * n):
                for part in hn.square_partitions(k):
                    ctxs = tuple(fc.ext_field_ctx(p, ki) for ki in part)
                    blocks = tuple(
                        tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(ki))
                        for ki in part
                    )
                    D = fm.NormFormDecomposition(p, n, part, ctxs, blocks)
                    shifted = [
                        tuple(rng.randint(-3 * p, 3 * p) for _ in range(n)) for _ in range(5)
                    ]
                    for x in [*itertools.product(range(p), repeat=n), *shifted]:
                        want = math.prod(
                            fc.norm_via_conjugates(ctx, D.lam(i, x))
                            for i, ctx in enumerate(D.ctxs)
                        ) % p
                        assert D.value(x) == want, (p, part, blocks, x)


# ---------------------------------------------------------------------------
# whole-box evaluation, one list per plane of the last two axes

LINE_PARTITIONS = ((2, 1), (1, 1), (2, 1, 1), (3, 1, 1), (1, 1, 1), (4, 1))


def literal_form_value(F, x):
    return sum(c * math.prod(v**e for v, e in zip(x, exp)) for exp, c in F.monomials) % F.p


def line_test_boxes(n, rng):
    """A box with negative starts, one with a side of 1 on the last axis and,
    for n > 1, one with a side of 1 on the first axis."""
    sides = [rng.randint(2, 4) for _ in range(n)]
    boxes = [
        fm.BoxSpec(tuple(rng.randint(-90, -1) for _ in range(n)), sides),
        fm.BoxSpec(tuple(rng.randint(-40, 40) for _ in range(n)), sides[:-1] + [1]),
    ]
    if n > 1:
        boxes.append(fm.BoxSpec(tuple(rng.randint(-40, 40) for _ in range(n)), [1] + sides[1:]))
    return boxes


def check_plane_shape(planes, B):
    """B is one piece: one list per plane of its last two axes, the single
    row of its last axis at n = 1."""
    assert len(planes) == math.prod(B.H[:-2])
    assert all(len(plane) == math.prod(B.H[-2:]) for plane in planes)


def assert_form_values_literal(F, B):
    planes = list(fm.form_values(F, B))
    check_plane_shape(planes, B)
    want = [literal_form_value(F, x) for x in B.iter_points()]
    assert list(itertools.chain.from_iterable(planes)) == want, (F, B)


def test_form_values_match_the_literal_monomial_sum():
    rng = random.Random(29)
    for p, n, part in itertools.product((2, 3, 5, 37), (1, 2, 3), LINE_PARTITIONS):
        k = sum(part)
        exps = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
        forms = [
            form(p, n, {e: rng.randint(1, p - 1) for e in rng.sample(exps, min(len(exps), 3))}),
            form(p, n, {e: rng.randint(1, p - 1) for e in exps}),
        ]
        for F, B in itertools.product(forms, line_test_boxes(n, rng)):
            assert_form_values_literal(F, B)
    with pytest.raises(ValueError, match="arity"):
        next(fm.form_values(forms[0], fm.BoxSpec((0,), (2,))))


def test_decomposition_values_match_value_point_by_point():
    # (1, 1, 1) is a line with no kernel call, (4, 1) the m = 4 kernel beside a
    # progression; 37^4 is past the field cap
    rng = random.Random(31)
    for p, n, part in itertools.product((2, 3, 5, 37), (1, 2, 3), LINE_PARTITIONS):
        if p ** max(part) > fc.FIELD_SIZE_CAP:
            continue
        ctxs = tuple(fc.ext_field_ctx(p, ki) for ki in part)
        blocks = tuple(
            tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(ki)) for ki in part
        )
        D = fm.NormFormDecomposition(p, n, part, ctxs, blocks)
        for B in line_test_boxes(n, rng):
            planes = list(D.values(B))
            check_plane_shape(planes, B)
            want = [D.value(x) for x in B.iter_points()]
            assert list(itertools.chain.from_iterable(planes)) == want, (p, part, blocks, B)
    with pytest.raises(ValueError, match="arity"):
        next(D.values(fm.BoxSpec((0,), (2,))))


LARGE_P = 999_983  # the largest prime below 10^6


@pytest.mark.parametrize("k", [1, 4, 9])
def test_form_values_at_a_large_prime_with_digits_near_the_bound(k):
    # at x1 = 1 the line coefficients of F are its coefficients p - 1, and at
    # x2 = -1 mod p the powers of x2 alternate between 1 and p - 1, so a
    # line's packed digit reaches about (k + 1)(p - 1)^2 / 2
    p, rng = LARGE_P, random.Random(43 + k)
    exps = [(k - j, j) for j in range(k + 1)]
    dense = form(p, 2, {e: p - 1 for e in exps})
    digit = sum((p - 1) * pow(p - 1, j, p) for j in range(k + 1))
    assert 3 * digit >= (k + 1) * (p - 1) ** 2 > digit
    boxes = [fm.BoxSpec((0, p - 4), (1, 7)), fm.BoxSpec((-p - 1, -8), (3, 9))]
    for F in (dense, form(p, 2, {e: rng.randrange(1, p) for e in exps})):
        for B in boxes:
            assert_form_values_literal(F, B)
    trio = [e for e in itertools.product(range(k + 1), repeat=3) if sum(e) == k]
    F = form(p, 3, {e: rng.randrange(p - 9, p) for e in trio})
    assert_form_values_literal(F, fm.BoxSpec((p - 3, -2, p - 5), (2, 3, 8)))


@pytest.mark.parametrize("p", [2, 3])
def test_form_values_on_lines_longer_than_p(p):
    # the line's x_n = t repeats mod p, and so do the digits of each power
    rng = random.Random(47 + p)
    for n, part in itertools.product((1, 2, 3), LINE_PARTITIONS):
        k = sum(part)
        exps = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
        F = form(p, n, {e: rng.randint(1, p - 1) for e in exps})
        B = fm.BoxSpec(tuple(rng.randint(-9, 0) for _ in range(n)), (2,) * (n - 1) + (4 * p + 3,))
        assert_form_values_literal(F, B)


def prime_at_most(v):
    return next(q for q in range(v, 1, -1) if la.is_prime(q))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_values_match_the_literal_sum_at_primes_up_to_10_6(data):
    p = data.draw(st.integers(2, 10**6).map(prime_at_most), label="p")
    n = data.draw(st.integers(1, 3), label="n")
    k = data.draw(st.integers(0, 6), label="k")
    exps = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    chosen = data.draw(st.lists(st.sampled_from(exps), min_size=1, unique=True), label="exps")
    coefs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(chosen),
                               max_size=len(chosen)), label="coefs")
    N = data.draw(st.tuples(*[st.integers(-2 * 10**6, -1)] * n), label="N")
    H = data.draw(st.tuples(*[st.integers(1, 6)] * n), label="H")
    assert_form_values_literal(form(p, n, dict(zip(chosen, coefs))), fm.BoxSpec(N, H))


PLANE_PRIMES = (2, 3, 5, 7, 13, 37)


def plane_shapes():
    """(n, partition) for n <= 4: every canonical shape and every one of LINE_PARTITIONS."""
    for n in range(1, 5):
        canonical = {hn.canonical_partition(n, k) for k in range(n, 2 * n)}
        for part in sorted(canonical | set(LINE_PARTITIONS)):
            yield n, part


def random_pair(p, n, part, rng):
    """A decomposition with uniform blocks, none zero, and its synthesized form."""
    ctxs = tuple(fc.ext_field_ctx(p, ki) for ki in part)
    while True:
        blocks = tuple(
            tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(ki)) for ki in part
        )
        if all(any(map(any, U)) for U in blocks):
            D = fm.NormFormDecomposition(p, n, part, ctxs, blocks)
            return D, fm.synthesize_form(D)


def plane_test_boxes(n, rng):
    """One-piece boxes: planes of 4 x 5 points, more than the 15 grid nodes
    of a degree-4 block; planes of one row of 7 points; 2 x 2 planes, fewer
    than the 6 nodes of a degree-2 block; and 7 x 1 planes, a last side of 1."""
    def start():
        return tuple(rng.randint(-60, 60) for _ in range(n))

    if n == 1:
        return [fm.BoxSpec(start(), (7,)), fm.BoxSpec(start(), (3,)), fm.BoxSpec(start(), (1,))]
    prefix = [rng.randint(1, 2) for _ in range(n - 2)]
    return [fm.BoxSpec(start(), prefix + plane) for plane in ([4, 5], [1, 7], [2, 2], [7, 1])]


def spy_block_routes(monkeypatch):
    """Wrap the interpolation and the per-point kernel coordinates to log
    (block degree, points in the plane) for each block a plane puts there."""
    routes = {"interpolated": [], "kernel": []}
    plane_norm, plane_coords = fm._plane_norm, fm._plane_coords

    def interpolated(norm, coords, *layout):
        routes["interpolated"].append(len(coords))
        return plane_norm(norm, coords, *layout)

    def kernel(coords, S, T):
        routes["kernel"].append((len(coords), len(S or (0,)) * len(T)))
        return plane_coords(coords, S, T)

    monkeypatch.setattr(fm, "_plane_norm", interpolated)
    monkeypatch.setattr(fm, "_plane_coords", kernel)
    return routes


@pytest.mark.parametrize("p", PLANE_PRIMES)
def test_plane_evaluators_match_eval_form_and_value_at_every_point(monkeypatch, p):
    # both evaluators against the per-point oracles at every point; each
    # block of degree m >= 2 is interpolated exactly when m < p and its plane
    # has more points than the m-grid, else its kernel runs at every point
    rng = random.Random(53 + p)
    routes, seen = spy_block_routes(monkeypatch), set()
    for n, part in plane_shapes():
        if p ** max(part) > fc.FIELD_SIZE_CAP:
            continue
        D, F = random_pair(p, n, part, rng)
        for B in plane_test_boxes(n, rng):
            del routes["interpolated"][:], routes["kernel"][:]
            want = [fm.eval_form(F, x) for x in B.iter_points()]
            assert want == [D.value(x) for x in B.iter_points()], (p, part, D.blocks)
            for planes in (list(fm.form_values(F, B)), list(D.values(B))):
                check_plane_shape(planes, B)
                assert list(itertools.chain.from_iterable(planes)) == want, (p, part, B)
            rows = n > 1 and B.H[-2] > 1
            nodes = {m: (m + 1) * (m + 2) // 2 if rows else m + 1 for m in part}
            size = math.prod(B.H[-2:])
            planes = math.prod(B.H[:-2])
            assert sorted(routes["interpolated"]) == sorted(
                [m for m in part if 1 < m < p and size > nodes[m]] * planes)
            assert sorted(routes["kernel"]) == sorted(
                [(m, size) for m in part if m > 1 and (m >= p or size <= nodes[m])] * planes)
            seen.update(f"interpolated {m}" for m in routes["interpolated"])
            seen.update("kernel, m >= p" if m >= p else "kernel, small plane"
                        for m, _ in routes["kernel"])
    # 37^4 is past the field cap
    assert seen == {
        2: {"kernel, m >= p"},
        3: {"interpolated 2", "kernel, m >= p", "kernel, small plane"},
        37: {"interpolated 2", "interpolated 3", "kernel, small plane"},
    }.get(p, {"interpolated 2", "interpolated 3", "interpolated 4", "kernel, small plane"})


@pytest.mark.parametrize("side", [1, 2, 3, 7])
def test_plane_evaluators_on_boxes_cut_into_pieces(monkeypatch, side):
    # a small PIECE_SIDE cuts every box below into pieces with at most side
    # points in a plane: the values come piece by piece, in each piece's
    # iter_points order
    monkeypatch.setattr(fm, "PIECE_SIDE", side)
    rng = random.Random(59 + side)
    for p, n, part in ((13, 1, (1,)), (7, 2, (2, 1)), (5, 3, (2, 1)), (3, 3, (3, 1)),
                       (5, 4, (2, 1, 1, 1))):
        D, F = random_pair(p, n, part, rng)
        B = fm.BoxSpec(tuple(rng.randint(-9, 9) for _ in range(n)), (3, 4, 5, 8)[-n:])
        pieces = list(fm._plane_pieces(B))
        assert all(max(P.H) <= side and math.prod(P.H[-2:]) <= side for P in pieces)
        assert sorted(x for P in pieces for x in P.iter_points()) == list(B.iter_points())
        points = [x for P in pieces for x in P.iter_points()]
        for planes, oracle in ((list(fm.form_values(F, B)), functools.partial(fm.eval_form, F)),
                               (list(D.values(B)), D.value)):
            assert all(len(plane) <= side for plane in planes)
            assert list(itertools.chain.from_iterable(planes)) == list(map(oracle, points))


def test_a_box_of_side_5000_has_planes_of_at_most_piece_side_points():
    # at n = 2 a side of 5,000 is cut: along x_2 into rows of PIECE_SIDE
    # points, along x_1 into planes of PIECE_SIDE // 3 rows of 3 points
    rng = random.Random(61)
    D, F = random_pair(13, 2, (2, 1), rng)
    for H in ((3, 5000), (5000, 3)):
        B = fm.BoxSpec((-2, 7), H)
        points = [x for P in fm._plane_pieces(B) for x in P.iter_points()]
        assert len(points) == B.volume
        for planes, oracle in ((list(fm.form_values(F, B)), functools.partial(fm.eval_form, F)),
                               (list(D.values(B)), D.value)):
            assert max(map(len, planes)) <= fm.PIECE_SIDE
            assert list(itertools.chain.from_iterable(planes)) == list(map(oracle, points))


def test_the_digit_width_holds_the_plane_digit_bound_at_p_2():
    # at p = 2 every coefficient and power is 1 at x = (1, 1), so a dense form
    # of degree 22 packs 276 = C(24, 2) terms into that digit: 9 bits, one
    # more than a byte
    p, k = 2, 22
    F = form(p, 2, {(a, k - a): 1 for a in range(k + 1)})
    assert fm._plane_code(p, k, True) == "H"
    assert (k + 1) * (k + 2) // 2 == 276 and fm._plane_code(p, 8, True) == "B"
    for B in (fm.BoxSpec((0, 0), (2, 2)), fm.BoxSpec((-3, -1), (5, 4))):
        assert_form_values_literal(F, B)


def test_a_wrong_packed_value_fails_each_planes_spot_check(monkeypatch):
    # every packed residue moved by 1: each route's first plane raises
    # against eval_form or D.value, which do not pack
    rng = random.Random(67)
    plane_values = fm._plane_values

    def shifted(coeffs, packed, code, size, p):
        return [(v + 1) % p for v in plane_values(coeffs, packed, code, size, p)]

    monkeypatch.setattr(fm, "_plane_values", shifted)
    for p, n, part in ((7, 1, (1,)), (5, 2, (2, 1)), (3, 3, (3, 1))):
        D, F = random_pair(p, n, part, rng)
        B = fm.BoxSpec((0,) * n, (3,) * n)
        for planes in (fm.form_values(F, B), D.values(B)):
            with pytest.raises(la.CheckFailed, match="packed value"):
                next(planes)


def test_form_values_refuses_digits_past_2_64_before_any_power_row(monkeypatch, tmp_path,
                                                                  capsys):
    # the least degree whose digit bound (k + 1)(p - 1)^2 reaches 2^64
    p = LARGE_P
    k = -(-(1 << 64) // (p - 1) ** 2) - 1
    assert k * (p - 1) ** 2 < 1 << 64 <= (k + 1) * (p - 1) ** 2

    def never(*args):
        raise AssertionError("a power row was built")

    monkeypatch.setattr(fm, "_power_rows", never)
    F = form(p, 1, {(k,): 1})
    with pytest.raises(ValueError, match="reaches 2\\^64"):
        next(fm.form_values(F, fm.BoxSpec((-1,), (3,))))
    path = tmp_path / "form.json"
    save_json(fm.form_to_dict(F), str(path))
    assert cli.main(["charsum", "--form", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


BOX_SHAPES = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(
        st.tuples(*[st.integers(-5, 5)] * dim), st.tuples(*[st.integers(1, 9)] * dim)
    )
)


def assert_pieces_cover(B, side):
    pieces = list(B.pieces(side))
    assert all(max(P.H) <= side for P in pieces)
    assert len(pieces) == math.prod(-(-h // side) for h in B.H)
    assert sum(P.volume for P in pieces) == B.volume
    assert sorted(x for P in pieces for x in P.iter_points()) == list(B.iter_points())
    return pieces


@settings(max_examples=50, deadline=None)
@given(BOX_SHAPES)
@example(((-3, 0, 5), (7, 1, 4)))
def test_pieces_cover_the_box_once(shape):
    B = fm.BoxSpec(*shape)
    for side in range(1, max(B.H) + 2):
        pieces = assert_pieces_cover(B, side)
    assert pieces == [B]


def test_split_box_identity():
    B = fm.BoxSpec((0, 0), (4, 4))
    assert list(B.pieces(4)) == [B]
    assert list(B.pieces(5)) == [B]


def test_split_box_2d():
    B = fm.BoxSpec((1, -2), (5, 3))
    pieces = assert_pieces_cover(B, 2)
    assert [(P.N, P.H) for P in pieces] == [
        ((1, -2), (2, 2)),
        ((1, 0), (2, 1)),
        ((3, -2), (2, 2)),
        ((3, 0), (2, 1)),
        ((5, -2), (1, 2)),
        ((5, 0), (1, 1)),
    ]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_split_box_partitions_exactly(data):
    # only the last piece along each axis is cut short
    B = fm.BoxSpec(*data.draw(BOX_SHAPES))
    side = data.draw(st.integers(1, min(B.H)))
    for P in assert_pieces_cover(B, side):
        for n, h, pn, ph in zip(B.N, B.H, P.N, P.H):
            assert ph == (side if pn + side < n + h else n + h - pn)


@pytest.mark.parametrize("side", [2, fm.PIECE_SIDE])
def test_exhaustive_verify_rejects_one_corrupted_block_entry(monkeypatch, side):
    # every single-entry corruption that keeps the ranks and changes some
    # value (found by the pointwise oracle) is caught by the line-by-line
    # walk, over whole lines and over lines cut into pieces
    monkeypatch.setattr(fm, "PIECE_SIDE", side)
    rng = random.Random(37)
    rejected = 0
    for p, n, part in ((5, 2, (2,)), (7, 2, (1, 1)), (37, 2, (2,)), (3, 3, (2, 1)),
                       (5, 3, (2, 1, 1)), (3, 3, (3, 1, 1))):
        assert p**n <= fm.POINTWISE_EXHAUSTIVE_CAP
        D = fm.random_decomposition(p, n, part, rng)
        F = fm.synthesize_form(D)
        assert fm.verify_decomposition(F, D)
        for bad in _corruptions(D):
            differs = any(
                fm.eval_form(F, x) != bad.value(x) for x in itertools.product(range(p), repeat=n)
            )
            assert fm.verify_decomposition(F, bad) is not differs, (p, part, bad.blocks)
            rejected += differs
    assert rejected >= 6


def _corruptions(D):
    """D with one block entry moved by 1, for each entry where the ranks hold."""
    for i, ki in enumerate(D.partition):
        for r, j in itertools.product(range(ki), range(D.n)):
            U = [list(row) for row in D.blocks[i]]
            U[r][j] += 1
            bad = fm.NormFormDecomposition(
                D.p, D.n, D.partition, D.ctxs, D.blocks[:i] + (U,) + D.blocks[i + 1:])
            if fm._ranks_hold(bad):
                yield bad


def _spot_checks_only(monkeypatch):
    """form_values is wrapped to log the box of every run that verification
    compares, and eval_form and D.value to count the single points they
    evaluate, which should be the one spot check of each plane."""
    boxes, points = [], collections.Counter()
    values, eval_form, value = fm.form_values, fm.eval_form, fm.NormFormDecomposition.value

    def logged(F, B):
        boxes.append(B)
        return values(F, B)

    def counted(name, oracle):
        def point(*args):
            points[name] += 1
            return oracle(*args)
        return point

    monkeypatch.setattr(fm, "eval_form", counted("eval_form", eval_form))
    monkeypatch.setattr(fm.NormFormDecomposition, "value", counted("value", value))
    monkeypatch.setattr(fm, "form_values", logged)
    return boxes, points


@pytest.mark.parametrize("cap, shapes", [
    (0, [(5, 2, (2,)), (7, 2, (1, 1)), (37, 2, (2,)), (5, 3, (2, 1)), (7, 3, (1, 1, 1))]),
    (fm.POINTWISE_EXHAUSTIVE_CAP, [(19, 4, (2, 1, 1, 1))]),
], ids=["cap-0", "19^4-points"])
def test_sampled_verify_compares_seeded_runs_along_the_last_axis(monkeypatch, cap, shapes):
    # past the exhaustive cap (forced to 0, or for real at 19^4 = 130,321
    # points) F and D are compared over seeded runs of s = min(p, 100) points
    # along x_n, each one plane whose last point alone is evaluated on its
    # own, once per route; a D whose synthesized form is not F fails
    monkeypatch.setattr(fm, "POINTWISE_EXHAUSTIVE_CAP", cap)
    rng = random.Random(41)
    rejected = 0
    for p, n, part in shapes:
        assert p**n > fm.POINTWISE_EXHAUSTIVE_CAP and sum(part) < p
        D = fm.random_decomposition(p, n, part, rng)
        F = fm.synthesize_form(D)
        corrupted = [(bad, fm.synthesize_form(bad) != F) for bad in _corruptions(D)]
        with monkeypatch.context() as spies:
            boxes, points = _spot_checks_only(spies)
            assert fm.verify_decomposition(F, D)
            s = min(p, math.isqrt(fm.POINTWISE_SAMPLES))
            assert {B.H for B in boxes} == {(1,) * (n - 1) + (s,)}
            assert points == {"eval_form": len(boxes), "value": len(boxes)}
            assert sum(B.volume for B in boxes) >= fm.POINTWISE_SAMPLES
            for bad, differs in corrupted:
                assert fm.verify_decomposition(F, bad) is not differs, (p, part)
                rejected += differs
    assert rejected >= len(shapes)


def test_decompose_evaluates_no_point(monkeypatch, tmp_path):
    # the forms of gen-form at (19, 4, 5), past the exhaustive cap, and (7, 2, 3)
    forms = [gen_form(tmp_path, 19, 4, 5, seed=3)[0], gen_form(tmp_path, 7, 2, 3, seed=5)[0]]

    def never(*args):
        raise AssertionError("decompose evaluated the form at points")

    for name in ("form_values", "eval_form"):
        monkeypatch.setattr(fm, name, never)
    for name in ("values", "value"):
        monkeypatch.setattr(fm.NormFormDecomposition, name, never)
    for F in forms:
        assert fm.synthesize_form(fm.decompose(F)) == F


# ---------------------------------------------------------------------------
# checks survive python -O


def test_forms_has_no_assert_statements():
    tree = ast.parse(Path(fm.__file__).read_text())
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    raised = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "AssertionError"
    ]
    assert asserts == [] and raised == []
