"""Forms, factorization, norm-form decompositions, box splitting."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn


def form(p, n, monos):
    return fm.FormSpec.from_monomials(p, n, monos)


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


# ---------------------------------------------------------------------------
# factor_form


def test_factor_X1X2():
    fs = fm.factor_form(form(5, 2, {(1, 1): 1}))
    assert [f.monomials for f in fs] == [(((1, 0), 1),), (((0, 1), 1),)]


def test_factor_sum_of_squares_mod3_irreducible():
    F = form(3, 2, {(2, 0): 1, (0, 2): 1})
    assert fm.factor_form(F) == [F]


def test_factor_sum_of_squares_mod5_splits():
    fs = fm.factor_form(form(5, 2, {(2, 0): 1, (0, 2): 1}))
    assert [f.monomials for f in fs] == [
        (((0, 1), 2), ((1, 0), 1)),  # X1 + 2 X2
        (((0, 1), 3), ((1, 0), 1)),  # X1 + 3 X2
    ]


def test_factor_repeated_and_constant():
    fs = fm.factor_form(form(3, 2, {(2, 1): 2}))
    prod = {(0, 0): 1}
    for f in fs:
        prod = fm._ipoly_mul(prod, f.as_dict(), 3)
    assert fm.FormSpec(3, 2, 3, tuple(prod.items())) == form(3, 2, {(2, 1): 2})
    assert len(fs) == 3


def test_factor_unsupported_is_loud():
    F = form(7, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(fm.UnsupportedFormError, match="factorization unsupported"):
        fm.factor_form(F)


def test_factor_products_agree_pointwise():
    rng = random.Random(5)
    for p, n, monos in [
        (5, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 3}),
        (7, 2, {(3, 0): 2, (0, 3): 1}),
        (11, 2, {(2, 0): 1, (0, 2): 1}),
    ]:
        F = form(p, n, monos)
        fs = fm.factor_form(F)
        for _ in range(50):
            x = tuple(rng.randrange(p) for _ in range(n))
            prod = 1
            for f in fs:
                prod = (prod * fm.eval_form(f, x)) % p
            assert prod == fm.eval_form(F, x)


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


def test_synthesize_examples():
    ctx5 = fc.ext_field_ctx(5, 1)
    D = fm.NormFormDecomposition(
        5, 2, (1, 1), (ctx5, ctx5), (((1, 0),), ((0, 1),))
    )
    assert fm.synthesize_form(D) == form(5, 2, {(1, 1): 1})
    ctx9 = fc.ext_field_ctx(3, 2)
    D2 = fm.NormFormDecomposition(3, 2, (2,), (ctx9,), (((1, 0), (0, 1)),))
    assert fm.synthesize_form(D2) == form(3, 2, {(2, 0): 1, (0, 2): 1})


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


def test_decompose_absorbs_leading_constant():
    F = form(5, 2, {(1, 1): 2})
    D = fm.decompose(F)
    assert fm.verify_decomposition(F, D)
    F2 = form(7, 2, {(2, 0): 3, (0, 2): 3})  # 3(X1^2+X2^2), X^2+1 irred mod 7
    D2 = fm.decompose(F2)
    assert fm.verify_decomposition(F2, D2)


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
                assert D.lam(i, [(a + b) % p for a, b in zip(x, y)]) == fc.ext_add(lx, ly)
                assert D.lam(i, [(c * a) % p for a in x]) == fc.ext_scalar_mul(c, lx)


def test_lambda_vanishing_iff_zero_when_square():
    rng = random.Random(32)
    for p, part in [(3, (2, 1)), (5, (2,)), (7, (1, 1))]:
        n = sum(part)
        D = fm.random_decomposition(p, n, part, rng)
        import itertools

        for x in itertools.product(range(p), repeat=n):
            all_zero = all(D.lam(i, x).is_zero() for i in range(D.s))
            assert all_zero == (all(v == 0 for v in x))


# ---------------------------------------------------------------------------
# split_box


def test_split_box_identity():
    B = fm.BoxSpec((0, 0), (4, 4))
    assert fm.split_box(B, 4) == [B]


def test_split_box_remainder_absorbed():
    B = fm.BoxSpec((0,), (5,))
    parts = fm.split_box(B, 2)
    assert [(b.N, b.H) for b in parts] == [((0,), (2,)), ((2,), (3,))]


def test_split_box_2d():
    B = fm.BoxSpec((1, -2), (5, 3))
    parts = fm.split_box(B, 2)
    assert len(parts) == 2
    seen = set()
    for b in parts:
        assert all(2 <= h < 4 for h in b.H)
        for x in b.iter_points():
            assert x not in seen
            seen.add(x)
    assert seen == set(B.iter_points())


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_split_box_partitions_exactly(data):
    dim = data.draw(st.integers(1, 3))
    N = tuple(data.draw(st.integers(-5, 5)) for _ in range(dim))
    H = tuple(data.draw(st.integers(1, 9)) for _ in range(dim))
    B = fm.BoxSpec(N, H)
    side = data.draw(st.integers(1, min(H)))
    parts = fm.split_box(B, side)
    assert sum(b.volume for b in parts) == B.volume
    import math

    assert len(parts) == math.prod(h // side for h in H)
    pts = [x for b in parts for x in b.iter_points()]
    assert len(pts) == len(set(pts)) == B.volume
    assert set(pts) == set(B.iter_points())
    for b in parts:
        assert all(side <= h < 2 * side for h in b.H)


def test_split_box_errors():
    B = fm.BoxSpec((0, 0), (4, 2))
    with pytest.raises(ValueError):
        fm.split_box(B, 3)
    with pytest.raises(ValueError):
        fm.split_box(B, 0)


# ---------------------------------------------------------------------------
# JSON round trips


def test_form_json_round_trip(tmp_path):
    F = form(7, 3, {(2, 1, 0): 3, (0, 1, 2): 6})
    d = fm.form_to_dict(F)
    path = tmp_path / "form.json"
    fm.save_json(d, str(path))
    loaded = fm.load_json(str(path))
    assert fm.form_from_dict(loaded) == F
    fm.save_json(loaded, str(path) + ".again")
    assert path.read_bytes() == (tmp_path / "form.json.again").read_bytes()
    assert json.loads(path.read_text())["p"] == 7


def test_decomposition_json_round_trip(tmp_path):
    rng = random.Random(12)
    D = fm.random_decomposition(5, 3, (2, 1), rng)
    d = fm.decomposition_to_dict(D)
    path = tmp_path / "decomp.json"
    fm.save_json(d, str(path))
    D2 = fm.decomposition_from_dict(fm.load_json(str(path)))
    assert D2 == D
    fm.save_json(fm.decomposition_to_dict(D2), str(path) + ".again")
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
                            fc.norm_via_conjugates(D.lam(i, x)) for i in range(D.s)
                        ) % p
                        assert D.value(x) == want, (p, part, blocks, x)
