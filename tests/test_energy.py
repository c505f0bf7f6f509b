"""Tests for exact multiplicative-energy counting."""

import itertools
import random

import pytest

from normsum import energy as en
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn


def line_decomp(p):
    return fm.decompose(fm.FormSpec(p, 1, 1, (((1,), 1),)))


def box(N, H):
    return fm.BoxSpec(tuple(N), tuple(H))


LINE5 = line_decomp(5)
BOX2 = box((0,), (2,))


class TestBruteforce:
    def test_single_point_boxes(self):
        b = box((0,), (1,))
        assert en.energy_bruteforce(en.EnergyInstance(LINE5, b, b)) == 1

    def test_line_frozen(self):
        inst = en.EnergyInstance(LINE5, BOX2, BOX2)
        assert en.energy_bruteforce(inst) == 6

    def test_routes_agree_random(self):
        rng = random.Random(5)
        cases = [
            (5, 2, (2,)),
            (5, 2, (1, 1)),
            (7, 2, (2,)),
            (7, 2, (1, 1)),
            (13, 2, (1, 1)),
            (3, 3, (1, 1, 1)),
            (3, 3, (2, 1)),
        ]
        for p, n, partition in cases:
            D = fm.random_decomposition(p, n, partition, rng)
            for _ in range(3):
                bx = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 2) for _ in range(n)],
                )
                by = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 2) for _ in range(n)],
                )
                inst = en.EnergyInstance(D, bx, by)
                assert en.energy_histogram(inst) == en.energy_quadruple_loop(inst)

    def test_diagonal_lower_bound_random(self):
        rng = random.Random(9)
        for p, n, partition in [(5, 1, (1,)), (7, 2, (1, 1)), (5, 2, (2,))]:
            D = fm.random_decomposition(p, n, partition, rng)
            for _ in range(4):
                bx = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 3) for _ in range(n)],
                )
                report = en.elementary_bounds_check(en.EnergyInstance(D, bx, bx))
                assert report["energy"] >= report["diagonal_lower"]
                assert report["diagonal_lower"] == bx.volume**2

    def test_elementary_frozen(self):
        report = en.elementary_bounds_check(en.EnergyInstance(LINE5, BOX2, BOX2))
        assert report == {"energy": 6, "diagonal_lower": 4, "upper_ratio": 0.75}

    def test_monotone_in_nested_boxes(self):
        line7 = line_decomp(7)
        values = []
        for h in range(1, 5):
            b = box((0,), (h,))
            values.append(en.energy_bruteforce(en.EnergyInstance(line7, b, b)))
        assert values == sorted(values)
        rng = random.Random(2)
        D = fm.random_decomposition(7, 2, (1, 1), rng)
        small = box((0, 0), (1, 1))
        big = box((0, 0), (2, 2))
        e_small = en.energy_bruteforce(en.EnergyInstance(D, small, small))
        e_big = en.energy_bruteforce(en.EnergyInstance(D, big, big))
        assert e_small <= e_big

    def test_histogram_merge_independence(self):
        # building the pair histogram from box pieces merges to the whole
        rng = random.Random(4)
        D = fm.random_decomposition(5, 2, (2,), rng)
        bx = box((0, 0), (4, 4))
        by = box((-1, 2), (3, 3))
        codes_y = en._log_codes(D, by)
        whole = en._pair_histogram(D, en._log_codes(D, bx), codes_y)
        merged = {}
        for part in fm.split_box(bx, 2):
            for key, c in en._pair_histogram(D, en._log_codes(D, part), codes_y).items():
                merged[key] = merged.get(key, 0) + c
        assert merged == whole

    def test_instance_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            en.EnergyInstance(LINE5, box((0, 0), (2, 2)), BOX2)
        ctx = fc.ext_field_ctx(5, 1)
        degenerate = fm.NormFormDecomposition(5, 1, (1,), (ctx,), (((0,),),))
        with pytest.raises(fm.RankConditionError):
            en.EnergyInstance(degenerate, BOX2, BOX2)

    def test_infeasible_sizes(self):
        big = box((0,), (2100,))
        with pytest.raises(ValueError, match="infeasible"):
            en.energy_histogram(en.EnergyInstance(LINE5, big, big))
        mid = box((0,), (200,))
        with pytest.raises(ValueError, match="infeasible"):
            en.energy_quadruple_loop(en.EnergyInstance(LINE5, mid, mid))


class TestSymmetric:
    def test_zero_window(self):
        assert en.energy_symmetric(LINE5, (0,)) == 1

    def test_window_one_frozen(self):
        # D_1 = {-1, 0, 1}: pair products 0 (five ways), 1 (two), -1 (two)
        assert en.energy_symmetric(LINE5, (1,)) == 33

    def test_shift_inequality(self):
        rng = random.Random(13)
        cases = [
            (LINE5, (2,)),
            (line_decomp(11), (1,)),
            (fm.random_decomposition(7, 2, (1, 1), rng), (1, 1)),
            (fm.random_decomposition(13, 2, (2,), rng), (1, 1)),
        ]
        for D, H in cases:
            p = D.p
            centered = en.energy_symmetric(D, H, cross_check=False)
            for _ in range(20):
                N = tuple(rng.randint(-p, p) for _ in range(D.n))
                shifted = en.energy_bruteforce(
                    en.EnergyInstance(D, box(N, H), box(N, H)), cross_check=False
                )
                assert shifted <= centered


class TestEta:
    def test_frozen(self):
        ctx = LINE5.ctxs[0]
        assert en.eta_count(LINE5, (ctx.from_int(3),), BOX2, BOX2) == 1

    def test_total_mass(self):
        # summing over every nonzero ratio tuple counts the nonvanishing pairs
        ctx = LINE5.ctxs[0]
        total = sum(
            en.eta_count(LINE5, (ctx.from_int(z),), BOX2, BOX2) for z in range(1, 5)
        )
        assert total == 4
        assert total <= BOX2.volume * BOX2.volume

    def test_unit_ratio_counts_live_points(self):
        rng = random.Random(21)
        D = fm.random_decomposition(7, 2, (1, 1), rng)
        b = box((0, 0), (3, 3))
        z = tuple(ctx.one() for ctx in D.ctxs)
        live = sum(
            1
            for x in b.iter_points()
            if not any(D.lam(i, x).is_zero() for i in range(D.s))
        )
        assert en.eta_count(D, z, b, b) == live

    def test_errors(self):
        ctx = LINE5.ctxs[0]
        with pytest.raises(ValueError, match="nonzero"):
            en.eta_count(LINE5, (ctx.zero(),), BOX2, BOX2)
        with pytest.raises(ValueError, match="per field"):
            en.eta_count(LINE5, (ctx.one(), ctx.one()), BOX2, BOX2)


class TestS1Identity:
    def test_single_point_boxes(self):
        b = box((2,), (1,))
        s1, quads, equal = en.s1_identity_check(LINE5, b, b)
        assert equal
        assert s1 in (0, 1)

    def test_frozen(self):
        assert en.s1_identity_check(LINE5, BOX2, BOX2) == (6, 6, True)

    def test_random_instances(self):
        rng = random.Random(17)
        for _ in range(50):
            p = rng.choice((5, 7, 11, 13))
            n = rng.choice((1, 2))
            partition = (1,) if n == 1 else rng.choice(((2,), (1, 1)))
            D = fm.random_decomposition(p, n, partition, rng)
            bx = box(
                [rng.randint(-p, p) for _ in range(n)],
                [rng.randint(1, 3) for _ in range(n)],
            )
            by = box(
                [rng.randint(-p, p) for _ in range(n)],
                [rng.randint(1, 3) for _ in range(n)],
            )
            s1, quads, equal = en.s1_identity_check(D, bx, by)
            assert equal, (p, partition, bx, by, s1, quads)


class TestRestricted:
    def test_identity_frozen(self):
        ident = ((1,),)
        gi = en.GeneralizedEnergyInstance(LINE5, (ident,) * 4, BOX2, BOX2)
        assert en.energy_restricted(gi) == (6, 0, 6)

    def test_zero_straddling_box(self):
        ident = ((1,),)
        gi = en.GeneralizedEnergyInstance(
            LINE5, (ident,) * 4, box((-1,), (2,)), BOX2
        )
        live, degenerate, total = en.energy_restricted(gi)
        assert degenerate > 0
        assert live + degenerate == total

    def test_matches_plain_energy_with_stacked_matrix(self):
        rng = random.Random(31)
        for p, n, partition in [(5, 2, (1, 1)), (7, 2, (2,)), (5, 1, (1,))]:
            D = fm.random_decomposition(p, n, partition, rng)
            bx = box(
                [rng.randint(-p, p) for _ in range(n)],
                [rng.randint(1, 2) for _ in range(n)],
            )
            by = box(
                [rng.randint(-p, p) for _ in range(n)],
                [rng.randint(1, 2) for _ in range(n)],
            )
            gi = en.GeneralizedEnergyInstance(D, (D.A,) * 4, bx, by)
            _, _, total = en.energy_restricted(gi)
            assert total == en.energy_bruteforce(en.EnergyInstance(D, bx, by))

    def test_symmetric_variant_equal(self):
        rng = random.Random(37)
        D = fm.random_decomposition(5, 2, (1, 1), rng)
        mats = tuple(en._random_nonsingular(rng, 2, 5) for _ in range(4))
        bx = box((-1, 0), (2, 2))
        by = box((0, -2), (2, 2))
        gi = en.GeneralizedEnergyInstance(D, mats, bx, by)
        plain = en.energy_restricted(gi, cross_check=True)
        variant = en.energy_restricted(gi, symmetric_variant=True, cross_check=True)
        assert plain == variant

    def test_single_point_second_box(self):
        ident = ((1,),)
        gi = en.GeneralizedEnergyInstance(
            LINE5, (ident,) * 4, BOX2, box((1,), (1,))
        )
        live, degenerate, total = en.energy_restricted(gi)
        assert live + degenerate == total

    def test_instance_errors(self):
        ident = ((1,),)
        with pytest.raises(ValueError, match="four"):
            en.GeneralizedEnergyInstance(LINE5, (ident,) * 3, BOX2, BOX2)
        with pytest.raises(ValueError, match="nonsingular"):
            en.GeneralizedEnergyInstance(LINE5, (((0,),),) * 4, BOX2, BOX2)
        with pytest.raises(ValueError, match="1 x 1"):
            en.GeneralizedEnergyInstance(
                LINE5, (((1, 0), (0, 1)),) * 4, BOX2, BOX2
            )
        ctx = fc.ext_field_ctx(5, 1)
        rect = fm.NormFormDecomposition(
            5, 1, (1, 1), (ctx, ctx), (((1,),), ((1,),))
        )
        with pytest.raises(ValueError, match="square"):
            en.GeneralizedEnergyInstance(rect, (ident,) * 4, BOX2, BOX2)

    def test_cauchy_schwarz_exact(self):
        rng = random.Random(41)
        for p, n, partition in [(5, 1, (1,)), (5, 2, (1, 1)), (7, 2, (2,))]:
            D = fm.random_decomposition(p, n, partition, rng)
            for _ in range(4):
                mats = tuple(
                    en._random_nonsingular(rng, n, p) for _ in range(4)
                )
                bh = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 3) for _ in range(n)],
                )
                bk = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 3) for _ in range(n)],
                )
                live, _, _ = en.energy_restricted(
                    en.GeneralizedEnergyInstance(D, mats, bh, bk),
                    cross_check=False,
                )
                q1, q2 = en.derived_quadruples(mats)
                c1, _, _ = en.energy_restricted(
                    en.GeneralizedEnergyInstance(D, q1, bh, bh),
                    cross_check=False,
                )
                c2, _, _ = en.energy_restricted(
                    en.GeneralizedEnergyInstance(D, q2, bk, bk),
                    cross_check=False,
                )
                assert live * live <= c1 * c2

    def test_family_max_dominates(self):
        rng = random.Random(43)
        D = fm.random_decomposition(5, 2, (1, 1), rng)
        mats = tuple(en._random_nonsingular(rng, 2, 5) for _ in range(4))
        bh = box((0, 0), (2, 2))
        bk = box((-1, 1), (2, 2))
        family = en.sampled_quadruple_family(
            D, seed=1, count=20, extra=en.derived_quadruples(mats)
        )
        live, _, _ = en.energy_restricted(
            en.GeneralizedEnergyInstance(D, mats, bh, bk), cross_check=False
        )
        c_h = en.c_sampled(D, bh, family, cross_check=False)
        c_k = en.c_sampled(D, bk, family, cross_check=False)
        assert live * live <= c_h * c_k

    def test_sampled_family_shape(self):
        family = en.sampled_quadruple_family(LINE5, seed=0, count=5)
        ident = (((1,),),) * 4
        assert family[0] == ident
        assert len(family) == len(set(family))
        assert len(family) <= 6
        extra = en.derived_quadruples((((2,),), ((3,),), ((1,),), ((4,),)))
        extended = en.sampled_quadruple_family(LINE5, seed=0, count=5, extra=extra)
        assert set(extra) <= set(extended)


class TestEmbed:
    def test_square_system_identical(self):
        rng = random.Random(47)
        D = fm.random_decomposition(5, 2, (2,), rng)
        b = box((0, 1), (2, 2))
        e_small, e_big, holds = en.embed_energy(en.EnergyInstance(D, b, b))
        assert e_small == e_big
        assert holds

    def test_rectangular_frozen(self):
        ctx = fc.ext_field_ctx(5, 1)
        D = fm.NormFormDecomposition(
            5, 1, (1, 1), (ctx, ctx), (((1,),), ((0,),))
        )
        assert en.embed_energy(en.EnergyInstance(D, BOX2, BOX2)) == (6, 6, True)
        D25 = fm.NormFormDecomposition(
            5, 1, (2,), (fc.ext_field_ctx(5, 2),), (((1,), (0,)),)
        )
        assert en.embed_energy(en.EnergyInstance(D25, BOX2, BOX2)) == (6, 6, True)

    def test_wider_padding_dominates(self):
        # letting the appended coordinate range over {0, 1} can only add
        D25 = fm.NormFormDecomposition(
            5, 1, (2,), (fc.ext_field_ctx(5, 2),), (((1,), (0,)),)
        )
        e_small, e_big, _ = en.embed_energy(en.EnergyInstance(D25, BOX2, BOX2))
        ident = fm.NormFormDecomposition(
            5, 2, (2,), (fc.ext_field_ctx(5, 2),), (((1, 0), (0, 1)),)
        )
        wide = box((0, -1), (2, 2))
        e_wide = en.energy_bruteforce(en.EnergyInstance(ident, wide, wide))
        assert e_small == e_big <= e_wide

    def test_extend_to_basis(self):
        A = ((1,), (2,))
        big = en._extend_to_basis(A, 5)
        assert len(big) == 2 and len(big[0]) == 2
        from normsum import linalg as la

        assert la.mat_rank(big, 5) == 2
        assert tuple(row[0] for row in big) == (1, 2)


class TestMulKernel:
    @pytest.mark.parametrize(
        "p,m", [(5, 1), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)]
    )
    def test_matches_field_product_exhaustively(self, p, m):
        ctx = fc.ext_field_ctx(p, m)
        mul = fc.mul_kernel(ctx)
        for a in ctx.iter_elements():
            for b in ctx.iter_elements():
                assert mul(a.coeffs, b.coeffs) == fc.ext_mul(a, b).coeffs

    @pytest.mark.parametrize(
        "p,poly", [(3, (2, 1, 1)), (5, (1, 1, 1)), (3, (2, 1, 1, 1)), (2, (1, 1, 1, 1, 1))]
    )
    def test_matches_field_product_in_full_presentations(self, p, poly):
        # every coefficient of the defining polynomial is nonzero
        ctx = fc.ext_field_ctx(p, len(poly) - 1, poly)
        mul = fc.mul_kernel(ctx)
        for a in ctx.iter_elements():
            for b in ctx.iter_elements():
                assert mul(a.coeffs, b.coeffs) == fc.ext_mul(a, b).coeffs

    def test_general_degree_reduces_by_defining_poly(self):
        ctx = fc.ext_field_ctx(2, 3)
        mul = fc.mul_kernel(ctx)
        g = ctx.gen()
        cube = fc.ext_mul(fc.ext_mul(g, g), g)
        assert mul(g.coeffs, fc.ext_mul(g, g).coeffs) == cube.coeffs

    def test_cached_per_context(self):
        ctx = fc.ext_field_ctx(3, 3)
        assert fc.mul_kernel(ctx) is fc.mul_kernel(fc.ext_field_ctx(3, 3))


def _partial_zero_point(D):
    """A point where some, but not every, lambda_i vanishes; None if none."""
    half = max(1, D.p // 2)
    for x in itertools.product(range(-half, half + 1), repeat=D.n):
        zeros = [D.lam(i, x).is_zero() for i in range(D.s)]
        if any(zeros) and not all(zeros):
            return x
    return None


# (p, n, partition): every partition of n for n = 1..3, plus the
# rectangular partitions of n + 1 at n = 2
LOG_DOMAIN_CASES = [
    (p, n, part)
    for p in (2, 3, 5, 7)
    for n in (1, 2, 3)
    for k in ((n,) if n != 2 else (2, 3))
    for part in hn.square_partitions(k)
]


class TestLogDomain:
    @pytest.mark.parametrize("p,n,partition", LOG_DOMAIN_CASES)
    def test_histogram_matches_quadruple_loop(self, p, n, partition):
        rng = random.Random(p * 100 + n * 10 + len(partition))
        D = fm.random_decomposition(p, n, partition, rng)
        # the origin zeroes every factor; a partial zero point zeroes some
        around_origin = box((-2,) * n, (3 if n < 3 else 2,) * n)
        x0 = _partial_zero_point(D)
        if x0 is None:
            assert D.s == 1 or D.k == D.n == 1
            other = box((-1,) * n, (2,) * n)
        else:
            other = box([v - 1 for v in x0], (2,) * n)
            assert other.contains(x0)
        for bx, by in [(around_origin, around_origin), (around_origin, other),
                       (other, around_origin), (other, other)]:
            inst = en.EnergyInstance(D, bx, by)
            assert en.energy_histogram(inst) == en.energy_quadruple_loop(inst)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_zero_classes_stay_separate(self, p):
        # lambda(0) = 0 in every field, so the origin's pairs land on the
        # class whose digits are all zero markers, and nowhere else
        rng = random.Random(p)
        D = fm.random_decomposition(p, 2, (1, 1), rng)
        b = box((-1, -1), (2, 2))
        codes = en._log_codes(D, b)
        hist = en._pair_histogram(D, codes, codes)
        assert sum(hist.values()) == b.volume**2
        all_zero = (p - 1) + (p - 1) * p
        origin = list(b.iter_points()).index((0, 0))
        alone = en._pair_histogram(D, [codes[origin]], codes)
        assert alone == {all_zero: b.volume}
        assert en._has_zero_factor(D, all_zero)
        for key in hist:
            assert 0 <= key < p * p
        live = sum(c for key, c in hist.items() if not en._has_zero_factor(D, key))
        live_points = sum(
            1 for x in b.iter_points()
            if not any(D.lam(i, x).is_zero() for i in range(D.s))
        )
        assert live == live_points**2

    @pytest.mark.parametrize("p,n,partition", [
        (2, 2, (1, 1)), (3, 2, (2,)), (7, 3, (2, 1)), (5, 3, (1, 1, 1)),
    ])
    def test_one_box_counts_each_unordered_pair_once(self, p, n, partition):
        # the same code list on both sides takes the unordered-pair route
        D = fm.random_decomposition(p, n, partition, random.Random(p + n))
        codes = en._log_codes(D, box((-2,) * n, (3,) * n))
        assert en._pair_histogram(D, codes, codes) == en._pair_histogram(
            D, codes, list(codes)
        )

    def test_batched_fold_matches_single_fold(self, monkeypatch):
        D = fm.random_decomposition(7, 2, (1, 1), random.Random(3))
        bx = box((-2, -2), (4, 4))
        by = box((0, -1), (3, 4))
        codes_x, codes_y = en._log_codes(D, bx), en._log_codes(D, by)
        whole = [
            en._pair_histogram(D, codes_x, codes_x),
            en._pair_histogram(D, codes_x, codes_y),
        ]
        monkeypatch.setattr(en, "RAW_FLUSH", 5)
        assert en._pair_histogram(D, codes_x, codes_x) == whole[0]
        assert en._pair_histogram(D, codes_x, codes_y) == whole[1]

    @pytest.mark.parametrize("p,n,partition", [
        (3, 2, (1, 1)), (5, 2, (2,)), (5, 2, (1, 1)), (7, 1, (1,)), (3, 3, (2, 1)),
    ])
    def test_restricted_split_matches_literal_loop(self, p, n, partition):
        rng = random.Random(p + 7 * n)
        D = fm.random_decomposition(p, n, partition, rng)
        side = 2 if n < 3 else 1
        degenerate_seen = False
        for _ in range(3):
            mats = tuple(en._random_nonsingular(rng, n, p) for _ in range(4))
            bx = box([rng.randint(-2, 0) for _ in range(n)], (side + 1,) * n)
            by = box([rng.randint(-2, 0) for _ in range(n)], (side,) * n)
            gi = en.GeneralizedEnergyInstance(D, mats, bx, by)
            # cross_check=True runs the literal loop and asserts the split
            plain = en.energy_restricted(gi, cross_check=True)
            variant = en.energy_restricted(gi, symmetric_variant=True, cross_check=True)
            assert plain == variant
            degenerate_seen = degenerate_seen or plain[1] > 0
        assert degenerate_seen
