"""Tests for exact multiplicative-energy counting."""

import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsum import energy as en
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn
from normsum import linalg as la


def line_decomp(p):
    return fm.decompose(fm.FormSpec(p, 1, 1, (((1,), 1),)))


def box(N, H):
    return fm.BoxSpec(tuple(N), tuple(H))


LINE5 = line_decomp(5)
BOX2 = box((0,), (2,))


# ---------------------------------------------------------------------------
# ratio counts and sampled matrix families: test-side helpers, no caller in src


def eta_count(D: fm.NormFormDecomposition, z, box_x: fm.BoxSpec, box_y: fm.BoxSpec) -> int:
    """Pairs (x, y) with lambda_i(x) = z_i lambda_i(y), all factors nonzero."""
    z = tuple(z)
    if len(z) != D.s:
        raise ValueError("one ratio component per field factor")
    if not all(map(any, z)):
        raise ValueError("ratio components must be nonzero")
    hist_x: dict = {}
    for lx in en._lam_table(D, box_x):
        hist_x[lx] = hist_x.get(lx, 0) + 1
    count = 0
    for ly in en._lam_table(D, box_y):
        if not all(map(any, ly)):
            continue
        target = tuple(fc.ext_mul(ctx, zi, e) for ctx, zi, e in zip(D.ctxs, z, ly))
        count += hist_x.get(target, 0)
    return count


def derived_quadruples(matrices):
    """The two Cauchy-Schwarz companion quadruples of a matrix quadruple."""
    a1, a2, a3, a4 = matrices
    return (a1, a1, a2, a2), (a3, a3, a4, a4)


def _random_nonsingular(rng: random.Random, n: int, p: int):
    while True:
        M = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if la.mat_rank(M, p) == n:
            return M


def sampled_quadruple_family(
    D: fm.NormFormDecomposition, seed=0, count=100, extra=()
):
    """All-identity plus seeded random nonsingular quadruples plus extras."""
    rng = random.Random(seed)
    ident = tuple(tuple(row) for row in la.identity(D.n))
    family = [(ident, ident, ident, ident)]
    for _ in range(count):
        family.append(
            tuple(_random_nonsingular(rng, D.n, D.p) for _ in range(4))
        )
    family.extend(tuple(tuple(tuple(row) for row in M) for M in q) for q in extra)
    seen = set()
    unique = []
    for q in family:
        if q not in seen:
            seen.add(q)
            unique.append(q)
    return tuple(unique)


def c_sampled(D: fm.NormFormDecomposition, box: fm.BoxSpec, family) -> int:
    """Family maximum of the same-box restricted energy."""
    best = 0
    for mats in family:
        live, _, _ = en.energy_restricted(en.GeneralizedEnergyInstance(D, mats, box, box))
        best = max(best, live)
    return best


@pytest.fixture
def literal_checked(monkeypatch):
    """en.energy_histogram compared with the literal loop on every call, so an
    entry point that reaches the histogram is checked on the instances it
    builds itself; returns the list of instances checked."""
    histogram, checked = en.energy_histogram, []

    def both(inst):
        value = histogram(inst)
        assert value == en.energy_quadruple_loop(inst), inst
        checked.append(inst)
        return value

    monkeypatch.setattr(en, "energy_histogram", both)
    return checked


def logs_per_point(D: fm.NormFormDecomposition, box: fm.BoxSpec) -> list:
    """The oracle of en._box_logs: per field and point, the dot products of
    each block row, their base-p index and its log_table entry."""
    p = D.p
    return [
        [
            fc.log_table(ctx)[sum(
                p**j * (sum(u * v for u, v in zip(row, x)) % p) for j, row in enumerate(U)
            )]
            for x in box.iter_points()
        ]
        for U, ctx in zip(D.blocks, D.ctxs)
    ]


def ratio_histogram(D: fm.NormFormDecomposition, box_x: fm.BoxSpec, box_y: fm.BoxSpec) -> dict:
    """The oracle of s1_identity_check's ratio histogram: lambda(x)/lambda(y)
    over the live points, with one inverse b^(q-2) per live y and one
    mul_kernel product per pair, keyed as en._pair_histogram keys a class."""
    live_x = [lx for lx in en._lam_table(D, box_x) if all(map(any, lx))]
    live_y = [ly for ly in en._lam_table(D, box_y) if all(map(any, ly))]
    muls = [fc.mul_kernel(ctx) for ctx in D.ctxs]
    inverses = [
        tuple(fc.pow_coeffs(ctx, b, ctx.order - 2) for ctx, b in zip(D.ctxs, ly))
        for ly in live_y
    ]
    ratio_hist = collections.Counter(
        tuple(mul(a, b) for mul, a, b in zip(muls, lx, iy)) for lx in live_x for iy in inverses
    )
    hist = {}
    for ratio, c in ratio_hist.items():
        key, scale = 0, 1
        for ctx, z in zip(D.ctxs, ratio):
            key += fc.log_table(ctx)[sum(v * D.p**j for j, v in enumerate(z))] * scale
            scale *= ctx.order
        hist[key] = c
    return hist


def product_key(D: fm.NormFormDecomposition, lx, ly) -> int:
    """The oracle of a class key: the product lambda(x)lambda(y), one
    mul_kernel product per field, keyed by the log of each product or the
    zero marker q_i - 1 when either factor is zero."""
    key, scale = 0, 1
    for ctx, a, b in zip(D.ctxs, lx, ly):
        digit = ctx.order - 1
        if any(a) and any(b):
            ab = fc.mul_kernel(ctx)(a, b)
            digit = fc.log_table(ctx)[sum(v * D.p**j for j, v in enumerate(ab))]
        key += digit * scale
        scale *= ctx.order
    return key


def product_histogram(D: fm.NormFormDecomposition, box_x: fm.BoxSpec, box_y: fm.BoxSpec) -> dict:
    """The oracle of en._pair_histogram: product_key over every pair."""
    table_y = en._lam_table(D, box_y)
    return dict(collections.Counter(
        product_key(D, lx, ly) for lx in en._lam_table(D, box_x) for ly in table_y
    ))


class TestBruteforce:
    def test_single_point_boxes(self):
        b = box((0,), (1,))
        inst = en.EnergyInstance(LINE5, b, b)
        assert en.energy_histogram(inst) == en.energy_quadruple_loop(inst) == 1

    def test_line_frozen(self):
        inst = en.EnergyInstance(LINE5, BOX2, BOX2)
        assert en.energy_histogram(inst) == en.energy_quadruple_loop(inst) == 6

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
                inst = en.EnergyInstance(D, bx, bx)
                report = en.elementary_bounds_check(inst)
                assert report["energy"] == en.energy_quadruple_loop(inst)
                assert report["energy"] >= report["diagonal_lower"]
                assert report["diagonal_lower"] == bx.volume**2

    def test_elementary_frozen(self, literal_checked):
        report = en.elementary_bounds_check(en.EnergyInstance(LINE5, BOX2, BOX2))
        assert report == {"energy": 6, "diagonal_lower": 4, "upper_ratio": 0.75}
        assert len(literal_checked) == 1

    def test_monotone_in_nested_boxes(self, literal_checked):
        line7 = line_decomp(7)
        values = []
        for h in range(1, 5):
            b = box((0,), (h,))
            values.append(en.energy_histogram(en.EnergyInstance(line7, b, b)))
        assert values == sorted(values)
        rng = random.Random(2)
        D = fm.random_decomposition(7, 2, (1, 1), rng)
        small = box((0, 0), (1, 1))
        big = box((0, 0), (2, 2))
        e_small = en.energy_histogram(en.EnergyInstance(D, small, small))
        e_big = en.energy_histogram(en.EnergyInstance(D, big, big))
        assert e_small <= e_big
        assert len(literal_checked) == 6

    def test_histogram_merge_independence(self):
        # building the pair histogram from box pieces merges to the whole
        rng = random.Random(4)
        D = fm.random_decomposition(5, 2, (2,), rng)
        bx = box((0, 0), (4, 4))
        by = box((-1, 2), (3, 3))
        logs_y = en._box_logs(D, by)
        whole = en._pair_histogram(D, en._box_logs(D, bx), logs_y)
        merged = {}
        for part in bx.pieces(2):
            for key, c in en._pair_histogram(D, en._box_logs(D, part), logs_y).items():
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
    def test_zero_window(self, literal_checked):
        assert en.energy_symmetric(LINE5, (0,)) == 1
        assert len(literal_checked) == 1

    def test_window_one_frozen(self, literal_checked):
        # D_1 = {-1, 0, 1}: pair products 0 (five ways), 1 (two), -1 (two)
        assert en.energy_symmetric(LINE5, (1,)) == 33
        assert len(literal_checked) == 1

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
            centered = en.energy_symmetric(D, H)
            for _ in range(20):
                N = tuple(rng.randint(-p, p) for _ in range(D.n))
                shifted = en.energy_histogram(en.EnergyInstance(D, box(N, H), box(N, H)))
                assert shifted <= centered


class TestEta:
    def test_frozen(self):
        ctx = LINE5.ctxs[0]
        assert eta_count(LINE5, (ctx.from_int(3),), BOX2, BOX2) == 1

    def test_total_mass(self):
        # summing over every nonzero ratio tuple counts the nonvanishing pairs
        ctx = LINE5.ctxs[0]
        total = sum(
            eta_count(LINE5, (ctx.from_int(z),), BOX2, BOX2) for z in range(1, 5)
        )
        assert total == 4
        assert total <= BOX2.volume * BOX2.volume

    def test_unit_ratio_counts_live_points(self):
        rng = random.Random(21)
        D = fm.random_decomposition(7, 2, (1, 1), rng)
        b = box((0, 0), (3, 3))
        z = tuple(ctx.from_int(1) for ctx in D.ctxs)
        live = sum(
            1
            for x in b.iter_points()
            if all(any(D.lam(i, x)) for i in range(D.s))
        )
        assert eta_count(D, z, b, b) == live

    def test_errors(self):
        ctx = LINE5.ctxs[0]
        with pytest.raises(ValueError, match="nonzero"):
            eta_count(LINE5, (ctx.from_int(0),), BOX2, BOX2)
        with pytest.raises(ValueError, match="per field"):
            eta_count(LINE5, (ctx.from_int(1), ctx.from_int(1)), BOX2, BOX2)


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
            gi = en.GeneralizedEnergyInstance(D, (D.A,) * 4, bx, by)
            assert quads == en.energy_restricted(gi)[0]

    def test_s1_literal_check_sees_the_degenerate_split(self, monkeypatch):
        # the literal loop beside the live count checks the degenerate
        # quadruples too: one of them made live moves only the split
        D = fm.random_decomposition(5, 2, (1, 1), random.Random(37))
        b = box((-1, -1), (3, 3))
        literal = en._literal_quadruples
        unit = tuple((1,) + (0,) * (m - 1) for m in D.partition)

        def altered(*tables):
            quads = literal(*tables)
            for l1, l2, l3, l4 in quads:
                if not all(map(any, l1 + l4)):
                    yield unit, l2, l3, unit
                    break
                yield l1, l2, l3, l4
            yield from quads

        monkeypatch.setattr(en, "_literal_quadruples", altered)
        with pytest.raises(la.CheckFailed, match="testing 2 factors"):
            en.s1_identity_check(D, b, b)

    def test_ratio_histogram_matches_inverse_product_route(self):
        # the log-domain ratio histogram against inverses and products, on
        # boxes that straddle zeros of the factors and on one-point boxes
        rng = random.Random(19)
        for _ in range(40):
            p = rng.choice((2, 3, 5, 7, 11))
            n = rng.choice((1, 2, 3))
            partition = rng.choice(hn.square_partitions(n))
            D = fm.random_decomposition(p, n, partition, rng)
            bx, by = (
                box([rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 3 if n < 3 else 2) for _ in range(n)])
                for _ in range(2)
            )
            oracle = ratio_histogram(D, bx, by)
            logs_x, logs_y = en._box_logs(D, bx), en._box_logs(D, by)
            ratios = en._pair_histogram(D, logs_x, en._inverse_logs(D, logs_y))
            live = {k: c for k, c in ratios.items() if not en._has_zero_factor(D, k)}
            assert live == oracle, (p, partition, bx, by)
            s1, quads, equal = en.s1_identity_check(D, bx, by)
            assert s1 == sum(c * c for c in oracle.values()) and equal


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
            inst = en.EnergyInstance(D, bx, by)
            assert total == en.energy_histogram(inst) == en.energy_quadruple_loop(inst)

    @pytest.mark.parametrize("factors", [2, 4])
    def test_literal_loop_checks_both_splits(self, factors, monkeypatch):
        # a box around the origin in both slots, so that both splits have
        # live and degenerate quadruples
        rng = random.Random(37)
        D = fm.random_decomposition(5, 2, (1, 1), rng)
        mats = tuple(_random_nonsingular(rng, 2, 5) for _ in range(4))
        b = box((-1, -1), (3, 3))
        gi = en.GeneralizedEnergyInstance(D, mats, b, b)
        live, degenerate, total = en.energy_restricted(gi)
        assert live > 0 and degenerate > 0 and live + degenerate == total
        literal = en._literal_quadruples
        zero = tuple((0,) * m for m in D.partition)
        unit = tuple((1,) + (0,) * (m - 1) for m in D.partition)

        def altered(*tables):
            # one quadruple changed so that only the split testing `factors`
            # factors moves: a live one with lambda^2(x') zeroed, or a
            # degenerate one with lambda^1(x) and lambda^4(y') made units
            quads = literal(*tables)
            for l1, l2, l3, l4 in quads:
                if factors == 4 and all(map(any, l1 + l2 + l3 + l4)):
                    yield l1, zero, l3, l4
                    break
                if factors == 2 and not all(map(any, l1 + l4)):
                    yield unit, l2, l3, unit
                    break
                yield l1, l2, l3, l4
            yield from quads

        monkeypatch.setattr(en, "_literal_quadruples", altered)
        with pytest.raises(la.CheckFailed, match=f"testing {factors} factors"):
            en.energy_restricted(gi)

    def test_one_histogram_only_when_each_box_has_one_system(self, monkeypatch):
        # h14 and h23 are one histogram when Ds[0] is Ds[1] and Ds[2] is Ds[3],
        # as in s1_identity_check; paired as (a, b, b, a) over two unequal
        # boxes they differ, and the split still builds both
        rng = random.Random(41)
        D = fm.random_decomposition(5, 2, (1, 1), rng)
        Da, Db = (
            fm.NormFormDecomposition(5, 2, D.partition, D.ctxs,
                                     en._split_rows(_random_nonsingular(rng, 2, 5), D.partition))
            for _ in range(2)
        )
        bx, by = box((-1, -1), (3, 3)), box((0, -2), (2, 3))
        histogram, built = en._pair_histogram, []
        monkeypatch.setattr(en, "_pair_histogram", lambda *a: built.append(a) or histogram(*a))
        for Ds, histograms in [((D,) * 4, 1), ((Da, Db, Db, Da), 2)]:
            del built[:]
            slots = list(zip(Ds, (bx, bx, by, by)))
            split = en._restricted_split(D, Ds, bx, by, [en._box_logs(Dj, b) for Dj, b in slots])
            literal = list(en._literal_quadruples(D, *(en._lam_table(Dj, b) for Dj, b in slots)))
            assert len(built) == histograms
            assert split[0] == sum(1 for l1, *_, l4 in literal if all(map(any, l1 + l4)))
            assert split[2] == len(literal)

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
                    _random_nonsingular(rng, n, p) for _ in range(4)
                )
                bh = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 3) for _ in range(n)],
                )
                bk = box(
                    [rng.randint(-p, p) for _ in range(n)],
                    [rng.randint(1, 3) for _ in range(n)],
                )
                live, _, _ = en.energy_restricted(en.GeneralizedEnergyInstance(D, mats, bh, bk))
                q1, q2 = derived_quadruples(mats)
                c1, _, _ = en.energy_restricted(en.GeneralizedEnergyInstance(D, q1, bh, bh))
                c2, _, _ = en.energy_restricted(en.GeneralizedEnergyInstance(D, q2, bk, bk))
                assert live * live <= c1 * c2

    def test_family_max_dominates(self):
        rng = random.Random(43)
        D = fm.random_decomposition(5, 2, (1, 1), rng)
        mats = tuple(_random_nonsingular(rng, 2, 5) for _ in range(4))
        bh = box((0, 0), (2, 2))
        bk = box((-1, 1), (2, 2))
        family = sampled_quadruple_family(
            D, seed=1, count=20, extra=derived_quadruples(mats)
        )
        live, _, _ = en.energy_restricted(en.GeneralizedEnergyInstance(D, mats, bh, bk))
        c_h = c_sampled(D, bh, family)
        c_k = c_sampled(D, bk, family)
        assert live * live <= c_h * c_k

    def test_sampled_family_shape(self):
        family = sampled_quadruple_family(LINE5, seed=0, count=5)
        ident = (((1,),),) * 4
        assert family[0] == ident
        assert len(family) == len(set(family))
        assert len(family) <= 6
        extra = derived_quadruples((((2,),), ((3,),), ((1,),), ((4,),)))
        extended = sampled_quadruple_family(LINE5, seed=0, count=5, extra=extra)
        assert set(extra) <= set(extended)


class TestEmbed:
    def test_square_system_identical(self, literal_checked):
        rng = random.Random(47)
        D = fm.random_decomposition(5, 2, (2,), rng)
        b = box((0, 1), (2, 2))
        e_small, e_big, holds = en.embed_energy(en.EnergyInstance(D, b, b))
        assert e_small == e_big
        assert holds
        assert len(literal_checked) == 2

    def test_rectangular_frozen(self, literal_checked):
        ctx = fc.ext_field_ctx(5, 1)
        D = fm.NormFormDecomposition(
            5, 1, (1, 1), (ctx, ctx), (((1,),), ((0,),))
        )
        assert en.embed_energy(en.EnergyInstance(D, BOX2, BOX2)) == (6, 6, True)
        D25 = fm.NormFormDecomposition(
            5, 1, (2,), (fc.ext_field_ctx(5, 2),), (((1,), (0,)),)
        )
        assert en.embed_energy(en.EnergyInstance(D25, BOX2, BOX2)) == (6, 6, True)
        # the small and the embedded instance of each
        assert len(literal_checked) == 4

    def test_wider_padding_dominates(self, literal_checked):
        # letting the appended coordinate range over {0, 1} can only add
        D25 = fm.NormFormDecomposition(
            5, 1, (2,), (fc.ext_field_ctx(5, 2),), (((1,), (0,)),)
        )
        e_small, e_big, _ = en.embed_energy(en.EnergyInstance(D25, BOX2, BOX2))
        ident = fm.NormFormDecomposition(
            5, 2, (2,), (fc.ext_field_ctx(5, 2),), (((1, 0), (0, 1)),)
        )
        wide = box((0, -1), (2, 2))
        e_wide = en.energy_histogram(en.EnergyInstance(ident, wide, wide))
        assert e_small == e_big <= e_wide
        assert len(literal_checked) == 3


def _partial_zero_point(D):
    """A point where some, but not every, lambda_i vanishes; None if none."""
    half = max(1, D.p // 2)
    for x in itertools.product(range(-half, half + 1), repeat=D.n):
        zeros = [not any(D.lam(i, x)) for i in range(D.s)]
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
# past the grid's p <= 7: F_{13^2} beside F_13, and three fields of 31 elements
LARGER_FIELD_CASES = [(13, 3, (2, 1)), (31, 3, (1, 1, 1))]


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
            assert all(n < v <= n + h for v, n, h in zip(x0, other.N, other.H))
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
        logs = en._box_logs(D, b)
        hist = en._pair_histogram(D, logs, logs)
        assert sum(hist.values()) == b.volume**2
        all_zero = (p - 1) + (p - 1) * p
        origin = list(b.iter_points()).index((0, 0))
        alone = en._pair_histogram(D, [[field[origin]] for field in logs], logs)
        assert alone == {all_zero: b.volume}
        assert en._has_zero_factor(D, all_zero)
        for key in hist:
            assert 0 <= key < p * p
        live = sum(c for key, c in hist.items() if not en._has_zero_factor(D, key))
        live_points = sum(
            1 for x in b.iter_points()
            if all(any(D.lam(i, x)) for i in range(D.s))
        )
        assert live == live_points**2

    @pytest.mark.parametrize("p,n,partition", [
        (2, 2, (1, 1)), (3, 2, (2,)), (7, 3, (2, 1)), (5, 3, (1, 1, 1)),
    ])
    def test_one_box_counts_each_unordered_pair_once(self, p, n, partition):
        # one box that is not symmetric takes the two-list route in both slots,
        # whether it gets one list twice or a copy; its pairs are counted as
        # the per-pair product oracle counts them
        D = fm.random_decomposition(p, n, partition, random.Random(p + n))
        b = box((-2,) * n, (3,) * n)
        logs = en._box_logs(D, b)
        assert en._pair_histogram(D, logs, logs) == en._pair_histogram(
            D, logs, [list(field) for field in logs]
        )
        assert en._pair_histogram(D, logs, logs) == product_histogram(D, b, b)

    @pytest.mark.parametrize("p,n,partition", LOG_DOMAIN_CASES + LARGER_FIELD_CASES)
    def test_class_keys_match_the_product_oracle_row_by_row(self, p, n, partition):
        # each row's keys, in box order, on a box around the origin (zero
        # factors) and on a box whose first side is longer than p, where
        # distinct points are congruent mod p
        D = fm.random_decomposition(p, n, partition, random.Random(p * 10 + n + len(partition)))
        keys = en._class_keys([(fc.log_fold(ctx), ctx.order) for ctx in D.ctxs])
        for b in (fm.BoxSpec.symmetric((1,) * n), box((-1,) * n, (p + 2,) + (2,) * (n - 1))):
            logs, table = en._box_logs(D, b), en._lam_table(D, b)
            for point, lx in zip(zip(*logs), table):
                sums = [[a + t for t in field] for a, field in zip(point, logs)]
                assert list(keys(sums)) == [
                    product_key(D, lx, ly) for ly in table
                ]
            assert en._pair_histogram(D, logs, logs) == product_histogram(D, b, b)

    @pytest.mark.parametrize("p,n,partition", [
        (3, 2, (1, 1)), (5, 2, (2,)), (5, 2, (1, 1)), (7, 1, (1,)), (3, 3, (2, 1)),
    ])
    def test_restricted_split_matches_literal_loop(self, p, n, partition, monkeypatch):
        literal, runs = en._literal_quadruples, []
        monkeypatch.setattr(
            en, "_literal_quadruples", lambda *tables: runs.append(1) or literal(*tables)
        )
        rng = random.Random(p + 7 * n)
        D = fm.random_decomposition(p, n, partition, rng)
        side = 2 if n < 3 else 1
        degenerate_seen = False
        for _ in range(3):
            mats = tuple(_random_nonsingular(rng, n, p) for _ in range(4))
            bx = box([rng.randint(-2, 0) for _ in range(n)], (side + 1,) * n)
            by = box([rng.randint(-2, 0) for _ in range(n)], (side,) * n)
            gi = en.GeneralizedEnergyInstance(D, mats, bx, by)
            # within the cap the literal loop runs and checks both splits
            live, degenerate, total = en.energy_restricted(gi)
            assert live + degenerate == total
            degenerate_seen = degenerate_seen or degenerate > 0
        assert degenerate_seen and runs == [1] * 3


# symmetric windows of half-width 0, 1 and 2 on every instance of the grid,
# windows with H >= p, where distinct points are congruent mod p, and the
# larger fields at H = 1
ORBIT_CASES = [case + (H,) for case in LOG_DOMAIN_CASES for H in (0, 1, 2)] + [
    (2, 1, (1,), 5), (2, 2, (1, 1), 3), (3, 1, (1,), 4), (3, 2, (2,), 3), (5, 1, (1,), 7),
] + [case + (1,) for case in LARGER_FIELD_CASES]
# windows with dead points off the origin: one factor of several vanishes on
# a subspace, and at H >= p every factor vanishes at each multiple of p
DEAD_POINT_CASES = [
    (3, 2, (1, 1), 3), (5, 2, (1, 1), 2), (2, 3, (1, 1, 1), 2), (3, 3, (1, 1, 1), 1),
    (3, 3, (2, 1), 3), (5, 3, (2, 1), 1), (2, 3, (2, 1), 2), (3, 1, (1,), 3),
]
# past the grid's primes, every partition of n <= 3: windows of half-width 1,
# and at n <= 2 of floor(sqrt(p)), as energy and energy-scan take them
SQUARE_PRIMES = (2, 3, 5, 7, 11, 13, 53)
SQUARE_CASES = [
    (p, n, part, H)
    for p in (11, 13, 53)
    for n in (1, 2, 3)
    for part in hn.square_partitions(n)
    for H in ((1, math.isqrt(p)) if n < 3 else (1,))
]


def _window(p, n, partition, H, shape="cube"):
    """A seeded decomposition and its symmetric window; a ragged window
    widens its last side by one."""
    D = fm.random_decomposition(p, n, partition, random.Random(p * 100 + n * 10 + H))
    return D, fm.BoxSpec.symmetric((H,) * (n - 1) + (H + (shape == "ragged"),))


def _live_half(D, logs) -> list:
    """The log lists of the live points of a symmetric window's first half."""
    orders, half = [ctx.order - 1 for ctx in D.ctxs], len(logs[0]) // 2
    live = [all(t < o for t, o in zip(point, orders)) for point in zip(*logs)][:half]
    return [list(itertools.compress(field, live)) for field in logs]


def _live_counts(D, logs):
    """The live count sum_x (h*h)(x)^2 by the squared integer and by the
    pair loop, and the window's live points in its first half, N."""
    coords, keys, moduli, _ = en._sign_quotient(D, _live_half(D, logs))
    h, sizes = en._class_histogram(coords, moduli)
    return en._square_count(h, sizes), en._pair_count(coords, keys), len(coords[0])


def _forced_energies(D, logs, monkeypatch) -> list:
    """_quotient_energy with the live count sent down the squared integer,
    then down the pair loop."""
    energies = []
    for square in (True, False):
        with monkeypatch.context() as m:
            m.setattr(en, "_square_route", lambda h, sizes, square=square: square)
            energies.append(en._quotient_energy(D, logs))
    return energies


def cyclic_square_literal(h, moduli) -> list:
    """h*h over prod Z/m_i, class pair by class pair, in row-major order."""
    def coordinates(index):
        digits = []
        for m in reversed(moduli):
            index, a = divmod(index, m)
            digits.append(a)
        return digits[::-1]

    out = [0] * math.prod(moduli)
    for i, ci in h.items():
        for j, cj in h.items():
            k = 0
            for a, b, m in zip(coordinates(i), coordinates(j), moduli):
                k = k * m + (a + b) % m
            out[k] += ci * cj
    return out


def _dead_off_origin(D, b) -> int:
    """The points of the box other than the origin where some lambda_i vanishes."""
    return sum(1 for x in b.iter_points()
               if any(x) and not all(any(D.lam(i, x)) for i in range(D.s)))


class TestSignQuotient:
    @pytest.mark.parametrize("shape", ["cube", "ragged"])
    @pytest.mark.parametrize("p,n,partition,H", ORBIT_CASES + DEAD_POINT_CASES + SQUARE_CASES)
    def test_quotient_route_matches_one_box_and_two_list_routes(
        self, p, n, partition, H, shape, monkeypatch
    ):
        # a ragged box reads the negatives (index vol - 1 - i) off unequal sides;
        # the live count is taken down both routes, whichever the rule picks
        D, b = _window(p, n, partition, H, shape)
        logs = en._box_logs(D, b)
        square, pairs, live = _live_counts(D, logs)
        assert square == pairs and (live == 0 or b.volume > 1)  # the origin alone: N = 0
        energy = en._quotient_energy(D, logs)
        assert _forced_energies(D, logs, monkeypatch) == [energy, energy]
        copy = [list(field) for field in logs]
        for hist in (en._pair_histogram(D, logs, logs), en._pair_histogram(D, logs, copy)):
            assert sum(hist.values()) == b.volume**2
            assert energy == sum(c * c for c in hist.values())
        if en.quadruple_cost(b.volume, b.volume) <= en.QUAD_CROSS_CHECK_CAP:
            assert energy == en.energy_quadruple_loop(en.EnergyInstance(D, b, b))

    def test_cases_hit_dead_points_off_the_origin(self):
        for p, n, partition, H in DEAD_POINT_CASES:
            assert _dead_off_origin(*_window(p, n, partition, H)), (p, n, partition, H)
        # the grid's windows hit them too: where one of two factors vanishes
        # on a line, and in one field at H >= p
        assert any(_dead_off_origin(*_window(*case)) for case in ORBIT_CASES if case[2] == (1, 1))
        assert any(_dead_off_origin(*_window(*case)) for case in ORBIT_CASES
                   if case[2] == (1,) and case[0] <= case[3])

    def test_negatives_are_the_reversed_box(self):
        # the quotient route reads point i's negative at index vol - 1 - i
        for H in [(0,), (2,), (1, 0), (2, 1), (1, 2, 1)]:
            points = list(fm.BoxSpec.symmetric(H).iter_points())
            assert [tuple(-v for v in x) for x in points] == points[::-1]

    @pytest.mark.parametrize("p,n,partition", [
        (2, 2, (1, 1)), (2, 3, (2, 1)), (3, 2, (2,)), (3, 2, (1, 1)), (5, 2, (1, 1)),
        (3, 3, (2, 1)), (3, 3, (1, 1, 1)), (5, 3, (2, 1)), (7, 2, (2,)),
    ])
    def test_keys_are_the_classes_up_to_minus_one(self, p, n, partition):
        # every pair of live points of F_p^n, as a window of half-width p // 2
        # (all of F_2^n at p = 2): (x, y) and (-x, y) share a key, and two
        # pairs share one exactly when their classes agree up to -1
        D, b = _window(p, n, partition, max(1, p // 2))
        logs, table = en._box_logs(D, b), en._lam_table(D, b)
        live = [i for i, lx in enumerate(table) if all(map(any, lx))]
        coords, keys, _, sign = en._sign_quotient(D, [[f[i] for i in live] for f in logs])
        assert sign == (1 if p == 2 else 2)
        classes, key_of = {}, {}
        for j, x in enumerate(live):
            row = keys([[a + t for t in field] for a, field in zip((f[j] for f in coords), coords)])
            for key, y in zip(row, live):
                up_to_sign = {product_key(D, table[x], table[y]),
                              product_key(D, table[-1 - x], table[y])}
                assert classes.setdefault(key, up_to_sign) == up_to_sign
                assert key_of.setdefault(min(up_to_sign), key) == key

    def test_p_two_keeps_the_logs_and_an_odd_pivot_is_not_field_zero(self):
        def live_logs(D, b):
            orders = [ctx.order - 1 for ctx in D.ctxs]
            logs = en._box_logs(D, b)
            live = [all(t < o for t, o in zip(point, orders)) for point in zip(*logs)]
            return [list(itertools.compress(field, live)) for field in logs]

        D, b = _window(2, 3, (2, 1), 2)
        live = live_logs(D, b)
        assert en._sign_quotient(D, live)[0] == live
        # q - 1 = 8 and 2 at p = 3: the pivot is F_3, field 1, with a_1 mod 1
        # and a_0 - c a_1 mod 8, c 1 = 4 mod 8
        D, b = _window(3, 3, (2, 1), 1)
        live = live_logs(D, b)
        assert en._sign_quotient(D, live)[0] == [
            [(a - 4 * t) % 8 for a, t in zip(*live)], [0] * len(live[1])
        ]

    def test_only_symmetric_one_box_windows_take_the_quotient_route(self, monkeypatch):
        D = fm.random_decomposition(7, 2, (1, 1), random.Random(4))
        calls = []
        route = en._quotient_energy
        monkeypatch.setattr(
            en, "_quotient_energy", lambda *args: calls.append(args) or route(*args)
        )
        symmetric = fm.BoxSpec.symmetric((2, 1))
        for bx, by, taken in [
            (symmetric, symmetric, 1),
            (fm.BoxSpec.symmetric((0, 0)), fm.BoxSpec.symmetric((0, 0)), 1),
            (box((-3, -2), (5, 4)), box((-3, -2), (5, 4)), 0),  # [-2, 2] x [-1, 2]
            (box((-2, -1), (5, 3)), box((-2, -1), (5, 3)), 0),  # [-1, 3] x [0, 2]
            (symmetric, fm.BoxSpec.symmetric((1, 1)), 0),
        ]:
            del calls[:]
            inst = en.EnergyInstance(D, bx, by)
            assert en.energy_histogram(inst) == en.energy_quadruple_loop(inst)
            assert len(calls) == taken, (bx, by)

    def test_sixteen_bit_digits_and_a_short_width_is_caught_by_the_total(self, monkeypatch):
        # p = 5, n = 1, H = 40: 32 live points of the first half, 16 in each
        # class of Z/2, so N max(h) = 512 and each class of h*h holds 512
        D, b = _window(5, 1, (1,), 40)
        logs = en._box_logs(D, b)
        coords, _, moduli, _ = en._sign_quotient(D, _live_half(D, logs))
        h, sizes = en._class_histogram(coords, moduli)
        assert (sizes, sorted(h.values())) == ([2], [16, 16])
        assert list(en._cyclic_square(h, sizes)) == [512, 512]
        digit_code, codes = en._digit_code, []
        monkeypatch.setattr(en, "_digit_code", lambda bound: codes.append(digit_code(bound))
                            or codes[-1])
        hist = en._pair_histogram(D, logs, logs)
        assert en.energy_symmetric(D, (40,)) == sum(c * c for c in hist.values())
        assert codes and set(codes) == {"H"}
        # one typecode narrower: the digits carry and the total is short
        monkeypatch.setattr(en, "_digit_code",
                            lambda bound: "BHIQ"["BHIQ".index(digit_code(bound)) - 1])
        with pytest.raises(la.CheckFailed, match="not 32\\^2"):
            en.energy_symmetric(D, (40,))
        # a carry past the last digit: 75^2 = 21 * 256 + 249 folds to 270
        with pytest.raises(la.CheckFailed, match="digits of 8 bits overflow"):
            en._cyclic_square({0: 75}, [1])

    def test_route_rule_squares_the_bench_windows_and_not_the_large_ones(self, monkeypatch):
        taken = []
        for name in ("_square_count", "_pair_count"):
            monkeypatch.setattr(en, name, lambda *args, name=name, route=getattr(en, name):
                                taken.append(name) or route(*args))

        def routes(p, n, partition, seed):
            del taken[:]
            D = fm.random_decomposition(p, n, partition, random.Random(seed))
            en.energy_symmetric(D, (math.isqrt(p),) * n)
            return taken

        # every shape of the bench's energy workload, over a few draws
        for n, primes in ((2, (53, 59, 61, 67, 71, 73)), (3, (3, 5, 7))):
            for p, partition, seed in itertools.product(primes, hn.square_partitions(n), range(3)):
                assert routes(p, n, partition, seed) == ["_square_count"], (p, partition, seed)
        assert routes(999983, 1, (1,), 1) == ["_pair_count"]
        assert routes(401, 2, (1, 1), 1) == ["_pair_count"]

    @pytest.mark.parametrize("p,n,partition", [
        (2, 1, (1,)), (2, 2, (1, 1)), (3, 2, (2,)), (7, 2, (1, 1)), (5, 3, (2, 1)),
        (3, 3, (1, 1, 1)), (7, 3, (3,)),
    ])
    def test_whole_box_logs_match_the_per_point_oracle(self, p, n, partition):
        D = fm.random_decomposition(p, n, partition, random.Random(p + 10 * n))
        rng = random.Random(p * n)
        boxes = [
            fm.BoxSpec.symmetric((2,) * n),
            fm.BoxSpec.symmetric((0,) * n),
            box([rng.randint(-2 * p, 2 * p) for _ in range(n)],
                [rng.randint(1, 4) for _ in range(n)]),
            box([p] * n, [1] * n),
            box([-1] * n, [1] + [3] * (n - 1)),
        ]
        for b in boxes:
            assert en._box_logs(D, b) == logs_per_point(D, b), b

    @pytest.mark.parametrize("p,n,partition", [
        (3, 2, (1, 1)), (5, 2, (2,)), (7, 1, (1,)), (3, 3, (2, 1)), (2, 3, (1, 1, 1)),
    ])
    def test_whole_box_logs_match_the_oracle_on_restricted_blocks(self, p, n, partition):
        # energy_restricted's per-matrix decomposition: a matrix's rows cut
        # into the partition's blocks, over D's fields
        rng = random.Random(p + 3 * n)
        D = fm.random_decomposition(p, n, partition, rng)
        for _ in range(4):
            blocks = en._split_rows(_random_nonsingular(rng, n, p), D.partition)
            Dm = fm.NormFormDecomposition(p, n, D.partition, D.ctxs, blocks)
            b = box([rng.randint(-3, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n)])
            assert en._box_logs(Dm, b) == logs_per_point(Dm, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SQUARE_PRIMES), st.integers(1, 3), st.data())
def test_square_and_pair_live_counts_agree_on_random_windows(p, n, data):
    partition = data.draw(st.sampled_from(hn.square_partitions(n)))
    H = data.draw(st.integers(0, (12, 4, 2)[n - 1]))
    ragged = data.draw(st.booleans())
    D = fm.random_decomposition(p, n, partition, random.Random(data.draw(st.integers(0, 10**6))))
    b = fm.BoxSpec.symmetric((H,) * (n - 1) + (H + ragged,))
    logs = en._box_logs(D, b)
    square, pairs, _ = _live_counts(D, logs)
    assert square == pairs
    hist = en._pair_histogram(D, logs, logs)
    assert en._quotient_energy(D, logs) == sum(c * c for c in hist.values())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cyclic_square_matches_the_literal_convolution(data):
    # counts up to 2^24 reach every digit width, 8 to 64 bits
    moduli = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    bits = data.draw(st.integers(0, 24))
    h = data.draw(st.dictionaries(st.integers(0, math.prod(moduli) - 1),
                                  st.integers(0, 2**bits), max_size=12))
    assert list(en._cyclic_square(h, moduli)) == cyclic_square_literal(h, moduli)
