"""Tests for short and complete character sums, moments, and bound shapes."""

import ast
import itertools
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from normsum import char_core as cc
from normsum import cli
from normsum import charsum as cs
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn
from normsum import linalg as la


def box(N, H):
    return fm.BoxSpec(tuple(N), tuple(H))


# ---------------------------------------------------------------------------
# pointwise character values: test-side oracles, no caller in src


def char_eval(chi: cc.DirichletChar, a: int) -> complex:
    idx = cc.char_index(chi, a)
    if idx is None:
        return complex(0, 0)
    return cc.root_of_unity(idx, chi.p - 1)


def is_principal(chi: cc.DirichletChar) -> bool:
    return chi.index == 0 or chi.p == 2


def lifted_eval(chi: cc.DirichletChar, ctx: fc.ExtFieldCtx, a: tuple) -> complex:
    idx = cc.lifted_index(chi, ctx, a)
    if idx is None:
        return complex(0, 0)
    return cc.root_of_unity(idx, chi.p - 1)


F5 = fc.ext_field_ctx(5, 1)
F9 = fc.ext_field_ctx(3, 2)
X1 = fm.FormSpec(5, 1, 1, (((1,), 1),))
SQUARES3 = fm.FormSpec(3, 2, 2, (((2, 0), 1), ((0, 2), 1)))


def per_point_histogram(chi, residues):
    """The per-point loop: one char_index call for each residue."""
    weights = [0] * max(1, chi.p - 1)
    zeros = 0
    for a in residues:
        idx = cc.char_index(chi, a)
        if idx is None:
            zeros += 1
        else:
            weights[idx] += 1
    return tuple(weights), zeros


class TestIndexHistogram:
    def test_matches_per_point_loop(self):
        rng = random.Random(3)
        for p in (2, 3, 5, 101):
            for idx in sorted({0, 1, (p - 1) // 2}):
                chi = cc.DirichletChar(p, idx)
                cases = [
                    [rng.randrange(p) for _ in range(400)],
                    [0] * 9,
                    [rng.randrange(1, p) for _ in range(400)],
                    [],
                ]
                for residues in cases:
                    got = cc.index_histogram(chi, residues)
                    assert got == per_point_histogram(chi, residues), (p, idx)

    def test_all_zero_and_zero_free(self):
        chi = cc.DirichletChar(5, 1)
        assert cc.index_histogram(chi, [0, 0, 0]) == ((0, 0, 0, 0), 3)
        # 1, 2, 4, 3 are g^0..g^3 for g = 2, so chi sends them to indices 0..3
        assert cc.index_histogram(chi, [1, 2, 4, 3, 3]) == ((1, 1, 1, 2), 0)

    def test_residue_outside_range_raises(self):
        chi = cc.DirichletChar(5, 1)
        for bad in (5, 7, -1):
            with pytest.raises(ValueError, match="outside"):
                cc.index_histogram(chi, [1, bad, 0])

    def test_index_list_matches_char_index(self):
        for p in (2, 3, 5, 13, 101):
            for idx in sorted({0, 1, (p - 1) // 2}):
                chi = cc.DirichletChar(p, idx)
                N = max(1, p - 1)
                expected = [N] + [cc.char_index(chi, a) for a in range(1, p)]
                assert cc.index_list(chi) == expected, (p, idx)

    def test_index_weights_sets_the_zero_marker_apart(self):
        assert cc.index_weights(4, [(0, 2), (3, 1), (4, 5), (0, 1)]) == ((3, 0, 0, 1), 5)
        assert cc.index_weights(1, []) == ((0,), 0)


def literal_product(a, b):
    """Every pair of entries, zeros included: the weights of a times b."""
    N = len(a)
    out = [0] * N
    for (e1, w1), (e2, w2) in itertools.product(enumerate(a), enumerate(b)):
        out[(e1 + e2) % N] += w1 * w2
    return tuple(out)


class TestWeightVectors:
    VECTORS = [(1,), (0, 3), (2, 0, 1), (1, 2, 0, 5), (0, 0, 4, 0, 0, 1), (3, 0, 0, 0, 0, 0, 2)]

    def test_convolve_matches_every_pair_and_the_float_product(self):
        rng = random.Random(5)
        for a in self.VECTORS:
            b = tuple(rng.randrange(3) for _ in a)
            assert cc.convolve(a, b) == literal_product(a, b), (a, b)
            product = cc.weights_value(a) * cc.weights_value(b)
            assert abs(cc.weights_value(cc.convolve(a, b)) - product) < 1e-9

    def test_convolve_refuses_vectors_of_two_lengths(self):
        with pytest.raises(ValueError, match="lengths 2 and 3"):
            cc.convolve((1, 0), (1, 0, 0))

    def test_power_matches_repeated_products(self):
        for w in self.VECTORS:
            literal = (1,) + (0,) * (len(w) - 1)
            for r in range(12):
                assert cc.power(w, r) == literal, (w, r)
                literal = literal_product(literal, w)
        with pytest.raises(ValueError, match="nonnegative"):
            cc.power((1, 0), -1)

    def test_modulus_is_the_squared_absolute_value(self):
        for w in self.VECTORS:
            sq = cc.modulus(w)
            assert sq == literal_product(w, tuple(w[-e % len(w)] for e in range(len(w))))
            assert cc.real_value(sq) == pytest.approx(abs(cc.weights_value(w)) ** 2)

    def test_real_value_needs_mirror_symmetric_weights(self):
        # w[e] == w[-e mod N]: zeta + zeta^-1 at N = 5 is 2 cos(2 pi / 5)
        assert cc.real_value((0, 1, 0, 0, 1)) == pytest.approx(2 * math.cos(2 * math.pi / 5))
        assert cc.real_value((4, 0, 7, 0)) == -3.0
        for w in ((0, 1, 0, 0), (1, 1, 0), (0, 1, 0, 0, 2), (1, 0, 0, 0, 1)):
            with pytest.raises(la.CheckFailed, match="not symmetric"):
                cc.real_value(w)


class TestDirect:
    def test_quadratic_line_frozen(self):
        chi = cc.DirichletChar(5, 2)
        r = cs.charsum_direct(chi, X1, box((0,), (4,)))
        assert r.value == 0
        assert r.weights == (2, 0, 2, 0)
        assert r.zero_terms == 0
        assert r.term_count == 4

    def test_full_period_orthogonality(self):
        for p in (5, 7, 11, 13):
            F = fm.FormSpec(p, 1, 1, (((1,), 1),))
            for idx in (1, 2, 3):
                chi = cc.DirichletChar(p, idx)
                if is_principal(chi):
                    continue
                r = cs.charsum_direct(chi, F, box((0,), (p,)))
                assert abs(r.value) < 1e-9

    def test_full_period_exact_zero_p5(self):
        # p-1 = 4: character values are exact Gaussian integers
        for idx in (1, 2, 3):
            r = cs.charsum_direct(cc.DirichletChar(5, idx), X1, box((0,), (5,)))
            assert r.value == 0

    def test_sum_of_squares_frozen(self):
        chi = cc.DirichletChar(3, 1)
        r = cs.charsum_direct(chi, SQUARES3, box((0, 0), (2, 2)))
        assert r.value == -4
        assert r.zero_terms == 0

    def test_zero_terms_counted(self):
        chi = cc.DirichletChar(5, 2)
        r = cs.charsum_direct(chi, X1, box((-1,), (2,)))
        assert r.zero_terms == 1
        assert r.value == 1

    def test_abs_bounded_by_volume(self):
        rng = random.Random(7)
        for _ in range(30):
            p = rng.choice((3, 5, 7, 11))
            n = rng.choice((1, 2))
            d = rng.randint(1, 3)
            if n == 1:
                monos = (((d,), rng.randint(1, p - 1)),)
            else:
                monos = tuple(
                    ((a, d - a), rng.randint(1, p - 1))
                    for a in rng.sample(range(d + 1), rng.randint(1, d + 1))
                )
            F = fm.FormSpec(p, n, d, monos)
            chi = cc.DirichletChar(p, rng.randrange(p - 1))
            B = box(
                [rng.randint(-p, p) for _ in range(n)],
                [rng.randint(1, 5) for _ in range(n)],
            )
            r = cs.charsum_direct(chi, F, B)
            assert abs(r.value) <= B.volume + 1e-9
            assert sum(r.weights) + r.zero_terms == B.volume

    def test_partition_independence(self):
        # split the box and recombine: exact weights must agree
        chi = cc.DirichletChar(7, 1)
        F = fm.FormSpec(7, 2, 2, (((1, 1), 1),))
        B = box((0, 0), (4, 4))
        whole = cs.charsum_direct(chi, F, B)
        weights = [0] * 6
        zeros = 0
        for part in B.pieces(2):
            piece = cs.charsum_direct(chi, F, part)
            zeros += piece.zero_terms
            for e, w in enumerate(piece.weights):
                weights[e] += w
        assert tuple(weights) == whole.weights
        assert zeros == whole.zero_terms

    def test_errors(self):
        chi5 = cc.DirichletChar(5, 1)
        with pytest.raises(ValueError, match="modulus"):
            cs.charsum_direct(chi5, SQUARES3, box((0, 0), (2, 2)))
        with pytest.raises(ValueError, match="dimension"):
            cs.charsum_direct(chi5, X1, box((0, 0), (2, 2)))
        with pytest.raises(ValueError, match="cap"):
            cs.charsum_direct(chi5, X1, box((0,), (2 * 10**8,)))


class TestLifted:
    def test_split_form_factorizes(self):
        chi = cc.DirichletChar(5, 1)
        F = fm.FormSpec(5, 2, 2, (((1, 1), 1),))
        D = fm.decompose(F)
        r = cs.charsum_lifted(D, chi, box((0, 0), (3, 4)))
        s1 = cs.charsum_direct(chi, X1, box((0,), (3,))).value
        s2 = cs.charsum_direct(chi, X1, box((0,), (4,))).value
        assert abs(r.value - s1 * s2) < 1e-9

    def test_equals_direct_exhaustive_boxes(self):
        cases = [
            (3, SQUARES3),
            (5, fm.FormSpec(5, 2, 2, (((1, 1), 1),))),
            (5, fm.FormSpec(5, 2, 2, (((2, 0), 1), ((1, 1), 1), ((0, 2), 1)))),
            (7, fm.FormSpec(7, 2, 2, (((2, 0), 1), ((0, 2), 1)))),
        ]
        for p, F in cases:
            D = fm.decompose(F)
            chi = cc.DirichletChar(p, 1)
            for N in itertools.product((-1, 0, 1), repeat=2):
                for H in itertools.product((1, 2, 3), repeat=2):
                    B = box(N, H)
                    a = cs.charsum_direct(chi, F, B)
                    b = cs.charsum_lifted(D, chi, B)
                    assert a.weights == b.weights, (p, N, H)
                    assert a.zero_terms == b.zero_terms

    def test_equals_direct_three_vars(self):
        F = fm.FormSpec(7, 3, 3, (((1, 2, 0), 1), ((1, 0, 2), 1)))
        D = fm.decompose(F)
        assert D.partition == (1, 2)
        chi = cc.DirichletChar(7, 1)
        for N in itertools.product((-1, 1), repeat=3):
            B = box(N, (2, 2, 2))
            a = cs.charsum_direct(chi, F, B)
            b = cs.charsum_lifted(D, chi, B)
            assert a.weights == b.weights
            assert a.zero_terms == b.zero_terms

    def test_equals_direct_random_boxes_large_p(self):
        rng = random.Random(11)
        cases = [
            (101, fm.FormSpec(101, 2, 2, (((2, 0), 1), ((0, 2), 1)))),
            (103, fm.FormSpec(103, 2, 2, (((2, 0), 1), ((0, 2), 1)))),
        ]
        for p, F in cases:
            D = fm.decompose(F)
            for _ in range(8):
                chi = cc.DirichletChar(p, rng.randint(1, p - 2))
                B = box(
                    [rng.randint(-p, p) for _ in range(2)],
                    [rng.randint(1, 6) for _ in range(2)],
                )
                a = cs.charsum_direct(chi, F, B)
                b = cs.charsum_lifted(D, chi, B)
                assert a.weights == b.weights
                assert a.zero_terms == b.zero_terms

    @pytest.mark.parametrize("side", [1, 2, 3, fm.PIECE_SIDE])
    def test_boxes_cut_into_pieces_match_the_per_point_loop(self, monkeypatch, side):
        # with small pieces every box below is cut, unevenly on some axes;
        # both routes must still count each point once
        monkeypatch.setattr(fm, "PIECE_SIDE", side)
        rng = random.Random(41)
        for p, n, partition in ((7, 1, (1,)), (11, 2, (2,)), (13, 2, (1, 1)), (5, 3, (2, 1))):
            D = fm.random_decomposition(p, n, partition, rng)
            F = fm.synthesize_form(D)
            chi = cc.DirichletChar(p, 1)
            for H in ((7,) * n, tuple(rng.randint(1, 8) for _ in range(n))):
                B = box([rng.randint(-p, p) for _ in range(n)], H)
                want = per_point_histogram(chi, (fm.eval_form(F, x) for x in B.iter_points()))
                for res in (cs.charsum_direct(chi, F, B), cs.charsum_lifted(D, chi, B)):
                    assert (res.weights, res.zero_terms) == want, (p, partition, B, side)

    def test_both_routes_sum_a_box_of_side_5000_plane_by_plane(self, monkeypatch):
        # at n = 2 a side of 5,000 is cut so that no plane holds more than
        # PIECE_SIDE points; both routes still count each point once
        rng = random.Random(71)
        D = fm.random_decomposition(13, 2, (2, 1), rng)
        F = fm.synthesize_form(D)
        chi = cc.DirichletChar(13, 1)
        sizes, plane_values = [], fm._plane_values

        def logged(coeffs, packed, code, size, p):
            sizes.append(size)
            return plane_values(coeffs, packed, code, size, p)

        monkeypatch.setattr(fm, "_plane_values", logged)
        for H in ((3, 5000), (5000, 3)):
            B = box((-2, 7), H)
            want = per_point_histogram(chi, (fm.eval_form(F, x) for x in B.iter_points()))
            for res in (cs.charsum_direct(chi, F, B), cs.charsum_lifted(D, chi, B)):
                assert (res.weights, res.zero_terms) == want, H
        assert max(sizes) == fm.PIECE_SIDE and sum(sizes) == 2 * 2 * 3 * 5000

    def test_a_wrong_packed_value_stops_both_routes_and_the_command(self, monkeypatch, capsys):
        # each plane's spot check compares one point with eval_form or
        # D.value, which do not pack: a shifted packed residue is a failed
        # check, exit 1, in either route
        plane_values = fm._plane_values

        def shifted(coeffs, packed, code, size, p):
            return [(v + 1) % p for v in plane_values(coeffs, packed, code, size, p)]

        monkeypatch.setattr(fm, "_plane_values", shifted)
        D = fm.random_decomposition(11, 3, (2, 1, 1), random.Random(73))
        chi, B = cc.DirichletChar(11, 1), box((0, 0, 0), (2, 3, 4))
        with pytest.raises(la.CheckFailed, match="packed value"):
            cs.charsum_direct(chi, fm.synthesize_form(D), B)
        with pytest.raises(la.CheckFailed, match="packed value"):
            cs.charsum_lifted(D, chi, B)
        argv = ["charsum", "--p", "11", "--n", "3", "--k", "4", "--kappa", "0.25", "--seed", "1"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("check failed: packed value"), err

    def test_volume_one_box(self):
        F = fm.FormSpec(5, 2, 2, (((1, 1), 1),))
        D = fm.decompose(F)
        chi = cc.DirichletChar(5, 1)
        B = box((2, 3), (1, 1))
        r = cs.charsum_lifted(D, chi, B)
        assert r.term_count == 1
        (x,) = list(B.iter_points())
        expected = char_eval(chi, fm.eval_form(F, x))
        assert abs(r.value - expected) < 1e-12

    def test_errors(self):
        D = fm.decompose(fm.FormSpec(5, 2, 2, (((1, 1), 1),)))
        with pytest.raises(ValueError, match="modulus"):
            cs.charsum_lifted(D, cc.DirichletChar(3, 1), box((0, 0), (2, 2)))
        with pytest.raises(ValueError, match="dimension"):
            cs.charsum_lifted(D, cc.DirichletChar(5, 1), box((0,), (2,)))


class TestWeil:
    def test_quadratic_frozen(self):
        chi = cc.DirichletChar(5, 2)
        value, bound, holds = cs.weil_complete_sum(chi, F5, [(0, 1), (1, 1)])
        assert value == -1
        assert bound == pytest.approx(math.sqrt(5))
        assert holds

    def test_power_branch(self):
        chi = cc.DirichletChar(5, 2)
        value, bound, holds = cs.weil_complete_sum(chi, F5, [(1, 2)])
        assert value == 4
        assert bound == 5.0
        assert holds

    def test_single_root_nonpower_vanishes(self):
        # f = (X+1)^2 with a quartic character: psi^2 is the quadratic
        # character, so the sum is a complete nonprincipal sum
        chi = cc.DirichletChar(5, 1)
        value, bound, holds = cs.weil_complete_sum(chi, F5, [(1, 2)])
        assert abs(value) < 1e-12
        assert bound == 0.0
        assert holds

    def test_lifted_f9_frozen(self):
        chi = cc.DirichletChar(3, 1)
        value, bound, holds = cs.weil_complete_sum(chi, F9, [(0, 1), (1, 1)])
        assert value == -1
        assert bound == 3.0
        assert holds

    def test_shift_merging(self):
        chi = cc.DirichletChar(5, 2)
        merged = cs.weil_complete_sum(chi, F5, [(1, 1), (6, 1)])
        direct = cs.weil_complete_sum(chi, F5, [(1, 2)])
        assert merged == direct
        assert merged[1] == 5.0

    def test_matches_literal_evaluation(self):
        for p in (5, 7):
            for idx in (1, 2):
                chi = cc.DirichletChar(p, idx)
                for factors in ([(0, 1), (1, 1)], [(2, 3)], [(0, 1), (1, 1), (3, 2)]):
                    value, _, _ = cs.weil_complete_sum(chi, fc.ext_field_ctx(p, 1), factors)
                    acc = complex(0, 0)
                    for x in range(p):
                        fx = 1
                        for shift, mult in factors:
                            fx = fx * pow(x + shift, mult, p) % p
                        acc += char_eval(chi, fx)
                    assert abs(value - acc) < 1e-9

    def test_lifted_matches_literal_evaluation(self):
        chi = cc.DirichletChar(3, 1)
        ctx = fc.ext_field_ctx(3, 2)
        factors = [(0, 1), (1, 1), (2, 2)]
        value, _, _ = cs.weil_complete_sum(chi, ctx, factors)
        acc = complex(0, 0)
        for x in ctx.iter_elements():
            fx = ctx.from_int(1)
            for shift, mult in factors:
                shifted = fc.ext_add(ctx, x, ctx.from_int(shift))
                fx = fc.ext_mul(ctx, fx, fc.ext_pow(ctx, shifted, mult))
            acc += lifted_eval(chi, ctx, fx)
        assert abs(value - acc) < 1e-9

    def test_sweep_shift_products(self):
        # every instance built from shift tuples in (0,3]^{2r} must satisfy
        # its branch bound; the sweep must hit genuinely non-power cases
        nonpower = 0
        for p, k in [(5, 1), (5, 2), (7, 1), (13, 1), (13, 2)]:
            for idx in (1, (p - 1) // 2):
                chi = cc.DirichletChar(p, idx)
                ctx = fc.ext_field_ctx(p, k)
                d = cc.char_order(chi)
                for r in (1, 2):
                    for t in itertools.product(range(1, 4), repeat=2 * r):
                        factors = [(t[j], 1) for j in range(r)] + [
                            (t[r + j], d - 1) for j in range(r) if d > 1
                        ]
                        value, bound, holds = cs.weil_complete_sum(chi, ctx, factors)
                        assert holds, (p, k, idx, r, t, value, bound)
                        if bound < p**k - 0.5:
                            nonpower += 1
        assert nonpower > 0

    def test_errors(self):
        chi = cc.DirichletChar(5, 2)
        with pytest.raises(ValueError, match="empty"):
            cs.weil_complete_sum(chi, F5, [])
        with pytest.raises(ValueError, match="positive"):
            cs.weil_complete_sum(chi, F5, [(1, 0)])


def dense_moment_weights(chi, ctxs, T, r):
    """The literal moment oracle: norms by norm_kernel at every z and t, and
    dense O((p-1)^2) cyclic loops for |inner|^{2r} at every z."""
    p = chi.p
    order = max(1, p - 1)

    def correlate(a, b):
        return [sum(a[(j + e) % order] * b[j] for j in range(order)) for e in range(order)]

    def convolve(a, b):
        return [sum(a[i] * b[(e - i) % order] for i in range(order)) for e in range(order)]

    # z runs over the concatenated raw coordinates of all fields; field i
    # owns z[a:b] and its shift by t lands on coordinate a
    cuts = tuple(itertools.accumulate((ctx.m for ctx in ctxs), initial=0))
    fields = [(fc.norm_kernel(ctx), a, b) for ctx, a, b in zip(ctxs, cuts, cuts[1:])]
    total = [0] * order
    for z in itertools.product(range(p), repeat=cuts[-1]):
        residues = [
            math.prod(norm((z[a] + t,) + z[a + 1 : b]) for norm, a, b in fields) % p
            for t in range(1, T + 1)
        ]
        inner, _ = per_point_histogram(chi, residues)
        sq = correlate(inner, inner)
        powed = sq
        for _ in range(r - 1):
            powed = convolve(powed, sq)
        total = [x + y for x, y in zip(total, powed)]
    return tuple(total)


# (p, k, r) of the benchmark's moment ops, each run as `moment` runs it
COMPLETE_MOMENT_GRID = (
    (17, 2, 2), (19, 2, 2), (23, 2, 2), (29, 2, 2), (7, 3, 2), (5, 4, 2),
    (3, 5, 3), (3, 6, 3),
)


class TestMoment:
    @pytest.mark.parametrize("p,k,r", COMPLETE_MOMENT_GRID)
    def test_matches_dense_oracle_on_moment_grid(self, p, k, r):
        chi, ctxs = cc.DirichletChar(p, (p - 1) // 2), (fc.ext_field_ctx(p, k),)
        T = max(1, int(p ** (k / (2 * r))))
        m = cs.s2_moment(chi, ctxs, T, r)
        assert m["weights"] == dense_moment_weights(chi, ctxs, T, r)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("partition", [(1, 1), (2, 1), (1, 2), (2,)])
    def test_matches_dense_oracle_on_partitions(self, p, partition):
        # index 1 is the character of order p - 1, (p - 1)/2 the quadratic one;
        # at p = 3 a window of 3 or 4 shifts meets zero more than once
        for idx in sorted({1, (p - 1) // 2}):
            chi = cc.DirichletChar(p, idx)
            ctxs = [fc.ext_field_ctx(p, ki) for ki in partition]
            for T, r in ((1, 1), (2, 2), (3, 1), (4, 2)):
                m = cs.s2_moment(chi, ctxs, T, r)
                assert m["weights"] == dense_moment_weights(chi, ctxs, T, r), (
                    idx, T, r,
                )

    @pytest.mark.parametrize("p,fields,T,r", [
        (p, fields, T, 1)
        for p in (3, 5, 7, 11)
        for fields in ((1,), (1, 1), (2,), (1, 2))
        for T in range(1, 7)
    ] + [(p, (k,), max(1, int(p ** (k / (2 * r)))), r) for p, k, r in COMPLETE_MOMENT_GRID]
      + [(997, (1,), T, 1) for T in (1, 2, 3)])
    def test_moment_work_bounds_the_keys_and_counts_the_reads(self, p, fields, T, r, monkeypatch):
        # index_weights sees each distinct key once, and the Counter of the
        # rows sees every index that keys a z.  At p = 997 the quadratic
        # character's 997 z's take at most 2T + 1 sorted keys, where
        # unsorted tuples give more
        keys, reads = [], []
        index_weights = cc.index_weights

        def weights(N, counts):
            keys.append(tuple(sorted(counts)))
            return index_weights(N, keys[-1])

        def counter(items=()):
            items = list(items)
            reads.extend(len(row) for row in items if isinstance(row, tuple))
            return Counter(items)

        monkeypatch.setattr(cc, "index_weights", weights)
        monkeypatch.setattr(cs, "Counter", counter)
        ctxs = [fc.ext_field_ctx(p, m) for m in fields]
        k, convolutions = sum(fields), r.bit_length() + bin(r).count("1")
        for idx in sorted({1, (p - 1) // 2}):
            chi = cc.DirichletChar(p, idx)
            keys.clear()
            reads.clear()
            cs.s2_moment(chi, ctxs, T, r)
            work = cs.moment_work(p, k, T, r, cc.char_order(chi), len(fields))
            assert sum(reads) == work[0] == p**k * T
            assert len(set(keys)) == len(keys) <= work[1] // ((p - 1) * convolutions), idx

    def test_asymmetric_weights_fail_closed(self, monkeypatch):
        # one perturbed weight makes total[1] != total[-1]: the value would
        # not be real, whatever its float imaginary part
        power = cc.power

        def perturbed(w, r):
            out = list(power(w, r))
            out[1] += 1
            return tuple(out)

        monkeypatch.setattr(cc, "power", perturbed)
        with pytest.raises(la.CheckFailed, match="not symmetric"):
            cs.s2_moment(cc.DirichletChar(7, 3), (fc.ext_field_ctx(7, 1),), 2, 1)

    def test_frozen_p5(self):
        m = cs.s2_moment(cc.DirichletChar(5, 2), [F5], 2, 1)
        assert m["value"] == pytest.approx(6.0)
        assert sum(m["weights"]) == 14
        assert m["bound_terms"] == (4 * math.sqrt(5), 10.0)
        assert m["ratio"] == pytest.approx(6.0 / (4 * math.sqrt(5) + 10.0))

    def test_single_shift_counts_nonzero(self):
        assert cs.s2_moment(cc.DirichletChar(5, 2), [F5], 1, 2)["value"] == pytest.approx(4.0)
        F3 = fc.ext_field_ctx(3, 1)
        assert cs.s2_moment(cc.DirichletChar(3, 1), [F3, F3], 1, 1)["value"] == pytest.approx(4.0)

    def test_principal_counts_surviving_shifts(self):
        m = cs.s2_moment(cc.DirichletChar(5, 0), [F5], 2, 1)
        expected = sum(
            sum(1 for t in (1, 2) if (t + z) % 5 != 0) ** 2 for z in range(5)
        )
        assert m["value"] == pytest.approx(float(expected))

    def test_float_crosscheck(self):
        cases = [
            (5, (1,), 1, 3, 2),
            (3, (2,), 1, 2, 1),
            (3, (1, 1), 1, 2, 2),
            (7, (1,), 3, 2, 1),
        ]
        for p, partition, idx, T, r in cases:
            chi = cc.DirichletChar(p, idx)
            ctxs = [fc.ext_field_ctx(p, ki) for ki in partition]
            m = cs.s2_moment(chi, ctxs, T, r)
            brute = 0.0
            for z in itertools.product(*[ctx.iter_elements() for ctx in ctxs]):
                inner = complex(0, 0)
                for t in range(1, T + 1):
                    term = complex(1, 0)
                    for ctx, zi in zip(ctxs, z):
                        term *= lifted_eval(chi, ctx, fc.ext_add(ctx, zi, ctx.from_int(t)))
                    inner += term
                brute += abs(inner) ** (2 * r)
            assert m["value"] == pytest.approx(brute, abs=1e-6)

    def test_errors(self):
        chi = cc.DirichletChar(5, 2)
        with pytest.raises(ValueError, match="at least one field"):
            cs.s2_moment(chi, [], 2, 1)
        with pytest.raises(ValueError, match="positive"):
            cs.s2_moment(chi, [F5], 0, 1)
        with pytest.raises(ValueError, match="positive"):
            cs.s2_moment(chi, [F5], 2, 0)
        # 5 x 10^8 index reads; the z's of two fields of 5^8 elements
        with pytest.raises(ValueError, match="moment enumeration infeasible"):
            cs.s2_moment(chi, [F5], 10**8, 1)
        F58 = fc.ext_field_ctx(5, 8)
        with pytest.raises(ValueError, match="moment enumeration infeasible"):
            cs.s2_moment(chi, [F58, F58], 1, 1)
        # a field past the field cap is refused before a moment can take it
        with pytest.raises(ValueError, match=r"field size 5\^9 exceeds cap"):
            cs.s2_moment(chi, [fc.ext_field_ctx(5, 9)], 1, 1)


def weil_lists(T, r, d):
    """weil-check's T^(2r) factor lists for a character of order d:
    (t_j, 1) then (t_(r+j), d - 1), at least 1, for t in (0, T]^(2r)."""
    for t in itertools.product(range(1, T + 1), repeat=2 * r):
        yield [(t[j], 1) for j in range(r)] + [(t[r + j], max(1, d - 1)) for j in range(r)]


class TestWeilCheckSumsToMoment:
    """|sum_t psi(z + t)|^(2r) over t in (0, T] expands into the products
    psi(z + t_1) ... psi(z + t_r) conj psi(z + t_(r+1)) ... conj psi(z + t_2r),
    and conj psi = psi^(d - 1) for psi of order d, zero at zero either way.
    So the complete sums at weil-check's T^(2r) factor lists,
    (t_j, 1) then (t_(r+j), d - 1), add up to the moment at the same T."""

    @pytest.mark.parametrize("p,m,r", [
        (3, 2, 1), (5, 2, 1), (7, 1, 2), (3, 3, 1), (5, 1, 2), (7, 2, 1), (3, 2, 2),
    ])
    def test_complete_sums_add_up_to_the_moment(self, p, m, r):
        T, ctx = 3, fc.ext_field_ctx(p, m)
        for idx in sorted({1, (p - 1) // 2}):
            chi = cc.DirichletChar(p, idx)
            sums = [cs.weil_complete_sum(chi, ctx, factors)[0]
                    for factors in weil_lists(T, r, cc.char_order(chi))]
            assert len(sums) == T ** (2 * r)
            moment = cs.s2_moment(chi, (ctx,), T, r)["value"]
            assert abs(sum(sums) - moment) <= 1e-9 * max(1.0, abs(moment)), (idx, moment)


def direct_weil_rows(p, m, r):
    """run_weil_check's rows at one prime, with every list summed on its own."""
    T, ctx, rows = 3, fc.ext_field_ctx(p, m), []
    for idx in sorted({1, (p - 1) // 2}):
        chi = cc.DirichletChar(p, idx)
        worst, nonpower = 0.0, 0
        for factors in weil_lists(T, r, cc.char_order(chi)):
            value, bound, holds = cs.weil_complete_sum(chi, ctx, factors)
            assert holds, (p, idx, factors)
            if 0 < bound < float(ctx.order):
                nonpower += 1
                worst = max(worst, abs(value) / bound)
        rows.append(hn.scan_row(p, 1, m, (T,), f"weil_max_ratio_chi{idx}", worst, 1.0))
        rows.append(hn.scan_row(p, 1, m, (T,), f"weil_nonpower_count_chi{idx}", nonpower, None))
    return rows


def weil_calls(monkeypatch, config):
    """run_weil_check's weil_complete_sum calls per character index."""
    calls = Counter()
    weil = cs.weil_complete_sum

    def spy(chi, ctx, factors):
        calls[chi.index] += 1
        return weil(chi, ctx, factors)

    monkeypatch.setattr(cs, "weil_complete_sum", spy)
    hn.run_weil_check(config)
    monkeypatch.setattr(cs, "weil_complete_sum", weil)
    return calls


class TestFactorClass:
    """weil-check takes one complete sum per factor_class; every list of a
    class must have that sum, and the rows must be those of every list
    summed on its own."""

    @pytest.mark.parametrize("p,m,r", [
        (p, m, r) for p in (3, 5, 7, 11, 13) for m in (1, 2) for r in (1, 2)
    ] + [(3, 3, 1), (3, 3, 2), (5, 3, 1), (5, 3, 2)])
    def test_rows_match_every_list_summed(self, p, m, r):
        # p = 2 has no nonprincipal character and is skipped before any sum
        config = hn.ExperimentConfig("weil-check", p, p, k=m, r=r)
        assert hn.run_weil_check(config) == (direct_weil_rows(p, m, r), [])

    def test_one_sum_per_class_at_r1(self, monkeypatch):
        # (t, 1)(t, d - 1) is a d-th power; t' - t is +-1 or +-2 mod p, and
        # the quadratic character cannot tell +-delta apart
        calls = weil_calls(monkeypatch, hn.ExperimentConfig("weil-check", 3, 3, k=2, r=1))
        assert calls == {1: 2}
        for p in (5, 7, 11, 13):
            calls = weil_calls(monkeypatch, hn.ExperimentConfig("weil-check", p, p, k=1, r=1))
            assert calls == {1: 5, (p - 1) // 2: 3}, p

    def test_complete_workload_weil_ops_take_44_sums(self, monkeypatch):
        # the seven weil-check ops of the bench's complete workload: 108 lists
        calls = Counter()
        for p, m in ((5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (3, 4), (5, 3)):
            config = hn.ExperimentConfig("weil-check", p, p, k=m, r=1)
            calls += weil_calls(monkeypatch, config)
        assert sum(calls.values()) == 44

    def test_translation(self):
        assert cs.factor_class([(3, 1), (4, 1)], 7, 2) == ((0, 1), (1, 1))
        assert cs.factor_class([(6, 1), (7, 1)], 7, 2) == ((0, 1), (1, 1))
        # the least of the two translates, with either shift at 0
        assert cs.factor_class([(2, 1), (1, 5)], 7, 6) == ((0, 1), (6, 5))
        assert cs.factor_class([(1, 1), (2, 5)], 7, 6) == ((0, 1), (1, 5))

    def test_multiplicities_mod_d(self):
        assert cs.factor_class([(1, 3), (2, 1)], 5, 2) == ((0, 1), (1, 1))
        assert cs.factor_class([(1, 1), (6, 2)], 5, 2) == ((0, 1),)
        assert cs.factor_class([(2, 7)], 7, 6) == ((0, 1),)

    @pytest.mark.parametrize("p", [5, 7])
    def test_a_zero_shift_stays_in_the_class(self, p):
        # (X+1)(X+3)(X+2)(X+3) = (X+1)(X+2)(X+3)^2 vanishes at x = -3, where
        # (X+1)^3 (X+2) does not: the squares (X+3)^2 and (X+1)^2 are not the same
        chi = cc.DirichletChar(p, (p - 1) // 2)
        a, b = [(1, 1), (3, 1), (2, 1), (3, 1)], [(1, 1), (1, 1), (2, 1), (1, 1)]
        assert cs.factor_class(a, p, 2) == ((0, 0), (p - 2, 1), (p - 1, 1))
        assert cs.factor_class(b, p, 2) == ((0, 1), (1, 1))
        F = fc.ext_field_ctx(p, 1)
        assert cs.weil_complete_sum(chi, F, a) != cs.weil_complete_sum(chi, F, b)

    def test_lists_of_one_class_have_one_sum(self):
        # every list of up to three factors with shifts and multiplicities
        # in [0, 4) x [1, 5) over F_25 and F_7, at each character
        for p, m in ((5, 2), (7, 1)):
            ctx = fc.ext_field_ctx(p, m)
            for idx in range(1, p - 1):
                chi = cc.DirichletChar(p, idx)
                d, seen = cc.char_order(chi), {}
                for size in (1, 2, 3):
                    for factors in itertools.product(
                        itertools.product(range(4), range(1, 5)), repeat=size
                    ):
                        out = cs.weil_complete_sum(chi, ctx, factors)
                        key = cs.factor_class(factors, p, d)
                        assert seen.setdefault(key, out) == out, (p, idx, factors)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            cs.factor_class([], 5, 2)
        with pytest.raises(ValueError, match="positive"):
            cs.factor_class([(1, 0)], 5, 2)


# the shapes 1 <= n <= k < 2n up to n = 3, and the kappas of the grid
SHAPES = [(n, k) for n in (1, 2, 3) for k in range(n, 2 * n)]
KAPPAS = (0.001, 0.01, 0.1, 0.25, 0.5, 1.0, 3.0)


def saving_terms(n: int, k: int, kappa: float) -> tuple:
    """(a, b) with saving = a/r - b/r^2 - eps, written out by hand."""
    a = Fraction(n - k, 2) + (2 * n - k) * Fraction(str(kappa))
    return a, Fraction(k * (2 * n - k), 4)


def saving_at(params, r: int) -> Fraction:
    return cs.saving(cs.BoundParams(params.n, params.k, r, params.eps, params.kappa))


def complete_sum_reference(p: int, n: int, H_norm: int) -> float:
    """Reference envelope for full-box sums, for comparison only."""
    return H_norm * p ** (-n / 2) + p ** (n / 2) * math.log(p) ** n


class TestBounds:
    def test_params_validation(self):
        cs.BoundParams(1, 1, 2)
        cs.BoundParams(2, 3, 4, eps=0.01, kappa=0.1)
        with pytest.raises(ValueError, match="exceed"):
            cs.BoundParams(1, 1, 1)
        with pytest.raises(ValueError, match="1 <= n"):
            cs.BoundParams(0, 1, 2)
        with pytest.raises(ValueError, match="1 <= n"):
            cs.BoundParams(2, 1, 3)
        with pytest.raises(ValueError, match="1 <= n"):
            cs.BoundParams(2, 4, 5)
        with pytest.raises(ValueError, match="nonnegative"):
            cs.BoundParams(1, 1, 2, eps=-0.1)

    def test_p_exponent_burgess(self):
        assert cs.p_exponent(cs.BoundParams(1, 1, 2)) == Fraction(3, 16)
        for r in range(2, 7):
            assert cs.p_exponent(cs.BoundParams(1, 1, r)) == Fraction(r + 1, 4 * r * r)

    def test_p_exponent_diagonal(self):
        for n in range(1, 5):
            for r in range(n + 1, n + 5):
                expected = Fraction(n * (r + n), 4 * r * r)
                assert cs.p_exponent(cs.BoundParams(n, n, r)) == expected

    def test_rhs_numeric(self):
        params = cs.BoundParams(1, 1, 2)
        expected = 10 * 10 ** (-0.5) * 97 ** (3 / 16)
        assert cs.bound_rhs(params, 10, 10, 97) == pytest.approx(expected)
        with pytest.raises(ValueError, match="positive"):
            cs.bound_rhs(params, 0, 10, 97)

    def test_rhs_nontrivial_past_quarter(self):
        # just above the p^{1/4} threshold a large moment exponent saves,
        # while the smallest admissible one does not
        p = 10**6 + 3
        H = round(p**0.3)
        weak = cs.bound_rhs(cs.BoundParams(1, 1, 2), H, H, p)
        strong = cs.bound_rhs(cs.BoundParams(1, 1, 6), H, H, p)
        assert strong < H < weak
        assert cs.saving(cs.BoundParams(1, 1, 6, kappa=0.05)) > 0
        assert cs.saving(cs.BoundParams(1, 1, 2, kappa=0.05)) < 0

    @pytest.mark.parametrize("p, H_min", [(16, 4), (81, 9)])
    def test_saving_is_the_power_of_p_that_rhs_saves(self, p, H_min):
        # p^(1/4 + 1/4) = H_min is an integer, so bound_rhs meets the box exactly
        for n, k, eps in [(1, 1, 0.0), (2, 2, 0.0), (2, 3, 0.01), (3, 4, 0.0), (3, 5, 0.2)]:
            for r in range(k + 1, k + 8):
                params = cs.BoundParams(n, k, r, eps=eps, kappa=0.25)
                rhs = cs.bound_rhs(params, H_min, H_min**n, p)
                assert isinstance(cs.saving(params), Fraction)
                assert float(cs.saving(params)) == pytest.approx(
                    -math.log(rhs / H_min**n, p), rel=1e-12, abs=1e-12
                )

    def test_saving_reads_kappa_and_eps_as_the_decimals_given(self):
        params = cs.BoundParams(1, 1, 2, eps=0.1, kappa=0.1)
        # (1/4 + 1/10) / 2 - 3/16 - 1/10
        assert cs.saving(params) == Fraction(7, 40) - Fraction(3, 16) - Fraction(1, 10)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_closed_form_search_and_scan_agree(self, kappa):
        for n, k in SHAPES:
            params = cs.BoundParams(n, k, k + 1, kappa=kappa)
            a, b = saving_terms(n, k, kappa)
            r_opt = cs.optimal_exponent(params)
            assert r_opt == cs.search_exponent(params)
            if a <= 0:
                assert r_opt is None
                continue
            if 2 * b / a < k + 200:
                # the first maximum of a plain scan is the least r on a tie
                scan = max(range(k + 1, k + 201), key=lambda r: saving_at(params, r))
                assert r_opt == scan, (n, k, kappa)

    def test_saving_is_a_over_r_minus_b_over_r_squared(self):
        for kappa in KAPPAS:
            for n, k in SHAPES:
                a, b = saving_terms(n, k, kappa)
                params = cs.BoundParams(n, k, k + 1, eps=0.01, kappa=kappa)
                for r in range(k + 1, k + 20):
                    assert saving_at(params, r) == a / r - b / r**2 - Fraction(1, 100)

    @pytest.mark.parametrize("n, kappa", [(1, 0.1125), (2, 0.225)])
    def test_a_tie_goes_to_the_smaller_r(self, n, kappa):
        # saving(4) = saving(5) when a = b (2r + 1) / (r (r + 1)) at r = 4
        params = cs.BoundParams(n, n, n + 1, kappa=kappa)
        assert saving_at(params, 4) == saving_at(params, 5) > saving_at(params, 3)
        assert cs.optimal_exponent(params) == cs.search_exponent(params) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_some_r_saves_at_k_equal_n_for_every_kappa(self, n):
        for kappa in KAPPAS:
            params = cs.BoundParams(n, n, n + 1, kappa=kappa)
            least = next(r for r in itertools.count(n + 1) if saving_at(params, r) > 0)
            quarter = Fraction(n) / (4 * Fraction(str(kappa)))
            assert least == math.floor(max(n, quarter)) + 1, (n, kappa)

    # (6, 7): its threshold 1/10 is no binary float, so a float kappa would
    # make a > 0 and put a peak near r = 10^18
    @pytest.mark.parametrize("n, k", [(2, 3), (3, 4), (3, 5), (6, 7)])
    def test_past_k_equal_n_a_saving_needs_kappa_past_its_threshold(self, n, k):
        # a = (n - k)/2 + (2n - k) kappa is 0 at kappa = (k - n) / (2(2n - k))
        threshold = Fraction(k - n, 2 * (2 * n - k))
        at = cs.BoundParams(n, k, k + 1, kappa=float(threshold))
        assert Fraction(str(at.kappa)) == threshold
        assert cs.optimal_exponent(at) is None and cs.search_exponent(at) is None
        # at a = 0 the saving is -b/r^2 < 0 for every r
        b = Fraction(k * (2 * n - k), 4)
        assert all(saving_at(at, r) == -b / r**2 for r in range(k + 1, k + 200))
        above = cs.BoundParams(n, k, k + 1, kappa=float(threshold) + 0.001)
        r = cs.optimal_exponent(above)
        assert r == cs.search_exponent(above) and saving_at(above, r) > 0

    def test_no_maximum_without_a_positive_a(self):
        # kappa = 0 at k = n, and every kappa below the threshold past it
        for n, k, kappa in [(1, 1, 0.0), (3, 3, 0.0), (2, 3, 0.1), (3, 5, 0.9)]:
            params = cs.BoundParams(n, k, k + 1, kappa=kappa)
            assert cs.optimal_exponent(params) is None
            assert cs.search_exponent(params) is None
            rising = [saving_at(params, r) for r in range(k + 1, k + 50)]
            assert rising == sorted(set(rising))

    def test_the_search_has_no_window(self):
        # 5 x 10^19 is past a C ssize_t, so no range object can hold the search
        start = time.perf_counter()
        for kappa, want in [(0.001, 500), (1e-6, 500_000), (1e-9, 500_000_000),
                            (1e-20, 5 * 10**19)]:
            params = cs.BoundParams(1, 1, 2, kappa=kappa)
            assert cs.optimal_exponent(params) == cs.search_exponent(params) == want
        assert time.perf_counter() - start < 1

    def test_reference_envelope(self):
        ref = complete_sum_reference(101, 2, 101**2)
        assert ref == pytest.approx(101 + 101 * math.log(101) ** 2)


def test_charsum_has_no_assert_statements():
    tree = ast.parse(Path(cs.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_result_invariants_raise_check_failed():
    with pytest.raises(la.CheckFailed, match="add up"):
        cs.CharSumResult(2, (1, 0, 0, 0), 0)
    # the counts add up, but a negative weight would let |sum| pass the term
    # count: (3, 0, -1, 0) at N = 4 is 3 - (-1) = 4 > 2
    with pytest.raises(la.CheckFailed, match="negative"):
        cs.CharSumResult(2, (3, 0, -1, 0), 0)
    with pytest.raises(la.CheckFailed, match="negative"):
        cs.CharSumResult(2, (3, 0, 0, 0), -1)
    assert cs.CharSumResult(2, (1, 0, 1, 0), 0).value == 0


def test_result_invariant_fails_under_optimize():
    script = (
        "from normsum import charsum as cs, forms as fm, linalg as la\n"
        "try:\n"
        "    cs.CharSumResult(2, (1, 0, 0, 0), 0)\n"
        "except la.CheckFailed as exc:\n"
        "    print('CheckFailed:', exc)\n"
    )
    src = str(Path(cs.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CheckFailed: weights and zero terms")
