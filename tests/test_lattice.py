"""Congruence lattices: duals, trace-form symmetrizers, point counts, minima."""

import ast
import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from normsum import field_core as fc
from normsum import lattice as lt
from normsum import linalg as la


def scalars(p, *cs):
    """(contexts, multipliers) for prime-field multipliers c mod p."""
    ctx = fc.ext_field_ctx(p, 1)
    return (ctx,) * len(cs), tuple(ctx.from_int(c) for c in cs)


def random_nonsingular(rng, n, p):
    while True:
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if la.mat_det(A, p) != 0:
            return A


def random_multiplier(rng, p, partition):
    """(contexts, nonzero coefficient tuples), one per part of the partition."""
    ctxs, z = tuple(fc.ext_field_ctx(p, m) for m in partition), []
    for m in partition:
        while True:
            a = tuple(rng.randrange(p) for _ in range(m))
            if any(a):
                z.append(a)
                break
    return ctxs, tuple(z)


# ---------------------------------------------------------------------------
# multiplication matrices


def test_companion_degree_one():
    ctx = fc.ext_field_ctx(5, 1, (3, 1))
    assert lt.mult_matrix(ctx, ctx.gen()) == ((2,),)
    ctx = fc.ext_field_ctx(5, 1)
    assert lt.mult_matrix(ctx, ctx.gen()) == ((0,),)


def test_companion_F9():
    ctx = fc.ext_field_ctx(3, 2)
    assert lt.mult_matrix(ctx, ctx.gen()) == ((0, 2), (1, 0))


def test_companion_satisfies_defining_poly():
    # f(M_w) = 0 for the matrix M_w of multiplication by the generator
    for p, m in [(3, 2), (5, 2), (2, 4), (7, 1), (3, 3)]:
        ctx = fc.ext_field_ctx(p, m)
        comp = lt.mult_matrix(ctx, ctx.gen())
        acc = [[0] * m for _ in range(m)]
        power = la.identity(m)
        for coeff in ctx.defining_poly:
            acc = [
                [(acc[i][j] + coeff * power[i][j]) % p for j in range(m)]
                for i in range(m)
            ]
            power = la.mat_mul(power, comp, p)
        assert acc == [[0] * m for _ in range(m)]


def test_mult_matrix_one_and_generator():
    # the generator's matrix is f's companion: ones below the diagonal and
    # -f_0, ..., -f_{m-1} down the last column
    for p, m in [(3, 2), (5, 3)]:
        ctx = fc.ext_field_ctx(p, m)
        assert lt.mult_matrix(ctx, ctx.from_int(1)) == tuple(
            tuple(r) for r in la.identity(m)
        )
        assert lt.mult_matrix(ctx, ctx.gen()) == tuple(
            tuple(int(i == j + 1) for j in range(m - 1)) + (-ctx.defining_poly[i] % p,)
            for i in range(m)
        )


def test_mult_matrix_F9_closed_form():
    ctx = fc.ext_field_ctx(3, 2)
    for a0, a1 in itertools.product(range(3), repeat=2):
        M = lt.mult_matrix(ctx, (a0, a1))
        assert M == ((a0, (2 * a1) % 3), (a1, a0))
        assert la.mat_det(M, 3) == (a0 * a0 + a1 * a1) % 3
        assert (la.mat_det(M, 3) == 0) == (a0 == a1 == 0)


def test_mult_matrix_matches_field_multiplication():
    for p, m in [(2, 3), (3, 2), (5, 2), (5, 4)]:
        ctx = fc.ext_field_ctx(p, m)
        for a in ctx.iter_elements():
            assert lt.mult_matrix(ctx, a) == lt.mult_matrix_via_columns(ctx, a)


def test_mult_matrix_acts_on_coordinates():
    rng = random.Random(7)
    for p, m in [(3, 3), (7, 2)]:
        ctx = fc.ext_field_ctx(p, m)
        for _ in range(30):
            a = tuple(rng.randrange(p) for _ in range(m))
            b = tuple(rng.randrange(p) for _ in range(m))
            M = lt.mult_matrix(ctx, a)
            assert tuple(la.mat_vec(M, list(b), p)) == fc.ext_mul(ctx, a, b)


def test_mult_matrix_homomorphism_exhaustive():
    for p, m in [(2, 3), (3, 4)]:
        ctx = fc.ext_field_ctx(p, m)
        mats = {a: lt.mult_matrix(ctx, a) for a in ctx.iter_elements()}
        for a in ctx.iter_elements():
            for b in ctx.iter_elements():
                lhs = la.mat_mul(mats[a], mats[b], p)
                assert tuple(tuple(r) for r in lhs) == mats[fc.ext_mul(ctx, a, b)]


def test_block_mult_matrix_split_case():
    assert lt.block_mult_matrix(*scalars(5, 2, 4)) == [[2, 0], [0, 4]]


# ---------------------------------------------------------------------------
# lattice construction


def test_build_frozen_basis():
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 1))
    assert L.columns() == [(1, 1), (0, 5)]
    assert L.det() == 5


def test_build_membership_scalar():
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 3))
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert L.contains((x, y)) == ((x - 3 * y) % 5 == 0)
            assert L.form.holds((x, y)) == ((x - 3 * y) % 5 == 0)


def test_build_matches_generic_congruence():
    rng = random.Random(3)
    for p, partition in [(5, (1, 1)), (3, (2,)), (7, (2, 1))]:
        n = sum(partition)
        A = random_nonsingular(rng, n, p)
        Ap = random_nonsingular(rng, n, p)
        ctxs, z = random_multiplier(rng, p, partition)
        L = lt.build_lattice(A, Ap, ctxs, z)
        M = lt.block_mult_matrix(ctxs, z)
        G = lt.congruence_lattice(p, A, la.mat_mul(M, Ap, p))
        assert L.basis == G.basis


def test_membership_agreement_random():
    rng = random.Random(11)
    for p, partition in [(5, (2,)), (7, (1, 1)), (11, (2, 1))]:
        n = sum(partition)
        L = lt.build_lattice(
            random_nonsingular(rng, n, p),
            random_nonsingular(rng, n, p),
            *random_multiplier(rng, p, partition),
        )
        for _ in range(1000):
            v = tuple(rng.randrange(-2 * p, 2 * p + 1) for _ in range(2 * n))
            assert L.contains(v) == L.form.holds(v)


def test_determinant_invariant():
    rng = random.Random(17)
    cases = [(3, (1,)), (3, (2, 1)), (5, (2,)), (5, (1, 1, 1)), (7, (3,)), (11, (1, 1))]
    done = 0
    while done < 50:
        p, partition = cases[done % len(cases)]
        n = sum(partition)
        L = lt.build_lattice(
            random_nonsingular(rng, n, p),
            random_nonsingular(rng, n, p),
            *random_multiplier(rng, p, partition),
        )
        assert L.det() == p**n
        done += 1


def test_build_errors():
    with pytest.raises(ValueError, match="nonzero"):
        lt.build_lattice([[1]], [[1]], *scalars(5, 0))
    with pytest.raises(ValueError, match="singular"):
        lt.build_lattice([[0]], [[1]], *scalars(5, 1))
    with pytest.raises(ValueError, match="empty"):
        lt.build_lattice([], [], (), ())
    with pytest.raises(ValueError):
        lt.congruence_lattice(5, [[1, 0], [0, 1]], [[1]])


def generator_hnf(p, P, Q):
    """The HNF of the generators (R e_j, e_j) and (p e_i, 0), R = P^-1 Q,
    as rows: the route the closed-form basis replaced, kept as a reference."""
    n = len(P)
    R = la.mat_mul(la.mat_inv(P, p), Q, p)
    gens = [tuple(R[i][j] for i in range(n)) + tuple(int(i == j) for i in range(n))
            for j in range(n)]
    gens += [tuple(p * (t == i) for t in range(n)) + (0,) * n for i in range(n)]
    cols = la.hnf_columns(gens, 2 * n)
    return tuple(tuple(col[i] for col in cols) for i in range(2 * n))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 997])
def test_congruence_basis_is_the_hnf_of_the_generators(p, n):
    rng = random.Random(10 * p + n)
    for _ in range(20):
        # unreduced entries: the basis depends only on P and Q mod p
        P, Q = (
            [[v + p * rng.randint(-1, 1) for v in row] for row in random_nonsingular(rng, n, p)]
            for _ in range(2)
        )
        assert lt.congruence_lattice(p, P, Q).basis == generator_hnf(p, P, Q)


def test_congruence_lattice_takes_no_hnf_or_determinant(monkeypatch):
    def refused(*args):
        raise AssertionError("not called")

    expected = generator_hnf(5, [[1, 2], [3, 4]], [[2, 1], [1, 1]])
    monkeypatch.setattr(la, "hnf_columns", refused)
    monkeypatch.setattr(la, "mat_det", refused)
    assert lt.congruence_lattice(5, [[1, 2], [3, 4]], [[2, 1], [1, 1]]).basis == expected


@pytest.mark.parametrize("singular", ["P", "Q"])
def test_congruence_lattice_refuses_a_singular_coupling(singular):
    rng = random.Random(29)
    for p, n in [(2, 1), (3, 2), (7, 3), (101, 2)]:
        M = random_nonsingular(rng, n, p)
        Z = M[:-1] + [[p * v for v in M[0]]]  # last row vanishes mod p
        P, Q = (Z, M) if singular == "P" else (M, Z)
        with pytest.raises(ValueError, match=f"matrix singular mod {p}"):
            lt.congruence_lattice(p, P, Q)


def test_a_wrong_inverse_trips_the_basis_column_check(monkeypatch):
    inverse = la.mat_inv

    def off_by_one(A, p):
        inv = inverse(A, p)
        inv[0][0] = (inv[0][0] + 1) % p
        return inv

    monkeypatch.setattr(la, "mat_inv", off_by_one)
    with pytest.raises(la.CheckFailed, match="breaks P x = Q y mod 5"):
        lt.congruence_lattice(5, [[1, 0], [0, 1]], [[2, 1], [1, 1]])


@pytest.mark.parametrize("fields,z,match", [
    ([(5, 1)], ((1,), (2,)), "2 multiplier components for 1 fields"),
    ([(5, 1), (5, 1)], ((1,),), "1 multiplier components for 2 fields"),
    ([(5, 1)], ((1, 0),), "length 2 for a field of degree 1"),
    ([(5, 2)], ((1,),), "length 1 for a field of degree 2"),
    ([(5, 2)], ((0, 0),), "nonzero"),
    ([(5, 1), (5, 2)], ((3,), (5, 0)), "nonzero"),
    ([(5, 1), (7, 1)], ((1,), (1,)), "different primes"),
])
def test_multiplier_checks_at_the_tuple_entry_points(fields, z, match):
    ctxs = tuple(fc.ext_field_ctx(p, m) for p, m in fields)
    n = sum(m for _, m in fields)
    with pytest.raises(ValueError, match=match):
        lt.block_mult_matrix(ctxs, z)
    with pytest.raises(ValueError, match=match):
        lt.build_lattice(la.identity(n), la.identity(n), ctxs, z)


def test_lattice_type_errors():
    with pytest.raises(ValueError, match="lower-triangular with positive pivots"):
        lt.IntegerLattice(2, ((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="square"):
        lt.IntegerLattice(2, ((1, 0),))


def test_lattice_rejects_a_non_triangular_basis():
    for basis in [((1, 1), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 0), (3, -5)),
                  ((1, 0), (3, 0))]:
        with pytest.raises(ValueError, match="lower-triangular with positive pivots"):
            lt.IntegerLattice(2, basis)
    assert lt.IntegerLattice(2, ((2, 0), (-3, 5))).det() == 10


# ---------------------------------------------------------------------------
# symmetrizers and duals


def test_symmetrizer_frozen_F9_block():
    assert lt.symmetrizer(fc.ext_field_ctx(3, 2)) == ((2, 0), (0, 1))


def test_symmetrizer_is_built_once_per_field_and_immutable(monkeypatch):
    # the dual routes read one symmetrizer per field; a second call is the
    # same tuple, built without a trace or an inversion
    ctx = fc.ext_field_ctx(5, 3)
    C = lt.symmetrizer(ctx)
    assert isinstance(C, tuple) and all(isinstance(row, tuple) for row in C)

    def never(*args):
        raise AssertionError("the symmetrizer was rebuilt")

    monkeypatch.setattr(fc, "trace", never)
    monkeypatch.setattr(la, "mat_inv", never)
    assert lt.symmetrizer(ctx) is C
    assert lt.block_symmetrizer((ctx, ctx)) == [
        list(row) + [0] * 3 for row in C] + [[0] * 3 + list(row) for row in C]


def _fields_up_to(q_max):
    for p in range(2, q_max + 1):
        if la.is_prime(p):
            m = 1
            while p**m <= q_max:
                yield fc.ext_field_ctx(p, m)
                m += 1


def test_symmetrizer_trace_form_every_field():
    fields = 0
    for ctx in _fields_up_to(625):
        p, m = ctx.p, ctx.m
        C = lt.symmetrizer(ctx)
        assert [list(row) for row in C] == la.transpose(C)
        assert la.mat_det(C, p) != 0
        for a in ctx.iter_elements():
            M = lt.mult_matrix(ctx, a)
            assert la.mat_mul(M, C, p) == la.mat_mul(C, la.transpose(M), p)
        fields += 1
    assert fields == 136  # 114 prime fields and 22 proper extensions


def test_block_symmetrizer_direct_sum():
    ctx = fc.ext_field_ctx(3, 2)
    C = lt.block_symmetrizer((ctx, fc.ext_field_ctx(3, 1)))
    assert C == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_dual_frozen_scalar():
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 3))
    D = lt.dual_lattice(L)
    assert (D.form.P, D.form.Q) == (((3,),), ((4,),))  # 3u = -v mod 5
    for u in range(-5, 6):
        for v in range(-5, 6):
            assert D.contains((u, v)) == ((3 * u + v) % 5 == 0)


def test_dual_diagonal_multiplier_uses_identity_symmetrizer():
    L = lt.build_lattice(la.identity(2), la.identity(2), *scalars(5, 2, 3))
    lt.dual_lattice(L)
    assert lt.block_symmetrizer(L.block.ctxs) == la.identity(2)


def test_dual_structured_F9():
    ctx = fc.ext_field_ctx(3, 2)
    L = lt.build_lattice(la.identity(2), la.identity(2), (ctx,), (ctx.gen(),))
    lt.dual_lattice(L)
    assert lt.block_symmetrizer([ctx]) == [[2, 0], [0, 1]]


def test_dual_pairing_and_double_dual():
    rng = random.Random(29)
    for p, partition in [(3, (2,)), (5, (1, 1)), (7, (2, 1)), (11, (1,))]:
        n = sum(partition)
        L = lt.build_lattice(
            random_nonsingular(rng, n, p),
            random_nonsingular(rng, n, p),
            *random_multiplier(rng, p, partition),
        )
        D = lt.dual_lattice(L)
        lt.dual_pairing_check(L, D)
        assert D.det() == p**n
        assert lt.dual_lattice(D).basis == L.basis


def test_dual_requires_provenance():
    plain = lt.IntegerLattice(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="provenance"):
        lt.dual_lattice(plain)


# ---------------------------------------------------------------------------
# point counts


def test_points_frozen():
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 1))
    assert lt.points_in_box(L, (0, 0)) == (1, ((0, 0),)) == (1, tuple(lt._scan_points(L, (0, 0))))
    count, pts = lt.points_in_box(L, (1, 1))
    assert count == 3
    assert set(pts) == {(0, 0), (1, 1), (-1, -1)}
    assert list(pts) == sorted(lt._scan_points(L, (1, 1)))


def test_points_count_odd_by_symmetry():
    rng = random.Random(41)
    for p, partition in [(5, (2,)), (7, (1, 1))]:
        n = sum(partition)
        L = lt.build_lattice(
            random_nonsingular(rng, n, p),
            random_nonsingular(rng, n, p),
            *random_multiplier(rng, p, partition),
        )
        for H in [(1, 1, 2, 2), (3, 3, 3, 3), (2, 5, 2, 5)]:
            count, pts = lt.points_in_box(L, H)
            assert list(pts) == sorted(lt._scan_points(L, H))
            assert count % 2 == 1
            assert set(pts) == {tuple(-v for v in x) for x in pts}


def test_points_two_routes_agree():
    rng = random.Random(43)
    L = lt.build_lattice(
        random_nonsingular(rng, 2, 7),
        random_nonsingular(rng, 2, 7),
        *random_multiplier(rng, 7, (2,)),
    )
    for H in [(2, 2, 2, 2), (4, 1, 3, 2)]:
        coeff = list(lt.points_in_box(L, H)[1])
        scan = sorted(lt._scan_points(L, H))
        assert coeff == scan


def test_scan_refuses_past_its_cap(monkeypatch):
    L = lt.IntegerLattice(2, ((1, 0), (0, 1)))
    monkeypatch.setattr(lt, "SCAN_CAP", 5 * 7)
    assert len(lt._scan_points(L, (2, 3))) == 5 * 7
    monkeypatch.setattr(lt, "SCAN_CAP", 5 * 7 - 1)
    with pytest.raises(ValueError, match="scan infeasible: box volume 35 over cap 34"):
        lt._scan_points(L, (2, 3))


def test_points_identity_lattice():
    Z2 = lt.IntegerLattice(2, ((1, 0), (0, 1)))
    count, pts = lt.points_in_box(Z2, (2, 3))
    assert count == 5 * 7
    # a lattice without a congruence form is scanned by basis membership
    assert list(pts) == sorted(lt._scan_points(Z2, (2, 3)))


# ---------------------------------------------------------------------------
# successive minima


def test_minima_frozen_scalar_lattice():
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 1))
    rep = lt.successive_minima(L, (1, 1))
    assert rep.minima == (Fraction(1), Fraction(3))
    assert rep.s == 1
    vol_ratio = Fraction(4) * rep.minima[0] * rep.minima[1] / 5
    assert Fraction(2) <= vol_ratio <= 4  # 12/5 inside the Minkowski range


def test_the_minkowski_range_trips_on_both_sides(monkeypatch):
    # minima 1 and 3 of the box (1, 1), volume 4: the ratio is 12 / det
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 1))
    for det, ratio in [(100, "3/25"), (1, "12")]:
        monkeypatch.setattr(lt.IntegerLattice, "det", lambda self, det=det: det)
        with pytest.raises(la.CheckFailed, match=f"Minkowski range: {ratio}$"):
            lt.successive_minima(L, (1, 1))


def test_minima_integer_lattice():
    for d in (2, 3, 4):
        Zd = lt.IntegerLattice(d, tuple(tuple(la.identity(d)[i]) for i in range(d)))
        rep = lt.successive_minima(Zd, (1,) * d)
        assert rep.minima == (Fraction(1),) * d
        assert rep.s == d


def test_minima_scaling():
    L = lt.build_lattice([[1]], [[1]], *scalars(5, 3))
    base = lt.successive_minima(L, (2, 2))
    for c in (2, 3):
        scaled = lt.successive_minima(L, (2 * c, 2 * c))
        assert scaled.minima == tuple(lam / c for lam in base.minima)


def test_minima_errors():
    L = lt.IntegerLattice(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="positive"):
        lt.successive_minima(L, (0, 1))
    with pytest.raises(ValueError, match="gauge"):
        lt.successive_minima(L, (1, 1), gauge="sup")
    big = lt.IntegerLattice(8, tuple(tuple(la.identity(8)[i]) for i in range(8)))
    with pytest.raises(ValueError, match="dimension"):
        lt.successive_minima(big, (1,) * 8)


def test_minkowski_and_mahler_on_instances():
    rng = random.Random(47)
    for p, partition, H in [
        (5, (1,), (1, 1)),
        (5, (1,), (3, 2)),
        (7, (1, 1), (2, 2, 2, 2)),
        (3, (2,), (1, 2, 2, 1)),
        (11, (1,), (4, 4)),
    ]:
        n = sum(partition)
        L = lt.build_lattice(
            random_nonsingular(rng, n, p),
            random_nonsingular(rng, n, p),
            *random_multiplier(rng, p, partition),
        )
        report = lt.mahler_check(L, H)
        d = 2 * n
        for prod in report["products"]:
            assert 1 <= prod <= math.factorial(d) ** 2


# ---------------------------------------------------------------------------
# minima oracle: the enumerate-the-box, Fraction-elimination route, kept as
# it was before the integer gauges and the pruned enumeration replaced it


def _reference_coeff_points(L, W):
    """All lattice vectors v with |v_i| <= W_i, by bounded column coefficients."""
    cols = L.columns()
    d = L.dim
    out = []
    v = [0] * d

    def rec(j: int) -> None:
        if j == d:
            out.append(tuple(v))
            return
        piv = cols[j][j]
        lo = -((W[j] + v[j]) // piv)
        hi = (W[j] - v[j]) // piv
        for c in range(lo, hi + 1):
            for i in range(j, d):
                v[i] += c * cols[j][i]
            rec(j + 1)
            for i in range(j, d):
                v[i] -= c * cols[j][i]

    rec(0)
    return out


def _reference_rank_increases(chosen, v) -> bool:
    rows = [[Fraction(t) for t in u] for u in chosen] + [[Fraction(t) for t in v]]
    r = 0
    for c in range(len(v)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r == len(chosen) + 1


def reference_successive_minima(L, H, gauge="box"):
    d = L.dim
    if d > lt.MINIMA_DIM_CAP:
        raise ValueError(f"successive minima supported up to dimension {lt.MINIMA_DIM_CAP}")
    H = tuple(int(h) for h in H)
    if len(H) != d or any(h <= 0 for h in H):
        raise ValueError("box sides must be positive")
    if gauge not in ("box", "polar"):
        raise ValueError(f"unknown gauge {gauge!r}")

    def measure(v) -> Fraction:
        if gauge == "box":
            return max(Fraction(abs(a), h) for a, h in zip(v, H))
        return Fraction(sum(h * abs(a) for a, h in zip(v, H)))

    radius = 1
    while True:
        W = [radius * h if gauge == "box" else radius // h for h in H]
        cand = [v for v in _reference_coeff_points(L, W) if any(v) and measure(v) <= radius]
        cand.sort(key=lambda v: (measure(v), v))
        chosen = []
        minima = []
        for v in cand:
            if _reference_rank_increases(chosen, v):
                chosen.append(v)
                minima.append(measure(v))
                if len(chosen) == d:
                    break
        if len(chosen) == d:
            break
        radius *= 2

    det = L.det()
    if gauge == "box":
        vol = Fraction(math.prod(2 * h for h in H))
    else:
        vol = Fraction(2**d, math.factorial(d) * math.prod(H))
    ratio = vol * math.prod(minima, start=Fraction(1)) / det
    assert Fraction(2**d, math.factorial(d)) <= ratio <= 2**d, (
        f"minima product outside the Minkowski range: {ratio}"
    )
    s = sum(1 for lam in minima if lam <= 1)
    return lt.SuccessiveMinimaReport(tuple(minima), s, tuple(chosen))


def seeded_lattice(seed, p, partition):
    rng = random.Random(seed)
    n = sum(partition)
    return lt.build_lattice(
        random_nonsingular(rng, n, p),
        random_nonsingular(rng, n, p),
        *random_multiplier(rng, p, partition),
    )


# (seed, p, partition, the sides H tried besides the equal sides isqrt(p))
ORACLE_CASES = [
    (1, 5, (1,), [(3, 2), (1, 4)]),
    (2, 11, (1,), [(2, 5)]),
    (3, 7, (1, 1), [(4, 1, 3, 2), (1, 2, 2, 1)]),
    (4, 5, (2,), [(4, 1, 3, 2), (1, 2, 2, 1)]),
    (5, 3, (3,), [(1, 2, 1, 1, 2, 1)]),
    (6, 3, (2, 1), [(2, 1, 1, 1, 1, 2)]),
    (7, 3, (1, 1, 1), []),
    # the box minima start at Minkowski's bound, past radius 1
    (8, 23, (1, 1), [(1, 1, 1, 1)]),
]


@pytest.mark.parametrize("seed,p,partition,sides", ORACLE_CASES)
def test_minima_match_reference(seed, p, partition, sides):
    L = seeded_lattice(seed, p, partition)
    d = L.dim
    for lattice in (L, lt.dual_lattice(L)):
        for H in [(max(1, math.isqrt(p)),) * d] + sides:
            for gauge in ("box", "polar"):
                got = lt.successive_minima(lattice, H, gauge=gauge)
                assert got == reference_successive_minima(lattice, H, gauge=gauge), (
                    lattice.basis, H, gauge,
                )


@pytest.mark.parametrize("seed,p,partition,H", [
    (3, 7, (1, 1), (1, 1, 1, 1)),
    (3, 7, (1, 1), (4, 1, 3, 2)),
    (4, 5, (2,), (1, 2, 2, 1)),
    (1, 5, (1,), (3, 2)),
])
def test_polar_ball_matches_filtered_scan(seed, p, partition, H):
    L = seeded_lattice(seed, p, partition)
    cols = L.columns()
    r_max = 10
    scan = [
        (sum(h * abs(a) for a, h in zip(v, H)), v)
        for v in lt._scan_points(L, [r_max // h for h in H])
    ]
    for r in range(r_max + 1):
        ball = whole_ball(cols, H, r, True)
        assert sorted(ball) == sorted((g, v) for g, v in scan if g <= r)
        assert len(ball) == len(set(ball))


def whole_ball(cols, w, budget, additive):
    """_gauge_ball's half ball, then the zero vector and the half's negations."""
    half = list(lt._gauge_ball(cols, w, budget, additive))
    zero = (0, (0,) * len(cols))
    return half + [zero] + [(g, tuple(-x for x in v)) for g, v in half]


def reference_gauge_ball(cols, w, budget, additive):
    """The whole ball, both signs of every coefficient walked: the oracle of
    _gauge_ball, which walks half of it."""
    d = len(cols)
    out = []
    v = [0] * d

    def rec(j: int, acc: int) -> None:
        wj, col = w[j], cols[j]
        piv, x0 = col[j], v[j]
        W = ((budget - acc) if additive else budget) // wj
        lo = -((W + x0) // piv)
        hi = (W - x0) // piv
        if j == d - 1:
            for x in range(x0 + lo * piv, x0 + hi * piv + 1, piv):
                v[j] = x
                g = wj * abs(x)
                out.append((acc + g if additive else max(acc, g), tuple(v)))
            v[j] = x0
            return
        saved = v[j:]
        for i in range(j, d):
            v[i] += lo * col[i]
        for _ in range(lo, hi + 1):
            g = wj * abs(v[j])
            rec(j + 1, acc + g if additive else max(acc, g))
            for i in range(j, d):
                v[i] += col[i]
        v[j:] = saved

    rec(0, 0)
    return out


def _assert_half_walk_matches_the_full_walk(L, H):
    """Both gauges of the sides H, over budgets from 0 past the box's radius 1:
    the same multiset of (g, v), each vector once."""
    cols = L.columns()
    scale, w = lt._box_gauge(H)
    gauges = [(w, scale, False)]
    if all(H):
        gauges.append((H, max(H) * len(H), True))
    for weights, top, additive in gauges:
        for budget in sorted({0, 1, top // 2, top - 1, top, top + 1, 2 * top}):
            got = whole_ball(cols, weights, budget, additive)
            want = reference_gauge_ball(cols, weights, budget, additive)
            assert Counter(got) == Counter(want), (L.basis, weights, budget, additive)
            assert len(got) == len(set(v for _, v in got))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("partition", [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])
def test_half_walk_matches_the_full_walk_on_congruence_lattices(p, partition):
    n = sum(partition)
    L = seeded_lattice(p * 10 + n, p, partition)
    side = max(1, math.isqrt(p))
    boxes = [(side,) * (2 * n), tuple(range(1, 2 * n + 1)), (0,) + (side,) * (2 * n - 1)]
    if n == 3:  # two boxes keep d = 6 short
        boxes = [(side,) * 6, (0, 1, 2, 1, 2, 1)]
    for lattice in (L, lt.dual_lattice(L)):
        for H in boxes:
            _assert_half_walk_matches_the_full_walk(lattice, H)


@pytest.mark.parametrize("basis", [
    ((1, 0), (0, 1)),
    ((2, 0), (-3, 5)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((3, 0, 0), (1, 2, 0), (-4, 5, 7)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (2, 3, 5, 0), (4, 1, 0, 5)),
])
def test_half_walk_matches_the_full_walk_on_triangular_bases(basis):
    L = lt.IntegerLattice(len(basis), basis)
    d = L.dim
    for H in [(1,) * d, (2,) * d, tuple(range(1, d + 1)), (0,) + (3,) * (d - 1),
              (3,) * (d - 1) + (0,), (0,) * d]:
        _assert_half_walk_matches_the_full_walk(L, H)


@pytest.mark.parametrize("seed,p,partition,sides", ORACLE_CASES)
def test_half_walk_is_strictly_descending(seed, p, partition, sides):
    L = seeded_lattice(seed, p, partition)
    d = L.dim
    for lattice in (L, lt.dual_lattice(L)):
        cols = lattice.columns()
        for H in [(max(1, math.isqrt(p)),) * d] + sides:
            scale, w = lt._box_gauge(H)
            for weights, budget, additive in [(w, 2 * scale, False), (H, max(H) * d, True)]:
                walk = list(lt._gauge_ball(cols, weights, budget, additive))
                vs = [v for _, v in walk]
                assert all(a > b for a, b in zip(vs, vs[1:])), (lattice.basis, H, additive)
                assert all(next(x for x in v if x) > 0 for v in vs)
                whole = reference_gauge_ball(cols, weights, budget, additive)
                assert 2 * len(walk) + 1 == len(whole)


def test_box_minima_stop_their_last_walk_at_full_rank(monkeypatch):
    # p = 3, n = 3: box lambda_6 = 2 at sides 1, so the budget-2 walk is the last
    L = seeded_lattice(7, 3, (1, 1, 1))
    H = (1,) * 6
    drawn = {}
    ball = lt._gauge_ball

    def spy(cols, w, budget, additive):
        drawn[budget] = 0
        for item in ball(cols, w, budget, additive):
            drawn[budget] += 1
            yield item

    monkeypatch.setattr(lt, "_gauge_ball", spy)
    rep = lt.successive_minima(L, H)
    assert rep.minima[-1] == 2 and list(drawn) == [1, 2]
    half = len(list(ball(L.columns(), lt._box_gauge(H)[1], 2, False)))
    assert drawn[2] < half
    assert rep == reference_successive_minima(L, H)


def test_iroot_is_the_integer_root():
    for d in range(1, 7):
        for N in range(300):
            want = max([b for b in range(1, 300) if b**d <= N], default=1)
            assert lt._iroot(N, d) == want, (N, d)
    N = 3**200 + 5
    b = lt._iroot(N, 6)
    assert b**6 <= N < (b + 1) ** 6


def test_minima_walks_start_at_minkowskis_bound_and_grow_by_sqrt_2(monkeypatch):
    walked = []
    ball = lt._gauge_ball
    monkeypatch.setattr(lt, "_gauge_ball", lambda *a: walked.append(a[2]) or ball(*a))
    for seed, p, partition, sides in ORACLE_CASES:
        L = seeded_lattice(seed, p, partition)
        d = L.dim
        for H in [(max(1, math.isqrt(p)),) * d] + sides:
            for gauge in ("box", "polar"):
                walked.clear()
                rep = lt.successive_minima(L, H, gauge=gauge)
                scale = lt._box_gauge(H)[0] if gauge == "box" else 1
                vol = (
                    math.prod(2 * h for h in H) if gauge == "box"
                    else Fraction(2**d, math.factorial(d) * math.prod(H))
                )
                floor = math.floor(Fraction(2**d, math.factorial(d)) * L.det() / vol * scale**d)
                start = max([b for b in range(1, 10**4) if b**d <= floor], default=1)
                assert walked[0] == start
                for a, b in zip(walked, walked[1:]):
                    assert b == max(a + 1, math.isqrt(2 * a * a))
                last = rep.minima[-1] * scale
                assert walked[-1] >= last and all(b < last for b in walked[:-1])


def test_box_gauge_weights():
    assert lt._box_gauge((4, 1, 3, 2)) == (12, (3, 12, 4, 6))
    assert lt._box_gauge((2, 2)) == (2, (1, 1))
    assert lt._box_gauge((0, 3)) == (3, (4, 1))
    assert lt._box_gauge((0, 0)) == (1, (2, 2))


def box_count_ratio(L, H, H_small) -> dict:
    """Exact nested-box counts plus the dilation-power comparison.

    The smaller count never exceeds the larger (containment, checked).  The
    observed ratio against (H/H')^s, with s taken from the larger box, is
    reported as a fitted constant, not checked.
    """
    H = tuple(int(h) for h in H)
    H_small = tuple(int(h) for h in H_small)
    if any(h <= 0 for h in H_small) or any(a > b for a, b in zip(H_small, H)):
        raise ValueError("smaller box must be positive and nested in the larger")
    big = lt.points_in_box(L, H)[0]
    small = lt.points_in_box(L, H_small)[0]
    if small > big:
        raise la.CheckFailed(f"nested box holds more points: {small} > {big}")
    rep = lt.successive_minima(L, H)
    scale = Fraction(min(H), min(H_small)) ** rep.s
    return {
        "count_large": big,
        "count_small": small,
        "s": rep.s,
        "kappa": Fraction(big) / (scale * small),
    }


def test_box_count_ratio():
    L = lt.build_lattice([[1]], [[1]], *scalars(11, 4))
    report = box_count_ratio(L, (8, 8), (2, 2))
    assert report["count_small"] <= report["count_large"]
    for H in ((8, 8), (2, 2)):
        assert list(lt.points_in_box(L, H)[1]) == sorted(lt._scan_points(L, H))
    assert report["kappa"] > 0
    with pytest.raises(ValueError, match="nested"):
        box_count_ratio(L, (2, 2), (4, 4))


# ---------------------------------------------------------------------------
# coset counting windows


def coset_count_checks(p, M, b, window, seed=0, samples=20) -> dict:
    """Exhaustive checks that shifted solution counts never beat centered ones.

    S(b; D) counts integer points x in D with M x = b mod p.  Shifted closed
    windows [N, N+W] are compared against the centered window [-W, W]; the
    symmetric count S(b; [-W, W]) is compared against S(0; [-2W, 2W]).  The
    worst ratio S(b; [-W, W]) / S(0; [-W, W]) over sampled b is reported, not
    bounded.
    """
    la.check_prime(p)
    rows, m = len(M), len(M[0])
    window = tuple(int(v) for v in window)
    if len(window) != m or any(v <= 0 for v in window):
        raise ValueError("window sides must be positive, one per column")

    def count(bvec, lows, highs) -> int:
        target = [v % p for v in bvec]
        total = 0
        for x in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
            if la.mat_vec(M, list(x), p) == target:
                total += 1
        return total

    centered = count([0] * rows, [-v for v in window], list(window))
    centered_double = count([0] * rows, [-2 * v for v in window], [2 * v for v in window])
    rng = random.Random(seed)
    shifted_max = 0
    ratio_max = Fraction(0)
    targets = [list(b)] + [[rng.randrange(p) for _ in range(rows)] for _ in range(samples)]
    for bvec in targets:
        for _ in range(samples):
            N = [rng.randrange(-p, p + 1) for _ in range(m)]
            c = count(bvec, N, [N_i + w for N_i, w in zip(N, window)])
            if c > centered:
                raise la.CheckFailed(f"shifted window count {c} over centered {centered}")
            shifted_max = max(shifted_max, c)
        sym = count(bvec, [-v for v in window], list(window))
        if sym > centered_double:
            raise la.CheckFailed(f"symmetric count {sym} over doubled {centered_double}")
        ratio_max = max(ratio_max, Fraction(sym, centered))
    return {
        "centered": centered,
        "centered_double": centered_double,
        "shifted_max": shifted_max,
        "ratio_max": ratio_max,
    }


def test_coset_frozen_scalar():
    report = coset_count_checks(5, [[1]], [2], (2,))
    assert report["centered"] == 1
    assert report["shifted_max"] <= 1
    assert report["ratio_max"] <= 1


def test_coset_unsolvable_target():
    report = coset_count_checks(5, [[1], [1]], [1, 2], (2,))
    assert report["centered"] == 1  # x = 0 solves the zero target
    assert report["ratio_max"] <= 1


def test_coset_full_rank_square():
    report = coset_count_checks(5, [[1, 1], [0, 1]], [0, 0], (2, 2))
    assert report["centered"] == 1
    assert report["centered_double"] >= 1


def test_coset_window_errors():
    with pytest.raises(ValueError, match="positive"):
        coset_count_checks(5, [[1]], [0], (0,))


# ---------------------------------------------------------------------------
# checks survive python -O


def test_lattice_has_no_assert_statements():
    tree = ast.parse(Path(lt.__file__).read_text())
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    raised = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "AssertionError"
    ]
    assert asserts == [] and raised == []


def test_pairing_check_fails_under_optimize():
    script = (
        "from normsum import field_core as fc, lattice as lt, linalg as la\n"
        "ctx = fc.ext_field_ctx(5, 1)\n"
        "L = lt.build_lattice([[1]], [[1]], (ctx,), (ctx.from_int(1),))\n"
        "try:\n"
        "    lt.dual_pairing_check(L, L)\n"
        "except la.CheckFailed as exc:\n"
        "    print('CheckFailed:', exc)\n"
    )
    src = str(Path(lt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CheckFailed: dual column")
