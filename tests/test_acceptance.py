"""Acceptance battery: one test per headline claim, run with -v for a line each.

Every test here re-derives its expected values through an independent
route (literal definitions, exhaustive enumeration, or classical closed
bounds) rather than trusting the implementation under test.  The one
expected failure is marked strict-xfail with the measured counterexample
in its reason string; see the trend tripwire test right after it.
"""

import collections
import itertools
import math
import random
import time

import pytest

from normsum import char_core as cc
from normsum import charsum as cs
from normsum import energy as en
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn
from normsum import lattice as lat
from normsum import linalg as la
from test_energy import sampled_quadruple_family

PRIMES = (3, 5, 7, 11, 13)

PARTS_BY_N = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}

BOXES_BY_N = {
    1: [((-5000,), (10000,)), ((3,), (101,))],
    2: [((-50, -50), (100, 100)), ((7, -3), (33, 31))],
    3: [((-10, -10, -10), (21, 21, 21)), ((2, -1, 5), (10, 10, 10))],
}


def _unit(ctx, rng):
    while True:
        e = tuple(rng.randrange(ctx.p) for _ in range(ctx.m))
        if any(e):
            return e


_SCAN_CACHE = {}


def _desk_scan(n):
    if n not in _SCAN_CACHE:
        cfg = hn.ExperimentConfig("energy-scan", 3, 199, n=n, seed=11)
        _SCAN_CACHE[n] = hn.run_energy_scan(cfg)
    return _SCAN_CACHE[n]


def test_lifted_route_matches_direct_route_exhaustively():
    """Direct form sums equal lifted norm-factor sums on every tested box."""
    rng = random.Random(101)
    checked = 0
    for p in PRIMES:
        chi = cc.DirichletChar(p, 1)
        for n in (1, 2, 3):
            for part in PARTS_BY_N[n]:
                D = fm.random_decomposition(p, n, part, rng)
                F = fm.synthesize_form(D)
                for N, H in BOXES_BY_N[n]:
                    assert math.prod(H) <= 10**4
                    B = fm.BoxSpec(N, H)
                    direct = cs.charsum_direct(chi, F, B)
                    lifted = cs.charsum_lifted(D, chi, B)
                    assert direct.weights == lifted.weights
                    assert direct.zero_terms == lifted.zero_terms
                    assert direct.value == lifted.value
                    checked += 1
    print(f"PASS lifted vs direct: {checked} exhaustive box sums agree exactly")


def test_decomposition_round_trip_exhaustive_verify():
    """Synthesize, re-decompose, then match values at every point mod p."""
    per_class = 50
    rng = random.Random(202)
    classes = 0
    for p in (2,) + PRIMES:
        for n in (1, 2, 3):
            for part in PARTS_BY_N[n]:
                period = fm.BoxSpec((0,) * n, (p,) * n)
                for _ in range(per_class):
                    D = fm.random_decomposition(p, n, part, rng)
                    F = fm.synthesize_form(D)
                    D2 = fm.decompose(F)
                    assert fm.verify_decomposition(F, D2)
                    for x in period.iter_points():
                        assert fm.eval_form(F, x) % p == D2.value(x)
                classes += 1
    print(f"PASS round trip: {classes} (p, partition) classes x {per_class} instances")


def test_energy_oracle_equivalence():
    """Histogram counts match the literal quadruple loop; split is exact."""
    rng = random.Random(303)
    done = 0
    while done < 200:
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        part = rng.choice(PARTS_BY_N[n])
        D = fm.random_decomposition(p, n, part, rng)
        Hx = tuple(rng.randint(1, 4) for _ in range(n))
        Hy = tuple(rng.randint(1, 4) for _ in range(n))
        if (math.prod(Hx) * math.prod(Hy)) ** 2 > 250_000:
            continue
        Nx = tuple(rng.randint(-p, p) for _ in range(n))
        Ny = tuple(rng.randint(-p, p) for _ in range(n))
        inst = en.EnergyInstance(D, fm.BoxSpec(Nx, Hx), fm.BoxSpec(Ny, Hy))
        assert en.energy_histogram(inst) == en.energy_quadruple_loop(inst)
        done += 1

    gen_done = 0
    while gen_done < 40:
        p = rng.choice(PRIMES)
        n = rng.randint(1, 2)
        part = rng.choice(hn.square_partitions(n))
        D = fm.random_decomposition(p, n, part, rng)
        box = fm.BoxSpec(
            tuple(rng.randint(-p, p) for _ in range(n)),
            tuple(rng.randint(1, 3) for _ in range(n)),
        )
        family = sampled_quadruple_family(D, seed=rng.randrange(2**32), count=1)
        mats = family[-1]
        inst = en.GeneralizedEnergyInstance(D, mats, box, box)
        live, degenerate, total = en.energy_restricted(inst)
        assert live + degenerate == total

        inst_own = en.GeneralizedEnergyInstance(D, (D.A,) * 4, box, box)
        _, _, total_own = en.energy_restricted(inst_own)
        plain = en.energy_histogram(en.EnergyInstance(D, box, box))
        assert total_own == plain
        gen_done += 1
    print(f"PASS energy oracles: {done} dual-route instances, {gen_done} split instances")


def test_energy_elementary_bounds():
    """Diagonal quadruples force E >= (prod H_i)^2; cube ratio reported."""
    rng = random.Random(404)
    worst = 0.0
    for _ in range(60):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 2)
        part = rng.choice(hn.square_partitions(n))
        D = fm.random_decomposition(p, n, part, rng)
        H = tuple(rng.randint(1, 4) for _ in range(n))
        N = tuple(rng.randint(-p, p) for _ in range(n))
        box = fm.BoxSpec(N, H)
        report = en.elementary_bounds_check(en.EnergyInstance(D, box, box))
        assert report["energy"] >= math.prod(H) ** 2
        worst = max(worst, report["upper_ratio"])
    print(f"PASS elementary bounds: 60 instances; max E / H_max^(3n) = {worst:.3f}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the zero-value classes alone force E(D_H) >= (4H+1)^2 > 16 H^2 in one "
        "variable, so E/H^2 >= 32 on every sampled desk-scale instance while "
        "the target cap sqrt(p) never exceeds sqrt(199) ~ 14.1; e.g. p=5, H=2 "
        "gives E=145 with ratio 36.25 against cap 2.24, and p=11, H=3 gives "
        "E=321 with ratio 35.67 against cap 3.32"
    ),
)
def test_window_energy_under_sqrt_p_cap():
    """Sampled window energy against H^{2n} sqrt(p) for all p <= 199."""
    for n in (1, 2):
        rows, skips = _desk_scan(n)
        assert skips == []
        for row in rows:
            assert row.value <= row.bound, (
                f"p={row.p} n={n}: E={row.value} exceeds H^{2 * n} sqrt(p) = {row.bound:.2f}"
            )


def test_window_energy_empirical_tripwire():
    """The same scan stays under honest empirical caps and above sqrt(p)."""
    caps = {1: 64.0, 2: 1600.0}
    trend = []
    for n in (1, 2):
        rows, skips = _desk_scan(n)
        assert skips == []
        assert [row.p for row in rows] == list(hn.primes_in(3, 199))
        for row in rows:
            ratio = row.value / row.H[0] ** (2 * n)
            assert ratio <= caps[n]
            assert ratio > math.sqrt(row.p)
            trend.append((n, row.p, row.H[0], row.value, round(ratio, 2)))
    print("window energy trend (n, p, H, E_max, E_max / H^(2n)):")
    for entry in trend[:: max(1, len(trend) // 12)]:
        print("   ", entry)


def test_congruence_lattice_suite():
    """Determinants, dual routes, minima ranges, and trace-form symmetrizers."""
    rng = random.Random(606)
    lattices = 0
    for p in (2,) + PRIMES:
        for n in (1, 2):
            for part in hn.square_partitions(n):
                D1 = fm.random_decomposition(p, n, part, rng)
                D2 = fm.random_decomposition(p, n, part, rng)
                z = tuple(_unit(ctx, rng) for ctx in D1.ctxs)
                L = lat.build_lattice(D1.A, D2.A, D1.ctxs, z)
                assert L.det() == p**n
                assert L.block is not None  # so all three dual routes run
                dual = lat.dual_lattice(L)
                lat.dual_pairing_check(L, dual)
                H = (max(1, math.isqrt(p)),) * (2 * n)
                lat.successive_minima(L, H)
                lat.mahler_check(L, H)
                lattices += 1

    found = 0
    for p in (2,) + PRIMES:
        for m in (1, 2, 3):
            ctx = fc.ext_field_ctx(p, m)
            C = lat.symmetrizer(ctx)
            assert la.mat_det(C, p) != 0
            for a in ctx.iter_elements():
                if not any(a):
                    continue
                MC = la.mat_mul(lat.mult_matrix(ctx, a), C, p)
                assert all(
                    MC[i][j] == MC[j][i] for i in range(m) for j in range(m)
                )
                found += 1
    for p in PRIMES:
        for part in [(1, 1), (2, 1), (1, 1, 1), (3, 2)]:
            ctxs = [fc.ext_field_ctx(p, m) for m in part]
            C = lat.block_symmetrizer(ctxs)
            for _ in range(3):
                M = lat.block_mult_matrix(ctxs, tuple(_unit(ctx, rng) for ctx in ctxs))
                assert la.mat_mul(M, C, p) == la.mat_mul(C, la.transpose(M), p)
                found += 1
    print(f"PASS lattice suite: {lattices} lattices checked, {found} multipliers symmetrized")


def test_mult_matrix_routes_and_singularity():
    """Coefficient route equals column route; kernel exactly at zero."""
    ranges = (
        [(2, m) for m in range(1, 10)]
        + [(3, m) for m in range(1, 6)]
        + [(5, m) for m in range(1, 5)]
        + [(7, m) for m in range(1, 4)]
        + [(11, 1), (11, 2), (13, 1), (13, 2), (17, 2), (19, 2), (23, 2)]
    )
    elements = 0
    for p, m in ranges:
        assert p**m <= 625
        ctx = fc.ext_field_ctx(p, m)
        for a in ctx.iter_elements():
            M = lat.mult_matrix(ctx, a)
            assert M == lat.mult_matrix_via_columns(ctx, a)
            assert (la.mat_det(M, p) == 0) == (not any(a))
            elements += 1
    print(f"PASS mult-matrix routes: {elements} elements across {len(ranges)} fields")


def test_complete_sum_cap():
    """Square-root cap on every non-power twist."""
    checked = nonpower = 0
    for p in PRIMES:
        for m in (1, 2):
            ctx = fc.ext_field_ctx(p, m)
            for idx in sorted({1, (p - 1) // 2}):
                chi = cc.DirichletChar(p, idx)
                d = cc.char_order(chi)
                for r in (1, 2):
                    for t in itertools.product(range(1, 4), repeat=2 * r):
                        factors = [(t[j], 1) for j in range(r)]
                        factors += [(t[r + j], max(1, d - 1)) for j in range(r)]
                        value, bound, holds = cs.weil_complete_sum(chi, ctx, factors)
                        assert holds
                        checked += 1
                        if 0 < bound < float(ctx.order):
                            nonpower += 1
    assert nonpower > 0
    print(
        f"PASS complete sums: {checked} instances ({nonpower} non-power) under the "
        "square-root cap"
    )


def test_identity_suite_zero_failures():
    """The full identity battery passes on the small default grid."""
    start = time.monotonic()
    cfg = hn.ExperimentConfig("identity-suite", 3, 7, seed=13)
    results, failures = hn.run_identity_suite(cfg)
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 600
    checks = collections.Counter(r.check for r in results)
    assert set(checks) == {
        "lifted_sum",
        "box_partition",
        "shift_identity",
        "shift_inequality",
        "s1_cauchy_schwarz",
        "embedding_inequality",
        "negative_control",
    }
    controls = [r for r in results if r.check == "negative_control"]
    assert controls and all(r.status == "pass" for r in controls)
    print(
        f"PASS identity suite: {len(results)} checks, 0 failures in {elapsed:.1f}s "
        f"({dict(checks)})"
    )
