"""Size caps: each capped quantity has one cost function and one comparison,
which the capped function and the harness both read; and the cap on a
whole command's summed cost."""

import itertools
import json
import random
import time
from collections import Counter

import pytest

from normsum import char_core as cc
from normsum import charsum as cs
from normsum import cli
from normsum import energy as en
from normsum import field_core as fc
from normsum import forms as fm
from normsum import harness as hn
from normsum import lattice as lat
from normsum import linalg as la


def decomposition(p: int, n: int, seed: int = 1) -> fm.NormFormDecomposition:
    return fm.random_decomposition(p, n, hn.square_partitions(n)[0], random.Random(seed))


def line(N: int, H: int) -> fm.BoxSpec:
    return fm.BoxSpec((N,), (H,))


def test_each_cap_admits_its_own_size_and_refuses_the_next():
    assert en.pairs_fit(2000, 2000) and en.pair_cost(2000, 2000) == en.PAIR_CAP
    assert not en.pairs_fit(2000, 2001)
    assert en.quadruple_cost(10, 100) == en.QUAD_CROSS_CHECK_CAP
    assert cs.box_fits(cs.BOX_CAP) and not cs.box_fits(cs.BOX_CAP + 1)
    # s2_moment's units at T = 1: p index reads, and 3 classes of p - 1
    # entries passed over twice at r = 1, so 7p - 6 units in all
    assert cs.moment_work(7, 1, 1, 1, 2, 1) == (7, 3 * 6 * 2)
    p = (cs.MOMENT_CAP + 6) // 7
    assert cs.moment_fits(p, 1, 1, 1, 2, 1) and not cs.moment_fits(p + 1, 1, 1, 1, 2, 1)
    start = time.perf_counter()
    # weil-check prices p^m T^(2r) lists: T^(2r) stops at the ceiling, so a
    # huge r costs no huge power
    assert fc.capped_power(3, 2 * 10**8) == fc.capped_power(3, 2**41) == fc.SIZE_CEILING
    # a huge r costs moment_work only its bits
    assert cs.moment_work(3, 1, 1, 10**8, 2, 1) == (3, 3 * 2 * (27 + 12))
    assert time.perf_counter() - start < 0.1
    assert fc.field_size(3, 12) == 3**12
    assert fc.field_fits(fc.FIELD_SIZE_CAP, 1) and not fc.field_fits(fc.FIELD_SIZE_CAP + 1, 1)
    assert lat.minima_fit(lat.MINIMA_DIM_CAP) and not lat.minima_fit(lat.MINIMA_DIM_CAP + 1)


def test_sizes_stop_at_the_ceiling_without_computing_a_huge_power():
    assert fc.capped_power(3, 70) == fc.field_size(3, 70) == 3**70
    assert fc.capped_power(2, 4095) == 2**4095
    assert fc.capped_power(2, 4096) == fc.SIZE_CEILING == 2**4096
    # below the bit-length test p^m is computed, and then stops at the ceiling
    assert fc.capped_power(3, 4095) == fc.SIZE_CEILING
    # 3^(3 x 10^7) alone takes tens of seconds to compute
    start = time.perf_counter()
    assert fc.field_size(3, 3 * 10**7) == fc.field_size(999983, 10**6) == fc.SIZE_CEILING
    assert fc.capped_power(1, 10**18) == 1 and fc.capped_power(0, 10**18) == 0
    # a window at the ceiling: the z's bound the classes before their count is taken
    assert cs.moment_work(3, 3 * 10**7, fc.SIZE_CEILING, 1, 2, 1) == (
        fc.SIZE_CEILING**2, fc.SIZE_CEILING * 2 * 2
    )
    assert cs.moment_work(3, 1300, fc.SIZE_CEILING, 1, 2, 1) == (
        3**1300 * fc.SIZE_CEILING, 3**1300 * 2 * 2
    )
    # at T = 2^4096, C(T + d, d) takes seconds to compute from d = 4000 up
    assert cs.moment_work(999983, 1, fc.SIZE_CEILING, 1, 999982, 2)[1] == 999983 * 999982 * 2
    assert not fc.field_fits(3, 3 * 10**7) and not cs.moment_fits(3, 3 * 10**7, 1, 1, 2, 1)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "argv, skip",
    [
        # a window p^(k/2r) past a float's range
        (["moment", "--p", "3", "--k", "1300", "--r", "1"], "moment enumeration over cap"),
        (["moment", "--p", "3", "--k", "1200", "--r", "1"], "moment enumeration over cap"),
        # a field size with more digits than a str of an int may have
        (["weil-check", "--p", "3", "--k", "30000000"], "field size 3^30000000 exceeds cap"),
        (["weil-check", "--p", "3", "--k", "70"], f"field size {3**70} exceeds cap"),
    ],
)
def test_a_huge_k_skips_its_prime_at_once(argv, skip, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == 0
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == "p,n,k,H,quantity,value,bound,ratio\n"
    assert captured.err == f"skip: p=3: {skip}, skipped\n"
    assert elapsed < 1.0


def literal_modulus_power(weights, r, order):
    """|S|^2 convolved with itself r - 1 times, one convolution per step."""
    sq = Counter()
    for (e1, w1), (e2, w2) in itertools.product(enumerate(weights), repeat=2):
        sq[(e1 - e2) % order] += w1 * w2
    powed = sq
    for _ in range(r - 1):
        powed, prev = Counter(), powed
        for (e1, w1), (e2, w2) in itertools.product(prev.items(), sq.items()):
            powed[(e1 + e2) % order] += w1 * w2
    return powed


@pytest.mark.parametrize("weights", [[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 1, 3], [0, 5, 0, 1, 1, 4]])
def test_modulus_power_by_squaring_matches_the_literal_convolutions(weights):
    N = len(weights)
    for r in range(1, 10):
        literal = literal_modulus_power(weights, r, N)
        assert cc.power(cc.modulus(weights), r) == tuple(literal[e] for e in range(N)), (
            weights, r,
        )


def test_a_huge_r_takes_logarithmically_many_convolutions(monkeypatch, capsys):
    powers, convolutions = [], []
    power, convolve = cc.power, cc.convolve
    monkeypatch.setattr(cc, "power", lambda *a: powers.append(1) or power(*a))
    monkeypatch.setattr(cc, "convolve", lambda *a: convolutions.append(1) or convolve(*a))
    start = time.perf_counter()
    assert cli.main(["moment", "--p", "3", "--k", "3", "--r", "100000000"]) == 0
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.err == "" and "3,1,3,1,s2_moment,26.0," in captured.out
    # per inner-weight tuple: |S|^2, then at most two per bit of r (27 bits)
    assert powers and len(convolutions) <= len(powers) * (1 + 2 * (10**8).bit_length())


class TestPairCap:
    def test_histogram_runs_at_the_cap_and_refuses_one_pair_more(self):
        D = decomposition(3, 1)
        at = en.EnergyInstance(D, line(0, 2000), line(0, 2000))
        assert en.energy_histogram(at) >= en.PAIR_CAP
        above = en.EnergyInstance(D, line(0, 2000), line(0, 2001))
        with pytest.raises(ValueError, match="pair enumeration infeasible at this size"):
            en.energy_histogram(above)
        with pytest.raises(ValueError, match="pair enumeration infeasible at this size"):
            en.s1_identity_check(D, line(0, 2000), line(0, 2001))
        mats = (((1,),),) * 4
        inst = en.GeneralizedEnergyInstance(D, mats, line(0, 2000), line(0, 2001))
        with pytest.raises(ValueError, match="pair enumeration infeasible at this size"):
            en.energy_restricted(inst)

    def test_harness_skips_where_the_histogram_refuses(self, monkeypatch):
        # at p = 13 the window is [-3, 3]: 7 points, 49 pairs
        box = fm.BoxSpec.symmetric((3,))
        inst = en.EnergyInstance(decomposition(13, 1), box, box)
        energy = hn.ExperimentConfig("energy", 13, 13, seed=1)
        scan = hn.ExperimentConfig("energy-scan", 13, 13, seed=1)
        monkeypatch.setattr(en, "PAIR_CAP", 49)
        en.energy_histogram(inst)
        assert len(hn.run_energy(energy)[0]) == 2
        assert len(hn.run_energy_scan(scan)[0]) == 1
        monkeypatch.setattr(en, "PAIR_CAP", 48)
        with pytest.raises(ValueError, match="pair enumeration infeasible"):
            en.energy_histogram(inst)
        skipped = ([], ["p=13: pair table 7^2 exceeds cap, skipped"])
        assert hn.run_energy(energy) == skipped
        assert hn.run_energy_scan(scan) == skipped


class TestQuadrupleCaps:
    def test_restricted_literal_loop_runs_at_the_cap_and_not_one_size_above(
        self, monkeypatch
    ):
        D = decomposition(5, 1)
        mats = (((1,),),) * 4
        literal, runs = en._literal_quadruples, []
        monkeypatch.setattr(
            en, "_literal_quadruples", lambda *tables: runs.append(1) or literal(*tables)
        )
        en.energy_restricted(en.GeneralizedEnergyInstance(D, mats, line(0, 10), line(0, 100)))
        assert runs == [1]
        # 7 x 143 = 1001 pairs, the next size past 1000^2 quadruples
        en.energy_restricted(en.GeneralizedEnergyInstance(D, mats, line(0, 7), line(0, 143)))
        assert runs == [1]

    def test_s1_cross_check_reads_the_same_cap(self, monkeypatch):
        D = decomposition(5, 1)
        literal, runs = en._literal_quadruples, []
        monkeypatch.setattr(
            en, "_literal_quadruples", lambda *tables: runs.append(1) or literal(*tables)
        )
        en.s1_identity_check(D, line(0, 10), line(0, 100))
        assert runs == [1]
        en.s1_identity_check(D, line(0, 7), line(0, 143))
        assert runs == [1]

    def test_quadruple_loop_refuses_before_it_builds_tables(self, monkeypatch):
        D = decomposition(5, 1)
        inst = en.EnergyInstance(D, line(0, 4), line(0, 5))
        monkeypatch.setattr(en, "QUAD_SCAN_CAP", en.quadruple_cost(4, 5))
        assert en.energy_quadruple_loop(inst) == en.energy_histogram(inst)
        monkeypatch.setattr(en, "QUAD_SCAN_CAP", en.quadruple_cost(4, 5) - 1)

        def no_tables(*args):
            raise AssertionError("tables built past the cap")

        monkeypatch.setattr(en, "_lam_table", no_tables)
        with pytest.raises(ValueError, match="quadruple enumeration infeasible"):
            en.energy_quadruple_loop(inst)


def test_moment_cap_is_one_decision(monkeypatch):
    # at p = 17, k = 1, r = 1 the window is T = 4: 68 index reads, and
    # 2T + 1 = 9 quadratic classes of 16 entries, passed over twice
    chi, ctxs = cc.DirichletChar(17, 8), (fc.ext_field_ctx(17, 1),)
    config = hn.ExperimentConfig("moment", 17, 17, k=1, r=1)
    assert cs.moment_work(17, 1, 4, 1, 2, 1) == (68, 9 * 16 * 2)
    monkeypatch.setattr(cs, "MOMENT_CAP", 68 + 9 * 16 * 2)
    cs.s2_moment(chi, ctxs, 4, 1)
    assert len(hn.run_moment(config)[0]) == 2
    monkeypatch.setattr(cs, "MOMENT_CAP", 68 + 9 * 16 * 2 - 1)
    with pytest.raises(ValueError, match="moment enumeration infeasible"):
        cs.s2_moment(chi, ctxs, 4, 1)
    assert hn.run_moment(config) == ([], ["p=17: moment enumeration over cap, skipped"])


def test_box_cap_is_one_decision(monkeypatch):
    # at p = 13 and kappa = 1/2 the short box has side 13^(3/4) -> 6
    D = decomposition(13, 1)
    F = fm.synthesize_form(D)
    chi = cc.DirichletChar(13, 1)
    box = line(0, 6)
    config = hn.ExperimentConfig("bound-table", 13, 13, kappa=0.5, seed=1)
    monkeypatch.setattr(cs, "BOX_CAP", 6)
    assert cs.charsum_direct(chi, F, box).weights == cs.charsum_lifted(D, chi, box).weights
    assert len(hn.run_bound_table(config)[0]) == 6
    monkeypatch.setattr(cs, "BOX_CAP", 5)
    for route in (lambda: cs.charsum_direct(chi, F, box), lambda: cs.charsum_lifted(D, chi, box)):
        with pytest.raises(ValueError, match="box volume 6 over cap 5"):
            route()
    assert hn.run_bound_table(config) == ([], ["p=13: box volume 6 exceeds cap, skipped"])
    # a seeded charsum skips the prime with bound-table's line
    assert hn.run_charsum(hn.ExperimentConfig("charsum", 13, 13, kappa=0.5, seed=1)) == (
        [], ["p=13: box volume 6 exceeds cap, skipped"])


def test_field_cap_is_one_decision(monkeypatch):
    chi, ctx = cc.DirichletChar(5, 2), fc.ext_field_ctx(5, 2)
    config = hn.ExperimentConfig("weil-check", 5, 5, k=2, r=1)
    monkeypatch.setattr(fc, "FIELD_SIZE_CAP", 25)
    cs.weil_complete_sum(chi, ctx, [(1, 1)])
    assert len(hn.run_weil_check(config)[0]) == 4
    hn.ExperimentConfig("weil-check", 3, 25)
    monkeypatch.setattr(fc, "FIELD_SIZE_CAP", 24)
    with pytest.raises(ValueError, match="field size 25 over cap 24"):
        cs.weil_complete_sum(chi, ctx, [(1, 1)])
    with pytest.raises(ValueError, match=r"field size 5\^2 exceeds cap 24"):
        fc.find_irreducible(5, 2)
    assert hn.run_weil_check(config) == ([], ["p=5: field size 25 exceeds cap, skipped"])
    with pytest.raises(hn.UsageError, match="prime range ends at 25, above the field size cap 24"):
        hn.ExperimentConfig("weil-check", 3, 25)


@pytest.fixture(scope="module")
def stored_at_7(tmp_path_factory):
    """A stored form and its decomposition at p = 7, n = 2, k = 3."""
    d = tmp_path_factory.mktemp("stored")
    paths = {"form_path": str(d / "form.json"), "decomp_path": str(d / "decomp.json")}
    assert cli.main(["gen-form", "--p", "7", "--n", "2", "--k", "3", "--seed", "5",
                     "--out", paths["form_path"]]) == 0
    assert cli.main(["decompose", "--form", paths["form_path"], "--seed", "0",
                     "--out", paths["decomp_path"]]) == 0
    return paths


def _skip_cases(stored):
    """command -> (its run over primes 3..13, the helper's line of each prime
    or partition it skips, the (p, partition) decompositions a skip saves),
    at a field cap under F_{11^2} and a box cap under 7's 16-point box."""
    seeded = {"n": 2, "k": 3, "kappa": 0.5, "seed": 1}
    charsum = hn.ExperimentConfig("charsum", seed=0, kappa=0.5)
    fields = [hn._field_skip(11, 2), hn._field_skip(13, 2)]
    saved = {(p, (2, 1)) for p in (7, 11, 13)}
    return {
        "charsum": (lambda: hn.run_charsum(hn.ExperimentConfig("charsum", 3, 13, **seeded)),
                    [hn._box_cost(7, 2, 0.5, 2, 1), *fields], saved),
        "charsum --form": (lambda: hn.run_charsum(charsum, form_path=stored["form_path"]),
                           [hn._box_cost(7, 2, 0.5, 1, 1)], set()),
        "charsum --decomp": (lambda: hn.run_charsum(charsum, decomp_path=stored["decomp_path"]),
                             [hn._box_cost(7, 2, 0.5, 1, 1)], set()),
        "bound-table": (
            lambda: hn.run_bound_table(hn.ExperimentConfig("bound-table", 3, 13, **seeded)),
            [hn._box_cost(7, 2, 0.5, 1, hn.BOUND_SWEEP), *fields], saved),
        "lattice": (lambda: hn.run_lattice(hn.ExperimentConfig("lattice", 3, 13, n=2, seed=1)),
                    [hn._field_skip(p, 2, " partition=(2,)") for p in (11, 13)],
                    {(11, (2,)), (13, (2,))}),
        "weil-check": (lambda: hn.run_weil_check(hn.ExperimentConfig("weil-check", 3, 13, k=2)),
                       fields, set()),
        "moment": (lambda: hn.run_moment(hn.ExperimentConfig("moment", 3, 13, k=2, r=2)),
                   fields, set()),
    }


def _spy_on_decompositions(monkeypatch, fail_at=None):
    """The (p, partition) of every random_decomposition call; each call at
    fail_at raises the routine's rejection-sampling error instead."""
    calls, sample = [], fm.random_decomposition

    def spy(p, n, partition, rng):
        calls.append((p, tuple(partition)))
        if p == fail_at:
            raise ValueError(f"no in-class decomposition found for p={p}, partition={partition}")
        return sample(p, n, partition, rng)

    monkeypatch.setattr(fm, "random_decomposition", spy)
    return calls


@pytest.mark.parametrize("command", [
    "charsum", "charsum --form", "charsum --decomp", "bound-table", "lattice", "weil-check",
    "moment",
])
def test_each_skip_line_is_its_caps_helpers_and_comes_before_any_work(
    command, stored_at_7, monkeypatch
):
    # F_{p^2} is past 100 from p = 11; kappa = 1/2 boxes at n = 2 hold 4, 9
    # and 16 points at p = 3, 5 and 7
    monkeypatch.setattr(fc, "FIELD_SIZE_CAP", 100)
    monkeypatch.setattr(cs, "BOX_CAP", 10)
    run, lines, saved = _skip_cases(stored_at_7)[command]
    assert lines and all(isinstance(line, str) for line in lines)
    calls = _spy_on_decompositions(monkeypatch)
    assert run()[1] == lines
    assert not saved & set(calls)
    assert bool(calls) == bool(saved)


@pytest.mark.parametrize("command, failed", [
    ("charsum", ["p=5: no in-class decomposition found for p=5, partition=(2, 1)"]),
    ("bound-table", ["p=5: no in-class decomposition found for p=5, partition=(2, 1)"]),
    ("lattice", [f"p=5 partition={part}: no in-class decomposition found for p=5, "
                 f"partition={part}" for part in ((2,), (1, 1))]),
])
def test_a_rejection_sampling_failure_is_still_a_skip_line(
    command, failed, stored_at_7, monkeypatch
):
    monkeypatch.setattr(fc, "FIELD_SIZE_CAP", 100)
    monkeypatch.setattr(cs, "BOX_CAP", 10)
    run, lines, saved = _skip_cases(stored_at_7)[command]
    _spy_on_decompositions(monkeypatch, fail_at=5)
    rows, skips = run()
    assert skips == failed + lines
    assert 5 not in {row.p for row in rows}


def test_a_range_whose_every_prime_is_skipped_is_not_priced(capsys):
    # F_{p^2} is past the cap at every prime of 1000..1100; their boxes, of
    # p^2 points at kappa = 3/4, would have taken the command past 25 s
    argv = ["charsum", "--p-range", "1000..1100", "--n", "2", "--k", "3", "--kappa", "0.75",
            "--seed", "1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == hn.render(hn.SCAN_COLUMNS, [], "csv")
    primes = list(hn.primes_in(1000, 1100))
    assert len(primes) == 16
    assert captured.err.splitlines() == [f"skip: {hn._field_skip(p, 2)}" for p in primes]


def test_a_stored_field_past_the_cap_is_refused_before_its_irreducibility_test(
    tmp_path, monkeypatch, capsys
):
    # the irreducibility test of a degree-m polynomial grows with m; this one,
    # X^600 - 1, is reducible, so a test run first would end with that instead
    path = tmp_path / "decomp.json"
    path.write_text(json.dumps({
        "p": 3, "n": 1, "partition": [600], "blocks": [[[1]] * 600],
        "ctxs": [{"p": 3, "m": 600, "defining_poly": [2] + [0] * 599 + [1]}],
    }))
    splits = []
    monkeypatch.setattr(fc, "degree_parts", lambda *args: splits.append(args))
    assert cli.main(["charsum", "--decomp", str(path), "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: field size 3^600 exceeds cap 1000000\n"
    assert splits == []


def test_a_form_whose_splitting_field_is_past_the_cap_is_refused(tmp_path, monkeypatch, capsys):
    # X^40 + X Y^39 + 2 Y^40 over F_3: its restriction's factor degrees give
    # a splitting field F_{3^40}, refused before any root is sought in it
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"p": 3, "n": 2, "k": 40, "monomials": [
        {"exp": [40, 0], "coef": 1}, {"exp": [1, 39], "coef": 1}, {"exp": [0, 40], "coef": 2},
    ]}))
    searched = []
    monkeypatch.setattr(fm, "_roots_in", lambda *args: searched.append(args))
    assert cli.main(["decompose", "--form", str(path), "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: factorization unsupported: splitting field 3^40 exceeds cap 1000000\n"
    )
    assert searched == []


class TestCommandCap:
    @pytest.mark.parametrize(
        "argv, prime",
        [
            (["weil-check", "--p", "3", "--k", "12"], 3),
            (["weil-check", "--p", "3", "--k", "1", "--r", "100000000"], 3),
            (["energy-scan", "--p-range", "3..999983", "--n", "1", "--seed", "1"], 29581),
            # each prime's F_p log table and printed weight cells, not its box
            (["bound-table", "--p-range", "3..20000", "--n", "1", "--k", "1", "--seed", "1"],
             19273),
            (["charsum", "--p-range", "3..999983", "--n", "1", "--k", "1", "--seed", "1"],
             39671),
            # at T = 1 every prime to the field cap: its index reads and classes
            (["moment", "--p-range", "3..999983", "--k", "1", "--r", "12"], 13063),
            # T = p^(1/4): each prime fits the moment cap, and their sum passes
            # the command cap
            (["moment", "--p-range", "3..999983", "--k", "1", "--r", "2"], 7177),
            # each lattice's fixed work and minima prefixes; the second range ran
            # 120 s on the whole-ball walk, and 3..3078 runs in 18 s
            (["lattice", "--p-range", "3..999983", "--n", "2", "--seed", "1"], 3079),
            (["lattice", "--p-range", "3..3121", "--n", "2", "--seed", "1"], 3079),
            (["identity-suite", "--p-range", "3..997", "--seed", "5"], 787),
        ],
    )
    def test_runaway_commands_exit_2_at_once(self, argv, prime, capsys):
        start = time.perf_counter()
        assert cli.main(argv) == 2
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: {argv[0]} would run over 25 s by p={prime}, past the command "
            "cap; narrow the prime range or the sizes\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            # 12 to 14 s before the command cap, and the largest range that the
            # tests, the README and the benchmark run
            ["energy-scan", "--p-range", "3..223", "--n", "2", "--seed", "11"],
            ["energy-scan", "--p-range", "3..199", "--n", "2", "--seed", "11"],
        ],
    )
    def test_commands_that_ran_within_25_s_still_run(self, argv, monkeypatch, capsys):
        # the cap is decided before any energy, so the energies are stubbed out
        monkeypatch.setattr(en, "energy_symmetric", lambda *args, **kw: 1)
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_runs_at_the_cap_and_computes_nothing_one_ns_below(self, monkeypatch):
        config = hn.ExperimentConfig("energy-scan", 3, 7, seed=1)
        # one partition of 1, SCAN_SAMPLES energies per prime over 3, 5 and 5 points
        total = sum(hn.SCAN_SAMPLES * en.pair_cost(v, v) * en.pair_ns(1) for v in (3, 5, 5))
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        assert len(hn.run_energy_scan(config)[0]) == 3
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        computed = []
        monkeypatch.setattr(en, "energy_symmetric", lambda *args, **kw: computed.append(args))
        with pytest.raises(hn.UsageError, match="by p=7, past the command cap"):
            hn.run_energy_scan(config)
        assert computed == []

    def test_the_walk_stops_at_the_first_prime_past_the_cap(self, monkeypatch):
        is_prime, tested = la.is_prime, []
        monkeypatch.setattr(la, "is_prime", lambda p: tested.append(p) or is_prime(p))
        with pytest.raises(hn.UsageError, match="by p=29581,"):
            hn.run_energy_scan(hn.ExperimentConfig("energy-scan", 3, 999983, seed=1))
        assert max(tested) == 29581

    def test_each_arity_has_its_own_pair_weight(self, monkeypatch):
        weights = [en.pair_ns(n) for n in (1, 2, 3, 4, 9)]
        assert weights == list(en.PAIR_NS[:3]) + [en.PAIR_NS[2]] * 2
        # the field count is read only at n >= 3
        assert [en.pair_ns(n, 2) for n in (1, 2)] == list(en.PAIR_NS[:2])
        assert [en.pair_ns(4, f) for f in (1, 2, 3, 4)] == list(en.PAIR_NS[2:]) + [en.PAIR_NS[4]]
        # two partitions of 2, SCAN_SAMPLES energies each, over 3 x 3 points at p = 3
        config = hn.ExperimentConfig("energy-scan", 3, 3, n=2, seed=1)
        total = 2 * hn.SCAN_SAMPLES * en.pair_cost(9, 9) * en.PAIR_NS[1]
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        assert len(hn.run_energy_scan(config)[0]) == 1
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        with pytest.raises(hn.UsageError, match="by p=3, past the command cap"):
            hn.run_energy_scan(config)

    def test_an_n3_window_is_priced_by_its_partitions_field_count(self, monkeypatch):
        # the partitions (3), (2, 1) and (1, 1, 1) of 3, over 27 x 27 pairs at p = 3
        config = hn.ExperimentConfig("energy-scan", 3, 3, n=3, seed=1)
        total = hn.SCAN_SAMPLES * en.pair_cost(27, 27) * sum(en.PAIR_NS[2:])
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        assert len(hn.run_energy_scan(config)[0]) == 1
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        with pytest.raises(hn.UsageError, match="by p=3, past the command cap"):
            hn.run_energy_scan(config)
        # energy's one window, over one field, keeps the one-field weight
        energy = hn.ExperimentConfig("energy", 3, 3, n=3, seed=1)
        monkeypatch.setattr(hn, "COMMAND_CAP", en.pair_cost(27, 27) * en.PAIR_NS[2])
        assert len(hn.run_energy(energy)[0]) == 2

    def test_partitions_are_listed_only_for_a_window_within_the_pair_cap(
        self, monkeypatch, capsys
    ):
        # every window at n = 80 is past the pair cap, so none of the 1.6 x 10^7
        # partitions of 80 is listed: the run prints a bare table and skip lines
        listed, partitions = [], hn.square_partitions
        monkeypatch.setattr(hn, "square_partitions", lambda n: listed.append(n) or partitions(n))
        assert cli.main(["energy-scan", "--p-range", "2..50", "--n", "80", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert listed == []
        assert captured.out == hn.render(hn.SCAN_COLUMNS, [], "csv")
        skips = captured.err.splitlines()
        assert len(skips) == len(list(hn.primes_in(2, 50)))
        assert all(line.startswith("skip: p=") and line.endswith("^2 exceeds cap, skipped")
                   for line in skips)

    @pytest.mark.parametrize("command, rows", [("charsum", 1), ("bound-table", hn.BOUND_SWEEP)])
    def test_a_character_prime_costs_its_table_and_weight_cells(
        self, command, rows, monkeypatch
    ):
        # the F_p log table (p entries) that chi reads, and the weight cells
        # (p - 1 entries each) that the prime's rows print, beside its box
        config = hn.ExperimentConfig(command, 3, 13, n=1, k=1, seed=1)
        sums = 2 if command == "charsum" else 1
        primes = list(hn.primes_in(3, 13))
        total = sum(
            sums * hn._short_box(p, 1, 0.0).volume * cs.BOX_POINT_NS
            + fc.field_size(p, 1) * fc.LOG_ENTRY_NS
            + rows * (p - 1) * hn.CELL_ENTRY_NS
            for p in primes
        )
        run = hn.run_charsum if command == "charsum" else hn.run_bound_table
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        assert run(config)[1] == []
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        with pytest.raises(hn.UsageError, match="by p=13, past the command cap"):
            run(config)

    @pytest.fixture
    def stored(self, tmp_path):
        """A stored form and its decomposition at p = 101, n = k = 2."""
        paths = {"form": str(tmp_path / "form.json"), "decomp": str(tmp_path / "decomp.json")}
        assert cli.main(["gen-form", "--p", "101", "--n", "2", "--k", "2", "--seed", "1",
                         "--out", paths["form"]]) == 0
        assert cli.main(["decompose", "--form", paths["form"], "--seed", "0",
                         "--out", paths["decomp"]]) == 0
        return paths

    @pytest.mark.parametrize("flag", ["--form", "--decomp"])
    def test_a_stored_object_past_the_cap_exits_2_at_once(
        self, flag, stored, monkeypatch, capsys
    ):
        # a box of 8,100^2 = 65.6 M points, about 59 s at BOX_POINT_NS; the
        # character, with its F_p log table, is not built
        capsys.readouterr()
        built = []
        monkeypatch.setattr(cc, "DirichletChar", lambda *args: built.append(args))
        start = time.perf_counter()
        key = flag.lstrip("-")
        assert cli.main(["charsum", flag, stored[key], "--seed", "0", "--kappa", "1.7"]) == 2
        assert time.perf_counter() - start < 1.0
        assert built == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: charsum would run over 25 s by p=101, past the command "
            "cap; narrow the prime range or the sizes\n"
        )

    def test_a_stored_form_mod_2_still_exits_2(self, tmp_path, capsys):
        path = tmp_path / "form2.json"
        path.write_text('{"p": 2, "n": 1, "k": 1, "monomials": [{"exp": [1], "coef": 1}]}')
        assert cli.main(["charsum", "--form", str(path), "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: no nonprincipal character mod 2\n"

    @pytest.mark.parametrize("flag", ["--form", "--decomp"])
    def test_a_stored_object_costs_one_route_and_its_character(self, flag, stored, monkeypatch):
        # one route sums the box, beside the F_p log table and one weight row
        key = flag.lstrip("-")
        config = hn.ExperimentConfig("charsum", seed=0, kappa=0.2)
        paths = {"form_path": stored[key]} if key == "form" else {"decomp_path": stored[key]}
        total = (hn._short_box(101, 2, 0.2).volume * cs.BOX_POINT_NS
                 + fc.field_size(101, 1) * fc.LOG_ENTRY_NS + 100 * hn.CELL_ENTRY_NS)
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        assert len(hn.run_charsum(config, **paths)[0]) == 3
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        summed = []
        monkeypatch.setattr(cs, "_box_sum", lambda *args: summed.append(args))
        with pytest.raises(hn.UsageError, match="by p=101, past the command cap"):
            hn.run_charsum(config, **paths)
        assert summed == []

    def test_a_moment_prime_costs_its_index_reads_and_classes(self, monkeypatch):
        # at T = 1 a prime's moment reads p indices and powers at most three
        # classes (index 0, index (p - 1)/2 and zero) over p - 1 entries,
        # beside the F_p log table and the weight row it prints
        config = hn.ExperimentConfig("moment", 3, 1500, k=1, r=6)
        primes = list(hn.primes_in(3, 1500))
        # r = 6: |S|^2, two squarings and two products
        assert cs.moment_work(1499, 1, 1, 6, 2, 1) == (1499, 3 * 1498 * 5)
        total = sum(
            p * cs.MOMENT_READ_NS + 3 * (p - 1) * 5 * cs.MOMENT_ENTRY_NS
            + p * fc.LOG_ENTRY_NS + (p - 1) * hn.CELL_ENTRY_NS
            for p in primes
        )
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        monkeypatch.setattr(cs, "s2_moment", lambda *args: {"value": 1.0, "weights": (1,),
                                                            "bound_terms": (1.0, 1.0)})
        assert len(hn.run_moment(config)[0]) == 2 * len(primes)
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        with pytest.raises(hn.UsageError, match="by p=1499, past the command cap"):
            hn.run_moment(config)

    def test_moment_classes_are_bounded_by_the_zero_shifts(self):
        # one field, T < p: at most one shift vanishes, so the quadratic
        # classes number (T + 1) + T; the z's bound them at a small field
        for T in range(1, 8):
            assert cs.moment_work(101, 1, T, 1, 2, 1) == (101 * T, (2 * T + 1) * 100 * 2)
        assert cs.moment_work(3, 1, 4, 1, 2, 1)[1] == 3 * 2 * 2
        # T = 7 over p = 5: up to two shifts vanish, classes 8 + 7 + 6
        assert cs.moment_work(5, 3, 7, 2, 2, 1)[1] == 21 * 4 * 3
        # over two fields one shift may vanish in each: T = 6 at p = 11,
        # T = 4 at p = 5 and T = 3 at p = 7 key 7 + 6 + 5, 5 + 4 + 3 and
        # 4 + 3 + 2 classes in s2_moment
        assert cs.moment_work(11, 3, 6, 1, 2, 2)[1] == 18 * 10 * 2
        assert cs.moment_work(5, 3, 4, 1, 2, 2)[1] == 12 * 4 * 2
        assert cs.moment_work(7, 2, 3, 1, 2, 2)[1] == 9 * 6 * 2

    def test_a_lattice_prime_costs_only_the_partitions_that_fit(self, monkeypatch):
        # past p = 1000 the partition (2) of 2 is skipped before any work
        config = hn.ExperimentConfig("lattice", 1009, 1009, n=2, seed=1)
        total = lat.LATTICE_NS + lat.minima_cost(1009, 2) * lat.MINIMA_PREFIX_NS[1]
        assert lat.minima_cost(1009, 2) == (2 * 31 + 1) ** 2
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        rows, skips = hn.run_lattice(config)
        assert {row.p for row in rows} == {1009}
        assert skips == ["p=1009 partition=(2,): field size 1018081 exceeds cap, skipped"]
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        with pytest.raises(hn.UsageError, match="by p=1009, past the command cap"):
            hn.run_lattice(config)

    def test_an_identity_prime_costs_its_quadratic_field(self, monkeypatch):
        # p = 2 is left out without a failure note, and costs nothing
        config = hn.ExperimentConfig("identity-suite", 2, 5, seed=5)
        total = (9 + 25) * hn.IDENTITY_ELEMENT_NS
        monkeypatch.setattr(hn, "COMMAND_CAP", total)
        results, failures = hn.run_identity_suite(config)
        assert {row.p for row in results} == {3, 5} and failures == []
        monkeypatch.setattr(hn, "COMMAND_CAP", total - 1)
        with pytest.raises(hn.UsageError, match="by p=5, past the command cap"):
            hn.run_identity_suite(config)

    @pytest.mark.parametrize(
        "command", sorted(name for name, spec in hn.COMMANDS.items() if spec.columns)
    )
    def test_no_table_command_walks_outside_the_pre_flight(self, command, monkeypatch):
        # at a cap of 0 the first priced prime refuses the command, so a runner
        # that reached its primes any other way would build a row first
        def no_row(*cells):
            raise AssertionError(f"{command} built a row before its pre-flight")

        for row_type in ("ScanRow", "BoundRow", "IdentityRow"):
            monkeypatch.setattr(hn, row_type, no_row)
        monkeypatch.setattr(hn, "COMMAND_CAP", 0)
        spec = hn.COMMANDS[command]
        config = hn.ExperimentConfig(command, 3, 7, n=1, k=1, r=1, seed=1)
        with pytest.raises(hn.UsageError, match="by p=3, past the command cap"):
            getattr(hn, spec.run)(config, *(None for _ in spec.inputs))

    def test_skipped_primes_cost_nothing(self, monkeypatch):
        monkeypatch.setattr(hn, "COMMAND_CAP", 0)
        assert hn.run_moment(hn.ExperimentConfig("moment", 2, 3, k=12, r=1)) == (
            [],
            ["p=2: no nonprincipal character, skipped",
             "p=3: moment enumeration over cap, skipped"],
        )
