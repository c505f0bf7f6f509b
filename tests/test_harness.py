"""Tests for the experiment drivers, serialization, and CLI contract."""

import csv
import dataclasses
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from normsum import char_core as cc
from normsum import charsum as cs
from normsum import cli
from normsum import forms as fm
from normsum import harness as hn


def run_cli(args):
    return cli.main(args)


class TestConfig:
    def test_rejects_unknown_command(self):
        with pytest.raises(hn.UsageError, match="unknown command"):
            hn.ExperimentConfig("frobnicate")

    def test_rejects_bad_seed(self):
        with pytest.raises(hn.UsageError, match="seed"):
            hn.ExperimentConfig("energy-scan", seed=-1)
        with pytest.raises(hn.UsageError, match="seed"):
            hn.ExperimentConfig("energy-scan", seed=2**64)

    def test_rejects_bad_format(self):
        with pytest.raises(hn.UsageError, match="format"):
            hn.ExperimentConfig("energy-scan", fmt="xml")

    def test_rejects_bad_shape(self):
        with pytest.raises(hn.UsageError, match="positive"):
            hn.ExperimentConfig("energy-scan", n=0)
        with pytest.raises(hn.UsageError, match="nonnegative"):
            hn.ExperimentConfig("energy-scan", eps=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_eps_and_kappa(self, value):
        with pytest.raises(hn.UsageError, match="finite"):
            hn.ExperimentConfig("charsum", kappa=value)
        with pytest.raises(hn.UsageError, match="finite"):
            hn.ExperimentConfig("bound-table", eps=value)

    def test_rejects_overflowing_box_side(self):
        with pytest.raises(hn.UsageError, match="overflows"):
            hn.ExperimentConfig("charsum", p_hi=31, kappa=1e300)
        hn.ExperimentConfig("charsum", p_hi=31, kappa=100.0)

    def test_rejects_range_above_field_cap(self):
        with pytest.raises(hn.UsageError, match="field size cap"):
            hn.ExperimentConfig("energy", p_lo=10**6, p_hi=10**6 + 1)
        hn.ExperimentConfig("energy", p_lo=10**6, p_hi=10**6)


class TestSerialization:
    def test_encode_cell_shapes(self):
        assert hn.encode_cell(None) == ""
        assert hn.encode_cell(True) == 1
        assert hn.encode_cell(7) == 7
        assert hn.encode_cell(Fraction(10, 4)) == "5/2"
        assert hn.encode_cell((3, 4)) == "3,4"
        assert hn.encode_cell("x") == "x"

    def test_encode_tuple_cell_pinned_to_per_entry_str(self):
        # byte for byte the per-entry encoding: bools print 0 and 1
        def per_entry(v):
            return ",".join(str(int(x)) for x in v)

        rng = random.Random(9)
        cells = [
            (True, 0, False, -3, 7),
            [False],
            (),
            tuple(rng.randrange(-10**6, 10**6) for _ in range(10**5)),
        ]
        for v in cells:
            assert hn.encode_cell(v) == per_entry(v)
        assert hn.encode_cell((True, 0, False, -3, 7)) == "1,0,0,-3,7"

    def test_encode_cell_float_15_digits(self):
        v = hn.encode_cell(2 / 3)
        assert v == float(f"{2 / 3:.15g}")
        assert str(v) == "0.666666666666667"

    def test_scan_row_ratio(self):
        r = hn.scan_row(5, 1, 1, (2,), "q", 10, 4.0)
        assert r.ratio == 2.5
        assert hn.scan_row(5, 1, 1, (2,), "q", 10, None).ratio is None
        assert hn.scan_row(5, 1, 1, (2,), "q", 10, 0).ratio is None

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row width"):
            hn.render_csv(("a", "b"), [(1, 2, 3)])

    def test_csv_json_value_identity(self):
        cfg = hn.ExperimentConfig("energy-scan", 3, 13, n=1, seed=7)
        rows, _ = hn.run_energy_scan(cfg)
        text_csv = hn.render_csv(hn.SCAN_COLUMNS, rows)
        doc = json.loads(hn.render_json(hn.SCAN_COLUMNS, rows))
        parsed = list(csv.reader(io.StringIO(text_csv)))
        assert parsed[0] == list(hn.SCAN_COLUMNS) == doc["columns"]
        for csv_row, json_row in zip(parsed[1:], doc["rows"]):
            assert csv_row == [str(v) for v in json_row]

    def test_exact_values_never_floats(self):
        cfg = hn.ExperimentConfig("energy-scan", 3, 13, n=1, seed=7)
        rows, _ = hn.run_energy_scan(cfg)
        doc = json.loads(hn.render_json(hn.SCAN_COLUMNS, rows))
        value_col = doc["columns"].index("value")
        for row in doc["rows"]:
            assert isinstance(row[value_col], int)


class TestEnergyScan:
    def test_deterministic_rerun(self):
        cfg = hn.ExperimentConfig("energy-scan", 3, 19, n=1, seed=11)
        first, skips1 = hn.run_energy_scan(cfg)
        second, skips2 = hn.run_energy_scan(cfg)
        assert hn.render_csv(hn.SCAN_COLUMNS, first) == hn.render_csv(
            hn.SCAN_COLUMNS, second
        )
        assert skips1 == skips2 == []

    def test_seed_changes_samples(self):
        a, _ = hn.run_energy_scan(hn.ExperimentConfig("energy-scan", 3, 19, n=2, seed=0))
        b, _ = hn.run_energy_scan(hn.ExperimentConfig("energy-scan", 3, 19, n=2, seed=1))
        assert [r.p for r in a] == [r.p for r in b]
        assert any(x.value != y.value for x, y in zip(a, b))

    def test_empty_range_empty_table(self):
        rows, skips = hn.run_energy_scan(hn.ExperimentConfig("energy-scan", 20, 22))
        assert rows == [] and skips == []

    def test_infeasible_sizes_are_logged(self):
        rows, skips = hn.run_energy_scan(
            hn.ExperimentConfig("energy-scan", 13, 13, n=5, seed=0)
        )
        assert rows == []
        assert len(skips) == 1 and "p=13" in skips[0] and "cap" in skips[0]

    def test_row_shape_and_window(self):
        rows, _ = hn.run_energy_scan(hn.ExperimentConfig("energy-scan", 5, 5, n=2, seed=3))
        (row,) = rows
        assert (row.p, row.n, row.k, row.H) == (5, 2, 2, (2, 2))
        assert isinstance(row.value, int)
        assert row.ratio == row.value / row.bound


class TestBoundTable:
    def test_shape_and_sweep(self):
        cfg = hn.ExperimentConfig("bound-table", 3, 13, n=2, k=3, kappa=0.1, seed=1)
        rows, skips = hn.run_bound_table(cfg)
        assert skips == []
        assert len(rows) == 5 * 6
        for row in rows:
            assert isinstance(row, hn.BoundRow) and row._fields == hn.BOUND_COLUMNS
            assert row.k + 1 <= row.r <= row.k + 6
            assert row.trivial >= 1
            assert row.ratio == row.S_abs / row.rhs

    def test_optimal_exponent_cross_checked(self):
        # r_opt = 5 lies inside the sweep 2..7, at the row of the largest delta
        cfg = hn.ExperimentConfig("bound-table", 7, 7, n=1, k=1, kappa=0.1, seed=1)
        rows, _ = hn.run_bound_table(cfg)
        assert {(row.r_opt, row.r_brute) for row in rows} == {(5, 5)}
        assert max(rows, key=lambda row: row.delta).r == 5
        assert [row.delta for row in rows] == [
            float(cs.saving(cs.BoundParams(1, 1, row.r, kappa=0.1))) for row in rows
        ]

    def test_optimal_exponent_is_the_r_of_the_least_rhs(self):
        cfg = hn.ExperimentConfig("bound-table", 101, 101, n=3, k=3, kappa=0.25, seed=1)
        rows, _ = hn.run_bound_table(cfg)
        assert {(row.r_opt, row.r_brute) for row in rows} == {(6, 6)}
        assert min(rows, key=lambda row: row.rhs).r == 6

    def test_no_r_peaks_below_the_threshold(self):
        # n = 2, k = 3 needs kappa > 1/2 for any saving
        cfg = hn.ExperimentConfig("bound-table", 3, 7, n=2, k=3, kappa=0.1, seed=1)
        rows, _ = hn.run_bound_table(cfg)
        assert all(row.r_opt is None and row.r_brute is None for row in rows)
        assert all(row.delta < 0 for row in rows)
        assert all(row.rhs > row.trivial for row in rows)

    @pytest.mark.parametrize("kappa, want", [("0.001", "500"), ("1e-9", "500000000")])
    def test_a_peak_far_past_the_sweep_is_found_at_once(self, kappa, want, capsys):
        start = time.perf_counter()
        args = ["bound-table", "--p", "5", "--n", "1", "--k", "1", "--kappa", kappa, "--seed", "1"]
        assert run_cli(args) == 0
        assert time.perf_counter() - start < 1
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith(f",{want},{want}") for line in lines[1:])

    def test_a_search_off_by_one_exits_1(self, monkeypatch, capsys):
        search = cs.search_exponent
        monkeypatch.setattr(cs, "search_exponent", lambda params: search(params) + 1)
        args = ["bound-table", "--p", "5", "--n", "1", "--k", "1", "--kappa", "0.1", "--seed", "1"]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "check failed: optimal exponent mismatch: formula 5, search 6\n"
        assert captured.out == ""

    def test_kappa_zero_blanks_optimum(self):
        cfg = hn.ExperimentConfig("bound-table", 5, 5, n=1, k=1, seed=2)
        rows, _ = hn.run_bound_table(cfg)
        assert rows[0].r_opt is None and rows[0].r_brute is None

    def test_bad_shape_is_usage_error(self):
        with pytest.raises(hn.UsageError, match="2n"):
            hn.run_bound_table(hn.ExperimentConfig("bound-table", 3, 13, n=1, k=2))

    @pytest.mark.parametrize("n, k, kappa", [(2, 3, 0.1), (1, 1, 0.3), (3, 5, 0.0)])
    def test_charsum_and_bound_table_sum_one_instance(self, n, k, kappa):
        # both draw, price and skip each prime alike, so each bound-table row
        # carries the sum that charsum prints for its prime
        shape = {"n": n, "k": k, "kappa": kappa, "seed": 1}
        sums, sum_skips = hn.run_charsum(hn.ExperimentConfig("charsum", 3, 61, **shape))
        table, table_skips = hn.run_bound_table(hn.ExperimentConfig("bound-table", 3, 61, **shape))
        by_prime = {}
        for row in sums:
            by_prime.setdefault(row.p, {})[row.quantity] = row.value
        assert len(by_prime) > 10 and len(table) == hn.BOUND_SWEEP * len(by_prime)
        assert {(row.p, row.S_abs, row.weights) for row in table} == {
            (p, q["charsum_abs"], q["charsum_weights"]) for p, q in by_prime.items()
        }
        assert table_skips == sum_skips


class TestIdentitySuite:
    def test_field_cap_refuses_before_any_prime(self, capsys):
        start = time.perf_counter()
        assert cli.main(["identity-suite", "--p-range", "999900..999983", "--seed", "5"]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: field size 999983^2 exceeds cap 1000000\n"

    def test_field_cap_reads_the_largest_prime_not_the_range_end(self, monkeypatch):
        # 1009 is past 1008, so 997 is the largest prime and 997^2 fits; the
        # first prime's character is where the suite starts its work
        reached = []

        def first_prime(p, index):
            reached.append(p)
            raise hn.UsageError("stop")

        monkeypatch.setattr(cc, "DirichletChar", first_prime)
        with pytest.raises(hn.UsageError, match="stop"):
            hn.run_identity_suite(hn.ExperimentConfig("identity-suite", 990, 1008, seed=5))
        assert reached == [991]
        with pytest.raises(hn.UsageError, match="field size 1009\\^2 exceeds cap"):
            hn.run_identity_suite(hn.ExperimentConfig("identity-suite", 990, 1009, seed=5))
        assert reached == [991]

    def test_default_grid_all_pass(self):
        cfg = hn.ExperimentConfig("identity-suite", 3, 7, seed=3)
        results, failures = hn.run_identity_suite(cfg)
        assert failures == []
        checks = {r.check for r in results}
        assert checks == {
            "lifted_sum",
            "box_partition",
            "shift_identity",
            "shift_inequality",
            "s1_cauchy_schwarz",
            "embedding_inequality",
            "negative_control",
        }

    def test_negative_control_detects_corruption(self):
        cfg = hn.ExperimentConfig("identity-suite", 5, 5, seed=3)
        results, _ = hn.run_identity_suite(cfg)
        controls = [r for r in results if r.check == "negative_control"]
        assert len(controls) == 1
        assert controls[0].status == "pass"
        assert "bump=" in controls[0].instance

    def test_zero_shift_rows_present(self):
        cfg = hn.ExperimentConfig("identity-suite", 3, 3, seed=0)
        results, _ = hn.run_identity_suite(cfg)
        zero_rows = [
            r
            for r in results
            if r.check == "shift_identity" and "shift=(0," in r.instance
        ]
        assert zero_rows
        for r in zero_rows:
            assert all(v == 0 for v in r.lhs)

    def test_failures_carry_both_sides(self):
        cfg = hn.ExperimentConfig("identity-suite", 3, 3, seed=0)
        results, _ = hn.run_identity_suite(cfg)
        for r in results:
            assert isinstance(r, hn.IdentityRow) and r._fields == hn.IDENTITY_COLUMNS
            assert r.instance

    @pytest.mark.parametrize("name", [f.__name__ for f in hn.INSTANCE_FAMILIES]
                             + [f.__name__ for _, _, f in hn.PRIME_FAMILIES])
    def test_each_familys_failures_reach_the_exit_code(self, name, monkeypatch, capsys):
        # one family made to fail each of its rows: exit 1, with one fail line
        # per row of that family and none for any other family's rows
        family, expected = getattr(hn, name), []

        def failing(*args):
            for check, instance, holds, lhs, rhs in family(*args):
                expected.append(f"fail: {check} {instance}")
                yield check, instance, False, lhs, rhs

        swap = {family: failing}
        monkeypatch.setattr(
            hn, "INSTANCE_FAMILIES", tuple(swap.get(f, f) for f in hn.INSTANCE_FAMILIES)
        )
        monkeypatch.setattr(
            hn, "PRIME_FAMILIES", tuple((t, n, swap.get(f, f)) for t, n, f in hn.PRIME_FAMILIES)
        )
        capsys.readouterr()
        assert cli.main(["identity-suite", "--p-range", "3..5", "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert expected and captured.err.splitlines() == expected
        statuses = [row["status"] for row in csv.DictReader(io.StringIO(captured.out))]
        assert statuses.count("fail") == len(expected)

    def test_deterministic(self):
        cfg = hn.ExperimentConfig("identity-suite", 3, 7, seed=9)
        a = hn.render(hn.IDENTITY_COLUMNS, hn.run_identity_suite(cfg)[0], "json")
        b = hn.render(hn.IDENTITY_COLUMNS, hn.run_identity_suite(cfg)[0], "json")
        assert a == b


class TestOtherDrivers:
    def test_charsum_dual_route_default(self):
        rows, skips = hn.run_charsum(hn.ExperimentConfig("charsum", 3, 13, seed=4))
        assert skips == []
        quantities = {r.quantity for r in rows}
        assert quantities == {"charsum_abs", "charsum_weights", "charsum_zero_terms"}

    def test_charsum_bad_shape_is_usage_error(self):
        # refused before the walk, as bound-table refuses it, not skipped per prime
        with pytest.raises(hn.UsageError, match="2n"):
            hn.run_charsum(hn.ExperimentConfig("charsum", 3, 7, n=2, k=1, seed=1))

    def test_energy_reports_diagonal_bound(self):
        rows, _ = hn.run_energy(hn.ExperimentConfig("energy", 5, 5, n=1, seed=6))
        main_row = next(r for r in rows if r.quantity == "energy")
        assert main_row.value >= main_row.bound

    def test_lattice_det_is_p_to_n(self):
        rows, skips = hn.run_lattice(hn.ExperimentConfig("lattice", 3, 7, n=2, seed=8))
        assert skips == []
        for r in rows:
            if r.quantity == "lattice_det":
                assert r.value == r.p**2

    def test_lattice_dimension_cap(self):
        with pytest.raises(hn.UsageError, match="cap"):
            hn.run_lattice(hn.ExperimentConfig("lattice", 3, 3, n=4, seed=0))

    def test_weil_ratios_below_one(self):
        rows, _ = hn.run_weil_check(hn.ExperimentConfig("weil-check", 3, 7, k=1, r=1))
        for r in rows:
            if r.quantity.startswith("weil_max_ratio"):
                assert 0 <= r.value <= 1

    def test_moment_skips_are_logged(self):
        # one prime past the moment cap, and one whose F_{p^2} is past the field cap
        config = hn.ExperimentConfig("moment", 999983, 999983, k=1, r=1)
        assert hn.run_moment(config) == ([], ["p=999983: moment enumeration over cap, skipped"])
        config = hn.ExperimentConfig("moment", 1009, 1009, k=2, r=100)
        assert hn.run_moment(config) == ([], ["p=1009: field size 1018081 exceeds cap, skipped"])

    def test_gen_form_round_trip(self, tmp_path):
        obj = hn.run_gen_form(hn.ExperimentConfig("gen-form", 7, 7, n=2, k=3, seed=5))
        path = tmp_path / "form.json"
        path.write_text(json.dumps(obj))
        dec = hn.run_decompose(hn.ExperimentConfig("decompose", 7, 7, seed=5), str(path))
        assert dec["p"] == 7
        assert sorted(dec["partition"]) == [1, 2]

    def test_decompose_needs_form(self):
        with pytest.raises(hn.UsageError, match="--form"):
            hn.run_decompose(hn.ExperimentConfig("decompose", 3, 13, seed=0), None)


class TestCli:
    def test_missing_seed_is_usage_error(self, capsys):
        assert run_cli(["energy-scan", "--p-range", "3..7"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_range_is_usage_error(self, capsys):
        assert run_cli(["energy-scan", "--p-range", "3-7", "--seed", "1"]) == 2
        assert run_cli(["energy-scan", "--p", "5", "--p-range", "3..7", "--seed", "1"]) == 2

    def test_unknown_command_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    def test_command_table_names_its_runners(self):
        for name, command in hn.COMMANDS.items():
            assert callable(getattr(hn, command.run)), name
            assert set(command.inputs) <= {"form", "decomp"}, name

    def test_unseeded_commands_run_without_seed(self, tmp_path, capsys):
        assert run_cli(["weil-check", "--p", "5", "--k", "1", "--r", "1"]) == 0
        assert run_cli(["moment", "--p", "5", "--k", "1", "--r", "1"]) == 0
        form = str(tmp_path / "form.json")
        argv = ["gen-form", "--p", "7", "--n", "2", "--k", "3", "--seed", "5", "--out", form]
        assert run_cli(argv) == 0
        assert run_cli(["decompose", "--form", form]) == 0
        # a stored charsum reads no seed and prints what it prints with one
        for flag in ("--form", "--decomp"):
            capsys.readouterr()
            assert run_cli(["charsum", flag, form]) == 0
            unseeded = capsys.readouterr()
            assert run_cli(["charsum", flag, form, "--seed", "3"]) == 0
            assert capsys.readouterr() == unseeded and unseeded.out
        assert run_cli(["charsum", "--p", "5"]) == 2
        assert capsys.readouterr().err == "usage error: charsum is seeded; --seed is required\n"

    @pytest.mark.parametrize("n", [1, 2])
    def test_decompose_refuses_a_degree_0_form(self, n, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(
            {"p": 3 if n == 1 else 5, "n": n, "k": 0, "monomials": [{"exp": [0] * n, "coef": 1}]}))
        assert run_cli(["decompose", "--form", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "usage error: factorization unsupported: form of degree 0\n")
        # charsum still sums a degree-0 form
        assert run_cli(["charsum", "--form", str(path)]) == 0
        assert capsys.readouterr().out

    def test_failed_identity_check_exits_1(self, monkeypatch, capsys):
        row = hn.IdentityRow("lifted_sum", 3, 1, "x", "fail", 1, 2)
        monkeypatch.setattr(
            hn, "run_identity_suite", lambda config: ([row], ["lifted_sum x"])
        )
        assert run_cli(["identity-suite", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "fail: lifted_sum x\n"
        assert ",fail," in captured.out

    def test_weil_bound_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            hn.cs, "weil_complete_sum", lambda chi, ctx, factors: (9.0, 1.0, False)
        )
        assert run_cli(["weil-check", "--p", "5", "--k", "1", "--r", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("check failed: p=5 chi1 [(1, 1), (1, 3)]:")
        assert "|sum| 9.0 > 1.0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_lifted_sum_off_by_one_term_exits_1(self, monkeypatch, capsys):
        # one term moved from a character class to the zero terms
        lifted = cs.charsum_lifted

        def shifted(D, chi, box):
            res = lifted(D, chi, box)
            j = next(i for i, w in enumerate(res.weights) if w)
            weights = res.weights[:j] + (res.weights[j] - 1,) + res.weights[j + 1:]
            return dataclasses.replace(res, weights=weights, zero_terms=res.zero_terms + 1)

        monkeypatch.setattr(cs, "charsum_lifted", shifted)
        assert run_cli(["charsum", "--p", "5", "--n", "2", "--k", "2", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "check failed: route mismatch at p=5\n"
        assert captured.out == ""

    def test_a_synthesized_form_off_by_one_coefficient_exits_1(self, monkeypatch, capsys):
        synthesize = fm.synthesize_form

        def moved(D):
            F = synthesize(D)
            (exp, coef), *rest = F.monomials
            return dataclasses.replace(F, monomials=((exp, coef + 1), *rest))

        args = ["gen-form", "--p", "7", "--n", "2", "--k", "2", "--seed", "1"]
        monkeypatch.setattr(fm, "synthesize_form", moved)
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "check failed: synthesized form failed verification\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["charsum", "bound-table"])
    def test_characters_run_past_ten_to_the_five(self, command, capsys):
        assert run_cli([command, "--p", "100003", "--n", "1", "--k", "1", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1].startswith("100003,")

    def test_energy_cross_check_mismatch_exits_1_under_optimize(self):
        # a literal quadruple loop that finds nothing disagrees with the histogram
        script = (
            "import sys\n"
            "from normsum import cli, energy as en\n"
            "en._literal_quadruples = lambda *tables: iter(())\n"
            "sys.exit(cli.main(['identity-suite', '--p-range', '5..5', '--seed', '1']))\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            timeout=120, env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("check failed: literal loop counts 0, histogram")
        assert "Traceback" not in out.stderr

    def test_empty_range_exits_0(self, capsys):
        assert run_cli(["energy-scan", "--p-range", "20..22", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == ",".join(hn.SCAN_COLUMNS)

    def test_identity_suite_passes(self, capsys):
        assert run_cli(["identity-suite", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(hn.IDENTITY_COLUMNS))
        assert ",fail," not in out

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["energy-scan", "--p-range", "3..13", "--n", "1", "--seed", "7",
                "--format", "json"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_and_json_hold_same_values(self, tmp_path):
        base = ["bound-table", "--p-range", "3..7", "--n", "2", "--k", "3",
                "--kappa", "0.1", "--seed", "1"]
        out_csv = tmp_path / "t.csv"
        out_json = tmp_path / "t.json"
        assert run_cli(base + ["--format", "csv", "--out", str(out_csv)]) == 0
        assert run_cli(base + ["--format", "json", "--out", str(out_json)]) == 0
        parsed = list(csv.reader(io.StringIO(out_csv.read_text())))
        doc = json.loads(out_json.read_text())
        assert parsed[0] == doc["columns"]
        for csv_row, json_row in zip(parsed[1:], doc["rows"]):
            assert csv_row == [str(v) for v in json_row]

    def test_skips_go_to_stderr_not_stdout(self, capsys):
        assert run_cli(["energy-scan", "--p", "13", "--n", "5", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert "skip:" in captured.err
        assert "skip" not in captured.out

    def test_gen_form_decompose_charsum_pipeline(self, tmp_path):
        form_path = tmp_path / "form.json"
        dec_path = tmp_path / "dec.json"
        assert run_cli(["gen-form", "--p", "7", "--n", "2", "--k", "3",
                        "--seed", "5", "--out", str(form_path)]) == 0
        assert run_cli(["decompose", "--form", str(form_path), "--seed", "0",
                        "--out", str(dec_path)]) == 0
        assert run_cli(["charsum", "--decomp", str(dec_path), "--seed", "0"]) == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli(["decompose", "--form", str(tmp_path / "nope.json"),
                        "--seed", "0"]) == 2

    @pytest.mark.parametrize("command", ["charsum", "bound-table"])
    def test_huge_kappa_is_usage_error(self, command, capsys):
        args = [command, "--p", "31", "--n", "2", "--k", "2", "--kappa", "1e300",
                "--seed", "1"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "kappa" in err

    @pytest.mark.parametrize("command", ["charsum", "gen-form"])
    def test_oversized_expansion_is_refused_at_once(self, command, capsys):
        # C(25, 13) = 5,200,300 possible monomials at n = k = 13
        start = time.perf_counter()
        assert run_cli([command, "--p", "5", "--n", "13", "--k", "13", "--seed", "1"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "5200300 monomials" in err
        assert "Traceback" not in err

    def test_form_without_n_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"p": 7, "k": 1, "monomials": []}))
        assert run_cli(["decompose", "--form", str(path), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "lacks key(s): n" in err

    def test_top_level_list_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text("[1, 2, 3]")
        assert run_cli(["decompose", "--form", str(path), "--seed", "0"]) == 2
        assert run_cli(["charsum", "--decomp", str(path), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("usage error:") == 2 and "JSON object" in err

    def _gen_form_object(self, tmp_path):
        path = tmp_path / "gen.json"
        assert run_cli(["gen-form", "--p", "7", "--n", "2", "--k", "3",
                        "--seed", "5", "--out", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "part,field,value",
        [
            ("form", "p", "7"),
            ("form", "n", True),
            ("form", "k", 3.0),
            ("form", "coef", "1"),
            ("form", "exp", ["1", 1]),
            ("decomposition", "p", "7"),
            ("decomposition", "n", None),
            ("decomposition", "partition", [2.0, 1]),
            ("decomposition", "block", "3"),
            ("decomposition", "defining_poly", [1, False, 1]),
        ],
    )
    def test_mistyped_json_values_are_usage_errors(
        self, tmp_path, capsys, part, field, value
    ):
        obj = self._gen_form_object(tmp_path)[part]
        if field in ("coef", "exp"):
            obj["monomials"][0][field] = value
        elif field == "block":
            obj["blocks"][0][0][0] = value
        elif field == "defining_poly":
            obj["ctxs"][0][field] = value
        else:
            obj[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        command = "decompose" if part == "form" else "charsum"
        flag = "--form" if part == "form" else "--decomp"
        capsys.readouterr()
        assert run_cli([command, flag, str(path), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "must be an integer" in err
        assert "Traceback" not in err

    def test_out_of_class_decomposition_is_usage_error(self, tmp_path, capsys):
        obj = self._gen_form_object(tmp_path)
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps(obj["form"]))
        D = obj["decomposition"]
        D["blocks"][0] = [[0] * len(row) for row in D["blocks"][0]]
        dec_path = tmp_path / "zero_block.json"
        dec_path.write_text(json.dumps(D))
        capsys.readouterr()
        args = ["charsum", "--form", str(form_path), "--decomp", str(dec_path),
                "--seed", "0"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "outside the supported class" in err

    def test_range_above_field_cap_exits_before_walking(self, capsys):
        args = ["energy", "--p-range", "1000000..100000000000", "--seed", "1"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "field size cap" in err
