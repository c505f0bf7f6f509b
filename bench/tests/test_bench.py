"""Tests of the benchmark itself: op lists, caps, checks, tracing, output.

    python3 -m pytest bench/tests -q

The last two tests run the benchmark end to end on short runs (about a
minute together).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import normsum  # noqa: E402
import normsum.cli  # noqa: E402
from bench import run, workloads  # noqa: E402
from bench.trace import Tracer, _Stat, wrapper_cost  # noqa: E402
from bench.worker import run_op  # noqa: E402
from normsum import charsum as cs, energy as en, field_core as fc, lattice as lat  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(workloads.WORKLOADS)
# The size figures each command's ops must carry, so every cap is checked.
REQUIRED_COST = {
    "charsum": {"box_points", "field_size"},
    "weil-check": {"field_size"},
    "moment": {"field_size", "moment_terms"},
    "energy": {"pair_table", "field_size"},
    "energy-scan": {"pair_table", "field_size"},
    "gen-form": {"field_size"},
    "decompose": {"field_size"},
    "lattice": {"lattice_dim", "field_size"},
}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_op_lists_are_deterministic_per_seed(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert [op.cost for op in a] == [op.cost for op in b]
    assert [op.argv for op in a] != [op.argv for op in workloads.generate(name, 8)]


@pytest.mark.parametrize("name", NAMES)
def test_pass_cost_does_not_depend_on_the_seed(name):
    def sizes(seed):
        return sorted((op.argv[0], sorted(op.cost.items()))
                      for op in workloads.generate(name, seed))
    assert sizes(1) == sizes(2) == sizes(12345)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1, 99, 2**40])
def test_every_op_is_sized_under_the_package_caps(name, seed):
    caps = {"box_points": cs.BOX_CAP, "field_size": fc.FIELD_SIZE_CAP,
            "moment_terms": cs.MOMENT_CAP, "pair_table": en.PAIR_CAP,
            "lattice_dim": lat.MINIMA_DIM_CAP}
    for op in workloads.generate(name, seed):
        assert REQUIRED_COST[op.argv[0]] <= set(op.cost), op.argv
        for key, value in op.cost.items():
            assert value <= caps[key], (op.argv, key, value)


@pytest.mark.parametrize("name", NAMES)
def test_every_op_of_every_seed_is_in_the_pool_and_pinned(name):
    pins = json.loads(run.PINS.read_text())[name]
    pool = {workloads.pin_key(op) for op in workloads.pool(name)}
    assert pool == set(pins)
    for seed in (0, 1, 7, 401, 2**40):
        assert {workloads.pin_key(op) for op in workloads.generate(name, seed)} <= pool


def test_structure_instances_are_the_same_for_every_seed():
    def ops(seed):
        return sorted(op.argv for op in workloads.generate("structure", seed))
    assert ops(1) == ops(2) == ops(12345)


def test_pass_count_depends_only_on_seconds():
    assert run.pass_count(1) == run.MIN_PASSES
    assert run.pass_count(600) == round(600 / run.PASS_SECONDS)


def test_an_op_over_a_cap_is_refused():
    op = workloads.Op(("charsum", "--p", "197", "--n", "3", "--k", "5"),
                      {"field_size": 197**3})
    with pytest.raises(ValueError, match="over cap"):
        workloads._check_caps(op)


def test_charsum_sizes_match_the_program():
    for op in workloads.generate("charsum", 3):
        p, n, kappa = int(op.argv[2]), int(op.argv[4]), op.argv[8]
        side = max(1, int(p ** (0.25 + float(kappa))))
        assert side**n == op.cost["box_points"]


def test_tail_percentile_leaves_ten_samples_beyond():
    for samples in (33, 45, 60, 99):
        pct = run.tail_percentile(samples)
        assert samples - math.ceil(pct / 100 * samples) >= 10
        assert samples - math.ceil((pct + 0.1) / 100 * samples) < 10


def _outputs(ops):
    texts = []
    for op in ops:
        wall, cpu, code, out, err = run_op(normsum.cli.main, op.argv)
        assert code == 0 and not err, (op.argv, err)
        if op.save_as:
            path = ROOT / op.save_as
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(out)
        texts.append(out)
    return texts


def test_output_checks_pass_and_catch_a_corrupted_output():
    ops = [op for op in workloads.generate("charsum", 5) if op.argv[4] == "2"][:1]
    ops += [workloads.Op(("weil-check", "--p", "5", "--k", "2", "--r", "1"),
                         {"field_size": 25})]
    ops += workloads.generate("structure", 5)[:3]
    texts = _outputs(ops)
    assert workloads.check_outputs(ops, texts) == [None] * len(ops)
    bad = list(texts)
    bad[0] = bad[0].replace("charsum_zero_terms,", "charsum_zero_terms,1")
    assert workloads.check_outputs(ops, bad)[0] is not None


def test_tracer_keeps_stdout_and_restores_every_attribute():
    op = ("charsum", "--p", "13", "--n", "2", "--k", "3", "--kappa", "0.5", "--seed", "4")
    plain = run_op(normsum.cli.main, op)
    tracer = Tracer(normsum)
    targets = [(owner, attr, raw) for owner, attr, raw, _ in tracer._targets()]
    tracer.install()
    try:
        traced = run_op(lambda a: normsum.cli.main(a), op)
    finally:
        assert tracer.uninstall() == []
    assert traced[2:] == plain[2:]
    assert all(vars(owner)[attr] is raw for owner, attr, raw in targets)
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["charsum.charsum_lifted"].calls == 1
    assert tracer.counters["charsum.box_points"] == 2 * workloads.box_side(13, "0.5") ** 2
    for m in SPEC["per_layer"]:
        if not m["name"].startswith("trace."):
            tracer.metric(m["name"])
    assert tracer.module_self_s()["field_core"] > 0


def test_wrapper_cost_is_taken_off_the_callers_self_time():
    cost = wrapper_cost(calls=2000, repeats=3)
    assert 0 < cost < 1e-4
    tracer = Tracer(normsum, cost)
    tracer.stats = {"field_core.norm": _stat(calls=1, self_s=1.0, children=1000)}
    assert tracer.module_self_s()["field_core"] == pytest.approx(1.0 - 1000 * cost)


def _stat(**fields):
    st = _Stat()
    for key, value in fields.items():
        setattr(st, key, value)
    return st


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = _bench("--workload", "energy", "--seed", "1",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "charsum", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
