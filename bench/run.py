"""normsum benchmark runner.

    python3 bench/run.py --workload charsum|complete|energy|structure|all
                         --seed N --seconds S --trace 0|1

Each workload runs in fresh Python processes (bench/worker.py), one after
another, never two at a time.  One worker process runs one pass: the op
list generated from the workload seed, each op one in-process
``normsum.cli.main(argv)`` call that starts only when the previous one has
returned (a closed loop with one client).  Every pass runs the same op
list.  The number of passes follows from ``--seconds`` and the nominal
pass time (``PASS_SECONDS``), never from how fast the code runs,
so every commit is measured over the same number of passes.  Set-up
(interpreter start, ``import normsum``, op-list generation) is timed in
every pass process, from process start to the worker's ``ready`` line.
Every time is scaled to the machine's speed at the moment it was taken,
measured with the calibration kernel (calibrate.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs one untraced reference pass and then ``TRACE_PASSES`` traced
passes of the same op list, and prints the per-layer metrics.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; every run also writes its full record to
bench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import calibrate  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
PINS = ROOT / "bench" / "pinned.json"
WORKLOADS = ("charsum", "complete", "energy", "structure")
# Wall seconds of one untraced pass of any workload, about as measured on
# a 2-vCPU Intel Xeon at 2.1 GHz.  A run makes round(--seconds /
# PASS_SECONDS) passes, at least MIN_PASSES.  It is a constant, so a
# faster commit gets no extra passes.
PASS_SECONDS = 4.0
MIN_PASSES = 5
TRACE_PASSES = 2
RUN_BUDGET_S = 170.0
# Self-time share a workload's target layers must reach in the traced run.
LAYER_EXPECTATIONS = {
    "charsum": (("field_core", "char_core"), 0.5),
    "complete": (("field_core", "char_core"), 0.5),
    "energy": (("energy",), 0.5),
    "structure": (("lattice", "linalg"), 0.15),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to bench/")
    if not (ROOT / "src" / "normsum" / "__init__.py").is_file():
        raise BenchError("src/normsum not found: run from a checkout of the repository")
    return json.loads(path.read_text())


def spawn(workload: str, seed: int, mode: str, deadline: float):
    """Run one worker; returns (set-up seconds, parsed result or None).
    Mode ``pool`` runs every op of the workload's pool instead of a pass."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker passed the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{workload} {mode} worker failed ({proc.returncode}): "
                         f"{err.strip()[-2000:]}")
    return setup_s, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)


def pass_count(seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS))


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return math.floor(1000 * (1 - 10 / samples)) / 10


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_revision": git_revision(),
    }


def load_pins(workload) -> dict:
    if not PINS.is_file():
        raise BenchError(f"{PINS.relative_to(ROOT)} not found")
    return json.loads(PINS.read_text()).get(workload, {})


def check_digests(workload, passes, problems) -> str:
    """Mark ops whose stdout differs from the first pass or from the digest
    pinned for their argv; returns the digest of the first pass's stdout."""
    first = [op["digest"] for op in passes[0]["ops"]]
    pins = load_pins(workload)
    for n, result in enumerate(passes):
        for i, op in enumerate(result["ops"]):
            pin = pins.get(" ".join(op["argv"]))
            if op["problem"] is None and op["digest"] != first[i]:
                op["problem"] = "stdout differs from the first pass"
            elif op["problem"] is None and pin is None:
                op["problem"] = "no digest pinned for this op"
            elif op["problem"] is None and not op["digest"].startswith(pin):
                op["problem"] = "stdout differs from the pinned digest"
            if op["problem"] is not None:
                problems.append(f"pass {n} op {i} {' '.join(op['argv'])}: {op['problem']}")
    return hashlib.sha256("".join(first).encode()).hexdigest()


def run_passes(workload, seed, seconds, trace):
    """The passes of one run, and the set-up time of each.

    Every pass runs the same op list.  Traced, the first pass is an
    untraced reference and the rest are traced.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    spawn(workload, seed, "setup", deadline)  # warm-up: bytecode caches
    if trace:
        modes = ["run"] + ["trace"] * TRACE_PASSES
    else:
        modes = ["run"] * pass_count(seconds)
    setups, passes = [], []
    for mode in modes:
        setup_s, result = spawn(workload, seed, mode, deadline)
        # A set-up is scaled by the median kernel time of the pass it began.
        cal_s = statistics.median(op["cal_s"] for op in result["ops"])
        setups.append({"setup_s": setup_s, "cal_s": cal_s})
        passes.append(result)
    return passes, setups


def run_workload(spec, workload, seed, seconds, trace) -> dict:
    passes, setups = run_passes(workload, seed, seconds, trace)
    problems: list = []
    digest = check_digests(workload, passes, problems)
    ops = [op for result in passes for op in result["ops"]]
    failed = sum(op["problem"] is not None for op in ops)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "passes": len(passes),
        "ops_per_pass": len(passes[0]["ops"]),
        "ops": [{"argv": op["argv"], "digest": op["digest"],
                 "wall_ms": [1000 * r["ops"][i]["wall_s"] for r in passes],
                 "cpu_ms": [1000 * r["ops"][i]["cpu_s"] for r in passes],
                 "cal_ms": [1000 * r["ops"][i]["cal_s"] for r in passes],
                 "cal_cpu_ms": [1000 * r["ops"][i]["cal_cpu_s"] for r in passes]}
                for i, op in enumerate(passes[0]["ops"])],
        "run_digest": digest, "attempted": len(ops), "failed": failed,
        "problems": problems,
    }
    if trace:
        record.update(layer_metrics(spec, workload, passes[0], passes[1:], problems))
    else:
        record.update(end_to_end_metrics(spec, passes, setups, failed))
    record["correct"] = not problems
    return record


def time_metrics(passes, setups, scale) -> dict:
    """The time metrics, with ``scale(sample, "wall" | "cpu")`` applied to
    every op timing and set-up sample.

    Every pass repeats the same ops; the metrics pool the timings of every
    op in every pass, so each is one latency sample of the closed loop.
    """
    samples = [op for r in passes for op in r["ops"]]
    walls = [scale(op, "wall") for op in samples]
    pct = tail_percentile(len(walls))
    return {
        "setup_s": statistics.median(scale(s, "setup") for s in setups),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_tail_ms": 1000 * nearest_rank(walls, pct),
        "op_cpu_ms": 1000 * statistics.fmean(scale(op, "cpu") for op in samples),
    }


def scaled(sample, kind) -> float:
    """A timing scaled to the reference speed of the calibration kernel,
    which ran right around it."""
    if kind == "cpu":
        return sample["cpu_s"] * calibrate.REFERENCE_S / sample["cal_cpu_s"]
    return sample[f"{kind}_s"] * calibrate.REFERENCE_S / sample["cal_s"]


def raw(sample, kind) -> float:
    return sample[f"{kind}_s"]


def end_to_end_metrics(spec, passes, setups, failed) -> dict:
    """The end-to-end metrics, from times scaled to the machine's speed;
    the unscaled figures are recorded too, as ``raw_metrics``."""
    values = time_metrics(passes, setups, scaled)
    values["peak_rss_mib"] = statistics.median(r["peak_rss_kib"] for r in passes) / 1024
    samples = len(passes) * len(passes[0]["ops"])
    pct = tail_percentile(samples)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = sum(len(r["ops"]) for r in passes)
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "raw_metrics": time_metrics(passes, setups, raw),
        "fail_ratio": failed / attempted,
        "tail": {"percentile": pct, "samples": samples,
                 "beyond": samples - math.ceil(pct / 100 * samples)},
        "setup_samples": setups,
    }


def layer_metrics(spec, workload, reference, traced, problems) -> dict:
    # check_digests has compared every traced pass's stdout with the
    # untraced reference pass; here the wrappers must all be gone again.
    for result in traced:
        if result["trace"]["not_restored"]:
            problems.append(f"wrappers left installed: {result['trace']['not_restored']}")
    ref_wall = sum(op["wall_s"] for op in reference["ops"])
    values = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_ratio":
            values[m["name"]] = statistics.median(
                r["trace"]["wall_s"] for r in traced) / ref_wall
        else:
            values[m["name"]] = statistics.median(
                r["trace"]["metrics"][m["name"]] for r in traced)
    self_s = {mod: statistics.median(r["trace"]["module_self_s"][mod] for r in traced)
              for mod in traced[0]["trace"]["module_self_s"]}
    total = sum(self_s.values()) or 1.0
    layers, floor = LAYER_EXPECTATIONS[workload]
    share = sum(self_s[mod] for mod in layers) / total
    return {
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]},
        "module_self_share": {mod: s / total for mod, s in self_s.items()},
        "layer_check": {"layers": layers, "share": share, "expected_at_least": floor,
                        "holds": share >= floor},
        "wrapper_cost_us": statistics.median(
            1e6 * r["trace"]["wrapper_cost_s"] for r in traced),
        "spans_files": [r["trace"]["spans_file"] for r in traced],
    }


def print_record(rec):
    w = rec["workload"]
    print(f"# {w}: seed {rec['seed']}, {rec['passes']} passes of {rec['ops_per_pass']} ops, "
          f"run digest {rec['run_digest']}")
    for name, m in rec["metrics"].items():
        print(f"{w:10s} {name:45s} {m['value']:.6g} {m['unit']}")
    if "fail_ratio" in rec:
        print(f"{w:10s} {'fail_ratio':45s} {rec['fail_ratio']:.6g} ratio")
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in rec["raw_metrics"].items())
        print(f"# {w}: unscaled: {unscaled}")
        t = rec["tail"]
        print(f"# {w}: op_tail_ms is p{t['percentile']} of {t['samples']} samples, "
              f"{t['beyond']} beyond it")
    if "layer_check" in rec:
        shares = ", ".join(f"{k} {v:.2f}" for k, v in
                           sorted(rec["module_self_share"].items(), key=lambda kv: -kv[1]))
        c = rec["layer_check"]
        print(f"# {w}: self time net of {rec['wrapper_cost_us']:.2f} us per wrapped call; "
              f"share by module: {shares}")
        print(f"# {w}: {'+'.join(c['layers'])} carry {c['share']:.2f} of self time "
              f"(expected >= {c['expected_at_least']}): {'yes' if c['holds'] else 'NO'}")
    for p in rec["problems"][:20]:
        print(f"# {w}: FAILED {p}")


def save_record(rec):
    d = OUT_DIR / "results"
    d.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}-{stamp}-{os.getpid()}.json"
    (d / name).write_text(json.dumps(rec, indent=1) + "\n")


def write_pins(names):
    """Record the stdout digest of every op in each workload's pool, 64
    bits per op, keyed by the op's argv."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for w in names:
        _, result = spawn(w, 0, "pool", time.monotonic() + RUN_BUDGET_S)
        bad = [op for op in result["ops"] if op["problem"]]
        if bad:
            raise BenchError(f"{w}: cannot pin failing ops: {bad[0]}")
        pins[w] = {" ".join(op["argv"]): op["digest"][:16] for op in result["ops"]}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="rewrite the pinned digests of every workload's pool and exit")
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.write_pins:
            write_pins(names)
            return 0
        records = []
        for w in names:
            rec = run_workload(spec, w, args.seed, args.seconds, bool(args.trace))
            save_record(rec)
            print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
