"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload W --seed S --mode setup|run|trace|pool

The worker imports normsum from the checkout's ``src``, generates the op
list, and prints ``ready``; that line ends the set-up that run.py times.
In ``setup`` mode it then exits.  Otherwise it runs every op once, in
order, as an in-process ``normsum.cli.main(argv)`` call (a closed loop
with one client), and prints one JSON line with each op's wall and CPU
time, the mean wall and CPU time of the calibration kernel runs right
before and right after the op (see calibrate.py), and the op's exit code,
stdout digest and any problem.  ``trace`` mode does the
same with the layer tracer installed, and removes it before the output
checks run.  ``pool`` mode runs every op any seed can draw, for pinning
their digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bench import calibrate  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"


def _import_package():
    import normsum

    where = Path(normsum.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"normsum imported from {where}, not from {ROOT / 'src'}")
    import normsum.cli  # noqa: F401  (loads every module of the package)

    return normsum


def run_op(cli_main, argv):
    """(wall s, cpu s, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli_main(list(argv))
        except Exception:  # a traceback is a failed op, not a crashed pass
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return wall, cpu, code, out.getvalue(), err.getvalue()


def run_pass(package, ops, tracer=None):
    outputs, records = [], []
    before = calibrate.measure()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        # package.cli.main is looked up per op, so an installed wrapper is used
        wall, cpu, code, out, err = run_op(lambda a: package.cli.main(a), op.argv)
        after = calibrate.measure()
        cal_s, cal_cpu_s = ((b + a) / 2 for b, a in zip(before, after))
        before = after
        if op.save_as:
            with open(ROOT / op.save_as, "w") as fh:
                fh.write(out)
        problem = None
        if code != 0:
            problem = f"exit code {code}: {err.strip()[-300:]}"
        elif err:
            problem = f"stderr: {err.strip()[:300]}"
        outputs.append(out)
        records.append({
            "argv": list(op.argv), "wall_s": wall, "cpu_s": cpu,
            "cal_s": cal_s, "cal_cpu_s": cal_cpu_s, "code": code,
            "digest": hashlib.sha256(out.encode()).hexdigest(), "problem": problem,
        })
    return outputs, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "pool"), required=True)
    args = ap.parse_args(argv)

    package = _import_package()
    from bench import workloads

    if args.mode == "pool":
        ops = workloads.pool(args.workload)
    else:
        ops = workloads.generate(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    (ROOT / workloads.WORK_DIR).mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "trace":
        from bench.trace import Tracer, wrapper_cost

        tracer = Tracer(package, wrapper_cost())
        tracer.install()
    try:
        outputs, records = run_pass(package, ops, tracer)
    finally:
        not_restored = tracer.uninstall() if tracer else []

    for rec, problem in zip(records, workloads.check_outputs(ops, outputs)):
        if rec["problem"] is None and problem is not None:
            rec["problem"] = f"output check: {problem}"
    result = {
        "ops": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, records, not_restored, args)
    print(json.dumps(result), flush=True)
    return 0


def trace_summary(tracer, records, not_restored, args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wall = sum(r["wall_s"] for r in records)
    metrics = {m["name"]: tracer.metric(m["name"])
               for m in bench["per_layer"] if not m["name"].startswith("trace.")}
    metrics["trace.unattributed_s"] = wall - tracer.root_s
    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}.jsonl"
    tracer.write_jsonl(path)
    return {
        "metrics": metrics,
        "module_self_s": tracer.module_self_s(),
        "not_restored": not_restored,
        "wrapper_cost_s": tracer.wrapper_cost_s,
        "spans_file": str(path.relative_to(ROOT)),
        "wall_s": wall,
    }


if __name__ == "__main__":
    sys.exit(main())
