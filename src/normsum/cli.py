"""Command-line entry point wrapping the experiment drivers.

Exit codes: 0 on success, 1 when a checked identity or bound fails, 2 on
a usage error (bad flags, infeasible sizes, missing inputs, output that
cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness as hn
from . import linalg as la


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first call: parse_args
    leaves a parser as it was, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="normsum",
        description="Norm-form character sums: generators, scans, and checks.",
    )
    parser.add_argument("command", choices=hn.COMMANDS)
    parser.add_argument("--p", type=int, help="single prime modulus")
    parser.add_argument("--p-range", help="inclusive prime range, written a..b")
    parser.add_argument("--n", type=int, default=1, help="number of variables")
    parser.add_argument("--k", type=int, default=1, help="form degree")
    parser.add_argument("--r", type=int, default=2, help="moment exponent")
    parser.add_argument("--eps", type=float, default=0.0)
    parser.add_argument("--kappa", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed")
    parser.add_argument("--form", help="stored form, JSON")
    parser.add_argument("--decomp", help="stored decomposition, JSON")
    parser.add_argument("--out", help="output path; stdout when absent")
    parser.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv"
    )
    return parser


def _parse_range(ns) -> tuple:
    if ns.p is not None and ns.p_range is not None:
        raise hn.UsageError("give --p or --p-range, not both")
    if ns.p is not None:
        return ns.p, ns.p
    if ns.p_range is not None:
        lo, sep, hi = ns.p_range.partition("..")
        if not sep or not lo.strip() or not hi.strip():
            raise hn.UsageError(f"range must be written a..b, got {ns.p_range!r}")
        try:
            return int(lo), int(hi)
        except ValueError:
            raise hn.UsageError(f"range bounds must be integers, got {ns.p_range!r}")
    return hn.COMMANDS[ns.command].p_range


def _dispatch(config: hn.ExperimentConfig, ns):
    command = hn.COMMANDS[config.command]
    run = getattr(hn, command.run)
    out = run(config, *(getattr(ns, name) for name in command.inputs))
    if command.columns is None:
        return hn.render_object(out), 0
    rows, notes = out
    for note in notes:
        print(f"{'fail' if command.fails else 'skip'}: {note}", file=sys.stderr)
    code = 1 if command.fails and notes else 0
    return hn.render(command.columns, rows, config.fmt), code


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        if hn.COMMANDS[ns.command].seeded and ns.seed is None:
            raise hn.UsageError(f"{ns.command} is seeded; --seed is required")
        p_lo, p_hi = _parse_range(ns)
        config = hn.ExperimentConfig(
            command=ns.command,
            p_lo=p_lo,
            p_hi=p_hi,
            n=ns.n,
            k=ns.k,
            r=ns.r,
            eps=ns.eps,
            kappa=ns.kappa,
            seed=ns.seed if ns.seed is not None else 0,
            out=ns.out,
            fmt=ns.fmt,
        )
        text, code = _dispatch(config, ns)
        if config.out:
            with open(config.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except la.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
