"""Run one workload of the repro benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-6h --seed 0 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (spans recorded from outside the program, see ``layers.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
with each metric's unit, sample count and tail percentile, plus the host.

Exit codes: 0 when every correctness check passed, 1 when a digest,
counter or served-result check failed (the result line is still printed),
2 when the program is missing or the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=36.0,
        help="measuring window of a simulation workload, which fixes its repetition count; "
        "serve-live's trials have fixed lengths",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so every child process is ended and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import report, serve_live, sims, workloads

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return report.fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.workload not in workloads.WORKLOADS:
        return report.fail(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    if args.seconds <= 0:
        return report.fail("--seconds must be positive")
    result = report.Result(args.workload, args.seed, bool(args.trace))
    result.note(f"why: {workloads.WORKLOADS[args.workload].why}")
    if args.workload == workloads.SERVE_LIVE.name:
        serve_live.run(args.seed, bool(args.trace), result)
    else:
        sims.run(
            workloads.SIM_WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), result,
        )
    result.print()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
