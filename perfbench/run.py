"""rotrepr benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one closed-loop, single-process workload (or, with `all`, each
workload in turn) on the rotrepr sources under ./src of the checkout
that holds this file, checks every output, and prints human-readable
'#' lines followed by one JSON result line.
With --trace 0 the result holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run plus the tracing
overhead. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from common import SRC, emit, fingerprint, pin_blas_threads, pin_cpu

WORKLOADS = ("paper-table", "pose-stream", "register", "cli-cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        failed = 0
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False)
            failed = failed or child.returncode
        return failed
    if not (SRC / "rotrepr" / "__init__.py").is_file():
        print(f"error: no rotrepr sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    cpu = pin_cpu()
    sys.path.insert(0, str(SRC))
    import rotrepr
    import rotrepr.cli  # noqa: F401  (loads every module the tracer rebinds)
    if SRC not in Path(rotrepr.__file__).resolve().parents:
        print(f"error: imported rotrepr from {rotrepr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "paper-table":
        import paper_table as workload
    elif args.workload == "pose-stream":
        import pose_stream as workload
    elif args.workload == "register":
        import register as workload
    else:
        import cli_cold as workload
    outcome, metrics, info = workload.run(args.seed, args.seconds, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed,
            "fingerprint": fingerprint(blas_threads, cpu, bool(args.trace)), **info}
    emit(outcome, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
