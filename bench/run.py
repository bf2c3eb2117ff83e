"""Run one workload of the nhlab benchmark from the root of a checkout.

    python3 bench/run.py --workload skin_sweep --seed 1 --seconds 15 --trace 0

Workloads: paper, skin_sweep, threshold_sweep, generic_dense (see
bench/README.md).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines above it repeat every metric
with its unit, the environment, and each failed operation.

nhlab is imported from ``src/`` of the checkout; BLAS is pinned to one thread
before numpy is imported.
"""

import os
import sys
import time
from pathlib import Path

SETUP_START = time.perf_counter()
BLAS_THREADS = 1    # extra BLAS threads only spin on a small shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

import argparse  # noqa: E402
import json  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper, skin_sweep, threshold_sweep or generic_dense")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then print the seconds taken "
                             "(scaled to the reference speed)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import nhlab
        import harness
        import workloads
    except ImportError as exc:
        print(f"error: cannot import nhlab from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    if not Path(nhlab.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"error: nhlab was imported from {nhlab.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workloads.WORKLOADS[args.workload].setup(args.seed, False)
    setup_s = ((time.perf_counter() - SETUP_START)
               * workloads.REFERENCE_PROBE_S / workloads.speed_probe())
    if args.setup_probe:
        print(f"{setup_s:.9f}")
        return 0
    samples = harness.setup_samples(args.workload, args.seed, setup_s)
    result, lines = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                samples, inputs, harness.environment(BLAS_THREADS))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
