"""Run workloads over several seeds, one run at a time, and summarise them.

    python3 bench/sweep.py --seeds 1000-1009                      # every workload
    python3 bench/sweep.py --workloads paper --seeds 1,2 --trace 1
    python3 bench/sweep.py --seeds 1000-1009 --out bench/baseline.json

For each workload and metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), the spread BENCHMARK.json's bounds
are judged against.  ``--out`` writes every run's result and the summary
under ``trace0`` or ``trace1``, keeping the other key of an existing file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = None
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
        out[name] = {"median": median, "spread": spread,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in DECLARED["workloads"]))
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = DECLARED["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(DECLARED["run_seconds"]),
                                         "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            env = json.loads(proc.stdout.splitlines()[0].removeprefix("env: "))
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if args.trace == 0), flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, spread {spread}")
        record[workload] = {"runs": runs, "summary": summary}
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["env"] = env
        doc[f"trace{args.trace}"] = {"seconds": DECLARED["run_seconds"], "workloads": record}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
