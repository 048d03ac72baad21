"""Run the benchmark several times per workload and summarise the spread.

    python3 bench/repeat.py --runs 10 --label seed-code
    python3 bench/repeat.py --runs 5 --workloads oracle-big --seconds 30

Each run uses another seed (1..runs) and a fresh interpreter.  For every
end-to-end metric the summary gives the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread, (Q3 - Q1) / median.
With --label the summary is also written to bench/results/<label>.json, so
results measured at different commits can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
OUT = HERE / "out"


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  check=True)
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            metrics[m["name"]] = summarise(values) | {"unit": m["unit"]}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for m in spec["end_to_end"]:
            s = metrics[m["name"]]
            print(f"{workload} {m['name']}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f} (bound {m['bound']})", flush=True)
    # Each run records the machine and environment; keep the last one's.
    last = OUT / f"{args.workloads[-1]}-seed{args.runs}-trace0.json"
    summary["environment"] = json.loads(last.read_text())["environment"]
    if args.label:
        out = HERE / "results" / f"{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
