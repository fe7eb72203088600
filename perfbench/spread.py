"""Run the benchmark over several seeds and report, per workload and
metric, the median, the quartiles and the spread (quartile distance over
median), checked against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-5 --workload planted-rejects
    python3 perfbench/spread.py --seeds 1 --trace 1

Runs are made one after another, each in a fresh process.  The summary
is printed as JSON on the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from run import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    summary = {}
    for workload in workloads:
        runs, walls = [], []
        for seed in seeds_of(args.seeds):
            start = perf_counter()
            try:
                result, _lines, stderr = run_child(workload, seed,
                                                   contract["run_seconds"], args.trace)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            walls.append(perf_counter() - start)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed "
                      f"operations\n{stderr}", file=sys.stderr)
            runs.append(result)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            metrics[name] = stats
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = "ok" if stats["spread"] <= bound / 3 else (
                    "WIDE" if stats["spread"] <= bound else "OVER BOUND")
            print(f"{workload:16s} {name:44s} median {stats['median']:12.6g} "
                  f"{entry['unit']:9s} spread {stats['spread']:6.3f} {flag}")
        summary[workload] = {
            "seeds": seeds_of(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "wall_s": [round(w, 1) for w in walls],
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
