"""Run every workload over several seeds and summarize, or save a baseline.

    python3 perfbench/collect.py [--runs 10] [--seed0 1] [--out FILE]

Runs ``run.py`` once per (seed, workload) for every workload in
BENCHMARK.json at its ``run_seconds``, alternating workloads so that a
drift in host speed lands on all of them alike, and prints each end-to-end
metric's median, quartiles and spread (interquartile range over median)
next to its bound in BENCHMARK.json. Then runs two traced runs per
workload at ``--seed0`` and checks that every count matches between
them. With ``--runs 1`` it is the one command that prints every metric of
every workload at one seed. ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    result["detail"] = json.loads("\n".join(lines[:-1]))
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.seed0, args.seed0 + args.runs):
        for w in workloads:
            result = run(w, seed, seconds, 0)
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed={seed} correct={result['correct']} failed={result['failed']} {values}", flush=True)

    summary: dict = {"machine": runs[workloads[0]][0]["detail"]["machine"], "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        # Every end-to-end figure of the full report; only those in BENCHMARK.json have a bound.
        for name, first in runs[w][0]["detail"]["end_to_end"].items():
            values = [r["detail"]["end_to_end"][name]["value"] for r in runs[w]]
            rows[name] = {"unit": first["unit"], "values": values, **spread(values)}
            bound = bounds.get(name, {}).get("bound")
            rows[name]["bound"] = bound
            flag = ""
            if bound is not None and rows[name]["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(
                f"{w:18} {name:14} median {rows[name]['median']:<12.5g} {rows[name]['unit']:5} "
                f"spread {rows[name]['spread']:.3f} bound {bound}{flag}"
            )
        detail = runs[w][0]["detail"]
        entry = {
            "why": detail["why"],
            "seeds": list(range(args.seed0, args.seed0 + args.runs)),
            "all_correct": all(r["correct"] for r in runs[w]),
            "attempted": [r["attempted"] for r in runs[w]],
            "failed": [r["failed"] for r in runs[w]],
            "deadline_misses": [r["detail"]["deadline_misses"] for r in runs[w]],
            "call_ms_samples": [r["detail"].get("call_ms_samples") for r in runs[w]],
            "call_ms_beyond_p90": [r["detail"].get("call_ms_beyond_p90") for r in runs[w]],
            "end_to_end": rows,
        }
        ok &= entry["all_correct"]
        traced = [run(w, args.seed0, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "s"} for t in traced]
        entry["traced"] = {
            "seed": args.seed0,
            "counts_match": counts[0] == counts[1],
            "per_layer": [t["metrics"] for t in traced],
        }
        ok &= counts[0] == counts[1] and all(t["correct"] for t in traced)
        print(f"{w:18} traced counts match between two runs: {counts[0] == counts[1]}")
        summary["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
