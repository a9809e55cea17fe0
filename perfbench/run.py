"""dagx benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-levels, sweep-predicates, analyze-instances (see
perfbench/README.md). Prints the full report as indented JSON, then one
line of JSON with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Exits 1 when an output check fails, 2 when the checkout has
no dagx sources under ``src/``.

Set-up time is the median over several processes, each timed from spawn
to the moment its inputs are ready: eight that stop there, and the one
that then measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep-levels", "sweep-predicates", "analyze-instances")
SETUP_PROBES = 8
RUN_LIMIT_S = 170


def child(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker did not finish within {timeout:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="make one pinned count or verdict wrong; the run must then report failures and exit 1",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dagx", "__init__.py")):
        print(f"perfbench: no dagx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    stop_at = time.monotonic() + RUN_LIMIT_S
    setups = [child(args, ["--setup-only"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.negative_control:
        extra.append("--negative-control")
    result = child(args, extra, stop_at - time.monotonic())
    setups.append(result["setup_s"])
    detail = result["detail"]
    detail["seconds"] = args.seconds
    detail["trace"] = args.trace
    detail["setup_s_samples"] = setups
    setup = {"value": statistics.median(setups), "unit": "s"}
    detail["end_to_end"]["setup_s"] = setup
    if not args.trace:
        result["metrics"]["setup_s"] = setup
    print(json.dumps(detail, indent=1))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
