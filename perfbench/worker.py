"""One measured benchmark process; run.py starts it, see run.py for usage.

Imports dagx from the checkout's ``src``, builds the workload's inputs
from the seed, then runs passes of the workload's fixed work until the
next pass would overrun ``--seconds``. With ``--trace 1`` untraced and
traced passes alternate, so the tracing overhead is measured in the same
process. Outputs are checked after timing; one JSON object goes to stdout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

from tracer import TRACED, Tracer
from workloads import DEADLINE, WHY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

HARNESS_LABELS = (
    "turan",
    "theorem-extremely",
    "theorem-strongly",
    "theorem-reduced",
    "clique",
    "implications",
    "equiv-transitive",
    "closure",
    "separations",
    "boxes",
)
CLASS_PREDICATES = ("is_extremely_reduced", "is_strongly_reduced", "is_reduced")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
    }


def run_pass(workload, index: int, tracer) -> dict:
    samples = []
    for label, thunk in workload.calls(index):
        if tracer:
            tracer.start()
        t0 = perf_counter()
        outcome = thunk()
        dt = perf_counter() - t0
        if tracer:
            tracer.finish(label, outcome is not DEADLINE)
        samples.append((label, dt, outcome))
    return {
        # Time to the verdicts reached; a call cut off by the deadline has none.
        "wall": sum(dt for _, dt, outcome in samples if outcome is not DEADLINE),
        "pass_s": sum(dt for _, dt, _ in samples),
        "checked": sum(workload.done(label, outcome) for label, _, outcome in samples),
        "samples": samples,
    }


def layer_metrics(tracer, record: dict) -> dict:
    total = tracer.total
    samples = record["samples"]
    metrics = {
        "harness.self_s": sum((total.self_s[f"harness.{fn}"] for fn in TRACED["harness"]), 0.0),
    }
    for label in HARNESS_LABELS:
        metrics[f"harness.{label}.wall_s"] = sum((dt for lab, dt, _ in samples if lab == label), 0.0)
    metrics["harness.graphs_scanned"] = sum(o.checked for lab, _, o in samples if lab in HARNESS_LABELS)
    theorem = [lab for lab in HARNESS_LABELS if lab.startswith("theorem-")]
    theorem_graphs = sum(o.checked for lab, _, o in samples if lab in theorem)
    theorem_calls = sum(tracer.by_root[lab, f"predicates.{fn}"] for lab in theorem for fn in CLASS_PREDICATES)
    metrics["harness.theorem.predicate_calls_per_graph"] = theorem_calls / theorem_graphs if theorem_graphs else 0.0
    for layer, fns in TRACED.items():
        if layer == "harness":
            continue
        for fn in fns:
            metrics[f"{layer}.{fn}.calls"] = total.calls[f"{layer}.{fn}"]
            metrics[f"{layer}.{fn}.self_s"] = total.self_s[f"{layer}.{fn}"]
    metrics["predicates.path_masks"] = total.items["predicates.path_masks"]
    metrics["graph.all_topological_orders.orders"] = total.items["graph.all_topological_orders.orders"]
    families = total.items["boxes.families_returned"]
    draws = total.child_calls["boxes.random_transverse_family", "boxes.is_transverse_family"]
    metrics["boxes.draws_per_family"] = draws / families if families else 0.0
    metrics["cli.main.deadline_misses"] = total.items["cli.main.deadline_misses"]
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_per_graph") or name.endswith("_per_family") else "count"


def measure(workload, seconds: float, tracer) -> dict:
    untraced: list[dict] = []
    traced: list[dict] = []
    start = perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                record = run_pass(workload, index, tracer)
            finally:
                tracer.uninstall()
            record["layers"] = layer_metrics(tracer, record)
            traced.append(record)
        else:
            record = run_pass(workload, index, None)
            untraced.append(record)
            if len(untraced) == 1:
                # Later passes reuse a heap already grown and fragmented by the
                # earlier ones, so the whole-run peak drifts with the pass count.
                first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
        if tracer is not None and not traced:
            continue
        upcoming = traced if tracer is not None and index % 2 == 1 else untraced
        expected = statistics.median(r["pass_s"] for r in upcoming)
        if perf_counter() - start + expected > seconds:
            break
    return {"untraced": untraced, "traced": traced, "peak_rss_mb": first_pass_rss_mb}


def summarize(workload, runs: dict, check_problems: list[str]) -> dict:
    untraced, traced = runs["untraced"], runs["traced"]
    every = [s for r in untraced + traced for s in r["samples"]]
    failures = []
    allowed_misses = 0
    for label, _, outcome in every:
        try:
            found = workload.problems(label, outcome)
        except (ValueError, IndexError, KeyError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            failures.append({"call": label, "problems": [p[:300] for p in found[:3]]})
        elif outcome is DEADLINE:
            allowed_misses += 1
    misses = sum(1 for _, _, outcome in every if outcome is DEADLINE)

    walls = [r["wall"] for r in untraced]
    end_to_end = {"wall_s": (statistics.median(walls), "s"), "peak_rss_mb": (runs["peak_rss_mb"], "MB")}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    end_to_end["checked_per_s"] = (statistics.median(r["checked"] / r["wall"] for r in untraced), "1/s")
    end_to_end["failed_frac"] = ((len(failures) + allowed_misses) / len(every), "ratio")
    detail = {
        "workload": workload.name,
        "why": WHY[workload.name],
        "seed": workload.seed,
        "machine": machine(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": walls,
        "pass_s_with_deadline_misses": [r["pass_s"] for r in untraced],
        "checked_per_pass": untraced[0]["checked"],
        "attempted": len(every),
        "wrong_outputs": len(failures),
        "deadline_misses": misses,
        "allowed_deadline_misses": allowed_misses,
        "deadline_s": workload.deadline_s,
        "wait": "none: workers=1, one process, no queue",
        "failures": failures[:10],
        "check_problems": check_problems,
    }
    if workload.deadline_s is not None:
        # Per-call latency, for the workload whose calls are user requests; a
        # deadline miss ranks above every finished call.
        latencies = sorted(
            math.inf if o is DEADLINE else dt * 1000 for r in untraced for _, dt, o in r["samples"]
        )
        p50, p90 = (min(percentile(latencies, q), workload.deadline_s * 1000) for q in (0.5, 0.9))
        end_to_end["call_ms.p50"] = (p50, "ms")
        end_to_end["call_ms.p90"] = (p90, "ms")
        detail["call_ms_samples"] = len(latencies)
        detail["call_ms_beyond_p90"] = sum(1 for x in latencies if x > p90)
    detail["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    if traced:
        layers = [r["layers"] for r in traced]
        per_layer = {}
        for name in layers[0]:
            if name.endswith("_s"):
                per_layer[name] = statistics.median(lay[name] for lay in layers)
            else:
                per_layer[name] = layers[0][name]
        # Each traced pass follows an untraced one; pairing them keeps host drift
        # between distant passes out of the difference.
        overhead = statistics.median(t["wall"] - u["wall"] for u, t in zip(untraced, traced))
        per_layer["tracing.overhead_s"] = overhead
        # The host's drift between untraced passes bounds what the difference can
        # resolve; one untraced pass gives no such bound.
        drift = max(walls) - min(walls) if len(walls) > 1 else None
        detail["tracing_overhead_resolved"] = drift is not None and abs(overhead) > drift
        detail["traced_pass_wall_s"] = [r["wall"] for r in traced]
        detail["counts_repeat"] = all(
            lay[name] == layers[0][name] for lay in layers for name in lay if not name.endswith("_s")
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}
        detail["per_layer"] = metrics
    return {
        "correct": not failures and not check_problems,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": metrics,
        "detail": detail,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import dagx
    import dagx.cli

    if not os.path.abspath(dagx.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dagx from {dagx.__file__}, not from {SRC}")
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](dagx, args.seed, workdir)
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runs = measure(workload, args.seconds, Tracer() if args.trace else None)
        check_problems = workload.prepare_checks()
        if args.negative_control:
            workload.tamper()
        result = summarize(workload, runs, check_problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
