"""Exhaustive and randomized verification of the package's claims.

Every claim about the graph classes is re-checked at desk scale: bound
claims by scanning the full forward-labeled enumeration (every subset of
{(i, j) : i < j}), existence claims by searching that enumeration for
witnesses, and the box claims over seeded random families. Fast
predicates are cross-checked bit-for-bit against the literal brute-force
oracles. The theorem, equiv-transitive, closure and separations sweeps
read their class verdicts off the whole-block reach kernel of
:mod:`dagx.kernels`, whose tests check it against the scalar predicates
on every DAG with n <= 6. The box trials draw each random family as
integer rows and decide a block of families with one reach-kernel call;
a family is built as Fractions only when a report lists it.

Scans partition the enumeration index range across a worker pool; shards
share nothing and merge associatively, so reports are identical for any
worker count. A report with an empty ``violations`` list means the claim
held everywhere in the stated range.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from itertools import combinations, islice, product
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .bounds import reduced_dag_edge_bound, turan_graph_edges
from .boxes import (
    _GRID,
    BoxFamily,
    _family_from_rows,
    _general_rows,
    _transverse_rows,
    directed_intersection_graph,
    extremal_box_family,
    format_box_csv,
    is_transverse_family,
)
from .errors import InvalidParamsError, LimitExceededError, UnknownClaimError
from .generators import (
    MAX_ENUM_VERTICES,
    ExtremalSpec,
    dag_count,
    dag_from_index,
    extremal_dag,
    extremal_for,
    random_dag,
    turan_dag,
)
from .graph import (
    DEFAULT_ORDER_CAP,
    Dag,
    format_edge_list,
    longest_path_length,
)
from .predicates import (
    DEFAULT_PATH_CAP,
    is_extremely_reduced,
    is_reduced,
    is_reduced_bruteforce,
    is_strongly_reduced,
    is_strongly_reduced_bruteforce,
)
from .kernels import BoxGraphs, ReachVerdicts, _bit, _blocks, _box_graphs, _edge_rows, _levels_chunk, _reach_verdicts

DEFAULT_SEED = 271828

# Scan ceilings: the enumeration sweeps stop at MAX_ENUM_VERTICES; the
# implication sweep runs the brute-force oracles on a Dag per mask and
# stops at n = 6.
MAX_PREDICATE_VERTICES = 6
# The random half of the implication sweep draws DAGs on 2..8 vertices.
_RANDOM_MAX_N = 8
# The clique-free maximum is proved by a hitting-set search, not an
# enumeration; on one core of a 2-core x86 box n <= 8 takes about 0.03 s,
# n <= 9 about 0.5 s and n <= 10 about 18 s (peak RSS about 130 MB, most
# of it the search's memo at n = 10, k = 3).
MAX_CLIQUE_VERTICES = 10

_VIOLATION_SAMPLE = 20

# Known 5-vertex separating example: the chain 0->1->2->3->4 with chords
# 0->3 and 1->4. The span of (0, 4) sorted is the full chain (a path), so
# the graph is reduced; the two chord paths 0->1->4 and 0->3->4 union to
# (0, 1, 3, 4), which is not a path, so it is not strongly reduced.
CHORDED_CHAIN_EDGES = ((0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4))


@dataclass
class VerificationReport:
    """Outcome of one claim check over a stated range."""

    claim: str
    range: str
    checked: int
    violations: list[dict] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return asdict(self)


def _require_range(claim: str, max_n: int, ceiling: int) -> None:
    if max_n < 1:
        raise InvalidParamsError(f"{claim}: need max_n >= 1, got {max_n}")
    if max_n > ceiling:
        raise LimitExceededError(f"{claim}: max_n={max_n} exceeds the ceiling {ceiling}")


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise InvalidParamsError(f"need workers >= 1, got {workers}")


def _shard_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    k = max(1, min(workers, total))
    step = max(1, -(-total // k))
    return [(a, min(a + step, total)) for a in range(0, total, step)]


def _graph_entry(g: Dag | None, detail: str) -> dict:
    return {"graph": None if g is None else format_edge_list(g), "detail": detail}


def _mask_entries(n: int, start: int, hits: np.ndarray, details: Callable[[int], list[str]]) -> Iterator[dict]:
    """One entry per detail of each mask start + j, j in ``hits``; each graph is built once, when listed."""
    for j in hits.tolist():
        g = dag_from_index(n, start + j)
        for detail in details(j):
            yield _graph_entry(g, detail)


def _box_entry(family: BoxFamily, detail: str) -> dict:
    return {"boxes": format_box_csv(family), "detail": detail}


@dataclass
class _Sample:
    """The violations a report lists: per-graph entries sampled, summary entries kept.

    Every per-graph violation is counted, but only the first
    ``_VIOLATION_SAMPLE`` are listed; summary entries (``note``) take no
    slot. Shards keep their own samples and merge in shard order, so the
    listed entries and the count are the same for any worker count.
    """

    entries: list[dict] = field(default_factory=list)
    listed: int = 0
    count: int = 0

    def extend(self, count: int, entries: Iterable[dict]) -> None:
        """Count ``count`` violations; list their entries, drawn lazily, while room is left."""
        taken = list(islice(entries, _VIOLATION_SAMPLE - self.listed))
        self.entries += taken
        self.listed += len(taken)
        self.count += count

    def add(self, entry: dict) -> None:
        self.extend(1, (entry,))

    def note(self, entry: dict) -> None:
        self.entries.append(entry)

    def violations(self) -> list[dict]:
        unlisted = self.count - self.listed
        further = [_graph_entry(None, f"{unlisted} further violations not listed")] if unlisted else []
        return self.entries + further


class _Pool(ExitStack):
    """Worker processes, started on first use and shut down on exit."""

    def __init__(self) -> None:
        super().__init__()
        self._executor: ProcessPoolExecutor | None = None

    def map(self, processes: int, scan: Callable[..., dict], args: tuple, shards: list[tuple[int, int]]) -> list[dict]:
        if self._executor is None:
            self._executor = self.enter_context(ProcessPoolExecutor(max_workers=processes))
        futures = [self._executor.submit(scan, *args, a, b) for a, b in shards]
        return [f.result() for f in futures]


# The pool of the verify_claim call in progress in this thread: every sweep
# it runs shares it, so a run of several claims starts its workers once.
_claim_pool: ContextVar[_Pool | None] = ContextVar("_claim_pool", default=None)


class _Sweep(ExitStack):
    """One claim's sweep: sharding, one worker pool, merged counts and sample, the report.

    ``scan(*args, start, stop)`` checks the indices start..stop-1 and
    returns a dict with a ``sample`` of its violations and any
    claim-specific counts; ``run`` counts every index of its range as
    checked. A range is cut into ``workers`` shards whatever the machine,
    so merged reports are identical for every worker count; the shards
    run in one pool of at most one process per CPU, the sweep's own or,
    inside :func:`verify_claim`, the call's.
    """

    def __init__(self, workers: int):
        super().__init__()
        _require_workers(workers)
        self.workers = workers
        self.checked = 0
        self.sample = _Sample()
        self._pool = _claim_pool.get() or self.enter_context(_Pool())
        self._t0 = time.perf_counter()

    def run(self, scan: Callable[..., dict], total: int, *args) -> list[dict]:
        """Scan the index range 0..total-1 shard by shard; merge and return the parts."""
        shards = _shard_ranges(total, self.workers)
        processes = 1
        if len(shards) > 1:  # a pool could open: count the CPUs, by affinity where the OS has it
            affinity = getattr(os, "sched_getaffinity", None)
            processes = min(self.workers, len(affinity(0)) if affinity else os.cpu_count() or 1)
        if processes <= 1:
            parts = [scan(*args, a, b) for a, b in shards]
        else:
            parts = self._pool.map(processes, scan, args, shards)
        self.checked += total
        for part in parts:
            self.sample.extend(part["sample"].count, part["sample"].entries)
        return parts

    def over_n(self, scan: Callable[..., dict], max_n: int, *args) -> Iterator[tuple[int, list[dict]]]:
        """Scan the full enumeration of each n = 1..max_n in turn, as ``scan(n, *args, start, stop)``."""
        for n in range(1, max_n + 1):
            yield n, self.run(scan, dag_count(n), n, *args)

    def report(self, claim: str, range_: str, params: dict, witnesses: list[dict] | None = None) -> VerificationReport:
        return VerificationReport(
            claim=claim,
            range=range_,
            checked=self.checked,
            violations=self.sample.violations(),
            witnesses=witnesses or [],
            elapsed_ms=int((time.perf_counter() - self._t0) * 1000),
            params=params,
        )


def _max_edges(parts: list[dict]) -> list[int]:
    """Per-ell edge maximum over the shards of one n."""
    return [max(column) for column in zip(*(part["max_edges"] for part in parts))]


# ---------------------------------------------------------------------------
# Edge bounds: edges <= B(n, ell) over a class, with equality attained. Every
# DAG obeys the Turan bound t(n, ell + 1); the reduced classes obey
# t(n - ell + 1, 2) + the interval quantity.

_CLASS_PREDICATES = {
    "extremely": is_extremely_reduced,
    "strongly": is_strongly_reduced,
    "reduced": is_reduced,
}


def _scan_edge_bound(n: int, klass: str | None, start: int, stop: int) -> dict:
    """Per-ell edge maxima of the members of ``klass`` (every DAG when None) and the graphs above the bound."""
    if klass is None:
        bound = np.array([turan_graph_edges(n, lv + 1) for lv in range(n)], dtype=np.int8)
        detail = lambda e, lv: f"{e} edges with longest path {lv}, above t({n},{lv + 1}) = {bound[lv]}"
    else:
        bound = np.array([0] + [reduced_dag_edge_bound(n, lv) for lv in range(1, n)], dtype=np.int8)
        detail = lambda e, lv: f"class {klass!r}: {e} edges at ell={lv}, above bound {bound[lv]}"
    max_edges = np.full(n, -1, dtype=np.int8)
    sample = _Sample()
    for a, b in _blocks(start, stop):
        ell, edges = _levels_chunk(n, a, b)
        # Only a graph above the maximum so far or above the bound can
        # change the outcome; the maximum at the block start gates a
        # superset of those, and the reach kernel decides class
        # membership for the gated masks only.
        hits = np.flatnonzero(edges > np.minimum(max_edges, bound)[ell])
        if klass is not None and hits.size:
            succ, pred = _edge_rows(n, a, b)
            hits = hits[getattr(_reach_verdicts(succ[:, hits], pred[:, hits]), klass)]
        np.maximum.at(max_edges, ell[hits], edges[hits])
        over = hits[edges[hits] > bound[ell[hits]]]
        sample.extend(over.size, _mask_entries(n, a, over, lambda j: [detail(edges[j], ell[j])]))
    return {"max_edges": max_edges.tolist(), "sample": sample}


def verify_turan_bound(max_n: int = 7, *, workers: int = 1) -> VerificationReport:
    """Every enumerated DAG satisfies edges <= t(n, ell + 1), with equality attained."""
    _require_range("turan", max_n, MAX_ENUM_VERTICES)
    observed: dict[str, int] = {}
    with _Sweep(workers) as sweep:
        for n, parts in sweep.over_n(_scan_edge_bound, max_n, None):
            max_edges = _max_edges(parts)
            for lv in range(n):
                bound = turan_graph_edges(n, lv + 1)
                observed[f"{n},{lv}"] = max_edges[lv]
                if max_edges[lv] != bound:
                    detail = f"max over n={n}, ell={lv} is {max_edges[lv]}, expected t({n},{lv + 1}) = {bound}"
                    sweep.sample.note(_graph_entry(None, detail))
                g = turan_dag(n, lv + 1)
                if len(g.edges) != bound or longest_path_length(g) != lv:
                    detail = f"turan_dag({n},{lv + 1}) should attain {bound} edges at ell={lv}"
                    sweep.sample.note(_graph_entry(g, detail))
    return sweep.report(
        "turan-bound", f"all forward-labeled DAGs, n <= {max_n}", {"max_n": max_n, "observed_max": observed}
    )


def verify_theorem_bound(max_n: int = 6, klass: str = "extremely", *, workers: int = 1) -> VerificationReport:
    """Class members satisfy the closed-form bound; generated instances attain it.

    The per-(n, ell) class maximum is recorded in ``params["tightness"]``
    together with the generated extremal instance. Each row also shows
    the alternative layer split r + s = n - ell, which produces only
    n - 1 vertices and misses the bound; the generator uses the corrected
    split r + s = n - ell + 1.
    """
    if klass not in _CLASS_PREDICATES:
        raise InvalidParamsError(f"unknown class {klass!r}; expected one of {sorted(_CLASS_PREDICATES)}")
    _require_range("theorem", max_n, MAX_ENUM_VERTICES)
    tightness: list[dict] = []
    predicate = _CLASS_PREDICATES[klass]
    with _Sweep(workers) as sweep:
        for n, parts in sweep.over_n(_scan_edge_bound, max_n, klass):
            max_edges = _max_edges(parts)
            for lv in range(1, n):
                bound = reduced_dag_edge_bound(n, lv)
                instance = extremal_for(n, lv)
                inst_edges = len(instance.edges)
                row = {
                    "n": n,
                    "ell": lv,
                    "bound": bound,
                    "class_max": max_edges[lv],
                    "generator_edges": inst_edges,
                }
                if lv >= 2:
                    alt = ExtremalSpec(r=(n - lv + 1) // 2, l=lv, s=(n - lv) // 2)
                    row["alt_split_vertices"] = alt.vertex_count
                    row["alt_split_edges"] = alt.edge_count
                tightness.append(row)
                if max_edges[lv] != bound:
                    detail = f"class max at n={n}, ell={lv} is {max_edges[lv]}, bound is {bound}"
                    sweep.sample.note(_graph_entry(None, detail))
                if inst_edges != bound or longest_path_length(instance) != lv or not predicate(instance):
                    detail = f"generated instance at n={n}, ell={lv} should attain {bound} edges inside the class"
                    sweep.sample.note(_graph_entry(instance, detail))
    return sweep.report(
        f"theorem-bound:{klass}",
        f"all forward-labeled DAGs, n <= {max_n}",
        {
            "max_n": max_n,
            "class": klass,
            "tightness": tightness,
            "note": (
                "generator uses the corrected layer split r + s = n - ell + 1; "
                "the alternative split r + s = n - ell shown per row yields n - 1 "
                "vertices and falls short of the bound"
            ),
        },
    )


# ---------------------------------------------------------------------------
# Implication chain and fast/brute-force agreement.


def _predicate_problems(g: Dag) -> list[str]:
    """What is wrong with ``g``: a broken implication or a fast predicate that disagrees with its oracle."""
    ex = is_extremely_reduced(g)
    st = is_strongly_reduced(g)
    rd = is_reduced(g)
    problems = []
    if ex and not st:
        problems.append("extremely reduced but not strongly reduced")
    if st and not rd:
        problems.append("strongly reduced but not reduced")
    if is_reduced_bruteforce(g) != rd:
        problems.append(f"reduced fast={rd} disagrees with brute force")
    if is_strongly_reduced_bruteforce(g) != st:
        problems.append(f"strongly reduced fast={st} disagrees with brute force")
    return problems


def _scan_implications(n: int, start: int, stop: int) -> dict:
    sample = _Sample()
    for mask in range(start, stop):
        g = dag_from_index(n, mask)
        for problem in _predicate_problems(g):
            sample.add(_graph_entry(g, problem))
    return {"sample": sample}


def _scan_random_agreement(seed: int, t_start: int, t_stop: int) -> dict:
    sample = _Sample()
    for t in range(t_start, t_stop):
        rng = np.random.default_rng((seed, t))
        n = int(rng.integers(2, _RANDOM_MAX_N + 1))
        p = 0.05 + 0.9 * float(rng.random())
        g = random_dag(n, p, rng)
        problems = _predicate_problems(g)
        if problems:
            sample.add(_graph_entry(g, f"trial {t}: " + "; ".join(problems)))
    return {"sample": sample}


def verify_implications(max_n: int = 5, *, random_trials: int = 1000, workers: int = 1) -> VerificationReport:
    """extremely => strongly => reduced, and fast == brute force, on every DAG with n <= ``max_n``
    and on ``random_trials`` random DAGs drawn from ``DEFAULT_SEED``."""
    _require_range("implications", max_n, MAX_PREDICATE_VERTICES)
    if random_trials < 0:
        raise InvalidParamsError(f"implications: need random_trials >= 0, got {random_trials}")
    with _Sweep(workers) as sweep:
        for _ in sweep.over_n(_scan_implications, max_n):
            pass
        if random_trials:
            sweep.run(_scan_random_agreement, random_trials, DEFAULT_SEED)
    return sweep.report(
        "implications",
        f"all forward-labeled DAGs n <= {max_n}, plus {random_trials} random DAGs n <= {_RANDOM_MAX_N}",
        {
            "max_n": max_n,
            "random_trials": random_trials,
            "random_max_n": _RANDOM_MAX_N,
            "seed": DEFAULT_SEED,
            "path_cap": DEFAULT_PATH_CAP,
            "order_cap": DEFAULT_ORDER_CAP,
        },
    )


# ---------------------------------------------------------------------------
# On transitive DAGs the three predicates coincide.


def _scan_equiv(n: int, start: int, stop: int) -> dict:
    sample = _Sample()
    transitive_count = 0
    for a, b in _blocks(start, stop):
        v = _reach_verdicts(*_edge_rows(n, a, b))
        transitive_count += int(np.count_nonzero(v.transitive))
        hits = np.flatnonzero(v.transitive & ((v.extremely != v.strongly) | (v.strongly != v.reduced)))
        details = lambda j: [
            f"transitive but predicates differ: extremely={bool(v.extremely[j])}"
            f" strongly={bool(v.strongly[j])} reduced={bool(v.reduced[j])}"
        ]
        sample.extend(hits.size, _mask_entries(n, a, hits, details))
    return {"transitive": transitive_count, "sample": sample}


def verify_equivalence_transitive(max_n: int = 6, *, workers: int = 1) -> VerificationReport:
    """On every enumerated transitive DAG the three predicates agree."""
    _require_range("equiv-transitive", max_n, MAX_ENUM_VERTICES)
    params = {"max_n": max_n, "transitive_graphs": 0}
    with _Sweep(workers) as sweep:
        for _, parts in sweep.over_n(_scan_equiv, max_n):
            params["transitive_graphs"] += sum(part["transitive"] for part in parts)
    return sweep.report("equiv-transitive", f"all forward-labeled DAGs, n <= {max_n}", params)


# ---------------------------------------------------------------------------
# Transitive closure: transitivity, idempotence, monotonicity, class lifting.


_CLOSURE_FAULTS = (
    "closure is not transitive",
    "closure dropped an edge",
    "closure is not idempotent",
    "closure of a reduced DAG fails a reducedness predicate",
)


def _scan_closure(n: int, start: int, stop: int) -> dict:
    # The closure's successor rows are the input's rf rows, and its
    # predecessor rows the input's rt rows; the closure's own verdicts and
    # reach rows come from running the kernel on those.
    sample = _Sample()
    reduced_count = 0
    for a, b in _blocks(start, stop):
        succ, pred = _edge_rows(n, a, b)
        g = _reach_verdicts(succ, pred)
        c = _reach_verdicts(g.rf, g.rt)
        faults = np.stack(
            [
                ~c.transitive,
                (succ & ~g.rf).any(axis=0),
                (c.rf != g.rf).any(axis=0),
                g.reduced & ~(c.reduced & c.strongly & c.extremely),
            ]
        )
        reduced_count += int(np.count_nonzero(g.reduced))
        hits = np.flatnonzero(faults.any(axis=0))
        details = lambda j: [text for text, hit in zip(_CLOSURE_FAULTS, faults[:, j]) if hit]
        sample.extend(int(np.count_nonzero(faults)), _mask_entries(n, a, hits, details))
    return {"reduced": reduced_count, "sample": sample}


def verify_closure(max_n: int = 6, *, workers: int = 1) -> VerificationReport:
    """Closure is transitive, monotone, idempotent, and lifts reducedness to all classes."""
    _require_range("closure", max_n, MAX_ENUM_VERTICES)
    params = {"max_n": max_n, "reduced_inputs": 0}
    with _Sweep(workers) as sweep:
        for _, parts in sweep.over_n(_scan_closure, max_n):
            params["reduced_inputs"] += sum(part["reduced"] for part in parts)
    return sweep.report("closure", f"all forward-labeled DAGs, n <= {max_n}", params)


# ---------------------------------------------------------------------------
# Separating witnesses between the classes.

_SEPARATION_KINDS = ("reduced-not-strongly", "strongly-not-extremely")


def _scan_separations(n: int, start: int, stop: int) -> dict:
    # First index of each kind in this shard: reduced but not strongly
    # reduced, and strongly but not extremely reduced.
    first: list[int | None] = [None, None]
    for a, b in _blocks(start, stop):
        v = _reach_verdicts(*_edge_rows(n, a, b))
        for kind, hits in enumerate((v.reduced & ~v.strongly, v.strongly & ~v.extremely)):
            if first[kind] is None and hits.any():
                first[kind] = a + int(hits.argmax())
        if None not in first:
            break
    return {"sample": _Sample(), "first": tuple(first)}


def find_separations(max_n: int = 6, *, workers: int = 1) -> VerificationReport:
    """Search the enumeration for class-separating witnesses, and check where they first appear.

    Finds the first (smallest n, then smallest index) DAG that is reduced
    but not strongly reduced, and the first that is strongly but not
    extremely reduced. Both exist at n = 5 and none below, and the first
    reduced-not-strongly witness is the 5-vertex chorded chain. A witness
    found anywhere but n = 5 is a violation at any ``max_n``. When
    ``max_n >= 5``, so is a kind with no witness, a first
    reduced-not-strongly witness other than the chorded chain, or a
    chorded chain the scalar predicates do not place between the classes.
    """
    _require_range("separations", max_n, MAX_ENUM_VERTICES)
    found: dict[str, tuple[int, int]] = {}
    with _Sweep(workers) as sweep:
        for n, parts in sweep.over_n(_scan_separations, max_n):
            for part in parts:
                for kind, mask in zip(_SEPARATION_KINDS, part["first"]):
                    if mask is not None:
                        found.setdefault(kind, (n, mask))
            if len(found) == len(_SEPARATION_KINDS):
                break

    chorded = Dag(5, CHORDED_CHAIN_EDGES)
    if max_n >= 5 and (not is_reduced(chorded) or is_strongly_reduced(chorded)):
        sweep.sample.note(_graph_entry(chorded, "chorded chain should be reduced and not strongly reduced"))
    witnesses: list[dict] = []
    for kind in _SEPARATION_KINDS:
        if kind not in found:
            if max_n >= 5:
                sweep.sample.note(_graph_entry(None, f"no {kind} witness found although one exists at n = 5"))
            continue
        n, mask = found[kind]
        g = dag_from_index(n, mask)
        entry = {
            "kind": kind,
            "n": n,
            "index": mask,
            "graph": format_edge_list(g),
            "detail": f"first enumerated {kind} witness",
        }
        if n != 5:
            sweep.sample.note(_graph_entry(g, f"first {kind} witness is at n = {n}, expected n = 5"))
        if kind == "reduced-not-strongly" and max_n >= 5:
            if g == chorded:
                entry["detail"] += "; equals the known chorded-chain example"
            else:
                sweep.sample.note(_graph_entry(g, f"first {kind} witness is not the chorded chain"))
        witnesses.append(entry)
    return sweep.report(
        "separations",
        f"all forward-labeled DAGs, n <= {max_n} (stops once both kinds are found)",
        {"max_n": max_n},
        witnesses,
    )


# ---------------------------------------------------------------------------
# Clique-free edge maximum: t(n, k) is exactly the most edges an n-vertex
# graph can carry without a clique of size k + 1.


def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    """Bit i for pair i of ``combinations(range(n), 2)``: the search's own numbering, not the enumeration index's."""
    return {pair: 1 << i for i, pair in enumerate(combinations(range(n), 2))}


def _clique_edge_masks(n: int, size: int, bit: dict[tuple[int, int], int]) -> list[int]:
    masks = []
    for sub in combinations(range(n), size):
        m = 0
        for pair in combinations(sub, 2):
            m |= bit[pair]
        masks.append(m)
    return masks


def _cover_within(cliques: list[int], budget: int) -> bool:
    """Can ``budget`` edge deletions hit every clique? Complete branch-and-bound search.

    A node is a set ``removed`` of deleted edges and the budget left; it
    branches on the edges of the first clique ``removed`` has not hit.

    Completeness. Any hitting set that extends ``removed`` deletes an edge
    of that clique, so the branches cover every hitting set.

    Packing bound. Greedily collect unhit cliques that share no edge with
    one another. One deleted edge lies in at most one of them, so hitting
    them all takes at least as many deletions as were collected; more of
    them than the budget left means the node fails.

    Memo. Each branch adds an edge of a clique ``removed`` has not hit,
    so an edge ``removed`` does not yet hold: a node's ``removed`` has
    exactly ``budget - left`` edges, and the set alone fixes the budget
    left. It also fixes the unhit cliques, and whether the node succeeds
    depends on nothing else, so a ``removed`` set that failed once fails
    again.
    """
    failed: set[int] = set()

    def search(removed: int, open_: list[int], left: int) -> bool:
        if not open_:
            return True
        if removed in failed:
            return False
        packed = used = 0
        for cm in open_:
            if not cm & used:
                used |= cm
                packed += 1
                if packed > left:
                    failed.add(removed)
                    return False
        rest = open_[0]
        while rest:
            low = rest & -rest
            if search(removed | low, [cm for cm in open_ if not cm & low], left - 1):
                return True
            rest ^= low
        failed.add(removed)
        return False

    return search(0, cliques, budget)


def verify_clique_bound(max_n: int = 8) -> VerificationReport:
    """t(n, k) equals the clique-free edge maximum, exhaustively for n <= max_n.

    Upper bound: a K_{k+1}-free graph with t(n, k) + 1 edges would leave a
    set of C(n, 2) - t - 1 deleted edges hitting every (k + 1)-clique of
    the complete graph; the branching search proves no such hitting set
    exists, which covers every denser graph too (subgraphs of clique-free
    graphs are clique-free). Attainment: the balanced multipartite graph
    carries t(n, k) edges, a K_k, and no K_{k+1}.
    """
    _require_range("clique", max_n, MAX_CLIQUE_VERTICES)
    sweep = _Sweep(1)
    for n in range(2, max_n + 1):
        bit = _pair_bits(n)
        # cliques[s]: the edge masks of every s-clique of K_n (none for s = n + 1).
        cliques = [_clique_edge_masks(n, size, bit) for size in range(n + 2)]
        for k in range(1, n + 1):
            t = turan_graph_edges(n, k)
            sweep.checked += 1
            budget = comb(n, 2) - t - 1
            if budget >= 0 and _cover_within(cliques[k + 1], budget):
                detail = f"a graph with {t + 1} edges and no {k + 1}-clique exists at n={n}"
                sweep.sample.note(_graph_entry(None, detail))
            g = turan_dag(n, k)
            mask = sum(bit[pair] for pair in g.edges)
            if len(g.edges) != t:
                sweep.sample.note(_graph_entry(g, f"expected {t} edges at n={n}, k={k}"))
            if not any(cm & ~mask == 0 for cm in cliques[k]):
                sweep.sample.note(_graph_entry(g, f"no {k}-clique at n={n}, k={k}"))
            if any(cm & ~mask == 0 for cm in cliques[k + 1]):
                sweep.sample.note(_graph_entry(g, f"unexpected {k + 1}-clique at n={n}, k={k}"))
    return sweep.report(
        "clique-free-maximum", f"all graphs, n <= {max_n} (via complete hitting-set search)", {"max_n": max_n}
    )


# ---------------------------------------------------------------------------
# Box family properties.


# Random families per kernel call. On a 2-core x86 box, sweep-predicates'
# peak RSS rose 1.3 MB over the per-family route with 1024 families per
# block and 0.6 MB with 256; the smaller blocks cost verify_box_props(1000)
# about 10 ms (0.13 s in all).
_BOX_BLOCK = 256


def _box_trials(
    seed: int, start: int, stop: int, draw: Callable
) -> Iterator[tuple[int, list, BoxGraphs, ReachVerdicts]]:
    """(a, drawn, graphs, verdicts) per block of trials from a on; ``draw(seed, t)`` gives trial t's (ids, rows)."""
    for a in range(start, stop, _BOX_BLOCK):
        drawn = [draw(seed, t) for t in range(a, min(a + _BOX_BLOCK, stop))]
        graphs = _box_graphs([rows for _, rows in drawn])
        yield a, drawn, graphs, _reach_verdicts(graphs.succ, graphs.pred)


def _draw_transverse(seed: int, t: int) -> tuple:
    return _transverse_rows(np.random.default_rng((seed, 0, t)))


def _draw_general(seed: int, t: int) -> tuple:
    rng = np.random.default_rng((seed, 1, t))
    return _general_rows(int(rng.integers(2, 13)), rng)


def _scan_transverse_boxes(seed: int, start: int, stop: int) -> dict:
    sample = _Sample()
    for a, drawn, _, v in _box_trials(seed, start, stop, _draw_transverse):
        hits = np.flatnonzero(~(v.extremely & v.transitive)).tolist()
        detail = "transverse trial {}: graph not extremely reduced + transitive"
        entries = (_box_entry(_family_from_rows(*drawn[j], _GRID), detail.format(a + j)) for j in hits)
        sample.extend(len(hits), entries)
    return {"sample": sample}


def _scan_general_boxes(seed: int, start: int, stop: int) -> dict:
    # Pair (x, y), x < y, of each graph's labels is joined when the boxes
    # share an ancestor and a descendant; a joined pair must intersect.
    sample = _Sample()
    joined_pairs = 0
    for a, drawn, graphs, v in _box_trials(seed, start, stop, _draw_general):
        xs, ys = np.triu_indices(graphs.succ.shape[0], 1)
        # Labels past a family's size are padding, never part of a pair.
        joined = (v.rt[xs] & v.rt[ys] != 0) & (v.rf[xs] & v.rf[ys] != 0) & (ys[:, None] < graphs.sizes)
        apart = joined & (_bit(graphs.meet[xs], ys[:, None]) == 0)
        joined_pairs += int(np.count_nonzero(joined))

        def entries(j: int) -> Iterator[dict]:
            ids, rows = drawn[j]
            family = _family_from_rows(ids, rows, 2)
            order = graphs.order[j]
            for i, k in sorted(sorted((order[xs[p]], order[ys[p]])) for p in np.flatnonzero(apart[:, j])):
                detail = f"boxes {ids[i]},{ids[k]} share ancestor and descendant but do not intersect"
                yield _box_entry(family, f"general trial {a + j}: {detail}")

        hits = np.flatnonzero(apart.any(axis=0)).tolist()
        sample.extend(int(np.count_nonzero(apart)), (entry for j in hits for entry in entries(j)))
    return {"sample": sample, "joined": joined_pairs}


def verify_box_props(trials: int = 1000, seed: int = DEFAULT_SEED, *, workers: int = 1) -> VerificationReport:
    """Transverse families give extremely reduced transitive graphs; common
    ancestor plus common descendant forces intersecting boxes; the extremal
    family reproduces the extremal graph exactly.

    Both random trial kinds draw each family as integer rows and decide a
    block of families with one call of the reach kernel. The general
    families rarely contain a pair with both a common ancestor and a
    common descendant, so the middle claim may be checked vacuously;
    ``params["general_joined_pairs"]`` counts the pairs it was checked
    on: 0 at seeds 0, 1, 5 and the default. ROADMAP item 4 replaces the
    general trials once a benchmark change re-pins the ``boxes`` count."""
    if trials < 0:
        raise InvalidParamsError(f"boxes: need trials >= 0, got {trials}")
    if seed < 0:
        raise InvalidParamsError(f"boxes: need seed >= 0, got {seed}")
    with _Sweep(workers) as sweep:
        sweep.run(_scan_transverse_boxes, trials, seed)
        joined_pairs = sum(part["joined"] for part in sweep.run(_scan_general_boxes, trials, seed))

    specs = [ExtremalSpec(r=r, l=l, s=s) for r, l, s in product(range(1, 6), range(2, 6), range(6))]
    for spec in specs:
        family = extremal_box_family(spec)
        sweep.checked += 1
        ok, offenders = is_transverse_family(family)
        if not ok:
            sweep.sample.note(_box_entry(family, f"{spec}: family not transverse: {offenders}"))
        if directed_intersection_graph(family) != extremal_dag(spec):
            sweep.sample.note(_box_entry(family, f"{spec}: intersection graph differs from the layered construction"))
    return sweep.report(
        "box-properties",
        f"{trials} transverse + {trials} general random families + {len(specs)} extremal specs",
        {"trials": trials, "seed": seed, "extremal_specs": len(specs), "general_joined_pairs": joined_pairs},
    )


# ---------------------------------------------------------------------------
# Front door.

# claim -> (ceiling, runner). A runner takes the worker count and, only
# when the caller gave one, ``max_n``, so each default (range, 1000 trials,
# seed) is stated once, in its verify_* signature. boxes has no
# enumeration range, and clique runs in one process.
_CLAIM_TABLE: dict[str, tuple[int | None, Callable[..., list[VerificationReport]]]] = {
    "turan": (MAX_ENUM_VERTICES, lambda w, **r: [verify_turan_bound(**r, workers=w)]),
    "theorem": (
        MAX_ENUM_VERTICES,
        lambda w, **r: [verify_theorem_bound(**r, klass=k, workers=w) for k in _CLASS_PREDICATES],
    ),
    "implications": (MAX_PREDICATE_VERTICES, lambda w, **r: [verify_implications(**r, workers=w)]),
    "equiv-transitive": (MAX_ENUM_VERTICES, lambda w, **r: [verify_equivalence_transitive(**r, workers=w)]),
    "closure": (MAX_ENUM_VERTICES, lambda w, **r: [verify_closure(**r, workers=w)]),
    "separations": (MAX_ENUM_VERTICES, lambda w, **r: [find_separations(**r, workers=w)]),
    "boxes": (None, lambda w: [verify_box_props(workers=w)]),
    "clique": (MAX_CLIQUE_VERTICES, lambda w, **r: [verify_clique_bound(**r)]),
}

CLAIMS = (*_CLAIM_TABLE, "all")


def verify_claim(claim: str, *, max_n: int | None = None, workers: int = 1) -> list[VerificationReport]:
    """Run one named claim (or ``all``); returns one report per sub-check.

    Without ``max_n`` every claim runs at the defaults of its verify_*
    function: its range, 1000 random trials, the default seed. boxes has
    no range and refuses a given ``max_n``; under ``all`` it runs without
    one, and every other claim takes ``max_n`` clamped to its own ceiling
    instead of erroring. Every sweep of the call shares one worker pool.
    """
    if claim not in CLAIMS:
        raise UnknownClaimError(f"unknown claim {claim!r}; expected one of {', '.join(CLAIMS)}")
    _require_workers(workers)
    if max_n is not None and claim != "all" and _CLAIM_TABLE[claim][0] is None:
        raise InvalidParamsError(f"{claim} does not take max_n; it has no enumeration range")
    reports: list[VerificationReport] = []
    with _Pool() as pool:
        token = _claim_pool.set(pool)
        try:
            for name in _CLAIM_TABLE if claim == "all" else (claim,):
                ceiling, runner = _CLAIM_TABLE[name]
                if max_n is None or ceiling is None:
                    reports += runner(workers)
                else:
                    reports += runner(workers, max_n=min(max_n, ceiling) if claim == "all" else max_n)
        finally:
            _claim_pool.reset(token)
    return reports
