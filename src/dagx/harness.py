"""Exhaustive and randomized verification of the package's claims.

Every claim about the graph classes is re-checked at desk scale: bound
claims by scanning the full forward-labeled enumeration (every subset of
{(i, j) : i < j}), existence claims by searching that enumeration for
witnesses, and the box claims over seeded random families. Fast
predicates are cross-checked bit-for-bit against the literal brute-force
oracles. The theorem, equiv-transitive, closure and separations sweeps
read their class verdicts off the whole-block reach kernel of
:mod:`dagx.kernels`, tested against the scalar predicates for n <= 6.
Its input rows are bit fields of the enumeration index. The
edge-bound scans (turan and theorem) list only the masks with at least
the bound's edges at their longest path, from a kernel that skips every
parent graph whose sink slab cannot reach the bound; theorem decides the
listed masks of every n with one reach-kernel run, and each maximum is
the largest member listed. A report gives no maximum where no member
attains the bound.
The box claim takes every geometric decision
from :mod:`dagx.boxes` and works on its integer rows throughout: every
family, random or extremal, goes through one pair walk, a random one's
verdicts come from :func:`dagx.boxes._box_verdicts` on the walk's edges
(a transverse draw's are those of the walk that validated it), and a
family is built as Fractions only when a report lists it.

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
    _box_verdicts,
    _family_from_rows,
    _general_rows,
    _layered_rows,
    _pair_walk,
    _transverse_rows,
    format_box_csv,
)
from .errors import InvalidParamsError, LimitExceededError, UnknownClaimError
from .generators import (
    MAX_ENUM_VERTICES,
    ExtremalSpec,
    dag_count,
    dag_from_index,
    extremal_dag,
    extremal_for,
    pair_table,
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
from .kernels import _at_bound, _bit, _blocks, _pred_rows, _reach_verdicts

DEFAULT_SEED = 271828

# Scan ceilings: the enumeration sweeps stop at MAX_ENUM_VERTICES; the
# implication sweep runs the brute-force oracles on a Dag per mask and
# stops at n = 6.
MAX_PREDICATE_VERTICES = 6
# The random half of the implication sweep draws DAGs on 2..8 vertices.
_RANDOM_MAX_N = 8
# The clique-free maximum is proved by a hitting-set search, not an
# enumeration, that branches on one edge per symmetry class of the first
# unhit clique (see _cover_within). On one core of a 2-core x86 box n <= 8
# takes about 5 ms, n <= 9 about 0.06 s and n <= 10 about 0.9 s, with a
# process peak RSS of about 43 MB; the searches at n = 11 alone take
# about 33 s and 200 MB, so the ceiling stays at 10.
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


def _box_entry(ids: tuple[str, ...], rows: np.ndarray, detail: str) -> dict:
    """A report entry listing the family whose box ``ids[i]`` has the grid rows ``rows[i]``.

    The box claim builds a Fraction family here only, for an entry it lists.
    """
    return {"boxes": format_box_csv(_family_from_rows(ids, rows)), "detail": detail}


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
    checked. A range is cut into one shard per process, at most
    ``workers`` and at most one per CPU; shards merge associatively, so
    merged reports are identical for every worker count. The shards run
    in one pool, the sweep's own or, inside :func:`verify_claim`, the
    call's.
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
        processes = 1
        if self.workers > 1:  # a pool could open: count the CPUs, by affinity where the OS has it
            affinity = getattr(os, "sched_getaffinity", None)
            processes = min(self.workers, len(affinity(0)) if affinity else os.cpu_count() or 1)
        shards = _shard_ranges(total, processes)
        if len(shards) <= 1:
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


# ---------------------------------------------------------------------------
# Edge bounds: edges <= B(n, ell) over a class, with equality attained. Every
# DAG obeys the Turan bound t(n, ell + 1); the reduced classes obey
# t(n - ell + 1, 2) + the interval quantity.

_CLASS_PREDICATES = {
    "extremely": is_extremely_reduced,
    "strongly": is_strongly_reduced,
    "reduced": is_reduced,
}


def _edge_bound(n: int, klass: str | None) -> np.ndarray:
    """The bound at each ell = 0..n-1: t(n, ell + 1) over every DAG (``klass`` None), else 0 and then B(n, ell)."""
    if klass is None:
        return np.array([turan_graph_edges(n, lv + 1) for lv in range(n)], dtype=np.int8)
    return np.array([0] + [reduced_dag_edge_bound(n, lv) for lv in range(1, n)], dtype=np.int8)


def _scan_edge_bound(n: int, klass: str | None, start: int, stop: int) -> dict:
    """Index, ell and edge count of every mask in start..stop-1 with at least the bound's edges at its ell."""
    index, rows = _at_bound(n, _edge_bound(n, klass), start, stop)
    return {"index": index, "ell": rows[1:].max(axis=0), "edges": rows[0], "sample": _Sample()}


def _edge_bound_maxima(sweep: _Sweep, max_n: int, klass: str | None) -> Iterator[tuple[int, list[int | None]]]:
    """Scan n = 1..max_n; per n, list the members of ``klass`` above the bound, then yield each ell's maximum.

    A maximum is None where no member attains the bound: only the masks
    at or above it are listed, and that is all a report needs. The graphs
    above the bound go into ``sweep.sample`` in index order, each n's
    before the n is yielded, so a caller's notes for that n follow them.

    A class is decided by one run of the reach kernel over every n, each
    listed index read as a ``max_n``-vertex graph. Proof that this reads
    the same verdicts: the pair table nests (pair (u, v) is bit
    C(v, 2) + u at any n), so an index below 2^C(n, 2) names, at
    ``max_n`` vertices, the same edges plus the isolated vertices
    n..max_n-1. An isolated vertex has no ancestor, descendant or
    neighbour, so it is in no joined pair and no crossing quadruple, and
    it breaks no transitivity: all four verdicts stay the same.
    """
    found = [
        (n, *(np.concatenate([part[key] for part in parts]) for key in ("index", "ell", "edges")))
        for n, parts in sweep.over_n(_scan_edge_bound, max_n, klass)
    ]
    if klass is not None:
        member = getattr(_reach_verdicts(_pred_rows(max_n, np.concatenate([f[1] for f in found]))), klass)
        cuts = np.cumsum([f[1].size for f in found])[:-1]
        found = [(n, i[m], lv[m], e[m]) for (n, i, lv, e), m in zip(found, np.split(member, cuts))]
    for n, index, ell, edges in found:
        bound = _edge_bound(n, klass)
        if klass is None:
            detail = lambda e, lv: f"{e} edges with longest path {lv}, above t({n},{lv + 1}) = {bound[lv]}"
        else:
            detail = lambda e, lv: f"class {klass!r}: {e} edges at ell={lv}, above bound {bound[lv]}"
        over = np.flatnonzero(edges > bound[ell])
        entries = (
            _graph_entry(dag_from_index(n, i), detail(e, lv))
            for i, e, lv in zip(index[over].tolist(), edges[over], ell[over])
        )
        sweep.sample.extend(over.size, entries)
        top = np.full(n, -1)
        np.maximum.at(top, ell, edges)
        yield n, [int(t) if t >= 0 else None for t in top]


def verify_turan_bound(max_n: int = 7, *, workers: int = 1) -> VerificationReport:
    """Every enumerated DAG satisfies edges <= t(n, ell + 1), with equality attained."""
    _require_range("turan", max_n, MAX_ENUM_VERTICES)
    observed: dict[str, int | None] = {}
    with _Sweep(workers) as sweep:
        for n, maxima in _edge_bound_maxima(sweep, max_n, None):
            for lv, top in enumerate(maxima):
                bound = turan_graph_edges(n, lv + 1)
                observed[f"{n},{lv}"] = top
                if top is None:
                    detail = f"no DAG attains the bound t({n},{lv + 1}) = {bound} at n={n}, ell={lv}"
                    sweep.sample.note(_graph_entry(None, detail))
                elif top > bound:
                    detail = f"max over n={n}, ell={lv} is {top}, expected t({n},{lv + 1}) = {bound}"
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
        for n, maxima in _edge_bound_maxima(sweep, max_n, klass):
            for lv in range(1, n):
                bound = reduced_dag_edge_bound(n, lv)
                top = maxima[lv]
                instance = extremal_for(n, lv)
                inst_edges = len(instance.edges)
                row = {
                    "n": n,
                    "ell": lv,
                    "bound": bound,
                    "class_max": top,
                    "generator_edges": inst_edges,
                }
                if lv >= 2:
                    alt = ExtremalSpec(r=(n - lv + 1) // 2, l=lv, s=(n - lv) // 2)
                    row["alt_split_vertices"] = alt.vertex_count
                    row["alt_split_edges"] = alt.edge_count
                tightness.append(row)
                if top is None:
                    detail = f"no class member attains the bound {bound} at n={n}, ell={lv}"
                    sweep.sample.note(_graph_entry(None, detail))
                elif top > bound:
                    detail = f"class max at n={n}, ell={lv} is {top}, bound is {bound}"
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
        v = _reach_verdicts(_pred_rows(n, np.arange(a, b)))
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
    "closure differs from the pivot-order closure",
)


def _scan_closure(n: int, start: int, stop: int) -> dict:
    # The closure's predecessor rows are the input's rt rows, checked
    # against Warshall's closure: for pivots k ascending, each v that k
    # reaches gains the vertices that reach k. The closure's own verdicts
    # and reach rows come from running the kernel on those rows.
    sample = _Sample()
    reduced_count = 0
    for a, b in _blocks(start, stop):
        pred = _pred_rows(n, np.arange(a, b))
        g = _reach_verdicts(pred)
        c = _reach_verdicts(g.rt)
        warshall = pred.copy()
        for k in range(n):
            for v in range(k + 1, n):
                warshall[v] |= warshall[k] * _bit(warshall[v], k)
        faults = np.stack(
            [
                ~c.transitive,
                (pred & ~g.rt).any(axis=0),
                (c.rt != g.rt).any(axis=0),
                g.reduced & ~(c.reduced & c.strongly & c.extremely),
                (g.rt != warshall).any(axis=0),
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
        v = _reach_verdicts(_pred_rows(n, np.arange(a, b)))
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


def _clique_edge_masks(n: int, size: int) -> list[int]:
    """The edge mask of each ``size``-clique of K_n, pair (u, v) at bit C(v, 2) + u as in the enumeration index."""
    return [sum(1 << comb(v, 2) + u for u, v in combinations(sub, 2)) for sub in combinations(range(n), size)]


def _cover_within(n: int, size: int, budget: int) -> bool:
    """Can ``budget`` edge deletions hit every ``size``-clique of K_n? Complete branch-and-bound search.

    A node is a set ``removed`` of deleted edges and the budget left; it
    branches on the edges of the first clique Q that ``removed`` has not
    hit, one edge per orbit (below).

    Completeness. Any hitting set that extends ``removed`` deletes an edge
    of Q, so branching on every edge of Q would cover every hitting set.

    Orbits. Call a vertex free when no edge of ``removed`` touches it;
    ``touched`` holds the others. Let e and e' be edges of Q with the same
    touched endpoints, ``e & touched == e' & touched``; then they have the
    same number of free endpoints too, two less the touched ones. Some
    permutation pi of Q's free vertices maps e's free endpoints onto e''s,
    so pi(e) = e', and fixes every other vertex. It fixes each edge of
    ``removed``, whose endpoints are all touched, and maps Q onto itself.
    The cliques searched are every ``size``-clique of K_n, a family each
    vertex permutation maps onto itself, so pi maps a hitting set to a
    hitting set of the same size. Hence pi and its inverse carry the
    hitting sets that extend ``removed | {e}`` onto those that extend
    ``removed | {e'}``, and the branch on e' succeeds exactly when the
    branch on e does. So the search tries only the first edge of Q for
    each value of ``e & touched``: one edge at the root, where nothing is
    touched. This needs the whole family of one clique size, which is
    why the search builds the cliques itself from ``n`` and ``size``.

    Packing bound. Greedily collect unhit cliques that share no edge with
    one another. One deleted edge lies in at most one of them, so hitting
    them all takes at least as many deletions as were collected; more of
    them than the budget left means the node fails.

    Memo. Each branch adds an edge of a clique ``removed`` has not hit,
    so an edge ``removed`` does not yet hold: a node's ``removed`` has
    exactly ``budget - left`` edges, and the set alone fixes the budget
    left and ``touched``. It also fixes the unhit cliques, and whether the
    node succeeds depends on nothing else, so a ``removed`` set that
    failed once fails again.
    """
    # ends[i]: the vertex mask of pair i's two endpoints.
    ends = [1 << u | 1 << v for u, v in pair_table(n)]
    failed: set[int] = set()

    def search(removed: int, touched: int, open_: list[int], left: int) -> bool:
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
        tried: set[int] = set()
        while rest:
            low = rest & -rest
            rest ^= low
            e = ends[low.bit_length() - 1]
            key = e & touched
            if key in tried:
                continue
            tried.add(key)
            if search(removed | low, touched | e, [cm for cm in open_ if not cm & low], left - 1):
                return True
        failed.add(removed)
        return False

    return search(0, 0, _clique_edge_masks(n, size), budget)


def verify_clique_bound(max_n: int = 8) -> VerificationReport:
    """t(n, k) equals the clique-free edge maximum, exhaustively for n <= max_n.

    Upper bound: a K_{k+1}-free graph with t(n, k) + 1 edges would leave a
    set of C(n, 2) - t - 1 deleted edges hitting every (k + 1)-clique of
    the complete graph; the branching search proves no such hitting set
    exists, which covers every denser graph too (subgraphs of clique-free
    graphs are clique-free). The search tries one edge per orbit of the
    vertices no deleted edge touches, as ``_cover_within`` proves, and on
    one core of a 2-core x86 box ``max_n`` = 8, 9 and 10 take about 5 ms,
    0.06 s and 0.9 s (about 43 MB peak RSS at 10). Attainment: the
    balanced multipartite graph carries t(n, k) edges, a K_k, and no
    K_{k+1}.
    """
    _require_range("clique", max_n, MAX_CLIQUE_VERTICES)
    with _Sweep(1) as sweep:
        for n in range(2, max_n + 1):
            # cliques[s]: the edge masks of every s-clique of K_n (none for s = n + 1).
            cliques = [_clique_edge_masks(n, size) for size in range(n + 2)]
            for k in range(1, n + 1):
                t = turan_graph_edges(n, k)
                sweep.checked += 1
                budget = comb(n, 2) - t - 1
                if budget >= 0 and _cover_within(n, k + 1, budget):
                    detail = f"a graph with {t + 1} edges and no {k + 1}-clique exists at n={n}"
                    sweep.sample.note(_graph_entry(None, detail))
                g = turan_dag(n, k)
                mask = sum(1 << comb(v, 2) + u for u, v in g.edges)
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


def _draw_transverse(seed: int, t: int) -> tuple:
    return _transverse_rows(np.random.default_rng((seed, 0, t)))


def _draw_general(seed: int, t: int) -> tuple:
    rng = np.random.default_rng((seed, 1, t))
    return _general_rows(int(rng.integers(2, 13)), rng)


def _box_sample(kind: str, hits: list[tuple]) -> _Sample:
    """One violation per detail of each (t, ids, rows, details) hit, the entries listed lazily."""
    sample = _Sample()
    entries = (_box_entry(ids, rows, f"{kind} trial {t}: {d}") for t, ids, rows, details in hits for d in details)
    sample.extend(sum(len(details) for *_, details in hits), entries)
    return sample


def _scan_transverse_boxes(seed: int, start: int, stop: int) -> dict:
    # Extremely reduced: every joined pair is adjacent.
    hits = []
    for t in range(start, stop):
        ids, rows, edges = _draw_transverse(seed, t)
        transitive, joined = _box_verdicts(len(ids), edges)
        adjacent = set(edges)
        if not transitive or any((x, y) not in adjacent and (y, x) not in adjacent for x, y in joined):
            hits.append((t, ids, rows, ["graph not extremely reduced + transitive"]))
    return {"sample": _box_sample("transverse", hits)}


def _scan_general_boxes(seed: int, start: int, stop: int) -> dict:
    # Pair (x, y), x < y, of a family is joined when the boxes share an
    # ancestor and a descendant; a joined pair must intersect, that is, be
    # an edge or an offender of the family's pair walk.
    hits = []
    joined_pairs = 0
    for t in range(start, stop):
        ids, rows = _draw_general(seed, t)
        edges, offenders = _pair_walk(rows.tolist())
        transitive, joined = _box_verdicts(len(ids), edges)
        joined_pairs += len(joined)
        meet = {*edges, *offenders}
        details = [] if transitive else ["graph not transitive"]
        details += [
            f"boxes {ids[x]},{ids[y]} share ancestor and descendant but do not intersect"
            for x, y in joined
            if (x, y) not in meet and (y, x) not in meet
        ]
        if details:
            hits.append((t, ids, rows, details))
    return {"sample": _box_sample("general", hits), "joined": joined_pairs}


def verify_box_props(trials: int = 1000, seed: int = DEFAULT_SEED, *, workers: int = 1) -> VerificationReport:
    """Transverse families give extremely reduced transitive graphs; common
    ancestor plus common descendant forces intersecting boxes; the extremal
    family reproduces the extremal graph exactly.

    Both random trial kinds draw each family as integer rows and decide it
    on the edges of one pair walk, a transverse family on the walk that
    validated its draw; the verdicts also check that every graph is
    transitive. Each extremal spec's rows go through one pair walk, whose
    edges must be those of ``extremal_dag(spec)`` and which must find no
    offender. The general families rarely contain a pair with both a
    common ancestor and a common descendant, so the middle claim may be
    checked vacuously; ``params["general_joined_pairs"]`` counts the
    pairs it was checked on: 0 at seeds 0, 1, 5 and the default. ROADMAP items 6 and 7
    delete and replace the general trials once a benchmark change re-pins the ``boxes`` count."""
    if trials < 0:
        raise InvalidParamsError(f"boxes: need trials >= 0, got {trials}")
    if seed < 0:
        raise InvalidParamsError(f"boxes: need seed >= 0, got {seed}")
    with _Sweep(workers) as sweep:
        sweep.run(_scan_transverse_boxes, trials, seed)
        joined_pairs = sum(part["joined"] for part in sweep.run(_scan_general_boxes, trials, seed))

    specs = [ExtremalSpec(r=r, l=l, s=s) for r, l, s in product(range(1, 6), range(2, 6), range(6))]
    for spec in specs:
        ids, rows = _layered_rows(spec.r, spec.l - 1, spec.s)
        edges, offenders = _pair_walk(rows.tolist())
        sweep.checked += 1
        if offenders:
            pairs = [(ids[i], ids[j]) for i, j in offenders]
            sweep.sample.note(_box_entry(ids, rows, f"{spec}: family not transverse: {pairs}"))
        if set(edges) != extremal_dag(spec).edges:
            detail = f"{spec}: intersection graph differs from the layered construction"
            sweep.sample.note(_box_entry(ids, rows, detail))
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
