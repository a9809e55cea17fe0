"""Exhaustive and randomized verification of the package's claims.

Every claim about the graph classes is re-checked at desk scale: bound
claims by scanning the full forward-labeled enumeration (every subset of
{(i, j) : i < j}), existence claims by searching that enumeration for
witnesses, and the box claims over seeded random families. Fast
predicates are cross-checked bit-for-bit against the literal brute-force
oracles.

Scans partition the enumeration index range across a worker pool; shards
share nothing and merge associatively, so reports are identical for any
worker count. A report with an empty ``violations`` list means the claim
held everywhere in the stated range.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .bounds import reduced_dag_edge_bound, turan_graph_edges
from .boxes import (
    boxes_intersect,
    directed_intersection_graph,
    extremal_box_family,
    format_box_csv,
    is_transverse_family,
    random_box_family,
    random_transverse_family,
)
from .errors import InvalidParamsError, LimitExceededError, UnknownClaimError
from .generators import (
    ExtremalSpec,
    dag_count,
    extremal_dag,
    extremal_for,
    pair_table,
    random_dag,
    turan_dag,
)
from .graph import Dag, bits, format_edge_list, longest_path_length, reach_from_masks, reach_to_masks
from .predicates import (
    DEFAULT_PATH_CAP,
    is_extremely_reduced,
    is_reduced,
    is_reduced_bruteforce,
    is_strongly_reduced,
    is_strongly_reduced_bruteforce,
    is_transitive,
    transitive_closure,
)

DEFAULT_SEED = 271828
DEFAULT_ORDER_CAP = 100_000

# Scan ceilings. Levels and edge counts come from the whole-block kernel
# below: the turan sweep, which needs nothing else, runs through n = 8
# (2^28 graphs, about half a minute on one core); the class-bound sweep,
# which also builds and tests gated graphs, stops at n = 7. Predicate and
# oracle sweeps build a Dag per mask and stop at n = 6.
MAX_TURAN_VERTICES = 8
MAX_SCAN_VERTICES = 7
MAX_PREDICATE_VERTICES = 6

_VIOLATION_SAMPLE = 20

# Masks per call of the levels kernel: large enough to amortise numpy's
# per-call cost, small enough that its int8 work arrays stay in cache.
_LEVEL_BLOCK = 8192

# Known 5-vertex separating example: the chain 0->1->2->3->4 with chords
# 0->3 and 1->4. The span of (0, 4) sorted is the full chain (a path), so
# the graph is reduced; the two chord paths 0->1->4 and 0->3->4 union to
# (0, 1, 3, 4), which is not a path, so it is not strongly reduced.
CHORDED_CHAIN_EDGES = ((0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4))

CLAIMS = (
    "turan",
    "theorem",
    "implications",
    "equiv-transitive",
    "closure",
    "separations",
    "boxes",
    "all",
)


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
        return {
            "claim": self.claim,
            "range": self.range,
            "checked": self.checked,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "elapsed_ms": self.elapsed_ms,
            "params": self.params,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _require_range(claim: str, max_n: int, limit: int) -> None:
    if max_n < 1:
        raise InvalidParamsError(f"{claim}: need max_n >= 1, got {max_n}")
    if max_n > limit:
        raise LimitExceededError(
            f"{claim}: max_n={max_n} exceeds the ceiling {limit}; raise the ceiling explicitly to override"
        )


def _shard_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    k = max(1, min(workers, total))
    step = -(-total // k)
    return [(a, min(a + step, total)) for a in range(0, total, step)]


def _map_shards(fn: Callable, arg_lists: list[tuple], workers: int) -> list:
    if workers <= 1 or len(arg_lists) <= 1:
        return [fn(*args) for args in arg_lists]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_lists]
        return [f.result() for f in futures]


def _dag_from_mask(n: int, mask: int) -> Dag:
    pairs = pair_table(n)
    return Dag._unchecked(n, frozenset(pairs[i] for i in bits(mask)))


def _merge_violations(violations: list[dict], part: dict, n: int | None = None) -> int:
    """List a shard's sampled violations while room is left; return how many go unlisted.

    Sample keys are enumeration masks when ``n`` is given, edge-list text
    otherwise.
    """
    room = max(0, _VIOLATION_SAMPLE - len(violations))
    listed = part["violations"][:room]
    for key, detail in listed:
        graph = key if n is None else format_edge_list(_dag_from_mask(n, key))
        violations.append({"graph": graph, "detail": detail})
    return part["violation_count"] - len(listed)


def _note_overflow(violations: list[dict], overflow: int) -> None:
    if overflow:
        violations.append({"graph": None, "detail": f"{overflow} further violations not listed"})


def _levels_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(longest path length, edge count) of every mask in start..stop-1, as int8 arrays.

    Pair i = (u, v) of ``pair_table(n)`` is edge bit i. Walking the pairs
    in that lexicographic order, every edge into u comes before any edge
    out of u, so ``lev[u]`` is final when pair (u, v) relaxes
    ``lev[v] = max(lev[v], bit_i * (lev[u] + 1))``. Bits above the highest
    bit in which start and stop - 1 differ are the same for the whole
    block, so their pairs are skipped or relaxed unconditionally. int8
    holds every level and edge count up to n = 16, past any n whose
    enumeration could finish.
    """
    pairs = pair_table(n)
    size = stop - start
    k = min(len(pairs), (start ^ (stop - 1)).bit_length())
    raw = np.arange(start, stop, dtype="<u8").view(np.uint8).reshape(size, 8)[:, : -(-k // 8)]
    bit = np.unpackbits(np.ascontiguousarray(raw.T), axis=0, count=k, bitorder="little").view(np.int8)
    lev = np.zeros((n, size), dtype=np.int8)
    step = np.empty(size, dtype=np.int8)
    for i, (u, v) in enumerate(pairs):
        if i < k:
            np.add(lev[u], 1, out=step)
            np.multiply(step, bit[i], out=step)
            np.maximum(lev[v], step, out=lev[v])
        elif start >> i & 1:
            np.add(lev[u], 1, out=step)
            np.maximum(lev[v], step, out=lev[v])
    edges = bit.sum(axis=0, dtype=np.int8)
    edges += (start >> k).bit_count()
    return lev.max(axis=0), edges


def _blocks(start: int, stop: int):
    for a in range(start, stop, _LEVEL_BLOCK):
        yield a, min(a + _LEVEL_BLOCK, stop)


# ---------------------------------------------------------------------------
# Turan bound: edges <= t(n, ell + 1) over the full enumeration.


def _scan_turan(n: int, start: int, stop: int) -> dict:
    bound = np.array([turan_graph_edges(n, lv + 1) for lv in range(n)], dtype=np.int8)
    seen = np.zeros((n, comb(n, 2) + 1), dtype=bool)
    violations: list[tuple[int, str]] = []
    violation_count = 0
    for a, b in _blocks(start, stop):
        ell, edges = _levels_chunk(n, a, b)
        seen[ell, edges] = True
        over = np.flatnonzero(edges > bound[ell])
        violation_count += over.size
        for j in over[: _VIOLATION_SAMPLE - len(violations)].tolist():
            lv, e = int(ell[j]), int(edges[j])
            violations.append((a + j, f"{e} edges with longest path {lv}, above t({n},{lv + 1}) = {bound[lv]}"))
    return {
        "checked": stop - start,
        "max_edges": [int(row.nonzero()[0][-1]) if row.any() else -1 for row in seen],
        "violations": violations,
        "violation_count": violation_count,
    }


def verify_turan_bound(
    max_n: int = 7, *, workers: int = 1, limit: int = MAX_TURAN_VERTICES
) -> VerificationReport:
    """Every enumerated DAG satisfies edges <= t(n, ell + 1), with equality attained."""
    _require_range("turan", max_n, limit)
    t0 = time.perf_counter()
    checked = 0
    violations: list[dict] = []
    observed: dict[str, int] = {}
    overflow = 0
    for n in range(1, max_n + 1):
        shards = _shard_ranges(dag_count(n), workers)
        parts = _map_shards(_scan_turan, [(n, a, b) for a, b in shards], workers)
        max_edges = [-1] * n
        for part in parts:
            checked += part["checked"]
            overflow += _merge_violations(violations, part, n)
            for lv, e in enumerate(part["max_edges"]):
                if e > max_edges[lv]:
                    max_edges[lv] = e
        for lv in range(n):
            bound = turan_graph_edges(n, lv + 1)
            observed[f"{n},{lv}"] = max_edges[lv]
            if max_edges[lv] != bound:
                violations.append(
                    {"graph": None, "detail": f"max over n={n}, ell={lv} is {max_edges[lv]}, expected t({n},{lv + 1}) = {bound}"}
                )
            g = turan_dag(n, lv + 1)
            if len(g.edges) != bound or longest_path_length(g) != lv:
                violations.append(
                    {
                        "graph": format_edge_list(g),
                        "detail": f"turan_dag({n},{lv + 1}) should attain {bound} edges at ell={lv}",
                    }
                )
    _note_overflow(violations, overflow)
    return VerificationReport(
        claim="turan-bound",
        range=f"all forward-labeled DAGs, n <= {max_n}",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={"max_n": max_n, "observed_max": observed},
    )


# ---------------------------------------------------------------------------
# Class edge bound: edges <= t(n-ell+1, 2) + interval quantity, per class.

_CLASS_PREDICATES = {
    "extremely": is_extremely_reduced,
    "strongly": is_strongly_reduced,
    "reduced": is_reduced,
}


def _scan_class_bound(n: int, start: int, stop: int, klass: str) -> dict:
    bound = [0] * n
    for lv in range(1, n):
        bound[lv] = reduced_dag_edge_bound(n, lv)
    predicate = _CLASS_PREDICATES[klass]
    max_edges = [-1] * n
    violations: list[tuple[int, str]] = []
    violation_count = 0
    for a, b in _blocks(start, stop):
        ell, edges = _levels_chunk(n, a, b)
        # Class membership only matters for graphs that could beat the
        # running class maximum or the bound itself; everything below is
        # covered by monotonicity. The maximum only grows inside a block,
        # so its value at the block start gates a superset, which the
        # scalar test below narrows in index order. Edgeless graphs
        # (ell = 0) never pass the gate.
        gate = np.array([127] + [min(max_edges[lv], bound[lv]) for lv in range(1, n)], dtype=np.int8)
        for j in np.flatnonzero(edges > gate[ell]).tolist():
            lv, e = int(ell[j]), int(edges[j])
            if e <= max_edges[lv] and e <= bound[lv]:
                continue
            mask = a + j
            if not predicate(_dag_from_mask(n, mask)):
                continue
            if e > bound[lv]:
                violation_count += 1
                if len(violations) < _VIOLATION_SAMPLE:
                    violations.append(
                        (mask, f"class {klass!r}: {e} edges at ell={lv}, above bound {bound[lv]}")
                    )
            if e > max_edges[lv]:
                max_edges[lv] = e
    return {
        "checked": stop - start,
        "max_edges": max_edges,
        "violations": violations,
        "violation_count": violation_count,
    }


def verify_theorem_bound(
    max_n: int = 6,
    klass: str = "extremely",
    *,
    workers: int = 1,
    limit: int = MAX_SCAN_VERTICES,
) -> VerificationReport:
    """Class members satisfy the closed-form bound; generated instances attain it.

    The per-(n, ell) class maximum is recorded in ``params["tightness"]``
    together with the generated extremal instance. Each row also shows
    the alternative layer split r + s = n - ell, which produces only
    n - 1 vertices and misses the bound; the generator uses the corrected
    split r + s = n - ell + 1.
    """
    if klass not in _CLASS_PREDICATES:
        raise InvalidParamsError(f"unknown class {klass!r}; expected one of {sorted(_CLASS_PREDICATES)}")
    _require_range("theorem", max_n, limit)
    t0 = time.perf_counter()
    checked = 0
    overflow = 0
    violations: list[dict] = []
    tightness: list[dict] = []
    predicate = _CLASS_PREDICATES[klass]
    for n in range(1, max_n + 1):
        shards = _shard_ranges(dag_count(n), workers)
        parts = _map_shards(_scan_class_bound, [(n, a, b, klass) for a, b in shards], workers)
        max_edges = [-1] * n
        for part in parts:
            checked += part["checked"]
            overflow += _merge_violations(violations, part, n)
            for lv, e in enumerate(part["max_edges"]):
                if e > max_edges[lv]:
                    max_edges[lv] = e
        for lv in range(1, n):
            bound = reduced_dag_edge_bound(n, lv)
            instance = turan_dag(n, 2) if lv == 1 else extremal_for(n, lv)
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
                violations.append(
                    {"graph": None, "detail": f"class max at n={n}, ell={lv} is {max_edges[lv]}, bound is {bound}"}
                )
            if inst_edges != bound or longest_path_length(instance) != lv or not predicate(instance):
                violations.append(
                    {
                        "graph": format_edge_list(instance),
                        "detail": f"generated instance at n={n}, ell={lv} should attain {bound} edges inside the class",
                    }
                )
    _note_overflow(violations, overflow)
    return VerificationReport(
        claim=f"theorem-bound:{klass}",
        range=f"all forward-labeled DAGs, n <= {max_n}",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={
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


def _scan_implications(n: int, start: int, stop: int, path_cap: int, order_cap: int) -> dict:
    violations: list[tuple[int, str]] = []
    for mask in range(start, stop):
        g = _dag_from_mask(n, mask)
        ex = is_extremely_reduced(g)
        st = is_strongly_reduced(g, path_cap)
        rd = is_reduced(g)
        if ex and not st:
            violations.append((mask, "extremely reduced but not strongly reduced"))
        if st and not rd:
            violations.append((mask, "strongly reduced but not reduced"))
        if is_reduced_bruteforce(g, path_cap) != rd:
            violations.append((mask, f"reduced fast={rd} disagrees with brute force"))
        if is_strongly_reduced_bruteforce(g, order_cap, path_cap) != st:
            violations.append((mask, f"strongly reduced fast={st} disagrees with brute force"))
    return {
        "checked": stop - start,
        "violations": violations[:_VIOLATION_SAMPLE],
        "violation_count": len(violations),
    }


def _scan_random_agreement(
    t_start: int, t_stop: int, max_n: int, seed: int, path_cap: int, order_cap: int
) -> dict:
    violations: list[tuple[str, str]] = []
    violation_count = 0
    for t in range(t_start, t_stop):
        rng = np.random.default_rng((seed, t))
        n = int(rng.integers(2, max_n + 1))
        p = 0.05 + 0.9 * float(rng.random())
        g = random_dag(n, p, rng)
        ex = is_extremely_reduced(g)
        st = is_strongly_reduced(g, path_cap)
        rd = is_reduced(g)
        problems = []
        if ex and not st:
            problems.append("extremely but not strongly")
        if st and not rd:
            problems.append("strongly but not reduced")
        if is_reduced_bruteforce(g, path_cap) != rd:
            problems.append("reduced oracle disagrees")
        if is_strongly_reduced_bruteforce(g, order_cap, path_cap) != st:
            problems.append("strongly oracle disagrees")
        if problems:
            violation_count += 1
            if len(violations) < _VIOLATION_SAMPLE:
                violations.append((format_edge_list(g), f"trial {t}: " + "; ".join(problems)))
    return {"checked": t_stop - t_start, "violations": violations, "violation_count": violation_count}


def verify_implications(
    max_n: int = 5,
    *,
    random_trials: int = 1000,
    random_max_n: int = 8,
    seed: int = DEFAULT_SEED,
    path_cap: int = DEFAULT_PATH_CAP,
    order_cap: int = DEFAULT_ORDER_CAP,
    workers: int = 1,
    limit: int = MAX_PREDICATE_VERTICES,
) -> VerificationReport:
    """extremely => strongly => reduced, and fast == brute force, everywhere tested."""
    _require_range("implications", max_n, limit)
    if random_trials < 0:
        raise InvalidParamsError(f"implications: need random_trials >= 0, got {random_trials}")
    if random_trials and random_max_n < 2:
        raise InvalidParamsError(f"implications: need random_max_n >= 2, got {random_max_n}")
    t0 = time.perf_counter()
    checked = 0
    overflow = 0
    violations: list[dict] = []
    for n in range(1, max_n + 1):
        shards = _shard_ranges(dag_count(n), workers)
        parts = _map_shards(
            _scan_implications, [(n, a, b, path_cap, order_cap) for a, b in shards], workers
        )
        for part in parts:
            checked += part["checked"]
            overflow += _merge_violations(violations, part, n)
    if random_trials:
        shards = _shard_ranges(random_trials, workers)
        parts = _map_shards(
            _scan_random_agreement,
            [(a, b, random_max_n, seed, path_cap, order_cap) for a, b in shards],
            workers,
        )
        for part in parts:
            checked += part["checked"]
            overflow += _merge_violations(violations, part)
    _note_overflow(violations, overflow)
    return VerificationReport(
        claim="implications",
        range=f"all forward-labeled DAGs n <= {max_n}, plus {random_trials} random DAGs n <= {random_max_n}",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={
            "max_n": max_n,
            "random_trials": random_trials,
            "random_max_n": random_max_n,
            "seed": seed,
            "path_cap": path_cap,
            "order_cap": order_cap,
        },
    )


# ---------------------------------------------------------------------------
# On transitive DAGs the three predicates coincide.


def _scan_equiv(n: int, start: int, stop: int, path_cap: int) -> dict:
    pairs = pair_table(n)
    violations: list[tuple[int, str]] = []
    transitive_count = 0
    for mask in range(start, stop):
        succ = [0] * n
        mm = mask
        while mm:
            low = mm & -mm
            u, v = pairs[low.bit_length() - 1]
            succ[u] |= 1 << v
            mm ^= low
        transitive = True
        for u in range(n):
            su = succ[u]
            head = su
            while head:
                low = head & -head
                if succ[low.bit_length() - 1] & ~su:
                    transitive = False
                    break
                head ^= low
            if not transitive:
                break
        if not transitive:
            continue
        transitive_count += 1
        g = _dag_from_mask(n, mask)
        ex = is_extremely_reduced(g)
        st = is_strongly_reduced(g, path_cap)
        rd = is_reduced(g)
        if not ex == st == rd:
            violations.append((mask, f"transitive but predicates differ: extremely={ex} strongly={st} reduced={rd}"))
    return {
        "checked": stop - start,
        "transitive": transitive_count,
        "violations": violations[:_VIOLATION_SAMPLE],
        "violation_count": len(violations),
    }


def verify_equivalence_transitive(
    max_n: int = 6,
    *,
    path_cap: int = DEFAULT_PATH_CAP,
    workers: int = 1,
    limit: int = MAX_PREDICATE_VERTICES,
) -> VerificationReport:
    """On every enumerated transitive DAG the three predicates agree."""
    _require_range("equiv-transitive", max_n, limit)
    t0 = time.perf_counter()
    checked = 0
    transitive_count = 0
    overflow = 0
    violations: list[dict] = []
    for n in range(1, max_n + 1):
        shards = _shard_ranges(dag_count(n), workers)
        parts = _map_shards(_scan_equiv, [(n, a, b, path_cap) for a, b in shards], workers)
        for part in parts:
            checked += part["checked"]
            transitive_count += part["transitive"]
            overflow += _merge_violations(violations, part, n)
    _note_overflow(violations, overflow)
    return VerificationReport(
        claim="equiv-transitive",
        range=f"all forward-labeled DAGs, n <= {max_n}",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={
            "max_n": max_n,
            "transitive_graphs": transitive_count,
            "path_cap": path_cap,
        },
    )


# ---------------------------------------------------------------------------
# Transitive closure: transitivity, idempotence, monotonicity, class lifting.


def _scan_closure(n: int, start: int, stop: int, path_cap: int) -> dict:
    violations: list[tuple[int, str]] = []
    reduced_count = 0
    for mask in range(start, stop):
        g = _dag_from_mask(n, mask)
        c = transitive_closure(g)
        if not is_transitive(c):
            violations.append((mask, "closure is not transitive"))
        if not g.edges <= c.edges:
            violations.append((mask, "closure dropped an edge"))
        if transitive_closure(c).edges != c.edges:
            violations.append((mask, "closure is not idempotent"))
        if is_reduced(g):
            reduced_count += 1
            if not (
                is_reduced(c) and is_strongly_reduced(c, path_cap) and is_extremely_reduced(c)
            ):
                violations.append((mask, "closure of a reduced DAG fails a reducedness predicate"))
    return {
        "checked": stop - start,
        "reduced": reduced_count,
        "violations": violations[:_VIOLATION_SAMPLE],
        "violation_count": len(violations),
    }


def verify_closure(
    max_n: int = 6,
    *,
    path_cap: int = DEFAULT_PATH_CAP,
    workers: int = 1,
    limit: int = MAX_PREDICATE_VERTICES,
) -> VerificationReport:
    """Closure is transitive, monotone, idempotent, and lifts reducedness to all classes."""
    _require_range("closure", max_n, limit)
    t0 = time.perf_counter()
    checked = 0
    reduced_count = 0
    overflow = 0
    violations: list[dict] = []
    for n in range(1, max_n + 1):
        shards = _shard_ranges(dag_count(n), workers)
        parts = _map_shards(_scan_closure, [(n, a, b, path_cap) for a, b in shards], workers)
        for part in parts:
            checked += part["checked"]
            reduced_count += part["reduced"]
            overflow += _merge_violations(violations, part, n)
    _note_overflow(violations, overflow)
    return VerificationReport(
        claim="closure",
        range=f"all forward-labeled DAGs, n <= {max_n}",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={
            "max_n": max_n,
            "reduced_inputs": reduced_count,
            "path_cap": path_cap,
        },
    )


# ---------------------------------------------------------------------------
# Separating witnesses between the classes.


def _scan_separations(n: int, start: int, stop: int, path_cap: int) -> dict:
    first_a: int | None = None  # reduced but not strongly reduced
    first_b: int | None = None  # strongly but not extremely reduced
    for mask in range(start, stop):
        g = _dag_from_mask(n, mask)
        strong: bool | None = None
        if first_a is None and is_reduced(g):
            strong = is_strongly_reduced(g, path_cap)
            if not strong:
                first_a = mask
        if first_b is None and not is_extremely_reduced(g):
            if strong is None:
                strong = is_strongly_reduced(g, path_cap)
            if strong:
                first_b = mask
    return {"checked": stop - start, "first_a": first_a, "first_b": first_b}


def find_separations(
    max_n: int = 6,
    *,
    path_cap: int = DEFAULT_PATH_CAP,
    workers: int = 1,
    limit: int = MAX_PREDICATE_VERTICES,
) -> VerificationReport:
    """Search the enumeration for class-separating witnesses.

    Finds the first (smallest n, then smallest index) DAG that is reduced
    but not strongly reduced, and the first that is strongly but not
    extremely reduced; both exist at n = 5 and none below. The known
    5-vertex chorded-chain example is verified explicitly and must show
    up as a type-(a) witness.
    """
    _require_range("separations", max_n, limit)
    t0 = time.perf_counter()
    checked = 0
    violations: list[dict] = []
    witnesses: list[dict] = []
    found_a: tuple[int, int] | None = None
    found_b: tuple[int, int] | None = None
    for n in range(1, max_n + 1):
        shards = _shard_ranges(dag_count(n), workers)
        parts = _map_shards(_scan_separations, [(n, a, b, path_cap) for a, b in shards], workers)
        for part in parts:
            checked += part["checked"]
            if found_a is None and part["first_a"] is not None:
                found_a = (n, part["first_a"])
            if found_b is None and part["first_b"] is not None:
                found_b = (n, part["first_b"])
        if found_a is not None and found_b is not None:
            break

    chorded = Dag(5, CHORDED_CHAIN_EDGES)
    if max_n >= 5:
        if is_reduced(chorded) and not is_strongly_reduced(chorded, path_cap):
            witnesses.append(
                {
                    "kind": "reduced-not-strongly",
                    "n": 5,
                    "graph": format_edge_list(chorded),
                    "detail": "chain with chords 0->3 and 1->4; the two chord paths union to a non-path",
                }
            )
        else:
            violations.append(
                {
                    "graph": format_edge_list(chorded),
                    "detail": "chorded chain should be reduced and not strongly reduced",
                }
            )
    for kind, found in (("reduced-not-strongly", found_a), ("strongly-not-extremely", found_b)):
        if found is None:
            if max_n >= 5:
                violations.append(
                    {"graph": None, "detail": f"no {kind} witness found although one exists at n = 5"}
                )
            continue
        n, mask = found
        g = _dag_from_mask(n, mask)
        entry = {
            "kind": kind,
            "n": n,
            "index": mask,
            "graph": format_edge_list(g),
            "detail": f"first enumerated {kind} witness",
        }
        if kind == "reduced-not-strongly" and g == chorded:
            entry["detail"] += "; equals the known chorded-chain example"
            witnesses[:] = [w for w in witnesses if w["kind"] != kind]
        witnesses.append(entry)
    return VerificationReport(
        claim="separations",
        range=f"all forward-labeled DAGs, n <= {max_n} (stops once both kinds are found)",
        checked=checked,
        violations=violations,
        witnesses=witnesses,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={"max_n": max_n, "path_cap": path_cap},
    )


# ---------------------------------------------------------------------------
# Clique-free edge maximum: t(n, k) is exactly the most edges an n-vertex
# graph can carry without a clique of size k + 1.


def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    return {pair: 1 << i for i, pair in enumerate(pair_table(n))}


def _clique_edge_masks(n: int, size: int) -> list[int]:
    bit = _pair_bits(n)
    masks = []
    for sub in combinations(range(n), size):
        m = 0
        for pair in combinations(sub, 2):
            m |= bit[pair]
        masks.append(m)
    return masks


def _cover_within(cliques: list[int], budget: int, removed: int = 0) -> bool:
    """Can ``budget`` edge deletions hit every clique? Complete branching search.

    Any hitting set must delete one edge of the first untouched clique, so
    branching on its edges explores a superset of all hitting sets.
    """
    for cm in cliques:
        if not cm & removed:
            if budget == 0:
                return False
            rest = cm
            while rest:
                low = rest & -rest
                if _cover_within(cliques, budget - 1, removed | low):
                    return True
                rest ^= low
            return False
    return True


def verify_clique_bound(max_n: int = 8) -> VerificationReport:
    """t(n, k) equals the clique-free edge maximum, exhaustively for n <= max_n.

    Upper bound: a K_{k+1}-free graph with t(n, k) + 1 edges would leave a
    set of C(n, 2) - t - 1 deleted edges hitting every (k + 1)-clique of
    the complete graph; the branching search proves no such hitting set
    exists, which covers every denser graph too (subgraphs of clique-free
    graphs are clique-free). Attainment: the balanced multipartite graph
    carries t(n, k) edges, a K_k, and no K_{k+1}.
    """
    t0 = time.perf_counter()
    checked = 0
    violations: list[dict] = []
    for n in range(2, max_n + 1):
        bit = _pair_bits(n)
        for k in range(1, n + 1):
            t = turan_graph_edges(n, k)
            checked += 1
            budget = comb(n, 2) - t - 1
            if budget >= 0:
                cliques = _clique_edge_masks(n, k + 1)
                if _cover_within(cliques, budget):
                    violations.append(
                        {
                            "graph": None,
                            "detail": f"a graph with {t + 1} edges and no {k + 1}-clique exists at n={n}",
                        }
                    )
            g = turan_dag(n, k)
            mask = 0
            for pair in g.edges:
                mask |= bit[pair]
            if len(g.edges) != t:
                violations.append({"graph": format_edge_list(g), "detail": f"expected {t} edges at n={n}, k={k}"})
            if not any(cm & ~mask == 0 for cm in _clique_edge_masks(n, min(k, n))):
                violations.append({"graph": format_edge_list(g), "detail": f"no {k}-clique at n={n}, k={k}"})
            if k + 1 <= n and any(cm & ~mask == 0 for cm in _clique_edge_masks(n, k + 1)):
                violations.append({"graph": format_edge_list(g), "detail": f"unexpected {k + 1}-clique at n={n}, k={k}"})
    return VerificationReport(
        claim="clique-free-maximum",
        range=f"all graphs, n <= {max_n} (via complete hitting-set search)",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={"max_n": max_n},
    )


# ---------------------------------------------------------------------------
# Box family properties.


def verify_box_props(trials: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Transverse families give extremely reduced transitive graphs; common
    ancestor plus common descendant forces intersecting boxes; the extremal
    family reproduces the extremal graph exactly."""
    if trials < 0:
        raise InvalidParamsError(f"boxes: need trials >= 0, got {trials}")
    t0 = time.perf_counter()
    checked = 0
    overflow = 0
    violations: list[dict] = []

    for t in range(trials):
        family = random_transverse_family((seed, 0, t))
        checked += 1
        g = directed_intersection_graph(family)
        if not (is_extremely_reduced(g) and is_transitive(g)):
            if len(violations) < _VIOLATION_SAMPLE:
                violations.append(
                    {
                        "boxes": format_box_csv(family),
                        "detail": f"transverse trial {t}: graph not extremely reduced + transitive",
                    }
                )
            else:
                overflow += 1

    for t in range(trials):
        rng = np.random.default_rng((seed, 1, t))
        family = random_box_family(int(rng.integers(2, 13)), rng)
        checked += 1
        g = directed_intersection_graph(family)
        rf = reach_from_masks(g)
        rt = reach_to_masks(g)
        boxes = family.boxes
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if rt[i] & rt[j] and rf[i] & rf[j] and not boxes_intersect(boxes[i], boxes[j]):
                    if len(violations) < _VIOLATION_SAMPLE:
                        violations.append(
                            {
                                "boxes": format_box_csv(family),
                                "detail": f"general trial {t}: boxes {family.ids[i]},{family.ids[j]} share ancestor and descendant but do not intersect",
                            }
                        )
                    else:
                        overflow += 1

    extremal_checks = 0
    for r in range(1, 6):
        for l in range(2, 6):
            for s in range(0, 6):
                spec = ExtremalSpec(r=r, l=l, s=s)
                family = extremal_box_family(spec)
                checked += 1
                extremal_checks += 1
                ok, offenders = is_transverse_family(family)
                if not ok:
                    violations.append(
                        {"boxes": format_box_csv(family), "detail": f"{spec}: family not transverse: {offenders}"}
                    )
                expected = extremal_dag(spec)
                got = directed_intersection_graph(family)
                if got != expected:
                    violations.append(
                        {
                            "boxes": format_box_csv(family),
                            "detail": f"{spec}: intersection graph differs from the layered construction",
                        }
                    )
    _note_overflow(violations, overflow)
    return VerificationReport(
        claim="box-properties",
        range=f"{trials} transverse + {trials} general random families + {extremal_checks} extremal specs",
        checked=checked,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        params={"trials": trials, "seed": seed, "extremal_specs": extremal_checks},
    )


# ---------------------------------------------------------------------------
# Front door.


def verify_claim(
    claim: str,
    *,
    max_n: int | None = None,
    workers: int = 1,
    seed: int = DEFAULT_SEED,
    trials: int = 1000,
    random_trials: int = 1000,
    limit: int | None = None,
    cap: int | None = None,
    _clamp: bool = False,
) -> list[VerificationReport]:
    """Run one named claim (or ``all``); returns one report per sub-check.

    ``cap`` lowers every enumeration range (it never raises one); under
    ``all``, a shared max_n is additionally clamped to each claim's own
    ceiling instead of erroring.
    """
    if claim not in CLAIMS:
        raise UnknownClaimError(f"unknown claim {claim!r}; expected one of {', '.join(CLAIMS)}")

    def pick(default: int, ceiling: int) -> tuple[int, int]:
        n = default if max_n is None else max_n
        lim = ceiling if limit is None else limit
        if cap is not None:
            n = min(n, cap)
        if _clamp:
            n = min(n, lim)
        return n, lim

    if claim == "turan":
        n, lim = pick(7, MAX_TURAN_VERTICES)
        return [verify_turan_bound(n, workers=workers, limit=lim)]
    if claim == "theorem":
        n, lim = pick(6, MAX_SCAN_VERTICES)
        return [
            verify_theorem_bound(n, klass, workers=workers, limit=lim)
            for klass in ("extremely", "strongly", "reduced")
        ]
    if claim == "implications":
        n, lim = pick(5, MAX_PREDICATE_VERTICES)
        return [
            verify_implications(
                n, random_trials=random_trials, seed=seed, workers=workers, limit=lim
            )
        ]
    if claim == "equiv-transitive":
        n, lim = pick(6, MAX_PREDICATE_VERTICES)
        return [verify_equivalence_transitive(n, workers=workers, limit=lim)]
    if claim == "closure":
        n, lim = pick(6, MAX_PREDICATE_VERTICES)
        return [verify_closure(n, workers=workers, limit=lim)]
    if claim == "separations":
        n, lim = pick(6, MAX_PREDICATE_VERTICES)
        return [find_separations(n, workers=workers, limit=lim)]
    if claim == "boxes":
        return [verify_box_props(trials, seed)]
    reports: list[VerificationReport] = []
    for sub in ("turan", "theorem", "implications", "equiv-transitive", "closure", "separations", "boxes"):
        reports.extend(
            verify_claim(
                sub,
                max_n=max_n,
                workers=workers,
                seed=seed,
                trials=trials,
                random_trials=random_trials,
                limit=limit,
                cap=cap,
                _clamp=True,
            )
        )
    return reports
