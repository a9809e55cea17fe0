"""Directed acyclic graphs on dense integer vertices.

Vertices are the integers 0..n-1; edges are ordered pairs (u, v) with
u != v. Adjacency is kept as per-vertex integer bitmasks so that
reachability rows, the longest-path dynamic program, and the predicates
built on top of them stay cheap inside exhaustive sweeps.

A :class:`Dag` is immutable after construction and safe to share across
workers; every function in this module is pure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceededError,
    CycleError,
    DuplicateEdgeError,
    InvalidParamsError,
    LimitExceededError,
    ParseError,
    SelfLoopError,
    VertexRangeError,
)

Edge = tuple[int, int]
TopoOrder = tuple[int, ...]

DEFAULT_ORDER_CAP = 100_000

# Largest vertex count an edge-list header may declare. A Dag allocates
# per-vertex rows up front, so an unchecked header such as n 10000000000
# would exhaust memory before any edge is read.
MAX_EDGE_LIST_VERTICES = 65_536

# The most edges a generator or the transitive closure builds, and the most
# vertices any Dag has. Each constructor counts its edges (or random pair
# draws) before allocating: on one core of a 2-core x86 box, `dagx gen
# turan-dag --n 4096 --k 2` (2^22 edges) takes 12-19 s and 0.8 GB, and
# C(10^6, 2) draws would need 4 TB. A Dag and the multipartite generators
# allocate per-vertex lists first, so they count the vertices too.
MAX_EDGES = 1 << 22


def _require_size(count: int, what: str) -> None:
    """Refuse a build of ``count`` edges, pair draws or vertices above :data:`MAX_EDGES`."""
    if count > MAX_EDGES:
        raise LimitExceededError(f"{what}: {count} exceeds the limit MAX_EDGES = {MAX_EDGES}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Dag:
    """A validated directed acyclic graph; its constructor is the only way to build one.

    Construction checks integer endpoints, endpoint ranges, self-loops,
    duplicate edges and acyclicity, whether the graph is parsed or
    generated; a :class:`~dagx.errors.CycleError` carries a witness
    cycle. The same pass records the topological order that
    :func:`topological_order` returns; on a forward-labeled graph that
    is 0..n-1, kept as a ``range`` rather than n stored integers. More
    than :data:`MAX_EDGES` vertices raises
    :class:`~dagx.errors.LimitExceededError` before any row is built.
    Equality is exact labeled equality of (n, edges).
    """

    __slots__ = ("n", "edges", "succ_masks", "pred_masks", "_order", "_cache")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if not isinstance(n, int) or n < 1:
            raise InvalidParamsError(f"vertex count must be a positive integer, got {n!r}")
        _require_size(n, "vertex count")
        try:
            pairs = [(index(u), index(v)) for u, v in edges]
        except (TypeError, ValueError):
            raise VertexRangeError("each edge must be a pair of integers") from None
        succ = [0] * n
        pred = [0] * n
        forward = True
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if succ[u] >> v & 1:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            succ[u] |= 1 << v
            pred[v] |= 1 << u
            if u > v:
                forward = False
        # Exact: on a forward-labeled graph, Kahn's smallest-source-first walk yields 0..n-1.
        order = range(n) if forward else tuple(_kahn(n, succ, pred))
        if len(order) < n:
            raise CycleError(_witness_cycle(pred, (1 << n) - 1 - sum(1 << v for v in order)))
        self.n = n
        self.edges = frozenset(pairs)
        self.succ_masks = tuple(succ)
        self.pred_masks = tuple(pred)
        self._order: Sequence[int] = order
        self._cache: dict[object, object] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, edges={sorted(self.edges)})"


def _kahn(n: int, succ: list[int], pred: list[int]) -> list[int]:
    """Kahn's walk: vertices in removal order, smallest source first.

    A vertex on a cycle, or reached from one, is never a source and is
    left out.
    """
    indeg = [pred[v].bit_count() for v in range(n)]
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in bits(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return out


def _witness_cycle(pred: list[int], remaining: int) -> list[int]:
    # Every vertex of `remaining` keeps a predecessor inside `remaining`,
    # so walking predecessors must revisit a vertex.
    v = (remaining & -remaining).bit_length() - 1
    pos: dict[int, int] = {}
    walk: list[int] = []
    while v not in pos:
        pos[v] = len(walk)
        walk.append(v)
        pv = pred[v] & remaining
        v = (pv & -pv).bit_length() - 1
    cycle = walk[pos[v]:]
    cycle.reverse()
    return cycle


def topological_order(g: Dag) -> TopoOrder:
    """The order ``g`` was built with: repeatedly remove the smallest source."""
    return tuple(g._order)


def all_topological_orders(g: Dag, cap: int = DEFAULT_ORDER_CAP) -> list[TopoOrder]:
    """All linear extensions of ``g`` in lexicographic order.

    Each step places, smallest first, an unplaced vertex whose predecessors
    are all placed. Raises :class:`~dagx.errors.CapExceededError` once more
    than ``cap`` orders exist; the partial result is never returned. The
    package never calls it: it is vocabulary, the tests' oracle for the
    literal class definitions, and a function the benchmark traces.
    """
    pred = g.pred_masks
    full = (1 << g.n) - 1
    out: list[TopoOrder] = []

    def extend(prefix: TopoOrder, placed: int) -> None:
        if placed == full:
            if len(out) >= cap:
                raise CapExceededError(f"more than {cap} topological orders")
            out.append(prefix)
            return
        for v in bits(full ^ placed):
            if pred[v] & ~placed == 0:
                extend(prefix + (v,), placed | 1 << v)

    extend((), 0)
    return out


def levels(g: Dag) -> tuple[int, ...]:
    """Per-vertex level: the edge count of the longest path ending there."""
    lev = g._cache.get("levels")
    if lev is None:
        arr = [0] * g.n
        for v in g._order:
            best = -1
            for u in bits(g.pred_masks[v]):
                if arr[u] > best:
                    best = arr[u]
            arr[v] = best + 1
        lev = tuple(arr)
        g._cache["levels"] = lev
    return lev


def longest_path_length(g: Dag) -> int:
    """Length (edge count) of the longest directed path in ``g``."""
    return max(levels(g))


@dataclass(frozen=True)
class LevelPartition:
    """Partition of the vertices by level, V_0..V_ell."""

    levels: tuple[frozenset[int], ...]
    ell: int


def level_partition(g: Dag) -> LevelPartition:
    lev = levels(g)
    ell = max(lev)
    parts = [set() for _ in range(ell + 1)]
    for v, k in enumerate(lev):
        parts[k].add(v)
    return LevelPartition(tuple(frozenset(p) for p in parts), ell)


def _fill_rows(n: int, order: Iterable[int], adj: tuple[int, ...]) -> tuple[int, ...]:
    """Row v = ``adj[v]`` joined with the rows of its members; ``order`` visits each member before v."""
    rows = [0] * n
    for v in order:
        r = adj[v]
        for u in bits(adj[v]):
            r |= rows[u]
        rows[v] = r
    return tuple(rows)


def reach_from_masks(g: Dag) -> tuple[int, ...]:
    """Row v = bitmask of vertices reachable from v by a path of length >= 1."""
    rf = g._cache.get("reach_from")
    if rf is None:
        rf = _fill_rows(g.n, reversed(g._order), g.succ_masks)
        g._cache["reach_from"] = rf
    return rf


def reach_to_masks(g: Dag) -> tuple[int, ...]:
    """Row v = bitmask of vertices that reach v by a path of length >= 1."""
    rt = g._cache.get("reach_to")
    if rt is None:
        rt = _fill_rows(g.n, g._order, g.pred_masks)
        g._cache["reach_to"] = rt
    return rt


def reachability(g: Dag) -> list[list[bool]]:
    """Boolean matrix: entry [v][w] iff a directed path v -> w exists."""
    rf = reach_from_masks(g)
    return [[bool(rf[v] >> w & 1) for w in range(g.n)] for v in range(g.n)]


def ancestors(g: Dag, v: int) -> set[int]:
    """Vertices with a directed path to ``v`` (``v`` itself excluded)."""
    return set(bits(reach_to_masks(g)[v]))


def descendants(g: Dag, v: int) -> set[int]:
    """Vertices reachable from ``v`` (``v`` itself excluded)."""
    return set(bits(reach_from_masks(g)[v]))


def sources(g: Dag) -> set[int]:
    return {v for v in range(g.n) if g.pred_masks[v] == 0}


def sinks(g: Dag) -> set[int]:
    return {v for v in range(g.n) if g.succ_masks[v] == 0}


def parse_edge_list(text: str) -> Dag:
    """Parse the edge-list text format.

    First significant line is ``n <count>``, then one ``u v`` pair per
    line, 0-indexed, whitespace separated. ``#`` starts a comment line.
    A header above :data:`MAX_EDGE_LIST_VERTICES` is rejected before
    anything is allocated.
    """
    n: int | None = None
    pairs: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ParseError(f"expected header 'n <count>', got {line!r}", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"vertex count is not an integer: {fields[1]!r}", lineno) from None
            if n > MAX_EDGE_LIST_VERTICES:
                raise ParseError(f"vertex count {n} exceeds the limit {MAX_EDGE_LIST_VERTICES}", lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(f"edge endpoints are not integers: {line!r}", lineno) from None
    if n is None:
        raise ParseError("missing 'n <count>' header")
    return Dag(n, pairs)


def format_edge_list(g: Dag) -> str:
    """Serialize ``g`` in the edge-list text format (edges sorted)."""
    return "\n".join([f"n {g.n}", *(f"{u} {v}" for u, v in sorted(g.edges))]) + "\n"
