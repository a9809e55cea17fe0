"""Reducedness predicates, path machinery, and transitive closure.

Three nested graph classes are decided here, each with a fast check and
a literal brute-force oracle:

* reduced           -- for every reachable pair (v, w), the vertices lying
                       on v->w paths, sorted by a topological order, form
                       a single directed path;
* strongly reduced  -- the union of ANY TWO v->w paths, sorted by any
                       topological order, is again a directed path;
* extremely reduced -- no non-adjacent pair has both a common ancestor
                       and a common descendant.

The fast strongly-reduced check drops the quantification over topological
orders: restricted to a fixed vertex subset, topological orders range over
exactly the linear extensions of reachability on that subset, so the union
of two paths is a path under every order iff it is a reachability chain
whose consecutive elements are joined by edges -- equivalently, iff it is
a path under one fixed order. The brute-force oracles quantify literally
and the two routes are cross-checked exhaustively in the test suite.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapExceededError, EndpointMismatchError, VertexRangeError
from .graph import (
    DEFAULT_ORDER_CAP,
    Dag,
    TopoOrder,
    all_topological_orders,
    bits,
    reach_from_masks,
    reach_to_masks,
    topological_order,
)

PathSeq = tuple[int, ...]

DEFAULT_PATH_CAP = 100_000


def _topo_positions(g: Dag) -> tuple[int, ...] | None:
    """Position of each vertex in the canonical order; None when it is the identity."""
    if g.is_forward():
        return None
    pos = [0] * g.n
    for i, v in enumerate(topological_order(g)):
        pos[v] = i
    return tuple(pos)


def _mask_vertices(mask: int, pos: tuple[int, ...] | None) -> list[int]:
    vs = list(bits(mask))
    if pos is not None:
        vs.sort(key=pos.__getitem__)
    return vs


def _is_path_mask(g: Dag, mask: int, pos: tuple[int, ...] | None) -> bool:
    succ = g.succ_masks
    vs = _mask_vertices(mask, pos)
    prev = vs[0]
    for v in vs[1:]:
        if not succ[prev] >> v & 1:
            return False
        prev = v
    return True


def path_vertex_masks(g: Dag, v: int, w: int, cap: int = DEFAULT_PATH_CAP) -> list[int]:
    """Vertex sets of all v->w paths, as bitmasks.

    Distinct paths have distinct vertex sets (a path visits its vertex
    set in topological order), so this is a faithful path enumeration.
    """
    target = 1 << w
    allowed = reach_to_masks(g)[w] | target
    succ = g.succ_masks
    out: list[int] = []

    def walk(u: int, acc: int) -> None:
        if u == w:
            if len(out) >= cap:
                raise CapExceededError(f"more than {cap} paths from {v} to {w}")
            out.append(acc)
            return
        for x in bits(succ[u] & allowed):
            walk(x, acc | 1 << x)

    walk(v, 1 << v)
    return out


def enumerate_paths(g: Dag, v: int, w: int, cap: int = DEFAULT_PATH_CAP) -> list[PathSeq]:
    """All directed paths from v to w, lexicographically ordered.

    Returns the empty list when w is unreachable; raises
    :class:`~dagx.errors.CapExceededError` beyond ``cap`` paths.
    """
    if not (0 <= v < g.n and 0 <= w < g.n):
        raise VertexRangeError(f"vertices ({v}, {w}) outside 0..{g.n - 1}")
    target = 1 << w
    allowed = reach_to_masks(g)[w] | target
    succ = g.succ_masks
    out: list[PathSeq] = []
    prefix = [v]

    def walk(u: int) -> None:
        if u == w:
            if len(out) >= cap:
                raise CapExceededError(f"more than {cap} paths from {v} to {w}")
            out.append(tuple(prefix))
            return
        for x in bits(succ[u] & allowed):
            prefix.append(x)
            walk(x)
            prefix.pop()

    walk(v)
    return out


def is_sequence_path(g: Dag, seq: tuple[int, ...]) -> bool:
    """True iff ``seq`` is nonempty and every consecutive pair is an edge."""
    if not seq:
        return False
    if any(not 0 <= v < g.n for v in seq):
        return False
    return all(g.succ_masks[a] >> b & 1 for a, b in zip(seq, seq[1:]))


def ordered_union(p: PathSeq, q: PathSeq, order: TopoOrder) -> tuple[int, ...]:
    """Vertices of both paths, sorted by their position in ``order``.

    The two paths must share their endpoints; the result need not be a
    directed path.
    """
    if not p or not q:
        raise EndpointMismatchError("paths must be nonempty")
    if p[0] != q[0] or p[-1] != q[-1]:
        raise EndpointMismatchError(
            f"paths run {p[0]}->{p[-1]} and {q[0]}->{q[-1]}; endpoints must agree"
        )
    pos = {v: i for i, v in enumerate(order)}
    merged = set(p) | set(q)
    if not merged <= pos.keys():
        raise VertexRangeError("path vertices missing from the given order")
    return tuple(sorted(merged, key=pos.__getitem__))


def succ_masks_transitive(succ: Sequence[int]) -> bool:
    """True iff the graph with successor bitmasks ``succ`` is transitively closed."""
    for su in succ:
        for v in bits(su):
            if succ[v] & ~su:
                return False
    return True


def is_transitive(g: Dag) -> bool:
    """True iff the edge set is transitively closed."""
    return succ_masks_transitive(g.succ_masks)


def transitive_closure(g: Dag) -> Dag:
    """The DAG with an edge for every reachable ordered pair."""
    rf = reach_from_masks(g)
    edges = frozenset((v, w) for v in range(g.n) for w in bits(rf[v]))
    return Dag._unchecked(g.n, edges)


def is_extremely_reduced(g: Dag) -> bool:
    """No non-adjacent pair has both a common ancestor and a common descendant."""
    rf = reach_from_masks(g)
    rt = reach_to_masks(g)
    succ = g.succ_masks
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if succ[x] >> y & 1 or succ[y] >> x & 1:
                continue
            if rt[x] & rt[y] and rf[x] & rf[y]:
                return False
    return True


def _pair_span(g: Dag, v: int, w: int) -> int:
    """Bitmask of all vertices lying on some v->w path (endpoints included)."""
    rf = reach_from_masks(g)
    rt = reach_to_masks(g)
    return (rf[v] & rt[w]) | 1 << v | 1 << w


def is_reduced(g: Dag, order: TopoOrder | None = None) -> bool:
    """Fast reduced check over one fixed topological order.

    For every reachable pair (v, w), the vertices on v->w paths, sorted
    by the order, must form a directed path. Which topological order is
    fixed does not affect the outcome: if the sorted span is a path, its
    edges force the same total order under every topological order.
    """
    rf = reach_from_masks(g)
    rt = reach_to_masks(g)
    if order is None:
        pos = _topo_positions(g)
    else:
        inv = [0] * g.n
        for i, v in enumerate(order):
            inv[v] = i
        pos = tuple(inv)
    for v in range(g.n):
        rv = rf[v]
        for w in bits(rv):
            span = (rv & rt[w]) | 1 << v | 1 << w
            if not _is_path_mask(g, span, pos):
                return False
    return True


def is_strongly_reduced(g: Dag, cap: int = DEFAULT_PATH_CAP) -> bool:
    """Fast strongly-reduced check (order quantifier eliminated).

    Enumerates, per reachable pair, the vertex sets of all joining paths
    (at most ``cap`` each) and requires every pairwise union to be a
    directed path under the canonical order; see the module docstring
    for why one order suffices.
    """
    rf = reach_from_masks(g)
    pos = _topo_positions(g)
    checked: set[int] = set()
    for v in range(g.n):
        for w in bits(rf[v]):
            masks = path_vertex_masks(g, v, w, cap)
            k = len(masks)
            for i in range(k):
                mi = masks[i]
                for j in range(i + 1, k):
                    u = mi | masks[j]
                    if u in checked:
                        continue
                    checked.add(u)
                    if not _is_path_mask(g, u, pos):
                        return False
    return True


def is_reduced_bruteforce(g: Dag, cap: int = DEFAULT_PATH_CAP) -> bool:
    """Oracle for :func:`is_reduced`: some path dominates all others.

    Literal statement: for every reachable pair there is a path whose
    vertex set contains the vertex set of every other joining path.
    """
    rf = reach_from_masks(g)
    for v in range(g.n):
        for w in bits(rf[v]):
            masks = path_vertex_masks(g, v, w, cap)
            union = 0
            for m in masks:
                union |= m
            if union not in masks:
                return False
    return True


def is_strongly_reduced_bruteforce(
    g: Dag,
    order_cap: int = DEFAULT_ORDER_CAP,
    path_cap: int = DEFAULT_PATH_CAP,
) -> bool:
    """Oracle for :func:`is_strongly_reduced`: quantify over everything.

    Every topological order x every pair of joining paths; the ordered
    union must be a directed path each time.
    """
    orders = all_topological_orders(g, order_cap)
    rf = reach_from_masks(g)
    for v in range(g.n):
        for w in bits(rf[v]):
            paths = enumerate_paths(g, v, w, path_cap)
            k = len(paths)
            if k < 2:
                continue
            for order in orders:
                for i in range(k):
                    for j in range(i + 1, k):
                        u = ordered_union(paths[i], paths[j], order)
                        if not is_sequence_path(g, u):
                            return False
    return True
