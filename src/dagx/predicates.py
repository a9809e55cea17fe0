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

The fast checks need neither paths nor orders. A DAG is reduced iff no
incomparable pair has both a common ancestor and a common descendant
(see :func:`is_reduced`), which costs O(n^2) bitmask operations; a
reduced DAG is strongly reduced iff no two edges cross without the
shortcut that would make the union of their paths a path (see
:func:`is_strongly_reduced`), which costs O(m * n). The brute-force
oracles quantify literally over paths and orders, and the two routes
are cross-checked exhaustively in the test suite.

Both oracles read their paths from one table per graph and cap, built
by :func:`path_vertex_masks` one target at a time. The strongly-reduced
oracle does not list topological orders: it walks them as a prefix tree
with one subtree per downset, checking every union of two joining paths
as each vertex is placed (see :func:`_orders_keep_paths`).
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .errors import CapExceededError, EndpointMismatchError, VertexRangeError
from .graph import (
    DEFAULT_ORDER_CAP,
    Dag,
    TopoOrder,
    _require_size,
    bits,
    reach_from_masks,
    reach_to_masks,
    topological_order,
)

PathSeq = tuple[int, ...]

DEFAULT_PATH_CAP = 100_000


def path_vertex_masks(g: Dag, v: int, w: int, cap: int = DEFAULT_PATH_CAP) -> list[int]:
    """Vertex sets of all v->w paths, as bitmasks, in the lexicographic order of the paths.

    Distinct paths have distinct vertex sets (a path visits its vertex
    set in topological order), so this is a faithful path enumeration.
    Raises :class:`~dagx.errors.CapExceededError` beyond ``cap`` paths.

    The lists come from one table per graph and cap, kept on ``g`` and
    shared by every caller; see :func:`_fill_paths`.
    """
    if not (0 <= v < g.n and 0 <= w < g.n):
        raise VertexRangeError(f"vertices ({v}, {w}) outside 0..{g.n - 1}")
    table = g._cache.get(("paths", cap))
    if table is None:
        table = g._cache[("paths", cap)] = {}
    column = table.get(w)
    if column is None:
        column = table[w] = _fill_paths(g, w, cap)
    got = column.get(v, [])
    if got is None or len(got) > cap:  # len: w's own entry at cap 0, any entry at a negative cap
        raise CapExceededError(f"more than {cap} paths from {v} to {w}")
    return list(got)


def _fill_paths(g: Dag, w: int, cap: int) -> dict[int, list[int] | None]:
    """The paths to w by source, for w and every vertex that reaches it; None for more than ``cap``.

    Sources are taken in reverse topological order: the paths from u are
    u joined to the paths from each successor x, for x ascending, which
    lists them in lexicographic order. Only w's own entry, the one-vertex
    path, ignores the cap; :func:`path_vertex_masks` checks its length.
    """
    column: dict[int, list[int] | None] = {w: [1 << w]}
    inside = reach_to_masks(g)[w] | 1 << w
    succ = g.succ_masks
    for u in reversed(g._order):
        if u == w or not inside >> u & 1:
            continue
        bit = 1 << u
        out: list[int] = []
        for x in bits(succ[u] & inside):
            sub = column[x]
            if sub is None or len(out) + len(sub) > cap:
                column[u] = None
                break
            out += [bit | m for m in sub]
        else:
            column[u] = out
    return column


def enumerate_paths(g: Dag, v: int, w: int, cap: int = DEFAULT_PATH_CAP) -> list[PathSeq]:
    """All directed paths from v to w, lexicographically ordered.

    Returns the empty list when w is unreachable; raises
    :class:`~dagx.errors.CapExceededError` beyond ``cap`` paths. Each
    path is the vertex set from :func:`path_vertex_masks` listed in
    topological order, the order in which the path visits it.

    No check in this package calls it. It, :func:`is_sequence_path` and
    :func:`ordered_union` spell out the strongly-reduced definition word
    for word; ``literal_strongly_reduced`` in ``tests/test_predicates.py``
    is written in them and checks :func:`is_strongly_reduced_bruteforce`.
    """
    order = topological_order(g)
    return [tuple(x for x in order if mask >> x & 1) for mask in path_vertex_masks(g, v, w, cap)]


def is_sequence_path(g: Dag, seq: tuple[int, ...]) -> bool:
    """True iff ``seq`` is nonempty and every consecutive pair is an edge.

    Part of the definition's vocabulary with :func:`enumerate_paths`; no
    check in this package calls it.
    """
    if not seq:
        return False
    if any(not 0 <= v < g.n for v in seq):
        return False
    return all(g.succ_masks[a] >> b & 1 for a, b in zip(seq, seq[1:]))


def ordered_union(p: PathSeq, q: PathSeq, order: TopoOrder) -> tuple[int, ...]:
    """Vertices of both paths, sorted by their position in ``order``.

    The two paths must share their endpoints; the result need not be a
    directed path. Part of the definition's vocabulary with
    :func:`enumerate_paths`; no check in this package calls it.
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


def is_transitive(g: Dag) -> bool:
    """True iff the edge set is transitively closed."""
    succ = g.succ_masks
    for su in succ:
        for v in bits(su):
            if succ[v] & ~su:
                return False
    return True


def transitive_closure(g: Dag) -> Dag:
    """The DAG with an edge for every reachable ordered pair.

    A closure of more than :data:`~dagx.graph.MAX_EDGES` edges raises
    :class:`~dagx.errors.LimitExceededError`, counted from the reach rows
    before any edge is built.
    """
    rf = reach_from_masks(g)
    _require_size(sum(row.bit_count() for row in rf), "transitive closure edges")
    return Dag(g.n, [(v, w) for v in range(g.n) for w in bits(rf[v])])


def _joined_pairs_linked(g: Dag, linked: Sequence[int]) -> bool:
    """True iff every pair x, y with a common ancestor and a common descendant has y in ``linked[x]``."""
    rf = reach_from_masks(g)
    rt = reach_to_masks(g)
    for x in range(g.n):
        ax, dx, lx = rt[x], rf[x], linked[x]
        if ax and dx:
            for y in range(x + 1, g.n):
                if ax & rt[y] and dx & rf[y] and not lx >> y & 1:
                    return False
    return True


def is_extremely_reduced(g: Dag) -> bool:
    """No non-adjacent pair has both a common ancestor and a common descendant."""
    return _joined_pairs_linked(g, [s | p for s, p in zip(g.succ_masks, g.pred_masks)])


def is_reduced(g: Dag) -> bool:
    """Fast reduced check: no incomparable pair has both a common ancestor and a common descendant.

    This is the extremely-reduced condition with "incomparable" in place
    of "non-adjacent"; it costs O(n^2) bitmask operations and needs no
    topological order. The verdict is cached on ``g``.

    Proof. (=>) If incomparable x, y had a common ancestor v and a common
    descendant w, both would lie on v->w paths, so span(v, w) would hold
    two incomparable vertices; but a span that is a directed path is a
    chain of the reachability order.

    (<=) Every vertex of span(v, w) is v, w, or has v as ancestor and w as
    descendant, so with no such pair every span is a chain, and sorting it
    by any topological order lists it along reachability. If consecutive
    vertices x ~> y of that list had no edge x->y, the first step z of an
    x->y path would lie on a v->w path strictly between x and y. So
    consecutive vertices are adjacent: the sorted span is a directed path.
    """
    flag = g._cache.get("reduced")
    if flag is None:
        rf = reach_from_masks(g)
        rt = reach_to_masks(g)
        flag = _joined_pairs_linked(g, [f | t for f, t in zip(rf, rt)])
        g._cache["reduced"] = flag
    return flag


def is_strongly_reduced(g: Dag) -> bool:
    """Fast strongly-reduced check: reduced, and no crossing edge pair without its shortcut.

    Criterion: G is strongly reduced iff G is reduced and, for every pair
    of edges p->q and a->c with p ~> a ~> q ~> c (all strict
    reachability), the edge a->q exists. As bitmasks: for each vertex a,
    no q outside ``succ[a]`` that a reaches and that reaches a successor
    of a has a predecessor in ``rt[a]``.

    Proof. (=>) Strongly reduced implies reduced: the union of any two
    v->w paths is again a v->w path, so folding all joining paths in one
    at a time leaves a single path containing every other. Given the two
    edges, the paths p ~> a -> c and p -> q ~> c both run from p to c.
    Every vertex of the first other than c is a or reaches a, and c lies
    beyond q; every vertex of the second other than p is q or is reached
    from q, and p lies before a. So under any topological order nothing
    in their union sits between a and q, and the union is a path only if
    a->q is an edge.

    (<=) Let P and Q be v->w paths whose union, sorted by a topological
    order, has consecutive vertices x < y with no edge x->y. Both on P
    would make them consecutive on P (a path visits its vertices in
    order), hence adjacent; likewise for Q. So, up to swapping the paths,
    x lies only on P and y only on Q. Then x != w has a P-successor x',
    which lies beyond y because no vertex of the union sits between x
    and y; likewise y != v has a Q-predecessor y' before x. All four
    vertices lie on v->w paths, and reducedness makes those vertices a
    chain of the reachability order, so y' ~> x ~> y ~> x' strictly:
    the edges y'->y and x->x' form the forbidden crossing with x->y
    missing.
    """
    if not is_reduced(g):
        return False
    rf = reach_from_masks(g)
    rt = reach_to_masks(g)
    succ = g.succ_masks
    pred = g.pred_masks
    for a in range(g.n):
        reaches_succ = 0
        for c in bits(succ[a]):
            reaches_succ |= rt[c]
        for q in bits(rf[a] & reaches_succ & ~succ[a]):
            if pred[q] & rt[a]:
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
    union must be a directed path each time. Whether it is depends only
    on the order and on the union's vertex set, so the pairs of
    :func:`path_vertex_masks` are folded into the distinct unions of all
    endpoint pairs first, and :func:`_orders_keep_paths` then checks
    every order against every union.

    The orders are counted once the first pair with two joining paths is
    met, and more than ``order_cap`` raises there; a graph without such a
    pair passes whatever its number of orders. A pair with more than
    ``path_cap`` paths raises too, unless the unions collected before it
    already fail.
    """
    counted = False
    unions: set[int] = set()
    rf = reach_from_masks(g)
    for v in range(g.n):
        for w in bits(rf[v]):
            try:
                masks = path_vertex_masks(g, v, w, path_cap)
            except CapExceededError:
                if unions and not _orders_keep_paths(g, unions):
                    return False
                raise
            k = len(masks)
            if k < 2:
                continue
            if not counted:
                counted = True
                if factorial(g.n) > order_cap:  # no graph has more than n! orders
                    _count_orders(g, order_cap)
            unions.update(masks[i] | masks[j] for i in range(k) for j in range(i + 1, k))
    return not unions or _orders_keep_paths(g, unions)


def _count_orders(g: Dag, cap: int) -> int:
    """Number of topological orders of ``g``; more than ``cap`` raises :class:`~dagx.errors.CapExceededError`.

    The orders below a placed set (a downset) depend on that set alone,
    so each downset is counted once. The running total adds each count
    taken from the memo, a finished order counting one; these cover
    disjoint sets of orders, so the total never exceeds the true count
    and reaches it at the end. It raises once the total passes ``cap``,
    after no more steps than listing cap + 1 orders would take.
    """
    pred = g.pred_masks
    full = (1 << g.n) - 1
    memo = {full: 1}
    total = 0

    def count(placed: int) -> int:
        nonlocal total
        got = memo.get(placed)
        if got is not None:
            total += got
            if total > cap:
                raise CapExceededError(f"more than {cap} topological orders")
            return got
        got = 0
        for x in bits(full ^ placed):
            if pred[x] & ~placed == 0:
                got += count(placed | 1 << x)
        memo[placed] = got
        return got

    return count(0)


def _orders_keep_paths(g: Dag, unions: set[int]) -> bool:
    """True iff every union in ``unions``, sorted by every topological order, is a directed path.

    The orders are walked as a prefix tree: placing x checks, for each
    union holding x, the edge from that union's last placed vertex to x.
    A failed check fails every order through that prefix.

    Subtrees are shared per placed set (a downset). Proof that this
    still checks every order: in a prefix whose checks all passed, each
    union's placed vertices are a directed path in the order placed, so
    its last placed vertex is the path's end, the reachability-maximal
    placed vertex of the union, which the placed set alone fixes. The
    checks below a prefix therefore depend on its placed set alone, and
    so does a prefix's passing: it passes iff each union's placed
    vertices form a directed path. A downset met again through another
    prefix has passed, with its whole subtree; every other downset is
    walked, so each order is checked against each union.
    """
    succ = g.succ_masks
    pred = g.pred_masks
    members = list(unions)
    holders = [[i for i, u in enumerate(members) if u >> x & 1] for x in range(g.n)]
    full = (1 << g.n) - 1
    seen = {0}

    # ok[i]: the vertices that may come next in union i, the successors of
    # its last placed vertex; any vertex before the union's first.
    def extend(placed: int, ok: list[int]) -> bool:
        for x in bits(full ^ placed):
            now = placed | 1 << x
            if pred[x] & ~placed or now in seen:
                continue
            mine = holders[x]
            for i in mine:
                if not ok[i] >> x & 1:
                    return False
            seen.add(now)
            after = ok[:]
            for i in mine:
                after[i] = succ[x]
            if not extend(now, after):
                return False
        return True

    return extend(0, [-1] * len(members))
