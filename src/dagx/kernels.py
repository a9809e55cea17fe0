"""Whole-block numpy kernels for the exhaustive sweeps.

A block is a run start..stop-1 of enumeration indices at one n: bit i of
an index is edge bit i, the pair ``pair_table(n)[i]``. That table groups
the pairs by their head, so a block's fixed high bits are the predecessor
sets of its last sinks. Each kernel decodes the block's edge bits once
and then works on one numpy row per vertex (or pair), so a block of
thousands of graphs costs O(n^2) numpy operations instead of one
Python-level graph check per index. Every graph here is forward-labeled:
edges run from lower to higher vertices.

:func:`_box_graphs` feeds the reach kernel from geometry instead: the
directed intersection graphs of a block of random box families, each
relabeled by box width into a forward-labeled graph.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .generators import pair_table

# Masks per kernel call, for every kernel: large enough to amortise
# numpy's per-call cost over the few hundred passes a block takes. On one
# core of a 2-core x86 box, going from 8192 to 65536 masks cut the reach
# kernel's time per mask at n = 8 by a factor of 2.7 and
# verify_theorem_bound(8, k) from 7.9-9.8 s to 5.0-6.1 s per class;
# verify_turan_bound(8) takes 4.2-4.6 s. A block's work arrays take a few
# MB: the peak RSS of an n = 8 sweep rose from 31.9 to 35.7 MB.
_BLOCK = 65536


def _blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The runs of at most ``_BLOCK`` masks that cover start..stop-1, in order."""
    for a in range(start, stop, _BLOCK):
        yield a, min(a + _BLOCK, stop)


def _edge_bits(n: int, start: int, stop: int) -> tuple[int, np.ndarray]:
    """(k, bit): ``bit[i]`` holds edge bit i (0 or 1, uint8) of every index in start..stop-1, for i < k.

    Bits above the highest bit in which start and stop - 1 differ are the
    same for the whole block, so only the low k are decoded; a pair
    i >= k, an edge into a late sink, keeps the bit ``start >> i & 1``.
    """
    size = stop - start
    k = min(len(pair_table(n)), (start ^ (stop - 1)).bit_length())
    raw = np.arange(start, stop, dtype="<u8").view(np.uint8).reshape(size, 8)[:, : -(-k // 8)]
    byte = np.ascontiguousarray(raw.T)
    bit = np.empty((k, size), dtype=np.uint8)
    for i in range(k):
        np.right_shift(byte[i >> 3], np.uint8(i & 7), out=bit[i])
        np.bitwise_and(bit[i], np.uint8(1), out=bit[i])
    return k, bit


def _levels_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(longest path length, edge count) of every mask in start..stop-1, as int8 arrays.

    ``pair_table(n)`` groups the pairs by their head, so every edge into u comes
    before any edge out of u, and ``lev[u]`` is final when pair (u, v) relaxes
    ``lev[v] = max(lev[v], bit * (lev[u] + 1))``; pairs whose bit is fixed across
    the block, edges into its last sinks, are skipped or relaxed unconditionally.
    int8 holds every level and edge count up to n = 16, past any n whose
    enumeration could finish.
    """
    k, bit = _edge_bits(n, start, stop)
    bit = bit.view(np.int8)
    size = stop - start
    lev = np.zeros((n, size), dtype=np.int8)
    step = np.empty(size, dtype=np.int8)
    for i, (u, v) in enumerate(pair_table(n)):
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


def _row_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype holding an n-bit vertex set: uint8 up to n = 8, wider above."""
    return np.min_scalar_type((1 << n) - 1)


def _edge_rows(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(succ, pred): the successor and predecessor sets of every vertex, one row per vertex.

    Row v holds, for each index in start..stop-1, the bitmask of v's
    successors (or predecessors) in that graph.
    """
    k, bit = _edge_bits(n, start, stop)
    dtype = _row_dtype(n)
    succ = np.zeros((n, stop - start), dtype=dtype)
    pred = np.zeros_like(succ)
    one = [dtype.type(1 << v) for v in range(n)]
    for i, (u, v) in enumerate(pair_table(n)):
        if i < k:
            b = bit[i].astype(dtype, copy=False)
            succ[u] |= b * one[v]
            pred[v] |= b * one[u]
        elif start >> i & 1:
            succ[u] |= one[v]
            pred[v] |= one[u]
    return succ, pred


class ReachVerdicts(NamedTuple):
    """Reach rows and class verdicts of a block of graphs, one column per graph."""

    rf: np.ndarray  # rf[v]: the vertices v reaches (strictly)
    rt: np.ndarray  # rt[v]: the vertices that reach v (strictly)
    transitive: np.ndarray
    reduced: np.ndarray
    strongly: np.ndarray
    extremely: np.ndarray


def _bit(rows: np.ndarray, v: int) -> np.ndarray:
    """Bit v of every entry of ``rows``, as 0/1 in the rows' dtype."""
    return (rows >> v) & 1


def _reach_verdicts(succ: np.ndarray, pred: np.ndarray) -> ReachVerdicts:
    """Reach rows of the graphs given by (succ, pred) rows, and their four class verdicts.

    ``rf[v] |= rf[u]`` for each successor u > v fills rf for v descending,
    and ``rt`` fills the same way for v ascending. From the rows:

    * transitive: every edge u -> v has ``succ[v]`` inside ``succ[u]``
      (as :func:`dagx.predicates.is_transitive`);
    * reduced and extremely reduced: every pair x < y with a common
      ancestor and a common descendant is comparable (y in ``rf[x]``),
      respectively adjacent (y in ``succ[x]``), the pair rule of
      :func:`dagx.predicates._joined_pairs_linked`;
    * strongly reduced: reduced, and no vertex a has a non-successor q
      that a reaches, that reaches a successor of a, and that has a
      predecessor in ``rt[a]``: the crossing test of
      :func:`dagx.predicates.is_strongly_reduced`.
    """
    n, size = succ.shape
    rf = succ.copy()
    rt = pred.copy()
    for v in range(n - 1, -1, -1):
        for u in range(v + 1, n):
            rf[v] |= rf[u] * _bit(succ[v], u)
    for v in range(n):
        for u in range(v):
            rt[v] |= rt[u] * _bit(pred[v], u)

    transitive = np.ones(size, dtype=bool)
    reduced = np.ones(size, dtype=bool)
    extremely = np.ones(size, dtype=bool)
    for x in range(n):
        for y in range(x + 1, n):
            edge = _bit(succ[x], y) != 0
            transitive &= ~edge | (succ[y] & ~succ[x] == 0)
            joined = (rt[x] & rt[y] != 0) & (rf[x] & rf[y] != 0)
            reduced &= ~joined | (_bit(rf[x], y) != 0)
            extremely &= ~joined | edge

    strongly = reduced.copy()
    for a in range(n):
        reaches_succ = np.zeros_like(succ[a])
        for c in range(a + 1, n):
            reaches_succ |= rt[c] * _bit(succ[a], c)
        crossing = rf[a] & reaches_succ & ~succ[a]
        for q in range(a + 1, n):
            strongly &= (_bit(crossing, q) == 0) | (pred[q] & rt[a] == 0)
    return ReachVerdicts(rf, rt, transitive, reduced, strongly, extremely)


class BoxGraphs(NamedTuple):
    """The directed intersection graphs of a block of box families, one column per family.

    Vertex v of family t's graph is its box ``order[t, v]``; the first
    ``sizes[t]`` vertices are its boxes and the rest padding.
    """

    order: np.ndarray
    sizes: np.ndarray
    succ: np.ndarray
    pred: np.ndarray
    meet: np.ndarray  # meet[v]: the vertices whose boxes intersect v's (v itself included)


def _box_graphs(families: list[np.ndarray]) -> BoxGraphs:
    """The (succ, pred) rows of each family's directed intersection graph, and its meet rows.

    Family t is an integer array of rows (ix_lo, ix_hi, jy_lo, jy_hi),
    on one grid per family as :func:`dagx.boxes._integer_rows` gives
    them. The families are padded to k boxes, the size of the largest,
    and each is relabeled by horizontal width with a stable sort, the
    padding placed last.

    The relabeling is a topological order. An edge i -> j puts i's
    horizontal interval strictly inside j's, so i is strictly narrower,
    and width strictly grows along every edge; boxes of equal width are
    never adjacent. The graphs are therefore forward-labeled, as
    :func:`_reach_verdicts` needs. Padding vertices nest with nothing and
    meet nothing, so they are isolated: they change no class verdict and
    join no pair.
    """
    sizes = np.array([len(rows) for rows in families])
    size, k = len(families), int(sizes.max())
    coords = np.zeros((size, k, 4), dtype=np.int64)
    for t, rows in enumerate(families):
        coords[t, : len(rows)] = rows
    real = np.arange(k) < sizes[:, None]
    width = np.where(real, coords[:, :, 1] - coords[:, :, 0], np.iinfo(np.int64).max)
    order = np.argsort(width, axis=1, kind="stable")
    xl, xh, yl, yh = np.moveaxis(np.take_along_axis(coords, order[:, :, None], axis=1), 2, 0)
    # [:, :, None] is vertex a, [:, None, :] vertex b; padding stays last, so ``real`` still marks the boxes.
    both = real[:, :, None] & real[:, None, :]
    a, b = (slice(None), slice(None), None), (slice(None), None, slice(None))
    nest = both & (xl[b] < xl[a]) & (xh[a] < xh[b]) & (yl[a] < yl[b]) & (yh[b] < yh[a])
    meet = both & (xl[a] <= xh[b]) & (xl[b] <= xh[a]) & (yl[a] <= yh[b]) & (yl[b] <= yh[a])
    dtype = _row_dtype(k)
    weight = (1 << np.arange(k)).astype(dtype)

    def rows(relation: np.ndarray) -> np.ndarray:
        # Row a of the result is the bitmask of the b with relation[t, a, b], one column per family.
        return np.ascontiguousarray(np.bitwise_or.reduce(relation * weight, axis=2).T)

    return BoxGraphs(order, sizes, rows(nest), rows(nest.transpose(0, 2, 1)), rows(meet))
