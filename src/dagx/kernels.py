"""Whole-block numpy kernels for the exhaustive sweeps.

A block is a run start..stop-1 of enumeration indices at one n: bit i of
an index is edge bit i, the pair ``pair_table(n)[i]``. Every graph here
is forward-labeled: edges run from lower to higher vertices. Each kernel
works on one numpy row per vertex (or pair), so a block of thousands of
graphs costs a few numpy operations per vertex instead of one
Python-level graph check per index.

The level kernel follows the enumeration's colex order. With
c = C(n - 1, 2), index i at n vertices is the parent i & (2^c - 1), a
graph on vertices 0..n-2, plus the last vertex n - 1 with predecessor
set S = i >> c; a slab is a run of indices with one S. Vertex n - 1 has
no successor, so it is a sink:

* a path ending at v < n - 1 never passes through the sink, so v keeps
  its parent's level (the edge count of the longest path ending at v);
* a longest path ending at the sink is empty, or is a longest path
  ending at some u in S followed by u -> n - 1, so its level is
  ``1 + max(lev[u] for u in S)``, or 0 when S is empty;
* ell is the largest level, and the edge count is the parent's plus |S|.

So :func:`_level_rows` builds each slab from its parents' level rows: up
to 6 vertices those come from a table cached on first use, each table
built the same way from the one below; above, they are built per call
from the table one level down. No 7-vertex table is ever held.

:func:`_edge_rows` decodes a block's edge bits into successor and
predecessor rows. ``pair_table(n)`` groups the pairs by their head, so a
block's fixed high bits are the predecessor sets of its last sinks and
only the low bits are decoded. :func:`_reach_verdicts` takes the (succ,
pred) rows of any block of forward-labeled graphs: those
:func:`_edge_rows` decodes, or the reach rows it returned itself, which
the closure sweep feeds back in.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .generators import dag_count, pair_table
from .graph import bits

# Masks per kernel call, for every kernel: large enough to amortise
# numpy's per-call cost over the few hundred passes a block takes. On one
# core of a 2-core x86 box, going from 8192 to 65536 masks cut the reach
# kernel's time per mask at n = 8 by a factor of 2.7. With the level
# kernel built from sink extensions, verify_turan_bound(8) takes
# 0.7-1.1 s and verify_theorem_bound(8, k) 0.9-1.4 s per class. A block's
# work arrays take a few MB: an n = 8 sweep peaks at 32.6 MB RSS (turan)
# and 35.9 MB (theorem).
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


def _slabs(n: int, start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(S, a, b): start..stop-1 cut where its top n - 1 bits change.

    Each run has one predecessor set S of the last sink, vertex n - 1,
    and covers the parent indices a..b-1 at n - 1 vertices, in order.
    """
    c = comb(n - 1, 2)
    for s in range(start >> c, ((stop - 1) >> c) + 1):
        base = s << c
        yield s, max(start, base) - base, min(stop, base + (1 << c)) - base


def _sink_levels(n: int, start: int, stop: int, lev: np.ndarray, edges: np.ndarray) -> None:
    """Fill ``lev`` (n rows) and ``edges`` for start..stop-1 at n >= 2 vertices, slab by slab from the parents' rows.

    The rows of vertices 0..n-2 are the parent's; the sink's row is
    ``1 + max`` of the parent's rows over S, or 0 when S is empty; the
    edge count is the parent's plus |S|.
    """
    j = 0
    for s, a, b in _slabs(n, start, stop):
        cols = slice(j, j + b - a)
        _fill_levels(n - 1, a, b, lev[:-1, cols], edges[cols])
        sink = lev[-1, cols]
        sink.fill(-1)
        for u in bits(s):
            np.maximum(sink, lev[u, cols], out=sink)
        sink += 1
        edges[cols] += s.bit_count()
        j += b - a


@cache
def _level_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lev, edges) of every index at n vertices, read-only; built on first use from the table at n - 1."""
    lev = np.zeros((n, dag_count(n)), dtype=np.int8)
    edges = np.zeros(dag_count(n), dtype=np.int8)
    if n > 1:
        _sink_levels(n, 0, dag_count(n), lev, edges)
    lev.flags.writeable = edges.flags.writeable = False
    return lev, edges


def _fill_levels(n: int, start: int, stop: int, lev: np.ndarray, edges: np.ndarray) -> None:
    """Fill ``lev`` and ``edges`` as :func:`_level_rows` returns them.

    Up to n = 6 (32,768 indices) they are copied from the cached table,
    229 KB at n = 6; above, they are built from the table one level down.
    A 7-vertex table would hold 2^21 indices, 16.8 MB, and an n = 8 sweep
    needs only the 65,536 of them a block covers.
    """
    if n <= 6:
        table_lev, table_edges = _level_table(n)
        lev[...] = table_lev[:, start:stop]
        edges[...] = table_edges[start:stop]
    else:
        _sink_levels(n, start, stop, lev, edges)


def _level_rows(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(lev, edges) of every index in start..stop-1: ``lev[v]`` is the level of vertex v, the longest path ending there.

    int8 holds every level and edge count up to n = 16, past any n whose
    enumeration could finish.
    """
    lev = np.empty((n, stop - start), dtype=np.int8)
    edges = np.empty(stop - start, dtype=np.int8)
    _fill_levels(n, start, stop, lev, edges)
    return lev, edges


def _levels_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(longest path length, edge count) of every mask in start..stop-1, as int8 arrays.

    ell is the largest row of :func:`_level_rows`. By the sink recurrence
    of the module docstring, a slab costs a copy of its parents' rows and
    |S| row maxima, where a longest-path relaxation would take one pass
    per pair; the edge counts come with the rows, one add per slab.
    """
    lev, edges = _level_rows(n, start, stop)
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
