"""Whole-block numpy kernels for the exhaustive sweeps.

A block is a run start..stop-1 of enumeration indices at one n. Every
graph here is forward-labeled: edges run from lower to higher vertices.
Each kernel works on one numpy row per vertex (or pair), so a block of
thousands of graphs costs a few numpy operations per vertex instead of
one Python-level graph check per index.

Both row kinds follow the enumeration's colex order. With
c = C(n - 1, 2), index i at n vertices is the parent i & (2^c - 1), a
graph on vertices 0..n-2, plus the last vertex n - 1 with predecessor
set S = i >> c; a slab is a run of indices with one S. Vertex n - 1 has
no successor, so it is a sink, and a slab's rows are its parents' rows
plus the sink's:

* levels: a path ending at v < n - 1 never passes through the sink, so
  v keeps its parent's level (the edge count of the longest path ending
  at v); a longest path ending at the sink is empty, or is one ending at
  some u in S followed by u -> n - 1, so the sink's level is
  ``1 + max(lev[u] for u in S)``, or 0 when S is empty; the edge count
  is the parent's plus |S|;
* edges: the sink's successor set is empty and its predecessor set is
  S, and each u in S gains the successor n - 1.

So :func:`_sink_rows` builds each slab from its parents' rows: up to
the n whose table of every index fits in ``_TABLE_BYTES``, those come
from a table cached on first use, each table built the same way from
the one below; above, they are built per call from the rows one level
down. :func:`_reach_verdicts` takes the (succ, pred) rows of any block:
those :func:`_edge_rows` returns, or the reach rows it returned itself,
which the closure sweep feeds back in.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .generators import dag_count
from .graph import bits

# Masks per kernel call, for every kernel: large enough to amortise
# numpy's per-call cost over the few hundred passes a block takes. On one
# core of a 2-core x86 box, going from 8192 to 65536 masks cut the reach
# kernel's time per mask at n = 8 by a factor of 2.7. With both row kinds
# built from sink extensions, verify_turan_bound(8) takes about 0.65 s and
# verify_theorem_bound(8, k) about 0.8 s per class. A block's work arrays
# take a few MB: an n = 8 sweep peaks at 32.5 MB RSS (turan) and 34.4 MB
# (theorem).
_BLOCK = 65536

# The largest table a row kind keeps for one n: levels keep tables up to
# n = 6 (n + 1 bytes per index, 229 KB) and edges up to n = 5 (2n bytes,
# 10 KB). A 7-vertex level table would hold 16.8 MB; a 6-vertex edge
# table would add 393 KB to every sweep's peak RSS to save a few cheap
# 1024-index slabs per block.
_TABLE_BYTES = 1 << 18


def _blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The runs of at most ``_BLOCK`` masks that cover start..stop-1, in order."""
    for a in range(start, stop, _BLOCK):
        yield a, min(a + _BLOCK, stop)


def _slabs(n: int, start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(S, a, b): start..stop-1 cut where its top n - 1 bits change.

    Each run has one predecessor set S of the last sink, vertex n - 1,
    and covers the parent indices a..b-1 at n - 1 vertices, in order.
    """
    c = comb(n - 1, 2)
    for s in range(start >> c, ((stop - 1) >> c) + 1):
        base = s << c
        yield s, max(start, base) - base, min(stop, base + (1 << c)) - base


def _row_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype holding an n-bit vertex set: uint8 up to n = 8, wider above."""
    return np.min_scalar_type((1 << n) - 1)


def _empty(kind: str, n: int, size: int) -> np.ndarray:
    """Unfilled rows of ``kind`` for ``size`` indices at n vertices.

    "levels" are n + 1 int8 rows, the edge count and then ``lev[v]``
    (int8 holds both up to n = 16, past any n whose enumeration could
    finish); "edges" are n pairs of rows (``succ[v]``, ``pred[v]``). A
    parent's rows are all but the last (pair), so a slab's parents fill
    ``rows[:-1]``.
    """
    if kind == "levels":
        return np.empty((n + 1, size), dtype=np.int8)
    return np.empty((n, 2, size), dtype=_row_dtype(n))


@cache
def _table_fits(kind: str, n: int) -> bool:
    """Whether the ``kind`` rows of every index at n vertices fit in ``_TABLE_BYTES``."""
    return _empty(kind, n, 1).nbytes * dag_count(n) <= _TABLE_BYTES


@cache
def _table(kind: str, n: int) -> np.ndarray:
    """The ``kind`` rows of every index at n vertices, read-only; built on first use from the table at n - 1."""
    rows = _empty(kind, n, dag_count(n))
    if n == 1:
        rows.fill(0)
    else:
        _sink_rows(kind, n, 0, dag_count(n), rows)
    rows.flags.writeable = False
    return rows


def _sink_rows(kind: str, n: int, start: int, stop: int, rows: np.ndarray) -> np.ndarray:
    """Fill and return ``rows``, the ``kind`` rows of start..stop-1 at n >= 2 vertices, slab by slab from the parents' rows."""
    j = 0
    for s, a, b in _slabs(n, start, stop):
        slab = rows[..., j : j + b - a]
        if _table_fits(kind, n - 1):
            slab[:-1] = _table(kind, n - 1)[..., a:b]
        else:
            _sink_rows(kind, n - 1, a, b, slab[:-1])
        if kind == "levels":
            sink = slab[-1]
            sink.fill(-1)
            for u in bits(s):
                np.maximum(sink, slab[1 + u], out=sink)
            sink += 1
            slab[0] += s.bit_count()
        else:
            slab[-1, 0] = 0
            slab[-1, 1] = s
            for u in bits(s):
                slab[u, 0] |= slab.dtype.type(1 << (n - 1))
        j += b - a
    return rows


def _rows(kind: str, n: int, start: int, stop: int) -> np.ndarray:
    """The ``kind`` rows of start..stop-1 at n vertices: read-only views of the table where it fits, else built."""
    if _table_fits(kind, n):
        return _table(kind, n)[..., start:stop]
    return _sink_rows(kind, n, start, stop, _empty(kind, n, stop - start))


def _levels_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(longest path length, edge count) of every mask in start..stop-1, as int8 arrays.

    ell is the largest ``lev`` row. By the sink recurrence of the module
    docstring, a slab costs a copy of its parents' rows and |S| row
    maxima, where a longest-path relaxation would take one pass per pair.
    Above the table ceiling the rows are built and reduced one slab of
    ``dag_count(n - 1)`` indices at a time: at n = 7 a whole block's rows,
    512 KB, would not fit the heap the smaller edge rows of the theorem
    scan leave behind, and a turan scan after it read about 0.3 MB more
    peak RSS.
    """
    ell, edges = np.empty((2, stop - start), dtype=np.int8)
    step = dag_count(n if _table_fits("levels", n) else n - 1)
    for a in range(start, stop, step):
        b = min(a + step, stop)
        rows = _rows("levels", n, a, b)
        rows[1:].max(axis=0, out=ell[a - start : b - start])
        edges[a - start : b - start] = rows[0]
    return ell, edges


def _edge_rows(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(succ, pred): row v holds, for each index in start..stop-1, the bitmask of v's successors (predecessors)."""
    rows = _rows("edges", n, start, stop)
    return rows[:, 0], rows[:, 1]


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
