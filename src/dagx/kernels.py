"""Whole-block numpy kernels for the exhaustive sweeps.

Every graph here is forward-labeled (edges run from lower to higher
vertices) and named by its enumeration index at n vertices. Each kernel
works on one numpy row per vertex and one column per index, so a block
of thousands of graphs costs a few numpy operations per vertex instead
of one Python-level graph check per index.

The enumeration lists the pairs in colex order, so pair (u, v), u < v,
is bit C(v, 2) + u of an index: :func:`_pred_rows` reads the
predecessor rows off any array of indices with one mask and shift per
vertex. They fix the graph, and :func:`_reach_verdicts` takes them
alone, or the rt rows it returned itself: those are the predecessor
rows of the transitive closure, which the closure sweep feeds back in.

The level rows of a run start..stop-1 of indices come from a sink
recurrence. With c = C(n - 1, 2), index i at n vertices is the parent
i & (2^c - 1), a graph on vertices 0..n-2, plus the last vertex n - 1
with predecessor set S = i >> c; a slab is a run of indices with one S.
Vertex n - 1 has no successor, so it is a sink. A path ending at
v < n - 1 never passes through the sink, so v keeps its parent's level
(the edge count of the longest path ending at v); a longest path ending
at the sink is empty, or is one ending at some u in S followed by
u -> n - 1, so the sink's level is ``1 + max(lev[u] for u in S)``, or 0
when S is empty; the edge count is the parent's plus |S|. So
:func:`_sink_rows` builds each slab from its parents' rows: up to the n
whose table of every index fits in ``_TABLE_BYTES``, those come from a
table cached on first use, each table built the same way from the one
below; above, they are built per call from the rows one level down.
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
# kernel's time per mask at n = 8 by a factor of 2.7. With level rows from
# sink extensions and predecessor rows decoded for the gated masks only,
# verify_turan_bound(8) takes about 0.6 s and verify_theorem_bound(8, k)
# about 0.75 s per class. A block's work arrays take a few MB: an n = 8
# sweep peaks at 32.7 MB RSS (turan) and 32.9 MB (theorem).
_BLOCK = 65536

# The largest level table kept for one n: n + 1 bytes per index, so
# tables up to n = 6 (229 KB). A 7-vertex table would hold 16.8 MB.
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


def _table_fits(n: int) -> bool:
    """Whether the level rows of every index at n vertices fit in ``_TABLE_BYTES``."""
    return (n + 1) * dag_count(n) <= _TABLE_BYTES


@cache
def _table(n: int) -> np.ndarray:
    """The level rows of every index at n vertices, read-only; built on first use from the table at n - 1."""
    rows = np.zeros((2, 1), dtype=np.int8) if n == 1 else _sink_rows(n, 0, dag_count(n))
    rows.flags.writeable = False
    return rows


def _sink_rows(n: int, start: int, stop: int, rows: np.ndarray | None = None) -> np.ndarray:
    """The level rows of start..stop-1 at n >= 2 vertices, built slab by slab from the parents' rows.

    They are n + 1 int8 rows, the edge count and then ``lev[v]`` (int8
    holds both up to n = 16, past any n whose enumeration could finish),
    written into ``rows`` when given. A parent's rows are all but the
    last, so a slab's parents fill ``rows[:-1]``.
    """
    if rows is None:
        rows = np.empty((n + 1, stop - start), dtype=np.int8)
    j = 0
    for s, a, b in _slabs(n, start, stop):
        slab = rows[:, j : j + b - a]
        if _table_fits(n - 1):
            slab[:-1] = _table(n - 1)[:, a:b]
        else:
            _sink_rows(n - 1, a, b, slab[:-1])
        sink = slab[-1]
        sink.fill(-1)
        for u in bits(s):
            np.maximum(sink, slab[1 + u], out=sink)
        sink += 1
        slab[0] += s.bit_count()
        j += b - a
    return rows


def _rows(n: int, start: int, stop: int) -> np.ndarray:
    """The level rows of start..stop-1 at n vertices: read-only views of the table where it fits, else built."""
    return _table(n)[:, start:stop] if _table_fits(n) else _sink_rows(n, start, stop)


def _levels_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(longest path length, edge count) of every mask in start..stop-1, as int8 arrays.

    ell is the largest ``lev`` row. By the sink recurrence of the module
    docstring, a slab costs a copy of its parents' rows and |S| row
    maxima, where a longest-path relaxation would take one pass per pair.
    """
    rows = _rows(n, start, stop)
    return rows[1:].max(axis=0), rows[0].copy()


def _pred_rows(n: int, index: np.ndarray) -> np.ndarray:
    """Row v holds v's predecessor set for each enumeration index at n vertices in the integer array ``index``.

    Pair (u, v) is bit C(v, 2) + u of an index, so the set is the v bits
    from C(v, 2) on: each row takes the low v bits of the remaining index
    and then shifts them out. The indices are copied into the narrowest
    unsigned dtype that holds C(n, 2) bits and every count and mask is a
    Python int, so the arithmetic never mixes signed and unsigned
    operands on any supported numpy. On one core of a 2-core x86 box this
    decodes a 65,536-index block at n = 7 in about 0.15 ms; the same
    shifts on the int64 indices take about 0.6 ms.
    """
    pred = np.empty((n, index.size), dtype=_row_dtype(n))
    rest = index.astype(_row_dtype(comb(n, 2)))
    for v in range(n):
        np.bitwise_and(rest, (1 << v) - 1, out=pred[v], casting="unsafe")
        rest >>= v
    return pred


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


def _reach_verdicts(pred: np.ndarray) -> ReachVerdicts:
    r"""Reach rows and the four class verdicts of the graphs whose predecessor rows are ``pred``.

    Each rule, with the reason it holds:

    * ``rt[v]`` is ``pred[v]`` joined with ``rt[u]`` for each u in
      ``pred[v]``, filled for v ascending: a vertex reaches v exactly
      when it is a predecessor u of v or reaches one, and every such u is
      below v, so its row is final.
    * ``rf`` is filled for v descending: each u in ``pred[v]`` gains
      ``rf[v] | {v}``. u reaches w exactly when w is a successor v of u
      or is reached from one. Every successor of v lies above v, so when
      v is visited it has already passed its row to ``rf[v]``, which is
      final.
    * transitive: every edge x -> y has ``pred[x]`` inside ``pred[y]``.
      A graph is transitive exactly when each two-edge path u -> x -> y
      has the edge u -> y, that is, when each u in ``pred[x]`` is in
      ``pred[y]`` (:func:`dagx.predicates.is_transitive` states the same
      rule on successor sets).
    * reduced and extremely reduced: every pair x < y with a common
      ancestor and a common descendant is comparable (y in ``rf[x]``),
      respectively adjacent (x in ``pred[y]``): the pair rule of
      :func:`dagx.predicates._joined_pairs_linked`.
    * strongly reduced: reduced, and for every q, no vertex a in
      ``rt[q] \ pred[q]`` that some predecessor of q reaches has a
      successor c in ``rf[q]``. The crossing test of
      :func:`dagx.predicates.is_strongly_reduced` forbids exactly the
      quadruples (p, q, a, c) with edges p -> q and a -> c, p reaching a,
      a reaching q, q reaching c, and no edge a -> q. It groups them by
      a; grouped by q, a is in ``rt[q] \ pred[q]``, a is in ``rf[p]``
      for some p in ``pred[q]``, and a is in ``pred[c]`` for some c in
      ``rf[q]``, which is the test here.
    """
    n, size = pred.shape
    rt = pred.copy()
    for v in range(n):
        for u in range(v):
            rt[v] |= rt[u] * _bit(pred[v], u)
    rf = np.zeros_like(pred)
    for v in range(n - 1, 0, -1):
        down = rf[v] | pred.dtype.type(1 << v)
        for u in range(v):
            rf[u] |= down * _bit(pred[v], u)

    transitive = np.ones(size, dtype=bool)
    reduced = np.ones(size, dtype=bool)
    extremely = np.ones(size, dtype=bool)
    for x in range(n):
        for y in range(x + 1, n):
            edge = _bit(pred[y], x) != 0
            transitive &= ~edge | (pred[x] & ~pred[y] == 0)
            joined = (rt[x] & rt[y] != 0) & (rf[x] & rf[y] != 0)
            reduced &= ~joined | (_bit(rf[x], y) != 0)
            extremely &= ~joined | edge

    strongly = reduced.copy()
    for q in range(n):
        reached = np.zeros_like(pred[q])
        for p in range(q):
            reached |= rf[p] * _bit(pred[q], p)
        crossing = rt[q] & ~pred[q] & reached
        for c in range(q + 1, n):
            strongly &= (crossing & pred[c] == 0) | (_bit(rf[q], c) == 0)
    return ReachVerdicts(rf, rt, transitive, reduced, strongly, extremely)
