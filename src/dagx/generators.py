"""Constructors for extremal, exhaustive, and random DAG instances.

Enumeration is over labeled forward edge sets: every subset of
{(i, j) : i < j} is one graph, indexed by the integer whose bits select
pairs from :func:`pair_table`. Every DAG is isomorphic to at least one
enumerated graph (relabel along a topological order), so universal
isomorphism-invariant claims are fully covered without deduplication.
The table is in colex order: an n-vertex index holds the (n - 1)-vertex
graph in its low C(n - 1, 2) bits and the predecessor set of the last
sink, vertex n - 1, in its top n - 1 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, count, product
from math import comb
from typing import Iterator

import numpy as np

from .bounds import _check_n_ell, balanced_parts
from .errors import InvalidParamsError, LimitExceededError
from .graph import Dag, Edge, _require_size, bits

# The enumeration ceiling for every exhaustive sweep: n = 8 has 2^28
# graphs, which the kernels sweep on one core of a 2-core x86 box in
# 0.6 s (turan) to 45 s (closure); n = 9 has 2^36, 256 times as many.
MAX_ENUM_VERTICES = 8


@cache
def pair_table(n: int) -> tuple[Edge, ...]:
    """All pairs (u, v), u < v < n, in colex order: ``pair_table(n - 1)``, then each (u, n - 1); bit i <-> pair i."""
    return tuple((u, v) for v in range(n) for u in range(v))


def dag_count(n: int) -> int:
    """Number of enumerated graphs on n >= 1 vertices: 2^C(n, 2)."""
    if n < 1:
        raise InvalidParamsError(f"vertex count must be >= 1, got {n}")
    return 1 << comb(n, 2)


def dag_from_index(n: int, index: int) -> Dag:
    """The enumerated graph on n vertices whose edge set is the bit pattern of ``index``.

    The only index-to-graph builder; the graph goes through the validating
    :class:`Dag` constructor. The tables nest, so the pairs come from the
    smallest table that covers the index's bits: neither the range check
    nor the table read grows with n.
    """
    width = index.bit_length()
    if index < 0 or width > comb(max(n, 0), 2):  # n < 1 fails in the Dag constructor
        raise InvalidParamsError(f"index {index} outside 0..2^C({n}, 2) - 1")
    pairs = pair_table(next(m for m in count(1) if comb(m, 2) >= width))
    return Dag(n, [pairs[i] for i in bits(index)])


def enumerate_dags(n: int) -> Iterator[Dag]:
    """Stream every forward-labeled DAG on n vertices, in index order; n above
    ``MAX_ENUM_VERTICES`` raises :class:`~dagx.errors.LimitExceededError`."""
    if n > MAX_ENUM_VERTICES:
        raise LimitExceededError(f"enumeration of n={n} exceeds the ceiling {MAX_ENUM_VERTICES}")
    for index in range(dag_count(n)):
        yield dag_from_index(n, index)


def _multipartite(parts: list[int]) -> Dag:
    """Complete multipartite graph on consecutive vertex blocks of the given sizes, oriented low block to high.

    More than :data:`~dagx.graph.MAX_EDGES` edges raises
    :class:`~dagx.errors.LimitExceededError` before any edge is built.
    """
    n = sum(parts)
    _require_size((n * n - sum(p * p for p in parts)) // 2, "multipartite graph edges")
    edges = []
    lo = 0
    for size in parts:
        edges += product(range(lo, lo + size), range(lo + size, n))
        lo += size
    return Dag(n, edges)


def turan_dag(n: int, k: int) -> Dag:
    """Balanced complete k-partite graph, edges oriented low part to high part.

    The parts are consecutive vertex blocks of sizes ``balanced_parts(n, k)``;
    :func:`extremal_dag` is the same orientation on other part sizes. More
    than :data:`~dagx.graph.MAX_EDGES` vertices raises
    :class:`~dagx.errors.LimitExceededError` before the parts are listed.
    """
    _require_size(n, "turan_dag vertex count")
    return _multipartite(balanced_parts(n, k))


@dataclass(frozen=True)
class ExtremalSpec:
    """Parameters of the three-layer extremal graph.

    r source vertices, l - 1 chained middle vertices, s sink vertices;
    with l = 1 there are no middles and the graph is K_{r,s}.
    """

    r: int
    l: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 0 or self.l < 1:
            raise InvalidParamsError(f"need r >= 1, l >= 1, s >= 0, got {self}")

    @property
    def vertex_count(self) -> int:
        return self.r + self.l - 1 + self.s

    @property
    def edge_count(self) -> int:
        r, l, s = self.r, self.l, self.s
        return r * (l - 1) + comb(l - 1, 2) + (l - 1) * s + r * s


def extremal_dag(spec: ExtremalSpec) -> Dag:
    """Build the three-layer graph: sources x, chained middles y, sinks z.

    Vertices are numbered x block first (0..r-1), then y (r..r+l-2),
    then z. Edges: every x->y, every x->z, every y->z, and y_i->y_j for
    i < j. This is the complete multipartite orientation of
    :func:`turan_dag` on the parts r, 1 (l - 1 times), s. The result is
    transitive and extremely reduced; its longest path has length l
    whenever s >= 1. More than :data:`~dagx.graph.MAX_EDGES` vertices
    raises :class:`~dagx.errors.LimitExceededError` before the parts are
    listed.
    """
    _require_size(spec.vertex_count, "extremal_dag vertex count")
    return _multipartite([spec.r, *[1] * (spec.l - 1), spec.s])


def extremal_for(n: int, ell: int) -> Dag:
    """The edge-maximal reduced DAG on n vertices with longest path ``ell``.

    Splits the n - ell + 1 non-middle vertices as evenly as possible
    between the source and sink layers, which makes the edge count hit
    the closed-form bound exactly. For ell == 1 there are no middles, and
    the graph is the oriented bipartite Turan graph ``turan_dag(n, 2)``.
    """
    _check_n_ell(n, ell)
    m = n - ell + 1
    return extremal_dag(ExtremalSpec(r=(m + 1) // 2, l=ell, s=m // 2))


def _rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)``; a seed it refuses, such as a negative one, is bad input."""
    try:
        return np.random.default_rng(seed)
    except ValueError as exc:
        raise InvalidParamsError(f"bad seed {seed!r}: {exc}") from None


def random_dag(n: int, p: float, seed) -> Dag:
    """Forward-labeled random DAG: each pair (u, v), u < v, kept with probability p.

    Deterministic for a fixed ``seed`` (anything accepted by
    ``numpy.random.default_rng``, e.g. an int or a tuple of ints, so
    sharded callers can derive independent per-index streams). Draw i
    decides pair i of ``combinations(range(n), 2)``, not of :func:`pair_table`.
    More than :data:`~dagx.graph.MAX_EDGES` draws raises
    :class:`~dagx.errors.LimitExceededError` before any is drawn.
    """
    if not 0 <= p <= 1:
        raise InvalidParamsError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        raise InvalidParamsError(f"vertex count must be >= 1, got {n}")
    draws = comb(n, 2)
    _require_size(draws, "random_dag pair draws")
    keep = _rng(seed).random(draws) < p
    return Dag(n, [pr for pr, k in zip(combinations(range(n), 2), keep) if k])
