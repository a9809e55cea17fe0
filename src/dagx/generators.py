"""Constructors for extremal, exhaustive, and random DAG instances.

Enumeration is over labeled forward edge sets: every subset of
{(i, j) : i < j} is one graph, indexed by the integer whose bits select
pairs from :func:`pair_table`. Every DAG is isomorphic to at least one
enumerated graph (relabel along a topological order), so universal
isomorphism-invariant claims are fully covered without deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb
from typing import Iterator

import numpy as np

from .bounds import balanced_parts
from .errors import InvalidParamsError, LimitExceededError
from .graph import Dag, Edge, bits

# The enumeration ceiling for every exhaustive sweep: n = 8 has 2^28
# graphs, which the whole-block kernels sweep in 10 to 75 s per claim on
# one core of a 2-core x86 box; n = 9 has 2^36, 256 times as many.
MAX_ENUM_VERTICES = 8


@cache
def pair_table(n: int) -> tuple[Edge, ...]:
    """All pairs (u, v) with u < v < n, lexicographic; bit i <-> pair i."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def dag_count(n: int) -> int:
    """Number of enumerated graphs on n >= 1 vertices: 2^C(n, 2)."""
    if n < 1:
        raise InvalidParamsError(f"vertex count must be >= 1, got {n}")
    return 1 << comb(n, 2)


def dag_from_index(n: int, index: int) -> Dag:
    """The enumerated graph whose edge set is the bit pattern of ``index``.

    The only index-to-graph builder; the graph goes through the validating :class:`Dag` constructor.
    """
    if not 0 <= index < dag_count(n):
        raise InvalidParamsError(f"index {index} outside 0..{dag_count(n) - 1}")
    pairs = pair_table(n)
    return Dag(n, [pairs[i] for i in bits(index)])


def enumerate_dags(n: int) -> Iterator[Dag]:
    """Stream every forward-labeled DAG on n vertices, in index order; n above
    ``MAX_ENUM_VERTICES`` raises :class:`~dagx.errors.LimitExceededError`."""
    if n > MAX_ENUM_VERTICES:
        raise LimitExceededError(f"enumeration of n={n} exceeds the ceiling {MAX_ENUM_VERTICES}")
    for index in range(dag_count(n)):
        yield dag_from_index(n, index)


def _multipartite(parts: list[int]) -> Dag:
    """Complete multipartite graph on consecutive vertex blocks of the given sizes, oriented low block to high."""
    n = sum(parts)
    edges = []
    lo = 0
    for size in parts:
        edges += product(range(lo, lo + size), range(lo + size, n))
        lo += size
    return Dag(n, edges)


def turan_dag(n: int, k: int) -> Dag:
    """Balanced complete k-partite graph, edges oriented low part to high part.

    The parts are consecutive vertex blocks of sizes ``balanced_parts(n, k)``;
    :func:`extremal_dag` is the same orientation on other part sizes.
    """
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
    whenever s >= 1.
    """
    return _multipartite([spec.r, *[1] * (spec.l - 1), spec.s])


def extremal_for(n: int, ell: int) -> Dag:
    """The edge-maximal reduced DAG on n vertices with longest path ``ell``.

    Splits the n - ell + 1 non-middle vertices as evenly as possible
    between the source and sink layers, which makes the edge count hit
    the closed-form bound exactly. For ell == 1 there are no middles, and
    the graph is the oriented bipartite Turan graph ``turan_dag(n, 2)``.
    """
    if ell < 1:
        raise InvalidParamsError(f"need ell >= 1, got {ell}")
    if n < ell + 1:
        raise InvalidParamsError(f"need n >= ell + 1, got n={n}, ell={ell}")
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
    sharded callers can derive independent per-index streams).
    """
    if not 0 <= p <= 1:
        raise InvalidParamsError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        raise InvalidParamsError(f"vertex count must be >= 1, got {n}")
    rng = _rng(seed)
    pairs = pair_table(n)
    keep = rng.random(len(pairs)) < p
    return Dag(n, [pr for pr, k in zip(pairs, keep) if k])
