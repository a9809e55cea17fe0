from math import comb

import numpy as np
import pytest

import dagx.generators as generators
import dagx.kernels as kernels
from dagx.errors import CycleError
from dagx.generators import dag_count, dag_from_index
from dagx.graph import levels, reach_to_masks
from dagx.harness import _edge_bound
from dagx.kernels import (
    _BLOCK,
    _TABLE_BYTES,
    _at_bound,
    _blocks,
    _pred_rows,
    _reach_verdicts,
    _row_dtype,
    _rows,
    _sink_rows,
    _table,
    _table_fits,
)
from dagx.predicates import (
    is_extremely_reduced,
    is_reduced,
    is_strongly_reduced,
    is_transitive,
    transitive_closure,
)


def assert_reach_matches_scalar(n: int, index: np.ndarray) -> None:
    """The decoded predecessor rows, and the kernel's rows and verdicts on them, equal the scalar graph's, mask by mask."""
    pred = _pred_rows(n, index)
    v = _reach_verdicts(pred)
    assert pred.shape == v.rf.shape == v.rt.shape == (n, index.size)
    assert pred.dtype == v.rf.dtype == _row_dtype(n)
    for j, mask in enumerate(index.tolist()):
        g = dag_from_index(n, mask)
        assert [int(row) for row in pred[:, j]] == list(g.pred_masks), (n, mask)
        assert [int(row) for row in v.rf[:, j]] == list(transitive_closure(g).succ_masks), (n, mask)
        assert [int(row) for row in v.rt[:, j]] == list(reach_to_masks(g)), (n, mask)
        got = (v.transitive[j], v.reduced[j], v.strongly[j], v.extremely[j])
        want = (is_transitive(g), is_reduced(g), is_strongly_reduced(g), is_extremely_reduced(g))
        assert got == want, (n, mask)


# The n-vertex index i is the parent i mod 2^C(n - 1, 2) plus a last sink
# with predecessor set i >> C(n - 1, 2); a slab is a run with one such set.
SLAB = {6: 1 << 10, 7: 1 << 15, 8: 1 << 21}

# Ranges at n = 8 that cross a slab, its parents' slab or a block boundary.
N8_RANGES = [
    (8, SLAB[8] - 400, SLAB[8] + 600),  # crosses a slab and its parents' slab
    (8, 5 * SLAB[8] + SLAB[7] - 250, 5 * SLAB[8] + SLAB[7] + 250),  # crosses the parents' slab only
    (8, 3 * _BLOCK - 100, 3 * _BLOCK + 100),  # straddles a block boundary
    (8, dag_count(8) - 300, dag_count(8)),  # every pair an edge at the end
    (8, 123_456_789, 123_456_790),  # a single mask
]


class TestReachKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_mask(self, n):
        assert_reach_matches_scalar(n, np.arange(dag_count(n)))

    @pytest.mark.parametrize(
        "n, start, stop",
        [
            (6, 3 * SLAB[6] - 37, 3 * SLAB[6] + 91),  # crosses from S = {1} to S = {0, 1}
            (7, SLAB[7] - 37, SLAB[7] + 91),  # crosses from S = 0 to S = {0}
            (7, _BLOCK - 37, _BLOCK + 91),  # straddles a block boundary
            (7, 5 * 8192 + 17, 6 * 8192 + 200),  # unaligned
            (7, (1 << 20) - 150, (1 << 20) + 150),  # the top bit flips inside the range
            (7, dag_count(7) - 300, dag_count(7)),  # S = every vertex
            (7, 1_234_567, 1_234_568),  # a single mask
            (9, dag_count(9) - 200, dag_count(9)),  # uint16 rows, vertex 8 in every row
        ]
        + N8_RANGES,
    )
    def test_unaligned_ranges(self, n, start, stop):
        assert_reach_matches_scalar(n, np.arange(start, stop))

    @pytest.mark.parametrize(
        "n, start",
        [
            (6, 0),  # the whole enumeration is one block
            (8, 3 * _BLOCK),
            (8, dag_count(8) - _BLOCK),  # every pair an edge at the end
            (9, dag_count(9) - 5 * _BLOCK),  # uint16 rows from 36-bit indices
        ],
    )
    def test_gated_columns(self, n, start):
        # The theorem scan decodes only the masks at or above the bound: an
        # increasing, unevenly spaced array of indices.
        hits = np.flatnonzero(np.arange(min(_BLOCK, dag_count(n))) % 1009 < 3)
        index = start + hits
        assert index.dtype == np.int64 and not np.array_equal(index, np.arange(index[0], index[-1] + 1))
        assert_reach_matches_scalar(n, index)
        assert np.array_equal(_pred_rows(n, index), _pred_rows(n, np.arange(start, start + hits[-1] + 1))[:, hits])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closure_rows_fed_back(self, n):
        # rt is the closure's predecessor rows: the kernel run on them
        # gives the closure's reach rows and verdicts.
        v = _reach_verdicts(_pred_rows(n, np.arange(dag_count(n))))
        c = _reach_verdicts(v.rt)
        for mask in range(dag_count(n)):
            closed = transitive_closure(dag_from_index(n, mask))
            assert [int(row) for row in v.rt[:, mask]] == list(closed.pred_masks), (n, mask)
            assert [int(row) for row in c.rf[:, mask]] == list(closed.succ_masks), (n, mask)
            assert [int(row) for row in c.rt[:, mask]] == list(closed.pred_masks), (n, mask)
            got = (c.transitive[mask], c.reduced[mask], c.strongly[mask], c.extremely[mask])
            want = (True, is_reduced(closed), is_strongly_reduced(closed), is_extremely_reduced(closed))
            assert got == want, (n, mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_isolated_vertices_keep_verdicts(self, n):
        # The theorem scan reads every n's masks at its largest n: an index
        # below 2^C(n, 2) names the same edges plus isolated vertices.
        index = np.arange(dag_count(n))
        small, large = _reach_verdicts(_pred_rows(n, index)), _reach_verdicts(_pred_rows(6, index))
        for field in ("transitive", "reduced", "strongly", "extremely"):
            assert np.array_equal(getattr(large, field), getattr(small, field)), field

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    def test_blocks_straddle(self, monkeypatch, block):
        # The runs of _BLOCK masks the sweeps cut a range into give together
        # what one call over the range gives.
        monkeypatch.setattr(kernels, "_BLOCK", block)
        start, stop = block - 37, 2 * block + 91
        runs = list(_blocks(start, stop))
        assert runs == [(start, start + block), (start + block, stop)]
        whole = _reach_verdicts(_pred_rows(7, np.arange(start, stop)))
        parts = [_reach_verdicts(_pred_rows(7, np.arange(a, b))) for a, b in runs]
        for field, want in zip(whole._fields, whole):
            assert np.array_equal(np.concatenate([getattr(p, field) for p in parts], axis=-1), want), field

    @pytest.mark.parametrize("n, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32)])
    def test_row_dtype(self, n, dtype):
        assert _row_dtype(n) == dtype


def assert_level_rows_match_scalar(n: int, start: int, stop: int) -> None:
    """The kernel's per-vertex level rows and edge counts equal ``graph.levels`` and the edge list, mask by mask."""
    rows = _rows(n, start, stop)
    assert rows.shape == (n + 1, stop - start)
    edges, lev = rows[0], rows[1:]
    for j, mask in enumerate(range(start, stop)):
        g = dag_from_index(n, mask)
        assert tuple(lev[:, j].tolist()) == levels(g), (n, mask)
        assert edges[j] == len(g.edges), (n, mask)


class TestSinkLevels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_mask(self, n):
        assert_level_rows_match_scalar(n, 0, dag_count(n))

    @pytest.mark.parametrize(
        "n, start, stop",
        [
            (7, SLAB[7] - 300, SLAB[7] + 700),  # crosses from S = 0 to S = {0}
            (7, 41 * SLAB[7] - 5, 43 * SLAB[7] + 9),  # three slabs, one whole
            (7, dag_count(7) - 250, dag_count(7)),  # S = every vertex
        ]
        + N8_RANGES,
    )
    def test_unaligned_ranges(self, n, start, stop):
        assert_level_rows_match_scalar(n, start, stop)

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    @pytest.mark.parametrize(
        "n, start, stop",
        [
            (7, SLAB[7] - 1500, SLAB[7] + 2500),
            (7, SLAB[7] - 1500, 3 * SLAB[7] + 2500),  # three slabs in one call
            (8, SLAB[8] - 1700, SLAB[8] + 2300),
            (8, 2 * SLAB[7] - 900, 2 * SLAB[7] + 1100),
        ],
    )
    def test_blocks_cross_slabs(self, monkeypatch, block, n, start, stop):
        # The runs of _BLOCK masks a sweep cuts a range into start and end
        # inside slabs; together they give what one call over the range gives.
        monkeypatch.setattr(kernels, "_BLOCK", block)
        rows = _rows(n, start, stop)
        parts = [_rows(n, a, b) for a, b in _blocks(start, stop)]
        assert len(parts) == -(-(stop - start) // block)
        assert np.array_equal(np.concatenate(parts, axis=1), rows)
        for j in range(0, stop - start, 97):
            g = dag_from_index(n, start + j)
            assert tuple(rows[1:, j].tolist()) == levels(g), (n, start + j)


def edge_bounds(n: int) -> dict[str, np.ndarray]:
    """The bounds the gate is tested at: Turan's and the reduced classes', each less one and plus one, and zero.

    Two more reach the gate's edge cases. At C(n, 2) - 1 everywhere, the
    listed masks include a parent one edge short of complete with every
    vertex in S, whose k_min is the largest |S|, n - 1. Turan's reversed
    falls with ell, so a parent can fail its own ell's bound and still
    have a listed child at a larger ell.
    """
    turan, reduced = _edge_bound(n, None), _edge_bound(n, "reduced")
    return {
        "turan": turan,
        "reduced": reduced,
        "turan-1": turan - 1,
        "reduced-1": reduced - 1,
        "zero": np.zeros(n, dtype=np.int8),
        "turan+1": turan + 1,
        "reduced+1": reduced + 1,
        "complete-1": np.full(n, comb(n, 2) - 1, dtype=np.int8),
        "falling": turan[::-1],
    }


def assert_at_bound_is_full_gate(n: int, start: int, stop: int, rows: np.ndarray) -> None:
    """``_at_bound`` lists what the gate on the full rows ``rows`` of start..stop-1 passes, at every test bound."""
    for name, bound in edge_bounds(n).items():
        want = np.flatnonzero(rows[0] >= bound[rows[1:].max(axis=0)])
        index, got = _at_bound(n, bound, start, stop)
        assert np.array_equal(index, start + want), (n, start, name)
        assert np.array_equal(got, rows[:, want]), (n, start, name)


class TestAtBound:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_mask(self, n):
        assert_at_bound_is_full_gate(n, 0, dag_count(n), _rows(n, 0, dag_count(n)))

    @pytest.mark.parametrize(
        "n, start, stop",
        [
            (6, 3 * SLAB[6] + 17, 3 * SLAB[6] + 900),  # inside one slab of the table
            (7, 9 * SLAB[7] + 5, 9 * SLAB[7] + 3000),  # inside one slab
            (7, 3 * SLAB[7] + 100, 5 * SLAB[7] + 200),  # three slabs, starting and ending inside one
            (7, dag_count(7) - 250, dag_count(7)),  # S = every vertex
            (8, 5 * SLAB[8] + SLAB[7] - 250, 5 * SLAB[8] + SLAB[7] + 250),  # crosses the parents' slab only
        ],
    )
    def test_ranges_inside_slabs(self, n, start, stop):
        assert_at_bound_is_full_gate(n, start, stop, _rows(n, start, stop))

    @pytest.mark.parametrize("start", [0, 77 * SLAB[8] + 12_345, dag_count(8) - SLAB[8]])
    def test_n8_against_sink_rows(self, start):
        assert_at_bound_is_full_gate(8, start, start + SLAB[8], _sink_rows(8, start, start + SLAB[8]))

    def test_n8_builds_no_full_rows(self, monkeypatch):
        # Above the tables, only the parents some slab takes are built, and
        # only from the gate one vertex down: no run of full rows is built.
        _table(6)
        monkeypatch.setattr(kernels, "_sink_rows", None)
        index, rows = _at_bound(8, edge_bounds(8)["reduced"], 0, dag_count(8))
        assert 0 < index.size < 10_000 and rows.shape == (9, index.size)


class TestTables:
    def test_ceiling_from_one_byte_cap(self):
        # A table is kept for each n whose n + 1 int8 level rows of every
        # index fit in _TABLE_BYTES.
        assert [n for n in range(1, 10) if _table_fits(n)] == list(range(1, 7))
        assert _table(6).nbytes == 229_376 <= _TABLE_BYTES

    def test_rows_below_the_ceiling_are_read_only(self):
        # Up to the ceiling the level rows are views of the cached table: a
        # write raises, so no caller can corrupt the table.
        for n in range(1, 7):
            rows = _rows(n, 0, dag_count(n))
            assert rows.base is _table(n)
            with pytest.raises(ValueError, match="read-only"):
                rows[..., -1] = 1
        assert _rows(7, 0, 10).flags.writeable

    def test_no_pair_table(self, monkeypatch):
        # The predecessor rows are bit fields of the index, so the scalar
        # checks above compare two independent decoders: a corrupt pair
        # table breaks dag_from_index but not the kernel rows.
        index = np.arange(SLAB[7] - 300, SLAB[7] + 300)
        want = _pred_rows(7, index)
        monkeypatch.setattr(generators, "pair_table", lambda n: ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(CycleError):
            dag_from_index(3, 7)
        assert not hasattr(kernels, "pair_table")
        assert np.array_equal(_pred_rows(7, index), want)
