import numpy as np
import pytest

import dagx.kernels as kernels
from dagx.generators import dag_count, dag_from_index
from dagx.graph import levels, reach_to_masks
from dagx.kernels import _BLOCK, _blocks, _edge_rows, _level_rows, _levels_chunk, _reach_verdicts, _row_dtype
from dagx.predicates import (
    is_extremely_reduced,
    is_reduced,
    is_strongly_reduced,
    is_transitive,
    transitive_closure,
)


def assert_reach_matches_scalar(n: int, start: int, stop: int) -> None:
    """The kernel's rows and verdicts equal the scalar predicates, mask by mask."""
    succ, pred = _edge_rows(n, start, stop)
    v = _reach_verdicts(succ, pred)
    assert v.rf.shape == v.rt.shape == (n, stop - start)
    assert v.rf.dtype == _row_dtype(n)
    for j, mask in enumerate(range(start, stop)):
        g = dag_from_index(n, mask)
        assert [int(row) for row in succ[:, j]] == list(g.succ_masks), (n, mask)
        assert [int(row) for row in pred[:, j]] == list(g.pred_masks), (n, mask)
        assert [int(row) for row in v.rf[:, j]] == list(transitive_closure(g).succ_masks), (n, mask)
        assert [int(row) for row in v.rt[:, j]] == list(reach_to_masks(g)), (n, mask)
        got = (v.transitive[j], v.reduced[j], v.strongly[j], v.extremely[j])
        want = (is_transitive(g), is_reduced(g), is_strongly_reduced(g), is_extremely_reduced(g))
        assert got == want, (n, mask)


class TestReachKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_mask(self, n):
        assert_reach_matches_scalar(n, 0, dag_count(n))

    @pytest.mark.parametrize(
        "n, start, stop",
        [
            (7, _BLOCK - 37, _BLOCK + 91),  # straddles a block boundary
            (7, 5 * 8192 + 17, 6 * 8192 + 200),  # unaligned
            (7, (1 << 20) - 150, (1 << 20) + 150),  # the top bit flips inside the range
            (7, dag_count(7) - 300, dag_count(7)),  # fixed high bits all set
            (7, 1_234_567, 1_234_568),  # a single mask, every bit fixed
            (9, dag_count(9) - 200, dag_count(9)),  # uint16 rows, vertex 8 in every row
        ],
    )
    def test_unaligned_ranges(self, n, start, stop):
        assert_reach_matches_scalar(n, start, stop)

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    def test_blocks_straddle(self, monkeypatch, block):
        # The runs of _BLOCK masks the sweeps cut a range into give together
        # what one call over the range gives.
        monkeypatch.setattr(kernels, "_BLOCK", block)
        start, stop = block - 37, 2 * block + 91
        runs = list(_blocks(start, stop))
        assert runs == [(start, start + block), (start + block, stop)]
        whole = _reach_verdicts(*_edge_rows(7, start, stop))
        parts = [_reach_verdicts(*_edge_rows(7, a, b)) for a, b in runs]
        for field, want in zip(whole._fields, whole):
            assert np.array_equal(np.concatenate([getattr(p, field) for p in parts], axis=-1), want), field

    @pytest.mark.parametrize("n, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32)])
    def test_row_dtype(self, n, dtype):
        assert _row_dtype(n) == dtype


def assert_level_rows_match_scalar(n: int, start: int, stop: int) -> None:
    """The kernel's per-vertex level rows and edge counts equal ``graph.levels`` and the edge list, mask by mask."""
    lev, edges = _level_rows(n, start, stop)
    assert lev.shape == (n, stop - start) and edges.shape == (stop - start,)
    for j, mask in enumerate(range(start, stop)):
        g = dag_from_index(n, mask)
        assert tuple(lev[:, j].tolist()) == levels(g), (n, mask)
        assert edges[j] == len(g.edges), (n, mask)


# The n-vertex index i is the parent i mod 2^C(n - 1, 2) plus a last sink
# with predecessor set i >> C(n - 1, 2); a slab is a run with one such set.
SLAB = {7: 1 << 15, 8: 1 << 21}


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
            (8, SLAB[8] - 400, SLAB[8] + 600),  # crosses a slab and its parents' slab
            (8, 5 * SLAB[8] + SLAB[7] - 250, 5 * SLAB[8] + SLAB[7] + 250),  # crosses the parents' slab only
            (8, 3 * _BLOCK - 100, 3 * _BLOCK + 100),  # straddles a block boundary
            (8, dag_count(8) - 300, dag_count(8)),  # every pair an edge at the end
            (8, 123_456_789, 123_456_790),  # a single mask
        ],
    )
    def test_unaligned_ranges(self, n, start, stop):
        assert_level_rows_match_scalar(n, start, stop)

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    @pytest.mark.parametrize(
        "n, start, stop",
        [(7, SLAB[7] - 1500, SLAB[7] + 2500), (8, SLAB[8] - 1700, SLAB[8] + 2300), (8, 2 * SLAB[7] - 900, 2 * SLAB[7] + 1100)],
    )
    def test_blocks_cross_slabs(self, monkeypatch, block, n, start, stop):
        # The runs of _BLOCK masks a sweep cuts a range into start and end
        # inside slabs; together they give what one call over the range gives.
        monkeypatch.setattr(kernels, "_BLOCK", block)
        whole = _levels_chunk(n, start, stop)
        parts = [_levels_chunk(n, a, b) for a, b in _blocks(start, stop)]
        assert len(parts) == -(-(stop - start) // block)
        for got, want in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), want)
        lev, edges = _level_rows(n, start, stop)
        assert np.array_equal(whole[0], lev.max(axis=0)) and np.array_equal(whole[1], edges)
        for j in range(0, stop - start, 97):
            g = dag_from_index(n, start + j)
            assert tuple(lev[:, j].tolist()) == levels(g), (n, start + j)
