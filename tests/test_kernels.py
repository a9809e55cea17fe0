import numpy as np
import pytest

import dagx.kernels as kernels
from dagx.generators import dag_count, dag_from_index
from dagx.graph import reach_to_masks
from dagx.kernels import _BLOCK, _blocks, _edge_rows, _reach_verdicts, _row_dtype
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
