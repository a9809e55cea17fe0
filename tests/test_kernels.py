from itertools import combinations

import numpy as np
import pytest

import dagx.harness as harness
import dagx.kernels as kernels
from dagx.boxes import (
    _integer_rows,
    boxes_intersect,
    directed_intersection_graph,
    extremal_box_family,
    random_box_family,
    random_transverse_family,
)
from dagx.generators import ExtremalSpec, dag_count, dag_from_index, extremal_dag
from dagx.graph import bits, reach_from_masks, reach_to_masks
from dagx.kernels import _BLOCK, _blocks, _box_graphs, _edge_rows, _reach_verdicts, _row_dtype
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


def family_pairs(graphs, j: int, rows: np.ndarray) -> set:
    """The pairs (x, y) of family j's labels with y in ``rows[x]``, as family positions."""
    order = graphs.order[j]
    return {(int(order[x]), int(order[y])) for x in range(graphs.sizes[j]) for y in bits(int(rows[x, j]))}


def joined_pairs(graphs, v, j: int) -> set:
    """Family j's pairs i < k, in family positions, with a common ancestor and a common descendant."""
    order, size = graphs.order[j], graphs.sizes[j]
    return {
        tuple(sorted((int(order[x]), int(order[y]))))
        for x, y in combinations(range(size), 2)
        if v.rt[x, j] & v.rt[y, j] and v.rf[x, j] & v.rf[y, j]
    }


class TestBoxKernel:
    """The block kernel of the box trials against the scalar route on Fractions.

    Blocks of 300 trials give families of different padded sizes.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "_BOX_BLOCK", 300)

    @pytest.mark.parametrize("seed", [0, 1, 5, 271828])
    def test_transverse_trials(self, seed):
        flagged = 0
        for a, drawn, graphs, v in harness._box_trials(seed, 0, 1000, harness._draw_transverse):
            for j, (ids, _) in enumerate(drawn):
                family = random_transverse_family((seed, 0, a + j))
                g = directed_intersection_graph(family)
                assert family.ids == ids
                assert family_pairs(graphs, j, graphs.succ) == g.edges
                assert {(w, u) for u, w in g.edges} == family_pairs(graphs, j, graphs.pred)
                scalar = is_extremely_reduced(g) and is_transitive(g)
                assert bool(v.extremely[j] & v.transitive[j]) == scalar
                flagged += not scalar
        assert harness._scan_transverse_boxes(seed, 0, 1000)["sample"].count == flagged

    @pytest.mark.parametrize("seed", [0, 1, 5, 271828])
    def test_general_trials(self, seed):
        joined = listed = 0
        for a, drawn, graphs, v in harness._box_trials(seed, 0, 1000, harness._draw_general):
            for j, (ids, _) in enumerate(drawn):
                rng = np.random.default_rng((seed, 1, a + j))
                family = random_box_family(int(rng.integers(2, 13)), rng)
                g = directed_intersection_graph(family)
                boxes = family.boxes
                assert family.ids == tuple(ids)
                assert family_pairs(graphs, j, graphs.succ) == g.edges
                meet = {(i, k) for i in range(g.n) for k in range(g.n) if boxes_intersect(boxes[i], boxes[k])}
                assert family_pairs(graphs, j, graphs.meet) == meet
                rf, rt = reach_from_masks(g), reach_to_masks(g)
                want = {(i, k) for i, k in combinations(range(g.n), 2) if rt[i] & rt[k] and rf[i] & rf[k]}
                assert joined_pairs(graphs, v, j) == want
                joined += len(want)
                listed += sum((i, k) not in meet for i, k in want)
        part = harness._scan_general_boxes(seed, 0, 1000)
        assert (part["joined"], part["sample"].count, part["sample"].entries) == (joined, listed, [])

    def test_joined_intersecting_pair(self, monkeypatch):
        # c -> a -> d and c -> b -> d, while a and b cross without nesting:
        # the pair (a, b) is joined and not adjacent, and the boxes intersect.
        c, a, b, d = (0, 1, -10, 10), (-2, 3, -5, 5), (-3, 2, -6, 4), (-10, 10, -1, 0)
        rows = 2 * np.array([c, a, b, d])
        monkeypatch.setattr(harness, "_draw_general", lambda seed, t: (["c", "a", "b", "d"], rows))
        graphs = _box_graphs([rows])
        v = _reach_verdicts(graphs.succ, graphs.pred)
        assert joined_pairs(graphs, v, 0) == {(1, 2)}
        assert not v.extremely[0] and v.transitive[0]
        part = harness._scan_general_boxes(0, 0, 3)
        assert (part["joined"], part["sample"].count, part["sample"].entries) == (3, 0, [])

    def test_twelve_boxes_on_uint16_rows(self):
        spec = ExtremalSpec(4, 5, 4)
        family = extremal_box_family(spec)
        graphs = _box_graphs([np.array(_integer_rows(family))])
        assert len(family) == 12 and graphs.succ.dtype == np.uint16
        v = _reach_verdicts(graphs.succ, graphs.pred)
        assert v.rf.dtype == np.uint16 and v.extremely[0] and v.transitive[0]
        assert family_pairs(graphs, 0, graphs.succ) == extremal_dag(spec).edges
