import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagx.generators as generators
import dagx.graph as graph
from dagx import (
    CycleError,
    Dag,
    DuplicateEdgeError,
    ExtremalSpec,
    InvalidParamsError,
    LimitExceededError,
    dag_count,
    dag_from_index,
    enumerate_dags,
    extremal_dag,
    extremal_for,
    is_extremely_reduced,
    is_reduced,
    is_strongly_reduced,
    is_transitive,
    longest_path_length,
    random_dag,
    reduced_dag_edge_bound,
    turan_dag,
    turan_graph_edges,
)


class TestTuranDag:
    def test_small(self):
        g = turan_dag(4, 2)
        assert len(g.edges) == 4
        assert longest_path_length(g) == 1

    def test_single_part_edgeless(self):
        assert turan_dag(5, 1).edges == frozenset()

    def test_three_parts(self):
        g = turan_dag(6, 3)
        assert len(g.edges) == 12
        assert longest_path_length(g) == 2

    def test_edge_count_matches_closed_form(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert len(turan_dag(n, k).edges) == turan_graph_edges(n, k)

    def test_attains_dag_bound(self):
        for n in range(2, 13):
            for k in range(2, n + 1):
                g = turan_dag(n, k)
                ell = longest_path_length(g)
                assert ell == k - 1
                assert len(g.edges) == turan_graph_edges(n, ell + 1)


class TestExtremalDag:
    def test_spec_validation(self):
        for bad in ((0, 2, 1), (1, 0, 1), (1, 2, -1)):
            with pytest.raises(InvalidParamsError):
                ExtremalSpec(*bad)

    def test_triangle(self):
        g = extremal_dag(ExtremalSpec(1, 2, 1))
        assert g == Dag(3, [(0, 1), (1, 2), (0, 2)])
        assert longest_path_length(g) == 2

    def test_two_two_two(self):
        g = extremal_dag(ExtremalSpec(2, 2, 2))
        assert g.n == 5
        assert len(g.edges) == 8
        assert longest_path_length(g) == 2
        assert is_transitive(g)
        assert is_extremely_reduced(g)

    def test_edge_count_closed_form(self):
        for r in range(1, 11):
            for l in range(1, 11):
                for s in range(0, 11):
                    spec = ExtremalSpec(r, l, s)
                    g = extremal_dag(spec)
                    assert g.n == r + (l - 1) + s
                    expected = r * (l - 1) + comb(l - 1, 2) + (l - 1) * s + r * s
                    assert len(g.edges) == expected == spec.edge_count

    def test_always_transitive_and_extremely_reduced(self):
        for r in range(1, 5):
            for l in range(1, 6):
                for s in range(0, 5):
                    g = extremal_dag(ExtremalSpec(r, l, s))
                    assert is_transitive(g)
                    assert is_extremely_reduced(g)

    def test_longest_path_with_sinks(self):
        for r in range(1, 4):
            for l in range(1, 6):
                for s in range(1, 4):
                    assert longest_path_length(extremal_dag(ExtremalSpec(r, l, s))) == l


class TestMultipartiteDefinitions:
    """turan_dag and extremal_dag against their docstring definitions, as labeled edge sets."""

    def test_turan_dag(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                # Consecutive parts, the first n mod k of them one larger.
                q, r = divmod(n, k)
                part = [v // (q + 1) if v < r * (q + 1) else r + (v - r * (q + 1)) // q for v in range(n)]
                g = turan_dag(n, k)
                assert g.n == n
                assert g.edges == {(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]}

    def test_extremal_dag(self):
        for r, l, s in product(range(1, 12), range(1, 13), range(11)):
            if r + l - 1 + s > 12:
                continue
            xs, ys, zs = range(r), range(r, r + l - 1), range(r + l - 1, r + l - 1 + s)
            expected = (
                set(product(xs, ys))
                | set(product(xs, zs))
                | set(product(ys, zs))
                | {(yi, yj) for yi in ys for yj in ys if yi < yj}
            )
            g = extremal_dag(ExtremalSpec(r, l, s))
            assert g.n == r + l - 1 + s
            assert g.edges == expected


class TestExtremalFor:
    def test_four_two(self):
        g = extremal_for(4, 2)
        assert g.n == 4
        assert len(g.edges) == 5 == reduced_dag_edge_bound(4, 2)

    def test_five_two(self):
        g = extremal_for(5, 2)
        assert g == extremal_dag(ExtremalSpec(2, 2, 2))
        assert len(g.edges) == 8 == reduced_dag_edge_bound(5, 2)

    def test_transitive_tournament_case(self):
        for ell in range(2, 8):
            g = extremal_for(ell + 1, ell)
            assert g.edges == frozenset(
                (u, v) for u in range(ell + 1) for v in range(u + 1, ell + 1)
            )
            assert len(g.edges) == ell * (ell + 1) // 2

    def test_full_sweep(self):
        for n in range(2, 13):
            for ell in range(1, n):
                g = extremal_for(n, ell)
                assert g.n == n
                assert longest_path_length(g) == ell
                assert len(g.edges) == reduced_dag_edge_bound(n, ell)
                assert is_transitive(g)
                assert is_extremely_reduced(g)
                assert is_strongly_reduced(g)
                assert is_reduced(g)

    def test_ell_one_is_the_bipartite_turan_graph(self):
        for n in range(2, 12):
            assert extremal_for(n, 1) == turan_dag(n, 2)

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            extremal_for(5, 0)
        with pytest.raises(InvalidParamsError):
            extremal_for(3, 3)


class TestEnumerateDags:
    def test_counts(self):
        assert sum(1 for _ in enumerate_dags(2)) == 2
        assert sum(1 for _ in enumerate_dags(3)) == 8
        assert sum(1 for _ in enumerate_dags(5)) == 1024 == dag_count(5)

    def test_no_duplicates_and_valid(self):
        seen = set()
        for g in enumerate_dags(4):
            assert g.n == 4
            seen.add(g.edges)
            Dag(4, g.edges)  # re-validates every invariant
        assert len(seen) == 64

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            next(enumerate_dags(9))

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "call",
        [dag_count, lambda n: dag_from_index(n, 0), lambda n: next(enumerate_dags(n))],
        ids=["dag_count", "dag_from_index", "enumerate_dags"],
    )
    def test_bad_vertex_count(self, call, n):
        with pytest.raises(InvalidParamsError):
            call(n)

    def test_index_round_trip(self):
        for i, g in enumerate(enumerate_dags(3)):
            assert dag_from_index(3, i) == g


class TestRandomDag:
    def test_p_zero(self):
        assert random_dag(6, 0.0, 1).edges == frozenset()

    def test_p_one_transitive_tournament(self):
        g = random_dag(6, 1.0, 1)
        assert len(g.edges) == comb(6, 2)
        assert is_transitive(g)

    def test_deterministic(self):
        assert random_dag(8, 0.4, 123) == random_dag(8, 0.4, 123)
        assert random_dag(8, 0.4, (5, 7)) == random_dag(8, 0.4, (5, 7))

    def test_pinned_draw(self):
        # The draws number the pairs by combinations(range(n), 2), whatever the enumeration's pair order.
        expected = {(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 6), (3, 7), (4, 7), (5, 6)}
        assert random_dag(8, 0.4, 123).edges == frozenset(expected)

    def test_seed_sensitivity(self):
        draws = {random_dag(8, 0.5, seed).edges for seed in range(10)}
        assert len(draws) > 1

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            random_dag(4, 1.5, 0)

    @pytest.mark.parametrize("seed", [-1, (3, -1)])
    def test_negative_seed(self, seed):
        with pytest.raises(InvalidParamsError):
            random_dag(4, 0.5, seed)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_always_valid(self, seed):
        g = random_dag(7, 0.5, seed)
        Dag(7, g.edges)


class TestEdgeLimit:
    """Each generator counts its edges (random_dag its pair draws) against MAX_EDGES first."""

    def test_at_and_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_EDGES", 6)
        assert len(turan_dag(4, 4).edges) == len(random_dag(4, 1, 0).edges) == 6
        assert len(extremal_dag(ExtremalSpec(1, 3, 1)).edges) == 6
        for build in (
            lambda: turan_dag(5, 3),
            lambda: extremal_dag(ExtremalSpec(2, 3, 1)),
            lambda: extremal_for(5, 2),
            lambda: random_dag(5, 0, 0),
        ):
            with pytest.raises(LimitExceededError, match="MAX_EDGES = 6"):
                build()


class TestVertexLimit:
    """The multipartite generators count their vertices against MAX_EDGES before listing the parts."""

    def test_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_EDGES", 6)
        assert turan_dag(6, 1).n == 6
        for build in (lambda: turan_dag(7, 1), lambda: turan_dag(7, 7), lambda: extremal_dag(ExtremalSpec(1, 6, 1))):
            with pytest.raises(LimitExceededError, match="vertex count: 7 exceeds the limit MAX_EDGES = 6"):
                build()


class TestPairTable:
    """The colex table nests: an n-vertex index is an (n - 1)-vertex index plus the last sink's predecessor set."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_prefix_is_the_smaller_table(self, n):
        assert generators.pair_table(n)[: comb(n - 1, 2)] == generators.pair_table(n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_index_splits_into_prefix_and_last_sink(self, n):
        low = comb(n - 1, 2)
        for index in range(dag_count(n)):
            g = dag_from_index(n, index)
            assert g.pred_masks[n - 1] == index >> low, index
            prefix = Dag(n - 1, [(u, v) for u, v in g.edges if v < n - 1])
            assert prefix == dag_from_index(n - 1, index % (1 << low)), index


class TestIndexAtAnyN:
    """dag_from_index reads only the pairs its index covers: neither the table nor the range check grows with n."""

    @pytest.mark.parametrize("n", [5000, 10**6])
    def test_small_index_at_large_n(self, monkeypatch, n):
        asked = []
        real = generators.pair_table
        monkeypatch.setattr(generators, "pair_table", lambda m: asked.append(m) or real(m))
        start = time.perf_counter()
        g = dag_from_index(n, 0b101)  # pairs 0 and 2 in colex order
        assert time.perf_counter() - start < 1
        assert (g.n, g.edges) == (n, {(0, 1), (1, 2)})
        assert asked == [3]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_range_is_the_bit_length(self, n):
        top = dag_count(n) - 1
        assert len(dag_from_index(n, top).edges) == comb(n, 2)
        for index in (top + 1, -1):
            with pytest.raises(InvalidParamsError):
                dag_from_index(n, index)


class TestCorruptPairTable:
    """A graph built from an enumeration index goes through the validating constructor: a bad pair table raises."""

    @pytest.mark.parametrize(
        "table, error",
        [(((0, 1), (1, 2), (2, 0)), CycleError), (((0, 1), (1, 2), (0, 1)), DuplicateEdgeError)],
        ids=["cycle", "duplicate"],
    )
    @pytest.mark.parametrize(
        "build",
        [lambda: dag_from_index(3, 7), lambda: list(enumerate_dags(3))],
        ids=["dag_from_index", "enumerate_dags"],
    )
    def test_raises(self, monkeypatch, table, error, build):
        monkeypatch.setattr(generators, "pair_table", lambda n: table)
        with pytest.raises(error):
            build()
