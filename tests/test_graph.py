import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagx.graph as graph
from dagx import (
    CapExceededError,
    CycleError,
    Dag,
    DagxError,
    DuplicateEdgeError,
    InvalidParamsError,
    LimitExceededError,
    ParseError,
    SelfLoopError,
    VertexRangeError,
    all_topological_orders,
    ancestors,
    descendants,
    enumerate_dags,
    format_edge_list,
    level_partition,
    levels,
    longest_path_length,
    parse_edge_list,
    random_dag,
    reachability,
    sinks,
    sources,
    topological_order,
)

from dagx.graph import MAX_EDGE_LIST_VERTICES

from conftest import chain, forward_dags


class TestConstruction:
    def test_chain(self):
        g = Dag(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges == {(0, 1), (1, 2)}

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError) as err:
            Dag(2, [(0, 1), (1, 0)])
        cyc = err.value.cycle
        assert sorted(cyc) == [0, 1]

    def test_longer_cycle_witness_is_a_cycle(self):
        g_edges = [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)]
        with pytest.raises(CycleError) as err:
            Dag(5, g_edges)
        cyc = err.value.cycle
        edges = set(g_edges)
        for a, b in zip(cyc, cyc[1:]):
            assert (a, b) in edges
        assert (cyc[-1], cyc[0]) in edges

    def test_chorded_chain_valid(self, chorded_chain):
        assert len(chorded_chain.edges) == 6

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            Dag(3, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            Dag(3, [(0, 1), (0, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            Dag(3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            Dag(3, [(-1, 0)])

    def test_non_integer_endpoints(self):
        with pytest.raises(VertexRangeError):
            Dag(3, [(0.5, 1)])

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 2), 5])
    def test_edge_not_a_pair(self, edge):
        with pytest.raises(VertexRangeError, match="pair"):
            Dag(3, [edge])

    def test_bad_vertex_count(self):
        with pytest.raises(InvalidParamsError):
            Dag(0)

    def test_vertex_limit(self, monkeypatch):
        # The per-vertex rows are refused before they are allocated.
        monkeypatch.setattr(graph, "MAX_EDGES", 6)
        assert Dag(6).n == 6
        with pytest.raises(LimitExceededError, match="vertex count: 7 exceeds the limit MAX_EDGES = 6"):
            Dag(7)

    def test_equality_is_labeled(self):
        assert Dag(3, [(0, 1)]) == Dag(3, [(0, 1)])
        assert Dag(3, [(0, 1)]) != Dag(3, [(1, 2)])
        assert Dag(3, [(0, 1)]) != Dag(4, [(0, 1)])
        assert hash(Dag(3, [(0, 1)])) == hash(Dag(3, [(0, 1)]))


@st.composite
def graphs_with_a_cycle(draw):
    """(n, edges): a cycle through 2..n distinct vertices plus random further edges."""
    n = draw(st.integers(2, 7))
    loop = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    edges = set(zip(loop, loop[1:] + loop[:1]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges |= draw(st.sets(pairs, max_size=12))
    return n, sorted(edges)


class TestCycleWitness:
    @given(graphs_with_a_cycle())
    @settings(max_examples=150)
    def test_witness_is_a_cycle_of_the_input(self, graph):
        n, edges = graph
        with pytest.raises(CycleError) as err:
            Dag(n, edges)
        cyc = err.value.cycle
        assert len(cyc) >= 2 and len(set(cyc)) == len(cyc)
        assert set(zip(cyc, cyc[1:] + cyc[:1])) <= set(edges)


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain(3)) == (0, 1, 2)

    def test_edgeless_min_index(self):
        assert topological_order(Dag(3)) == (0, 1, 2)

    def test_chorded_chain(self, chorded_chain):
        assert topological_order(chorded_chain) == (0, 1, 2, 3, 4)

    def test_min_index_source_first(self):
        g = Dag(3, [(2, 0), (0, 1)])
        assert topological_order(g) == (2, 0, 1)

    @given(forward_dags())
    def test_every_edge_forward(self, g):
        pos = {v: i for i, v in enumerate(topological_order(g))}
        assert sorted(pos) == list(range(g.n))
        assert all(pos[u] < pos[v] for u, v in g.edges)


def smallest_source_walk(g: Dag) -> tuple[int, ...]:
    """Literal reference order: repeatedly remove the smallest source."""
    left = set(range(g.n))
    order = []
    while left:
        v = min(v for v in left if not any((u, v) in g.edges for u in left))
        order.append(v)
        left.remove(v)
    return tuple(order)


class TestStoredOrder:
    """The order kept by the constructor is the literal smallest-source walk."""

    def test_every_enumerated_dag(self):
        for n in range(1, 6):
            for g in enumerate_dags(n):
                assert topological_order(g) == smallest_source_walk(g)

    def test_random_relabelings(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_dag(n, rng.random(), rng.randrange(2**32))
            perm = list(range(n))
            rng.shuffle(perm)
            h = Dag(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert topological_order(h) == smallest_source_walk(h)

    def test_forward_order_is_not_stored_per_vertex(self):
        # The succ and pred rows and their tuples take about 30 MiB at a
        # million vertices; a stored tuple of the order adds about 38 MiB more.
        tracemalloc.start()
        try:
            g = Dag(10**6, [(0, 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert topological_order(g)[:3] == (0, 1, 2)


class TestAllTopologicalOrders:
    def test_edgeless(self):
        assert len(all_topological_orders(Dag(3))) == 6

    def test_chain_unique(self):
        assert all_topological_orders(chain(3)) == [(0, 1, 2)]

    def test_diamond(self, diamond):
        assert all_topological_orders(diamond) == [(0, 1, 2, 3), (0, 2, 1, 3)]

    def test_lexicographic(self):
        orders = all_topological_orders(Dag(3))
        assert orders == sorted(orders)

    def test_cap(self):
        assert len(all_topological_orders(Dag(4), cap=24)) == 24
        with pytest.raises(CapExceededError):
            all_topological_orders(Dag(4), cap=23)

    def test_every_dag_against_the_definition(self):
        # Every enumerated DAG with n <= 5 and two relabelings of each:
        # the orders are exactly the permutations that put every edge
        # forward, and the first of them is the stored order.
        rng = random.Random(11)
        for n in range(1, 6):
            perms = list(permutations(range(n)))
            positions = [{v: i for i, v in enumerate(p)} for p in perms]
            for g in enumerate_dags(n):
                for relabel in (list(range(n)), *(rng.sample(range(n), n) for _ in range(2))):
                    h = Dag(n, [(relabel[u], relabel[v]) for u, v in g.edges])
                    orders = all_topological_orders(h)
                    expected = [p for p, at in zip(perms, positions) if all(at[u] < at[v] for u, v in h.edges)]
                    assert orders == expected
                    assert orders[0] == topological_order(h)


class TestLongestPath:
    def test_edgeless(self):
        assert longest_path_length(Dag(4)) == 0

    def test_chain(self):
        assert longest_path_length(chain(5)) == 4

    def test_chorded_chain(self, chorded_chain):
        assert longest_path_length(chorded_chain) == 4

    def test_against_path_enumeration(self):
        # Independent oracle: extend every path explicitly, take the max.
        def longest_by_enumeration(g):
            best = [0]
            succ = g.succ_masks

            def extend(v, length):
                if length > best[0]:
                    best[0] = length
                m = succ[v]
                while m:
                    low = m & -m
                    extend(low.bit_length() - 1, length + 1)
                    m ^= low

            for v in range(g.n):
                extend(v, 0)
            return best[0]

        for n in range(1, 7):
            for g in enumerate_dags(n):
                assert longest_path_length(g) == longest_by_enumeration(g)


class TestLevelPartition:
    def test_chain(self):
        part = level_partition(chain(3))
        assert part.levels == (frozenset({0}), frozenset({1}), frozenset({2}))
        assert part.ell == 2

    def test_star(self):
        part = level_partition(Dag(3, [(0, 1), (0, 2)]))
        assert part.levels == (frozenset({0}), frozenset({1, 2}))

    def test_chorded_chain(self, chorded_chain):
        part = level_partition(chorded_chain)
        assert [sorted(s) for s in part.levels] == [[0], [1], [2], [3], [4]]

    @given(forward_dags(max_n=6))
    @settings(max_examples=200)
    def test_invariants(self, g):
        part = level_partition(g)
        seen = set()
        for block in part.levels:
            assert block, "every level is nonempty"
            assert not block & seen
            seen |= block
            assert all((u not in block or v not in block) for u, v in g.edges), "levels are independent"
        assert seen == set(range(g.n))
        assert part.levels[0] == frozenset(sources(g))
        assert part.levels[part.ell] <= frozenset(sinks(g))
        lev = levels(g)
        for v in range(g.n):
            assert v in part.levels[lev[v]]


class TestReachability:
    def test_chain_transitive(self):
        r = reachability(chain(3))
        assert r[0][2] is True

    def test_edgeless(self):
        assert not any(any(row) for row in reachability(Dag(3)))

    def test_diamond_exact(self, diamond):
        r = reachability(diamond)
        expected = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
        got = {(v, w) for v in range(4) for w in range(4) if r[v][w]}
        assert got == expected

    @given(forward_dags(max_n=6))
    @settings(max_examples=150)
    def test_transitive_and_irreflexive(self, g):
        r = reachability(g)
        for v in range(g.n):
            assert not r[v][v]
            for w in range(g.n):
                if r[v][w]:
                    for x in range(g.n):
                        if r[w][x]:
                            assert r[v][x]

    def test_ancestors_descendants(self, diamond):
        assert ancestors(chain(3), 2) == {0, 1}
        assert ancestors(chain(3), 0) == set()
        assert descendants(diamond, 0) == {1, 2, 3}


class TestEdgeListFormat:
    def test_round_trip(self, chorded_chain):
        assert parse_edge_list(format_edge_list(chorded_chain)) == chorded_chain

    @given(forward_dags())
    @settings(max_examples=100)
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n\nn 3\n0 1\n# another\n1 2\n"
        assert parse_edge_list(text) == chain(3)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("vertices 3\n")
        assert err.value.line == 1

    def test_bad_edge_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("n 3\n0 1\n0 x\n")
        assert err.value.line == 3

    def test_vertex_count_limit(self):
        assert parse_edge_list(f"n {MAX_EDGE_LIST_VERTICES}\n0 1\n").n == MAX_EDGE_LIST_VERTICES
        with pytest.raises(ParseError) as err:
            parse_edge_list(f"# big\nn {MAX_EDGE_LIST_VERTICES + 1}\n0 1\n")
        assert err.value.line == 2 and "exceeds the limit" in str(err.value)

    @given(
        st.one_of(
            st.text(),
            st.tuples(
                st.integers(-3, 12), st.lists(st.text(alphabet="0123456789 -+_x#\t", max_size=8), max_size=10)
            ).map(lambda t: f"n {t[0]}\n" + "\n".join(t[1])),
        )
    )
    @settings(max_examples=300)
    def test_any_text_parses_or_raises_dagx_error(self, text):
        try:
            parse_edge_list(text)
        except DagxError:
            pass

    def test_cycle_from_file(self):
        with pytest.raises(CycleError):
            parse_edge_list("n 2\n0 1\n1 0\n")

    def test_header_is_first_line(self):
        assert format_edge_list(chain(2)).splitlines()[0] == "n 2"
