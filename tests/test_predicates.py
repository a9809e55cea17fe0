import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagx.graph as graph
import dagx.predicates as predicates
from dagx import (
    CapExceededError,
    Dag,
    EndpointMismatchError,
    LimitExceededError,
    VertexRangeError,
    enumerate_dags,
    enumerate_paths,
    extremal_dag,
    ExtremalSpec,
    is_extremely_reduced,
    is_reduced,
    is_reduced_bruteforce,
    is_sequence_path,
    is_strongly_reduced,
    is_strongly_reduced_bruteforce,
    is_transitive,
    ordered_union,
    all_topological_orders,
    reachability,
    transitive_closure,
)
from dagx.generators import dag_count, dag_from_index
from dagx.predicates import DEFAULT_PATH_CAP, path_vertex_masks

from conftest import chain, forward_dags


class TestEnumeratePaths:
    def test_chain(self):
        assert enumerate_paths(chain(3), 0, 2) == [(0, 1, 2)]

    def test_diamond(self, diamond):
        assert enumerate_paths(diamond, 0, 3) == [(0, 1, 3), (0, 2, 3)]

    def test_chorded_chain(self, chorded_chain):
        got = set(enumerate_paths(chorded_chain, 0, 4))
        assert got == {(0, 1, 2, 3, 4), (0, 1, 4), (0, 3, 4)}

    def test_unreachable(self, diamond):
        assert enumerate_paths(diamond, 3, 0) == []

    def test_cap(self):
        g = transitive_closure(chain(6))  # 16 paths from 0 to 5
        assert len(enumerate_paths(g, 0, 5, cap=16)) == 16
        with pytest.raises(CapExceededError):
            enumerate_paths(g, 0, 5, cap=15)

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            enumerate_paths(chain(3), 0, 7)

    @pytest.mark.parametrize(
        "v, w", [(0, 7), (7, 0), (0, 3), (0, -1), (-1, 2)], ids=["above", "source-above", "at-n", "negative", "source-negative"]
    )
    def test_path_vertex_masks_out_of_range(self, v, w):
        with pytest.raises(VertexRangeError):
            path_vertex_masks(chain(3), v, w)

    @given(forward_dags(max_n=6), st.data())
    @settings(max_examples=100)
    def test_relabeling_permutes_the_paths(self, g, data):
        # On the relabeled graph the vertex order is no longer topological,
        # so each path's vertex set is listed by a Kahn order.
        perm = data.draw(st.permutations(range(g.n)))
        h = Dag(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for v in range(g.n):
            for w in range(g.n):
                moved = sorted(tuple(perm[x] for x in p) for p in enumerate_paths(g, v, w))
                assert enumerate_paths(h, perm[v], perm[w]) == moved

    @given(forward_dags(max_n=6))
    @settings(max_examples=100)
    def test_paths_are_paths(self, g):
        r = reachability(g)
        for v in range(g.n):
            for w in range(g.n):
                paths = enumerate_paths(g, v, w)
                assert bool(paths) == (r[v][w] or v == w)
                for p in paths:
                    assert p[0] == v and p[-1] == w
                    assert len(set(p)) == len(p)
                    assert is_sequence_path(g, p)


def plain_path_masks(g: Dag, v: int, w: int) -> list[int]:
    """Vertex sets of the v->w paths by a depth-first search over ascending successors."""
    out = []

    def walk(u, acc):
        if u == w:
            out.append(acc)
            return
        for x in sorted(b for a, b in g.edges if a == u):
            walk(x, acc | 1 << x)

    walk(v, 1 << v)
    return out


def small_dags_and_relabelings():
    """Every DAG with n <= 5, each followed by two relabelings."""
    for n in range(1, 6):
        perms = list(permutations(range(n)))
        for g in enumerate_dags(n):
            yield g
            for perm in (perms[len(perms) // 3], perms[-1]):
                yield Dag(n, [(perm[u], perm[v]) for u, v in g.edges])


class TestPathTable:
    def test_matches_plain_search(self):
        for g in small_dags_and_relabelings():
            for v in range(g.n):
                for w in range(g.n):
                    assert path_vertex_masks(g, v, w) == plain_path_masks(g, v, w), (sorted(g.edges), v, w)

    def test_lists_are_copies(self, diamond):
        path_vertex_masks(diamond, 0, 3).clear()
        assert path_vertex_masks(diamond, 0, 3) == [0b1011, 0b1101]

    def test_caps_asked_in_turn(self):
        closed = transitive_closure(chain(6))  # 16 paths from 0 to 5, 8 from 0 to 4
        for caps in ((7, 16, 8, 15, 7), (16, 15, 8, 7, 16)):
            g = Dag(6, closed.edges)  # fresh tables for each sequence of caps
            for cap in caps:
                if cap < 16:
                    with pytest.raises(CapExceededError, match=f"more than {cap} paths from 0 to 5"):
                        path_vertex_masks(g, 0, 5, cap)
                else:
                    assert path_vertex_masks(g, 0, 5, cap) == plain_path_masks(g, 0, 5)
                if cap < 8:
                    with pytest.raises(CapExceededError, match="from 0 to 4"):
                        path_vertex_masks(g, 0, 4, cap)
                else:
                    assert len(path_vertex_masks(g, 0, 4, cap)) == 8

    def test_single_vertex_path_respects_the_cap(self):
        g = chain(3)
        for w in range(3):
            with pytest.raises(CapExceededError, match=f"more than 0 paths from {w} to {w}"):
                path_vertex_masks(g, w, w, 0)
            assert path_vertex_masks(g, w, w, 1) == [1 << w]
        assert path_vertex_masks(g, 2, 0, 0) == []
        with pytest.raises(CapExceededError, match="more than -1 paths from 2 to 0"):
            path_vertex_masks(g, 2, 0, -1)

    def test_each_column_filled_once_per_cap(self, monkeypatch):
        filled = []
        fill = predicates._fill_paths

        def counted(g, w, cap):
            filled.append((w, cap))
            return fill(g, w, cap)

        monkeypatch.setattr(predicates, "_fill_paths", counted)
        g = Dag(10, DIAMOND + CLOSED_CHAIN)
        targets = [w for w in range(g.n) if graph.reach_to_masks(g)[w]]
        for _ in range(2):
            assert not is_reduced_bruteforce(g, 16)
            assert not is_strongly_reduced_bruteforce(g, path_cap=16)
        assert sorted(filled) == [(w, 16) for w in targets]
        first = g._cache[("paths", 16)]
        columns = dict(first)

        # A second cap builds its own table and leaves the first one alone.
        assert not is_reduced_bruteforce(g, 15)  # the diamond's pair (0, 3) fails first
        with pytest.raises(CapExceededError, match="more than 15 paths from 4 to 9"):
            path_vertex_masks(g, 4, 9, 15)
        assert path_vertex_masks(g, 4, 9, 16) == plain_path_masks(g, 4, 9)
        assert filled[len(targets):] == [(1, 15), (2, 15), (3, 15), (9, 15)]
        assert g._cache[("paths", 16)] is first
        assert all(first[w] is columns[w] for w in targets)


class TestOrderedUnion:
    def test_idempotent(self):
        assert ordered_union((0, 1, 2), (0, 1, 2), (0, 1, 2)) == (0, 1, 2)

    def test_chorded_chain_union_not_a_path(self, chorded_chain):
        union = ordered_union((0, 1, 4), (0, 3, 4), (0, 1, 2, 3, 4))
        assert union == (0, 1, 3, 4)
        assert not is_sequence_path(chorded_chain, union)

    def test_diamond(self):
        assert ordered_union((0, 1, 3), (0, 2, 3), (0, 1, 2, 3)) == (0, 1, 2, 3)

    def test_endpoint_mismatch(self):
        with pytest.raises(EndpointMismatchError):
            ordered_union((0, 1), (0, 2), (0, 1, 2))


class TestIsSequencePath:
    def test_chain(self):
        assert is_sequence_path(chain(3), (0, 1, 2))

    def test_single_vertex(self):
        assert is_sequence_path(Dag(6), (5,))

    def test_empty_and_out_of_range(self):
        assert not is_sequence_path(chain(3), ())
        assert not is_sequence_path(chain(3), (0, 9))


class TestTransitivity:
    def test_chain_not_transitive(self):
        assert not is_transitive(chain(3))

    def test_chain_plus_chord(self):
        assert is_transitive(Dag(3, [(0, 1), (1, 2), (0, 2)]))

    def test_extremal_instance(self):
        assert is_transitive(extremal_dag(ExtremalSpec(2, 2, 2)))

    def test_closure_chain(self):
        c = transitive_closure(chain(3))
        assert c.edges == {(0, 1), (1, 2), (0, 2)}

    def test_closure_fixpoint(self):
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        assert transitive_closure(g) == g

    def test_closure_chorded_chain(self, chorded_chain):
        c = transitive_closure(chorded_chain)
        assert c.edges == {(u, v) for u in range(5) for v in range(u + 1, 5)}

    def test_closure_edge_limit(self, monkeypatch):
        # chain(4) closes to 6 edges, chain(5) to 10: counted from the reach rows first.
        monkeypatch.setattr(graph, "MAX_EDGES", 6)
        assert len(transitive_closure(chain(4)).edges) == 6
        with pytest.raises(LimitExceededError, match="MAX_EDGES = 6"):
            transitive_closure(chain(5))

    @given(forward_dags(max_n=6))
    @settings(max_examples=150)
    def test_closure_properties(self, g):
        c = transitive_closure(g)
        assert is_transitive(c)
        assert g.edges <= c.edges
        assert transitive_closure(c) == c
        r = reachability(g)
        assert c.edges == {(v, w) for v in range(g.n) for w in range(g.n) if r[v][w]}


class TestPredicateExamples:
    def test_edgeless_extremely(self):
        assert is_extremely_reduced(Dag(4))

    def test_diamond(self, diamond):
        assert not is_extremely_reduced(diamond)
        assert not is_strongly_reduced(diamond)
        assert not is_reduced(diamond)

    def test_triangle(self):
        assert is_extremely_reduced(extremal_dag(ExtremalSpec(1, 2, 1)))

    def test_chorded_chain(self, chorded_chain):
        assert is_reduced(chorded_chain)
        assert not is_strongly_reduced(chorded_chain)
        assert not is_extremely_reduced(chorded_chain)

    def test_chorded_chain_closure_strongly(self, chorded_chain):
        c = transitive_closure(chorded_chain)
        assert is_strongly_reduced(c)
        assert is_extremely_reduced(c)

    def test_chains(self):
        for k in range(1, 7):
            g = chain(k)
            assert is_reduced(g)
            assert is_strongly_reduced(g)
        # chains stay extremely reduced only up to 4 vertices: in a longer
        # chain the pair (1, 3) is non-adjacent with common ancestor 0 and
        # common descendant 4.
        assert is_extremely_reduced(chain(4))
        assert not is_extremely_reduced(chain(5))

    def test_single_vertex_and_edge(self):
        for g in (Dag(1), Dag(2, [(0, 1)])):
            assert is_reduced(g)
            assert is_strongly_reduced(g)
            assert is_extremely_reduced(g)


class TestIncomparableRule:
    """Reduced == no incomparable pair with a common ancestor and a common descendant."""

    @staticmethod
    def literal(g):
        r = reachability(g)
        n = g.n
        return not any(
            not r[x][y]
            and not r[y][x]
            and any(r[v][x] and r[v][y] for v in range(n))
            and any(r[x][w] and r[y][w] for w in range(n))
            for x in range(n)
            for y in range(n)
            if x != y
        )

    def test_exhaustive_and_relabeled(self):
        from itertools import permutations

        for n in range(1, 6):
            perms = list(permutations(range(n)))
            for g in enumerate_dags(n):
                assert is_reduced(g) == self.literal(g)
                for perm in (perms[len(perms) // 3], perms[-1]):
                    h = Dag(n, [(perm[u], perm[v]) for u, v in g.edges])
                    assert is_reduced(h) == self.literal(h) == is_reduced(g)

    def test_verdict_computed_once(self, chorded_chain, monkeypatch):
        import dagx.predicates as predicates

        calls = []
        real = predicates._joined_pairs_linked
        monkeypatch.setattr(predicates, "_joined_pairs_linked", lambda *args: calls.append(1) or real(*args))
        assert is_reduced(chorded_chain)
        assert not is_strongly_reduced(chorded_chain)
        assert is_reduced(chorded_chain)
        assert len(calls) == 1


class TestCrossingRule:
    """Strongly reduced == reduced with no edge pair p->q, a->c, p ~> a ~> q ~> c, lacking a->q."""

    def test_chorded_chain_crossing(self, chorded_chain):
        # p=0, q=3, a=1, c=4: 0 ~> 1 ~> 3 ~> 4, edges 0->3 and 1->4, no 1->3.
        assert is_reduced(chorded_chain)
        assert not is_strongly_reduced(chorded_chain)
        repaired = Dag(5, chorded_chain.edges | {(1, 3)})
        assert is_reduced(repaired)
        assert is_strongly_reduced(repaired)
        assert is_strongly_reduced_bruteforce(repaired)

    def test_relabeled_non_forward(self, chorded_chain):
        perm = (3, 0, 4, 1, 2)
        h = Dag(5, [(perm[u], perm[v]) for u, v in chorded_chain.edges])
        assert any(u > v for u, v in h.edges)
        assert is_reduced(h)
        assert not is_strongly_reduced(h)
        assert not is_strongly_reduced_bruteforce(h)
        repaired = Dag(5, h.edges | {(perm[1], perm[3])})
        assert is_strongly_reduced(repaired)
        assert is_strongly_reduced_bruteforce(repaired)

    def test_literal_rule_exhaustive(self):
        # The rule quantified edge pair by edge pair, on every DAG with n <= 5.
        for n in range(1, 6):
            for g in enumerate_dags(n):
                r = reachability(g)
                crossing = any(
                    r[p][a] and r[a][q] and r[q][c] and (a, q) not in g.edges
                    for p, q in g.edges
                    for a, c in g.edges
                )
                assert is_strongly_reduced(g) == (is_reduced(g) and not crossing)


def literal_strongly_reduced(g: Dag) -> bool:
    """The definition as written: every topological order x every pair of
    joining paths, each ordered union checked to be a directed path."""
    orders = None
    for v in range(g.n):
        for w in range(g.n):
            paths = enumerate_paths(g, v, w)
            if len(paths) < 2:
                continue
            if orders is None:
                orders = all_topological_orders(g)
            for order in orders:
                for p, q in combinations(paths, 2):
                    if not is_sequence_path(g, ordered_union(p, q, order)):
                        return False
    return True


class TestStronglyReducedOracle:
    """is_strongly_reduced_bruteforce folds each (v, w)'s path pairs into
    their distinct unions; it must agree with the literal loop."""

    def test_every_dag_up_to_5(self):
        for n in range(1, 6):
            for g in enumerate_dags(n):
                assert is_strongly_reduced_bruteforce(g) == literal_strongly_reduced(g), sorted(g.edges)

    def test_seeded_random_dags_up_to_8(self):
        rng = random.Random(2016)
        verdicts = []
        for _ in range(300):
            n = rng.randint(6, 8)
            g = dag_from_index(n, rng.randrange(dag_count(n)))
            verdicts.append(is_strongly_reduced_bruteforce(g))
            assert verdicts[-1] == literal_strongly_reduced(g), (n, sorted(g.edges))
        assert any(verdicts) and not all(verdicts)

    def test_walk_visits_every_downset(self):
        # A union that is a path under one topological order is a path under
        # all of them (its edges fix the order of its vertices), so verdicts
        # cannot show whether the oracle looks past the first order. The
        # walk's visits can: the triangle's pair (0, 2) has two joining
        # paths, and on this passing graph every placed set of every order,
        # each downset, must be visited once.
        g = Dag(4, [(0, 1), (1, 2), (0, 2)])
        downsets = [s for s in range(16) if all(s >> a & 1 for a, b in g.edges if s >> b & 1)]
        assert len(downsets) == 8
        visits = []

        def watch(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name == "extend" and code.co_filename == predicates.__file__:
                visits.append(frame.f_locals["placed"])

        previous = sys.getprofile()
        sys.setprofile(watch)
        try:
            assert is_strongly_reduced_bruteforce(g)
        finally:
            sys.setprofile(previous)
        assert sorted(visits) == downsets

    def test_order_count_matches_listing(self):
        for g in small_dags_and_relabelings():
            k = len(all_topological_orders(g))
            assert predicates._count_orders(g, k) == k
            with pytest.raises(CapExceededError, match=f"more than {k - 1} topological orders"):
                predicates._count_orders(g, k - 1)

    def test_caps(self, diamond):
        with pytest.raises(CapExceededError):
            is_strongly_reduced_bruteforce(diamond, path_cap=1)
        with pytest.raises(CapExceededError):
            is_strongly_reduced_bruteforce(diamond, order_cap=1)
        assert not is_strongly_reduced_bruteforce(diamond, order_cap=2, path_cap=2)


# A diamond on 0..3 beside the transitive closure of a 6-chain on 4..9, which
# has 16 paths from 4 to 9. The diamond's pair (0, 3) comes first and fails.
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]
CLOSED_CHAIN = [(4 + a, 4 + b) for a in range(6) for b in range(a + 1, 6)]


class TestCapPrecedence:
    """Where the caps raise, for both oracles, whatever order they do their work in."""

    def test_failing_pair_before_a_capped_pair(self):
        g = Dag(10, DIAMOND + CLOSED_CHAIN)
        assert not is_reduced_bruteforce(g, 15)
        assert not is_strongly_reduced_bruteforce(g, path_cap=15)

    def test_capped_pair_is_named(self):
        g = Dag(10, CLOSED_CHAIN)
        with pytest.raises(CapExceededError, match="more than 15 paths from 4 to 9"):
            is_reduced_bruteforce(g, 15)
        with pytest.raises(CapExceededError, match="more than 15 paths from 4 to 9"):
            is_strongly_reduced_bruteforce(g, path_cap=15)
        assert is_reduced_bruteforce(g, 16)
        assert is_strongly_reduced_bruteforce(g, path_cap=16)

    def test_order_cap_before_any_union(self):
        # 420 orders: the diamond's 2, each interleaved with the chain in C(10, 4) ways.
        g = Dag(10, DIAMOND + CLOSED_CHAIN)
        assert len(all_topological_orders(g)) == 420
        for path_cap in (15, DEFAULT_PATH_CAP):
            with pytest.raises(CapExceededError, match="more than 419 topological orders"):
                is_strongly_reduced_bruteforce(g, order_cap=419, path_cap=path_cap)
            assert not is_strongly_reduced_bruteforce(g, order_cap=420, path_cap=path_cap)
            assert not is_reduced_bruteforce(g, path_cap)

    def test_same_outcomes_in_either_order(self, diamond):
        cases = [
            (diamond, {0: "0 paths from 0 to 1", 1: "paths from 0 to 3", 2: False, DEFAULT_PATH_CAP: False}),
            (transitive_closure(chain(6)), {0: "0 paths from 0 to 1", 15: "paths from 0 to 5", 16: True, DEFAULT_PATH_CAP: True}),
        ]
        for base, want in cases:
            for caps in (list(want), list(want)[::-1]):
                g = Dag(base.n, base.edges)  # a fresh table for each sequence of caps
                for cap in caps:
                    for oracle in (lambda: is_reduced_bruteforce(g, cap), lambda: is_strongly_reduced_bruteforce(g, path_cap=cap)):
                        if isinstance(want[cap], str):
                            with pytest.raises(CapExceededError, match=want[cap]):
                                oracle()
                        else:
                            assert oracle() is want[cap]


class TestOracleAgreement:
    def test_exhaustive_small(self):
        # Fast predicates against the literal brute-force oracles, and the
        # implication chain, on every forward-labeled DAG with n <= 5.
        for n in range(1, 6):
            for g in enumerate_dags(n):
                rd = is_reduced(g)
                st = is_strongly_reduced(g)
                ex = is_extremely_reduced(g)
                assert is_reduced_bruteforce(g) == rd
                assert is_strongly_reduced_bruteforce(g) == st
                assert not (ex and not st)
                assert not (st and not rd)

    def test_strongly_oracle_lists_orders_only_when_needed(self, diamond):
        # Dag(9) has 9! orders but no pair with two joining paths.
        assert is_strongly_reduced_bruteforce(Dag(9))
        with pytest.raises(CapExceededError):
            is_strongly_reduced_bruteforce(diamond, order_cap=1)

    @given(forward_dags(min_n=6, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_random_agreement(self, g):
        assert is_reduced_bruteforce(g) == is_reduced(g)
        assert is_strongly_reduced_bruteforce(g) == is_strongly_reduced(g)

    def test_reduced_definition_under_every_order(self):
        # The literal definition: every span, sorted by a topological
        # order, is a directed path; checked under every order.
        for n in range(1, 6):
            for g in enumerate_dags(n):
                r = reachability(g)
                spans = [
                    {v, w} | {x for x in range(n) if r[v][x] and r[x][w]}
                    for v in range(n)
                    for w in range(n)
                    if r[v][w]
                ]
                expected = is_reduced(g)
                for order in all_topological_orders(g):
                    pos = {v: i for i, v in enumerate(order)}
                    literal = all(is_sequence_path(g, tuple(sorted(span, key=pos.__getitem__))) for span in spans)
                    assert literal == expected

    @given(forward_dags())
    @settings(max_examples=150)
    def test_implication_chain(self, g):
        if is_extremely_reduced(g):
            assert is_strongly_reduced(g)
        if is_strongly_reduced(g):
            assert is_reduced(g)

    @given(forward_dags(max_n=6))
    @settings(max_examples=100)
    def test_transitive_equivalence_and_closure(self, g):
        if is_transitive(g):
            assert is_extremely_reduced(g) == is_strongly_reduced(g) == is_reduced(g)
        if is_reduced(g):
            c = transitive_closure(g)
            assert is_reduced(c) and is_strongly_reduced(c) and is_extremely_reduced(c)

    def test_relabeling_invariance(self):
        # The predicates are isomorphism-invariant; relabeled graphs are
        # generally not forward, so this also drives the general-order path.
        from itertools import permutations

        for n in range(1, 5):
            perms = list(permutations(range(n)))
            for g in enumerate_dags(n):
                expected = (is_reduced(g), is_strongly_reduced(g), is_extremely_reduced(g), is_transitive(g))
                for perm in (perms[len(perms) // 2], perms[-1]):
                    h = Dag(n, [(perm[u], perm[v]) for u, v in g.edges])
                    got = (is_reduced(h), is_strongly_reduced(h), is_extremely_reduced(h), is_transitive(h))
                    assert got == expected
                    assert is_reduced_bruteforce(h) == expected[0]
                    assert is_strongly_reduced_bruteforce(h) == expected[1]
