import inspect
import json
import sys
import time
from concurrent.futures import Future
from itertools import combinations
from math import comb

import numpy as np
import pytest

import dagx.boxes as boxes
import dagx.harness as harness
import dagx.kernels as kernels
from dagx import (
    Dag,
    ExtremalSpec,
    InvalidParamsError,
    LimitExceededError,
    UnknownClaimError,
    VerificationReport,
    find_separations,
    parse_edge_list,
    verify_box_props,
    verify_claim,
    verify_clique_bound,
    verify_closure,
    verify_equivalence_transitive,
    verify_implications,
    verify_theorem_bound,
    verify_turan_bound,
)
from dagx.bounds import reduced_dag_edge_bound, turan_graph_edges
from dagx.boxes import _GRID, boxes_intersect, extremal_box_family, format_box_csv, random_box_family
from dagx.generators import dag_count, dag_from_index
from dagx.graph import format_edge_list, longest_path_length
from dagx.predicates import is_extremely_reduced, is_reduced, is_strongly_reduced
from dagx.harness import CHORDED_CHAIN_EDGES, _clique_edge_masks, _cover_within
from dagx.kernels import _BLOCK, _blocks, _rows

from conftest import CHORDED_CHAIN

# Exhaustively computed class maxima (independent prototype enumeration):
# at n = 6 the largest DAG with longest path ell has t(6, ell+1) edges.
TURAN_MAX_N6 = {0: 0, 1: 9, 2: 12, 3: 13, 4: 14, 5: 15}


def stripped(report: VerificationReport) -> dict:
    d = report.to_dict()
    d["elapsed_ms"] = 0
    return d


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every pool a sweep opens; the pools run each task at once and start no process.

    A test that patches ``harness`` and runs shards through a pool needs
    this: a worker started by spawn (the macOS and Windows default)
    imports the unpatched module.
    """
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
    return sizes


class TestReportShape:
    def test_json_schema_field_order(self):
        report = verify_turan_bound(3)
        data = json.loads(json.dumps(report.to_dict()))
        assert list(data) == ["claim", "range", "checked", "violations", "witnesses", "elapsed_ms", "params"]

    def test_ok_iff_no_violations(self):
        report = verify_turan_bound(3)
        assert report.ok and report.violations == []


def levels_and_edges(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(longest path length, edge count) of every mask in start..stop-1, read off the kernel's level rows."""
    rows = _rows(n, start, stop)
    return rows[1:].max(axis=0), rows[0]


def assert_levels_match_oracle(n: int, start: int, stop: int) -> None:
    ell, edges = levels_and_edges(n, start, stop)
    assert ell.shape == edges.shape == (stop - start,)
    for j, mask in enumerate(range(start, stop)):
        g = dag_from_index(n, mask)
        assert (int(ell[j]), int(edges[j])) == (longest_path_length(g), len(g.edges)), (n, mask)


class TestLevelsKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_mask(self, n):
        assert_levels_match_oracle(n, 0, dag_count(n))

    @pytest.mark.parametrize(
        "n, start, stop",
        [
            (6, 8192 - 37, 8192 + 91),  # bit 13 flips inside the range
            (6, 2 * 8192 + 5, 3 * 8192 + 5),  # unaligned
            (6, dag_count(6) - 300, dag_count(6)),  # the last masks, every bit set at the end
            (7, 5 * 8192 + 17, 6 * 8192 + 200),
            (7, _BLOCK - 37, _BLOCK + 91),  # straddles a block boundary
            (7, (1 << 20) - 150, (1 << 20) + 150),  # the top bit flips inside the range
            (7, dag_count(7) - 300, dag_count(7)),  # fixed high bits all set
            (7, 1_234_567, 1_234_568),  # a single mask, every bit fixed
        ],
    )
    def test_unaligned_ranges(self, n, start, stop):
        assert_levels_match_oracle(n, start, stop)

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    def test_blocks_straddle(self, monkeypatch, block):
        # The sweeps cut a range into runs of _BLOCK masks from its start;
        # the runs together give what one call over the range gives.
        monkeypatch.setattr(kernels, "_BLOCK", block)
        start, stop = block - 37, 2 * block + 91
        runs = list(_blocks(start, stop))
        assert runs == [(start, start + block), (start + block, stop)]
        whole = levels_and_edges(7, start, stop)
        for got, want in zip(zip(*(levels_and_edges(7, a, b) for a, b in runs)), whole):
            assert np.array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_isolated_last_sink(self, n):
        # The first dag_count(n - 1) indices at n leave vertex n - 1 isolated,
        # which changes no level and no edge count.
        for got, want in zip(levels_and_edges(n, 0, dag_count(n - 1)), levels_and_edges(n - 1, 0, dag_count(n - 1))):
            assert np.array_equal(got, want)


class TestTuranClaim:
    def test_counts(self):
        report = verify_turan_bound(5)
        assert report.checked == 1 + 2 + 8 + 64 + 1024
        assert report.ok

    def test_observed_max_table(self):
        report = verify_turan_bound(6)
        assert report.ok
        observed = report.params["observed_max"]
        for ell, expected in TURAN_MAX_N6.items():
            assert observed[f"6,{ell}"] == expected

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            verify_turan_bound(9)

    def test_theorem_ceiling_unchanged(self):
        with pytest.raises(LimitExceededError):
            verify_theorem_bound(9)


class TestTheoremClaim:
    @pytest.mark.parametrize("klass", ["extremely", "strongly", "reduced"])
    def test_small(self, klass):
        report = verify_theorem_bound(5, klass)
        assert report.ok
        for row in report.params["tightness"]:
            assert row["class_max"] == row["bound"] == row["generator_edges"]

    def test_alternative_split_is_one_vertex_short(self):
        report = verify_theorem_bound(5, "extremely")
        rows = [r for r in report.params["tightness"] if r["ell"] >= 2]
        assert rows
        for row in rows:
            assert row["alt_split_vertices"] == row["n"] - 1
            assert row["alt_split_edges"] < row["bound"]
        assert "corrected layer split" in report.params["note"]

    def test_bad_class(self):
        with pytest.raises(Exception):
            verify_theorem_bound(4, "weirdly")


THEOREM_CLASSES = {"extremely": is_extremely_reduced, "strongly": is_strongly_reduced, "reduced": is_reduced}


@pytest.fixture(scope="module")
def class_members():
    """klass -> [(n, ell, edges)] of every class member with n <= 6, from the scalar predicates.

    The key "all" lists every DAG.
    """
    members = {klass: [] for klass in (*THEOREM_CLASSES, "all")}
    for n in range(1, 7):
        for mask in range(dag_count(n)):
            g = dag_from_index(n, mask)
            ell, edges = longest_path_length(g), len(g.edges)
            members["all"].append((n, ell, edges))
            for klass, predicate in THEOREM_CLASSES.items():
                if predicate(g):
                    members[klass].append((n, ell, edges))
    return members


def counted_violations(report: VerificationReport, marker: str) -> int:
    """Listed graph violations whose detail contains ``marker``, plus the further ones counted."""
    listed = sum(marker in v["detail"] for v in report.violations)
    last = overflow_detail(report)
    return listed + (int(last.split()[0]) if last.endswith("further violations not listed") else 0)


class TestTheoremAgainstDefinition:
    """The gated edge-bound scan against the definition run on every graph, n <= 6.

    The reduced classes are checked against their scalar predicates; the
    Turan bound, over every DAG, against ``longest_path_length``. Each
    check runs at the real block size and again with 1000-mask blocks,
    which must change nothing; three workers cut n = 6 into shards that
    start inside a slab, run in process so that they see the patched
    block size.
    """

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("klass", list(THEOREM_CLASSES))
    def test_class_max(self, monkeypatch, pool_sizes, class_members, klass, workers):
        expected = {}
        for n, ell, edges in class_members[klass]:
            if ell >= 1:
                expected[n, ell] = max(expected.get((n, ell), -1), edges)
        for block in (_BLOCK, 1000):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            report = verify_theorem_bound(6, klass, workers=workers)
            assert {(row["n"], row["ell"]): row["class_max"] for row in report.params["tightness"]} == expected

    # Lowered by one, only graphs at the bound violate; at zero, every
    # member with an edge does, so the count tells the classes apart.
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("klass", list(THEOREM_CLASSES))
    @pytest.mark.parametrize("lower", [lambda bound: bound - 1, lambda bound: 0], ids=["by-one", "to-zero"])
    def test_violations_with_the_bound_lowered(self, monkeypatch, pool_sizes, class_members, klass, workers, lower):
        real = harness.reduced_dag_edge_bound
        lowered = lambda n, ell: lower(real(n, ell))
        monkeypatch.setattr(harness, "reduced_dag_edge_bound", lowered)
        expected = sum(ell >= 1 and edges > lowered(n, ell) for n, ell, edges in class_members[klass])
        assert expected > 0
        for block in (_BLOCK, 1000):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            report = verify_theorem_bound(6, klass, workers=workers)
            assert counted_violations(report, f"class {klass!r}:") == expected

    @pytest.mark.parametrize("workers", [1, 3])
    def test_turan_max(self, monkeypatch, pool_sizes, class_members, workers):
        expected = {}
        for n, ell, edges in class_members["all"]:
            expected[f"{n},{ell}"] = max(expected.get(f"{n},{ell}", -1), edges)
        for block in (_BLOCK, 1000):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            assert verify_turan_bound(6, workers=workers).params["observed_max"] == expected

    # Lowered by one, the edgeless graphs (t(n, 1) = 0) violate too.
    @pytest.mark.parametrize("workers", [1, 3])
    def test_turan_violations_with_the_bound_lowered(self, monkeypatch, pool_sizes, class_members, workers):
        real = harness.turan_graph_edges
        monkeypatch.setattr(harness, "turan_graph_edges", lambda n, k: real(n, k) - 1)
        expected = sum(edges >= real(n, ell + 1) for n, ell, edges in class_members["all"])
        assert expected > 0
        for block in (_BLOCK, 1000):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            report = verify_turan_bound(6, workers=workers)
            assert counted_violations(report, "edges with longest path") == expected


class TestEdgeBoundSpeed:
    def test_n8_on_one_worker(self):
        # The parent gate skips every parent whose slab cannot reach the
        # bound, and the three classes take one reach-kernel run each. On
        # a 2-core x86 box the per-mask gate took about 0.9 s for turan and
        # 2.4 s for the three classes; the parent gate takes about 0.01 s
        # and 0.04 s.
        t0 = time.perf_counter()
        assert verify_turan_bound(8).ok
        t1 = time.perf_counter()
        assert all(verify_theorem_bound(8, klass).ok for klass in THEOREM_CLASSES)
        t2 = time.perf_counter()
        assert t1 - t0 < 0.3
        assert t2 - t1 < 0.6


class TestEdgeBoundGate:
    """Each edge-bound scan lists only the masks at or above the bound.

    Those are all it needs: the members among them give every maximum
    that attains the bound and every graph above it. Every test runs
    turan or a class at n <= 6, at one worker and at three (shards that
    start inside a slab, run in process), with the real block size and
    with 1000-mask blocks, which must change nothing.
    """

    @staticmethod
    def claim(klass, monkeypatch, block, workers):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        if klass is None:
            return verify_turan_bound(6, workers=workers)
        return verify_theorem_bound(6, klass, workers=workers)

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("klass", [None, *THEOREM_CLASSES])
    def test_bound_zero_lists_in_index_order(self, monkeypatch, pool_sizes, class_members, klass, workers, block):
        # With every bound at 0 each member with an edge violates: the
        # listed ones are the first 20 in index order, the rest counted.
        monkeypatch.setattr(harness, "turan_graph_edges", lambda n, k: 0)
        monkeypatch.setattr(harness, "reduced_dag_edge_bound", lambda n, ell: 0)
        want = []
        for n in range(1, 7):
            for mask in range(dag_count(n)):
                g = dag_from_index(n, mask)
                e, lv = len(g.edges), longest_path_length(g)
                if e and len(want) < 20 and (klass is None or THEOREM_CLASSES[klass](g)):
                    if klass is None:
                        text = f"{e} edges with longest path {lv}, above t({n},{lv + 1}) = 0"
                    else:
                        text = f"class {klass!r}: {e} edges at ell={lv}, above bound 0"
                    want.append((format_edge_list(g), text))
        total = sum(edges > 0 for _, _, edges in class_members["all" if klass is None else klass])
        report = self.claim(klass, monkeypatch, block, workers)
        listed = [(v["graph"], v["detail"]) for v in report.violations if v["graph"] and "above" in v["detail"]]
        assert listed == want
        assert overflow_detail(report) == f"{total - 20} further violations not listed"

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("klass", list(THEOREM_CLASSES))
    def test_kernel_sees_only_masks_at_the_bound(self, monkeypatch, pool_sizes, klass, workers, block):
        # One reach-kernel run takes every n's masks as 6-vertex graphs, n
        # ascending and each n's masks in index order. Each n lists the
        # edgeless graph, index 0, first (0 edges at the bound 0 of ell 0),
        # so the columns of n start at its index 0; each column is checked
        # against the bound of its own n.
        sent = []
        real = harness._reach_verdicts

        def kernel(pred):
            sent.append(pred.copy())
            return real(pred)

        monkeypatch.setattr(harness, "_reach_verdicts", kernel)
        assert self.claim(klass, monkeypatch, block, workers).ok
        assert len(sent) == 1 and sent[0].shape[0] == 6
        index = [sum(row << comb(v, 2) for v, row in enumerate(column)) for column in zip(*sent[0].tolist())]
        starts = [j for j, i in enumerate(index) if i == 0]
        assert len(starts) == 6 and starts[0] == 0
        for n, (a, b) in enumerate(zip(starts, starts[1:] + [len(index)]), start=1):
            assert index[a:b] == sorted(set(index[a:b]))
            for i in index[a:b]:
                g = dag_from_index(n, i)
                ell = longest_path_length(g)
                assert len(g.edges) >= (reduced_dag_edge_bound(n, ell) if ell else 0), format_edge_list(g)

    @pytest.mark.parametrize("block", [_BLOCK, 1000])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("klass", [None, *THEOREM_CLASSES])
    def test_bound_raised_is_not_attained(self, monkeypatch, pool_sizes, klass, workers, block):
        real_turan, real_reduced = harness.turan_graph_edges, harness.reduced_dag_edge_bound
        monkeypatch.setattr(harness, "turan_graph_edges", lambda n, k: real_turan(n, k) + 1)
        monkeypatch.setattr(harness, "reduced_dag_edge_bound", lambda n, ell: real_reduced(n, ell) + 1)
        report = self.claim(klass, monkeypatch, block, workers)
        if klass is None:
            rows = [(*map(int, key.split(",")), top) for key, top in report.params["observed_max"].items()]
            bounds = {(n, lv): real_turan(n, lv + 1) + 1 for n, lv, _ in rows}
        else:
            rows = [(row["n"], row["ell"], row["class_max"]) for row in report.params["tightness"]]
            bounds = {(n, lv): real_reduced(n, lv) + 1 for n, lv, _ in rows}
        assert len(rows) == sum(range(1, 7)) - (0 if klass is None else 6)
        assert all(top is None for _, _, top in rows)
        notes = [v["detail"] for v in report.violations if "attains the bound" in v["detail"]]
        assert notes == [
            f"no DAG attains the bound t({n},{lv + 1}) = {bounds[n, lv]} at n={n}, ell={lv}"
            if klass is None
            else f"no class member attains the bound {bounds[n, lv]} at n={n}, ell={lv}"
            for n, lv, _ in rows
        ]
        assert not any("above" in v["detail"] for v in report.violations)


class TestImplicationsClaim:
    def test_exhaustive_plus_random(self):
        report = verify_implications(4, random_trials=100)
        assert report.ok
        assert report.checked == 75 + 100

    def test_random_trials_deterministic(self):
        a = stripped(verify_implications(3, random_trials=50))
        b = stripped(verify_implications(3, random_trials=50))
        assert a == b


class TestEquivalenceAndClosure:
    def test_equiv(self):
        report = verify_equivalence_transitive(5)
        assert report.ok
        assert report.params["transitive_graphs"] == 407

    def test_closure(self):
        report = verify_closure(5)
        assert report.ok
        assert report.params["reduced_inputs"] == 965

    def test_closure_checked_against_pivot_order(self, monkeypatch):
        # The first 2-vertex call's rt gains a pair nothing reaches: at
        # index 0, rt[1] = {0}. The kernel's own closure of that rt agrees
        # with it and keeps every edge, so only the pivot-order closure,
        # built from the predecessor rows, tells.
        real = harness._reach_verdicts
        calls = []

        def kernel(pred):
            v = real(pred)
            if pred.shape[0] == 2 and not calls:
                calls.append(pred.shape)
                rt = v.rt.copy()
                rt[1, 0] = 1
                v = v._replace(rt=rt)
            return v

        monkeypatch.setattr(harness, "_reach_verdicts", kernel)
        report = verify_closure(2)
        assert report.violations == [{"graph": "n 2\n", "detail": "closure differs from the pivot-order closure"}]


class TestSeparations:
    def test_witnesses(self):
        report = find_separations(5)
        assert report.ok
        kinds = {w["kind"]: w for w in report.witnesses}
        assert set(kinds) == {"reduced-not-strongly", "strongly-not-extremely"}
        first_a = parse_edge_list(kinds["reduced-not-strongly"]["graph"])
        assert first_a == Dag(5, CHORDED_CHAIN)
        assert first_a == Dag(5, CHORDED_CHAIN_EDGES)
        first_b = parse_edge_list(kinds["strongly-not-extremely"]["graph"])
        assert first_b == Dag(5, [(0, 1), (1, 2), (2, 3), (3, 4)])

    def test_witness_indices(self):
        report = find_separations(5)
        assert [(w["kind"], w["index"]) for w in report.witnesses] == [
            ("reduced-not-strongly", 685),
            ("strongly-not-extremely", 549),
        ]

    def test_none_below_five(self):
        report = find_separations(4)
        assert report.ok
        assert report.witnesses == []

    def test_stops_after_smallest(self):
        report = find_separations(6)
        assert report.checked == 1 + 2 + 8 + 64 + 1024

    @staticmethod
    def kernel_at(monkeypatch, n, change):
        """Replace the reach kernel's verdicts by ``change(verdicts)`` on graphs with n vertices."""
        real = harness._reach_verdicts

        def kernel(pred):
            v = real(pred)
            return change(v) if pred.shape[0] == n else v

        monkeypatch.setattr(harness, "_reach_verdicts", kernel)

    def test_no_witness_at_five(self, monkeypatch):
        # Every reduced graph on 5 vertices declared extremely reduced: the
        # first witnesses move to n = 6, which contradicts "both at n = 5".
        self.kernel_at(monkeypatch, 5, lambda v: v._replace(strongly=v.reduced, extremely=v.reduced))
        report = find_separations(6)
        assert not report.ok
        assert report.checked == 1 + 2 + 8 + 64 + 1024 + 32768
        assert [w["n"] for w in report.witnesses] == [6, 6]
        first_a = report.witnesses[0]["graph"]
        assert report.violations == [
            {"graph": first_a, "detail": "first reduced-not-strongly witness is at n = 6, expected n = 5"},
            {"graph": first_a, "detail": "first reduced-not-strongly witness is not the chorded chain"},
            {
                "graph": report.witnesses[1]["graph"],
                "detail": "first strongly-not-extremely witness is at n = 6, expected n = 5",
            },
        ]

    @pytest.mark.parametrize("max_n", [4, 5])
    def test_witness_below_five(self, monkeypatch, max_n):
        # No graph on 4 vertices declared strongly reduced: the empty graph
        # (index 0) becomes a reduced-not-strongly witness below n = 5.
        self.kernel_at(monkeypatch, 4, lambda v: v._replace(strongly=np.zeros_like(v.strongly)))
        report = find_separations(max_n)
        assert not report.ok
        first = report.witnesses[0]
        assert (first["kind"], first["n"], first["index"]) == ("reduced-not-strongly", 4, 0)
        empty = format_edge_list(Dag(4))
        expected = [{"graph": empty, "detail": "first reduced-not-strongly witness is at n = 4, expected n = 5"}]
        if max_n == 5:
            expected.append({"graph": empty, "detail": "first reduced-not-strongly witness is not the chorded chain"})
        assert report.violations == expected

    def test_chorded_chain_checked_by_the_scalar_predicates(self, monkeypatch):
        monkeypatch.setattr(harness, "is_strongly_reduced", lambda g: True)
        report = find_separations(5)
        assert report.violations == [
            {
                "graph": format_edge_list(Dag(5, CHORDED_CHAIN_EDGES)),
                "detail": "chorded chain should be reduced and not strongly reduced",
            }
        ]


class TestCliqueBound:
    def test_confirmed_through_n8(self):
        report = verify_clique_bound(8)
        assert report.ok
        assert report.checked == sum(n for n in range(2, 9))

    def test_detects_a_wrong_bound(self):
        # Sanity-check the search itself: 11 deletions cannot hit all
        # triangles of the 8-clique, but 12 can.
        assert not _cover_within(8, 3, 11)
        assert _cover_within(8, 3, 12)

    def test_pinned_clique_masks(self):
        # The search numbers pair (u, v) by C(v, 2) + u, the enumeration index's colex pair order.
        assert _clique_edge_masks(5, 2) == [1, 2, 8, 64, 4, 16, 128, 32, 256, 512]
        assert _clique_edge_masks(5, 3) == [7, 25, 193, 42, 322, 584, 52, 388, 656, 800]
        assert _clique_edge_masks(5, 4) == [63, 455, 729, 874, 948]

    def test_search_matches_literal_oracle(self):
        # Every edge set of K_n, n <= 6, tried in turn: the densest one with
        # no (k + 1)-clique has t(n, k) edges, and the search says yes at
        # budget b exactly when some b-edge set hits every (k + 1)-clique.
        for n in range(2, 7):
            pairs = comb(n, 2)
            for k in range(1, n + 1):
                cliques = _clique_edge_masks(n, k + 1)
                free = [s for s in range(1 << pairs) if not any(cm & ~s == 0 for cm in cliques)]
                assert max(bin(s).count("1") for s in free) == turan_graph_edges(n, k), (n, k)
                sizes = {bin(d).count("1") for d in range(1 << pairs) if all(cm & d for cm in cliques)}
                for b in range(pairs + 1):
                    assert _cover_within(n, k + 1, b) == (b in sizes), (n, k, b)

    def test_finds_the_turan_complement(self):
        # The C(n, 2) - t(n, k) edges inside the Turan graph's parts hit
        # every (k + 1)-clique, so a prune that cuts a live branch fails here.
        for n in range(2, 10):
            for k in range(1, n + 1):
                assert _cover_within(n, k + 1, comb(n, 2) - turan_graph_edges(n, k)), (n, k)

    def test_orbit_rule_matches_plain_search(self):
        # A plain branch-and-bound that tries every edge of the first unhit
        # clique, with no orbit rule and no memo, at the two budgets around
        # the Turan complement, where the literal oracle above cannot reach.
        def plain_cover(cliques: list[int], budget: int) -> bool:
            if not cliques:
                return True
            packed = used = 0
            for cm in cliques:
                if not cm & used:
                    used |= cm
                    packed += 1
            if packed > budget:
                return False
            rest = cliques[0]
            while rest:
                low = rest & -rest
                rest ^= low
                if plain_cover([cm for cm in cliques if not cm & low], budget - 1):
                    return True
            return False

        for n in (7, 8):
            for k in range(1, n + 1):
                cliques = _clique_edge_masks(n, k + 1)
                top = comb(n, 2) - turan_graph_edges(n, k)
                for b in {max(top - 1, 0), top}:
                    assert _cover_within(n, k + 1, b) == plain_cover(cliques, b), (n, k, b)

    def test_search_stays_small(self):
        # Counts calls of the search's nested function: the budgets
        # verify_clique_bound(8) asks for take 604 nodes with the orbit rule
        # and 7,710 without, so a lost prune fails here.
        nodes = 0

        def count(frame, event, arg):
            nonlocal nodes
            if event == "call" and frame.f_code.co_name == "search":
                nodes += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for n in range(2, 9):
                for k in range(1, n):
                    _cover_within(n, k + 1, comb(n, 2) - turan_graph_edges(n, k) - 1)
        finally:
            sys.setprofile(previous)
        assert nodes <= 1000

    def test_range_checked(self):
        with pytest.raises(InvalidParamsError):
            verify_clique_bound(-3)
        with pytest.raises(LimitExceededError):
            verify_clique_bound(11)


class TestBoxClaim:
    def test_small_run(self):
        report = verify_box_props(trials=40, seed=7)
        assert report.ok
        assert report.checked == 40 + 40 + 5 * 4 * 6

    def test_deterministic(self):
        assert stripped(verify_box_props(25, seed=3)) == stripped(verify_box_props(25, seed=3))

    def test_negative_seed(self):
        with pytest.raises(InvalidParamsError, match="seed"):
            verify_box_props(2, seed=-1)

    def test_no_random_trials(self):
        # An empty trial range makes no shards; only the extremal specs run.
        assert verify_box_props(0, workers=2).checked == 5 * 4 * 6

    def test_without_the_reach_kernel(self, monkeypatch):
        # The box trials decide on the pair walk's edges; the reach kernel serves the enumeration only.
        def unused(*args):
            raise AssertionError("the box claim called the reach kernel")

        monkeypatch.setattr(harness, "_reach_verdicts", unused)
        report = verify_box_props(300)
        assert report.ok and report.checked == 300 + 300 + 5 * 4 * 6


# The extremal specs of the boxes claim, in the order it checks them.
BOX_SPECS = [ExtremalSpec(r, l, s) for r in range(1, 6) for l in range(2, 6) for s in range(6)]


class TestExtremalSpecFailures:
    """A failing extremal spec is listed with its family's CSV, every spec and at any worker count.

    The trials at seed 5 pass, so the listed entries are the specs' alone.
    """

    @pytest.mark.parametrize("workers", [1, 3])
    def test_wrong_layered_construction(self, monkeypatch, pool_sizes, workers):
        monkeypatch.setattr(harness, "extremal_dag", lambda spec: Dag(spec.vertex_count))
        report = verify_box_props(8, seed=5, workers=workers)
        assert report.checked == 8 + 8 + len(BOX_SPECS)
        assert report.violations == [
            {
                "boxes": format_box_csv(extremal_box_family(spec)),
                "detail": f"{spec}: intersection graph differs from the layered construction",
            }
            for spec in BOX_SPECS
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_overlapping_columns(self, monkeypatch, pool_sizes, workers):
        # Column x1 = [2, 3] x [-10, 10] widened to [2, 4.5] overlaps x2 = [4, 5]
        # with neither nesting in the other; every other pair, and so the
        # graph, is unchanged. Draws with an rng, the random trials', are not
        # touched. Both names are patched: extremal_box_family reads the
        # module's, which the expected CSVs come from, and the harness may
        # read its own import (hence raising=False) or go through
        # extremal_box_family.
        real = boxes._layered_rows

        def shifted(columns, frames, slats, rng=None):
            ids, rows = real(columns, frames, slats, rng)
            if rng is None and columns >= 2:
                rows = rows.copy()
                rows[0, 1] += 3 * _GRID // 2
            return ids, rows

        monkeypatch.setattr(boxes, "_layered_rows", shifted)
        monkeypatch.setattr(harness, "_layered_rows", shifted, raising=False)
        report = verify_box_props(8, seed=5, workers=workers)
        assert report.checked == 8 + 8 + len(BOX_SPECS)
        assert report.violations == [
            {
                "boxes": format_box_csv(extremal_box_family(spec)),
                "detail": f"{spec}: family not transverse: [('x1', 'x2')]",
            }
            for spec in BOX_SPECS
            if spec.r >= 2
        ]


class TestWorkers:
    @pytest.fixture(autouse=True)
    def five_cpus(self, monkeypatch):
        # A range is cut into one shard per process, so 2, 3 and 5 workers merge 2, 3 and 5 shards.
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)

    @pytest.mark.parametrize(
        "run",
        [
            lambda w: verify_turan_bound(5, workers=w),
            lambda w: verify_theorem_bound(5, "strongly", workers=w),
            lambda w: verify_implications(4, random_trials=60, workers=w),
            lambda w: verify_equivalence_transitive(5, workers=w),
            lambda w: verify_closure(5, workers=w),
            lambda w: find_separations(5, workers=w),
            lambda w: verify_turan_bound(7, workers=w),
            lambda w: verify_theorem_bound(6, "reduced", workers=w),
            lambda w: verify_box_props(60, seed=5, workers=w),
        ],
        ids=["turan", "theorem", "implications", "equiv", "closure", "separations", "turan-n7", "theorem-n6", "boxes"],
    )
    def test_sharded_reports_identical(self, run):
        base = stripped(run(1))
        for workers in (2, 3, 5):
            assert stripped(run(workers)) == base

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize(
        "run",
        [
            lambda w: verify_turan_bound(3, workers=w),
            lambda w: verify_theorem_bound(3, "reduced", workers=w),
            lambda w: verify_implications(3, random_trials=5, workers=w),
            lambda w: verify_equivalence_transitive(3, workers=w),
            lambda w: verify_closure(3, workers=w),
            lambda w: find_separations(3, workers=w),
            lambda w: verify_box_props(5, workers=w),
            lambda w: verify_claim("clique", max_n=3, workers=w),
        ],
        ids=["turan", "theorem", "implications", "equiv", "closure", "separations", "boxes", "clique"],
    )
    def test_fewer_than_one_worker(self, run, workers):
        with pytest.raises(InvalidParamsError, match="workers"):
            run(workers)

    def test_at_most_one_shard_per_cpu(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        real, shards = harness._scan_equiv, []

        def scan(n, start, stop):
            shards.append(n)
            return real(n, start, stop)

        monkeypatch.setattr(harness, "_scan_equiv", scan)
        report = verify_equivalence_transitive(5, workers=10**6)
        assert pool_sizes == [3]
        assert [shards.count(n) for n in range(1, 6)] == [1, 2, 3, 3, 3]
        assert stripped(report) == stripped(verify_equivalence_transitive(5))


# The claims with an enumeration range, in table order, and the functions
# their runners call (theorem calls its function once per class).
RANGED_CLAIMS = ("turan", "theorem", "implications", "equiv-transitive", "closure", "separations", "clique")
RANGED_RUNNERS = (
    "verify_turan_bound",
    "verify_theorem_bound",
    "verify_implications",
    "verify_equivalence_transitive",
    "verify_closure",
    "find_separations",
    "verify_clique_bound",
)


class TestVerifyClaim:
    def test_unknown(self):
        with pytest.raises(UnknownClaimError):
            verify_claim("nonsense")

    def test_theorem_fans_out(self):
        reports = verify_claim("theorem", max_n=4)
        assert [r.claim for r in reports] == [
            "theorem-bound:extremely",
            "theorem-bound:strongly",
            "theorem-bound:reduced",
        ]

    def test_all_runs_every_claim(self):
        reports = verify_claim("all", max_n=3)
        assert len(reports) == 10
        assert all(r.ok for r in reports)
        assert reports[-1].claim == "clique-free-maximum" and reports[-1].params["max_n"] == 3

    @pytest.mark.parametrize("claim, option", [("boxes", "max_n")])
    def test_single_claim_refuses_an_option_it_does_not_read(self, claim, option):
        with pytest.raises(InvalidParamsError, match=f"does not take {option}"):
            verify_claim(claim, **{option: 3})

    def test_clique_default_and_ceiling(self):
        (report,) = verify_claim("clique")
        assert report.ok and report.params["max_n"] == 8
        with pytest.raises(LimitExceededError):
            verify_claim("clique", max_n=11)

    def test_reach_claims_ceiling(self):
        # The kernel claims run through n = 8; separations stops at n = 5,
        # once both witnesses are found.
        (report,) = verify_claim("separations", max_n=8)
        assert report.ok and report.params["max_n"] == 8
        for claim in ("equiv-transitive", "closure", "separations"):
            with pytest.raises(LimitExceededError):
                verify_claim(claim, max_n=9)
        with pytest.raises(LimitExceededError):
            verify_claim("implications", max_n=7)

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Stand-ins for the ranged verify_* functions: each records the
        max_n it was passed (None when none) and reports the max_n it
        binds, without running a sweep."""
        calls = []
        for name in RANGED_RUNNERS:
            real = getattr(harness, name)

            def fake(*args, _real=real, **kwargs):
                bound = inspect.signature(_real).bind(*args, **kwargs)
                calls.append(bound.arguments.get("max_n"))
                bound.apply_defaults()
                return VerificationReport(_real.__name__, "", 0, params={"max_n": bound.arguments["max_n"]})

            monkeypatch.setattr(harness, name, fake)
        return calls

    def test_default_ranges_come_from_the_signatures(self, recorded):
        reports = [r for claim in RANGED_CLAIMS for r in verify_claim(claim)]
        assert recorded == [None] * 9
        assert [r.params["max_n"] for r in reports] == [7, 6, 6, 6, 5, 6, 6, 6, 8]

    def test_all_clamps_a_given_range_to_each_ceiling(self, recorded):
        verify_claim("all", max_n=9)
        assert recorded == [8, 8, 8, 8, 6, 8, 8, 8, 9]


class TestPool:
    def test_one_pool_of_at_most_one_process_per_cpu(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        report = verify_turan_bound(4, workers=5000)
        assert pool_sizes == [3]
        assert stripped(report) == stripped(verify_turan_bound(4))

    def test_one_pool_per_verify_claim(self, monkeypatch, pool_sizes):
        # Every sharded claim of the call runs in the same pool.
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        reports = [stripped(r) for r in verify_claim("all", max_n=4, workers=2)]
        assert pool_sizes == [2]
        assert reports == [stripped(r) for r in verify_claim("all", max_n=4, workers=3)]
        assert pool_sizes == [2, 3]
        assert reports == [stripped(r) for r in verify_claim("all", max_n=4)]
        assert pool_sizes == [2, 3]

    def test_without_affinity_one_worker(self, monkeypatch):
        # os.sched_getaffinity exists only on some platforms (Linux among them).
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        assert verify_turan_bound(3).ok

    def test_without_affinity_every_cpu(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        report = verify_turan_bound(4, workers=5000)
        assert pool_sizes == [3]
        assert stripped(report) == stripped(verify_turan_bound(4))


def overflow_detail(report: VerificationReport) -> str:
    return report.violations[-1]["detail"]


def negated(real):
    return lambda *args: not real(*args)


def verdict(field, change):
    """Wrap the reach kernel so that its ``field`` verdict array becomes ``change(array)``."""

    def wrap(real):
        def kernel(*args):
            v = real(*args)
            return v._replace(**{field: change(getattr(v, field))})

        return kernel

    return wrap


def untransitive(real):
    """Wrap the box verdicts so that no graph is transitive."""

    def verdicts(k, edges):
        return False, real(k, edges)[1]

    return verdicts


def general_pairs_joined(monkeypatch):
    """Join every two distinct boxes of each general trial's family; the transverse trials keep their verdicts."""
    real_scan, real_verdicts = harness._scan_general_boxes, harness._box_verdicts

    def verdicts(k, edges):
        return real_verdicts(k, edges)[0], list(combinations(range(k), 2))

    def scan(*args):
        with monkeypatch.context() as m:
            m.setattr(harness, "_box_verdicts", verdicts)
            return real_scan(*args)

    monkeypatch.setattr(harness, "_scan_general_boxes", scan)


class TestViolationOverflow:
    """Violations past the listed sample are counted, never dropped."""

    def test_turan_counts_every_violation(self, monkeypatch, pool_sizes):
        # With every bound at 0, each of the 71 graphs with an edge (n <= 4)
        # violates. The per-(n, ell) summary entries are listed as well but
        # take no slot, so all 20 slots go to graphs.
        monkeypatch.setattr(harness, "turan_graph_edges", lambda n, k: 0)
        report = verify_turan_bound(4)
        listed = sum("edges with longest path" in v["detail"] for v in report.violations)
        assert listed == 20
        assert overflow_detail(report) == "51 further violations not listed"
        assert stripped(verify_turan_bound(4, workers=3)) == stripped(report)

    def test_theorem_counts_every_violation(self, monkeypatch, pool_sizes):
        # With every class bound at 0, each extremely reduced graph with an
        # edge violates; the summary entries again take no slot.
        members = sum(
            is_extremely_reduced(dag_from_index(n, mask)) for n in range(1, 5) for mask in range(1, dag_count(n))
        )
        monkeypatch.setattr(harness, "reduced_dag_edge_bound", lambda n, ell: 0)
        report = verify_theorem_bound(4, "extremely")
        listed = sum(v["detail"].startswith("class 'extremely'") for v in report.violations)
        assert listed == 20
        assert overflow_detail(report) == f"{members - 20} further violations not listed"
        assert stripped(verify_theorem_bound(4, "extremely", workers=3)) == stripped(report)

    @pytest.mark.parametrize(
        "target, wrong, run, total",
        [
            # Oracle negated: every one of the 75 graphs disagrees once.
            ("is_reduced_bruteforce", negated, lambda: verify_implications(4, random_trials=0), 75),
            # One exhaustive graph plus 50 random trials, each one disagreement.
            ("is_reduced_bruteforce", negated, lambda: verify_implications(1, random_trials=50), 51),
            # Extremely-reduced verdicts negated: all 407 transitive graphs disagree.
            ("_reach_verdicts", verdict("extremely", np.logical_not), lambda: verify_equivalence_transitive(5), 407),
            # No closure is transitive: every graph on n <= 4 fails once.
            ("_reach_verdicts", verdict("transitive", np.zeros_like), lambda: verify_closure(4), 75),
            # Every family's graph, transverse or general, now fails the
            # transitivity check.
            ("_box_verdicts", untransitive, lambda: verify_box_props(25, seed=3), 50),
        ],
        ids=["implications", "random-agreement", "equiv", "closure", "boxes"],
    )
    def test_predicate_scans(self, monkeypatch, target, wrong, run, total):
        monkeypatch.setattr(harness, target, wrong(getattr(harness, target)))
        report = run()
        assert len(report.violations) == 21
        assert overflow_detail(report) == f"{total - 20} further violations not listed"

    @pytest.mark.parametrize("workers", [1, 3])
    def test_closure_one_violation_per_reduced_input(self, monkeypatch, pool_sizes, workers):
        # With every closure's extremely-reduced verdict negated, each
        # reduced input gets its own entry.
        reduced = sum(is_reduced(dag_from_index(n, mask)) for n in range(1, 5) for mask in range(dag_count(n)))
        kernel = verdict("extremely", np.logical_not)(harness._reach_verdicts)
        monkeypatch.setattr(harness, "_reach_verdicts", kernel)
        report = verify_closure(4, workers=workers)
        assert report.params["reduced_inputs"] == reduced
        assert overflow_detail(report) == f"{reduced - 20} further violations not listed"
        assert {v["detail"] for v in report.violations[:-1]} == {
            "closure of a reduced DAG fails a reducedness predicate"
        }

    @pytest.mark.parametrize("trial_kind", ["transverse", "general"])
    def test_box_props_sharded_with_violations(self, monkeypatch, pool_sizes, trial_kind):
        # With no graph transitive, every trial is a violation, the transverse
        # ones first; with every pair of a general family joined, every
        # disjoint pair of general boxes is.
        if trial_kind == "transverse":
            monkeypatch.setattr(harness, "_box_verdicts", untransitive(harness._box_verdicts))
        else:
            general_pairs_joined(monkeypatch)
        report = verify_box_props(60, seed=5)
        assert report.violations[0]["detail"].startswith(trial_kind)
        assert overflow_detail(report).endswith("further violations not listed")
        assert stripped(verify_box_props(60, seed=5, workers=3)) == stripped(report)

    def test_random_agreement_uses_the_scan_texts(self, monkeypatch):
        real = harness.is_reduced_bruteforce
        monkeypatch.setattr(harness, "is_reduced_bruteforce", lambda *args: not real(*args))
        report = verify_implications(1, random_trials=3)
        details = [v["detail"] for v in report.violations]
        assert details[0] == "reduced fast=True disagrees with brute force"
        assert [d.split(": ")[0] for d in details[1:]] == ["trial 0", "trial 1", "trial 2"]
        assert all(d.endswith("disagrees with brute force") for d in details[1:])

    def test_general_listing_in_family_order(self, monkeypatch):
        # With every pair joined, the listed pairs of each general trial are
        # its disjoint pairs in family order, as the Fraction predicates see
        # them, and every one is counted.
        general_pairs_joined(monkeypatch)
        want, pairs = [], 0
        for t in range(30):
            rng = np.random.default_rng((5, 1, t))
            fam = random_box_family(int(rng.integers(2, 13)), rng)
            pairs += comb(len(fam), 2)
            for i, j in combinations(range(len(fam)), 2):
                if not boxes_intersect(fam.boxes[i], fam.boxes[j]):
                    pair = f"{fam.ids[i]},{fam.ids[j]}"
                    want.append(f"general trial {t}: boxes {pair} share ancestor and descendant but do not intersect")
        report = verify_box_props(30, seed=5)
        assert [v["detail"] for v in report.violations[:20]] == want[:20]
        assert overflow_detail(report) == f"{len(want) - 20} further violations not listed"
        assert report.params["general_joined_pairs"] == pairs
