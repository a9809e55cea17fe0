import json
import os
import resource
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagx import Dag, ExtremalSpec, extremal_dag, parse_box_csv, parse_edge_list
from dagx.cli import main
from dagx.graph import MAX_EDGE_LIST_VERTICES

from conftest import CHORDED_CHAIN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_such_option(code, out, err, option):
    """A click usage error for an unknown ``option``: exit 2, nothing on stdout."""
    assert code == 2 and out == ""
    assert "no such option" in err.lower() and option in err and "internal error" not in err


@pytest.fixture
def chorded_file(tmp_path):
    path = tmp_path / "chorded.txt"
    path.write_text("n 5\n" + "".join(f"{u} {v}\n" for u, v in CHORDED_CHAIN))
    return str(path)


class TestAnalyze:
    def test_chorded_chain_predicates(self, capsys, chorded_file):
        code, out, _ = run(capsys, "analyze", chorded_file)
        assert code == 0
        assert "reduced            true" in out
        assert "strongly_reduced   false" in out
        assert "extremely_reduced  false" in out

    def test_json_matches_text(self, capsys, chorded_file):
        code, out, _ = run(capsys, "analyze", chorded_file, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 5 and data["edges"] == 6 and data["ell"] == 4
        assert data["reduced"] is True and data["strongly_reduced"] is False
        assert data["edge_bound"] == 10 and data["slack"] == 4

    def test_chain_slack(self, capsys, tmp_path):
        p = tmp_path / "chain.txt"
        p.write_text("n 3\n0 1\n1 2\n")
        code, out, _ = run(capsys, "analyze", str(p), "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert all(data[k] for k in ("reduced", "strongly_reduced", "extremely_reduced"))
        assert data["slack"] == data["edge_bound"] - data["edges"] >= 0

    def test_edgeless_has_no_bound(self, capsys, tmp_path):
        p = tmp_path / "edgeless.txt"
        p.write_text("n 4\n")
        code, out, _ = run(capsys, "analyze", str(p), "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["ell"] == 0
        assert data["edge_bound"] is None and data["slack"] is None

    def test_closed_25_chain(self, capsys, tmp_path):
        # The transitive tournament on 25 vertices has 2^23 paths from 0 to 24;
        # the strongly-reduced check never enumerates them.
        code, text, _ = run(capsys, "gen", "turan-dag", "--n", "25", "--k", "25")
        assert code == 0
        path = tmp_path / "chain25.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["edges"] == 300
        assert info["reduced"] and info["strongly_reduced"] and info["extremely_reduced"]

    def test_cycle_exit_2(self, capsys, tmp_path):
        p = tmp_path / "cyc.txt"
        p.write_text("n 2\n0 1\n1 0\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 2
        assert "cycle" in err

    def test_parse_error_line_numbered(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n 3\n0 1\nbroken line here\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 2
        assert "line 3" in err


class TestClosure:
    def test_chain_gains_chord(self, capsys, tmp_path):
        p = tmp_path / "chain.txt"
        p.write_text("n 3\n0 1\n1 2\n")
        code, out, _ = run(capsys, "closure", str(p))
        assert code == 0
        assert parse_edge_list(out) == Dag(3, [(0, 1), (1, 2), (0, 2)])

    def test_transitive_fixpoint(self, capsys, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("n 3\n0 1\n0 2\n1 2\n")
        code, out, _ = run(capsys, "closure", str(p))
        assert parse_edge_list(out) == Dag(3, [(0, 1), (1, 2), (0, 2)])

    def test_chorded_chain_closure(self, capsys, chorded_file):
        code, out, _ = run(capsys, "closure", chorded_file)
        assert len(parse_edge_list(out).edges) == 10


class TestGen:
    def test_extremal_round_trip(self, capsys):
        code, out, _ = run(capsys, "gen", "extremal", "--n", "5", "--ell", "2")
        assert code == 0
        g = parse_edge_list(out)
        assert len(g.edges) == 8

    def test_turan_round_trip(self, capsys):
        code, out, _ = run(capsys, "gen", "turan-dag", "--n", "6", "--k", "3")
        assert code == 0
        assert len(parse_edge_list(out).edges) == 12

    def test_boxes_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "boxes-extremal", "--r", "2", "--l", "2", "--s", "2")
        assert code == 0
        assert out.splitlines()[0] == "id,ix_lo,ix_hi,jy_lo,jy_hi"
        assert len(parse_box_csv(out)) == 5

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "random", "--n", "6", "--p", "0.5", "--seed", "9")
        _, out2, _ = run(capsys, "gen", "random", "--n", "6", "--p", "0.5", "--seed", "9")
        assert out1 == out2
        parse_edge_list(out1)

    def test_random_pinned(self, capsys):
        code, out, _ = run(capsys, "gen", "random", "--n", "7", "--p", "0.5", "--seed", "11")
        assert code == 0
        assert out == "n 7\n0 1\n0 2\n0 4\n0 5\n1 2\n1 3\n1 6\n2 5\n2 6\n"

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "extremal", "--n", "5", "--ell", "0")
        assert code == 2
        assert "error" in err

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--n", "5", "--p", "0.5", "--seed", "-1")
        assert code == 2
        assert out == "" and "seed" in err and "internal error" not in err


class TestBoxesGraph:
    def test_extremal_matches(self, capsys, tmp_path):
        _, csv_text, _ = run(capsys, "gen", "boxes-extremal", "--r", "2", "--l", "2", "--s", "1")
        p = tmp_path / "fam.csv"
        p.write_text(csv_text)
        code, out, _ = run(capsys, "boxes-graph", str(p))
        assert code == 0
        assert parse_edge_list(out) == extremal_dag(ExtremalSpec(2, 2, 1))
        assert "# transverse: yes" in out

    def test_nested_requires_transverse_exit_3(self, capsys, tmp_path):
        p = tmp_path / "nested.csv"
        p.write_text("id,ix_lo,ix_hi,jy_lo,jy_hi\na,0,3,0,3\nb,1,2,1,2\n")
        code, out, err = run(capsys, "boxes-graph", str(p), "--require-transverse")
        assert code == 3
        assert "# not-transverse-pair: a b" in out
        code, _, _ = run(capsys, "boxes-graph", str(p))
        assert code == 0

    def test_huge_exponent_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("id,ix_lo,ix_hi,jy_lo,jy_hi\nb,0,1e99999999999,0,1\n")
        code, out, err = run(capsys, "boxes-graph", str(path))
        assert code == 2
        assert out == "" and "exponent" in err

    def test_disjoint_edgeless(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,ix_lo,ix_hi,jy_lo,jy_hi\na,0,1,0,1\nb,5,6,0,1\n")
        code, out, _ = run(capsys, "boxes-graph", str(p))
        assert code == 0
        assert parse_edge_list(out).edges == frozenset()


class TestVerify:
    def test_single_claim_json(self, capsys):
        code, out, err = run(capsys, "verify", "turan", "--max-n", "4")
        assert code == 0
        report = json.loads(out)
        assert report["claim"] == "turan-bound"
        assert report["violations"] == []
        assert "ok" in err

    def test_unknown_claim_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "bogus")
        assert code == 2

    def test_over_limit_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "turan", "--max-n", "9")
        assert code == 2
        assert "ceiling" in err

    def test_no_ceiling_override(self, capsys):
        # --max-n is the only range option; a ceiling is raised in code.
        code, out, err = run(capsys, "verify", "turan", "--limit", "9")
        assert code == 2
        assert out == "" and "--limit" in err and "internal error" not in err

    def test_workers_flag_same_report(self, capsys):
        _, out1, _ = run(capsys, "verify", "turan", "--max-n", "4")
        _, out2, _ = run(capsys, "verify", "turan", "--max-n", "4", "--workers", "3")
        a, b = json.loads(out1), json.loads(out2)
        a["elapsed_ms"] = b["elapsed_ms"] = 0
        assert a == b

    def test_clique_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "clique", "--max-n", "5")
        assert code == 0
        report = json.loads(out)
        assert report["claim"] == "clique-free-maximum"
        assert report["checked"] == 2 + 3 + 4 + 5
        code, _, err = run(capsys, "verify", "clique", "--max-n", "11")
        assert code == 2 and "ceiling" in err

    def test_theorem_emits_array(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem", "--max-n", "3")
        assert code == 0
        reports = json.loads(out)
        assert [r["claim"] for r in reports] == [
            "theorem-bound:extremely",
            "theorem-bound:strongly",
            "theorem-bound:reduced",
        ]

    def test_negative_rand_trials_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "implications", "--max-n", "3", "--rand-trials", "-5")
        assert_no_such_option(code, out, err, "--rand-trials")

    @pytest.mark.parametrize(
        "argv",
        [
            ("boxes", "--seed", "-1"),
            ("implications", "--seed", "-5", "--max-n", "2"),
            ("turan", "--max-n", "3", "--seed", "5"),
            ("clique", "--max-n", "3", "--seed", "-5"),
        ],
        ids=["boxes", "implications", "turan", "clique"],
    )
    def test_negative_seed_exit_2(self, capsys, argv):
        # verify has no --seed, so no claim can take a seed and drop it.
        code, out, err = run(capsys, "verify", *argv)
        assert_no_such_option(code, out, err, "--seed")

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_exit_2(self, capsys, workers):
        code, out, err = run(capsys, "verify", "turan", "--workers", workers, "--max-n", "3")
        assert code == 2
        assert out == "" and "workers" in err

    @pytest.mark.parametrize("argv", [("clique", "--max-n", "3"), ("boxes",)], ids=["clique", "boxes"])
    def test_unsharded_claims_refuse_zero_workers(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--workers", "0")
        assert code == 2
        assert out == "" and "workers" in err

    def test_negative_box_trials_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "boxes", "--trials", "-5")
        assert_no_such_option(code, out, err, "--trials")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("boxes", "--max-n", "3"), ("does not take max_n",)),
            (("turan", "--trials", "5"), ("no such option", "--trials")),
            (("closure", "--max-n", "3", "--rand-trials", "5"), ("no such option", "--rand-trials")),
        ],
        ids=["boxes-max-n", "turan-trials", "closure-rand-trials"],
    )
    def test_option_the_claim_does_not_read_exit_2(self, capsys, argv, expected):
        # boxes refuses a range; the removed options are click usage errors.
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == "" and all(text in err.lower() for text in expected) and "internal error" not in err

    def test_all_takes_every_option(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "4", "--workers", "2")
        assert code == 0
        reports = {r["claim"]: r for r in json.loads(out)}
        assert reports["box-properties"]["params"]["trials"] == 1000
        assert reports["turan-bound"]["params"]["max_n"] == 4

    def test_oversized_header_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"n {MAX_EDGE_LIST_VERTICES + 1}\n0 1\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == "" and "exceeds the limit" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "does-not-exist.txt")
        assert code == 2


class TestEdgeLimit:
    """A graph above ``graph.MAX_EDGES`` edges is bad input (exit 2), refused before it is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            # C(10^6, 2) pair draws, 4 TB of floats.
            ("gen", "random", "--n", "1000000", "--p", "0.5"),
            # 2.5 * 10^11 edges.
            ("gen", "turan-dag", "--n", "1000000", "--k", "2"),
            # A 3,000-vertex path, whose closure has C(3000, 2) = 4,498,500 edges.
            ("closure", "PATH"),
        ],
        ids=["gen-random", "gen-turan-dag", "closure"],
    )
    def test_refused_before_building(self, capsys, tmp_path, argv):
        path = tmp_path / "path.txt"
        path.write_text("n 3000\n" + "".join(f"{v} {v + 1}\n" for v in range(2999)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *(str(path) if a == "PATH" else a for a in argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "exceeds the limit MAX_EDGES = 4194304" in err and "internal error" not in err
        # The parsed path and its reach rows take about 3 MB as bitmask ints;
        # building any of the three graphs would take hundreds of MB or more.
        assert peak < 32 << 20

    def test_box_pairs_refused_before_the_walk(self, capsys, tmp_path):
        # C(2897, 2) = 4,194,856 pairs, one family above the limit. The boxes
        # are disjoint, so the graph has no edge and only the pair count refuses it.
        path = tmp_path / "boxes.csv"
        path.write_text("id,ix_lo,ix_hi,jy_lo,jy_hi\n" + "".join(f"b{i},{2 * i},{2 * i + 1},0,1\n" for i in range(2897)))
        code, out, err = run(capsys, "boxes-graph", str(path))
        assert code == 2 and out == ""
        assert "box pairs: 4194856 exceeds the limit MAX_EDGES = 4194304" in err and "internal error" not in err


@contextmanager
def address_space_cap(extra: int):
    """Cap this process's address space at its current size plus ``extra`` bytes while the block runs.

    A build that lists a billion parts then fails with MemoryError instead
    of taking the machine's memory. Without /proc/self/statm there is no cap.
    """
    if not os.path.exists("/proc/self/statm"):
        yield
        return
    with open("/proc/self/statm") as handle:
        size = int(handle.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestVertexLimit:
    """A graph above ``graph.MAX_EDGES`` vertices is bad input (exit 2), refused before its parts or rows are listed."""

    @pytest.mark.parametrize(
        "argv",
        [
            # One part of 10^9 vertices, no edges.
            ("gen", "turan-dag", "--n", "1000000000", "--k", "1"),
            # 10^9 parts of one vertex each.
            ("gen", "turan-dag", "--n", "1000000000", "--k", "1000000000"),
            # A middle chain of 999,999,998 vertices.
            ("gen", "extremal", "--n", "1000000000", "--ell", "999999999"),
        ],
        ids=["turan-one-part", "turan-singleton-parts", "extremal-long-chain"],
    )
    def test_refused_before_building(self, capsys, argv):
        tracemalloc.start()
        try:
            with address_space_cap(1 << 30):
                code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "vertex count: 1000000000 exceeds the limit MAX_EDGES = 4194304" in err and "internal error" not in err
        # A list of 10^9 parts or per-vertex rows would take 8 GB.
        assert peak < 32 << 20


# Input files for the property below: any text, any bytes, and text shaped
# like the two formats, so that parsing gets past the header.
_EDGE_LIST = st.builds(
    lambda n, edges: f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges),
    st.integers(-1, 12),
    st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=12),
)
_BOX_CSV = st.lists(
    st.lists(st.text(alphabet="0123456789eE+-./_ x", max_size=6), min_size=4, max_size=5).map(",".join),
    max_size=5,
).map(lambda rows: "id,ix_lo,ix_hi,jy_lo,jy_hi\n" + "".join(f"b{i},{row}\n" for i, row in enumerate(rows)))
_ANY_FILE = st.one_of(
    st.binary(),
    st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
    _EDGE_LIST.map(str.encode),
    _BOX_CSV.map(str.encode),
)


class TestExitCodeContract:
    """Whatever a file holds, the file commands exit 0, 2 or 3; exit 1 is an internal error."""

    @pytest.mark.parametrize(
        "argv",
        [("analyze",), ("closure",), ("boxes-graph",), ("boxes-graph", "--require-transverse")],
        ids=["analyze", "closure", "boxes-graph", "boxes-graph-transverse"],
    )
    @given(data=_ANY_FILE)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_file(self, capsys, tmp_path, argv, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        code = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
