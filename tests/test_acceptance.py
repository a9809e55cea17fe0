"""Acceptance suite: every headline claim at its stated range and budget.

One test per criterion; each prints a PASS line once its assertions hold,
and the pytest -v listing itself gives the per-criterion verdict.
"""

import json
import time
from math import comb

from dagx import (
    Dag,
    find_separations,
    interval_turan,
    is_extremely_reduced,
    is_reduced,
    is_strongly_reduced,
    parse_box_csv,
    parse_edge_list,
    turan_graph_edges,
    verify_box_props,
    verify_claim,
    verify_clique_bound,
    verify_closure,
    verify_equivalence_transitive,
    verify_implications,
    verify_theorem_bound,
    verify_turan_bound,
)
from dagx.cli import main
from dagx.harness import CHORDED_CHAIN_EDGES


def passed(num: int, description: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_turan_bound_exhaustive_n7():
    t0 = time.perf_counter()
    report = verify_turan_bound(7, workers=1)
    elapsed = time.perf_counter() - t0
    assert report.violations == []
    assert report.checked == sum(1 << comb(n, 2) for n in range(1, 8))
    assert elapsed < 300, f"single-threaded n=7 sweep took {elapsed:.0f}s"
    passed(1, f"edges <= t(n, ell+1) on all {report.checked} DAGs, n <= 7, in {elapsed:.1f}s")


def test_criterion_2_theorem_bound_exhaustive_n6_all_classes():
    t0 = time.perf_counter()
    checked = 0
    for klass in ("extremely", "strongly", "reduced"):
        report = verify_theorem_bound(6, klass, workers=1)
        assert report.violations == [], klass
        checked += report.checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"n=6 class sweeps took {elapsed:.0f}s"
    passed(2, f"class bound holds for all three classes over {checked} scans, n <= 6, in {elapsed:.1f}s")


def test_criterion_3_tightness_through_n7_with_split_note():
    report = verify_theorem_bound(7, "extremely", workers=1)
    assert report.violations == []
    rows = {(row["n"], row["ell"]): row for row in report.params["tightness"]}
    for n in range(3, 8):
        for ell in range(1, n):
            row = rows[(n, ell)]
            assert row["class_max"] == row["bound"] == row["generator_edges"]
            if ell >= 2:
                assert row["alt_split_vertices"] == n - 1
                assert row["alt_split_edges"] < row["bound"]
    assert "n - 1" in report.params["note"].replace("n-1", "n - 1")
    passed(3, "exhaustive class maximum equals the bound and the generator attains it, 3 <= n <= 7")


def test_criterion_4_implications_and_oracle_agreement():
    report = verify_implications(5, random_trials=1000, workers=1)
    assert report.violations == []
    assert report.params["random_max_n"] == 8
    assert report.checked == sum(1 << comb(n, 2) for n in range(1, 6)) + 1000
    passed(4, "extremely => strongly => reduced and fast == brute force on n <= 5 plus 1000 random DAGs")


def test_criterion_5_transitive_equivalence_and_closure():
    equiv = verify_equivalence_transitive(6, workers=1)
    assert equiv.violations == []
    closure = verify_closure(6, workers=1)
    assert closure.violations == []
    passed(5, f"predicates coincide on {equiv.params['transitive_graphs']} transitive DAGs; closure lifts and is idempotent, n <= 6")


def test_criterion_6_separation_witnesses():
    chorded = Dag(5, CHORDED_CHAIN_EDGES)
    assert len(chorded.edges) == 6
    assert is_reduced(chorded)
    assert not is_strongly_reduced(chorded)
    reports = verify_claim("separations", max_n=6)
    (report,) = reports
    assert report.violations == []
    kinds = {w["kind"] for w in report.witnesses}
    assert "strongly-not-extremely" in kinds
    by_kind = {w["kind"]: w for w in report.witnesses}
    assert parse_edge_list(by_kind["reduced-not-strongly"]["graph"]) == chorded
    assert by_kind["strongly-not-extremely"]["n"] <= 6
    assert not is_extremely_reduced(parse_edge_list(by_kind["strongly-not-extremely"]["graph"]))
    passed(6, "chorded chain is reduced but not strongly reduced; strongly-not-extremely witness found by n <= 6")


def test_criterion_7_closed_form_identities_exact():
    for ell in range(1, 101):
        for n in range(ell, 101):
            for d in range(1, 11):
                assert interval_turan(n + d, ell) - interval_turan(n, ell) == d * (ell - 1)
    for n in range(1, 101):
        for d in range(1, n + 1):
            assert turan_graph_edges(n + d, d) - turan_graph_edges(n, d) == (d - 1) * n + comb(d, 2)
    for n in range(1, 501):
        for k in range(1, n + 1):
            assert interval_turan(n, k) == (n - k + 1) * (k - 1) + (k - 1) * (k - 2) // 2
    passed(7, "difference identities (n, ell <= 100, d <= 10) and both closed forms (n <= 500) hold exactly")


def test_criterion_8_box_propositions():
    t0 = time.perf_counter()
    report = verify_box_props(trials=1000)
    elapsed = time.perf_counter() - t0
    assert report.violations == []
    assert report.checked == 1000 + 1000 + 5 * 4 * 6
    assert elapsed < 60, f"box sweep took {elapsed:.0f}s"
    passed(8, f"2000 random families and 120 extremal specs clean in {elapsed:.1f}s")


def test_criterion_9_cli_round_trips_and_verify_all(capsys, tmp_path):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    code, text = run("gen", "turan-dag", "--n", "6", "--k", "3")
    assert code == 0 and len(parse_edge_list(text).edges) == 12
    code, text = run("gen", "extremal", "--n", "5", "--ell", "2")
    assert code == 0 and len(parse_edge_list(text).edges) == 8
    extremal_path = tmp_path / "extremal.txt"
    extremal_path.write_text(text)
    code, text = run("analyze", str(extremal_path), "--format", "json")
    data = json.loads(text)
    assert code == 0 and data["slack"] == 0 and data["extremely_reduced"] is True
    code, text = run("gen", "random", "--n", "7", "--p", "0.5", "--seed", "11")
    assert code == 0
    random_path = tmp_path / "random.txt"
    random_path.write_text(text)
    assert run("analyze", str(random_path))[0] == 0
    code, text = run("gen", "boxes-extremal", "--r", "2", "--l", "2", "--s", "2")
    assert code == 0 and len(parse_box_csv(text)) == 5
    csv_path = tmp_path / "fam.csv"
    csv_path.write_text(text)
    code, text = run("boxes-graph", str(csv_path), "--require-transverse")
    assert code == 0 and len(parse_edge_list(text).edges) == 8

    t0 = time.perf_counter()
    code, text = run("verify", "all", "--max-n", "5")
    elapsed = time.perf_counter() - t0
    assert code == 0
    reports = json.loads(text)
    assert len(reports) == 10 and all(r["violations"] == [] for r in reports)
    assert elapsed < 30, f"verify all --max-n 5 took {elapsed:.0f}s"
    passed(9, f"generate/parse/analyze round trips succeed; verify all --max-n 5 exits 0 in {elapsed:.1f}s"
    )


def test_criterion_10_turan_bound_exhaustive_n8():
    t0 = time.perf_counter()
    report = verify_turan_bound(8, workers=1)
    elapsed = time.perf_counter() - t0
    assert report.violations == []
    assert report.checked == sum(1 << comb(n, 2) for n in range(1, 9)) == 270_566_475
    observed = report.params["observed_max"]
    for ell in range(8):
        assert observed[f"8,{ell}"] == turan_graph_edges(8, ell + 1)
    assert elapsed < 120, f"single-threaded n=8 sweep took {elapsed:.0f}s"
    passed(10, f"edges <= t(n, ell+1) on all {report.checked} DAGs, n <= 8, in {elapsed:.1f}s")


def test_criterion_11_implications_and_oracle_agreement_exhaustive_n6():
    t0 = time.perf_counter()
    report = verify_implications(6, random_trials=0, workers=2)
    elapsed = time.perf_counter() - t0
    assert report.violations == []
    assert report.checked == sum(1 << comb(n, 2) for n in range(1, 7)) == 33_867
    assert elapsed < 20, f"n=6 implication sweep took {elapsed:.0f}s"
    passed(
        11,
        f"extremely => strongly => reduced and fast == brute force on all {report.checked} DAGs, n <= 6,"
        f" in {elapsed:.1f}s",
    )


def test_criterion_12_reach_kernel_claims_exhaustive_n7():
    t0 = time.perf_counter()
    equiv = verify_equivalence_transitive(7, workers=1)
    closure = verify_closure(7, workers=1)
    separations = find_separations(7, workers=1)
    elapsed = time.perf_counter() - t0
    total = sum(1 << comb(n, 2) for n in range(1, 8))
    assert equiv.violations == [] and closure.violations == [] and separations.violations == []
    assert equiv.checked == closure.checked == total == 2_131_019
    # 5,231 transitive and 24,023 reduced DAGs at n <= 6, plus 96,428 and
    # 1,055,568 at n = 7.
    assert equiv.params["transitive_graphs"] == 5_231 + 96_428
    assert closure.params["reduced_inputs"] == 24_023 + 1_055_568
    assert {w["kind"] for w in separations.witnesses} == {"reduced-not-strongly", "strongly-not-extremely"}
    assert elapsed < 60, f"n=7 reach-kernel sweeps took {elapsed:.0f}s"
    passed(
        12,
        f"predicates coincide on {equiv.params['transitive_graphs']} transitive DAGs, closure lifts and is"
        f" idempotent on {total} DAGs, separations found, n <= 7, in {elapsed:.1f}s",
    )


def test_criterion_13_theorem_bound_exhaustive_n8():
    t0 = time.perf_counter()
    reports = [verify_theorem_bound(8, klass, workers=1) for klass in ("extremely", "strongly", "reduced")]
    elapsed = time.perf_counter() - t0
    for report in reports:
        assert report.violations == []
        assert report.checked == 270_566_475
        rows = [row for row in report.params["tightness"] if row["n"] == 8]
        assert len(rows) == 7
        for row in rows:
            assert row["class_max"] == row["bound"] == row["generator_edges"], row
    assert elapsed < 120, f"single-threaded n=8 class-bound sweeps took {elapsed:.0f}s"
    passed(13, f"class edge bound holds and is attained for all three classes, n <= 8, in {elapsed:.1f}s")


def test_criterion_14_clique_free_maximum_n10():
    t0 = time.perf_counter()
    report = verify_clique_bound(10)
    elapsed = time.perf_counter() - t0
    assert report.violations == []
    assert report.checked == sum(range(2, 11)) == 54
    assert elapsed < 30, f"single-threaded n=10 clique search took {elapsed:.0f}s"
    passed(14, f"t(n, k) is the K_(k+1)-free edge maximum and is attained, n <= 10, in {elapsed:.1f}s")
