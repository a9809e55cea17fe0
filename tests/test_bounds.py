from fractions import Fraction
from math import comb

import pytest

from dagx import (
    InvalidParamsError,
    interval_turan,
    reduced_dag_edge_bound,
    turan_graph_edges,
)


def partitions_into(n, k, smallest=1):
    """All multisets of k positive parts summing to n."""
    if k == 1:
        if n >= smallest:
            yield (n,)
        return
    for first in range(smallest, n // k + 1):
        for rest in partitions_into(n - first, k - 1, first):
            yield (first,) + rest


class TestTuranGraphEdges:
    def test_examples(self):
        assert turan_graph_edges(4, 2) == 4
        assert turan_graph_edges(5, 2) == 6
        assert turan_graph_edges(2, 2) == 1
        assert turan_graph_edges(7, 3) == 16

    def test_balanced_maximizes(self):
        # Oracle: the complete multipartite edge count over every k-partition.
        for n in range(1, 13):
            for k in range(1, n + 1):
                best = max(
                    comb(n, 2) - sum(comb(p, 2) for p in parts)
                    for parts in partitions_into(n, k)
                )
                assert turan_graph_edges(n, k) == best

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            turan_graph_edges(3, 0)
        with pytest.raises(InvalidParamsError):
            turan_graph_edges(3, 4)


class TestIntervalTuran:
    def test_k_equals_one(self):
        assert all(interval_turan(n, 1) == 0 for n in range(1, 20))

    def test_example(self):
        assert interval_turan(5, 3) == 7

    def test_k_equals_n(self):
        assert all(interval_turan(n, n) == comb(n, 2) for n in range(1, 20))

    def test_closed_forms_agree(self):
        for n in range(1, 501):
            for k in range(1, n + 1):
                poly = (n - k + 1) * (k - 1) + (k - 1) * (k - 2) // 2
                assert interval_turan(n, k) == poly


class TestReducedDagEdgeBound:
    def test_path_only_case(self):
        for ell in range(1, 30):
            assert reduced_dag_edge_bound(ell + 1, ell) == ell * (ell + 1) // 2

    def test_frozen_from_exhaustive_search(self):
        # Exhaustive class maxima computed by the verification harness.
        assert reduced_dag_edge_bound(5, 2) == turan_graph_edges(4, 2) + interval_turan(5, 2) == 8
        assert reduced_dag_edge_bound(4, 2) == turan_graph_edges(3, 2) + interval_turan(4, 2) == 5

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            reduced_dag_edge_bound(3, 0)
        with pytest.raises(InvalidParamsError):
            reduced_dag_edge_bound(3, 3)


class TestTuranNumber:
    def test_divisible_equality(self):
        assert turan_graph_edges(6, 3) == 12
        assert Fraction(12) == (1 - Fraction(1, 3)) * Fraction(36, 2)

    def test_complete_graph_allowed(self):
        assert all(turan_graph_edges(n, n) == comb(n, 2) for n in range(1, 15))

    def test_asymptotic_inequality(self):
        # 2 k T(n, k) <= (k - 1) n^2, equality iff k divides n.
        for n in range(1, 61):
            for k in range(1, n + 1):
                lhs = 2 * k * turan_graph_edges(n, k)
                rhs = (k - 1) * n * n
                assert lhs <= rhs
                assert (lhs == rhs) == (n % k == 0)


class TestDifferenceIdentities:
    def test_interval_increment(self):
        for ell in range(1, 101):
            for n in range(ell, 101):
                for d in range(1, 11):
                    assert interval_turan(n + d, ell) - interval_turan(n, ell) == d * (ell - 1)

    def test_partite_increment(self):
        for n in range(1, 101):
            for d in range(1, n + 1):
                assert turan_graph_edges(n + d, d) - turan_graph_edges(n, d) == (d - 1) * n + comb(d, 2)

    def test_two_step_specializations(self):
        for n in range(2, 50):
            for ell in range(1, n + 1):
                assert interval_turan(n + 2, ell) - interval_turan(n, ell) == 2 * (ell - 1)
            assert turan_graph_edges(n + 2, 2) - turan_graph_edges(n, 2) == n + 1
