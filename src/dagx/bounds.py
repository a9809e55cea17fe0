"""Closed-form extremal quantities. Exact integers only."""

from math import comb

from .errors import InvalidParamsError


def _check_nk(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise InvalidParamsError(f"need 1 <= k <= n, got n={n}, k={k}")


def _check_n_ell(n: int, ell: int) -> None:
    if ell < 1:
        raise InvalidParamsError(f"need ell >= 1, got {ell}")
    if n < ell + 1:
        raise InvalidParamsError(f"need n >= ell + 1, got n={n}, ell={ell}")


def balanced_parts(n: int, k: int) -> list[int]:
    """Sizes of k near-equal parts of n vertices, larger parts first."""
    _check_nk(n, k)
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def turan_graph_edges(n: int, k: int) -> int:
    """Edge count t(n, k) of the complete k-partite graph on balanced parts.

    By Turán's theorem this is also the most edges an n-vertex graph can
    carry without a clique of size k + 1.
    """
    return comb(n, 2) - sum(comb(p, 2) for p in balanced_parts(n, k))


def interval_turan(n: int, k: int) -> int:
    """Maximum intersecting pairs among n intervals, no k + 1 sharing a point."""
    _check_nk(n, k)
    return comb(n, 2) - comb(n - k + 1, 2)


def reduced_dag_edge_bound(n: int, ell: int) -> int:
    """Maximum edges of a reduced (or stronger) DAG with longest path ``ell``.

    Equals t(n - ell + 1, 2) + the interval quantity at (n, ell); requires
    n >= ell + 1 so a path of length ``ell`` fits.
    """
    _check_n_ell(n, ell)
    return turan_graph_edges(n - ell + 1, 2) + interval_turan(n, ell)
