"""Expected values for the benchmark's output checks.

Nothing here imports dagx: every expected value is either a pinned
literal or computed by the small reference implementations below, which
follow the definitions in the paper rather than the package's code.

Pinned counts are Σ 2^C(n, 2) over each claim's default range, so a
change that shrinks a range fails the check instead of passing faster.
Running this file recomputes the two pinned class counts at n <= 6 with
the reference code: ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def enumerated(max_n: int) -> int:
    """Number of forward-labeled DAGs with 1 <= n <= max_n."""
    return sum(1 << comb(n, 2) for n in range(1, max_n + 1))


# Report ``checked`` per verify call at its default range.
CHECKED = {
    "turan": enumerated(7),  # 2,131,019
    "theorem-extremely": enumerated(6),  # 33,867
    "theorem-strongly": enumerated(6),
    "theorem-reduced": enumerated(6),
    "clique": sum(range(2, 9)),  # one (n, k) pair per k, 2 <= n <= 8
    "implications": enumerated(5) + 1000,  # 2,099
    "equiv-transitive": enumerated(6),
    "closure": enumerated(6),
    "separations": enumerated(5),  # 1,099: stops once both witnesses appear
    "boxes": 1000 + 1000 + 5 * 4 * 6,  # 2,120
}
assert (CHECKED["turan"], CHECKED["implications"], CHECKED["boxes"]) == (2_131_019, 2_099, 2_120)

# Per-ell edge maxima over all forward-labeled DAGs with n = 6.
TURAN_MAX_N6 = {0: 0, 1: 9, 2: 12, 3: 13, 4: 14, 5: 15}

# Counts over all forward-labeled DAGs with n <= 6, recomputed by main().
TRANSITIVE_N6 = 5_231
REDUCED_N6 = 24_023

CHORDED_CHAIN = frozenset({(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)})
PLAIN_CHAIN5 = frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})


def turan_edges(n: int, k: int) -> int:
    """Edges of the balanced complete k-partite graph on n vertices."""
    k = min(k, n)
    q, r = divmod(n, k)
    sizes = [q + 1] * r + [q] * (k - r)
    return (n * n - sum(s * s for s in sizes)) // 2


def reduced_bound(n: int, ell: int) -> int:
    """Closed-form edge maximum of a reduced DAG with longest path ell >= 1."""
    m = n - ell + 1
    return turan_edges(m, 2) + comb(n, 2) - comb(m, 2)


# ---------------------------------------------------------------------------
# Reference graph code on (n, edge set); vertices must be forward-labeled
# (u < v for every edge), which every generated input is.


def _succ(n: int, edges) -> list[int]:
    succ = [0] * n
    for u, v in edges:
        succ[u] |= 1 << v
    return succ


def _reach(n: int, succ: list[int]) -> tuple[list[int], list[int]]:
    down = [0] * n
    for v in range(n - 1, -1, -1):
        r = succ[v]
        for w in range(v + 1, n):
            if succ[v] >> w & 1:
                r |= down[w]
        down[v] = r
    up = [0] * n
    for v in range(n):
        for w in range(n):
            if down[w] >> v & 1:
                up[v] |= 1 << w
    return down, up


def levels(n: int, edges) -> list[int]:
    lev = [0] * n
    for u, v in sorted(edges, key=lambda e: e[1]):
        lev[v] = max(lev[v], lev[u] + 1)
    return lev


def _is_path(succ: list[int], vertex_mask: int) -> bool:
    vs = [v for v in range(len(succ)) if vertex_mask >> v & 1]
    return all(succ[a] >> b & 1 for a, b in zip(vs, vs[1:]))


def _paths(succ: list[int], allowed: int, v: int, w: int, cap: int) -> list[int]:
    out: list[int] = []
    stack = [(v, 1 << v)]
    while stack:
        u, acc = stack.pop()
        if u == w:
            out.append(acc)
            if len(out) > cap:
                raise OverflowError(f"more than {cap} paths from {v} to {w}")
            continue
        nxt = succ[u] & allowed
        while nxt:
            low = nxt & -nxt
            stack.append((low.bit_length() - 1, acc | low))
            nxt ^= low
    return out


def classify(n: int, edges, path_cap: int = 20_000) -> dict:
    """Class verdicts by definition, for a forward-labeled DAG.

    In forward labels the identity is a topological order, so sorting a
    vertex set is reading its bits in ascending order.
    """
    succ = _succ(n, edges)
    down, up = _reach(n, succ)
    transitive = all(down[v] == succ[v] for v in range(n))
    extremely = not any(
        not (succ[x] >> y & 1) and up[x] & up[y] and down[x] & down[y]
        for x in range(n)
        for y in range(x + 1, n)
    )
    reduced = all(
        _is_path(succ, (down[v] & up[w]) | 1 << v | 1 << w)
        for v in range(n)
        for w in range(n)
        if down[v] >> w & 1
    )
    # Strongly reduced implies reduced (the union of all joining paths is
    # built up by pairwise unions), so only reduced graphs need the pairs.
    strongly = reduced and all(
        _is_path(succ, p | q)
        for v in range(n)
        for w in range(n)
        if down[v] >> w & 1
        for ps in [_paths(succ, up[w] | 1 << w, v, w, path_cap)]
        for i, p in enumerate(ps)
        for q in ps[i + 1:]
    )
    return {
        "reduced": reduced,
        "strongly_reduced": strongly,
        "extremely_reduced": extremely,
        "transitive": transitive,
    }


def analyze_expected(n: int, edges, verdicts: dict) -> dict:
    """The JSON ``dagx analyze`` must print for a forward-labeled DAG."""
    lev = levels(n, edges)
    ell = max(lev)
    bound = reduced_bound(n, ell) if ell >= 1 else None
    return {
        "n": n,
        "edges": len(edges),
        "ell": ell,
        "levels": [[v for v in range(n) if lev[v] == k] for k in range(ell + 1)],
        **verdicts,
        "edge_bound": bound,
        "slack": None if bound is None else bound - len(edges),
    }


ALL_CLASSES = {"reduced": True, "strongly_reduced": True, "extremely_reduced": True, "transitive": True}


def closed_chain_edges(n: int) -> frozenset:
    return frozenset((u, v) for u in range(n) for v in range(u + 1, n))


def layered_edges(r: int, l: int, s: int) -> frozenset:
    """Three-layer extremal graph: r sources, l - 1 chained middles, s sinks."""
    xs = range(r)
    ys = range(r, r + l - 1)
    zs = range(r + l - 1, r + l - 1 + s)
    edges = {(x, y) for x in xs for y in ys} | {(x, z) for x in xs for z in zs}
    edges |= {(a, b) for a in ys for b in ys if a < b} | {(y, z) for y in ys for z in zs}
    return frozenset(edges)


def extremal_split(n: int, ell: int) -> tuple[int, int, int]:
    """(r, l, s) of the edge-maximal reduced DAG with n vertices and longest path ell."""
    m = n - ell + 1
    return (m + 1) // 2, ell, m // 2


# ---------------------------------------------------------------------------
# Boxes: (I, J) with I = (lo, hi) horizontal and J = (lo, hi) vertical.


def _nested(a, b) -> bool:
    """Interval a lies strictly inside interval b."""
    return b[0] < a[0] and a[1] < b[1]


def box_graph(boxes) -> frozenset:
    """Edge i -> j when I_i nests strictly in I_j and J_j strictly in J_i."""
    return frozenset(
        (i, j)
        for i, (ii, ji) in enumerate(boxes)
        for j, (ij, jj) in enumerate(boxes)
        if i != j and _nested(ii, ij) and _nested(jj, ji)
    )


def is_transverse(boxes) -> bool:
    """Every pair of boxes is disjoint or crosses like a plus sign."""
    for i, (ia, ja) in enumerate(boxes):
        for ib, jb in boxes[i + 1:]:
            meet = ia[0] <= ib[1] and ib[0] <= ia[1] and ja[0] <= jb[1] and jb[0] <= ja[1]
            plus = (_nested(ia, ib) and _nested(jb, ja)) or (_nested(ib, ia) and _nested(ja, jb))
            if meet and not plus:
                return False
    return True


def extremal_boxes(r: int, l: int, s: int) -> list[tuple[str, tuple, tuple]]:
    """The documented box realization of the three-layer extremal graph."""
    out = [(f"x{i}", (Fraction(2 * i), Fraction(2 * i + 1)), (Fraction(-10), Fraction(10))) for i in range(1, r + 1)]
    out += [
        (f"y{j}", (Fraction(-(20 + j)), Fraction(20 + j)), (Fraction(-(10 - j)), Fraction(10 - j)))
        for j in range(1, l)
    ]
    out += [
        (f"z{k}", (Fraction(-40), Fraction(40)), (Fraction(k, 10), Fraction(k, 10) + Fraction(1, 20)))
        for k in range(1, s + 1)
    ]
    return out


def main() -> None:
    from itertools import combinations

    transitive = reduced = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            verdict = classify(n, edges)
            transitive += verdict["transitive"]
            reduced += verdict["reduced"]
    print(f"TRANSITIVE_N6 = {transitive}\nREDUCED_N6 = {reduced}")


if __name__ == "__main__":
    main()
