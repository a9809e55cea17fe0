import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagx import (
    BoxFamily,
    Dag,
    DagxError,
    DegenerateIntervalError,
    ExtremalSpec,
    Interval,
    InvalidParamsError,
    ParseError,
    box,
    boxes_intersect,
    directed_intersection_graph,
    extremal_box_family,
    extremal_dag,
    format_box_csv,
    intervals_strictly_nested,
    is_extremely_reduced,
    is_transitive,
    is_transverse_family,
    is_transverse_pair,
    parse_box_csv,
    random_box_family,
    random_transverse_family,
    reachability,
)
from dagx import boxes as boxes_module

CSV_HEAD = "id,ix_lo,ix_hi,jy_lo,jy_hi\n"


class TestInterval:
    def test_coercion(self):
        iv = Interval("1/2", 2)
        assert iv.lo == Fraction(1, 2) and iv.hi == 2

    def test_decimal_string(self):
        assert Interval("0.05", "0.1").lo == Fraction(1, 20)

    def test_degenerate(self):
        with pytest.raises(DegenerateIntervalError):
            Interval(1, 1)
        with pytest.raises(DegenerateIntervalError):
            Interval(2, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Interval(0.5, 1)

    def test_nesting(self):
        assert intervals_strictly_nested(Interval(0, 1), Interval(-1, 2))
        assert not intervals_strictly_nested(Interval(0, 1), Interval(0, 1))
        assert not intervals_strictly_nested(Interval(0, 1), Interval(0, 2))


class TestBoxPredicates:
    def test_disjoint_horizontal(self):
        assert not boxes_intersect(box(0, 1, 0, 1), box(2, 3, 0, 1))

    def test_identical(self):
        b = box(0, 1, 0, 1)
        assert boxes_intersect(b, b)
        assert not is_transverse_pair(b, b)

    def test_crossing(self):
        assert boxes_intersect(box(0, 3, 1, 2), box(1, 2, 0, 3))

    def test_transverse_pair(self):
        assert is_transverse_pair(box(1, 2, -2, 2), box(0, 3, -1, 1))

    def test_containment_not_transverse(self):
        assert not is_transverse_pair(box(0, 3, 0, 3), box(1, 2, 1, 2))

    def test_touching_edges_intersect(self):
        assert boxes_intersect(box(0, 1, 0, 1), box(1, 2, 0, 1))


class TestTransverseFamily:
    def test_disjoint_family(self):
        fam = BoxFamily((("a", box(0, 1, 0, 1)), ("b", box(5, 6, 0, 1))))
        ok, offenders = is_transverse_family(fam)
        assert ok and offenders == []

    def test_nested_pair_reported(self):
        fam = BoxFamily((("outer", box(0, 3, 0, 3)), ("inner", box(1, 2, 1, 2))))
        ok, offenders = is_transverse_family(fam)
        assert not ok
        assert offenders == [("outer", "inner")]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidParamsError):
            BoxFamily((("a", box(0, 1, 0, 1)), ("a", box(2, 3, 0, 1))))


class TestDirectedIntersectionGraph:
    def test_disjoint_pair_edgeless(self):
        fam = BoxFamily((("a", box(0, 1, 0, 1)), ("b", box(5, 6, 0, 1))))
        assert directed_intersection_graph(fam) == Dag(2)

    def test_single_edge_orientation(self):
        fam = BoxFamily((("R", box(1, 2, -2, 2)), ("Rp", box(0, 3, -1, 1))))
        assert directed_intersection_graph(fam).edges == {(0, 1)}

    def test_matches_layered_construction(self):
        for r in range(1, 4):
            for l in range(2, 5):
                for s in range(0, 4):
                    spec = ExtremalSpec(r, l, s)
                    fam = extremal_box_family(spec)
                    assert directed_intersection_graph(fam) == extremal_dag(spec)

    @pytest.mark.parametrize("make", [lambda seed: random_box_family(4, seed), random_transverse_family])
    @pytest.mark.parametrize("seed", [-1, (5, 0, -3)])
    def test_negative_seed(self, make, seed):
        with pytest.raises(InvalidParamsError):
            make(seed)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_families_acyclic_and_antisymmetric(self, seed):
        fam = random_box_family(8, seed)
        g = directed_intersection_graph(fam)  # Dag() validates acyclicity
        for u, v in g.edges:
            assert (v, u) not in g.edges

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_common_ancestor_descendant_forces_intersection(self, seed):
        fam = random_box_family(9, seed)
        g = directed_intersection_graph(fam)
        r = reachability(g)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                has_anc = any(r[a][i] and r[a][j] for a in range(g.n))
                has_desc = any(r[i][d] and r[j][d] for d in range(g.n))
                if has_anc and has_desc:
                    assert boxes_intersect(fam.boxes[i], fam.boxes[j])


# Coordinates of every kind a family may hold: integers, the half grid, the
# 1/320 grid of the layered families, decimal strings, and large primes as
# denominators. Several spell the same value, so families drawn from the
# pool share and touch endpoints.
_PRIMES = (1_000_000_007, 998_244_353, 2**61 - 1, 2**89 - 1)
COORD_POOL = (
    [k for k in range(-3, 4)]
    + [Fraction(k, 2) for k in range(-5, 6, 2)]
    + [Fraction(k, 320) for k in (-481, -160, 1, 320, 479, 640)]
    + ["-1.5", "0.25", "1.0", "2.75", "0.05"]
    + [Fraction(k * p + d, p) for p in _PRIMES for k, d in ((0, 1), (1, -1), (-2, 3))]
)


def mixed_family(rng: random.Random) -> BoxFamily:
    pool = rng.sample(COORD_POOL, 10)
    entries = []
    for i in range(rng.randint(2, 10)):
        ix, jy = (sorted(rng.sample(pool, 2), key=Fraction) for _ in range(2))
        if Fraction(ix[0]) == Fraction(ix[1]) or Fraction(jy[0]) == Fraction(jy[1]):
            continue
        entries.append((f"b{i}", box(*ix, *jy)))
    return BoxFamily(tuple(entries) or (("b", box(0, 1, 0, 1)),))


def literal_edges(family: BoxFamily) -> set:
    bs = family.boxes
    return {
        (i, j)
        for i in range(len(bs))
        for j in range(len(bs))
        if i != j and intervals_strictly_nested(bs[i].ix, bs[j].ix) and intervals_strictly_nested(bs[j].jy, bs[i].jy)
    }


def literal_offenders(family: BoxFamily) -> list:
    es = family.entries
    return [
        (a, c)
        for i, (a, r) in enumerate(es)
        for c, s in es[i + 1 :]
        if boxes_intersect(r, s) and not is_transverse_pair(r, s)
    ]


class TestIntegerKernel:
    """The family checks compare scaled integers; the pair predicates compare Fractions."""

    @pytest.mark.parametrize("scaled", [True, False], ids=["integers", "fractions"])
    def test_matches_the_pair_predicates(self, monkeypatch, scaled):
        if not scaled:
            monkeypatch.setattr(boxes_module, "_MAX_SCALED_BITS", 0)
        rng = random.Random(20160)
        families = [mixed_family(rng) for _ in range(300)]
        families += [random_box_family(12, seed) for seed in range(50)]
        families += [random_transverse_family(seed) for seed in range(50)]
        for fam in families:
            rows = boxes_module._integer_rows(fam)
            assert all(type(c) is (int if scaled else Fraction) for row in rows for c in row)
            assert directed_intersection_graph(fam).edges == literal_edges(fam)
            offenders = literal_offenders(fam)
            assert is_transverse_family(fam) == (not offenders, offenders)

    def test_pool_covers_shared_and_touching_endpoints(self):
        rng = random.Random(20160)
        shared = touching = offending = 0
        for _ in range(300):
            fam = mixed_family(rng)
            for r in fam.boxes:
                for s in fam.boxes:
                    if r is not s:
                        shared += r.ix.lo == s.ix.lo or r.jy.hi == s.jy.hi
                        touching += r.ix.hi == s.ix.lo or r.jy.hi == s.jy.lo
            offending += bool(literal_offenders(fam))
        assert shared and touching and offending

    def test_large_coprime_denominators_stay_fractions(self):
        # Mersenne numbers 2^p - 1 of distinct primes p are pairwise coprime:
        # over their common denominator every coordinate would take about
        # 110k bits, so the rows keep the Fractions.
        primes = [p for p in range(2, 1300) if all(p % d for d in range(2, p))][:200]
        rng = random.Random(7)
        entries = []
        for i in range(100):
            x, y = (rng.randint(-4, 4) + Fraction(1, 2 ** primes[2 * i + k] - 1) for k in (0, 1))
            entries.append((f"b{i}", box(x, x + rng.randint(1, 6), y, y + rng.randint(1, 6))))
        fam = BoxFamily(tuple(entries))
        assert all(type(c) is Fraction for row in boxes_module._integer_rows(fam) for c in row)
        assert directed_intersection_graph(fam).edges == literal_edges(fam)
        offenders = literal_offenders(fam)
        assert is_transverse_family(fam) == (not offenders, offenders)


class TestExtremalBoxFamily:
    def test_triangle(self):
        fam = extremal_box_family(ExtremalSpec(1, 2, 1))
        assert len(fam) == 3
        assert fam.ids == ("x1", "y1", "z1")
        g = directed_intersection_graph(fam)
        assert g.edges == {(0, 1), (1, 2), (0, 2)}

    def test_coordinates(self):
        fam = extremal_box_family(ExtremalSpec(1, 2, 1))
        x1 = fam.boxes[0]
        assert (x1.ix.lo, x1.ix.hi, x1.jy.lo, x1.jy.hi) == (2, 3, -10, 10)
        z1 = fam.boxes[2]
        assert (z1.jy.lo, z1.jy.hi) == (Fraction(1, 10), Fraction(3, 20))

    def test_transverse_for_small_specs(self):
        for r in range(1, 6):
            for l in range(2, 6):
                for s in range(0, 6):
                    ok, offenders = is_transverse_family(extremal_box_family(ExtremalSpec(r, l, s)))
                    assert ok, offenders

    def test_ell_one_realizes_complete_bipartite(self):
        for r in range(1, 10):
            for s in range(12):
                spec = ExtremalSpec(r, 1, s)
                fam = extremal_box_family(spec)
                ok, offenders = is_transverse_family(fam)
                assert ok, offenders
                g = directed_intersection_graph(fam)
                assert g == extremal_dag(spec) and len(g.edges) == r * s

    def test_capacity_limits(self):
        with pytest.raises(InvalidParamsError):
            extremal_box_family(ExtremalSpec(10, 2, 1))
        with pytest.raises(InvalidParamsError):
            extremal_box_family(ExtremalSpec(1, 11, 1))
        with pytest.raises(InvalidParamsError):
            extremal_box_family(ExtremalSpec(1, 10, 10))
        extremal_box_family(ExtremalSpec(1, 2, 89))
        with pytest.raises(InvalidParamsError):
            extremal_box_family(ExtremalSpec(1, 2, 90))


class TestRandomFamilies:
    def test_deterministic(self):
        assert format_box_csv(random_box_family(6, 42)) == format_box_csv(random_box_family(6, 42))
        a = random_transverse_family(42)
        b = random_transverse_family(42)
        assert format_box_csv(a) == format_box_csv(b)

    # Written out from the code before the column/frame/slat layout was
    # shared with extremal_box_family. Seeds 28 and 39 reject their first
    # draw; any change to the order of the draws changes these rows.
    PINNED = {
        13: """id,ix_lo,ix_hi,jy_lo,jy_hi
x1,31/16,3,-157/16,165/16
x2,57/16,81/16,-165/16,163/16
x4,119/16,19/2,-155/16,39/4
y1,-81/4,345/16,-149/16,143/16
y2,-43/2,181/8,-69/8,33/4
y3,-185/8,91/4,-13/2,117/16
y4,-193/8,197/8,-6,105/16
z1,-317/8,641/16,29/320,51/320
z2,-645/16,159/4,1/5,79/320
z3,-631/16,319/8,49/160,111/320
z4,-635/16,637/16,2/5,143/320
""",
        28: """id,ix_lo,ix_hi,jy_lo,jy_hi
x1,31/16,25/8,-41/4,165/16
y1,-331/16,87/4,-135/16,67/8
z1,-639/16,633/16,7/64,47/320
""",
        39: """id,ix_lo,ix_hi,jy_lo,jy_hi
x1,15/8,55/16,-41/4,163/16
x2,63/16,87/16,-163/16,10
y2,-357/16,355/16,-65/8,125/16
y3,-375/16,361/16,-123/16,15/2
z1,-639/16,641/16,7/64,9/64
z2,-633/16,639/16,67/320,83/320
""",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_seeded_draws_pinned(self, seed):
        assert format_box_csv(random_transverse_family(seed)) == self.PINNED[seed]

    # Written out from the code before random_box_family built its
    # endpoints on the half grid directly; the draws and their order must
    # not change.
    PINNED_GENERAL = {
        42: """id,ix_lo,ix_hi,jy_lo,jy_hi
b0,-33/2,-7/2,21/2,39/2
b1,-3,-1,14,28
b2,-12,-3/2,-33/2,3
b3,9,23,10,51/2
b4,1/2,17,-15,-6
b5,0,4,-11/2,13
""",
        7: """id,ix_lo,ix_hi,jy_lo,jy_hi
b0,35/2,31,5,45/2
b1,3,39/2,11,31/2
b2,-18,-12,-8,19/2
b3,33/2,53/2,-20,-7/2
b4,-15,-25/2,23/2,21
b5,25/2,39/2,-8,-5/2
""",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_GENERAL))
    def test_general_draws_pinned(self, seed):
        assert format_box_csv(random_box_family(6, seed)) == self.PINNED_GENERAL[seed]

    # The (seed, 0, trial) streams of the boxes claim, written out from the
    # code before _layered_boxes took the generator itself instead of a
    # jitter callback; the draws and their order must not change.
    PINNED_TRIALS = {
        (1, 0, 19): """id,ix_lo,ix_hi,jy_lo,jy_hi
x1,3/2,27/8,-81/8,39/4
y1,-343/16,327/16,-143/16,37/4
y2,-347/16,89/4,-35/4,15/2
z1,-647/16,633/16,29/320,5/32
z2,-321/8,639/16,13/64,41/160
""",
        (271828, 0, 17): """id,ix_lo,ix_hi,jy_lo,jy_hi
x1,23/16,13/4,-165/16,79/8
y1,-167/8,335/16,-73/8,149/16
z1,-321/8,40,17/160,5/32
z3,-635/16,317/8,19/64,113/320
""",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_TRIALS))
    def test_trial_draws_pinned(self, seed):
        assert format_box_csv(random_transverse_family(seed)) == self.PINNED_TRIALS[seed]

    def test_transverse_generator_validates(self):
        for seed in range(60):
            fam = random_transverse_family(seed)
            ok, offenders = is_transverse_family(fam)
            assert ok, offenders

    def test_transverse_graphs_extremely_reduced_and_transitive(self):
        for seed in range(40):
            g = directed_intersection_graph(random_transverse_family(seed))
            assert is_extremely_reduced(g)
            assert is_transitive(g)


def scalar_layered(columns: int, frames: int, slats: int, rng) -> list:
    """The jittered layered boxes drawn one scalar ``rng.integers`` per coordinate, each built as a Fraction."""

    def at(base: int, lo: int, hi: int, den: int = 16) -> Fraction:
        return Fraction(base + int(rng.integers(lo, hi + 1)) * (320 // den), 320)

    entries = []
    for i in range(1, columns + 1):
        x = box(at(640 * i, -9, 0), at(320 * (2 * i + 1), 0, 9), at(-3200, -5, 5), at(3200, -5, 5))
        entries.append((f"x{i}", x))
    for j in range(1, frames + 1):
        w, h = (20 + j) * 320, (10 - j) * 320
        entries.append((f"y{j}", box(at(-w, -12, 12), at(w, -12, 12), at(-h, -12, 12), at(h, -12, 12))))
    for k in range(1, slats + 1):
        lo, hi = at(32 * k, -3, 3, 320), at(32 * k + 16, -3, 3, 320)
        entries.append((f"z{k}", box(at(-12800, -9, 9), at(12800, -9, 9), lo, hi)))
    return entries


def scalar_transverse_family(seed) -> BoxFamily:
    """random_transverse_family with one scalar draw per number, as the batched draws must reproduce."""
    rng = np.random.default_rng(seed)
    for _ in range(16):
        r, lm, s = (int(rng.integers(0, 5)) for _ in range(3))
        if r + lm + s == 0:
            continue
        entries = scalar_layered(r, lm, s, rng)
        kept = [e for e in entries if rng.random() < 0.8] or entries
        family = BoxFamily(tuple(kept))
        if is_transverse_family(family)[0]:
            return family
    raise DagxError("no transverse family obtained after 16 draws")


def scalar_box_family(count: int, rng) -> BoxFamily:
    entries = []
    for i in range(count):
        x0, y0, w, h = (int(rng.integers(lo, 40)) for lo in (-40, -40, 1, 1))
        entries.append((f"b{i}", box(Fraction(x0, 2), Fraction(x0 + w, 2), Fraction(y0, 2), Fraction(y0 + h, 2))))
    return BoxFamily(tuple(entries))


class TestRowDrawers:
    """Each family is drawn as integer rows with one batched jitter call and one keep-mask call."""

    @pytest.mark.parametrize("seed", [0, 1, 5, 271828])
    def test_batched_draws_give_the_scalar_streams(self, seed):
        for t in range(250):
            assert random_transverse_family((seed, 0, t)) == scalar_transverse_family((seed, 0, t))
            a, b = np.random.default_rng((seed, 1, t)), np.random.default_rng((seed, 1, t))
            assert random_box_family(int(a.integers(2, 13)), a) == scalar_box_family(int(b.integers(2, 13)), b)

    @staticmethod
    def assert_rows_of(rows: np.ndarray, den: int, family: BoxFamily) -> None:
        """``rows / den`` are the family's coordinates, and so proportional to its :func:`_integer_rows`."""
        scaled = np.array(boxes_module._integer_rows(family), dtype=np.int64)
        common = math.lcm(*(c.denominator for b in family.boxes for c in (b.ix.lo, b.ix.hi, b.jy.lo, b.jy.hi)))
        assert np.array_equal(scaled * den, rows * common)

    def test_rows_are_the_public_families(self):
        for seed in range(200):
            ids, rows = boxes_module._transverse_rows(np.random.default_rng(seed))
            family = random_transverse_family(seed)
            assert ids == family.ids
            self.assert_rows_of(rows, boxes_module._GRID, family)
            count = 1 + seed % 12
            ids, rows = boxes_module._general_rows(count, np.random.default_rng(seed))
            family = random_box_family(count, seed)
            assert ids == family.ids
            self.assert_rows_of(rows, 2, family)
        for r, l, s in [(1, 1, 0), (4, 5, 4), (9, 10, 9), (2, 2, 89)]:
            ids, rows = boxes_module._layered_rows(r, l - 1, s)
            family = extremal_box_family(ExtremalSpec(r, l, s))
            assert ids == family.ids
            self.assert_rows_of(rows, boxes_module._GRID, family)


class TestBoxCsv:
    def test_round_trip(self):
        fam = extremal_box_family(ExtremalSpec(2, 3, 2))
        assert parse_box_csv(format_box_csv(fam)) == fam

    def test_round_trip_random(self):
        fam = random_box_family(7, 3)
        assert parse_box_csv(format_box_csv(fam)) == fam

    def test_accepts_decimals_and_rationals(self):
        fam = parse_box_csv("id,ix_lo,ix_hi,jy_lo,jy_hi\nb,0.5,1/1,0,0.25\n")
        b = fam.boxes[0]
        assert b.ix.lo == Fraction(1, 2) and b.jy.hi == Fraction(1, 4)

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_box_csv("id,a,b,c,d\nb,0,1,0,1\n")
        assert err.value.line == 1

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_box_csv("id,ix_lo,ix_hi,jy_lo,jy_hi\nb,0,1,0\n")
        assert err.value.line == 2

    def test_bad_coordinate(self):
        with pytest.raises(ParseError) as err:
            parse_box_csv("id,ix_lo,ix_hi,jy_lo,jy_hi\nb,zero,1,0,1\n")
        assert err.value.line == 2

    def test_degenerate_with_line(self):
        with pytest.raises(DegenerateIntervalError) as err:
            parse_box_csv("id,ix_lo,ix_hi,jy_lo,jy_hi\nb,1,1,0,1\n")
        assert "line 2" in str(err.value)

    def test_line_after_multiline_field(self):
        # The quoted id spans lines 2 and 3, so the short row is line 4.
        with pytest.raises(ParseError) as err:
            parse_box_csv(CSV_HEAD + '"a\nb",0,1,0,1\nc\n')
        assert err.value.line == 4

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_box_csv("")

    @pytest.mark.parametrize("field", ["1e99999999999", "1e-99999999999", "1E+1001", "1e9_999_999_999"])
    def test_huge_exponent_rejected(self, field):
        # Fraction would expand 10**exponent exactly; the parser refuses first.
        with pytest.raises(ParseError) as err:
            parse_box_csv(f"{CSV_HEAD}b,0,{field},0,1\n")
        assert err.value.line == 2 and "exponent" in str(err.value)
        with pytest.raises(InvalidParamsError):
            box(0, field, 0, 1)

    def test_exponent_at_the_limit(self):
        fam = parse_box_csv(CSV_HEAD + "b,1e-1000,1e1000,0,1E3\n")
        b = fam.boxes[0]
        assert b.ix.hi == 10**1000 and b.ix.lo == Fraction(1, 10**1000) and b.jy.hi == 1000

    def test_malformed_csv(self):
        with pytest.raises(ParseError):
            parse_box_csv(CSV_HEAD + "b,0\r1,1,0,1\n")

    @given(
        st.one_of(
            st.text(),
            st.text().map(CSV_HEAD.__add__),
            st.lists(
                st.lists(st.text(alphabet="0123456789eE+-./_ x", max_size=8), min_size=4, max_size=6).map(",".join),
                max_size=4,
            ).map(lambda rows: CSV_HEAD + "".join(f"b{i},{row}\n" for i, row in enumerate(rows))),
        )
    )
    @settings(max_examples=300)
    def test_any_text_parses_or_raises_dagx_error(self, text):
        try:
            parse_box_csv(text)
        except DagxError:
            pass
