"""Axis-parallel boxes in the plane and their directed intersection graphs.

Coordinates are exact rationals (int, ``fractions.Fraction``, or strings
like ``"3"``, ``"0.05"``, ``"1/20"``); floats are rejected so containment
predicates never suffer rounding. Boxes are closed: disjointness means an
empty intersection of closed boxes.

Two boxes cross transversely when each strictly contains the other's
interval in exactly one coordinate. An edge R -> R' of the directed
intersection graph records R's horizontal interval nesting strictly
inside R''s while R''s vertical interval nests strictly inside R's;
"strict" means both endpoints separated, which makes the nesting relation
a strict partial order and the graph acyclic (horizontal width grows
along every edge).

The family-wide checks (:func:`directed_intersection_graph` and
:func:`is_transverse_family`) scale every coordinate of a family to an
integer over the family's common denominator and compare those
integers, which orders the coordinates exactly as their rationals do.
The pair predicates (:func:`intervals_strictly_nested`,
:func:`boxes_intersect`, :func:`is_transverse_pair`) compare the
rationals themselves and serve as the literal reference.

The random and extremal families are drawn as integer rows on a fixed
grid (numerators over ``_GRID`` for the layered families, over 2 for the
general ones) and converted to Fractions once; the box claim of
:mod:`dagx.harness` decides the rows directly and builds a family only to
list it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import DagxError, DegenerateIntervalError, InvalidParamsError, ParseError
from .graph import Dag
from .generators import ExtremalSpec, _rng


# Largest decimal exponent a coordinate string may carry: Fraction("1e99999999999")
# expands 10**99999999999 exactly and never returns, so the exponent is read first.
MAX_COORD_EXPONENT = 1000


def _exponent_too_large(text: str) -> bool:
    """True iff ``text`` carries a decimal exponent above MAX_COORD_EXPONENT."""
    _, sep, exp = text.lower().partition("e")
    digits = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    return sep == "e" and digits.isdecimal() and (len(digits) > 9 or int(digits) > MAX_COORD_EXPONENT)


def _coord(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("box coordinates must be exact: pass int, str, or Fraction")
    if isinstance(value, str) and _exponent_too_large(value):
        raise InvalidParamsError(f"bad coordinate: exponent above the limit {MAX_COORD_EXPONENT}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParamsError(f"bad coordinate {value!r}: {exc}") from None


@dataclass(frozen=True)
class Interval:
    """Closed nondegenerate interval [lo, hi] with exact endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _coord(self.lo))
        object.__setattr__(self, "hi", _coord(self.hi))
        if not self.lo < self.hi:
            raise DegenerateIntervalError(f"need lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Box:
    """Axis-parallel rectangle ix x jy (horizontal times vertical)."""

    ix: Interval
    jy: Interval


def box(ix_lo, ix_hi, jy_lo, jy_hi) -> Box:
    return Box(Interval(ix_lo, ix_hi), Interval(jy_lo, jy_hi))


@dataclass(frozen=True)
class BoxFamily:
    """Ordered, uniquely labeled collection of boxes."""

    entries: tuple[tuple[str, Box], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((str(i), b) for i, b in self.entries))
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise InvalidParamsError("box ids must be unique")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def boxes(self) -> tuple[Box, ...]:
        return tuple(b for _, b in self.entries)


def intervals_strictly_nested(a: Interval, b: Interval) -> bool:
    """True iff a sits strictly inside b: b.lo < a.lo and a.hi < b.hi."""
    return b.lo < a.lo and a.hi < b.hi


def boxes_intersect(r: Box, s: Box) -> bool:
    """Closed-box intersection test."""
    return (
        r.ix.lo <= s.ix.hi
        and s.ix.lo <= r.ix.hi
        and r.jy.lo <= s.jy.hi
        and s.jy.lo <= r.jy.hi
    )


def is_transverse_pair(r: Box, s: Box) -> bool:
    """True iff the boxes cross like a plus sign (in either orientation)."""
    return (
        intervals_strictly_nested(r.ix, s.ix) and intervals_strictly_nested(s.jy, r.jy)
    ) or (
        intervals_strictly_nested(s.ix, r.ix) and intervals_strictly_nested(r.jy, s.jy)
    )


# Scaled rows hold one integer of about the common denominator's size per
# coordinate; past this many bits in all, the rationals are compared as they
# are, which is exact too and keeps a family of large coprime denominators
# from growing quadratically in memory.
_MAX_SCALED_BITS = 1 << 24


def _integer_rows(family: BoxFamily) -> list[tuple]:
    """Each box as (ix_lo, ix_hi, jy_lo, jy_hi), scaled to integers over the family's common denominator.

    Multiplying every coordinate by the same positive integer keeps every
    comparison between coordinates, equalities included, so checks on
    these rows are exact. Beyond ``_MAX_SCALED_BITS`` the rows hold the
    Fractions themselves.
    """
    rows = [(b.ix.lo, b.ix.hi, b.jy.lo, b.jy.hi) for b in family.boxes]
    ratios = [c.as_integer_ratio() for row in rows for c in row]
    dens = {d for _, d in ratios}
    # The product of the distinct denominators bounds their lcm.
    if sum(map(int.bit_length, dens)) * len(ratios) > _MAX_SCALED_BITS:
        return rows
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    flat = [n * scale[d] for n, d in ratios]
    return list(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))


def _nests(r: tuple, s: tuple) -> bool:
    """On rows of :func:`_integer_rows`: r's horizontal interval strictly
    inside s's and s's vertical interval strictly inside r's."""
    return s[0] < r[0] and r[1] < s[1] and r[2] < s[2] and s[3] < r[3]


def _offenders(rows) -> list[tuple[int, int]]:
    """The pairs i < j, by i then j, of rows on one grid whose boxes intersect with neither nesting in the other."""
    out = []
    for i, r in enumerate(rows):
        for j in range(i + 1, len(rows)):
            s = rows[j]
            if r[0] <= s[1] and s[0] <= r[1] and r[2] <= s[3] and s[2] <= r[3] and not (_nests(r, s) or _nests(s, r)):
                out.append((i, j))
    return out


def is_transverse_family(family: BoxFamily) -> tuple[bool, list[tuple[str, str]]]:
    """Check that every pair is disjoint or transverse; report offenders.

    Offenders are listed in family order (i < j, by i then j). A
    transverse pair is an edge of the directed intersection graph in one
    direction, and nested intervals always overlap, so a pair offends iff
    the boxes intersect and neither nests in the other.
    """
    ids = family.ids
    offenders = [(ids[i], ids[j]) for i, j in _offenders(_integer_rows(family))]
    return not offenders, offenders


def directed_intersection_graph(family: BoxFamily) -> Dag:
    """Vertex per box (in family order); edge i -> j per transverse nesting."""
    n = len(family)
    if n == 0:
        raise InvalidParamsError("family must contain at least one box")
    rows = _integer_rows(family)
    edges = [(i, j) for i, r in enumerate(rows) for j, s in enumerate(rows) if i != j and _nests(r, s)]
    return Dag(n, edges)


# Every coordinate of the layered families is a multiple of 1/_GRID.
_GRID = 320


@cache
def _layered_table(columns: int, frames: int, slats: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """(ids, draws, order) of the columns x_i, frames y_j and slats z_k of :func:`extremal_box_family`.

    ``draws`` has one column per coordinate, in draw order: ix_lo, ix_hi,
    jy_lo, jy_hi for columns and frames and jy_lo, jy_hi, ix_lo, ix_hi for
    slats. Its rows are the coordinate's base (a numerator over _GRID),
    the jitter's bounds lo and hi + 1, and the jitter's step: 20 for a
    jitter over 16, 1 for one over _GRID (the slats' vertical
    coordinates). ``values[order]`` puts values in draw order into rows
    (ix_lo, ix_hi, jy_lo, jy_hi), box after box.
    """
    ids: list[str] = []
    draws: list[tuple[int, int, int, int]] = []
    slots: list[int] = []

    def add(ident: str, coords: list[tuple[int, int, int, int, int]]) -> None:
        # coords: (slot in the row, base, lo, hi, den), in draw order.
        for slot, at, lo, hi, den in coords:
            draws.append((at, lo, hi + 1, _GRID // den))
            slots.append(4 * len(ids) + slot)
        ids.append(ident)

    g = _GRID
    for i in range(1, columns + 1):
        coords = [(0, 2 * i * g, -9, 0), (1, (2 * i + 1) * g, 0, 9), (2, -10 * g, -5, 5), (3, 10 * g, -5, 5)]
        add(f"x{i}", [(*c, 16) for c in coords])
    for j in range(1, frames + 1):
        coords = [(0, -(20 + j) * g), (1, (20 + j) * g), (2, -(10 - j) * g), (3, (10 - j) * g)]
        add(f"y{j}", [(slot, at, -12, 12, 16) for slot, at in coords])
    for k in range(1, slats + 1):
        lo = k * g // 10
        add(f"z{k}", [(2, lo, -3, 3, g), (3, lo + g // 20, -3, 3, g), (0, -40 * g, -9, 9, 16), (1, 40 * g, -9, 9, 16)])
    table = np.array(draws, dtype=np.int64).reshape(-1, 4).T
    order = np.argsort(slots)
    for array in (table, order):
        array.flags.writeable = False
    return tuple(ids), table, order


def _layered_rows(columns: int, frames: int, slats: int, rng=None) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, rows) of the layered boxes, numerators over _GRID, each coordinate plus a jitter.

    Without ``rng`` every jitter is 0. With a numpy Generator, one call
    ``rng.integers(lows, highs)`` draws every jitter, in the draw order
    of :func:`_layered_table`; it yields the stream of one scalar
    ``rng.integers(lo, hi + 1)`` per coordinate in that order.
    """
    ids, (base, low, high, step), order = _layered_table(columns, frames, slats)
    values = base if rng is None else base + rng.integers(low, high) * step
    return ids, values[order].reshape(-1, 4)


def _family_from_rows(ids, rows: np.ndarray, den: int) -> BoxFamily:
    """The family whose box ``ids[i]`` has the coordinates ``rows[i] / den``."""
    return BoxFamily(tuple((i, box(*(Fraction(c, den) for c in row))) for i, row in zip(ids, rows.tolist())))


def extremal_box_family(spec: ExtremalSpec) -> BoxFamily:
    """Box realization of the three-layer extremal graph.

    Thin tall boxes for the sources, widening/flattening frames for the
    middle chain, and wide flat slats for the sinks:

    * x_i = [2i, 2i+1] x [-10, 10]            (pairwise disjoint columns)
    * y_j = [-(20+j), 20+j] x [-(10-j), 10-j] (I widens, J narrows with j)
    * z_k = [-40, 40] x [k/10, k/10 + 1/20]   (pairwise disjoint slats)

    Raises InvalidParams when the parameters exceed what these fixed
    scales accommodate (r <= 9, l <= 10, and the z slats must fit strictly
    inside the narrowest y frame).
    """
    r, l, s = spec.r, spec.l, spec.s
    top_slot = Fraction(s, 10) + Fraction(1, 20)
    if r > 9 or l > 10 or top_slot >= 11 - l:
        raise InvalidParamsError(
            f"spec {spec} exceeds the default coordinate scale "
            f"(need r <= 9, l <= 10, s/10 + 1/20 < 11 - l)"
        )
    return _family_from_rows(*_layered_rows(r, l - 1, s), _GRID)


@cache
def _general_table(count: int) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, lows) of :func:`random_box_family`: ids b0.., and per drawn number its low bound."""
    lows = np.tile(np.array([-40, -40, 1, 1], dtype=np.int64), count)
    lows.flags.writeable = False
    return tuple(f"b{i}" for i in range(count)), lows


# (x0, y0, w, h) @ _CORNERS == (x0, x0 + w, y0, y0 + h)
_CORNERS = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.int64)


def _general_rows(count: int, rng) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, rows) of :func:`random_box_family`, the rows numerators over 2.

    One call ``rng.integers(lows, 40)`` draws x0, y0, width and height of
    each box in turn, the stream of one scalar draw per number.
    """
    ids, lows = _general_table(count)
    return ids, rng.integers(lows, 40).reshape(count, 4) @ _CORNERS


def random_box_family(count: int, seed) -> BoxFamily:
    """Unconstrained random boxes on a half-integer grid."""
    if count < 1:
        raise InvalidParamsError(f"need count >= 1, got {count}")
    return _family_from_rows(*_general_rows(count, _rng(seed)), 2)


def _transverse_rows(rng) -> tuple[tuple[str, ...], np.ndarray]:
    """The family :func:`random_transverse_family` draws from ``rng``, as (ids, rows over _GRID).

    Each draw takes the three layer sizes, every jitter in one call and
    the keep mask in one ``rng.random(k)``, and is validated on its
    integer rows by the pair rule of :func:`is_transverse_family`.
    """
    for _ in range(16):
        r = int(rng.integers(0, 5))
        lm = int(rng.integers(0, 5))
        s = int(rng.integers(0, 5))
        if r + lm + s == 0:
            continue
        # Column widths stay positive (lo only shifts down, hi only up)
        # but neighboring columns can be pushed into overlap, and frame
        # nesting margins are 1 against jitter spreads above 1, so some
        # draws fail validation below.
        ids, rows = _layered_rows(r, lm, s, rng)
        keep = rng.random(len(ids)) < 0.8
        if keep.any():
            ids, rows = tuple(i for i, kept in zip(ids, keep) if kept), rows[keep]
        if not _offenders(rows.tolist()):
            return ids, rows
    raise DagxError("no transverse family obtained after 16 draws")


def random_transverse_family(seed) -> BoxFamily:
    """Random family with pairwise disjoint-or-transverse boxes.

    Draws a jittered layered structure (0 to 4 each of the columns /
    frames / slats of :func:`extremal_box_family`), keeps each box with
    probability 0.8, and validates; jitter is large enough that
    validation occasionally fails, in which case the draw is rejected
    and retried, up to 16 draws.
    """
    return _family_from_rows(*_transverse_rows(_rng(seed)), _GRID)


CSV_HEADER = ("id", "ix_lo", "ix_hi", "jy_lo", "jy_hi")


def parse_box_csv(text: str) -> BoxFamily:
    """Parse the box CSV format (see :data:`CSV_HEADER`)."""
    reader = csv.reader(io.StringIO(text))
    try:
        # line_num is the physical line a record ends on, which differs
        # from the record count once a quoted field spans lines.
        rows = [(reader.line_num, row) for row in reader if any(f.strip() for f in row)]
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None
    if not rows:
        raise ParseError("empty box CSV")
    head_line, head = rows[0]
    if tuple(f.strip() for f in head) != CSV_HEADER:
        raise ParseError(f"expected header {','.join(CSV_HEADER)}", head_line)
    entries = []
    for lineno, row in rows[1:]:
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", lineno)
        try:
            # Every field is read before box() checks an interval, so a bad
            # coordinate is a ParseError even in a row with a degenerate one.
            entries.append((row[0].strip(), box(*[_coord(f.strip()) for f in row[1:]])))
        except InvalidParamsError as exc:
            raise ParseError(str(exc), lineno) from None
        except DegenerateIntervalError as exc:
            raise DegenerateIntervalError(f"line {lineno}: {exc}") from None
    return BoxFamily(tuple(entries))


def format_box_csv(family: BoxFamily) -> str:
    """Serialize a family in the box CSV format (exact rational fields)."""
    out = [",".join(CSV_HEADER)]
    for ident, b in family.entries:
        out.append(f"{ident},{b.ix.lo},{b.ix.hi},{b.jy.lo},{b.jy.hi}")
    return "\n".join(out) + "\n"
