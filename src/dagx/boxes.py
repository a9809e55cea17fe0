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
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

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


def is_transverse_family(family: BoxFamily) -> tuple[bool, list[tuple[str, str]]]:
    """Check that every pair is disjoint or transverse; report offenders.

    Offenders are listed in family order (i < j, by i then j). A
    transverse pair is an edge of the directed intersection graph in one
    direction, and nested intervals always overlap, so a pair offends iff
    the boxes intersect and neither nests in the other.
    """
    offenders = []
    ids = family.ids
    rows = _integer_rows(family)
    for i, r in enumerate(rows):
        for j in range(i + 1, len(rows)):
            s = rows[j]
            if r[0] <= s[1] and s[0] <= r[1] and r[2] <= s[3] and s[2] <= r[3] and not (_nests(r, s) or _nests(s, r)):
                offenders.append((ids[i], ids[j]))
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


def _layered_boxes(columns: int, frames: int, slats: int, rng=None) -> list[tuple[str, Box]]:
    """Columns x_i, frames y_j and slats z_k of :func:`extremal_box_family`, each coordinate plus a jitter.

    Without ``rng`` every jitter is 0. With a numpy Generator, each
    coordinate draws one integer ``rng.integers(lo, hi + 1)``, a numerator
    over 16 (over _GRID for the slats' vertical coordinates), in the order
    ix_lo, ix_hi, jy_lo, jy_hi for columns and frames and jy_lo, jy_hi,
    ix_lo, ix_hi for slats. Each coordinate is built as one Fraction over
    _GRID from its base, given in units of 1/_GRID.
    """

    def at(base: int, lo: int, hi: int, den: int = 16) -> Fraction:
        jitter = 0 if rng is None else int(rng.integers(lo, hi + 1))
        return Fraction(base + jitter * (_GRID // den), _GRID)

    entries = []
    for i in range(1, columns + 1):
        x = box(at(2 * i * _GRID, -9, 0), at((2 * i + 1) * _GRID, 0, 9), at(-10 * _GRID, -5, 5), at(10 * _GRID, -5, 5))
        entries.append((f"x{i}", x))
    for j in range(1, frames + 1):
        y = box(
            at(-(20 + j) * _GRID, -12, 12),
            at((20 + j) * _GRID, -12, 12),
            at(-(10 - j) * _GRID, -12, 12),
            at((10 - j) * _GRID, -12, 12),
        )
        entries.append((f"y{j}", y))
    for k in range(1, slats + 1):
        lo = at(k * _GRID // 10, -3, 3, _GRID)
        hi = at(k * _GRID // 10 + _GRID // 20, -3, 3, _GRID)
        entries.append((f"z{k}", box(at(-40 * _GRID, -9, 9), at(40 * _GRID, -9, 9), lo, hi)))
    return entries


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
    return BoxFamily(tuple(_layered_boxes(r, l - 1, s)))


def random_box_family(count: int, seed) -> BoxFamily:
    """Unconstrained random boxes on a half-integer grid."""
    if count < 1:
        raise InvalidParamsError(f"need count >= 1, got {count}")
    rng = _rng(seed)
    entries = []
    for i in range(count):
        # Half-grid numerators, drawn in the order x0, y0, width, height.
        x0, y0, w, h = (int(rng.integers(lo, 40)) for lo in (-40, -40, 1, 1))
        ix = Interval(Fraction(x0, 2), Fraction(x0 + w, 2))
        entries.append((f"b{i}", Box(ix, Interval(Fraction(y0, 2), Fraction(y0 + h, 2)))))
    return BoxFamily(tuple(entries))


def random_transverse_family(seed) -> BoxFamily:
    """Random family with pairwise disjoint-or-transverse boxes.

    Draws a jittered layered structure (0 to 4 each of the columns /
    frames / slats of :func:`extremal_box_family`), keeps each box with
    probability 0.8, and validates; jitter is large enough that
    validation occasionally fails, in which case the draw is rejected
    and retried, up to 16 draws.
    """
    rng = _rng(seed)
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
        entries = _layered_boxes(r, lm, s, rng)
        kept = [e for e in entries if rng.random() < 0.8]
        if not kept:
            kept = entries
        family = BoxFamily(tuple(kept))
        ok, _ = is_transverse_family(family)
        if ok:
            return family
    raise DagxError("no transverse family obtained after 16 draws")


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
