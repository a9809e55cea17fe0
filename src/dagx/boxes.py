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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


def is_transverse_family(family: BoxFamily) -> tuple[bool, list[tuple[str, str]]]:
    """Check that every pair is disjoint or transverse; report offenders."""
    offenders = []
    entries = family.entries
    for i in range(len(entries)):
        id_i, box_i = entries[i]
        for j in range(i + 1, len(entries)):
            id_j, box_j = entries[j]
            if boxes_intersect(box_i, box_j) and not is_transverse_pair(box_i, box_j):
                offenders.append((id_i, id_j))
    return not offenders, offenders


def directed_intersection_graph(family: BoxFamily) -> Dag:
    """Vertex per box (in family order); edge i -> j per transverse nesting."""
    boxes = family.boxes
    n = len(boxes)
    if n == 0:
        raise InvalidParamsError("family must contain at least one box")
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if intervals_strictly_nested(boxes[i].ix, boxes[j].ix) and intervals_strictly_nested(
                boxes[j].jy, boxes[i].jy
            ):
                edges.add((i, j))
    return Dag(n, edges)


def _layered_boxes(columns: int, frames: int, slats: int, jitter: Callable[..., Fraction]) -> list[tuple[str, Box]]:
    """Columns x_i, frames y_j and slats z_k of :func:`extremal_box_family`, each coordinate plus a jitter.

    ``jitter(lo, hi, den=16)`` is called once per coordinate, in the order
    ix_lo, ix_hi, jy_lo, jy_hi for columns and frames and jy_lo, jy_hi,
    ix_lo, ix_hi for slats.
    """
    entries = []
    for i in range(1, columns + 1):
        x = box(2 * i + jitter(-9, 0), 2 * i + 1 + jitter(0, 9), -10 + jitter(-5, 5), 10 + jitter(-5, 5))
        entries.append((f"x{i}", x))
    for j in range(1, frames + 1):
        y = box(
            -(20 + j) + jitter(-12, 12),
            20 + j + jitter(-12, 12),
            -(10 - j) + jitter(-12, 12),
            10 - j + jitter(-12, 12),
        )
        entries.append((f"y{j}", y))
    for k in range(1, slats + 1):
        lo = Fraction(k, 10) + jitter(-3, 3, 320)
        hi = Fraction(k, 10) + Fraction(1, 20) + jitter(-3, 3, 320)
        entries.append((f"z{k}", box(-40 + jitter(-9, 9), 40 + jitter(-9, 9), lo, hi)))
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
    return BoxFamily(tuple(_layered_boxes(r, l - 1, s, lambda *_: Fraction(0))))


def random_box_family(count: int, seed) -> BoxFamily:
    """Unconstrained random boxes on a half-integer grid."""
    if count < 1:
        raise InvalidParamsError(f"need count >= 1, got {count}")
    rng = _rng(seed)
    entries = []
    for i in range(count):
        x0 = Fraction(int(rng.integers(-40, 40)), 2)
        y0 = Fraction(int(rng.integers(-40, 40)), 2)
        w = Fraction(int(rng.integers(1, 40)), 2)
        h = Fraction(int(rng.integers(1, 40)), 2)
        entries.append((f"b{i}", Box(Interval(x0, x0 + w), Interval(y0, y0 + h))))
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

    def jitter(lo: int, hi: int, den: int = 16) -> Fraction:
        return Fraction(int(rng.integers(lo, hi + 1)), den)

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
        entries = _layered_boxes(r, lm, s, jitter)
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
