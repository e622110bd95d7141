"""Layout documents, their text format, and cluster reports.

Layout text format, one record per line, '#' starts a comment:

    HEADER RADIUS <int> CONSTRAINT <COSINE|EDGEMOVE> THRESHOLD <decimal>
    POLY <id> <x1> <y1> <x2> <y2> ...
    MARKER <id> <xlo> <ylo> <xhi> <yhi>

A document keeps its design polygons as one vertex table
(`geometry.VertexTable`, the kind of table a window's `Pattern` holds too):
every ring's vertices in one (V, 2) int64 array, ring k in rows
offsets[k]:offsets[k + 1] of it (compressed sparse rows). `parse_layout`
reads every POLY line into that table and checks and normalises all rings
together in array passes. Each ring is stored counter-clockwise from its
lexicographically smallest vertex, as `Polygon.from_vertices` stores it;
its orientation is read from the edge leaving that vertex (East means
counter-clockwise), so no coordinate can overflow the test. A `Polygon` is
built only for a ring of more than 4 vertices (for the slab sweep that
decomposes it), for a ring that a check flags (to raise the error the
per-polygon path raises) and, on demand, for callers that want objects
(`LayoutDocument.design_polygons`, the generator, tests). The document
sorts the table's rectangles by xlo for its window query
(`LayoutDocument.window_rectangles`).

Report CSV: ``marker_id,cluster_id,center_x,center_y,rep_marker_id`` rows
followed by a ``# clusters=<n> iterations=<m> compression=<r>`` summary line.
The representative is matched at its own marker center, and need not be a
member of the cluster it represents.
"""

import enum
import io
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import GeometryError, Marker, Polygon, VertexTable, _bboxes, _next_vertex, rectangles

MAX_RADIUS = 10**7  # keeps rasterization denominators exact in float64
INT64 = range(-2**63, 2**63)  # the coordinates a layout may hold


class ConstraintKind(enum.Enum):
    COSINE = "cosine"
    EDGEMOVE = "edgemove"


class LayoutParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_threshold(kind: ConstraintKind, threshold: float) -> None:
    """The threshold rule of every document: finite, non-negative, and at
    most 1 under the cosine constraint."""
    if not math.isfinite(threshold) or threshold < 0:
        raise ValueError(f"threshold {threshold} must be finite and non-negative")
    if kind is ConstraintKind.COSINE and threshold > 1:
        raise ValueError(f"cosine threshold {threshold} outside [0, 1]")


@dataclass
class LayoutDocument:
    """A parsed (or generated) layout: the header, the design polygons as
    one vertex table (`rings`) with each polygon's id, and the markers,
    each with its id.

    `rings` may also be given as a sequence of already normalised
    polygons, the way the generator and tests hold them; their rings are
    concatenated into the table (`VertexTable.of_polygons`). A header
    override (`dataclasses.replace` of the radius, constraint or threshold)
    hands the new document the same table, so nothing is decomposed again.
    Equality compares the header, the ids, the markers and the rings.

    `rects`, `owner` and `widest` are what `window_rectangles` queries: the
    table's `rects` and `owner` rows sorted stably by xlo, so row k of
    `rects` is a `rectangles()` row (xlo, ylo, xhi, yhi) of design polygon
    `owner[k]`, and `widest`, the width of the widest row, exact as a
    Python int however far apart its sides lie.
    """

    pattern_radius: int
    constraint_kind: ConstraintKind
    threshold: float
    rings: VertexTable
    polygon_ids: tuple[int, ...]
    markers: tuple[Marker, ...]
    marker_ids: tuple[int, ...]

    def __post_init__(self):
        if not (0 < self.pattern_radius <= MAX_RADIUS):
            raise ValueError(f"pattern radius {self.pattern_radius} outside (0, {MAX_RADIUS}]")
        if len(self.rings) != len(self.polygon_ids):
            raise ValueError("polygon ids do not match polygons")
        if len(self.markers) != len(self.marker_ids):
            raise ValueError("marker ids do not match markers")
        _check_threshold(self.constraint_kind, self.threshold)
        if not isinstance(self.rings, VertexTable):
            self.rings = VertexTable.of_polygons(self.rings)
        rects = self.rings.rects
        order = np.argsort(rects[:, 0], kind="stable")
        self.rects, self.owner = rects[order], self.rings.owner[order]
        # a width below 2**64 does not wrap in uint64, where it may in int64
        self.widest = int((rects[:, 2].view(np.uint64) - rects[:, 0].view(np.uint64)).max(initial=0))

    @property
    def design_polygons(self) -> tuple[Polygon, ...]:
        """The rings as `Polygon` objects, in file order, built on each read:
        for callers that want objects, such as tests."""
        return self.rings.polygons()

    def window_rectangles(self, center) -> tuple[np.ndarray, np.ndarray]:
        """The rows of `rects` that strictly overlap the window at `center`,
        clipped to it and shifted to window-local coordinates, and the
        index of each one's polygon (from `owner`): `raster.window_features`
        and `extract_pattern` both read this one query. A polygon that
        misses the window, touches it only along an edge, or overlaps it
        with its bbox alone has no rows. No row is wider than `widest`, so
        only rows with xlo in (cx - r - widest, cx + r) can reach the
        window; the lower bound is held within int64.
        """
        cx, cy = center
        r = self.pattern_radius
        lo, hi = self.rects[:, 0].searchsorted((max(cx - r - self.widest, -2**63), cx + r))
        rows = self.rects[lo:hi]
        keep = (rows[:, 2] > cx - r) & (rows[:, 1] < cy + r) & (rows[:, 3] > cy - r)
        rows = rows[keep]
        rows -= (cx, cy, cx, cy)  # boolean indexing made a copy
        np.minimum(rows, r, out=rows)
        return np.maximum(rows, -r, out=rows), self.owner[lo:hi][keep]


def _names_file(source: str) -> bool:
    """Whether a str source is a path: it is non-empty with no whitespace
    (every document has some, so a missing file raises FileNotFoundError
    naming it), or a single line naming an existing file."""
    if source and not any(ch.isspace() for ch in source):
        return True
    return "\n" not in source and os.path.exists(source)


def _read_text(source) -> str:
    if isinstance(source, os.PathLike) or (isinstance(source, str) and _names_file(source)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _reference_ring(coords: list, line: int) -> tuple[Polygon, tuple]:
    """One ring through the per-polygon path, `Polygon.from_vertices` and
    `rectangles()`: the ring and its rectangles, or the LayoutParseError
    of its first fault at `line`."""
    try:
        poly = Polygon.from_vertices(zip(coords[::2], coords[1::2]))
        return poly, rectangles(poly)
    except GeometryError as exc:
        raise LayoutParseError(line, str(exc)) from None


def _ring_table(flat: list, counts: list, lines: list) -> VertexTable:
    """The POLY rings read so far, checked and normalised in array passes.

    `flat` holds every ring's coordinates, x y x y ..., ring k with
    `counts[k]` vertices, read from line `lines[k]`. A ring is flagged for
    a repeated vertex, a diagonal edge or two consecutive edges that are
    both horizontal or both vertical: the faults `Polygon.from_vertices`
    refuses. Every ring is rotated to start at its lexicographically
    smallest vertex and turned counter-clockwise: the edge leaving that
    vertex of a valid ring runs East or North, and East means the ring is
    counter-clockwise, a comparison no coordinate can overflow (a shoelace
    sum can). A ring of more than 4 vertices is decomposed by
    `rectangles()`; a 4-vertex ring is its bbox.

    A flagged ring, and a ring whose `rectangles()` fails in that
    orientation, goes through the per-polygon path (`_reference_ring`), so
    the first faulty ring in file order raises the error and line that
    path raises; a ring that the slab sweep accepts only in the shoelace's
    orientation is stored in that one. A coordinate beyond int64 raises
    LayoutParseError at its line, after any fault on an earlier line.
    """
    n_rings = len(counts)
    offsets = np.zeros(n_rings + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    try:
        xy = np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        k = next(k for k in range(n_rings)
                 if not all(v in INT64 for v in flat[2 * offsets[k]:2 * offsets[k + 1]]))
        _ring_table(flat[:2 * offsets[k]], counts[:k], lines[:k])  # a fault on an earlier line comes first
        raise LayoutParseError(lines[k], "coordinate outside the int64 range") from None
    size = np.asarray(counts, dtype=np.int64)
    first = offsets[:-1]
    ring = np.repeat(np.arange(n_rings), size)
    nxt = _next_vertex(offsets)
    x, y = xy[:, 0], xy[:, 1]
    horizontal = y == y[nxt]
    flagged = np.zeros(n_rings, dtype=bool)
    flagged[ring[~horizontal & (x != x[nxt])]] = True  # a diagonal edge
    flagged[ring[horizontal == horizontal[nxt]]] = True  # two parallel edges in a row
    order = np.lexsort((y, x, ring))  # each ring's vertices, lexicographically
    xs, ys, rs = x[order], y[order], ring[order]
    flagged[rs[1:][(xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1]) & (rs[1:] == rs[:-1])]] = True  # a repeat
    start = order[first]  # each ring's smallest vertex
    step = np.where(x[nxt[start]] > x[start], 1, -1)  # East: counter-clockwise, else walk back
    local = np.arange(len(xy)) - first[ring]
    vertices = xy[first[ring] + ((start - first)[ring] + step[ring] * local) % size[ring]]
    bounds = offsets.tolist()
    boxes = _bboxes(xy, offsets)
    pieces = {}  # rectangles() of each ring of more than 4 vertices
    for k in np.flatnonzero(flagged | (size != 4)).tolist():
        s, e = bounds[k], bounds[k + 1]
        if not flagged[k]:
            try:
                pieces[k] = rectangles(Polygon(tuple(map(tuple, vertices[s:e].tolist())), tuple(boxes[k].tolist())))
                continue
            except GeometryError:
                pass
        poly, pieces[k] = _reference_ring(flat[2 * s:2 * e], lines[k])
        vertices[s:e] = poly.vertices
    return VertexTable.build(vertices, offsets, boxes, pieces)


def parse_layout(source) -> LayoutDocument:
    """Parse a layout document from a path, string, bytes, or file object.

    Each POLY line's coordinates are read into one list; `_ring_table`
    checks and normalises the rings together at the end. Raises
    LayoutParseError with a line number for syntax problems, and wraps
    geometry validation errors (diagonal edges, non-simple rings) the same
    way, the error of the first faulty line winning: when a record fails,
    the rings read before it (and its own, for a duplicate polygon id) are
    checked first. A check of the whole document (the radius) is reported
    at the HEADER's line.
    """
    text = _read_text(source)
    header = None
    ids: dict[int, None] = {}  # polygon ids, in file order
    flat: list[int] = []  # every ring's x y x y ..., in file order
    counts: list[int] = []  # each ring's vertex count
    lines: list[int] = []  # each ring's line
    markers: dict[int, Marker] = {}
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "HEADER":
                if header is not None:
                    raise LayoutParseError(lineno, "duplicate HEADER")
                if len(tokens) != 7 or tokens[1] != "RADIUS" or tokens[3] != "CONSTRAINT" or tokens[5] != "THRESHOLD":
                    raise LayoutParseError(lineno, "header must read: HEADER RADIUS <int> CONSTRAINT <kind> THRESHOLD <value>")
                try:
                    radius = int(tokens[2])
                except ValueError:
                    raise LayoutParseError(lineno, f"bad radius {tokens[2]!r}") from None
                try:
                    ckind = ConstraintKind[tokens[4]] if tokens[4] in ConstraintKind.__members__ else ConstraintKind(tokens[4].lower())
                except ValueError:
                    raise LayoutParseError(lineno, f"unknown constraint {tokens[4]!r}") from None
                try:
                    threshold = float(tokens[6])
                except ValueError:
                    raise LayoutParseError(lineno, f"bad threshold {tokens[6]!r}") from None
                try:
                    _check_threshold(ckind, threshold)
                except ValueError as exc:
                    raise LayoutParseError(lineno, str(exc)) from None
                header = (lineno, radius, ckind, threshold)
            elif kind == "POLY":
                if header is None:
                    raise LayoutParseError(lineno, "record before HEADER")
                if len(tokens) < 2:
                    raise LayoutParseError(lineno, "POLY needs an id")
                try:
                    vals = list(map(int, tokens[1:]))
                except ValueError:
                    raise LayoutParseError(lineno, "POLY fields must be integers") from None
                if len(vals) < 9 or len(vals) % 2 == 0:
                    raise LayoutParseError(lineno, "POLY needs at least 4 x,y pairs")
                flat += vals[1:]
                counts.append(len(vals) // 2)
                lines.append(lineno)
                if vals[0] in ids:  # after the ring is read: a fault in it comes first
                    raise LayoutParseError(lineno, f"duplicate polygon id {vals[0]}")
                ids[vals[0]] = None
            elif kind == "MARKER":
                if header is None:
                    raise LayoutParseError(lineno, "record before HEADER")
                if len(tokens) != 6:
                    raise LayoutParseError(lineno, "MARKER needs: id xlo ylo xhi yhi")
                try:
                    mid, xlo, ylo, xhi, yhi = (int(t) for t in tokens[1:])
                except ValueError:
                    raise LayoutParseError(lineno, "MARKER fields must be integers") from None
                if not all(v in INT64 for v in (xlo, ylo, xhi, yhi)):
                    raise LayoutParseError(lineno, "coordinate outside the int64 range")
                try:
                    marker = Marker(xlo, ylo, xhi, yhi)
                except GeometryError as exc:
                    raise LayoutParseError(lineno, str(exc)) from None
                if mid in markers:
                    raise LayoutParseError(lineno, f"duplicate marker id {mid}")
                markers[mid] = marker
            else:
                raise LayoutParseError(lineno, f"unknown record {kind!r}")
    except LayoutParseError:
        _ring_table(flat, counts, lines)  # raises the fault of an earlier ring instead
        raise
    if header is None:
        raise LayoutParseError(len(text.splitlines()) or 1, "missing HEADER record")
    rings = _ring_table(flat, counts, lines)
    header_line, radius, ckind, threshold = header
    try:
        return LayoutDocument(radius, ckind, threshold, rings, tuple(ids), tuple(markers.values()), tuple(markers))
    except ValueError as exc:
        raise LayoutParseError(header_line, str(exc)) from None


def write_layout(doc: LayoutDocument, sink=None) -> bytes:
    """Serialize a document; returns the bytes and writes them to `sink` if given."""
    out = io.StringIO()
    kind = "COSINE" if doc.constraint_kind is ConstraintKind.COSINE else "EDGEMOVE"
    out.write(f"HEADER RADIUS {doc.pattern_radius} CONSTRAINT {kind} THRESHOLD {doc.threshold!r}\n")
    coords = doc.rings.vertices.ravel().tolist()
    bounds = (2 * doc.rings.offsets).tolist()
    for k, pid in enumerate(doc.polygon_ids):
        out.write(f"POLY {pid} {' '.join(map(str, coords[bounds[k]:bounds[k + 1]]))}\n")
    for mid, m in zip(doc.marker_ids, doc.markers):
        out.write(f"MARKER {mid} {m.xlo} {m.ylo} {m.xhi} {m.yhi}\n")
    data = out.getvalue().encode("utf-8")
    _write_bytes(sink, data)
    return data


def _write_bytes(sink, data: bytes):
    if sink is None:
        return
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as fh:
            fh.write(data)
    elif hasattr(sink, "write"):
        try:
            sink.write(data)
        except TypeError:
            sink.write(data.decode("utf-8"))
    else:
        raise TypeError(f"cannot write to {type(sink).__name__}")


REPORT_HEADER = "marker_id,cluster_id,center_x,center_y,rep_marker_id"


@dataclass
class ClusterReport:
    """Final marker-to-cluster assignment with chosen centers."""

    assignments: tuple[tuple[int, int, int, int, int], ...]  # marker_id, cluster_id, cx, cy, rep_marker_id
    cluster_count: int
    iterations_used: int

    @property
    def compression_ratio(self) -> Fraction:
        n = len(self.assignments)
        return Fraction(0) if n == 0 else 1 - Fraction(self.cluster_count, n)

    def validate(self, doc: LayoutDocument | None = None):
        seen_markers = set()
        rep_of: dict[int, int] = {}
        for mid, cid, _cx, _cy, rep in self.assignments:
            if mid in seen_markers:
                raise ValueError(f"marker {mid} assigned twice")
            seen_markers.add(mid)
            if rep_of.setdefault(cid, rep) != rep:
                raise ValueError(f"cluster {cid} names representatives {rep_of[cid]} and {rep}")
        if self.assignments:
            if set(rep_of) != set(range(self.cluster_count)):
                raise ValueError("cluster ids are not dense 0..C-1")
        elif self.cluster_count:
            raise ValueError("clusters without assignments")
        for cid, rep in rep_of.items():
            if rep not in seen_markers:  # every marker has a row, representatives too
                raise ValueError(f"representative {rep} of cluster {cid} is not a marker")
        if doc is not None:
            by_id = dict(zip(doc.marker_ids, doc.markers))
            if seen_markers != set(doc.marker_ids):
                raise ValueError("report markers do not match the document")
            for mid, _cid, cx, cy, _rep in self.assignments:
                if not by_id[mid].contains(cx, cy):
                    raise ValueError(f"center ({cx}, {cy}) outside marker {mid}")


def write_report(report: ClusterReport, sink=None, doc: LayoutDocument | None = None) -> bytes:
    """Serialize a report as CSV; validates invariants first (center-in-marker
    validity when the document is supplied)."""
    report.validate(doc)
    out = io.StringIO()
    out.write(REPORT_HEADER + "\n")
    for row in report.assignments:
        out.write(",".join(map(str, row)) + "\n")
    ratio = float(report.compression_ratio)
    out.write(f"# clusters={report.cluster_count} iterations={report.iterations_used} compression={ratio:.6f}\n")
    data = out.getvalue().encode("utf-8")
    _write_bytes(sink, data)
    return data


def read_report(source) -> ClusterReport:
    text = _read_text(source)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != REPORT_HEADER:
        raise ValueError("missing report header row")
    rows = []
    clusters = iterations = None
    for ln in lines[1:]:
        if ln.startswith("#"):
            fields = dict(tok.split("=", 1) for tok in ln[1:].split() if "=" in tok)
            try:
                clusters = int(fields["clusters"])
                iterations = int(fields["iterations"])
            except KeyError as exc:
                raise ValueError(f"report summary line {ln!r} lacks {exc.args[0]}=") from None
            continue
        row = tuple(int(t) for t in ln.split(","))
        if len(row) != 5:
            raise ValueError(f"report row {ln!r} needs 5 fields")
        rows.append(row)
    if clusters is None:
        raise ValueError("missing report summary line")
    return ClusterReport(tuple(rows), clusters, iterations)
