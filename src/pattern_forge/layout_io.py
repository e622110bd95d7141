"""Layout documents, their text format, and cluster reports.

Layout text format, one record per line, '#' starts a comment:

    HEADER RADIUS <int> CONSTRAINT <COSINE|EDGEMOVE> THRESHOLD <decimal>
    POLY <id> <x1> <y1> <x2> <y2> ...
    MARKER <id> <xlo> <ylo> <xhi> <yhi>

Report CSV: ``marker_id,cluster_id,center_x,center_y,rep_marker_id`` rows
followed by a ``# clusters=<n> iterations=<m> compression=<r>`` summary line.
The representative is matched at its own marker center, and need not be a
member of the cluster it represents.
"""

import enum
import io
import math
import os
from dataclasses import InitVar, dataclass
from fractions import Fraction

import numpy as np

from .geometry import GeometryError, Marker, Polygon, rectangles

MAX_RADIUS = 10**7  # keeps rasterization denominators exact in float64


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
    """A parsed (or generated) layout: the header, the design polygons and
    the markers, each with its id.

    The document also owns the design's rectangle table, built once at
    construction and not part of equality or repr: row k of `rects` is a
    `rectangles()` row (xlo, ylo, xhi, yhi) of design polygon `owner[k]`,
    the rows sorted stably by xlo, and `widest` is the width of the widest
    row. `pieces`, when given, holds each polygon's `rectangles()`
    (`parse_layout` passes the ones it computed to validate the polygons),
    else every polygon is decomposed.
    """

    pattern_radius: int
    constraint_kind: ConstraintKind
    threshold: float
    design_polygons: tuple[Polygon, ...]
    polygon_ids: tuple[int, ...]
    markers: tuple[Marker, ...]
    marker_ids: tuple[int, ...]
    pieces: InitVar[list | None] = None

    def __post_init__(self, pieces):
        if not (0 < self.pattern_radius <= MAX_RADIUS):
            raise ValueError(f"pattern radius {self.pattern_radius} outside (0, {MAX_RADIUS}]")
        if len(self.design_polygons) != len(self.polygon_ids):
            raise ValueError("polygon ids do not match polygons")
        if len(self.markers) != len(self.marker_ids):
            raise ValueError("marker ids do not match markers")
        _check_threshold(self.constraint_kind, self.threshold)
        if pieces is None:
            pieces = [rectangles(p) for p in self.design_polygons]
        arr = np.asarray([rc for rs in pieces for rc in rs], dtype=np.int64).reshape(-1, 4)
        owner = np.repeat(np.arange(len(pieces)), [len(rs) for rs in pieces])
        order = np.argsort(arr[:, 0], kind="stable")
        self.rects, self.owner = arr[order], owner[order]
        self.widest = int((arr[:, 2] - arr[:, 0]).max(initial=0))

    def window_rectangles(self, center) -> tuple[np.ndarray, np.ndarray]:
        """The rows of `rects` that strictly overlap the window at `center`,
        clipped to it and shifted to window-local coordinates, and the
        index of each one's polygon (from `owner`): `raster.window_features`
        and `extract_pattern` both read this one query. A polygon that
        misses the window, touches it only along an edge, or overlaps it
        with its bbox alone has no rows. No row is wider than `widest`, so
        only rows with xlo in (cx - r - widest, cx + r) can reach the
        window.
        """
        cx, cy = center
        r = self.pattern_radius
        lo, hi = self.rects[:, 0].searchsorted((cx - r - self.widest, cx + r))
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


def parse_layout(source) -> LayoutDocument:
    """Parse a layout document from a path, string, bytes, or file object.

    Raises LayoutParseError with a line number for syntax problems, and wraps
    geometry validation errors (diagonal edges, non-simple rings) the same way;
    a check of the whole document (the radius) is reported at the HEADER's line.
    """
    text = _read_text(source)
    header = None
    polys: dict[int, Polygon] = {}  # id -> polygon, in file order
    pieces: list[tuple] = []  # each polygon's rectangles(), in file order
    markers: dict[int, Marker] = {}
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
                vals = [int(t) for t in tokens[1:]]
            except ValueError:
                raise LayoutParseError(lineno, "POLY fields must be integers") from None
            pid, coords = vals[0], vals[1:]
            if len(coords) < 8 or len(coords) % 2:
                raise LayoutParseError(lineno, "POLY needs at least 4 x,y pairs")
            pts = list(zip(coords[::2], coords[1::2]))
            try:
                poly = Polygon.from_vertices(pts)
                rects = rectangles(poly)  # validates simplicity
            except GeometryError as exc:
                raise LayoutParseError(lineno, str(exc)) from None
            if pid in polys:
                raise LayoutParseError(lineno, f"duplicate polygon id {pid}")
            polys[pid] = poly
            pieces.append(rects)
        elif kind == "MARKER":
            if header is None:
                raise LayoutParseError(lineno, "record before HEADER")
            if len(tokens) != 6:
                raise LayoutParseError(lineno, "MARKER needs: id xlo ylo xhi yhi")
            try:
                mid, xlo, ylo, xhi, yhi = (int(t) for t in tokens[1:])
            except ValueError:
                raise LayoutParseError(lineno, "MARKER fields must be integers") from None
            try:
                marker = Marker(xlo, ylo, xhi, yhi)
            except GeometryError as exc:
                raise LayoutParseError(lineno, str(exc)) from None
            if mid in markers:
                raise LayoutParseError(lineno, f"duplicate marker id {mid}")
            markers[mid] = marker
        else:
            raise LayoutParseError(lineno, f"unknown record {kind!r}")
    if header is None:
        raise LayoutParseError(len(text.splitlines()) or 1, "missing HEADER record")
    header_line, radius, ckind, threshold = header
    try:
        return LayoutDocument(radius, ckind, threshold, tuple(polys.values()), tuple(polys),
                              tuple(markers.values()), tuple(markers), pieces)
    except ValueError as exc:
        raise LayoutParseError(header_line, str(exc)) from None


def write_layout(doc: LayoutDocument, sink=None) -> bytes:
    """Serialize a document; returns the bytes and writes them to `sink` if given."""
    out = io.StringIO()
    kind = "COSINE" if doc.constraint_kind is ConstraintKind.COSINE else "EDGEMOVE"
    out.write(f"HEADER RADIUS {doc.pattern_radius} CONSTRAINT {kind} THRESHOLD {doc.threshold!r}\n")
    for pid, poly in zip(doc.polygon_ids, doc.design_polygons):
        coords = " ".join(f"{x} {y}" for x, y in poly.vertices)
        out.write(f"POLY {pid} {coords}\n")
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
