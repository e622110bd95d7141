"""Manhattan geometry: polygons, vertex tables, markers, windows, polygon
pairing.

All coordinates are integer nanometers. Polygons are simple rectilinear
rings stored counter-clockwise, starting at the lexicographically smallest
vertex, without a repeated closing vertex.

A layout's design polygons and a window's content are the same kind of
object, a `VertexTable`: every ring's vertices in one (V, 2) int64 array
with ring offsets, each ring's bbox, and the rings' decomposition
rectangles. `LayoutDocument.rings` is the layout's table; `Pattern.rings`
is a window's, in window-local coordinates, and the pattern's edge arrays
are read from it in array passes. `extract_patterns` builds the windows at
many centers from one batched window query, every kept ring gathered in one
take and each window's table a slice of the batch's arrays;
`extract_pattern` is its one-center case. A `Polygon` is one ring as a
tuple of vertices: what validation (`Polygon.from_vertices`), the slab
sweep (`rectangles`), clipping, the union trace of a polygon cut by a
window's edge, and the generator work with. Polygons go into a table
(`VertexTable.of_polygons`) and never come back out: every kernel reads
the table's arrays.
"""

import enum
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise

import numpy as np

Vertex = tuple[int, int]
Rect = tuple[int, int, int, int]  # xlo, ylo, xhi, yhi


class GeometryError(ValueError):
    """Invalid rectilinear geometry."""


class Axis(enum.Enum):
    X = "x"
    Y = "y"


class MatchError(Exception):
    """A polygon pairing between two patterns could not be established."""


class NoOverlapError(MatchError):
    def __init__(self, side: str, index: int):
        super().__init__(f"polygon {index} of pattern {side} overlaps no polygon of the other pattern")
        self.side = side
        self.index = index


class MultipleOverlapError(MatchError):
    def __init__(self, side: str, index: int, count: int):
        super().__init__(f"polygon {index} of pattern {side} overlaps {count} polygons of the other pattern")
        self.side = side
        self.index = index
        self.count = count


class TopologyMismatchError(MatchError):
    """Corresponding polygons disagree in vertex count or edge orientation order."""


@dataclass(frozen=True)
class Translation:
    """Rigid shift in nm. In alignment contexts this is the displacement of the
    moving pattern's content relative to the reference, which equals the center
    adjustment that re-centers the moving pattern."""

    dx: int
    dy: int

    def is_zero(self) -> bool:
        return self.dx == 0 and self.dy == 0

    def negated(self) -> "Translation":
        return Translation(-self.dx, -self.dy)


ZERO_SHIFT = Translation(0, 0)
_EDGE_AXES = (Axis.Y, Axis.X)  # the axes of a ring's edges at even and at odd positions


def _signed_area2(verts) -> int:
    total = 0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[Vertex, ...]
    bbox: Rect = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.bbox is None:
            xs = [v[0] for v in self.vertices]
            ys = [v[1] for v in self.vertices]
            object.__setattr__(self, "bbox", (min(xs), min(ys), max(xs), max(ys)))

    @staticmethod
    def from_vertices(points) -> "Polygon":
        """Validate and normalize a rectilinear ring.

        Accepts any vertex order; the stored ring is counter-clockwise and
        rotated to start at the lexicographically smallest vertex. Raises
        GeometryError naming the offending vertex for repeated vertices,
        diagonal edges or missing alternation, in that order of precedence
        and, within each, the first fault in ring order.

        One pass over the edges checks them and sums the signed area. With
        no vertex repeated, no edge has zero length, so an edge that is not
        diagonal is horizontal or vertical but never both.
        """
        pts = [(int(x), int(y)) for x, y in points]
        n = len(pts)
        if n < 4:
            raise GeometryError(f"ring needs at least 4 vertices, got {n}")
        if len(set(pts)) != n:
            dup = next(p for p in pts if pts.count(p) > 1)
            raise GeometryError(f"repeated vertex {dup}")
        area2 = 0
        parallel = None  # first vertex joining two parallel edges; pts[0] is checked last
        horiz = None     # whether the previous edge is horizontal
        x0, y0 = pts[0]
        for x1, y1 in pts[1:] + pts[:1]:
            h = y0 == y1
            if not h and x0 != x1:
                raise GeometryError(f"diagonal edge at vertex ({x0}, {y0})")
            if h == horiz and parallel is None:
                parallel = (x0, y0)
            horiz = h
            area2 += x0 * y1 - x1 * y0
            x0, y0 = x1, y1
        if parallel is None and horiz == (pts[0][1] == pts[1][1]):
            parallel = pts[0]  # the last edge and the first
        if parallel is not None:
            raise GeometryError(f"consecutive parallel edges at vertex ({parallel[0]}, {parallel[1]})")
        if area2 < 0:
            pts.reverse()
        k = pts.index(min(pts))
        return Polygon(tuple(pts[k:] + pts[:k]))

    @property
    def area(self) -> int:
        return _signed_area2(self.vertices) // 2

    def translated(self, dx: int, dy: int) -> "Polygon":
        # translation preserves orientation, the lexicographic start and the
        # bbox's shape, so the shifted bbox is passed in, not recomputed
        x0, y0, x1, y1 = self.bbox
        return Polygon(tuple((x + dx, y + dy) for x, y in self.vertices), (x0 + dx, y0 + dy, x1 + dx, y1 + dy))


def rectangles(poly: Polygon) -> tuple[Rect, ...]:
    """Exact decomposition of a simple rectilinear ring into disjoint rectangles.

    Vertical slab sweep: within each slab between adjacent distinct x
    coordinates, the spanning horizontal edges sorted by y alternate
    enter/leave. Raises GeometryError when the ring is not simple.
    """
    verts = poly.vertices
    xs = sorted({x for x, _ in verts})
    hedges = []
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        if y0 == y1:
            hedges.append((min(x0, x1), max(x0, x1), y0))
    rects = []
    for xa, xb in pairwise(xs):
        span_ys = sorted(y for lo, hi, y in hedges if lo <= xa and xb <= hi)
        if len(span_ys) % 2:
            raise GeometryError("polygon is not simple (odd crossing parity)")
        for lo, hi in zip(span_ys[::2], span_ys[1::2]):
            if lo == hi:
                raise GeometryError("polygon is not simple (self-touching span)")
            rects.append((xa, lo, xb, hi))
    if 2 * sum((r[2] - r[0]) * (r[3] - r[1]) for r in rects) != _signed_area2(verts):
        raise GeometryError("polygon is not simple (area mismatch)")
    return tuple(rects)


def _trace_union(rects) -> list[tuple[Vertex, ...]]:
    """Boundary rings of a union of non-overlapping rectangles.

    Directed boundary edges keep the interior on the left, so outer rings
    come out counter-clockwise. The inputs here are clipped pieces of one
    simple polygon, which cannot touch corner-to-corner, so every boundary
    vertex has a unique successor.
    """
    xs = sorted({v for r in rects for v in (r[0], r[2])})
    ys = sorted({v for r in rects for v in (r[1], r[3])})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: i for i, y in enumerate(ys)}
    w, h = len(xs) - 1, len(ys) - 1
    cov = np.zeros((h, w), dtype=bool)
    for x0, y0, x1, y1 in rects:
        cov[yi[y0]:yi[y1], xi[x0]:xi[x1]] = True

    succ: dict[Vertex, Vertex] = {}

    def emit(a: Vertex, b: Vertex):
        if a in succ:
            raise GeometryError("ambiguous corner in union trace")
        succ[a] = b

    for i in range(w + 1):
        for j in range(h):
            left = cov[j, i - 1] if i > 0 else False
            right = cov[j, i] if i < w else False
            if left and not right:
                emit((xs[i], ys[j]), (xs[i], ys[j + 1]))  # north, interior west
            elif right and not left:
                emit((xs[i], ys[j + 1]), (xs[i], ys[j]))  # south, interior east
    for j in range(h + 1):
        for i in range(w):
            below = cov[j - 1, i] if j > 0 else False
            above = cov[j, i] if j < h else False
            if below and not above:
                emit((xs[i + 1], ys[j]), (xs[i], ys[j]))  # west, interior south
            elif above and not below:
                emit((xs[i], ys[j]), (xs[i + 1], ys[j]))  # east, interior north

    rings = []
    used: set[Vertex] = set()
    for start in sorted(succ):
        if start in used:
            continue
        ring = []
        cur = start
        while True:
            used.add(cur)
            nxt = succ[cur]
            ring.append((cur, nxt))
            cur = nxt
            if cur == start:
                break
        pts = []
        m = len(ring)
        for k in range(m):
            (a, b) = ring[k]
            (c, d) = ring[(k + 1) % m]
            # keep b only where the direction turns
            da = (b[0] - a[0] == 0)
            db = (d[0] - c[0] == 0)
            if da != db:
                pts.append(b)
        rings.append(tuple(pts))
    return rings


def clip_polygon(poly: Polygon, window: Rect) -> list[Polygon]:
    """Intersect a polygon with an axis-aligned window.

    Returns the positive-area pieces as independent polygons; a polygon
    entirely inside comes back unchanged, one entirely outside (or touching
    the window only along an edge) yields nothing.
    """
    wx0, wy0, wx1, wy1 = window
    bx0, by0, bx1, by1 = poly.bbox
    if bx0 >= wx0 and by0 >= wy0 and bx1 <= wx1 and by1 <= wy1:
        return [poly]
    if bx0 >= wx1 or bx1 <= wx0 or by0 >= wy1 or by1 <= wy0:
        return []
    clipped = []
    for x0, y0, x1, y1 in rectangles(poly):
        cx0, cy0 = max(x0, wx0), max(y0, wy0)
        cx1, cy1 = min(x1, wx1), min(y1, wy1)
        if cx0 < cx1 and cy0 < cy1:
            clipped.append((cx0, cy0, cx1, cy1))
    if not clipped:
        return []
    return [Polygon.from_vertices(ring) for ring in _trace_union(clipped)]


def _bboxes(vertices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each ring's (xlo, ylo, xhi, yhi), ring k being `vertices[offsets[k]:offsets[k + 1]]`."""
    if len(offsets) == 1:
        return np.empty((0, 4), dtype=np.int64)
    return np.hstack((np.minimum.reduceat(vertices, offsets[:-1]), np.maximum.reduceat(vertices, offsets[:-1])))


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices starts[k], starts[k] + 1, ..., starts[k] + sizes[k] - 1,
    range after range, as one int64 array: the rows that compressed
    sparse ranges name."""
    ends = sizes.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + sizes).repeat(sizes)


def _next_vertex(offsets: np.ndarray) -> np.ndarray:
    """Per vertex of the rings at `offsets`, the index of the next vertex
    of its ring: each ring's last vertex closes it."""
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


@dataclass(frozen=True, eq=False)
class VertexTable:
    """Normalised rectilinear rings in one table: a layout's design
    polygons, or the shapes of one window.

    Ring k is `vertices[offsets[k]:offsets[k + 1]]`, (x, y) int64 rows,
    normalised as `Polygon.from_vertices` leaves a ring: counter-clockwise
    and starting at its lexicographically smallest vertex. Its edges
    alternate between horizontal and vertical, so it has an even number of
    vertices and every ring starts at an even row. A simple ring starts
    with an edge running East (East from that vertex means
    counter-clockwise). `bboxes[k]` is its (xlo, ylo, xhi, yhi). Row j of
    `rects` is a `rectangles()` row of ring `owner[j]`, ring after ring,
    each ring's rows in `rectangles()` order. Two tables are equal when
    their rings are: the other arrays follow from them.
    """

    vertices: np.ndarray
    offsets: np.ndarray
    bboxes: np.ndarray = field(repr=False)
    rects: np.ndarray = field(repr=False)
    owner: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, vertices: np.ndarray, offsets: np.ndarray, bboxes: np.ndarray, pieces: dict) -> "VertexTable":
        """The table of the normalised rings `vertices` and `offsets` with
        their `bboxes` (`_bboxes`), given `rectangles()` of every ring of
        more than 4 vertices (`pieces`, by ring index, in ring order). A
        4-vertex ring is a rectangle: its one row is its bbox."""
        counts = np.ones(len(bboxes), dtype=np.int64)
        counts[list(pieces)] = [len(rs) for rs in pieces.values()]
        owner = np.repeat(np.arange(len(bboxes)), counts)
        rows = bboxes[owner]
        if pieces:
            swept = np.zeros(len(bboxes), dtype=bool)
            swept[list(pieces)] = True
            rows[swept[owner]] = [rc for rs in pieces.values() for rc in rs]
        return cls(vertices, offsets, bboxes, rows, owner)

    @classmethod
    def of_polygons(cls, polygons) -> "VertexTable":
        """The rings of `polygons`, already normalised (`Polygon.from_vertices`
        results or translations of them), concatenated in order."""
        rings = [p.vertices for p in polygons]
        offsets = np.zeros(len(rings) + 1, dtype=np.int64)
        np.cumsum([len(ring) for ring in rings], out=offsets[1:])
        vertices = np.array([v for ring in rings for v in ring], dtype=np.int64).reshape(-1, 2)
        pieces = {k: rectangles(p) for k, p in enumerate(polygons) if len(p.vertices) != 4}
        return cls.build(vertices, offsets, _bboxes(vertices, offsets), pieces)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __eq__(self, other):
        if not isinstance(other, VertexTable):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(self.vertices, other.vertices)


@dataclass(frozen=True)
class Marker:
    """Axis-aligned rectangle of legal pattern centers. May be a point."""

    xlo: int
    ylo: int
    xhi: int
    yhi: int

    def __post_init__(self):
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise GeometryError(f"inverted marker ({self.xlo},{self.ylo},{self.xhi},{self.yhi})")

    def center(self) -> Vertex:
        return ((self.xlo + self.xhi) // 2, (self.ylo + self.yhi) // 2)

    def contains(self, x: int, y: int) -> bool:
        return self.xlo <= x <= self.xhi and self.ylo <= y <= self.yhi


@dataclass
class Pattern:
    """Window content at a candidate center.

    `rings` is the window's vertex table (`VertexTable`) in window-local
    coordinates (center at the origin), so two windows with identical
    content have equal `rings` wherever they sit on the design (the
    patterns themselves differ in `center`). Every vertex lies in
    [-radius, radius]^2. `rings` may also be given as a sequence of already
    normalised polygons, the way the generator and tests hold them
    (`VertexTable.of_polygons`).

    What the kernels read is an attribute, built at most once per pattern
    and not part of equality or repr. `rects`, `owner` and `bboxes` are the
    table's. The edge arrays are built on first read, since cosine runs
    never compare edges; so are `rect_counts`, `area` and `features`.

    The edge arrays rest on the table's ring invariant: a ring alternates
    between horizontal and vertical edges, so it has an even number of
    vertices and starts at an even row. Position k of `coords` and `x_axis`
    belongs to vertex k: y of an even vertex, x of an odd one. A ring that
    starts East, as every simple ring does, lists there the edge leaving
    vertex k. A self-crossing ring that `rectangles()` accepts may be stored
    starting North; its positions then hold its edges rotated by one, still
    each edge's coordinate once, on its own axis, and in the same order for
    every ring with its direction sequence, so corresponding edges still
    meet at equal positions.
    """

    center: Vertex
    radius: int
    rings: VertexTable

    def __post_init__(self):
        if not isinstance(self.rings, VertexTable):
            self.rings = VertexTable.of_polygons(self.rings)
        self.rects, self.owner, self.bboxes = self.rings.rects, self.rings.owner, self.rings.bboxes

    @cached_property
    def rect_counts(self) -> tuple[int, ...]:
        """Each shape's number of decomposition rectangles."""
        return tuple(np.bincount(self.owner, minlength=len(self.rings)).tolist())

    @cached_property
    def layout_key(self) -> tuple[bytes, bytes, tuple[int, ...]]:
        """Every edge's direction, the ring offsets and each shape's number of
        decomposition rectangles: two patterns' keys are equal exactly when
        their shapes' direction sequences (E, W, N or S per edge) and
        rectangle counts are. Two patterns with equal keys have equal-shaped
        `rects`, `owner`, `coords` and `x_axis`, so their pairs can be
        stacked.

        An edge's direction is two bytes, whether it runs toward +x and
        whether toward +y; bytes 2 * lo to 2 * hi are those of the ring in
        rows lo to hi. They name an alternating ring's direction sequence:
        the ring has an East edge, whose position tells which positions are
        horizontal, and an edge running toward neither is then West or
        South."""
        v, offsets = self.rings.vertices, self.rings.offsets
        return (v[_next_vertex(offsets)] > v).tobytes(), offsets.tobytes(), self.rect_counts

    @cached_property
    def coords(self) -> np.ndarray:
        """Every edge's coordinate across its run, x of a vertical edge and
        y of a horizontal one, ring after ring, as int64: y of each even
        vertex and x of each odd one (see the class docstring)."""
        return self.rings.vertices.reshape(-1, 4)[:, 1:3].ravel()

    @cached_property
    def x_axis(self) -> np.ndarray:
        """True where the edge at that position of `coords` moves along X:
        at every odd position."""
        return np.arange(len(self.rings.vertices)) % 2 == 1

    @cached_property
    def area(self) -> int:
        """Sum of the shapes' areas: the prescreen and the probe read it once
        per pair. It is the area of `rects`, since `rectangles()` checks that
        each shape's rectangles cover exactly its area."""
        r = self.rects
        return int(((r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1])).sum())

    @cached_property
    def features(self) -> np.ndarray:
        """`raster.pattern_features` of this window: a cosine run reads an
        anchor's vector in every graph pair, refinement and probe it takes
        part in. The graph stage computes its anchors' vectors in blocks,
        `raster.fill_features`, and caches them here."""
        from . import raster  # raster imports this module

        return raster.pattern_features(self)

    @property
    def has_features(self) -> bool:
        """Whether `features` is computed already."""
        return "features" in vars(self)  # where cached_property keeps it

    def cache_features(self, vector: np.ndarray) -> None:
        """Keep `vector` as `features`: for a caller that computed it as
        reading `features` would, bit for bit."""
        vars(self)["features"] = vector

    def bounds(self) -> Rect | None:
        """Union bounding box of the shapes, or None for an empty pattern."""
        if not self.rings:
            return None
        bb = self.bboxes
        return (int(bb[:, 0].min()), int(bb[:, 1].min()), int(bb[:, 2].max()), int(bb[:, 3].max()))


def window_sides(centers: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high sides, (x, y) each, of the square windows of
    `radius` at the (n, 2) int64 `centers`, held within int64: max(c - r,
    -2^63) and min(c + r, 2^63 - 1), exact. No coordinate lies beyond
    them, so a test or clip against a held side decides as against the
    true one."""
    return np.maximum(centers, -2**63 + radius) - radius, np.minimum(centers, 2**63 - 1 - radius) + radius


# Windows per pass of `extract_patterns` and `raster.window_vectors`, each
# pass one `LayoutDocument.window_rows` query. A query tests every row of
# its windows' x-bands (160-360 rows a window on the benchmark layouts).
# Over 800 windows of each benchmark workload (seed 1), queries of 64 took
# 3.5-9.5 ms where queries of 8 took 8-18 ms, and larger ones were no
# faster, while their temporaries grow: the query's traced peak was
# 0.6-1.3 MB at 64, 0.9-2.0 MB at 128 and 4.3-9.7 MB for all 800 at once.
# Extracting a run's 400 anchors in one pass instead of passes of 64 raised
# its peak RSS by 0.5 MB.
WINDOW_CHUNK = 64


def extract_patterns(doc, centers) -> list[Pattern]:
    """The design polygons clipped to the square window at each of
    `centers`, each window as a `Pattern`: its polygons in polygon order,
    in window-local coordinates, as the window's vertex table, built from
    batched window queries (`doc.window_rows`, WINDOW_CHUNK windows a
    pass), the query that `raster.window_vectors` reads.

    The query's rows are grouped by (window, polygon) in one stable sort,
    so each group keeps its rows in query order. A polygon whose bbox
    (`doc.rings.bboxes`) lies inside its window is kept whole, tested for
    every group at once: its ring is its rows of the layout's table
    shifted by the center, and the rings of every kept group are gathered
    in one take. One that crosses the window's edge becomes the union of
    its clipped rows, one shape per piece, which is what `clip_polygon`
    traces (`_trace_union`, then `Polygon.from_vertices` and
    `rectangles()` per piece); the pieces take their polygon's place among
    the shapes. Both keep the table's ring invariant (`VertexTable`): a
    kept ring is a layout ring, and `Polygon.from_vertices` normalises each
    piece. Each window's table is a slice of its pass's arrays.

    The windows' `rects` come from the same query: a polygon kept whole
    lies inside the window, so its rows are its design rectangles shifted,
    unclipped and, since the document's query table (`doc.rects`) is
    sorted stably by xlo and `rectangles()` emits nondecreasing xlo, in
    `rectangles()` order, which is `rectangles()` of the shifted ring. Only
    a traced piece is decomposed again. A batch whose polygons are all kept
    whole builds no `Polygon` and no Python object per vertex.
    """
    centers = [(cx, cy) for cx, cy in centers]
    return [p for lo in range(0, len(centers), WINDOW_CHUNK) for p in _extract_pass(doc, centers[lo:lo + WINDOW_CHUNK])]


def _extract_pass(doc, centers: list) -> list[Pattern]:
    """`extract_patterns` of a non-empty list of centers, in one pass."""
    table = doc.rings
    c = np.array(centers, dtype=np.int64)
    rows, owners, sizes = doc.window_rows(c)
    key = np.arange(len(c)).repeat(sizes) * len(table) + owners  # window-major, then polygon
    order = key.argsort(kind="stable")
    rows, key = rows[order], key[order]
    cut = np.ones(len(key) + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=cut[1:-1])
    bounds = np.flatnonzero(cut)  # where each (window, polygon) group starts, then len(rows)
    first, g_rows = bounds[:-1], bounds[1:] - bounds[:-1]
    g_win, g_poly = np.divmod(key[first], max(len(table), 1))
    box = table.bboxes.take(g_poly, axis=0)
    low, high = window_sides(c, doc.pattern_radius)
    inside = (box[:, :2] >= low[g_win]) & (box[:, 2:] <= high[g_win])
    kept = inside[:, 0] & inside[:, 1]
    # per shape, a kept group's to start with: its window, where its
    # vertices start in the layout's table and how many, where its rows
    # start among the sorted rows and how many, and its window-local bbox
    s_win, r_src, r_size = g_win, first, g_rows
    v_src = table.offsets.take(g_poly)
    v_size = table.offsets.take(g_poly + 1) - v_src
    bboxes = box - c[:, [0, 1, 0, 1]][g_win]
    traced = np.flatnonzero(~kept).tolist()
    if traced:  # each traced group's pieces take its place, one shape per piece
        end = len(table.vertices)
        by_group = [[Polygon.from_vertices(ring) for ring in _trace_union(rows[first[g]:first[g] + g_rows[g]].tolist())]
                    for g in traced]
        n_shapes = np.ones(len(first), dtype=np.int64)
        n_shapes[traced] = [len(ps) for ps in by_group]
        at = np.arange(len(first)).repeat(n_shapes)  # each shape's group
        s_win, r_src, r_size, v_src, v_size, bboxes = (a[at] for a in (s_win, r_src, r_size, v_src, v_size, bboxes))
        pos = np.flatnonzero(~kept[at])  # the pieces' shapes, in order
        pieces = [p for ps in by_group for p in ps]
        rects = [rectangles(p) for p in pieces]
        # the pieces' vertices are read from past the layout's last row, and
        # their rows from past the query's
        v_size[pos] = [len(p.vertices) for p in pieces]
        v_src[pos] = end + v_size[pos].cumsum() - v_size[pos]
        r_size[pos] = [len(rs) for rs in rects]
        r_src[pos] = len(rows) + r_size[pos].cumsum() - r_size[pos]
        bboxes[pos] = [p.bbox for p in pieces]
        rows = np.concatenate((rows, np.array([rc for rs in rects for rc in rs], dtype=np.int64)))
        rows = rows.take(_ranges(r_src, r_size), axis=0)
    index = _ranges(v_src, v_size)
    # mode="clip" reads the layout's last row for a piece's vertex, and the
    # piece's own vertices then replace it
    vertices = table.vertices.take(index, axis=0, mode="clip") - c[s_win.repeat(v_size)]
    if traced:
        vertices[index >= end] = [v for p in pieces for v in p.vertices]
    counts = np.bincount(s_win, minlength=len(c))
    s_ends = counts.cumsum()
    owner = (np.arange(len(s_win)) - (s_ends - counts)[s_win]).repeat(r_size)
    v_at = np.concatenate(([0], v_size.cumsum()))
    ends = s_ends.tolist()
    v_ends, r_ends = v_at.tolist(), [0] + r_size.cumsum().tolist()
    out = []
    for center, a, b in zip(centers, [0] + ends, ends):
        window = VertexTable(vertices[v_ends[a]:v_ends[b]], v_at[a:b + 1] - v_ends[a], bboxes[a:b],
                             rows[r_ends[a]:r_ends[b]], owner[r_ends[a]:r_ends[b]])
        out.append(Pattern(center, doc.pattern_radius, window))
    return out


def extract_pattern(doc, center: Vertex) -> Pattern:
    """The design polygons clipped to the square window at `center`, in
    polygon order and window-local coordinates, as the window's vertex
    table: `extract_patterns` of that one window."""
    return extract_patterns(doc, (center,))[0]


def _rect_overlaps(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """hit[..., k, l]: rectangle k of ra and rectangle l of rb overlap
    strictly. ra and rb are (..., R, 4) stacks of (xlo, ylo, xhi, yhi) rows."""
    return (
        (ra[..., :, None, 0] < rb[..., None, :, 2])
        & (rb[..., None, :, 0] < ra[..., :, None, 2])
        & (ra[..., :, None, 1] < rb[..., None, :, 3])
        & (rb[..., None, :, 1] < ra[..., :, None, 3])
    )


def _overlap_matrix(a: Pattern, b: Pattern, shift: Translation) -> np.ndarray:
    """out[i, j]: shape i of a and shape j of b (displaced by `shift`) share
    positive area, i.e. some pair of their rectangles overlaps strictly."""
    out = np.zeros((len(a.rings), len(b.rings)), dtype=bool)
    rb = b.rects + np.asarray([shift.dx, shift.dy, shift.dx, shift.dy], dtype=np.int64)
    ia, ib = np.nonzero(_rect_overlaps(a.rects, rb))
    out[a.owner[ia], b.owner[ib]] = True
    return out


def identity_correspondences(ra: np.ndarray, rb: np.ndarray, rect_counts: tuple[int, ...]) -> np.ndarray:
    """Per stacked pair p: whether `match_polygons` at zero shift pairs
    shape k of one pattern with shape k of the other, for every k.

    ra and rb are (pairs, R, 4) stacks of `Pattern.rects` of patterns that
    all have the shapes' rectangle counts `rect_counts`. The strict
    rectangle overlaps are folded to shapes through the shared `owner`
    layout, and the shape overlap matrix must be the identity: each shape
    overlaps its counterpart and nothing else.
    """
    if not rect_counts:
        return np.ones(len(ra), dtype=bool)
    starts = np.cumsum((0,) + rect_counts)[:-1]
    hit = _rect_overlaps(ra, rb)
    shapes = np.logical_or.reduceat(np.logical_or.reduceat(hit, starts, axis=1), starts, axis=2)
    return (shapes == np.eye(len(rect_counts), dtype=bool)).all(axis=(1, 2))


def _check_overlap_counts(counts: np.ndarray, side: str) -> None:
    """Raise for the first polygon of `side` that overlaps other than one polygon."""
    bad = counts != 1
    if bad.any():
        i = int(bad.argmax())
        c = int(counts[i])
        if c == 0:
            raise NoOverlapError(side, i)
        raise MultipleOverlapError(side, i, c)


def match_polygons(a: Pattern, b: Pattern, shift: Translation = ZERO_SHIFT) -> tuple[np.ndarray, np.ndarray]:
    """Pair up polygons by positive-area overlap, testing b displaced by `shift`.

    Every polygon of the pattern with fewer polygons must overlap exactly one
    polygon of the other; with equal counts the rule is enforced from both
    sides, which makes the pairing a bijection. The pairs come as two int64
    index arrays (ia, ib), pair k joining shape ia[k] of a with shape ib[k]
    of b, in order of the smaller side's shapes. Raises NoOverlapError or
    MultipleOverlapError naming the first violating polygon.
    """
    na, nb = len(a.rings), len(b.rings)
    m = _overlap_matrix(a, b, shift)
    # once the smaller side's rows (or columns) hold exactly one True each,
    # their True cells, in row (or column) order, are the pairs
    if na <= nb:
        _check_overlap_counts(m.sum(axis=1), "a")
        if na == nb:
            _check_overlap_counts(m.sum(axis=0), "b")
        ia, ib = np.nonzero(m)
    else:
        _check_overlap_counts(m.sum(axis=0), "b")
        ib, ia = np.nonzero(m.T)
    return ia, ib


def edge_displacements(a: Pattern, b: Pattern, corr: tuple[np.ndarray, np.ndarray]) -> list[tuple[Axis, int]]:
    """Signed perpendicular offsets of corresponding edges, b relative to a,
    over the pairs of `corr`, the index arrays `match_polygons` returns.

    Rings are already normalized (counter-clockwise, lexicographically
    smallest vertex first), so edges correspond by position once the vertex
    counts and orientation sequences agree: each pair's stretch of
    `coords` and of the directions in `layout_key`. Vertical edges
    contribute X offsets, horizontal edges Y offsets. Raises
    TopologyMismatchError when a pair cannot be compared edge-by-edge.
    """
    out: list[tuple[Axis, int]] = []
    ia, ib = corr
    da, db = a.layout_key[0], b.layout_key[0]
    ca, cb = a.coords.tolist(), b.coords.tolist()
    sa, sb = a.rings.offsets.tolist(), b.rings.offsets.tolist()
    for i, j in zip(ia.tolist(), ib.tolist()):
        lo, hi, blo, bhi = sa[i], sa[i + 1], sb[j], sb[j + 1]
        if hi - lo != bhi - blo:
            raise TopologyMismatchError(f"pair ({i}, {j}): vertex counts {hi - lo} vs {bhi - blo}")
        if da[2 * lo:2 * hi] != db[2 * blo:2 * bhi]:
            raise TopologyMismatchError(f"pair ({i}, {j}): edge orientation sequences differ")
        out.extend(zip(_EDGE_AXES * ((hi - lo) // 2), map(operator.sub, cb[blo:bhi], ca[lo:hi])))
    return out
