"""Manhattan geometry: polygons, markers, window clipping, polygon pairing.

All coordinates are integer nanometers. Polygons are simple rectilinear
rings stored counter-clockwise, starting at the lexicographically smallest
vertex, without a repeated closing vertex.
"""

import enum
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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

    def edges(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def direction_sequence(self) -> str:
        """One letter per edge: E/W for horizontal, N/S for vertical."""
        out = []
        for (x0, y0), (x1, y1) in self.edges():
            if y0 == y1:
                out.append("E" if x1 > x0 else "W")
            else:
                out.append("N" if y1 > y0 else "S")
        return "".join(out)

    @property
    def area(self) -> int:
        return _signed_area2(self.vertices) // 2

    def translated(self, dx: int, dy: int) -> "Polygon":
        # translation preserves orientation, the lexicographic start and the
        # bbox's shape, so the shifted bbox is passed in, not recomputed
        x0, y0, x1, y1 = self.bbox
        return Polygon(tuple((x + dx, y + dy) for x, y in self.vertices), (x0 + dx, y0 + dy, x1 + dx, y1 + dy))


# Bound on the per-polygon cache below. Its keys are the design polygons,
# which parsing validates and the layout's rectangle table reads. An
# extracted window's shapes are no keys: a polygon kept whole takes its
# rows from the window's query (`extract_pattern`), and only the pieces
# traced where a polygon crosses a window's edge, and the shapes of
# patterns built by hand, are decomposed again, a new key each. Those keys
# would grow an unbounded cache for the life of the process. One run and
# verification of a benchmark workload (N=400) end with under 10k entries.
_CACHE_ENTRIES = 1 << 16


@lru_cache(maxsize=_CACHE_ENTRIES)
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

    @property
    def width(self) -> int:
        return self.xhi - self.xlo

    @property
    def height(self) -> int:
        return self.yhi - self.ylo


class EdgeView:
    """The shapes of one pattern, laid out for the edgemove kernels and the
    raster.

    Row k of `rects` is a decomposition rectangle of shape `owner[k]`; that
    is all the overlap test and `raster.coverage_grid` read. `pieces`, when
    given, holds each shape's rectangles, in the order `rectangles()` gives
    them (`extract_pattern` passes the rows of its window query); without
    it every shape is decomposed. The per-edge table and the arrays derived
    from it are built on first read, because cosine-mode alignment pairs
    polygons but never compares their edges.
    """

    def __init__(self, shapes: tuple[Polygon, ...], pieces=None):
        if pieces is None:
            pieces = [rectangles(p) for p in shapes]
        self.shapes = shapes
        self.rect_counts = tuple(len(rs) for rs in pieces)
        self.rects = np.asarray([r for rs in pieces for r in rs], dtype=np.int64).reshape(-1, 4)
        self.owner = np.repeat(np.arange(len(shapes)), self.rect_counts)

    @cached_property
    def edges(self) -> tuple[tuple[str, tuple[Axis, ...], tuple[int, ...]], ...]:
        """Per shape: its direction_sequence(), then for each edge (the edge
        leaving vertex e) the axis it moves along and its coordinate on that
        axis: x of a vertical edge, y of a horizontal one."""
        table = []
        for p in self.shapes:
            d = p.direction_sequence()
            axes = tuple(Axis.X if c in "NS" else Axis.Y for c in d)
            coords = tuple(x if c in "NS" else y for (x, y), c in zip(p.vertices, d))
            table.append((d, axes, coords))
        return tuple(table)

    @cached_property
    def layout_key(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """Each shape's direction_sequence() and its number of decomposition
        rectangles. Two views with equal keys have equal-shaped `rects`,
        `owner`, `coords` and `x_axis`, so their pairs can be stacked."""
        return tuple(d for d, _axes, _coords in self.edges), self.rect_counts

    @cached_property
    def coords(self) -> np.ndarray:
        """Every edge's coordinate from `edges`, shape after shape, as int64."""
        return np.asarray([c for _d, _axes, cs in self.edges for c in cs], dtype=np.int64)

    @cached_property
    def x_axis(self) -> np.ndarray:
        """True where the edge at that position of `coords` moves along X."""
        return np.asarray([a is Axis.X for _d, axes, _cs in self.edges for a in axes], dtype=bool)


@dataclass
class Pattern:
    """Window content at a candidate center.

    Shapes are stored in window-local coordinates (center at the origin), so
    the `shapes` of two windows with identical content compare equal
    wherever the windows sit on the design (the patterns themselves differ
    in `center`). Every vertex lies in [-radius, radius]^2.
    """

    center: Vertex
    radius: int
    shapes: tuple[Polygon, ...]
    _bbox_arr: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _edge_view: EdgeView = field(default=None, init=False, repr=False, compare=False)
    _area: int = field(default=None, init=False, repr=False, compare=False)
    _features: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def shape_bboxes(self) -> np.ndarray:
        if self._bbox_arr is None:
            if self.shapes:
                self._bbox_arr = np.asarray([p.bbox for p in self.shapes], dtype=np.int64)
            else:
                self._bbox_arr = np.zeros((0, 4), dtype=np.int64)
        return self._bbox_arr

    def edge_view(self) -> EdgeView:
        """The shapes laid out for the edgemove kernels and the raster, kept
        so each pattern pays for it once however many pairs it is in.
        `extract_pattern` builds it from its window query; a pattern built
        by hand decomposes its shapes on first use."""
        if self._edge_view is None:
            self._edge_view = EdgeView(self.shapes)
        return self._edge_view

    @property
    def is_empty(self) -> bool:
        return not self.shapes

    def total_area(self) -> int:
        """Sum of the shapes' areas, computed on first use and kept: the
        prescreen and the probe ask for it once per pair."""
        if self._area is None:
            self._area = sum(p.area for p in self.shapes)
        return self._area

    def features(self) -> np.ndarray:
        """`raster.pattern_features` of this window, computed on first use
        and kept: a cosine run reads an anchor's vector in every graph pair,
        refinement and probe it takes part in."""
        if self._features is None:
            from . import raster  # raster imports this module

            self._features = raster.pattern_features(self)
        return self._features

    def bounds(self) -> Rect | None:
        """Union bounding box of the shapes, or None for an empty pattern."""
        if not self.shapes:
            return None
        bb = self.shape_bboxes()
        return (int(bb[:, 0].min()), int(bb[:, 1].min()), int(bb[:, 2].max()), int(bb[:, 3].max()))


def extract_pattern(doc, center: Vertex) -> Pattern:
    """The design polygons clipped to the square window at `center`, in
    polygon order and window-local coordinates, built from the query that
    `raster.window_features` reads (`doc.window_rectangles`). A polygon
    whose bbox lies inside the window is kept whole; one that crosses the
    window's edge becomes the union of its clipped rows, one shape per
    piece, which is what `clip_polygon` traces.

    The pattern's `edge_view()` is built from the same query: a polygon
    kept whole lies inside the window, so its rows are its design
    rectangles shifted, unclipped and, since `design_rect_array` sorts
    stably by xlo and `rectangles()` emits nondecreasing xlo, in
    `rectangles()` order, which is `rectangles()` of the shifted shape.
    Only a traced piece is decomposed again.
    """
    cx, cy = center
    r = doc.pattern_radius
    rows, owners = doc.window_rectangles(center)
    polys = doc.design_polygons
    by_poly: dict[int, list] = {}
    for idx, row in zip(owners.tolist(), rows.tolist()):
        by_poly.setdefault(idx, []).append(row)
    shapes, pieces = [], []
    for idx in sorted(by_poly):
        poly = polys[idx]
        bx0, by0, bx1, by1 = poly.bbox
        if cx - r <= bx0 and cy - r <= by0 and bx1 <= cx + r and by1 <= cy + r:
            shapes.append(poly.translated(-cx, -cy))
            pieces.append(by_poly[idx])
        else:
            traced = [Polygon.from_vertices(ring) for ring in _trace_union(by_poly[idx])]
            shapes.extend(traced)
            pieces.extend(rectangles(p) for p in traced)
    pattern = Pattern((cx, cy), r, tuple(shapes))
    pattern._edge_view = EdgeView(pattern.shapes, pieces)
    return pattern


@dataclass(frozen=True)
class Correspondence:
    """Polygon index pairs (into pattern a, pattern b)."""

    pairs: tuple[tuple[int, int], ...]


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
    va, vb = a.edge_view(), b.edge_view()
    out = np.zeros((len(a.shapes), len(b.shapes)), dtype=bool)
    rb = vb.rects + np.asarray([shift.dx, shift.dy, shift.dx, shift.dy], dtype=np.int64)
    ia, ib = np.nonzero(_rect_overlaps(va.rects, rb))
    out[va.owner[ia], vb.owner[ib]] = True
    return out


def identity_correspondences(ra: np.ndarray, rb: np.ndarray, rect_counts: tuple[int, ...]) -> np.ndarray:
    """Per stacked pair p: whether `match_polygons` at zero shift pairs
    shape k of one pattern with shape k of the other, for every k.

    ra and rb are (pairs, R, 4) stacks of `EdgeView.rects` of patterns that
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


def match_polygons(a: Pattern, b: Pattern, shift: Translation = ZERO_SHIFT) -> Correspondence:
    """Pair up polygons by positive-area overlap, testing b displaced by `shift`.

    Every polygon of the pattern with fewer polygons must overlap exactly one
    polygon of the other; with equal counts the rule is enforced from both
    sides, which makes the pairing a bijection. Raises NoOverlapError or
    MultipleOverlapError naming the first violating polygon.
    """
    na, nb = len(a.shapes), len(b.shapes)
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
    return Correspondence(tuple(zip(ia.tolist(), ib.tolist())))


def edge_displacements(a: Pattern, b: Pattern, corr: Correspondence) -> list[tuple[Axis, int]]:
    """Signed perpendicular offsets of corresponding edges, b relative to a.

    Rings are already normalized (counter-clockwise, lexicographically
    smallest vertex first), so edges correspond by position once the vertex
    counts and orientation sequences agree. Vertical edges contribute X
    offsets, horizontal edges Y offsets. Raises TopologyMismatchError when a
    pair cannot be compared edge-by-edge.
    """
    va, vb = a.edge_view(), b.edge_view()
    out: list[tuple[Axis, int]] = []
    for i, j in corr.pairs:
        da, axes, ca = va.edges[i]
        db, _axes, cb = vb.edges[j]
        if len(da) != len(db):
            raise TopologyMismatchError(f"pair ({i}, {j}): vertex counts {len(da)} vs {len(db)}")
        if da != db:
            raise TopologyMismatchError(f"pair ({i}, {j}): edge orientation sequences differ")
        out.extend(zip(axes, map(operator.sub, cb, ca)))
    return out
