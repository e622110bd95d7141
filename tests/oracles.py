"""Independent reference implementations used to check the fast paths.

Everything here favors obviousness over speed: layout parsing one polygon
at a time, ring validation one check after another, unit-cell parity scans for geometry, per-polygon overlap tests and edge walks for polygon pairing,
direct double-sum DCT, linear scans for min-max fits, interval competition
one polygon pair at a time with an interval object per axis, refinement and
verification one member at a time (every window extracted, none read from
the layout's rectangle table), a similarity graph built one pair at a time
into a set per node and checked for symmetry, a full-update greedy set
cover.
Only the eager solver shares code with the package: it scores and covers
through `scp._gain` and `scp._cover`, so its float sums are
bit-identical to the lazy solver's and the two must select exactly alike.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pattern_forge import scp
from pattern_forge.align import NoCorrespondenceError, clamp_to_marker, edge_fit_aligned
from pattern_forge.geometry import (
    Axis,
    GeometryError,
    Marker,
    MatchError,
    MultipleOverlapError,
    NoOverlapError,
    Polygon,
    TopologyMismatchError,
    Translation,
    ZERO_SHIFT,
    _signed_area2,
    extract_pattern,
    rectangles,
)
from pattern_forge.layout_io import MAX_RADIUS, ConstraintKind, LayoutParseError, _check_threshold
from pattern_forge.pipeline import RefineResult
from pattern_forge.raster import cosine_similarity, pattern_features


def from_vertices_loop(points) -> Polygon:
    """`Polygon.from_vertices` one check after another: repeated vertices,
    then every edge for a diagonal (or zero length), then every pair of
    consecutive edges for alternation, then the signed area for the
    orientation."""
    pts = [(int(x), int(y)) for x, y in points]
    if len(pts) < 4:
        raise GeometryError(f"ring needs at least 4 vertices, got {len(pts)}")
    if len(set(pts)) != len(pts):
        dup = next(p for p in pts if pts.count(p) > 1)
        raise GeometryError(f"repeated vertex {dup}")
    n = len(pts)
    dirs = []
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        if x0 == x1 and y0 == y1:
            raise GeometryError(f"zero-length edge at vertex ({x0}, {y0})")
        if x0 != x1 and y0 != y1:
            raise GeometryError(f"diagonal edge at vertex ({x0}, {y0})")
        dirs.append("h" if y0 == y1 else "v")
    for i in range(n):
        if dirs[i] == dirs[(i + 1) % n]:
            x, y = pts[(i + 1) % n]
            raise GeometryError(f"consecutive parallel edges at vertex ({x}, {y})")
    if _signed_area2(pts) < 0:
        pts.reverse()
    k = min(range(n), key=lambda i: pts[i])
    return Polygon(tuple(pts[k:] + pts[:k]))


@dataclass
class ParsedLayout:
    """What `parse_layout_loop` reads: the header, each polygon with its id
    and its `rectangles()`, and each marker with its id, in file order."""

    pattern_radius: int
    constraint_kind: ConstraintKind
    threshold: float
    polygons: tuple[Polygon, ...]
    polygon_ids: tuple[int, ...]
    pieces: tuple[tuple, ...]
    markers: tuple[Marker, ...]
    marker_ids: tuple[int, ...]


def parse_layout_loop(text: str) -> ParsedLayout:
    """`parse_layout` of layout text one polygon at a time: each POLY line
    through `Polygon.from_vertices` and `rectangles()` as it is read, so the
    first faulty line raises. The radius is checked last, at the HEADER's
    line."""
    header = None
    polys: dict[int, Polygon] = {}
    pieces = []
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
            try:
                poly = Polygon.from_vertices(list(zip(coords[::2], coords[1::2])))
                rects = rectangles(poly)
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
    if not (0 < radius <= MAX_RADIUS):
        raise LayoutParseError(header_line, f"pattern radius {radius} outside (0, {MAX_RADIUS}]")
    return ParsedLayout(radius, ckind, threshold, tuple(polys.values()), tuple(polys), tuple(pieces),
                        tuple(markers.values()), tuple(markers))


def cells_inside(vertices, bbox) -> np.ndarray:
    """Boolean unit-cell grid for a simple rectilinear ring via scanline parity.

    Cell (row y, col x) covers the unit square [x, x+1) x [y, y+1) offset by
    the bbox origin. Cell centers sit at half-integers, so a center never
    meets an integer edge coordinate and the parity test has no ties.
    """
    x0, y0, x1, y1 = bbox
    grid = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    verts = list(vertices)
    n = len(verts)
    vedges = []
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if ax == bx:
            vedges.append((ax, min(ay, by), max(ay, by)))
    for row in range(y1 - y0):
        cy = y0 + row + 0.5
        xs = sorted(x for x, lo, hi in vedges if lo < cy < hi)
        assert len(xs) % 2 == 0
        for k in range(0, len(xs), 2):
            grid[row, xs[k] - x0 : xs[k + 1] - x0] = True
    return grid


def rings_cells(rings, bbox) -> np.ndarray:
    out = np.zeros((bbox[3] - bbox[1], bbox[2] - bbox[0]), dtype=bool)
    for ring in rings:
        out |= cells_inside(ring, bbox)
    return out


def rect_cells(rects, bbox) -> np.ndarray:
    x0, y0, _, _ = bbox
    out = np.zeros((bbox[3] - bbox[1], bbox[2] - bbox[0]), dtype=bool)
    for rx0, ry0, rx1, ry1 in rects:
        out[ry0 - y0 : ry1 - y0, rx0 - x0 : rx1 - x0] = True
    return out


def hull_bbox(point_sets, pad: int = 1):
    xs = [x for pts in point_sets for x, _ in pts]
    ys = [y for pts in point_sets for _, y in pts]
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def coverage_grid_loop(rects, radius: int, side: int) -> np.ndarray:
    """Integer coverage numerators, one rectangle at a time.

    `rects` are (x0, y0, x1, y1) tuples in window-local nm inside
    [-radius, radius]^2. Coordinates are scaled by `side` so pixel edges
    fall on multiples of 2 * radius; each rectangle adds the outer product
    of its exact row and column overlaps to the pixels it spans.
    """
    den = 2 * radius
    grid = np.zeros((side, side), dtype=np.int64)
    for x0, y0, x1, y1 in rects:
        sx0, sx1 = (x0 + radius) * side, (x1 + radius) * side
        sy0, sy1 = (y0 + radius) * side, (y1 + radius) * side
        i0, i1 = sx0 // den, -((-sx1) // den)
        j0, j1 = sy0 // den, -((-sy1) // den)
        xi = np.arange(i0, i1, dtype=np.int64)
        yj = np.arange(j0, j1, dtype=np.int64)
        xov = np.minimum(sx1, (xi + 1) * den) - np.maximum(sx0, xi * den)
        yov = np.minimum(sy1, (yj + 1) * den) - np.maximum(sy0, yj * den)
        grid[j0:j1, i0:i1] += yov[:, None] * xov[None, :]
    return grid


def polys_overlap(pa, pb, sx: int, sy: int) -> bool:
    """Whether two polygons share positive area, pb displaced by (sx, sy)."""
    ra = np.asarray(rectangles(pa), dtype=np.int64)
    rb = np.asarray(rectangles(pb), dtype=np.int64) + np.asarray([sx, sy, sx, sy], dtype=np.int64)
    hit = (
        (ra[:, None, 0] < rb[None, :, 2])
        & (rb[None, :, 0] < ra[:, None, 2])
        & (ra[:, None, 1] < rb[None, :, 3])
        & (rb[None, :, 1] < ra[:, None, 3])
    )
    return bool(hit.any())


def overlap_matrix(a, b, shift) -> np.ndarray:
    """Polygon overlap matrix: a bounding-box prefilter, then polys_overlap."""
    na, nb = len(a.shapes), len(b.shapes)
    out = np.zeros((na, nb), dtype=bool)
    if na == 0 or nb == 0:
        return out
    bba = a.bboxes
    bbb = b.bboxes + np.asarray([shift.dx, shift.dy, shift.dx, shift.dy], dtype=np.int64)
    cand = (
        (bba[:, None, 0] < bbb[None, :, 2])
        & (bbb[None, :, 0] < bba[:, None, 2])
        & (bba[:, None, 1] < bbb[None, :, 3])
        & (bbb[None, :, 1] < bba[:, None, 3])
    )
    for i, j in zip(*np.nonzero(cand)):
        out[i, j] = polys_overlap(a.shapes[i], b.shapes[j], shift.dx, shift.dy)
    return out


def match_polygons_loop(a, b, shift) -> tuple[tuple[int, int], ...]:
    """`geometry.match_polygons`, checking one polygon at a time; the pairs
    as (index into a, index into b) tuples."""
    na, nb = len(a.shapes), len(b.shapes)
    m = overlap_matrix(a, b, shift)
    pairs: list[tuple[int, int]] = []
    if na <= nb:
        counts = m.sum(axis=1)
        for i in range(na):
            c = int(counts[i])
            if c == 0:
                raise NoOverlapError("a", i)
            if c > 1:
                raise MultipleOverlapError("a", i, c)
        if na == nb:
            ccounts = m.sum(axis=0)
            for j in range(nb):
                c = int(ccounts[j])
                if c == 0:
                    raise NoOverlapError("b", j)
                if c > 1:
                    raise MultipleOverlapError("b", j, c)
        for i in range(na):
            pairs.append((i, int(np.nonzero(m[i])[0][0])))
    else:
        counts = m.sum(axis=0)
        for j in range(nb):
            c = int(counts[j])
            if c == 0:
                raise NoOverlapError("b", j)
            if c > 1:
                raise MultipleOverlapError("b", j, c)
        for j in range(nb):
            pairs.append((int(np.nonzero(m[:, j])[0][0]), j))
    return tuple(pairs)


def ring_edges(poly):
    """A ring's edges as (vertex, next vertex) pairs, the last closing it."""
    n = len(poly.vertices)
    for i in range(n):
        yield poly.vertices[i], poly.vertices[(i + 1) % n]


def direction_sequence(poly) -> str:
    """One letter per edge of a ring: E/W for horizontal, N/S for vertical."""
    out = []
    for (x0, y0), (x1, y1) in ring_edges(poly):
        if y0 == y1:
            out.append("E" if x1 > x0 else "W")
        else:
            out.append("N" if y1 > y0 else "S")
    return "".join(out)


def pattern_edges(pattern) -> tuple[tuple[str, tuple[Axis, ...], tuple[int, ...]], ...]:
    """Per shape of a pattern: its direction_sequence(), then for each edge
    (the edge leaving vertex e) the axis it moves along and its coordinate
    on that axis: x of a vertical edge, y of a horizontal one."""
    table = []
    for p in pattern.shapes:
        d = direction_sequence(p)
        axes = tuple(Axis.X if c in "NS" else Axis.Y for c in d)
        coords = tuple(x if c in "NS" else y for (x, y), c in zip(p.vertices, d))
        table.append((d, axes, coords))
    return tuple(table)


def edge_displacements_loop(a, b, pairs) -> list:
    """`geometry.edge_displacements`, walking both rings edge by edge, over
    (i, j) pair tuples."""
    out = []
    for i, j in pairs:
        pa, pb = a.shapes[i], b.shapes[j]
        if len(pa.vertices) != len(pb.vertices):
            raise TopologyMismatchError(
                f"pair ({i}, {j}): vertex counts {len(pa.vertices)} vs {len(pb.vertices)}"
            )
        if direction_sequence(pa) != direction_sequence(pb):
            raise TopologyMismatchError(f"pair ({i}, {j}): edge orientation sequences differ")
        for (a0, a1), (b0, _b1) in zip(ring_edges(pa), ring_edges(pb)):
            if a0[0] == a1[0]:  # vertical edge
                out.append((Axis.X, b0[0] - a0[0]))
            else:
                out.append((Axis.Y, b0[1] - a0[1]))
    return out


def edge_fit(a, b) -> int | None:
    """The worst raw corresponding-edge offset between two patterns as they
    sit (the third element of `align.edge_fit_aligned`), through the
    per-polygon pairing and edge walk above; None without a one-to-one
    correspondence, 0 for two empty patterns."""
    if len(a.shapes) != len(b.shapes):
        return None
    try:
        disp = edge_displacements_loop(a, b, match_polygons_loop(a, b, ZERO_SHIFT))
    except MatchError:
        return None
    return max((abs(d) for _, d in disp), default=0)


@dataclass(frozen=True)
class FeasibleInterval:
    """Closed interval of one axis's shifts bounded by a polygon pair's
    boxes: the offsets of their low sides and of their high sides."""

    d_min: int
    d_max: int

    @property
    def width(self) -> int:
        return self.d_max - self.d_min

    @property
    def midpoint(self) -> int:
        return math.trunc(Fraction(self.d_min + self.d_max, 2))  # halves toward zero


def pair_intervals(pa, pb) -> tuple[FeasibleInterval, FeasibleInterval]:
    """The x and y shift intervals that align b's box to a's on each side."""
    ax0, ay0, ax1, ay1 = pa.bbox
    bx0, by0, bx1, by1 = pb.bbox
    xlo, xhi = sorted((bx0 - ax0, bx1 - ax1))
    ylo, yhi = sorted((by0 - ay0, by1 - ay1))
    return FeasibleInterval(xlo, xhi), FeasibleInterval(ylo, yhi)


def centroid_pairs_loop(a, b) -> list[tuple[int, int]]:
    """Each shape of the pattern with fewer shapes (a on a tie), in order,
    with the first shape of the other whose doubled bbox center is nearest."""
    flip = len(a.shapes) > len(b.shapes)
    small, big = (b, a) if flip else (a, b)
    pairs = []
    for i, ps in enumerate(small.shapes):
        sx, sy = ps.bbox[0] + ps.bbox[2], ps.bbox[1] + ps.bbox[3]
        d2 = [(pb.bbox[0] + pb.bbox[2] - sx) ** 2 + (pb.bbox[1] + pb.bbox[3] - sy) ** 2 for pb in big.shapes]
        j = d2.index(min(d2))
        pairs.append((j, i) if flip else (i, j))
    return pairs


def xy_minmax_align_loop(a, b) -> Translation:
    """`align.xy_minmax_align` one polygon pair at a time: the pairs of
    `match_polygons_loop` at zero shift (else `centroid_pairs_loop`), and
    per axis the first pair with the narrowest interval gives its midpoint."""
    if not a.shapes or not b.shapes:
        raise NoCorrespondenceError("cannot align an empty pattern geometrically")
    try:
        pairs = match_polygons_loop(a, b, ZERO_SHIFT)
    except MatchError:
        pairs = centroid_pairs_loop(a, b)
    best_x = best_y = None
    for i, j in pairs:
        ix, iy = pair_intervals(a.shapes[i], b.shapes[j])
        if best_x is None or ix.width < best_x.width:
            best_x = ix
        if best_y is None or iy.width < best_y.width:
            best_y = iy
    return Translation(best_x.midpoint, best_y.midpoint)


def _best_center(marker, shift, score_at, passes):
    """The refinement rule, one candidate at a time: the aligned center
    (clamped into the marker) first, then the anchor; the best passing
    score wins, ties to the earlier candidate; `score_at(center)` is None
    where a center cannot be scored."""
    anchor = marker.center()
    centers = []
    for t in (shift, ZERO_SHIFT):
        if t is None:
            continue
        c = clamp_to_marker(t, anchor, marker)
        center = (anchor[0] + c.dx, anchor[1] + c.dy)
        if center not in centers:
            centers.append(center)
    best = None
    anchor_score = None
    for center in centers:
        score = score_at(center)
        if score is None:
            continue
        if center == anchor:
            anchor_score = score
        if passes(score) and (best is None or score > best[1]):
            best = (center, score)
    return None if best is None else RefineResult(best[0], best[1], anchor_score)


def refine_member_cosine(rep, marker, doc, member_at_anchor=None):
    """`pipeline.refine_cluster` in cosine mode for one member: the shift of
    `xy_minmax_align_loop` (none for an empty pattern), and every candidate
    window extracted and scored by its own `pattern_features`."""
    anchor = marker.center()
    if member_at_anchor is None:
        member_at_anchor = extract_pattern(doc, anchor)
    try:
        shift = xy_minmax_align_loop(rep, member_at_anchor)
    except NoCorrespondenceError:
        shift = None
    rep_features = pattern_features(rep)

    def score_at(center):
        window = member_at_anchor if center == anchor else extract_pattern(doc, center)
        return cosine_similarity(rep_features, pattern_features(window))

    return _best_center(marker, shift, score_at, lambda s: s >= doc.threshold)


def refine_member_edgemove(rep, marker, doc, member_at_anchor=None):
    """`pipeline.refine_cluster` in edgemove mode for one member, each
    candidate center scored by its own aligner call (`edge_fit` above away
    from the anchor)."""
    anchor = marker.center()
    if member_at_anchor is None:
        member_at_anchor = extract_pattern(doc, anchor)
    fit = edge_fit_aligned(rep, member_at_anchor)
    shift, anchor_offset = (fit[0], fit[2]) if fit else (None, None)

    def score_at(center):
        off = anchor_offset if center == anchor else edge_fit(rep, extract_pattern(doc, center))
        return None if off is None else -float(off)

    return _best_center(marker, shift, score_at, lambda s: s >= -doc.threshold)


def verify_loop(clusters, doc) -> tuple[bool, str | None]:
    """`pipeline.verify_clusterset` of a list of Cluster records, each
    member extracted and scored on its own: by `pattern_features` in cosine
    mode, by `edge_fit` above in edgemove mode; (ok, message)."""
    cosine = doc.constraint_kind is ConstraintKind.COSINE
    seen = set()
    for cid, cluster in enumerate(clusters):
        rep = extract_pattern(doc, cluster.rep_center)
        rep_features = pattern_features(rep) if cosine else None
        for m, (cx, cy) in cluster.members:
            mid = doc.marker_ids[m]
            if m in seen:
                return False, f"marker {mid} assigned twice"
            seen.add(m)
            if not doc.markers[m].contains(cx, cy):
                return False, f"center ({cx}, {cy}) outside marker {mid}"
            window = extract_pattern(doc, (cx, cy))
            if cosine:
                sim = cosine_similarity(rep_features, pattern_features(window))
                if sim < doc.threshold:
                    return False, f"cluster {cid}: marker {mid} similarity {sim:.6f} < {doc.threshold}"
                continue
            off = edge_fit(rep, window)
            if off is None:
                return False, f"cluster {cid}: marker {mid} has no correspondence"
            if off > doc.threshold:
                return False, f"cluster {cid}: marker {mid} edge offset {off} > {doc.threshold}"
    if len(seen) != len(doc.markers):
        missing = sorted(set(range(len(doc.markers))) - seen)
        return False, f"markers never assigned: {missing[:5]}"
    return True, None


def naive_dct2(pixels: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II by direct summation (O(n^4))."""
    m, n = pixels.shape
    out = np.empty((m, n))
    for u in range(m):
        au = math.sqrt(1.0 / m) if u == 0 else math.sqrt(2.0 / m)
        cu = np.cos(np.pi * (2 * np.arange(m) + 1) * u / (2 * m))
        for v in range(n):
            av = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
            cv = np.cos(np.pi * (2 * np.arange(n) + 1) * v / (2 * n))
            out[u, v] = au * av * float(cu @ pixels @ cv)
    return out


def cosine_of_blocks(a: np.ndarray, b: np.ndarray) -> float:
    """(a . b) / (|a| |b|) of two raw DCT blocks, clipped to [-1, 1]; two
    zero blocks count as identical (1.0), one zero block gives 0.0."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


def brute_minmax_residual(values) -> int:
    """Minimum over integer shifts T of max |d - T|, by linear scan."""
    if not values:
        return 0
    lo, hi = min(values), max(values)
    return min(max(abs(d - t) for d in values) for t in range(lo, hi + 1))


def minmax_residual_at(values, t: int) -> int:
    return max((abs(d - t) for d in values), default=0)


def assemble_sets(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """The graph over n nodes with the undirected (i, j) `edges`, as each
    node's neighbours in ascending order: the pairs added one at a time to a
    set per node, then `check_symmetric`. The CSR `graph.assemble` must
    build the same graph and raise the same errors."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
        if j in adj[i]:
            raise ValueError(f"duplicate pair {(min(i, j), max(i, j))}")
        adj[i].add(j)
        adj[j].add(i)
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    check_symmetric(n, adjacency)
    return adjacency


def check_symmetric(n: int, adjacency) -> None:
    """Raise ValueError unless `adjacency` lists n nodes, has no self-loop
    and holds every edge in both directions."""
    if len(adjacency) != n:
        raise ValueError("adjacency size does not match node count")
    neighbours = [set(nbrs) for nbrs in adjacency]
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            if j == i:
                raise ValueError(f"self-loop at node {i}")
            if i not in neighbours[j]:
                raise ValueError(f"edge {i}->{j} missing its reverse")


def exact_surprisals(g) -> list[Fraction]:
    """Surprisal 1/(1 + degree) per node as exact rationals."""
    return [Fraction(1, 1 + g.degree(i)) for i in range(g.n)]


def eager_solve_oracle(g, exact: bool = False) -> scp.SolveResult:
    """Full-update greedy: rescore every node after each selection.

    Same selection contract and the same tie-break (higher gain, then smaller
    id) as `scp.solve`. With exact=True all arithmetic is rational.
    """
    s = exact_surprisals(g) if exact else scp._surprisals(g)
    covered = [False] * g.n
    stats = scp.SolverStats()
    selections = []
    remaining = g.n
    while remaining:
        best_j = -1
        best_gain = None
        for j in range(g.n):
            gain = scp._gain(g, s, covered, j)
            stats.recomputations += 1
            if gain > 0 and (best_gain is None or gain > best_gain):
                best_j, best_gain = j, gain
        newly = scp._cover(g, covered, best_j)
        selections.append(scp.Selection(best_j, tuple(newly)))
        stats.selections += 1
        remaining -= len(newly)
    return scp.SolveResult(tuple(selections), stats)
