import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pattern_forge.geometry import (
    Axis,
    GeometryError,
    Marker,
    MatchError,
    MultipleOverlapError,
    NoOverlapError,
    Pattern,
    Polygon,
    TopologyMismatchError,
    Translation,
    ZERO_SHIFT,
    _trace_union,
    clip_polygon,
    edge_displacements,
    extract_pattern,
    match_polygons,
    rectangles,
)
from pattern_forge.align import edge_fit_aligned
from pattern_forge.layout_io import ConstraintKind, LayoutDocument
from pattern_forge.raster import coverage_grid

from conftest import rect, staircase, random_rect_union
from oracles import (
    cells_inside,
    coverage_grid_loop,
    direction_sequence,
    edge_displacements_loop,
    pattern_edges,
    from_vertices_loop,
    hull_bbox,
    match_polygons_loop,
    rect_cells,
    rings_cells,
)


class TestPolygonValidation:
    def test_rectangle_normalizes_to_ccw_lexmin(self):
        cw = Polygon.from_vertices([(0, 4), (4, 4), (4, 0), (0, 0)])
        assert cw.vertices == ((0, 0), (4, 0), (4, 4), (0, 4))
        assert cw.area == 16

    def test_rotation_to_lexmin_start(self):
        p = Polygon.from_vertices([(4, 0), (4, 4), (0, 4), (0, 0)])
        assert p.vertices[0] == (0, 0)

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError, match="at least 4"):
            Polygon.from_vertices([(0, 0), (4, 0), (4, 4)])

    def test_diagonal_edge_rejected(self):
        with pytest.raises(GeometryError, match="diagonal"):
            Polygon.from_vertices([(0, 0), (4, 4), (4, 8), (0, 8)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(GeometryError, match="repeated"):
            Polygon.from_vertices([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)])

    def test_zero_length_edge_rejected(self):
        # two equal consecutive vertices: the repeated-vertex check names them
        with pytest.raises(GeometryError, match=r"repeated vertex \(4, 0\)"):
            Polygon.from_vertices([(0, 0), (4, 0), (4, 0), (4, 4), (0, 4)])

    def test_consecutive_parallel_edges_rejected(self):
        with pytest.raises(GeometryError, match="parallel"):
            Polygon.from_vertices([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])

    @staticmethod
    def _outcome(build, points):
        """The stored ring, or the error message."""
        try:
            return build(points).vertices
        except GeometryError as exc:
            return str(exc)

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_loop_oracle_on_corrupted_rings(self, data):
        # a valid ring, in either orientation from any start, then up to
        # three faults: a vertex moved on one axis (diagonal or parallel
        # edges), duplicated in place or elsewhere, dropped, or a collinear
        # midpoint inserted
        rects = random_rect_union(data.draw(st.randoms(use_true_random=False)))
        ring = list(_trace_union(rects)[0])
        k = data.draw(st.integers(0, len(ring) - 1))
        ring = ring[k:] + ring[:k]
        if data.draw(st.booleans()):
            ring.reverse()
        for _ in range(data.draw(st.integers(0, 3))):
            if not ring:
                break
            i = data.draw(st.integers(0, len(ring) - 1))
            op = data.draw(st.sampled_from(["move", "dup", "copy", "drop", "mid"]))
            x, y = ring[i]
            if op == "move":
                d = data.draw(st.integers(-3, 3))
                ring[i] = (x + d, y) if data.draw(st.booleans()) else (x, y + d)
            elif op == "dup":
                ring.insert(i, (x, y))
            elif op == "copy":
                ring.insert(data.draw(st.integers(0, len(ring))), (x, y))
            elif op == "drop":
                del ring[i]
            else:
                x1, y1 = ring[(i + 1) % len(ring)]
                ring.insert(i + 1, ((x + x1) // 2, (y + y1) // 2))
        assert self._outcome(Polygon.from_vertices, ring) == self._outcome(from_vertices_loop, ring)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10))
    @example([(0, 0), (1, 1), (1, 0), (2, 2)])  # two diagonals: the first in ring order
    @example([(0, 0), (2, 0), (2, 1), (2, 2), (0, 2), (0, 1)])  # two parallel joints: (2, 1) before (0, 1)
    @example([(0, 1), (0, 0), (2, 0), (2, 2), (0, 2)])  # only the last and first edges are parallel
    @example([(0, 1), (0, 0), (2, 0), (2, 1), (2, 2), (0, 2)])  # (2, 1) before the joint at the start
    def test_matches_loop_oracle_on_random_points(self, points):
        assert self._outcome(Polygon.from_vertices, points) == self._outcome(from_vertices_loop, points)

    def test_direction_sequence_alternates(self):
        p = staircase(3)
        seq = direction_sequence(p)
        assert len(seq) == len(p.vertices)
        horizontals = set("EW")
        for k in range(len(seq)):
            a, b = seq[k], seq[(k + 1) % len(seq)]
            assert (a in horizontals) != (b in horizontals)

    def test_staircase_area(self):
        # steps of run 3 rise 2: rows of widths 3, 6, 9 (bottom to top) x height 2...
        # computed directly from cells instead of trusting a formula
        p = staircase(2, run=3, rise=2)
        cells = cells_inside(p.vertices, hull_bbox([p.vertices]))
        assert p.area == int(cells.sum())

    def test_translated(self):
        p = rect(0, 0, 4, 6).translated(10, -3)
        assert p.vertices == ((10, -3), (14, -3), (14, 3), (10, 3))
        assert p.area == 24

    @given(
        st.sampled_from(["rect", "staircase", "u"]), st.integers(0, 3),
        st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
    )
    def test_translated_equals_the_shifted_ring(self, kind, turns, dx, dy):
        # the shifted bbox passed in is the one the vertices give
        p = {"rect": rect(-3, 1, 5, 9), "staircase": staircase(3, x0=-7, y0=2),
             "u": _u_across_edge((0, 0), 8, 0, 0, turns)}[kind]
        q = p.translated(dx, dy)
        built = Polygon.from_vertices([(x + dx, y + dy) for x, y in p.vertices])
        assert q == built and hash(q) == hash(built)
        assert q.vertices == built.vertices and q.bbox == built.bbox
        assert q.bbox == Polygon(q.vertices).bbox

    def test_bbox(self):
        assert staircase(2).bbox == (0, 0, 9, 6)


class TestRectangles:
    def test_rectangle_decomposes_to_itself(self):
        assert rectangles(rect(1, 2, 5, 9)) == ((1, 2, 5, 9),)

    def test_l_shape(self):
        p = Polygon.from_vertices([(0, 0), (6, 0), (6, 2), (2, 2), (2, 5), (0, 5)])
        rects = rectangles(p)
        assert sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects) == p.area
        bbox = hull_bbox([p.vertices])
        assert np.array_equal(rect_cells(rects, bbox), cells_inside(p.vertices, bbox))

    @pytest.mark.parametrize("steps", [1, 2, 5, 9])
    def test_staircase_matches_cell_oracle(self, steps):
        p = staircase(steps)
        rects = rectangles(p)
        bbox = hull_bbox([p.vertices])
        assert np.array_equal(rect_cells(rects, bbox), cells_inside(p.vertices, bbox))
        # slabs are disjoint: total rect area equals polygon area
        assert sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects) == p.area

    def test_self_intersecting_ring_rejected(self):
        # passes local vertex checks but the ring crosses itself
        bad = Polygon.from_vertices(
            [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (2, 3), (2, 2), (0, 2)]
        )
        with pytest.raises(GeometryError):
            rectangles(bad)


class TestTraceUnion:
    def test_single_rect(self):
        rings = _trace_union([(0, 0, 4, 4)])
        assert [Polygon.from_vertices(r) for r in rings] == [rect(0, 0, 4, 4)]

    def test_disjoint_rects_two_rings(self):
        rings = _trace_union([(0, 0, 2, 2), (5, 5, 7, 7)])
        assert len(rings) == 2

    def test_shared_edge_merges(self):
        rings = _trace_union([(0, 0, 4, 2), (0, 2, 4, 5)])
        assert [Polygon.from_vertices(r) for r in rings] == [rect(0, 0, 4, 5)]

    def test_t_shape(self):
        rings = _trace_union([(0, 0, 6, 2), (2, 2, 4, 5)])
        assert len(rings) == 1
        p = Polygon.from_vertices(rings[0])
        assert p.area == 12 + 6

    def test_random_unions_match_cell_oracle(self, rng):
        for _ in range(60):
            rects = random_rect_union(rng)
            rings = _trace_union(rects)
            bbox = hull_bbox([[(x0, y0), (x1, y1)] for x0, y0, x1, y1 in rects])
            assert np.array_equal(rings_cells(rings, bbox), rect_cells(rects, bbox))
            for ring in rings:
                Polygon.from_vertices(ring)  # valid, alternating, simple enough to parse


class TestClip:
    def test_fully_inside_unchanged(self):
        p = rect(-2, -2, 2, 2)
        assert clip_polygon(p, (-10, -10, 10, 10)) == [p]

    def test_fully_outside_empty(self):
        assert clip_polygon(rect(20, 20, 30, 30), (-10, -10, 10, 10)) == []

    def test_touching_boundary_is_outside(self):
        # zero-width contact has no positive overlap
        assert clip_polygon(rect(10, 0, 14, 4), (-10, -10, 10, 10)) == []

    def test_rect_straddling_window(self):
        out = clip_polygon(rect(5, 5, 15, 15), (-10, -10, 10, 10))
        assert out == [rect(5, 5, 10, 10)]

    def test_split_into_two_pieces(self):
        # U shape: window band across the prongs splits it
        u = Polygon.from_vertices(
            [(0, 0), (10, 0), (10, 8), (8, 8), (8, 2), (2, 2), (2, 8), (0, 8)]
        )
        pieces = clip_polygon(u, (-5, 4, 15, 12))
        assert len(pieces) == 2
        assert sorted(p.area for p in pieces) == [8, 8]

    def test_random_clip_matches_cell_oracle(self, rng):
        for _ in range(60):
            rects = random_rect_union(rng)
            rings = _trace_union(rects)
            poly = Polygon.from_vertices(rings[0])
            wx = rng.randrange(-20, 5)
            wy = rng.randrange(-20, 5)
            window = (wx, wy, wx + rng.randrange(4, 30), wy + rng.randrange(4, 30))
            pieces = clip_polygon(poly, window)
            bbox = hull_bbox([poly.vertices, [window[:2], window[2:]]])
            expect = cells_inside(poly.vertices, bbox) & rect_cells([window], bbox)
            got = rings_cells([p.vertices for p in pieces], bbox)
            assert np.array_equal(got, expect)
            assert sum(p.area for p in pieces) == int(expect.sum())
            # idempotence: pieces are already inside the window
            for p in pieces:
                assert clip_polygon(p, window) == [p]


class TestMarker:
    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Marker(5, 0, 4, 2)

    def test_point_marker_allowed(self):
        m = Marker(3, 4, 3, 4)
        assert m.center() == (3, 4)
        assert m.contains(3, 4)
        assert not m.contains(3, 5)

    def test_center_floors_midpoint(self):
        assert Marker(0, 0, 3, 3).center() == (1, 1)
        assert Marker(-3, -3, 0, 0).center() == (-2, -2)

    def test_contains_inclusive(self):
        m = Marker(0, 0, 4, 2)
        assert m.contains(0, 0) and m.contains(4, 2)
        assert not m.contains(5, 1)


def _doc(polys, radius) -> LayoutDocument:
    polys = tuple(polys)
    return LayoutDocument(
        radius, ConstraintKind.COSINE, 0.9, polys, tuple(range(len(polys))), (), ()
    )


def _clip_every_polygon(doc, center) -> tuple[Polygon, ...]:
    """Brute force: clip all design polygons, in file order, without the index."""
    cx, cy = center
    r = doc.pattern_radius
    window = (cx - r, cy - r, cx + r, cy + r)
    return tuple(
        piece.translated(-cx, -cy)
        for poly in doc.design_polygons
        for piece in clip_polygon(poly, window)
    )


def _turned(points, center, turns: int) -> Polygon:
    """The ring through `points`, turned `turns` quarter turns about `center`."""
    cx, cy = center
    for _ in range(turns):
        points = [(cx - (y - cy), cy + (x - cx)) for x, y in points]
    return Polygon.from_vertices(points)


def _u_across_edge(center, radius, inset, top, turns) -> Polygon:
    """A U under the window whose two prongs, 2 wide and `inset` in from its
    sides, cross the window's bottom edge and end `top` above its center:
    one polygon, two pieces."""
    cx, cy = center
    x0, x1, y0, y1 = cx - radius + inset, cx + radius - inset, cy - radius - 4, cy + top
    ring = [(x0, y0), (x1, y0), (x1, y1), (x1 - 2, y1), (x1 - 2, y0 + 2), (x0 + 2, y0 + 2), (x0 + 2, y1), (x0, y1)]
    return _turned(ring, center, turns)


def _l_round_corner(center, radius, gap, turns) -> Polygon:
    """An L round the window's top-right corner, `gap` clear of both edges:
    its bbox overlaps the window while none of its rectangles does."""
    cx, cy = center
    x, y = cx + radius + gap, cy + radius + gap
    ring = [(cx, y), (x, y), (x, cy), (x + 4, cy), (x + 4, y + 4), (cx, y + 4)]
    return _turned(ring, center, turns)


@st.composite
def _design(draw):
    """A few polygons scattered around a small window: rectangles and
    staircases, U's whose prongs cross the window's edge, L's round a window
    corner, and copies of earlier polygons moved by at most 1, which overlap
    them.

    Coordinates sit on a coarse lattice near the window, so edges often land
    exactly on the window boundary (touching polygons) as well as across it.
    """
    radius = draw(st.sampled_from([4, 8, 12]))
    coord = st.integers(-6, 6).map(lambda v: 4 * v)
    center = (draw(coord), draw(coord))
    turns = st.integers(0, 3)
    polys = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["rect", "staircase", "u", "l"] + ["copy"] * bool(polys)))
        if kind in ("rect", "staircase"):
            x0, y0 = draw(coord), draw(coord)
            if kind == "rect":
                w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
                polys.append(rect(x0, y0, x0 + 4 * w, y0 + 4 * h))
            else:
                polys.append(staircase(draw(st.integers(1, 3)), run=4, rise=4, x0=x0, y0=y0))
        elif kind == "u":
            top = draw(st.sampled_from([2 - radius, 0, radius, radius + 4]))
            polys.append(_u_across_edge(center, radius, draw(st.integers(-1, 1)), top, draw(turns)))
        elif kind == "l":
            polys.append(_l_round_corner(center, radius, draw(st.sampled_from([0, 2, 4])), draw(turns)))
        else:
            shift = st.integers(-1, 1)
            polys.append(draw(st.sampled_from(polys)).translated(draw(shift), draw(shift)))
    return _doc(polys, radius), center


class TestExtract:
    def test_window_local_content_is_center_invariant(self):
        doc = _doc([rect(0, 0, 6, 6), rect(100, 100, 106, 106)], radius=16)
        a = extract_pattern(doc, (3, 3))
        b = extract_pattern(doc, (103, 103))
        assert a.shapes == b.shapes
        assert a.center != b.center

    def test_clips_to_window(self):
        doc = _doc([rect(-40, -40, 40, 40)], radius=16)
        p = extract_pattern(doc, (0, 0))
        assert p.shapes == (rect(-16, -16, 16, 16),)
        assert p.area == 32 * 32

    def test_empty_window(self):
        doc = _doc([rect(100, 100, 110, 110)], radius=16)
        assert extract_pattern(doc, (0, 0)).is_empty

    def test_bounds_and_area(self):
        doc = _doc([rect(2, 2, 6, 8)], radius=16)
        p = extract_pattern(doc, (0, 0))
        assert p.bounds() == (2, 2, 6, 8)
        assert p.area == 24
        assert extract_pattern(doc, (100, 100)).bounds() is None

    def test_edge_touching_and_crossing_polygons(self):
        # window [-16, 16]^2: two polygons touch it only along an edge, one
        # touches a corner, one crosses the boundary, one sits inside
        polys = [
            rect(16, -4, 30, 4),     # touches the right edge
            rect(-10, -30, 10, -16),  # touches the bottom edge
            rect(16, 16, 20, 20),    # touches the top-right corner
            rect(-20, 10, 0, 24),    # crosses the top-left boundary
            rect(-4, -4, 4, 4),      # inside
        ]
        doc = _doc(polys, radius=16)
        p = extract_pattern(doc, (0, 0))
        assert p.shapes == (rect(-16, 10, 0, 16), rect(-4, -4, 4, 4))
        assert p.shapes == _clip_every_polygon(doc, (0, 0))

    @given(_design())
    @example((_doc([_u_across_edge((0, 0), 8, 0, 0, 0), rect(-8, -4, -4, 4), rect(-6, -2, 0, 2)], 8), (0, 0)))
    @example((_doc([_l_round_corner((4, 4), 4, 0, t) for t in range(4)], 4), (4, 4)))
    @example((_doc([rect(-20, -2, 20, 2), rect(-20, -2, 20, 2), rect(-2, -20, 2, 20)], 12), (0, 0)))
    def test_index_matches_clipping_every_polygon(self, design):
        doc, center = design
        p = extract_pattern(doc, center)
        assert p.center == center
        assert p.radius == doc.pattern_radius
        assert p.shapes == _clip_every_polygon(doc, center)

    @given(_design())
    @example((_doc([rect(-4, -4, 4, 2), staircase(2, run=2, rise=2, x0=-6, y0=-6)], 8), (0, 0)))  # whole
    @example((_doc([rect(-20, -2, 4, 2), rect(6, -12, 10, 12)], 8), (0, 0)))  # crossing the edge
    @example((_doc([rect(8, -4, 12, 4), rect(-4, -12, 4, -8), rect(8, 8, 12, 12)], 8), (0, 0)))  # touching
    @example((_doc([_u_across_edge((0, 0), 8, 0, 0, 1), rect(-2, -2, 2, 2)], 8), (0, 0)))  # a U cut in two
    @example((_doc([], 8), (0, 0)))  # empty
    @example((_doc([rect(100, 100, 104, 104)], 8), (0, 0)))  # empty
    def test_arrays_seeded_from_the_query(self, design):
        # the arrays extraction builds from its window query equal those of
        # a pattern built by hand from the same shapes, which decomposes
        # them, and so does the raster read from them
        doc, center = design
        p = extract_pattern(doc, center)
        built = Pattern(p.center, p.radius, p.shapes)
        assert p.rects.dtype == np.int64 and p.rects.shape == built.rects.shape
        for name in ("rects", "owner", "coords", "x_axis", "bboxes"):
            assert np.array_equal(getattr(p, name), getattr(built, name)), name
        for name in ("rect_counts", "layout_key", "area"):
            assert getattr(p, name) == getattr(built, name), name
        rects = [rc for shape in p.shapes for rc in rectangles(shape)]
        for side in (8, 16):
            assert np.array_equal(coverage_grid(p.rects, p.radius, side), coverage_grid_loop(rects, p.radius, side))

    @given(_design())
    @example((_doc([_u_across_edge((0, 0), 8, 0, 0, 1), rect(-2, -2, 2, 2)], 8), (0, 0)))  # a U cut in two
    @example((_doc([rect(-20, -2, 4, 2), staircase(2, run=2, rise=2, x0=-6, y0=-6)], 8), (0, 0)))
    @example((_doc([rect(-20, -2, 20, 2), rect(-20, -2, 20, 2)], 8), (0, 0)))  # overlapping, both cut
    @example((_doc([], 8), (0, 0)))  # empty
    def test_area_is_the_shapes_areas(self, design):
        # the area of `rects`, traced pieces included, is the sum of the
        # shapes' own areas, as an int
        doc, center = design
        p = extract_pattern(doc, center)
        assert type(p.area) is int
        assert p.area == sum(shape.area for shape in p.shapes)

    def test_u_prongs_are_two_pieces(self):
        for turns in range(4):
            doc = _doc([_u_across_edge((0, 0), 8, 0, 0, turns)], 8)
            p = extract_pattern(doc, (0, 0))
            assert len(p.shapes) == 2 and p.area == 2 * 2 * 8

    def test_l_round_a_corner_has_no_piece(self):
        for turns in range(4):
            doc = _doc([_l_round_corner((0, 0), 8, 0, turns)], 8)
            bx0, by0, bx1, by1 = doc.design_polygons[0].bbox
            assert bx0 < 8 and by0 < 8 and bx1 > -8 and by1 > -8  # the bbox overlaps the window
            assert extract_pattern(doc, (0, 0)).is_empty


def _directions(p: Pattern) -> tuple[str, ...]:
    return tuple(d for d, _axes, _coords in pattern_edges(p))


# a self-crossing ring that `rectangles()` accepts, stored starting North
SWEPT_ONE_WAY = [(5, 1), (0, 1), (0, 0), (1, 0), (1, 4), (4, 4), (4, 2), (1, 2), (1, 3), (2, 3), (2, 2), (5, 2)]


class TestWindowEdgeArrays:
    """A window's edge arrays, read from its vertex table, against the
    per-shape edge walk (`oracles.pattern_edges`)."""

    @settings(max_examples=300)
    @given(_design(), st.data())
    @example((_doc([_u_across_edge((0, 0), 8, 0, 0, 1), staircase(2, run=2, rise=2, x0=-6, y0=-6)], 8), (0, 0)), None)
    def test_match_the_per_shape_edges(self, design, data):
        # an extracted window, kept and traced shapes alike, and a pattern
        # built from its shapes, each moved, mirrored (the same vertex count,
        # maybe other directions) or turned: the keys are equal exactly when
        # the direction sequences and rectangle counts are
        doc, center = design
        p = extract_pattern(doc, center)
        others = []
        for shape in p.shapes:
            change = "move" if data is None else data.draw(st.sampled_from(["move", "mirror", "turn"]))
            if change == "move":
                others.append(shape.translated(1, -2))
            elif change == "mirror":
                others.append(Polygon.from_vertices([(-x, y) for x, y in shape.vertices]))
            else:
                others.append(_turned(shape.vertices, (0, 0), 1))
        q = Pattern((0, 0), p.radius, tuple(others))
        for pattern in (p, q):
            edges = pattern_edges(pattern)
            assert pattern.coords.dtype == np.int64
            assert pattern.coords.tolist() == [c for _d, _axes, cs in edges for c in cs]
            assert pattern.x_axis.tolist() == [a is Axis.X for _d, axes, _cs in edges for a in axes]
        same = _directions(p) == _directions(q) and p.rect_counts == q.rect_counts
        assert (p.layout_key == q.layout_key) == same
        hash(p.layout_key)

    def test_ring_starting_north(self):
        # the positions of a ring stored starting North hold its edges rotated
        # by one; the offsets of corresponding edges are the edge walk's
        ring = Polygon.from_vertices(SWEPT_ONE_WAY)
        assert direction_sequence(ring)[0] == "N"
        a = _pat(ring)
        moved = Polygon.from_vertices([(x + 3 * (x == 5), y - 2) for x, y in SWEPT_ONE_WAY])
        b = _pat(moved)
        assert direction_sequence(moved) == direction_sequence(ring) and a.layout_key == b.layout_key
        pairs = match_polygons(a, b, Translation(0, 2))
        got = edge_displacements(a, b, pairs)
        assert sorted(got, key=lambda e: (e[0].value, e[1])) == sorted(
            edge_displacements_loop(a, b, _pairs(pairs)), key=lambda e: (e[0].value, e[1]))
        # flipped upside down, it starts North too, with other directions
        flipped = _pat(Polygon.from_vertices([(x, -y) for x, y in SWEPT_ONE_WAY]))
        assert _directions(flipped)[0][0] == "N" and _directions(flipped) != _directions(a)
        assert flipped.rect_counts == a.rect_counts and flipped.layout_key != a.layout_key

    def test_all_kept_window_builds_no_polygon(self, monkeypatch):
        l_shape = Polygon.from_vertices([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])
        doc = _doc([rect(-10, -10, -4, -6), l_shape, staircase(2, run=2, rise=2, x0=-8, y0=2), rect(40, 40, 44, 44)], 16)
        calls = []
        init = Polygon.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polygon, "__init__", counting)
        p = extract_pattern(doc, (0, 0))
        monkeypatch.undo()
        assert calls == [] and len(p.rings) == 3
        assert p.shapes == _clip_every_polygon(doc, (0, 0))


def _pat(*polys, radius=32) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


def _pairs(corr) -> tuple[tuple[int, int], ...]:
    """The index arrays `match_polygons` returns, as (i, j) pair tuples."""
    ia, ib = corr
    return tuple(zip(ia.tolist(), ib.tolist()))


class TestMatch:
    def test_identical_identity_pairs(self):
        a = _pat(rect(0, 0, 4, 4), rect(10, 10, 14, 14))
        assert _pairs(match_polygons(a, a)) == ((0, 0), (1, 1))

    def test_smaller_side_a(self):
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(1, 1, 3, 3), rect(20, 20, 24, 24))
        assert _pairs(match_polygons(a, b)) == ((0, 0),)

    def test_smaller_side_b(self):
        a = _pat(rect(1, 1, 3, 3), rect(20, 20, 24, 24))
        b = _pat(rect(20, 21, 23, 25))
        assert _pairs(match_polygons(a, b)) == ((1, 0),)

    def test_empty_smaller_side_vacuous(self):
        a = _pat()
        b = _pat(rect(0, 0, 4, 4))
        assert _pairs(match_polygons(a, b)) == ()

    def test_no_overlap_raises(self):
        a = _pat(rect(0, 0, 2, 2))
        b = _pat(rect(10, 10, 12, 12))
        with pytest.raises(NoOverlapError) as exc:
            match_polygons(a, b)
        assert exc.value.side == "a" and exc.value.index == 0

    def test_multiple_overlap_raises(self):
        a = _pat(rect(0, 0, 10, 2))
        b = _pat(rect(1, 0, 3, 2), rect(6, 0, 8, 2))
        with pytest.raises(MultipleOverlapError) as exc:
            match_polygons(a, b)
        assert exc.value.side == "a" and exc.value.count == 2

    def test_equal_count_bijection_enforced_on_b(self):
        # each a-polygon overlaps exactly one b-polygon, but both hit b0
        a = _pat(rect(0, 0, 2, 2), rect(3, 0, 5, 2))
        b = _pat(rect(0, 0, 5, 2), rect(50, 50, 52, 52))
        with pytest.raises(MultipleOverlapError) as exc:
            match_polygons(a, b)
        assert exc.value.side == "b"

    def test_shift_applies_to_b(self):
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(100, 0, 104, 4))
        assert _pairs(match_polygons(a, b, Translation(-100, 0))) == ((0, 0),)

    def test_touching_is_not_overlap(self):
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(4, 0, 8, 4))
        with pytest.raises(NoOverlapError):
            match_polygons(a, b)

    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_symmetric_outcome(self, dx, dy):
        a = _pat(rect(0, 0, 8, 8), rect(20, 0, 28, 8))
        b = _pat(rect(dx, dy, 8 + dx, 8 + dy), rect(20 + dx, dy, 28 + dx, 8 + dy))
        try:
            ab = _pairs(match_polygons(a, b))
        except (NoOverlapError, MultipleOverlapError):
            with pytest.raises((NoOverlapError, MultipleOverlapError)):
                match_polygons(b, a)
            return
        ba = _pairs(match_polygons(b, a))
        assert sorted((j, i) for i, j in ab) == sorted(ba)


class TestEdgeDisplacements:
    def test_translated_copy_constant_offsets(self):
        a = _pat(staircase(2))
        b = _pat(staircase(2).translated(5, -3))
        disp = edge_displacements(a, b, match_polygons(a, b))
        xs = [d for ax, d in disp if ax is Axis.X]
        ys = [d for ax, d in disp if ax is Axis.Y]
        assert set(xs) == {5} and set(ys) == {-3}
        n = len(staircase(2).vertices)
        assert len(xs) == n // 2 and len(ys) == n // 2

    def test_single_edge_move(self):
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(0, 0, 5, 4))
        disp = edge_displacements(a, b, match_polygons(a, b))
        assert sorted(d for ax, d in disp if ax is Axis.X) == [0, 1]
        assert sorted(d for ax, d in disp if ax is Axis.Y) == [0, 0]

    def test_vertex_count_mismatch(self):
        a = _pat(rect(0, 0, 6, 6))
        l_shape = Polygon.from_vertices([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])
        b = _pat(l_shape)
        with pytest.raises(TopologyMismatchError, match="vertex counts"):
            edge_displacements(a, b, match_polygons(a, b))

    def test_direction_sequence_mismatch(self):
        # both 6 vertices, but the notch faces different corners
        l1 = Polygon.from_vertices([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])
        l2 = Polygon.from_vertices([(0, 0), (3, 0), (3, 3), (6, 3), (6, 6), (0, 6)])
        with pytest.raises(TopologyMismatchError, match="orientation"):
            edge_displacements(_pat(l1), _pat(l2), match_polygons(_pat(l1), _pat(l2)))


_LATTICE = st.integers(-6, 6).map(lambda v: 4 * v)


@st.composite
def _shape(draw) -> Polygon:
    """A rectangle, or a multi-rectangle staircase climbing to the right or
    (mirrored: same vertex count, other edge directions) to the left, on a
    4 nm lattice."""
    x0, y0 = draw(_LATTICE), draw(_LATTICE)
    kind = draw(st.sampled_from(["rect", "stairs", "mirrored"]))
    if kind == "rect":
        w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return rect(x0, y0, x0 + 4 * w, y0 + 4 * h)
    stairs = staircase(draw(st.integers(1, 3)), run=4, rise=4, x0=x0, y0=y0)
    if kind == "stairs":
        return stairs
    return Polygon.from_vertices([(2 * x0 - x, y) for x, y in stairs.vertices])


@st.composite
def _pattern_pair(draw):
    """Pattern a, and b built from a's shapes: each moved a little (same
    topology), stretched (one edge moved), slid to touch its old place along
    an edge only (zero-area contact), replaced or dropped; plus a few new
    shapes, in shuffled order, and a shift for b."""
    a = draw(st.lists(_shape(), max_size=5))
    b = []
    for p in a:
        x0, y0, x1, y1 = p.bbox
        action = draw(st.sampled_from(["move", "move", "stretch", "abut", "replace", "drop"]))
        if action == "move":
            b.append(p.translated(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))))
        elif action == "stretch" and len(p.vertices) == 4:
            b.append(rect(x0, y0, x1 + draw(st.integers(1, 5)), y1))
        elif action == "abut":
            b.append(p.translated(x1 - x0, 0) if draw(st.booleans()) else p.translated(0, y0 - y1))
        elif action != "drop":
            b.append(draw(_shape()))
    b += draw(st.lists(_shape(), max_size=2))
    b = draw(st.permutations(b))
    shift = Translation(draw(st.sampled_from([0, 0, 4, -4, 2])), draw(st.integers(-4, 4)))
    return _pat(*a), _pat(*b), shift


def _outcome(fn, *args):
    """The result, or the raised error's type, message and fields."""
    try:
        return fn(*args)
    except MatchError as exc:
        return type(exc), str(exc), vars(exc)


class TestKernelsAgainstOracle:
    """match_polygons and edge_displacements against the per-polygon loops."""

    @settings(max_examples=400)
    @given(_pattern_pair())
    @example((_pat(), _pat(), ZERO_SHIFT))
    @example((_pat(), _pat(rect(0, 0, 4, 4)), ZERO_SHIFT))
    @example((_pat(rect(0, 0, 4, 4)), _pat(), Translation(4, 0)))
    @example((_pat(staircase(2, 4, 4)), _pat(staircase(2, 4, 4).translated(12, 0)), ZERO_SHIFT))
    def test_same_outcome(self, pair):
        a, b, shift = pair
        got = _outcome(match_polygons, a, b, shift)
        matched = isinstance(got[0], np.ndarray)  # index arrays, not an error
        if matched:
            assert got[0].dtype == got[1].dtype == np.int64
            got = _pairs(got)
        assert got == _outcome(match_polygons_loop, a, b, shift)
        k = min(len(a.shapes), len(b.shapes))
        forced = tuple(zip(range(k), range(k)))
        for pairs in (got, forced) if matched else (forced,):
            ia, ib = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
            disp = _outcome(edge_displacements, a, b, (ia, ib))
            assert disp == _outcome(edge_displacements_loop, a, b, pairs)
            if isinstance(disp, list):
                assert all(type(d) is int for _axis, d in disp)

    def test_staircase_touching_one_step(self):
        # b's rectangle meets the staircase only along the riser of its first
        # step; moved 1 nm left it overlaps the first step's rectangle
        a = _pat(staircase(2, run=4, rise=4))
        b = _pat(rect(4, -4, 8, 4))
        with pytest.raises(NoOverlapError):
            match_polygons(a, b)
        assert _pairs(match_polygons(a, b, Translation(-1, 0))) == ((0, 0),)


class TestEdgeFitSymmetry:
    """Swapping the two patterns negates the edge-fit shift and keeps the
    residual, so a pair's alignment is the same whichever side is first."""

    @settings(max_examples=400)
    @given(_pattern_pair())
    @example((_pat(rect(0, 0, 4, 4)), _pat(rect(0, 0, 5, 4)), ZERO_SHIFT))  # odd offset hull
    def test_swap_negates_shift(self, pair):
        a, b, shift = pair
        b = _pat(*(p.translated(shift.dx, shift.dy) for p in b.shapes))
        ab, ba = edge_fit_aligned(a, b), edge_fit_aligned(b, a)
        if ab is None:
            assert ba is None
        else:
            t, r, raw = ab
            assert ba == (t.negated(), r, raw)


class TestTranslationType:
    def test_zero(self):
        assert ZERO_SHIFT.is_zero() and Translation(0, 0) == ZERO_SHIFT

    def test_negated(self):
        assert Translation(3, -5).negated() == Translation(-3, 5)
