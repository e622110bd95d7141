import ast
import io
import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pattern_forge import geometry, layout_io
from pattern_forge.geometry import Marker
from pattern_forge.align import edge_fit_aligned
from pattern_forge.layout_io import (
    ClusterReport,
    ConstraintKind,
    LayoutDocument,
    LayoutParseError,
    parse_layout,
    read_report,
    write_layout,
    write_report,
)
from pattern_forge.synthetic import generate_synthetic
from pattern_forge.geometry import Polygon, _trace_union, extract_pattern, extract_patterns

from conftest import assert_same_rows, assert_same_table, random_rect_union, rect
from oracles import extract_pattern_loop, parse_layout_loop, polygons_of, window_rows_loop

GOOD = """\
# demo layout
HEADER RADIUS 64 CONSTRAINT COSINE THRESHOLD 0.9

POLY 0 0 0 40 0 40 40 0 40   # a square
POLY 7 100 0 140 0 140 20 120 20 120 40 100 40
MARKER 0 10 10 30 30
MARKER 3 110 5 130 25
"""


def _doc() -> LayoutDocument:
    return parse_layout(GOOD)


class TestParse:
    def test_fields(self):
        doc = _doc()
        assert doc.pattern_radius == 64
        assert doc.constraint_kind is ConstraintKind.COSINE
        assert doc.threshold == 0.9
        assert doc.polygon_ids == (0, 7)
        assert doc.marker_ids == (0, 3)
        assert polygons_of(doc.rings)[0] == rect(0, 0, 40, 40)
        assert doc.markers[1] == Marker(110, 5, 130, 25)

    def test_source_forms(self, tmp_path):
        doc = _doc()
        assert parse_layout(GOOD.encode()) == doc
        p = tmp_path / "layout.txt"
        p.write_text(GOOD)
        assert parse_layout(p) == doc
        assert parse_layout(str(p)) == doc
        assert parse_layout(io.BytesIO(GOOD.encode())) == doc
        assert parse_layout(io.StringIO(GOOD)) == doc

    def test_missing_path_is_named(self, tmp_path):
        # a str without whitespace is a path, so a typo names the file
        # instead of being parsed as a one-line document
        for missing in ("/nonexistent/x.lay", str(tmp_path / "x.lay"), "x.lay"):
            with pytest.raises(FileNotFoundError, match=re.escape(missing)):
                parse_layout(missing)
        # one-line documents have spaces, and "" is empty text
        one_line = parse_layout("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.9")
        assert one_line.pattern_radius == 8 and one_line.markers == ()
        with pytest.raises(LayoutParseError, match="missing HEADER"):
            parse_layout("")

    def test_constraint_spelling(self):
        for token in ("COSINE", "cosine", "Cosine"):
            doc = parse_layout(f"HEADER RADIUS 8 CONSTRAINT {token} THRESHOLD 0.5")
            assert doc.constraint_kind is ConstraintKind.COSINE
        doc = parse_layout("HEADER RADIUS 8 CONSTRAINT edgemove THRESHOLD 12")
        assert doc.constraint_kind is ConstraintKind.EDGEMOVE
        assert doc.threshold == 12.0

    @pytest.mark.parametrize(
        "text,line,needle",
        [
            ("POLY 0 0 0 4 0 4 4 0 4", 1, "before HEADER"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nHEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5", 2, "duplicate HEADER"),
            ("HEADER RADIUS eight CONSTRAINT COSINE THRESHOLD 0.5", 1, "bad radius"),
            ("HEADER RADIUS 8 CONSTRAINT EUCLID THRESHOLD 0.5", 1, "unknown constraint"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD high", 1, "bad threshold"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 1.5", 1, "outside [0, 1]"),
            ("HEADER RADIUS 8 CONSTRAINT EDGEMOVE THRESHOLD -3", 1, "non-negative"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD nan", 1, "finite"),
            ("HEADER RADIUS 8 THRESHOLD 0.5 CONSTRAINT COSINE", 1, "header must read"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 0 0 0 4 0 4 4", 2, "4 x,y pairs"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 0 0 0 4 0 4 4 0 4 9", 2, "4 x,y pairs"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 0 a b c d e f g h", 2, "integers"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 0 0 0 4 4 8 0 4 8", 2, "diagonal"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 0 0 0 4 0 4 4 0 4\nPOLY 0 9 9 13 9 13 13 9 13", 3, "duplicate polygon id"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nMARKER 0 1 2 3", 2, "MARKER needs"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nMARKER 0 5 5 1 1", 2, "inverted marker"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nMARKER 0 1 1 2 2\nMARKER 0 4 4 5 5", 3, "duplicate marker id"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nWIRE 0 1 2", 2, "unknown record"),
            ("# nothing here", 1, "missing HEADER"),
            ("HEADER RADIUS 0 CONSTRAINT COSINE THRESHOLD 0.5", 1, "radius"),
            ("# threshold on the header's own line\n\nHEADER RADIUS 8 CONSTRAINT EDGEMOVE THRESHOLD inf", 3, "finite"),
            ("# c\n\nHEADER RADIUS 0 CONSTRAINT COSINE THRESHOLD 0.5\n", 3, "pattern radius 0"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 1 0 0 9223372036854775808 0 9223372036854775808 5 0 5", 2, "int64"),
            ("HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 1 0 0 4 0 4 4 0 4\nMARKER 0 18446744073709551616 2 18446744073709551616 2", 3, "coordinate outside the int64 range"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, needle):
        with pytest.raises(LayoutParseError) as exc:
            parse_layout(text)
        assert exc.value.line == line
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "kind, threshold, needle",
        [
            (ConstraintKind.EDGEMOVE, float("nan"), "finite"),
            (ConstraintKind.EDGEMOVE, float("inf"), "finite"),
            (ConstraintKind.EDGEMOVE, -3.0, "non-negative"),
            (ConstraintKind.COSINE, -0.5, "non-negative"),
            (ConstraintKind.COSINE, 10.0, "outside [0, 1]"),
            (ConstraintKind.COSINE, 1.5, "outside [0, 1]"),
        ],
    )
    def test_document_enforces_threshold_rule(self, kind, threshold, needle):
        with pytest.raises(ValueError) as exc:
            LayoutDocument(8, kind, threshold, (), (), (), ())
        assert needle in str(exc.value)

    def test_threshold_bounds_are_legal(self):
        for kind, threshold in ((ConstraintKind.COSINE, 0.0), (ConstraintKind.COSINE, 1.0),
                                (ConstraintKind.EDGEMOVE, 0.0), (ConstraintKind.EDGEMOVE, 1e6)):
            assert LayoutDocument(8, kind, threshold, (), (), (), ()).threshold == threshold

    def test_self_intersecting_poly_rejected(self):
        ring = "0 0 3 0 3 1 1 1 1 3 2 3 2 2 0 2"
        text = f"HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5\nPOLY 0 {ring}"
        with pytest.raises(LayoutParseError, match="line 2.*not simple"):
            parse_layout(text)


def _ring_text(points) -> str:
    return " ".join(f"{x} {y}" for x, y in points)


HEADER = "HEADER RADIUS 8 CONSTRAINT COSINE THRESHOLD 0.5"
# the slab sweep accepts this self-crossing ring only in the orientation its
# shoelace sum gives, which the edge leaving its smallest vertex (East) calls
# clockwise
SWEPT_ONE_WAY = [(5, 1), (0, 1), (0, 0), (1, 0), (1, 4), (4, 4), (4, 2), (1, 2), (1, 3), (2, 3), (2, 2), (5, 2)]
SELF_TOUCHING = [(3, 0), (0, 0), (0, 2), (4, 2), (4, 0), (1, 0), (1, 1), (3, 1)]
AREA_MISMATCH = [(4, 4), (1, 4), (1, 1), (0, 1), (0, 2), (4, 2)]


@st.composite
def _rings(draw):
    """A ring in any orientation and from any start vertex: the boundary of
    a union of rectangles, any ring whose edges alternate between
    horizontal and vertical (simple or not), or one of the fixed rings
    above, then maybe given a repeated vertex, a diagonal edge or a vertex
    in the middle of an edge (two parallel edges in a row)."""
    source = draw(st.sampled_from(["union", "union", "alternating", "alternating", "fixed"]))
    if source == "union":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        points = list(_trace_union(random_rect_union(rng, n_rects=draw(st.integers(1, 3))))[0])
    elif source == "fixed":
        points = list(draw(st.sampled_from([SWEPT_ONE_WAY, SELF_TOUCHING, AREA_MISMATCH])))
    else:
        k = draw(st.integers(2, 5))
        xs = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
        ys = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
        points = [p for i in range(k) for p in ((xs[i], ys[i]), (xs[(i + 1) % k], ys[i]))]
    n = len(points)
    fault = draw(st.sampled_from([None] * 6 + ["repeat", "diagonal", "parallel"]))
    i = draw(st.integers(0, n - 1))
    if fault == "repeat":
        points.insert(draw(st.integers(0, n)), points[i])
    elif fault == "diagonal":
        x, y = points[i]
        points[i] = (x + 1, y) if draw(st.booleans()) else (x, y + 1)
    elif fault == "parallel":
        (x0, y0), (x1, y1) = points[i], points[(i + 1) % n]
        points.insert(i + 1, ((x0 + x1) // 2, (y0 + y1) // 2))
    if draw(st.booleans()):
        points.reverse()
    k = draw(st.integers(0, len(points) - 1))
    dx, dy = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    return [(x + dx, y + dy) for x, y in points[k:] + points[:k]]


@st.composite
def _layouts(draw):
    """Layout text of a few rings, maybe with a faulty record (a syntax
    error, a duplicate polygon id or an inverted marker) on any line after
    the header."""
    lines = [HEADER] + [f"POLY {k} {_ring_text(ring)}" for k, ring in enumerate(draw(st.lists(_rings(), min_size=1, max_size=4)))]
    record = draw(st.sampled_from([None, None, None, "POLY 9 0 0 4 0 4 4", "POLY 0 100 100 104 100 104 104 100 104", "MARKER 5 5 5 1 1"]))
    if record is not None:
        lines.insert(draw(st.integers(1, len(lines))), record)
    return "\n".join(lines + ["MARKER 1 0 0 2 2"]) + "\n"


def _layout(*rings, after=()) -> str:
    return "\n".join([HEADER, *(f"POLY {k} {_ring_text(ring)}" for k, ring in enumerate(rings)), *after]) + "\n"


class TestArrayParse:
    @settings(max_examples=400)
    @given(_layouts())
    @example(_layout(SWEPT_ONE_WAY))
    @example(_layout(SWEPT_ONE_WAY[::-1], [(0, 0), (4, 0), (4, 4), (0, 4)]))
    @example(_layout([(0, 0), (4, 0), (4, 4), (0, 4)], SELF_TOUCHING))
    @example(_layout(AREA_MISMATCH, after=["POLY 0 9 9 13 9 13 13 9 13"]))
    @example(_layout([(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 0), (4, 4), (4, 8), (0, 8)], after=["POLY x"]))
    @example(_layout([(0, 0), (4, 0), (4, 4), (0, 4)], after=["POLY 0 0 0 4 0 4 4 3 3"]))  # the duplicate is diagonal
    @example(_layout(*[[(0, 0), (4, 0), (4, 4), (0, 4)]] * 3, after=["POLY 1 0 0 4 0 4 4 0 4"]))
    @example(_layout())
    def test_matches_the_per_polygon_parse(self, text):
        # valid input: the same normalised rings, bboxes and rectangle
        # table; invalid input: the same error at the same line
        try:
            want = parse_layout_loop(text)
        except LayoutParseError as exc:
            with pytest.raises(LayoutParseError) as got:
                parse_layout(text)
            assert (got.value.line, str(got.value)) == (exc.line, str(exc))
            return
        doc = parse_layout(text)
        assert polygons_of(doc.rings) == want.polygons
        assert doc.rings.bboxes.tolist() == [list(p.bbox) for p in want.polygons]
        assert (doc.polygon_ids, doc.markers, doc.marker_ids) == (want.polygon_ids, want.markers, want.marker_ids)
        rows = [(rc, k) for k, rs in enumerate(want.pieces) for rc in rs]
        rows.sort(key=lambda row: row[0][0])  # stable, by xlo
        assert doc.rects.tolist() == [list(rc) for rc, _k in rows]
        assert doc.owner.tolist() == [k for _rc, k in rows]
        assert doc.widest == max((rc[2] - rc[0] for rc, _k in rows), default=0)

    def test_int64_overflow_in_line_order(self):
        big = [(0, 0), (2**63, 0), (2**63, 5), (0, 5)]
        diagonal = [(0, 0), (4, 4), (4, 8), (0, 8)]
        with pytest.raises(LayoutParseError, match="line 3: coordinate outside the int64 range"):
            parse_layout(_layout([(0, 0), (4, 0), (4, 4), (0, 4)], big, after=["POLY 7 0 0"]))
        with pytest.raises(LayoutParseError, match="line 2: diagonal edge"):
            parse_layout(_layout(diagonal, big))
        corner = [(2**63 - 8, -2**63), (2**63 - 1, -2**63), (2**63 - 1, 5 - 2**63), (2**63 - 8, 5 - 2**63)]
        assert parse_layout(_layout(corner[::-1])).rings.vertices.tolist() == [list(v) for v in corner]

    def test_widest_row_spans_the_int64_range(self):
        # the width of a row whose sides lie 2**64 - 1 apart is exact, so the
        # window query still reaches the row
        doc = parse_layout(_layout([(-2**63, 0), (2**63 - 1, 0), (2**63 - 1, 5), (-2**63, 5)]))
        assert doc.widest == 2**64 - 1
        rows, owners, sizes = doc.window_rows([(0, 2)])
        r = doc.pattern_radius
        assert rows.tolist() == [[-r, -2, r, 3]] and owners.tolist() == [0] and sizes.tolist() == [1]

    def test_window_far_from_the_row_sides_does_not_wrap(self):
        # the row's sides lie more than 2**63 from the center, further than
        # int64 can subtract, so it is clipped to the window first
        doc = parse_layout(_layout([(-2**63, 0), (2**63 - 1, 0), (2**63 - 1, 5), (-2**63, 5)]))
        assert doc.pattern_radius == 8
        rows, owners, _sizes = doc.window_rows([(2**62, 2)])
        assert rows.tolist() == [[-8, -2, 8, 3]] and owners.tolist() == [0]
        # windows at the int64 corners of the same row
        for cx in (-2**63, 2**63 - 1):
            rows, _owners, _sizes = doc.window_rows([(cx, 2)])
            assert rows.tolist() == [[0, -2, 8, 3] if cx < 0 else [-8, -2, 0, 3]]
        # a row whose far side lies 2**63 - 1 from the center, or just
        # beyond, on either side of the center
        doc = parse_layout(_layout([(0, 0), (2**63 - 1, 0), (2**63 - 1, 5), (0, 5)]))
        assert doc.window_rows([(0, 2)])[0].tolist() == [[0, -2, 8, 3]]
        assert doc.window_rows([(-1, 2)])[0].tolist() == [[1, -2, 8, 3]]
        doc = parse_layout(_layout([(-2**63, 0), (0, 0), (0, 5), (-2**63, 5)]))
        assert doc.window_rows([(0, 0)])[0].tolist() == [[-8, 0, 0, 5]]
        assert doc.window_rows([(1, 1)])[0].tolist() == [[-8, -1, -1, 4]]

    def test_numpy_integer_center(self):
        # a center read from an array holds numpy integers; the query takes
        # them as the Python ints they equal
        doc = parse_layout(_layout([(-2**63, 0), (2**63 - 1, 0), (2**63 - 1, 5), (-2**63, 5)],
                                   [(0, 20), (4, 20), (4, 24), (0, 24)]))
        for center in ((2**62, 2), (-2**63, 2), (2**63 - 1, 2), (3, 1), (-7, 9), (2, 18)):
            got = doc.window_rows([tuple(np.int64(c) for c in center)])
            want = doc.window_rows([center])
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert doc.window_rows([(np.int64(2**62), np.int64(2))])[0].tolist() == [[-8, -2, 8, 3]]

    def test_int64_edge_centers_in_a_batch(self):
        # the centers of the no-wrap test above, mixed with ordinary ones in
        # batches that span several chunks, as Python and numpy integers:
        # each window's rows and table are those of its own query
        far = [(-2**63, 0), (2**63 - 1, 0), (2**63 - 1, 5), (-2**63, 5)]
        layouts = [
            (_layout(far, [(0, 20), (4, 20), (4, 24), (0, 24)]), [(2**62, 2), (-2**63, 2), (2**63 - 1, 2)]),
            (_layout([(0, 0), (2**63 - 1, 0), (2**63 - 1, 5), (0, 5)]), [(0, 2), (-1, 2)]),
            (_layout([(-2**63, 0), (0, 0), (0, 5), (-2**63, 5)]), [(0, 0), (1, 1)]),
        ]
        for text, edge in layouts:
            doc = parse_layout(text)
            centers = [(3, 1), *edge, (-7, 9), (2, 18), edge[0], (0, 40)]
            for batch in (centers, [tuple(map(np.int64, c)) for c in centers]):
                assert_same_rows(doc.window_rows(batch), window_rows_loop(doc, centers))
                for chunk in (1, 2, 3, geometry.WINDOW_CHUNK):
                    with mock.patch.object(geometry, "WINDOW_CHUNK", chunk):
                        got = extract_patterns(doc, batch)
                    for p, c in zip(got, centers, strict=True):
                        assert_same_table(p, extract_pattern_loop(doc, c))

    def test_rectangles_build_no_polygon(self, monkeypatch):
        rng = random.Random(5)
        rings = []
        for _ in range(40):
            x, y = rng.randrange(-1000, 1000), rng.randrange(-1000, 1000)
            ring = [(x, y), (x + rng.randrange(1, 50), y), (x + 60, y + 70), (x, y + 70)]
            ring[2] = (ring[1][0], ring[2][1])
            ring = ring[::-1] if rng.random() < 0.5 else ring
            k = rng.randrange(4)
            rings.append(ring[k:] + ring[:k])
        calls = []
        init = Polygon.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polygon, "__init__", counting)
        doc = parse_layout(_layout(*rings))
        assert calls == [] and len(doc.polygon_ids) == 40
        assert doc.rects.tolist() == sorted(doc.rings.bboxes.tolist(), key=lambda row: row[0])
        parse_layout(GOOD)  # a square and an L: one Polygon, for the L's slab sweep
        assert len(calls) == 1


class TestDocumentEquality:
    def test_equality_reads_the_vertex_table(self):
        doc = _doc()
        assert (doc == parse_layout(GOOD)) is True
        grown = LayoutDocument(doc.pattern_radius, doc.constraint_kind, doc.threshold,
                               (rect(0, 0, 40, 41), polygons_of(doc.rings)[1]), doc.polygon_ids,
                               doc.markers, doc.marker_ids)
        assert (doc == grown) is False
        assert (doc.rings == grown.rings) is False
        assert doc != "a layout" and doc.rings != doc.rings.vertices.tolist()

    @pytest.mark.parametrize("kind", list(ConstraintKind))
    def test_generated_round_trip(self, kind):
        doc = generate_synthetic(3, 2, 4, seed=7, constraint=kind)
        assert parse_layout(write_layout(doc)) == doc


class TestWrite:
    def test_byte_round_trip(self, tmp_path):
        doc = _doc()
        data = write_layout(doc)
        assert parse_layout(data) == doc
        assert write_layout(parse_layout(data)) == data

    def test_threshold_survives_exactly(self):
        for t in (0.9, 0.123456789012345, 1 / 3):
            doc = LayoutDocument(8, ConstraintKind.COSINE, t, (), (), (), ())
            assert parse_layout(write_layout(doc)).threshold == t

    def test_sinks(self, tmp_path):
        doc = _doc()
        path = tmp_path / "out.layout"
        data = write_layout(doc, path)
        assert path.read_bytes() == data
        buf = io.BytesIO()
        write_layout(doc, buf)
        assert buf.getvalue() == data


class TestWindowRectangles:
    def test_positive_overlap_only(self):
        text = (
            "HEADER RADIUS 10 CONSTRAINT COSINE THRESHOLD 0.5\n"
            "POLY 0 0 0 4 0 4 4 0 4\n"        # inside the window at (0, 0)
            "POLY 1 10 0 14 0 14 4 10 4\n"    # touches x = +10 edge only
            "POLY 2 -30 0 -26 0 -26 4 -30 4\n"  # far away
        )
        doc = parse_layout(text)
        rows, polys, _sizes = doc.window_rows([(0, 0)])
        assert rows.tolist() == [[0, 0, 4, 4]] and polys.tolist() == [0]
        rows, polys, _sizes = doc.window_rows([(16, 2)])
        assert rows.tolist() == [[-6, -2, -2, 2]] and polys.tolist() == [1]

    def test_empty_design(self):
        doc = LayoutDocument(8, ConstraintKind.COSINE, 0.5, (), (), (), ())
        rows, polys, sizes = doc.window_rows([(0, 0)])
        assert rows.shape == (0, 4) and polys.size == 0 and sizes.tolist() == [0]


class TestClusterReport:
    def _report(self):
        return ClusterReport(((0, 0, 15, 15, 9), (3, 1, 115, 15, 3), (9, 0, 16, 14, 9)), 2, 2)

    def test_compression_ratio(self):
        assert self._report().compression_ratio == Fraction(1, 3)
        assert ClusterReport((), 0, 1).compression_ratio == 0

    def test_validate_dense_ids(self):
        bad = ClusterReport(((0, 0, 1, 1, 0), (1, 2, 1, 1, 1)), 3, 1)
        with pytest.raises(ValueError, match="dense"):
            bad.validate()

    def test_validate_double_assignment(self):
        bad = ClusterReport(((0, 0, 1, 1, 0), (0, 1, 1, 1, 0)), 2, 1)
        with pytest.raises(ValueError, match="twice"):
            bad.validate()

    def test_validate_one_representative_per_cluster(self):
        bad = ClusterReport(((0, 0, 1, 1, 0), (1, 0, 1, 1, 1)), 1, 1)
        with pytest.raises(ValueError, match="cluster 0 names representatives 0 and 1"):
            bad.validate()

    def test_validate_representative_is_a_marker(self):
        bad = ClusterReport(((0, 0, 1, 1, 0), (1, 1, 1, 1, 7)), 2, 1)
        with pytest.raises(ValueError, match="representative 7 of cluster 1 is not a marker"):
            bad.validate()

    def test_validate_against_document(self):
        doc = _doc()
        ok = ClusterReport(((0, 0, 15, 15, 0), (3, 1, 115, 15, 3)), 2, 1)
        ok.validate(doc)
        missing = ClusterReport(((0, 0, 15, 15, 0),), 1, 1)
        with pytest.raises(ValueError, match="do not match"):
            missing.validate(doc)
        outside = ClusterReport(((0, 0, 95, 15, 0), (3, 1, 115, 15, 3)), 2, 1)
        with pytest.raises(ValueError, match="outside marker"):
            outside.validate(doc)

    def test_round_trip(self, tmp_path):
        rep = self._report()
        data = write_report(rep)
        text = data.decode()
        assert text.splitlines()[0] == "marker_id,cluster_id,center_x,center_y,rep_marker_id"
        assert text.splitlines()[1] == "0,0,15,15,9"
        assert text.splitlines()[-1] == "# clusters=2 iterations=2 compression=0.333333"
        assert read_report(data) == rep
        path = tmp_path / "rep.csv"
        write_report(rep, path)
        assert read_report(path) == rep

    def test_read_missing_path_is_named(self, tmp_path):
        for missing in ("/nonexistent/r.csv", str(tmp_path / "r.csv")):
            with pytest.raises(FileNotFoundError, match=re.escape(missing)):
                read_report(missing)
        with pytest.raises(ValueError, match="header row"):
            read_report("")

    def test_write_report_validates(self):
        bad = ClusterReport(((0, 0, 1, 1, 0), (0, 1, 1, 1, 0)), 2, 1)
        with pytest.raises(ValueError):
            write_report(bad)

    def test_read_rejects_malformed(self):
        with pytest.raises(ValueError, match="header row"):
            read_report("nope\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header row"):
            read_report("marker_id,cluster_id,center_x,center_y\n1,0,2,2\n")
        with pytest.raises(ValueError, match="summary"):
            read_report("marker_id,cluster_id,center_x,center_y,rep_marker_id\n1,0,2,2,1\n")
        with pytest.raises(ValueError, match="lacks iterations="):
            read_report("marker_id,cluster_id,center_x,center_y,rep_marker_id\n1,0,2,2,1\n# clusters=1\n")
        with pytest.raises(ValueError, match="lacks clusters="):
            read_report("marker_id,cluster_id,center_x,center_y,rep_marker_id\n1,0,2,2,1\n# iterations=1\n")
        with pytest.raises(ValueError, match="needs 5 fields"):
            read_report("marker_id,cluster_id,center_x,center_y,rep_marker_id\n1,0,2,2\n")
        # a field that is not an integer names its row, as a short row does
        with pytest.raises(ValueError, match=re.escape("report row '1,0,x,2,1' has a non-integer field")):
            read_report("marker_id,cluster_id,center_x,center_y,rep_marker_id\n1,0,x,2,1\n# clusters=1 iterations=1\n")


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(3, 4, 8, seed=11)
        b = generate_synthetic(3, 4, 8, seed=11)
        assert write_layout(a) == write_layout(b)
        c = generate_synthetic(3, 4, 8, seed=12)
        assert write_layout(c) != write_layout(a)

    def test_population(self):
        k, m = 4, 3
        doc = generate_synthetic(k, m, 0, seed=5)
        assert len(doc.markers) == k * m
        assert doc.marker_ids == tuple(range(k * m))
        assert len(doc.rings) == sum((3 + t) * m for t in range(k))
        assert doc.constraint_kind is ConstraintKind.COSINE
        assert doc.threshold == 0.9

    def test_edgemove_defaults(self):
        doc = generate_synthetic(2, 2, 4, seed=5, constraint=ConstraintKind.EDGEMOVE)
        assert doc.threshold == 10.0
        doc2 = generate_synthetic(
            2, 2, 4, seed=5, constraint=ConstraintKind.EDGEMOVE, threshold=6.5
        )
        assert doc2.threshold == 6.5

    def test_marker_geometry(self):
        jitter = 8
        doc = generate_synthetic(2, 3, jitter, seed=1)
        for m in doc.markers:
            assert m.xhi - m.xlo == 4 * jitter and m.yhi - m.ylo == 4 * jitter
        point = generate_synthetic(2, 3, 0, seed=1)
        for m in point.markers:
            assert (m.xlo, m.ylo) == (m.xhi, m.yhi)

    def test_instance_counts_identify_templates(self):
        k, m = 3, 2
        doc = generate_synthetic(k, m, 6, seed=3)
        for g, marker in enumerate(doc.markers):
            pat = extract_pattern(doc, marker.center())
            assert len(pat.rings) == 3 + g // m

    def test_instances_are_rigid_translations(self):
        doc = generate_synthetic(2, 3, 10, seed=9, constraint=ConstraintKind.EDGEMOVE)
        m = 3
        for k in range(2):
            base = extract_pattern(doc, doc.markers[k * m].center())
            for i in range(1, m):
                other = extract_pattern(doc, doc.markers[k * m + i].center())
                fit = edge_fit_aligned(base, other)
                assert fit is not None
                t, residual, _raw = fit
                assert residual == 0
                assert max(abs(t.dx), abs(t.dy)) <= 2 * 10

    def test_window_isolation(self):
        doc = generate_synthetic(3, 3, 8, seed=2)
        owners = [doc.window_rows([m.center()])[1].tolist() for m in doc.markers]
        counts = Counter(p for polys in owners for p in set(polys))
        assert sorted(counts) == list(range(len(doc.rings)))
        assert set(counts.values()) == {1}  # each polygon in exactly one marker window

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 1, 0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(1, 0, 0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, -1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, 200, seed=0, radius=512)


def _package_imports(path: str) -> set[str]:
    """The pattern_forge modules a source file imports, relative or absolute."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("pattern_forge" if node.level else "", node.module)))
            names += [f"{base}.{a.name}" for a in node.names] if base == "pattern_forge" else [base]
    return {n.split(".")[1] for n in names if n.startswith("pattern_forge.")}


class TestModuleGraph:
    def test_layout_io_imports_geometry_alone(self):
        # the document model, the text formats and the report need no
        # aligner and no raster; the synthetic generator brings its own
        assert _package_imports(layout_io.__file__) == {"geometry"}
