import ast
import io
import re
from collections import Counter
from fractions import Fraction

import pytest

from pattern_forge import layout_io
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
from pattern_forge.geometry import extract_pattern

from conftest import rect

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
        assert doc.design_polygons[0] == rect(0, 0, 40, 40)
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
        rows, polys = doc.window_rectangles((0, 0))
        assert rows.tolist() == [[0, 0, 4, 4]] and polys.tolist() == [0]
        rows, polys = doc.window_rectangles((16, 2))
        assert rows.tolist() == [[-6, -2, -2, 2]] and polys.tolist() == [1]

    def test_empty_design(self):
        doc = LayoutDocument(8, ConstraintKind.COSINE, 0.5, (), (), (), ())
        rows, polys = doc.window_rectangles((0, 0))
        assert rows.shape == (0, 4) and polys.size == 0


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
        assert len(doc.design_polygons) == sum((3 + t) * m for t in range(k))
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
            assert m.width == 4 * jitter and m.height == 4 * jitter
        point = generate_synthetic(2, 3, 0, seed=1)
        for m in point.markers:
            assert m.width == 0 and m.height == 0

    def test_instance_counts_identify_templates(self):
        k, m = 3, 2
        doc = generate_synthetic(k, m, 6, seed=3)
        for g, marker in enumerate(doc.markers):
            pat = extract_pattern(doc, marker.center())
            assert len(pat.shapes) == 3 + g // m

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
        owners = [doc.window_rectangles(m.center())[1].tolist() for m in doc.markers]
        counts = Counter(p for polys in owners for p in set(polys))
        assert sorted(counts) == list(range(len(doc.design_polygons)))
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
