import hashlib
import json
import subprocess
import sys
from pathlib import Path

from pattern_forge import parse_layout, raster
from pattern_forge.geometry import extract_pattern
from pattern_forge.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_outputs.py"


def _script_module():
    """scripts/same_outputs.py, executed from its source text into a
    namespace of its own."""
    ns = {"__name__": "same_outputs", "__file__": str(SCRIPT)}
    exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), ns)
    return ns


def _outputs(record: dict, report: bytes = b"r\n", graph: bytes = b"0 1\n") -> dict:
    return {"report.csv": report, "graph.txt": graph, "record.json": json.dumps(record).encode()}


def _record(schema=3, clusters=4, **extra) -> dict:
    """A run record; `extra` fields go to the totals and to the iteration."""
    return {"schema": schema, "wall_ms": 1.0, "stage_ms": {"probe": 2.0}, "clusters": clusters, **extra,
            "iterations": [{"edges": 7, "timings_ms": {"graph": 3.0}, **extra}]}


class TestSameOutputs:
    def test_checkout_against_itself(self, tmp_path):
        layout = tmp_path / "small.lay"
        assert main(["generate", "--output", str(layout), "--templates", "2", "--instances", "3",
                     "--jitter", "4", "--seed", "3"]) == 0
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--layout", str(layout)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines == ["small.lay prescreen: same", "small.lay --no-prescreen: same", "no differences"]

    def test_compare_ignores_timings_only(self):
        compare = _script_module()["_compare"]
        a = _outputs(_record())
        timed = _record()
        timed["wall_ms"] = 9.0
        timed["iterations"][0]["timings_ms"] = {"graph": 8.0}
        assert compare(a, _outputs(timed)) == ([], [])
        assert compare(a, _outputs(_record(), graph=b"0 2\n"))[0] == ["graph.txt differs"]
        assert compare(a, _outputs(_record(clusters=5)))[0] == ["record.json differs in clusters"]
        # a field only one side has is a difference within one schema ...
        assert compare(a, _outputs(_record(skipped=1)))[0] == ["record.json differs in iterations, skipped"]

    def test_compare_across_schemas_skips_one_sided_fields(self):
        compare = _script_module()["_compare"]
        # ... and is left out, and named, across schemas
        diffs, skipped = compare(_outputs(_record(schema=2)), _outputs(_record(skipped=1)))
        assert (diffs, skipped) == ([], ["record.iterations[].skipped", "record.skipped"])
        diffs, _skipped = compare(_outputs(_record(schema=2, clusters=5)), _outputs(_record(skipped=1)))
        assert diffs == ["record.json differs in clusters"]

    def test_bench_records_compared_without_ms_columns(self, tmp_path):
        ns = _script_module()
        untimed, compare = ns["_untimed_rows"], ns["_compare_records"]
        matrix = tmp_path / "matrix.txt"
        matrix.write_text("scenario name=tiny templates=2 instances=2\n", encoding="utf-8")
        main(["bench", "--matrix", str(matrix), "--out", str(tmp_path)])
        text = (tmp_path / "records.csv").read_text(encoding="utf-8")
        header = text.splitlines()[0].split(",")
        rows = untimed(text)
        assert rows[0] == [name for name in header if not name.endswith("_ms")]
        assert "wall_ms" in header and "refine_ms" in header and "clusters" in rows[0]
        assert [r[:2] for r in rows[1:]] == [["tiny", "base"], ["tiny", "noprescreen"]]
        assert compare(text, text) == []
        # timings alone never differ; any other column does, named by its row
        csv_a = "scenario,variant,wall_ms,clusters,graph_ms\ns,base,1.0,4,2.0\ns,off,1.0,4,2.0\n"
        csv_b = "scenario,variant,wall_ms,clusters,graph_ms\ns,base,9.5,4,0.1\ns,off,1.0,5,2.0\n"
        assert untimed(csv_a) == [["scenario", "variant", "clusters"], ["s", "base", "4"], ["s", "off", "4"]]
        assert compare(csv_a, csv_b) == ["records.csv differs in s off"]
        assert compare(csv_a, csv_a.replace("clusters", "count")) == ["records.csv header differs"]
        assert compare(csv_a, csv_a + "s,extra,1.0,4,2.0\n") == ["records.csv has 3 vs 4 rows"]

    def test_feature_digest_child(self, tmp_path):
        # the child's digest is the sha256 of every window's feature bytes,
        # at each marker center and 3 nm right, 2 nm down of it
        ns = _script_module()
        paths = []
        for constraint in ("cosine", "edgemove"):
            paths.append(tmp_path / f"{constraint}.lay")
            assert main(["generate", "--output", str(paths[-1]), "--templates", "2", "--instances", "2",
                         "--constraint", constraint]) == 0
        cosine = [str(p) for p in paths if ns["_is_cosine"](str(p))]
        assert cosine == [str(paths[0])]
        lines, err = ns["_digests"](str(ROOT), ns["FEATURES"], cosine)
        assert lines is not None, err
        doc = parse_layout(paths[0].read_text(encoding="utf-8"))
        digest = hashlib.sha256()
        for marker in doc.markers:
            cx, cy = marker.center()
            for center in ((cx, cy), (cx + 3, cy - 2)):
                digest.update(raster.pattern_features(extract_pattern(doc, center)).tobytes())
        assert lines == [f"cosine.lay: {digest.hexdigest()}"]
        moved = [lines[0][:-1] + ("0" if lines[0][-1] != "0" else "1")]
        assert ns["_compare_digests"](lines, moved) == ["layouts differ: cosine.lay"]

    def test_window_table_digest_child(self, tmp_path):
        # the child's digest is the sha256 of every window's table, array by
        # array (dtype and shape, then bytes), at each marker center and 3 nm
        # right, 2 nm down of it, whichever the constraint
        ns = _script_module()
        path = tmp_path / "edgemove.lay"
        assert main(["generate", "--output", str(path), "--templates", "2", "--instances", "2",
                     "--constraint", "edgemove"]) == 0
        lines, err = ns["_digests"](str(ROOT), ns["TABLES"], [str(path)])
        assert lines is not None, err
        doc = parse_layout(path.read_text(encoding="utf-8"))
        digest = hashlib.sha256()
        for marker in doc.markers:
            cx, cy = marker.center()
            for center in ((cx, cy), (cx + 3, cy - 2)):
                rings = extract_pattern(doc, center).rings
                for a in (rings.vertices, rings.offsets, rings.rects, rings.owner, rings.bboxes):
                    digest.update(f"{a.dtype} {a.shape}".encode())
                    digest.update(a.tobytes())
        assert lines == [f"edgemove.lay: {digest.hexdigest()}"]
