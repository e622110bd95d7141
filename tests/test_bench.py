import importlib
import re
from pathlib import Path

import pytest

from pattern_forge.bench import (
    PRESCREEN_OFF_MAX_N,
    MatrixError,
    Scenario,
    _variants,
    parse_matrix,
    records_csv,
    render_table,
    run_matrix,
    run_scenario,
)
from pattern_forge.layout_io import ConstraintKind
from pattern_forge.synthetic import generate_synthetic
from pattern_forge.pipeline import SCHEMA, STAGES, run_full, verify_clusterset
from pattern_forge.prescreen import PrescreenStats
from pattern_forge.scp import SolverStats

COS = ConstraintKind.COSINE
EDGE = ConstraintKind.EDGEMOVE

MATRIX = """\
# toy matrix
scenario name=small templates=2 instances=3 jitter=0 constraint=cosine seed=7

scenario name=moved templates=2 instances=3 jitter=4 constraint=edgemove seed=8
"""


class TestParseMatrix:
    def test_fields_and_defaults(self):
        small, moved = parse_matrix(MATRIX)
        assert small == Scenario("small", templates=2, instances=3, seed=7)
        assert small.constraint is COS and small.jitter == 0
        assert small.radius == 512 and small.threshold is None
        assert moved.constraint is EDGE and moved.jitter == 4
        assert small.n == 6

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text(MATRIX)
        assert parse_matrix(path) == parse_matrix(MATRIX)
        assert parse_matrix(str(path)) == parse_matrix(MATRIX)

    def test_missing_path_is_named(self, tmp_path):
        for missing in ("nosuch.txt", str(tmp_path / "matrix.txt")):
            with pytest.raises(FileNotFoundError, match=re.escape(missing)):
                parse_matrix(missing)
        # a one-line matrix has spaces, so it is read as text
        (sc,) = parse_matrix("scenario name=tiny templates=2")
        assert sc == Scenario("tiny", templates=2)

    def test_comments_and_blanks_skipped(self):
        text = "\n# note\nscenario name=a  # trailing\n\n"
        (sc,) = parse_matrix(text)
        assert sc.name == "a"

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("run name=a", "expected 'scenario'"),
            ("scenario name", "key=value"),
            ("scenario name=a bogus=1", "unknown key 'bogus'"),
            ("scenario name=a threads=2", "unknown key 'threads'"),
            ("scenario name=a templates=lots", "bad value for templates"),
            ("scenario name=a constraint=fancy", "bad value for constraint"),
            ("scenario templates=2", "needs a name"),
            ("scenario name=a\nscenario name=a", "duplicate scenario name 'a'"),
            ("", "no scenarios"),
            ("# only comments\n", "no scenarios"),
        ],
    )
    def test_rejects(self, text, needle):
        with pytest.raises(MatrixError, match=needle):
            parse_matrix(text)

    def test_error_carries_line_number(self):
        with pytest.raises(MatrixError, match="line 3"):
            parse_matrix("scenario name=a\n# gap\nscenario name=a")


class TestVariants:
    def test_cosine_has_no_fft_variant(self):
        names = [v for v, _ in _variants(Scenario("x", constraint=COS))]
        assert names == ["base", "noprescreen"]

    def test_edgemove_has_no_fft_variant(self):
        names = [v for v, _ in _variants(Scenario("x", constraint=EDGE))]
        assert names == ["base", "noprescreen"]

    def test_prescreen_off_gated_by_size(self):
        big = Scenario("x", templates=5, instances=1 + PRESCREEN_OFF_MAX_N // 5)
        assert big.n > PRESCREEN_OFF_MAX_N
        assert "noprescreen" not in [v for v, _ in _variants(big)]


@pytest.fixture(scope="module")
def records():
    return run_scenario(Scenario("small", templates=2, instances=3, seed=7))


@pytest.fixture(scope="module")
def outputs():
    return run_matrix(parse_matrix("scenario name=tiny templates=2 instances=2 seed=3"))


class TestRunScenario:
    def test_one_record_per_variant(self, records):
        assert [r["variant"] for r in records] == ["base", "noprescreen"]
        assert all(r["scenario"] == "small" and r["marker_count"] == 6 for r in records)
        assert all(r["constraint"] == "cosine" and r["schema"] == SCHEMA for r in records)
        assert [r["config"]["use_prescreen"] for r in records] == [True, False]

    def test_variants_agree_on_clean_doc(self, records):
        # exact template copies: every toggle must land on the same clustering
        counts = {r["cluster_count"] for r in records}
        assert counts == {2}
        assert all(r["compression"] == pytest.approx(1 - 2 / 6) for r in records)

    def test_measured_fields_populated(self, records):
        base = records[0]
        assert base["iterations_used"] >= 1
        assert base["wall_ms"] > 0
        assert base["funnel"]["candidates"] > 0
        assert base["solver"]["pops"] > 0
        assert base["funnel"]["pairs"] >= base["funnel"]["candidates"]
        assert tuple(base["stage_ms"]) == STAGES
        assert all(base["stage_ms"][s] > 0 for s in ("extract", "prescreen", "graph", "solve", "refine"))

    def test_noprescreen_records_no_filtering(self, records):
        base, nop = records
        assert nop["funnel"]["candidates"] == nop["funnel"]["pairs"]
        assert nop["funnel"]["candidates"] >= base["funnel"]["candidates"]
        assert records_csv([nop]).splitlines()[1].split(",")[14] == "0.0000"

    def test_edgemove_scenario(self):
        recs = run_scenario(Scenario("m", templates=2, instances=3, jitter=4, constraint=EDGE, seed=8))
        assert [r["variant"] for r in recs] == ["base", "noprescreen"]
        assert len({r["cluster_count"] for r in recs}) == 1


class TestReports:
    def test_csv_shape(self, outputs):
        records, _table = outputs
        lines = records_csv(records).splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["scenario", "variant", "n", "mode", "clusters"]
        assert [f"{stage}_ms" for stage in STAGES] == header[8:14]
        assert header[14:] == ["filter_rate", "pairs", "pops", "recomps", "refine_delta"]
        assert len(lines) == 1 + len(records)
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_table_shape(self, outputs):
        records, table = outputs
        lines = table.splitlines()
        assert lines[0].startswith("scenario")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 2 + len(records)
        assert "tiny" in lines[2]

    def test_table_matches_records(self, outputs):
        records, table = outputs
        assert render_table(records) == table


def _tracer_module():
    """perfbench/tracer.py, executed from its source text (so no bytecode
    is written beside it) into a namespace of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    ns = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns


class TestTracerContract:
    """The benchmark's tracer wraps program functions by name and reads
    stats fields by name; one that is gone turns its metrics into null,
    and a traced run with a null metric is not a result."""

    def test_wrapped_functions_exist(self):
        tracer = _tracer_module()
        names = [(mod, fn) for mod, fn, _outcome, _totals in tracer["SPANNED"]]
        names += list(tracer["COUNTED"])
        missing = [
            f"{mod}.{fn}" for mod, fn in names
            if not callable(getattr(importlib.import_module(f"pattern_forge.{mod}"), fn, None))
        ]
        assert missing == []

    def test_read_stats_fields_exist(self):
        stats = PrescreenStats(total_pairs=3, after_topology=2)
        assert (stats.total_pairs, stats.after_topology, stats.after_thumbnail) == (3, 2, 2)
        solver = SolverStats()
        assert (solver.pops, solver.recomputations) == (0, 0)

    @pytest.mark.parametrize("kind", [COS, EDGE])
    def test_traced_run_has_no_null_metric(self, kind):
        tracer = _tracer_module()
        doc = generate_synthetic(3, 4, 8, seed=5, constraint=kind)
        t = tracer["Tracer"]()
        t.install()
        try:
            clusters, _report, stats = run_full(doc)
            assert verify_clusterset(clusters, doc)
        finally:
            t.uninstall()
        metrics = t.layer_metrics(stats)
        assert metrics and [name for name, value in metrics.items() if value is None] == []
        assert metrics["pipeline.iterations"] >= 1
