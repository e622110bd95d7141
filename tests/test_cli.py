import argparse
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from pattern_forge import cli, geometry, layout_io
from pattern_forge.cli import main
from pattern_forge.graph import dump_edges
from pattern_forge.layout_io import parse_layout, read_report
from pattern_forge.pipeline import SCHEMA, STAGES


@pytest.fixture(scope="module")
def layout_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "clean.lay"
    rc = main([
        "generate", "--output", str(path),
        "--templates", "3", "--instances", "4", "--seed", "11",
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def edge_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "edge.lay"
    rc = main([
        "generate", "--output", str(path),
        "--templates", "3", "--instances", "4", "--jitter", "4",
        "--seed", "1", "--constraint", "edgemove",
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def jittered_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "jittered.lay"
    rc = main([
        "generate", "--output", str(path),
        "--templates", "2", "--instances", "3", "--jitter", "4",
        "--seed", "9", "--constraint", "edgemove",
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_layout_and_summary(self, layout_path, capsys):
        assert layout_path.exists()
        main(["generate", "--output", str(layout_path), "--templates", "3",
              "--instances", "4", "--seed", "11"])
        err = capsys.readouterr().err
        assert "12 markers" in err

    def test_bad_arguments_exit_nonzero(self, tmp_path, capsys):
        rc = main(["generate", "--output", str(tmp_path / "x.lay"), "--templates", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCluster:
    def test_generate_cluster_verify_flow(self, layout_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["cluster", "--input", str(layout_path),
                   "--output", str(out), "--verify"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "markers=12 clusters=3" in err
        report = read_report(out)
        assert report.cluster_count == 3
        assert len(report.assignments) == 12

    def test_stdout_dash_matches_file(self, layout_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        main(["cluster", "--input", str(layout_path), "--output", str(out)])
        capsys.readouterr()
        rc = main(["cluster", "--input", str(layout_path), "--output", "-"])
        assert rc == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize(
        "flag", ["--seed", "--threads", "--solver", "--prescreen-slack", "--aligner", "--quantum", "--grid", "--dct-k"],
    )
    def test_removed_flags_rejected(self, layout_path, flag, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--input", str(layout_path), "--output", "-", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_override_matching_header_changes_nothing(self, layout_path, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["cluster", "--input", str(layout_path), "--output", str(a)])
        main(["cluster", "--input", str(layout_path), "--output", str(b),
              "--constraint", "cosine"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_overrides_replace_the_given_fields(self, layout_path):
        doc = parse_layout(layout_path)

        def overridden(radius=None, constraint=None, threshold=None):
            args = argparse.Namespace(radius=radius, constraint=constraint, threshold=threshold)
            return cli._apply_overrides(doc, args)

        # no override, or one equal to the header: the parsed document itself
        assert overridden() is doc
        assert overridden(doc.pattern_radius, "cosine", doc.threshold) is doc
        new = overridden(radius=doc.pattern_radius + 8)
        fields = [f.name for f in dataclasses.fields(doc)]
        assert fields[0] == "pattern_radius" and new.pattern_radius == doc.pattern_radius + 8
        assert all(getattr(new, name) == getattr(doc, name) for name in fields[1:])
        assert np.array_equal(new.rects, doc.rects) and np.array_equal(new.owner, doc.owner)

    def test_overrides_reuse_the_vertex_table(self, layout_path, monkeypatch):
        # a radius, constraint or threshold override hands the new document
        # the parsed table, so no polygon is decomposed again
        doc = parse_layout(layout_path)
        calls = []
        real = geometry.rectangles

        def counting(poly):
            calls.append(poly)
            return real(poly)

        for module in (geometry, layout_io):  # wherever the name is looked up
            monkeypatch.setattr(module, "rectangles", counting)
        args = argparse.Namespace(radius=doc.pattern_radius + 8, constraint="edgemove", threshold=4.0)
        new = cli._apply_overrides(doc, args)
        assert (new.pattern_radius, new.constraint_kind.value, new.threshold) == (doc.pattern_radius + 8, "edgemove", 4.0)
        assert calls == []
        assert new.rings is doc.rings and np.array_equal(new.rects, doc.rects)

    def test_threshold_override_applies(self, layout_path, tmp_path, capsys):
        # threshold 0 accepts every pair of these windows; with the
        # pre-screen off the graph is complete, so everything collapses into
        # a single cluster
        out = tmp_path / "one.csv"
        rc = main(["cluster", "--input", str(layout_path), "--output", str(out),
                   "--threshold", "0", "--no-prescreen", "--verify"])
        assert rc == 0
        capsys.readouterr()
        assert read_report(out).cluster_count == 1

    @pytest.mark.parametrize(
        "override, needle",
        [
            (["--threshold", "nan"], "finite"),
            (["--threshold", "inf"], "finite"),
            (["--threshold", "-3"], "non-negative"),
            (["--constraint", "cosine"], "outside [0, 1]"),
            (["--threshold", "1.5", "--constraint", "cosine"], "outside [0, 1]"),
        ],
    )
    def test_illegal_threshold_override_refused(self, edge_path, tmp_path, monkeypatch, capsys, override, needle):
        def no_run(*_args, **_kwargs):
            raise AssertionError("clustering ran")

        monkeypatch.setattr(cli, "run_full", no_run)
        out, rep = tmp_path / "r.csv", tmp_path / "stats.json"
        rc = main(["cluster", "--input", str(edge_path), "--output", str(out),
                   "--report", str(rep), "--verify", *override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_threshold_one_clusters_identical_windows(self, seed, tmp_path, capsys):
        # jitter 0: every instance's window holds its template's shapes, so
        # at cosine threshold 1 the templates are the clusters and the
        # run's own output verifies
        layout, out = tmp_path / "t1.lay", tmp_path / "t1.csv"
        assert main(["generate", "--output", str(layout), "--templates", "5", "--instances", "10",
                     "--seed", str(seed), "--threshold", "1"]) == 0
        assert main(["cluster", "--input", str(layout), "--output", str(out), "--verify"]) == 0
        capsys.readouterr()
        assert read_report(out.read_bytes()).cluster_count == 5

    def test_report_json(self, layout_path, tmp_path, capsys):
        out, rep = tmp_path / "r.csv", tmp_path / "stats.json"
        rc = main(["cluster", "--input", str(layout_path), "--output", str(out),
                   "--report", str(rep)])
        assert rc == 0
        capsys.readouterr()
        stats = json.loads(rep.read_text())
        assert stats["schema"] == SCHEMA
        assert stats["config"] == {"max_iterations": 3, "use_prescreen": True}
        assert (stats["constraint"], stats["threshold"]) == ("cosine", 0.9)
        assert stats["marker_count"] == 12
        assert stats["cluster_count"] == 3
        assert stats["compression"] == pytest.approx(1 - 3 / 12)
        assert stats["iterations"] and stats["iterations"][0]["iteration"] == 0
        assert stats["wall_ms"] > 0
        assert tuple(stats["stage_ms"]) == STAGES
        assert stats["stage_ms"]["probe"] == 0.0 and stats["stage_ms"]["graph"] > 0
        # 3 templates x 4 identical instances settle in one round: 66 pairs,
        # 3 x 6 within-template edges, 3 x 3 members beside the representatives
        funnel = stats["funnel"]
        assert funnel["pairs"] == 66 and funnel["pairs"] >= funnel["candidates"] >= funnel["edges"]
        assert (funnel["edges"], funnel["accepted_members"]) == (18, 9)
        assert (stats["probe_joined"], stats["deferred"], stats["orphaned"]) == (0, 0, 0)
        assert stats["solver"]["pops"] > 0
        assert (stats["probe_joined"] + funnel["accepted_members"], stats["refine_violations"]) == (9, 0)

    def test_dump_graph(self, layout_path, tmp_path, capsys):
        out, dump = tmp_path / "r.csv", tmp_path / "edges.txt"
        rc = main(["cluster", "--input", str(layout_path), "--output", str(out),
                   "--dump-graph", str(dump)])
        assert rc == 0
        capsys.readouterr()
        lines = dump.read_text().splitlines()
        # 3 templates x 4 identical instances: all within-template pairs at zero shift
        assert len(lines) == 3 * 6
        for line in lines:
            i, j = map(int, line.split())
            assert i < j

    def test_dump_graph_runs_pipeline_once(self, jittered_path, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.run_full

        def counting(*args, **kwargs):
            calls.append(kwargs.get("on_graph"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_full", counting)
        out, dump = tmp_path / "r.csv", tmp_path / "edges.txt"
        rc = main(["cluster", "--input", str(jittered_path), "--output", str(out),
                   "--dump-graph", str(dump)])
        assert rc == 0
        capsys.readouterr()
        assert len(calls) == 1 and calls[0] is not None
        graphs = []
        real(parse_layout(jittered_path), on_graph=lambda it, g: graphs.append(g))
        assert graphs[0].edge_count > 0
        assert dump.read_text() == dump_edges(graphs[0])

    def test_edgemove_flags(self, jittered_path, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["cluster", "--input", str(jittered_path), "--output", str(out),
                   "--verify"])
        assert rc == 0
        report = read_report(out)
        assert report.cluster_count <= 6
        capsys.readouterr()

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        # the missing file is named, not parsed as a one-line layout
        missing = tmp_path / "nope.lay"
        rc = main(["cluster", "--input", str(missing), "--output", "-"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err and str(missing) in err
        assert "line 1" not in err

    def test_malformed_layout_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.lay"
        bad.write_text("this is not a layout\n")
        rc = main(["cluster", "--input", str(bad), "--output", "-"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--input", "x.lay"])
        capsys.readouterr()


class TestBench:
    def test_writes_records_and_table(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.txt"
        matrix.write_text("scenario name=tiny templates=2 instances=2 seed=3\n")
        outdir = tmp_path / "bench-out"
        rc = main(["bench", "--matrix", str(matrix), "--out", str(outdir)])
        assert rc == 0
        table = (outdir / "table.txt").read_text()
        csv = (outdir / "records.csv").read_text()
        assert capsys.readouterr().out == table
        assert "tiny" in table and csv.startswith("scenario,variant,")
        assert len(csv.splitlines()) == 1 + 2  # header + one row per variant

    def test_missing_matrix_exits_nonzero(self, tmp_path, capsys):
        # the missing file is named, not parsed as a one-line matrix
        missing = tmp_path / "none.txt"
        rc = main(["bench", "--matrix", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err and str(missing) in err
        assert "line 1" not in err and "scenario" not in err


class TestEntryPoint:
    def test_module_is_runnable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pattern_forge.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "pattern-forge" in proc.stdout
        assert {"cluster", "generate", "bench"} <= set(proc.stdout.split())

    def test_cosine_run_imports_no_scipy(self):
        # numpy is the one run-time dependency: the CLI module, a cosine run
        # and its verification load no scipy module
        script = "\n".join([
            "import sys",
            "import pattern_forge.cli",
            "from pattern_forge.layout_io import ConstraintKind",
            "from pattern_forge.synthetic import generate_synthetic",
            "from pattern_forge.pipeline import run_full, verify_clusterset",
            "doc = generate_synthetic(3, 4, 4, 1)",
            "assert doc.constraint_kind is ConstraintKind.COSINE",
            "clusters, _report, stats = run_full(doc)",
            "assert verify_clusterset(clusters, doc).ok and stats.cluster_count >= 1",
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
