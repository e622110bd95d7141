from collections import Counter

import pytest

from pattern_forge import pipeline
from pattern_forge.geometry import Marker, Pattern, Translation, extract_pattern
from pattern_forge.layout_io import (
    ClusterReport,
    ConstraintKind,
    LayoutDocument,
    generate_synthetic,
    read_report,
    write_report,
)
from pattern_forge.pipeline import (
    Cluster,
    IterationConfig,
    refine_cluster,
    run_full,
    verify_clusterset,
)
from pattern_forge.raster import cosine_similarity, pattern_features

from conftest import rect
from oracles import eager_solve_oracle

COS = ConstraintKind.COSINE
EDGE = ConstraintKind.EDGEMOVE


def _doc(polys, markers, kind, threshold, radius=64) -> LayoutDocument:
    return LayoutDocument(
        radius, kind, threshold,
        tuple(polys), tuple(range(len(polys))),
        tuple(markers), tuple(range(len(markers))),
    )


@pytest.fixture(scope="module")
def clean_docs():
    return {
        kind: generate_synthetic(4, 6, 0, seed=31, constraint=kind)
        for kind in (COS, EDGE)
    }


@pytest.fixture(scope="module")
def jittered_docs():
    return {
        kind: generate_synthetic(3, 5, 8, seed=32, constraint=kind)
        for kind in (COS, EDGE)
    }


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iterations=0)
        with pytest.raises(ValueError):
            IterationConfig(aligner="best")

    def test_slack_schedule(self):
        cfg = IterationConfig(max_iterations=3)
        assert [cfg.slack_fraction(i) for i in range(3)] == [1.0, 0.5, 0.0]
        assert IterationConfig(max_iterations=1).slack_fraction(0) == 0.0

    def test_slack_for_by_constraint(self):
        cfg = IterationConfig(max_iterations=3, cosine_slack=0.05, edge_slack_frac=0.25)
        cos_doc = _doc([], [], COS, 0.9)
        edge_doc = _doc([], [], EDGE, 12.0)
        assert cfg.slack_for(cos_doc, 0) == 0.05
        assert cfg.slack_for(cos_doc, 1) == 0.025
        assert cfg.slack_for(cos_doc, 2) == 0.0
        assert cfg.slack_for(edge_doc, 0) == 3.0
        assert cfg.slack_for(edge_doc, 2) == 0.0


class TestRefineCluster:
    def _edge_doc(self, marker: Marker, offset=(4, 6), threshold=10.0):
        # keep the inter-shape gap well above the offsets used below, so the
        # shifted copies still pair one-to-one with the template shapes
        template = [rect(-24, -24, 24, -8), rect(-16, 8, 16, 28)]
        polys = list(template)
        polys += [p.translated(300 + offset[0], offset[1]) for p in template]
        return _doc(polys, [Marker(0, 0, 0, 0), marker], EDGE, threshold)

    def test_identity_member(self):
        doc = self._edge_doc(Marker(292, -8, 308, 8), offset=(0, 0))
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc, IterationConfig())
        assert res is not None
        assert res.center == (300, 0)
        assert res.score == 0.0
        assert res.anchor_score == 0.0

    def test_recovers_offset_center(self):
        doc = self._edge_doc(Marker(292, -8, 308, 8))
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc, IterationConfig())
        assert res.center == (304, 6)
        assert res.score == 0.0
        assert res.anchor_score == -6.0
        assert res.score >= res.anchor_score

    def test_clamped_center_still_passes(self):
        # the ideal shift (4, 6) exceeds the marker, so the clamped (2, 2)
        # center must carry the residual and still beat the threshold
        doc = self._edge_doc(Marker(298, -2, 302, 2), threshold=5.0)
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc, IterationConfig())
        assert res is not None
        assert res.center == (302, 2)
        assert res.score == -4.0
        # the anchor is measurable (clean bijection) so its score is recorded,
        # but at offset 6 it fails the threshold and cannot be the best center
        assert res.anchor_score == -6.0

    def test_rejects_over_threshold(self):
        doc = self._edge_doc(Marker(300, 0, 300, 0), threshold=3.0)
        rep = extract_pattern(doc, (0, 0))
        assert refine_cluster(rep, doc.markers[1], doc, IterationConfig()) is None

    def test_coarse_candidate_considered(self):
        doc = self._edge_doc(Marker(292, -8, 308, 8))
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(
            rep, doc.markers[1], doc, IterationConfig(), coarse=Translation(4, 6)
        )
        assert res.center == (304, 6)

    def test_cosine_identity_and_features_shortcut(self):
        polys = [rect(-24, -24, 24, 24), rect(276, -24, 324, 24)]
        doc = _doc(polys, [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.9)
        cfg = IterationConfig()
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc, cfg)
        assert res.center == (300, 0)
        assert res.score == pytest.approx(1.0)
        pre = pattern_features(rep, cfg.grid, cfg.dct_k)
        res2 = refine_cluster(rep, doc.markers[1], doc, cfg, rep_features=pre)
        assert res2 == res

    def test_pre_extracted_anchor_gives_same_result(self, jittered_docs):
        cfg = IterationConfig()
        cases = [
            (self._edge_doc(Marker(292, -8, 308, 8)), Translation(4, 6)),
            (self._edge_doc(Marker(298, -2, 302, 2), threshold=5.0), None),
            (self._edge_doc(Marker(300, 0, 300, 0), threshold=3.0), None),
        ]
        for kind, doc in jittered_docs.items():
            cases.append((doc, None))
        for doc, coarse in cases:
            cosine = doc.constraint_kind is COS
            rep = extract_pattern(doc, doc.markers[0].center())
            for marker in doc.markers[1:]:
                anchor = extract_pattern(doc, marker.center())
                feats = pattern_features(anchor, cfg.grid, cfg.dct_k) if cosine else None
                plain = refine_cluster(rep, marker, doc, cfg, coarse=coarse)
                given_anchor = refine_cluster(
                    rep, marker, doc, cfg, coarse=coarse,
                    member_at_anchor=anchor, member_features=feats,
                )
                assert given_anchor == plain
        assert {d.constraint_kind for d, _c in cases} == {COS, EDGE}

    def test_cosine_dissimilar_rejected(self):
        polys = [rect(-24, -24, 24, 24), rect(296, -4, 304, 4)]
        doc = _doc(polys, [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.9)
        rep = extract_pattern(doc, (0, 0))
        assert refine_cluster(rep, doc.markers[1], doc, IterationConfig()) is None


class TestRunSmall:
    def test_single_marker_single_cluster_one_iteration(self):
        for kind, threshold in ((COS, 0.9), (EDGE, 10.0)):
            doc = _doc([rect(-10, -10, 10, 10)], [Marker(0, 0, 0, 0)], kind, threshold)
            clusters, report, stats = run_full(doc)
            assert report.cluster_count == 1
            assert report.iterations_used == 1
            assert report.assignments == ((0, 0, 0, 0, 0),)
            assert verify_clusterset(clusters, doc)

    def test_empty_document(self):
        doc = _doc([], [], COS, 0.9)
        clusters, report, stats = run_full(doc)
        assert report.cluster_count == 0
        assert report.assignments == ()
        assert verify_clusterset(clusters, doc)
        assert stats.compression == 0.0

    def test_two_identical_markers_merge(self):
        polys = [rect(-10, -10, 10, 10), rect(290, -10, 310, 10)]
        doc = _doc(polys, [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.9)
        clusters, report, stats = run_full(doc)
        assert report.cluster_count == 1
        assert report.iterations_used == 1
        assert verify_clusterset(clusters, doc)

    def test_defer_then_settle_as_singletons(self):
        # similarity lands between the relaxed and strict thresholds for two
        # rounds: the pair keeps its edge, refinement keeps failing, and the
        # lone representative defers until the final zero-slack round
        a = rect(-23, -20, 23, 20)
        b = rect(277, -22, 323, 22)
        doc = _doc([a, b], [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.99)
        cfg = IterationConfig()
        pa = extract_pattern(doc, (0, 0))
        pb = extract_pattern(doc, (300, 0))
        sim = cosine_similarity(
            pattern_features(pa, cfg.grid, cfg.dct_k),
            pattern_features(pb, cfg.grid, cfg.dct_k),
        )
        assert 0.968 < sim < 0.987  # inside (T - 0.025, T), clear of both edges
        clusters, report, stats = run_full(doc, cfg)
        assert report.cluster_count == 2
        assert report.iterations_used == 3
        it0 = stats.iterations[0]
        assert it0.edges == 1
        assert it0.deferred == 1
        assert it0.orphaned == 1
        assert verify_clusterset(clusters, doc)


class TestOnGraph:
    def test_sees_each_iteration_graph(self, jittered_docs):
        for kind, doc in jittered_docs.items():
            seen = []
            _clusters, report, stats = run_full(doc, on_graph=lambda it, g: seen.append((it, g)))
            assert [it for it, _g in seen] == list(range(len(stats.iterations)))
            assert seen[0][1].n == len(doc.markers)
            for (_it, g), ist in zip(seen, stats.iterations):
                assert g.edge_count == ist.edges
            assert run_full(doc)[1] == report, kind


class TestExtractOnce:
    def _count_anchor_extractions(self, doc, monkeypatch, cfg=IterationConfig()):
        centers = Counter()
        real = pipeline.extract_pattern

        def counting(d, center):
            centers[center] += 1
            return real(d, center)

        monkeypatch.setattr(pipeline, "extract_pattern", counting)
        _clusters, _report, stats = run_full(doc, cfg)
        monkeypatch.undo()
        return [centers[m.center()] for m in doc.markers], stats

    def test_each_anchor_extracted_once(self, jittered_docs, monkeypatch):
        doc = jittered_docs[COS]
        counts, stats = self._count_anchor_extractions(doc, monkeypatch)
        assert stats.refine_checks > 0
        assert counts == [1] * len(doc.markers)

    def test_once_across_iterations_and_probe(self, monkeypatch):
        # three markers: two identical patterns and a near-duplicate that
        # misses the first round, so later rounds run the probe and stage 1
        # again over markers whose anchors are already known
        polys = [
            rect(-23, -20, 23, 20), rect(277, -20, 323, 20), rect(577, -22, 623, 22),
        ]
        markers = [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)]
        doc = _doc(polys, markers, COS, 0.99)
        counts, stats = self._count_anchor_extractions(doc, monkeypatch)
        assert stats.iterations_used > 1
        assert counts == [1, 1, 1]


class TestRunGenerated:
    def test_exact_recovery_jitter_free(self, clean_docs):
        for kind, doc in clean_docs.items():
            clusters, report, stats = run_full(doc)
            assert report.cluster_count == 4, kind
            assert verify_clusterset(clusters, doc)
            assert report.iterations_used == 1
            # every marker of a template lands in one cluster
            groups = {}
            for mid, cid, _x, _y, _rep in report.assignments:
                groups.setdefault(cid, set()).add(mid // 6)
            assert all(len(v) == 1 for v in groups.values())

    def test_jittered_recovery_verified(self, jittered_docs):
        for kind, doc in jittered_docs.items():
            clusters, report, stats = run_full(doc)
            assert verify_clusterset(clusters, doc), kind
            assert report.cluster_count <= 6
            assert stats.refine_violations == 0

    def test_solver_choice_agrees(self, jittered_docs, monkeypatch):
        lazy = {kind: write_report(run_full(doc)[1]) for kind, doc in jittered_docs.items()}
        graphs = []

        def eager(g):
            graphs.append(g)
            return eager_solve_oracle(g)

        monkeypatch.setattr(pipeline.scp, "solve", eager)
        for kind, doc in jittered_docs.items():
            eager_report = write_report(run_full(doc)[1])
            assert lazy[kind] == eager_report, kind
        assert graphs

    def test_prescreen_off_agrees(self, jittered_docs):
        for kind, doc in jittered_docs.items():
            on = write_report(run_full(doc, IterationConfig(use_prescreen=True))[1])
            off = write_report(run_full(doc, IterationConfig(use_prescreen=False))[1])
            assert on == off, kind

    def test_fft_aligner_on_clean_cosine(self, clean_docs):
        doc = clean_docs[COS]
        clusters, report, stats = run_full(doc, IterationConfig(aligner="fft"))
        assert report.cluster_count == 4
        assert verify_clusterset(clusters, doc)

    def test_report_round_trip_validates(self, jittered_docs):
        for kind, doc in jittered_docs.items():
            report = run_full(doc)[1]
            data = write_report(report, doc=doc)
            back = read_report(data)
            assert back == report
            back.validate(doc)

    def test_stats_shape(self, jittered_docs):
        doc = jittered_docs[COS]
        _clusters, report, stats = run_full(doc)
        assert stats.marker_count == 15
        assert stats.cluster_count == report.cluster_count
        assert stats.iterations_used == report.iterations_used
        assert 0.0 <= stats.compression < 1.0
        assert stats.compression == pytest.approx(float(report.compression_ratio))
        js = stats.to_json()
        assert js["cluster_count"] == report.cluster_count
        assert js["compression"] == stats.compression
        assert len(js["iterations"]) == len(stats.iterations)
        for it in stats.iterations:
            assert set(it.timings_ms) >= {"extract", "prescreen", "graph", "solve", "refine"}


class TestVerify:
    def test_detects_double_assignment(self, clean_docs):
        doc = clean_docs[COS]
        found, _report, _stats = run_full(doc)
        clusters = [Cluster(c.rep_marker, c.rep_center, list(c.members)) for c in found]
        clusters[0].members.append(clusters[1].members[0])
        verdict = verify_clusterset(clusters, doc)
        assert not verdict
        assert "twice" in verdict.message or "similarity" in verdict.message

    def test_detects_cross_template_member(self, clean_docs):
        for kind in (COS, EDGE):
            doc = clean_docs[kind]
            found, _report, _stats = run_full(doc)
            clusters = [
                Cluster(c.rep_marker, c.rep_center, list(c.members)) for c in found
            ]
            moved = clusters[1].members.pop(0)
            clusters[0].members.append(moved)
            verdict = verify_clusterset(clusters, doc)
            assert not verdict

    def test_detects_center_outside_marker(self, clean_docs):
        doc = clean_docs[EDGE]
        found, _report, _stats = run_full(doc)
        clusters = [Cluster(c.rep_marker, c.rep_center, list(c.members)) for c in found]
        m, (cx, cy) = clusters[0].members[0]
        clusters[0].members[0] = (m, (cx + 1, cy))
        verdict = verify_clusterset(clusters, doc)
        assert not verdict
        assert "outside" in verdict.message

    def test_report_form_verifies(self, jittered_docs):
        for kind, doc in jittered_docs.items():
            report = run_full(doc)[1]
            assert verify_clusterset(report, doc), kind

    def test_report_names_representative(self):
        # widths 40, 56, 72: the middle window is within 8 nm of both others,
        # which are 16 nm apart, so the middle marker must represent all three
        # while the lowest marker id is the left one
        polys = [rect(x - 20 - d, -20, x + 20 + d, 20) for x, d in ((0, 0), (300, 8), (600, 16))]
        markers = [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)]
        doc = LayoutDocument(64, EDGE, 10.0, tuple(polys), (0, 1, 2), tuple(markers), (10, 11, 12))
        # the signatures differ in area, so only the all-pairs graph links them
        cfg = IterationConfig(use_prescreen=False)
        _clusters, report, _stats = run_full(doc, cfg)
        assert report.assignments == (
            (10, 0, 0, 0, 11), (11, 0, 300, 0, 11), (12, 0, 600, 0, 11),
        )
        back = read_report(write_report(report, doc=doc))
        assert back == report
        assert verify_clusterset(back, doc, cfg)
        # read as if the first member represented the cluster, 12 is 16 nm off
        first = ClusterReport(tuple(row[:4] + (10,) for row in back.assignments), 1, 1)
        verdict = verify_clusterset(first, doc, cfg)
        assert not verdict
        assert "edge offset 16 > 10.0" in verdict.message
        unknown = ClusterReport(tuple(row[:4] + (13,) for row in back.assignments), 1, 1)
        verdict = verify_clusterset(unknown, doc, cfg)
        assert not verdict
        assert "representative 13 of cluster 0 is not a marker" in verdict.message

    def test_detects_missing_marker(self, clean_docs):
        doc = clean_docs[COS]
        found, _report, _stats = run_full(doc)
        clusters = [Cluster(c.rep_marker, c.rep_center, list(c.members)) for c in found]
        clusters[0].members.pop()
        verdict = verify_clusterset(clusters, doc)
        assert not verdict
        assert "never assigned" in verdict.message
