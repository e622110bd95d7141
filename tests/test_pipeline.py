import copy
import dataclasses
import json
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_forge import align, geometry, layout_io, pipeline, raster
from pattern_forge.geometry import Marker, Pattern, Polygon, extract_pattern
from pattern_forge.layout_io import (
    ClusterReport,
    ConstraintKind,
    LayoutDocument,
    parse_layout,
    read_report,
    write_layout,
    write_report,
)
from pattern_forge.synthetic import generate_synthetic
from pattern_forge.pipeline import (
    SCHEMA,
    STAGES,
    Cluster,
    IterationConfig,
    Verdict,
    refine_cluster,
    refine_members,
    run_full,
    verify_clusterset,
)
from pattern_forge.raster import cosine_similarity, pattern_features

from conftest import rect
from oracles import (
    eager_solve_oracle,
    polygons_of,
    probe_loop,
    refine_member_cosine,
    refine_member_edgemove,
    verify_loop,
)

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
        with pytest.raises(TypeError):
            IterationConfig(aligner="geo")

    def test_slack_schedule(self):
        cfg = IterationConfig(max_iterations=3)
        assert [cfg.slack_fraction(i) for i in range(3)] == [1.0, 0.5, 0.0]
        assert IterationConfig(max_iterations=1).slack_fraction(0) == 0.0

    def test_slack_for_by_constraint(self):
        cfg = IterationConfig(max_iterations=3)
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
        res = refine_cluster(rep, doc.markers[1], doc)
        assert res is not None
        assert res.center == (300, 0)
        assert res.score == 0.0
        assert res.anchor_score == 0.0

    def test_recovers_offset_center(self):
        doc = self._edge_doc(Marker(292, -8, 308, 8))
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc)
        assert res.center == (304, 6)
        assert res.score == 0.0
        assert res.anchor_score == -6.0
        assert res.score >= res.anchor_score

    def test_member_at_anchor_paired_once(self, monkeypatch):
        # the aligner's pairing of the member at its anchor also gives the
        # anchor's raw offset: an identical member costs one scored pair, a
        # shifted one a second for its aligned center
        calls = []
        real = align.edge_fits

        def counting(rep, patterns):
            calls.extend(patterns)
            return real(rep, patterns)

        monkeypatch.setattr(align, "edge_fits", counting)
        for offset, expected in (((0, 0), 1), ((4, 6), 2)):
            doc = self._edge_doc(Marker(292, -8, 308, 8), offset=offset)
            rep = extract_pattern(doc, (0, 0))
            calls.clear()
            assert refine_cluster(rep, doc.markers[1], doc) is not None
            assert len(calls) == expected

    def test_clamped_center_still_passes(self):
        # the ideal shift (4, 6) exceeds the marker, so the clamped (2, 2)
        # center must carry the residual and still beat the threshold
        doc = self._edge_doc(Marker(298, -2, 302, 2), threshold=5.0)
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc)
        assert res is not None
        assert res.center == (302, 2)
        assert res.score == -4.0
        # the anchor is measurable (clean bijection) so its score is recorded,
        # but at offset 6 it fails the threshold and cannot be the best center
        assert res.anchor_score == -6.0

    def test_rejects_over_threshold(self):
        doc = self._edge_doc(Marker(300, 0, 300, 0), threshold=3.0)
        rep = extract_pattern(doc, (0, 0))
        assert refine_cluster(rep, doc.markers[1], doc) is None

    def test_cosine_identity_and_features_shortcut(self):
        polys = [rect(-24, -24, 24, 24), rect(276, -24, 324, 24)]
        doc = _doc(polys, [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.9)
        rep = extract_pattern(doc, (0, 0))
        res = refine_cluster(rep, doc.markers[1], doc)
        assert res.center == (300, 0)
        assert res.score == pytest.approx(1.0)
        # a representative that already holds its features gives the same
        fresh = Pattern(rep.center, rep.radius, polygons_of(rep.rings))
        fresh.features  # computed here and kept
        assert refine_cluster(fresh, doc.markers[1], doc) == res

    def test_pre_extracted_anchor_gives_same_result(self, jittered_docs):
        cases = [
            self._edge_doc(Marker(292, -8, 308, 8)),
            self._edge_doc(Marker(298, -2, 302, 2), threshold=5.0),
            self._edge_doc(Marker(300, 0, 300, 0), threshold=3.0),
        ]
        cases.extend(jittered_docs.values())
        for doc in cases:
            rep = extract_pattern(doc, doc.markers[0].center())
            for marker in doc.markers[1:]:
                anchor = extract_pattern(doc, marker.center())
                plain = refine_cluster(rep, marker, doc)
                assert refine_cluster(rep, marker, doc, member_at_anchor=anchor) == plain
        assert {d.constraint_kind for d in cases} == {COS, EDGE}

    def test_cosine_dissimilar_rejected(self):
        polys = [rect(-24, -24, 24, 24), rect(296, -4, 304, 4)]
        doc = _doc(polys, [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.9)
        rep = extract_pattern(doc, (0, 0))
        assert refine_cluster(rep, doc.markers[1], doc) is None


# Layouts for batched refinement and verification. Marker 0 is the
# representative's point marker at (0, 0); marker k sits at (300k, 0) with
# the same shapes moved by (ox, oy), one rectangle's right and top edges
# moved by `stretch` (which moves the edgemove aligned center by about
# stretch / 2 on both axes), and a marker of half extents (hx, hy). Around
# the window (radius 40) lie an inverted U whose base is `u` beyond the top
# edge (in two pieces while the window's top edge stays below the base), a
# rectangle `g` beyond the right edge (gained when the window moves right)
# and one reaching 2 + `l` into the window from the left (lost when it
# moves right). A member's polygons may be listed in reverse order (no
# identity correspondence: the per-pair edgemove fallback), lack one
# rectangle or carry an extra one (unequal counts), have the left
# rectangle jogged by (4, 4) against the rest (the cosine aligner can follow
# it away from the better anchor), or be absent (an empty window).
LAYOUT_RADIUS = 40
VARIANTS = ("same", "reversed", "drop", "extra", "jog", "empty")


def _member_shapes(u, g, l, stretch, variant):
    if variant == "empty":
        return []
    shapes = [
        rect(-46 + l, -8, -38 + l, 8),
        rect(-30, -30, -14 + stretch, -14 + stretch),
        rect(0, -30, 24, -16),
        Polygon.from_vertices([(-20, 10), (-12, 10), (-12, 40 + u), (12, 40 + u), (12, 10), (20, 10),
                               (20, 46 + u), (-20, 46 + u)]),
        rect(40 + g, -8, 52 + g, 8),
    ]
    if variant == "drop":
        del shapes[2]
    elif variant == "extra":
        shapes.append(rect(-8, -8, -2, -2))
    elif variant == "reversed":
        shapes.reverse()
    elif variant == "jog":
        shapes[0] = shapes[0].translated(4, 4)
    return shapes


def _layout(threshold, u, g, l, members, kind=EDGE) -> LayoutDocument:
    """members: (ox, oy, hx, hy, stretch, variant) per member marker."""
    polys = list(_member_shapes(u, g, l, 0, "same"))
    markers = [Marker(0, 0, 0, 0)]
    for k, (ox, oy, hx, hy, stretch, variant) in enumerate(members, start=1):
        x = 300 * k
        polys += [p.translated(x + ox, oy) for p in _member_shapes(u, g, l, stretch, variant)]
        markers.append(Marker(x - hx, -hy, x + hx, hy))
    return _doc(polys, markers, kind, threshold, radius=LAYOUT_RADIUS)


_member = st.tuples(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 8), st.integers(0, 8),
    st.integers(-4, 4), st.sampled_from(VARIANTS),
)
_LAYOUTS = {
    kind: st.builds(
        _layout, st.sampled_from(thresholds), st.integers(-4, 4), st.integers(0, 4),
        st.integers(0, 4), st.lists(_member, min_size=1, max_size=6), st.just(kind),
    )
    for kind, thresholds in ((EDGE, [2.0, 3.0, 6.0]), (COS, [0.9, 0.97, 0.99]))
}
REFERENCES = {EDGE: refine_member_edgemove, COS: refine_member_cosine}

# hand-picked layouts that between them take every path `_refine_paths` names
PICKED = [
    _layout(3.0, -2, 0, 4, [(0, 0, 4, 4, -4, "same"), (0, 0, 4, 4, 4, "same"), (6, 0, 2, 2, 0, "same"),
                            (3, -2, 4, 4, 1, "same"), (0, 0, 4, 4, 0, "reversed"), (0, 0, 4, 4, 0, "drop")]),
    _layout(3.0, -4, 4, 0, [(0, 0, 4, 4, 4, "same"), (0, 0, 0, 0, 0, "extra")]),
]
# ... and in cosine mode, every path `_cosine_paths` names
PICKED_COSINE = [
    _layout(0.9, 0, 2, 0, [(0, 0, 0, 0, 0, "empty"), (6, -6, 2, 2, 0, "same"), (0, 0, 4, 4, 0, "same"),
                           (3, 2, 6, 6, 0, "same"), (0, 0, 6, 6, 0, "jog")], COS),
]


def _refine_paths(doc) -> set:
    """The paths refinement takes for the members of an edgemove `_layout`."""
    rep = extract_pattern(doc, (0, 0))
    paths = set()
    for marker in doc.markers[1:]:
        anchor = marker.center()
        at_anchor = extract_pattern(doc, anchor)
        if len(at_anchor.rings) != len(rep.rings):
            paths.add("unequal counts")
            continue
        if rep.layout_key != at_anchor.layout_key:
            paths.add("fallback")
        fit = align.edge_fit_aligned(rep, at_anchor)
        if fit is None:
            continue
        c = align.clamp_to_marker(fit[0], anchor, marker)
        if c != fit[0]:
            paths.add("clamped")
        center = (anchor[0] + c.dx, anchor[1] + c.dy)
        polys = [len(set(doc.window_rows([x])[1].tolist())) for x in (anchor, center)]
        if polys[1] != polys[0]:
            paths.add("gains" if polys[1] > polys[0] else "loses")
        if len(extract_pattern(doc, center).rings) - polys[1] > len(at_anchor.rings) - polys[0]:
            paths.add("splits")
    return paths


def _cosine_paths(doc) -> set:
    """The paths refinement takes for the members of a cosine `_layout`."""
    rep = extract_pattern(doc, (0, 0))
    paths = set()
    for marker in doc.markers[1:]:
        anchor = marker.center()
        result = refine_member_cosine(rep, marker, doc)
        if result is None:
            paths.add("refused")
        try:
            shift = align.xy_minmax_align(rep, extract_pattern(doc, anchor))
        except align.NoCorrespondenceError:
            paths.add("empty")
            continue
        c = align.clamp_to_marker(shift, anchor, marker)
        if c != shift:
            paths.add("clamped")
        if c.is_zero():
            paths.add("aligned at anchor")
        elif result is not None:
            paths.add("anchor wins" if result.center == anchor else "aligned wins")
    return paths


def _refine_both(doc):
    """(batched refinement, per-member reference) of every member of a
    `_layout` against marker 0; refine_cluster must agree member by
    member."""
    rep = extract_pattern(doc, (0, 0))
    members = [(m, extract_pattern(doc, m.center())) for m in doc.markers[1:]]
    reference = REFERENCES[doc.constraint_kind]
    expected = [reference(rep, m, doc, member_at_anchor=p) for m, p in members]
    assert [refine_cluster(rep, m, doc) for m, _p in members] == expected
    return refine_members(rep, members, doc), expected


class TestRefineEdgemove:
    @given(_LAYOUTS[EDGE])
    def test_equals_per_member_reference(self, doc):
        got, expected = _refine_both(doc)
        assert got == expected

    def test_picked_layouts_take_every_path(self):
        paths = set()
        outcomes = set()
        for doc in PICKED:
            got, expected = _refine_both(doc)
            assert got == expected
            outcomes |= {r is None for r in got}
            paths |= _refine_paths(doc)
        assert paths == {"unequal counts", "fallback", "clamped", "gains", "loses", "splits"}
        assert outcomes == {True, False}

    def test_no_members(self):
        for doc in (PICKED[0], PICKED_COSINE[0]):
            assert refine_members(extract_pattern(doc, (0, 0)), [], doc) == []


class TestRefineCosine:
    @given(_LAYOUTS[COS])
    def test_equals_per_member_reference(self, doc):
        got, expected = _refine_both(doc)
        assert got == expected

    def test_picked_layouts_take_every_path(self):
        paths = set()
        for doc in PICKED_COSINE:
            got, expected = _refine_both(doc)
            assert got == expected
            paths |= _cosine_paths(doc)
        assert paths == {"empty", "clamped", "aligned at anchor", "aligned wins", "anchor wins", "refused"}


def _stored_clusters(doc, centers) -> list:
    """Clusters over a `_layout`: marker 0 represents itself and the first
    half of the members, and the first member of the second half, at its
    marker center, represents the rest; `centers[k]` is member k + 1's
    stored center."""
    members = list(enumerate(centers, start=1))
    cut = (len(members) + 1) // 2
    clusters = [Cluster(0, (0, 0), [(0, (0, 0))] + members[:cut])]
    if members[cut:]:
        rep = members[cut][0]
        clusters.append(Cluster(rep, doc.markers[rep].center(), members[cut:]))
    return clusters


def _verdicts(clusters, doc):
    """(verify_clusterset, the per-member reference) of one cluster list."""
    return verify_clusterset(clusters, doc), Verdict(*verify_loop(clusters, doc))


@pytest.mark.parametrize("kind", [EDGE, COS])
class TestVerifyBatch:
    @given(data=st.data(), corruption=st.sampled_from(["none", "twice", "outside", "missing"]))
    def test_same_verdict_as_per_member_reference(self, kind, data, corruption):
        doc = data.draw(_LAYOUTS[kind])
        centers = [
            (data.draw(st.integers(m.xlo, m.xhi)), data.draw(st.integers(m.ylo, m.yhi)))
            for m in doc.markers[1:]
        ]
        clusters = _stored_clusters(doc, centers)
        last = clusters[-1].members
        if corruption == "twice":
            last.append(clusters[0].members[-1])
        elif corruption == "outside":
            m, (_cx, cy) = last[-1]
            last[-1] = (m, (doc.markers[m].xhi + 1, cy))
        elif corruption == "missing" and len(last) > 1:
            last.pop()
        got, expected = _verdicts(clusters, doc)
        assert got == expected

    def test_corrupted_reports(self, kind):
        # a member moved past T, an extra polygon at a stored center (no
        # correspondence in edgemove mode), a center outside its marker and
        # a missing marker each fail with the reference's message, as does a
        # marker assigned twice; the anchors pass
        same = (0, 0, 4, 4, 0, "same")
        threshold, moved = (2.0, "edge offset 3 > 2.0") if kind is EDGE else (0.95, "similarity 0.778538 < 0.95")
        cases = [
            ([same, same], [(300, 0), (600, 0)], None),
            ([same, same], [(303, 0), (600, 0)], f"cluster 0: marker 1 {moved}"),
            ([same, same], [(300, 0), (605, 0)], "center (605, 0) outside marker 2"),
        ]
        if kind is EDGE:
            cases.append(([(0, 0, 0, 0, 0, "extra"), same], [(300, 0), (600, 0)],
                          "cluster 0: marker 1 has no correspondence"))
        for members, centers, message in cases:
            doc = _layout(threshold, 4, 4, 4, members, kind)
            got, expected = _verdicts(_stored_clusters(doc, centers), doc)
            assert got == expected == Verdict(message is None, message)
        doc = _layout(threshold, 4, 4, 4, [same, same], kind)
        twice = _stored_clusters(doc, [(300, 0), (600, 0)])
        twice[-1].members.append(twice[0].members[-1])
        assert _verdicts(twice, doc) == (Verdict(False, "marker 1 assigned twice"),) * 2
        missing = _stored_clusters(doc, [(300, 0), (600, 0)])
        missing[-1].members.pop()
        assert _verdicts(missing, doc) == (Verdict(False, "markers never assigned: [2]"),) * 2


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
        pa = extract_pattern(doc, (0, 0))
        pb = extract_pattern(doc, (300, 0))
        sim = cosine_similarity(pattern_features(pa), pattern_features(pb))
        assert 0.968 < sim < 0.987  # inside (T - 0.025, T), clear of both edges
        clusters, report, stats = run_full(doc)
        assert report.cluster_count == 2
        assert report.iterations_used == 3
        it0 = stats.iterations[0]
        assert it0.edges == 1
        assert it0.deferred == 1
        assert it0.orphaned == 1
        assert verify_clusterset(clusters, doc)


def _untimed(record: dict) -> dict:
    """A run record without its timing fields: wall_ms, stage_ms and each
    iteration's timings_ms."""
    out = {k: v for k, v in record.items() if k not in ("wall_ms", "stage_ms")}
    out["iterations"] = [{k: v for k, v in it.items() if k != "timings_ms"} for it in record["iterations"]]
    return out


class TestRunRecord:
    @staticmethod
    def _docs(jittered_docs):
        """The jittered documents, a near-duplicate that runs all three
        rounds, the probe stage included, a pair that keeps its relaxed edge
        for two rounds, and three unlike windows that stay singletons."""
        near = _doc(
            [rect(-23, -20, 23, 20), rect(277, -20, 323, 20), rect(577, -22, 623, 22)],
            [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)], COS, 0.99,
        )
        relaxed_twice = _doc(
            [rect(-23, -20, 23, 20), rect(277, -22, 323, 22)],
            [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0)], COS, 0.99,
        )
        unlike = _doc(
            [rect(-40, -40, 40, 40), rect(290, -10, 310, 10), rect(560, -40, 570, 40)],
            [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)], COS, 0.9,
        )
        return [*jittered_docs.values(), near, relaxed_twice, unlike]

    def test_two_runs_differ_only_in_timings(self, jittered_docs):
        for doc in self._docs(jittered_docs):
            first, second = (run_full(doc)[2].to_json() for _ in range(2))
            assert first["wall_ms"] > 0 and tuple(first["stage_ms"]) == STAGES
            assert all("timings_ms" in it for it in first["iterations"])
            assert _untimed(first) == _untimed(second)
            assert json.loads(json.dumps(first)) == first

    def test_header(self, jittered_docs):
        doc = jittered_docs[EDGE]
        cfg = IterationConfig(max_iterations=2, use_prescreen=False)
        record = run_full(doc, cfg)[2].to_json()
        assert record["schema"] == SCHEMA == 3
        assert "refine_checks" not in record  # schema 2 dropped it: probe_joined + accepted_members
        assert record["skipped_refused"] == 0  # schema 3 added it
        assert record["config"] == {"max_iterations": 2, "use_prescreen": False}
        assert (record["constraint"], record["threshold"]) == ("edgemove", doc.threshold)
        assert list(record)[-1] == "iterations"

    def test_funnel_never_grows(self, jittered_docs):
        for doc in self._docs(jittered_docs):
            for use_prescreen in (True, False):
                stats = run_full(doc, IterationConfig(use_prescreen=use_prescreen))[2]
                record = stats.to_json()
                screened = [it for it in stats.iterations if it.prescreen is not None]
                for it in screened:
                    funnel = (it.prescreen.total_pairs, it.prescreen.after_topology,
                              it.edges, it.accepted_members)
                    assert funnel == tuple(sorted(funnel, reverse=True)), funnel
                    if not use_prescreen:
                        assert it.prescreen.after_topology == it.prescreen.total_pairs
                assert record["funnel"] == {
                    "pairs": sum(it.prescreen.total_pairs for it in screened),
                    "candidates": sum(it.prescreen.after_topology for it in screened),
                    "edges": sum(it.edges for it in stats.iterations),
                    "accepted_members": sum(it.accepted_members for it in stats.iterations),
                }

    def test_totals_sum_the_iterations(self, jittered_docs):
        for doc in self._docs(jittered_docs):
            record = run_full(doc)[2].to_json()
            its = record["iterations"]
            for key in ("probe_joined", "deferred", "orphaned", "skipped_refused"):
                assert record[key] == sum(it[key] for it in its)
            assert record["solver"] == {
                key: sum(it["solver"][key] for it in its if it["solver"])
                for key in ("pops", "recomputations")
            }
            assert record["stage_ms"] == {
                s: sum(it["timings_ms"].get(s, 0.0) for it in its) for s in STAGES
            }

    def test_each_iteration_times_the_stages_it_ran(self, jittered_docs):
        # iteration 0 never probes; a later round probes once a cluster is
        # committed, and ends after the probe if it joined every marker, as
        # the third window here does: its content sits 10 nm off its marker
        # center, so it has no zero-shift edge, is deferred, then joins
        probe_only = _doc(
            [rect(-20, -20, 20, 20), rect(280, -20, 320, 20), rect(590, -20, 630, 20)],
            [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(590, -10, 610, 10)], COS, 0.99,
        )
        probed_rounds = 0
        for doc in [*self._docs(jittered_docs), probe_only]:
            committed = 0
            for it in run_full(doc)[2].iterations:
                probed = it.iteration > 0 and committed > 0
                ran = [s for s in STAGES if s != "probe" or probed]
                if it.prescreen is None:
                    ran = ["probe"]
                assert list(it.timings_ms) == ran, (it.iteration, list(it.timings_ms))
                committed += it.committed_clusters
                probed_rounds += probed
        assert probed_rounds > 0
        assert list(run_full(probe_only)[2].iterations[-1].timings_ms) == ["probe"]

    def test_rounds_and_singletons(self, jittered_docs):
        # the near-duplicate defers and orphans before it settles; the
        # unlike windows end as singletons without an edge or an accepted
        # member
        _jc, _je, near, relaxed_twice, unlike = self._docs(jittered_docs)
        record = run_full(near)[2].to_json()
        assert record["iterations_used"] == 3
        assert record["deferred"] >= 1 and record["orphaned"] >= 1
        record = run_full(relaxed_twice)[2].to_json()
        assert [it["edges"] for it in record["iterations"]] == [1, 1, 0]
        assert record["funnel"]["edges"] == 2
        record = run_full(unlike)[2].to_json()
        assert record["cluster_count"] == 3
        assert record["funnel"]["edges"] == record["funnel"]["accepted_members"] == 0


class TestRefusedPairs:
    def test_no_pair_refined_twice(self, jittered_docs, monkeypatch):
        # the near-duplicate is refused against its representative in round
        # 0 and meets it again in the probe; refining it again would give
        # the same refusal, so the run skips the pair and counts the skip;
        # the probe and stage 4 both refine through refine_members, so
        # recording there sees every refined pair of both stages once
        real = pipeline.refine_members
        pairs = Counter()

        def recording(rep, members, doc):
            for marker, _p in members:
                pairs[rep.center, marker] += 1
            return real(rep, members, doc)

        monkeypatch.setattr(pipeline, "refine_members", recording)
        calls = probed = skipped = 0
        for doc in TestRunRecord._docs(jittered_docs):
            pairs.clear()
            stats = run_full(doc)[2]
            assert max(pairs.values(), default=1) == 1, pairs.most_common(3)
            calls += pairs.total()
            probed += any("probe" in it.timings_ms for it in stats.iterations)
            skipped += stats.to_json()["skipped_refused"]
        assert calls and probed and skipped


def _probe_layout(kind) -> LayoutDocument:
    """A layout whose second round's probe skips a pair refused in the first
    round and refuses an orphan against one settled cluster before a later
    one accepts it; in the cosine layout it also joins two orphans to two
    clusters out of marker order.

    Cosine: three windows of two upright bars, three of two flat bars, and
    four more: flat bars 8 nm off the window's center, whose marker reaches
    the aligned center (no edge in the zero-shift graph, so it sits out the
    first round; the upright cluster refuses it, the flat one takes it);
    upright bars 3 nm off a point marker (a relaxed edge to the upright
    cluster, refused by it, skipped when probed); upright bars 8 nm off
    (joins the upright cluster in the probe); upright bars 1 nm off, which
    the first round accepts at its aligned center, so the refine sum is
    not zero when the probe adds to it.
    Edgemove (T = 2, point markers): five shapes, one pair of edges moved
    by +-ex along x and one by +-ey along y, so every window has the same
    signature and two windows fit with residual max(|dex|, |dey|). The
    orphan (ex = 2, 1 nm off its center) is covered by the cluster of ex =
    0 and -2 and refused (raw offset 3), then in the probe skips it, is
    refused by the cluster of ey = 4 and joins the cluster of the windows
    of ex = 4, whose representative the set cover put at the orphan's own
    window."""
    if kind is COS:
        def upright(x, y):
            return [rect(x - 20, y - 20, x - 4, y + 20), rect(x + 4, y - 20, x + 20, y + 20)]

        def flat(x, y):
            return [rect(x - 20, y - 20, x + 20, y - 4), rect(x - 20, y + 4, x + 20, y + 20)]

        specs = [(upright, 0, 0)] * 3 + [(flat, 0, 0)] * 3 + [(flat, 8, 8), (upright, 3, 0), (upright, 8, 8), (upright, 1, 1)]
        polys = [p for k, (shapes, dx, _half) in enumerate(specs) for p in shapes(300 * k + dx, 0)]
        markers = [Marker(300 * k - half, 0, 300 * k + half, 0) for k, (_s, _dx, half) in enumerate(specs)]
        return _doc(polys, markers, COS, 0.9)

    def shapes(x, ex, ey):
        return [rect(x - 40, -40, x + 40, -30), rect(x - 30, -20, x + ex, -18), rect(x - 30, -14, x - ex, -12),
                rect(x + 20, -20, x + 22, ey), rect(x + 26, -20, x + 28, -ey)]

    specs = [(0, 0, 0)] + [(-2, 0, 0)] * 3 + [(2, 0, 1)] + [(4, 0, 1)] * 2 + [(0, 4, 0)] * 3  # ex, ey, x offset
    polys = [p for k, (ex, ey, dx) in enumerate(specs) for p in shapes(300 * k + dx, ex, ey)]
    markers = [Marker(300 * k, 0, 300 * k, 0) for k in range(len(specs))]
    return _doc(polys, markers, EDGE, 2.0)


class TestProbe:
    @pytest.mark.parametrize("kind", [COS, EDGE])
    def test_batched_probe_equals_pair_loop(self, kind, monkeypatch):
        # each probe of the run also runs one pair at a time on a copy of
        # its inputs; the two must leave the same joins and member centers,
        # refusals, skip and join counts and refine sums, bit for bit, and
        # accept the joins in marker order, the order of the sums
        real_probe, real_refine, real_accept = pipeline._probe, pipeline.refine_members, pipeline._accept
        refines, accepted = [], []
        seen = Counter()

        def counting(rep, members, doc):
            refines.append(len(members))
            return real_refine(rep, members, doc)

        def recording(stats, members, m, result):
            accepted.append(m)
            real_accept(stats, members, m, result)

        def checked(doc, stats, istats, clusters, active, anchors, refused):
            w_stats, w_clusters, w_refused = copy.deepcopy((stats, clusters, refused))
            want = probe_loop(doc, w_stats, w_stats.iterations[-1], w_clusters, active, anchors, w_refused)
            before, skips = set(refused), istats.skipped_refused
            refines.clear()
            accepted.clear()
            got = real_probe(doc, stats, istats, clusters, active, anchors, refused)
            assert got == want
            assert clusters == w_clusters and refused == w_refused
            assert stats == w_stats  # the iteration's counters too
            assert stats.refine_delta_sum.hex() == w_stats.refine_delta_sum.hex()
            assert len(refines) <= len(clusters)  # one batch per cluster at most
            joined = set(active) - set(got)
            assert accepted == [m for m in active if m in joined]
            seen["probes"] += 1
            seen["joined"] += len(joined)
            seen["skipped"] += istats.skipped_refused - skips
            seen["refused then joined"] += sum(m in joined for _rep, m in refused - before)
            return got

        monkeypatch.setattr(pipeline, "refine_members", counting)
        monkeypatch.setattr(pipeline, "_accept", recording)
        monkeypatch.setattr(pipeline, "_probe", checked)
        _clusters, report, _stats = run_full(_probe_layout(kind))
        assert all(seen[k] for k in ("probes", "joined", "skipped", "refused then joined")), seen
        monkeypatch.undo()
        assert run_full(_probe_layout(kind))[1] == report


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
        # every window the pipeline extracts, one center or a batch at a time
        centers = Counter()
        real_one, real_batch = pipeline.extract_pattern, pipeline.extract_patterns

        def counting(d, center):
            centers[center] += 1
            return real_one(d, center)

        def counting_batch(d, batch):
            centers.update(batch)
            return real_batch(d, batch)

        monkeypatch.setattr(pipeline, "extract_pattern", counting)
        monkeypatch.setattr(pipeline, "extract_patterns", counting_batch)
        _clusters, _report, stats = run_full(doc, cfg)
        monkeypatch.undo()
        return [centers[m.center()] for m in doc.markers], stats

    def test_each_anchor_extracted_once(self, jittered_docs, monkeypatch):
        doc = jittered_docs[COS]
        counts, stats = self._count_anchor_extractions(doc, monkeypatch)
        assert sum(it.probe_joined + it.accepted_members for it in stats.iterations) > 0
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


def _record_filled(monkeypatch, record) -> None:
    """Call `record(p)` for every pattern whose features a call of
    `raster.fill_features` computes (the graph stage's blocks): those that
    held none before the call and hold them after it."""
    real = raster.fill_features

    def recording(patterns):
        before = [p for p in patterns if not p.has_features]
        real(patterns)
        for p in before:
            if p.has_features:
                record(p)

    monkeypatch.setattr(raster, "fill_features", recording)


class TestPatternValuesOnce:
    DERIVED = ("rect_counts", "layout_key", "coords", "x_axis", "area", "features")

    def test_one_build_per_pattern(self, jittered_docs, monkeypatch):
        # each value derived from a pattern's shapes is computed once per
        # pattern, however many pairs, refinements and probes read it; the
        # jittered windows keep every polygon whole, and the picked layout's
        # windows cut polygons into traced pieces. Features are computed on
        # a read or, for the graph stage, in blocks: both count as builds
        builds = []  # (value, id of the pattern)
        alive = []  # the patterns, so that no id is reused

        def build(name, pattern):
            builds.append((name, id(pattern)))
            alive.append(pattern)

        for name in self.DERIVED:
            prop = Pattern.__dict__[name]
            assert isinstance(prop, cached_property)

            def counting(pattern, name=name, real=prop.func):
                build(name, pattern)
                return real(pattern)

            monkeypatch.setattr(prop, "func", counting)
        _record_filled(monkeypatch, lambda p: build("features", p))
        for doc in (jittered_docs[COS], jittered_docs[EDGE], PICKED[0]):
            _clusters, _report, stats = run_full(doc)
            assert sum(it.probe_joined + it.accepted_members for it in stats.iterations) > 0
        monkeypatch.undo()
        assert {name for name, _p in builds} == set(self.DERIVED)
        assert len(builds) == len(set(builds))

    def test_values_are_not_part_of_equality(self):
        shapes = (rect(-8, -8, 8, 8),)
        built, fresh = Pattern((0, 0), 32, shapes), Pattern((0, 0), 32, shapes)
        for name in ("rects", "owner", "bboxes", *self.DERIVED):
            value = getattr(built, name)
            assert getattr(built, name) is value
        assert built == fresh and repr(built) == repr(fresh)
        assert built != Pattern((0, 0), 32, (rect(-8, -8, 8, 9),))


def _windows_never_cut(doc) -> bool:
    """Whether no polygon crosses the edge of any window centred in a
    marker: each polygon lies inside the window at all four marker corners
    (so at every center between them) or misses the union of those windows."""
    r = doc.pattern_radius
    for m in doc.markers:
        for bx0, by0, bx1, by1 in (p.bbox for p in polygons_of(doc.rings)):
            inside = m.xhi - r <= bx0 and m.yhi - r <= by0 and bx1 <= m.xlo + r and by1 <= m.ylo + r
            apart = bx0 >= m.xhi + r or bx1 <= m.xlo - r or by0 >= m.yhi + r or by1 <= m.ylo - r
            if not (inside or apart):
                return False
    return True


class TestLayoutTable:
    @staticmethod
    def _docs(jittered_docs):
        """The jittered documents, whose windows no polygon crosses, and the
        picked layouts, whose polygons cross the windows' edges."""
        assert not any(_windows_never_cut(doc) for doc in [*PICKED, *PICKED_COSINE])
        return [*jittered_docs.values(), *PICKED, *PICKED_COSINE]

    def test_parsed_table_equals_built(self, jittered_docs):
        # parse_layout hands the document the rectangles it computed to
        # validate each polygon; a document built from the polygons alone
        # decomposes them itself
        for built in self._docs(jittered_docs):
            parsed = parse_layout(write_layout(built))
            assert parsed == built
            assert parsed.rects.dtype == np.int64 and parsed.widest == built.widest
            assert np.array_equal(parsed.rects, built.rects) and np.array_equal(parsed.owner, built.owner)
            # each polygon's rows in rectangles() order, all sorted by xlo
            pieces = [geometry.rectangles(p) for p in polygons_of(built.rings)]
            for k, rs in enumerate(pieces):
                assert built.rects[built.owner == k].tolist() == [list(r) for r in rs]
            assert (np.diff(built.rects[:, 0]) >= 0).all()
            assert built.widest == max(x1 - x0 for rs in pieces for x0, _y0, x1, _y1 in rs)
            centers = [m.center() for m in built.markers]
            got, want = parsed.window_rows(centers), built.window_rows(centers)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", [COS, EDGE])
    def test_run_and_verify_decompose_nothing(self, jittered_docs, kind, monkeypatch):
        # the document builds its table when it is made, and every window of
        # the run and of its verification takes its rectangles from the
        # table's query, so no polygon is decomposed again
        doc = dataclasses.replace(jittered_docs[kind])  # a new document, its table never read
        assert _windows_never_cut(doc)
        calls = []
        real = geometry.rectangles

        def counting(poly):
            calls.append(poly)
            return real(poly)

        for module in (geometry, layout_io):  # wherever the name is looked up
            monkeypatch.setattr(module, "rectangles", counting)
        clusters, _report, _stats = run_full(doc)
        assert verify_clusterset(clusters, doc)
        assert any(c != doc.markers[m].center() for cl in clusters for m, c in cl.members)  # moved windows
        assert calls == []


class TestFeaturesOnce:
    @staticmethod
    def _counting(monkeypatch):
        """Record every pattern whose features are computed: each one
        raster.pattern_features is called with, and each one the graph
        stage's raster.fill_features gives its vector."""
        seen = []
        real = raster.pattern_features

        def counting(pattern):
            seen.append(pattern)
            return real(pattern)

        monkeypatch.setattr(raster, "pattern_features", counting)
        _record_filled(monkeypatch, seen.append)
        return seen

    def test_computed_once_and_bit_equal(self, jittered_docs, monkeypatch):
        doc = jittered_docs[COS]
        for marker in doc.markers[:4]:
            p = extract_pattern(doc, marker.center())
            expected = pattern_features(Pattern(p.center, p.radius, polygons_of(p.rings)))
            seen = self._counting(monkeypatch)
            first = p.features
            assert p.features is first
            monkeypatch.undo()
            assert seen == [p]
            assert first.dtype == expected.dtype and first.tobytes() == expected.tobytes()
            assert p == Pattern(p.center, p.radius, polygons_of(p.rings)) and "features" not in repr(p)

    def test_one_call_per_anchor_in_cosine_run(self, jittered_docs, monkeypatch):
        # the graph computes the anchors' features in blocks, and every
        # refinement, the probe and later iterations read them from the
        # anchors; verification rasterises the layout instead
        near = _doc([rect(-23, -20, 23, 20), rect(277, -20, 323, 20), rect(577, -22, 623, 22)],
                    [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)], COS, 0.99)
        for doc in (jittered_docs[COS], near):
            seen = self._counting(monkeypatch)
            clusters, _report, stats = run_full(doc)
            assert verify_clusterset(clusters, doc)
            monkeypatch.undo()
            assert sorted(p.center for p in seen) == sorted(m.center() for m in doc.markers)
        assert stats.iterations_used > 1 and any("probe" in it.timings_ms for it in stats.iterations)


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
        _clusters, report, _stats = run_full(doc, IterationConfig(use_prescreen=False))
        assert report.assignments == (
            (10, 0, 0, 0, 11), (11, 0, 300, 0, 11), (12, 0, 600, 0, 11),
        )
        back = read_report(write_report(report, doc=doc))
        assert back == report
        assert verify_clusterset(back, doc)
        # read as if the first member represented the cluster, 12 is 16 nm off
        first = ClusterReport(tuple(row[:4] + (10,) for row in back.assignments), 1, 1)
        verdict = verify_clusterset(first, doc)
        assert not verdict
        assert "edge offset 16 > 10.0" in verdict.message
        unknown = ClusterReport(tuple(row[:4] + (13,) for row in back.assignments), 1, 1)
        verdict = verify_clusterset(unknown, doc)
        assert not verdict
        assert "representative 13 of cluster 0 is not a marker" in verdict.message

    @staticmethod
    def _unequal_count_doc():
        # marker 10: an empty window; 11: one rectangle; 12: the same
        # rectangle plus a second one that overlaps nothing in 11's window
        polys = [rect(280, -20, 320, 20), rect(580, -20, 620, 20), rect(630, 30, 650, 50)]
        markers = [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)]
        return LayoutDocument(64, EDGE, 10.0, tuple(polys), (0, 1, 2), tuple(markers), (10, 11, 12))

    def test_refuses_extra_polygon_and_empty_window(self):
        doc = self._unequal_count_doc()
        center = {m: ((m - 10) * 300, 0) for m in (10, 11, 12)}
        for member, other in ((10, 12), (12, 10)):
            rows = (
                (member, 0) + center[member] + (11,),
                (11, 0) + center[11] + (11,),
                (other, 1) + center[other] + (other,),
            )
            verdict = verify_clusterset(ClusterReport(rows, 2, 1), doc)
            assert not verdict
            assert verdict.message == f"cluster 0: marker {member} has no correspondence"
        alone = ClusterReport(tuple((m, m - 10) + center[m] + (m,) for m in (10, 11, 12)), 3, 1)
        assert verify_clusterset(alone, doc)

    def test_empty_window_represents_no_polygons(self):
        # without the prescreen every pair reaches the relaxed test; no
        # cluster may mix windows of different polygon counts
        doc = self._unequal_count_doc()
        clusters, report, _stats = run_full(doc, IterationConfig(use_prescreen=False))
        for cluster in clusters:
            rep_count = len(extract_pattern(doc, cluster.rep_center).rings)
            for _m, center in cluster.members:
                assert len(extract_pattern(doc, center).rings) == rep_count
        rep_of = {row[0]: row[4] for row in report.assignments}
        assert rep_of[11] != 10 and rep_of[12] != 10
        assert verify_clusterset(clusters, doc)
        assert verify_clusterset(report, doc)

    def test_empty_window_first_does_not_split_twins(self):
        # an empty point marker with the lowest id, then two identical
        # rectangles: the relaxed test needs equal polygon counts, so the
        # empty window is no neighbour of the rectangles and cannot win the
        # set cover at the degree tie
        polys = [rect(280, -20, 320, 20), rect(580, -20, 620, 20)]
        markers = [Marker(0, 0, 0, 0), Marker(300, 0, 300, 0), Marker(600, 0, 600, 0)]
        doc = LayoutDocument(64, EDGE, 10.0, tuple(polys), (0, 1), tuple(markers), (10, 11, 12))
        for use_prescreen in (False, True):
            clusters, report, _stats = run_full(doc, IterationConfig(use_prescreen=use_prescreen))
            assert report.cluster_count == 2, use_prescreen
            rep_of = {row[0]: row[4] for row in report.assignments}
            assert rep_of[10] == 10 and rep_of[11] == rep_of[12] != 10
            assert verify_clusterset(report, doc)

    def test_detects_missing_marker(self, clean_docs):
        doc = clean_docs[COS]
        found, _report, _stats = run_full(doc)
        clusters = [Cluster(c.rep_marker, c.rep_center, list(c.members)) for c in found]
        clusters[0].members.pop()
        verdict = verify_clusterset(clusters, doc)
        assert not verdict
        assert "never assigned" in verdict.message
