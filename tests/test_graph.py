import random

import pytest
from hypothesis import given, strategies as st

from pattern_forge.align import edge_fit_aligned
from pattern_forge.geometry import Pattern, Translation, ZERO_SHIFT
from pattern_forge.graph import SimilarityGraph, assemble, dump_edges, evaluate_pair_relaxed
from pattern_forge.layout_io import ConstraintKind, LayoutDocument

from conftest import rect, staircase


def _doc(kind: ConstraintKind, threshold: float) -> LayoutDocument:
    return LayoutDocument(64, kind, threshold, (), (), (), ())


def _pat(*polys, radius=64) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


class TestSimilarityGraph:
    def test_from_edges_basics(self):
        g = SimilarityGraph.from_edges(4, [(0, 1), (2, 1), (0, 3)])
        assert g.adjacency == ((1, 3), (0, 2), (1,), (0,))
        assert g.edge_count == 3
        assert g.degree(1) == 2 and g.degree(2) == 1
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            SimilarityGraph(2, ((0,), ()))
        with pytest.raises(ValueError, match="reverse"):
            SimilarityGraph(2, ((1,), ()))
        with pytest.raises(ValueError, match="size"):
            SimilarityGraph(3, ((), ()))
        with pytest.raises(ValueError, match="outside"):
            SimilarityGraph.from_edges(2, [(0, 5)])


class TestEvaluatePair:
    def test_cosine_accepts_identical(self):
        doc = _doc(ConstraintKind.COSINE, 0.9)
        p = _pat(rect(-10, -10, 10, 10))
        assert evaluate_pair_relaxed(p, p, doc) == ZERO_SHIFT

    def test_cosine_threshold_is_inclusive_and_slack_loosens(self):
        doc = _doc(ConstraintKind.COSINE, 1.0)
        a = _pat(rect(-20, -20, 20, 20))
        b = _pat(rect(-20, -20, 20, 24))
        # similar but not identical: fails at 1.0, passes with enough slack
        assert evaluate_pair_relaxed(a, b, doc) is None
        assert evaluate_pair_relaxed(a, b, doc, slack=0.2) == ZERO_SHIFT
        assert evaluate_pair_relaxed(a, a, doc) == ZERO_SHIFT

    def test_cosine_uses_precomputed_features(self):
        from pattern_forge.raster import pattern_features

        doc = _doc(ConstraintKind.COSINE, 0.9)
        a = _pat(rect(-10, -10, 10, 10))
        b = _pat(rect(-10, -10, 10, 12))
        fa = pattern_features(a)
        fb = pattern_features(b)
        assert evaluate_pair_relaxed(a, b, doc, fa=fa, fb=fb) == evaluate_pair_relaxed(a, b, doc)

    def test_edgemove_reports_minmax_shift(self):
        doc = _doc(ConstraintKind.EDGEMOVE, 10.0)
        a = _pat(staircase(2))
        b = _pat(staircase(2).translated(4, 2))
        assert evaluate_pair_relaxed(a, b, doc) == Translation(4, 2)

    def test_edgemove_threshold_and_slack(self):
        doc = _doc(ConstraintKind.EDGEMOVE, 2.0)
        a = _pat(rect(0, 0, 20, 20))
        b = _pat(rect(0, 0, 26, 20))   # best residual 3 > 2
        assert evaluate_pair_relaxed(a, b, doc) is None
        assert evaluate_pair_relaxed(a, b, doc, slack=1.0) == Translation(3, 0)

    @given(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 8),
        st.sampled_from([0.0, 1.0, 2.5, 6.0]),
    )
    def test_edgemove_is_edge_fit_aligned_with_loosened_threshold(self, dx, dy, stretch, slack):
        # one shape moved and one stretched: the relaxed test accepts exactly
        # when the strict aligner's residual is within threshold + slack, and
        # then reports the aligner's translation
        doc = _doc(ConstraintKind.EDGEMOVE, 1.0)
        a = _pat(staircase(2), rect(24, 0, 30, 8))
        b = _pat(staircase(2, x0=dx, y0=dy), rect(24 + dx, dy, 30 + dx + stretch, 8 + dy))
        fit = edge_fit_aligned(a, b)
        got = evaluate_pair_relaxed(a, b, doc, slack=slack)
        if fit is None or fit[1] > doc.threshold + slack:
            assert got is None
        else:
            assert got == fit[0]

    def test_edgemove_no_correspondence_rejects(self):
        doc = _doc(ConstraintKind.EDGEMOVE, 100.0)
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(40, 40, 44, 44))
        assert evaluate_pair_relaxed(a, b, doc) is None

    def test_edgemove_unequal_counts_rejected(self):
        # the relaxed test is the strict one with a looser threshold, so it
        # needs a one-to-one correspondence: an extra polygon or an empty
        # window is refused whatever the slack
        doc = _doc(ConstraintKind.EDGEMOVE, 100.0)
        a = _pat(rect(0, 0, 4, 4))
        c = _pat(rect(0, 0, 4, 4), rect(40, 40, 44, 44))
        for x, y in ((a, c), (c, a), (_pat(), a), (a, _pat())):
            assert evaluate_pair_relaxed(x, y, doc, slack=100.0) is None

    def test_edgemove_topology_mismatch_rejects(self):
        # same counts, overlapping, but different vertex structure: the
        # constraint cannot hold for any shift, so the pair is rejected
        doc = _doc(ConstraintKind.EDGEMOVE, 100.0)
        a = _pat(rect(0, 0, 12, 12))
        b = _pat(staircase(2, run=4, rise=3))
        assert evaluate_pair_relaxed(a, b, doc) is None


class TestAssemble:
    def test_rejections_leave_no_edge(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        results = [Translation(1, 0), None, Translation(0, 2)]
        g = assemble(3, pairs, results)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_shuffled_input_same_graph(self, rng):
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        results = [
            Translation(i, j) if (i + j) % 3 else None for i, j in pairs
        ]
        base = assemble(8, pairs, results)
        for _ in range(5):
            order = list(range(len(pairs)))
            rng.shuffle(order)
            g = assemble(8, [pairs[k] for k in order], [results[k] for k in order])
            assert g.adjacency == base.adjacency

    def test_accepted_translation_does_not_change_graph(self, rng):
        # the graph records acceptance only: any non-None outcome is an edge
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        results = [Translation(rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.5 else None
                   for _ in pairs]
        zeroed = [None if t is None else ZERO_SHIFT for t in results]
        assert assemble(6, pairs, results) == assemble(6, pairs, zeroed)

    def test_flipped_pair_normalized(self):
        g = assemble(2, [(1, 0)], [Translation(4, 4)])
        assert list(g.edges()) == [(0, 1)]

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            assemble(2, [(0, 1), (1, 0)], [ZERO_SHIFT, ZERO_SHIFT])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="results"):
            assemble(2, [(0, 1)], [])

    def test_complete_graph(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = assemble(4, pairs, [ZERO_SHIFT] * len(pairs))
        assert g.edge_count == 6
        assert all(g.degree(i) == 3 for i in range(4))


class TestDump:
    def test_format(self):
        g = assemble(3, [(0, 1), (1, 2)], [Translation(5, -3), ZERO_SHIFT])
        assert dump_edges(g) == "0 1\n1 2\n"

    def test_empty(self):
        assert dump_edges(SimilarityGraph.from_edges(3, [])) == ""
