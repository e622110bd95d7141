import math
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from pattern_forge import align, raster
from pattern_forge.align import edge_fit_aligned
from pattern_forge.geometry import MatchError, Pattern, Polygon, Translation, ZERO_SHIFT, match_polygons
from pattern_forge.graph import (
    SimilarityGraph,
    assemble,
    dump_edges,
    evaluate_pair_relaxed,
    evaluate_pairs_cosine,
    evaluate_pairs_edgemove,
)
from pattern_forge.layout_io import ConstraintKind, LayoutDocument
from pattern_forge.pipeline import IterationConfig

from conftest import rect, staircase


def _doc(kind: ConstraintKind, threshold: float) -> LayoutDocument:
    return LayoutDocument(64, kind, threshold, (), (), (), ())


def _pat(*polys, radius=64) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


class TestSimilarityGraph:
    def test_assemble_basics(self):
        g = assemble(4, [(0, 1), (2, 1), (0, 3)])
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
            assemble(2, [(0, 5)])


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
        # the features a pattern already holds are read, not computed again
        doc = _doc(ConstraintKind.COSINE, 0.9)
        a = _pat(rect(-10, -10, 10, 10))
        b = _pat(rect(-10, -10, 10, 12))
        expected = evaluate_pair_relaxed(_pat(*a.shapes), _pat(*b.shapes), doc)
        a.features()
        computed = []
        real = raster.pattern_features

        def recording(p):
            computed.append(p)
            return real(p)

        with patch.object(raster, "pattern_features", recording):
            assert evaluate_pair_relaxed(a, b, doc) == expected
            assert evaluate_pair_relaxed(a, b, doc) == expected
        assert computed == [b]

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
        # of the pairs (0, 1), (0, 2), (1, 2), the relaxed test refused (0, 2)
        g = assemble(3, [(0, 1), (1, 2)])
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_shuffled_input_same_graph(self, rng):
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3]
        base = assemble(8, edges)
        for _ in range(5):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            g = assemble(8, shuffled)
            assert g.adjacency == base.adjacency

    def test_flipped_pair_normalized(self):
        g = assemble(2, [(1, 0)])
        assert list(g.edges()) == [(0, 1)]

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            assemble(2, [(0, 1), (1, 0)])

    def test_complete_graph(self):
        g = assemble(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert g.edge_count == 6
        assert all(g.degree(i) == 3 for i in range(4))


class TestDump:
    def test_format(self):
        g = assemble(3, [(0, 1), (1, 2)])
        assert dump_edges(g) == "0 1\n1 2\n"

    def test_empty(self):
        assert dump_edges(assemble(3, [])) == ""


def _l_shape(x0, x1, x2, y0, y1, y2) -> Polygon:
    """An L: the full-width foot [x0, x2] x [y0, y1] and the stem [x0, x1] x [y1, y2]."""
    return Polygon.from_vertices([(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)])


def _t_shape(x0, x1, x2, x3, y0, y1, y2) -> Polygon:
    """A T: the stem [x1, x2] x [y0, y1] under the bar [x0, x3] x [y1, y2]."""
    return Polygon.from_vertices(
        [(x1, y0), (x2, y0), (x2, y1), (x3, y1), (x3, y2), (x0, y2), (x0, y1), (x1, y1)]
    )


# Window layouts as shape builders over (coordinates + per-coordinate moves).
# Neighbouring coordinates sit at least 8 nm apart, so moves of up to 3 nm
# keep every shape simple and every layout's shapes disjoint.
LAYOUTS = {
    # three rectangles, every one "ENWS" with one rectangle: the same
    # layout key whatever the order the shapes are listed in
    "rects": ((-50, -50, -30, -20), (-20, -50, 0, -20), (10, 10, 40, 40)),
    # one rectangle spanning the first two of "rects", plus two others:
    # same key as "rects", but the long one overlaps two shapes there
    "merged": ((-50, -50, 0, -20), (10, 10, 40, 40), (-50, 20, -30, 40)),
    # an L with a rectangle in its notch (inside the L's bbox, outside
    # the L), and a T
    "l_t": ((-50, -30, 0, -50, -30, 0), (-22, -22, -5, -5), (10, 20, 35, 50, 10, 30, 45)),
    "empty": (),
}


def _shape(coords, moves) -> Polygon:
    c = [v + d for v, d in zip(coords, moves)]
    if len(c) == 4:
        return rect(*c)
    return _l_shape(*c) if len(c) == 6 else _t_shape(*c)


@st.composite
def _window(draw):
    """A pattern of one of LAYOUTS with every coordinate moved by up to 3
    nm, its shapes possibly listed in another order or one dropped."""
    coords = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    shapes = [_shape(c, draw(st.lists(st.integers(-3, 3), min_size=len(c), max_size=len(c))))
              for c in coords]
    order = draw(st.sampled_from(["as_listed", "reversed", "drop_last"]))
    if order == "reversed":
        shapes.reverse()
    elif order == "drop_last":
        shapes = shapes[:-1]
    return _pat(*shapes)


def _needs_fallback(a: Pattern, b: Pattern) -> bool:
    if len(a.shapes) != len(b.shapes):
        return False
    if a.edge_view().layout_key != b.edge_view().layout_key:
        return True
    try:
        pairs = match_polygons(a, b).pairs
    except MatchError:
        return True
    return pairs != tuple((k, k) for k in range(len(a.shapes)))


SLACKS = [IterationConfig().slack_for(_doc(ConstraintKind.EDGEMOVE, 2.0), it) for it in range(3)]
# (BATCH_PAIRS, BATCH_CELLS): the defaults, blocks of 3 pairs, and blocks cut
# to 1 pair by the cell bound
BLOCKS = [(align.BATCH_PAIRS, align.BATCH_CELLS), (3, 1 << 20), (1024, 20)]


class TestEdgeFits:
    @given(st.lists(_window(), min_size=1, max_size=6), st.data(), st.sampled_from(BLOCKS))
    def test_equals_per_pair_aligner(self, patterns, data, block):
        # any pairs of the windows, in either order, repeated, or a window
        # with itself: shift, residual and raw offset all equal the per-pair
        # aligner's, with blocks cut small. The kernel yields each pair once,
        # except the pairs with unequal shape counts, whose fit is None
        n = len(patterns)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
        expected = [edge_fit_aligned(patterns[i], patterns[j]) for i, j in pairs]
        rep, others = patterns[0], patterns[data.draw(st.integers(0, n - 1)):]
        with patch.object(align, "BATCH_PAIRS", block[0]), patch.object(align, "BATCH_CELLS", block[1]):
            got = list(align.iter_edge_fits(patterns, pairs))
            fits = align.edge_fits(rep, others)
        ks = [k for k, _fit in got]
        assert sorted(ks) == [k for k, (i, j) in enumerate(pairs)
                              if len(patterns[i].shapes) == len(patterns[j].shapes)]
        assert all(fit == expected[k] for k, fit in got)
        assert all(expected[k] is None for k in set(range(len(pairs))) - set(ks))
        # one representative against a list, itself included
        assert fits == [edge_fit_aligned(rep, p) for p in others]

    def test_no_patterns(self):
        assert align.edge_fits(_pat(), []) == []
        assert list(align.iter_edge_fits([], [])) == []


def _accepted(pairs, results) -> list:
    """The pairs whose per-pair result is not a rejection, in order."""
    return [pair for pair, t in zip(pairs, results) if t is not None]


class TestEvaluatePairsEdgemove:
    DOC = _doc(ConstraintKind.EDGEMOVE, 2.0)

    def _both(self, patterns, pairs, slack):
        """(per-pair results, the pairs the batch accepted in the order of
        `pairs`, pairs the batch sent to align.edge_fit_aligned). The batch
        returns the tuples of `pairs` themselves."""
        expected = [evaluate_pair_relaxed(patterns[i], patterns[j], self.DOC, slack) for i, j in pairs]
        called = []
        where = {id(p): k for k, p in enumerate(patterns)}
        real = align.edge_fit_aligned

        def recording(a, b):
            called.append((where[id(a)], where[id(b)]))
            return real(a, b)

        with patch.object(align, "edge_fit_aligned", recording):
            got = evaluate_pairs_edgemove(patterns, pairs, self.DOC, slack)
        position = {id(pair): k for k, pair in enumerate(pairs)}
        assert len(set(map(id, got))) == len(got) and all(id(pair) in position for pair in got)
        return expected, sorted(got, key=lambda pair: position[id(pair)]), called

    @given(
        st.lists(_window(), min_size=2, max_size=7),
        st.sampled_from(BLOCKS),
    )
    def test_equals_per_pair_test(self, patterns, block):
        # every pair, at each iteration's slack, and with blocks cut small
        pairs = [(i, j) for i in range(len(patterns)) for j in range(i + 1, len(patterns))]
        with patch.object(align, "BATCH_PAIRS", block[0]), patch.object(align, "BATCH_CELLS", block[1]):
            for slack in SLACKS:
                expected, got, called = self._both(patterns, pairs, slack)
                assert got == _accepted(pairs, expected)
                # the per-pair test runs exactly for equal shape counts
                # without a proof of the identity correspondence
                assert set(called) == {(i, j) for i, j in pairs if _needs_fallback(patterns[i], patterns[j])}

    def test_slacks_are_the_iterations(self):
        assert SLACKS == [0.5, 0.25, 0.0]

    def test_other_shape_order_takes_the_fallback(self):
        # equal layout keys, but the correspondence is a permutation: the
        # batch cannot prove the identity and asks the per-pair test, which
        # pairs the shapes up and accepts
        shapes = [_shape(c, [0] * len(c)) for c in LAYOUTS["rects"]]
        a, b = _pat(*shapes), _pat(*reversed(shapes))
        assert a.edge_view().layout_key == b.edge_view().layout_key
        expected, got, called = self._both([a, b], [(0, 1)], 0.0)
        assert expected == [ZERO_SHIFT] and got == [(0, 1)]
        assert called == [(0, 1)]

    def test_one_shape_over_two_takes_the_fallback_and_is_refused(self):
        a = _pat(*(_shape(c, [0] * len(c)) for c in LAYOUTS["rects"]))
        b = _pat(*(_shape(c, [0] * len(c)) for c in LAYOUTS["merged"]))
        expected, got, called = self._both([a, b], [(0, 1)], 0.5)
        assert expected == [None] and got == []
        assert called == [(0, 1)]

    def test_identity_pairs_and_unequal_counts_make_no_call(self):
        shapes = [_shape(c, [1] * len(c)) for c in LAYOUTS["l_t"]]
        a = _pat(*shapes)
        b = _pat(*(_shape(c, [0] * len(c)) for c in LAYOUTS["l_t"]))
        fewer, empty = _pat(*shapes[:-1]), _pat()
        patterns = [a, b, fewer, empty, _pat()]
        pairs = [(0, 1), (0, 2), (2, 3), (3, 4), (1, 3)]
        expected, got, called = self._both(patterns, pairs, 0.0)
        assert expected == [Translation(-1, -1), None, None, ZERO_SHIFT, None]
        assert got == [(0, 1), (3, 4)]
        assert called == []

    def test_residual_around_the_limit_and_rounding_toward_zero(self):
        # one rectangle whose left and right edges move by (lo, hi): every
        # odd and even hull width, negative and positive midpoints, and
        # residuals from below to above threshold + slack
        a = _pat(rect(0, 0, 20, 20))
        others = [_pat(rect(lo, 0, 20 + hi, 20)) for lo in range(-5, 6) for hi in range(-5, 6)]
        patterns = [a, *others]
        pairs = [(0, k) for k in range(1, len(patterns))]
        for slack in SLACKS:
            expected, got, called = self._both(patterns, pairs, slack)
            assert got == _accepted(pairs, expected) and called == []
            residuals = {align.edge_fit_aligned(a, b)[1] for b in others}
            assert {2, 3, 4} <= residuals  # T + slack - 1 .. T + slack + 1 around 2 + slack
        # hulls [-3, 0] and [0, 3]: the midpoints -1.5 and 1.5 round toward zero
        odd = [_pat(rect(-3, 0, 20, 20)), _pat(rect(0, 0, 23, 20))]
        assert [fit[0] for fit in align.edge_fits(a, odd)] == [Translation(-1, 0), Translation(1, 0)]
        assert sorted(evaluate_pairs_edgemove([a, *odd], [(0, 1), (0, 2)], self.DOC)) == [(0, 1), (0, 2)]


COSINE_SLACKS = [IterationConfig().slack_for(_doc(ConstraintKind.COSINE, 0.9), it) for it in range(3)]


class TestEvaluatePairsCosine:
    def _both(self, patterns, pairs, doc, slack):
        """(the pairs the per-pair test accepts, in order; the pairs the
        batch accepts). The batch must return the tuples of `pairs`
        themselves, in their order."""
        expected = _accepted(pairs, [evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack) for i, j in pairs])
        got = evaluate_pairs_cosine(patterns, pairs, doc, slack)
        position = {id(pair): k for k, pair in enumerate(pairs)}
        ks = [position.get(id(pair)) for pair in got]
        assert None not in ks and ks == sorted(set(ks))
        return expected, got

    @given(st.lists(_window(), min_size=1, max_size=7), st.data(), st.sampled_from([0.9, 0.97, 1.0]))
    def test_equals_per_pair_test(self, patterns, data, threshold):
        # any pairs of the windows, in either order, repeated, or a window
        # with itself, at each iteration's slack
        n = len(patterns)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16))
        doc = _doc(ConstraintKind.COSINE, threshold)
        for slack in COSINE_SLACKS:
            expected, got = self._both(patterns, pairs, doc, slack)
            assert got == expected

    def test_slacks_are_the_iterations(self):
        assert COSINE_SLACKS == [0.05, 0.025, 0.0]

    def test_equal_and_empty_windows(self):
        # equal windows score exactly 1 and two empty windows are equal;
        # one empty window scores 0, so it is an edge only at a floor of 0
        a, b = _pat(rect(-10, -10, 10, 10)), _pat(rect(-10, -10, 10, 10))
        patterns = [a, b, _pat(), _pat()]
        pairs = [(0, 1), (0, 2), (2, 3), (3, 1)]
        for threshold, slack, accepted in [
            (1.0, 0.0, [(0, 1), (2, 3)]),
            (0.05, 0.05, pairs),
            (0.05, 0.025, [(0, 1), (2, 3)]),
        ]:
            expected, got = self._both(patterns, pairs, _doc(ConstraintKind.COSINE, threshold), slack)
            assert got == expected == accepted

    def test_pair_at_exactly_the_floor(self):
        # a pair whose cosine s equals threshold - slack exactly is an edge;
        # a floor one ulp higher refuses it
        a, b = _pat(rect(-20, -20, 20, 20)), _pat(rect(-20, -20, 20, 20), rect(-60, -60, -30, 60))
        s = raster.cosine_similarity(a.features(), b.features())
        assert 0.5 <= s < 0.75  # s + 0.25 and its difference with 0.25 are then exact
        for threshold, slack in [(s, 0.0), (s + 0.25, 0.25)]:
            assert threshold - slack == s
            above = math.nextafter(threshold, 2.0)
            for t, accepted in [(threshold, [(0, 1)]), (above, [])]:
                expected, got = self._both([a, b], [(0, 1)], _doc(ConstraintKind.COSINE, t), slack)
                assert got == expected == accepted

    def test_reads_each_pattern_features_once(self):
        patterns = [_pat(rect(-10, -10, 10, 10 + k)) for k in range(4)]
        pairs = [(i, j) for i in range(4) for j in range(4)]
        reads = []
        real = Pattern.features

        def recording(p):
            reads.append(p)
            return real(p)

        with patch.object(Pattern, "features", recording):
            evaluate_pairs_cosine(patterns, pairs, _doc(ConstraintKind.COSINE, 0.9))
        assert reads == patterns

    def test_no_pairs(self):
        assert evaluate_pairs_cosine([_pat()], [], _doc(ConstraintKind.COSINE, 0.9)) == []
