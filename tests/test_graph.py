import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_forge import align, graph, raster
from pattern_forge.align import edge_fit_aligned
from pattern_forge.geometry import MatchError, Pattern, Polygon, Translation, ZERO_SHIFT, match_polygons
from pattern_forge.graph import (
    MARGIN,
    assemble,
    dump_edges,
    evaluate_pair_relaxed,
    evaluate_pairs_cosine,
    evaluate_pairs_edgemove,
)
from pattern_forge.layout_io import ConstraintKind, LayoutDocument
from pattern_forge.pipeline import IterationConfig

from conftest import rect, staircase
from oracles import assemble_sets, check_symmetric


def _doc(kind: ConstraintKind, threshold: float) -> LayoutDocument:
    return LayoutDocument(64, kind, threshold, (), (), (), ())


def _pat(*polys, radius=64) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


def _arr(pairs) -> np.ndarray:
    """A list of (i, j) pairs as the (m, 2) int64 pair array."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _rows(pairs: np.ndarray) -> list:
    """The rows of a pair array as (i, j) tuples, in their order."""
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    return [tuple(pair) for pair in pairs.tolist()]


def _assemble_error(build, n, edges) -> str:
    with pytest.raises(ValueError) as info:
        build(n, edges)
    return str(info.value)


@st.composite
def _edge_lists(draw):
    """(n, edges): a simple graph over 0..11 nodes (n = 0 and 1 included,
    isolated nodes common) as a shuffled list of pairs, each in either
    orientation."""
    n = draw(st.integers(0, 12))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, draw(st.permutations([(j, i) if f else (i, j) for (i, j), f in zip(chosen, flips)]))


class TestSimilarityGraph:
    def test_assemble_basics(self):
        g = assemble(4, [(0, 1), (2, 1), (0, 3)])
        assert [g.neighbours(i) for i in range(4)] == [[1, 3], [0, 2], [1], [0]]
        assert g.indptr.tolist() == [0, 2, 4, 5, 6] and g.indices.tolist() == [1, 3, 0, 2, 1, 0]
        assert g.edge_count == 3
        assert g.degree(1) == 2 and g.degree(2) == 1
        assert _rows(g.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_validation(self):
        # assemble's errors carry the set-based builder's messages: an
        # index outside 0..n-1 (negative too), a self-loop, a pair named
        # twice in either orientation
        for n, edges, message in [
            (2, [(0, 5)], "edge (0, 5) outside 0..1"),
            (3, [(0, 1), (-1, 2)], "edge (-1, 2) outside 0..2"),
            (0, [(0, 0)], "edge (0, 0) outside 0..-1"),
            (3, [(0, 1), (2, 2)], "self-loop at node 2"),
            (3, [(0, 1), (1, 0)], "duplicate pair (0, 1)"),
            (3, [(1, 2), (0, 1), (1, 2)], "duplicate pair (1, 2)"),
            (3, [(1, 1), (1, 1)], "duplicate pair (1, 1)"),
        ]:
            assert _assemble_error(assemble, n, edges) == message
            assert _assemble_error(assemble, n, _arr(edges)) == message
            assert _assemble_error(assemble_sets, n, edges) == message
        # the reference's symmetry check, which the CSR graph needs no more
        for adjacency, message in [(((0,), ()), "self-loop"), (((1,), ()), "reverse"), (((), ()), "size")]:
            with pytest.raises(ValueError, match=message):
                check_symmetric(3 if message == "size" else 2, adjacency)

    @given(_edge_lists(), st.booleans())
    def test_matches_the_set_based_builder(self, case, as_array):
        # neighbour lists, degrees, edge count, edges and the dump all
        # equal those of the set-based reference, for a list or an array
        n, edges = case
        g = assemble(n, _arr(edges) if as_array else edges)
        adjacency = assemble_sets(n, edges)
        assert g.n == n and g.indptr.dtype == g.indices.dtype == np.int64
        assert [g.neighbours(i) for i in range(n)] == [list(nbrs) for nbrs in adjacency]
        assert [g.degree(i) for i in range(n)] == [len(nbrs) for nbrs in adjacency]
        assert g.edge_count == len(edges) == sum(map(len, adjacency)) // 2
        upper = [(i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j]
        assert _rows(g.edges()) == upper
        assert dump_edges(g) == "".join(f"{i} {j}\n" for i, j in upper)

    @given(_edge_lists(), st.lists(st.tuples(st.sampled_from(["outside", "negative", "loop", "again", "flipped"]),
                                             st.integers(0, 40)), min_size=1, max_size=3))
    def test_faults_raise_as_the_set_based_builder(self, case, faults):
        # one to three faults put anywhere in a valid list: the first error
        # in input order (or the lowest self-loop) is the reference's
        n, edges = case
        edges = list(edges)
        for kind, at in faults:
            if kind in ("again", "flipped") and not edges:
                kind = "loop"
            if kind == "outside":
                bad = (at % (n + 1), n + at % 3)
            elif kind == "negative":
                bad = (-1 - at % 3, at % max(n, 1))
            elif kind == "loop":
                bad = (at % max(n, 1),) * 2
            else:
                i, j = edges[at % len(edges)]
                bad = (i, j) if kind == "again" else (j, i)
            edges.insert(at % (len(edges) + 1), bad)
        assert _assemble_error(assemble, n, edges) == _assemble_error(assemble_sets, n, edges)


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
        a.features  # computed here and kept
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
        assert _rows(g.edges()) == [(0, 1), (1, 2)]

    def test_shuffled_input_same_graph(self, rng):
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3]
        base = assemble(8, edges)
        for _ in range(5):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            g = assemble(8, shuffled)
            assert np.array_equal(g.indptr, base.indptr) and np.array_equal(g.indices, base.indices)

    def test_flipped_pair_normalized(self):
        g = assemble(2, [(1, 0)])
        assert _rows(g.edges()) == [(0, 1)]

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
    if a.layout_key != b.layout_key:
        return True
    try:
        ia, ib = match_polygons(a, b)
    except MatchError:
        return True
    identity = np.arange(len(a.shapes))
    return not (np.array_equal(ia, identity) and np.array_equal(ib, identity))


SLACKS = [IterationConfig().slack_for(_doc(ConstraintKind.EDGEMOVE, 2.0), it) for it in range(3)]
# (BATCH_PAIRS, BATCH_CELLS): the defaults, blocks of 3 pairs, and blocks cut
# to 1 pair by the cell bound
BLOCKS = [(align.BATCH_PAIRS, align.BATCH_CELLS), (3, 1 << 20), (1024, 20)]


def _block_fits(patterns, pairs) -> dict:
    """pair position -> (shift, residual, raw) from the blocks of
    align.iter_edge_fits, checking that every block is int64 arrays of one
    length and that no pair appears twice."""
    out = {}
    for block in align.iter_edge_fits(patterns, _arr(pairs)):
        assert len(block) == 5
        assert all(a.dtype == np.int64 and a.ndim == 1 and len(a) == len(block[0]) for a in block)
        for k, dx, dy, residual, raw in zip(*(a.tolist() for a in block)):
            assert k not in out
            out[k] = (Translation(dx, dy), residual, raw)
    return out


class TestEdgeFits:
    @given(st.lists(_window(), min_size=1, max_size=6), st.data(), st.sampled_from(BLOCKS))
    def test_equals_per_pair_aligner(self, patterns, data, block):
        # any pairs of the windows, in either order, repeated, or a window
        # with itself: shift, residual and raw offset all equal the per-pair
        # aligner's, with blocks cut small. The kernel yields exactly the
        # pairs that have a fit, each once
        n = len(patterns)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
        expected = [edge_fit_aligned(patterns[i], patterns[j]) for i, j in pairs]
        rep, others = patterns[0], patterns[data.draw(st.integers(0, n - 1)):]
        with patch.object(align, "BATCH_PAIRS", block[0]), patch.object(align, "BATCH_CELLS", block[1]):
            got = _block_fits(patterns, pairs)
            fits = align.edge_fits(rep, others)
        assert got == {k: fit for k, fit in enumerate(expected) if fit is not None}
        # one representative against a list, itself included
        assert fits == [edge_fit_aligned(rep, p) for p in others]

    def test_no_patterns(self):
        assert align.edge_fits(_pat(), []) == []
        assert list(align.iter_edge_fits([], _arr([]))) == []
        assert list(align.iter_edge_fits([_pat(rect(0, 0, 4, 4))], _arr([]))) == []

    def test_fallback_pairs_come_as_one_last_block(self):
        # a permuted correspondence under equal layout keys, and unequal
        # layout keys with equal shape counts: both go through the per-pair
        # aligner, and their fits come after every array block
        shapes = [_shape(c, [0] * len(c)) for c in LAYOUTS["rects"]]
        a, permuted = _pat(*shapes), _pat(*reversed(shapes))
        other_key = _pat(*(_shape(c, [0] * len(c)) for c in LAYOUTS["l_t"]))
        assert a.layout_key == permuted.layout_key
        assert a.layout_key != other_key.layout_key
        assert len(a.shapes) == len(other_key.shapes)
        patterns = [a, permuted, other_key, a]
        pairs = [(0, 1), (0, 2), (0, 3)]
        blocks = list(align.iter_edge_fits(patterns, _arr(pairs)))
        assert [b[0].tolist() for b in blocks] == [[2], [0]]  # (0, 2) has no fit
        assert _block_fits(patterns, pairs) == {
            k: fit for k, (i, j) in enumerate(pairs)
            if (fit := edge_fit_aligned(patterns[i], patterns[j])) is not None
        }
        assert edge_fit_aligned(a, other_key) is None
        assert edge_fit_aligned(a, permuted) == (ZERO_SHIFT, 0, 0)

    def test_unequal_counts_never_appear(self):
        a = _pat(rect(0, 0, 8, 8), rect(20, 0, 28, 8))
        patterns = [a, _pat(rect(0, 0, 8, 8)), _pat(), a]
        pairs = [(0, 1), (1, 0), (0, 2), (2, 1), (0, 3)]
        called = []
        real = align.edge_fit_aligned

        def recording(x, y):
            called.append((x, y))
            return real(x, y)

        with patch.object(align, "edge_fit_aligned", recording):
            assert _block_fits(patterns, pairs) == {4: (ZERO_SHIFT, 0, 0)}
        assert called == []

    def test_residuals_at_and_above_the_limit(self):
        # a right edge moved by 4 and by 5: residuals 2 and 3 (hulls [0, 4]
        # and [0, 5]), so a limit of 2 keeps the first pair and refuses the
        # second, in the kernel's arrays and in the graph
        a = _pat(rect(0, 0, 20, 20))
        patterns = [a, _pat(rect(0, 0, 24, 20)), _pat(rect(0, 0, 25, 20))]
        pairs = [(0, 1), (0, 2)]
        assert _block_fits(patterns, pairs) == {0: (Translation(2, 0), 2, 4), 1: (Translation(2, 0), 3, 5)}
        doc = _doc(ConstraintKind.EDGEMOVE, 2.0)
        assert _rows(evaluate_pairs_edgemove(patterns, _arr(pairs), doc)) == [(0, 1)]
        assert _rows(evaluate_pairs_edgemove(patterns, _arr(pairs), doc, 1.0)) == pairs


def _accepted(pairs, results) -> list:
    """The pairs whose per-pair result is not a rejection, in order."""
    return [pair for pair, t in zip(pairs, results) if t is not None]


class TestEvaluatePairsEdgemove:
    DOC = _doc(ConstraintKind.EDGEMOVE, 2.0)

    def _both(self, patterns, pairs, slack):
        """(per-pair results, the rows the batch accepted, pairs the batch
        sent to align.edge_fit_aligned). The batch returns rows of the
        pair array, in their order."""
        expected = [evaluate_pair_relaxed(patterns[i], patterns[j], self.DOC, slack) for i, j in pairs]
        called = []
        where = {id(p): k for k, p in enumerate(patterns)}
        real = align.edge_fit_aligned

        def recording(a, b):
            called.append((where[id(a)], where[id(b)]))
            return real(a, b)

        with patch.object(align, "edge_fit_aligned", recording):
            got = evaluate_pairs_edgemove(patterns, _arr(pairs), self.DOC, slack)
        return expected, _rows(got), called

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
        assert a.layout_key == b.layout_key
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
        assert _rows(evaluate_pairs_edgemove([a, *odd], _arr([(0, 1), (0, 2)]), self.DOC)) == [(0, 1), (0, 2)]


COSINE_SLACKS = [IterationConfig().slack_for(_doc(ConstraintKind.COSINE, 0.9), it) for it in range(3)]


class TestEvaluatePairsCosine:
    def _both(self, patterns, pairs, doc, slack):
        """(the pairs the per-pair test accepts, in order; the rows of the
        pair array the batch accepts, in their order)."""
        expected = _accepted(pairs, [evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack) for i, j in pairs])
        return expected, _rows(evaluate_pairs_cosine(patterns, _arr(pairs), doc, slack))

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
        s = raster.cosine_similarity(a.features, b.features)
        assert 0.5 <= s < 0.75  # s + 0.25 and its difference with 0.25 are then exact
        for threshold, slack in [(s, 0.0), (s + 0.25, 0.25)]:
            assert threshold - slack == s
            above = math.nextafter(threshold, 2.0)
            for t, accepted in [(threshold, [(0, 1)]), (above, [])]:
                expected, got = self._both([a, b], [(0, 1)], _doc(ConstraintKind.COSINE, t), slack)
                assert got == expected == accepted

    @given(st.lists(_window(), min_size=1, max_size=6), st.data(), st.sampled_from([1, 2, 3]))
    def test_equals_per_pair_test_by_tiles_at_a_pair_floor(self, windows, data, tile):
        # windows with equal copies (empty ones among them), any pairs of
        # them shuffled, repeated and with i == j, tiles of 1 to 3 anchors
        # and partners, and floors at one pair's cosine and one ulp either
        # side of it
        copies = data.draw(st.lists(st.sampled_from(windows), max_size=3))
        patterns = data.draw(st.permutations(windows + [_pat(*w.shapes) for w in copies]))
        n = len(patterns)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=24))
        i, j = data.draw(st.sampled_from(pairs))
        s = raster.cosine_similarity(patterns[i].features, patterns[j].features)
        with patch.object(graph, "TILE", tile):
            for floor in [f for f in (math.nextafter(s, -2.0), s, math.nextafter(s, 2.0)) if 0.0 <= f <= 1.0]:
                expected, got = self._both(patterns, pairs, _doc(ConstraintKind.COSINE, floor), 0.0)
                assert got == expected
                assert ((i, j) in got) == (floor <= s)

    def test_exact_path_only_near_the_floor_or_for_two_empty_windows(self):
        # pattern 4 equals 0, and 2 and 3 are empty; the floor is the
        # cosine of (0, 1). The per-pair cosine runs for exactly the pairs
        # at that cosine and those of two empty windows, whatever the tile
        a, b = _pat(rect(-20, -20, 20, 20)), _pat(rect(-20, -20, 20, 20), rect(-60, -60, -30, 60))
        patterns = [a, b, _pat(), _pat(), _pat(*a.shapes), _pat(rect(-10, -30, 30, 10))]
        pairs = [(i, j) for i in range(6) for j in range(6)]
        feats = [p.features for p in patterns]
        s = raster.cosine_similarity(feats[0], feats[1])
        near = {(i, j) for i, j in pairs if abs(float(feats[i] @ feats[j]) - s) <= 2 * MARGIN}
        assert near == {(0, 1), (1, 0), (4, 1), (1, 4)}
        assert all(abs(float(feats[i] @ feats[j]) - s) > 1e-3 for i, j in pairs if (i, j) not in near)
        empty_pairs = {(i, j) for i in (2, 3) for j in (2, 3)}
        where = {id(f): k for k, f in enumerate(feats)}
        real = raster.cosine_similarity
        for tile in (1, 4, graph.TILE):
            called = []

            def recording(u, v):
                called.append((where[id(u)], where[id(v)]))
                return real(u, v)

            with patch.object(graph, "TILE", tile), patch.object(raster, "cosine_similarity", recording):
                got = _rows(evaluate_pairs_cosine(patterns, _arr(pairs), _doc(ConstraintKind.COSINE, s)))
            assert sorted(called) == sorted(near | empty_pairs)
            assert got == [(i, j) for i, j in pairs if real(feats[i], feats[j]) >= s]
            assert (0, 1) in got and (2, 3) in got and (0, 2) not in got

    def test_reads_each_pattern_features_once(self):
        patterns = [_pat(rect(-10, -10, 10, 10 + k)) for k in range(4)]
        pairs = [(i, j) for i in range(4) for j in range(4)]
        reads = []
        cached = Pattern.__dict__["features"]

        def recording(p):
            reads.append(p)
            return cached.__get__(p, Pattern)

        with patch.object(Pattern, "features", property(recording)):
            evaluate_pairs_cosine(patterns, _arr(pairs), _doc(ConstraintKind.COSINE, 0.9))
        assert reads == patterns

    def test_no_pairs(self):
        assert _rows(evaluate_pairs_cosine([_pat()], _arr([]), _doc(ConstraintKind.COSINE, 0.9))) == []
        assert _rows(evaluate_pairs_edgemove([_pat()], _arr([]), _doc(ConstraintKind.EDGEMOVE, 2.0))) == []
