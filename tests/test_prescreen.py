from itertools import combinations

import numpy as np
from hypothesis import given, strategies as st

from pattern_forge.geometry import Pattern, extract_pattern
from pattern_forge.layout_io import ConstraintKind
from pattern_forge.synthetic import generate_synthetic
from pattern_forge.prescreen import (
    HIST_BINS,
    QUANTUM,
    build_candidates,
    compatible,
    signature,
)

from conftest import rect, staircase

COS = ConstraintKind.COSINE
EDGE = ConstraintKind.EDGEMOVE


def _extract_all(doc):
    return [extract_pattern(doc, m.center()) for m in doc.markers]


def _pat(*polys, radius=64) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


def _pairs(cand) -> list:
    """The candidate rows as (i, j) tuples, in their order."""
    return [tuple(pair) for pair in cand.pairs.tolist()]


class TestSignature:
    def test_rectangle(self):
        sig = signature(_pat(rect(0, 0, 10, 6)))
        assert sig.polygon_count == 1
        assert sig.vertex_histogram == (1,) + (0,) * (HIST_BINS - 1)
        assert sig.quantized_area == 60 // 8
        assert sig.quantized_bbox == (10 // 8, 6 // 8)

    def test_empty(self):
        sig = signature(_pat())
        assert sig.polygon_count == 0
        assert sig.quantized_area == 0
        assert sig.quantized_bbox == (0, 0)

    def test_histogram_bins_by_vertex_count(self):
        # 4 verts -> bin 0, 6 -> bin 1, 18 and 20 -> last bin
        p = _pat(
            rect(0, 0, 4, 4),
            staircase(1, x0=10),
            staircase(7, x0=30),
            staircase(8, x0=-60, y0=-40),
        )
        hist = signature(p).vertex_histogram
        assert hist[0] == 1 and hist[1] == 1 and hist[-1] == 2
        assert sum(hist) == 4

    def test_translation_invariance(self):
        a = _pat(rect(0, 0, 10, 6))
        b = Pattern((999, -5), 64, (rect(0, 0, 10, 6),))
        assert signature(a) == signature(b)

    def test_quantum_controls_area_bucket(self):
        # areas one apart across a multiple of QUANTUM fall in neighbouring
        # buckets; areas within the same quantum step share one
        below = _pat(rect(0, 0, 4 * QUANTUM - 1, 1))
        at = _pat(rect(0, 0, 4 * QUANTUM, 1))
        top = _pat(rect(0, 0, 5 * QUANTUM - 1, 1))
        assert signature(below).quantized_area + 1 == signature(at).quantized_area
        assert signature(at).quantized_area == signature(top).quantized_area
        assert signature(below) != signature(at)


class TestCompatible:
    def test_edgemove_needs_equal_signatures(self):
        a = _pat(rect(0, 0, 32, 32))
        b = _pat(rect(5, 5, 37, 37))    # same shape elsewhere
        c = _pat(rect(0, 0, 32, 40))    # different quantized area and bbox
        assert compatible(a, b, EDGE)
        assert not compatible(a, c, EDGE)

    def test_cosine_count_gate(self):
        a = _pat(rect(0, 0, 10, 10))
        b = _pat(rect(0, 0, 10, 10), rect(20, 20, 24, 24))
        assert not compatible(a, b, COS)

    def test_cosine_area_band(self):
        a = _pat(rect(0, 0, 10, 10))      # 100
        b = _pat(rect(0, 0, 10, 11))      # 110: |diff| = 10 <= 11.0
        c = _pat(rect(0, 0, 10, 12))      # 120: |diff| = 20 > 12.0
        assert compatible(a, b, COS)
        assert not compatible(a, c, COS)

    def test_cosine_ignores_vertex_topology(self):
        # an L and a rectangle of equal area pass Stage A under cosine
        l_shape = staircase(1, run=8, rise=8)   # area = 3 * 64
        box = rect(0, 0, 12, 16)                # area 192
        assert compatible(_pat(l_shape), _pat(box), COS)
        assert not compatible(_pat(l_shape), _pat(box), EDGE)


class TestBuildCandidates:
    def test_identical_patterns_keep_every_pair(self):
        pats = [_pat(rect(0, 0, 16, 16)) for _ in range(5)]
        for kind in (COS, EDGE):
            cand = build_candidates(pats, kind)
            assert _pairs(cand) == list(combinations(range(5), 2))
            assert cand.stats.total_pairs == 10
            assert cand.stats.after_topology == 10
            assert cand.stats.after_thumbnail == 10

    def test_pairs_sorted_and_oriented(self):
        pats = [
            _pat(rect(0, 0, 16, 16)),
            _pat(rect(0, 0, 20, 20)),
            _pat(rect(2, 2, 18, 18)),
            _pat(rect(-8, -8, 8, 8)),
        ]
        for kind in (COS, EDGE):
            cand = build_candidates(pats, kind)
            assert cand.pairs.dtype == np.int64 and cand.pairs.shape == (len(_pairs(cand)), 2)
            assert _pairs(cand) == sorted(_pairs(cand))
            assert all(i < j for i, j in _pairs(cand))

    def test_distinct_counts_eliminate_everything(self):
        pats = [
            _pat(rect(0, 0, 16, 16)),
            _pat(rect(0, 0, 16, 16), rect(30, 30, 34, 34)),
            _pat(rect(0, 0, 16, 16), rect(30, 30, 34, 34), rect(-20, -20, -16, -16)),
        ]
        for kind in (COS, EDGE):
            cand = build_candidates(pats, kind)
            assert cand.pairs.shape == (0, 2) and cand.pairs.dtype == np.int64
            assert cand.stats.after_topology == 0

    def test_cosine_area_band_matches_brute_filter(self, rng):
        pats = []
        for _ in range(30):
            w = rng.randrange(8, 60)
            h = rng.randrange(8, 60)
            pats.append(_pat(rect(0, 0, w, h)))
        cand = build_candidates(pats, COS)
        brute = [
            (i, j)
            for i, j in combinations(range(30), 2)
            if compatible(pats[i], pats[j], COS)
        ]
        assert _pairs(cand) == brute
        assert cand.stats.after_thumbnail == cand.stats.after_topology

    def test_cosine_stage_a_is_the_only_cut(self):
        # orthogonal bars of equal area share a bucket, and no later stage
        # drops the pair before the relaxed DCT test
        bar_h = _pat(rect(-32, -4, 32, 4), radius=32)
        bar_v = _pat(rect(-4, -32, 4, 32), radius=32)
        cand = build_candidates([bar_h, bar_v], COS)
        assert _pairs(cand) == [(0, 1)]
        assert cand.stats.after_thumbnail == cand.stats.after_topology == 1

    def test_edgemove_bbox_is_per_axis(self):
        bar_h = _pat(rect(-32, -4, 32, 4), radius=32)
        bar_v = _pat(rect(-4, -32, 4, 32), radius=32)
        cand = build_candidates([bar_h, bar_v], EDGE)
        # same signature up to bbox orientation? no: bbox quantizes per axis
        assert _pairs(cand) == []
        square = [_pat(rect(-16, -16, 16, 16)), _pat(rect(-16, -16, 16, 16))]
        cand2 = build_candidates(square, EDGE)
        assert _pairs(cand2) == [(0, 1)]
        assert cand2.stats.after_thumbnail == cand2.stats.after_topology

    def test_generated_corpus_no_false_negatives(self):
        k, m = 3, 4
        for kind, jitter in ((COS, 0), (EDGE, 0), (EDGE, 8)):
            doc = generate_synthetic(k, m, jitter, seed=21, constraint=kind)
            pats = _extract_all(doc)
            cand = build_candidates(pats, kind)
            same_template = {
                (i, j)
                for t in range(k)
                for i, j in combinations(range(t * m, (t + 1) * m), 2)
            }
            assert same_template <= set(_pairs(cand))
            # templates differ in polygon count, so nothing else survives
            assert set(_pairs(cand)) == same_template
            assert cand.stats.total_pairs == (k * m) * (k * m - 1) // 2

    def test_determinism(self):
        doc = generate_synthetic(3, 3, 6, seed=4)
        pats = _extract_all(doc)
        a = build_candidates(pats, COS)
        b = build_candidates(pats, COS)
        assert np.array_equal(a.pairs, b.pairs) and a.stats == b.stats

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40)), max_size=24))
    def test_both_stages_match_the_pair_test(self, windows):
        # windows of 1-3 bars whose total areas crowd the 10 % band edge
        # (widths and heights 1..40, many equal areas): each Stage A is
        # exactly `compatible` over all pairs, in ascending order
        pats = [_pat(*(rect(40 * k, 0, 40 * k + w, h) for k in range(count))) for count, w, h in windows]
        for kind in (COS, EDGE):
            brute = [(i, j) for i, j in combinations(range(len(pats)), 2) if compatible(pats[i], pats[j], kind)]
            assert _pairs(build_candidates(pats, kind)) == brute
