from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_forge.geometry import Axis, Marker, Pattern, Translation, ZERO_SHIFT
from pattern_forge.raster import Bitmap, rasterize
from pattern_forge.align import (
    DegenerateSpectrumError,
    FeasibleInterval,
    NoCorrespondenceError,
    _half_toward_zero,
    _hull_fit,
    clamp_to_marker,
    correlation_surface,
    edge_fit_aligned,
    edge_minmax_align,
    hull_fits,
    pair_intervals,
    phase_correlate,
    pixel_shift,
    xy_minmax_align,
)

from conftest import rect, staircase
from oracles import brute_minmax_residual, edge_fit, minmax_residual_at


def _pat(*polys, radius=64) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


def _bitmap(side: int, ones: list[tuple[int, int]], pitch=1) -> Bitmap:
    px = np.zeros((side, side))
    for x, y in ones:
        px[y, x] = 1.0
    return Bitmap(side, px, Fraction(pitch))


class TestHalfTowardZero:
    @pytest.mark.parametrize(
        "m,expect", [(0, 0), (1, 0), (2, 1), (3, 1), (-1, 0), (-2, -1), (-3, -1), (7, 3), (-7, -3)]
    )
    def test_values(self, m, expect):
        assert _half_toward_zero(m) == expect

    @given(st.integers(-10**6, 10**6))
    def test_magnitude_and_parity(self, m):
        h = _half_toward_zero(m)
        assert abs(2 * h - m) <= 1
        assert abs(h) <= abs(m) // 2 + 1

    def test_elementwise_on_arrays(self):
        m = np.arange(-7, 8, dtype=np.int64)
        assert _half_toward_zero(m).tolist() == [_half_toward_zero(int(v)) for v in m]


class TestHullFits:
    @given(
        st.lists(st.booleans(), min_size=0, max_size=6),
        st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6), min_size=1, max_size=5),
    )
    def test_rows_are_hull_fit(self, x_axis, rows):
        # every row scored at once equals _hull_fit on that row's offsets,
        # odd hull widths and axes without offsets included
        e = len(x_axis)
        offsets = np.asarray([r[:e] for r in rows], dtype=np.int64).reshape(len(rows), e)
        dx, dy, residual, raw = hull_fits(offsets, np.asarray(x_axis, dtype=bool))
        for k, row in enumerate(offsets.tolist()):
            shift, res, worst = _hull_fit([(Axis.X if x else Axis.Y, d) for x, d in zip(x_axis, row)])
            assert (dx[k], dy[k], residual[k], raw[k]) == (shift.dx, shift.dy, res, worst)


class TestPhaseCorrelation:
    def test_identical_bitmaps_zero_shift(self, rng):
        px = np.array([[rng.random() for _ in range(8)] for _ in range(8)])
        bm = Bitmap(8, px)
        assert pixel_shift(bm, bm) == (0, 0)

    def test_planted_circular_shifts(self, rng):
        for _ in range(30):
            px = np.array([[rng.random() for _ in range(16)] for _ in range(16)])
            ref = Bitmap(16, px)
            sx = rng.randrange(-7, 9)
            sy = rng.randrange(-7, 9)
            moved = Bitmap(16, np.roll(px, (sy, sx), axis=(0, 1)))
            assert pixel_shift(ref, moved) == (sx, sy)

    def test_wraparound_window(self):
        # shifts live in (-G/2, G/2]: rolling by side-1 reads back as -1,
        # rolling by exactly half stays +half
        ref = _bitmap(8, [(2, 3), (5, 1), (4, 6)])
        left = Bitmap(8, np.roll(ref.pixels, 7, axis=1))
        assert pixel_shift(ref, left) == (-1, 0)
        half = Bitmap(8, np.roll(ref.pixels, 4, axis=0))
        assert pixel_shift(ref, half) == (0, 4)

    def test_tie_breaks_row_major(self):
        # period-4 content: shifting by (4, 0) reproduces the bitmap, so the
        # surface peaks equally at 0 and 4; the smallest (py, px) wins
        ref = _bitmap(8, [(0, 0), (4, 0), (0, 4), (4, 4)])
        assert pixel_shift(ref, ref) == (0, 0)
        surf = correlation_surface(ref, ref)
        ties = np.isclose(surf.values, surf.peak_value, atol=1e-9)
        assert ties.sum() >= 4 and surf.peak == (0, 0)

    def test_geometric_shift_in_nanometers(self):
        doc_shapes = [rect(-20, -12, 12, 8)]
        a = _pat(*doc_shapes)
        b = _pat(*(p.translated(16, -24) for p in doc_shapes))
        t = phase_correlate(rasterize(a, 32), rasterize(b, 32))
        assert t == Translation(16, -24)

    def test_pitch_scaling_rounds_ties_to_even(self):
        ref = _bitmap(8, [(1, 1)], pitch=Fraction(3, 2))
        one = _bitmap(8, [(2, 1)], pitch=Fraction(3, 2))
        # 1 pixel * 1.5 nm = 1.5 -> rounds to 2; 3 pixels * 1.5 = 4.5 -> 4
        assert phase_correlate(ref, one) == Translation(2, 0)
        three = _bitmap(8, [(4, 1)], pitch=Fraction(3, 2))
        assert phase_correlate(ref, three) == Translation(4, 0)

    def test_empty_bitmap_raises(self):
        empty = Bitmap(8, np.zeros((8, 8)))
        full = _bitmap(8, [(1, 1)])
        with pytest.raises(DegenerateSpectrumError):
            pixel_shift(empty, full)
        with pytest.raises(DegenerateSpectrumError):
            pixel_shift(full, empty)

    def test_mismatched_sides_and_pitches_raise(self):
        a = _bitmap(8, [(1, 1)])
        b = _bitmap(16, [(1, 1)])
        with pytest.raises(ValueError, match="sides"):
            correlation_surface(a, b)
        c = _bitmap(8, [(1, 1)], pitch=2)
        with pytest.raises(ValueError, match="pitch"):
            phase_correlate(a, c)

    def test_peak_value_near_one_for_pure_shift(self):
        ref = _bitmap(16, [(2, 3), (7, 9), (12, 4)])
        moved = Bitmap(16, np.roll(ref.pixels, (5, -3), axis=(0, 1)))
        surf = correlation_surface(ref, moved)
        assert surf.peak_value > 0.9


class TestIntervals:
    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            FeasibleInterval(Axis.X, 3, 2)

    def test_pair_intervals_sorted_both_ways(self):
        a = rect(0, 0, 4, 4)
        b = rect(2, 2, 14, 14)
        ix, iy = pair_intervals(a, b)
        assert (ix.d_min, ix.d_max) == (2, 10)
        assert ix.midpoint == 6 and ix.width == 8
        # swap roles: interval mirrors
        jx, _ = pair_intervals(b, a)
        assert (jx.d_min, jx.d_max) == (-10, -2)
        assert jx.midpoint == -6

    def test_equal_boxes_degenerate_interval(self):
        ix, iy = pair_intervals(rect(5, 5, 9, 9), rect(8, 1, 12, 5))
        assert (ix.d_min, ix.d_max, ix.width) == (3, 3, 0)
        assert (iy.d_min, iy.d_max) == (-4, -4)

    def test_midpoint_rounds_toward_zero(self):
        assert FeasibleInterval(Axis.X, -3, 2).midpoint == 0
        assert FeasibleInterval(Axis.X, -2, 3).midpoint == 0
        assert FeasibleInterval(Axis.X, 1, 2).midpoint == 1
        assert FeasibleInterval(Axis.X, -2, -1).midpoint == -1


class TestXyMinmax:
    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_recovers_exact_translation(self, dx, dy):
        # shapes are separated by much more than the shift, so whichever
        # path runs (overlap match or centroid fallback) pairs correctly
        shapes = (staircase(2), rect(30, -20, 36, -14))
        a = _pat(*shapes)
        b = _pat(*(p.translated(dx, dy) for p in shapes))
        assert xy_minmax_align(a, b) == Translation(dx, dy)

    def test_narrowest_interval_wins_axis(self):
        # pair 0 pins x exactly (width 0); pair 1 only loosely (width 2)
        a = _pat(rect(0, 0, 10, 2), rect(20, 0, 22, 2))
        b = _pat(rect(1, 0, 11, 2), rect(19, 0, 23, 2))
        t = xy_minmax_align(a, b)
        assert t.dx == 1

    def test_equal_width_first_pair_wins(self):
        a = _pat(rect(0, 0, 4, 4), rect(10, 0, 14, 4))
        b = _pat(rect(1, 0, 5, 4), rect(13, 0, 17, 4))
        assert xy_minmax_align(a, b).dx == 1

    def test_axes_decided_independently(self):
        # x pinned by pair 0, y pinned by pair 1
        a = _pat(rect(0, 0, 4, 10), rect(20, 0, 30, 4))
        b = _pat(rect(2, -1, 6, 11), rect(19, 3, 31, 7))
        t = xy_minmax_align(a, b)
        assert t == Translation(2, 3)

    def test_centroid_fallback_when_disjoint(self):
        shapes = (rect(0, 0, 4, 4), rect(12, 0, 16, 4))
        a = _pat(*shapes)
        b = _pat(*(p.translated(30, 30) for p in shapes))
        assert xy_minmax_align(a, b) == Translation(30, 30)

    def test_empty_pattern_raises(self):
        with pytest.raises(NoCorrespondenceError):
            xy_minmax_align(_pat(), _pat(rect(0, 0, 2, 2)))
        with pytest.raises(NoCorrespondenceError):
            xy_minmax_align(_pat(rect(0, 0, 2, 2)), _pat())


class TestEdgeMinmax:
    def test_known_example(self):
        disp = [(Axis.X, -3), (Axis.X, 1), (Axis.X, 7)]
        t, r = edge_minmax_align(disp)
        assert t == Translation(2, 0) and r == 5

    def test_interval_example(self):
        disp = [(Axis.X, 2), (Axis.X, 10)]
        t, r = edge_minmax_align(disp)
        assert t == Translation(6, 0) and r == 4

    def test_empty_axis_contributes_zero(self):
        t, r = edge_minmax_align([(Axis.Y, 4), (Axis.Y, 8)])
        assert t == Translation(0, 6) and r == 2
        assert edge_minmax_align([]) == (ZERO_SHIFT, 0)

    def test_residual_is_worse_axis(self):
        disp = [(Axis.X, 0), (Axis.X, 2), (Axis.Y, -10), (Axis.Y, 10)]
        t, r = edge_minmax_align(disp)
        assert r == 10 and t == Translation(1, 0)

    @given(st.lists(st.integers(-500, 500), min_size=1, max_size=40))
    def test_matches_brute_force_oracle(self, values):
        t, r = edge_minmax_align([(Axis.X, v) for v in values])
        assert r == brute_minmax_residual(values)
        assert minmax_residual_at(values, t.dx) == r

    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=20))
    def test_shift_parity_never_hurts(self, values):
        # no integer shift beats the midpoint
        t, r = edge_minmax_align([(Axis.Y, v) for v in values])
        lo, hi = min(values), max(values)
        assert all(minmax_residual_at(values, u) >= r for u in range(lo, hi + 1))


class TestClamp:
    def test_inside_untouched(self):
        m = Marker(0, 0, 10, 10)
        assert clamp_to_marker(Translation(2, 3), (4, 4), m) == Translation(2, 3)

    def test_clamps_each_axis(self):
        m = Marker(0, 0, 10, 10)
        assert clamp_to_marker(Translation(100, -100), (4, 4), m) == Translation(6, -4)

    def test_point_marker_forces_zero(self):
        m = Marker(5, 5, 5, 5)
        assert clamp_to_marker(Translation(3, -2), (5, 5), m) == ZERO_SHIFT


class TestEdgeFit:
    def test_identical_zero(self):
        p = _pat(staircase(3), rect(30, 30, 40, 36))
        assert edge_fit(p, p) == 0
        assert edge_fit_aligned(p, p) == (ZERO_SHIFT, 0, 0)

    def test_both_empty_fit(self):
        assert edge_fit(_pat(), _pat()) == 0
        assert edge_fit_aligned(_pat(), _pat()) == (ZERO_SHIFT, 0, 0)

    def test_count_mismatch_none(self):
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(0, 0, 4, 4), rect(10, 10, 14, 14))
        assert edge_fit(a, b) is None
        assert edge_fit_aligned(a, b) is None

    def test_disjoint_none(self):
        a = _pat(rect(0, 0, 4, 4))
        b = _pat(rect(40, 40, 44, 44))
        assert edge_fit(a, b) is None
        assert edge_fit_aligned(a, b) is None

    def test_single_edge_move_raw_vs_aligned(self):
        a = _pat(rect(0, 0, 20, 20))
        b = _pat(rect(0, 0, 26, 20))
        assert edge_fit(a, b) == 6
        t, r, raw = edge_fit_aligned(a, b)
        assert t == Translation(3, 0) and r == 3 and raw == 6

    def test_pure_translation_aligned_residual_zero(self):
        # shift small enough that the patterns still overlap in place
        a = _pat(staircase(2))
        b = _pat(staircase(2).translated(2, 1))
        assert edge_fit(a, b) == 2
        assert edge_fit_aligned(a, b) == (Translation(2, 1), 0, 2)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_aligned_never_worse_than_raw(self, dx, dy):
        a = _pat(staircase(2), rect(24, 0, 30, 8))
        b = _pat(staircase(2, x0=dx, y0=dy), rect(24 + dx, dy, 30 + dx, 8 + dy))
        raw = edge_fit(a, b)
        aligned = edge_fit_aligned(a, b)
        if raw is None:
            # no zero-shift correspondence: both report the same failure
            assert aligned is None
        else:
            t, r, aligned_raw = aligned
            assert r <= raw
            assert aligned_raw == raw
