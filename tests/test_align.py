from fractions import Fraction

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pattern_forge import align

from pattern_forge.geometry import Axis, Marker, Pattern, Translation, ZERO_SHIFT
from pattern_forge.raster import Bitmap, rasterize
from pattern_forge.align import (
    DegenerateSpectrumError,
    NoCorrespondenceError,
    _half_toward_zero,
    clamp_to_marker,
    correlation_surface,
    edge_fit_aligned,
    edge_minmax_align,
    hull_fits,
    phase_correlate,
    pixel_shift,
    xy_minmax_align,
    xy_minmax_shifts,
)

from conftest import rect, staircase
from oracles import (
    brute_minmax_residual,
    edge_fit,
    hull_fit_loop,
    minmax_residual_at,
    polygons_of,
    xy_minmax_align_loop,
)


def _pat(*polys, radius=64) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


@st.composite
def _box_pairs(draw):
    """Patterns a and b of 1-4 rectangles, one per 40 nm slot: b's boxes
    are a's with each side moved by -3..3 nm (so interval widths often tie),
    all shifted together by up to 60 nm (far enough that the zero-shift
    pairing can fail and the centroid fallback runs), and either pattern
    may drop its last shapes."""
    n = draw(st.integers(1, 4))
    side = st.integers(-3, 3)
    a_shapes, b_shapes = [], []
    for k in range(n):
        x0, y0 = 40 * k, draw(st.integers(-10, 10))
        x1, y1 = x0 + draw(st.integers(8, 14)), y0 + draw(st.integers(8, 14))
        a_shapes.append(rect(x0, y0, x1, y1))
        b_shapes.append(rect(x0 + draw(side), y0 + draw(side), x1 + draw(side), y1 + draw(side)))
    sx, sy = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    b_shapes = [p.translated(sx, sy) for p in b_shapes]
    return _pat(*a_shapes[:draw(st.integers(1, n))]), _pat(*b_shapes[:draw(st.integers(1, n))])


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
        # every row scored at once equals hull_fit_loop on that row's offsets,
        # odd hull widths and axes without offsets included
        e = len(x_axis)
        offsets = np.asarray([r[:e] for r in rows], dtype=np.int64).reshape(len(rows), e)
        dx, dy, residual, raw = hull_fits(offsets, np.asarray(x_axis, dtype=bool))
        for k, row in enumerate(offsets.tolist()):
            shift, res, worst = hull_fit_loop([(Axis.X if x else Axis.Y, d) for x, d in zip(x_axis, row)])
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


class TestXyMinmax:
    @given(_box_pairs())
    @example((_pat(rect(0, 0, 4, 4), rect(10, 0, 14, 4)), _pat(rect(1, 0, 5, 4), rect(13, 0, 17, 4))))  # tie
    @example((_pat(rect(0, 0, 10, 10)), _pat(rect(-3, -5, 8, 8))))  # odd negative sums
    @example((_pat(rect(0, 0, 4, 4)), _pat(rect(50, 50, 54, 54), rect(90, 50, 94, 54))))  # fallback, a smaller
    @example((_pat(rect(0, 0, 4, 4), rect(40, 0, 44, 4)), _pat(rect(-50, 50, -46, 54))))  # fallback, b smaller
    @example((_pat(rect(0, 0, 10, 10), rect(200, 0, 210, 10)),
              _pat(rect(-100, 0, -90, 10), rect(-90, 0, -78, 12))))  # fallback, equal counts: a's shapes choose
    def test_matches_interval_loop_oracle(self, pair):
        a, b = pair
        assert xy_minmax_align(a, b) == xy_minmax_align_loop(a, b)

    @pytest.mark.parametrize("lo, hi, mid", [(-3, 2, 0), (-2, 3, 0), (1, 2, 1), (-2, -1, -1)])
    def test_midpoint_rounds_toward_zero(self, lo, hi, mid):
        # one pair whose low and high box sides move by lo and hi on both
        # axes: the interval is [lo, hi] and its midpoint rounds toward zero
        b = _pat(rect(lo, lo, 10 + hi, 10 + hi))
        assert xy_minmax_align(_pat(rect(0, 0, 10, 10)), b) == Translation(mid, mid)

    def test_interval_bounds_sorted_both_ways(self):
        # the box sides move by 2 and 10: midpoint 6; with the roles swapped, -6
        a, b = _pat(rect(0, 0, 4, 4)), _pat(rect(2, 2, 14, 14))
        assert xy_minmax_align(a, b) == Translation(6, 6)
        assert xy_minmax_align(b, a) == Translation(-6, -6)

    def test_equal_boxes_degenerate_interval(self):
        # boxes that only touch pair by centroid; equal sizes pin each axis
        a, b = _pat(rect(5, 5, 9, 9)), _pat(rect(8, 1, 12, 5))
        assert xy_minmax_align(a, b) == Translation(3, -4)

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


def _slot(k: int, stairs: bool, moves):
    """Shape k of `_aligner_cases`: in the 40 nm slot k, a rectangle or a
    staircase whose sides are moved by `moves`."""
    d0, d1, d2, d3 = moves
    if stairs:
        return staircase(1, run=6 + d2, rise=6 + d3, x0=40 * k + d0, y0=d1)
    return rect(40 * k + d0, d1, 40 * k + 12 + d2, 12 + d3)


@st.composite
def _aligner_cases(draw):
    """A representative of 0-4 shapes, one per 40 nm slot, each a rectangle
    or a staircase, and 1-9 members. A member holds the representative's
    slots with every side moved by -3..3 nm; it may be shifted by up to 60
    nm (the zero-shift pairing can then fail and the centroid pairs run),
    list its shapes in another order (a permuted correspondence), turn one
    shape into the other kind (other rectangle counts), or drop shapes,
    down to an empty member."""
    n = draw(st.integers(0, 4))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rep = _pat(*(_slot(k, stairs, (0, 0, 0, 0)) for k, stairs in enumerate(kinds)))
    side = st.integers(-3, 3)
    members = []
    for _ in range(draw(st.integers(1, 9))):
        own = list(kinds)
        if own and draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            own[k] = not own[k]
        shapes = [_slot(k, stairs, draw(st.tuples(side, side, side, side))) for k, stairs in enumerate(own)]
        if draw(st.booleans()):
            sx, sy = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
            shapes = [p.translated(sx, sy) for p in shapes]
        if draw(st.booleans()):
            shapes = draw(st.permutations(shapes))
        if draw(st.booleans()):
            shapes = shapes[:draw(st.integers(0, n))]
        members.append(_pat(*shapes))
    return rep, members


def _aligned_or_none(rep, p):
    try:
        return xy_minmax_align(rep, p)
    except NoCorrespondenceError:
        return None


class TestXyMinmaxShifts:
    @given(_aligner_cases(), st.sampled_from([1, 2, align.BATCH_PAIRS]))
    @example((_pat(), [_pat(), _pat(rect(0, 0, 4, 4))]), 2)
    @example((_pat(rect(0, 0, 12, 12), rect(40, 0, 52, 12)),
              [_pat(rect(41, 1, 53, 12), rect(1, 0, 12, 13)), _pat(rect(1, 0, 13, 12), rect(39, 0, 52, 12))]), 2)
    def test_equals_per_member_aligner(self, case, step):
        # every member's shift is xy_minmax_align's, None where that raises,
        # in blocks of any size
        rep, members = case
        with patch.object(align, "BATCH_PAIRS", step):
            got = xy_minmax_shifts(rep, members)
        assert got == [_aligned_or_none(rep, p) for p in members]

    def test_identity_members_aligned_in_blocks(self, monkeypatch):
        # only the members whose zero-shift correspondence is not the
        # identity, whose rectangle counts differ or that are empty reach
        # xy_minmax_align; a single member is aligned as a block of one
        rep = _pat(rect(0, 0, 12, 12), staircase(1, run=6, rise=6, x0=40))
        moved = _pat(rect(1, -2, 12, 13), staircase(1, run=7, rise=5, x0=39))
        permuted = _pat(staircase(1, run=6, rise=6, x0=41), rect(0, 1, 12, 12))
        other = _pat(rect(0, 0, 12, 12), rect(40, 0, 52, 12))
        far = _pat(*(p.translated(50, 0) for p in polygons_of(moved.rings)))
        calls = []
        real = align.xy_minmax_align

        def counting(a, b):
            calls.append(b)
            return real(a, b)

        monkeypatch.setattr(align, "xy_minmax_align", counting)
        members = [moved, permuted, _pat(), other, moved, far]
        got = xy_minmax_shifts(rep, members)
        assert calls == [permuted, _pat(), other, far]
        assert got[0] == got[4] == real(rep, moved) and got[2] is None
        calls.clear()
        assert xy_minmax_shifts(rep, [moved]) == [got[0]] and calls == []
        assert xy_minmax_shifts(_pat(), [moved, _pat()]) == [None, None]


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
