import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dct, dctn

from pattern_forge.geometry import WINDOW_CHUNK, Pattern, Polygon, _trace_union, clip_polygon, extract_pattern, rectangles
from pattern_forge.layout_io import MAX_RADIUS, ConstraintKind, LayoutDocument
from pattern_forge.pipeline import run_full, verify_clusterset
from pattern_forge import raster
from pattern_forge.raster import (
    _dct_basis,
    block_features,
    cosine_similarity,
    coverage_grid,
    dct_features,
    pattern_features,
    rasterize,
)
from pattern_forge.synthetic import generate_synthetic

from conftest import rect, random_rect_union, staircase
from oracles import (
    cosine_of_blocks,
    coverage_grid_loop,
    features_per_window,
    naive_dct2,
    polygons_of,
    window_rectangles_loop,
)


def _pat(*polys, radius=32) -> Pattern:
    return Pattern((0, 0), radius, tuple(polys))


def _random_pattern(rng: random.Random, radius: int = 32) -> Pattern:
    """Random blob clipped into the window, so coverage sees every shape."""
    window = (-radius, -radius, radius, radius)
    shapes = []
    for ring in _trace_union(random_rect_union(rng, span=radius)):
        shapes.extend(clip_polygon(Polygon.from_vertices(ring), window))
    return _pat(*shapes, radius=radius)


class TestCoverageGrid:
    def test_side_must_be_power_of_two(self):
        p = _pat(rect(-4, -4, 4, 4))
        with pytest.raises(ValueError):
            coverage_grid(p.rects, p.radius, 48)
        with pytest.raises(ValueError):
            coverage_grid(p.rects, p.radius, 4)

    # coverage_grid returns integer numerators; a fully covered pixel holds
    # (2R)^2, and only its callers divide by that shared denominator

    def test_full_window_saturates_numerators(self):
        p = _pat(rect(-32, -32, 32, 32))
        g = coverage_grid(p.rects, p.radius, 8)
        assert np.array_equal(g, np.full((8, 8), 64 * 64))

    def test_empty_window_is_zero(self):
        p = _pat()
        g = coverage_grid(p.rects, p.radius, 8)
        assert not g.any()

    def test_exact_pixel_alignment(self):
        # radius 32, side 8: one pixel spans 8nm; shape = exactly 2x1 pixels
        p = _pat(rect(-8, -8, 8, 0))
        g = coverage_grid(p.rects, p.radius, 8)
        full = 64 * 64
        assert g[3, 3] == full and g[3, 4] == full
        assert g.sum() == 2 * full

    def test_half_pixel_coverage(self):
        # 4nm-wide strip in an 8nm pixel covers half of it
        p = _pat(rect(0, 0, 4, 8))
        g = coverage_grid(p.rects, p.radius, 8)
        assert g[4, 4] == 64 * 64 // 2
        assert g.sum() == 64 * 64 // 2

    def test_conservation_is_exact(self, rng):
        # integer identity: numerator total == shape area * side^2
        for _ in range(40):
            p = _random_pattern(rng)
            for side in (8, 16, 64):
                g = coverage_grid(p.rects, p.radius, side)
                assert int(g.sum()) == p.area * side * side

    def test_row_order_is_y_up(self):
        # row 0 is the bottom row of the window
        p = _pat(rect(-32, -32, 32, -24))
        g = coverage_grid(p.rects, p.radius, 8)
        assert g[0].sum() == 8 * 64 * 64 and g[1:].sum() == 0


RADII = [5, 17, 32, 77, MAX_RADIUS - 3, MAX_RADIUS]


@st.composite
def _clipped_pattern(draw, radius=None):
    """Rectangles and staircases scattered over twice the window, then clipped.

    Odd radii put pixel edges between integer nm, so shapes straddle pixel
    boundaries; content beyond the window is cut at its edge. Radii near
    MAX_RADIUS probe the int64 range of the scaled coordinates.
    """
    if radius is None:
        radius = draw(st.sampled_from(RADII))
    window = (-radius, -radius, radius, radius)
    coord = st.integers(-2 * radius, 2 * radius)
    shapes = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(coord), draw(coord)
        w = draw(st.integers(1, 2 * radius))
        h = draw(st.integers(1, 2 * radius))
        if draw(st.booleans()):
            poly = rect(x0, y0, x0 + w, y0 + h)
        else:
            steps = draw(st.integers(1, 3))
            poly = staircase(steps, run=w, rise=h, x0=x0, y0=y0)
        shapes.extend(clip_polygon(poly, window))
    return _pat(*shapes, radius=radius)


class TestCoverageGridOracle:
    @given(_clipped_pattern(), st.sampled_from([8, 64]))
    @example(_pat(radius=32), 8)
    @example(_pat(radius=MAX_RADIUS), 64)
    @example(_pat(rect(-MAX_RADIUS, -MAX_RADIUS, MAX_RADIUS, MAX_RADIUS), radius=MAX_RADIUS), 64)
    @example(_pat(rect(-5, -5, 5, 5), rect(-3, -5, 2, 1), radius=5), 8)
    def test_matches_per_rectangle_loop(self, pattern, side):
        rects = [rc for shape in polygons_of(pattern.rings) for rc in rectangles(shape)]
        got = coverage_grid(pattern.rects, pattern.radius, side)
        want = coverage_grid_loop(rects, pattern.radius, side)
        assert got.dtype == np.int64
        assert got.shape == (side, side)
        assert np.array_equal(got, want)


def _deep_stack(count: int, radius: int) -> Pattern:
    """`count` squares stacked over the whole window, every other one inset."""
    full = rect(-radius, -radius, radius, radius)
    inset = rect(-radius + 1, -radius + 3, radius - 5, radius)
    return _pat(*[full if k % 2 else inset for k in range(count)], radius=radius)


class TestStackedCoverage:
    # A pixel covered by k stacked squares holds k (2R)^2, past 2^53 from
    # k = 23 at MAX_RADIUS, so every case here takes the int64 path.
    # Multiples of 4 stay exact in float64 up to 2^55: only 101 squares at
    # an odd R would come out wrong from the float64 product alone.
    @pytest.mark.parametrize("count", [23, 101])
    @pytest.mark.parametrize("radius", [MAX_RADIUS, MAX_RADIUS - 3])
    def test_deep_stacks_stay_exact(self, count, radius):
        p = _deep_stack(count, radius)
        rects = [rc for shape in polygons_of(p.rings) for rc in rectangles(shape)]
        got = coverage_grid(p.rects, p.radius, 64)
        assert got.dtype == np.int64 and int(got.max()) >= 2**53
        assert np.array_equal(got, coverage_grid_loop(rects, radius, 64))


def _u_shape(x0, y0, x1, y1, notch) -> Polygon:
    """A U: the box x0..x1, y0..y1 minus a notch from the top, `notch` nm
    in from each side and half the height deep. A window across the notch
    cuts it into two pieces."""
    ym = (y0 + y1) // 2
    return Polygon.from_vertices([
        (x0, y0), (x1, y0), (x1, y1), (x1 - notch, y1),
        (x1 - notch, ym), (x0 + notch, ym), (x0 + notch, y1), (x0, y1),
    ])


@st.composite
def _layout_window(draw):
    """A layout of rectangles, staircases and U shapes around one window.

    Coordinates are drawn from the window's own edges as often as from the
    range around it, so shapes cross the edge, stop on it, touch it from
    outside and overlap each other; a U across the edge splits in two.
    """
    radius = draw(st.sampled_from([5, 17, 32, 77, MAX_RADIUS - 3, MAX_RADIUS]))
    cx, cy = draw(st.integers(-3 * radius, 3 * radius)), draw(st.integers(-3 * radius, 3 * radius))
    xs = st.one_of(st.sampled_from([cx - radius, cx + radius]), st.integers(cx - 2 * radius, cx + 2 * radius))
    ys = st.one_of(st.sampled_from([cy - radius, cy + radius]), st.integers(cy - 2 * radius, cy + 2 * radius))
    polys = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(xs), draw(ys)
        w, h = draw(st.integers(4, 2 * radius)), draw(st.integers(4, 2 * radius))
        kind = draw(st.sampled_from(["rect", "stairs", "u"]))
        if kind == "rect":
            polys.append(rect(x0, y0, x0 + w, y0 + h))
        elif kind == "stairs":
            polys.append(staircase(draw(st.integers(1, 3)), run=w, rise=h, x0=x0, y0=y0))
        else:
            polys.append(_u_shape(x0, y0, x0 + w, y0 + h, draw(st.integers(1, (w - 1) // 2))))
    return _layout(polys, radius), (cx, cy)


def _layout(polys, radius) -> LayoutDocument:
    return LayoutDocument(
        radius, ConstraintKind.COSINE, 0.9, tuple(polys), tuple(range(len(polys))), (), (),
    )


class TestWindowFeatures:
    @given(_layout_window())
    @example((_layout([], 32), (0, 0)))
    @example((_layout([_u_shape(-40, -60, 40, 10, 20)], 32), (0, 30)))  # two prongs
    @example((_layout([rect(32, -8, 60, 8), rect(-8, 32, 8, 50)], 32), (0, 0)))  # touch only
    @example((_layout([rect(-MAX_RADIUS, -MAX_RADIUS, MAX_RADIUS, MAX_RADIUS)] * 3, MAX_RADIUS), (0, 0)))
    def test_equals_extracted_pattern_features(self, layout_window):
        doc, center = layout_window
        (got,) = raster.window_vectors(doc, [center])
        want = pattern_features(extract_pattern(doc, center))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_window_rows_tile_the_extracted_shapes(self):
        doc = _layout([_u_shape(-40, -60, 40, 10, 20), rect(32, -8, 60, 8)], 32)
        pattern = extract_pattern(doc, (0, 30))
        assert len(pattern.rings) == 2  # the U's two prongs; the bar only touches
        rows, polys, sizes = doc.window_rows([(0, 30)])
        assert sizes.tolist() == [len(rows)]
        assert rows.dtype == np.int64 and (np.abs(rows) <= 32).all()
        area = int(((rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])).sum())
        assert area == pattern.area
        assert set(polys.tolist()) == {0}  # only the U has rows


@st.composite
def _window_blocks(draw):
    """Windows of one radius, some of them empty, and cuts into blocks of
    1-6 windows; near MAX_RADIUS a deep stack (`_deep_stack`, past 2^53)
    may sit among them."""
    radius = draw(st.sampled_from(RADII))
    windows = draw(st.lists(_clipped_pattern(radius), min_size=1, max_size=11))
    if radius >= MAX_RADIUS - 3 and draw(st.booleans()):
        windows.insert(draw(st.integers(0, len(windows))), _deep_stack(draw(st.sampled_from([23, 101])), radius))
    sizes = []
    while sum(sizes) < len(windows):
        sizes.append(min(draw(st.integers(1, 6)), len(windows) - sum(sizes)))
    return radius, windows, sizes


class TestBlockFeatures:
    @given(_window_blocks())
    @example((32, [_pat(radius=32)], [1]))  # one empty window
    @example((32, [_pat(radius=32), _pat(rect(-8, -8, 8, 8), radius=32), _pat(radius=32)], [3]))
    @example((MAX_RADIUS - 3, [_pat(rect(-5, 0, 9, 7), radius=MAX_RADIUS - 3), _deep_stack(101, MAX_RADIUS - 3),
                               _pat(radius=MAX_RADIUS - 3)], [3]))
    def test_every_window_equals_its_own_vector(self, case):
        # every vector of every block is the per-window reference, bit for
        # bit, whatever the block holds beside it
        radius, windows, sizes = case
        want = [features_per_window(p.rects, radius) for p in windows]
        got = []
        for lo, n in zip(np.cumsum([0] + sizes), sizes):
            part = [p.rects for p in windows[lo:lo + n]]
            out = block_features(np.concatenate(part), [len(r) for r in part], radius)
            assert out.dtype == np.float64 and out.shape == (n, raster.DCT_K**2)
            got.extend(out)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        # the batch entry points cut their own blocks of BLOCK windows
        fresh = [Pattern(p.center, radius, p.rings) for p in windows]
        raster.fill_features(fresh)
        assert [p.features.tobytes() for p in fresh] == [w.tobytes() for w in want]
        assert [pattern_features(p).tobytes() for p in windows] == [w.tobytes() for w in want]

    @given(_layout_window(), st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=9))
    def test_window_vectors_score_each_window(self, layout_window, moves):
        doc, (cx, cy) = layout_window
        centers = [(cx + dx, cy + dy) for dx, dy in moves]
        want = [features_per_window(window_rectangles_loop(doc, c)[0], doc.pattern_radius) for c in centers]
        got = [v.tobytes() for v in raster.window_vectors(doc, centers)]
        assert got == [w.tobytes() for w in want]

    def test_window_vectors_across_query_chunks(self):
        # two full query chunks of the module's size and a trailing chunk
        # of one window, which ends in a block of one
        rng = random.Random(11)
        corners = [(rng.randrange(-200, 200), rng.randrange(-200, 200)) for _ in range(40)]
        polys = [rect(-10, -10, 10, 10)] + [rect(x, y, x + rng.randrange(4, 40), y + rng.randrange(4, 40)) for x, y in corners]
        doc = _layout(polys, 32)
        centers = [(rng.randrange(-220, 220), rng.randrange(-220, 220)) for _ in range(2 * WINDOW_CHUNK + 1)]
        want = [features_per_window(window_rectangles_loop(doc, c)[0], doc.pattern_radius).tobytes() for c in centers]
        assert len(set(want)) > 20
        assert [v.tobytes() for v in raster.window_vectors(doc, centers)] == want

    def test_output_written_in_place(self):
        out = np.full((4, raster.DCT_K**2), np.nan)
        rows = _pat(rect(-8, -8, 8, 8), rect(10, 10, 20, 30)).rects
        got = block_features(rows, [1, 0, 1], 32, out[1:])
        assert got.base is out and np.isnan(out[0]).all() and not out[2].any()
        assert out[1].tobytes() == features_per_window(rows[:1], 32).tobytes()
        assert out[3].tobytes() == features_per_window(rows[1:], 32).tobytes()


class TestOneFeaturePath:
    def test_every_vector_goes_through_the_one_kernel(self, monkeypatch):
        # every entry point asks block_features for its windows, and
        # nothing else builds a feature vector: a cosine run and its
        # verification never call coverage_grid or dct_features, which
        # serve rasterize and the references in tests/oracles.py
        asked = Counter()
        real_kernel = raster.block_features

        def kernel(rows, sizes, radius, out=None):
            asked["kernel"] += len(sizes)
            return real_kernel(rows, sizes, radius, out)

        def entry(name, windows):
            real = getattr(raster, name)

            def counted(*args):
                before = sum(1 for p in args[0] if p.has_features) if name == "fill_features" else 0
                result = real(*args)
                asked[name] += windows(args) - before
                return result
            monkeypatch.setattr(raster, name, counted)

        def forbidden(*args, **kwargs):
            raise AssertionError("a feature vector built outside block_features")

        monkeypatch.setattr(raster, "block_features", kernel)
        entry("pattern_features", lambda args: 1)
        entry("fill_features", lambda args: sum(1 for p in args[0] if p.has_features))
        entry("window_vectors", lambda args: len(args[1]))
        doc = generate_synthetic(3, 4, 4, seed=1)  # its template probe reads pattern_features
        for name in ("coverage_grid", "dct_features"):
            monkeypatch.setattr(raster, name, forbidden)
        clusters, _report, _stats = run_full(doc)
        assert verify_clusterset(clusters, doc).ok
        entries = ("pattern_features", "fill_features", "window_vectors")
        assert all(asked[name] for name in entries), asked
        assert asked["kernel"] == sum(asked[name] for name in entries)


class TestRasterize:
    def test_pitch_and_shape(self):
        bm = rasterize(_pat(rect(0, 0, 8, 8)), 16)
        assert bm.side == 16
        assert bm.pitch == Fraction(64, 16)
        assert bm.pixels.shape == (16, 16)

    def test_empty(self):
        assert rasterize(_pat(), 8).is_empty()
        assert not rasterize(_pat(rect(0, 0, 4, 4)), 8).is_empty()


class TestDct:
    def test_matches_naive_dct_full_block(self, rng):
        for side in (8, 16):
            for _ in range(25):
                p = _random_pattern(rng, radius=side)
                bm = rasterize(p, side)
                feat = dct_features(bm.pixels, k=side)
                ref = naive_dct2(bm.pixels).ravel()
                assert np.allclose(feat, ref, atol=1e-12, rtol=0)

    def test_basis_products_match_scipy_dctn(self):
        # C @ P @ C.T against the k x k corner of scipy's full transform,
        # on random grids, for every block size of every side
        gen = np.random.default_rng(19)
        for side in (8, 16, 32, 64):
            pixels = gen.random((side, side))
            full = dctn(pixels, norm="ortho")
            for k in range(1, side + 1):
                feat = dct_features(pixels, k=k)
                assert np.abs(feat - full[:k, :k].ravel()).max() <= 1e-12

    def test_basis_is_the_orthonormal_dct_matrix(self):
        for side in (8, 16, 32, 64):
            c = _dct_basis(side, side)
            assert np.abs(c - dct(np.eye(side), norm="ortho", axis=0)).max() <= 1e-12
            assert np.abs(c @ c.T - np.eye(side)).max() <= 1e-12
            assert np.array_equal(_dct_basis(side, side // 2), c[: side // 2])
            assert _dct_basis(side, 3) is _dct_basis(side, 3)  # built once per (side, k)
            assert not c.flags.writeable

    def test_truncation_is_prefix_block(self):
        rng = random.Random(7)
        p = _random_pattern(rng, radius=16)
        bm = rasterize(p, 16)
        full = dct_features(bm.pixels, k=16)
        k4 = dct_features(bm.pixels, k=4)
        assert k4.shape == (4 * 4,)
        assert np.array_equal(k4, full.reshape(16, 16)[:4, :4].ravel())

    def test_k_bounds(self):
        bm = rasterize(_pat(rect(0, 0, 4, 4)), 8)
        with pytest.raises(ValueError):
            dct_features(bm.pixels, k=0)
        with pytest.raises(ValueError):
            dct_features(bm.pixels, k=9)

    def test_dc_term_is_mean_coverage(self):
        # orthonormal DCT: coefficient (0,0) = side * mean(pixels)
        p = _pat(rect(-32, -32, 32, 0))
        bm = rasterize(p, 8)
        feat = dct_features(bm.pixels, k=1)
        assert feat.shape == (1,)
        assert math.isclose(feat[0], 8 * 0.5, rel_tol=1e-12)

    def test_pattern_features_is_unit_block(self):
        p = _pat(rect(0, 0, 10, 10))
        a = pattern_features(p)
        b = dct_features(rasterize(p, 64).pixels, k=32)
        assert a.dtype == np.float64 and a.shape == (32 * 32,)
        assert np.array_equal(a, b / np.linalg.norm(b))
        assert math.isclose(float(a @ a), 1.0, rel_tol=1e-14)

    def test_pattern_features_empty_window_is_zero(self):
        f = pattern_features(_pat())
        assert f.shape == (32 * 32,) and not f.any()


class TestCosine:
    def test_self_similarity_is_one(self, rng):
        for _ in range(10):
            f = pattern_features(_random_pattern(rng))
            assert cosine_similarity(f, f) == 1.0

    def test_translation_invariance_within_window(self):
        # same content, different window positions, identical features
        a = _pat(rect(-8, -8, 8, 8))
        b = Pattern((500, 500), 32, (rect(-8, -8, 8, 8),))
        assert cosine_similarity(pattern_features(a), pattern_features(b)) == 1.0

    def test_orthonormality_full_block_equals_pixel_cosine(self, rng):
        # Parseval: the full DCT is an isometry, so feature cosine equals
        # the cosine of the raw coverage vectors
        for _ in range(20):
            pa = _random_pattern(rng)
            pb = _random_pattern(rng)
            ga = coverage_grid(pa.rects, pa.radius, 16).ravel()
            gb = coverage_grid(pb.rects, pb.radius, 16).ravel()
            raw = float(ga @ gb) / (np.linalg.norm(ga) * np.linalg.norm(gb))
            fa = dct_features(rasterize(pa, 16).pixels, k=16)
            fb = dct_features(rasterize(pb, 16).pixels, k=16)
            fa, fb = fa / np.linalg.norm(fa), fb / np.linalg.norm(fb)
            assert math.isclose(cosine_similarity(fa, fb), raw, abs_tol=1e-9)

    def test_zero_conventions(self):
        empty = pattern_features(_pat())
        full = pattern_features(_pat(rect(-4, -4, 4, 4)))
        assert cosine_similarity(empty, empty) == 1.0
        assert cosine_similarity(empty, full) == 0.0
        assert cosine_similarity(full, empty) == 0.0

    def test_clipped_to_unit_interval(self, rng):
        for _ in range(20):
            fa = pattern_features(_random_pattern(rng))
            fb = pattern_features(_random_pattern(rng))
            s = cosine_similarity(fa, fb)
            assert -1.0 <= s <= 1.0

    def test_disjoint_support_is_orthogonal(self):
        a = _pat(rect(-32, -32, 0, 32))
        b = _pat(rect(0, -32, 32, 32))
        fa = dct_features(rasterize(a, 8).pixels, k=8)
        fb = dct_features(rasterize(b, 8).pixels, k=8)
        fa, fb = fa / np.linalg.norm(fa), fb / np.linalg.norm(fb)
        # full-block cosine equals pixel cosine; supports are disjoint
        assert abs(cosine_similarity(fa, fb)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32), st.integers(0, 2**32), st.booleans(),
        st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    )
    @example(0, 0, True, (0, 0))
    def test_matches_block_cosine_and_equal_shapes_score_one(self, seed_a, seed_b, same, center):
        # the unit-vector dot product agrees with (a . b) / (|a| |b|) on the
        # raw blocks, and two windows holding the same shapes score exactly
        # 1 wherever their centres are
        pa = _random_pattern(random.Random(seed_a))
        shapes = polygons_of(pa.rings) if same else polygons_of(_random_pattern(random.Random(seed_b)).rings)
        pb = Pattern(center, pa.radius, shapes)
        got = cosine_similarity(pattern_features(pa), pattern_features(pb))
        raw_a = dct_features(rasterize(pa, 64).pixels, k=32)
        raw_b = dct_features(rasterize(pb, 64).pixels, k=32)
        assert abs(got - cosine_of_blocks(raw_a, raw_b)) <= 1e-12
        if polygons_of(pa.rings) == polygons_of(pb.rings):
            assert got == 1.0
