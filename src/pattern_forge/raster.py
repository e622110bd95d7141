"""Rasterization and spectral features for pattern windows.

Every feature vector comes from one function of a window's rectangle rows
(window-local int64 x0, y0, x1, y1) and its radius R: `pattern_features`
passes a pattern's `rects`, and `window_features` the rows of the layout's
window query, `doc.window_rectangles`, without extracting a pattern. The
vector is the low-frequency 32 x 32 block of the orthonormal 2D DCT-II of
the rows' coverage on a 64-pixel grid, scaled to unit length (all zeros for
an empty window).

Pixels hold exact area-coverage fractions: the rectangle/pixel overlaps are
summed as exact integers (in a float64 matrix product while every pixel
stays below 2^53, in int64 past that) before a single division by (2R)^2.
No supersampling is involved, so any disjoint decomposition of the same
area gives the same pixels and the same features bit for bit; that is why
the integer grid is the one input of the transform. The block alone is
`C @ P @ C.T`, where P is the coverage-fraction grid and C the first k rows
of the orthonormal DCT-II basis (Ahmed, Natarajan & Rao 1974), built once
per (side, k). The geometry is fixed, so a report and its layout alone
decide every similarity. The cosine of two windows is the dot product of
their vectors, except that equal vectors score exactly 1, so two windows
with the same shapes are identical under any threshold. `rasterize` wraps
the grid as a `Bitmap`, the input of `align.phase_correlate`.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import Pattern

GRID = 64   # raster side in pixels of every feature vector
DCT_K = 32  # side of the low-frequency DCT block kept as the feature vector
_EXACT = 2**53  # float64 holds every integer below this exactly


@dataclass(eq=False)
class Bitmap:
    """Square coverage-fraction grid for phase correlation. Row index runs
    along +y, column index along +x.

    `pitch` is the pixel size in nm (2R/G for a pattern window); synthetic
    bitmaps built directly in tests default to a pitch of 1.
    """

    side: int
    pixels: np.ndarray
    pitch: Fraction = field(default_factory=lambda: Fraction(1))

    def is_empty(self) -> bool:
        return not self.pixels.any()


def coverage_grid(rects: np.ndarray, radius: int, side: int) -> np.ndarray:
    """Integer coverage numerators (int64) of window-local rectangles (rows
    x0, y0, x1, y1 inside [-r, r]^2, r = radius) on a side x side grid, a
    power of two >= 8; the common denominator is (2r)^2. Summing the grid
    gives the rectangles' total area times side^2.

    Coordinates are scaled by the grid side so pixel boundaries are integers
    (at most 2r * side <= 1.28e9, exact in float64). Every rectangle gets an
    exact 1-D overlap with each pixel column and each pixel row (0 outside
    its span), and the grid is the sum of their outer products, taken as one
    float64 (BLAS) matrix product. That product is exact: each term is an
    integer of at most (2r)^2 <= 4e14 < 2^53 and none is negative, so every
    partial sum is at most the pixel's total, and a computed maximum below
    2^53 means no partial sum was rounded. Only more than 22 stacked full
    pixels near MAX_RADIUS reach 2^53; the grid is then summed again in
    int64. The result holds exact integers, so it does not depend on the
    order or the grouping of `rects`.
    """
    if side < 8 or side & (side - 1):
        raise ValueError(f"grid side must be a power of two >= 8, got {side}")
    edges = np.arange(side + 1) * float(2 * radius)  # pixel width in scaled units
    lo, hi = edges[:-1], edges[1:]
    s = ((rects + radius) * side).astype(np.float64)
    xov = np.minimum(s[:, 2:3], hi)  # overlaps in place: this runs once per feature vector
    xov -= np.maximum(s[:, 0:1], lo)
    np.maximum(xov, 0.0, out=xov)
    yov = np.minimum(s[:, 3:4], hi)
    yov -= np.maximum(s[:, 1:2], lo)
    np.maximum(yov, 0.0, out=yov)
    grid = yov.T @ xov
    if grid.max(initial=0.0) >= _EXACT:
        return yov.T.astype(np.int64) @ xov.astype(np.int64)
    return grid.astype(np.int64)


def rasterize(pattern: Pattern, side: int = GRID) -> Bitmap:
    """Coverage-fraction bitmap of the pattern window on a side x side grid."""
    r = pattern.radius
    grid = coverage_grid(pattern.rects, r, side)
    return Bitmap(side, grid / float((2 * r) ** 2), Fraction(2 * r, side))


@lru_cache(maxsize=None)
def _dct_basis(side: int, k: int) -> np.ndarray:
    """The first k rows of the orthonormal DCT-II matrix of size side:
    C[u, n] = s_u cos(pi (2n + 1) u / (2 side)), s_0 = sqrt(1/side) and
    s_u = sqrt(2/side) otherwise. The angle is reduced modulo 2 pi in
    exact integers before the cosine. Every caller shares the one array, so
    it is read-only."""
    n = np.arange(side)
    u = np.arange(k)[:, None]
    c = np.cos(np.pi / (2 * side) * ((2 * n + 1) * u % (4 * side)))
    c *= np.sqrt(2.0 / side)
    c[0] = np.sqrt(1.0 / side)
    c.flags.writeable = False
    return c


def dct_features(pixels: np.ndarray, k: int = DCT_K) -> np.ndarray:
    """Top-left k x k block of the orthonormal 2D DCT-II of a square pixel
    array, flattened row-major."""
    side = len(pixels)
    if k < 1 or k > side:
        raise ValueError(f"block size {k} outside [1, {side}]")
    c = _dct_basis(side, k)
    return (c @ pixels @ c.T).ravel()


def _features(rects: np.ndarray, r: int) -> np.ndarray:
    """The feature vector of a window of radius r holding `rects`: the
    DCT_K x DCT_K DCT block of its GRID-pixel coverage fractions, scaled to
    unit length; all zeros when empty.

    Coverage is non-negative, so the DC term, and with it the norm, is zero
    only for an empty window.
    """
    v = dct_features(coverage_grid(rects, r, GRID) / float((2 * r) ** 2))
    norm = math.sqrt(v.dot(v))  # np.linalg.norm's own formula, without its overhead
    if norm:
        v /= norm
    return v


def pattern_features(pattern: Pattern) -> np.ndarray:
    """The feature vector of the pattern's `rects`."""
    return _features(pattern.rects, pattern.radius)


def window_features(doc, center) -> np.ndarray:
    """`pattern_features(extract_pattern(doc, center))`, bit for bit, from
    the rows of `doc.window_rectangles(center)`, the query `extract_pattern`
    builds its shapes from, without tracing a polygon.

    Coverage is additive over any disjoint decomposition of the same area,
    so both paths sum the same integer numerators, and every later step is
    the same arithmetic on the same grid. Overlapping polygons are counted
    twice on both paths.
    """
    rows, _polys = doc.window_rectangles(center)
    return _features(rows, doc.pattern_radius)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two `pattern_features` vectors: exactly 1.0 when they are
    equal, otherwise their dot product clamped to [-1, 1].

    Two empty windows are equal vectors (1.0); one empty window gives 0.0.
    This is the definition: a batch caller that sums the dot product in
    another order, as `graph.evaluate_pairs_cosine`'s Gram tiles do, may
    decide a pair from its own value only when that lies more than
    `graph.MARGIN` from the threshold, and must call this otherwise.
    """
    if u[0] == v[0] and np.array_equal(u, v):
        return 1.0
    return min(max(float(u @ v), -1.0), 1.0)
