"""Rasterization and spectral features for pattern windows.

Pixels hold exact area-coverage fractions: the rectangle/pixel overlaps of
a pattern's decomposition rectangles, the `rects` of its `edge_view()`, are
summed as exact integers (in a float64 matrix product while every pixel
stays below 2^53, in int64 past that) before a single float division. No
supersampling is involved, so coverage is exact for any grid size, and any
disjoint decomposition of the same area gives the same pixels:
`window_features` reads a window's rectangles straight from the layout and
equals the features of the extracted pattern bit for bit, and an extracted
pattern's view holds its window query's rows where a polygon is kept whole.

A window's feature vector is the low-frequency 32 x 32 block of the
orthonormal 2D DCT-II of its coverage on a 64-pixel grid, scaled to unit
length (all zeros for an empty window). The block alone is `C @ P @ C.T`,
two fixed matrix products, where P is the coverage-fraction grid and C the
first k rows of the orthonormal DCT-II basis (Ahmed, Natarajan & Rao 1974),
built once per (side, k); the rest of the transform is never computed. The
exact integer coverage grid stays the one input of the transform, and it is
not folded into the rectangle overlaps: the grid is what makes every
decomposition of a window give the same features bit for bit. The
geometry is fixed, so a report and its layout alone decide every
similarity. The cosine of two windows is the dot product of their vectors,
except that equal vectors score exactly 1, so two windows with the same
shapes are identical under any threshold.
"""

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
    """Square coverage grid. Row index runs along +y, column index along +x.

    `pitch` is the pixel size in nm (2R/G for a pattern window); synthetic
    bitmaps built directly in tests default to a pitch of 1.
    """

    side: int
    pixels: np.ndarray
    pitch: Fraction = field(default_factory=lambda: Fraction(1))

    def is_empty(self) -> bool:
        return not self.pixels.any()


def _check_side(side: int):
    if side < 8 or side & (side - 1):
        raise ValueError(f"grid side must be a power of two >= 8, got {side}")


def coverage_grid(pattern: Pattern, side: int) -> np.ndarray:
    """Integer coverage numerators per pixel; the common denominator is (2R)^2.

    The rectangles are the pattern's `edge_view().rects`, so an extracted
    window decomposes no shape it kept whole. Summing the grid gives total
    shape area times side^2.
    """
    _check_side(side)
    grid = _coverage(pattern.edge_view().rects, pattern.radius, side)
    return grid.astype(np.int64, copy=False)


def _coverage(rects: np.ndarray, r: int, side: int) -> np.ndarray:
    """Coverage numerators of window-local rectangles (int64 rows x0, y0, x1,
    y1 inside [-r, r]^2) on a side x side grid.

    Coordinates are scaled by the grid side so pixel boundaries are integers
    (at most 2r * side <= 1.28e9, exact in float64). Every rectangle gets an
    exact 1-D overlap with each pixel column and each pixel row (0 outside
    its span), and the grid is the sum of their outer products, taken as one
    float64 (BLAS) matrix product. That product is exact: each term is an
    integer of at most (2r)^2 <= 4e14 < 2^53 and none is negative, so every
    partial sum is at most the pixel's total, and a computed maximum below
    2^53 means no partial sum was rounded. Only more than 22 stacked full
    pixels near MAX_RADIUS reach 2^53; the grid is then summed again in
    int64. The result holds exact integers, in float64 or int64, so it does
    not depend on the order or the grouping of `rects`.
    """
    edges = np.arange(side + 1) * float(2 * r)  # pixel width in scaled units
    lo, hi = edges[:-1], edges[1:]
    s = ((rects + r) * side).astype(np.float64)
    xov = np.maximum(np.minimum(s[:, 2:3], hi) - np.maximum(s[:, 0:1], lo), 0.0)
    yov = np.maximum(np.minimum(s[:, 3:4], hi) - np.maximum(s[:, 1:2], lo), 0.0)
    grid = yov.T @ xov
    if grid.max(initial=0.0) >= _EXACT:
        return yov.T.astype(np.int64) @ xov.astype(np.int64)
    return grid


def _bitmap(grid: np.ndarray, r: int, side: int) -> Bitmap:
    return Bitmap(side, grid / float((2 * r) ** 2), Fraction(2 * r, side))


def rasterize(pattern: Pattern, side: int = GRID) -> Bitmap:
    """Coverage-fraction bitmap of the pattern window on a side x side grid."""
    return _bitmap(coverage_grid(pattern, side), pattern.radius, side)


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


def dct_features(bitmap: Bitmap, k: int = DCT_K) -> np.ndarray:
    """Top-left k x k block of the orthonormal 2D DCT-II, flattened row-major."""
    if k < 1 or k > bitmap.side:
        raise ValueError(f"block size {k} outside [1, {bitmap.side}]")
    c = _dct_basis(bitmap.side, k)
    return (c @ bitmap.pixels @ c.T).ravel()


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm else v


def pattern_features(pattern: Pattern) -> np.ndarray:
    """The DCT_K x DCT_K DCT block of the window's GRID-pixel raster, scaled
    to unit length; all zeros when empty.

    Coverage is non-negative, so the DC term, and with it the norm, is zero
    only for an empty window.
    """
    return _unit(dct_features(rasterize(pattern)))


def window_features(doc, center) -> np.ndarray:
    """`pattern_features(extract_pattern(doc, center))`, bit for bit,
    rasterised straight from the rows of `doc.window_rectangles(center)`,
    the query `extract_pattern` builds its shapes from, without tracing a
    polygon.

    Coverage is additive over any disjoint decomposition of the same area,
    so both paths sum the same integer numerators, and every later step is
    the same arithmetic on the same grid. Overlapping polygons are counted
    twice on both paths.
    """
    r = doc.pattern_radius
    rows, _polys = doc.window_rectangles(center)
    return _unit(dct_features(_bitmap(_coverage(rows, r, GRID), r, GRID)))


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two `pattern_features` vectors: exactly 1.0 when they are
    equal, otherwise their dot product clamped to [-1, 1].

    Two empty windows are equal vectors (1.0); one empty window gives 0.0.
    """
    if u[0] == v[0] and np.array_equal(u, v):
        return 1.0
    return min(max(float(u @ v), -1.0), 1.0)
