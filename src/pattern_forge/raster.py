"""Rasterization and spectral features for pattern windows.

Pixels hold exact area-coverage fractions: each shape is decomposed into
rectangles and the rectangle/pixel overlap is accumulated in integer
arithmetic before a single float division. No supersampling is involved, so
coverage is exact for any grid size.

A window's feature vector is the low-frequency 32 x 32 block of the
orthonormal 2D DCT of its coverage on a 64-pixel grid, scaled to unit
length (all zeros for an empty window). The geometry is fixed, so a report
and its layout alone decide every similarity. The cosine of two windows is
the dot product of their vectors, except that equal vectors score exactly
1, so two windows with the same shapes are identical under any threshold.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.fft import dctn

from .geometry import Pattern, rectangles

GRID = 64   # raster side in pixels of every feature vector
DCT_K = 32  # side of the low-frequency DCT block kept as the feature vector


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

    Coordinates are scaled by the grid side so pixel boundaries are integers.
    Every decomposition rectangle gets an exact 1-D overlap with each pixel
    column and each pixel row (0 outside its span), and the grid is the sum of
    their outer products, taken as one int64 matrix product. Summing the grid
    gives total shape area times side^2.
    """
    _check_side(side)
    r = pattern.radius
    den = 2 * r  # pixel width in scaled coordinates
    rects = [rc for shape in pattern.shapes for rc in rectangles(shape)]
    if not rects:
        return np.zeros((side, side), dtype=np.int64)
    s = (np.asarray(rects, dtype=np.int64) + r) * side  # columns x0, y0, x1, y1
    edges = np.arange(side + 1, dtype=np.int64) * den
    lo, hi = edges[:-1], edges[1:]
    xov = np.maximum(np.minimum(s[:, 2:3], hi) - np.maximum(s[:, 0:1], lo), 0)
    yov = np.maximum(np.minimum(s[:, 3:4], hi) - np.maximum(s[:, 1:2], lo), 0)
    return yov.T @ xov


def rasterize(pattern: Pattern, side: int = GRID) -> Bitmap:
    """Coverage-fraction bitmap of the pattern window on a side x side grid."""
    grid = coverage_grid(pattern, side)
    den = (2 * pattern.radius) ** 2
    return Bitmap(side, grid / float(den), Fraction(2 * pattern.radius, side))


def dct_features(bitmap: Bitmap, k: int = DCT_K) -> np.ndarray:
    """Top-left k x k block of the orthonormal 2D DCT-II, flattened row-major."""
    if k < 1 or k > bitmap.side:
        raise ValueError(f"block size {k} outside [1, {bitmap.side}]")
    return dctn(bitmap.pixels, norm="ortho")[:k, :k].ravel()


def pattern_features(pattern: Pattern) -> np.ndarray:
    """The DCT_K x DCT_K DCT block of the window's GRID-pixel raster, scaled
    to unit length; all zeros when empty.

    Coverage is non-negative, so the DC term, and with it the norm, is zero
    only for an empty window.
    """
    v = dct_features(rasterize(pattern))
    norm = float(np.linalg.norm(v))
    return v / norm if norm else v


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two `pattern_features` vectors: exactly 1.0 when they are
    equal, otherwise their dot product clamped to [-1, 1].

    Two empty windows are equal vectors (1.0); one empty window gives 0.0.
    """
    if u[0] == v[0] and np.array_equal(u, v):
        return 1.0
    return min(max(float(u @ v), -1.0), 1.0)
