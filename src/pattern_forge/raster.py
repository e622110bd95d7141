"""Rasterization and spectral features for pattern windows.

Pixels hold exact area-coverage fractions: each shape is decomposed into
rectangles and the rectangle/pixel overlap is accumulated in integer
arithmetic before a single float division. No supersampling is involved, so
coverage is exact for any grid size.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.fft import dctn

from .geometry import Pattern, rectangles


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


@dataclass(eq=False)
class DctFeature:
    """Flattened k x k low-frequency block of an orthonormal 2D DCT-II."""

    coeffs: np.ndarray
    block: int

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


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


def rasterize(pattern: Pattern, side: int = 64) -> Bitmap:
    """Coverage-fraction bitmap of the pattern window on a side x side grid."""
    grid = coverage_grid(pattern, side)
    den = (2 * pattern.radius) ** 2
    return Bitmap(side, grid / float(den), Fraction(2 * pattern.radius, side))


def dct_features(bitmap: Bitmap, k: int = 32) -> DctFeature:
    """Top-left k x k block of the orthonormal 2D DCT-II, flattened row-major."""
    if k < 1 or k > bitmap.side:
        raise ValueError(f"block size {k} outside [1, {bitmap.side}]")
    coeffs = dctn(bitmap.pixels, norm="ortho")[:k, :k].ravel().copy()
    return DctFeature(coeffs, k)


def pattern_features(pattern: Pattern, side: int = 64, k: int = 32) -> DctFeature:
    return dct_features(rasterize(pattern, side), k)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two feature vectors, clipped to [-1, 1].

    Two all-zero vectors (both windows empty) count as identical: 1.0.
    Exactly one all-zero vector gives 0.0.
    """
    va = np.asarray(getattr(a, "coeffs", a), dtype=np.float64).ravel()
    vb = np.asarray(getattr(b, "coeffs", b), dtype=np.float64).ravel()
    if va.shape != vb.shape:
        raise ValueError(f"feature length mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(va @ vb) / (na * nb), -1.0, 1.0))
