"""Optimal alignment kernels.

One aligner per constraint gives the best rigid shift between two patterns:

* per-axis interval competition over corresponding polygon bounding boxes
  for the cosine constraint (`xy_minmax_align`),
* the minmax midpoint over corresponding edge offsets for the
  edge-displacement constraint (`edge_fit_aligned`), which is both the
  relaxed pair test and the strict refinement check.

Phase correlation on coverage bitmaps (`phase_correlate`, the global optimum
for circular shifts) serves the synthetic generator, not the clustering.

Every returned Translation is the displacement of the moving pattern's
content relative to the reference, i.e. the amount the moving window's
center must move to line the contents up.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Axis,
    Marker,
    MatchError,
    Pattern,
    Polygon,
    Translation,
    Vertex,
    edge_displacements,
    match_polygons,
)
from .raster import Bitmap

SPECTRAL_FLOOR = 1e-12


class DegenerateSpectrumError(ValueError):
    """Phase correlation attempted on an all-zero bitmap."""


class NoCorrespondenceError(ValueError):
    """No polygon pairing can be formed between two patterns."""


@dataclass(eq=False)
class CorrelationSurface:
    side: int
    values: np.ndarray
    peak: tuple[int, int]  # (px, py) in [0, side)^2
    peak_value: float


@dataclass(frozen=True)
class FeasibleInterval:
    """Closed interval of per-axis shifts keeping a polygon pair's boxes aligned."""

    axis: Axis
    d_min: int
    d_max: int

    def __post_init__(self):
        if self.d_min > self.d_max:
            raise ValueError(f"inverted interval [{self.d_min}, {self.d_max}]")

    @property
    def width(self) -> int:
        return self.d_max - self.d_min

    @property
    def midpoint(self) -> int:
        return _half_toward_zero(self.d_min + self.d_max)


def _half_toward_zero(m):
    """m / 2 with halves rounded toward zero, exact in integers; elementwise
    on an integer array."""
    return (m + (m < 0)) // 2


def correlation_surface(reference: Bitmap, moving: Bitmap) -> CorrelationSurface:
    """Inverse transform of the normalized cross-power spectrum.

    The spectrum G * conj(F) is reduced to unit modulus; bins whose modulus
    falls below a relative floor of 1e-12 are zeroed rather than divided, so
    numerically empty frequencies cannot inject noise. For moving = reference
    circularly shifted by s, the surface is a delta at s.
    """
    if reference.side != moving.side:
        raise ValueError(f"bitmap sides differ: {reference.side} vs {moving.side}")
    if reference.is_empty() or moving.is_empty():
        raise DegenerateSpectrumError("phase correlation needs non-empty bitmaps")
    f = np.fft.fft2(reference.pixels)
    g = np.fft.fft2(moving.pixels)
    cross = g * np.conj(f)
    mod = np.abs(cross)
    floor = SPECTRAL_FLOOR * float(mod.max())
    keep = mod > floor
    spectrum = np.where(keep, cross / np.where(keep, mod, 1.0), 0.0)
    values = np.fft.ifft2(spectrum).real
    side = reference.side
    flat = int(np.argmax(values))  # ties: first in row-major order = smallest (py, px)
    py, px = divmod(flat, side)
    return CorrelationSurface(side, values, (px, py), float(values[py, px]))


def pixel_shift(reference: Bitmap, moving: Bitmap) -> tuple[int, int]:
    """Peak of the correlation surface as a circular shift in (-G/2, G/2]^2."""
    surf = correlation_surface(reference, moving)
    half = surf.side // 2
    px, py = surf.peak
    sx = px if px <= half else px - surf.side
    sy = py if py <= half else py - surf.side
    return sx, sy


def phase_correlate(reference: Bitmap, moving: Bitmap) -> Translation:
    """Globally optimal circular shift of `moving` relative to `reference`, in nm.

    The pixel-space peak is scaled by the pixel pitch; fractional results are
    rounded to the nearest integer nanometer (ties to even). Raises
    DegenerateSpectrumError for all-zero inputs; the caller decides what an
    empty window means (two empty windows are already aligned).
    """
    if reference.pitch != moving.pitch:
        raise ValueError(f"pixel pitches differ: {reference.pitch} vs {moving.pitch}")
    sx, sy = pixel_shift(reference, moving)
    return Translation(round(sx * reference.pitch), round(sy * reference.pitch))


def pair_intervals(pa: Polygon, pb: Polygon) -> tuple[FeasibleInterval, FeasibleInterval]:
    """Per-axis shift intervals bounded by aligning b's box to a's on each side."""
    ax0, ay0, ax1, ay1 = pa.bbox
    bx0, by0, bx1, by1 = pb.bbox
    xlo, xhi = sorted((bx0 - ax0, bx1 - ax1))
    ylo, yhi = sorted((by0 - ay0, by1 - ay1))
    return FeasibleInterval(Axis.X, xlo, xhi), FeasibleInterval(Axis.Y, ylo, yhi)


def _centroid_pairs(a: Pattern, b: Pattern) -> list[tuple[int, int]]:
    """Fallback pairing: nearest bounding-box centers, smaller pattern first."""
    flip = len(a.shapes) > len(b.shapes)
    small, big = (b, a) if flip else (a, b)
    sb = small.shape_bboxes()
    bb = big.shape_bboxes()
    scx = sb[:, 0] + sb[:, 2]  # doubled centers stay integral
    scy = sb[:, 1] + sb[:, 3]
    bcx = bb[:, 0] + bb[:, 2]
    bcy = bb[:, 1] + bb[:, 3]
    pairs = []
    for i in range(len(small.shapes)):
        d2 = (bcx - scx[i]) ** 2 + (bcy - scy[i]) ** 2
        j = int(np.argmin(d2))
        pairs.append((j, i) if flip else (i, j))
    return pairs


def xy_minmax_align(a: Pattern, b: Pattern) -> Translation:
    """Interval competition: the narrowest per-axis interval dictates the shift.

    Each corresponding polygon pair proposes a feasible interval per axis;
    the pair with the smallest interval width wins the axis (first pair wins
    ties) and its midpoint becomes that axis of the shift. Falls back to
    bounding-box-centroid pairing when no overlap correspondence exists at
    zero shift; raises NoCorrespondenceError when either pattern is empty.
    """
    if not a.shapes or not b.shapes:
        raise NoCorrespondenceError("cannot align an empty pattern geometrically")
    try:
        pairs = match_polygons(a, b).pairs
    except MatchError:
        pairs = _centroid_pairs(a, b)
    best_x = best_y = None
    for i, j in pairs:
        ix, iy = pair_intervals(a.shapes[i], b.shapes[j])
        if best_x is None or ix.width < best_x.width:
            best_x = ix
        if best_y is None or iy.width < best_y.width:
            best_y = iy
    return Translation(best_x.midpoint, best_y.midpoint)


def _hull_fit(displacements) -> tuple[Translation, int, int]:
    """Minmax shift, its residual and the worst raw |offset|, all read from
    the per-axis offset hulls (an axis without offsets has the hull [0, 0])."""
    xs = [d for ax, d in displacements if ax is Axis.X] or [0]
    ys = [d for ax, d in displacements if ax is Axis.Y] or [0]
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    shift = Translation(_half_toward_zero(xlo + xhi), _half_toward_zero(ylo + yhi))
    residual = max((xhi - xlo + 1) // 2, (yhi - ylo + 1) // 2)
    return shift, residual, max(-xlo, xhi, -ylo, yhi)


def hull_fits(offsets: np.ndarray, x_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_hull_fit`'s shift (dx, dy) and residual for each row of `offsets`,
    a (pairs, E) array of corresponding-edge offsets whose columns lie along
    X where `x_axis` is True and along Y elsewhere."""
    zero = np.zeros(len(offsets), dtype=np.int64)
    hulls = []
    for cols in (x_axis, ~x_axis):
        part = offsets[:, cols]
        hulls.append((part.min(axis=1), part.max(axis=1)) if part.shape[1] else (zero, zero))
    (xlo, xhi), (ylo, yhi) = hulls
    residual = np.maximum((xhi - xlo + 1) // 2, (yhi - ylo + 1) // 2)
    return _half_toward_zero(xlo + xhi), _half_toward_zero(ylo + yhi), residual


def edge_minmax_align(displacements) -> tuple[Translation, int]:
    """Midpoint shift minimizing the worst surviving edge offset.

    Per axis the optimum over integer shifts is the midpoint of the offset
    hull rounded half toward zero, leaving ceil((max - min) / 2); the overall
    residual is the worse axis (L-infinity). An axis with no offsets
    contributes shift 0 and residual 0.
    """
    shift, residual, _raw = _hull_fit(displacements)
    return shift, residual


def clamp_to_marker(t: Translation, center: Vertex, marker: Marker) -> Translation:
    """Largest per-axis portion of t that keeps center + t inside the marker."""
    cx, cy = center
    dx = min(max(t.dx, marker.xlo - cx), marker.xhi - cx)
    dy = min(max(t.dy, marker.ylo - cy), marker.yhi - cy)
    return Translation(dx, dy)


def _one_to_one_offsets(a: Pattern, b: Pattern) -> list[tuple[Axis, int]] | None:
    """Corresponding-edge offsets under a one-to-one correspondence: equal
    polygon counts, a bijective overlap pairing at zero shift, and identical
    per-pair topology. None when any of that fails; [] for two empty patterns.
    """
    if len(a.shapes) != len(b.shapes):
        return None
    if not a.shapes:
        return []
    try:
        return edge_displacements(a, b, match_polygons(a, b))
    except MatchError:
        return None


def edge_fit(a: Pattern, b: Pattern) -> int | None:
    """Worst raw corresponding-edge offset between two patterns as they sit.

    None when the patterns have no one-to-one correspondence; two empty
    patterns fit perfectly (0).
    """
    disp = _one_to_one_offsets(a, b)
    if disp is None:
        return None
    return max((abs(d) for _, d in disp), default=0)


def edge_fit_aligned(a: Pattern, b: Pattern) -> tuple[Translation, int, int] | None:
    """Best achievable edge fit over all rigid shifts: the shift, its
    residual, and the worst raw offset at zero shift (what `edge_fit` gives).

    Same correspondence requirements as edge_fit; the minmax midpoint gives
    the optimal shift and its residual. None when no one-to-one
    correspondence exists.
    """
    disp = _one_to_one_offsets(a, b)
    return None if disp is None else _hull_fit(disp)
