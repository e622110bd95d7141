"""Optimal alignment kernels.

One aligner per constraint gives the best rigid shift between two patterns:

* per-axis interval competition over corresponding polygon bounding boxes
  for the cosine constraint (`xy_minmax_align`),
* the minmax midpoint over corresponding edge offsets for the
  edge-displacement constraint (`edge_fit_aligned`), which is both the
  relaxed pair test and the strict refinement check. `iter_edge_fits`
  scores an (m, 2) index pair array in array passes and yields each block's
  fits as int64 arrays, which the graph stage thresholds as they are;
  `edge_fits` gives `edge_fit_aligned` of one representative against a list
  of patterns from those blocks, as the (shift, residual, raw) tuples that
  refinement and verification read.

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
    Translation,
    Vertex,
    edge_displacements,
    identity_correspondences,
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


def _centroid_pairs(a: Pattern, b: Pattern) -> tuple[np.ndarray, np.ndarray]:
    """Fallback pairing: each shape of the pattern with fewer shapes (a on
    a tie), in order, with the shape of the other whose bbox center is
    nearest (the first on a tie); the pairs as index arrays into a and b."""
    flip = len(a.rings) > len(b.rings)
    small, big = (b, a) if flip else (a, b)
    sc = small.bboxes[:, :2] + small.bboxes[:, 2:]  # doubled centers stay integral
    bc = big.bboxes[:, :2] + big.bboxes[:, 2:]
    near = ((sc[:, None, :] - bc[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    rows = np.arange(len(sc))
    return (near, rows) if flip else (rows, near)


def xy_minmax_align(a: Pattern, b: Pattern) -> Translation:
    """Interval competition: the narrowest per-axis interval dictates the shift.

    Each corresponding polygon pair bounds a feasible interval of shifts per
    axis, between the offsets of its boxes' low sides and of their high
    sides; the pair with the smallest interval width wins the axis (first
    pair wins ties) and its midpoint, rounded half toward zero, becomes that
    axis of the shift. All pairs are scored in one pass over the rows of
    `a.bboxes` and `b.bboxes`. Falls back to bounding-box-centroid pairing
    when no overlap correspondence exists at zero shift; raises
    NoCorrespondenceError when either pattern is empty.
    """
    if not a.rings or not b.rings:
        raise NoCorrespondenceError("cannot align an empty pattern geometrically")
    try:
        ia, ib = match_polygons(a, b)
    except MatchError:
        ia, ib = _centroid_pairs(a, b)
    off = b.bboxes[ib] - a.bboxes[ia]  # per pair: the x and y offsets of the low sides, then of the high sides
    best = np.abs(off[:, 2:] - off[:, :2]).argmin(axis=0)  # per axis, the first narrowest pair
    dx, dy = _half_toward_zero(off[best, [0, 1]] + off[best, [2, 3]]).tolist()
    return Translation(dx, dy)


def _hull_fit(displacements) -> tuple[Translation, int, int]:
    """Minmax shift, its residual and the worst raw |offset|, all read from
    the per-axis offset hulls (an axis without offsets has the hull [0, 0])."""
    xs = [d for ax, d in displacements if ax is Axis.X] or [0]
    ys = [d for ax, d in displacements if ax is Axis.Y] or [0]
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    shift = Translation(_half_toward_zero(xlo + xhi), _half_toward_zero(ylo + yhi))
    residual = max((xhi - xlo + 1) // 2, (yhi - ylo + 1) // 2)
    return shift, residual, max(-xlo, xhi, -ylo, yhi)


def hull_fits(offsets: np.ndarray, x_axis: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_hull_fit`'s shift (dx, dy), residual and worst raw |offset| for
    each row of `offsets`, a (pairs, E) array of corresponding-edge offsets
    whose columns lie along X where `x_axis` is True and along Y elsewhere."""
    zero = np.zeros(len(offsets), dtype=np.int64)
    hulls = []
    for cols in (x_axis, ~x_axis):
        part = offsets[:, cols]
        hulls.append((part.min(axis=1), part.max(axis=1)) if part.shape[1] else (zero, zero))
    (xlo, xhi), (ylo, yhi) = hulls
    residual = np.maximum((xhi - xlo + 1) // 2, (yhi - ylo + 1) // 2)
    raw = np.maximum(np.maximum(-xlo, xhi), np.maximum(-ylo, yhi))
    return _half_toward_zero(xlo + xhi), _half_toward_zero(ylo + yhi), residual, raw


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


def edge_fit_aligned(a: Pattern, b: Pattern) -> tuple[Translation, int, int] | None:
    """Best achievable edge fit over all rigid shifts: the shift, its
    residual, and the worst raw corresponding-edge offset at zero shift.

    The patterns need a one-to-one correspondence: equal polygon counts, a
    bijective overlap pairing at zero shift, and identical per-pair
    topology; None when any of that fails. Two empty patterns fit perfectly.
    The minmax midpoint gives the optimal shift and its residual.
    """
    if len(a.rings) != len(b.rings):
        return None
    if not a.rings:
        return _hull_fit([])
    try:
        disp = edge_displacements(a, b, match_polygons(a, b))
    except MatchError:
        return None
    return _hull_fit(disp)


# Pairs per array pass of `iter_edge_fits`. A block's temporaries take about
# 3 KB per pair on the benchmark's edgemove windows, and 256 pairs keep the
# run's peak RSS within 0.2 MB of scoring pair by pair (1,024 pairs:
# +0.6-0.9 MB) at no measurable cost in time. Blocks also shrink to keep
# the (pairs x R x R) overlap arrays of patterns of R rectangles within
# BATCH_CELLS.
BATCH_PAIRS = 256
BATCH_CELLS = 1 << 20


def edge_fits(rep, patterns) -> list:
    """[edge_fit_aligned(rep, p) for p in patterns], scoring most pairs in
    array passes (`iter_edge_fits`). A single pattern (each probe
    refinement) goes straight to `edge_fit_aligned`, which costs less than
    a block's setup."""
    if len(patterns) == 1:
        return [edge_fit_aligned(rep, patterns[0])]
    results: list = [None] * len(patterns)
    others = np.arange(1, len(patterns) + 1)
    for block in iter_edge_fits([rep, *patterns], np.column_stack((np.zeros_like(others), others))):
        for k, x, y, r, w in zip(*(a.tolist() for a in block)):
            results[k] = (Translation(x, y), r, w)
    return results


def iter_edge_fits(patterns, pairs):
    """Yield the fits of `edge_fit_aligned(patterns[i], patterns[j])` for
    the rows k = (i, j) of `pairs`, an (m, 2) int64 array, in blocks: one
    tuple (ks, dx, dy, residual, raw) of equal-length int64 arrays per
    block, row m holding pair ks[m]'s shift, residual and raw offset. Only pairs that
    have a fit appear, each once, in no fixed order; pairs with unequal
    shape counts have no one-to-one correspondence and are skipped without
    a call.

    Pairs whose patterns have equal `Pattern.layout_key`s are grouped by
    key and taken in blocks. For each block a stacked strict rectangle
    overlap test, folded to shapes through `owner`, checks that shape k of
    one pattern overlaps shape k of the other and nothing else, i.e. that
    the zero-shift correspondence `match_polygons` finds is the identity;
    the per-axis hulls of `coords[j] - coords[i]` then give `_hull_fit`'s
    shift, residual and raw offset. A pair whose correspondence is not the
    identity, or whose keys differ with equal shape counts, goes through
    `edge_fit_aligned`, and those fits come as one final block. Fits are
    yielded block by block, so a caller that keeps only some of them never
    holds them all, and a caller that thresholds them builds no object per
    pair.
    """
    if not len(pairs):
        return
    key_ids: dict = {}
    kid = np.asarray([key_ids.setdefault(p.layout_key, len(key_ids)) for p in patterns])
    counts = np.asarray([len(p.rings) for p in patterns])
    ki, kj = kid[pairs[:, 0]], kid[pairs[:, 1]]
    fallback = [np.flatnonzero((ki != kj) & (counts[pairs[:, 0]] == counts[pairs[:, 1]]))]
    same = np.flatnonzero(ki == kj)
    same = same[np.argsort(ki[same], kind="stable")]
    for group in np.split(same, np.flatnonzero(np.diff(ki[same])) + 1):
        if not len(group):
            continue
        members = np.sort(pairs[group], axis=None)
        members = members[np.diff(members, prepend=-1) > 0]  # each pattern once
        first = patterns[members[0]]
        rects = np.stack([patterns[m].rects for m in members])
        coords = np.stack([patterns[m].coords for m in members])
        step = max(1, min(BATCH_PAIRS, BATCH_CELLS // max(1, len(first.owner)) ** 2))
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            ga = np.searchsorted(members, pairs[block, 0])
            gb = np.searchsorted(members, pairs[block, 1])
            ok = identity_correspondences(rects[ga], rects[gb], first.rect_counts)
            fallback.append(block[~ok])
            if ok.any():
                fits = hull_fits(coords[gb[ok]] - coords[ga[ok]], first.x_axis)
                yield (block[ok], *fits)
    rows = []
    for k in np.concatenate(fallback).tolist():
        i, j = pairs[k].tolist()
        fit = edge_fit_aligned(patterns[i], patterns[j])
        if fit is not None:
            rows.append((k, fit[0].dx, fit[0].dy, fit[1], fit[2]))
    if rows:
        yield tuple(np.asarray(rows, dtype=np.int64).T)
