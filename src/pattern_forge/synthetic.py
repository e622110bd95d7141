"""Synthetic benchmark layouts: K templates stamped M times each.

`generate_synthetic` draws each template as rectangles, Ls and Ts in the
cells of a grid, and stamps it with a jittered offset per instance. Under
the cosine constraint a new template is probed against every earlier one
(`_cosine_alike`): their feature vectors are compared at zero shift and at
the shifts that the min-max aligner and FFT phase correlation suggest, in
either sign, and a template that comes within a safety margin of the
threshold at any of them is drawn again.
"""

import math
import random

from .geometry import Marker, Pattern, Polygon, Translation, _trace_union, clip_polygon
from .layout_io import ConstraintKind, LayoutDocument
from . import align, raster


def _random_rect(rng: random.Random, x0: int, y0: int, x1: int, y1: int, min_size: int = 16):
    w = rng.randint(min_size, max(min_size, x1 - x0))
    h = rng.randint(min_size, max(min_size, y1 - y0))
    rx = rng.randint(x0, x1 - w)
    ry = rng.randint(y0, y1 - h)
    return rx, ry, rx + w, ry + h


def _cell_shape(rng: random.Random, x0: int, y0: int, x1: int, y1: int) -> Polygon:
    """One simple polygon inside the box: a rectangle, an L, or a T."""
    roll = rng.random()
    bx0, by0, bx1, by1 = _random_rect(rng, x0, y0, x1, y1, min_size=32)
    if roll < 0.45 or by1 + 16 > y1:
        return Polygon.from_vertices([(bx0, by0), (bx1, by0), (bx1, by1), (bx0, by1)])
    # arm on top of the base, sharing a positive-length edge segment
    top = rng.randint(by1 + 8, y1)
    span = bx1 - bx0
    aw = rng.randint(8, max(8, span - 8))
    if roll < 0.75:
        ax0 = bx0  # L-shape: arm flush with the left corner
    else:
        ax0 = bx0 + rng.randint(1, max(1, span - aw - 1)) if span - aw - 1 >= 1 else bx0
    ax1 = min(ax0 + aw, bx1)
    if ax1 <= ax0:
        ax0, ax1 = bx0, bx1
    rings = _trace_union([(bx0, by0, bx1, by1), (ax0, by1, ax1, top)])
    return Polygon.from_vertices(rings[0])


def _template_shapes(rng: random.Random, count: int, half: int) -> tuple[Polygon, ...]:
    # Cell insets keep distinct shapes >= 32 nm apart: under the worst-case
    # 24 nm relative jitter delta, zero-shift polygon correspondence between
    # two instances of one template is still the identity.
    cells = math.isqrt(count - 1) + 1
    cell = (2 * half) // cells
    if cell < 80:
        raise ValueError(f"content box too small for {count} polygons (cell {cell} nm)")
    chosen = rng.sample(range(cells * cells), count)
    shapes = []
    for ci in sorted(chosen):
        cx0 = -half + (ci % cells) * cell
        cy0 = -half + (ci // cells) * cell
        shapes.append(_cell_shape(rng, cx0 + 16, cy0 + 16, cx0 + cell - 16, cy0 + cell - 16))
    return tuple(shapes)


def _shifted_pattern(shapes, radius: int, t: Translation) -> Pattern:
    """Template content rigidly moved by t and re-clipped to the window."""
    window = (-radius, -radius, radius, radius)
    out = []
    for s in shapes:
        out.extend(clip_polygon(s.translated(t.dx, t.dy), window))
    return Pattern((0, 0), radius, tuple(out))


def _cosine_alike(shapes_a, shapes_b, radius: int, threshold: float) -> bool:
    """Generous similarity probe for template pairs: zero shift plus both
    aligners' suggestions in either sign, with a safety margin."""
    pa = Pattern((0, 0), radius, tuple(shapes_a))
    pb = Pattern((0, 0), radius, tuple(shapes_b))
    fa = raster.pattern_features(pa)
    shifts = {Translation(0, 0)}
    try:
        t = align.xy_minmax_align(pa, pb)
        shifts.update((t, t.negated()))
    except align.NoCorrespondenceError:
        pass
    try:
        t = align.phase_correlate(raster.rasterize(pa), raster.rasterize(pb))
        shifts.update((t, t.negated()))
    except align.DegenerateSpectrumError:
        pass
    margin = 0.05
    for t in shifts:
        shifted = pb if t.is_zero() else _shifted_pattern(shapes_b, radius, t.negated())
        sim = raster.cosine_similarity(fa, raster.pattern_features(shifted))
        if sim > threshold - margin:
            return True
    return False


def generate_synthetic(
    template_count: int,
    instances_per_template: int,
    jitter: int,
    seed: int,
    *,
    radius: int = 512,
    constraint: ConstraintKind = ConstraintKind.COSINE,
    threshold: float | None = None,
) -> LayoutDocument:
    """Deterministic benchmark layout: K templates stamped M times each.

    Template k carries 3 + k polygons, so templates are pairwise distinct in
    topology; for the cosine constraint candidate templates are additionally
    probed for accidental raster similarity and resampled. Each instance's
    content is offset from its marker anchor by a uniform draw in
    [-jitter, jitter]^2; markers span 4 * jitter per side, so the exact
    alignment between any two same-template instances is always reachable.
    Content stays at least jitter + 16 nm clear of the window edge at every
    legal center, so clipping never changes an instance's topology.
    """
    if template_count < 1 or instances_per_template < 1:
        raise ValueError("need at least one template and one instance")
    if jitter < 0:
        raise ValueError("jitter must be non-negative")
    if threshold is None:
        threshold = 0.9 if constraint is ConstraintKind.COSINE else 10.0
    margin = 4 * jitter + 16
    half = radius - margin
    if half < 64:
        raise ValueError(f"radius {radius} too small for jitter {jitter}")
    rng = random.Random(seed)
    templates: list[tuple[Polygon, ...]] = []
    for k in range(template_count):
        count = 3 + k
        shapes = _template_shapes(rng, count, half)
        if constraint is ConstraintKind.COSINE:
            tries = 0
            while any(_cosine_alike(prev, shapes, radius, threshold) for prev in templates):
                tries += 1
                if tries > 50:
                    raise RuntimeError(f"could not draw a template dissimilar to the first {k}")
                shapes = _template_shapes(rng, count, half)
        templates.append(shapes)

    total = template_count * instances_per_template
    cols = math.isqrt(total - 1) + 1
    pitch = 2 * radius + 2 * half + 64
    polys: list[Polygon] = []
    pids: list[int] = []
    markers: list[Marker] = []
    mids: list[int] = []
    g = 0
    for k in range(template_count):
        for _m in range(instances_per_template):
            ax = (g % cols) * pitch
            ay = (g // cols) * pitch
            ox = rng.randint(-jitter, jitter) if jitter else 0
            oy = rng.randint(-jitter, jitter) if jitter else 0
            for shape in templates[k]:
                pids.append(len(pids))
                polys.append(shape.translated(ax + ox, ay + oy))
            markers.append(Marker(ax - 2 * jitter, ay - 2 * jitter, ax + 2 * jitter, ay + 2 * jitter))
            mids.append(g)
            g += 1
    return LayoutDocument(
        radius, constraint, float(threshold), tuple(polys), tuple(pids), tuple(markers), tuple(mids)
    )
