import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pattern_forge.geometry import Polygon

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def staircase(steps: int, run: int = 3, rise: int = 2, x0: int = 0, y0: int = 0) -> Polygon:
    """Monotone staircase polygon, simple by construction.

    Climbs `steps` times (right `run`, up `rise`), closes along the top and
    the left side. 4 + 2*steps vertices.
    """
    pts = [(x0, y0)]
    x, y = x0, y0
    for _ in range(steps):
        x += run
        pts.append((x, y))
        y += rise
        pts.append((x, y))
    x += run
    pts.append((x, y))
    pts.append((x, y + rise))
    pts.append((x0, y + rise))
    return Polygon.from_vertices(pts)


def rect(x0: int, y0: int, x1: int, y1: int) -> Polygon:
    return Polygon.from_vertices([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def random_rect_union(rng: random.Random, span: int = 24, n_rects: int = 3):
    """A small random blob as a list of overlapping integer rectangles.

    Consecutive rectangles overlap with positive area (widths/heights are
    >= 3 and each shift keeps at least one unit of both axes in common), so
    the union is connected and free of corner-to-corner pinches: two rects
    that overlap in area cannot meet corner-to-corner, and any pinch vertex
    between rects 1 and 3 would sit strictly inside rect 2. Three rects in a
    chain also cannot enclose a hole. That keeps the inputs inside the
    contracts of both the union tracer and the ring-parity oracle.
    """
    rects = []
    x = rng.randrange(-span, span // 2)
    y = rng.randrange(-span, span // 2)
    for _ in range(n_rects):
        w = rng.randrange(3, span // 2)
        h = rng.randrange(3, span // 2)
        rects.append((x, y, x + w, y + h))
        x += rng.randrange(0, max(1, w - 1))
        y += rng.randrange(-2, h)
    return rects


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC0FFEE)


def assert_same_rows(got, want) -> None:
    """Two window queries' (rows, owners, sizes) are equal array for array,
    bit for bit."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_same_table(got, want) -> None:
    """Two extracted windows have the same center and radius and equal
    tables, array for array, bit for bit."""
    assert got.center == want.center and got.radius == want.radius
    for name in ("vertices", "offsets", "rects", "owner", "bboxes"):
        a, b = getattr(got.rings, name), getattr(want.rings, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
