"""Independent reference implementations used to check the fast paths.

Everything here favors obviousness over speed: unit-cell parity scans for
geometry, direct double-sum DCT, linear scans for min-max fits, a full-update
greedy set cover. Only the eager solver shares code with the package: it
scores and covers through `scp._gain` and `scp._cover`, so its float sums are
bit-identical to the lazy solver's and the two must select exactly alike.
"""

import math
from fractions import Fraction

import numpy as np

from pattern_forge import scp


def cells_inside(vertices, bbox) -> np.ndarray:
    """Boolean unit-cell grid for a simple rectilinear ring via scanline parity.

    Cell (row y, col x) covers the unit square [x, x+1) x [y, y+1) offset by
    the bbox origin. Cell centers sit at half-integers, so a center never
    meets an integer edge coordinate and the parity test has no ties.
    """
    x0, y0, x1, y1 = bbox
    grid = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    verts = list(vertices)
    n = len(verts)
    vedges = []
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if ax == bx:
            vedges.append((ax, min(ay, by), max(ay, by)))
    for row in range(y1 - y0):
        cy = y0 + row + 0.5
        xs = sorted(x for x, lo, hi in vedges if lo < cy < hi)
        assert len(xs) % 2 == 0
        for k in range(0, len(xs), 2):
            grid[row, xs[k] - x0 : xs[k + 1] - x0] = True
    return grid


def rings_cells(rings, bbox) -> np.ndarray:
    out = np.zeros((bbox[3] - bbox[1], bbox[2] - bbox[0]), dtype=bool)
    for ring in rings:
        out |= cells_inside(ring, bbox)
    return out


def rect_cells(rects, bbox) -> np.ndarray:
    x0, y0, _, _ = bbox
    out = np.zeros((bbox[3] - bbox[1], bbox[2] - bbox[0]), dtype=bool)
    for rx0, ry0, rx1, ry1 in rects:
        out[ry0 - y0 : ry1 - y0, rx0 - x0 : rx1 - x0] = True
    return out


def hull_bbox(point_sets, pad: int = 1):
    xs = [x for pts in point_sets for x, _ in pts]
    ys = [y for pts in point_sets for _, y in pts]
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def coverage_grid_loop(rects, radius: int, side: int) -> np.ndarray:
    """Integer coverage numerators, one rectangle at a time.

    `rects` are (x0, y0, x1, y1) tuples in window-local nm inside
    [-radius, radius]^2. Coordinates are scaled by `side` so pixel edges
    fall on multiples of 2 * radius; each rectangle adds the outer product
    of its exact row and column overlaps to the pixels it spans.
    """
    den = 2 * radius
    grid = np.zeros((side, side), dtype=np.int64)
    for x0, y0, x1, y1 in rects:
        sx0, sx1 = (x0 + radius) * side, (x1 + radius) * side
        sy0, sy1 = (y0 + radius) * side, (y1 + radius) * side
        i0, i1 = sx0 // den, -((-sx1) // den)
        j0, j1 = sy0 // den, -((-sy1) // den)
        xi = np.arange(i0, i1, dtype=np.int64)
        yj = np.arange(j0, j1, dtype=np.int64)
        xov = np.minimum(sx1, (xi + 1) * den) - np.maximum(sx0, xi * den)
        yov = np.minimum(sy1, (yj + 1) * den) - np.maximum(sy0, yj * den)
        grid[j0:j1, i0:i1] += yov[:, None] * xov[None, :]
    return grid


def naive_dct2(pixels: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II by direct summation (O(n^4))."""
    m, n = pixels.shape
    out = np.empty((m, n))
    for u in range(m):
        au = math.sqrt(1.0 / m) if u == 0 else math.sqrt(2.0 / m)
        cu = np.cos(np.pi * (2 * np.arange(m) + 1) * u / (2 * m))
        for v in range(n):
            av = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
            cv = np.cos(np.pi * (2 * np.arange(n) + 1) * v / (2 * n))
            out[u, v] = au * av * float(cu @ pixels @ cv)
    return out


def brute_minmax_residual(values) -> int:
    """Minimum over integer shifts T of max |d - T|, by linear scan."""
    if not values:
        return 0
    lo, hi = min(values), max(values)
    return min(max(abs(d - t) for d in values) for t in range(lo, hi + 1))


def minmax_residual_at(values, t: int) -> int:
    return max((abs(d - t) for d in values), default=0)


def exact_surprisals(g) -> list[Fraction]:
    """Surprisal 1/(1 + degree) per node as exact rationals."""
    return [Fraction(1, 1 + g.degree(i)) for i in range(g.n)]


def eager_solve_oracle(g, exact: bool = False) -> scp.SolveResult:
    """Full-update greedy: rescore every node after each selection.

    Same selection contract and the same tie-break (higher gain, then smaller
    id) as `scp.solve`. With exact=True all arithmetic is rational.
    """
    s = exact_surprisals(g) if exact else scp._surprisals(g)
    covered = [False] * g.n
    epoch = [0] * g.n
    stats = scp.SolverStats()
    selections = []
    remaining = g.n
    while remaining:
        best_j = -1
        best_gain = None
        for j in range(g.n):
            gain = scp._gain(g, s, covered, j)
            stats.recomputations += 1
            if gain > 0 and (best_gain is None or gain > best_gain):
                best_j, best_gain = j, gain
        newly = scp._cover(g, covered, epoch, best_j)
        selections.append(scp.Selection(best_j, tuple(newly)))
        stats.selections += 1
        remaining -= len(newly)
    return scp.SolveResult(tuple(selections), stats)
