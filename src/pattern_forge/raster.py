"""Rasterization and spectral features for pattern windows.

Every feature vector comes from one kernel, `block_features`, which scores
a block of windows given as stacked rectangle rows (window-local int64 x0,
y0, x1, y1) and one radius R. `pattern_features` (a pattern's `rects`) is
its one-window case. The graph stage gives its anchors their vectors in
blocks (`fill_features`), and refinement and verification read the
vectors of windows at other centers in blocks (`window_vectors`), without
extracting a pattern: the windows' rows come stacked from batched queries
(`doc.window_rows`) and go to the kernel block by block as slices of them.
A block holds at most BLOCK windows and is padded only to its own longest
row list. The vector is the low-frequency 32 x 32 block of the orthonormal
2D DCT-II of the rows' coverage on a 64-pixel grid, scaled to unit length
(all zeros for an empty window), the same bits whatever block a window is
scored in.

Pixels hold exact area-coverage fractions: the rectangle/pixel overlaps are
summed as exact integers (in a float64 matrix product while every pixel
stays below 2^53, in int64 past that) before a single division by (2R)^2.
One private function, `_coverage`, builds every grid, for a stack of
windows at once.
No supersampling is involved, so any disjoint decomposition of the same
area gives the same pixels and the same features bit for bit; that is why
the exact integer grid is the one input of the transform. The block alone
is `C @ P @ C.T`, where P is the coverage-fraction grid and C the first k
rows of the orthonormal DCT-II basis (Ahmed, Natarajan & Rao 1974), built
once per (side, k). The geometry is fixed, so a report and its layout alone
decide every similarity. The cosine of two windows is the dot product of
their vectors, except that equal vectors score exactly 1, so two windows
with the same shapes are identical under any threshold. `coverage_grid`
gives `_coverage` of one window as int64 and `dct_features` one grid's
block; `rasterize` wraps the grid as a `Bitmap`, the input of
`align.phase_correlate`.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import WINDOW_CHUNK, Pattern

GRID = 64   # raster side in pixels of every feature vector
DCT_K = 32  # side of the low-frequency DCT block kept as the feature vector
_EXACT = 2**53  # float64 holds every integer below this exactly
# Windows per `block_features` call. On the benchmark's cosine windows (8-18
# rectangle rows each, one OpenBLAS thread) a window costs about 50 us
# alone, 40-45 us in blocks of 2, 30 us in blocks of 4 and 25 us in blocks
# of 8. Blocks of 4 keep a run's peak RSS at or below scoring window by
# window; blocks of 8 added up to 0.3 MB.
BLOCK = 4


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


@lru_cache(maxsize=None)
def _pixel_edges(radius: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high sides of the side pixels of a window of radius
    `radius`, in coordinates scaled by side (so the pixel width is 2 *
    radius), built once per (radius, side) and read-only."""
    edges = np.arange(side + 1) * float(2 * radius)
    edges.flags.writeable = False
    return edges[:-1], edges[1:]


def _overlaps(s: np.ndarray, radius: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `s`, rectangles scaled to (rows + radius) * side in float64
    (any stack of (..., 4) rows): its exact 1-D overlaps with each of the
    side pixel columns and with each pixel row, as two (..., side) views of
    one array. A row of zeros overlaps no pixel."""
    lo, hi = _pixel_edges(radius, side)
    ov = np.minimum(s[..., 2:, None], hi)  # both axes at once, in place
    ov -= np.maximum(s[..., :2, None], lo)
    np.maximum(ov, 0.0, out=ov)
    return ov[..., 0, :], ov[..., 1, :]


def _coverage(rows: np.ndarray, sizes, radius: int, side: int) -> tuple[np.ndarray, dict]:
    """The integer coverage numerators of a stack of windows of radius r =
    `radius` on a side x side grid, where window w holds the next sizes[w]
    rows of `rows`, a stacked (n, 4) array of window-local rectangles (x0,
    y0, x1, y1 inside [-r, r]^2); the common denominator is (2r)^2. Every
    grid of the program is built here. Returns the (len(sizes), side,
    side) float64 grids and, by window index, the int64 grid of each
    window whose float64 grid reached 2^53.

    Coordinates are scaled by the grid side so pixel boundaries are integers
    (at most 2r * side <= 1.28e9, exact in float64). The windows are padded
    with zero rows, which cover no pixel, to the longest. Every rectangle
    gets an exact 1-D overlap with each pixel column and each pixel row (0
    outside its span), and each grid is the sum of their outer products,
    taken as one stacked float64 (BLAS) matrix product `Y @ X`. That product
    is exact: each term is an integer of at most (2r)^2 <= 4e14 < 2^53 and
    none is negative, so every partial sum is at most the pixel's total, and
    a computed maximum below 2^53 means no partial sum was rounded. Only more
    than 22 stacked full pixels near MAX_RADIUS reach 2^53; such a window is
    summed again in int64. The exact grids do not depend on the order or the
    grouping of the rows.
    """
    b, longest = len(sizes), max(sizes, default=0)
    scaled = (rows + radius) * side
    if b == 1:  # nothing to pad (a cos_nearT window alone: 42 us, padded 46 us)
        s = scaled.astype(np.float64).reshape(1, longest, 4)
    else:
        s = np.zeros((b, longest, 4))
        s[np.arange(longest) < np.asarray(sizes)[:, None]] = scaled
    xov, yov = _overlaps(s, radius, side)
    grid = yov.transpose(0, 2, 1) @ xov
    exact = {}
    if grid.max() >= _EXACT:  # one reduction of the whole stack on the common path
        for w in np.flatnonzero(grid.max(axis=(1, 2)) >= _EXACT).tolist():
            exact[w] = yov[w].T.astype(np.int64) @ xov[w].astype(np.int64)
    return grid, exact


def coverage_grid(rects: np.ndarray, radius: int, side: int) -> np.ndarray:
    """Integer coverage numerators (int64) of window-local rectangles (rows
    x0, y0, x1, y1 inside [-r, r]^2, r = radius) on a side x side grid, a
    power of two >= 8; the common denominator is (2r)^2. Summing the grid
    gives the rectangles' total area times side^2. It is `_coverage` of
    the one window, exact past 2^53 too.
    """
    if side < 8 or side & (side - 1):
        raise ValueError(f"grid side must be a power of two >= 8, got {side}")
    grid, exact = _coverage(rects, (len(rects),), radius, side)
    return exact[0] if exact else grid[0].astype(np.int64)


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


def block_features(rows: np.ndarray, sizes, radius: int, out: np.ndarray | None = None) -> np.ndarray:
    """The feature vectors of a block of windows of radius r = `radius`:
    window w holds the next sizes[w] rows of `rows`, a stacked (n, 4) array
    of window-local rectangles. Row w of the returned (len(sizes),
    DCT_K**2) array, `out` when given, is window w's DCT_K x DCT_K DCT
    block of its GRID-pixel coverage fractions, scaled to unit length; all
    zeros when the window is empty. Coverage is non-negative, so the DC
    term, and with it the norm, is zero only for an empty window.

    Every vector of the program comes from here, and each is the same bit
    for bit whatever block it is computed in. The block's coverage grids
    come from `_coverage`, one stacked product; a window's int64 grid past
    2^53 takes its place. One division by (2r)^2 gives the fractions, `C @
    P @ C.T` of the stack runs the same matrix product per window as on one
    window, and each vector's norm comes from its own dot product. Callers
    keep a block to BLOCK windows, which bounds its temporaries.
    """
    b = len(sizes)
    grid, exact = _coverage(rows, sizes, radius, GRID)
    for w, g in exact.items():
        grid[w] = g
    grid /= float((2 * radius) ** 2)
    if out is None:
        out = np.empty((b, DCT_K * DCT_K))
    c = _dct_basis(GRID, DCT_K)
    np.matmul(c @ grid, c.T, out=out.reshape(b, DCT_K, DCT_K))
    for v in out:
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's own formula, without its overhead
        if norm:
            v /= norm
    return out


def pattern_features(pattern: Pattern) -> np.ndarray:
    """The feature vector of the pattern's `rects`: `block_features` of
    that one window."""
    rects = pattern.rects
    return block_features(rects, (len(rects),), pattern.radius)[0]


def _blocked(blocks, radius: int):
    """Yield the feature vector of each window of `blocks`, in order: each
    block is the (rows, sizes) of at most BLOCK windows of one radius, as
    `block_features` reads them. The blocks share one buffer, so a vector
    holds until the next block starts: a caller keeps a copy or only what
    it computes from it."""
    buf = np.empty((BLOCK, DCT_K * DCT_K))
    for rows, sizes in blocks:
        yield from block_features(rows, sizes, radius, buf[:len(sizes)])


def fill_features(patterns) -> None:
    """Give every pattern of `patterns` whose `features` is not computed
    yet its vector, in blocks (`_blocked`), kept by
    `Pattern.cache_features`. The vectors are those that reading
    `Pattern.features` would compute, bit for bit.

    Each vector is copied out of the block buffer into an array of its own,
    as reading `Pattern.features` gives it. Keeping the kernel's arrays
    instead, one for all patterns or one per block, raised a benchmark
    run's peak RSS by 0.2-0.7 MB."""
    todo = [p for p in patterns if not p.has_features]
    for radius in sorted({p.radius for p in todo}):  # one radius for a document's windows
        same = [p for p in todo if p.radius == radius]
        parts = (same[lo:lo + BLOCK] for lo in range(0, len(same), BLOCK))
        blocks = ((np.concatenate([p.rects for p in part]), [len(p.rects) for p in part]) for part in parts)
        for p, v in zip(same, _blocked(blocks, radius)):
            p.cache_features(v.copy())


def window_vectors(doc, centers):
    """Yield the feature vector of the window at each of `centers`, in
    order, equal bit for bit to `pattern_features(extract_pattern(doc, c))`:
    the windows' rows from batched queries (`doc.window_rows`, WINDOW_CHUNK
    windows each), scored BLOCK windows at a time (`_blocked`), each block
    a slice of a query's stacked rows, so no window's rows are copied
    again. The vectors share one block buffer, as `_blocked` yields them.

    Coverage is additive over any disjoint decomposition of the same area,
    so the query's rows and the extracted pattern's `rects` give the same
    integer numerators, and every later step is the same arithmetic on the
    same grid. Overlapping polygons are counted twice on both paths.
    """
    return _blocked(_window_blocks(doc, centers), doc.pattern_radius)


def _window_blocks(doc, centers):
    """The (rows, sizes) of each block of BLOCK windows at `centers`, in
    order, as `_blocked` reads them: slices of one `doc.window_rows` query
    per WINDOW_CHUNK windows."""
    for lo in range(0, len(centers), WINDOW_CHUNK):
        rows, _owners, sizes = doc.window_rows(centers[lo:lo + WINDOW_CHUNK])
        sizes = sizes.tolist()
        ends = [0, *itertools.accumulate(sizes)]
        for k in range(0, len(sizes), BLOCK):
            yield rows[ends[k]:ends[min(k + BLOCK, len(sizes))]], sizes[k:k + BLOCK]


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
