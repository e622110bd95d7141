"""Candidate filtering over the all-pairs pattern space.

Stage A, the only filtering stage, buckets patterns by a cheap
translation-invariant key; only intra-bucket pairs go on to the relaxed pair
test, as an (m, 2) int64 array of ascending (i, j) rows, the pair format
every later stage reads. Under edgemove the key is the full topological
signature (shape count, vertex-count histogram, quantized area and bbox);
under cosine it is the shape count plus a band of total area within 10 %.

Neither filter is a necessary condition for a match. The cosine test is a
heuristic: two windows with different shape counts, or areas more than 10 %
apart, can still reach cosine >= T. The edgemove shape count and vertex
histogram follow from the one-to-one correspondence the constraint demands,
but the quantized area and bbox hold only for rigid shifts; moving an edge by
less than T can change them. Pre-screening off (`use_prescreen=False`)
evaluates every pair.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import Pattern
from .layout_io import ConstraintKind

HIST_BINS = 8  # vertex counts 4, 6, ..., 16, and 18+
QUANTUM = 8  # nm per step of the edgemove key's quantized area and bbox
AREA_BAND_FRAC = 0.10  # the cosine key's relative band of total area


@dataclass(frozen=True)
class TopoSignature:
    polygon_count: int
    vertex_histogram: tuple[int, ...]
    quantized_area: int
    quantized_bbox: tuple[int, int]


@dataclass(frozen=True)
class PrescreenStats:
    total_pairs: int
    after_topology: int

    @property
    def after_thumbnail(self) -> int:
        # Stage A is the only cut, so this equals after_topology; it stays
        # because the benchmark's per-layer tracer reads it.
        return self.after_topology


@dataclass(frozen=True, eq=False)
class CandidatePairSet:
    pairs: np.ndarray  # (m, 2) int64 rows (i, j), i < j, ascending
    stats: PrescreenStats


def signature(p: Pattern) -> TopoSignature:
    """Translation-invariant bucket key: shape count, vertex-count histogram,
    and area/bbox floored to QUANTUM."""
    hist = [0] * HIST_BINS
    for size in np.diff(p.rings.offsets).tolist():
        hist[min((size - 4) // 2, HIST_BINS - 1)] += 1
    b = p.bounds()
    if b is None:
        qbox = (0, 0)
    else:
        qbox = ((b[2] - b[0]) // QUANTUM, (b[3] - b[1]) // QUANTUM)
    return TopoSignature(len(p.rings), tuple(hist), p.area // QUANTUM, qbox)


def compatible(a: Pattern, b: Pattern, kind: ConstraintKind) -> bool:
    """Stage-A test for one pair."""
    if kind is ConstraintKind.EDGEMOVE:
        return signature(a) == signature(b)
    if len(a.rings) != len(b.rings):
        return False
    area_a, area_b = a.area, b.area
    return abs(area_a - area_b) <= AREA_BAND_FRAC * max(area_a, area_b)


def _pairs_below(order: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The pairs {order[k], order[j]} for every position j and every k in
    [lo[j], j), as (i, j) rows with i < j, in no fixed order."""
    counts = np.arange(len(order)) - lo
    j = np.repeat(np.arange(len(order)), counts)
    k = np.arange(len(j)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    a, b = order[k], order[j]
    return np.column_stack((np.minimum(a, b), np.maximum(a, b)))


def _stage_a_edgemove(patterns) -> np.ndarray:
    ids: dict[TopoSignature, int] = {}
    bucket = np.array([ids.setdefault(signature(p), len(ids)) for p in patterns], dtype=np.int64)
    order = np.argsort(bucket, kind="stable")
    return _pairs_below(order, np.searchsorted(bucket[order], bucket[order]))  # every pair of a bucket


def _stage_a_cosine(patterns) -> np.ndarray:
    count = np.array([len(p.rings) for p in patterns], dtype=np.int64)
    area = np.array([p.area for p in patterns], dtype=np.int64)
    order = np.lexsort((area, count))  # by shape count, then area, then index
    a = area[order]
    # within a shape count areas ascend, so `compatible` for k <= j is the integer
    # a[j] - a[k] <= frac * a[j]: j's band starts at the first a[k] >= a[j] - floor(frac * a[j])
    floor = a - np.floor(AREA_BAND_FRAC * a).astype(np.int64)
    cuts = [0, *(np.flatnonzero(np.diff(count[order])) + 1).tolist(), len(order)]
    lo = np.empty_like(order)
    for start, end in zip(cuts, cuts[1:]):
        lo[start:end] = start + np.searchsorted(a[start:end], floor[start:end])
    return _pairs_below(order, lo)


def build_candidates(patterns, kind: ConstraintKind) -> CandidatePairSet:
    """Filter all pattern pairs down to the intra-bucket candidates, as an
    (m, 2) int64 array of (i, j) rows with i < j, in ascending order."""
    n = len(patterns)
    pairs = _stage_a_edgemove(patterns) if kind is ConstraintKind.EDGEMOVE else _stage_a_cosine(patterns)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return CandidatePairSet(pairs, PrescreenStats(n * (n - 1) // 2, len(pairs)))
