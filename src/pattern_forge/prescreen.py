"""Candidate filtering over the all-pairs pattern space.

Stage A, the only filtering stage, buckets patterns by a cheap
translation-invariant key; only intra-bucket pairs go on to the relaxed pair
test. Under edgemove the key is the full topological signature (shape count,
vertex-count histogram, quantized area and bbox); under cosine it is the
shape count plus a band of total area within 10 %.

Neither filter is a necessary condition for a match. The cosine test is a
heuristic: two windows with different shape counts, or areas more than 10 %
apart, can still reach cosine >= T. The edgemove shape count and vertex
histogram follow from the one-to-one correspondence the constraint demands,
but the quantized area and bbox hold only for rigid shifts; moving an edge by
less than T can change them. Pre-screening off (`use_prescreen=False`)
evaluates every pair.
"""

from dataclasses import dataclass

from .geometry import Pattern
from .layout_io import ConstraintKind

HIST_BINS = 8  # vertex counts 4, 6, ..., 16, and 18+


@dataclass(frozen=True)
class TopoSignature:
    polygon_count: int
    vertex_histogram: tuple[int, ...]
    quantized_area: int
    quantized_bbox: tuple[int, int]


@dataclass(frozen=True)
class PrescreenParams:
    quantum: int = 8
    area_band_frac: float = 0.10


@dataclass(frozen=True)
class PrescreenStats:
    total_pairs: int
    after_topology: int

    @property
    def after_thumbnail(self) -> int:
        # Stage A is the only cut, so this equals after_topology; it stays
        # because the benchmark's per-layer tracer reads it.
        return self.after_topology


@dataclass(frozen=True)
class CandidatePairSet:
    pairs: tuple[tuple[int, int], ...]
    stats: PrescreenStats


def signature(p: Pattern, quantum: int = 8) -> TopoSignature:
    """Translation-invariant bucket key: shape count, vertex-count histogram,
    and area/bbox floored to quanta."""
    if quantum <= 0:
        raise ValueError(f"quantum must be positive, got {quantum}")
    hist = [0] * HIST_BINS
    for shape in p.shapes:
        bin_ = min((len(shape.vertices) - 4) // 2, HIST_BINS - 1)
        hist[bin_] += 1
    b = p.bounds()
    if b is None:
        qbox = (0, 0)
    else:
        qbox = ((b[2] - b[0]) // quantum, (b[3] - b[1]) // quantum)
    return TopoSignature(len(p.shapes), tuple(hist), p.total_area() // quantum, qbox)


def compatible(a: Pattern, b: Pattern, kind: ConstraintKind, params: PrescreenParams = PrescreenParams()) -> bool:
    """Stage-A test for one pair."""
    if kind is ConstraintKind.EDGEMOVE:
        return signature(a, params.quantum) == signature(b, params.quantum)
    if len(a.shapes) != len(b.shapes):
        return False
    return _area_banded(a.total_area(), b.total_area(), params.area_band_frac)


def _area_banded(area_a: int, area_b: int, frac: float) -> bool:
    return abs(area_a - area_b) <= frac * max(area_a, area_b)


def _stage_a_edgemove(patterns, params) -> list[tuple[int, int]]:
    buckets: dict[TopoSignature, list[int]] = {}
    for i, p in enumerate(patterns):
        buckets.setdefault(signature(p, params.quantum), []).append(i)
    pairs = []
    for members in buckets.values():
        for k, i in enumerate(members):
            for j in members[k + 1:]:
                pairs.append((i, j))
    pairs.sort()
    return pairs


def _stage_a_cosine(patterns, params) -> list[tuple[int, int]]:
    by_count: dict[int, list[int]] = {}
    for i, p in enumerate(patterns):
        by_count.setdefault(len(p.shapes), []).append(i)
    pairs = []
    for members in by_count.values():
        order = sorted(members, key=lambda i: (patterns[i].total_area(), i))
        areas = [patterns[i].total_area() for i in order]
        lo = 0
        for j in range(1, len(order)):
            # areas ascending: the band |a_i - a_j| <= frac * a_j has a
            # monotone left boundary, so a single sweep suffices
            while lo < j and not _area_banded(areas[lo], areas[j], params.area_band_frac):
                lo += 1
            for k in range(lo, j):
                a, b = order[k], order[j]
                pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


def build_candidates(patterns, kind: ConstraintKind, params: PrescreenParams = PrescreenParams()) -> CandidatePairSet:
    """Filter all pattern pairs down to the intra-bucket candidates, as
    ascending (i, j) pairs with i < j."""
    n = len(patterns)
    if kind is ConstraintKind.EDGEMOVE:
        pairs = _stage_a_edgemove(patterns, params)
    else:
        pairs = _stage_a_cosine(patterns, params)
    return CandidatePairSet(tuple(pairs), PrescreenStats(n * (n - 1) // 2, len(pairs)))
