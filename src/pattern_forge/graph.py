"""Relaxed pair evaluation and sparse similarity-graph assembly.

Each surviving candidate pair is tested under the strict constraint with
only its threshold loosened; accepted pairs become undirected edges. The
graph carries adjacency only: refinement recomputes every alignment against
the representative it is assigned to.

`evaluate_pair_relaxed` tests one pair. In edgemove mode the graph stage
calls `evaluate_pairs_edgemove` instead, which gives the same result for
every pair of a list: pairs whose two patterns share a layout (shape by
shape, the same direction sequence and rectangle count) are scored in one
array pass per block once a stacked overlap test proves that their
zero-shift correspondence is the identity; the rest fall back to
`evaluate_pair_relaxed`, one call per pair.
"""

from dataclasses import dataclass

import numpy as np

from . import align, raster
from .geometry import Pattern, Translation, ZERO_SHIFT, identity_correspondences
from .layout_io import ConstraintKind, LayoutDocument


@dataclass
class SimilarityGraph:
    """Undirected graph over n nodes; adjacency[i] lists i's neighbours in
    ascending order."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency size does not match node count")
        neighbours = [set(nbrs) for nbrs in self.adjacency]
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if j == i:
                    raise ValueError(f"self-loop at node {i}")
                if i not in neighbours[j]:
                    raise ValueError(f"edge {i}->{j} missing its reverse")

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimilarityGraph":
        adj = [set() for _ in range(n)]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
            adj[i].add(j)
            adj[j].add(i)
        return cls(n, _sorted_adjacency(adj))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self):
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if i < j:
                    yield i, j


def evaluate_pair_relaxed(
    a: Pattern,
    b: Pattern,
    doc: LayoutDocument,
    slack: float = 0.0,
    *,
    fa=None,
    fb=None,
) -> Translation | None:
    """Test one pair under the document constraint loosened by `slack`.

    Cosine mode compares features at zero shift against threshold - slack and
    reports a zero alignment. EdgeMove mode is the strict check,
    `align.edge_fit_aligned`, accepting a residual within threshold + slack
    and reporting the min-max translation. Rejection returns None.
    """
    if doc.constraint_kind is ConstraintKind.COSINE:
        if fa is None:
            fa = raster.pattern_features(a)
        if fb is None:
            fb = raster.pattern_features(b)
        sim = raster.cosine_similarity(fa, fb)
        return ZERO_SHIFT if sim >= doc.threshold - slack else None
    fit = align.edge_fit_aligned(a, b)
    return fit[0] if fit is not None and fit[1] <= doc.threshold + slack else None


# Pairs per array pass of evaluate_pairs_edgemove. A block's temporaries
# take about 3 KB per pair on the benchmark's edgemove windows, and 256
# pairs keep the run's peak RSS within 0.2 MB of scoring pair by pair
# (1,024 pairs: +0.6-0.9 MB) at no measurable cost in time. Blocks also
# shrink to keep the (pairs x R x R) overlap arrays of patterns of R
# rectangles within BATCH_CELLS.
BATCH_PAIRS = 256
BATCH_CELLS = 1 << 20


def evaluate_pairs_edgemove(patterns, pairs, doc: LayoutDocument, slack: float = 0.0) -> list:
    """[evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack) for i, j
    in pairs] for an edgemove document, scoring most pairs in array passes.

    Pairs whose patterns have equal `EdgeView.layout_key`s are grouped by
    key and taken in blocks. For each block a stacked strict rectangle
    overlap test, folded to shapes through `owner`, checks that shape k of
    one pattern overlaps shape k of the other and nothing else, i.e. that
    the zero-shift correspondence `match_polygons` finds is the identity;
    the per-axis hulls of `coords[j] - coords[i]` then give `_hull_fit`'s
    shift and residual, accepted within threshold + slack. A pair whose
    correspondence is not the identity, or whose keys differ with equal
    shape counts, goes through `evaluate_pair_relaxed`; unequal shape counts
    have no one-to-one correspondence and are refused without a call.
    """
    results: list = [None] * len(pairs)
    if not pairs:
        return results
    views = [p.edge_view() for p in patterns]
    key_ids: dict = {}
    kid = np.asarray([key_ids.setdefault(v.layout_key, len(key_ids)) for v in views])
    counts = np.asarray([len(p.shapes) for p in patterns])
    ij = np.asarray(pairs, dtype=np.int64)
    ki, kj = kid[ij[:, 0]], kid[ij[:, 1]]
    fallback = np.flatnonzero((ki != kj) & (counts[ij[:, 0]] == counts[ij[:, 1]])).tolist()
    same = np.flatnonzero(ki == kj)
    same = same[np.argsort(ki[same], kind="stable")]
    limit = doc.threshold + slack
    for group in np.split(same, np.flatnonzero(np.diff(ki[same])) + 1):
        if not len(group):
            continue
        members = np.unique(ij[group])
        first = views[members[0]]
        rects = np.stack([views[m].rects for m in members])
        coords = np.stack([views[m].coords for m in members])
        step = max(1, min(BATCH_PAIRS, BATCH_CELLS // max(1, len(first.owner)) ** 2))
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            ga = np.searchsorted(members, ij[block, 0])
            gb = np.searchsorted(members, ij[block, 1])
            ok = identity_correspondences(rects[ga], rects[gb], first.rect_counts)
            dx, dy, residual = align.hull_fits(coords[gb] - coords[ga], first.x_axis)
            for k, good, x, y, r in zip(block.tolist(), ok.tolist(), dx.tolist(),
                                        dy.tolist(), residual.tolist()):
                if not good:
                    fallback.append(k)
                elif r <= limit:
                    results[k] = Translation(x, y)
    for k in fallback:
        i, j = pairs[k]
        results[k] = evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack)
    return results


def assemble(n: int, pairs, results) -> SimilarityGraph:
    """Fold per-pair outcomes into a symmetric graph; None entries are
    rejections. Deterministic for a fixed (pairs, results) regardless of the
    order the evaluations actually ran in."""
    if len(pairs) != len(results):
        raise ValueError("results do not match pairs")
    adj = [set() for _ in range(n)]
    for (i, j), t in zip(pairs, results):
        if t is None:
            continue
        if j in adj[i]:
            raise ValueError(f"duplicate pair {(min(i, j), max(i, j))}")
        adj[i].add(j)
        adj[j].add(i)
    return SimilarityGraph(n, _sorted_adjacency(adj))


def _sorted_adjacency(adj: list) -> tuple[tuple[int, ...], ...]:
    """The neighbour sets as ascending tuples. The list is emptied, so the
    sets are freed before SimilarityGraph's check builds its own."""
    out = tuple(tuple(sorted(s)) for s in adj)
    adj.clear()
    return out


def dump_edges(g: SimilarityGraph) -> str:
    """Edge list as "i j" lines with i < j (debugging aid behind --dump-graph)."""
    return "".join(f"{i} {j}\n" for i, j in g.edges())
