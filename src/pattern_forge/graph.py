"""Relaxed pair evaluation and sparse similarity-graph assembly.

Each surviving candidate pair is tested under the strict constraint with
only its threshold loosened; accepted pairs become undirected edges. The
graph carries adjacency only: refinement recomputes every alignment against
the representative it is assigned to.

`evaluate_pair_relaxed` tests one pair. In edgemove mode the graph stage
calls `evaluate_pairs_edgemove` instead, which gives the same result for
every pair of a list: it thresholds the residuals of
`align.iter_edge_fits`, the kernel that scores pairs of patterns sharing a
layout in array blocks and calls `align.edge_fit_aligned` for the rest.
"""

from dataclasses import dataclass

from . import align, raster
from .geometry import Pattern, Translation, ZERO_SHIFT
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


def evaluate_pairs_edgemove(patterns, pairs, doc: LayoutDocument, slack: float = 0.0) -> list:
    """[evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack) for i, j
    in pairs] for an edgemove document: the fits of `align.iter_edge_fits`
    whose residual is within threshold + slack. Only the accepted shifts are
    kept, so the stage never holds a fit per pair."""
    limit = doc.threshold + slack
    results: list = [None] * len(pairs)
    for k, fit in align.iter_edge_fits(patterns, pairs):
        if fit is not None and fit[1] <= limit:
            results[k] = fit[0]
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
