"""Relaxed pair evaluation and sparse similarity-graph assembly.

Each surviving candidate pair is tested under the strict constraint with
only its threshold loosened; the accepted pairs are the graph's undirected
edges, and `assemble` builds the graph from them. The graph carries
adjacency only: refinement recomputes every alignment against the
representative it is assigned to.

`evaluate_pair_relaxed` tests one pair, and is the reference for the two
batch functions the graph stage calls instead, one per constraint; each
accepts the same pairs of a list and returns the accepted tuples of that
list. `evaluate_pairs_cosine` reads every pattern's features once and
compares each pair's `raster.cosine_similarity` with one threshold - slack.
`evaluate_pairs_edgemove` thresholds the residual arrays of
`align.iter_edge_fits`, the kernel that scores pairs of patterns sharing a
layout in array blocks and calls `align.edge_fit_aligned` for the rest,
block by block, without building a shift per pair.
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
) -> Translation | None:
    """Test one pair under the document constraint loosened by `slack`.

    Cosine mode compares the patterns' `features()` at zero shift against
    threshold - slack and reports a zero alignment. EdgeMove mode is the
    strict check, `align.edge_fit_aligned`, accepting a residual within
    threshold + slack and reporting the min-max translation. Rejection
    returns None.
    """
    if doc.constraint_kind is ConstraintKind.COSINE:
        sim = raster.cosine_similarity(a.features(), b.features())
        return ZERO_SHIFT if sim >= doc.threshold - slack else None
    fit = align.edge_fit_aligned(a, b)
    return fit[0] if fit is not None and fit[1] <= doc.threshold + slack else None


def evaluate_pairs_cosine(patterns, pairs, doc: LayoutDocument, slack: float = 0.0) -> list:
    """The pairs (i, j) of `pairs` that `evaluate_pair_relaxed(patterns[i],
    patterns[j], doc, slack)` accepts for a cosine document, in the order of
    `pairs`: the same cosine against the same threshold - slack, with each
    pattern's `features()` read once. The list holds the tuples of `pairs`
    themselves."""
    feats = [p.features() for p in patterns]
    floor = doc.threshold - slack
    return [pair for pair in pairs if raster.cosine_similarity(feats[pair[0]], feats[pair[1]]) >= floor]


def evaluate_pairs_edgemove(patterns, pairs, doc: LayoutDocument, slack: float = 0.0) -> list:
    """The pairs (i, j) of `pairs` that `evaluate_pair_relaxed(patterns[i],
    patterns[j], doc, slack)` accepts for an edgemove document, in no fixed
    order: in each block of `align.iter_edge_fits`, the pairs whose
    residual is within threshold + slack. The list holds the tuples of
    `pairs` themselves, and no fit is kept."""
    limit = doc.threshold + slack
    edges = []
    for ks, _dx, _dy, residual, _raw in align.iter_edge_fits(patterns, pairs):
        edges.extend(pairs[k] for k in ks[residual <= limit].tolist())
    return edges


def assemble(n: int, edges) -> SimilarityGraph:
    """The graph over n nodes whose undirected edges are `edges`, (i, j)
    node pairs in any order and orientation; a pair named twice is an
    error."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
        if j in adj[i]:
            raise ValueError(f"duplicate pair {(min(i, j), max(i, j))}")
        adj[i].add(j)
        adj[j].add(i)
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    adj.clear()  # free the sets before SimilarityGraph's check builds its own
    return SimilarityGraph(n, adjacency)


def dump_edges(g: SimilarityGraph) -> str:
    """Edge list as "i j" lines with i < j (debugging aid behind --dump-graph)."""
    return "".join(f"{i} {j}\n" for i, j in g.edges())
