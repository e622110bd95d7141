"""Relaxed pair evaluation and sparse similarity-graph assembly.

Each candidate pair, a row of an (m, 2) int64 array, is tested under the
strict constraint with only its threshold loosened; the accepted rows are
the graph's undirected edges, and `assemble` lays them out in compressed
sparse rows (CSR). The graph carries adjacency only: refinement recomputes
every alignment against the representative it is assigned to.

`evaluate_pair_relaxed` tests one pair, and is the reference for the two
batch functions the graph stage calls instead, one per constraint; each
takes a pair array and returns its accepted rows, in their order.
`evaluate_pairs_cosine` reads every pattern's features once and compares
each pair's `raster.cosine_similarity` with one threshold - slack.
`evaluate_pairs_edgemove` thresholds the residual arrays of
`align.iter_edge_fits`, the kernel that scores pairs of patterns sharing a
layout in array blocks and calls `align.edge_fit_aligned` for the rest,
block by block, without building a shift per pair.
"""

from dataclasses import dataclass

import numpy as np

from . import align, raster
from .geometry import Pattern, Translation, ZERO_SHIFT
from .layout_io import ConstraintKind, LayoutDocument


@dataclass(eq=False)
class SimilarityGraph:
    """Undirected graph over n nodes in CSR form: node i's neighbours are
    indices[indptr[i]:indptr[i + 1]], ascending; `assemble` lists each edge
    at both its ends, so the graph is symmetric by construction."""

    n: int
    indptr: np.ndarray   # (n + 1,) int64
    indices: np.ndarray  # (2 * edge_count,) int64

    def neighbours(self, i: int) -> list[int]:
        return self.indices[self.indptr[i]:self.indptr[i + 1]].tolist()

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edges(self) -> np.ndarray:
        """The edges as (i, j) rows with i < j, in ascending order."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))


def evaluate_pair_relaxed(
    a: Pattern,
    b: Pattern,
    doc: LayoutDocument,
    slack: float = 0.0,
) -> Translation | None:
    """Test one pair under the document constraint loosened by `slack`.

    Cosine mode compares the patterns' `features` at zero shift against
    threshold - slack and reports a zero alignment. EdgeMove mode is the
    strict check, `align.edge_fit_aligned`, accepting a residual within
    threshold + slack and reporting the min-max translation. Rejection
    returns None.
    """
    if doc.constraint_kind is ConstraintKind.COSINE:
        sim = raster.cosine_similarity(a.features, b.features)
        return ZERO_SHIFT if sim >= doc.threshold - slack else None
    fit = align.edge_fit_aligned(a, b)
    return fit[0] if fit is not None and fit[1] <= doc.threshold + slack else None


def evaluate_pairs_cosine(patterns, pairs, doc: LayoutDocument, slack: float = 0.0) -> np.ndarray:
    """The rows (i, j) of the (m, 2) int64 array `pairs` that
    `evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack)` accepts
    for a cosine document, in their order, reading each pattern's
    `features` once and the pairs a block of Python ints at a time."""
    feats = [p.features for p in patterns]
    floor = doc.threshold - slack
    keep = np.zeros(len(pairs), dtype=bool)
    for lo in range(0, len(pairs), align.BATCH_PAIRS):
        block = pairs[lo:lo + align.BATCH_PAIRS].tolist()
        keep[lo:lo + len(block)] = [raster.cosine_similarity(feats[i], feats[j]) >= floor for i, j in block]
    return pairs[keep]


def evaluate_pairs_edgemove(patterns, pairs, doc: LayoutDocument, slack: float = 0.0) -> np.ndarray:
    """The rows (i, j) of the (m, 2) int64 array `pairs` that
    `evaluate_pair_relaxed(patterns[i], patterns[j], doc, slack)` accepts
    for an edgemove document, in their order: the residuals of
    `align.iter_edge_fits` within threshold + slack. No fit is kept."""
    limit = doc.threshold + slack
    keep = np.zeros(len(pairs), dtype=bool)
    for ks, _dx, _dy, residual, _raw in align.iter_edge_fits(patterns, pairs):
        keep[ks[residual <= limit]] = True
    return pairs[keep]


def assemble(n: int, edges) -> SimilarityGraph:
    """The CSR graph over n nodes whose undirected edges are the rows of
    `edges`, (i, j) pairs in any order and orientation, as an (m, 2) int
    array or a list. It raises what adding the rows one by one would: at the
    first row naming a node outside 0..n-1 or repeating a pair in either
    orientation, else at the lowest self-loop.

    Each row is listed at both its ends as the code row * n + column. With
    every node in range, two equal codes, adjacent once sorted, mean a
    repeated pair or a self-loop; only then are the rows walked (`_fault`)
    for the error."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if ((e < 0) | (e >= n)).any():
        _fault(n, e)
    code = np.concatenate((e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]))  # n * n < 2**63
    code.sort()
    if (code[1:] == code[:-1]).any():
        _fault(n, e)
    indptr = np.searchsorted(code, np.arange(n + 1) * n)
    return SimilarityGraph(n, indptr, np.remainder(code, n, out=code))


def _fault(n: int, e: np.ndarray):
    """Raise `assemble`'s error for the rows of `e`, which hold a node
    outside 0..n-1, a repeated pair or a self-loop, adding them one by one."""
    seen = set()
    loops = []
    for i, j in e.tolist():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"duplicate pair {pair}")
        seen.add(pair)
        if i == j:
            loops.append(i)
    raise ValueError(f"self-loop at node {min(loops)}")


def dump_edges(g: SimilarityGraph) -> str:
    """Edge list as ascending "i j" lines with i < j (behind --dump-graph)."""
    return "".join(f"{i} {j}\n" for i, j in g.edges().tolist())
