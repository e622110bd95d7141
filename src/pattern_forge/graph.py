"""Relaxed pair evaluation and sparse similarity-graph assembly.

Each candidate pair, a row of an (m, 2) int64 array, is tested under the
strict constraint with only its threshold loosened; the accepted rows are
the graph's undirected edges, and `assemble` lays them out in compressed
sparse rows (CSR). The graph carries adjacency only: refinement recomputes
every alignment against the representative it is assigned to.

`evaluate_pair_relaxed` tests one pair, and is the reference for the two
batch functions the graph stage calls instead, one per constraint; each
takes a pair array and returns its accepted rows, in their order.
`evaluate_pairs_edgemove` thresholds the residual arrays of
`align.iter_edge_fits`, the kernel that scores pairs of patterns sharing a
layout in array blocks and calls `align.edge_fit_aligned` for the rest,
block by block, without building a shift per pair.

`evaluate_pairs_cosine` gives the patterns that have no features yet
their vectors in blocks (`raster.fill_features`), reads every pattern's
features once and takes the dot products in Gram tiles, `a @ b.T` over
stacks of at most TILE vectors, which sum each product in another order
than `raster.cosine_similarity`'s `u @ v`. Any order of a dot product of
n = DCT_K**2 terms lies within gamma_n * sum |u_k v_k| <= gamma_n |u| |v|
of the exact value, with gamma_n = n eps / (1 - n eps) and eps = 2**-53
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1). The features are unit
vectors whose computed norms lie within about (n/2 + 2) eps of 1, so two
orders differ by at most about 2 n eps, no Gram value exceeds 1 by more
than (2n + 4) eps, and that of two equal vectors lies as close to the 1
that `cosine_similarity` gives them. MARGIN = 4 n eps covers each with
nearly a factor 2 to spare: a Gram value more than MARGIN from the floor
threshold - slack is on the same side of it as the pair's
`cosine_similarity`, clamp and equal-vector rule included. The pairs within
MARGIN of the floor are decided by `cosine_similarity` itself, and so are
the pairs of two empty windows, whose zero vectors it scores 1 as equal.
"""

from dataclasses import dataclass

import numpy as np

from . import align, raster
from .geometry import Pattern, Translation, ZERO_SHIFT
from .layout_io import ConstraintKind, LayoutDocument

# Anchors per Gram tile, and partners per product. The stacks are what a
# cosine graph adds to peak RSS: on a cos_nearT benchmark run (27.8k pairs)
# +0.15 MB at 16 and +0.26 MB at 24 (median of 10 runs); either scores the
# pairs in 7 ms, against 55-63 ms pair by pair.
TILE = 16
MARGIN = 4 * raster.DCT_K**2 * 2.0**-53  # a Gram value this far from the floor decides its pair


@dataclass(eq=False)
class SimilarityGraph:
    """Undirected graph over n nodes in CSR form: node i's neighbours are
    indices[indptr[i]:indptr[i + 1]], ascending; `assemble` lists each edge
    at both its ends, so the graph is symmetric by construction."""

    n: int
    indptr: np.ndarray   # (n + 1,) int64
    indices: np.ndarray  # (2 * edge_count,) int64

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
    `features` once, after `raster.fill_features` computed those not yet
    cached in blocks.

    The rows are taken TILE anchor (i) indices to a tile. A tile stacks
    its anchors' vectors once, and fills its Gram rows against the
    distinct partners (j) its rows name by products `a @ b.T` with stacks
    of TILE partners. A Gram value more than MARGIN from threshold - slack
    decides its row; a row within MARGIN of it, or of two empty windows, is
    decided by `raster.cosine_similarity` (module docstring). Besides the
    pair arrays, the memory is the two stacks and TILE Gram values per
    distinct partner."""
    raster.fill_features(patterns)
    feats = [p.features for p in patterns]
    floor = doc.threshold - slack
    keep = np.zeros(len(pairs), dtype=bool)
    # coverage is non-negative, so only an empty window has a DC term of 0
    empty = np.fromiter((f[0] == 0.0 for f in feats), dtype=bool, count=len(feats))
    exact = [np.flatnonzero(empty[pairs[:, 0]] & empty[pairs[:, 1]])]
    cuts = np.cumsum(np.bincount(pairs[:, 0] // TILE, minlength=-(-len(feats) // TILE)))
    by_anchor = np.argsort(pairs[:, 0], kind="stable")
    for t, lo, hi in zip(range(0, len(feats), TILE), np.append(0, cuts), cuts):
        if lo < hi:
            exact.append(_score_tile(feats, pairs, by_anchor[lo:hi], t, floor, keep))
    for k in np.concatenate(exact).tolist():
        i, j = pairs[k].tolist()
        keep[k] = raster.cosine_similarity(feats[i], feats[j]) >= floor
    return pairs[keep]


def _score_tile(feats, pairs, rows, t: int, floor: float, keep: np.ndarray) -> np.ndarray:
    """Set `keep` at `rows`, the pairs whose anchors lie in t..t + TILE - 1,
    by their Gram values against `floor`, and return the rows whose value
    lies within MARGIN of it. The tile's Gram rows against the distinct
    partners its rows name are filled TILE partners to a product."""
    i, j = pairs[rows].T
    named = np.zeros(len(feats), dtype=bool)
    named[j] = True
    partners = np.flatnonzero(named).tolist()
    a = np.array(feats[t:t + TILE])
    gram = np.empty((len(a), len(partners)))
    for c in range(0, len(partners), TILE):
        gram[:, c:c + TILE] = a @ np.array([feats[k] for k in partners[c:c + TILE]]).T
    g = gram[i - t, np.cumsum(named)[j] - 1]
    keep[rows] = g >= floor
    return rows[np.abs(g - floor) <= MARGIN]


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
