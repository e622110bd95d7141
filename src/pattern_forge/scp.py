"""Surprisal-weighted greedy set cover over the CSR similarity graph.

Each node carries surprisal S = 1/(1 + degree): rare patterns are worth more.
A selection covers the node and its uncovered neighbors, earning their summed
surprisal. The lazy solver keeps tentative scores in a max-priority queue and
recomputes only on staleness, which submodularity makes exact: a popped entry
whose fresh gain still beats the queue top is the true argmax.

`_gain` fixes the summation order (self, then the node's CSR slice of
neighbours, ascending), so any solver built on it (the tests' eager
reference among them) gets bit-identical floats and must make exactly the
same selections.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import SimilarityGraph


@dataclass(frozen=True)
class Selection:
    node: int
    covered: tuple[int, ...]  # newly covered, ascending; includes node unless already covered


@dataclass
class SolverStats:
    pops: int = 0
    recomputations: int = 0
    reinsertions: int = 0
    selections: int = 0
    monotonicity_violations: int = 0


@dataclass(frozen=True)
class SolveResult:
    selections: tuple[Selection, ...]
    stats: SolverStats


def _surprisals(g: SimilarityGraph):
    return [1.0 / (1 + g.degree(i)) for i in range(g.n)]


def _gain(g: SimilarityGraph, s, covered, j: int):
    """Marginal gain of selecting j: surprisal mass of newly covered nodes.

    Summation order is fixed (self, then neighbors ascending) so every caller
    gets the identical float.
    """
    total = s[j] if not covered[j] else type(s[j])(0)
    for k in g.neighbours(j):
        if not covered[k]:
            total += s[k]
    return total


def _first_gains(g: SimilarityGraph, s) -> list:
    """`_gain` of every node with nothing covered, one array pass per
    neighbour position: each node's sum runs over self, then its neighbours
    ascending, as `_gain` adds them, so the floats are the same bit for bit."""
    sv = np.asarray(s, dtype=np.float64)
    gains = sv.copy()
    degree = np.diff(g.indptr)
    rows = np.arange(g.n)
    for p in range(int(degree.max(initial=0))):
        rows = rows[degree[rows] > p]
        gains[rows] += sv[g.indices[g.indptr[rows] + p]]
    return gains.tolist()


def _cover(g: SimilarityGraph, covered, j: int) -> list[int]:
    """Mark j and its uncovered neighbors covered; return them ascending."""
    newly = [k for k in g.neighbours(j) if not covered[k]]
    if not covered[j]:
        newly.append(j)
    newly.sort()
    for k in newly:
        covered[k] = True
    return newly


def solve(g: SimilarityGraph) -> SolveResult:
    """Lazy-greedy cover: pop, freshness-check, select or reinsert."""
    s = _surprisals(g)
    covered = [False] * g.n
    epoch = np.zeros(g.n, dtype=np.int64)  # bumped whenever a node's gain may have changed
    stats = SolverStats()
    tentative = _first_gains(g, s)  # each node's last computed gain
    heap = [(-gain, j, 0) for j, gain in enumerate(tentative)]
    heapq.heapify(heap)
    selections = []
    remaining = g.n
    while remaining:
        neg, j, stamp = heapq.heappop(heap)
        stats.pops += 1
        if stamp == epoch[j]:
            gain = -neg
        else:
            gain = _gain(g, s, covered, j)
            stats.recomputations += 1
            if gain > tentative[j]:
                stats.monotonicity_violations += 1
            tentative[j] = gain
            if gain == 0:
                continue  # nothing left to earn here; drop the entry
            if heap and not ((-gain, j) <= heap[0][:2]):
                heapq.heappush(heap, (-gain, j, epoch[j]))
                stats.reinsertions += 1
                continue
        if gain == 0:
            continue
        newly = _cover(g, covered, j)
        # the gains that changed: the newly covered nodes' and their neighbours'
        np.add.at(epoch, np.concatenate([newly, *(g.indices[g.indptr[k]:g.indptr[k + 1]] for k in newly)]), 1)
        selections.append(Selection(j, tuple(newly)))
        stats.selections += 1
        remaining -= len(newly)
    return SolveResult(tuple(selections), stats)
