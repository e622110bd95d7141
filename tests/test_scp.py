import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pattern_forge.graph import SimilarityGraph, assemble
from pattern_forge.scp import (
    Selection,
    SolveResult,
    _first_gains,
    _gain,
    _surprisals,
    solve,
)

from oracles import eager_solve_oracle, exact_surprisals


def _graph(n: int, edges) -> SimilarityGraph:
    return assemble(n, edges)


def _initial_gains(g: SimilarityGraph) -> list:
    """Each node's gain before anything is covered: the solver's first
    tentative scores."""
    return [_gain(g, _surprisals(g), [False] * g.n, j) for j in range(g.n)]


def _random_graph(rng: random.Random, n: int, p: float) -> SimilarityGraph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return _graph(n, edges)


def _check_cover(g: SimilarityGraph, result: SolveResult):
    """Selections form a partition of the nodes into valid clusters."""
    covered = set()
    for sel in result.selections:
        assert sel.covered == tuple(sorted(sel.covered))
        for k in sel.covered:
            assert k not in covered, "node covered twice"
            assert k == sel.node or k in g.neighbours(sel.node)
        covered.update(sel.covered)
    assert covered == set(range(g.n))
    assert result.stats.selections == len(result.selections)


class TestScores:
    def test_isolated_node_scores_one(self):
        g = _graph(3, [])
        assert _surprisals(g) == [1.0] * 3
        assert _initial_gains(g) == [1.0] * 3
        assert all(1 + g.degree(j) == 1 for j in range(3))

    def test_triangle_scores_one(self):
        # each node has degree 2: s = 1/3, covering all three earns 1.0
        g = _graph(3, [(0, 1), (1, 2), (0, 2)])
        for j, (s, gain) in enumerate(zip(_surprisals(g), _initial_gains(g))):
            assert 1 + g.degree(j) == 3
            assert s == pytest.approx(1 / 3)
            assert gain == pytest.approx(1.0)

    def test_star_center_dominates(self):
        g = _graph(5, [(0, k) for k in range(1, 5)])
        gains = _initial_gains(g)
        # center: 1/5 + 4 * (1/2); leaves: 1/2 + 1/5
        assert gains[0] == pytest.approx(1 / 5 + 2.0)
        for gain in gains[1:]:
            assert gain == pytest.approx(0.7)

    def test_gain_shrinks_with_coverage(self):
        g = _graph(4, [(0, 1), (0, 2), (0, 3)])
        s = _surprisals(g)
        assert _gain(g, s, [False] * 4, 0) == pytest.approx(0.25 + 3 * 0.5)
        assert _gain(g, s, [False, True, True, False], 0) == pytest.approx(0.25 + 0.5)
        assert _gain(g, s, [True, True, True, True], 0) == 0.0

    @settings(max_examples=200)
    @given(st.data(), st.booleans())
    def test_first_pass_is_gain_bit_for_bit(self, data, arbitrary):
        # the array first pass against `_gain` per node, with the graph's
        # surprisals or arbitrary floats, whose sums depend on the order
        n = data.draw(st.integers(0, 16))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        g = _graph(n, edges)
        floats = st.floats(1e-6, 1e6, allow_nan=False)
        s = data.draw(st.lists(floats, min_size=n, max_size=n)) if arbitrary else _surprisals(g)
        expected = [_gain(g, s, [False] * n, j) for j in range(n)]
        got = _first_gains(g, s)
        assert [x.hex() for x in got] == [x.hex() for x in expected]

    def test_first_pass_on_cliques(self):
        # five 5-cliques joined in a ring, and a 9-node clique
        ring = [(5 * c + i, 5 * c + j) for c in range(5) for i in range(5) for j in range(i + 1, 5)]
        ring += [(5 * c + 4, (5 * c + 5) % 25) for c in range(5)]
        for g in (_graph(25, ring), _graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])):
            s = _surprisals(g)
            assert _first_gains(g, s) == [_gain(g, s, [False] * g.n, j) for j in range(g.n)]

    def test_exact_surprisals_are_rational(self):
        g = _graph(3, [(0, 1)])
        assert exact_surprisals(g) == [Fraction(1, 2), Fraction(1, 2), Fraction(1, 1)]


class TestSolveSmall:
    def test_edgeless_graph_needs_n_selections(self):
        g = _graph(4, [])
        res = solve(g)
        _check_cover(g, res)
        assert len(res.selections) == 4
        assert [sel.node for sel in res.selections] == [0, 1, 2, 3]

    def test_star_solved_by_center(self):
        g = _graph(6, [(0, k) for k in range(1, 6)])
        res = solve(g)
        _check_cover(g, res)
        assert res.selections == (Selection(0, tuple(range(6))),)

    def test_two_cliques(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 9) for j in range(i + 1, 9)]
        g = _graph(9, edges)
        res = solve(g)
        _check_cover(g, res)
        assert len(res.selections) == 2
        assert {sel.node for sel in res.selections} == {0, 4}

    def test_complete_graph_one_selection(self):
        g = _graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        res = solve(g)
        _check_cover(g, res)
        assert len(res.selections) == 1
        assert res.selections[0].node == 0  # tie broken toward the smallest id

    def test_path_graph(self):
        g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = solve(g)
        _check_cover(g, res)
        assert len(res.selections) == 2
        assert [sel.node for sel in res.selections] == [1, 3]

    def test_covered_node_can_still_represent(self):
        # selecting 1 covers {0, 1, 2}; nodes 3 and 4 hang off 2, so the
        # only single-selection completion picks the already-covered 2
        g = _graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        res = solve(g)
        _check_cover(g, res)
        nodes = [sel.node for sel in res.selections]
        assert 2 in nodes
        sel2 = next(sel for sel in res.selections if sel.node == 2)
        assert 2 not in sel2.covered or sel2 is res.selections[0]

    def test_assignment_earliest_wins(self):
        g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = solve(g)
        assign = {k: sel.node for sel in res.selections for k in sel.covered}
        assert set(assign) == set(range(5))
        first = res.selections[0]
        for k in first.covered:
            assert assign[k] == first.node


class TestLazyMatchesEager:
    def test_identical_on_randoms(self, rng):
        for n, p in [(12, 0.1), (12, 0.4), (30, 0.05), (30, 0.2), (60, 0.02), (60, 0.5)]:
            for _ in range(5):
                g = _random_graph(rng, n, p)
                lazy = solve(g)
                eager = eager_solve_oracle(g)
                assert lazy.selections == eager.selections
                _check_cover(g, lazy)

    def test_identical_on_structured(self):
        cases = [
            _graph(1, []),
            _graph(6, [(0, k) for k in range(1, 6)]),
            _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            _graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        ]
        for g in cases:
            assert solve(g).selections == eager_solve_oracle(g).selections

    @settings(max_examples=60)
    @given(st.data())
    def test_identical_property(self, data):
        n = data.draw(st.integers(1, 24))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), max_size=60, unique=True)) if possible else []
        g = _graph(n, edges)
        lazy = solve(g)
        eager = eager_solve_oracle(g)
        assert lazy.selections == eager.selections
        _check_cover(g, lazy)

    def test_exact_rational_mode(self, rng):
        # where gains are decisively ordered, exact arithmetic agrees with
        # float; on arbitrary graphs float rounding may flip near-ties, so
        # random draws only get the cover-validity check
        decisive = [
            _graph(6, [(0, k) for k in range(1, 6)]),
            _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            _graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        ]
        for g in decisive:
            assert solve(g).selections == eager_solve_oracle(g, exact=True).selections
        for _ in range(10):
            g = _random_graph(rng, 25, 0.15)
            _check_cover(g, eager_solve_oracle(g, exact=True))

    def test_monotonicity_never_violated(self, rng):
        # stale entries can only lose value as coverage grows
        for _ in range(10):
            g = _random_graph(rng, 40, 0.1)
            res = solve(g)
            assert res.stats.monotonicity_violations == 0

    def test_lazy_is_lazier(self, rng):
        # on sparse graphs the point of laziness is fewer rescores
        g = _random_graph(rng, 200, 0.02)
        lazy = solve(g)
        eager = eager_solve_oracle(g)
        assert lazy.selections == eager.selections
        assert lazy.stats.recomputations < eager.stats.recomputations / 4


class TestStats:
    def test_pops_bounded_by_heap_traffic(self):
        g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = solve(g)
        n_initial = 5
        assert res.stats.pops <= n_initial + res.stats.reinsertions
        assert res.stats.selections == len(res.selections)
