"""End-to-end acceptance checks.

Each test locks down one headline behavior of the engine and prints a single
``[acceptance] <name>: PASS/FAIL (<measured numbers>)`` line. Tolerances are
stated inline; everything runs on fixed seeds so the numbers are stable.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pattern_forge
from oracles import eager_solve_oracle, naive_dct2
from pattern_forge import align, raster, scp
from pattern_forge.geometry import Axis, extract_pattern
from pattern_forge.graph import SimilarityGraph, assemble
from pattern_forge.layout_io import ConstraintKind, generate_synthetic
from pattern_forge.pipeline import IterationConfig, run_full, verify_clusterset
from pattern_forge.prescreen import build_candidates

COS = ConstraintKind.COSINE
EDGE = ConstraintKind.EDGEMOVE

K, M, SEED = 20, 50, 42  # synthetic matrix: 20 templates x 50 instances


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def matrix():
    """Full pipeline runs for the synthetic matrix, keyed by (mode, jitter)."""
    out = {}
    for kind in (COS, EDGE):
        for jitter in (0, 12):
            doc = generate_synthetic(K, M, jitter, seed=SEED, constraint=kind)
            clusters, report, stats = run_full(doc, IterationConfig())
            out[kind, jitter] = (doc, clusters, report, stats)
    return out


def test_shift_recovery_exact():
    # 200 random non-empty 64x64 bitmaps under circular shifts |s| <= 31:
    # phase correlation must recover every shift exactly, in under 5 s total
    rng = np.random.default_rng(1201)
    side, cases, failures = 64, 200, 0
    t0 = time.perf_counter()
    for _ in range(cases):
        density = rng.uniform(0.05, 0.95)
        pixels = (rng.random((side, side)) < density).astype(float)
        pixels[rng.integers(side), rng.integers(side)] = 1.0  # never empty
        ref = raster.Bitmap(side, pixels)
        sx, sy = int(rng.integers(-31, 32)), int(rng.integers(-31, 32))
        moving = raster.Bitmap(side, np.roll(pixels, (sy, sx), axis=(0, 1)))
        got = align.phase_correlate(ref, moving)
        if (got.dx, got.dy) != (sx, sy):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    assert _verdict(
        "shift recovery", ok, f"{cases - failures}/{cases} exact, {elapsed:.2f}s"
    )


def test_edge_alignment_minmax_optimal():
    # 1000 random offset multisets (size <= 50, values in [-500, 500]): the
    # analytical mid-hull shift must reach the brute-force minimum of
    # max|d - T| over every integer T in the hull. Offsets are integers, so
    # the half-toward-zero midpoint is exactly optimal and no rounding
    # allowance is consumed.
    rng = np.random.default_rng(1202)
    cases, mismatches = 1000, 0
    for _ in range(cases):
        d = rng.integers(-500, 501, size=int(rng.integers(1, 51)))
        _t, residual = align.edge_minmax_align([(Axis.X, int(v)) for v in d])
        ts = np.arange(d.min(), d.max() + 1)
        brute = int(np.abs(d[:, None] - ts[None, :]).max(axis=0).min())
        if residual != brute:
            mismatches += 1
    t, residual = align.edge_minmax_align([(Axis.X, 2), (Axis.X, 10)])
    worked = (t.dx, residual) == (6, 4)
    ok = mismatches == 0 and worked
    assert _verdict(
        "min-max edge alignment", ok,
        f"{cases - mismatches}/{cases} optimal, [2,10] -> T={t.dx} residual={residual}",
    )


def _random_graph(rng, n: int, density: float) -> SimilarityGraph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return assemble(n, edges)


def test_lazy_solver_matches_eager():
    # 50 random graphs (n <= 500, density 0.5%..20%) plus star/clique/path:
    # identical selection sequences; on the sparse cases the lazy solver must
    # recompute under 25% of the eager solver's score updates
    rng = np.random.default_rng(1203)
    densities = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2]
    divergences = 0
    lazy_work = eager_work = 0
    for case in range(50):
        n = int(rng.integers(30, 501))
        density = densities[case % len(densities)]
        g = _random_graph(rng, n, density)
        lazy, eager = scp.solve(g), eager_solve_oracle(g)
        if lazy.selections != eager.selections:
            divergences += 1
        if density <= 0.02:
            lazy_work += lazy.stats.recomputations
            eager_work += eager.stats.recomputations
    star = assemble(9, [(0, k) for k in range(1, 9)])
    clique = assemble(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    path = assemble(10, [(k, k + 1) for k in range(9)])
    for g in (star, clique, path):
        if scp.solve(g).selections != eager_solve_oracle(g).selections:
            divergences += 1
    ratio = lazy_work / eager_work
    ok = divergences == 0 and ratio < 0.25
    assert _verdict(
        "lazy/eager solver equivalence", ok,
        f"{divergences} divergences, sparse recomputation ratio {ratio:.3f}",
    )


def test_dct_matches_direct_summation():
    # 100 random bitmaps (50 each of 8x8 and 16x16): the transform behind the
    # feature vectors must match the textbook double summation within 1e-9
    rng = np.random.default_rng(1204)
    worst = 0.0
    for case in range(100):
        side = 8 if case < 50 else 16
        pixels = rng.random((side, side))
        feat = raster.dct_features(raster.Bitmap(side, pixels), k=side)
        err = float(np.abs(feat - naive_dct2(pixels).ravel()).max())
        worst = max(worst, err)
    ok = worst <= 1e-9
    assert _verdict("orthonormal DCT", ok, f"100 cases, worst |err| {worst:.2e}")


def test_template_recovery_end_to_end(matrix):
    # 20 templates x 50 instances: with no jitter both modes must recover
    # exactly the 20 templates; with jitter 12 (reachable inside the markers)
    # at most 24 clusters; every assignment re-verified against the strict
    # constraint in all four runs
    lines = []
    ok = True
    for (kind, jitter), (doc, clusters, _report, stats) in matrix.items():
        bound = K if jitter == 0 else K + 4
        exact_ok = stats.cluster_count == K if jitter == 0 else stats.cluster_count <= bound
        verdict = verify_clusterset(clusters, doc)
        ok = ok and exact_ok and bool(verdict)
        lines.append(f"{kind.value}/j{jitter}: {stats.cluster_count} clusters")
    assert _verdict("template recovery", ok, "; ".join(lines))


def test_prescreen_eliminates_most_pairs_soundly(matrix):
    # at N = 1000 the pre-screen must eliminate at least 95% of all pairs
    # while never dropping a ground-truth same-template pair (edge mode is
    # translation-exact under jitter; cosine checked at jitter 0)
    same_template = {
        (i, j) for i in range(K * M) for j in range(i + 1, K * M) if i // M == j // M
    }
    lines = []
    ok = True
    for kind, jitter in ((EDGE, 12), (COS, 0)):
        doc = matrix[kind, jitter][0]
        patterns = [extract_pattern(doc, m.center()) for m in doc.markers]
        cand = build_candidates(patterns, kind)
        elim = 1 - len(cand.pairs) / cand.stats.total_pairs
        dropped = len(same_template - set(map(tuple, cand.pairs.tolist())))
        ok = ok and elim >= 0.95 and dropped == 0
        lines.append(f"{kind.value}/j{jitter}: {elim:.2%} eliminated, {dropped} dropped")
    assert _verdict("pre-screen soundness", ok, "; ".join(lines))


def test_refined_centers_never_worse_than_anchors(matrix):
    # cosine mode: for every accepted member, similarity at the refined center
    # must be >= similarity at the marker-center anchor
    checks = violations = 0
    for jitter in (0, 12):
        stats = matrix[COS, jitter][3]
        checks += sum(it.probe_joined + it.accepted_members for it in stats.iterations)
        violations += stats.refine_violations
    ok = violations == 0 and checks >= K * M
    assert _verdict(
        "refinement monotonicity", ok, f"{violations} violations over {checks} checks"
    )


_REPORTS_SCRIPT = """
import json, sys
from pattern_forge.layout_io import ConstraintKind, generate_synthetic, write_report
from pattern_forge.pipeline import run_full
for kind in (ConstraintKind.COSINE, ConstraintKind.EDGEMOVE):
    doc = generate_synthetic(5, 20, 8, seed=int(sys.argv[2]), constraint=kind)
    _clusters, report, stats = run_full(doc)
    write_report(report, f"{sys.argv[1]}/{kind.value}.csv", doc)
    record = stats.to_json()
    del record["wall_ms"], record["stage_ms"]
    for it in record["iterations"]:
        del it["timings_ms"]
    with open(f"{sys.argv[1]}/{kind.value}.json", "w") as fh:
        json.dump(record, fh, indent=1)
"""


def test_cross_interpreter_determinism(tmp_path):
    # identical seed, two fresh interpreters with different string-hash
    # seeds: the report CSVs, and the run records without their timing
    # fields, must be byte-identical in both constraint modes
    src = os.path.dirname(os.path.dirname(pattern_forge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        (tmp_path / hash_seed).mkdir()
        subprocess.run(
            [sys.executable, "-c", _REPORTS_SCRIPT, str(tmp_path / hash_seed), str(SEED)],
            env=env, check=True, timeout=600,
        )
    names = ("cosine.csv", "edgemove.csv", "cosine.json", "edgemove.json")
    same = {
        name: (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
        for name in names
    }
    ok = all(same.values())
    assert _verdict(
        "cross-interpreter determinism", ok,
        ", ".join(f"{name} identical={same[name]}" for name in names),
    )
