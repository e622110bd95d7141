"""Coarse-to-fine clustering loop.

Each iteration runs four stages over the not-yet-assigned markers: candidate
filtering, relaxed pair evaluation into a similarity graph, surprisal-greedy
set cover, and per-member alignment refinement with strict verification.
Slack shrinks linearly to zero across iterations, so the last round admits
only strictly-valid clusters and unassigned markers degrade to singletons.

A marker's anchor (the pattern at its marker center, plus its DCT features
in cosine mode) never changes, so a run extracts it once and keeps it for
the rest of that run: the probe stage, stage 1 of every iteration and the
refinement of the member at its anchor all read the same entry.
Verification deliberately re-extracts everything from scratch.
"""

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from . import align, raster, scp
from .geometry import (
    MatchError,
    Marker,
    Pattern,
    Translation,
    ZERO_SHIFT,
    edge_displacements,
    extract_pattern,
    match_polygons,
)
from .graph import SimilarityGraph, assemble, evaluate_pair_relaxed
from .layout_io import ClusterReport, ConstraintKind, LayoutDocument
from .prescreen import CandidatePairSet, PrescreenParams, PrescreenStats, build_candidates, compatible


@dataclass(frozen=True)
class IterationConfig:
    max_iterations: int = 3
    cosine_slack: float = 0.05     # threshold relaxation at the first iteration
    edge_slack_frac: float = 0.25  # fraction of T_edge relaxed at the first iteration
    grid: int = 64
    dct_k: int = 32
    aligner: str = "geo"           # cosine-mode refinement aligner: geo | fft
    prescreen: PrescreenParams = field(default_factory=PrescreenParams)
    use_prescreen: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.aligner not in ("geo", "fft"):
            raise ValueError(f"unknown aligner {self.aligner!r}")

    def slack_fraction(self, iteration: int) -> float:
        """Linear decay to zero: full slack first, none on the last round."""
        n = self.max_iterations
        return (n - 1 - iteration) / (n - 1) if n > 1 else 0.0

    def slack_for(self, doc: LayoutDocument, iteration: int) -> float:
        frac = self.slack_fraction(iteration)
        if doc.constraint_kind is ConstraintKind.COSINE:
            return self.cosine_slack * frac
        return doc.threshold * self.edge_slack_frac * frac


@dataclass
class Cluster:
    rep_marker: int                # marker index into the document
    rep_center: tuple[int, int]
    members: list                  # (marker index, (cx, cy)); includes the rep when it covered itself
    rep_pattern: Pattern = field(default=None, repr=False, compare=False)
    rep_features: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class RefineResult:
    center: tuple[int, int]
    score: float        # cosine similarity, or negated max edge offset; higher is better
    anchor_score: float | None


@dataclass
class IterationStats:
    iteration: int
    slack: float
    active: int
    probe_joined: int = 0
    prescreen: PrescreenStats | None = None
    pairs_evaluated: int = 0
    edges: int = 0
    solver: scp.SolverStats | None = None
    committed_clusters: int = 0
    accepted_members: int = 0
    deferred: int = 0
    orphaned: int = 0
    timings_ms: dict = field(default_factory=dict)


@dataclass
class RunStats:
    iterations: list
    marker_count: int = 0
    cluster_count: int = 0
    iterations_used: int = 0
    refine_checks: int = 0
    refine_violations: int = 0  # accepted members whose score fell below the anchor score
    refine_delta_sum: float = 0.0  # total score improvement of accepted centers over anchors
    wall_ms: float = 0.0

    @property
    def compression(self) -> float:
        return 1.0 - self.cluster_count / self.marker_count if self.marker_count else 0.0

    def to_json(self) -> dict:
        out = asdict(self)
        out["compression"] = self.compression
        return out


def _strict_edge_offset(rep: Pattern, member: Pattern) -> int | None:
    """Largest corresponding-edge offset at the given centers, or None when no
    one-to-one correspondence exists."""
    try:
        disp = edge_displacements(rep, member, match_polygons(rep, member))
    except MatchError:
        return None
    return max((abs(d) for _axis, d in disp), default=0)


def _aligner_shift(rep: Pattern, member: Pattern, doc: LayoutDocument, cfg: IterationConfig) -> Translation | None:
    if doc.constraint_kind is ConstraintKind.EDGEMOVE:
        fit = align.edge_fit_aligned(rep, member)
        return fit[0] if fit else None
    if cfg.aligner == "geo":
        # raised only for an empty pattern, which phase correlation rejects too
        try:
            return align.xy_minmax_align(rep, member)
        except align.NoCorrespondenceError:
            return None
    try:
        return align.phase_correlate(
            raster.rasterize(rep, cfg.grid), raster.rasterize(member, cfg.grid)
        )
    except align.DegenerateSpectrumError:
        return None


def refine_cluster(
    rep: Pattern,
    marker: Marker,
    doc: LayoutDocument,
    cfg: IterationConfig,
    coarse: Translation | None = None,
    rep_features=None,
    member_at_anchor: Pattern | None = None,
    member_features=None,
) -> RefineResult | None:
    """Pick the best legal center for one member against a fixed representative.

    Candidate centers are the aligner's optimum, the coarse graph alignment,
    and the marker-center anchor, each clamped into the marker; the candidate
    with the best strict-constraint score wins and is accepted only if it
    passes the strict threshold. The anchor is always a candidate, so an
    accepted center never scores below the anchor.

    `member_at_anchor` and `member_features` may carry the member's pattern
    and features at its marker center when the caller already has them;
    otherwise they are computed here.
    """
    anchor = marker.center()
    if member_at_anchor is None:
        member_at_anchor = extract_pattern(doc, anchor)
    cosine = doc.constraint_kind is ConstraintKind.COSINE
    if cosine and rep_features is None:
        rep_features = raster.pattern_features(rep, cfg.grid, cfg.dct_k)

    shifts = [_aligner_shift(rep, member_at_anchor, doc, cfg)]
    if coarse is not None and not coarse.is_zero():
        shifts.append(coarse)
    shifts.append(ZERO_SHIFT)
    centers = []
    for t in shifts:
        if t is None:
            continue
        c = align.clamp_to_marker(t, anchor, marker)
        center = (anchor[0] + c.dx, anchor[1] + c.dy)
        if center not in centers:
            centers.append(center)

    best = None
    anchor_score = None
    for center in centers:
        if center == anchor:
            member, features = member_at_anchor, member_features
        else:
            member, features = extract_pattern(doc, center), None
        if cosine:
            if features is None:
                features = raster.pattern_features(member, cfg.grid, cfg.dct_k)
            sim = raster.cosine_similarity(rep_features, features)
            score, passes = sim, sim >= doc.threshold
        else:
            off = _strict_edge_offset(rep, member)
            if off is None:
                continue
            score, passes = -float(off), off <= doc.threshold
        if center == anchor:
            anchor_score = score
        if passes and (best is None or score > best[1]):
            best = (center, score)
    if best is None:
        return None
    return RefineResult(best[0], best[1], anchor_score)


def _probe_clusters(idx: int, anchor, clusters, doc, cfg) -> tuple[int, RefineResult] | None:
    """Try to attach one orphan to an existing cluster; first success wins."""
    marker = doc.markers[idx]
    pattern, features = anchor
    for ci, cluster in enumerate(clusters):
        if not compatible(pattern, cluster.rep_pattern, doc.constraint_kind, cfg.prescreen):
            continue
        result = refine_cluster(
            cluster.rep_pattern, marker, doc, cfg, rep_features=cluster.rep_features,
            member_at_anchor=pattern, member_features=features,
        )
        if result is not None:
            return ci, result
    return None


def _all_pairs(n: int) -> CandidatePairSet:
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    total = len(pairs)
    return CandidatePairSet(pairs, PrescreenStats(total, total))


def run_full(
    doc: LayoutDocument,
    cfg: IterationConfig = IterationConfig(),
    on_graph: Callable[[int, SimilarityGraph], None] | None = None,
) -> tuple[list[Cluster], ClusterReport, RunStats]:
    """Cluster every marker of `doc`.

    `on_graph(iteration, graph)`, when given, receives each iteration's
    relaxed pair graph; its nodes are that iteration's still-active markers
    in ascending order, which in iteration 0 are all markers.
    """
    t_run = time.perf_counter()
    n = len(doc.markers)
    cosine = doc.constraint_kind is ConstraintKind.COSINE
    clusters: list[Cluster] = []
    active = list(range(n))
    stats = RunStats(iterations=[], marker_count=n)
    iterations_used = 0
    anchors: dict[int, tuple] = {}  # marker index -> (anchor pattern, features or None)

    def _anchors(ms: list) -> list:
        for m in ms:
            if m not in anchors:
                p = extract_pattern(doc, doc.markers[m].center())
                anchors[m] = (p, raster.pattern_features(p, cfg.grid, cfg.dct_k) if cosine else None)
        return [anchors[m] for m in ms]

    for it in range(cfg.max_iterations):
        if not active:
            break
        iterations_used = it + 1
        final = it == cfg.max_iterations - 1
        slack = cfg.slack_for(doc, it)
        istats = IterationStats(iteration=it, slack=slack, active=len(active))
        stats.iterations.append(istats)
        timings = istats.timings_ms

        # stage 0: cheap membership probe against settled representatives
        if it > 0 and clusters and active:
            t0 = time.perf_counter()
            still = []
            for m, anchor in zip(active, _anchors(active)):
                outcome = _probe_clusters(m, anchor, clusters, doc, cfg)
                if outcome is None:
                    still.append(m)
                    continue
                ci, result = outcome
                clusters[ci].members.append((m, result.center))
                istats.probe_joined += 1
                stats.refine_checks += 1
                if cosine and result.anchor_score is not None:
                    stats.refine_delta_sum += result.score - result.anchor_score
                    if result.score < result.anchor_score:
                        stats.refine_violations += 1
            active = still
            timings["probe"] = (time.perf_counter() - t0) * 1000
            if not active:
                break

        # stage 1: extraction and candidate filtering
        t0 = time.perf_counter()
        entries = _anchors(active)
        patterns = [p for p, _f in entries]
        features = [f for _p, f in entries]
        timings["extract"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        if cfg.use_prescreen:
            cand = build_candidates(patterns, doc.constraint_kind, cfg.prescreen)
        else:
            cand = _all_pairs(len(patterns))
        istats.prescreen = cand.stats
        timings["prescreen"] = (time.perf_counter() - t0) * 1000

        # stage 2: relaxed evaluation, then graph assembly
        t0 = time.perf_counter()
        results = [
            evaluate_pair_relaxed(
                patterns[i], patterns[j], doc, slack,
                grid=cfg.grid, dct_k=cfg.dct_k,
                fa=features[i], fb=features[j],
            )
            for i, j in cand.pairs
        ]
        g = assemble(len(patterns), cand.pairs, results)
        istats.pairs_evaluated = len(cand.pairs)
        istats.edges = g.edge_count
        timings["graph"] = (time.perf_counter() - t0) * 1000
        if on_graph is not None:
            on_graph(it, g)

        # stage 3: set cover
        t0 = time.perf_counter()
        solved = scp.solve(g)
        istats.solver = solved.stats
        timings["solve"] = (time.perf_counter() - t0) * 1000

        # stage 4: refinement with strict verification
        t0 = time.perf_counter()
        # A lone selection may sit out this round and try the membership probe
        # later -- but only when there is (or will be) a settled cluster to
        # join; otherwise singletons commit right away.
        defer_allowed = not final and (
            bool(clusters) or any(len(sel.covered) >= 2 for sel in solved.selections)
        )
        next_active = []
        for sel in solved.selections:
            rep_local = sel.node
            members_local = [k for k in sel.covered if k != rep_local]
            rep_idx = active[rep_local]
            rep_pattern = patterns[rep_local]
            rep_features = features[rep_local]
            rep_center = doc.markers[rep_idx].center()
            members = []
            if rep_local in sel.covered:
                members.append((rep_idx, rep_center))
            rejected = []
            for k in members_local:
                result = refine_cluster(
                    rep_pattern, doc.markers[active[k]], doc, cfg,
                    coarse=g.shift(rep_local, k) if k in g.adjacency[rep_local] else None,
                    rep_features=rep_features,
                    member_at_anchor=patterns[k], member_features=features[k],
                )
                if result is None:
                    rejected.append(active[k])
                    continue
                members.append((active[k], result.center))
                stats.refine_checks += 1
                if cosine and result.anchor_score is not None:
                    stats.refine_delta_sum += result.score - result.anchor_score
                    if result.score < result.anchor_score:
                        stats.refine_violations += 1
            next_active.extend(rejected)
            istats.orphaned += len(rejected)
            if not members:
                continue
            if defer_allowed and members == [(rep_idx, rep_center)]:
                next_active.append(rep_idx)
                istats.deferred += 1
                continue
            clusters.append(
                Cluster(rep_idx, rep_center, members, rep_pattern, rep_features)
            )
            istats.committed_clusters += 1
            istats.accepted_members += len(members)
        active = sorted(next_active)
        timings["refine"] = (time.perf_counter() - t0) * 1000

    # anything still unassigned becomes its own cluster at its anchor
    for m in active:
        center = doc.markers[m].center()
        clusters.append(Cluster(m, center, [(m, center)]))

    assignment = {}
    for cid, cluster in enumerate(clusters):
        for m, center in cluster.members:
            assignment[m] = (cid, center, doc.marker_ids[cluster.rep_marker])
    rows = []
    for m in range(n):
        cid, (cx, cy), rep_id = assignment[m]
        rows.append((doc.marker_ids[m], cid, cx, cy, rep_id))
    report = ClusterReport(tuple(rows), len(clusters), max(iterations_used, 1))

    stats.cluster_count = len(clusters)
    stats.iterations_used = report.iterations_used
    stats.wall_ms = (time.perf_counter() - t_run) * 1000
    return clusters, report, stats


@dataclass(frozen=True)
class Verdict:
    ok: bool
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_clusterset(clusters, doc: LayoutDocument, cfg: IterationConfig = IterationConfig()) -> Verdict:
    """Re-check every stored assignment from scratch.

    Accepts a list of Cluster records or a ClusterReport (whose rows name
    each cluster's representative; it is checked at its marker center).
    Re-extracts each member at its stored center and tests the strict
    constraint against its cluster representative, plus center-in-marker
    validity and the exactly-one-cluster-per-marker invariant.

    The check is independent of the run on purpose: it never reads the
    anchors `run_full` cached or the patterns and features stored on the
    clusters, and extracts and rasterises every window itself.
    """
    if isinstance(clusters, ClusterReport):
        try:
            clusters.validate(doc)
        except ValueError as exc:
            return Verdict(False, str(exc))
        clusters = _clusters_from_report(clusters, doc)
    seen = set()
    for cid, cluster in enumerate(clusters):
        rep = extract_pattern(doc, cluster.rep_center)
        rep_features = (
            raster.pattern_features(rep, cfg.grid, cfg.dct_k)
            if doc.constraint_kind is ConstraintKind.COSINE
            else None
        )
        for m, (cx, cy) in cluster.members:
            if m in seen:
                return Verdict(False, f"marker {doc.marker_ids[m]} assigned twice")
            seen.add(m)
            if not doc.markers[m].contains(cx, cy):
                return Verdict(False, f"center ({cx}, {cy}) outside marker {doc.marker_ids[m]}")
            member = extract_pattern(doc, (cx, cy))
            if doc.constraint_kind is ConstraintKind.COSINE:
                sim = raster.cosine_similarity(
                    rep_features, raster.pattern_features(member, cfg.grid, cfg.dct_k)
                )
                if sim < doc.threshold:
                    return Verdict(
                        False,
                        f"cluster {cid}: marker {doc.marker_ids[m]} similarity {sim:.6f} < {doc.threshold}",
                    )
            else:
                off = _strict_edge_offset(rep, member)
                if off is None:
                    return Verdict(False, f"cluster {cid}: marker {doc.marker_ids[m]} has no correspondence")
                if off > doc.threshold:
                    return Verdict(
                        False,
                        f"cluster {cid}: marker {doc.marker_ids[m]} edge offset {off} > {doc.threshold}",
                    )
    if len(seen) != len(doc.markers):
        missing = sorted(set(range(len(doc.markers))) - seen)
        return Verdict(False, f"markers never assigned: {missing[:5]}")
    return Verdict(True)


def _clusters_from_report(report: ClusterReport, doc: LayoutDocument) -> list:
    idx_of = {mid: i for i, mid in enumerate(doc.marker_ids)}
    by_cid: dict[int, Cluster] = {}
    for mid, cid, cx, cy, rep_id in report.assignments:
        if cid not in by_cid:
            rep = idx_of[rep_id]
            by_cid[cid] = Cluster(rep, doc.markers[rep].center(), [])
        by_cid[cid].members.append((idx_of[mid], (cx, cy)))
    return [by_cid[cid] for cid in sorted(by_cid)]
