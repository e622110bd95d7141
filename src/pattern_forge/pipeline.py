"""Coarse-to-fine clustering loop.

Each iteration runs four stages over the not-yet-assigned markers: candidate
filtering, relaxed pair evaluation into a similarity graph, surprisal-greedy
set cover, and per-member alignment refinement with strict verification.
Slack shrinks linearly to zero across iterations, so the last round admits
only strictly-valid clusters and unassigned markers degrade to singletons.

A marker's anchor (the pattern at its marker center, plus its unit feature
vector in cosine mode) never changes, so a run extracts it once and keeps it
for the rest of that run: the probe stage (for the orphan and for each
cluster's representative), stage 1 of every iteration and the refinement of
the member at its anchor all read the same entry. Verification deliberately
re-extracts everything from scratch.
"""

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from . import align, raster, scp
from .geometry import Marker, Pattern, ZERO_SHIFT, extract_pattern
from .graph import SimilarityGraph, assemble, evaluate_pair_relaxed
from .layout_io import ClusterReport, ConstraintKind, LayoutDocument
from .prescreen import CandidatePairSet, PrescreenStats, build_candidates, compatible

COSINE_SLACK = 0.05     # cosine threshold relaxation at the first iteration
EDGE_SLACK_FRAC = 0.25  # fraction of T_edge relaxed at the first iteration
SCHEMA = 1              # version of the RunStats.to_json record
STAGES = ("probe", "extract", "prescreen", "graph", "solve", "refine")  # keys of IterationStats.timings_ms


@dataclass(frozen=True)
class IterationConfig:
    max_iterations: int = 3
    use_prescreen: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")

    def slack_fraction(self, iteration: int) -> float:
        """Linear decay to zero: full slack first, none on the last round."""
        n = self.max_iterations
        return (n - 1 - iteration) / (n - 1) if n > 1 else 0.0

    def slack_for(self, doc: LayoutDocument, iteration: int) -> float:
        frac = self.slack_fraction(iteration)
        if doc.constraint_kind is ConstraintKind.COSINE:
            return COSINE_SLACK * frac
        return doc.threshold * EDGE_SLACK_FRAC * frac


@dataclass
class Cluster:
    rep_marker: int                # marker index into the document
    rep_center: tuple[int, int]
    members: list                  # (marker index, (cx, cy)); includes the rep when it covered itself


@dataclass(frozen=True)
class RefineResult:
    center: tuple[int, int]
    score: float        # cosine similarity, or negated max edge offset; higher is better
    anchor_score: float | None


@dataclass
class IterationStats:
    """One iteration. Its pair funnel is prescreen.total_pairs ->
    prescreen.after_topology (Stage A candidates) -> edges (relaxed graph)
    -> accepted_members (members refinement accepted against their
    representative through one of those edges); each step only removes
    pairs. prescreen and solver stay None when the probe left no marker
    for the other stages."""

    iteration: int
    slack: float
    active: int
    probe_joined: int = 0
    prescreen: PrescreenStats | None = None
    edges: int = 0
    solver: scp.SolverStats | None = None
    committed_clusters: int = 0
    accepted_members: int = 0
    deferred: int = 0
    orphaned: int = 0
    timings_ms: dict = field(default_factory=dict)


@dataclass
class RunStats:
    config: IterationConfig
    constraint: str
    threshold: float
    marker_count: int = 0
    cluster_count: int = 0
    iterations_used: int = 0
    refine_checks: int = 0  # members accepted, by refinement or the probe
    refine_violations: int = 0  # accepted members whose score fell below the anchor score
    refine_delta_sum: float = 0.0  # total score improvement of accepted centers over anchors
    wall_ms: float = 0.0
    iterations: list = field(default_factory=list)

    @property
    def compression(self) -> float:
        return 1.0 - self.cluster_count / self.marker_count if self.marker_count else 0.0

    def to_json(self) -> dict:
        """The run's record, version SCHEMA: the config, constraint and
        threshold it ran with, its results and refine counters, the run
        totals (stage_ms over STAGES, the pair funnel, probe joins,
        deferrals, orphans, solver work) and the per-iteration stats. Two
        runs of one input differ only in wall_ms, stage_ms and timings_ms."""
        its = self.iterations
        screened = [it.prescreen for it in its if it.prescreen is not None]
        solved = [it.solver for it in its if it.solver is not None]
        out = {"schema": SCHEMA, **asdict(self), "compression": self.compression}
        out["stage_ms"] = {s: sum(it.timings_ms.get(s, 0.0) for it in its) for s in STAGES}
        out["funnel"] = {
            "pairs": sum(p.total_pairs for p in screened),
            "candidates": sum(p.after_topology for p in screened),
            "edges": sum(it.edges for it in its),
            "accepted_members": sum(it.accepted_members for it in its),
        }
        for key in ("probe_joined", "deferred", "orphaned"):
            out[key] = sum(getattr(it, key) for it in its)
        out["solver"] = {
            "pops": sum(st.pops for st in solved),
            "recomputations": sum(st.recomputations for st in solved),
        }
        out["iterations"] = out.pop("iterations")  # last, after the totals
        return out


def refine_cluster(
    rep: Pattern,
    marker: Marker,
    doc: LayoutDocument,
    rep_features=None,
    member_at_anchor: Pattern | None = None,
    member_features=None,
) -> RefineResult | None:
    """Pick the best legal center for one member against a fixed representative.

    Candidate centers are the aligner's optimum (`align.xy_minmax_align` in
    cosine mode, `align.edge_fit_aligned` in edgemove mode) and the
    marker-center anchor, each clamped into the marker; the candidate with the
    best strict-constraint score wins and is accepted only if it passes the
    strict threshold. The anchor is always a candidate, so an accepted center
    never scores below the anchor. In edgemove mode the strict check is
    `align.edge_fit`: the polygons must correspond one-to-one, so a center
    whose window holds more or fewer polygons than the representative's is
    refused whatever its edge offsets. The anchor's offset comes from the
    same pairing as the aligner's shift, so the anchor is paired only once.

    `member_at_anchor` and `member_features` may carry the member's pattern
    and features at its marker center when the caller already has them;
    otherwise they are computed here.
    """
    anchor = marker.center()
    if member_at_anchor is None:
        member_at_anchor = extract_pattern(doc, anchor)
    cosine = doc.constraint_kind is ConstraintKind.COSINE
    if cosine:
        if rep_features is None:
            rep_features = raster.pattern_features(rep)
        try:
            shift = align.xy_minmax_align(rep, member_at_anchor)
        except align.NoCorrespondenceError:  # raised only for an empty pattern
            shift = None
    else:
        fit = align.edge_fit_aligned(rep, member_at_anchor)
        shift, anchor_offset = (fit[0], fit[2]) if fit else (None, None)

    centers = []
    for t in (shift, ZERO_SHIFT):
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
                features = raster.pattern_features(member)
            sim = raster.cosine_similarity(rep_features, features)
            score, passes = sim, sim >= doc.threshold
        else:
            off = anchor_offset if center == anchor else align.edge_fit(rep, member)
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


def _probe_clusters(idx: int, anchors: dict, clusters, doc) -> tuple[int, RefineResult] | None:
    """Try to attach one orphan to an existing cluster; first success wins.

    Reads the orphan's and each representative's anchor from the run's
    `anchors` cache. The probe runs from iteration 1 on, and iteration 0's
    stage 1 cached every marker, so both entries are always there.
    """
    marker = doc.markers[idx]
    pattern, features = anchors[idx]
    for ci, cluster in enumerate(clusters):
        rep_pattern, rep_features = anchors[cluster.rep_marker]
        if not compatible(pattern, rep_pattern, doc.constraint_kind):
            continue
        result = refine_cluster(
            rep_pattern, marker, doc, rep_features=rep_features,
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
    stats = RunStats(cfg, doc.constraint_kind.value, doc.threshold, marker_count=n)
    iterations_used = 0
    anchors: dict[int, tuple] = {}  # marker index -> (anchor pattern, features or None)

    def _anchors(ms: list) -> list:
        for m in ms:
            if m not in anchors:
                p = extract_pattern(doc, doc.markers[m].center())
                anchors[m] = (p, raster.pattern_features(p) if cosine else None)
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
            for m in active:
                outcome = _probe_clusters(m, anchors, clusters, doc)
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
            cand = build_candidates(patterns, doc.constraint_kind)
        else:
            cand = _all_pairs(len(patterns))
        istats.prescreen = cand.stats
        timings["prescreen"] = (time.perf_counter() - t0) * 1000

        # stage 2: relaxed evaluation, then graph assembly
        t0 = time.perf_counter()
        results = [
            evaluate_pair_relaxed(
                patterns[i], patterns[j], doc, slack,
                fa=features[i], fb=features[j],
            )
            for i, j in cand.pairs
        ]
        g = assemble(len(patterns), cand.pairs, results)
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
            rep_center = doc.markers[rep_idx].center()
            members = []
            if rep_local in sel.covered:
                members.append((rep_idx, rep_center))
            rejected = []
            for k in members_local:
                result = refine_cluster(
                    patterns[rep_local], doc.markers[active[k]], doc,
                    rep_features=features[rep_local],
                    member_at_anchor=patterns[k], member_features=features[k],
                )
                if result is None:
                    rejected.append(active[k])
                    continue
                members.append((active[k], result.center))
                istats.accepted_members += 1
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
            clusters.append(Cluster(rep_idx, rep_center, members))
            istats.committed_clusters += 1
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


def verify_clusterset(clusters, doc: LayoutDocument, cfg: IterationConfig | None = None) -> Verdict:
    """Re-check every stored assignment from scratch.

    Accepts a list of Cluster records or a ClusterReport (whose rows name
    each cluster's representative; it is checked at its marker center).
    Re-extracts each member at its stored center and tests the strict
    constraint against its cluster representative, plus center-in-marker
    validity and the exactly-one-cluster-per-marker invariant. In edgemove
    mode a member whose polygon count differs from the representative's has
    no one-to-one correspondence and fails, as refine_cluster refuses it.

    The check is independent of the run on purpose: it never reads the
    anchors `run_full` cached, and extracts and rasterises every window
    itself. `cfg` is not read, since no run setting changes what a valid
    assignment is; it stays for callers that pass their config.
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
            raster.pattern_features(rep)
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
                    rep_features, raster.pattern_features(member)
                )
                if sim < doc.threshold:
                    return Verdict(
                        False,
                        f"cluster {cid}: marker {doc.marker_ids[m]} similarity {sim:.6f} < {doc.threshold}",
                    )
            else:
                off = align.edge_fit(rep, member)
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
