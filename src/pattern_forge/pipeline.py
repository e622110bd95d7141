"""Coarse-to-fine clustering loop.

`run_full` loops over the iterations, timing each stage with `_timed`. A
stage is one function over the not-yet-assigned markers: `_probe` (from
iteration 1, joining settled clusters), `_extract` (anchor patterns),
`_candidates` (prescreen), the graph (relaxed pair evaluation, then
`graph.assemble`), `scp.solve` (surprisal-greedy set cover) and `_refine`
(alignment refinement with strict verification); probe and refinement
accept members through `_accept`.
Stages call module globals, where `perfbench/tracer.py` wraps them. Slack
shrinks linearly to zero across iterations, so the last round admits only
strictly-valid clusters and unassigned markers degrade to singletons.

A marker's anchor (the pattern at its marker center) never changes, so a
run extracts it once and keeps it for the rest of that run: the probe (for
the orphan and for each cluster's representative), `_extract` in every
iteration and the refinement of the member at its anchor all read the same
pattern. Stages pass patterns and index pairs only: in cosine mode each
reads an anchor's unit feature vector, `Pattern.features`, which is
computed once per pattern, and pairs are (m, 2) int64 arrays from the
prescreen to `graph.assemble`, whose CSR graph `scp.solve` reads.

One routine, `refine_members`, refines in both modes: `_refine` passes it
all members of a selection at once, and the probe one pair at a time
through `refine_cluster`, its one-member case. Only the aligner and
`_window_scores` depend on the constraint. `_window_scores` scores windows
at centers other than the anchors, read from the layout: in cosine mode by
`raster.window_features`, straight from the layout's decomposition
rectangles, and in edgemove mode by one `align.edge_fits` call over the
extracted windows. Refinement of a (representative, member) marker pair
depends on nothing else, so a run that refused a pair never refines it
again: the probe and `_refine` skip it and count the skip. Verification
reads no run state: it scores every window from the layout again, through
the same `_window_scores`.
"""

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import align, raster, scp
from .geometry import Marker, Pattern, extract_pattern
from .graph import SimilarityGraph, assemble, evaluate_pairs_cosine, evaluate_pairs_edgemove
from .layout_io import ClusterReport, ConstraintKind, LayoutDocument
from .prescreen import CandidatePairSet, PrescreenStats, build_candidates, compatible

COSINE_SLACK = 0.05     # cosine threshold relaxation at the first iteration
EDGE_SLACK_FRAC = 0.25  # fraction of T_edge relaxed at the first iteration
SCHEMA = 3              # version of the RunStats.to_json record
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
    skipped_refused: int = 0  # probe or refine pairs not refined again: refused earlier in the run
    timings_ms: dict = field(default_factory=dict)


@dataclass
class RunStats:
    config: IterationConfig
    constraint: str
    threshold: float
    marker_count: int = 0
    cluster_count: int = 0
    iterations_used: int = 0
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
        for key in ("probe_joined", "deferred", "orphaned", "skipped_refused"):
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
    member_at_anchor: Pattern | None = None,
) -> RefineResult | None:
    """Pick the best legal center for one member against a fixed
    representative: `refine_members` of that one member.

    `member_at_anchor` may carry the member's pattern at its marker center
    when the caller already has it; otherwise it is extracted here.
    """
    if member_at_anchor is None:
        member_at_anchor = extract_pattern(doc, marker.center())
    return refine_members(rep, [(marker, member_at_anchor)], doc)[0]


def refine_members(rep: Pattern, members, doc: LayoutDocument) -> list:
    """The best legal center of each (marker, pattern at its marker center)
    of `members` against one representative, as a RefineResult, or None
    where no candidate center passes.

    A member's candidate centers are the aligner's optimum, clamped into the
    marker, and the marker-center anchor. The aligned center is tried first
    and wins ties; the best score that passes the strict threshold wins; the
    anchor is always a candidate, so an accepted center never scores below
    the anchor. The aligner is `align.xy_minmax_align` per member in cosine
    mode (an empty pattern has no shift, so only the anchor is tried), and
    one `align.edge_fits` call in edgemove mode, whose raw offsets also
    score the anchors. The aligned centers that differ from their anchors
    are scored together by `_window_scores`. Cosine scores read the
    patterns' `features`.
    """
    if doc.constraint_kind is ConstraintKind.COSINE:
        rep_features = rep.features
        shifts, at_anchor = [], []
        for _marker, p in members:
            try:
                shifts.append(align.xy_minmax_align(rep, p))
            except align.NoCorrespondenceError:  # raised only for an empty pattern
                shifts.append(None)
            at_anchor.append(raster.cosine_similarity(rep_features, p.features))
    else:
        rep_features = None
        fits = align.edge_fits(rep, [p for _marker, p in members])
        shifts = [None if fit is None else fit[0] for fit in fits]
        at_anchor = [None if fit is None else -float(fit[2]) for fit in fits]
    moved = {}  # member position -> its aligned center, where that is not its anchor
    for k, ((marker, _p), shift) in enumerate(zip(members, shifts)):
        if shift is not None:
            anchor = marker.center()
            c = align.clamp_to_marker(shift, anchor, marker)
            if not c.is_zero():
                moved[k] = (anchor[0] + c.dx, anchor[1] + c.dy)
    moved_scores = dict(zip(moved, _window_scores(doc, rep, rep_features, list(moved.values()))))
    floor = _score_floor(doc)
    results = []
    for k, (marker, _p) in enumerate(members):
        best = None
        for center, score in ((moved.get(k), moved_scores.get(k)), (marker.center(), at_anchor[k])):
            if score is not None and score >= floor and (best is None or score > best[1]):
                best = (center, score)
        results.append(None if best is None else RefineResult(best[0], best[1], at_anchor[k]))
    return results


def _score_floor(doc: LayoutDocument) -> float:
    """The lowest passing score: T for a cosine, -T for a negated edge
    offset (exact: the offsets are integers below 2^53)."""
    return doc.threshold if doc.constraint_kind is ConstraintKind.COSINE else -doc.threshold


def _window_scores(doc: LayoutDocument, rep: Pattern | None, rep_features, centers) -> list:
    """The strict score against the representative of the window at each of
    `centers`, read from the layout: the cosine of `raster.window_features`
    against `rep_features` (equal bit for bit to the features of the
    extracted pattern), or the negated raw edge offset of the extracted
    window against `rep` from one `align.edge_fits` call, None where there
    is no one-to-one correspondence."""
    if doc.constraint_kind is ConstraintKind.COSINE:
        return [raster.cosine_similarity(rep_features, raster.window_features(doc, c)) for c in centers]
    fits = align.edge_fits(rep, [extract_pattern(doc, c) for c in centers])
    return [None if fit is None else -float(fit[2]) for fit in fits]


def _timed(istats: IterationStats, stage: str, fn, *args):
    """Run one stage, or one part of it, and add its wall time to `stage` in timings_ms."""
    t0 = time.perf_counter()
    out = fn(*args)
    istats.timings_ms[stage] = istats.timings_ms.get(stage, 0.0) + (time.perf_counter() - t0) * 1000
    return out


def _accept(stats: RunStats, members: list, m: int, result: RefineResult) -> None:
    """Add marker m at its refined center to `members`; in cosine mode, also
    add its score change over the anchor to the run's refine counters."""
    members.append((m, result.center))
    if stats.constraint == ConstraintKind.COSINE.value and result.anchor_score is not None:
        stats.refine_delta_sum += result.score - result.anchor_score
        if result.score < result.anchor_score:
            stats.refine_violations += 1


def _refused_before(istats, refused, rep_marker: int, m: int) -> bool:
    """Whether the run has refused refining marker m against marker
    `rep_marker` before: its inputs, and so its outcome, are the same every
    time, so the caller skips the pair. Skips are counted in
    istats.skipped_refused."""
    if (rep_marker, m) in refused:
        istats.skipped_refused += 1
        return True
    return False


def _probe(doc, stats, istats, clusters, active, anchors, refused) -> list[int]:
    """Stage 0: join each active marker to the first settled cluster whose
    refinement accepts it (pairs the run refused before count as refused
    without a call, and new refusals are added to `refused`); returns the
    markers that joined none. Every anchor is cached: the probe runs from
    iteration 1, after iteration 0's `_extract` read them all."""
    still = []
    for m in active:
        for cluster in clusters:
            rep = cluster.rep_marker
            if not compatible(anchors[m], anchors[rep], doc.constraint_kind):
                continue
            if _refused_before(istats, refused, rep, m):
                continue
            result = refine_cluster(anchors[rep], doc.markers[m], doc, member_at_anchor=anchors[m])
            if result is None:
                refused.add((rep, m))
                continue
            _accept(stats, cluster.members, m, result)
            istats.probe_joined += 1
            break
        else:
            still.append(m)
    return still


def _extract(doc, active, anchors) -> list[Pattern]:
    """Stage 1: the active markers' anchor patterns, extracted into
    `anchors` the first time a run needs them."""
    for m in active:
        if m not in anchors:
            anchors[m] = extract_pattern(doc, doc.markers[m].center())
    return [anchors[m] for m in active]


def _candidates(doc, cfg, patterns) -> CandidatePairSet:
    """Stage 1, filtering: the prescreen's candidate pairs, or every pair
    when the config turns the prescreen off; either way (i, j) rows with
    i < j, ascending."""
    if cfg.use_prescreen:
        return build_candidates(patterns, doc.constraint_kind)
    pairs = np.column_stack(np.triu_indices(len(patterns), 1))
    return CandidatePairSet(pairs, PrescreenStats(len(pairs), len(pairs)))


def _refine(doc, stats, istats, clusters, active, patterns, selections, final, refused) -> list[int]:
    """Stage 4: refine each selected member against its representative and
    commit the clusters; returns the rejected members and deferred
    representatives, sorted, for the next round. The members of a selection
    are refined together (`refine_members`); pairs the run refused before
    are skipped.
    A lone selection may sit out this round and try the probe later -- but
    only when there is (or will be) a settled cluster to join; otherwise
    singletons commit at once."""
    defer_allowed = not final and (
        bool(clusters) or any(len(sel.covered) >= 2 for sel in selections)
    )
    next_active = []
    for sel in selections:
        rep_local = sel.node
        rep_idx = active[rep_local]
        rep_center = doc.markers[rep_idx].center()
        members = [(rep_idx, rep_center)] if rep_local in sel.covered else []
        others = [k for k in sel.covered if k != rep_local]
        tried = [k for k in others if not _refused_before(istats, refused, rep_idx, active[k])]
        found = refine_members(
            patterns[rep_local], [(doc.markers[active[k]], patterns[k]) for k in tried], doc,
        )
        results = dict(zip(tried, found))
        for k in others:
            result = results.get(k)
            if result is None:
                refused.add((rep_idx, active[k]))
                next_active.append(active[k])
                istats.orphaned += 1
                continue
            _accept(stats, members, active[k], result)
            istats.accepted_members += 1
        if not members:
            continue
        if defer_allowed and members == [(rep_idx, rep_center)]:
            next_active.append(rep_idx)
            istats.deferred += 1
            continue
        clusters.append(Cluster(rep_idx, rep_center, members))
        istats.committed_clusters += 1
    return sorted(next_active)


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
    clusters: list[Cluster] = []
    active = list(range(n))
    stats = RunStats(cfg, doc.constraint_kind.value, doc.threshold, marker_count=n)
    anchors: dict[int, Pattern] = {}  # marker index -> pattern at its marker center
    refused: set[tuple[int, int]] = set()  # (representative, member) markers refinement refused

    for it in range(cfg.max_iterations):
        if not active:
            break
        istats = IterationStats(iteration=it, slack=cfg.slack_for(doc, it), active=len(active))
        stats.iterations.append(istats)
        if clusters:  # none before iteration 1
            active = _timed(istats, "probe", _probe, doc, stats, istats, clusters, active, anchors, refused)
            if not active:
                break
        patterns = _timed(istats, "extract", _extract, doc, active, anchors)
        cand = _timed(istats, "prescreen", _candidates, doc, cfg, patterns)
        istats.prescreen = cand.stats
        evaluate = evaluate_pairs_cosine if doc.constraint_kind is ConstraintKind.COSINE else evaluate_pairs_edgemove
        edges = _timed(istats, "graph", evaluate, patterns, cand.pairs, doc, istats.slack)
        del cand  # free the candidate pairs before assembly, which sets the stage's peak memory
        g = _timed(istats, "graph", assemble, len(patterns), edges)
        del edges
        istats.edges = g.edge_count
        if on_graph is not None:
            on_graph(it, g)
        solved = _timed(istats, "solve", scp.solve, g)
        istats.solver = solved.stats
        active = _timed(
            istats, "refine", _refine, doc, stats, istats, clusters, active,
            patterns, solved.selections, it == cfg.max_iterations - 1, refused,
        )

    # anything still unassigned becomes its own cluster at its anchor
    for m in active:
        center = doc.markers[m].center()
        clusters.append(Cluster(m, center, [(m, center)]))

    rows = [None] * n
    for cid, cluster in enumerate(clusters):
        for m, (cx, cy) in cluster.members:
            rows[m] = (doc.marker_ids[m], cid, cx, cy, doc.marker_ids[cluster.rep_marker])
    report = ClusterReport(tuple(rows), len(clusters), max(len(stats.iterations), 1))

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
    Reads each member's window at its stored center from the layout again
    and tests the strict constraint against its cluster representative,
    plus center-in-marker validity and the exactly-one-cluster-per-marker
    invariant. In edgemove mode a member whose polygon count differs from
    the representative's has no one-to-one correspondence and fails, as
    refinement refuses it.

    The check is independent of the run on purpose: it never reads the
    anchors `run_full` cached. It scores each cluster's members at their
    stored centers with `_window_scores`, the scorer refinement uses (in
    cosine mode every window rasterised from the layout's decomposition
    rectangles, in edgemove mode every window extracted and scored in one
    `align.edge_fits` call), and then runs the checks in member order.
    `cfg` is not read, since no run setting changes what a valid assignment
    is; it stays for callers that pass their config.
    """
    if isinstance(clusters, ClusterReport):
        try:
            clusters.validate(doc)
        except ValueError as exc:
            return Verdict(False, str(exc))
        clusters = _clusters_from_report(clusters, doc)
    cosine = doc.constraint_kind is ConstraintKind.COSINE
    floor = _score_floor(doc)
    seen = set()
    for cid, cluster in enumerate(clusters):
        if cosine:
            rep, rep_features = None, raster.window_features(doc, cluster.rep_center)
        else:
            rep, rep_features = extract_pattern(doc, cluster.rep_center), None
        scores = _window_scores(doc, rep, rep_features, [c for _m, c in cluster.members])
        for (m, (cx, cy)), score in zip(cluster.members, scores):
            mid = doc.marker_ids[m]
            if m in seen:
                return Verdict(False, f"marker {mid} assigned twice")
            seen.add(m)
            if not doc.markers[m].contains(cx, cy):
                return Verdict(False, f"center ({cx}, {cy}) outside marker {mid}")
            if score is None:
                return Verdict(False, f"cluster {cid}: marker {mid} has no correspondence")
            if score < floor:
                failure = f"similarity {score:.6f} < " if cosine else f"edge offset {int(-score)} > "
                return Verdict(False, f"cluster {cid}: marker {mid} {failure}{doc.threshold}")
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
