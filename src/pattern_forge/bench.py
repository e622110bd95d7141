"""Benchmark harness: scenario matrix, component toggles, comparison tables.

Scenario files are plain text, one scenario per line:

    scenario name=cos_small templates=5 instances=10 jitter=0 constraint=cosine seed=7

Unknown keys are rejected up front so a typo cannot silently run a default.
Each scenario runs a baseline (pre-screen on, geometric aligner) plus
ablation variants; measured ratios are reported, never asserted.
"""

import io
import os
from dataclasses import dataclass, field

from .layout_io import ConstraintKind, LayoutDocument, generate_synthetic
from .pipeline import IterationConfig, run_full

PRESCREEN_OFF_MAX_N = 400  # all-pairs evaluation is quadratic; keep it small
STAGES = ("probe", "extract", "prescreen", "graph", "solve", "refine")  # keys of IterationStats.timings_ms


@dataclass(frozen=True)
class Scenario:
    name: str
    templates: int = 5
    instances: int = 10
    jitter: int = 0
    constraint: ConstraintKind = ConstraintKind.COSINE
    threshold: float | None = None
    radius: int = 512
    seed: int = 0

    @property
    def n(self) -> int:
        return self.templates * self.instances


@dataclass
class BenchRecord:
    scenario: str
    variant: str
    n: int
    constraint: str
    cluster_count: int
    compression: float
    iterations: int
    wall_ms: float
    stage_ms: dict = field(default_factory=dict)
    filter_rate: float = 0.0
    pairs_evaluated: int = 0
    solver_pops: int = 0
    solver_recomputations: int = 0
    mean_refine_delta: float = 0.0


class MatrixError(ValueError):
    pass


_PARSERS = {
    "name": str,
    "templates": int,
    "instances": int,
    "jitter": int,
    "constraint": lambda v: ConstraintKind(v.lower()),
    "threshold": float,
    "radius": int,
    "seed": int,
}


def parse_matrix(source) -> list[Scenario]:
    if isinstance(source, os.PathLike) or (isinstance(source, str) and "\n" not in source and os.path.exists(source)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    scenarios = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "scenario":
            raise MatrixError(f"line {lineno}: expected 'scenario', got {tokens[0]!r}")
        kwargs = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise MatrixError(f"line {lineno}: expected key=value, got {tok!r}")
            key, value = tok.split("=", 1)
            if key not in _PARSERS:
                raise MatrixError(f"line {lineno}: unknown key {key!r}")
            try:
                kwargs[key] = _PARSERS[key](value)
            except ValueError:
                raise MatrixError(f"line {lineno}: bad value for {key}: {value!r}") from None
        if "name" not in kwargs:
            raise MatrixError(f"line {lineno}: scenario needs a name")
        if any(kwargs["name"] == s.name for s in scenarios):
            raise MatrixError(f"line {lineno}: duplicate scenario name {kwargs['name']!r}")
        scenarios.append(Scenario(**kwargs))
    if not scenarios:
        raise MatrixError("no scenarios in matrix")
    return scenarios


def _record(sc: Scenario, variant: str, stats) -> BenchRecord:
    stage_ms: dict[str, float] = {}
    filter_total = filter_kept = 0
    pops = recomps = pairs = 0
    for ist in stats.iterations:
        for key, ms in ist.timings_ms.items():
            stage_ms[key] = stage_ms.get(key, 0.0) + ms
        if ist.prescreen is not None:
            filter_total += ist.prescreen.total_pairs
            filter_kept += ist.prescreen.after_topology
        if ist.solver is not None:
            pops += ist.solver.pops
            recomps += ist.solver.recomputations
        pairs += ist.pairs_evaluated
    return BenchRecord(
        scenario=sc.name,
        variant=variant,
        n=stats.marker_count,
        constraint=sc.constraint.value,
        cluster_count=stats.cluster_count,
        compression=stats.compression,
        iterations=stats.iterations_used,
        wall_ms=stats.wall_ms,
        stage_ms=stage_ms,
        filter_rate=1.0 - filter_kept / filter_total if filter_total else 0.0,
        pairs_evaluated=pairs,
        solver_pops=pops,
        solver_recomputations=recomps,
        mean_refine_delta=stats.refine_delta_sum / stats.refine_checks if stats.refine_checks else 0.0,
    )


def _variants(sc: Scenario) -> list[tuple[str, IterationConfig]]:
    out = [("base", IterationConfig())]
    if sc.constraint is ConstraintKind.COSINE:
        out.append(("fft", IterationConfig(aligner="fft")))
    if sc.n <= PRESCREEN_OFF_MAX_N:
        out.append(("noprescreen", IterationConfig(use_prescreen=False)))
    return out


def run_scenario(sc: Scenario, doc: LayoutDocument | None = None) -> list[BenchRecord]:
    if doc is None:
        doc = generate_synthetic(
            sc.templates, sc.instances, sc.jitter, sc.seed,
            radius=sc.radius, constraint=sc.constraint, threshold=sc.threshold,
        )
    records = []
    for variant, cfg in _variants(sc):
        _clusters, _report, stats = run_full(doc, cfg)
        records.append(_record(sc, variant, stats))
    return records


def run_matrix(scenarios) -> tuple[list[BenchRecord], str]:
    records = []
    for sc in scenarios:
        records.extend(run_scenario(sc))
    return records, render_table(records)


_COLUMNS = [
    ("scenario", lambda r: r.scenario),
    ("variant", lambda r: r.variant),
    ("n", lambda r: str(r.n)),
    ("mode", lambda r: r.constraint),
    ("clusters", lambda r: str(r.cluster_count)),
    ("compression", lambda r: f"{r.compression:.4f}"),
    ("iters", lambda r: str(r.iterations)),
    ("wall_ms", lambda r: f"{r.wall_ms:.1f}"),
    *((f"{stage}_ms", lambda r, stage=stage: f"{r.stage_ms.get(stage, 0.0):.1f}") for stage in STAGES),
    ("filter_rate", lambda r: f"{r.filter_rate:.4f}"),
    ("pairs", lambda r: str(r.pairs_evaluated)),
    ("pops", lambda r: str(r.solver_pops)),
    ("recomps", lambda r: str(r.solver_recomputations)),
    ("refine_delta", lambda r: f"{r.mean_refine_delta:.6f}"),
]


def records_csv(records) -> str:
    out = io.StringIO()
    out.write(",".join(name for name, _ in _COLUMNS) + "\n")
    for r in records:
        out.write(",".join(fn(r) for _, fn in _COLUMNS) + "\n")
    return out.getvalue()


def render_table(records) -> str:
    rows = [[name for name, _ in _COLUMNS]]
    rows += [[fn(r) for _, fn in _COLUMNS] for r in records]
    widths = [max(len(row[c]) for row in rows) for c in range(len(_COLUMNS))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
