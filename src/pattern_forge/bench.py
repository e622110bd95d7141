"""Benchmark harness: scenario matrix, component toggles, comparison tables.

Scenario files are plain text, one scenario per line:

    scenario name=cos_small templates=5 instances=10 jitter=0 constraint=cosine seed=7

Unknown keys are rejected up front so a typo cannot silently run a default.
Each scenario runs a baseline (pre-screen on) plus, for scenarios of at most
PRESCREEN_OFF_MAX_N markers, an all-pairs variant with the pre-screen off;
measured ratios are reported, never asserted. A row is the scenario name and
the variant joined to the run's `RunStats.to_json` record, the same record
`cluster --report` writes; the table's columns are read from it.
"""

import io
from dataclasses import dataclass

from .layout_io import ConstraintKind, LayoutDocument, _read_text
from .pipeline import STAGES, IterationConfig, run_full
from .synthetic import generate_synthetic

PRESCREEN_OFF_MAX_N = 400  # all-pairs evaluation is quadratic; keep it small


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
    """Scenarios from a path, string, bytes, or file object, read as
    `layout_io.parse_layout` reads its source."""
    scenarios = []
    for lineno, raw in enumerate(_read_text(source).splitlines(), start=1):
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


def _variants(sc: Scenario) -> list[tuple[str, IterationConfig]]:
    out = [("base", IterationConfig())]
    if sc.n <= PRESCREEN_OFF_MAX_N:
        out.append(("noprescreen", IterationConfig(use_prescreen=False)))
    return out


def run_scenario(sc: Scenario, doc: LayoutDocument | None = None) -> list[dict]:
    if doc is None:
        doc = generate_synthetic(
            sc.templates, sc.instances, sc.jitter, sc.seed,
            radius=sc.radius, constraint=sc.constraint, threshold=sc.threshold,
        )
    rows = []
    for variant, cfg in _variants(sc):
        _clusters, _report, stats = run_full(doc, cfg)
        rows.append({"scenario": sc.name, "variant": variant, **stats.to_json()})
    return rows


def run_matrix(scenarios) -> tuple[list[dict], str]:
    records = []
    for sc in scenarios:
        records.extend(run_scenario(sc))
    return records, render_table(records)


def _filter_rate(funnel: dict) -> float:
    return 1.0 - funnel["candidates"] / funnel["pairs"] if funnel["pairs"] else 0.0


def _mean_refine_delta(r: dict) -> float:
    accepted = r["probe_joined"] + r["funnel"]["accepted_members"]
    return r["refine_delta_sum"] / accepted if accepted else 0.0


_COLUMNS = [
    ("scenario", lambda r: r["scenario"]),
    ("variant", lambda r: r["variant"]),
    ("n", lambda r: str(r["marker_count"])),
    ("mode", lambda r: r["constraint"]),
    ("clusters", lambda r: str(r["cluster_count"])),
    ("compression", lambda r: f"{r['compression']:.4f}"),
    ("iters", lambda r: str(r["iterations_used"])),
    ("wall_ms", lambda r: f"{r['wall_ms']:.1f}"),
    *((f"{stage}_ms", lambda r, stage=stage: f"{r['stage_ms'][stage]:.1f}") for stage in STAGES),
    ("filter_rate", lambda r: f"{_filter_rate(r['funnel']):.4f}"),
    ("pairs", lambda r: str(r["funnel"]["candidates"])),
    ("pops", lambda r: str(r["solver"]["pops"])),
    ("recomps", lambda r: str(r["solver"]["recomputations"])),
    ("refine_delta", lambda r: f"{_mean_refine_delta(r):.6f}"),
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
