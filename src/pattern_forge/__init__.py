"""Clustering engine for rectilinear layout patterns.

Partitions the markers of a design layer into a minimal set of clusters whose
members agree under a cosine (DCT feature) or edge-displacement constraint,
using analytical alignment kernels and a surprisal-weighted greedy set cover.

The package exports the pipeline: layout and report I/O, the synthetic
generator, `run_full` and its verifier. Every kernel is read from its module.
"""

from .layout_io import (
    ClusterReport,
    ConstraintKind,
    LayoutDocument,
    LayoutParseError,
    parse_layout,
    read_report,
    write_layout,
    write_report,
)
from .synthetic import generate_synthetic
from .pipeline import Cluster, IterationConfig, RunStats, Verdict, run_full, verify_clusterset

__version__ = "0.1.0"
