"""Clustering engine for rectilinear layout patterns.

Partitions the markers of a design layer into a minimal set of clusters whose
members agree under a cosine (DCT feature) or edge-displacement constraint,
using analytical alignment kernels and a surprisal-weighted greedy set cover.
"""

from .geometry import (
    Axis,
    GeometryError,
    Marker,
    MatchError,
    MultipleOverlapError,
    NoOverlapError,
    Pattern,
    Polygon,
    TopologyMismatchError,
    Translation,
    ZERO_SHIFT,
    clip_polygon,
    edge_displacements,
    extract_pattern,
    extract_patterns,
    match_polygons,
    rectangles,
)
from .raster import Bitmap, cosine_similarity, coverage_grid, dct_features, pattern_features, rasterize
from .align import (
    CorrelationSurface,
    DegenerateSpectrumError,
    NoCorrespondenceError,
    clamp_to_marker,
    correlation_surface,
    edge_fit_aligned,
    edge_minmax_align,
    phase_correlate,
    xy_minmax_align,
)
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
from .prescreen import CandidatePairSet, PrescreenStats, TopoSignature, build_candidates, signature
from .graph import SimilarityGraph, assemble, dump_edges, evaluate_pair_relaxed
from .scp import SolveResult, SolverStats, solve
from .pipeline import (
    Cluster,
    IterationConfig,
    RunStats,
    Verdict,
    refine_cluster,
    run_full,
    verify_clusterset,
)

__version__ = "0.1.0"
