"""Command line entry points: cluster, generate, bench."""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import graph as graph_mod
from .layout_io import ConstraintKind, parse_layout, write_layout, write_report
from .pipeline import IterationConfig, run_full, verify_clusterset
from .synthetic import generate_synthetic


def _add_cluster_parser(sub):
    p = sub.add_parser("cluster", help="partition a layout's markers into pattern clusters")
    p.add_argument("--input", required=True, help="layout file")
    p.add_argument("--output", required=True, help="cluster report CSV (use - for stdout)")
    p.add_argument("--constraint", choices=["cosine", "edgemove"], help="override the file header")
    p.add_argument("--threshold", type=float, help="override the file header")
    p.add_argument("--radius", type=int, help="override the file header")
    p.add_argument("--max-iters", type=int, default=3)
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--dump-graph", help="write first-iteration 'i j' edges here")
    p.add_argument("--no-prescreen", action="store_true", help="evaluate all pairs (slow)")
    p.add_argument("--verify", action="store_true", help="re-check every assignment before writing")


def _add_generate_parser(sub):
    p = sub.add_parser("generate", help="write a synthetic benchmark layout")
    p.add_argument("--output", required=True)
    p.add_argument("--templates", type=int, default=5)
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--jitter", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=512)
    p.add_argument("--constraint", choices=["cosine", "edgemove"], default="cosine")
    p.add_argument("--threshold", type=float, help="default: 0.9 cosine, 10 edgemove")


def _add_bench_parser(sub):
    p = sub.add_parser("bench", help="run a scenario matrix with ablation variants")
    p.add_argument("--matrix", required=True, help="scenario config file")
    p.add_argument("--out", required=True, help="output directory for records.csv and table.txt")


def _apply_overrides(doc, args):
    """The document with the header values given on the command line: `doc`
    itself when none differs, else a new document that shares its vertex
    table, so no polygon is checked or decomposed again."""
    given = {
        "pattern_radius": args.radius,
        "constraint_kind": None if args.constraint is None else ConstraintKind(args.constraint),
        "threshold": args.threshold,
    }
    changes = {k: v for k, v in given.items() if v is not None and v != getattr(doc, k)}
    return dataclasses.replace(doc, **changes) if changes else doc


def _cmd_cluster(args) -> int:
    doc = parse_layout(Path(args.input))  # a Path is always read as a file
    doc = _apply_overrides(doc, args)
    cfg = IterationConfig(max_iterations=args.max_iters, use_prescreen=not args.no_prescreen)
    graphs = {}  # iteration -> relaxed pair graph, kept for --dump-graph
    clusters, report, stats = run_full(doc, cfg, on_graph=graphs.setdefault if args.dump_graph else None)
    if args.dump_graph:
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            fh.write(graph_mod.dump_edges(graphs[0]) if graphs else "")
    if args.verify:
        verdict = verify_clusterset(clusters, doc)
        if not verdict:
            print(f"verification failed: {verdict.message}", file=sys.stderr)
            return 1
    data = write_report(report, None if args.output == "-" else args.output, doc)
    if args.output == "-":
        sys.stdout.write(data.decode("utf-8"))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(stats.to_json(), fh, indent=2)
            fh.write("\n")
    print(
        f"markers={stats.marker_count} clusters={stats.cluster_count} "
        f"iterations={stats.iterations_used} compression={stats.compression:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args) -> int:
    doc = generate_synthetic(
        args.templates, args.instances, args.jitter, args.seed,
        radius=args.radius,
        constraint=ConstraintKind(args.constraint),
        threshold=args.threshold,
    )
    write_layout(doc, args.output)
    print(
        f"wrote {args.output}: {len(doc.markers)} markers, {len(doc.polygon_ids)} polygons",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args) -> int:
    scenarios = bench_mod.parse_matrix(Path(args.matrix))
    os.makedirs(args.out, exist_ok=True)
    records, table = bench_mod.run_matrix(scenarios)
    with open(os.path.join(args.out, "records.csv"), "w", encoding="utf-8") as fh:
        fh.write(bench_mod.records_csv(records))
    with open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pattern-forge",
        description="cluster layout pattern markers under a cosine or edge-displacement constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_cluster_parser(sub)
    _add_generate_parser(sub)
    _add_bench_parser(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_bench(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
