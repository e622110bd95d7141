"""Wall time and memory of `run_full` against marker count, parent against change.

    python3 scripts/scale_curve.py PARENT CHANGE [--out FILE]

PARENT and CHANGE are the roots of two source checkouts. Each cell clusters
`generate_synthetic(5, N // 5, 6, 7)` (5 templates, jitter 6, seed 7) in one
constraint mode with `run_full`, from one checkout's src/, in a fresh child
process with OPENBLAS_NUM_THREADS=1. A cell records the run's per-stage
times (summed over iterations, as the run record's stage_ms), its
first-iteration edge count, the child's peak RSS after the run (the layout
generation included) and the SHA-256 of the report CSV. Cells run one at a
time, at N = 400, 1,600 and 3,200 in both modes, 5 repeats. For each
repeat, size and mode, each checkout runs once; the order of the two
alternates from one repeat to the next, so drift in the host's speed falls
on each side alike.

The JSON written to FILE (default stdout) holds every cell, plus a summary
per size and mode: per checkout the median graph + solve time and the
median of each of the two stages, the median peak RSS and the set of
report digests, and the number of repeats whose graph + solve time at the
change beat the parent's in the same repeat.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

MODES = ("edgemove", "cosine")
SIZES = (400, 1600, 3200)
REPEATS = 5
CHECKOUTS = ("parent", "change")


def _cell(mode: str, n: int) -> dict:
    """One cell, run in this process: the figures the parent reads."""
    from pattern_forge import ConstraintKind, generate_synthetic, run_full, write_report

    doc = generate_synthetic(5, n // 5, 6, 7, constraint=ConstraintKind(mode))
    _clusters, report, stats = run_full(doc)
    record = stats.to_json()
    return {
        "stage_ms": record["stage_ms"],
        "wall_ms": record["wall_ms"],
        "edges": record["iterations"][0]["edges"],
        "clusters": record["cluster_count"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": hashlib.sha256(write_report(report, None, doc)).hexdigest(),
    }


def _run_cell(root: str, mode: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--cell", mode, str(n)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {mode} N={n} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _graph_solve(cell: dict) -> float:
    return cell["stage_ms"]["graph"] + cell["stage_ms"]["solve"]


def _summary(cells: list) -> dict:
    out = {}
    for n in SIZES:
        for mode in MODES:
            by = {name: sorted((c for c in cells if (c["N"], c["mode"], c["checkout"]) == (n, mode, name)),
                               key=lambda c: c["repeat"])
                  for name in CHECKOUTS}
            row = {
                name: {
                    "graph_solve_ms_median": statistics.median(_graph_solve(c) for c in by[name]),
                    "graph_ms_median": statistics.median(c["stage_ms"]["graph"] for c in by[name]),
                    "solve_ms_median": statistics.median(c["stage_ms"]["solve"] for c in by[name]),
                    "peak_rss_mb_median": statistics.median(c["peak_rss_mb"] for c in by[name]),
                    "edges": sorted({c["edges"] for c in by[name]}),
                    "report_sha256": sorted({c["report_sha256"] for c in by[name]}),
                }
                for name in CHECKOUTS
            }
            row["graph_solve_change_faster"] = sum(
                _graph_solve(c) < _graph_solve(p) for p, c in zip(by["parent"], by["change"])
            )
            row["repeats"] = REPEATS
            out[f"{mode} N={n}"] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--out")
    ap.add_argument("--cell", nargs=2, metavar=("MODE", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.cell:
        print(json.dumps(_cell(args.cell[0], int(args.cell[1]))))
        return 0
    roots = {"parent": args.parent, "change": args.change}
    for name, root in roots.items():
        if root is None or not os.path.isfile(os.path.join(root, "src", "pattern_forge", "pipeline.py")):
            ap.error(f"{name}: no pattern_forge sources under {root}/src")
    cells = []
    for repeat in range(REPEATS):
        order = CHECKOUTS if repeat % 2 == 0 else CHECKOUTS[::-1]
        for n in SIZES:
            for mode in MODES:
                for name in order:
                    cell = {"checkout": name, "N": n, "mode": mode, "repeat": repeat,
                            **_run_cell(os.path.abspath(roots[name]), mode, n)}
                    cells.append(cell)
                    print(f"repeat {repeat} {mode} N={n} {name}: graph+solve {_graph_solve(cell):.0f} ms, "
                          f"peak RSS {cell['peak_rss_mb']:.0f} MB", file=sys.stderr)
    result = {
        "description": __doc__.split("\n\n", 2)[2].strip(),
        "command": "python3 scripts/scale_curve.py <parent> <change>",
        "machine": {"vcpus": os.cpu_count(), "python": platform.python_version()},
        "summary": _summary(cells),
        "cells": cells,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
