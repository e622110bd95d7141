"""Check that two source checkouts cluster the same way.

    python3 scripts/same_outputs.py <root_a> <root_b> [--layout FILE ...]

Runs `pattern_forge.cli cluster --verify --dump-graph --report` from each
checkout's src/ on the benchmark workloads (the layouts of
perfbench/workloads.py at seeds 1-3), with and without --no-prescreen, in a
temporary directory. For each case it compares the report CSVs and the
graph dumps byte for byte, and the JSON run records without their timing
fields (wall_ms, stage_ms and each iteration's timings_ms). When the two
records carry different schema versions, only the fields both have are
compared, and the others are listed. It then runs `pattern_forge.cli bench
--matrix scripts/bench_matrix.txt` from each checkout and compares the two
records.csv files without their *_ms columns. Last, one child per
checkout writes `write_layout(generate_synthetic(...))` for every case of
a generator sweep and prints one digest per case: cosine layouts of 1-8
templates (3 instances each) x jitter 0, 4 and 8 x seeds 0-11, the
matrix's scenarios, and
`cli generate` with its defaults under each constraint. The two lists must
be equal. Then one child per checkout prints, for each cosine workload
layout, the sha256 of the bytes of every window's feature vector at every
marker center c and at c + (3, -2), read by `raster.window_features(doc,
c)` where the checkout has it and as `pattern_features(extract_pattern(doc,
c))` where it does not: a feature bit that moves shows even where no
report changes. Last, one child per checkout prints, for
every workload layout, the sha256 of every extracted window's table
(vertices, offsets, rects, owner and bboxes) at the same centers, read in
one batch where the checkout has `geometry.extract_patterns` and one
center at a time where it has only `extract_pattern`. --layout runs the
given layout files instead of the workloads, the matrix, the sweep and the
digests.
Prints one line per case (the sweep and the digests are one line each,
naming the layouts that differ) and exits 1 on any difference or failed
run, 0 otherwise.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
MATRIX = os.path.join(HERE, "bench_matrix.txt")
SEEDS = (1, 2, 3)
TIMINGS = ("wall_ms", "stage_ms", "timings_ms")

# The generator sweep's child: argv is the matrix file and a scratch
# directory; prints `<case>: <sha256 of the layout>` per line. It imports
# from the package root, which exports the generator and the layout writer
# in every checkout.
GENERATE = '''
import hashlib, os, sys
from pattern_forge import bench, cli, generate_synthetic, write_layout

def show(case, data):
    print(f"{case}: {hashlib.sha256(data).hexdigest()}")

for templates in range(1, 9):
    for jitter in (0, 4, 8):
        for seed in range(12):
            doc = generate_synthetic(templates, 3, jitter, seed)
            show(f"cosine templates={templates} jitter={jitter} seed={seed}", write_layout(doc))
for sc in bench.parse_matrix(sys.argv[1]):
    doc = generate_synthetic(sc.templates, sc.instances, sc.jitter, sc.seed, radius=sc.radius,
                             constraint=sc.constraint, threshold=sc.threshold)
    show(f"matrix {sc.name}", write_layout(doc))
for constraint in ("cosine", "edgemove"):
    path = os.path.join(sys.argv[2], constraint + ".txt")
    if cli.main(["generate", "--output", path, "--constraint", constraint]) != 0:
        sys.exit(1)
    with open(path, "rb") as fh:
        show(f"cli generate --constraint {constraint}", fh.read())
'''

# The feature-digest child: argv holds layout files; prints `<file>: <sha256>`
# per file over its windows' feature vectors (see the module docstring). It
# reads `extract_pattern` from its module, where every checkout has it.
FEATURES = '''
import hashlib, os, sys
from pattern_forge import parse_layout, raster
from pattern_forge.geometry import extract_pattern

def features(doc, c):
    if hasattr(raster, "window_features"):
        return raster.window_features(doc, c)
    return raster.pattern_features(extract_pattern(doc, c))

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        doc = parse_layout(fh.read())
    digest = hashlib.sha256()
    for marker in doc.markers:
        cx, cy = marker.center()
        for c in ((cx, cy), (cx + 3, cy - 2)):
            digest.update(features(doc, c).tobytes())
    print(f"{os.path.basename(path)}: {digest.hexdigest()}")
'''

# The window-table digest child: argv holds layout files; prints
# `<file>: <sha256>` per file over its windows' tables (see the module
# docstring). Each array adds its dtype and shape, then its bytes.
TABLES = '''
import hashlib, os, sys
from pattern_forge import geometry, parse_layout

def extract_all(doc, centers):
    if hasattr(geometry, "extract_patterns"):
        return geometry.extract_patterns(doc, centers)
    return [geometry.extract_pattern(doc, c) for c in centers]

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        doc = parse_layout(fh.read())
    centers = []
    for marker in doc.markers:
        cx, cy = marker.center()
        centers += [(cx, cy), (cx + 3, cy - 2)]
    digest = hashlib.sha256()
    for pattern in extract_all(doc, centers):
        for name in ("vertices", "offsets", "rects", "owner", "bboxes"):
            a = getattr(pattern.rings, name)
            digest.update(f"{a.dtype} {a.shape}".encode())
            digest.update(a.tobytes())
    print(f"{os.path.basename(path)}: {digest.hexdigest()}")
'''


def _workload_layouts(tmp: str) -> list[str]:
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    sys.path.insert(0, PERFBENCH)
    import workloads

    paths = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            path = os.path.join(tmp, f"{name}-s{seed}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workloads.generate(name, seed)[0])
            paths.append(path)
    return paths


def _cluster(root: str, layout: str, out: str, prescreen: bool) -> tuple[dict | None, str]:
    """Run the checkout's `cluster` on one layout; returns the files it wrote
    (None when it failed) and its stderr."""
    os.makedirs(out)
    files = {k: os.path.join(out, k) for k in ("report.csv", "graph.txt", "record.json")}
    cmd = [sys.executable, "-m", "pattern_forge.cli", "cluster", "--input", layout,
           "--output", files["report.csv"], "--dump-graph", files["graph.txt"],
           "--report", files["record.json"], "--verify"]
    if not prescreen:
        cmd.append("--no-prescreen")
    proc = _run(root, cmd)
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    data = {}
    for key, path in files.items():
        with open(path, "rb") as fh:
            data[key] = fh.read()
    return data, proc.stderr.strip()


def _bench(root: str, out: str) -> tuple[str | None, str]:
    """Run the checkout's `bench` on MATRIX; returns its records.csv (None
    when it failed) and its stderr."""
    proc = _run(root, [sys.executable, "-m", "pattern_forge.cli", "bench", "--matrix", MATRIX, "--out", out])
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    with open(os.path.join(out, "records.csv"), encoding="utf-8") as fh:
        return fh.read(), proc.stderr.strip()


def _digests(root: str, child: str, args: list[str]) -> tuple[list[str] | None, str]:
    """Run a digest child (GENERATE, FEATURES or TABLES) from the checkout with
    `args`; returns its digest lines (None when it failed) and its stderr."""
    proc = _run(root, [sys.executable, "-c", child, *args])
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    return proc.stdout.splitlines(), proc.stderr.strip()


def _compare_digests(a: list[str], b: list[str]) -> list[str]:
    """The differences between two children's digest lines, one per
    layout: the count when it differs, else the layouts whose digests
    differ."""
    if len(a) != len(b):
        return [f"{len(a)} vs {len(b)} layouts"]
    cases = [x.rpartition(": ")[0] for x, y in zip(a, b) if x != y]
    return [f"layouts differ: {', '.join(cases)}"] if cases else []


def _digest_case(roots: list[str], case: str, child: str, args: list[list[str]]) -> bool:
    """Run a digest child from each checkout, with args[side] for
    roots[side], and print the case's line; returns whether the two
    differ or a run failed."""
    runs = [_digests(root, child, a) for root, a in zip(roots, args)]
    diffs = [f"{root} failed: {err}" for root, (out, err) in zip(roots, runs) if out is None]
    if not diffs:
        diffs = _compare_digests(runs[0][0], runs[1][0])
    print(f"{case}: {'; '.join(diffs) if diffs else f'same ({len(runs[0][0])} layouts)'}")
    return bool(diffs)


def _is_cosine(layout: str) -> bool:
    """Whether the layout file's header names the cosine constraint."""
    with open(layout, encoding="utf-8") as fh:
        return "CONSTRAINT COSINE" in fh.readline()


def _run(root: str, cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _untimed_rows(records_csv: str) -> list[list[str]]:
    """The rows of a bench records.csv, header included, without the
    columns whose name ends in `_ms`."""
    rows = list(csv.reader(io.StringIO(records_csv)))
    keep = [k for k, name in enumerate(rows[0] if rows else []) if not name.endswith("_ms")]
    return [[row[k] for k in keep] for row in rows]


def _compare_records(a: str, b: str) -> list[str]:
    """The differences between two records.csv files without their timings:
    the (scenario, variant) of each row that differs, or the header."""
    ra, rb = _untimed_rows(a), _untimed_rows(b)
    if len(ra) != len(rb):
        return [f"records.csv has {len(ra)} vs {len(rb)} rows"]
    diffs = []
    for n, (x, y) in enumerate(zip(ra, rb)):
        if x != y:
            diffs.append("records.csv header differs" if n == 0 else f"records.csv differs in {' '.join(x[:2])}")
    return diffs


def _untimed(record: dict) -> dict:
    out = {k: v for k, v in record.items() if k not in TIMINGS}
    out["iterations"] = [{k: v for k, v in it.items() if k not in TIMINGS} for it in record["iterations"]]
    return out


def _shared(a, b, path: str, skipped: list[str]):
    """a and b with the dict keys only one of them has removed, recursively;
    each removed key's path (list items as `[]`) goes to `skipped`."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() ^ b.keys()):
            skipped.append(f"{path}.{k}")
        keys = a.keys() & b.keys()
        pairs = {k: _shared(a[k], b[k], f"{path}.{k}", skipped) for k in keys}
        return {k: p[0] for k, p in pairs.items()}, {k: p[1] for k, p in pairs.items()}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [_shared(x, y, f"{path}[]", skipped) for x, y in zip(a, b)]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    return a, b


def _compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """The differences between two cases' outputs, and the record fields
    left out because only one schema has them."""
    diffs = [f"{key} differs" for key in ("report.csv", "graph.txt") if a[key] != b[key]]
    ra, rb = (_untimed(json.loads(d["record.json"])) for d in (a, b))
    skipped: list[str] = []
    if ra.pop("schema", None) != rb.pop("schema", None):
        ra, rb = _shared(ra, rb, "record", skipped)
    if ra != rb:
        keys = sorted(k for k in ra.keys() | rb.keys() if ra.get(k) != rb.get(k))
        diffs.append(f"record.json differs in {', '.join(keys)}")
    return diffs, sorted(set(skipped))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root_a")
    ap.add_argument("root_b")
    ap.add_argument("--layout", action="append", help="layout file to run instead of the workloads")
    args = ap.parse_args(argv)
    roots = [os.path.abspath(r) for r in (args.root_a, args.root_b)]
    for root in roots:
        if not os.path.isfile(os.path.join(root, "src", "pattern_forge", "cli.py")):
            print(f"error: no pattern_forge sources under {root}/src", file=sys.stderr)
            return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        layouts = [os.path.abspath(p) for p in args.layout] if args.layout else _workload_layouts(tmp)
        for n, layout in enumerate(layouts):
            for prescreen in (True, False):
                case = f"{os.path.basename(layout)} {'prescreen' if prescreen else '--no-prescreen'}"
                runs = [_cluster(root, layout, os.path.join(tmp, f"{n}-{prescreen}-{side}"), prescreen)
                        for side, root in enumerate(roots)]
                diffs = [f"{root} failed: {err}" for root, (out, err) in zip(roots, runs) if out is None]
                skipped = []
                if not diffs:
                    diffs, skipped = _compare(runs[0][0], runs[1][0])
                print(f"{case}: {'; '.join(diffs) if diffs else 'same'}")
                if skipped:
                    print(f"  schemas differ; not compared: {', '.join(skipped)}")
                bad += bool(diffs)
        if not args.layout:
            runs = [_bench(root, os.path.join(tmp, f"bench-{side}")) for side, root in enumerate(roots)]
            diffs = [f"{root} failed: {err}" for root, (out, err) in zip(roots, runs) if out is None]
            if not diffs:
                diffs = _compare_records(runs[0][0], runs[1][0])
            print(f"bench {os.path.basename(MATRIX)}: {'; '.join(diffs) if diffs else 'same'}")
            bad += bool(diffs)
            outs = [os.path.join(tmp, f"generate-{side}") for side in range(2)]
            for out in outs:
                os.makedirs(out)
            bad += _digest_case(roots, "generator sweep", GENERATE, [[MATRIX, out] for out in outs])
            cosine = [p for p in layouts if _is_cosine(p)]
            bad += _digest_case(roots, "feature digests", FEATURES, [cosine, cosine])
            bad += _digest_case(roots, "window-table digests", TABLES, [layouts, layouts])
    print(f"{bad} case(s) differ" if bad else "no differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
