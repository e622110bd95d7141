"""Check that two source checkouts cluster the same way.

    python3 scripts/same_outputs.py <root_a> <root_b> [--layout FILE ...]

Runs `pattern_forge.cli cluster --verify --dump-graph --report` from each
checkout's src/ on the benchmark workloads (the layouts of
perfbench/workloads.py at seeds 1-3), with and without --no-prescreen, in a
temporary directory. --layout runs the given layout files instead. For each
case it compares the report CSVs and the graph dumps byte for byte, and the
JSON run records without their timing fields (wall_ms, stage_ms and each
iteration's timings_ms). When the two records carry different schema
versions, only the fields both have are compared, and the others are
listed. Prints one line per case and exits 1 on any difference or failed
run, 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEEDS = (1, 2, 3)
TIMINGS = ("wall_ms", "stage_ms", "timings_ms")


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
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    data = {}
    for key, path in files.items():
        with open(path, "rb") as fh:
            data[key] = fh.read()
    return data, proc.stderr.strip()


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
    print(f"{bad} case(s) differ" if bad else "no differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
