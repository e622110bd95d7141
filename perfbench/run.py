"""pattern-forge clustering benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script generates the workload's
layout from the seed, then runs the user's `cluster --verify` flow
(parse_layout -> run_full -> verify_clusterset -> write_report) in a fresh
interpreter per repetition, one child process at a time, until --seconds
have been spent. Every repetition must verify, round-trip its report and
produce the workload's one report digest, or it counts as failed. Times are
scaled to the host's reference speed, measured inside each timed call (see
speedref.py), because this host's speed drifts by up to 1.5x.

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced
repetition and reports the per-layer metrics instead. Human-readable lines
go to stdout first; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Raw samples, the machine and
the input facts are written to .perfbench_out/<workload>-s<seed>/result.json.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 170.0  # the whole run must end well inside 180 s
MIN_SETUP_SAMPLES = 5  # parse_layout timings per run (fresh interpreter each)

# name -> unit. Each is the median over the run's repetitions. Times are
# taken at the host's reference speed (speedref.py); the unscaled medians
# are printed beside them and every sample is kept in result.json.
END_TO_END = {
    "markers_per_s": "markers/s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "clusters": "count",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts one child at a time and keeps every attempt's outcome."""

    def __init__(self, layout: str, out_dir: str, deadline: float):
        self.layout = layout
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = _child_env()
        self.attempts: list[dict] = []

    def child(self, kind: str, extra=()) -> dict | None:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
               "--layout", self.layout, "--report", os.path.join(self.out_dir, "report.csv"),
               *extra]
        t0 = time.perf_counter()
        rec = {"kind": kind, "ok": False}
        self.attempts.append(rec)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            rec["error"] = "timed out"
            return None
        rec["wall_s"] = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"exit {proc.returncode}")
            rec.update(json.loads(lines[-1]))
        except ValueError as exc:
            rec["error"] = f"{exc}: {proc.stderr.strip()[-2000:]}"
            return None
        if kind == "setup":
            rec["ok"] = True
        elif not rec["verify_ok"]:
            rec["error"] = f"verify_clusterset failed: {rec['verify_message']}"
        elif not rec["roundtrip_ok"]:
            rec["error"] = "write_report -> read_report round trip differs"
        else:
            rec["ok"] = True
        return rec


def _machine() -> dict:
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "pattern_forge", "__init__.py")):
        print(f"error: no pattern_forge sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-s{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    text, facts = workloads.generate(args.workload, args.seed)
    data = text.encode("utf-8")
    layout = os.path.join(out_dir, "layout.txt")
    with open(layout, "wb") as fh:
        fh.write(data)
    facts.update(input_bytes=len(data), sha256=hashlib.sha256(data).hexdigest())

    runner = Runner(layout, out_dir, start + HARD_LIMIT_S)
    # full repetitions until --seconds are spent; never start one that is
    # expected to end past the window (the first always runs)
    while True:
        rec = runner.child("run")
        if rec is None or not rec["ok"]:
            break  # a broken program fails the same way again
        now = time.perf_counter()
        if now - start + rec["wall_s"] > args.seconds or now + rec["wall_s"] > runner.deadline:
            break
    while sum(1 for a in runner.attempts if "parse_ref_s" in a) < MIN_SETUP_SAMPLES:
        if runner.child("setup", ["--setup-only"]) is None:
            break
    traced = None
    if args.trace:
        traced = runner.child("trace", ["--spans", os.path.join(out_dir, "spans.json")])

    # one report digest per workload: any other digest is a failure
    full = [a for a in runner.attempts if a["kind"] != "setup" and a["ok"]]
    digests = collections.Counter(a["digest"] for a in full)
    digest = digests.most_common(1)[0][0] if digests else None
    for a in full:
        if a["digest"] != digest:
            a["ok"] = False
            a["error"] = f"report digest {a['digest']} differs from {digest}"
    attempted = len(runner.attempts)
    failed = sum(1 for a in runner.attempts if not a["ok"])
    good = [a for a in runner.attempts if a["kind"] == "run" and a["ok"]]

    setups = [a for a in runner.attempts if a["ok"] and "parse_ref_s" in a]
    samples = {
        "markers_per_s": [a["markers"] / a["run_ref_s"] for a in good],
        "verify_s": [a["verify_ref_s"] for a in good],
        "setup_s": [a["parse_ref_s"] for a in setups],
        "peak_rss_mb": [a["peak_rss_mb"] for a in good],
        "clusters": [a["clusters"] for a in good],
    }
    # the same times unscaled: wall clock minus the reference slices
    unscaled = {
        "markers_per_s": [a["markers"] / a["run_net_s"] for a in good],
        "verify_s": [a["verify_net_s"] for a in good],
        "setup_s": [a["parse_net_s"] for a in setups],
    }
    e2e = {name: (statistics.median(vals) if vals else None) for name, vals in samples.items()}

    w = workloads.WORKLOADS[args.workload]
    print(f"workload {w.name} seed {args.seed}: {w.constraint} T={w.threshold}, "
          f"{w.templates} templates x {w.instances} instances")
    print(f"input N={facts['N']} P={facts['P']} bytes={facts['input_bytes']} sha256={facts['sha256']}")
    print(f"report digest {digest} ({len(digests)} distinct over {len(full)} runs)")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} child runs)")
    for a in runner.attempts:
        if not a["ok"]:
            print(f"  failed {a['kind']} run: {a.get('error')}")
    slowdowns = [a["run_slowdown"] for a in good]
    if slowdowns:
        print(f"host slowdown against the reference speed: median {statistics.median(slowdowns):.3f}, "
              f"range {min(slowdowns):.3f}..{max(slowdowns):.3f}")
    for name, unit in END_TO_END.items():
        vals = samples[name]
        how = f"median of {len(vals)}"
        if unscaled.get(name):
            how += f"; unscaled median {statistics.median(unscaled[name])}"
        print(f"{name} {e2e[name]} {unit} ({how})")

    result = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "facts": facts,
              "machine": _machine(), "digest": digest, "attempts": runner.attempts,
              "end_to_end": e2e}
    if args.trace:
        mps = unscaled["markers_per_s"]  # the traced run is not scaled either
        layers = _layer_metrics(traced, statistics.median(mps) if mps else None, facts)
        for name, unit in tracer.PER_LAYER.items():
            shown = "absent" if layers.get(name) is None else layers[name]
            print(f"  {name} {shown} {unit}")
        metrics = {name: {"value": layers.get(name), "unit": unit}
                   for name, unit in tracer.PER_LAYER.items()}
        result["per_layer"] = layers
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if good else 1


def _layer_metrics(traced, untraced_mps, facts) -> dict:
    layers = dict(traced["layers"]) if traced and traced["ok"] else {}
    layers["layout_io.input_bytes"] = facts["input_bytes"]
    if traced and traced["ok"]:
        mps = traced["markers"] / traced["run_s"]
        layers["trace.markers_per_s"] = mps
        layers["trace.overhead_ratio"] = untraced_mps / mps if untraced_mps else None
    return layers


if __name__ == "__main__":
    sys.exit(main())
