"""One repetition of the user's `cluster --verify` flow in a fresh interpreter.

    python3 perfbench/child.py --root <checkout> --layout <file> --report <file>
        [--setup-only] [--spans <file>]

Runs parse_layout -> run_full -> verify_clusterset -> write_report, reads the
report back and prints one JSON object with the timings, the checks and the
report digest. Without --spans each timed call also gets its time at the
host's reference speed (see speedref.py); with --spans the public functions
of every module are wrapped instead (see tracer.py) and the per-layer
figures are added to the object.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _import_program(root: str):
    """Import pattern_forge from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pattern_forge

    where = os.path.realpath(pattern_forge.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"pattern_forge imported from {where}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--layout", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    _import_program(args.root)
    from pattern_forge import layout_io, pipeline

    out = {}
    tracer = speed = None
    if args.spans:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    else:
        import speedref

        speed = speedref.SpeedReference()
        speed.start()

    def timed(name, fn, *fn_args):
        """fn(*fn_args), with its wall time as <name>_s; untraced, also its
        time at reference speed as <name>_ref_s and the slowdown."""
        if speed is None:
            t0 = time.perf_counter()
            result = fn(*fn_args)
            out[f"{name}_s"] = time.perf_counter() - t0
            return result
        result, wall, net, ref, slowdown = speed.measure(fn, *fn_args)
        out.update({f"{name}_s": wall, f"{name}_net_s": net, f"{name}_ref_s": ref,
                    f"{name}_slowdown": slowdown})
        return result

    doc = timed("parse", layout_io.parse_layout, args.layout)
    if args.setup_only:
        speed.stop()
        print(json.dumps(out))
        return 0

    cfg = pipeline.IterationConfig()
    clusters, report, stats = timed("run", pipeline.run_full, doc, cfg)
    verdict = timed("verify", pipeline.verify_clusterset, clusters, doc, cfg)
    if speed is not None:
        speed.stop()
        out["slices"] = len(speed.slices)
    data = layout_io.write_report(report, args.report, doc)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.report, "rb") as fh:
        on_disk = fh.read()
    out["verify_ok"] = bool(verdict)
    out["verify_message"] = verdict.message
    out["roundtrip_ok"] = on_disk == data and layout_io.read_report(on_disk) == report
    out["digest"] = hashlib.sha256(data).hexdigest()
    out["markers"] = len(doc.markers)
    out["clusters"] = report.cluster_count
    out["iterations"] = report.iterations_used

    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(stats)
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
