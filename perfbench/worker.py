"""One benchmark process: set up a workload, signal READY, run timed passes, check answers.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Its
stdout carries exactly two lines: `READY` once the inputs are built, then
one JSON object with the pass times, the check counts and the peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--paper-workers", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject", choices=["solver", "solver-empty", "checker"])
    args = ap.parse_args(argv)

    import workloads

    wl = workloads.build(args.workload, args.seed, smoke=args.smoke, paper_workers=args.paper_workers)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.inject:
        workloads.inject(args.inject)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    one_pass = args.trace or wl.fresh_process_per_pass
    pass_s, answers = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        answers.append(wl.run_pass())
        pass_s.append(time.perf_counter() - t)
        # Another pass only if it should end within --seconds.
        if one_pass or time.perf_counter() - start + statistics.median(pass_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    attempted = failed = 0
    for ans in answers:
        a, f = wl.verify(ans)
        attempted += a
        failed += f
    result = {
        "fresh_process": wl.fresh_process_per_pass,
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "ops": wl.op_counts(),
    }
    if tracer is not None:
        from bicompat import suite

        layers = tracer.layer_metrics()
        info = suite.cached_solve.cache_info()
        layers["suite.cached_solve.hits"] = info.hits
        layers["suite.cached_solve.misses"] = info.misses
        result["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
