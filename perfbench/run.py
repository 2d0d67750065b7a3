"""bicompat benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload {paper,rebased,check} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from src/.
Every pass runs in worker processes (worker.py) so that each starts cold.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  The line before it is a provenance record,
which is also appended to .perfbench/results.jsonl with the spans of a
traced run beside it.  --smoke (reduced inputs) and --inject (a deliberate
fault) are for selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
# Set-up is measured at least SETUP_MIN times per run, and more while the
# probes have taken less than SETUP_BUDGET_S, up to SETUP_MAX; the median is
# reported.  Cheap set-ups get many samples, dear ones few.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 4.0
HANG_S = 600.0  # a worker still running after this long is taken as hung
WORKLOADS = ("paper", "rebased", "check")


class BenchError(RuntimeError):
    pass


def _worker(args, extra):
    """Run worker.py; returns (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += extra
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    env = dict(os.environ)
    # One BLAS thread, so that a pass uses one CPU: on a 2-CPU host a second
    # BLAS thread competes with everything else on the machine, and pass times
    # then follow that load as much as the work.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    deadline = start + HANG_S
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    ready = None
    data = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(timeout=left):
                    raise BenchError(f"worker still running after {HANG_S:.0f} s")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                data += chunk
                if ready is None and b"READY\n" in data:
                    ready = time.perf_counter() - start
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker exited with code {code}")
    lines = data.decode().splitlines()
    return ready, (json.loads(lines[-1]) if lines[-1] != "READY" else None)


def measure(args):
    """Untraced passes for --seconds, plus set-up probes; returns the raw figures.

    A traced run reports no set-up time, so it makes no probes.
    """
    setups, passes, peaks = [], [], []
    attempted = failed = 0
    ops = {}
    start = time.perf_counter()
    while True:
        setup, res = _worker(args, ["--seconds", str(args.seconds)])
        setups.append(setup)
        passes += res["pass_s"]
        peaks.append(res["peak_rss_mb"])
        attempted += res["attempted"]
        failed += res["failed"]
        ops = res["ops"]
        # A workload that needs a cold process per pass repeats whole workers,
        # each only if its pass should end within --seconds.
        if not res["fresh_process"] or time.perf_counter() - start + statistics.median(passes) > args.seconds:
            break
    probed = 0.0
    while not args.trace and len(setups) < SETUP_MAX:
        if len(setups) >= SETUP_MIN and probed >= SETUP_BUDGET_S:
            break
        setups.append(_worker(args, ["--setup-only"])[0])
        probed += setups[-1]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": max(peaks),
        "passes": len(passes),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
    }


def traced(args, base):
    """One traced pass (spans written under .perfbench/), and for paper one --workers 2 pass."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, res = _worker(args, ["--trace", "1", "--spans", str(spans)])
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = res["pass_s"][0] - base["wall_s"]
    attempted, failed = res["attempted"], res["failed"]
    if args.workload == "paper":
        _, w2 = _worker(args, ["--paper-workers", "2"])
        layers["cli.paper_w2_s"] = w2["pass_s"][0]
        attempted += w2["attempted"]
        failed += w2["failed"]
    return layers, attempted, failed


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, figures):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "passes": figures["passes"],
        "setup_samples": figures["setup_samples"],
        "op_counts": figures["ops"],
        "attempted": figures["attempted"],
        "failed": figures["failed"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for the self-test")
    ap.add_argument("--inject", choices=["solver", "solver-empty", "checker"], help="deliberate fault, for the self-test")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bicompat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no bicompat source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        figures = measure(args)
        attempted, failed = figures["attempted"], figures["failed"]
        if args.trace:
            values, t_att, t_failed = traced(args, figures)
            attempted += t_att
            failed += t_failed
            wanted = spec["per_layer"]
        else:
            values = figures
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = provenance(args, figures)
    record["attempted"], record["failed"] = attempted, failed
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"provenance": record, "result": result}) + "\n")
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
