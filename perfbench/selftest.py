"""Self-test of the benchmark: reduced-size runs, with and without injected faults.

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints every metric named in
    BENCHMARK.json and reports no failed op on reduced inputs;
  * a solver whose first answer is perturbed, a solver that answers the
    zero space every time, and a checker whose first verdict is flipped,
    each make the run report failed ops.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, inject=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run(workload, trace)
            missing = {m["name"] for m in SPEC[group]} - set(res["metrics"])
            clean = res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            ok = clean and not missing
            print(f"{'ok  ' if ok else 'FAIL'} {workload:8} trace={trace}  "
                  f"failed {res['failed']}/{res['attempted']}, {len(res['metrics'])} metrics")
            if missing:
                print(f"     missing metrics: {sorted(missing)}")
            failures += not ok
    for workload, fault in (("rebased", "solver"), ("rebased", "solver-empty"), ("check", "checker")):
        res = run(workload, 0, fault)
        ok = res["failed"] > 0 and not res["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} {workload:8} faulty {fault}  failed {res['failed']}/{res['attempted']}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
