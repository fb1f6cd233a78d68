"""Benchmark entry point: one workload, one closed-loop client, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload deep-prob --seed 1 --seconds 30 --trace 0

Each run starts its workload in fresh child processes, one at a time.
With ``--trace 0`` two to six set-up-only children (as many as fit in two
seconds) and then one measuring child run; ``setup_s`` is the median over
all their set-ups and the other end-to-end metrics come from the
measuring child.  With ``--trace 1`` one child measures half the time
untraced and half traced, and the per-layer metrics come from the traced
half.  Times are scaled to a reference host by ``calib.py``; the measured
values are printed on standard error.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the report on
standard error names every failed op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_spec  # noqa: E402

WORKLOADS = ("deep-prob", "warm-query", "zero-limit", "cli-mix")
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "success_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# set-up-only children before the measuring one: at least the first
# number, more while they take less than the budget, at most the second
SETUP_PROBES = (2, 6)
SETUP_PROBE_BUDGET_S = 2.0
DEADLINE_S = 170.0


def child(root: Path, args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next child")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(res: dict, workload: str) -> None:
    err = sys.stderr
    print(f"[{workload}] {res['ops']} timed ops, {res['failed']} failed, "
          f"{len(res['dropped'])} dropped at set-up", file=err)
    for label, n in res["failures"].items():
        print(f"  FAILED x{n}: {label}", file=err)
    for label, n in res["known"].items():
        print(f"  KNOWN DEFECT x{n}: {label}", file=err)
    for label in res["dropped"]:
        print(f"  DROPPED: {label}", file=err)
    if res["warmup_failure"]:
        print(f"  WARM-UP FAILED: {res['warmup_failure']}", file=err)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dmbl" / "__init__.py").is_file():
        print("run from a checkout of the repository: src/dmbl is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            res = child(root, args, "trace", deadline)
            metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                       for m in per_layer_spec()}
        else:
            probes = []
            t0 = time.monotonic()
            while len(probes) < SETUP_PROBES[0] or (
                    len(probes) < SETUP_PROBES[1]
                    and time.monotonic() - t0 < SETUP_PROBE_BUDGET_S):
                probes.append(child(root, args, "setup", deadline))
            res = child(root, args, "measure", deadline)
            probes.append(res)
            res["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            print(f"[{args.workload}] setup_s runs (scaled/measured): "
                  + ", ".join(f"{p['setup_s']:.4f}/{p['setup_raw_s']:.4f}" for p in probes)
                  + "; measured " + ", ".join(f"{k} {v:.4f}" for k, v in res["raw"].items()),
                  file=sys.stderr)
            metrics = {k: {"value": res["metrics"][k], "unit": u}
                       for k, u in END_TO_END.items()}
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    report(res, args.workload)
    attempted = res["ops"] + len(res["dropped"])
    failed = res["failed"] + len(res["dropped"])
    # known defects (the malformed cli inputs) lower success_ratio and count
    # as failed ops; any other failure makes the run incorrect
    correct = not (res["failures"] or res["dropped"] or res["warmup_failure"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
