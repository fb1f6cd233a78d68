"""One workload in one fresh process: set up, then a closed loop of ops.

Usage (normally started by ``run.py``, from the repository root):

    python3 -I perfbench/child.py --workload NAME --seed N --seconds S --mode MODE

``--mode setup`` stops after set-up and reports ``setup_s``; ``measure``
runs ops for ``S`` seconds; ``trace`` runs ``S/2`` seconds untraced, then
``S/2`` seconds with spans recorded.  Each op is timed alone; the
``gc.collect()`` before it and the reference check after it are not.
Every quarter second, and around each part of set-up, the loop times the
reference task of ``calib.py``; each time is reported both as measured
and scaled to the reference host.  The result is one JSON object on the
last line of standard output; a readable report goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calib  # noqa: E402

CALIBRATE_EVERY_S = 0.25


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


class Loop:
    """Runs ops until a deadline; keeps latencies and failures.

    ``lat`` holds each op's measured time and ``scaled`` the same time
    scaled to the reference host by the calibration samples taken before
    and after the slice of ops it belongs to.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.lat: list[float] = []
        self.scaled: list[float] = []
        self.failures: dict[str, int] = {}
        self.known: dict[str, int] = {}

    def _calibrate(self, before_ms: float) -> float:
        after_ms = calib.sample()
        f = calib.scale(before_ms, after_ms)
        self.scaled += [t * f for t in self.lat[len(self.scaled):]]
        return after_ms

    def run(self, seconds: float) -> None:
        wl = self.wl
        cal_ms = calib.sample()
        next_cal = perf_counter() + CALIBRATE_EVERY_S
        end = perf_counter() + seconds
        while perf_counter() < end or (wl.finish_deck and wl.deck_open()):
            op = wl.next_op()
            gc.collect()
            if self.tracer is not None:
                self.tracer.op = len(self.lat)
            t0 = perf_counter()
            try:
                result = wl.run(op)
            except Exception as exc:  # counted as a failed op
                result = exc
            self.lat.append(perf_counter() - t0)
            why = (f"raised {type(result).__name__}: {result}"
                   if isinstance(result, Exception) else wl.check(op, result))
            if why is not None:
                book = self.known if op.known_defect else self.failures
                key = f"{op.label}: {why}"[:200]
                book[key] = book.get(key, 0) + 1
            if perf_counter() >= next_cal:
                cal_ms = self._calibrate(cal_ms)
                next_cal = perf_counter() + CALIBRATE_EVERY_S
        self._calibrate(cal_ms)

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.known.values())

    def ops_per_s(self, times=None) -> float:
        times = self.scaled if times is None else times
        return len(times) / sum(times)

    def latency_metrics(self, times=None) -> dict[str, float]:
        times = sorted(self.scaled if times is None else times)
        return {"ops_per_s": self.ops_per_s(times),
                "op_p50_ms": statistics.median(times) * 1e3,
                "op_p90_ms": percentile(times, 0.9) * 1e3}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    # set-up in three parts, each scaled by the calibration around it
    cal = [calib.sample()]
    parts = []
    t0 = perf_counter()
    import dmbl  # set-up time starts just before this import
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    parts.append(perf_counter() - t0)
    cal.append(calib.sample())
    t0 = perf_counter()
    wl.prepare()
    parts.append(perf_counter() - t0)
    cal.append(calib.sample())
    t0 = perf_counter()
    warm = wl.next_op()
    warm_why = wl.check(warm, wl.run(warm))
    if warm.known_defect:
        warm_why = None     # its failure shows in the timed loop
    wl.discard_deck()
    parts.append(perf_counter() - t0)
    cal.append(calib.sample())
    setup_s = sum(t * calib.scale(a, b) for t, a, b in zip(parts, cal, cal[1:]))
    if not Path(dmbl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dmbl imported from {dmbl.__file__}, not this checkout", file=sys.stderr)
        return 2

    out = {"setup_s": setup_s, "setup_raw_s": sum(parts), "warmup_failure": warm_why,
           "dropped": wl.dropped}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    loop = Loop(wl)
    if args.mode == "measure":
        loop.run(args.seconds)
        n = len(loop.lat)
        out["metrics"] = {
            **loop.latency_metrics(),
            "success_ratio": (n - loop.failed) / (n + len(wl.dropped)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out["raw"] = loop.latency_metrics(loop.lat)
    else:
        from tracer import Tracer

        loop.run(args.seconds / 2)
        tracer = Tracer()
        traced = Loop(wl, tracer)
        tracer.install()
        try:
            traced.run(args.seconds / 2)
        finally:
            tracer.uninstall()
        # span times are measured; scale the per-op times like the op times
        f = sum(traced.scaled) / sum(traced.lat)
        out["metrics"] = {k: v * f if k.endswith("_ms") else v
                          for k, v in tracer.metrics(traced.lat).items()}
        out["metrics"]["trace.overhead_ratio"] = traced.ops_per_s() / loop.ops_per_s()
        dump_dir = ROOT / ".perfbench_out"
        dump_dir.mkdir(exist_ok=True)
        tracer.dump(dump_dir / f"spans-{args.workload}.tsv")
        for k, v in traced.failures.items():
            loop.failures[k] = loop.failures.get(k, 0) + v
        for k, v in traced.known.items():
            loop.known[k] = loop.known.get(k, 0) + v
        loop.lat += traced.lat
        loop.scaled += traced.scaled

    out.update(ops=len(loop.lat), failures=loop.failures, known=loop.known,
               failed=loop.failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
