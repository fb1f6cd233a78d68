"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, on every workload, that an op with a deliberately wrong expected
answer and an op with a changed expected ladder are each counted as
failed by the same loop the benchmark times, while the untouched op
passes.  Then, on deep-prob, checks that the traced per-layer self times
plus the harness time add up to the traced op time, and that spans nest.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from child import Loop  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def wrong_answer(op):
    bad = copy.copy(op)
    want = op.expected
    if isinstance(want, Fraction):
        bad.expected = want + Fraction(1, 7)
    elif "exit" in want:
        bad.expected = {**want, "exit": want["exit"] + 1}
    else:
        key = next(iter(want))
        bad.expected = {**want, key: not want[key]}
    return bad


def wrong_ladder(op):
    bad = copy.copy(op)
    bad.ladder = list(op.ladder[:-1]) or [1]
    return bad


class Fixed:
    """A workload whose deck is a fixed list of ops."""

    finish_deck = True

    def __init__(self, wl, ops):
        self.wl, self.ops = wl, list(ops)

    def next_op(self):
        return self.ops.pop(0)

    def deck_open(self):
        return bool(self.ops)

    def run(self, op):
        return self.wl.run(op)

    def check(self, op, result):
        return self.wl.check(op, result)


def check_counting() -> list[str]:
    problems = []
    for name, cls in WORKLOADS.items():
        wl = cls(1, ROOT)
        wl.prepare()
        op = wl.next_op()
        while op.known_defect:
            op = wl.next_op()
        loop = Loop(Fixed(wl, [op, wrong_answer(op), wrong_ladder(op)]))
        loop.run(0)
        got = sorted(loop.failures.values())
        print(f"{name}: 3 ops, {loop.failed} failed: {list(loop.failures)}")
        if len(loop.lat) != 3 or loop.failed != 2 or got != [1, 1]:
            problems.append(f"{name}: wrong answer and wrong ladder must fail, "
                            f"the reference op must pass")
    return problems


def check_trace_accounting(n_ops: int = 2) -> list[str]:
    problems = []
    wl = WORKLOADS["deep-prob"](1, ROOT)
    wl.prepare()
    wl.run(wl.next_op())    # warm-up, untraced
    tracer = Tracer()
    loop = Loop(Fixed(wl, [wl.next_op() for _ in range(n_ops)]), tracer)
    tracer.install()
    try:
        loop.run(0)
    finally:
        tracer.uninstall()
    if loop.failed:
        problems.append(f"traced deep-prob ops failed: {loop.failures}")

    spans = tracer.spans
    for i, (name, start, end, parent, op) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start <= end <= p[2]) or p[4] != op:
                problems.append(f"span {i} ({name}) does not nest in its parent")
                break
    if min(tracer.self_times()) < -1e-9:
        problems.append("negative self time")

    m = tracer.metrics(loop.lat)
    all_self_ms = sum(st for st in tracer.self_times()) * 1e3 / n_ops
    wall_ms = sum(loop.lat) * 1e3 / n_ops
    total = all_self_ms + m["trace.harness_ms"]
    layers = {}
    for (name, *_), st in zip(spans, tracer.self_times()):
        layers[name] = layers.get(name, 0.0) + st * 1e3 / n_ops
    print(f"deep-prob traced op {wall_ms:.2f} ms = self {all_self_ms:.2f} ms "
          f"+ harness {m['trace.harness_ms']:.3f} ms")
    for name, _, _ in TRACED:
        if layers.get(name):
            print(f"  {name:30s} {layers[name]:9.3f} ms")
    if abs(total - wall_ms) > 1e-6 * wall_ms:
        problems.append(f"self + harness {total} ms != op time {wall_ms} ms")
    if not 0 <= m["trace.harness_ms"] < 0.05 * wall_ms:
        problems.append(f"harness time {m['trace.harness_ms']} ms out of range")
    return problems


def main() -> int:
    problems = check_counting() + check_trace_accounting()
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
