"""Span tracing around the engine's public calls, from outside the engine.

``Tracer.install`` swaps each traced function for a wrapper wherever the
name is looked up: every ``dmbl`` module attribute bound to the original
function (``dmbl.model.build_level`` as well as ``dmbl.worlds.build_level``)
and the methods of ``ModelState`` and ``MeasureState``.  A span records
name, start, end, parent span and op id; spans stay in memory until the
run ends.  A re-entrant call of the innermost span's own function (the
recursion inside ``expand``) is folded into that span.

Self time is a span's duration minus the durations of its direct
children; children nest strictly inside their parent (one thread), so
the self times of one op plus the harness time outside every root span
add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (metric layer name, module, attribute); "Class.method" for methods
TRACED = [
    ("worlds.build_level", "dmbl.worlds", "build_level"),
    ("model.step", "dmbl.model", "ModelState.step"),
    ("model.ensure", "dmbl.model", "ModelState.ensure"),
    ("model.lift", "dmbl.model", "ModelState.lift"),
    ("model.image_test", "dmbl.model", "ModelState.image_test"),
    ("model.transpose", "dmbl.model", "ModelState.transpose"),
    ("model.f_eval", "dmbl.model", "ModelState.f_eval"),
    ("evaluator.assign", "dmbl.evaluator", "assign"),
    ("evaluator.decide", "dmbl.evaluator", "decide"),
    ("evaluator.independent", "dmbl.evaluator", "independent"),
    ("evaluator.diagnose_b6", "dmbl.evaluator", "diagnose_b6"),
    ("probability.measure_state", "dmbl.probability", "MeasureState.__init__"),
    ("probability.extend_to", "dmbl.probability", "MeasureState.extend_to"),
    ("probability.weight_of", "dmbl.probability", "MeasureState.weight_of"),
    ("probability.limit_prob", "dmbl.probability", "limit_prob"),
    ("formula.parse", "dmbl.formula", "parse"),
    ("formula.expand", "dmbl.formula", "expand"),
    ("config.build_state", "dmbl.config", "build_state"),
    ("config.build_measure", "dmbl.config", "build_measure"),
    ("proofs.check", "dmbl.proofs", "check"),
    ("cli.main", "dmbl.cli", "main"),
]

# Per-layer metrics reported by a traced run, with unit and direction.
SELF_MS = ["worlds.build_level", "model.step", "model.ensure", "model.lift",
           "model.image_test", "model.transpose", "model.f_eval",
           "evaluator.assign", "evaluator.decide", "evaluator.independent",
           "evaluator.diagnose_b6", "probability.extend_to",
           "probability.weight_of", "probability.limit_prob", "formula.parse",
           "formula.expand", "config.build_state", "config.build_measure",
           "proofs.check", "cli.main"]
CALLS = ["worlds.build_level", "model.lift", "model.image_test", "model.f_eval",
         "formula.parse"]
COUNTS = ["worlds.worlds_built", "model.steps", "probability.levels_extended",
          "probability.limit_prob.samples", "proofs.check.lines"]


def per_layer_spec() -> list[dict]:
    out = [{"name": f"{n}.self_ms", "unit": "ms", "better": "lower"} for n in SELF_MS]
    out += [{"name": f"{n}.calls", "unit": "count", "better": "lower"} for n in CALLS]
    out += [{"name": n, "unit": "count", "better": "lower"} for n in COUNTS]
    out += [{"name": "model.image_test.hit_ratio", "unit": "ratio", "better": "higher"},
            {"name": "trace.harness_ms", "unit": "ms", "better": "lower"},
            {"name": "trace.overhead_ratio", "unit": "ratio", "better": "higher"}]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {n: 0 for n in COUNTS}
        self.image_hits = 0
        self._undo: list[tuple] = []

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        for name, modname, attr in TRACED:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mname, mod in list(sys.modules.items()):
                if mname != "dmbl" and not mname.startswith("dmbl."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] is name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            before = self._before(name, args)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- counters at the same boundaries ------------------------------------

    def _before(self, name, args):
        if name == "probability.extend_to":
            return args[0].extended_through()
        return None

    def _after_worlds_build_level(self, args, result, before):
        self.counts["worlds.worlds_built"] += result.width

    def _after_model_step(self, args, result, before):
        self.counts["model.steps"] += 1

    def _after_model_image_test(self, args, result, before):
        self.image_hits += result is not None

    def _after_probability_extend_to(self, args, result, before):
        self.counts["probability.levels_extended"] += args[0].extended_through() - before

    def _after_probability_measure_state(self, args, result, before):
        if any(self.spans[i][0] == "probability.limit_prob" for i in self.stack):
            self.counts["probability.limit_prob.samples"] += 1

    def _after_proofs_check(self, args, result, before):
        self.counts["proofs.check.lines"] += len(args[0].lines)

    # --- aggregation --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def root_time_by_op(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for _, start, end, parent, op in self.spans:
            if parent < 0:
                out[op] = out.get(op, 0.0) + end - start
        return out

    def metrics(self, op_walls: list[float]) -> dict[str, float]:
        """Per-op averages over the traced ops (``op_walls`` in seconds)."""
        n = max(len(op_walls), 1)
        self_ms = {name: 0.0 for name, _, _ in TRACED}
        calls = {name: 0 for name, _, _ in TRACED}
        for rec, st in zip(self.spans, self.self_times()):
            self_ms[rec[0]] += st
            calls[rec[0]] += 1
        out = {f"{k}.self_ms": self_ms[k] * 1e3 / n for k in SELF_MS}
        out.update({f"{k}.calls": calls[k] / n for k in CALLS})
        for k in COUNTS:
            out[k] = self.counts[k] / n
        if calls["probability.limit_prob"]:
            out["probability.limit_prob.samples"] = (
                self.counts["probability.limit_prob.samples"] / calls["probability.limit_prob"])
        tests = calls["model.image_test"]
        out["model.image_test.hit_ratio"] = self.image_hits / tests if tests else 0.0
        roots = self.root_time_by_op()
        harness = sum(w - roots.get(i, 0.0) for i, w in enumerate(op_walls))
        out["trace.harness_ms"] = harness * 1e3 / n
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
