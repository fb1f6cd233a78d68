"""Regenerate the benchmark's reference pools in ``perfbench/refs``.

Every expected answer comes from the naive oracle in ``tests/oracle.py``
(frozenset worlds, exact ``Fraction`` weights, nothing shared with the
engine's model or measure code), driven by the small demand-schedule
evaluator below.  The engine is used only to *search* for candidate
formulas quickly; each kept candidate is then recomputed by the oracle
and only the oracle's value is stored.

Run from the repository root (takes a few minutes):

    python3 perfbench/refgen.py [cli_mix] [warm_query] [deep_prob]
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from oracle import NaiveModel, NotDefined  # noqa: E402

from dmbl.formula import (And, Atom, Bot, Cond, Iff, Implies, Not, Or,  # noqa: E402
                          Top, children, parse, rebuild, to_text)
from common import CLI_LADDER, DEEP_LADDER, WARM_LADDER, WORLDS  # noqa: E402

REFS = HERE / "refs"

# The measures deep-prob draws from: strictly positive, small denominators,
# listed over WORLDS = (p/\q, p/\~q, ~p/\q, ~p/\~q).
DEEP_MEASURES = [[1, 2, 3, 4], [3, 1, 4, 2], [2, 3, 1, 4], [4, 3, 2, 1]]

# Measures the cli-mix config files carry (same world order).
CLI_MEASURES = [[2, 3, 2, 1], [1, 1, 1, 1], [1, 3, 4, 2]]

CLASSICAL = ["p", "q", "~p", "~q", "p /\\ q", "p \\/ q", "p <-> q",
             "~(p <-> q)", "p /\\ ~q", "~p \\/ q", "p -> q", "~p /\\ ~q"]


class Naive:
    """Demand-schedule evaluation of a formula on the naive oracle.

    Mirrors the engine's documented semantics, not its code: values live
    at the level they were computed at and are lifted on use; a
    conditional whose antecedent family is unprocessed (or whose
    consequent does not embed) processes the antecedent at the top level
    and retries.  With ``frozen`` set, such a step raises ``NotDefined``.
    """

    def __init__(self):
        self.om = NaiveModel(WORLDS)
        self.frozen = False

    @property
    def top(self) -> int:
        return self.om.top

    def ladder(self) -> list[int]:
        return [len(lvl) for lvl in self.om.levels]

    def up(self, value):
        s, n = value
        return self.om.lift(s, n, self.om.top)

    def full(self):
        return self.om.levels[self.om.top]

    def ev(self, f):
        om = self.om
        if isinstance(f, Top):
            return (om.levels[om.top], om.top)
        if isinstance(f, Bot):
            return (frozenset(), om.top)
        if isinstance(f, Atom):
            i = ("p", "q").index(f.name)
            return (frozenset(w for w in WORLDS if w[i]), 0)
        if isinstance(f, Not):
            s, n = self.ev(f.body)
            return (om.levels[n] - s, n)
        if isinstance(f, (And, Or, Implies, Iff)):
            a = self.ev(f.left)
            b = self.ev(f.right)
            a, b, full = self.up(a), self.up(b), self.full()
            if isinstance(f, And):
                r = a & b
            elif isinstance(f, Or):
                r = a | b
            elif isinstance(f, Implies):
                r = (full - a) | b
            else:
                r = (a & b) | ((full - a) & (full - b))
            return (r, om.top)
        if isinstance(f, Cond):
            c = self.ev(f.cons)
            a = self.ev(f.ante)
            return (self.cond(c, a), om.top)
        raise TypeError(f"naive evaluator has no case for {type(f).__name__}")

    def cond(self, c, a) -> frozenset:
        """Value of the conditional of ``c`` given ``a`` at the top level."""
        try:
            return self.om.f(self.up(c), self.up(a))
        except NotDefined:
            if self.frozen:
                raise
        self.om.step(self.up(a))
        return self.om.f(self.up(c), self.up(a))

    def value(self, text: str) -> frozenset:
        return self.up(self.ev(parse(text)))

    def independent(self, phi: str, psi: str) -> bool:
        vpsi = self.ev(parse(psi))
        vphi = self.ev(parse(phi))
        return self.cond(vpsi, vphi) == self.up(vpsi)

    def diagnose_b6(self, phi: str, psi: str, eta: str) -> dict:
        forward = self.independent(phi, psi)
        backward = self.independent(psi, phi)
        left = self.ev(parse(f"(({eta}|{psi})|{phi})"))
        right = self.ev(parse(f"({eta}|({phi}) /\\ ({psi}))"))
        left, right = self.up(left), self.up(right)
        return {"forward": forward, "backward": backward,
                "nesting_equal": left == right,
                "left_count": len(left), "right_count": len(right)}

    def prob(self, text: str, measure) -> Fraction:
        s, n = self.ev(parse(text))
        total = sum(measure)
        weights = self.om.extend_measure(
            {w: Fraction(x, total) for w, x in zip(WORLDS, measure)})
        return sum((weights[n][x] for x in s), Fraction(0))


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# --- symmetries of the base algebra ----------------------------------------

def symmetry(f, sym: int):
    """Apply symmetry ``sym`` (bit 0 swap p/q, bit 1 negate p, bit 2 negate q)."""
    if isinstance(f, Atom):
        name = f.name
        negate = (sym >> 1 & 1) if name == "p" else (sym >> 2 & 1)
        if sym & 1:
            name = "q" if name == "p" else "p"
        return Not(Atom(name)) if negate else Atom(name)
    return rebuild(f, tuple(symmetry(c, sym) for c in children(f)))


def engine_ladder(kind: str, args: list[str], max_worlds: int = 60_000):
    """Ladder the engine builds for one query, or None past ``max_worlds``.

    Used only to skip candidates quickly; references come from the oracle.
    """
    from dmbl import evaluator, probability
    from dmbl.model import ModelError, ModelState

    s = ModelState(atoms=["p", "q"], max_worlds=max_worlds)
    f = [parse(a) for a in args]
    try:
        if kind == "indep":
            evaluator.independent(s, f[0], f[1])
        elif kind == "bayes":
            m = probability.init_measure(s, probability.BaseMeasure.uniform(s))
            probability.bayes_check(s, m, f[0], f[1])
        elif kind == "b6-diag":
            evaluator.diagnose_b6(s, f[0], f[1], f[2])
        elif kind == "dump-model":
            for g in f:
                s.step(evaluator.assign(s, g).value)
        else:
            evaluator.assign(s, f[0])
    except ModelError:
        return None
    return [s.width(n) for n in range(s.num_levels)]


# --- deep-prob ---------------------------------------------------------------

def gen_deep_prob(n_templates: int = 4) -> dict:
    rng = random.Random(20050)
    cons = ["p", "q", "~p", "~q", "p /\\ q", "p \\/ q"]
    templates = []
    tried = 0
    while len(templates) < n_templates:
        tried += 1
        c = rng.choice(cons)
        a = [rng.choice(CLASSICAL) for _ in range(4)]
        text = f"(((({c}|{a[0]})|{a[1]})|{a[2]})|{a[3]})"
        if text in templates or engine_ladder("assign", [text]) != DEEP_LADDER:
            continue
        # keep templates whose answers stay strictly inside (0, 1)
        nv = Naive()
        s, n = nv.ev(parse(text))
        values = []
        for mw in DEEP_MEASURES:
            total = sum(mw)
            w = nv.om.extend_measure(
                {x: Fraction(k, total) for x, k in zip(WORLDS, mw)})
            values.append(sum((w[n][x] for x in s), Fraction(0)))
        if any(v in (0, 1) for v in values) or len(set(values)) < 2:
            continue
        templates.append(text)
        print(f"  template {text} {[frac_text(v) for v in values]}", flush=True)
    print(f"  {tried} chains tried", flush=True)

    instances = []
    for ti, text in enumerate(templates):
        for sym in range(8):
            formula = to_text(symmetry(parse(text), sym))
            nv = Naive()
            s, n = nv.ev(parse(formula))
            if nv.ladder() != DEEP_LADDER:
                raise SystemExit(f"symmetry {sym} of {text} changes the ladder")
            for mi, mw in enumerate(DEEP_MEASURES):
                total = sum(mw)
                w = nv.om.extend_measure(
                    {x: Fraction(k, total) for x, k in zip(WORLDS, mw)})
                value = sum((w[n][x] for x in s), Fraction(0))
                instances.append({"template": ti, "sym": sym, "measure": mi,
                                  "formula": formula,
                                  "expected": frac_text(value)})
    return {"ladder": DEEP_LADDER, "templates": templates,
            "measures": DEEP_MEASURES, "instances": instances}


# --- warm-query ----------------------------------------------------------------

WARM_MODEL = "((((q|p)|q)|p /\\ q)|p \\/ q)"


def _random_query(rng, conds) -> str:
    k = rng.choice((1, 2, 3))
    parts = [rng.choice(conds) for _ in range(k)]
    parts = [f"~{p}" if rng.random() < 0.3 else p for p in parts]
    if rng.random() < 0.5:
        parts.append(rng.choice(CLASSICAL[:6]))
        rng.shuffle(parts)
    text = parts[0]
    for p in parts[1:]:
        op = rng.choice(("/\\", "\\/", "->", "<->"))
        text = f"({text}) {op} ({p})"
    return text


def gen_warm_query(per_kind: int = 12) -> dict:
    """Queries that run on the built model without growing it."""
    from dmbl.evaluator import assign, decide, diagnose_b6, independent
    from dmbl.model import ModelError, ModelState

    rng = random.Random(20051)
    engine = ModelState(atoms=["p", "q"])
    assign(engine, parse(WARM_MODEL))
    snap = engine.snapshot()
    ladder = [snap.width(n) for n in range(snap.num_levels)]
    if ladder != WARM_LADDER:
        raise SystemExit(f"warm model ladder {ladder}")

    conds = []
    for c in CLASSICAL[:6] + ["(q|p)", "((q|p)|q)"]:
        for a in ["p", "~p", "q", "~q", "p /\\ q", "p \\/ q", "~(p /\\ q)",
                  "(q|p)", "((q|p)|q)", "(((q|p)|q)|p /\\ q)"]:
            conds.append(f"({c}|{a})")

    def engine_ok(kind, args) -> float:
        t0 = time.perf_counter()
        try:
            f = [parse(a) for a in args]
            if kind == "decide":
                decide(snap, f[0])
            elif kind == "independent":
                independent(snap, f[0], f[1])
            else:
                diagnose_b6(snap, f[0], f[1], f[2])
        except ModelError:
            return -1.0
        return time.perf_counter() - t0

    queries = []
    seen = set()
    budget = {"decide": per_kind, "independent": per_kind, "diagnose_b6": per_kind}
    verdicts = {"decide": [0, 0], "independent": [0, 0], "diagnose_b6": [0, 0]}
    attempts = 0
    while any(budget.values()) and attempts < 20_000:
        attempts += 1
        kind = rng.choice([k for k, v in budget.items() if v])
        if kind == "decide":
            args = [_random_query(rng, conds)]
        elif kind == "independent":
            args = [rng.choice(["p", "~p", "q", "p /\\ q", "p \\/ q", "(q|p)"]),
                    _random_query(rng, conds)]
        else:
            events = ["p", "~p", "q", "~q", "p /\\ q", "p \\/ q", "~(p /\\ q)",
                      "(q|p)", "((q|p)|q)", "T"]
            args = [rng.choice(events), rng.choice(events),
                    rng.choice(CLASSICAL[:6] + conds[:30])]
        key = (kind, tuple(args))
        if key in seen:
            continue
        seen.add(key)
        cost = engine_ok(kind, args)
        # one cost class: 2-60 ms as timed while generating, so that no
        # query dominates the p90
        if cost < 0.002 or cost > 0.060:
            continue
        nv = Naive()
        nv.ev(parse(WARM_MODEL))
        nv.frozen = True
        try:
            if kind == "decide":
                full = nv.full()
                expected = {"valid": nv.value(args[0]) == full}
                bit = expected["valid"]
            elif kind == "independent":
                expected = {"independent": nv.independent(args[0], args[1])}
                bit = expected["independent"]
            else:
                expected = nv.diagnose_b6(*args)
                bit = expected["nesting_equal"]
        except NotDefined:
            continue
        if nv.ladder() != WARM_LADDER:
            continue
        # keep true and false verdicts roughly balanced
        if verdicts[kind][bit] >= (per_kind + 1) // 2 + 2:
            continue
        verdicts[kind][bit] += 1
        budget[kind] -= 1
        queries.append({"kind": kind, "args": args, "expected": expected,
                        "probe_ms": round(cost * 1e3, 2)})
        print(f"  {kind} {args} {expected} {cost * 1e3:.1f} ms", flush=True)
    if any(budget.values()):
        raise SystemExit(f"warm-query pool short: {budget}")
    return {"ladder": WARM_LADDER, "model": WARM_MODEL, "queries": queries}


# --- cli-mix ---------------------------------------------------------------------

def _cli_candidate(rng, kind: str, conds: list[str]) -> list[str]:
    if kind in ("decide", "eval"):
        parts = [rng.choice(conds) for _ in range(rng.choice((1, 2)))]
        if len(parts) == 1:
            return parts
        op = rng.choice(("/\\", "\\/", "->", "<->"))
        return [f"{parts[0]} {op} {parts[1]}"]
    if kind == "prob":
        return [f"({rng.choice(conds)}|{rng.choice(CLASSICAL[:8])})"]
    if kind == "indep":
        return [rng.choice(CLASSICAL[:8]), rng.choice(conds + CLASSICAL[:6])]
    if kind == "bayes":
        return [rng.choice(CLASSICAL[:8]), rng.choice(conds)]
    if kind == "b6-diag":
        pool = CLASSICAL[:8] + conds[:10]
        return [rng.choice(pool), rng.choice(pool), rng.choice(CLASSICAL[:6] + conds)]
    return [rng.choice(conds + CLASSICAL[:8]) for _ in range(rng.choice((1, 2)))]


def _cli_expected(kind: str, args: list[str], measure) -> dict:
    """Oracle exit code and report fields for one cli-mix op."""
    nv = Naive()
    if kind == "decide":
        valid = nv.value(args[0]) == nv.full()
        out = {"exit": 0 if valid else 1,
               "fields": {"verdict": "theorem" if valid else "not-a-theorem",
                          "valid": valid, "box_free": True,
                          "levels_built": len(CLI_LADDER)}}
    elif kind == "eval":
        value = nv.value(args[0])
        out = {"exit": 0, "fields": {"level": nv.top, "level_width": len(nv.full()),
                                     "cardinality": len(value)}}
    elif kind == "prob":
        out = {"exit": 0, "fields": {"rational": frac_text(nv.prob(args[0], measure))}}
    elif kind == "indep":
        res = nv.independent(args[0], args[1])
        out = {"exit": 0 if res else 1, "fields": {"independent": res}}
    elif kind == "bayes":
        phi, psi = args
        lhs = nv.prob(f"({psi}|{phi})", measure) * nv.prob(phi, measure)
        rhs = nv.prob(f"({phi}) /\\ ({psi})", measure)
        out = {"exit": 0 if lhs == rhs else 1,
               "fields": {"equal": lhs == rhs, "lhs": {"rational": frac_text(lhs)},
                          "rhs": {"rational": frac_text(rhs)}}}
    elif kind == "b6-diag":
        rep = nv.diagnose_b6(*args)
        out = {"exit": 0, "fields": {"forward": rep["forward"],
                                     "backward": rep["backward"],
                                     "symmetric": rep["forward"] == rep["backward"],
                                     "nesting_equal": rep["nesting_equal"]}}
    else:
        for text in args:
            nv.om.step(nv.value(text))
        out = {"exit": 0, "fields": {"widths": nv.ladder(), "history": len(nv.om.steps)}}
    out["ladder"] = nv.ladder()
    return out


def gen_cli_mix(per_kind: int = 8) -> dict:
    rng = random.Random(20052)
    conds = [f"({c}|{a})" for c in CLASSICAL[:6] for a in CLASSICAL[:8]]
    pools: dict[str, list] = {k: [] for k in (
        "decide", "eval", "indep", "prob", "bayes", "b6-diag", "dump-model")}
    seen = set()
    attempts = 0
    while any(len(v) < per_kind for v in pools.values()) and attempts < 50_000:
        attempts += 1
        kind = rng.choice([k for k, v in pools.items() if len(v) < per_kind])
        args = _cli_candidate(rng, kind, conds)
        if (kind, tuple(args)) in seen:
            continue
        seen.add((kind, tuple(args)))
        if engine_ladder(kind, args, max_worlds=400) != CLI_LADDER:
            continue
        mi = rng.randrange(len(CLI_MEASURES)) if kind in ("prob", "bayes") else None
        try:
            entry = _cli_expected(kind, args, None if mi is None else CLI_MEASURES[mi])
        except (NotDefined, ValueError):
            continue
        if entry["ladder"] != CLI_LADDER:
            raise SystemExit(f"oracle and engine ladders differ on {kind} {args}")
        if kind == "dump-model":
            argv = ["dump-model", "--json"]
            for text in args:
                argv += ["--step", text]
        else:
            argv = [kind, *args, "--json"]
        entry = {"argv": argv, **entry}
        if mi is not None:
            entry["measure"] = mi
        pools[kind].append(entry)
        print(f"  {argv} -> {entry['exit']} {entry['fields']}", flush=True)
    if any(len(v) < per_kind for v in pools.values()):
        raise SystemExit("cli-mix pools short")
    return {"ladder": CLI_LADDER, "measures": CLI_MEASURES, "pools": pools}


def main(argv: list[str]) -> int:
    """Regenerate the named pools (default: all three)."""
    gens = {"cli_mix": gen_cli_mix, "warm_query": gen_warm_query,
            "deep_prob": gen_deep_prob}
    REFS.mkdir(exist_ok=True)
    for name in argv or list(gens):
        t0 = time.perf_counter()
        print(name, flush=True)
        (REFS / f"{name}.json").write_text(json.dumps(gens[name](), indent=1) + "\n")
        print(f"{name} done in {time.perf_counter() - t0:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
