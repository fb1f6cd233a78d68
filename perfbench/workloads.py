"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``prepare`` (the seed picks
instances and their order, never the mix), hands out ops with
``next_op``, runs one op with ``run`` (the only timed call), and checks
the outcome against its reference with ``check`` outside the timed region.
An op passes only when its answer *and* its width ladder match.

Engine calls go through module attributes (``evaluator.decide``, not a
name imported once), so a tracer that swaps those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from common import (CLI_LADDER, DEEP_LADDER, WARM_LADDER, WORLDS, ZERO_LADDER,
                    world_of_label)

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"


class Op:
    __slots__ = ("kind", "args", "expected", "ladder", "known_defect", "label")

    def __init__(self, kind, args, expected, ladder, label, known_defect=False):
        self.kind = kind
        self.args = args
        self.expected = expected
        self.ladder = ladder
        self.label = label
        self.known_defect = known_defect


def ladder_of(state) -> list[int]:
    return [state.width(n) for n in range(state.num_levels)]


def engine_measure(state, weights) -> "object":
    """A BaseMeasure in the engine's world order from weights over WORLDS."""
    from dmbl import probability

    total = sum(weights)
    by_world = dict(zip(WORLDS, weights))
    return probability.BaseMeasure.from_weights(
        [Fraction(by_world[world_of_label(lbl)], total) for lbl in state.base_labels])


class Workload:
    name = ""
    ladder: list[int] = []
    finish_deck = False     # run whole decks so each kind keeps its exact share

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.root = root
        self._deck: list[Op] = []
        self.dropped: list[str] = []

    def deck(self) -> list[Op]:
        raise NotImplementedError

    def next_op(self) -> Op:
        if not self._deck:
            self._deck = self.deck()
            self._deck.reverse()
        return self._deck.pop()

    def deck_open(self) -> bool:
        return bool(self._deck)

    def discard_deck(self) -> None:
        """Start the next op from a fresh deck (after the warm-up op)."""
        self._deck = []


# --- deep-prob ----------------------------------------------------------------

class DeepProb(Workload):
    """Fresh depth-4 model plus exact measure extension per op."""

    name = "deep-prob"
    ladder = DEEP_LADDER

    def prepare(self) -> None:
        from dmbl import formula, model

        ref = json.loads((REFS / "deep_prob.json").read_text())
        if ref["ladder"] != self.ladder:
            raise SystemExit("deep-prob reference ladder differs from the declared one")
        probe = model.ModelState(atoms=("p", "q"))
        self.by_template: dict[int, list[Op]] = {}
        for inst in ref["instances"]:
            weights = ref["measures"][inst["measure"]]
            op = Op("prob", (formula.parse(inst["formula"]), engine_measure(probe, weights)),
                    Fraction(inst["expected"]), ref["ladder"],
                    f"{inst['formula']} @ {weights}")
            self.by_template.setdefault(inst["template"], []).append(op)

    def deck(self) -> list[Op]:
        # one instance per template, symmetry and measure drawn by the seed
        ops = [self.rng.choice(v) for _, v in sorted(self.by_template.items())]
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        from dmbl import model, probability

        state = model.ModelState(atoms=("p", "q"))
        m = probability.init_measure(state, op.args[1])
        return probability.prob(state, m, op.args[0]), state

    def check(self, op: Op, result) -> str | None:
        value, state = result
        if ladder_of(state) != op.ladder:
            return f"ladder {ladder_of(state)}"
        if value != op.expected:
            return f"value {value} != {op.expected}"
        return None


# --- warm-query -----------------------------------------------------------------

class WarmQuery(Workload):
    """Read-only queries on one prebuilt depth-4 model (a frozen snapshot)."""

    name = "warm-query"
    ladder = WARM_LADDER

    def prepare(self) -> None:
        from dmbl import evaluator, formula, model

        ref = json.loads((REFS / "warm_query.json").read_text())
        if ref["ladder"] != self.ladder:
            raise SystemExit("warm-query reference ladder differs from the declared one")
        state = model.ModelState(atoms=("p", "q"))
        evaluator.assign(state, formula.parse(ref["model"]))
        self.snap = state.snapshot()
        self.pool = []
        for q in ref["queries"]:
            op = Op(q["kind"], tuple(formula.parse(a) for a in q["args"]),
                    q["expected"], ref["ladder"], f"{q['kind']} {q['args']}")
            # a query that would grow the model fails on the frozen snapshot
            try:
                self.run(op)
            except model.ModelError as exc:
                self.dropped.append(f"{op.label}: {type(exc).__name__}")
                continue
            self.pool.append(op)

    def deck(self) -> list[Op]:
        ops = list(self.pool)
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        from dmbl import evaluator

        if op.kind == "decide":
            return evaluator.decide(self.snap, op.args[0])
        if op.kind == "independent":
            return evaluator.independent(self.snap, op.args[0], op.args[1])
        return evaluator.diagnose_b6(self.snap, *op.args)

    def check(self, op: Op, result) -> str | None:
        if ladder_of(self.snap) != op.ladder:
            return f"ladder {ladder_of(self.snap)}"
        want = op.expected
        if op.kind == "decide":
            got = {"valid": result.valid}
        elif op.kind == "independent":
            got = {"independent": result}
        else:
            got = {"forward": result.forward, "backward": result.backward,
                   "nesting_equal": result.star_equal,
                   "left_count": _count(result.star_left),
                   "right_count": _count(result.star_right)}
        return None if got == want else f"got {got}, want {want}"


def _count(indices: str) -> int:
    return len(indices.split(",")) if indices else 0


# --- zero-limit -------------------------------------------------------------------

# classical events as predicates over (p, q): the closed-form reference
# below never touches the engine
PHI = {"p": lambda p, q: p, "q": lambda p, q: q, "~p": lambda p, q: not p,
       "~q": lambda p, q: not q, "p <-> q": lambda p, q: p == q,
       "~(p <-> q)": lambda p, q: p != q}
PSI = {**PHI, "p /\\ q": lambda p, q: p and q, "p \\/ q": lambda p, q: p or q,
       "p -> q": lambda p, q: (not p) or q, "~p /\\ ~q": lambda p, q: not (p or q),
       "p /\\ ~q": lambda p, q: p and not q}


def zero_limit_reference(phi, psi, weights) -> Fraction:
    """pi(phi /\\ psi) / pi(phi) when pi(phi) > 0, else |phi /\\ psi| / |phi|."""
    in_phi = [i for i, w in enumerate(WORLDS) if phi(*w)]
    both = [i for i in in_phi if psi(*WORLDS[i])]
    mass = sum(weights[i] for i in in_phi)
    if mass > 0:
        return Fraction(sum(weights[i] for i in both), mass)
    return Fraction(len(both), len(in_phi))


class ZeroLimit(Workload):
    """Perturbation limits (rational reconstruction) at width 8."""

    name = "zero-limit"
    ladder = ZERO_LADDER

    def prepare(self) -> None:
        from dmbl import formula, model

        self.probe = model.ModelState(atoms=("p", "q"))
        self.parsed = {t: formula.parse(t) for t in PSI}
        self.cond = formula.Cond

    def _instance(self, phi_text: str, zeros: int) -> Op:
        rng = self.rng
        weights = [rng.randint(1, 4) for _ in WORLDS]
        for i in rng.sample(range(len(WORLDS)), zeros):
            weights[i] = 0
        psi_text = rng.choice(sorted(PSI))
        expected = zero_limit_reference(PHI[phi_text], PSI[psi_text], weights)
        f = self.cond(self.parsed[psi_text], self.parsed[phi_text])
        return Op("limit", (f, engine_measure(self.probe, weights)), expected,
                  self.ladder, f"({psi_text}|{phi_text}) @ {weights}")

    def deck(self) -> list[Op]:
        # every two-world event once with one zero weight and once with two
        ops = [self._instance(phi, zeros) for phi in PHI for zeros in (1, 2)]
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        from dmbl import model, probability

        state = model.ModelState(atoms=("p", "q"))
        return probability.limit_prob(state, op.args[1], op.args[0]), state

    def check(self, op: Op, result) -> str | None:
        value, state = result
        if ladder_of(state) != op.ladder:
            return f"ladder {ladder_of(state)}"
        if value != op.expected:
            return f"value {value} != {op.expected}"
        return None


# --- cli-mix -------------------------------------------------------------------------

# Parse inputs with their documented classification: (text, box_free, atoms).
PARSE_POOL = [
    ("p * (q|p)", False, ["p", "q"]),
    ("((q|p) /\\ p) <-> (p /\\ q)", True, ["p", "q"]),
    ("[](p -> q) \\/ <>~p", False, ["p", "q"]),
    ("(p|q) -> ~(~p|q)", True, ["p", "q"]),
    ("T \\/ F", True, []),
    ("~~p <-> p", True, ["p"]),
    ("((p|q)|p \\/ q) * q", False, ["p", "q"]),
    ("p -> q -> p", True, ["p", "q"]),
]

# Share of each kind in one 100-op deck.  ``malformed`` holds the inputs
# that must end with exit 2 and a one-line message.
CLI_COUNTS = {"parse": 12, "decide": 10, "eval": 9, "indep": 8, "prob": 8,
              "bayes": 8, "b6-diag": 8, "check-proof": 14, "lewis-demo": 3,
              "fixtures": 4, "dump-model": 11, "malformed": 5}

# Strict pairs {} < b < a < full over the four base worlds.
LEWIS_CASES = sum(1 for a in range(1, 15) for b in range(1, 16)
                  if b != a and not b & ~a)


class CliMix(Workload):
    """In-process ``dmbl.cli.main(argv)`` calls across every subcommand."""

    name = "cli-mix"
    ladder = CLI_LADDER
    finish_deck = True

    def prepare(self) -> None:
        from dmbl import model

        if sum(CLI_COUNTS.values()) != 100:
            raise SystemExit("cli-mix deck must hold 100 ops")
        ref = json.loads((REFS / "cli_mix.json").read_text())
        work = self.root / ".perfbench_out" / "cli-mix"
        work.mkdir(parents=True, exist_ok=True)

        configs = []
        for i, weights in enumerate(ref["measures"]):
            total = sum(weights)
            measure = {_minterm(w): f"{x}/{total}" for w, x in zip(WORLDS, weights)}
            path = work / f"measure{i}.json"
            path.write_text(json.dumps({"atoms": ["p", "q"], "measure": measure}))
            configs.append(str(path))

        self.pools: dict[str, list[Op]] = {k: [] for k in CLI_COUNTS}
        for text, box_free, atoms in PARSE_POOL:
            self.pools["parse"].append(Op(
                "parse", ["parse", text, "--json"],
                {"exit": 0, "fields": {"box_free": box_free, "atoms": atoms}},
                [4], f"parse {text}"))
        for kind, entries in ref["pools"].items():
            for e in entries:
                argv = list(e["argv"])
                if "measure" in e:
                    argv += ["--config", configs[e["measure"]]]
                self.pools[kind].append(Op(kind, argv, {"exit": e["exit"],
                                                        "fields": e["fields"]},
                                           e["ladder"], " ".join(argv)))
        corpus = sorted((self.root / "src" / "dmbl" / "corpus").glob("*.json"))
        for path in corpus:
            data = json.loads(path.read_text())
            self.pools["check-proof"].append(Op(
                "check-proof", ["check-proof", str(path), "--json"],
                {"exit": 0, "fields": {"accepted": True, "failing_line": None}},
                [], f"check-proof {path.name}"))
            # negating one line breaks exactly that line's justification
            k = len(data["lines"]) // 2
            data["lines"][k]["formula"] = f"~({data['lines'][k]['formula']})"
            bad = work / f"mutated-{path.name}"
            bad.write_text(json.dumps(data))
            self.pools["check-proof"].append(Op(
                "check-proof", ["check-proof", str(bad), "--json"],
                {"exit": 1, "fields": {"accepted": False, "failing_line": k + 1}},
                [], f"check-proof mutated {path.name}"))
        self.pools["lewis-demo"].append(Op(
            "lewis-demo", ["lewis-demo", "--json"],
            {"exit": 0, "fields": {"all_escape": True}, "cases": LEWIS_CASES},
            [4, 8], "lewis-demo"))
        self.pools["fixtures"].append(Op(
            "fixtures", ["fixtures", "--json"], {"exit": 0, "fields": {"pass": True}},
            [3, 4], "fixtures"))
        self.pools["malformed"] = self._malformed(work)

        # ladder probe: remember every model the op constructs
        self.states: list = []
        init = model.ModelState.__init__
        states = self.states

        def recording_init(state, *args, **kwargs):
            init(state, *args, **kwargs)
            states.append(state)

        model.ModelState.__init__ = recording_init

    def _malformed(self, work: Path) -> list[Op]:
        truncated = work / "truncated.json"
        truncated.write_text('{"name": "cut", "target": "p", "lines": [{"formula": "p"')
        no_lines = work / "no-lines.json"
        no_lines.write_text(json.dumps({"name": "no-lines", "target": "p"}))
        bad_refs = work / "bad-refs.json"
        bad_refs.write_text(json.dumps({"name": "bad-refs", "target": "[]T", "lines": [
            {"formula": "T", "rule": "c1"},
            {"formula": "[]T", "rule": "nec", "refs": ["x"]}]}))
        want = {"exit": 2, "stderr_lines": 1}
        return [
            Op("malformed", ["parse", "~" * 3000 + "p"], want, [4], "3000 nested ~", True),
            Op("malformed", ["parse", "(" * 600 + "p" + ")" * 600], want, [4],
               "600 nested parentheses", True),
            Op("malformed", ["check-proof", str(truncated)], want, [],
               "truncated proof JSON", True),
            Op("malformed", ["check-proof", str(no_lines)], want, [],
               "proof script without lines", True),
            Op("malformed", ["check-proof", str(bad_refs)], want, [],
               'proof line with "refs": ["x"]', True),
        ]

    def deck(self) -> list[Op]:
        ops = []
        for kind, count in CLI_COUNTS.items():
            pool = self.pools[kind]
            if kind == "malformed" or kind == "check-proof":
                # every script and every malformed input, in full
                ops += [pool[i % len(pool)] for i in range(count)]
            else:
                ops += [self.rng.choice(pool) for _ in range(count)]
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        from dmbl import cli

        self.states.clear()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.args)
        except Exception as exc:  # the op's outcome, judged in check()
            rc = exc
        return rc, out.getvalue(), err.getvalue(), list(self.states)

    def check(self, op: Op, result) -> str | None:
        rc, out, err, states = result
        if isinstance(rc, BaseException):
            return f"raised {type(rc).__name__}"
        want = op.expected
        if rc != want["exit"]:
            return f"exit {rc} != {want['exit']}"
        if "stderr_lines" in want:
            lines = err.splitlines()
            if len(lines) != want["stderr_lines"]:
                return f"{len(lines)} stderr lines"
        widest = max(states, key=lambda s: (s.width(s.top), s.num_levels), default=None)
        ladder = ladder_of(widest) if widest is not None else []
        if ladder != op.ladder:
            return f"ladder {ladder}"
        if "fields" not in want:
            return None
        report = json.loads(out)
        for key, value in want["fields"].items():
            if key == "widths":
                got = [lvl["width"] for lvl in report["levels"]]
            elif key == "history":
                got = len(report["history"])
            elif key == "atoms":
                got = sorted(report["atoms"])
            elif isinstance(value, dict):     # e.g. bayes "lhs": compare "rational" only
                got = {k: report[key].get(k) for k in value}
            else:
                got = report.get(key)
            if got != value:
                return f"{key} {got!r} != {value!r}"
        if op.kind == "parse":
            for abbreviation in ("*", "<->", "<>"):
                if abbreviation in report["expanded"]:
                    return f"expansion keeps {abbreviation}"
        if "cases" in want and len(report["cases"]) != want["cases"]:
            return f"{len(report['cases'])} lewis cases"
        return None


def _minterm(world) -> str:
    p, q = world
    return f"{'' if p else '~'}p /\\ {'' if q else '~'}q"


WORKLOADS = {w.name: w for w in (DeepProb, WarmQuery, ZeroLimit, CliMix)}
