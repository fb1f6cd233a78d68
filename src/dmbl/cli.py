"""Batch command-line front end.

Exit codes: 0 for success or a true verdict, 1 for a false verdict, 2 for
any error (bad flags, parse failures, resource caps, running out of
memory).  ``--json`` switches every report to a stable JSON rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape  # json.dumps' C escaper

from . import __version__
from .config import ConfigError, EngineConfig, build_measure, build_state, load_config
from .evaluator import assign, decide, diagnose_b6, independent, lewis_escape
from .formula import (FormulaError, atoms_of, expand, expanded_size, is_box_free,
                      parse, to_text)
from .model import CapExceededError, ModelError, ModelState
from .probability import BayesResult, MeasureError, bayes_check, init_measure, prob
from .proofs import ProofError, check, load_derivation

_EXPECTED_LEVEL1 = [["a", "c"], ["b", "c"], ["c", "a"], ["c", "b"]]
_EXPECTED_WEIGHTS = ["1/5", "3/10", "1/5", "3/10"]
# largest expansion ``dmbl parse`` prints, in formula nodes
MAX_EXPANSION = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so ``main`` reports it in one line."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# every command's options, as ``add_argument`` keywords; ``_common`` and the
# direct reader (``_plain_forms``) both read this table
OPTIONS = {
    "--config": {"help": "engine config file (JSON)"},
    "--atoms": {"help": "comma-separated atom names"},
    "--schedule": {"choices": ["demand", "canonical"]},
    "--max-levels": {"type": int},
    "--max-worlds": {"type": int},
    "--json": {"action": "store_true", "help": "emit a JSON report"},
}
# options of one command alone, added before the common ones
COMMAND_OPTIONS = {
    "dump-model": {"--step": {"action": "append", "help": "process this formula's "
                                                          "world set before dumping"}},
}


def _common(sub: argparse.ArgumentParser) -> None:
    for flag, keywords in OPTIONS.items():
        sub.add_argument(flag, **keywords)


def _make_config(args) -> EngineConfig:
    cfg = load_config(args.config) if args.config else EngineConfig()
    flags = {}
    if args.atoms:
        flags["atoms"] = [a.strip() for a in args.atoms.split(",") if a.strip()]
        flags["worlds"] = None
    if args.schedule:
        flags["schedule"] = args.schedule
    if args.max_levels is not None:
        flags["max_levels"] = args.max_levels
    if args.max_worlds is not None:
        flags["max_worlds"] = args.max_worlds
    if args.json:
        flags["output"] = "json"
    # replace() re-runs EngineConfig's validation on the flag values
    return replace(cfg, **flags)


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, without the standard library's
    pure-Python encoder, which any ``indent`` selects.

    Reads ``dict`` (with ``str`` keys), ``list``, ``str``, ``int``,
    ``float``, ``bool`` and ``None``; anything else raises ``TypeError``.
    """
    t = type(value)
    if t is str:
        return _escape(value)
    if t is dict or t is list:
        if not value:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        if t is dict:
            items = [_escape(k) + ": " + _json_text(v, inner) for k, v in value.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if t is int:
        return int.__repr__(value)
    if t is float:
        return json.dumps(value)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(cfg: EngineConfig, report: dict, text_lines) -> None:
    if cfg.output == "json":
        print(_json_text(report))
    else:
        for line in text_lines:
            print(line)


def _parse_formula(text: str, state: ModelState):
    return parse(text, state.atoms or None)


def _fraction_fields(x: Fraction) -> dict:
    try:
        rational = f"{x.numerator}/{x.denominator}"
    except ValueError:  # more digits than int-to-str conversion allows
        raise MeasureError(f"exact result has a term of more than "
                           f"{sys.get_int_max_str_digits()} digits") from None
    return {"rational": rational, "decimal": float(x)}


def cmd_parse(cfg, args) -> int:
    state = build_state(cfg)
    f = _parse_formula(args.formula, state)
    size = expanded_size(f)
    if size > MAX_EXPANSION:
        raise FormulaError(f"expansion too large to print: {size} nodes > "
                           f"bound {MAX_EXPANSION}")
    report = {
        "command": "parse",
        "formula": to_text(f),
        "expanded": to_text(expand(f)),
        "box_free": is_box_free(f),
        "atoms": sorted(atoms_of(f)),
    }
    _emit(cfg, report, [report["formula"],
                        f"expanded: {report['expanded']}",
                        f"box-free: {report['box_free']}"])
    return 0


def cmd_decide(cfg, args) -> int:
    state = build_state(cfg)
    f = _parse_formula(args.formula, state)
    d = decide(state, f)
    report = {
        "command": "decide",
        "formula": to_text(f),
        "verdict": d.verdict,
        "valid": d.valid,
        "box_free": d.box_free,
        "caveat": d.caveat,
        "levels_built": state.num_levels,
    }
    lines = [f"{report['formula']}: {d.verdict}"]
    if d.caveat:
        lines.append(f"note: {d.caveat}")
    _emit(cfg, report, lines)
    return 0 if d.valid else 1


def cmd_eval(cfg, args) -> int:
    state = build_state(cfg)
    f = _parse_formula(args.formula, state)
    v = assign(state, f)
    report = {
        "command": "eval",
        "formula": to_text(f),
        "level": v.level,
        "level_width": state.width(v.level),
        "worlds": v.value.indices(),
        "cardinality": v.value.cardinality(),
        "full": v.value.is_full,
        "empty": v.value.is_empty,
    }
    _emit(cfg, report, [
        f"{report['formula']} @ level {v.level} "
        f"({report['cardinality']}/{report['level_width']} worlds)",
        "worlds: " + ",".join(map(str, report["worlds"])),
    ])
    return 0


def cmd_indep(cfg, args) -> int:
    state = build_state(cfg)
    phi = _parse_formula(args.phi, state)
    psi = _parse_formula(args.psi, state)
    res = independent(state, phi, psi)
    report = {"command": "indep", "phi": to_text(phi), "psi": to_text(psi),
              "independent": res}
    _emit(cfg, report, [f"{to_text(psi)} * {to_text(phi)}: "
                        f"{'independent' if res else 'not independent'}"])
    return 0 if res else 1


def _mark_limit(m, report: dict, lines: list) -> None:
    """Mark a report whose base has zeros, which ``init_measure`` reads as a limit."""
    if not m.base.strictly_positive:
        report["limit"] = True
        lines.insert(0, "note: the base measure has zero weights; probabilities "
                        "are limits under a vanishing uniform perturbation")


def cmd_prob(cfg, args) -> int:
    state = build_state(cfg)
    f = _parse_formula(args.formula, state)
    m = init_measure(state, build_measure(cfg, state))
    value = prob(state, m, f)
    report = {"command": "prob", "formula": to_text(f), **_fraction_fields(value)}
    lines = [f"P({to_text(f)}) = {value} = {float(value)}"]
    _mark_limit(m, report, lines)
    _emit(cfg, report, lines)
    return 0


def cmd_bayes(cfg, args) -> int:
    state = build_state(cfg)
    phi = _parse_formula(args.phi, state)
    psi = _parse_formula(args.psi, state)
    m = init_measure(state, build_measure(cfg, state))
    res: BayesResult = bayes_check(state, m, phi, psi)
    report = {
        "command": "bayes",
        "phi": to_text(phi),
        "psi": to_text(psi),
        "lhs": _fraction_fields(res.lhs),
        "rhs": _fraction_fields(res.rhs),
        "equal": res.equal,
    }
    lines = [
        f"P(({to_text(psi)}|{to_text(phi)})) * P({to_text(phi)}) = {res.lhs}",
        f"P({to_text(phi)} /\\ {to_text(psi)}) = {res.rhs}",
        "equal" if res.equal else "NOT EQUAL",
    ]
    _mark_limit(m, report, lines)
    _emit(cfg, report, lines)
    return 0 if res.equal else 1


def cmd_lewis_demo(cfg, args) -> int:
    state = build_state(cfg)
    n = state.width(0)
    # nonempty b strictly inside a nonempty proper a: 3^n - 3 * 2^n + 3
    count = 3 ** n - 3 * 2 ** n + 3
    if count > cfg.max_worlds:
        try:
            pairs = str(count)
        except ValueError:  # more digits than int-to-str conversion allows
            pairs = f"3^{n} - 3 * 2^{n} + 3"
        raise CapExceededError(f"lewis-demo would build one model per strict "
                               f"pair: {pairs} pairs > cap {cfg.max_worlds}")
    cases = []
    all_good = True
    for a_mask in range(1, (1 << n) - 1):
        for b_mask in range(1, 1 << n):
            if b_mask == a_mask or b_mask & ~a_mask:
                continue
            local = build_state(cfg)
            a = local.from_indices(0, [i for i in range(n) if a_mask >> i & 1])
            b = local.from_indices(0, [i for i in range(n) if b_mask >> i & 1])
            escaped = lewis_escape(local, a, b)
            all_good &= escaped
            cases.append({"a": a.indices(), "b": b.indices(), "escapes": escaped})
    report = {"command": "lewis-demo", "cases": cases, "all_escape": all_good}
    lines = [f"a={c['a']} b={c['b']}: {'escapes' if c['escapes'] else 'STAYS'}"
             for c in cases]
    lines.append(f"all {len(cases)} strict pairs escape the base algebra: {all_good}")
    _emit(cfg, report, lines)
    return 0 if all_good else 1


def cmd_b6_diag(cfg, args) -> int:
    state = build_state(cfg)
    phi = _parse_formula(args.phi, state)
    psi = _parse_formula(args.psi, state)
    eta = _parse_formula(args.eta, state) if args.eta else None
    rep = diagnose_b6(state, phi, psi, eta)
    report = {
        "command": "b6-diag",
        "phi": to_text(phi),
        "psi": to_text(psi),
        "forward": rep.forward,
        "backward": rep.backward,
        "symmetric": rep.symmetric,
    }
    lines = [
        f"{to_text(psi)} * {to_text(phi)}: {rep.forward}",
        f"{to_text(phi)} * {to_text(psi)}: {rep.backward}",
        f"symmetric: {rep.symmetric}",
    ]
    if eta is not None:
        report["eta"] = to_text(eta)
        report["nesting_equal"] = rep.star_equal
        report["nested_value"] = rep.star_left
        report["conjunction_value"] = rep.star_right
        lines.append(f"(({to_text(eta)}|{to_text(psi)})|{to_text(phi)}) == "
                     f"({to_text(eta)}|{to_text(phi)} /\\ {to_text(psi)}): "
                     f"{rep.star_equal}")
    _emit(cfg, report, lines)
    return 0


def cmd_check_proof(cfg, args) -> int:
    d = load_derivation(args.file)
    verdict = check(d)
    report = {
        "command": "check-proof",
        "file": args.file,
        "name": d.name,
        "logic": d.logic,
        "target": to_text(d.target),
        "accepted": verdict.ok,
        "failing_line": verdict.line,
        "reason": verdict.reason,
    }
    if verdict.ok:
        lines = [f"{d.name or args.file}: accepted ({len(d.lines)} lines, {d.logic})"]
    else:
        lines = [f"{d.name or args.file}: REJECTED at line {verdict.line}: "
                 f"{verdict.reason}"]
    _emit(cfg, report, lines)
    return 0 if verdict.ok else 1


def cmd_dump_model(cfg, args) -> int:
    state = build_state(cfg)
    for text in args.step or []:
        f = _parse_formula(text, state)
        v = assign(state, f)
        state.step(v.value)
    # the text report is the JSON report
    print(_json_text(state.to_json()))
    return 0


def cmd_fixtures(cfg, args) -> int:
    state = ModelState.from_worlds(
        ["a", "b", "c"], schedule="canonical",
        task_list=[0b011, 0b100, 0b110, 0b001, 0b101, 0b010])
    from .probability import BaseMeasure, MeasureState

    measure = MeasureState(state, BaseMeasure.from_weights(
        [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]))
    state.step()
    measure.extend_to(state, 1)

    lvl = state.level(1)
    labels = state.base_labels
    pairs = [[labels[l], labels[r]] for l, r in lvl.pairs]
    weights = [f"{w.numerator}/{w.denominator}" for w in measure.level_weights(1)]

    a = state.from_indices(0, [0])
    b = state.from_indices(0, [1])
    c = state.from_indices(0, [2])
    ab = state.from_indices(0, [0, 1])
    f_a_ab = state.f_eval(state.lift(a, 1), state.lift(ab, 1)).indices()
    f_b_ab = state.f_eval(state.lift(b, 1), state.lift(ab, 1)).indices()
    f_c_c = state.f_eval(state.lift(c, 1), state.lift(c, 1)).indices()

    checks = {
        "level1_pairs": (pairs, _EXPECTED_LEVEL1),
        "weights": (weights, _EXPECTED_WEIGHTS),
        "f(a,{a,b})": (f_a_ab, [0, 2]),
        "f(b,{a,b})": (f_b_ab, [1, 3]),
        "f(c,c)": (f_c_c, [0, 1, 2, 3]),
    }
    ok = True
    lines = []
    results = {}
    for name, (got, want) in checks.items():
        match = got == want
        ok &= match
        results[name] = {"got": got, "want": want, "match": match}
        lines.append(f"{name}: {got} {'==' if match else '!='} {want}")
    lines.append("golden scenario: " + ("PASS" if ok else "FAIL"))
    report = {"command": "fixtures", "checks": results, "pass": ok}
    _emit(cfg, report, lines)
    return 0 if ok else 1


# name, help, positional arguments (a name, or a (name, nargs) pair), handler
COMMANDS = [
    ("parse", "parse a formula and show its expansion", ["formula"], cmd_parse),
    ("decide", "decide box-free theoremhood", ["formula"], cmd_decide),
    ("eval", "dump a formula's world set", ["formula"], cmd_eval),
    ("indep", "test logical independence psi * phi", ["phi", "psi"], cmd_indep),
    ("prob", "exact probability of a formula", ["formula"], cmd_prob),
    ("bayes", "check P((psi|phi))P(phi) = P(phi/\\psi)", ["phi", "psi"], cmd_bayes),
    ("lewis-demo", "show conditionals escaping the base algebra", [], cmd_lewis_demo),
    ("b6-diag", "independence symmetry diagnostics",
     ["phi", "psi", ("eta", "?")], cmd_b6_diag),
    ("check-proof", "check a derivation script", ["file"], cmd_check_proof),
    ("dump-model", "dump the model as JSON", [], cmd_dump_model),
    ("fixtures", "run the three-world golden scenario", [], cmd_fixtures),
]

# first match wins: MeasureError and EvaluationError are ModelErrors
ERRORS = [(_UsageError, "usage"), (FormulaError, "parse"), (ConfigError, "config"),
          (MeasureError, "measure"), (ProofError, "proof"), (ModelError, "model"),
          (OSError, "io"), (MemoryError, "memory")]
_CAUGHT = tuple(cls for cls, _ in ERRORS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = _Parser(
        prog="dmbl",
        description="conditional-logic engine: model construction, decisions, "
                    "probabilities, proof checking")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices  # command name -> its parser, for ``_parse_args``
    for name, help_text, positionals, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            arg, nargs = arg if isinstance(arg, tuple) else (arg, None)
            p.add_argument(arg, nargs=nargs)
        for flag, keywords in COMMAND_OPTIONS.get(name, {}).items():
            p.add_argument(flag, **keywords)
        _common(p)
        p.set_defaults(func=handler)
    return ap


def _plain_forms() -> dict:
    """Per command: its positional names, least operand count, options
    (flag -> dest, action, type, choices) and the Namespace's defaults."""
    forms = {}
    for name, _, positionals, handler in COMMANDS:
        names = [arg[0] if isinstance(arg, tuple) else arg for arg in positionals]
        least = sum(not isinstance(arg, tuple) for arg in positionals)
        options = {}
        defaults = dict.fromkeys(names)
        for flag, kw in {**COMMAND_OPTIONS.get(name, {}), **OPTIONS}.items():
            dest = flag[2:].replace("-", "_")
            action = kw.get("action")
            options[flag] = (dest, action, kw.get("type"), kw.get("choices"))
            defaults[dest] = False if action == "store_true" else None
        defaults["func"] = handler
        forms[name] = (names, least, options, defaults)
    return forms


_PLAIN = _plain_forms()


def _read_plain(argv: list):
    """The Namespace ``build_parser().parse_args(argv)`` returns for a plain
    command line, read without argparse, or None for any other line."""
    form = _PLAIN.get(argv[0]) if argv else None
    if form is None:
        return None
    names, least, options, defaults = form
    end = len(argv)
    k = 1
    while k < end and not argv[k].startswith("-"):
        k += 1
    if not least < k <= len(names) + 1:
        return None
    values = dict(defaults)
    values.update(zip(names, argv[1:k]))
    while k < end:
        option = options.get(argv[k])
        if option is None:
            return None
        dest, action, convert, choices = option
        k += 1
        if action == "store_true":
            values[dest] = True
            continue
        if k == end or argv[k].startswith("-"):
            return None
        value = argv[k]
        k += 1
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    values["command"] = argv[0]
    return argparse.Namespace(**values)


def _parse_args(argv: list):
    """``build_parser().parse_args(argv)``: the same Namespace, help, version
    and usage errors.

    A plain line is read without building the parser: a command name, its
    operands (as many as it takes, none starting with ``-``), then only
    full-spelled options from ``OPTIONS`` and ``COMMAND_OPTIONS``, each
    value not starting with ``-`` and valid for its type and choices.
    Operands are read only before the first option, since argparse binds
    them in groups (on Python 3.11, ``b6-diag p q --json r`` leaves ``eta``
    None and rejects ``r``).  argparse reads every other line: ``-h``, ``--version``,
    abbreviations, ``--opt=value``, ``--``, options before operands, wrong
    arity, a bad value, an unknown command.  It goes straight to the parser
    of the command that ``argv[0]`` names, skipping the top level's pass."""
    args = _read_plain(argv)
    if args is not None:
        return args
    ap = build_parser()
    sub = ap.commands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(_make_config(args), args)
    except _CAUGHT as exc:
        prefix = next(p for cls, p in ERRORS if isinstance(exc, cls))
        print(f"{prefix} error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
