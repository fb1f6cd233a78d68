"""Hilbert-style derivation checking for DmBL and its weakening DmBL*.

A derivation is a numbered list of lines, each licensed by an axiom-schema
instance, modus ponens, necessitation, a classical tautology instance, or
replacement of a subformula by one proved equivalent.  The two logics
share every schema except the independence-symmetry family: full symmetry
(b6) belongs to DmBL only, the weak forms (b6wA, b6wB) to DmBL* only.
Checking is syntactic; there is no proof search.
"""

from __future__ import annotations

import itertools
import json

from .formula import (And, Atom, Bot, Box, Formula, Iff, Implies, Not,
                      Or, Top, children, parse, rebuild, to_text)
from .record import Record, _set

METAVARS = ("phi", "psi", "eta")

_SCHEMA_TEXT = {
    "c1": "T",
    "c2": "phi -> (psi -> phi)",
    "c3": "(eta -> (phi -> psi)) -> ((eta -> phi) -> (eta -> psi))",
    "c4": "(~phi -> ~psi) -> ((~phi -> psi) -> phi)",
    "c5": "F <-> ~T",
    "c6": "(phi -> psi) <-> (~phi \\/ psi)",
    "c7": "(phi /\\ psi) <-> ~(~phi \\/ ~psi)",
    "m2": "[](phi -> psi) -> ([]phi -> []psi)",
    "m3": "[]phi -> phi",
    "m4": "<>phi <-> ~[]~phi",
    "b1": "[](phi -> psi) -> ([]~phi \\/ [](psi|phi))",
    "b2": "((psi -> eta)|phi) -> ((psi|phi) -> (eta|phi))",
    "b3": "(psi|phi) -> (phi -> psi)",
    "b4": "~((~psi)|phi) <-> (psi|phi)",
    "b5": "(psi * phi) <-> []((psi|phi) <-> psi)",
    "b6": "(psi * phi) <-> (phi * psi)",
    "b6wA": "(psi * ~phi) <-> (psi * phi)",
    "b6wB": "[](psi <-> eta) -> []((phi|psi) <-> (phi|eta))",
}

SCHEMAS: dict[str, Formula] = {
    name: parse(text, atoms=METAVARS) for name, text in _SCHEMA_TEXT.items()
}

DMBL_ONLY = frozenset({"b6"})
WEAK_ONLY = frozenset({"b6wA", "b6wB"})

LOGICS = ("DmBL", "DmBL*")

RULES = ("mp", "nec", "taut", "equiv")

MAX_PLACEHOLDERS = 12


class ProofError(Exception):
    pass


def axioms_of(logic: str) -> frozenset[str]:
    if logic == "DmBL":
        return frozenset(SCHEMAS) - WEAK_ONLY
    if logic == "DmBL*":
        return frozenset(SCHEMAS) - DMBL_ONLY
    raise ProofError(f"unknown logic {logic!r}")


def _match(f: Formula, shape: Formula, binding: dict[str, Formula]) -> bool:
    if isinstance(shape, Atom) and shape.name in METAVARS:
        bound = binding.get(shape.name)
        if bound is None:
            binding[shape.name] = f
            return True
        return bound == f
    if type(f) is not type(shape):
        return False
    return all(_match(fc, sc, binding)
               for fc, sc in zip(children(f), children(shape)))


def match_schema(f: Formula, schema_id: str) -> dict[str, Formula] | None:
    """The metavariable substitution turning the schema into ``f``, or None."""
    shape = SCHEMAS[schema_id]
    binding: dict[str, Formula] = {}
    if _match(f, shape, binding):
        return binding
    return None


def substitute(shape: Formula, binding: dict[str, Formula]) -> Formula:
    if isinstance(shape, Atom) and shape.name in METAVARS:
        try:
            return binding[shape.name]
        except KeyError:
            raise ProofError(f"substitution misses metavariable {shape.name}") from None
    return rebuild(shape, tuple(substitute(c, binding) for c in children(shape)))


# --- classical tautology instances ------------------------------------------

def _skeletonize(f: Formula, table: dict[Formula, int]):
    """Abstract maximal non-classical subformulas into placeholders."""
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(_skeletonize(f.body, table))
    if isinstance(f, (And, Or, Implies, Iff)):
        return rebuild(f, tuple(_skeletonize(c, table) for c in children(f)))
    # Atom, Box, Diamond, Cond, Indep: opaque
    idx = table.get(f)
    if idx is None:
        idx = len(table)
        table[f] = idx
    return idx


def _skeleton_eval(sk, row: tuple[bool, ...]) -> bool:
    if isinstance(sk, int):
        return row[sk]
    if isinstance(sk, Top):
        return True
    if isinstance(sk, Bot):
        return False
    if isinstance(sk, Not):
        return not _skeleton_eval(sk.body, row)
    if isinstance(sk, And):
        return _skeleton_eval(sk.left, row) and _skeleton_eval(sk.right, row)
    if isinstance(sk, Or):
        return _skeleton_eval(sk.left, row) or _skeleton_eval(sk.right, row)
    if isinstance(sk, Implies):
        return (not _skeleton_eval(sk.left, row)) or _skeleton_eval(sk.right, row)
    if isinstance(sk, Iff):
        return _skeleton_eval(sk.left, row) == _skeleton_eval(sk.right, row)
    raise ProofError(f"unexpected skeleton node {sk!r}")


def is_tautology_instance(f: Formula) -> bool:
    """Truth-table check of the classical skeleton of ``f``.

    Maximal subformulas rooted at an atom, a modality, a conditional, or an
    independence are treated as opaque placeholders (identical subformulas
    share one placeholder).  At most ``MAX_PLACEHOLDERS`` are allowed.
    """
    table: dict[Formula, int] = {}
    sk = _skeletonize(f, table)
    if len(table) > MAX_PLACEHOLDERS:
        raise ProofError(
            f"tautology check needs {len(table)} placeholders "
            f"(limit {MAX_PLACEHOLDERS})")
    for row in itertools.product((False, True), repeat=len(table)):
        if not _skeleton_eval(sk, row):
            return False
    return True


# --- equivalent-subformula replacement ---------------------------------------

def replaces(old: Formula, new: Formula, a: Formula, b: Formula) -> bool:
    """``new`` equals ``old`` with occurrences of ``a``/``b`` swapped."""
    if old == new:
        return True
    if (old == a and new == b) or (old == b and new == a):
        return True
    if type(old) is not type(new):
        return False
    olds, news = children(old), children(new)
    if not olds:
        return False  # unequal leaves
    return all(replaces(x, y, a, b) for x, y in zip(olds, news))


# --- derivations --------------------------------------------------------------

class Line(Record):
    __slots__ = _fields = ("formula", "rule", "refs", "subst")

    def __init__(self, formula: Formula, rule: str, refs: tuple[int, ...] = (),
                 subst: dict[str, Formula] | None = None):
        _set(self, "formula", formula)
        _set(self, "rule", rule)        # schema id, or one of RULES
        _set(self, "refs", refs)        # 1-based indices of earlier lines
        _set(self, "subst", subst)


class Derivation(Record):
    __slots__ = _fields = ("logic", "lines", "target", "name")

    def __init__(self, logic: str, lines: tuple[Line, ...], target: Formula,
                 name: str = ""):
        _set(self, "logic", logic)
        _set(self, "lines", lines)
        _set(self, "target", target)
        _set(self, "name", name)


class Verdict(Record):
    __slots__ = _fields = ("ok", "line", "reason")

    def __init__(self, ok: bool, line: int | None = None, reason: str | None = None):
        _set(self, "ok", ok)
        _set(self, "line", line)        # 1-based index of the first failing line
        _set(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def check(d: Derivation) -> Verdict:
    """Accept iff every line is licensed and the last line is the target."""
    if d.logic not in LOGICS:
        return Verdict(False, None, f"unknown logic {d.logic!r}")
    if not d.lines:
        return Verdict(False, None, "empty derivation")
    allowed = axioms_of(d.logic)
    for num, line in enumerate(d.lines, start=1):
        fail = _check_line(d, num, line, allowed)
        if fail is not None:
            return Verdict(False, num, fail)
    if d.lines[-1].formula != d.target:
        return Verdict(False, len(d.lines), "last line differs from the target")
    return Verdict(True)


def _ref(d: Derivation, num: int, r: int) -> Formula:
    if not 1 <= r < num:
        raise ProofError(f"reference {r} does not precede line {num}")
    return d.lines[r - 1].formula


def _check_line(d: Derivation, num: int, line: Line, allowed) -> str | None:
    try:
        if line.rule in SCHEMAS:
            if line.rule not in allowed:
                return f"axiom {line.rule} is not available in {d.logic}"
            binding = match_schema(line.formula, line.rule)
            if binding is None:
                return f"formula is not an instance of {line.rule}"
            if line.subst is not None:
                for k, v in line.subst.items():
                    if binding.get(k, v) != v:
                        return f"stated substitution disagrees on {k}"
            return None
        if line.rule == "mp":
            if len(line.refs) != 2:
                return "modus ponens takes two references"
            minor = _ref(d, num, line.refs[0])
            major = _ref(d, num, line.refs[1])
            if major != Implies(minor, line.formula):
                return "major premise is not (minor -> this line)"
            return None
        if line.rule == "nec":
            if len(line.refs) != 1:
                return "necessitation takes one reference"
            prem = _ref(d, num, line.refs[0])
            if line.formula != Box(prem):
                return "line is not the boxed premise"
            return None
        if line.rule == "taut":
            if line.refs:
                return "tautology instances take no references"
            if not is_tautology_instance(line.formula):
                return "classical skeleton is not a tautology"
            return None
        if line.rule == "equiv":
            if len(line.refs) != 2:
                return "equivalence replacement takes two references"
            src = _ref(d, num, line.refs[0])
            eq = _ref(d, num, line.refs[1])
            if not isinstance(eq, Iff):
                return "second reference must be a biconditional"
            if not replaces(src, line.formula, eq.left, eq.right):
                return "line is not the source with equivalent parts swapped"
            return None
        return f"unknown rule {line.rule!r}"
    except ProofError as exc:
        return str(exc)


class CrossReport(Record):
    __slots__ = _fields = ("name", "accepted", "model_valid")

    def __init__(self, name: str, accepted: bool, model_valid: bool | None):
        _set(self, "name", name)
        _set(self, "accepted", accepted)
        _set(self, "model_valid", model_valid)

    @property
    def sound(self) -> bool:
        return not (self.accepted and self.model_valid is False)


def cross_validate(d: Derivation, state) -> CrossReport:
    """Evaluate an accepted weak-logic derivation's target in the model.

    An accepted derivation whose target is not model-valid would be a
    soundness bug; the report flags it and must never occur.
    """
    from .evaluator import valid as model_valid

    if d.logic != "DmBL*":
        raise ProofError("cross-validation applies to DmBL* derivations")
    verdict = check(d)
    if not verdict.ok:
        return CrossReport(name=d.name, accepted=False, model_valid=None)
    return CrossReport(name=d.name, accepted=True,
                       model_valid=model_valid(state, d.target))


# --- proof-script files ---------------------------------------------------------

_ABSENT = object()


def _field(data, key: str, kind: type, where: str, default=_ABSENT):
    """``data[key]`` checked to be a ``kind``; ``default`` if it is absent."""
    if not isinstance(data, dict):
        raise ProofError(f"{where} is not a JSON object")
    value = data.get(key, default)
    if value is _ABSENT:
        raise ProofError(f"{where} has no {key!r}")
    if not isinstance(value, kind):
        raise ProofError(f"{where} has a {key!r} that is not a {kind.__name__}")
    return value


def derivation_from_dict(data: dict, atoms=None) -> Derivation:
    lines = []
    for num, entry in enumerate(_field(data, "lines", list, "proof script"), 1):
        where = f"proof line {num}"
        refs = _field(entry, "refs", list, where, [])
        if any(type(r) is not int for r in refs):
            raise ProofError(f"{where} has a reference that is not an integer")
        subst = _field(entry, "subst", dict, where, {})
        if any(not isinstance(v, str) for v in subst.values()):
            raise ProofError(f"{where} has a substitution that is not a string")
        lines.append(Line(
            formula=parse(_field(entry, "formula", str, where), atoms),
            rule=_field(entry, "rule", str, where),
            refs=tuple(refs),
            subst={k: parse(v, atoms) for k, v in subst.items()} or None,
        ))
    return Derivation(
        logic=_field(data, "logic", str, "proof script", "DmBL*"),
        lines=tuple(lines),
        target=parse(_field(data, "target", str, "proof script"), atoms),
        name=_field(data, "name", str, "proof script", ""),
    )


def derivation_to_dict(d: Derivation) -> dict:
    lines = []
    for line in d.lines:
        entry: dict = {"formula": to_text(line.formula), "rule": line.rule}
        if line.refs:
            entry["refs"] = list(line.refs)
        if line.subst:
            entry["subst"] = {k: to_text(v) for k, v in sorted(line.subst.items())}
        lines.append(entry)
    return {"name": d.name, "logic": d.logic, "target": to_text(d.target),
            "lines": lines}


def load_derivation(path) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or encoding, too deep
            raise ProofError(f"cannot read proof script {path}: {exc}") from None
    return derivation_from_dict(data)


def corpus_dir():
    """Directory of the shipped derivation scripts."""
    from importlib.resources import files

    return files("dmbl") / "corpus"


def load_corpus() -> list[Derivation]:
    out = []
    for entry in sorted(corpus_dir().iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".json"):
            out.append(derivation_from_dict(json.loads(entry.read_text())))
    return out
