"""Formula language: syntax trees, ASCII parser/printer, and rewrites.

Connectives, tightest first: the prefixes ``~`` (not), ``[]`` (necessity),
``<>`` (possibility); then ``/\\``, ``\\/``, ``->`` (right associative),
``<->``, and ``*`` (logical independence).  A conditional is written
``(psi | phi)`` and always carries its own parentheses, which keeps the
bar unambiguous.  ``T`` and ``F`` are the constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class FormulaError(Exception):
    """Base class for formula-layer failures."""


class ParseError(FormulaError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(set(expected)))
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected one of: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownAtomError(FormulaError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown atom {name!r} at offset {offset}")


@dataclass(frozen=True)
class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    __slots__ = ("name",)
    name: str


@dataclass(frozen=True)
class Not(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class Cond(Formula):
    """The conditional ``(cons | ante)``: ``cons`` within the range of ``ante``."""

    __slots__ = ("cons", "ante")
    cons: Formula
    ante: Formula


@dataclass(frozen=True)
class Indep(Formula):
    """Logical independence ``lhs * rhs``, short for ``[]((lhs|rhs) <-> lhs)``."""

    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula


TOP = Top()
BOT = Bot()


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Top, Bot, Atom)):
        return ()
    if isinstance(f, (Not, Box, Diamond)):
        return (f.body,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    if isinstance(f, Cond):
        return (f.cons, f.ante)
    if isinstance(f, Indep):
        return (f.lhs, f.rhs)
    raise TypeError(f"not a formula: {f!r}")


def rebuild(f: Formula, parts: tuple[Formula, ...]) -> Formula:
    if isinstance(f, (Top, Bot, Atom)):
        return f
    return type(f)(*parts)


def subformulas(f: Formula):
    """Yield every subformula of ``f`` (preorder, including ``f`` itself)."""
    yield f
    for c in children(f):
        yield from subformulas(c)


def atoms_of(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def expand(f: Formula) -> Formula:
    """Eliminate ``<->``, ``<>`` and ``*`` in favour of the core connectives.

    ``a <-> b`` becomes ``(a -> b) /\\ (b -> a)``; ``<>a`` becomes
    ``~[]~a``; ``a * b`` becomes ``[]((a|b) <-> a)`` with the inner
    biconditional expanded as well.  The result is a fixed point.  The
    evaluator reads these connectives directly; ``expand`` serves only
    ``dmbl parse``, whose output repeats operands and so grows
    exponentially with nested ``<->`` or ``*`` (see ``expanded_size``).
    """
    if isinstance(f, (Top, Bot, Atom)):
        return f
    if isinstance(f, Iff):
        a, b = expand(f.left), expand(f.right)
        return And(Implies(a, b), Implies(b, a))
    if isinstance(f, Diamond):
        return Not(Box(Not(expand(f.body))))
    if isinstance(f, Indep):
        a, b = expand(f.lhs), expand(f.rhs)
        c = Cond(a, b)
        return Box(And(Implies(c, a), Implies(a, c)))
    parts = tuple(expand(c) for c in children(f))
    return rebuild(f, parts)


def expanded_size(f: Formula) -> int:
    """Node count of ``expand(f)``, in one pass without building it."""
    if isinstance(f, Iff):
        return 3 + 2 * (expanded_size(f.left) + expanded_size(f.right))
    if isinstance(f, Diamond):
        return 3 + expanded_size(f.body)
    if isinstance(f, Indep):
        return 6 + 4 * expanded_size(f.lhs) + 2 * expanded_size(f.rhs)
    return 1 + sum(map(expanded_size, children(f)))


def is_box_free(f: Formula) -> bool:
    """True when the formula contains no modal operator.

    ``[]``, ``<>`` and ``*`` are modal: independence abbreviates a boxed
    biconditional.  Equals the absence of ``[]`` from ``expand(f)``.
    """
    return not any(isinstance(g, (Box, Diamond, Indep)) for g in subformulas(f))


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<dia><>)
      | (?P<box>\[\])
      | (?P<and>/\\)
      | (?P<or>\\/)
      | (?P<not>~)
      | (?P<star>\*)
      | (?P<bar>\|)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest nesting the parser accepts: each ``~``, ``[]``, ``<>``, ``(`` and
# binary connective opens one level.  The parser and the recursive passes
# over the tree (expansion, evaluation, printing) need a few interpreter
# frames per level, so the limit keeps them well inside Python's default
# recursion limit.
MAX_DEPTH = 100

_PREFIX = {"not": Not, "box": Box, "dia": Diamond}


class _Parser:
    def __init__(self, text: str, atoms):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.atoms = frozenset(atoms) if atoms is not None else None

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str, expected: tuple[str, ...]):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1] or 'end of input'!r}", tok[2], expected)
        self.pos += 1
        return tok

    def nest(self) -> None:
        """Consume the current token, opening one level of nesting."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             self.peek()[2])
        self.pos += 1

    def formula(self) -> Formula:
        depth = self.depth
        out = self.iff()
        while self.peek()[0] == "star":
            self.nest()
            out = Indep(out, self.iff())
        self.depth = depth
        return out

    def iff(self) -> Formula:
        depth = self.depth
        out = self.imp()
        while self.peek()[0] == "iff":
            self.nest()
            out = Iff(out, self.imp())
        self.depth = depth
        return out

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[0] != "imp":
            return left
        self.nest()
        out = Implies(left, self.imp())
        self.depth -= 1
        return out

    def disj(self) -> Formula:
        depth = self.depth
        out = self.conj()
        while self.peek()[0] == "or":
            self.nest()
            out = Or(out, self.conj())
        self.depth = depth
        return out

    def conj(self) -> Formula:
        depth = self.depth
        out = self.unary()
        while self.peek()[0] == "and":
            self.nest()
            out = And(out, self.unary())
        self.depth = depth
        return out

    def unary(self) -> Formula:
        node = _PREFIX.get(self.peek()[0])
        if node is None:
            return self.atom_expr()
        self.nest()
        out = node(self.unary())
        self.depth -= 1
        return out

    def atom_expr(self) -> Formula:
        kind, value, offset = self.peek()
        if kind == "ident":
            self.pos += 1
            if value == "T":
                return TOP
            if value == "F":
                return BOT
            if self.atoms is not None and value not in self.atoms:
                raise UnknownAtomError(value, offset)
            return Atom(value)
        if kind == "lp":
            self.nest()
            out = self.formula()
            if self.peek()[0] == "bar":
                self.pos += 1
                out = Cond(out, self.formula())
                self.take("rp", (")",))
            else:
                self.take("rp", (")", "|"))
            self.depth -= 1
            return out
        raise ParseError(
            f"unexpected token {value or 'end of input'!r}",
            offset,
            ("T", "F", "identifier", "(", "~", "[]", "<>"),
        )


def parse(text: str, atoms=None) -> Formula:
    """Parse ``text`` into a formula.

    When ``atoms`` is given, identifiers outside it raise
    :class:`UnknownAtomError`.  ``T`` and ``F`` are always the constants.
    """
    p = _Parser(text, atoms)
    out = p.formula()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
    return out


# --- printing --------------------------------------------------------------

_LEVEL_INDEP = 0
_LEVEL_IFF = 1
_LEVEL_IMP = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UNARY = 5
_LEVEL_ATOM = 6


def _render(f: Formula, required: int) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Cond):
        return f"({_render(f.cons, _LEVEL_INDEP)} | {_render(f.ante, _LEVEL_INDEP)})"
    if isinstance(f, Not):
        text, level = "~" + _render(f.body, _LEVEL_UNARY), _LEVEL_UNARY
    elif isinstance(f, Box):
        text, level = "[]" + _render(f.body, _LEVEL_UNARY), _LEVEL_UNARY
    elif isinstance(f, Diamond):
        text, level = "<>" + _render(f.body, _LEVEL_UNARY), _LEVEL_UNARY
    elif isinstance(f, And):
        text = _render(f.left, _LEVEL_AND) + " /\\ " + _render(f.right, _LEVEL_AND + 1)
        level = _LEVEL_AND
    elif isinstance(f, Or):
        text = _render(f.left, _LEVEL_OR) + " \\/ " + _render(f.right, _LEVEL_OR + 1)
        level = _LEVEL_OR
    elif isinstance(f, Implies):
        text = _render(f.left, _LEVEL_IMP + 1) + " -> " + _render(f.right, _LEVEL_IMP)
        level = _LEVEL_IMP
    elif isinstance(f, Iff):
        text = _render(f.left, _LEVEL_IFF) + " <-> " + _render(f.right, _LEVEL_IFF + 1)
        level = _LEVEL_IFF
    elif isinstance(f, Indep):
        text = _render(f.lhs, _LEVEL_INDEP) + " * " + _render(f.rhs, _LEVEL_INDEP + 1)
        level = _LEVEL_INDEP
    else:
        raise TypeError(f"not a formula: {f!r}")
    if level < required:
        return "(" + text + ")"
    return text


def to_text(f: Formula) -> str:
    """Render a formula; ``parse(to_text(f))`` returns ``f`` verbatim."""
    return _render(f, _LEVEL_INDEP)
