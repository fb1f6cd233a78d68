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
from itertools import islice


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
    # the node classes are final: each is told by identity, commonest first
    t = type(f)
    if t is Atom or t is Top or t is Bot:
        return ()
    if t is Cond:
        return (f.cons, f.ante)
    if t is Not or t is Box or t is Diamond:
        return (f.body,)
    if t is And or t is Or or t is Implies or t is Iff:
        return (f.left, f.right)
    if t is Indep:
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
    if isinstance(f, Iff):
        a, b = expand(f.left), expand(f.right)
        return And(Implies(a, b), Implies(b, a))
    if isinstance(f, Diamond):
        return Not(Box(Not(expand(f.body))))
    if isinstance(f, Indep):
        a, b = expand(f.lhs), expand(f.rhs)
        c = Cond(a, b)
        return Box(And(Implies(c, a), Implies(a, c)))
    return rebuild(f, tuple(expand(c) for c in children(f)))


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
    stack = [f]
    while stack:
        t = type(g := stack.pop())
        if t is Box or t is Diamond or t is Indep:
            return False
        stack += children(g)
    return True


# --- parsing ---------------------------------------------------------------

# One match per token and the whitespace after it: a connective, a
# parenthesis, the bar or an identifier in the group, or any other
# character, which leaves the group empty.  Scans start past leading
# whitespace, so no character is skipped by a failed match.
_TOKEN_RE = re.compile(r"(?:(<->|->|<>|\[\]|/\\|\\/|[~*|()]|[A-Za-z_][A-Za-z0-9_]*)|\S)\s*")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _offset(text: str, i: int) -> int:
    """Character offset of token ``i`` of ``text``, found only for an error."""
    matches = _TOKEN_RE.finditer(text, len(text) - len(text.lstrip()))
    m = next(islice(matches, i, None), None)
    return len(text) if m is None else m.start()


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then ``""`` for the end of input."""
    tokens = _TOKEN_RE.findall(text, len(text) - len(text.lstrip()))
    if "" in tokens:
        bad = _offset(text, tokens.index(""))
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    tokens.append("")
    return tokens


# Deepest nesting the parser accepts: each ``~``, ``[]``, ``<>``, ``(`` and
# binary connective opens one level.  The parser and the recursive passes
# over the tree (expansion, evaluation, printing) need a few interpreter
# frames per level, so the limit keeps them well inside Python's default
# recursion limit.
MAX_DEPTH = 100

_PREFIX = {"~": Not, "[]": Box, "<>": Diamond}

# Precedence levels run from 0 (``*``) to 5 (the prefixes), for the parser
# and the printer alike; a node printed where a higher level is required is
# parenthesized.  Each binary connective gives its symbol, its level and its
# operands' required levels: the right operand of a left-associative one and
# the left of ``->`` sit one higher.
_BINARY = {Indep: (" * ", 0, 0, 1), Iff: (" <-> ", 1, 1, 2), Implies: (" -> ", 2, 3, 2),
           Or: (" \\/ ", 3, 3, 4), And: (" /\\ ", 4, 4, 5)}
_UNARY = {node: tok for tok, node in _PREFIX.items()}
_LEVEL_UNARY = 5
# the parser's reading of ``_BINARY``: token -> (node, level, right operand's level)
_INFIX = {symbol.strip(): (node, at, right)
          for node, (symbol, at, _, right) in _BINARY.items()}
# every token that is not an identifier, end of input included
_SYMBOLS = frozenset((*_PREFIX, *_INFIX, "|", "(", ")", ""))


class _Parser:
    def __init__(self, text: str, atoms):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.atoms = frozenset(atoms) if atoms is not None else None

    def take(self, tok: str, expected: tuple[str, ...]) -> None:
        got = self.tokens[self.pos]
        if got != tok:
            raise ParseError(f"unexpected token {got or 'end of input'!r}",
                             _offset(self.text, self.pos), expected)
        self.pos += 1

    def nest(self) -> None:
        """Consume the current token, opening one level of nesting."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             _offset(self.text, self.pos))
        self.pos += 1

    def formula(self, level: int = 0) -> Formula:
        """A formula whose binary connectives all sit at ``level`` or tighter.

        Each right operand takes every connective tighter than its own, so
        within one call the connectives only get looser.  A change of
        connective restores the nesting depth the call started at, so each
        chain counts only its own connectives.
        """
        depth = self.depth
        out = self.unary()
        last = None
        while (tok := self.tokens[self.pos]) in _INFIX:
            node, at, right = _INFIX[tok]
            if at < level:
                break
            if tok != last:
                self.depth, last = depth, tok
            self.nest()
            out = node(out, self.formula(right))
        self.depth = depth
        return out

    def unary(self) -> Formula:
        node = _PREFIX.get(self.tokens[self.pos])
        if node is None:
            return self.atom_expr()
        self.nest()
        out = node(self.unary())
        self.depth -= 1
        return out

    def atom_expr(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok not in _SYMBOLS:
            self.pos += 1
            if tok == "T":
                return TOP
            if tok == "F":
                return BOT
            if self.atoms is not None and tok not in self.atoms:
                raise UnknownAtomError(tok, _offset(self.text, self.pos - 1))
            return Atom(tok)
        if tok == "(":
            self.nest()
            out = self.formula()
            if self.tokens[self.pos] == "|":
                self.pos += 1
                out = Cond(out, self.formula())
                self.take(")", (")",))
            else:
                self.take(")", (")", "|"))
            self.depth -= 1
            return out
        raise ParseError(
            f"unexpected token {tok or 'end of input'!r}",
            _offset(self.text, self.pos),
            ("T", "F", "identifier", "(", *_PREFIX),
        )


def parse(text: str, atoms=None) -> Formula:
    """Parse ``text`` into a formula.

    When ``atoms`` is given, identifiers outside it raise
    :class:`UnknownAtomError`.  ``T`` and ``F`` are always the constants.
    """
    p = _Parser(text, atoms)
    out = p.formula()
    tok = p.tokens[p.pos]
    if tok:
        raise ParseError(f"trailing input {tok!r}", _offset(text, p.pos), ("end of input",))
    return out


# --- printing --------------------------------------------------------------

def _render(f: Formula, required: int) -> str:
    t = type(f)
    if t is Atom:
        return f.name
    if t is Cond:
        return f"({_render(f.cons, 0)} | {_render(f.ante, 0)})"
    if t is Top or t is Bot:
        return "T" if t is Top else "F"
    if t in _UNARY:
        text, level = _UNARY[t] + _render(f.body, _LEVEL_UNARY), _LEVEL_UNARY
    elif t in _BINARY:
        symbol, level, left, right = _BINARY[t]
        a, b = children(f)
        text = _render(a, left) + symbol + _render(b, right)
    else:
        raise TypeError(f"not a formula: {f!r}")
    return "(" + text + ")" if level < required else text


def to_text(f: Formula) -> str:
    """Render a formula; ``parse(to_text(f))`` returns ``f`` verbatim."""
    return _render(f, 0)
