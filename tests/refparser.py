"""The formula parser as it was before the one-scan tokenizer: one regex
match per token, ``(kind, text, offset)`` tuples.  Kept as the reference
the differential tests compare ``dmbl.formula.parse`` against."""

from __future__ import annotations

import re

from dmbl.formula import (BOT, MAX_DEPTH, TOP, And, Atom, Box, Cond, Diamond,
                          Formula, Iff, Implies, Indep, Not, Or, ParseError,
                          UnknownAtomError)

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


def reference_parse(text: str, atoms=None) -> Formula:
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
