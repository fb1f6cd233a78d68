"""Assignment of formulas to world sets, validity, and diagnostics.

Modal accessibility is total, so necessity is degenerate: a boxed formula
denotes the full set when its body does and the empty set otherwise.  A
box-free formula is a theorem of the weak logic exactly when its value is
the full set; for modal formulas the same test is model-validity only and
is flagged as such.  The derived connectives ``<->``, ``<>`` and ``*`` are
evaluated as defined, each operand once, without expanding them.
"""

from __future__ import annotations

from .formula import (And, Atom, Bot, Box, Cond, Diamond, Formula, Iff, Implies,
                      Indep, Not, Or, Top, is_box_free)
from .model import ModelError, ModelState
from .record import Record, _set
from .worlds import PropSet


class EvaluationError(ModelError):
    pass


class Valuation(Record):
    __slots__ = _fields = ("formula", "value", "level")

    def __init__(self, formula: Formula, value: PropSet, level: int):
        _set(self, "formula", formula)
        _set(self, "value", value)
        _set(self, "level", level)


class Decision(Record):
    __slots__ = _fields = ("formula", "valid", "box_free")

    def __init__(self, formula: Formula, valid: bool, box_free: bool):
        _set(self, "formula", formula)
        _set(self, "valid", valid)
        _set(self, "box_free", box_free)

    @property
    def verdict(self) -> str:
        if self.box_free:
            return "theorem" if self.valid else "not-a-theorem"
        return "model-valid" if self.valid else "model-invalid"

    @property
    def caveat(self) -> str | None:
        if self.box_free:
            return None
        return ("formula is not box-free: validity is relative to this model, "
                "not a theoremhood decision")


def _eval(state: ModelState, g: Formula) -> PropSet:
    # returns a set at its natural level: T, F, atoms and modal formulas at
    # level 0, a connective at the higher of its operands' levels, and a
    # conditional at the higher of those and its defining level.  Conditional
    # subterms may grow the state; only assign lifts the result to the top.
    # The node classes are final, so each is told by identity, commonest first
    t = type(g)
    if t is Atom:
        try:
            return state.h(g.name)
        except ModelError as exc:
            raise EvaluationError(str(exc)) from None
    if t is Cond:
        return state.ensure(_eval(state, g.cons), _eval(state, g.ante))
    if t is Not:
        return _eval(state, g.body).complement()
    if t is And or t is Or or t is Implies or t is Iff:
        a = _eval(state, g.left)
        b = _eval(state, g.right)
        if a.level < b.level:
            a = state.lift(a, b.level)
        elif b.level < a.level:
            b = state.lift(b, a.level)
        if t is And:
            return a & b
        if t is Or:
            return a | b
        if t is Implies:
            return a.complement() | b
        return ((a - b) | (b - a)).complement()
    if t is Top:
        return state.full(0)
    if t is Bot:
        return state.empty(0)
    if t is Box or t is Diamond:
        v = _eval(state, g.body)
        holds = v.is_full if t is Box else not v.is_empty
        return state.full(0) if holds else state.empty(0)
    if t is Indep:
        # []((lhs|rhs) <-> lhs): conditioning on rhs leaves lhs unchanged
        lhs = _eval(state, g.lhs)
        c = state.ensure(lhs, _eval(state, g.rhs))
        same = c == state.lift(lhs, c.level)
        return state.full(0) if same else state.empty(0)
    raise EvaluationError(f"cannot evaluate node {t.__name__}")


def assign(state: ModelState, f: Formula) -> Valuation:
    """Bottom-up value of ``f``, lifted to the state's final top level.

    Conditionals grow the state as needed.  Subformula values stay at their
    natural levels; the lift serves reports that list top-level worlds,
    while validity and probabilities read the value at its own level.
    Deterministic: the same state and formula give the same value.
    """
    v = state.lift(_eval(state, f), state.top)
    return Valuation(formula=f, value=v, level=v.level)


def valid(state: ModelState, f: Formula) -> bool:
    """True when the formula's value, at its own level, is the full set."""
    return _eval(state, f).is_full


def decide(state: ModelState, f: Formula) -> Decision:
    """Validity plus the theoremhood reading for box-free formulas."""
    return Decision(formula=f, valid=valid(state, f), box_free=is_box_free(f))


def independent(state: ModelState, phi: Formula, psi: Formula) -> bool:
    """Whether ``psi`` is logically independent of ``phi`` in this model.

    That is validity of ``psi * phi``, short for ``[]((psi|phi) <-> psi)``.
    """
    return valid(state, Indep(psi, phi))


def lewis_escape(state: ModelState, a: PropSet, b: PropSet) -> bool:
    """Whether the conditional of ``b`` given ``a`` leaves the base algebra.

    Requires level-0 sets with ``{} < b < a < everything``.  Returns True
    when the part of the conditional outside ``a`` has no preimage at
    level 0, the structural escape from probability-collapse arguments.
    """
    if a.level != 0 or b.level != 0:
        raise EvaluationError("escape test takes level-0 sets")
    if b.is_empty or not b.issubset(a) or b == a or a.is_full:
        raise EvaluationError("escape test needs {} < b < a < full, strictly")
    c = state.ensure(b, a)
    outside = c & state.lift(a, c.level).complement()
    return state.image_test(outside, 0) is None


class B6Report(Record):
    """Symmetry probe for independence, plus the optional nesting probe.

    The nesting values are top-level sets, listed by ``PropSet.index_text``.
    """

    __slots__ = _fields = ("forward", "backward", "star_left", "star_right", "star_equal")

    def __init__(self, forward: bool, backward: bool, star_left: str | None,
                 star_right: str | None, star_equal: bool | None):
        _set(self, "forward", forward)          # psi independent of phi
        _set(self, "backward", backward)        # phi independent of psi
        _set(self, "star_left", star_left)      # ((eta|psi)|phi) value, as sorted indices
        _set(self, "star_right", star_right)    # (eta | phi /\ psi) value
        _set(self, "star_equal", star_equal)

    @property
    def symmetric(self) -> bool:
        return self.forward == self.backward


def diagnose_b6(state: ModelState, phi: Formula, psi: Formula,
                eta: Formula | None = None) -> B6Report:
    """Report whether independence is symmetric for the given pair.

    Only the weak forms of symmetry are guaranteed here, so the report
    asserts nothing: it computes both orientations, and optionally whether
    nesting a conditional equals conditioning on the conjunction.
    """
    forward = independent(state, phi, psi)
    backward = independent(state, psi, phi)
    star_left = star_right = None
    star_equal = None
    if eta is not None:
        left = assign(state, Cond(Cond(eta, psi), phi)).value
        right = assign(state, Cond(eta, And(phi, psi))).value
        left = state.lift(left, right.level)
        star_equal = left == right
        star_left = left.index_text()
        star_right = right.index_text()
    return B6Report(forward=forward, backward=backward, star_left=star_left,
                    star_right=star_right, star_equal=star_equal)
