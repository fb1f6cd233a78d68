"""Assignment of formulas to world sets, validity, and diagnostics.

Modal accessibility is total, so necessity is degenerate: a boxed formula
denotes the full set when its body does and the empty set otherwise.  A
box-free formula is a theorem of the weak logic exactly when its value is
the full set; for modal formulas the same test is model-validity only and
is flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import (And, Atom, Bot, Box, Cond, Formula, Implies, Not, Or,
                      Top, expand, is_box_free)
from .model import ModelError, ModelState
from .worlds import PropSet


class EvaluationError(ModelError):
    pass


@dataclass(frozen=True)
class Valuation:
    formula: Formula
    value: PropSet
    level: int


@dataclass(frozen=True)
class Decision:
    formula: Formula
    valid: bool
    box_free: bool

    @property
    def verdict(self) -> str:
        if self.box_free:
            return "theorem" if self.valid else "not-a-theorem"
        return "model-valid" if self.valid else "model-invalid"

    @property
    def caveat(self) -> Optional[str]:
        if self.box_free:
            return None
        return ("formula is not box-free: validity is relative to this model, "
                "not a theoremhood decision")


def _eval(state: ModelState, g: Formula) -> PropSet:
    # returns a set at the state's top level as of return time; conditional
    # subterms may grow the state, so earlier values get re-lifted.
    if isinstance(g, Top):
        return state.full()
    if isinstance(g, Bot):
        return state.empty()
    if isinstance(g, Atom):
        try:
            return state.h_at(g.name, state.top)
        except ModelError as exc:
            raise EvaluationError(str(exc)) from None
    if isinstance(g, Not):
        return _eval(state, g.body).complement()
    if isinstance(g, (And, Or, Implies)):
        a = _eval(state, g.left)
        b = _eval(state, g.right)
        a = state.lift(a, b.level)
        if isinstance(g, And):
            return a & b
        if isinstance(g, Or):
            return a | b
        return a.complement() | b
    if isinstance(g, Box):
        v = _eval(state, g.body)
        return state.full(v.level) if v.is_full else state.empty(v.level)
    if isinstance(g, Cond):
        return state.ensure(_eval(state, g.cons), _eval(state, g.ante))
    raise EvaluationError(f"cannot evaluate node {type(g).__name__}; expand first")


def assign(state: ModelState, f: Formula) -> Valuation:
    """Bottom-up value of ``f``; conditionals grow the state as needed.

    Deterministic: the same state and formula give the same value, at the
    state's final top level.
    """
    v = _eval(state, expand(f))
    v = state.lift(v, state.top)
    return Valuation(formula=f, value=v, level=v.level)


def valid(state: ModelState, f: Formula) -> bool:
    """True when the formula's value is the full set."""
    return assign(state, f).value.is_full


def decide(state: ModelState, f: Formula) -> Decision:
    """Validity plus the theoremhood reading for box-free formulas."""
    return Decision(formula=f, valid=valid(state, f), box_free=is_box_free(f))


def independent(state: ModelState, phi: Formula, psi: Formula) -> bool:
    """Whether ``psi`` is logically independent of ``phi`` in this model.

    Holds exactly when conditioning ``psi`` on ``phi`` leaves its value
    unchanged, which matches validity of the boxed biconditional that
    defines the independence connective.
    """
    vpsi = assign(state, psi).value
    vphi = assign(state, phi).value
    return state.ensure(vpsi, vphi) == state.lift(vpsi, state.top)


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
    outside = state.ensure(b, a) & state.lift(a, state.top).complement()
    return state.image_test(outside, 0) is None


@dataclass(frozen=True)
class B6Report:
    """Symmetry probe for independence, plus the optional nesting probe."""

    forward: bool                 # psi independent of phi
    backward: bool                # phi independent of psi
    star_left: Optional[str]      # ((eta|psi)|phi) value, as sorted indices
    star_right: Optional[str]     # (eta | phi /\ psi) value
    star_equal: Optional[bool]

    @property
    def symmetric(self) -> bool:
        return self.forward == self.backward


def diagnose_b6(state: ModelState, phi: Formula, psi: Formula,
                eta: Optional[Formula] = None) -> B6Report:
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
        left = state.lift(left, state.top)
        right = state.lift(right, state.top)
        star_equal = left == right
        star_left = ",".join(map(str, left.indices()))
        star_right = ",".join(map(str, right.indices()))
    return B6Report(forward=forward, backward=backward, star_left=star_left,
                    star_right=star_right, star_equal=star_equal)
