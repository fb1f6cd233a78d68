"""Exact-rational probabilities over the constructed model.

A base measure assigns nonnegative rationals summing to one to the level-0
worlds.  Each construction step extends it: a new world ``(x, y)`` in a
block ``Pi x Gamma`` weighs ``P(x) P(y) / P(Gamma)``, and ``(x, y)`` in
``Gamma x Pi`` weighs ``P(x) P(y) / P(Pi)``.  The extension preserves the
weight of every embedded set, so formula probabilities are level-free.
A base measure with zeros is read through ``limit_prob``: the same
extension runs over leading terms ``(order, coeff)`` in a vanishing uniform
perturbation eps, where products add orders, quotients subtract them and
sums keep the lowest order.  All arithmetic is exact; there is no floating
point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .evaluator import assign
from .formula import And, Cond, Formula
from .model import ModelError, ModelState
from .worlds import bit_indices


class MeasureError(ModelError):
    pass


@dataclass(frozen=True)
class BaseMeasure:
    """Rational weights on the level-0 worlds, summing to one."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise MeasureError("negative weight")
        if sum(self.weights, Fraction(0)) != 1:
            raise MeasureError("weights must sum to exactly 1")

    @property
    def strictly_positive(self) -> bool:
        return all(w > 0 for w in self.weights)

    @classmethod
    def uniform(cls, state: ModelState) -> "BaseMeasure":
        n = state.width(0)
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_weights(cls, weights) -> "BaseMeasure":
        return cls(tuple(Fraction(w) for w in weights))


class _Leading:
    """Leading term ``coeff * eps**order`` of a weight positive for small eps."""

    __slots__ = ("order", "coeff")

    def __init__(self, order: int, coeff: Fraction):
        self.order = order
        self.coeff = coeff

    def __add__(self, other: "_Leading") -> "_Leading":
        # both summands are positive: the lower order wins, nothing cancels
        if self.order != other.order:
            return self if self.order < other.order else other
        return _Leading(self.order, self.coeff + other.coeff)

    def __radd__(self, zero) -> "_Leading":
        return self  # ``sum`` starts from Fraction(0)

    def __mul__(self, other: "_Leading") -> "_Leading":
        return _Leading(self.order + other.order, self.coeff * other.coeff)

    def __truediv__(self, other: "_Leading") -> "_Leading":
        return _Leading(self.order - other.order, self.coeff / other.coeff)


class MeasureState:
    """Per-level world weights extending a base measure.

    Extension is single-owner like the model itself; reads of already
    extended levels are pure.  The loop uses only ``+``, ``*`` and ``/`` on
    the weights, so ``limit_prob`` runs it over leading terms unchanged.
    """

    def __init__(self, state: ModelState, base: BaseMeasure):
        if len(base.weights) != state.width(0):
            raise MeasureError(
                f"measure has {len(base.weights)} weights for "
                f"{state.width(0)} base worlds")
        self.base = base
        self._levels: list[list[Fraction]] = [list(base.weights)]

    def extended_through(self) -> int:
        return len(self._levels) - 1

    def level_weights(self, n: int) -> list[Fraction]:
        return self._levels[n]

    def extend_to(self, state: ModelState, level: int) -> None:
        while self.extended_through() < level:
            self._extend_one(state)

    def _extend_one(self, state: ModelState) -> None:
        n = self.extended_through()
        if n >= state.top:
            raise MeasureError(f"level {n + 1} not built in the model")
        w = self._levels[n]
        ev = state.history[n]
        pi_sums = []
        ga_sums = []
        for p_mask, g_mask in ev.blocks:
            ps = sum((w[i] for i in bit_indices(p_mask)), Fraction(0))
            gs = sum((w[i] for i in bit_indices(g_mask)), Fraction(0))
            if ps == 0 or gs == 0:
                raise MeasureError(
                    "zero-weight block: extension needs a strictly positive "
                    "base measure (use the perturbation limit instead)")
            pi_sums.append(ps)
            ga_sums.append(gs)
        lvl = state.level(n + 1)
        out = []
        for i in range(lvl.width):
            l, r = lvl.pairs[i]
            bi = lvl.block_of[i]
            denom = ga_sums[bi] if i < lvl.split else pi_sums[bi]
            out.append(w[l] * w[r] / denom)
        self._levels.append(out)

    def weight_of(self, state: ModelState, value) -> Fraction:
        self.extend_to(state, value.level)
        w = self._levels[value.level]
        return sum((w[i] for i in value.indices()), Fraction(0))


def init_measure(state: ModelState, pi: BaseMeasure) -> MeasureState:
    """Attach ``pi`` to the model and extend it through the built levels."""
    m = MeasureState(state, pi)
    m.extend_to(state, state.top)
    return m


def prob(state: ModelState, m: MeasureState, f: Formula) -> Fraction:
    """Exact probability of a formula: the weight of its value set."""
    val = assign(state, f)
    return m.weight_of(state, val.value)


class BayesResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def bayes_check(state: ModelState, m: MeasureState, phi: Formula,
                psi: Formula) -> BayesResult:
    """Compare ``P((psi|phi)) P(phi)`` against ``P(phi /\\ psi)`` exactly."""
    lhs = prob(state, m, Cond(psi, phi)) * prob(state, m, phi)
    rhs = prob(state, m, And(phi, psi))
    return BayesResult(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def limit_prob(state: ModelState, pi: BaseMeasure, f: Formula) -> Fraction:
    """Probability under ``pi`` as the limit of vanishing perturbations.

    Under ``eps/n + (1 - eps) pi`` every weight is positive for eps in (0, 1),
    so the extension runs on leading terms ``coeff * eps**order``: a base
    weight ``w > 0`` is ``(0, w)`` and ``w = 0`` is ``(1, 1/n)``.  The limit
    is the value's coefficient at order 0, or 0 if its order is higher.
    """
    val = assign(state, f)
    m = MeasureState(state, pi)
    n = len(pi.weights)
    m._levels = [[_Leading(0, w) if w else _Leading(1, Fraction(1, n))
                  for w in pi.weights]]
    total = m.weight_of(state, val.value)
    if val.value.is_empty or total.order > 0:
        return Fraction(0)
    return total.coeff
