"""Exact-rational probabilities over the constructed model.

A base measure assigns nonnegative rationals summing to one to the level-0
worlds.  Each construction step extends it: a new world ``(x, y)`` in a
block ``Pi x Gamma`` weighs ``P(x) P(y) / P(Gamma)``, and ``(x, y)`` in
``Gamma x Pi`` weighs ``P(x) P(y) / P(Pi)``.  The extension preserves the
weight of every embedded set, so formula probabilities are level-free.
Each level is stored as integer numerators over one shared integer
denominator, so the extension runs on plain ``int`` products and sums and
``Fraction`` appears only where weights enter and leave.  A query extends
the stored levels only up to the one below its set's level and reads the
set's mass off it by rows: row ``x`` adds ``w[x]`` times its partners'
weights in the set, scaled once per block half.  The set's level hands
it as triples ``(k, pattern, rows)`` (``Level.row_groups``): the rows
``rows`` of half ``k ^ 1`` all read ``pattern`` over half ``k``, so each
triple costs one product.  On a wide level, a rank-one run of rows, as
every run of a conditional's value ``S | T(S)`` is, makes one triple.
A new measure stores level 0 alone, so attaching one to a wide model
allocates nothing: a level is stored when a read needs it, or when
``extend_to`` asks for it.
A base measure with zeros is read as the limit under a vanishing uniform
perturbation eps: ``init_measure`` then picks the same extension over
leading terms ``(order, coeff)``, where products add orders, sums keep the
lowest order, and the coefficients are integer numerators over the same
kind of shared denominators.  ``prob`` and ``bayes_check`` read either
measure alike, and ``limit_prob`` is ``prob`` over ``init_measure``.  All
arithmetic is exact; there is no floating point in this module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import compress

from .evaluator import _eval
from .formula import And, Cond, Formula
from .model import ModelError, ModelState
from .record import Record, _set

_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class MeasureError(ModelError):
    pass


def _weigh(weights: list, bits: int):
    """The total of ``weights`` at the set bits of ``bits``."""
    return sum(compress(weights, format(bits, "b")[::-1].encode().translate(_FLAGS)))


class BaseMeasure(Record):
    """Rational weights on the level-0 worlds, summing to one."""

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: tuple[Fraction, ...]):
        _set(self, "weights", weights)
        if not all(isinstance(w, Fraction) or type(w) is int for w in self.weights):
            raise MeasureError("weights must be Fractions or ints")
        if any(w < 0 for w in self.weights):
            raise MeasureError("negative weight")
        if sum(self.weights, Fraction(0)) != 1:
            raise MeasureError("weights must sum to exactly 1")

    @property
    def strictly_positive(self) -> bool:
        return all(self.weights)

    @classmethod
    def uniform(cls, state: ModelState) -> "BaseMeasure":
        n = state.width(0)
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_weights(cls, weights) -> "BaseMeasure":
        return cls(tuple(Fraction(w) for w in weights))


class _Leading:
    """Leading term ``coeff * eps**order`` of a weight positive for small eps.

    ``coeff`` is an integer numerator over its level's shared denominator.
    """

    __slots__ = ("order", "coeff")

    def __init__(self, order: int, coeff: int):
        self.order = order
        self.coeff = coeff

    def __add__(self, other: "_Leading") -> "_Leading":
        # both summands are positive: the lower order wins, nothing cancels
        if self.order != other.order:
            return self if self.order < other.order else other
        return _Leading(self.order, self.coeff + other.coeff)

    def __radd__(self, zero) -> "_Leading":
        return self  # ``sum`` starts from the int 0

    def __mul__(self, other: "_Leading") -> "_Leading":
        return _Leading(self.order + other.order, self.coeff * other.coeff)


class MeasureState:
    """Per-level world weights extending a base measure.

    Level ``n`` is stored as integer numerators over one shared integer
    denominator ``D_n``.  ``D_0`` is the lcm of the base denominators; step
    ``n`` scales it by ``L_n``, the lcm of the step's block sums, so a new
    world ``(x, y)`` gets the integer numerator ``w[x] w[y] (L_n // s)``,
    ``s`` being the opposite block's sum, over ``D_{n+1} = D_n L_n``.
    A set at level ``n >= 1`` is weighed from level ``n - 1`` by rows, as
    ``sum_k (L_n // s_k) sum_{x pairing with half k} w[x] sum_{y in half k,
    (x, y) in set} w[y]``, so ``weight_of`` stores levels only up to
    ``n - 1``.  A new measure stores level 0 only; ``extend_to`` stores the
    levels through one for ``level_weights``, which reads stored levels
    alone.  Fractions appear only at the boundary: the base weights in and
    ``weight_of``/``level_weights`` out.  Both paths take the step's halves
    and factors from ``_step`` and ``_scale``, so ``_LeadingMeasure`` runs
    them unchanged over leading terms.  Extension and the per-step memo are
    single-owner like the model itself.
    """

    def __init__(self, state: ModelState, base: BaseMeasure):
        if len(base.weights) != state.width(0):
            raise MeasureError(
                f"measure has {len(base.weights)} weights for "
                f"{state.width(0)} base worlds")
        self.base = base
        den = math.lcm(*(w.denominator for w in base.weights))
        self._levels: list[list] = [
            [w.numerator * (den // w.denominator) for w in base.weights]]
        self._denoms: list[int] = [den]
        self._steps: dict = {}

    def extended_through(self) -> int:
        return len(self._levels) - 1

    def level_weights(self, n: int) -> list[Fraction]:
        den = self._stored(n)
        return [Fraction(x, den) for x in self._levels[n]]

    def _stored(self, n: int) -> int:
        """Stored level ``n``'s shared denominator."""
        if not 0 <= n <= self.extended_through():
            raise MeasureError(
                f"level {n} is not stored (levels 0 to {self.extended_through()} "
                f"are): extend_to(state, {n}) stores it")
        return self._denoms[n]

    def extend_to(self, state: ModelState, level: int) -> None:
        while self.extended_through() < level:
            self._extend_one(state)

    def _scale(self, sums: list) -> tuple:
        """The level scale ``L`` and the factor ``L / s`` of each block sum."""
        scale = math.lcm(*sums)
        return scale, [scale // s for s in sums]

    def _step(self, state: ModelState, n: int) -> tuple:
        """Level ``n + 1`` over the stored level ``n``: its halves' weights,
        numbered as in ``Level.row_halves``, the level scale and each half's
        factor.  Memoized per level: repeated reads share it."""
        if n in self._steps:
            return self._steps[n]
        if n >= state.top:
            raise MeasureError(f"level {n + 1} not built in the model")
        w = self._levels[n]
        lvl = state.level(n + 1)
        halves = [[w[x] for x in half] for block in lvl.blocks for half in block]
        sums = [sum(h) for h in halves]
        if 0 in sums:
            raise MeasureError(
                "zero-weight block: extension needs a strictly positive "
                "base measure (init_measure reads one with zeros as a limit)")
        self._steps[n] = (halves, *self._scale(sums))
        return self._steps[n]

    def _extend_one(self, state: ModelState) -> None:
        """Extend by one level, row by row: row ``x`` scales ``w[x]`` by its
        half's factor once and multiplies that into its partners' weights."""
        n = self.extended_through()
        halves, scale, factors = self._step(state, n)
        w = self._levels[n]
        out: list = []
        # a Pi row pairs with its Gamma half and divides by its sum
        for x, k in state.level(n + 1).row_halves:
            out += map((w[x] * factors[k]).__mul__, halves[k])
        self._levels.append(out)
        self._denoms.append(self._denoms[n] * scale)

    def _mass(self, state: ModelState, value) -> tuple:
        """``value``'s mass as ``(numerator, denominator)``.

        Level 0 sums its stored weights.  Above it, each row meeting the
        set adds ``w[x]`` times its partners' weights in the set, and each
        half's total is scaled by the half's factor once.  The rows come as
        ``Level.row_groups`` triples ``(k, pattern, rows)``: a triple adds
        the weight of ``rows`` in half ``k ^ 1`` times that of ``pattern`` in
        half ``k``, one product.
        """
        n = value.level
        if n == 0:
            return _weigh(self._levels[0], value.mask), self._denoms[0]
        self.extend_to(state, n - 1)
        halves, scale, factors = self._step(state, n - 1)
        totals = [0] * len(halves)
        for k, pattern, rows in state.level(n).row_groups(value.mask):
            totals[k] += _weigh(halves[k ^ 1], rows) * _weigh(halves[k], pattern)
        mass = sum(f * t for f, t in zip(factors, totals) if t)
        return mass, self._denoms[n - 1] * scale

    def weight_of(self, state: ModelState, value) -> Fraction:
        return Fraction(*self._mass(state, value))


class _LeadingMeasure(MeasureState):
    """The same extension over leading terms, for a base with zeros.

    A block sum ``s`` leads with ``coeff * eps**order``, so the level scale
    is the lcm of the sums' coefficients and the factor of ``s`` is
    ``(scale // coeff) * eps**-order``.
    """

    def __init__(self, state: ModelState, base: BaseMeasure):
        super().__init__(state, base)
        n = len(base.weights)
        den = math.lcm(self._denoms[0], n)
        up = den // self._denoms[0]
        self._levels = [[_Leading(0, x * up) if x else _Leading(1, den // n)
                         for x in self._levels[0]]]
        self._denoms = [den]

    def _scale(self, sums: list) -> tuple:
        scale = math.lcm(*(s.coeff for s in sums))
        return scale, [_Leading(-s.order, scale // s.coeff) for s in sums]

    def level_weights(self, n: int) -> list[Fraction]:
        """The limits of level ``n``'s weights: each coefficient at order 0."""
        den = self._stored(n)
        return [Fraction(x.coeff, den) if x.order == 0 else Fraction(0)
                for x in self._levels[n]]

    def weight_of(self, state: ModelState, value) -> Fraction:
        """The limit of ``value``'s weight: its coefficient at order 0."""
        total, den = self._mass(state, value)
        if value.is_empty or total.order > 0:
            return Fraction(0)
        return Fraction(total.coeff, den)


def init_measure(state: ModelState, pi: BaseMeasure) -> MeasureState:
    """Attach ``pi`` to the model, storing level 0 only: reads extend it.

    A base with zeros is read as the limit under a vanishing uniform
    perturbation (``_LeadingMeasure``).
    """
    return MeasureState(state, pi) if pi.strictly_positive else _LeadingMeasure(state, pi)


def prob(state: ModelState, m: MeasureState, f: Formula) -> Fraction:
    """Exact probability of a formula: the weight of its value set, read at
    the value's natural level (extension keeps an embedded set's weight)."""
    return m.weight_of(state, _eval(state, f))


BayesResult = namedtuple("BayesResult", ("lhs", "rhs", "equal"))


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
    This is ``prob`` under ``init_measure``, which runs the leading terms
    only for a base with zeros: a positive base's limit is its value.
    """
    return prob(state, init_measure(state, pi), f)
