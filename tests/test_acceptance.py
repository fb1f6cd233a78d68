"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every comparison is exact; there are no tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dmbl.evaluator import assign, decide, diagnose_b6, independent, lewis_escape, valid
from dmbl.formula import parse, to_text
from dmbl.model import (CapExceededError, ModelState, canonical_pairs)
from dmbl.probability import (BaseMeasure, MeasureState, bayes_check,
                              init_measure, limit_prob, prob)
from dmbl.proofs import check, cross_validate, load_corpus
from dmbl.worlds import PropSet

from genformulas import depth_two_corpus, random_formula
from test_evaluator import class_formula, theorem_suite, truth_table
from test_proofs import _mutate, _random_derivation

APP_TASKS = [0b011, 0b100, 0b110, 0b001, 0b101, 0b010]


@contextmanager
def criterion(n, label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {n:2d} [{label}]: FAIL")
        raise
    print(f"\ncriterion {n:2d} [{label}]: PASS "
          f"({time.monotonic() - started:.2f}s)")


def test_criterion_01_golden_three_world_fixture():
    with criterion(1, "three-world golden fixture"):
        started = time.monotonic()
        s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                                   task_list=APP_TASKS)
        m = MeasureState(s, BaseMeasure.from_weights(
            [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]))
        s.step()
        m.extend_to(s, 1)
        labels = s.base_labels
        assert [(labels[l], labels[r]) for l, r in s.level(1).pairs] == [
            ("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")]
        lift = lambda ids: s.lift(s.from_indices(0, ids), 1)
        assert s.f_eval(lift([0]), lift([0, 1])).indices() == [0, 2]
        assert s.f_eval(lift([1]), lift([0, 1])).indices() == [1, 3]
        assert s.f_eval(lift([2]), lift([2])) == s.full(1)
        assert m.level_weights(1) == [Fraction(1, 5), Fraction(3, 10),
                                      Fraction(1, 5), Fraction(3, 10)]
        assert time.monotonic() - started < 1.0


# --- criterion 2 -------------------------------------------------------------


def _family_steps(s):
    """History indices grouped by event family, oldest first."""
    out = {}
    t = s.top
    full = (1 << s.width(t)) - 1
    for i, ev in enumerate(s.history):
        lifted = s._lift_mask(ev.event, ev.level, t)
        key = min(lifted, lifted ^ full)
        out.setdefault(key, []).append(i)
    return out


def _check_family_exhaustive(s, step_idx):
    """Every conditional law, for every argument embedded at the step's base."""
    ev = s.history[step_idx]
    base = ev.level + 1
    bw = s.width(base)
    assert bw <= 14, "battery expects enumerable defining levels"
    a_base = PropSet(base, s.level(base).event_image_mask, bw)

    def aligned(x, y):
        lvl = max(x.level, y.level)
        return s.lift(x, lvl), s.lift(y, lvl)

    for orient in (a_base, a_base.complement()):
        singles = []
        for w in range(bw):
            singles.append(s.f_eval(PropSet(base, 1 << w, bw), orient))
        table = {}
        for c in range(1 << bw):
            b = PropSet(base, c, bw)
            fba = s.f_eval(b, orient)
            table[c] = fba
            a_l, f_l = aligned(orient, fba)
            b_l = s.lift(b, f_l.level)
            # containment gives the full set
            if not a_l.is_empty and a_l.issubset(b_l):
                assert f_l.is_full
            # the conditioned zone is untouched
            assert a_l & f_l == a_l & b_l
            # negation commutes
            assert s.f_eval(b.complement(), orient) == fba.complement()
            # weak symmetry and idempotence
            fba_other = s.f_eval(b, orient.complement())
            if f_l == b_l:
                assert s.lift(fba_other, f_l.level) == b_l
            assert s.f_eval(fba, orient) == fba
            assert s.f_eval(fba, orient.complement()) == fba
            # absorbing fix point
            assert f_l == (b_l & a_l) | (a_l.complement() & f_l)
            # finite additivity via the singleton decomposition
            acc = s.empty(fba.level)
            for w in range(bw):
                if c >> w & 1:
                    acc = acc | s.lift(singles[w], fba.level)
            assert acc == fba
        # union/intersection distribution, quadratic where affordable
        if bw <= 8:
            for c1 in range(1 << bw):
                for c2 in range(1 << bw):
                    u = s.f_eval(PropSet(base, c1 | c2, bw), orient)
                    i = s.f_eval(PropSet(base, c1 & c2, bw), orient)
                    assert u == table[c1] | table[c2]
                    assert i == table[c1] & table[c2]
        # the embedding transfers the map to every higher level
        for n in range(base, s.top):
            a_n = s.lift(orient, n)
            for c in range(1 << bw):
                b_n = s.lift(PropSet(base, c, bw), n)
                lhs = s.f_eval(s.lift(b_n, n + 1), s.lift(a_n, n + 1))
                rhs = s.f_eval(b_n, a_n)
                lhs, rhs = aligned(lhs, s.lift(rhs, n + 1) if rhs.level == n else rhs)
                assert lhs == rhs


def test_criterion_02_invariant_suite():
    with criterion(2, "conditional-map invariants, exhaustive"):
        started = time.monotonic()
        # one model per complement pair of the base algebra: after its step,
        # conditionals against both orientations are total at level 1
        for rep, _ in canonical_pairs(4):
            s = ModelState.from_atoms(["p", "q"])
            s.step(PropSet(0, rep, 4))
            for fam in _family_steps(s).values():
                _check_family_exhaustive(s, fam[-1])
        # one re-processing model, singleton events so every defining level
        # stays enumerable: {w0}, {w1}, then {w0} again (case 0)
        s = ModelState.from_atoms(["p", "q"])
        s.step(s.from_indices(0, [0]))
        s.step(s.lift(s.from_indices(0, [1]), 1))
        s.step(s.lift(s.from_indices(0, [0]), 2))
        assert s.history[2].case == 0
        assert [s.width(i) for i in range(4)] == [4, 6, 10, 14]
        for fam in _family_steps(s).values():
            for idx in fam:
                _check_family_exhaustive(s, idx)
        assert time.monotonic() - started < 60.0


def test_criterion_03_theorem_suite_both_modes():
    with criterion(3, "theorem suite, demand and canonical"):
        for mode in ("demand", "canonical"):
            s = ModelState.from_atoms(["p", "q"], schedule=mode)
            for text in theorem_suite():
                assert valid(s, parse(text)), (mode, text)
        # the full-symmetry-only shapes are exercised through the
        # diagnostic probe, never asserted
        s = ModelState.from_atoms(["p", "q"])
        rep = diagnose_b6(s, parse("p"), parse("(q|p)"))
        assert isinstance(rep.backward, bool)
        rep2 = diagnose_b6(s, parse("p"), parse("q"), parse("p \\/ q"))
        assert isinstance(rep2.star_equal, bool)


def test_criterion_04_probability_laws_random():
    with criterion(4, "probability laws, 200 random formulas x 5 measures"):
        started = time.monotonic()
        rng = random.Random(20240820)
        measures = []
        while len(measures) < 5:
            weights = [Fraction(rng.randrange(1, 12)) for _ in range(4)]
            total = sum(weights)
            measures.append(BaseMeasure.from_weights([w / total for w in weights]))
        pairs = []
        while len(pairs) < 100:
            phi = random_formula(rng, ["p", "q"], max_depth=3, cond_budget=2)
            psi = random_formula(rng, ["p", "q"], max_depth=3, cond_budget=1)
            s = ModelState.from_atoms(["p", "q"], max_worlds=4000, max_levels=10)
            try:
                for f in (phi, psi, parse(f"(({psi})|({phi}))")):
                    assign(s, f)
            except CapExceededError:
                continue
            pairs.append((phi, psi, s))
        independent_hits = 0
        for phi, psi, s in pairs:
            for pi in measures:
                m = init_measure(s, pi)
                p_phi = prob(s, m, phi)
                p_psi = prob(s, m, psi)
                p_and = prob(s, m, parse(f"(({phi})) /\\ (({psi}))"))
                p_or = prob(s, m, parse(f"(({phi})) \\/ (({psi}))"))
                assert p_and + p_or == p_phi + p_psi
                assert p_and <= p_phi and p_and <= p_psi
                assert prob(s, m, parse("F")) == 0
                assert prob(s, m, parse("T")) == 1
                if independent(s, phi, psi):
                    independent_hits += 1
                    assert p_and == p_phi * p_psi
                r = bayes_check(s, m, phi, psi)
                assert r.equal
        assert independent_hits > 0
        assert time.monotonic() - started < 300.0


def test_criterion_05_iterated_conditional_bayes():
    with criterion(5, "iterated-conditional chain rule, 20 random"):
        rng = random.Random(7)
        pool = ["p", "q", "~p", "~q", "p /\\ q", "p \\/ q", "p -> q", "T"]
        for trial in range(20):
            phi, psi, eta, zeta = (rng.choice(pool) for _ in range(4))
            s = ModelState.from_atoms(["p", "q"], max_worlds=50_000)
            pi_weights = [Fraction(rng.randrange(1, 9)) for _ in range(4)]
            total = sum(pi_weights)
            m = init_measure(s, BaseMeasure.from_weights(
                [w / total for w in pi_weights]))
            r = bayes_check(s, m, parse(f"(({eta})|({zeta}))"),
                            parse(f"(({psi})|({phi}))"))
            assert r.equal, (trial, phi, psi, eta, zeta)


def test_criterion_06_lewis_escape_exhaustive():
    with criterion(6, "base-algebra escape, exhaustive strict pairs"):
        count = 0
        for a_mask in range(1, 15):
            for b_mask in range(1, 16):
                if b_mask == a_mask or b_mask & ~a_mask & 15:
                    continue
                s = ModelState.from_atoms(["p", "q"])
                assert lewis_escape(s, PropSet(0, a_mask, 4),
                                    PropSet(0, b_mask, 4))
                count += 1
        assert count == 36


def test_criterion_07_non_distortion_classes():
    with criterion(7, "non-distortion over the 16 classical classes"):
        for mask in range(16):
            f = class_formula(mask)
            rows = truth_table(f)
            s = ModelState.from_atoms(["p", "q"])
            text = to_text(f)
            knows = valid(s, parse(f"[]({text}) \\/ []~({text})"))
            assert knows == (all(rows) or not any(rows)), text


def test_criterion_08_perturbation_limit():
    with criterion(8, "vanishing-perturbation limit"):
        pi = BaseMeasure.from_weights([0, 0, Fraction(1, 2), Fraction(1, 2)])
        # classical recovery on every truth-table class
        for mask in range(16):
            f = class_formula(mask)
            rows = truth_table(f)
            # world order ~p~q, ~pq, p~q, pq matches (False,False)..(True,True)
            want = sum((w for w, hit in zip(pi.weights, rows) if hit),
                       Fraction(0))
            s = ModelState.from_atoms(["p", "q"])
            assert limit_prob(s, pi, f) == want, to_text(f)
        # the conditional against an independent symbolic run
        import sympy
        from oracle import NaiveModel

        s = ModelState.from_atoms(["p", "q"])
        got = limit_prob(s, pi, parse("(q|p)"))
        e = sympy.Symbol("e", positive=True)
        labels = s.base_labels
        om = NaiveModel(labels)
        hp = frozenset(labels[i] for i in s.h("p").indices())
        hq = frozenset(labels[i] for i in s.h("q").indices())
        om.step(hp)
        base = {w: sympy.Rational(1, 2) if w in hp else sympy.Integer(0)
                for w in labels}
        weights = om.extend_measure(
            {w: e / 4 + (1 - e) * base[w] for w in labels})
        value_set = om.f(om.lift(hq, 0, 1), om.lift(hp, 0, 1))
        total = sum(weights[1][w] for w in value_set)
        want = sympy.limit(sympy.together(total), e, 0, "+")
        assert sympy.Rational(got.numerator, got.denominator) == want


def test_criterion_09_schedule_cross_check():
    with criterion(9, "demand/canonical decision agreement"):
        corpus = depth_two_corpus(500)
        assert len(corpus) >= 400
        shared = ModelState.from_atoms(["p", "q"], schedule="canonical")
        disagreements = []
        for f in corpus:
            d = ModelState.from_atoms(["p", "q"])
            demand_verdict = decide(d, f)
            canonical_verdict = decide(shared, f)
            assert demand_verdict.box_free
            if demand_verdict.valid != canonical_verdict.valid:
                disagreements.append(to_text(f))
        assert disagreements == []


def test_criterion_10_proof_kernel():
    with criterion(10, "proof kernel: corpus, mutations, soundness"):
        corpus = load_corpus()
        assert len(corpus) >= 5
        for d in corpus:
            assert check(d).ok, d.name
        rng = random.Random(20240817)
        for _ in range(50):
            d = rng.choice(corpus)
            mutated = _mutate(rng, d)
            assert mutated != d
            assert not check(mutated).ok
        fuzz_rng = random.Random(99)
        for _ in range(25):
            d = _random_derivation(fuzz_rng)
            state = ModelState.from_atoms(["p", "q"])
            report = cross_validate(d, state)
            assert report.accepted and report.sound and report.model_valid
        for d in corpus:
            if d.logic == "DmBL*":
                state = ModelState.from_atoms(["p", "q"])
                assert cross_validate(d, state).sound
