import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dmbl import worlds
from dmbl.evaluator import assign, independent
from dmbl.formula import parse
from dmbl.model import ConditionalRuns, ModelState
from dmbl.probability import (BaseMeasure, MeasureError, MeasureState,
                              _LeadingMeasure, bayes_check, init_measure,
                              limit_prob, prob)
from dmbl.worlds import NARROW_WIDTH, PropSet, bit_indices, mask_of

from genformulas import random_formula
from oracle import drive_from_state, to_set
from test_model import _interleaved_ladder, _on_both_paths

APP_TASKS = [0b011, 0b100, 0b110, 0b001, 0b101, 0b010]
APP_WEIGHTS = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]


def three_world_measured():
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS)
    m = init_measure(s, BaseMeasure.from_weights(APP_WEIGHTS))
    return s, m


def test_base_measure_validation():
    BaseMeasure.from_weights(APP_WEIGHTS)  # accepted
    with pytest.raises(MeasureError):
        BaseMeasure.from_weights([Fraction(1, 5), Fraction(3, 10),
                                  Fraction(2, 5)])  # sums to 9/10
    with pytest.raises(MeasureError):
        BaseMeasure.from_weights([Fraction(3, 2), Fraction(-1, 2)])


def test_base_measure_rejects_float_weights():
    for weights in ((0.5, 0.5), (Fraction(1, 2), 0.5), (True, False)):
        with pytest.raises(MeasureError):
            BaseMeasure(weights)
    BaseMeasure((1, 0))                                   # plain ints are exact
    assert BaseMeasure.from_weights([0.5, 0.5]).weights == (Fraction(1, 2),) * 2


def test_uniform_measure():
    s = ModelState.from_atoms(["p", "q"])
    m = BaseMeasure.uniform(s)
    assert m.weights == (Fraction(1, 4),) * 4
    assert m.strictly_positive


def test_extension_golden_values():
    s, m = three_world_measured()
    s.step()
    m.extend_to(s, 1)
    assert m.level_weights(1) == [Fraction(1, 5), Fraction(3, 10),
                                  Fraction(1, 5), Fraction(3, 10)]
    assert sum(m.level_weights(1)) == 1
    with pytest.raises(MeasureError):
        m.extend_to(s, 5)  # level 5 is not built in the model


def test_extension_preserves_embedded_weights():
    s, m = three_world_measured()
    s.step()
    m.extend_to(s, 1)
    for mask in range(1 << 3):
        a = PropSet(0, mask, 3)
        assert m.weight_of(s, a) == m.weight_of(s, s.lift(a, 1))


def test_extension_rejects_zero_blocks():
    s = ModelState.from_atoms(["p", "q"])
    pi = BaseMeasure.from_weights([0, 0, Fraction(1, 2), Fraction(1, 2)])
    m = MeasureState(s, pi)
    s.step(s.h("p"))
    with pytest.raises(MeasureError):
        m.extend_to(s, 1)


def test_prob_classical_equals_base():
    s = ModelState.from_atoms(["p", "q"])
    pi = BaseMeasure.from_weights(
        [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)])
    m = init_measure(s, pi)
    # worlds ordered ~p~q, ~pq, p~q, pq
    assert prob(s, m, parse("p")) == Fraction(3, 10) + Fraction(2, 5)
    assert prob(s, m, parse("p /\\ q")) == Fraction(2, 5)
    assert prob(s, m, parse("T")) == 1
    assert prob(s, m, parse("F")) == 0


def test_prob_conditional_uniform():
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.uniform(s))
    assert prob(s, m, parse("(q|p)")) == Fraction(1, 2)
    # cross-check against the quotient form
    assert prob(s, m, parse("(q|p)")) == \
        prob(s, m, parse("p /\\ q")) / prob(s, m, parse("p"))


def test_bayes_simple_and_iterated():
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.uniform(s))
    r = bayes_check(s, m, parse("p"), parse("q"))
    assert r.equal and r.lhs == Fraction(1, 4)
    r2 = bayes_check(s, m, parse("T"), parse("q"))
    assert r2.equal and r2.lhs == prob(s, m, parse("q"))
    r3 = bayes_check(s, m, parse("(q|p)"), parse("(p|q)"))
    assert r3.equal


def test_limit_prob_classical_recovers_base_with_zeros():
    pi = BaseMeasure.from_weights([0, 0, Fraction(1, 2), Fraction(1, 2)])
    texts = ["p", "q", "p /\\ q", "p \\/ q", "~p", "p -> q", "T", "F"]
    want = {"p": 1, "q": Fraction(1, 2), "p /\\ q": Fraction(1, 2),
            "p \\/ q": 1, "~p": 0, "p -> q": Fraction(1, 2), "T": 1, "F": 0}
    for text in texts:
        s = ModelState.from_atoms(["p", "q"])
        assert limit_prob(s, pi, parse(text)) == want[text], text


def test_limit_prob_agrees_with_prob_when_positive():
    pi = BaseMeasure.from_weights(
        [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)])
    for text in ["(q|p)", "(p|q) /\\ q", "((p /\\ q)|p)"]:
        s = ModelState.from_atoms(["p", "q"])
        m = init_measure(s, pi)
        direct = prob(s, m, parse(text))
        s2 = ModelState.from_atoms(["p", "q"])
        assert limit_prob(s2, pi, parse(text)) == direct, text


def _weights(*parts):
    total = sum(parts)
    return [Fraction(w, total) for w in parts]


# (formula, base weights in world order ~p~q ~pq p~q pq, top width, limit)
ZERO_LIMIT_CASES = [
    ("(q|p)", _weights(0, 0, 1, 1), 8, Fraction(1, 2)),
    ("(p|q)", _weights(0, 0, 1, 1), 8, Fraction(1)),
    ("(~q|p)", _weights(0, 1, 1, 2), 8, Fraction(1, 3)),
    ("(q|p) \\/ ~q", _weights(0, 0, 0, 1), 8, Fraction(1)),
    ("((q|p)|q)", _weights(0, 1, 1, 2), 32, Fraction(8, 9)),
    ("((q|p)|q) /\\ (p|q)", _weights(0, 1, 0, 3), 32, Fraction(3, 4)),
    ("((q|p)|q)", _weights(0, 0, 1, 0), 32, Fraction(1, 2)),
    ("((q|p)|p <-> q)", _weights(0, 1, 2, 0), 32, Fraction(1, 2)),
    ("(q|p) /\\ ((p|~q)|q)", _weights(2, 0, 1, 1), 32, Fraction(1, 12)),
]


def test_limit_prob_conditional_matches_symbolic_reference():
    import sympy

    e = sympy.Symbol("e", positive=True)
    for text, weights, width, want in ZERO_LIMIT_CASES:
        s = ModelState.from_atoms(["p", "q"])
        got = limit_prob(s, BaseMeasure.from_weights(weights), parse(text))
        assert s.width(s.top) == width, text
        assert got == want, text

        # independent symbolic run of the naive recursion under
        # eps/n + (1 - eps) w
        om, maps = drive_from_state(s)
        levels = om.extend_measure({
            label: e / len(weights)
            + (1 - e) * sympy.Rational(w.numerator, w.denominator)
            for label, w in zip(maps[0], weights)})
        val = assign(s, parse(text)).value
        total = sum((levels[val.level][maps[val.level][i]]
                     for i in val.indices()), sympy.Integer(0))
        ref = sympy.limit(sympy.together(total), e, 0, "+")
        assert sympy.Rational(got.numerator, got.denominator) == ref, text


@pytest.mark.parametrize("text,width,want", [
    ("(((q|p)|q)|p /\\ q) <-> (p|q)", 384, Fraction(2, 3)),
    ("((((q|p)|q)|p /\\ q)|p \\/ q) <-> (p|q)", 40960, Fraction(2, 3)),
])
def test_limit_prob_equals_prob_at_large_width(text, width, want):
    pi = BaseMeasure.from_weights(_weights(1, 2, 3, 4))
    s = ModelState.from_atoms(["p", "q"])
    got = limit_prob(s, pi, parse(text))
    assert s.width(s.top) == width
    assert got == prob(s, init_measure(s, pi), parse(text)) == want


def test_limit_prob_with_zeros_at_width_384_matches_tiny_perturbation():
    f = parse("(((q|p)|q)|p /\\ q) <-> (p|q)")
    pi = BaseMeasure.from_weights(_weights(0, 1, 2, 3))
    s = ModelState.from_atoms(["p", "q"])
    got = limit_prob(s, pi, f)
    assert s.width(s.top) == 384
    assert got == Fraction(3, 4)
    eps = Fraction(1, 10 ** 30)
    mixed = BaseMeasure(tuple(eps / 4 + (1 - eps) * w for w in pi.weights))
    near = prob(s, init_measure(s, mixed), f)
    assert near != got  # the perturbed value really moves with eps
    assert abs(near - got) <= Fraction(1, 10 ** 20)


def test_extension_matches_naive_reference():
    rng = random.Random(7)
    for _ in range(10):
        s = ModelState.from_atoms(["p", "q"], max_worlds=3000)
        events = [s.h("p"), s.h("q"), s.h("p") & s.h("q")]
        for _ in range(rng.choice((1, 2))):
            s.step(s.lift(rng.choice(events), s.top))
        weights = [Fraction(rng.randrange(1, 6)) for _ in range(4)]
        total = sum(weights)
        pi = BaseMeasure.from_weights([w / total for w in weights])
        m = init_measure(s, pi)
        m.extend_to(s, s.top)
        om, maps = drive_from_state(s)
        ref = om.extend_measure(dict(zip(maps[0], pi.weights)))
        for n in range(s.num_levels):
            for i, w in enumerate(m.level_weights(n)):
                assert w == ref[n][maps[n][i]]


def test_deep_chain_extension_is_exact():
    # three base denominators are distinct primes (all four cannot be
    # pairwise coprime: the weights sum to one), so the shared
    # denominators and the lcm of the block sums both grow at every level
    pi = BaseMeasure.from_weights([Fraction(1, 3), Fraction(1, 5),
                                   Fraction(1, 7), Fraction(34, 105)])
    s = ModelState.from_atoms(["p", "q"])
    assign(s, parse("((((q|p)|q)|p /\\ q)|p \\/ q)"))
    assert [s.width(n) for n in range(s.num_levels)] == [4, 8, 32, 384, 40960]
    m = init_measure(s, pi)
    m.extend_to(s, s.top)
    want = list(pi.weights)
    assert m.level_weights(0) == want
    for n in range(1, s.num_levels):
        # P(l) P(r) / P(opposite block), recomputed from the reference chain
        prev = want
        blocks = s.history[n - 1].blocks
        pi_mass = [sum(prev[i] for i in bit_indices(p)) for p, _ in blocks]
        ga_mass = [sum(prev[i] for i in bit_indices(g)) for _, g in blocks]
        lvl = s.level(n)
        block_of = [k >> 1 for _, k in lvl.row_halves for _ in lvl.blocks[k >> 1][k & 1]]
        want = [prev[l] * prev[r] / (ga_mass[b] if i < lvl.split else pi_mass[b])
                for i, ((l, r), b) in enumerate(zip(lvl.pairs, block_of))]
        got = m.level_weights(n)
        assert got == want, n
        assert sum(got) == 1, n
    for mask in range(1 << 4):
        a = PropSet(0, mask, 4)
        base = sum((pi.weights[i] for i in a.indices()), Fraction(0))
        for n in range(s.num_levels):
            assert m.weight_of(s, s.lift(a, n)) == base, (mask, n)


def test_weight_of_after_case_zero_step_sums_level_weights():
    # re-processing p gives a level of four blocks, one per world of the
    # first step's Pi x Gamma side
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    s.step(s.lift(s.h("p"), 2))
    assert [ev.case for ev in s.history] == [1, 1, 0]
    assert len(s.history[2].blocks) == 4
    pi = BaseMeasure.from_weights([Fraction(1, 3), Fraction(1, 5),
                                   Fraction(1, 7), Fraction(34, 105)])
    m = init_measure(s, pi)
    m.extend_to(s, s.top)
    om, maps = drive_from_state(s)
    ref = om.extend_measure(dict(zip(maps[0], pi.weights)))
    rng = random.Random(5)
    for n in range(s.num_levels):
        width = s.width(n)
        weights = m.level_weights(n)
        assert weights == [ref[n][world] for world in maps[n]]
        masks = [0, (1 << width) - 1] + [rng.randrange(1 << width) for _ in range(40)]
        for mask in masks:
            want = sum((weights[i] for i in bit_indices(mask)), Fraction(0))
            assert m.weight_of(s, PropSet(n, mask, width)) == want, (n, mask)


DEPTH_FOUR = "((((q|p)|q)|p /\\ q)|p \\/ q)"
PRIME_WEIGHTS = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(34, 105)]


def _depth_four_chain():
    s = ModelState.from_atoms(["p", "q"])
    assign(s, parse(DEPTH_FOUR))
    return s


def _case_zero_ladder():
    # re-processing p makes the last step a multi-block one
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    s.step(s.lift(s.h("p"), 2))
    return s


@pytest.mark.parametrize("build,ladder", [
    (_depth_four_chain, [4, 8, 32, 384, 40960]),
    (_case_zero_ladder, [4, 8, 32, 128]),
], ids=["depth-four", "case-zero"])
def test_weight_of_by_rows_matches_stored_level_weights(build, ladder):
    s = build()
    assert [s.width(n) for n in range(s.num_levels)] == ladder
    assert min(ladder) <= NARROW_WIDTH < max(ladder)  # both transpose paths
    pi = BaseMeasure.from_weights(PRIME_WEIGHTS)
    stored = init_measure(s, pi)
    assert stored.extended_through() == 0
    stored.extend_to(s, s.top)
    rng = random.Random(17)
    for n, width in enumerate(ladder):
        weights = stored.level_weights(n)
        sparse = mask_of(rng.sample(range(width), 3))
        for mask in [0, (1 << width) - 1, sparse, rng.getrandbits(width),
                     rng.getrandbits(width)]:
            m = MeasureState(s, pi)
            got = m.weight_of(s, PropSet(n, mask, width))
            # the set's own level is read by rows, never stored
            assert m.extended_through() == max(n - 1, 0)
            want = sum((weights[i] for i in bit_indices(mask)), Fraction(0))
            assert got == want, (n, mask)
            assert stored.weight_of(s, PropSet(n, mask, width)) == want, (n, mask)


def _repeated_row_sets(s, rng):
    # a lift has all-ones or all-zeros rows, its transpose repeats one
    # column pattern across rows, and a conditional's value does both
    for n in range(1, s.num_levels):
        below = PropSet(n - 1, rng.getrandbits(s.width(n - 1)), s.width(n - 1))
        lifted = s.lift(below, n)
        yield lifted
        yield s.transpose(lifted)
    for ev in s.history:
        width = s.width(ev.level)
        a = PropSet(ev.level, ev.event, width)
        for _ in range(3):
            b = PropSet(ev.level, rng.getrandbits(width), width)
            yield s.f_eval(b, a)
            yield s.f_eval(b, a.complement())


@pytest.mark.parametrize("measure", [MeasureState, _LeadingMeasure])
@pytest.mark.parametrize("build", [_depth_four_chain, _case_zero_ladder],
                         ids=["depth-four", "case-zero"])
def test_weight_of_sets_with_repeated_rows(build, measure):
    # rows with equal bits in halves of one length but different weights
    # must not share a part
    s = build()
    pi = BaseMeasure.from_weights(PRIME_WEIGHTS)
    stored = init_measure(s, pi)
    stored.extend_to(s, s.top)
    weights = [stored.level_weights(n) for n in range(s.num_levels)]
    m = measure(s, pi)
    for ps in _repeated_row_sets(s, random.Random(23)):
        want = sum((weights[ps.level][i] for i in ps.indices()), Fraction(0))
        assert m.weight_of(s, ps) == want, (ps.level, ps.mask)


# --- wide levels read one run of rows at a time ---------------------------------


@pytest.fixture
def row_walks(monkeypatch):
    """The widths of the runs read a row at a time, which a rank-one run skips."""
    widths = []
    real = worlds._split_rows

    def spy(chunk, count, length):
        widths.append(count * length)
        return real(chunk, count, length)

    monkeypatch.setattr(worlds, "_split_rows", spy)
    return widths


def _run_test_sets(s, n, rng):
    # a conditional's value S | T(S) is rank one on every run: each row on
    # the cut side is all ones or all zeros, and each row of one run on the
    # other side reads the same partners.  The union of both sides' values
    # mixes all-ones rows with a pattern in one run; random sets mix more
    lvl, below, width = s.level(n), s.width(n - 1), s.width(n)
    rank_one, mixed = [], []
    for _ in range(3):
        values = [lvl.conditional(rng.getrandbits(below), direct)
                  for direct in (True, False)]
        rank_one += [PropSet(n, v, width) for v in values]
        mixed += [PropSet(n, values[0] | values[1], width),
                  PropSet(n, rng.getrandbits(width), width)]
    return rank_one, mixed


@pytest.mark.parametrize("measure", [MeasureState, _LeadingMeasure])
@pytest.mark.parametrize("build,weights,ladder", [
    (_depth_four_chain, PRIME_WEIGHTS, [4, 8, 32, 384, 40960]),
    (_case_zero_ladder, PRIME_WEIGHTS, [4, 8, 32, 128]),
    (_interleaved_ladder, APP_WEIGHTS, [3, 4, 8, 24, 160]),
], ids=["depth-four", "case-zero", "interleaved"])
def test_weight_of_by_runs_on_wide_levels(build, weights, ladder, measure, row_walks):
    s = build()
    assert [s.width(n) for n in range(s.num_levels)] == ladder
    pi = BaseMeasure.from_weights(weights)
    stored = init_measure(s, pi)
    stored.extend_to(s, s.top)
    m = measure(s, pi)
    rng = random.Random(37)
    for n in [n for n, width in enumerate(ladder) if width > NARROW_WIDTH]:
        level_weights = stored.level_weights(n)
        rank_one, mixed = _run_test_sets(s, n, rng)
        for sets, walked in ((rank_one, False), (mixed, True)):
            for ps in sets:
                want = sum((level_weights[i] for i in ps.indices()), Fraction(0))
                assert m.weight_of(s, ps) == want, (n, ps.mask)
            assert bool(row_walks) == walked, n
            row_walks.clear()


@pytest.mark.parametrize("measure", [MeasureState, _LeadingMeasure])
@pytest.mark.parametrize("build,weights", [
    (_depth_four_chain, PRIME_WEIGHTS),
    (_case_zero_ladder, PRIME_WEIGHTS),
    (_interleaved_ladder, APP_WEIGHTS),
], ids=["depth-four", "case-zero", "interleaved"])
def test_weight_of_agrees_on_both_paths(build, weights, measure, monkeypatch):
    # every level read through its per-world tables, then every level by
    # runs of rows, each with a fresh measure
    s = build()
    pi = BaseMeasure.from_weights(weights)
    rng = random.Random(47)
    for n in range(s.num_levels):
        width = s.width(n)
        for mask in [0, (1 << width) - 1, 1 << rng.randrange(width),
                     rng.getrandbits(width), rng.getrandbits(width)]:
            ps = PropSet(n, mask, width)
            tables, runs = _on_both_paths(monkeypatch, s,
                                          lambda: measure(s, pi).weight_of(s, ps))
            assert tables == runs, (n, mask)


def test_union_reads_one_run_row_by_row(row_walks):
    # at width 128 (four blocks, eight runs of four rows) the union has one
    # run with two distinct nonzero rows
    s = ModelState.from_atoms(["p", "q"])
    f = parse("(((q|p)|q)|~p) \\/ ((q|p)|q)")
    assert prob(s, init_measure(s, BaseMeasure.uniform(s)), f) == Fraction(99, 128)
    assert s.width(s.top) == 128 and row_walks == [16]


@pytest.mark.parametrize("text,width,want", [
    ("(((((q|p)|q)|~p) \\/ ((q|p)|q))|p)", 128, Fraction(59, 64)),
    ("((((q|p)|~q) \\/ (p|~(p /\\ q)))|p /\\ q)", 384, Fraction(1, 2)),
])
def test_swapping_runs_of_distinct_rows_matches_the_oracle(text, width, want, row_walks):
    # the consequent's value has a run with distinct nonzero rows on the
    # defining level, so the conditional swaps that run read row by row
    s = ModelState.from_atoms(["p", "q"])
    f = parse(text)
    assert prob(s, init_measure(s, BaseMeasure.uniform(s)), f) == want
    assert s.width(s.top) == width
    b, a = (assign(s, g).value for g in (f.cons, f.ante))
    row_walks.clear()
    value = s.f_eval(b, a)
    assert row_walks
    om, maps = drive_from_state(s)
    assert to_set(maps, s.lift(value, s.top)) == om.f(to_set(maps, b), to_set(maps, a))


def test_prob_stores_levels_below_the_top_only():
    s = ModelState.from_atoms(["p", "q"])
    pi = BaseMeasure.from_weights(PRIME_WEIGHTS)
    m = init_measure(s, pi)
    assert m.extended_through() == 0
    got = prob(s, m, parse(DEPTH_FOUR))
    assert s.top == 4
    assert m.extended_through() == s.top - 1
    assert got == prob(s, init_measure(s, pi), parse(DEPTH_FOUR))


def test_init_measure_on_a_built_model_stores_level_zero_only():
    s = _depth_four_chain()
    m = init_measure(s, BaseMeasure.from_weights(PRIME_WEIGHTS))
    assert type(m) is MeasureState
    assert m.extended_through() == 0
    assert prob(s, m, parse(DEPTH_FOUR)) == 1
    assert m.extended_through() == 3


@pytest.mark.parametrize("pi", [PRIME_WEIGHTS, [0, Fraction(1, 3), Fraction(1, 3),
                                                Fraction(1, 3)]], ids=["positive", "zeros"])
def test_level_weights_of_a_level_not_stored_is_refused(pi):
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    m = init_measure(s, BaseMeasure.from_weights(pi))
    for n in (1, -1):
        with pytest.raises(MeasureError, match=rf"level {n} is not stored.*extend_to"):
            m.level_weights(n)
    m.extend_to(s, 1)
    assert sum(m.level_weights(1)) == 1
    for n in (2, -1):
        with pytest.raises(MeasureError, match="extend_to"):
            m.level_weights(n)


@pytest.mark.parametrize("text,want", [
    (DEPTH_FOUR, Fraction(1)),
    (DEPTH_FOUR + " <-> (p|q)", Fraction(34, 55)),
], ids=["depth-four", "iff"])
def test_prob_at_width_40960_under_prime_weights(text, want):
    s = ModelState.from_atoms(["p", "q"])
    pi = BaseMeasure.from_weights(PRIME_WEIGHTS)
    got = prob(s, init_measure(s, pi), parse(text))
    assert s.width(s.top) == 40960
    assert got == limit_prob(s, pi, parse(text)) == want


# --- a wide conditional weighed from its runs -------------------------------------


def _with_a_zero(weights):
    # the same base with its last world's weight moved onto the first
    return [weights[0] + weights[-1], *weights[1:-1], Fraction(0)]


@pytest.mark.parametrize("measure", [MeasureState, _LeadingMeasure])
@pytest.mark.parametrize("build,weights,wide", [
    (_depth_four_chain, PRIME_WEIGHTS, [384, 40960]),
    (_case_zero_ladder, PRIME_WEIGHTS, [128]),
    (_interleaved_ladder, APP_WEIGHTS, [160]),
], ids=["depth-four", "case-zero", "interleaved"])
def test_weight_read_from_runs_equals_the_built_values(build, weights, wide, measure):
    # every wide defining level, both orientations, consequents from every
    # level below it; the interleaved ladder's runs start inside their halves
    s = build()
    pi = BaseMeasure.from_weights(weights if measure is MeasureState else _with_a_zero(weights))
    assert type(init_measure(s, pi)) is measure
    m = measure(s, pi)
    rng = random.Random(53)
    read = []
    for ev in s.history:
        base, a = ev.level + 1, PropSet(ev.level, ev.event, s.width(ev.level))
        if s.width(base) <= NARROW_WIDTH or s._find_match(a.mask, a.level)[0] != ev.step:
            continue
        read.append(s.width(base))
        for event in (a, a.complement()):
            for lower in range(base):
                width = s.width(lower)
                for mask in [0, (1 << width) - 1, rng.getrandbits(width), rng.getrandbits(width)]:
                    b = PropSet(lower, mask, width)
                    runs = s.ensure(b, event, runs=True)
                    assert type(runs) is ConditionalRuns and runs.level == base
                    assert m.weight_of(s, runs) == m.weight_of(s, s.ensure(b, event)), (
                        base, lower, mask)
    assert read == wide


def test_ensure_with_runs_builds_every_other_value():
    # a narrow defining level, a consequent at the defining level, and
    # values lifted above a narrow and a wide one (384 worlds) all come
    # back as ensure's PropSet
    s = _depth_four_chain()
    p, q = s.h("p"), s.h("q")
    top = PropSet(4, random.Random(59).getrandbits(s.width(4)), s.width(4))
    for b, a in [(q, p), (top, p | q), (q, s.lift(p, 4)), (q, s.lift(p & q, 4))]:
        value = s.ensure(b, a, runs=True)
        assert type(value) is PropSet and value == s.ensure(b, a)


def test_prob_of_a_wide_conditional_never_builds_it(monkeypatch):
    # the depth-four chain's value is read off its two runs at width 40960
    built = []
    real = worlds.Level.conditional

    def spy(level, below, direct):
        built.append(level.width)
        return real(level, below, direct)

    monkeypatch.setattr(worlds.Level, "conditional", spy)
    s = ModelState.from_atoms(["p", "q"])
    pi = BaseMeasure.from_weights(PRIME_WEIGHTS)
    assert prob(s, init_measure(s, pi), parse(DEPTH_FOUR)) == 1
    assert s.width(4) == 40960 and 40960 not in built
    assert prob(s, init_measure(s, pi), parse(DEPTH_FOUR + " /\\ T")) == 1
    assert 40960 in built


# --- law battery over random formulas -----------------------------------------


def _random_positive_measure(rng):
    weights = [Fraction(rng.randrange(1, 9)) for _ in range(4)]
    total = sum(weights)
    return BaseMeasure.from_weights([w / total for w in weights])


@given(st.integers(min_value=0, max_value=1_500))
def test_probability_laws_random(seed):
    rng = random.Random(seed)
    s = ModelState.from_atoms(["p", "q"], max_worlds=4000)
    m = init_measure(s, _random_positive_measure(rng))
    phi = random_formula(rng, ["p", "q"], max_depth=3, cond_budget=1)
    psi = random_formula(rng, ["p", "q"], max_depth=3, cond_budget=1)
    p_and = prob(s, m, parse(f"({phi}) /\\ ({psi})"))
    p_or = prob(s, m, parse(f"({phi}) \\/ ({psi})"))
    p_phi = prob(s, m, phi)
    p_psi = prob(s, m, psi)
    assert p_and + p_or == p_phi + p_psi          # additivity
    assert p_and <= p_phi                          # increase
    assert prob(s, m, parse("F")) == 0             # coherence
    assert prob(s, m, parse("T")) == 1             # finiteness
    if independent(s, phi, psi):
        assert p_and == p_phi * p_psi              # multiplicativity
    assert bayes_check(s, m, phi, psi).equal


@given(st.integers(min_value=0, max_value=1_500))
def test_prob_at_natural_level_equals_weight_at_top(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ["p", "q"], max_depth=3, cond_budget=3, allow_modal=True)
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, _random_positive_measure(rng))
    assert prob(s, m, f) == m.weight_of(s, assign(s, f).value)
    zeros = rng.sample(range(4), rng.choice((1, 2)))
    weights = [Fraction(0) if i in zeros else Fraction(rng.randrange(1, 9))
               for i in range(4)]
    pi = BaseMeasure.from_weights([w / sum(weights) for w in weights])
    s = ModelState.from_atoms(["p", "q"])
    got = limit_prob(s, pi, f)
    assert got == _LeadingMeasure(s, pi).weight_of(s, assign(s, f).value)


def test_prob_of_a_level_zero_value_needs_no_extension():
    # a modal value sits at level 0 even when its body built a zero-weight block
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.from_weights([Fraction(1, 2), Fraction(1, 2), 0, 0]))
    assert prob(s, m, parse("[](q|p)")) == 0
    assert prob(s, m, parse("<>(q|p)")) == 1
    assert prob(s, m, parse("(q|p)")) == Fraction(1, 2)


@given(st.integers(min_value=0, max_value=1_500))
def test_init_measure_reads_a_base_with_zeros_as_the_limit(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ["p", "q"], max_depth=3, cond_budget=3, allow_modal=True)
    zeros = rng.sample(range(4), rng.choice((1, 2)))
    weights = [Fraction(0) if i in zeros else Fraction(rng.randrange(1, 9))
               for i in range(4)]
    pi = BaseMeasure.from_weights([w / sum(weights) for w in weights])
    s = ModelState.from_atoms(["p", "q"])
    s2 = ModelState.from_atoms(["p", "q"])
    assert prob(s, init_measure(s, pi), f) == limit_prob(s2, pi, f)


def test_level_weights_of_a_base_with_zeros_are_the_limits():
    # worlds ~p~q ~pq p~q pq; the step on p pairs Pi = {p~q, pq} with the
    # zero-weight Gamma = {~p~q, ~pq}: (x, y) in Pi x Gamma weighs P(x) / 2 in
    # the limit, and (y, x) in Gamma x Pi vanishes
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    pi = BaseMeasure.from_weights([0, 0, Fraction(3, 4), Fraction(1, 4)])
    m = init_measure(s, pi)
    m.extend_to(s, s.top)
    assert m.level_weights(0) == list(pi.weights)
    assert m.level_weights(1) == [Fraction(3, 8), Fraction(3, 8), Fraction(1, 8),
                                  Fraction(1, 8), 0, 0, 0, 0]
    for mask in (0b1, 0b1010, 0b11110000, 0b10110101):
        assert m.weight_of(s, PropSet(1, mask, 8)) == \
            sum(m.level_weights(1)[i] for i in bit_indices(mask))


def test_multiplicativity_on_known_independent_pairs():
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.from_weights(
        [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]))
    pairs = [("T", "q"), ("p", "(q|p)"), ("p \\/ ~p", "p /\\ q")]
    hits = 0
    for phi, psi in pairs:
        if independent(s, parse(phi), parse(psi)):
            hits += 1
            assert prob(s, m, parse(f"({phi}) /\\ ({psi})")) == \
                prob(s, m, parse(phi)) * prob(s, m, parse(psi))
    assert hits >= 2  # the check is not vacuous


def test_block_weight_identities():
    # P(Pi) + P(Gamma) = P(Pi)/P(b) = P(Gamma)/P(~b) for every block
    rng = random.Random(3)
    for _ in range(8):
        s = ModelState.from_atoms(["p", "q"], max_worlds=3000)
        events = [s.h("p"), s.h("q"), s.h("p") & s.h("q")]
        for _ in range(rng.choice((1, 2))):
            s.step(s.lift(rng.choice(events), s.top))
        m = init_measure(s, _random_positive_measure(rng))
        m.extend_to(s, s.top)
        for ev in s.history:
            w = m.level_weights(ev.level)
            p_b = sum(w[i] for i in PropSet(ev.level, ev.event, s.width(ev.level)).indices())
            for pi_mask, ga_mask in ev.blocks:
                p_pi = sum(w[i] for i in PropSet(ev.level, pi_mask, s.width(ev.level)).indices())
                p_ga = sum(w[i] for i in PropSet(ev.level, ga_mask, s.width(ev.level)).indices())
                assert p_pi + p_ga == p_pi / p_b
                assert p_pi + p_ga == p_ga / (1 - p_b)


def test_model_level_bayes_identity_exhaustive_small():
    # P(A & B) = P(A) P(f(B, A)) over every defined pair after one step
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.from_weights(
        [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]))
    s.step(s.h("p"))
    m.extend_to(s, 1)
    for orientation in (s.lift(s.h("p"), 1), s.lift(s.h("p"), 1).complement()):
        for c in range(1 << s.width(1)):
            b = PropSet(1, c, s.width(1))
            lhs = m.weight_of(s, orientation & b)
            rhs = m.weight_of(s, orientation) * m.weight_of(s, s.f_eval(b, orientation))
            assert lhs == rhs


def test_positivity():
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.from_weights(
        [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]))
    for text in ["p", "(q|p)", "(q|p) /\\ ~p", "p /\\ q", "((p|q))"]:
        v = assign(s, parse(text))
        if not v.value.is_empty:
            assert prob(s, m, parse(text)) > 0


def test_three_atoms_chain_rule():
    rng = random.Random(11)
    s = ModelState.from_atoms(["p", "q", "r"], max_worlds=100_000)
    weights = [Fraction(rng.randrange(1, 7)) for _ in range(8)]
    total = sum(weights)
    m = init_measure(s, BaseMeasure.from_weights([w / total for w in weights]))
    assert bayes_check(s, m, parse("p \\/ r"), parse("q")).equal
    assert bayes_check(s, m, parse("(q|p)"), parse("r")).equal
    assert prob(s, m, parse("(q|p)")) == \
        prob(s, m, parse("p /\\ q")) / prob(s, m, parse("p"))


def test_collapse_argument_breaks():
    # the probability of a conditional need not equal the probability of
    # its consequent: the usual collapse chain fails at its second factor
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.from_weights(
        [Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 2)]))
    phi, psi = parse("p"), parse("p /\\ q")
    v_phi = assign(s, phi).value
    v_psi = assign(s, psi).value
    assert not v_psi.is_empty
    assert v_psi.issubset(v_phi) and v_psi != v_phi and not v_phi.is_full
    p_cond = prob(s, m, parse("((p /\\ q)|p)"))
    assert p_cond != prob(s, m, psi)
    # first collapse factor: conditioning the conditional on its consequent
    r1 = bayes_check(s, m, psi, parse("((p /\\ q)|p)"))
    assert r1.equal and r1.lhs / prob(s, m, psi) == 1
    # second collapse factor is NOT zero: the conditional meets ~psi
    joint = prob(s, m, parse("(((p /\\ q)|p)) /\\ ~(p /\\ q)"))
    assert joint > 0
    # and indeed P((psi|phi)) = quotient, not P(psi)
    assert p_cond == prob(s, m, psi) / prob(s, m, phi)
