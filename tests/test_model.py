import functools
import gc
import json
import random
import sys
import threading
import weakref
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, strategies as st

from dmbl import model, worlds
from dmbl.evaluator import assign
from dmbl.formula import parse
from dmbl.model import (CapExceededError, DegenerateEventError,
                        FrozenStateError, ModelError, ModelState, ScheduleError,
                        UndefinedConditionalError, default_task_list,
                        seed_task_list)
from dmbl.probability import BaseMeasure, init_measure, prob
from dmbl.worlds import PropSet, bit_indices

from oracle import NotDefined, drive_from_state, to_set

APP_TASKS = [0b011, 0b100, 0b110, 0b001, 0b101, 0b010]


def _task_front(s, count):
    # the next concrete task-list entries as (mask, level), up to the first marker
    return list(takewhile(lambda item: item[0] is not None, s._schedule_items))[:count]


def test_init_one_atom():
    s = ModelState.from_atoms(["p"])
    assert s.width(0) == 2
    assert s.h("p").cardinality() == 1


def test_init_two_atoms():
    s = ModelState.from_atoms(["p", "q"])
    assert s.width(0) == 4
    assert s.h("p").cardinality() == 2
    assert (s.h("p") & s.h("q")).cardinality() == 1


def test_init_explicit_worlds_with_task_list():
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS)
    assert s.width(0) == 3
    assert [mask for mask, _ in _task_front(s, 8)] == APP_TASKS


def test_init_empty_base_rejected():
    with pytest.raises(Exception):
        ModelState.from_worlds([])
    with pytest.raises(Exception):
        ModelState.from_atoms([])


def test_bad_task_lists_rejected():
    for bad in ([0b011, 0b101], [0b011, 0b100, 0b011, 0b100],
                [0b011, 0b100, 0b110, 0b001]):
        with pytest.raises(ScheduleError):
            ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                                   task_list=bad)


def test_seed_task_list_prioritizes():
    tl = seed_task_list(4, [0b1100])
    assert tl[0] == 0b1100 and tl[1] == 0b0011
    assert sorted(tl) == sorted(default_task_list(4))


def test_step_golden_three_worlds():
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS)
    s.step()
    assert s.width(1) == 4
    labels = s.base_labels
    assert [(labels[l], labels[r]) for l, r in s.level(1).pairs] == [
        ("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")]


def test_step_singleton_event_on_one_atom():
    s = ModelState.from_atoms(["p"])
    s.step(s.h("p"))
    assert s.width(1) == 2 * 1 * 1


def test_step_degenerate_event_rejected():
    s = ModelState.from_atoms(["p", "q"])
    with pytest.raises(DegenerateEventError):
        s.step(s.empty(0))
    with pytest.raises(DegenerateEventError):
        s.step(s.full(0))


def test_case_zero_restep_cardinality():
    # process p, then q, then p again: the re-step's width equals the sum
    # of the doubled block products, cross-checked by the naive reference
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    s.step(s.lift(s.h("p"), 2))
    assert s.history[2].case == 0 and s.history[2].nu == 0
    assert s.width(3) == sum(
        2 * p.bit_count() * g.bit_count() for p, g in s.history[2].blocks)
    drive_from_state(s)  # world tables must match the naive construction


def test_step_defines_both_orientations():
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    x = PropSet(1, 0b0110_1001, 8)  # not an embedded set
    assert s.is_defined(x, s.lift(s.h("p"), 1))
    assert s.is_defined(x, s.lift(s.h("p").complement(), 1))


def test_demand_restep_normalizes_orientation():
    # asking for the complement of a processed event re-processes the prior
    # orientation, and the conditional against the complement works too
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    x = PropSet(2, 1, s.width(2))  # level-2 singletons never embed here
    co_p = s.lift(s.h("p").complement(), 2)
    assert not s.is_defined(x, co_p)
    s.step(co_p)
    assert s.history[2].case == 0 and s.history[2].nu == 0
    assert s.history[2].event == s.lift(s.h("p"), 2).mask
    assert s.is_defined(s.lift(x, 3), s.lift(co_p, 3))


def test_f_identity_against_degenerate():
    s = ModelState.from_atoms(["p", "q"])
    b = s.h("q")
    assert s.f_eval(b, s.empty(0)) == b
    assert s.f_eval(b, s.full(0)) == b
    assert s.is_defined(b, s.empty(0))


def test_f_golden_three_worlds():
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS)
    s.step()
    a = s.lift(s.from_indices(0, [0]), 1)
    b = s.lift(s.from_indices(0, [1]), 1)
    c = s.lift(s.from_indices(0, [2]), 1)
    ab = s.lift(s.from_indices(0, [0, 1]), 1)
    assert s.f_eval(a, ab).indices() == [0, 2]
    assert s.f_eval(b, ab).indices() == [1, 3]
    assert s.f_eval(c, c) == s.full(1)


def test_is_defined_lifecycle():
    s = ModelState.from_atoms(["p", "q"])
    assert not s.is_defined(s.h("q"), s.h("p"))
    s.step(s.h("p"))
    # total against the just-processed event at the new level
    for m in range(1 << s.width(1)):
        assert s.is_defined(PropSet(1, m, s.width(1)), s.lift(s.h("p"), 1))


def test_undefined_pair_raises():
    s = ModelState.from_atoms(["p", "q"])
    with pytest.raises(UndefinedConditionalError):
        s.f_eval(s.h("q"), s.h("p"))


def test_ensure_demand_single_step():
    s = ModelState.from_atoms(["p", "q"])
    s.ensure(s.h("q"), s.h("p"))
    assert s.num_levels == 2
    s.ensure(s.h("q"), s.h("p"))  # already defined: no growth
    assert s.num_levels == 2
    s.ensure(s.h("q"), s.empty(0))  # degenerate: no growth
    assert s.num_levels == 2


def test_ensure_no_step_against_just_processed_event():
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    x = PropSet(1, 0b0101_1010, 8)  # arbitrary set at the new top
    s.ensure(x, s.lift(s.h("p"), 1))
    assert s.num_levels == 2


@pytest.mark.parametrize("mode", ["demand", "canonical"])
def test_ensure_returns_lifted_conditional(mode):
    s = ModelState.from_atoms(["p", "q"], schedule=mode)
    p, q = s.h("p"), s.h("q")
    pairs = [(lambda: q, lambda: p),
             (lambda: s.lift(q, s.top), lambda: p.complement()),
             (lambda: q, lambda: s.empty(0))]
    if mode == "demand":   # canonical mode reaches these only past the caps
        pairs += [(lambda: p, lambda: q),
                  (lambda: PropSet(s.top, 0b1011, s.width(s.top)), lambda: p)]
    for b_fn, a_fn in pairs:
        b, a = b_fn(), a_fn()
        levels = s.num_levels
        got = s.ensure(b, a)
        assert got == s.f_eval(b, a)   # equality includes the level
        if mode == "demand":
            assert s.num_levels - levels <= 1


def test_ensure_on_snapshot_returns_without_growth():
    s = ModelState.from_atoms(["p", "q"])
    s.ensure(s.h("q"), s.h("p"))
    snap = s.snapshot()
    got = snap.ensure(snap.h("q"), snap.h("p"))
    assert snap.num_levels == 2
    assert got == snap.lift(snap.f_eval(snap.h("q"), snap.h("p")), 1)
    with pytest.raises(FrozenStateError):
        snap.ensure(snap.h("p"), snap.h("q"))
    assert snap.num_levels == 2


def test_atom_assignments_commute_with_embedding():
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    for atom in ("p", "q"):
        for n in range(s.top):
            assert s.lift(s.lift(s.h(atom), n), n + 1) == s.lift(s.h(atom), n + 1)


def test_ensure_canonical_advances_cursor():
    s = ModelState.from_atoms(["p", "q"], schedule="canonical")
    s.ensure(s.h("q"), s.h("p"))
    # default order processes the four single-world pairs before p's family
    assert s.num_levels == 6
    assert s.is_defined(s.lift(s.h("q"), s.top), s.lift(s.h("p"), s.top))


def test_canonical_one_atom_cycles_through_case_zero():
    s = ModelState.from_atoms(["p"], schedule="canonical", max_levels=6)
    for _ in range(5):
        s.step()
    assert [e.case for e in s.history] == [1, 0, 0, 0, 0]
    assert [s.width(i) for i in range(s.num_levels)] == [2] * 6
    drive_from_state(s)


def test_canonical_marker_expansion_three_worlds():
    # after the three original pairs, the task list's lazy marker expands
    # into exactly the level-1 sets that were never listed: everything
    # except the lifted tail, the re-queued pair, and the degenerate sets
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS, max_worlds=600)
    for _ in range(3):
        s.step()
    listed_before = {s._lift_mask(m, 0, 1) for m in APP_TASKS[2:]}
    pin = s.level(1).event_image_mask
    listed_before |= {pin, pin ^ (1 << s.width(1)) - 1}

    for _ in range(3):
        s.step()  # first expanded pairs of the level-1 marker
    expanded = []
    for ev in s.history[3:6]:
        pulled = s.image_test(PropSet(ev.level, ev.event, s.width(ev.level)), 1)
        assert pulled is not None  # expansion entries live at level 1
        expanded.append(pulled.mask)
    assert all(e not in listed_before for e in expanded)
    assert all(ev.case == 1 for ev in s.history)
    assert [s.width(i) for i in range(s.num_levels)] == [3, 4, 6, 10, 18, 34, 528]
    with pytest.raises(CapExceededError):
        s.step()
    drive_from_state(s)  # whole canonical history matches the naive build


def test_canonical_marker_expands_to_the_new_sets_in_order():
    # the level-1 marker stands for every pair of canonical_pairs(4) whose
    # representative is no lifted level-0 set, in that order
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS)
    for _ in range(4):
        s.step()
    lifted = {s.lift(PropSet(0, m, 3), 1).mask for m in range(1, 7)}
    expected = [m for pair in model.canonical_pairs(4) if pair[0] not in lifted
                for m in pair]
    assert expected == [4, 11, 8, 7, 5, 10, 9, 6]
    ev = s.history[3]
    first = s.image_test(PropSet(ev.level, ev.event, s.width(ev.level)), 1)
    front = _task_front(s, 6)
    assert all(level == 1 for _, level in front)
    assert [first.mask, first.complement().mask] + [mask for mask, _ in front] == expected


def test_decide_with_conditional_valued_event():
    # conditioning on a conditional: the event itself lies outside the
    # embedded base algebra and is processed as a fresh case-1 step
    s = ModelState.from_atoms(["p", "q"])
    from dmbl.evaluator import assign, valid
    from dmbl.formula import parse

    assert valid(s, parse("(((p /\\ q)|(q|p))) -> ((q|p) -> (p /\\ q))"))
    assert s.history[-1].case == 1


def test_three_atoms_smoke():
    from dmbl.evaluator import valid
    from dmbl.formula import parse

    s = ModelState.from_atoms(["p", "q", "r"])
    assert s.width(0) == 8
    assert valid(s, parse("((q|p) /\\ p) <-> (p /\\ q)"))
    assert valid(s, parse("((~r)|(p \\/ q)) <-> ~(r|(p \\/ q))"))


def test_snapshot_isolated_from_later_growth():
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    snap = s.snapshot()
    s.step(s.lift(s.h("q"), 1))
    assert snap.num_levels == 2 and s.num_levels == 3
    assert len(snap.history) == 1


def test_case_zero_step_becomes_its_familys_match():
    s = ModelState.from_atoms(["p", "q"])
    p, q = s.h("p"), s.h("q")
    s.step(p)
    s.step(s.lift(q, 1))
    snap = s.snapshot()
    s.step(s.lift(p.complement(), 2))    # re-processes p's family
    assert s.history[2].case == 0 and s.history[2].nu == 0
    assert s._find_match(p.mask, 0) == (2, True)
    assert s._find_match(p.complement().mask, 0) == (2, False)
    assert s._find_match(q.mask, 0) == snap._find_match(q.mask, 0) == (1, True)
    # the snapshot's index is a copy: the owner's later step does not show
    assert snap._find_match(p.mask, 0) == (0, True)
    assert snap._find_match(p.complement().mask, 0) == (0, False)


def test_snapshot_refuses_growth_through_ensure():
    from dmbl.evaluator import assign
    from dmbl.formula import parse

    s = ModelState.from_atoms(["p", "q"])
    snap = s.snapshot()
    with pytest.raises(FrozenStateError):
        assign(snap, parse("(q|p)"))


def test_canonical_task_list_reappends_processed_pair():
    s = ModelState.from_worlds(["a", "b", "c"], schedule="canonical",
                               task_list=APP_TASKS)
    s.step()
    # lifted tail first, up to the lazy new-entries marker
    assert [mask for mask, _ in _task_front(s, 16)] == APP_TASKS[2:]
    # the processed pair reappears at the very back, at the new level
    mask, level = s._schedule_items[-2]
    assert (mask, level) == (s.level(1).event_image_mask, 1)


def test_caps_reported():
    s = ModelState.from_atoms(["p", "q"], max_worlds=7)
    with pytest.raises(CapExceededError):
        s.step(s.h("p"))
    s2 = ModelState.from_atoms(["p", "q"], max_levels=1)
    s2.step(s2.h("p"))
    with pytest.raises(CapExceededError):
        s2.step(s2.lift(s2.h("q"), 1))
    # the base level is capped too, before it is built
    with pytest.raises(CapExceededError, match="level too wide: 8 > cap 7"):
        ModelState.from_atoms(["p", "q", "r"], max_worlds=7)
    with pytest.raises(CapExceededError, match="level too wide: 3 > cap 2"):
        ModelState.from_worlds(["a", "b", "c"], max_worlds=2)
    assert ModelState.from_worlds(["a", "b"], max_worlds=2).width(0) == 2


def test_snapshot_is_read_only():
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    snap = s.snapshot()
    assert snap.f_eval(snap.lift(snap.h("q"), 1), snap.lift(snap.h("p"), 1)) \
        == s.f_eval(s.lift(s.h("q"), 1), s.lift(s.h("p"), 1))
    with pytest.raises(FrozenStateError):
        snap.step(snap.lift(snap.h("q"), 1))
    # the original still accepts writes
    s.step(s.lift(s.h("q"), 1))
    assert s.num_levels == 3


def test_dump_stable_and_deterministic():
    def build():
        s = ModelState.from_atoms(["p", "q"])
        s.step(s.h("p"))
        return json.dumps(s.to_json(), sort_keys=False)

    assert build() == build()
    data = json.loads(build())
    assert data["levels"][1]["pairs"]
    assert data["history"][0]["blocks"]


# --- conditional-map laws on random demand models -------------------------


def _random_demand_state(seed):
    rng = random.Random(seed)
    s = ModelState.from_atoms(["p", "q"], max_worlds=5000)
    events = [s.h("p"), s.h("q"), s.h("p") & s.h("q"), s.h("p") | s.h("q")]
    for _ in range(rng.choice((2, 3))):
        ev = s.lift(rng.choice(events), s.top)
        try:
            s.step(ev)
        except (DegenerateEventError, CapExceededError):
            pass
    return rng, s


def _defined_pairs(s, rng, count=40):
    out = []
    t = s.top
    w = s.width(t)
    families = []
    for i, ev in enumerate(s.history):
        lifted = s._lift_mask(ev.event, ev.level, t)
        if s._find_match(lifted, t)[0] == i:
            families.append((ev.level + 1, lifted))
    for _ in range(count):
        base, a_mask = rng.choice(families)
        bw = s.width(base)
        c = rng.randrange(1 << bw)
        b = s.lift(PropSet(base, c, bw), t)
        a = PropSet(t, a_mask, w)
        if rng.random() < 0.5:
            a = a.complement()
        out.append((b, a))
    return out


@given(st.integers(min_value=0, max_value=3_000))
def test_conditional_laws_random(seed):
    rng, s = _random_demand_state(seed)
    for b, a in _defined_pairs(s, rng):
        fba = s.f_eval(b, a)
        assert a & fba == a & b
        assert s.f_eval(b.complement(), a) == fba.complement()
        if not a.is_empty and a.issubset(b):
            assert fba.is_full
        if fba == b:
            assert s.f_eval(b, a.complement()) == b
        assert s.f_eval(fba, a) == fba
        assert s.f_eval(fba, a.complement()) == fba
        assert fba == (b & a) | (a.complement() & fba)


@given(st.integers(min_value=0, max_value=3_000))
def test_conditional_union_distribution_random(seed):
    # both arguments drawn from the same family's defining level
    rng, s = _random_demand_state(seed)
    t = s.top
    for i, ev in enumerate(s.history):
        lifted = s._lift_mask(ev.event, ev.level, t)
        if s._find_match(lifted, t)[0] != i:
            continue
        base = ev.level + 1
        bw = s.width(base)
        a = PropSet(t, lifted, s.width(t))
        for _ in range(8):
            b = s.lift(PropSet(base, rng.randrange(1 << bw), bw), t)
            c = s.lift(PropSet(base, rng.randrange(1 << bw), bw), t)
            assert s.f_eval(b | c, a) == s.f_eval(b, a) | s.f_eval(c, a)
            assert s.f_eval(b & c, a) == s.f_eval(b, a) & s.f_eval(c, a)


def _random_canonical_state(seed):
    rng = random.Random(seed)
    atoms = rng.choice((["p"], ["p", "q"]))
    width = 1 << len(atoms)
    priority = rng.sample(range(1, (1 << width) - 1), rng.randrange(1, width))
    s = ModelState.from_atoms(atoms, schedule="canonical", max_worlds=5000,
                              task_list=seed_task_list(width, priority))
    for _ in range(rng.randrange(1, 6)):
        try:
            s.step()
        except CapExceededError:
            break
    return rng, s


def _match_at_top(s, mask, level):
    # the definition matching compares at the events' own levels against:
    # every event and the set lifted to the top, latest event first
    t = s.top
    at_top = s._lift_mask(mask, level, t)
    for i in range(len(s.history) - 1, -1, -1):
        ev = s.history[i]
        lifted = s._lift_mask(ev.event, ev.level, t)
        if lifted == at_top:
            return i, True
        if lifted == at_top ^ ((1 << s.width(t)) - 1):
            return i, False
    return None


@given(st.integers(min_value=0, max_value=3_000), st.booleans())
def test_find_match_at_event_level_agrees_with_top(seed, canonical):
    rng, s = (_random_canonical_state if canonical else _random_demand_state)(seed)
    for n in range(s.num_levels):
        full = (1 << s.width(n)) - 1
        sets = [rng.randrange(full + 1) for _ in range(4)]   # mostly no preimage
        if n:
            sets.append(s.level(n).lift(rng.randrange(1 << s.width(n - 1))))
        for ev in s.history[:n]:
            lifted = s._lift_mask(ev.event, ev.level, n)
            sets += [lifted, lifted ^ full]
        for mask in sets:
            assert s._find_match(mask, n) == _match_at_top(s, mask, n)


@given(st.integers(min_value=0, max_value=3_000), st.booleans())
def test_events_record_their_lowest_preimage(seed, canonical):
    _, s = (_random_canonical_state if canonical else _random_demand_state)(seed)
    for ev in s.history:
        level, mask = ev.lowest
        assert s._lift_mask(mask, level, ev.level) == ev.event
        assert level == 0 or s.level(level).pull(mask) is None


@given(st.integers(min_value=0, max_value=3_000))
def test_f_matches_naive_reference(seed):
    rng, s = _random_demand_state(seed)
    om, maps = drive_from_state(s)
    for b, a in _defined_pairs(s, rng, count=10):
        got = to_set(maps, s.f_eval(b, a))
        want = om.f(to_set(maps, b), to_set(maps, a))
        assert got == want


@given(st.integers(min_value=0, max_value=3_000))
def test_undefined_agrees_with_naive_reference(seed):
    rng, s = _random_demand_state(seed)
    om, maps = drive_from_state(s)
    t = s.top
    w = s.width(t)
    for _ in range(10):
        b = PropSet(t, rng.randrange(1 << w), w)
        a = PropSet(t, rng.randrange(1 << w), w)
        try:
            want = om.f(to_set(maps, b), to_set(maps, a))
        except NotDefined:
            assert not s.is_defined(b, a)
            continue
        assert to_set(maps, s.f_eval(b, a)) == want


# --- the conditional's value built by rows --------------------------------


DEPTH_FOUR = "((((q|p)|q)|p /\\ q)|p \\/ q)"


def _plain_levels(s):
    # the model's levels above 0 built again by build_level from its
    # history's blocks: equal to its own, but unmarked and held by no model
    return [worlds.build_level(ev.level + 1, s.width(ev.level), ev.blocks)
            for ev in s.history]


def _unshared(s):
    # the model on plain levels, so each map runs the level's own code on
    # every call, as the NARROW_WIDTH a test sets picks it
    s._levels[1:] = _plain_levels(s)
    return s


@pytest.fixture
def fresh_intern_table():
    # no level an earlier test built, dumped or read is shared with this one
    model._interned.cache_clear()


def _depth_four_ladder():
    s = ModelState.from_atoms(["p", "q"])
    assign(s, parse(DEPTH_FOUR))
    return _unshared(s)


def test_wide_levels_of_a_prob_read_build_no_per_world_tables(fresh_intern_table):
    # the two wide levels are built, lifted onto, pulled off, conditioned and
    # weighed by runs of rows alone; the narrow ones by their tables alone
    s = ModelState.from_atoms(["p", "q"])
    assign(s, parse(DEPTH_FOUR))
    m = init_measure(s, BaseMeasure.from_weights(
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]))
    assert prob(s, m, parse("((((q|p)|q)|p /\\ q)|p \\/ q) <-> ((q|p)|q)")) == Fraction(2, 3)
    for n, width in ((1, 8), (2, 32), (3, 384), (4, 40960)):
        built = s.level(n).__dict__
        assert s.width(n) == width
        assert ("_tables" in built, "_segments" in built) == (
            (True, False) if width <= worlds.NARROW_WIDTH else (False, True)), n


def _case_zero_ladder():
    # re-processing p makes the last step one of four blocks
    s = ModelState.from_atoms(["p", "q"])
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    s.step(s.lift(s.h("p"), 2))
    return _unshared(s)


def _interleaved_ladder():
    # re-processing {a} after two events that split its lifts: a block half
    # of the last level falls into several runs of consecutive rows
    s = ModelState.from_worlds(["a", "b", "c"])
    s.step(s.from_indices(0, [0]))
    s.step(s.from_indices(1, [1, 3]))
    s.step(s.from_indices(2, [5, 6]))
    s.step(s.lift(s.from_indices(0, [0]), 3))
    top = s.level(s.top)
    assert len(top._segments) > 2 * len(top.blocks)
    return _unshared(s)


def _by_definition(s, b, base, direct):
    # lift to the defining level, cut to one side, transpose, join
    image = PropSet(base, s.level(base).event_image_mask, s.width(base))
    side = s.lift(b, base) & (image if direct else image.complement())
    return side | s.transpose(side)


@pytest.mark.parametrize("narrow", [worlds.NARROW_WIDTH, 0],
                         ids=["as-shipped", "rows-everywhere"])
@pytest.mark.parametrize("build,ladder", [
    (_depth_four_ladder, [4, 8, 32, 384, 40960]),
    (_case_zero_ladder, [4, 8, 32, 128]),
    (_interleaved_ladder, [3, 4, 8, 24, 160]),
], ids=["depth-four", "case-zero", "interleaved"])
def test_conditional_by_rows_matches_definition(build, ladder, narrow, monkeypatch):
    # built before the width is set, so no level is shared under a patched
    # width; the ladder's own levels are plain and follow the width read
    s = build()
    monkeypatch.setattr(worlds, "NARROW_WIDTH", narrow)
    assert [s.width(n) for n in range(s.num_levels)] == ladder
    defining = {}   # the levels where f_eval reads a family, with its event
    for ev in s.history:
        a = PropSet(ev.level, ev.event, s.width(ev.level))
        idx, _ = s._find_match(a.mask, a.level)
        defining[s.history[idx].level + 1] = a
    rng = random.Random(29)
    for base in range(1, s.num_levels):
        lvl = s.level(base)
        for lower in range(base):
            width = s.width(lower)
            for mask in [0, (1 << width) - 1, rng.getrandbits(width),
                         rng.getrandbits(width), rng.getrandbits(width)]:
                b = PropSet(lower, mask, width)
                for direct in (True, False):
                    want = _by_definition(s, b, base, direct)
                    below = s.lift(b, base - 1).mask
                    assert lvl.conditional(below, direct) == want.mask, (base, lower)
                    if base in defining:
                        a = defining[base]
                        assert s.f_eval(b, a if direct else a.complement()) == want, (base, lower)


@pytest.mark.parametrize("build", [_depth_four_ladder, _case_zero_ladder,
                                   _interleaved_ladder],
                         ids=["depth-four", "case-zero", "interleaved"])
def test_conditional_at_or_above_the_defining_level(build):
    # a consequent at the defining level or above has no constant rows and
    # takes the cut-and-transpose path
    s = build()
    rng = random.Random(31)
    for ev in s.history:
        a = PropSet(ev.level, ev.event, s.width(ev.level))
        idx, _ = s._find_match(a.mask, a.level)
        base = s.history[idx].level + 1
        width = s.width(base)
        for _ in range(3):
            b = PropSet(base, rng.getrandbits(width), width)
            for direct, event in ((True, a), (False, a.complement())):
                want = _by_definition(s, b, base, direct)
                assert s.f_eval(b, event) == want
                assert s.f_eval(s.lift(b, s.top), event) == s.lift(want, s.top)


def test_lift_onto_own_level_returns_the_set():
    s = _case_zero_ladder()
    for n in range(s.num_levels):
        x = PropSet(n, random.Random(n).getrandbits(s.width(n)), s.width(n))
        assert s.lift(x, n) is x
        with pytest.raises(ModelError):
            s.lift(x, s.top + 1)
        if n:
            with pytest.raises(ModelError):
                s.lift(x, n - 1)


# --- sets lifted and pulled by runs of rows --------------------------------


_LADDERS = pytest.mark.parametrize(
    "build", [_depth_four_ladder, _case_zero_ladder, _interleaved_ladder],
    ids=["depth-four", "case-zero", "interleaved"])


def _on_both_paths(monkeypatch, s, call):
    # call with every level moved bit by bit, then with every level by runs
    out = []
    for narrow in (s.width(s.top), 0):
        monkeypatch.setattr(worlds, "NARROW_WIDTH", narrow)
        out.append(call())
    return out


@_LADDERS
def test_lift_and_pull_by_runs_match_the_bit_loops(build, monkeypatch):
    s = build()
    rng = random.Random(37)
    for n in range(1, s.num_levels):
        lvl, below, width = s.level(n), s.width(n - 1), s.width(n)
        for mask in [0, (1 << below) - 1, 1 << rng.randrange(below),
                     rng.getrandbits(below), rng.getrandbits(below)]:
            bits, runs = _on_both_paths(monkeypatch, s, lambda: lvl.lift(mask))
            assert bits == runs, (n, mask)
            # pull after lift is the identity
            assert _on_both_paths(monkeypatch, s, lambda: lvl.pull(runs)) == [mask, mask], n
        for mask in [0, (1 << width) - 1, 1 << rng.randrange(width),
                     rng.getrandbits(width), rng.getrandbits(width)]:
            bits, runs = _on_both_paths(monkeypatch, s, lambda: lvl.pull(mask))
            assert bits == runs, (n, mask)


@_LADDERS
def test_a_lift_with_one_bit_flipped_has_no_preimage(build, monkeypatch):
    s = build()
    rng = random.Random(41)
    for n in range(1, s.num_levels):
        lvl = s.level(n)
        lifted = lvl.lift(rng.getrandbits(s.width(n - 1)))
        # every bit of a row longer than one, sampled on the widest level
        where, runs, rows = lvl._tables
        flips = [i for x in rows if len(where[x][2]) > 1 for i in range(*runs[x])]
        for i in rng.sample(flips, min(len(flips), 400)):
            assert _on_both_paths(monkeypatch, s,
                                  lambda: lvl.pull(lifted ^ 1 << i)) == [None, None]


@_LADDERS
def test_transpose_agrees_on_both_paths(build, monkeypatch):
    # at every level: the empty, full, a one-bit and a random set, lifts from
    # each lower level and each step's conditional value
    s = build()
    rng = random.Random(53)
    b = PropSet(0, rng.getrandbits(s.width(0)), s.width(0))
    values = [s.f_eval(b, PropSet(ev.level, ev.event, s.width(ev.level))) for ev in s.history]
    for n in range(1, s.num_levels):
        lvl, width = s.level(n), s.width(n)
        sets = [0, (1 << width) - 1, 1 << rng.randrange(width), rng.getrandbits(width)]
        sets += [s.lift(PropSet(m, rng.getrandbits(s.width(m)), s.width(m)), n).mask
                 for m in range(n)]
        sets += [s.lift(v, n).mask for v in values if v.level <= n]
        for mask in sets:
            bits, runs = _on_both_paths(monkeypatch, s, lambda: lvl.transpose(mask))
            assert bits == runs == lvl._transpose_bits(mask), (n, mask)
            # the swap is an involution
            assert _on_both_paths(monkeypatch, s, lambda: lvl.transpose(runs)) == [mask, mask], n


@_LADDERS
def test_row_groups_give_the_set_by_distinct_rows(build, monkeypatch):
    # at every level, bit by bit and by runs: one triple (k, pattern, rows)
    # per distinct half and nonzero row, each field inside its half, and the
    # pairs the triples name make up the set again
    s = build()
    rng = random.Random(59)
    for n in range(1, s.num_levels):
        lvl, below, width = s.level(n), s.width(n - 1), s.width(n)
        halves = [half for block in lvl.blocks for half in block]
        index = {pair: i for i, pair in enumerate(lvl.pairs)}
        lifted = lvl.lift(rng.getrandbits(below))
        value = lvl.conditional(rng.getrandbits(below), rng.random() < 0.5)
        for mask in [0, (1 << width) - 1, rng.getrandbits(width), lifted, value, lifted | value]:
            bits, runs = _on_both_paths(monkeypatch, s, lambda: lvl.row_groups(mask))
            assert sorted(bits) == sorted(runs), (n, mask)
            assert len({(k, pattern) for k, pattern, _ in runs}) == len(runs), (n, mask)
            got = 0
            for k, pattern, rows in runs:
                assert 0 < pattern < 1 << len(halves[k]), (n, mask)
                assert 0 < rows < 1 << len(halves[k ^ 1]), (n, mask)
                for x in bit_indices(rows):
                    for y in bit_indices(pattern):
                        got |= 1 << index[halves[k ^ 1][x], halves[k][y]]
            assert got == mask, (n, mask)


@_LADDERS
def test_lift_sizes_count_the_lifted_worlds(build):
    s = build()
    for n in range(s.num_levels):
        assert s._lift_sizes(n) == [s._lift_mask(1 << x, n, s.top).bit_count()
                                    for x in range(s.width(n))], n


def test_a_case_zero_step_past_the_cap_lifts_no_block(monkeypatch):
    # re-processing p at level 2 would build 128 worlds; the cap refuses
    # them from the blocks' sizes, before any block is lifted to the top
    s = ModelState.from_atoms(["p", "q"], max_worlds=127)
    s.step(s.h("p"))
    s.step(s.lift(s.h("q"), 1))
    lifts = []
    real = ModelState._lift_mask

    def spy(self, mask, level, target):
        lifts.append((level, target))
        return real(self, mask, level, target)

    monkeypatch.setattr(ModelState, "_lift_mask", spy)
    with pytest.raises(CapExceededError, match="level too wide: 4 → 8 → 32 → 128 > cap 127"):
        s.step(s.lift(s.h("p"), 2))
    assert lifts == [(0, 2)]    # the event's own lift only
    assert s.num_levels == 3 and len(s.history) == 2


@_LADDERS
def test_lowest_and_image_test_agree_on_both_paths(build, monkeypatch):
    s = build()
    rng = random.Random(43)
    top, b = s.top, s.from_indices(0, [1])
    # lifts from every level, each step's conditional value and a random set
    sets = [s.lift(PropSet(n, rng.getrandbits(s.width(n)), s.width(n)), top)
            for n in range(s.num_levels)]
    sets += [s.lift(s.f_eval(b, PropSet(ev.level, ev.event, s.width(ev.level))), top)
             for ev in s.history]
    sets.append(PropSet(top, rng.getrandbits(s.width(top)), s.width(top)))
    for x in sets:
        bits, runs = _on_both_paths(monkeypatch, s, lambda: s._lowest(x.mask, top))
        assert bits == runs
        for src in range(top + 1):
            bits, runs = _on_both_paths(monkeypatch, s, lambda: s.image_test(x, src))
            assert bits == runs
            assert (runs is not None) == (src >= s._lowest(x.mask, top)[0])


def test_a_fresh_event_is_lowered_once_per_step(monkeypatch):
    lowered = []
    real = ModelState._lowest

    def spy(self, mask, level):
        lowered.append(level)
        return real(self, mask, level)

    monkeypatch.setattr(ModelState, "_lowest", spy)
    s = ModelState.from_atoms(["p", "q"])
    for atom, case in (("p", 1), ("q", 1), ("p", 0)):
        event = s.lift(s.h(atom), s.top)
        lowered.clear()
        s.step(event)
        assert s.history[-1].case == case
        assert lowered == [event.level]


def test_lowest_preimages_of_narrow_sets_are_remembered(monkeypatch):
    s = ModelState.from_atoms(["p", "q"])
    assign(s, parse(DEPTH_FOUR))
    pulls = []
    real = worlds.Level.pull

    def spy(self, mask):
        pulls.append(self.index)
        return real(self, mask)

    monkeypatch.setattr(worlds.Level, "pull", spy)

    def lowest_twice(mask, level):
        # each answer with the number of pulls it took
        out = []
        for _ in range(2):
            pulls.clear()
            out.append((s._lowest(mask, level), len(pulls)))
        return out

    p, q = s.h("p").mask, s.h("q").mask
    narrow, wide = s.lift(s.h("p"), 2).mask, s.lift(s.h("q"), 4).mask
    # a set of a 32-world level is pulled down once, one of 40960 worlds each time
    assert lowest_twice(narrow, 2) == [((0, p), 2), ((0, p), 0)]
    assert lowest_twice(wide, 4) == [((0, q), 4), ((0, q), 4)]
    assert s._lows[2, narrow] == (0, p) and (4, wide) not in s._lows
    # a snapshot copies the memo: the owner's later entries do not show
    snap = s.snapshot()
    assert snap._lows == s._lows
    later = (1, s.lift(s.h("q"), 1).mask)
    s._lowest(later[1], 1)
    assert later in s._lows and later not in snap._lows


# --- read-many levels answer by byte lookup --------------------------------


_READ_MANY_MODELS = [DEPTH_FOUR, "(((q|p)|q)|~p)"]


@functools.cache
def _marked_and_plain(text):
    # a snapshot of the model ``text`` builds, on its levels (which the
    # snapshot marks), and the same levels built again unmarked, from index 1
    marked = ModelState.from_atoms(["p", "q"])
    assign(marked, parse(text))
    snap = marked.snapshot()
    plain = [None] + _plain_levels(snap)
    assert sorted(_byte_maps(snap.level(1))) == ["conditional", "conditional_here", "lift",
                                                 "transpose"]
    assert all(plain[n] == snap.level(n) and not _byte_maps(plain[n])
               for n in range(1, snap.num_levels))
    return snap, plain


def _byte_maps(lvl):
    # the maps a level answers by lookup, by name
    return {name: vars(lvl)[name] for name in ("lift", "conditional", "transpose",
                                               "conditional_here") if name in vars(lvl)}


def _source_masks(width):
    # the empty mask, masks inside one byte and masks nonzero in every byte
    sizes = [min(8, width - j) for j in range(0, width, 8)]
    one_byte = st.integers(0, len(sizes) - 1).flatmap(
        lambda j: st.integers(1, (1 << sizes[j]) - 1).map(lambda v: v << 8 * j))
    every_byte = st.tuples(*(st.integers(1, (1 << n) - 1) for n in sizes)).map(
        lambda vs: sum(v << 8 * j for j, v in enumerate(vs)))
    return st.one_of(st.just(0), one_byte, every_byte)


@pytest.mark.parametrize("text", _READ_MANY_MODELS, ids=["depth-four", "case-zero"])
@given(data=st.data())
def test_read_many_levels_answer_as_unmarked_ones(text, data):
    snap, plain = _marked_and_plain(text)
    for n in range(1, snap.num_levels):
        lvl, ref = snap.level(n), plain[n]
        maps = _byte_maps(lvl)
        if "lift" in maps:
            below = data.draw(_source_masks(lvl.prev_width))
            assert lvl.lift(below) == ref.lift(below), (n, below)
            for direct in (False, True):
                assert lvl.conditional(below, direct) == ref.conditional(below, direct)
        if "transpose" in maps:
            mask = data.draw(_source_masks(lvl.width))
            assert lvl.transpose(mask) == ref.transpose(mask), (n, mask)
            for direct in (False, True):
                assert lvl.conditional_here(mask, direct) == ref.conditional_here(mask, direct)


def test_only_levels_a_snapshot_shares_carry_byte_maps(fresh_intern_table):
    every_map = ["conditional", "conditional_here", "lift", "transpose"]
    s = ModelState.from_atoms(["p", "q"])
    m = init_measure(s, BaseMeasure.from_weights([Fraction(1, 4)] * 4))
    assert prob(s, m, parse("((q|p)|q)")) == Fraction(3, 4)
    assert all(not vars(s.level(n)).keys() & set(every_map) for n in range(s.num_levels))
    snap = s.snapshot()
    assert [sorted(_byte_maps(snap.level(n))) for n in range(3)] == [[], every_map, every_map]
    # the owner shares the marked levels; a level it builds later is unmarked
    assert all(s.level(n) is snap.level(n) for n in range(3))
    assign(s, parse("(((q|p)|q)|~p)"))
    assert [s.width(n) for n in range(s.num_levels)] == [4, 8, 32, 128]
    assert not _byte_maps(s.level(3)) and snap.num_levels == 3
    # the maps from 32 worlds onto 128 are looked up, the swap on 128 is not;
    # on the depth-four ladder nothing from 384 worlds onto 40960 is
    assert sorted(_byte_maps(s.snapshot().level(3))) == ["conditional", "lift"]
    deep, _ = _marked_and_plain(_READ_MANY_MODELS[0])
    assert [deep.width(n) for n in range(deep.num_levels)] == [4, 8, 32, 384, 40960]
    assert not _byte_maps(deep.level(4))
    for lvl in [s.level(n) for n in range(1, 4)] + [deep.level(n) for n in range(1, 5)]:
        maps = _byte_maps(lvl)
        assert ("lift" in maps) == ("conditional" in maps) == (
            lvl.prev_width <= worlds.NARROW_WIDTH)
        assert ("transpose" in maps) == ("conditional_here" in maps) == (
            lvl.width <= worlds.NARROW_WIDTH)


def test_a_level_a_second_model_takes_carries_byte_maps(fresh_intern_table):
    every_map = ["conditional", "conditional_here", "lift", "transpose"]
    pi = BaseMeasure.from_weights([Fraction(1, 4)] * 4)

    def run():
        s = ModelState.from_atoms(["p", "q"])
        assert prob(s, init_measure(s, pi), parse("((q|p)|q)")) == Fraction(3, 4)
        return s

    # the model that builds a level reads it directly; the next model to
    # take it from the table marks it, and it keeps its maps for every later one
    first = run()
    assert not any(_byte_maps(first.level(n)) for n in range(3))
    for _ in range(2):
        later = run()
        assert all(first.level(n) is later.level(n) for n in range(1, 3))
        assert [sorted(_byte_maps(later.level(n))) for n in range(3)] == [
            [], every_map, every_map]


@pytest.mark.parametrize("text", _READ_MANY_MODELS, ids=["depth-four", "case-zero"])
def test_byte_tables_stay_within_their_bound(text):
    # every byte value read at every position: at most 256 entries per
    # table, none wider than the level, which holds at most prev_width**2 // 2
    snap, _ = _marked_and_plain(text)
    for n in range(1, snap.num_levels):
        lvl = snap.level(n)
        assert lvl.width <= lvl.prev_width ** 2 // 2
        for name, found in _byte_maps(lvl).items():
            width = lvl.prev_width if name in ("lift", "conditional") else lvl.width
            for byte_map in [found] if name in ("lift", "transpose") else found:
                assert len(byte_map) == (width + 7) // 8
                for j, table in enumerate(byte_map):
                    for v in range(1 << min(8, width - 8 * j)):
                        byte_map(v << 8 * j)
                    assert len(table) <= 256
                    assert all(value.bit_length() <= lvl.width <= 2048
                               for value in table.values())


# --- levels shared between models --------------------------------------------


def test_two_models_running_one_query_share_their_levels():
    f = parse(DEPTH_FOUR)
    first, second = ModelState.from_atoms(["p", "q"]), ModelState.from_atoms(["p", "q"])
    assign(first, f)
    assign(second, f)
    assert [second.width(n) for n in range(second.num_levels)] == [4, 8, 32, 384, 40960]
    assert all(first.level(n) is second.level(n) for n in range(1, 5))
    assert first.history == second.history


def test_a_lower_cap_refuses_a_cached_ladder_as_an_uncached_one(fresh_intern_table):
    f = parse(DEPTH_FOUR)

    def refusal():
        s = ModelState.from_atoms(["p", "q"], max_worlds=1000)
        with pytest.raises(CapExceededError) as info:
            assign(s, f)
        return str(info.value), [s.width(n) for n in range(s.num_levels)]

    uncached = refusal()
    assign(ModelState.from_atoms(["p", "q"]), f)     # interns the 40960-world level
    assert refusal() == uncached == (
        "level too wide: 4 → 8 → 32 → 384 → 40960 > cap 1000", [4, 8, 32, 384])


@pytest.mark.parametrize("worlds_below,event,kept", [
    (400, 200, False), (300, 150, True), (600, 16, False)],
    ids=["80000-worlds", "45000-worlds", "18688-worlds-from-600"])
def test_only_levels_within_the_intern_widths_outlive_their_model(worlds_below, event, kept):
    s = ModelState.from_worlds([str(i) for i in range(worlds_below)])
    s.step(s.from_indices(0, range(event)))
    assert (s.width(1) <= model.INTERN_WIDTH
            and worlds_below <= model.INTERN_PREV_WIDTH) == kept
    level = weakref.ref(s.level(1))
    del s
    gc.collect()
    assert (level() is not None) == kept


def test_the_intern_table_holds_at_most_64_levels():
    # 80 one-step models, each on its own event of 81 worlds
    for k in range(1, 81):
        s = ModelState.from_worlds([str(i) for i in range(81)])
        s.step(s.from_indices(0, range(k)))
        assert s.width(1) == 2 * k * (81 - k)
        assert model._interned.cache_info().currsize <= 64
    assert model._interned.cache_info().currsize == 64
    assert s.level(1) is model._interned(1, 81, s.history[0].blocks)[0]


def test_threads_building_one_ladder_agree(fresh_intern_table):
    # more threads than cores, switching often, all filling the tables of
    # the same shared levels for the first time
    f = parse(DEPTH_FOUR + " <-> ((q|p)|q)")
    pi = BaseMeasure.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                                   Fraction(1, 8)])
    results = [None] * 4

    def run(i):
        s = ModelState.from_atoms(["p", "q"])
        value = prob(s, init_measure(s, pi), f)
        results[i] = value, [s.width(n) for n in range(s.num_levels)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(Fraction(2, 3), [4, 8, 32, 384, 40960])] * len(results)
