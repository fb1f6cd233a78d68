import json
import random

import pytest
from hypothesis import given, strategies as st

from dmbl.model import (CapExceededError, DegenerateEventError,
                        FrozenStateError, ModelState, ScheduleError,
                        UndefinedConditionalError, default_task_list,
                        seed_task_list)
from dmbl.worlds import PropSet

from oracle import NotDefined, drive_from_state, to_set

APP_TASKS = [0b011, 0b100, 0b110, 0b001, 0b101, 0b010]


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
    assert [ps.mask for ps in s.pending_task_front()] == APP_TASKS


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
        assert got.level == s.top
        assert got == s.lift(s.f_eval(b, a), s.top)
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
            assert s.mu(s.h_at(atom, n)) == s.h_at(atom, n + 1)


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
    assert [ps.mask for ps in s.pending_task_front(16)] == APP_TASKS[2:]
    # the processed pair reappears at the very back, at the new level
    kind, mask, level = s._schedule_items[-2]
    assert (mask, level) == (s.level(1).event_image_mask, 1)


def test_caps_reported():
    s = ModelState.from_atoms(["p", "q"], max_worlds=7)
    with pytest.raises(CapExceededError):
        s.step(s.h("p"))
    s2 = ModelState.from_atoms(["p", "q"], max_levels=1)
    s2.step(s2.h("p"))
    with pytest.raises(CapExceededError):
        s2.step(s2.lift(s2.h("q"), 1))


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
        if s._find_match(lifted)[0] == i:
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
        if s._find_match(lifted)[0] != i:
            continue
        base = ev.level + 1
        bw = s.width(base)
        a = PropSet(t, lifted, s.width(t))
        for _ in range(8):
            b = s.lift(PropSet(base, rng.randrange(1 << bw), bw), t)
            c = s.lift(PropSet(base, rng.randrange(1 << bw), bw), t)
            assert s.f_eval(b | c, a) == s.f_eval(b, a) | s.f_eval(c, a)
            assert s.f_eval(b & c, a) == s.f_eval(b, a) & s.f_eval(c, a)


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
