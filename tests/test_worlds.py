import random

import pytest
from hypothesis import given, strategies as st

from dmbl.model import DegenerateEventError, ModelState
from dmbl.worlds import (LevelMismatchError, PropSet, WorldsError,
                         bit_indices, build_level)

from oracle import drive_from_state, to_set


def three_world_state():
    s = ModelState.from_worlds(["a", "b", "c"])
    s.step(s.from_indices(0, [0, 1]))  # event {a, b}
    return s


def test_algebra_ops_basics():
    s = ModelState.from_worlds(["a", "b", "c"])
    ab = s.from_indices(0, [0, 1])
    bc = s.from_indices(0, [1, 2])
    assert ab.complement() == s.from_indices(0, [2])
    assert (ab & bc) == s.from_indices(0, [1])
    assert (ab | bc) == s.full(0)
    assert (ab - bc) == s.from_indices(0, [0])
    assert s.empty(0).issubset(ab)
    assert s.empty(0).is_empty and s.full(0).is_full


def test_level_mismatch_rejected():
    s = three_world_state()
    with pytest.raises(LevelMismatchError):
        s.full(0) & s.full(1)


def test_level_one_world_table():
    s = three_world_state()
    labels = s.base_labels
    pairs = [(labels[l], labels[r]) for l, r in s.level(1).pairs]
    assert pairs == [("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")]


def test_transpose_single_pair():
    s = three_world_state()
    # world 0 is (a, c); its swap (c, a) is world 2
    assert s.transpose(s.from_indices(1, [0])) == s.from_indices(1, [2])


def test_transpose_trivia():
    s = three_world_state()
    assert s.transpose(s.empty(1)) == s.empty(1)
    assert s.transpose(s.full(1)) == s.full(1)  # closed under the swap


def test_transpose_involution():
    s = three_world_state()
    for m in range(1 << s.width(1)):
        ps = PropSet(1, m, s.width(1))
        assert s.transpose(s.transpose(ps)) == ps


def test_transpose_level_zero_rejected():
    s = three_world_state()
    with pytest.raises(Exception):
        s.transpose(s.full(0))


def test_mu_golden_values():
    s = three_world_state()
    assert s.mu(s.from_indices(0, [0])).indices() == [0]       # a -> (a,c)
    assert s.mu(s.from_indices(0, [2])).indices() == [2, 3]    # c -> (c,a),(c,b)
    assert s.mu(s.empty(0)).is_empty


def test_lift_identity_and_top():
    s = three_world_state()
    x = s.from_indices(0, [0, 2])
    assert s.lift(x, 0) == x
    assert s.lift(s.full(0), 1) == s.full(1)
    assert s.lift(s.from_indices(0, [0]), 1).indices() == [0]


def test_image_test_golden():
    s = three_world_state()
    # {(a,c),(c,a)} splits the block of c
    assert s.image_test(s.from_indices(1, [0, 2]), 0) is None
    assert s.image_test(s.from_indices(1, [0]), 0) == s.from_indices(0, [0])
    assert s.image_test(s.full(1), 0) == s.full(0)


def _random_state(seed):
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    s = ModelState.from_worlds([f"w{i}" for i in range(n)], max_worlds=3000)
    steps = rng.choice((1, 2, 2, 3))
    for _ in range(steps):
        w = s.width(s.top)
        mask = rng.randrange(1, (1 << w) - 1)
        try:
            s.step(PropSet(s.top, mask, w))
        except DegenerateEventError:
            pass
    return rng, s


@given(st.integers(min_value=0, max_value=2_000))
def test_morphism_laws(seed):
    rng, s = _random_state(seed)
    n = rng.randrange(s.top)
    w = s.width(n)
    a = PropSet(n, rng.randrange(1 << w), w)
    b = PropSet(n, rng.randrange(1 << w), w)
    assert s.mu(a & b) == s.mu(a) & s.mu(b)
    assert s.mu(a | b) == s.mu(a) | s.mu(b)
    assert s.mu(a.complement()) == s.mu(a).complement()
    assert s.mu(s.full(n)) == s.full(n + 1)
    if a != b:
        assert s.mu(a) != s.mu(b)  # injective
    assert s.image_test(s.mu(a), n) == a


@given(st.integers(min_value=0, max_value=2_000))
def test_block_partition_laws(seed):
    _, s = _random_state(seed)
    for ev in s.history:
        w = s.width(ev.level)
        full = (1 << w) - 1
        pi_union = 0
        ga_union = 0
        for pi, ga in ev.blocks:
            assert pi and ga
            assert pi_union & pi == 0 and ga_union & ga == 0
            pi_union |= pi
            ga_union |= ga
        assert pi_union == ev.event
        assert ga_union == ev.event ^ full
        assert pi_union & ga_union == 0


@given(st.integers(min_value=0, max_value=2_000))
def test_event_image_is_transpose_of_complement(seed):
    _, s = _random_state(seed)
    for n in range(1, s.num_levels):
        ev = PropSet(n, s.level(n).event_image_mask, s.width(n))
        assert s.transpose(ev.complement()) == ev
        assert s.transpose(ev) == ev.complement()


@given(st.integers(min_value=0, max_value=2_000))
def test_case_one_cardinality(seed):
    _, s = _random_state(seed)
    for ev in s.history:
        if ev.case == 1:
            b = ev.event.bit_count()
            nb = s.width(ev.level) - b
            assert s.width(ev.level + 1) == 2 * b * nb


@given(st.integers(min_value=0, max_value=1_000))
def test_mu_matches_naive_reference(seed):
    rng, s = _random_state(seed)
    om, maps = drive_from_state(s)  # asserts world tables agree level by level
    n = rng.randrange(s.top)
    w = s.width(n)
    a = PropSet(n, rng.randrange(1 << w), w)
    assert to_set(maps, s.mu(a)) == om.mu(n, to_set(maps, a))


def _reference_level(prev_width, blocks):
    # the table built by sorting every (left, right, block) entry and
    # finding each swap partner through a dict over all pairs
    part_a = []
    part_b = []
    for bi, (pi, ga) in enumerate(blocks):
        for x in bit_indices(pi):
            for y in bit_indices(ga):
                part_a.append((x, y, bi))
        for x in bit_indices(ga):
            for y in bit_indices(pi):
                part_b.append((x, y, bi))
    part_a.sort(key=lambda t: (t[0], t[1]))
    part_b.sort(key=lambda t: (t[0], t[1]))
    entries = part_a + part_b
    pairs = [(l, r) for (l, r, _) in entries]
    runs = {}
    for i, (l, _) in enumerate(pairs):
        runs[l] = (runs.get(l, (i, i))[0], i + 1)
    pos = {pair: i for i, pair in enumerate(pairs)}
    return {
        "pairs": pairs,
        "block_of": [b for (_, _, b) in entries],
        "split": len(part_a),
        "runs": [runs[x] for x in range(prev_width)],
        "transpose_perm": [pos[(r, l)] for (l, r) in pairs],
    }


def _random_blocks(rng, prev_width):
    # a random event, split into k Pi's, its complement into k Gamma's
    event = rng.sample(range(prev_width), rng.randrange(1, prev_width))
    rest = [x for x in range(prev_width) if x not in event]
    k = rng.randint(1, min(len(event), len(rest)))
    pis = [0] * k
    gas = [0] * k
    for parts, members in ((pis, event), (gas, rest)):
        rng.shuffle(members)
        for j, x in enumerate(members):
            parts[j if j < k else rng.randrange(k)] |= 1 << x
    return list(zip(pis, gas))


@given(st.integers(min_value=0, max_value=5_000))
def test_build_level_matches_sorted_reference(seed):
    rng = random.Random(seed)
    prev_width = rng.randint(2, 9)
    blocks = _random_blocks(rng, prev_width)
    lvl = build_level(3, prev_width, blocks)
    want = _reference_level(prev_width, blocks)
    assert lvl.index == 3 and lvl.width == len(want["pairs"])
    for key, value in want.items():
        assert getattr(lvl, key) == value, key


def test_build_level_rejects_bad_blocks():
    with pytest.raises(WorldsError):          # world 3 uncovered
        build_level(1, 4, [(0b0011, 0b0100)])
    with pytest.raises(WorldsError):          # empty Gamma leaves 0, 1 pairless
        build_level(1, 4, [(0b0011, 0), (0, 0b1100)])
    with pytest.raises(WorldsError):          # world 0 in two Pi's
        build_level(1, 4, [(0b0011, 0b0100), (0b0001, 0b1000)])
    with pytest.raises(WorldsError):          # world 1 in a Pi and a Gamma
        build_level(1, 4, [(0b0011, 0b0100), (0b1000, 0b0010)])
