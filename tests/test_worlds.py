import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dmbl.model import DegenerateEventError, ModelState
from dmbl.worlds import (LevelMismatchError, PropSet, WorldsError, _gather,
                         _spread, bit_indices, build_level)

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
    assert s.lift(s.from_indices(0, [0]), 1).indices() == [0]       # a -> (a,c)
    assert s.lift(s.from_indices(0, [2]), 1).indices() == [2, 3]    # c -> (c,a),(c,b)
    assert s.lift(s.empty(0), 1).is_empty


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
    assert s.lift(a & b, n + 1) == s.lift(a, n + 1) & s.lift(b, n + 1)
    assert s.lift(a | b, n + 1) == s.lift(a, n + 1) | s.lift(b, n + 1)
    assert s.lift(a.complement(), n + 1) == s.lift(a, n + 1).complement()
    assert s.lift(s.full(n), n + 1) == s.full(n + 1)
    if a != b:
        assert s.lift(a, n + 1) != s.lift(b, n + 1)  # injective
    assert s.image_test(s.lift(a, n + 1), n) == a


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
    assert to_set(maps, s.lift(a, n + 1)) == om.mu(n, to_set(maps, a))


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


def _segments_from_runs(runs, blocks):
    # each block half cut into runs of rows wherever a row does not start
    # where the one before it ends, in table order
    out = []
    for b, (pi, ga) in enumerate(blocks):
        for on_pi, half, partners in ((True, pi, ga), (False, ga, pi)):
            cuts = [i for i in range(1, len(half)) if runs[half[i]][0] != runs[half[i - 1]][1]]
            for a, e in zip([0] + cuts, cuts + [len(half)]):
                out.append((on_pi, runs[half[a]][0], e - a, len(partners),
                            2 * b + on_pi, half[a:e]))
    return sorted(out, key=lambda seg: seg[1])


def _plain_segments(lvl, prev_width):
    # a level's runs of rows without their readers, which are checked by
    # reading every previous-level world once
    worlds = list(range(prev_width))
    out = []
    for on_pi, start, count, length, rows, partners, repunit, k, members, a in lvl._segments:
        assert rows(worlds) == (members[0] if count == 1 else tuple(members))
        # the rows lie in half k ^ 1 from position a on
        assert lvl.blocks[k >> 1][(k ^ 1) & 1][a:a + count] == members
        assert repunit == sum(1 << i * length for i in range(count))
        out.append((on_pi, start, count, length, k, members))
    return out


@given(st.integers(min_value=0, max_value=5_000))
def test_build_level_matches_sorted_reference(seed):
    # previous widths past 64 give wide levels of several blocks, whose
    # halves fall into several runs of rows
    rng = random.Random(seed)
    prev_width = rng.randint(2, rng.choice([9, 80]))
    blocks = _random_blocks(rng, prev_width)
    lvl = build_level(3, prev_width, blocks)
    want = _reference_level(prev_width, blocks)
    perm = want.pop("transpose_perm")
    block_of = want.pop("block_of")
    assert lvl.index == 3 and lvl.width == len(want["pairs"])
    # the runs of rows are cut from the block masks, before any table exists
    segments = _plain_segments(lvl, prev_width)
    assert "_tables" not in lvl.__dict__
    want_runs = want.pop("runs")
    assert segments == _segments_from_runs(want_runs, lvl.blocks)
    _, runs, rows = lvl._tables
    assert runs == want_runs
    for key, value in want.items():
        assert getattr(lvl, key) == value, key
    # each world's block, from its row's half k of the level below
    assert [k >> 1 for _, k in lvl.row_halves
            for _ in lvl.blocks[k >> 1][k & 1]] == block_of
    assert [x for *_, members in segments for x in members] == rows
    for i in rng.sample(range(lvl.width), min(lvl.width, 48)):
        j = perm[i]
        assert lvl.transpose(1 << i) == 1 << j
        assert lvl._transpose_runs(1 << i) == lvl._transpose_bits(1 << i) == 1 << j


@given(st.integers(min_value=0, max_value=5_000))
def test_transpose_matches_bitwise_reference(seed):
    # levels of several blocks, which no single fresh step builds, through
    # both the bit walk of narrow levels and the row pass of wide ones
    rng = random.Random(seed)
    prev_width = rng.randint(2, rng.choice([16, 80]))
    blocks = _random_blocks(rng, prev_width)
    lvl = build_level(1, prev_width, blocks)
    perm = _reference_level(prev_width, blocks)["transpose_perm"]
    mask = rng.randrange(1 << lvl.width)
    want = 0
    for i in bit_indices(mask):
        want |= 1 << perm[i]
    for swap in (lvl.transpose, lvl._transpose_bits, lvl._transpose_runs):
        assert swap(mask) == want
        assert swap(want) == mask


def test_build_level_rejects_bad_blocks():
    with pytest.raises(WorldsError):          # world 3 uncovered
        build_level(1, 4, [(0b0011, 0b0100)])
    with pytest.raises(WorldsError):          # empty Gamma leaves 0, 1 pairless
        build_level(1, 4, [(0b0011, 0), (0, 0b1100)])
    with pytest.raises(WorldsError, match="world 0 twice"):   # in two Pi's
        build_level(1, 4, [(0b0011, 0b0100), (0b0001, 0b1000)])
    with pytest.raises(WorldsError, match="world 1 twice"):   # in a Pi and a Gamma
        build_level(1, 4, [(0b0011, 0b0100), (0b1000, 0b0010)])
    with pytest.raises(WorldsError, match="world 3 twice"):   # the lower of 3 and 5
        build_level(1, 8, [(0b0000_1100, 0b0011_0000), (0b0010_1000, 0b1100_0011)])
    with pytest.raises(WorldsError):          # world 4 in a Pi, past the width
        build_level(1, 4, [(0b10011, 0b0100)])
    with pytest.raises(WorldsError):          # world 4 in a Gamma, past the width
        build_level(1, 4, [(0b0011, 0b11100)])


@pytest.mark.parametrize("width", [8, 384, 40960])
def test_is_full_reads_the_popcount(width):
    full = (1 << width) - 1
    assert PropSet(0, full, width).is_full
    for i in (0, width // 2, width - 1):
        assert not PropSet(0, full ^ 1 << i, width).is_full
    assert not PropSet(0, 0, width).is_full
    assert PropSet(0, full, width).complement().is_empty


@pytest.mark.parametrize("width", [8, 384, 40960])
def test_bit_indices_match_a_bit_string_reference(width):
    rng = random.Random(width)
    sparse = [1 << rng.randrange(width) | 1 << rng.randrange(width) for _ in range(3)]
    for mask in [0, (1 << width) - 1, *sparse, *(rng.getrandbits(width) for _ in range(3))]:
        want = [i for i, c in enumerate(reversed(format(mask, f"0{width}b"))) if c == "1"]
        assert bit_indices(mask) == PropSet(0, mask, width).indices() == want


@pytest.mark.parametrize("width", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001,
                                   9999, 10000, 10001, 40960])
def test_index_text_matches_joined_indices(width):
    rng = random.Random(width)
    full = (1 << width) - 1
    masks = [0, full, 1, 1 << (width - 1), 1 << rng.randrange(width)]
    masks += [rng.getrandbits(width) for _ in range(3)]
    # a few long runs, the shape of the sets diagnose_b6 lists
    cuts = sorted(rng.randrange(width + 1) for _ in range(6))
    masks.append(sum((1 << e) - (1 << s) for s, e in zip(cuts[::2], cuts[1::2])))
    for m in masks:
        assert PropSet(0, m, width).index_text() == ",".join(map(str, bit_indices(m)))


def test_index_text_of_an_empty_set_builds_no_width_long_text():
    # the width of a level one step past the depth-4 ladder's 40960 worlds
    # is in the hundreds of millions; an empty set lists nothing there
    ps = PropSet(0, 0, 2 ** 24)
    tracemalloc.start()
    try:
        assert ps.index_text() == ""
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_empty_and_full_moves_on_a_wide_level_build_no_level_wide_text():
    # one block of 2048 x 2048 worlds: 8388608 worlds.  Swapping or
    # conditioning the empty set reads nothing, and the full set lifts
    # without reading its rows
    half = (1 << 2048) - 1
    lvl = build_level(1, 4096, [(half, half << 2048)])
    tracemalloc.start()
    try:
        assert lvl.transpose(0) == 0
        assert lvl.conditional(0, True) == lvl.conditional(0, False) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert lvl.lift((1 << 4096) - 1) == (1 << lvl.width) - 1
    assert "_segments" not in lvl.__dict__


def test_swapping_a_run_of_distinct_rows_builds_no_level_wide_copy():
    # the same 8388608 worlds in two runs of 2048 rows.  Rows 0 and 1 of the
    # Pi run differ, so that run is read a row at a time; the swap stays
    # under one byte per world of the level
    half = (1 << 2048) - 1
    lvl = build_level(1, 4096, [(half, half << 2048)])
    # a rank-one swap first builds the level's runs outside the trace
    assert lvl.transpose(lvl.lift(1)) == lvl._transpose_bits(lvl.lift(1))
    mask = half | ((1 << 1024) - 1) << 2048
    tracemalloc.start()
    try:
        swapped = lvl.transpose(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lvl.width
    assert swapped == lvl._transpose_bits(mask) and lvl.transpose(swapped) == mask


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64, 320])
def test_gather_inverts_spread(length):
    # row starts at every offset inside a byte, runs shorter and longer than
    # the phase of those offsets
    rng = random.Random(length)
    for count in [1, 2, 7, 8, 9, 17, 64]:
        for bits in [0, (1 << count) - 1, 1 << (count - 1), rng.getrandbits(count)]:
            spread = _spread(bits, count, length)
            assert _gather(spread, count, length) == bytes(
                bits >> i & 1 for i in range(count)), (count, bits)
            # other bits of each row are not read
            assert _gather((spread << length) - spread, count, length) == \
                _gather(spread, count, length)
