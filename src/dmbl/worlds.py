"""Finite Boolean set algebra over the constructed world levels.

Worlds at level ``n + 1`` are ordered pairs of level-``n`` worlds, stored
by rows: row ``x`` holds the pairs ``(x, y)`` with ``y`` ascending over the
other half of ``x``'s block.  The rows of the processed-event side (the
blocks' Pi x Gamma parts) come first by ascending ``x``, then those of the
complementary side (Gamma x Pi).  A set of worlds is a bitmask over that
index space.  ``Level`` alone reads that layout and picks, by its width,
how each operation on it runs: lifts by ``mu``, pulls, the coordinate swap,
a conditional's value and the rows a measure weighs a set by.  On a wide
level a conditional's value is rank one on every run of rows, and
``Level.conditional_runs`` gives it as one triple per run, unbuilt: a
wide conditional at the top of a ``prob`` query is weighed from those
triples and never built.

A read-many level (``Level.read_many``: a level a snapshot shares, or one
a second model takes from the model's table of shared levels) answers
each of those maps whose source mask is at most ``NARROW_WIDTH`` bits wide
by byte lookup: the map preserves unions, so its value is the OR of its
values on the mask's bytes, each computed once per process.  A level one
model builds and reads keeps the direct path, since it is read too few
times to repay filling the tables.
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from operator import itemgetter

from .record import Record, _set


class WorldsError(Exception):
    """Base class for world-algebra failures."""


class LevelMismatchError(WorldsError):
    pass


_BYTE_BITS = [tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)]
_BIT_AT = [bytes(v >> s & 1 for v in range(256)) for s in range(8)]
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# widest level transposed, lifted onto and pulled off bit by bit and read off
# per-world tables, not by runs of rows.  A transpose by runs lost at width 32
# (6.5 against 4.5 us on a random set) and won from 128 up (10 against 15 us
# on lifts at 128, 9 against 52 at 384; timeit min, 2-core x86-64 host)
NARROW_WIDTH = 64


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending.

    Reads the bytes of one conversion: shifting the int by a byte per step
    copies it each time, which is quadratic in the width.
    """
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for b in _BYTE_BITS[byte]:
                out.append(base + b)
        base += 8
    return out


@functools.cache
def _decimal_text(width: int) -> str:
    """``"0,1,...,width-1,"``: every index below ``width``, each with its comma."""
    return ",".join(map(str, range(width))) + ","


def _decimal_offset(i: int) -> int:
    # where index i starts in _decimal_text: i commas and the digits of
    # 0..i-1, which is d * i less 10 + 100 + ... + 10^(d-1) for d-digit i
    d = len(str(i))
    return (d + 1) * i - (10 ** d - 10) // 9


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


class PropSet(Record):
    """A proposition: a set of worlds at one level, as a bitmask."""

    __slots__ = _fields = ("level", "mask", "width")

    def __init__(self, level: int, mask: int, width: int):
        _set(self, "level", level)
        _set(self, "mask", mask)
        _set(self, "width", width)

    def _check(self, other: "PropSet") -> None:
        if self.level != other.level or self.width != other.width:
            raise LevelMismatchError(
                f"level mismatch: {self.level} (width {self.width}) vs "
                f"{other.level} (width {other.width})"
            )

    def union(self, other: "PropSet") -> "PropSet":
        self._check(other)
        return PropSet(self.level, self.mask | other.mask, self.width)

    def inter(self, other: "PropSet") -> "PropSet":
        self._check(other)
        return PropSet(self.level, self.mask & other.mask, self.width)

    def minus(self, other: "PropSet") -> "PropSet":
        self._check(other)
        return PropSet(self.level, self.mask & ~other.mask, self.width)

    def complement(self) -> "PropSet":
        return PropSet(self.level, self.mask ^ ((1 << self.width) - 1), self.width)

    def issubset(self, other: "PropSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        # no mask exceeds its width, and a popcount builds no full mask
        return self.mask.bit_count() == self.width

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return bit_indices(self.mask)

    def index_text(self) -> str:
        """``",".join(map(str, self.indices()))``, one slice of a cached text per
        run, found from the end of the binary digits: an empty set reads no text."""
        bits = format(self.mask, "b")
        n, parts = len(bits), []
        if (last := bits.rfind("1")) >= 0:
            text = _decimal_text(self.width)
        while last >= 0:
            # the run is characters gap + 1 to last, indices n - 1 - last to n - 2 - gap
            gap = bits.rfind("0", 0, last)      # -1 when the run holds the top bit
            parts.append(text[_decimal_offset(n - 1 - last):_decimal_offset(n - 1 - gap) - 1])
            last = bits.rfind("1", 0, max(gap, 0))
        return ",".join(parts)

    # operator sugar, set semantics
    __or__ = union
    __and__ = inter
    __sub__ = minus


class Level(Record):
    """One constructed level, stored by rows (absent at level 0).

    ``blocks`` lists each block's (Pi, Gamma) members over the
    ``prev_width`` worlds below and ``masks`` their bitmasks.  Worlds
    ``[0, split)`` are the processed event's image.  The width picks how
    the methods read the rows: up to ``NARROW_WIDTH`` worlds bit by bit
    through per-world tables (``_tables``), wider by runs of a block half's
    consecutive rows (``_segments``).  Each is built on its first read.
    ``pairs``, each world's (left, right) pair, serves dumps and tests.
    """

    # no __slots__: cached_property and read_many store into __dict__
    _fields = ("index", "width", "split", "prev_width", "blocks", "masks")

    def __init__(self, index: int, width: int, split: int | None = None,
                 prev_width: int | None = None, blocks: list | None = None,
                 masks: list | None = None):
        _set(self, "index", index)
        _set(self, "width", width)
        _set(self, "split", split)
        _set(self, "prev_width", prev_width)
        _set(self, "blocks", blocks)
        _set(self, "masks", masks)

    def read_many(self) -> None:
        """Answer this level's maps whose source mask has at most
        ``NARROW_WIDTH`` bits by byte lookup from now on: ``lift`` and
        ``conditional`` when the level below is that narrow, ``transpose``
        and ``conditional_here`` when this one is.

        Each preserves unions, so a ``_ByteMap`` answers it as the OR of its
        values on the mask's bytes.  It is set as an instance attribute of
        the method's name, which shadows the method, and fills its tables
        by calling the method on first read.  An unmarked level runs the
        methods with no check at all.  Reading every byte value fills at
        most 256 entries per byte position per map, and no entry is wider
        than this level, at most ``prev_width**2 // 2`` bits: 2048 for a
        64-world level below.  Racing first reads store equal entries,
        and marking a marked level again keeps the maps it has.  The model
        marks a level a snapshot shares or a second model takes from its
        table (``model._shared_level``): a level built and read once is
        faster without tables, which cost more to fill than a few reads save.
        """
        maps = {}
        if self.prev_width <= NARROW_WIDTH:
            maps.update(lift=_ByteMap(functools.partial(Level.lift, self), self.prev_width),
                        conditional=_BySide(Level.conditional, self, self.prev_width))
        if self.width <= NARROW_WIDTH:
            maps.update(transpose=_ByteMap(functools.partial(Level.transpose, self), self.width),
                        conditional_here=_BySide(Level.conditional_here, self, self.width))
        for name, byte_map in maps.items():
            vars(self).setdefault(name, byte_map)

    @property
    def event_image_mask(self) -> int:
        """Image of the processed event at this level: the Pi x Gamma part."""
        return (1 << self.split) - 1

    @functools.cached_property
    def _tables(self) -> tuple:
        # (where, runs, rows): per previous-level world x, where[x] = (on_pi,
        # block, partners, pos) gives its side, its block, the other half of
        # its block (row x's columns) and its position in its own half;
        # runs[x] is row x's index range, which realizes the inclusion
        # morphism; rows lists the rows in table order.  A pure function of
        # the frozen level: two first reads at once store equal tables
        n = self.prev_width
        where, runs, rows, end = [None] * n, [None] * n, [], 0
        for bi, (pi, ga) in enumerate(self.blocks):
            for k, x in enumerate(pi):
                where[x] = (True, bi, ga, k)
            for k, x in enumerate(ga):
                where[x] = (False, bi, pi, k)
        for side in (True, False):
            for x in range(n):
                if where[x][0] is side:
                    rows.append(x)
                    runs[x] = (end, end := end + len(where[x][2]))
        return where, runs, rows

    @property
    def pairs(self) -> list:
        where, _, rows = self._tables
        return [(x, y) for x in rows for y in where[x][2]]

    @functools.cached_property
    def _segments(self) -> list:
        # each block half cut into runs of rows consecutive in table order,
        # as (on_pi, first row's start, row count, row length, a reader of
        # the rows' bits below, a reader of their partners', the run's
        # repunit: a one at each row's start, the measure's index of the half
        # they pair with, the rows' worlds, the first row's position in its
        # own half), in table order.  A side's rows run over its worlds
        # ascending, so a half's run ends at the side's next world outside
        # it: a run of ones of the half or the side's gaps
        out = []
        for side, start in ((0, 0), (1, self.split)):
            gaps, cut = functools.reduce(int.__xor__, (m[side] for m in self.masks),
                                         (1 << self.prev_width) - 1), []
            for b, (members, m) in enumerate(zip(self.blocks, self.masks)):
                half, partners, rest, a = members[side], members[1 - side], m[side], 0
                while rest:
                    below = rest | gaps | ((rest & -rest) - 1)
                    end = (below + 1) & ~below      # the run's first gap
                    count = (rest & (end - 1)).bit_count()
                    rest &= -end
                    cut.append((half[a], count, len(partners), half[a:a + count],
                                partners, 2 * b + 1 - side, a))
                    a += count
            for _, count, length, worlds, partners, k, a in sorted(cut, key=itemgetter(0)):
                out.append((side == 0, start, count, length, itemgetter(*worlds),
                            itemgetter(*partners), _spread((1 << count) - 1, count, length),
                            k, worlds, a))
                start += count * length
        return out

    @functools.cached_property
    def row_halves(self) -> list:
        """Each row as ``(x, k)`` in table order: row ``x`` pairs with half
        ``k`` of the previous level, half ``2b`` being block ``b``'s Pi and
        half ``2b + 1`` its Gamma."""
        if self.width > NARROW_WIDTH:
            return [(x, k) for *_, k, worlds, _ in self._segments for x in worlds]
        return [(x, k) for x, k, *_ in self._row_cuts]

    @functools.cached_property
    def _row_cuts(self) -> list:
        # each row of a narrow level as (x, k, its start, its ones, its bit in its half)
        where, runs, rows = self._tables
        return [(x, 2 * where[x][1] + where[x][0], runs[x][0],
                 (1 << runs[x][1] - runs[x][0]) - 1, 1 << where[x][3]) for x in rows]

    def row_sizes(self, sizes=None) -> list:
        """Per world below, the total of ``sizes`` (one per world of this
        level) over its row, or its row's length when ``sizes`` is None."""
        out, start = [0] * self.prev_width, 0
        for x, k in self.row_halves:
            end = start + len(self.blocks[k >> 1][k & 1])
            out[x] = end - start if sizes is None else sum(sizes[start:end])
            start = end
        return out

    def _runs_met(self, mask: int):
        # each run of a wide level's rows that the set meets, as (its
        # segment, its bits, (firsts, row) or None): a run whose nonzero rows
        # all equal ``row``, the row of its lowest set bit, is ``firsts *
        # row`` with ``firsts`` its bits in that bit's column (no carries)
        for seg in self._segments:
            _, start, count, length, _, _, repunit, _, _, _ = seg
            chunk = mask >> start & ((1 << count * length) - 1)
            if not chunk:
                continue
            low = (chunk & -chunk).bit_length() - 1
            firsts = chunk >> low % length & repunit
            row = chunk >> (low - low % length) & ((1 << length) - 1)
            yield seg, chunk, (firsts, row) if firsts * row == chunk else None

    def row_groups(self, mask: int) -> list:
        """The set ``mask`` as triples ``(k, pattern, rows)``, one per distinct
        half ``k`` and nonzero row ``pattern`` of the set: ``pattern`` is a
        bitmask over the positions of half ``k``, and ``rows`` one over the
        positions of half ``k ^ 1``, the rows that pair with half ``k`` and
        read ``pattern``.  A narrow level reads each row as ``mask >> start
        & ones``.  A wide one reads a run at a time: a run whose nonzero rows
        all read one pattern gives one triple, and any other run is read a
        row at a time (``_split_rows``)."""
        if self.width <= NARROW_WIDTH:
            reads = [(k, mask >> start & ones, bit) for _, k, start, ones, bit in self._row_cuts]
        else:
            reads = []
            for seg, chunk, factors in self._runs_met(mask):
                _, start, count, length, _, _, repunit, k, _, a = seg
                if factors:
                    firsts, row = factors
                    rows = ((1 << count) - 1 if firsts == repunit else
                            int(_gather(firsts, count, length)[::-1].translate(_DIGITS), 2))
                    reads.append((k, row, rows << a))
                else:
                    reads += [(k, int(text, 2), rows << a)
                              for text, rows in _split_rows(chunk, count, length).items()]
        groups: dict = {}
        for k, row, rows in reads:
            if row:
                groups[k, row] = groups.get((k, row), 0) | rows
        return [(k, row, rows) for (k, row), rows in groups.items()]

    def conditional(self, below: int, direct: bool) -> int:
        """``S | T(S)`` with ``S`` the set ``below`` of the previous level
        lifted here and cut to one side: the Pi x Gamma rows when
        ``direct``, else the Gamma x Pi rows.

        A narrow level lifts and calls ``conditional_here``.  A wide one
        builds it from ``conditional_runs``: a run whose pattern is the
        whole row fills its rows, and any other run is on the side whose
        rows all read the pattern, one product.
        """
        if self.width <= NARROW_WIDTH:
            return self.conditional_here(self.lift(below), direct)
        if not below:
            return 0
        out = 0
        for (_, pattern, rows), seg in zip(self.conditional_runs(below, direct), self._segments):
            _, start, count, length, _, _, repunit, _, _, a = seg
            if pattern == (1 << length) - 1:
                out |= _filled(rows >> a, count, length) << start
            elif pattern:
                out |= repunit * pattern << start
        return out

    def conditional_runs(self, below: int, direct: bool) -> list:
        """``conditional(below, direct)`` on a wide level, unbuilt: one
        ``row_groups`` triple ``(k, pattern, rows)`` per run of rows, in
        table order.  A run the value misses has an empty pattern or rows.

        The value is rank one on every run.  A row on the cut side is all
        ones when its world is in ``below`` and all zeros otherwise, so the
        run's rows are ``below``'s bits at its worlds and its pattern the
        whole row.  A row on the other side reads ``below`` over its
        partners, so every row of the run reads that pattern.
        """
        s = bit_string(below, self.prev_width)
        return [(k, (1 << length) - 1, int("".join(rows(s))[::-1], 2) << a) if on_pi == direct
                else (k, int("".join(partners(s))[::-1], 2), ((1 << count) - 1) << a)
                for on_pi, _, count, length, rows, partners, _, k, _, a in self._segments]

    def conditional_here(self, mask: int, direct: bool) -> int:
        """``S | T(S)`` with ``S`` the set ``mask`` of this level cut to one
        side, as in ``conditional``: ``T`` swaps the event image with its
        complement."""
        image = self.event_image_mask
        side = mask & (image if direct else ~image)
        return side | self.transpose(side)

    def fixes(self, below: int) -> bool:
        """Whether ``conditional(below, direct) == lift(below)``, on either
        side: ``below`` meets every block's ``Pi | Gamma`` in nothing or in
        all of it.

        The two agree on the cut side.  On the other side, world ``(y, x)``
        is in the value when ``x`` is in ``below`` and in the lift when
        ``y`` is, and ``x``, ``y`` range over one block's two halves.
        """
        for pi, ga in self.masks:
            part = below & (whole := pi | ga)
            if part and part != whole:
                return False
        return True

    def lift(self, below: int) -> int:
        """The set ``below`` of the previous level embedded here: each of its
        worlds fills its row.  A wide level spreads a run of rows at once,
        and lifts the empty and the full set without reading them."""
        if self.width <= NARROW_WIDTH:
            out, runs = 0, self._tables[1]
            for p in bit_indices(below):
                s, e = runs[p]
                out |= ((1 << (e - s)) - 1) << s
            return out
        if not below:
            return 0
        if below.bit_count() == self.prev_width:
            return (1 << self.width) - 1
        s = bit_string(below, self.prev_width)
        return sum(_filled(int("".join(rows(s))[::-1], 2), count, length) << start
                   for _, start, count, length, rows, *_ in self._segments)

    def pull(self, mask: int) -> int | None:
        """The set of the previous level that lifts to ``mask``, or None: each
        row must lie wholly inside or wholly outside ``mask``.  A wide level
        checks a run at a time, as ``(f << length) - f`` (no carries), ``f``
        its bits at the rows' starts."""
        if self.width <= NARROW_WIDTH:
            parents = 0
            for p, (s, e) in enumerate(self._tables[1]):
                ones = (1 << (e - s)) - 1
                run = (mask >> s) & ones
                if run == ones:
                    parents |= 1 << p
                elif run:
                    return None
            return parents
        out = 0
        for _, start, count, length, _, _, repunit, _, worlds, _ in self._segments:
            chunk = mask >> start & ((1 << count * length) - 1)
            if ((f := chunk & repunit) << length) - f != chunk:
                return None
            out |= mask_of(compress(worlds, _gather(f, count, length)))
        return out

    def swapped_pairs(self) -> list:
        """Each Pi x Gamma world's index with its swapped world's, in table order."""
        where, runs, rows = self._tables
        return [(w, runs[r][0] + where[l][3])
                for l in rows if where[l][0]
                for w, r in enumerate(where[l][2], runs[l][0])]

    def transpose(self, mask: int) -> int:
        """Image of ``mask`` under the swap ``(x, y) -> (y, x)``; the empty
        set's is known without reading the level.

        A narrow level moves its set bits one by one.  A wide one reads the
        set as ``row_groups`` triples and writes each swapped: a triple ``(k,
        pattern, rows)`` becomes ``(k ^ 1, rows, pattern)``, the pattern's
        rows of half ``k`` each reading ``rows``, one product per run of half
        ``k`` that the pattern meets.
        """
        if not mask:
            return 0
        if self.width <= NARROW_WIDTH:
            return self._transpose_bits(mask)
        return self._transpose_runs(mask)

    def _transpose_bits(self, mask: int) -> int:
        where, runs, rows = self._tables
        out = k = 0
        for i in bit_indices(mask):
            while runs[rows[k]][1] <= i:
                k += 1
            _, _, partners, pos = where[rows[k]]
            out |= 1 << (runs[partners[i - runs[rows[k]][0]]][0] + pos)
        return out

    def _transpose_runs(self, mask: int) -> int:
        out, groups = 0, self.row_groups(mask)
        for _, first, n, span, _, _, _, k, _, j in self._segments:
            # the run's rows lie in half k ^ 1, at positions j to j + n - 1,
            # so a triple over that half writes its pattern's bits there
            for half, pattern, rows in groups:
                if half == k ^ 1 and (bits := pattern >> j & ((1 << n) - 1)):
                    out |= _spread(bits, n, span) * rows << first
        return out


def bit_string(mask: int, width: int) -> str:
    """``mask`` as ``width`` characters ``'0'``/``'1'``, bit 0 first."""
    return format(mask, "b").zfill(width)[::-1]


@functools.lru_cache(maxsize=16)
def _spread_table(length: int) -> tuple:
    # byte v -> the length bytes of sum(1 << i * length for set bits i of v).
    # Process-wide, for the 16 row lengths used last.  A block of halves p
    # and g gives rows of lengths g and p and has 2 * p * g >= p + g worlds,
    # so the tables of one level's lengths total at most 256 bytes per world
    return tuple(sum(1 << i * length for i in _BYTE_BITS[v]).to_bytes(length, "little")
                 for v in range(256))


def _spread(bits: int, count: int, length: int) -> int:
    """``sum(1 << i * length)`` over the set bits ``i < count`` of ``bits``.

    Eight rows of ``length`` bits make ``length`` whole bytes, looked up
    per byte of ``bits``.
    """
    table = _spread_table(length)
    return int.from_bytes(b"".join(map(table.__getitem__,
                                       bits.to_bytes((count + 7) // 8, "little"))),
                          "little")


def _filled(bits: int, count: int, length: int) -> int:
    """``count`` rows of ``length`` bits, row ``i`` all ones where bit ``i`` of ``bits`` is set."""
    firsts = _spread(bits, count, length)
    return (firsts << length) - firsts


def _gather(bits: int, count: int, length: int) -> bytearray:
    """The inverse of ``_spread``, one ``compress`` selector per row: rows ``r``,
    ``r + period``, ... start at one bit of bytes one stride apart in ``bits``."""
    data, out = bits.to_bytes((count * length + 7) // 8, "little"), bytearray(count)
    period = 8 // math.gcd(length, 8)
    for r in range(period):
        j = r * length
        out[r::period] = data[j >> 3::period * length >> 3][
            :len(out[r::period])].translate(_BIT_AT[j & 7])
    return out


def _split_rows(chunk: int, count: int, length: int) -> dict:
    """The ``count`` rows of ``length`` bits in ``chunk`` grouped by their
    text: each distinct row's binary digits, top bit first, with the bitmask
    of the rows that read it.  The run's text is sliced a row at a time, so
    only the distinct rows are converted to ints."""
    text, groups = format(chunk, "b").zfill(count * length), {}
    for i, end in enumerate(range(len(text), 0, -length)):
        row = text[end - length:end]
        groups[row] = groups.get(row, 0) | 1 << i
    return groups


class _ByteTable(dict):
    """One byte position's values under a map: entry ``v`` is its value on
    ``v << shift``, computed by ``image`` on its first read."""

    __slots__ = ("image", "shift")

    def __init__(self, image, shift: int):
        super().__init__()
        self.image, self.shift = image, shift

    def __missing__(self, byte: int) -> int:
        value = self[byte] = self.image(byte << self.shift)
        return value


class _ByteMap(list):
    """A map on masks of ``width`` bits that preserves unions, answered as the
    OR of its values on the mask's bytes, one ``_ByteTable`` per byte."""

    def __init__(self, image, width: int):
        super().__init__(_ByteTable(image, shift) for shift in range(0, width, 8))

    def __call__(self, mask: int) -> int:
        out = 0
        for table in self:
            out |= table[mask & 255]
            mask >>= 8
        return out


class _BySide(tuple):
    """``method(level, mask, direct)`` on masks of ``width`` bits, answered by
    one ``_ByteMap`` per side: ``direct`` False, then True."""

    def __new__(cls, method, level: Level, width: int):
        return super().__new__(cls, (_ByteMap(functools.partial(method, level, direct=d), width)
                                     for d in (False, True)))

    def __call__(self, mask: int, direct: bool) -> int:
        return self[direct](mask)


def build_level(index: int, prev_width: int, blocks) -> Level:
    """Assemble the next level from block masks ``[(pi, gamma), ...]``.

    The blocks must partition the event and its complement at the previous
    level (disjoint Pi's, disjoint Gamma's, Pi's disjoint from Gamma's, a
    block's halves both empty or neither), checked on the masks.  Each
    previous-level world ``x`` becomes one row; the Pi rows by ascending
    ``x``, then the Gamma rows, give the lexicographic table order of each
    side directly.  Tables and runs of rows are built when first read.
    """
    seen, split, members = 0, 0, []
    for pi, ga in blocks:
        if clash := pi & seen | ga & (seen | pi):
            raise WorldsError(f"blocks list world {(clash & -clash).bit_length() - 1} twice")
        seen |= pi | ga
        members.append((bit_indices(pi), bit_indices(ga)))
        split += len(members[-1][0]) * len(members[-1][1])
    if seen != (1 << prev_width) - 1 or any(bool(p) != bool(g) for p, g in members):
        raise WorldsError("blocks do not cover the previous level")
    return Level(index, 2 * split, split, prev_width, members, list(blocks))
