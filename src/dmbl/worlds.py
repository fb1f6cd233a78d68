"""Finite Boolean set algebra over the constructed world levels.

Worlds at level ``n + 1`` are ordered pairs of level-``n`` worlds, stored
as an indexed table: first every pair of the processed-event side of the
product (the blocks' Pi x Gamma parts, ordered lexicographically by left
then right index), then every pair of the complementary side (Gamma x Pi,
same order).  A set of worlds is a bitmask over that index space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class WorldsError(Exception):
    """Base class for world-algebra failures."""


class LevelMismatchError(WorldsError):
    pass


_BYTE_BITS = [tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)]


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    base = 0
    while mask:
        byte = mask & 0xFF
        if byte:
            for b in _BYTE_BITS[byte]:
                out.append(base + b)
        mask >>= 8
        base += 8
    return out


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@dataclass(frozen=True)
class PropSet:
    """A proposition: a set of worlds at one level, as a bitmask."""

    level: int
    mask: int
    width: int

    def _check(self, other: "PropSet") -> None:
        if self.level != other.level or self.width != other.width:
            raise LevelMismatchError(
                f"level mismatch: {self.level} (width {self.width}) vs "
                f"{other.level} (width {other.width})"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.width) - 1

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
        return PropSet(self.level, self.mask ^ self.full_mask, self.width)

    def issubset(self, other: "PropSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == self.full_mask

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return bit_indices(self.mask)

    # operator sugar, set semantics
    __or__ = union
    __and__ = inter
    __sub__ = minus

    def __invert__(self) -> "PropSet":
        return self.complement()

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)


@dataclass(frozen=True)
class Level:
    """One constructed level: the world table and its derived indexes.

    ``pairs[i]`` is the (left, right) pair of previous-level indices of
    world ``i`` (absent at level 0).  Worlds ``[0, split)`` form the image
    of the processed event; ``[split, width)`` its complement.  ``runs[p]``
    is the contiguous index range of the worlds whose left component is
    ``p``; it realizes the inclusion morphism from the previous level.
    ``transpose_perm[i]`` is the index of the swapped pair of world ``i``.
    """

    index: int
    width: int
    pairs: Optional[list] = None
    split: Optional[int] = None
    block_of: Optional[list] = None
    transpose_perm: Optional[list] = None
    runs: Optional[list] = None

    @property
    def full_mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def event_image_mask(self) -> int:
        """Image of the processed event at this level: the Pi x Gamma part."""
        return (1 << self.split) - 1


def build_level(index: int, prev_width: int, blocks) -> Level:
    """Assemble the next level from block masks ``[(pi, gamma), ...]``.

    The blocks must partition the event and its complement at the previous
    level (disjoint Pi's, disjoint Gamma's, Pi's disjoint from Gamma's,
    none empty).  Each previous-level world ``x`` lies in exactly one Pi or
    one Gamma, so emitting each side's pairs ``(x, y)`` by ascending ``x``,
    with ``y`` running over the other half of ``x``'s block, gives the
    lexicographic table order directly.
    """
    # per world: on the Pi side?, its block, its partners, its position
    where: list = [None] * prev_width
    for bi, (pi, ga) in enumerate(blocks):
        pi_idx = bit_indices(pi)
        ga_idx = bit_indices(ga)
        for on_pi, members, partners in ((True, pi_idx, ga_idx),
                                         (False, ga_idx, pi_idx)):
            for k, x in enumerate(members):
                if where[x] is not None:
                    raise WorldsError(f"blocks list world {x} twice")
                where[x] = (on_pi, bi, partners, k)
    if not all(w and w[2] for w in where):
        raise WorldsError("blocks do not cover the previous level")

    pairs: list = []
    block_of: list = []
    runs: list = [None] * prev_width
    split = 0
    for side in (True, False):
        for x, (on_pi, bi, partners, _) in enumerate(where):
            if on_pi is side:
                runs[x] = (len(pairs), len(pairs) + len(partners))
                pairs += [(x, y) for y in partners]
                block_of += [bi] * len(partners)
        if side:
            split = len(pairs)
    # (l, r) swaps to (r, l), which sits in r's run at l's position
    transpose_perm = [runs[r][0] + where[l][3] for l, r in pairs]

    return Level(index, len(pairs), pairs, split, block_of, transpose_perm, runs)
