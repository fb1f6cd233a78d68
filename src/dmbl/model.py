"""Recursive construction of the free conditional model.

The model is a growing sequence of levels.  Each step processes one event
``b`` at the current top level ``n``: worlds of level ``n + 1`` are the
pairs of the blocks ``Pi x Gamma`` and ``Gamma x Pi`` attached to ``b``,
every level-``n`` set embeds into level ``n + 1`` through the injective
Boolean morphism ``mu``, and the conditional map ``f(. , b)`` (and its
complement orientation) becomes total over the new level via the closed
form ``f(C, mu(b)) = (C & mu(b)) | (T(C) & ~mu(b))`` with ``T`` the
coordinate swap.  ``T`` exchanges ``mu(b)``'s image with its complement,
so the form is ``S | T(S)`` with ``S = C & mu(b)`` (``S = C & ~mu(b)``
for the complement orientation).  The defining level builds the value
(``Level.conditional`` from ``C`` one level below it, or
``Level.conditional_here`` from ``C`` pulled to it) and picks how by its
width, as it does for lifts by ``mu`` onto it and pulls off it.  A wide
conditional at the top of a ``prob`` query is weighed from its runs and
never built: ``ensure(b, a, runs=True)`` returns it as
``ConditionalRuns``, the triples of ``Level.conditional_runs``.  An
independence test only asks whether ``f(b, a)`` equals ``b``, and
``keeps`` answers that on the defining level without building the value
either: a ``b`` lifted from below that level is kept exactly when it
meets each block ``Pi | Gamma`` in nothing or in all of it.

Processing the same event family again (case 0) refines the blocks from
the level that first processed it; a fresh event (case 1) uses the single
block ``(b, ~b)``.  Two schedules are provided: ``demand`` processes the
requested event immediately, ``canonical`` follows the cyclic task list.

The task list holds every nondegenerate set of the built levels exactly
once: a step re-queues its pair one level up, behind a marker for the new
level.  So a marker stands for the sets of its level that have no
preimage one level down, and is expanded by that test when it is reached.
"""

from __future__ import annotations

import functools

from .record import Record, _set
from .worlds import (NARROW_WIDTH, Level, PropSet, WorldsError, bit_indices, build_level,
                     mask_of)


CANONICAL_ENUM_WIDTH = 16   # widest level whose 2^width sets a task list may list
INTERN_WIDTH = 1 << 16      # widest level models share through _shared_level
INTERN_PREV_WIDTH = 512     # widest level below a level models share
LOWS_SIZE = 1024            # most entries a state's memo of lowest preimages keeps


class ModelError(Exception):
    """Base class for model-construction failures."""


class CapExceededError(ModelError):
    pass


class DegenerateEventError(ModelError):
    pass


class UndefinedConditionalError(ModelError):
    pass


class FrozenStateError(ModelError):
    pass


class ScheduleError(ModelError):
    pass


class ProcessedEvent(Record):
    """One construction step: the event, its case, and its blocks.

    ``level`` is the level the event lives at (the step built ``level + 1``).
    ``nu`` is the step index whose event this one re-processes (case 0).
    Block masks are at ``level``.  ``lowest`` is the event's lowest
    preimage as ``(level, mask)``, the canonical form events are matched by.
    """

    __slots__ = _fields = ("step", "level", "event", "case", "nu", "blocks", "lowest")

    def __init__(self, step: int, level: int, event: int, case: int, nu: int | None,
                 blocks: tuple[tuple[int, int], ...], lowest: tuple[int, int]):
        _set(self, "step", step)
        _set(self, "level", level)
        _set(self, "event", event)
        _set(self, "case", case)
        _set(self, "nu", nu)
        _set(self, "blocks", blocks)
        _set(self, "lowest", lowest)


@functools.lru_cache(maxsize=64)
def _interned(index: int, prev_width: int, blocks: tuple) -> list:
    # [the level, how many steps took it]; a refused build is not cached
    return [build_level(index, prev_width, blocks), 0]


def _shared_level(index: int, prev_width: int, blocks: tuple) -> Level:
    """The level ``build_level`` assembles from these blocks, one object per
    process for the 64 keys used last.

    A level is a pure function of its index, the width below and its
    blocks, so every model that processes the same events shares it, with
    the tables it builds on first reads.  Its first reuse marks it
    read-many, so its byte tables fill once per process; a level one model
    builds and reads (a one-shot command) keeps the direct path, which is
    faster for a few reads.
    """
    entry = _interned(index, prev_width, blocks)
    uses = entry[1] = entry[1] + 1
    if uses == 2:
        entry[0].read_many()
    return entry[0]


class ConditionalRuns(Record):
    """A wide conditional's value, unbuilt: its defining ``level`` and the
    ``Level.conditional_runs`` triples of its runs of rows."""

    __slots__ = _fields = ("level", "runs")

    def __init__(self, level: int, runs: list):
        _set(self, "level", level)
        _set(self, "runs", runs)


def _pair_key(mask: int) -> tuple:
    return (mask.bit_count(), bit_indices(mask))


def canonical_pairs(width: int) -> list[tuple[int, int]]:
    """All complement pairs over a ``width``-world level, deterministic order.

    The representative of a pair is the member with smaller (cardinality,
    member list); pairs are sorted by their representative.
    """
    full = (1 << width) - 1
    out = []
    for m in range(1, full):
        c = m ^ full
        if _pair_key(m) < _pair_key(c):
            out.append((m, c))
    out.sort(key=lambda p: _pair_key(p[0]))
    return out


def default_task_list(width: int) -> list[int]:
    return seed_task_list(width, [])


def seed_task_list(width: int, priority: list[int]) -> list[int]:
    """A full task list with the given events' pairs moved to the front.

    ``priority`` lists masks at level 0 in the order their pairs should be
    processed; the remaining pairs follow in the default order.
    """
    full = (1 << width) - 1
    flat = []
    seen = set()
    for mask in priority:
        if mask in (0, full):
            raise DegenerateEventError("degenerate event in task-list seed")
        if mask in seen:
            continue
        comp = mask ^ full
        flat += [mask, comp]
        seen.add(mask)
        seen.add(comp)
    for rep, comp in canonical_pairs(width):
        if rep not in seen:
            flat += [rep, comp]
    return flat


class ModelState:
    """The constructed levels, processed-event history, and schedule.

    Mutation (``step``/``ensure``) is single-owner; a :meth:`snapshot` is a
    frozen view sharing the built levels and may be queried concurrently.
    """

    def __init__(self, *, atoms=None, worlds=None, schedule: str = "demand",
                 task_list=None, max_levels: int = 32, max_worlds: int = 200_000):
        if (atoms is None) == (worlds is None):
            raise ModelError("give either atoms or an explicit base-world list")
        if schedule not in ("demand", "canonical"):
            raise ModelError(f"unknown schedule {schedule!r}")
        self.max_levels = max_levels
        self.max_worlds = max_worlds
        self.mode = schedule
        self._frozen = False

        if atoms is not None:
            atoms = tuple(atoms)
            if not atoms or len(set(atoms)) != len(atoms):
                raise ModelError("atoms must be a nonempty list of distinct names")
            width = 1 << len(atoms)
            self._check_width([], width)
            self.atoms = atoms
        else:
            worlds = list(worlds)
            if not worlds or len(set(worlds)) != len(worlds):
                raise ModelError("base worlds must be nonempty and distinct")
            self._check_width([], len(worlds))
            self.atoms = ()
            self._labels = [str(w) for w in worlds]
            width = len(worlds)

        self._h: dict = {}
        self._levels: list[Level] = [Level(index=0, width=width)]
        self.history: list[ProcessedEvent] = []
        # lowest form -> (step, direct): the latest step whose event has that
        # lowest form (direct) or its complement's (not direct)
        self._matches: dict[tuple[int, int], tuple[int, bool]] = {}
        # (level, mask) -> _lowest's answer, for sets of narrow levels
        self._lows: dict[tuple[int, int], tuple[int, int]] = {}

        if schedule == "canonical":
            if task_list is None:
                if width > CANONICAL_ENUM_WIDTH:
                    raise CapExceededError(
                        "default task list needs 2^width enumeration; "
                        "pass an explicit task list")
                task_list = default_task_list(width)
            self._validate_task_list(task_list, width)
            self._schedule_items: list = [(m, 0) for m in task_list]
        else:
            self._schedule_items = []

    # --- construction helpers -------------------------------------------

    @classmethod
    def from_atoms(cls, atoms, **kw) -> "ModelState":
        return cls(atoms=atoms, **kw)

    @classmethod
    def from_worlds(cls, labels, **kw) -> "ModelState":
        return cls(worlds=labels, **kw)

    def _check_width(self, ladder: list[int], width: int) -> None:
        """Refuse a level past ``max_worlds`` before building it."""
        if width > self.max_worlds:
            steps = " → ".join(str(w) for w in ladder + [width])
            raise CapExceededError(f"level too wide: {steps} > cap {self.max_worlds}")

    @staticmethod
    def _validate_task_list(task_list, width: int) -> None:
        full = (1 << width) - 1
        flat = list(task_list)
        if len(flat) % 2:
            raise ScheduleError("task list must pair every event with its complement")
        for t in range(0, len(flat), 2):
            if flat[t + 1] != flat[t] ^ full:
                raise ScheduleError(
                    f"task-list entry {t + 1} is not the complement of entry {t}")
        if sorted(flat) != list(range(1, full)):
            raise ScheduleError(
                "task list must enumerate every nondegenerate set exactly once")

    # --- basic views ------------------------------------------------------

    @property
    def top(self) -> int:
        return len(self._levels) - 1

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def width(self, level: int) -> int:
        return self._levels[level].width

    def level(self, n: int) -> Level:
        return self._levels[n]

    @functools.cached_property
    def _labels(self) -> list[str]:
        """An atom model's world labels, built on first read (a world-list
        model sets them in ``__init__``)."""
        k = len(self.atoms)
        return [" /\\ ".join(a if i >> (k - 1 - j) & 1 else "~" + a
                              for j, a in enumerate(self.atoms))
                for i in range(1 << k)]

    @property
    def base_labels(self) -> list[str]:
        return list(self._labels)

    def world_index(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise ModelError(f"unknown base world {label!r}") from None

    def empty(self, level=None) -> PropSet:
        n = self.top if level is None else level
        return PropSet(n, 0, self.width(n))

    def full(self, level=None) -> PropSet:
        n = self.top if level is None else level
        return PropSet(n, (1 << self.width(n)) - 1, self.width(n))

    def from_indices(self, level: int, indices) -> PropSet:
        w = self.width(level)
        m = mask_of(indices)
        if m >> w:
            raise WorldsError("world index out of range")
        return PropSet(level, m, w)

    def h(self, atom: str) -> PropSet:
        """The atom's level-0 set, one per atom, built on its first use and
        shared with snapshots (racing first uses store equal sets)."""
        ps = self._h.get(atom)
        if ps is None:
            if atom not in self.atoms:
                raise ModelError(f"unknown atom {atom!r}")
            # world i makes atom j of k true when bit k - 1 - j of i is set:
            # a block of h ones above h zeros, repeated with period 2h
            width = self.width(0)
            h = 1 << (len(self.atoms) - 1 - self.atoms.index(atom))
            mask = (((1 << h) - 1) << h) * (((1 << width) - 1) // ((1 << 2 * h) - 1))
            ps = self._h[atom] = PropSet(0, mask, width)
        return ps

    # --- morphism, transpose, image test ---------------------------------

    def _lift_mask(self, mask: int, level: int, target: int) -> int:
        for lvl in self._levels[level + 1:target + 1]:
            mask = lvl.lift(mask)
        return mask

    def _lift_sizes(self, level: int) -> list[int]:
        """How many top-level worlds each world of ``level`` lifts to."""
        if level == self.top:
            return [1] * self.width(level)
        sizes = None
        for lvl in reversed(self._levels[level + 1:]):
            sizes = lvl.row_sizes(sizes)
        return sizes

    def lift(self, ps: PropSet, target: int) -> PropSet:
        """Iterated embedding up to ``target``; identity when already there."""
        if target < ps.level:
            raise ModelError("cannot lift downward")
        if target > self.top:
            raise ModelError(f"level {target} not built yet")
        if target == ps.level:
            return ps
        return PropSet(target, self._lift_mask(ps.mask, ps.level, target),
                       self.width(target))

    def transpose(self, ps: PropSet) -> PropSet:
        """Image under the coordinate swap of the level's pairing (public API;
        the engine swaps through ``Level.transpose``)."""
        if ps.level < 1:
            raise ModelError("transpose is undefined at level 0")
        return PropSet(ps.level, self._levels[ps.level].transpose(ps.mask), ps.width)

    def image_test(self, ps: PropSet, src_level: int) -> PropSet | None:
        """The unique preimage of ``ps`` at ``src_level``, or None.

        ``ps`` has a preimage exactly when it is a union of the blocks
        ``lift({w})`` over the source level's worlds.
        """
        if src_level > ps.level:
            raise ModelError("source level above the set's level")
        mask = ps.mask
        for n in range(ps.level, src_level, -1):
            mask = self._levels[n].pull(mask)
            if mask is None:
                return None
        return PropSet(src_level, mask, self.width(src_level))

    # --- the conditional map ----------------------------------------------

    def _lowest(self, mask: int, level: int) -> tuple[int, int]:
        """The set's lowest preimage as ``(level, mask)``: pulled while it has one.

        Remembered for sets of levels at most ``NARROW_WIDTH`` worlds wide
        (a wide mask costs its width to hash), up to ``LOWS_SIZE`` sets per
        state; later sets are pulled each time.  No entry goes stale: the
        levels a set is pulled through never change once built.
        """
        key = (level, mask)
        if narrow := self._levels[level].width <= NARROW_WIDTH:
            if (low := self._lows.get(key)) is not None:
                return low
        while level and (pulled := self._levels[level].pull(mask)) is not None:
            mask, level = pulled, level - 1
        if narrow and len(self._lows) < LOWS_SIZE:
            self._lows[key] = level, mask
        return level, mask

    def _find_match(self, mask: int, level: int,
                    low: tuple[int, int] | None = None) -> tuple[int, bool] | None:
        """Latest processed event equal to the set ``mask`` at ``level`` or to its complement.

        Lifting is an injective Boolean morphism, so two sets are equal exactly
        when their lowest preimages are, and complements have complementary ones.
        ``low`` is the set's lowest preimage when the caller has it already.
        """
        return self._matches.get(self._lowest(mask, level) if low is None else low)

    def _defining(self, a: PropSet) -> tuple[int | None, bool] | None:
        """Where ``f(. , a)`` is read, as ``(base, direct)``: ``base`` is the
        level right after the step that last processed ``a``'s family, and
        ``direct`` whether that step processed ``a`` rather than its
        complement.  ``base`` is None when ``a`` is empty or full, which
        conditions as the identity; None when the family was never processed.
        """
        if a.is_empty or a.is_full:
            return None, True
        match = self._matches.get(self._lowest(a.mask, a.level))
        if match is None:
            return None
        idx, direct = match
        return self.history[idx].level + 1, direct

    def _conditional(self, b: PropSet, a: PropSet,
                     runs: bool = False) -> PropSet | ConditionalRuns | None:
        """``f(b, a)`` at the higher of the operands' and the defining level.

        None when the pair is not defined yet: ``a``'s family was never
        processed, or ``b`` does not embed at the level right after the
        step that last processed it.  ``runs`` is ``ensure``'s.
        """
        found = self._defining(a)
        if found is None:
            return None
        base, direct = found
        if base is None:
            return self.lift(b, max(b.level, a.level))
        lvl = self._levels[base]
        if b.level < base:
            below = self._lift_mask(b.mask, b.level, base - 1)
            if runs and a.level <= base and lvl.width > NARROW_WIDTH:
                return ConditionalRuns(base, lvl.conditional_runs(below, direct))
            value = lvl.conditional(below, direct)
        else:
            pulled = b if b.level == base else self.image_test(b, base)
            if pulled is None:
                return None
            value = lvl.conditional_here(pulled.mask, direct)
        return self.lift(PropSet(base, value, lvl.width), max(base, b.level, a.level))

    def _kept(self, b: PropSet, a: PropSet) -> bool | None:
        """``keeps``' answer with no step: None exactly when ``_conditional``
        is.  Lifting is injective, so ``f(b, a) == b`` holds at the value's
        level exactly when it holds at the defining level ``base``."""
        found = self._defining(a)
        if found is None:
            return None
        base, direct = found
        if base is None:
            return True
        lvl = self._levels[base]
        if b.level < base:
            return lvl.fixes(self._lift_mask(b.mask, b.level, base - 1))
        pulled = b if b.level == base else self.image_test(b, base)
        if pulled is None:
            return None
        return lvl.conditional_here(pulled.mask, direct) == pulled.mask

    def is_defined(self, b: PropSet, a: PropSet) -> bool:
        """Whether ``f_eval(b, a)`` would succeed without a further step: the
        non-raising form of ``f_eval`` (public API)."""
        return self._conditional(b, a) is not None

    def f_eval(self, b: PropSet, a: PropSet) -> PropSet:
        """The conditional value ``f(b, a)``.

        Conditioning on the empty or full set is the identity.  Otherwise
        the value is obtained at the level right after the step that last
        processed ``a``'s family, via the closed form, and lifted back up
        to the higher of that level and the operands' levels.  Raises
        :class:`UndefinedConditionalError` when ``ensure`` is needed.
        """
        value = self._conditional(b, a)
        if value is None:
            raise UndefinedConditionalError(
                "pair not defined by the steps so far; run ensure first")
        return value

    # --- stepping ----------------------------------------------------------

    def _assert_writable(self) -> None:
        if self._frozen:
            raise FrozenStateError("snapshot states are read-only")

    def step(self, event: PropSet | None = None) -> None:
        """Process one event, building the next level.

        In demand mode ``event`` is required (any built level; it is lifted
        to the top).  In canonical mode ``event`` must be None and the task
        list's front pair is processed.
        """
        self._assert_writable()
        n = self.top
        if n + 1 > self.max_levels:
            raise CapExceededError(f"level cap {self.max_levels} reached")

        full = (1 << self.width(n)) - 1
        if self.mode == "canonical":
            if event is not None:
                raise ScheduleError("canonical mode draws events from the task list")
            event = PropSet(n, self._canonical_pop_pair(), self.width(n))
        elif event is None:
            raise ScheduleError("demand mode needs an explicit event")
        b_mask = self.lift(event, n).mask
        if b_mask in (0, full):
            raise DegenerateEventError(
                "conditioning on the empty or full set needs no step")

        lowest = self._lowest(event.mask, event.level)
        match = self._find_match(event.mask, event.level, lowest)
        if match is None:
            blocks = ((b_mask, b_mask ^ full),)
            case, nu = 1, None
            width = 2 * b_mask.bit_count() * (b_mask ^ full).bit_count()
        else:
            nu, direct = match
            if not direct:
                if self.mode == "canonical":
                    raise ScheduleError(
                        "task list drew the complement of a processed event")
                b_mask ^= full    # re-process the prior orientation
            base = self.history[nu].level + 1
            # a block per Pi x Gamma world and its swap, sized before it is built
            pairs = self._levels[base].swapped_pairs()
            sizes = self._lift_sizes(base)
            width = sum(2 * sizes[w] * sizes[t] for w, t in pairs)
            case, lowest = 0, self.history[nu].lowest

        self._check_width([lvl.width for lvl in self._levels], width)
        if case == 0:
            blocks = tuple((self._lift_mask(1 << w, base, n), self._lift_mask(1 << t, base, n))
                           for w, t in pairs)

        shared = width <= INTERN_WIDTH and self.width(n) <= INTERN_PREV_WIDTH
        build = _shared_level if shared else build_level
        self._levels.append(build(n + 1, self.width(n), blocks))
        index = len(self.history)
        self.history.append(ProcessedEvent(
            step=index, level=n, event=b_mask,
            case=case, nu=nu, blocks=blocks, lowest=lowest))
        # a case-0 step keeps its family's lowest form and becomes its match
        low_level, low_mask = lowest
        self._matches[lowest] = (index, True)
        self._matches[low_level, low_mask ^ ((1 << self.width(low_level)) - 1)] = (index, False)

        if self.mode == "canonical":
            self._canonical_push(n)

    def ensure(self, b: PropSet, a: PropSet, runs: bool = False) -> PropSet | ConditionalRuns:
        """Run steps until ``f(b, a)`` is defined; return it.

        The value equals ``f_eval(b, a)`` after the steps: it sits at the
        higher of the defining level and the operands' levels, not
        necessarily at the top.  Demand mode needs at most one step
        (processing ``a``'s family at the top level).  Canonical mode
        advances the task list until the pair is defined, which may hit
        the resource caps.  A snapshot returns a defined pair's value and
        raises :class:`FrozenStateError` for any other.

        With ``runs``, a value at its own defining level, wider than
        ``NARROW_WIDTH``, with ``b`` below that level, comes unbuilt as its
        ``ConditionalRuns``, which a measure weighs run by run; ``prob``
        reads a conditional at the top this way.  Any other value is the
        same ``PropSet``.
        """
        value = self._conditional(b, a, runs)
        return self._stepped(self._conditional, b, a, runs) if value is None else value

    def keeps(self, b: PropSet, a: PropSet) -> bool:
        """Whether ``f(b, a)`` equals ``b``: the independence test ``b * a``.

        Runs the steps ``ensure(b, a)`` would run, with the same refusals,
        then decides on the defining level without building the value.
        There, with ``b`` below it, conditioning keeps ``b`` exactly when
        ``b`` meets every block ``Pi | Gamma`` in nothing or in all of it
        (``Level.fixes``); with ``b`` at or above it, ``b`` is pulled down
        and conditioned there.
        """
        kept = self._kept(b, a)
        return self._stepped(self._kept, b, a) if kept is None else kept

    def _stepped(self, answer, b: PropSet, a: PropSet, *rest):
        """``answer(b, a, *rest)`` after the steps that define the pair, which
        ``answer`` found undefined: ``ensure``'s and ``keeps``' one loop."""
        self._assert_writable()
        if self.mode == "demand":
            self.step(a)
            value = answer(b, a, *rest)
            if value is None:
                raise ModelError("internal error: step did not define the pair")
            return value
        value = None
        while value is None:
            self.step()
            value = answer(b, a, *rest)
        return value

    # --- canonical task list -----------------------------------------------

    def _canonical_pop_pair(self) -> int:
        items = self._schedule_items
        while items and items[0][0] is None:
            items[:1] = self._expand_marker(items[0][1])
        if len(items) < 2:
            raise ScheduleError("task list front is not a complement pair")
        (mask, level), (mask2, level2) = items[:2]
        del items[:2]
        n = self.top
        b = self._lift_mask(mask, level, n)
        b2 = self._lift_mask(mask2, level2, n)
        if b2 != b ^ ((1 << self.width(n)) - 1):
            raise ScheduleError("task list front pair is not complement-paired")
        return b

    def _expand_marker(self, level: int) -> list[tuple[int, int]]:
        """The pairs a ``level`` marker stands for: those with no preimage one level down."""
        width = self.width(level)
        if width > CANONICAL_ENUM_WIDTH:
            raise CapExceededError(
                f"canonical task list would enumerate 2^{width} sets "
                f"(cap 2^{CANONICAL_ENUM_WIDTH})")
        return [(m, level) for rep, comp in canonical_pairs(width)
                if self._levels[level].pull(rep) is None for m in (rep, comp)]

    def _canonical_push(self, n: int) -> None:
        new = n + 1
        mu_b = self._levels[new].event_image_mask
        self._schedule_items += [(None, new), (mu_b, new),
                                 (mu_b ^ ((1 << self.width(new)) - 1), new)]

    # --- snapshots and dumps -------------------------------------------------

    def snapshot(self) -> "ModelState":
        """A read-only view of the levels and history built so far.

        Levels are shared, as they are between any models that processed
        the same events; the level and history lists, the match index and
        the memo of lowest preimages are copied, so later steps on the owner
        do not show through.  The shared levels are marked read-many
        (``Level.read_many``), for the owner too: a level's tables only
        gain entries, each equal to what the level computes without them.
        """
        for lvl in self._levels[1:]:
            lvl.read_many()
        clone = object.__new__(ModelState)
        clone.__dict__ = dict(self.__dict__)
        clone._levels = list(self._levels)
        clone.history = list(self.history)
        clone._matches = dict(self._matches)
        clone._lows = dict(self._lows)
        clone._schedule_items = []
        clone._frozen = True
        return clone

    def to_json(self) -> dict:
        """Stable-order dump of levels, atom assignments, and history."""
        levels = []
        for lvl in self._levels:
            entry: dict = {"index": lvl.index, "width": lvl.width}
            if lvl.index == 0:
                entry["worlds"] = list(self._labels)
            else:
                entry["pairs"] = [list(p) for p in lvl.pairs]
                entry["event_image"] = list(range(lvl.split))
            if self.atoms:
                entry["h"] = {a: self.lift(self.h(a), lvl.index).indices()
                              for a in self.atoms}
            levels.append(entry)
        history = []
        for ev in self.history:
            history.append({
                "step": ev.step,
                "level": ev.level,
                "case": ev.case,
                "nu": ev.nu,
                "event": bit_indices(ev.event),
                "blocks": [[bit_indices(p), bit_indices(g)] for p, g in ev.blocks],
            })
        return {
            "base": {"atoms": list(self.atoms), "worlds": list(self._labels)},
            "schedule": self.mode,
            "levels": levels,
            "history": history,
        }
