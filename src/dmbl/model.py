"""Recursive construction of the free conditional model.

The model is a growing sequence of levels.  Each step processes one event
``b`` at the current top level ``n``: worlds of level ``n + 1`` are the
pairs of the blocks ``Pi x Gamma`` and ``Gamma x Pi`` attached to ``b``,
every level-``n`` set embeds into level ``n + 1`` through the injective
Boolean morphism ``mu``, and the conditional map ``f(. , b)`` (and its
complement orientation) becomes total over the new level via the closed
form ``f(C, mu(b)) = (C & mu(b)) | (T(C) & ~mu(b))`` with ``T`` the
coordinate swap.

Processing the same event family again (case 0) refines the blocks from
the level that first processed it; a fresh event (case 1) uses the single
block ``(b, ~b)``.  Two schedules are provided: ``demand`` processes the
requested event immediately, ``canonical`` follows the cyclic task list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .worlds import Level, PropSet, WorldsError, bit_indices, build_level, mask_of


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


@dataclass(frozen=True)
class ProcessedEvent:
    """One construction step: the event, its case, and its blocks.

    ``level`` is the level the event lives at (the step built ``level + 1``).
    ``nu`` is the step index whose event this one re-processes (case 0).
    Block masks are at ``level``.
    """

    step: int
    level: int
    event: int
    case: int
    nu: Optional[int]
    blocks: tuple[tuple[int, int], ...]


class _Marker:
    """Lazy stand-in for the new sets a finished step appends to the task list."""

    __slots__ = ("level", "excluded", "excluded_markers", "expansion")

    def __init__(self, level: int, excluded: list[int], excluded_markers: list["_Marker"]):
        self.level = level
        self.excluded = excluded          # masks at self.level already listed elsewhere
        self.excluded_markers = excluded_markers
        self.expansion: Optional[list[tuple[int, int]]] = None


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
    flat = []
    for rep, comp in canonical_pairs(width):
        flat.append(rep)
        flat.append(comp)
    return flat


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
                 task_list=None, max_levels: int = 32, max_worlds: int = 200_000,
                 canonical_enum_width: int = 16):
        if (atoms is None) == (worlds is None):
            raise ModelError("give either atoms or an explicit base-world list")
        if schedule not in ("demand", "canonical"):
            raise ModelError(f"unknown schedule {schedule!r}")
        self.max_levels = max_levels
        self.max_worlds = max_worlds
        self.canonical_enum_width = canonical_enum_width
        self.mode = schedule
        self._frozen = False

        if atoms is not None:
            atoms = tuple(atoms)
            if not atoms or len(set(atoms)) != len(atoms):
                raise ModelError("atoms must be a nonempty list of distinct names")
            k = len(atoms)
            width = 1 << k
            self.atoms = atoms
            self._labels = []
            self._h0 = {a: 0 for a in atoms}
            for i in range(width):
                bits = tuple((i >> (k - 1 - j)) & 1 for j in range(k))
                self._labels.append(
                    " /\\ ".join(a if b else "~" + a for a, b in zip(atoms, bits)))
                for j, b in enumerate(bits):
                    if b:
                        self._h0[atoms[j]] |= 1 << i
        else:
            worlds = list(worlds)
            if not worlds or len(set(worlds)) != len(worlds):
                raise ModelError("base worlds must be nonempty and distinct")
            self.atoms = ()
            self._labels = [str(w) for w in worlds]
            self._h0 = {}
            width = len(worlds)

        self._levels: list[Level] = [Level(index=0, width=width)]
        self.history: list[ProcessedEvent] = []
        self._event_lifts: list[int] = []
        self._h_cache: dict[tuple[str, int], int] = {}

        if schedule == "canonical":
            if task_list is None:
                if width > self.canonical_enum_width:
                    raise CapExceededError(
                        "default task list needs 2^width enumeration; "
                        "pass an explicit task list")
                task_list = default_task_list(width)
            self._validate_task_list(task_list, width)
            self._schedule_items: list = [("set", m, 0) for m in task_list]
        else:
            self._schedule_items = []

    # --- construction helpers -------------------------------------------

    @classmethod
    def from_atoms(cls, atoms, **kw) -> "ModelState":
        return cls(atoms=atoms, **kw)

    @classmethod
    def from_worlds(cls, labels, **kw) -> "ModelState":
        return cls(worlds=labels, **kw)

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
        if atom not in self._h0:
            raise ModelError(f"unknown atom {atom!r}")
        return PropSet(0, self._h0[atom], self.width(0))

    def h_at(self, atom: str, level: int) -> PropSet:
        key = (atom, level)
        cached = self._h_cache.get(key)
        if cached is None:
            cached = self.lift(self.h(atom), level).mask
            self._h_cache[key] = cached
        return PropSet(level, cached, self.width(level))

    # --- morphism, transpose, image test ---------------------------------

    def _mu_mask(self, mask: int, level: int) -> int:
        nxt = self._levels[level + 1]
        out = 0
        for p in bit_indices(mask):
            s, e = nxt.runs[p]
            out |= ((1 << (e - s)) - 1) << s
        return out

    def mu(self, ps: PropSet) -> PropSet:
        """Embed a level-``n`` set into level ``n + 1``."""
        if ps.level + 1 > self.top:
            raise ModelError(f"level {ps.level + 1} not built yet")
        return PropSet(ps.level + 1, self._mu_mask(ps.mask, ps.level),
                       self.width(ps.level + 1))

    def _lift_mask(self, mask: int, level: int, target: int) -> int:
        for n in range(level, target):
            mask = self._mu_mask(mask, n)
        return mask

    def lift(self, ps: PropSet, target: int) -> PropSet:
        """Iterated embedding up to ``target``; identity when already there."""
        if target < ps.level:
            raise ModelError("cannot lift downward")
        if target > self.top:
            raise ModelError(f"level {target} not built yet")
        return PropSet(target, self._lift_mask(ps.mask, ps.level, target),
                       self.width(target))

    def transpose(self, ps: PropSet) -> PropSet:
        """Image under the coordinate swap of the level's pairing."""
        if ps.level < 1:
            raise ModelError("transpose is undefined at level 0")
        perm = self._levels[ps.level].transpose_perm
        out = 0
        for w in bit_indices(ps.mask):
            out |= 1 << perm[w]
        return PropSet(ps.level, out, ps.width)

    def _pull_once(self, mask: int, level: int) -> Optional[int]:
        # each parent's run must lie wholly inside or wholly outside the mask
        parents = 0
        for p, (s, e) in enumerate(self._levels[level].runs):
            ones = (1 << (e - s)) - 1
            run = (mask >> s) & ones
            if run == ones:
                parents |= 1 << p
            elif run:
                return None
        return parents

    def image_test(self, ps: PropSet, src_level: int) -> Optional[PropSet]:
        """The unique preimage of ``ps`` at ``src_level``, or None.

        ``ps`` has a preimage exactly when it is a union of the blocks
        ``lift({w})`` over the source level's worlds.
        """
        if src_level > ps.level:
            raise ModelError("source level above the set's level")
        mask = ps.mask
        for n in range(ps.level, src_level, -1):
            mask = self._pull_once(mask, n)
            if mask is None:
                return None
        return PropSet(src_level, mask, self.width(src_level))

    # --- the conditional map ----------------------------------------------

    def _find_match(self, mask_at_top: int) -> Optional[tuple[int, bool]]:
        """Latest processed event whose lift equals the mask or its complement."""
        full = (1 << self.width(self.top)) - 1
        for i in range(len(self.history) - 1, -1, -1):
            lifted = self._event_lifts[i]
            if lifted == mask_at_top:
                return i, True
            if lifted == mask_at_top ^ full:
                return i, False
        return None

    def _conditional(self, b: PropSet, a: PropSet) -> Optional[PropSet]:
        """``f(b, a)`` at the higher of the operands' and the defining level.

        None when the pair is not defined yet: ``a``'s family was never
        processed, or ``b`` does not embed at the level right after the
        step that last processed it.
        """
        n = max(b.level, a.level)
        a = self.lift(a, n)
        b = self.lift(b, n)
        if a.is_empty or a.is_full:
            return b
        match = self._find_match(self.lift(a, self.top).mask)
        if match is None:
            return None
        idx, direct = match
        base = self.history[idx].level + 1
        if base > n:
            n = base
            b = self.lift(b, n)
        pulled = self.image_test(b, base)
        if pulled is None:
            return None
        lvl = self._levels[base]
        ev = lvl.event_image_mask
        co = lvl.full_mask ^ ev
        c = pulled.mask
        tc = self.transpose(pulled).mask
        if direct:
            r = (c & ev) | (tc & co)
        else:
            r = (tc & ev) | (c & co)
        return self.lift(PropSet(base, r, lvl.width), n)

    def is_defined(self, b: PropSet, a: PropSet) -> bool:
        """Whether ``f_eval(b, a)`` would succeed without a further step."""
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

    def step(self, event: Optional[PropSet] = None) -> None:
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
            b_mask = self._canonical_pop_pair()
        else:
            if event is None:
                raise ScheduleError("demand mode needs an explicit event")
            b_mask = self.lift(event, n).mask
            if b_mask in (0, full):
                raise DegenerateEventError(
                    "conditioning on the empty or full set needs no step")

        match = self._find_match(b_mask)
        if match is None:
            blocks = [(b_mask, b_mask ^ full)]
            case, nu = 1, None
        else:
            nu, direct = match
            if not direct:
                if self.mode == "canonical":
                    raise ScheduleError(
                        "task list drew the complement of a processed event")
                b_mask ^= full    # re-process the prior orientation
            base = self.history[nu].level + 1
            base_lvl = self._levels[base]
            blocks = [(self._lift_mask(1 << w, base, n),
                       self._lift_mask(1 << base_lvl.transpose_perm[w], base, n))
                      for w in bit_indices(base_lvl.event_image_mask)]
            case = 0

        new_width = sum(2 * p.bit_count() * g.bit_count() for p, g in blocks)
        if new_width > self.max_worlds:
            raise CapExceededError(
                f"next level would have {new_width} worlds (cap {self.max_worlds})")

        self._levels.append(build_level(n + 1, self.width(n), blocks))
        self._event_lifts = [self._mu_mask(m, n) for m in self._event_lifts]
        self._event_lifts.append(self._levels[n + 1].event_image_mask)
        self.history.append(ProcessedEvent(
            step=len(self.history), level=n, event=b_mask,
            case=case, nu=nu, blocks=tuple(blocks)))

        if self.mode == "canonical":
            self._canonical_push(n, b_mask)

    def ensure(self, b: PropSet, a: PropSet) -> PropSet:
        """Run steps until ``f(b, a)`` is defined; return it at the top level.

        The value equals ``lift(f_eval(b, a), top)`` after the steps.
        Demand mode needs at most one step (processing ``a``'s family at
        the top level).  Canonical mode advances the task list until the
        pair is defined, which may hit the resource caps.  A snapshot
        returns a defined pair's value and raises
        :class:`FrozenStateError` for any other.
        """
        value = self._conditional(b, a)
        if value is None:
            self._assert_writable()
            if self.mode == "demand":
                self.step(self.lift(a, self.top))
                value = self._conditional(b, a)
                if value is None:
                    raise ModelError("internal error: step did not define the pair")
            else:
                while value is None:
                    self.step()
                    value = self._conditional(b, a)
        return self.lift(value, self.top)

    # --- canonical task list -----------------------------------------------

    def _canonical_pop_pair(self) -> int:
        items = self._schedule_items
        while items and isinstance(items[0], _Marker):
            expansion = self._expand_marker(items.pop(0))
            items[:0] = expansion
        if len(items) < 2 or any(isinstance(x, _Marker) for x in items[:2]):
            raise ScheduleError("task list front is not a complement pair")
        kind, mask, level = items.pop(0)
        kind2, mask2, level2 = items.pop(0)
        n = self.top
        b = self._lift_mask(mask, level, n)
        b2 = self._lift_mask(mask2, level2, n)
        if b2 != b ^ ((1 << self.width(n)) - 1):
            raise ScheduleError("task list front pair is not complement-paired")
        return b

    def _expand_marker(self, mk: _Marker) -> list:
        lvl = self._levels[mk.level]
        if lvl.width > self.canonical_enum_width:
            raise CapExceededError(
                f"canonical task list would enumerate 2^{lvl.width} sets "
                f"(cap 2^{self.canonical_enum_width})")
        excluded = set(mk.excluded)
        for sub in mk.excluded_markers:
            if sub.expansion is None:
                raise ScheduleError("task-list marker expanded out of order")
            for m, m_level in sub.expansion:
                excluded.add(self._lift_mask(m, m_level, mk.level))
        out = []
        for rep, comp in canonical_pairs(lvl.width):
            if rep in excluded or comp in excluded:
                continue
            out.append(("set", rep, mk.level))
            out.append(("set", comp, mk.level))
        mk.expansion = [(m, lv) for (_, m, lv) in out]
        return out

    def _canonical_push(self, n: int, b_mask: int) -> None:
        new = n + 1
        mu_b = self._levels[new].event_image_mask
        excluded = [mu_b, mu_b ^ ((1 << self.width(new)) - 1)]
        excluded_markers = []
        for item in self._schedule_items:
            if isinstance(item, _Marker):
                excluded_markers.append(item)
            else:
                _, mask, level = item
                excluded.append(self._lift_mask(mask, level, new))
        self._schedule_items.append(_Marker(new, excluded, excluded_markers))
        self._schedule_items.append(("set", mu_b, new))
        self._schedule_items.append(("set", excluded[1], new))

    def pending_task_front(self, count: int = 8) -> list[PropSet]:
        """The next concrete task-list entries (diagnostic view)."""
        out = []
        for item in self._schedule_items:
            if isinstance(item, _Marker):
                break
            _, mask, level = item
            out.append(PropSet(level, mask, self.width(level)))
            if len(out) >= count:
                break
        return out

    # --- snapshots and dumps -------------------------------------------------

    def snapshot(self) -> "ModelState":
        """A read-only view of the levels and history built so far.

        Level tables are shared (they never mutate); the containers are
        copied, so later steps on the owner do not show through.
        """
        clone = object.__new__(ModelState)
        clone.__dict__ = dict(self.__dict__)
        clone._levels = list(self._levels)
        clone.history = list(self.history)
        clone._event_lifts = list(self._event_lifts)
        clone._h_cache = dict(self._h_cache)
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
                entry["event_image"] = bit_indices(lvl.event_image_mask)
            if self.atoms:
                entry["h"] = {a: self.h_at(a, lvl.index).indices() for a in self.atoms}
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
