import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from dmbl.evaluator import (EvaluationError, _eval, assign, decide, diagnose_b6,
                            independent, lewis_escape, valid)
from dmbl.formula import (And, Atom, Bot, Box, Formula, Iff, Implies, Not, Or, Top,
                          children, expand, is_box_free, parse, subformulas, to_text)
from dmbl.model import CapExceededError, ModelState
from dmbl.worlds import PropSet

from genformulas import random_formula
from oracle import drive_from_state, to_set

# The theorem suite: templates over an antecedent {f}, a consequent {s},
# and a third formula {e}.  Every template instantiates to a validity.
THEOREM_TEMPLATES = [
    "({s}|T) <-> {s}",
    "({s}|F) <-> {s}",
    "((~{s})|{f}) <-> ~({s}|{f})",
    "(({s} /\\ {e})|{f}) <-> (({s}|{f}) /\\ ({e}|{f}))",
    "(({s} \\/ {e})|{f}) <-> (({s}|{f}) \\/ ({e}|{f}))",
    "(({s} -> {e})|{f}) <-> (({s}|{f}) -> ({e}|{f}))",
    "((T|{f}) <-> T) /\\ ((F|{f}) <-> F)",
    "(({s}|{f}) /\\ {f}) <-> ({f} /\\ {s})",
    "[]~{f} \\/ []({f}|{f})",
    "(({s}|{f})) * {f}",
    "({s} * {f}) -> ((~{s}) * {f})",
    "(({s} * {f}) /\\ ({e} * {f})) -> (({s} /\\ {e}) * {f})",
    "({f} * {f}) -> ([]~{f} \\/ []{f})",
    "({s} * {f}) -> ([]({f} \\/ {s}) -> ([]{f} \\/ []{s}))",
    "(({f} * {e}) /\\ ({s} * {e})) -> ([](({f} /\\ {e}) -> ({s} /\\ {e}))"
    " -> ([]~{e} \\/ []({f} -> {s})))",
]


def theorem_suite(f="p", s="q", e="p \\/ q"):
    # parenthesize the pieces so precedence cannot leak across the template
    f, s, e = f"({f})", f"({s})", f"({e})"
    return [t.format(f=f, s=s, e=e) for t in THEOREM_TEMPLATES]


def test_assign_constants():
    st_ = ModelState.from_atoms(["p", "q"])
    assert assign(st_, parse("T")).value.is_full
    assert assign(st_, parse("F")).value.is_empty


def test_assign_conditional_on_top_is_identity():
    st_ = ModelState.from_atoms(["p", "q"])
    v = assign(st_, parse("(q|T)"))
    assert v.value == st_.lift(st_.h("q"), v.level)


def test_assign_box_of_contingent_is_empty():
    st_ = ModelState.from_atoms(["p", "q"])
    assert assign(st_, parse("[]p")).value.is_empty
    assert assign(st_, parse("[]T")).value.is_full


def test_valid_inference_property():
    st_ = ModelState.from_atoms(["p", "q"])
    assert valid(st_, parse("((q|p) /\\ p) <-> (p /\\ q)"))


def test_valid_negation_commutes():
    st_ = ModelState.from_atoms(["p", "q"])
    assert valid(st_, parse("((~q)|p) <-> ~(q|p)"))


def test_conditional_does_not_entail_consequent():
    st_ = ModelState.from_atoms(["p", "q"])
    assert not valid(st_, parse("(q|p) -> q"))


def test_decide_flags_modal_caveat():
    st_ = ModelState.from_atoms(["p", "q"])
    d = decide(st_, parse("[]p -> p"))
    assert d.valid and not d.box_free and d.caveat
    assert d.verdict == "model-valid"
    d2 = decide(st_, parse("(q|p) -> (p -> q)"))
    assert d2.valid and d2.box_free and d2.caveat is None
    assert d2.verdict == "theorem"


def test_theorem_suite_demand_default_instantiation():
    st_ = ModelState.from_atoms(["p", "q"])
    for text in theorem_suite():
        assert valid(st_, parse(text)), text


def test_theorem_suite_canonical_default_instantiation():
    st_ = ModelState.from_atoms(["p", "q"], schedule="canonical")
    for text in theorem_suite():
        assert valid(st_, parse(text)), text


@given(st.integers(min_value=0, max_value=500))
def test_theorem_suite_random_instantiations(seed):
    rng = random.Random(seed)
    pool = ["p", "q", "~p", "p /\\ q", "p \\/ q", "T", "F"]
    f, s, e = rng.choice(pool), rng.choice(pool), rng.choice(pool)
    st_ = ModelState.from_atoms(["p", "q"])
    for text in theorem_suite(f=f, s=s, e=e):
        assert valid(st_, parse(text)), (text, f, s, e)


def test_independent_full_universe():
    st_ = ModelState.from_atoms(["p", "q"])
    assert independent(st_, parse("q"), parse("T"))


def test_independent_conditional_of_its_antecedent():
    st_ = ModelState.from_atoms(["p", "q"])
    assert independent(st_, parse("p"), parse("(q|p)"))


def test_independent_distinct_atoms_fails():
    st_ = ModelState.from_atoms(["p", "q"])
    assert not independent(st_, parse("p"), parse("q"))


# --- derived connectives, evaluated directly ---------------------------------


def _ladder(state):
    return [state.width(n) for n in range(state.num_levels)]


def _assign_or_cap(state, f):
    try:
        return assign(state, f).value, _ladder(state)
    except CapExceededError as exc:
        return str(exc), _ladder(state)


@pytest.mark.parametrize("schedule", ["demand", "canonical"])
@given(st.integers(min_value=0, max_value=10_000))
def test_direct_evaluation_matches_the_expansion(schedule, seed):
    f = random_formula(random.Random(seed), ["p", "q"], max_depth=4,
                       cond_budget=2, allow_modal=True)
    direct, expanded = (
        _assign_or_cap(ModelState.from_atoms(["p", "q"], schedule=schedule,
                                             max_worlds=5_000), g)
        for g in (f, expand(f)))
    assert direct == expanded


@pytest.mark.parametrize("k", [2, 5, 12, 40])
def test_biconditional_chain_conditions_once_per_operand(monkeypatch, k):
    calls = []
    ensure = ModelState.ensure

    def counting(self, b, a):
        calls.append((b.level, a.level))
        return ensure(self, b, a)

    monkeypatch.setattr(ModelState, "ensure", counting)
    st_ = ModelState.from_atoms(["p", "q"])
    assert valid(st_, parse(" <-> ".join(["(q|p)"] * k))) == (k % 2 == 0)
    assert len(calls) == k


# --- non-distortion against a truth-table oracle ---------------------------


def _eval_classical(f, env):
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Not):
        return not _eval_classical(f.body, env)
    if isinstance(f, And):
        return _eval_classical(f.left, env) and _eval_classical(f.right, env)
    if isinstance(f, Or):
        return _eval_classical(f.left, env) or _eval_classical(f.right, env)
    if isinstance(f, Implies):
        return (not _eval_classical(f.left, env)) or _eval_classical(f.right, env)
    if isinstance(f, Iff):
        return _eval_classical(f.left, env) == _eval_classical(f.right, env)
    raise AssertionError(f"not classical: {f}")


def truth_table(f, atoms=("p", "q")):
    return tuple(_eval_classical(f, dict(zip(atoms, bits)))
                 for bits in product((False, True), repeat=len(atoms)))


def class_formula(mask):
    """A representative classical formula whose models are the given rows."""
    if mask == 0:
        return parse("F")
    terms = []
    for i in range(4):
        if mask >> i & 1:
            dp, dq = (i >> 1) & 1, i & 1
            terms.append(f"({'p' if dp else '~p'} /\\ {'q' if dq else '~q'})")
    return parse(" \\/ ".join(terms))


def test_class_formula_matches_oracle():
    for mask in range(16):
        f = class_formula(mask)
        rows = truth_table(f)
        # row i of the table corresponds to bits (p, q) with p the high bit
        assert tuple(bool(mask >> (2 * b[0] + b[1]) & 1)
                     for b in product((0, 1), repeat=2)) == rows


def test_non_distortion_all_classes():
    for mask in range(16):
        f = class_formula(mask)
        rows = truth_table(f)
        st_ = ModelState.from_atoms(["p", "q"])
        knows = valid(st_, parse(f"[]({f}) \\/ []~({f})"))
        assert knows == (all(rows) or not any(rows))


def test_level_stability_under_unrelated_steps():
    st_ = ModelState.from_atoms(["p", "q"])
    f = parse("(q|p) \\/ ~p")
    v1 = assign(st_, f)
    st_.step(st_.lift(st_.h("p") & st_.h("q"), st_.top))
    st_.step(st_.lift(st_.h("p") | st_.h("q"), st_.top))
    v2 = assign(st_, f)
    assert st_.lift(v1.value, v2.level) == v2.value


# --- escape from the base algebra -------------------------------------------


def test_lewis_escape_atoms():
    st_ = ModelState.from_atoms(["p", "q"])
    a = st_.h("p")
    b = st_.h("p") & st_.h("q")
    assert lewis_escape(st_, a, b)


def test_lewis_escape_three_worlds():
    st_ = ModelState.from_worlds(["a", "b", "c"])
    a = st_.from_indices(0, [0, 1])
    b = st_.from_indices(0, [0])
    assert lewis_escape(st_, a, b)
    # the escaping part is exactly {(c, a)}
    st2 = ModelState.from_worlds(["a", "b", "c"])
    st2.step(st2.from_indices(0, [0, 1]))
    la = st2.lift(st2.from_indices(0, [0, 1]), 1)
    lb = st2.lift(st2.from_indices(0, [0]), 1)
    outside = st2.f_eval(lb, la) & la.complement()
    assert outside.indices() == [2]


def test_lewis_escape_preconditions():
    st_ = ModelState.from_atoms(["p", "q"])
    with pytest.raises(EvaluationError):
        lewis_escape(st_, st_.full(0), st_.h("p"))
    with pytest.raises(EvaluationError):
        lewis_escape(st_, st_.h("p"), st_.h("p"))
    with pytest.raises(EvaluationError):
        lewis_escape(st_, st_.h("p"), st_.empty(0))


def test_lewis_escape_exhaustive_two_atoms():
    n = 4
    for a_mask in range(1, 15):
        for b_mask in range(1, 16):
            if b_mask == a_mask or b_mask & ~a_mask & 15:
                continue
            st_ = ModelState.from_atoms(["p", "q"])
            a = PropSet(0, a_mask, n)
            b = PropSet(0, b_mask, n)
            assert lewis_escape(st_, a, b), (a_mask, b_mask)


# --- independence symmetry diagnostics ---------------------------------------


def test_diagnose_b6_full_universe_symmetric():
    st_ = ModelState.from_atoms(["p", "q"])
    rep = diagnose_b6(st_, parse("T"), parse("q"))
    assert rep.forward and rep.backward and rep.symmetric


def test_diagnose_b6_conditional_pair():
    st_ = ModelState.from_atoms(["p", "q"])
    rep = diagnose_b6(st_, parse("p"), parse("(q|p)"))
    assert rep.forward  # a conditional is independent of its antecedent
    assert isinstance(rep.backward, bool)


def test_diagnose_b6_nesting_probe_matches_reference():
    st_ = ModelState.from_atoms(["p", "q"])
    rep = diagnose_b6(st_, parse("p"), parse("q"), parse("p \\/ q"))
    om, maps = drive_from_state(st_)
    t = st_.top
    hp = to_set(maps, st_.lift(st_.h("p"), t))
    hq = to_set(maps, st_.lift(st_.h("q"), t))
    heta = hp | hq
    left = om.f(om.f(heta, hq), hp)
    right = om.f(heta, hp & hq)
    assert rep.star_equal == (left == right)


# --- node classes ---------------------------------------------------------------

def _node_classes():
    # every concrete node class: the subclasses of Formula that its module defines
    return sorted((cls for cls in Formula.__subclasses__()
                   if cls.__module__ == Formula.__module__), key=lambda cls: cls.__name__)


def _sample(cls):
    # one node of cls over the atoms p and q: an atom is p, and an operand
    # slot holds p or q in turn
    if cls is Atom:
        return Atom("p")
    return cls(*(Atom(name) for name, _ in zip("pq", cls.__slots__)))


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda cls: cls.__name__)
def test_every_node_class_is_evaluated_split_and_classified(cls):
    # _eval, children, is_box_free and the printer tell the classes apart
    # by identity, so each one must be named in each of them
    f = _sample(cls)
    assert isinstance(_eval(ModelState.from_atoms(["p", "q"]), f), PropSet)
    assert parse(to_text(f)) == f
    assert children(f) == tuple(getattr(f, name) for name in cls.__slots__
                                if name != "name")
    assert is_box_free(f) == (not any(isinstance(g, Box) for g in subformulas(expand(f))))


class _Unknown(Formula):
    __slots__ = ()


class _SubclassedAnd(And):
    __slots__ = ()


@pytest.mark.parametrize("node", [_Unknown(), _SubclassedAnd(Atom("p"), Atom("q"))],
                         ids=["unknown", "subclassed"])
def test_an_unknown_node_class_is_refused(node):
    s = ModelState.from_atoms(["p", "q"])
    with pytest.raises(EvaluationError, match=f"cannot evaluate node {type(node).__name__}"):
        _eval(s, node)
    with pytest.raises(TypeError):
        children(node)
    with pytest.raises(TypeError):
        to_text(node)


def test_an_atom_set_is_built_once_per_state():
    s = ModelState.from_atoms(["p", "q"])
    assert s.h("p") is s.h("p") is _eval(s, Atom("p"))
    assert s.h("p") == s.from_indices(0, [2, 3]) and s.h("q") == s.from_indices(0, [1, 3])
    assert s.snapshot().h("q") is s.h("q")
