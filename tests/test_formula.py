import random

import pytest
from hypothesis import given, strategies as st

from dmbl.formula import (And, Atom, Bot, Box, Cond, Diamond, Iff, Implies,
                          Indep, Not, Or, ParseError, Top, UnknownAtomError,
                          atoms_of, expand, is_box_free, parse, to_text)
from genformulas import random_formula


def test_parse_constant():
    assert parse("T") == Top()
    assert parse("F") == Bot()


def test_parse_inference_shape():
    f = parse("((q|p) /\\ p) <-> (p /\\ q)")
    assert f == Iff(And(Cond(Atom("q"), Atom("p")), Atom("p")),
                    And(Atom("p"), Atom("q")))


def test_parse_independence():
    assert parse("p * (q|p)") == Indep(Atom("p"), Cond(Atom("q"), Atom("p")))


def test_precedence_chain():
    # ~ binds tighter than /\ than \/ than -> than <-> than *
    f = parse("~p /\\ q \\/ r -> s <-> t * u",
              atoms=["p", "q", "r", "s", "t", "u"])
    assert f == Indep(
        Iff(Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s")),
            Atom("t")),
        Atom("u"))


def test_implication_right_associative():
    assert parse("p -> q -> p") == Implies(Atom("p"), Implies(Atom("q"), Atom("p")))


def test_modal_prefixes():
    assert parse("[]~p") == Box(Not(Atom("p")))
    assert parse("<>p") == Diamond(Atom("p"))


def test_conditional_requires_parens():
    with pytest.raises(ParseError):
        parse("q|p")


def test_syntax_error_reports_offset_and_expected():
    with pytest.raises(ParseError) as info:
        parse("(p /\\ )")
    assert info.value.offset == 6
    assert info.value.expected


def test_unknown_atom_rejected():
    with pytest.raises(UnknownAtomError) as info:
        parse("p /\\ r", atoms=["p", "q"])
    assert info.value.name == "r"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("p q")


def test_nesting_limit_reports_offset():
    for text in ("~" * 100 + "p", "(" * 100 + "p" + ")" * 100,
                 " /\\ ".join(["p"] * 101)):
        parse(text)
    for text, offset in (("~" * 101 + "p", 100), ("[]" * 101 + "p", 200),
                         ("(" * 101 + "p" + ")" * 101, 100),
                         (" -> ".join(["p"] * 102), 502),
                         (" \\/ ".join(["p"] * 102), 502),
                         ("(" * 100 + "p /\\ q" + ")" * 100, 102)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset
        assert "nested deeper than 100" in str(info.value)


def test_expand_independence_matches_definition():
    got = expand(parse("q * p"))
    want = Box(And(Implies(Cond(Atom("q"), Atom("p")), Atom("q")),
                   Implies(Atom("q"), Cond(Atom("q"), Atom("p")))))
    assert got == want


def test_expand_possibility():
    assert expand(parse("<>p")) == Not(Box(Not(Atom("p"))))


def test_expand_identity_on_core():
    f = parse("(q|p) -> ~p \\/ q")
    assert expand(f) == f


def test_box_free_examples():
    assert is_box_free(parse("(q|p)"))
    assert not is_box_free(parse("[]p"))
    # independence expands to a boxed formula
    assert not is_box_free(parse("p * q"))


_rng_seeds = st.integers(min_value=0, max_value=10_000)


@given(_rng_seeds)
def test_roundtrip_parse_print(seed):
    f = random_formula(random.Random(seed), ["p", "q", "r"], max_depth=5,
                       cond_budget=3, allow_modal=True)
    assert parse(to_text(f)) == f


@given(_rng_seeds)
def test_expand_idempotent(seed):
    f = random_formula(random.Random(seed), ["p", "q"], max_depth=5,
                       cond_budget=3, allow_modal=True)
    assert expand(expand(f)) == expand(f)


@given(_rng_seeds)
def test_expand_preserves_atoms(seed):
    f = random_formula(random.Random(seed), ["p", "q", "r"], max_depth=5,
                       cond_budget=3, allow_modal=True)
    assert atoms_of(expand(f)) == atoms_of(f)
