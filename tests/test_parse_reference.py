"""The one-scan parser against the per-token reference parser: same tree,
same error type, message, offset and expected tokens, for every input."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dmbl.formula import MAX_DEPTH, FormulaError, ParseError, parse, to_text
from genformulas import random_formula
from refparser import reference_parse

ATOMS = ("p", "q", "r")
# inserted into well-formed text: a bad character, a half connective, a tab,
# and every token
INSERTS = ["é", "#", "<-", "\t", "-", "<", "[", "/", "\\", " ", "~", "[]", "<>",
           "/\\", "\\/", "->", "<->", "*", "|", "(", ")", "T", "F", "p", "s", "p2"]
PREFIXES = ["~", "[]", "<>", "(", " "]
BINARY = [" /\\ ", " \\/ ", " -> ", " <-> ", " * ", "|", "/\\", "->"]


def _outcome(fn, text, atoms):
    try:
        return ("tree", fn(text, atoms))
    except FormulaError as exc:
        return (type(exc).__name__, str(exc), exc.offset, getattr(exc, "expected", None))


def _same(text):
    for atoms in (None, ("p", "q")):
        assert _outcome(parse, text, atoms) == _outcome(reference_parse, text, atoms), text


def _formula_text(seed):
    rng = random.Random(seed)
    f = random_formula(rng, list(ATOMS), max_depth=rng.randint(1, 6),
                       cond_budget=rng.randint(0, 3), allow_modal=True)
    return to_text(f)


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_generated_formulas_parse_alike(seed):
    text = _formula_text(seed)
    _same(text)
    # the printer's spacing is not the only one the scan must split
    _same(text.replace(" ", ""))
    _same(text.replace(" ", "\n  "))
    _same("\u00a0\t" + text + " \n")


@settings(max_examples=300)
@given(st.integers(0, 10**6), st.floats(0, 1))
def test_truncations_fail_alike(seed, cut):
    text = _formula_text(seed)
    _same(text[:int(cut * len(text))])


@settings(max_examples=400)
@given(st.integers(0, 10**6), st.floats(0, 1), st.sampled_from(INSERTS))
def test_insertions_fail_alike(seed, at, insert):
    text = _formula_text(seed)
    k = int(at * len(text))
    _same(text[:k] + insert + text[k:])


@settings(max_examples=300)
@given(st.lists(st.sampled_from(PREFIXES), max_size=MAX_DEPTH + 20),
       st.lists(st.sampled_from(BINARY), max_size=MAX_DEPTH + 20),
       st.integers(0, MAX_DEPTH + 20), st.sampled_from(["", ")", "#", " q"]))
def test_operator_chains_across_the_depth_limit_alike(prefixes, ops, closing, tail):
    chain = "p" + "".join(op + "q" for op in ops)
    _same("".join(prefixes) + chain + ")" * closing + tail)
    _same("".join(prefixes) + "(" + chain + "|p)" + ")" * closing)


def test_depth_limit_edges_alike():
    for n in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 3000):
        for text in ("~" * n + "p", "(" * n + "p" + ")" * n, "[]" * n + "p",
                     " -> ".join(["p"] * n), "(" * n + "p /\\ q" + ")" * n):
            _same(text)


@pytest.mark.parametrize("text", ["a" * 20_000 + "#", " " * 20_000 + "#"])
def test_long_runs_are_rejected_fast(text):
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse(text)
    assert time.perf_counter() - start < 0.5
    assert info.value.offset == 20_000
    assert "unexpected character '#'" in str(info.value)
