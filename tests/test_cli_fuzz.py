"""Fuzzing the command line: every input ends with exit 0, 1 or 2.

Exit 2 always comes with exactly one stderr line and never a traceback.
Resource caps are small, so each example finishes within a fixed time.
"""

import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dmbl.cli import COMMANDS, main
from dmbl.formula import to_text
from genformulas import random_formula

TOKENS = ["p", "q", "r", "T", "F", "~", "[]", "<>", "/\\", "\\/", "->", "<->",
          "*", "|", "(", ")", "(q|p)", "?"]
MINTERMS = ["p /\\ q", "p /\\ ~q", "~p /\\ q", "~p /\\ ~q"]
SECONDS = 5.0

# token soup, and well-formed formulas that reach the engine
formulas = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join),
    st.integers(0, 10**6).map(lambda seed: to_text(random_formula(
        random.Random(seed), ["p", "q"], max_depth=4, allow_modal=True))))
# measure keys: minterms, labels, any formula, and a conditional conjoined
# with a literal, which often denotes one world above the base
literals = st.sampled_from(["p", "~p", "q", "~q"])
measure_keys = st.one_of(
    st.sampled_from(MINTERMS + ["p", "a", "b"]), formulas,
    st.builds("({}|{}) /\\ {}".format, literals, literals,
              st.one_of(literals, st.sampled_from(MINTERMS))))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 10**6),
              st.floats(allow_nan=True, allow_infinity=True), formulas,
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def perturbed(fields):
    """Objects with some of ``fields`` drawn well-formed, and at most one
    key (perhaps an unknown one) given an arbitrary JSON value."""
    return st.builds(lambda good, bad: {**good, **bad},
                     st.fixed_dictionaries({}, optional=fields),
                     st.dictionaries(st.sampled_from([*fields, "extra"]), json_values,
                                     max_size=1))


configs = st.one_of(json_values, perturbed({
    "atoms": st.lists(st.sampled_from(["p", "q", "r"]), max_size=2, unique=True),
    "worlds": st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True),
    "measure": st.dictionaries(
        measure_keys,
        st.sampled_from(["1/4", "1/2", "0", "-1", "1/0", "x", 0.25,
                         float("inf"), float("nan")]),
        max_size=4),
    "schedule": st.sampled_from(["demand", "canonical"]),
    "max_levels": st.integers(1, 500),
    "max_worlds": st.integers(1, 500),
    "task_list": st.lists(st.one_of(formulas, st.lists(
        st.sampled_from(["a", "b", "z"]), max_size=2)), max_size=3),
    "output": st.sampled_from(["text", "json"]),
}))
proof_lines = st.one_of(json_values, perturbed({
    "formula": formulas,
    "rule": st.sampled_from(["c1", "c2", "mp", "nec", "b1", "b6", "x"]),
    "refs": st.lists(st.integers(-1, 4), max_size=2),
    "subst": st.dictionaries(st.sampled_from(["A", "B", "x"]), formulas, max_size=2),
}))
proofs = st.one_of(json_values, perturbed({
    "name": st.text(max_size=4),
    "logic": st.sampled_from(["DmBL", "DmBL*", "K"]),
    "target": formulas,
    "lines": st.lists(proof_lines, max_size=4),
}))


def json_file(path, documents):
    """A strategy writing one drawn document to ``path``; some are cut short."""
    def write(doc, roll):
        text = json.dumps(doc)
        path.write_text(text[:len(text) // 2] if roll == 3 else text)
        return str(path)
    return st.builds(write, documents, st.integers(0, 7))


@st.composite
def command_lines(draw, workdir):
    name, _, positionals, _ = draw(st.sampled_from(COMMANDS))
    argv = [name]
    for arg in positionals:
        if isinstance(arg, tuple) and draw(st.booleans()):
            continue
        argv.append(draw(json_file(workdir / "proof.json", proofs))
                    if arg == "file" else draw(formulas))
    # small caps first, so that drawn caps (smaller still) override them
    argv += ["--max-levels", "6", "--max-worlds", "2000"]
    flags = st.one_of(
        st.just(["--json"]),
        st.tuples(st.just("--schedule"), st.sampled_from(["demand", "canonical"])),
        st.tuples(st.just("--atoms"), st.sampled_from(["p,q", "q", "q,p", ",", "p q", "T"])),
        st.tuples(st.just("--max-levels"), st.sampled_from(["0", "1", "3"])),
        st.tuples(st.just("--max-worlds"), st.sampled_from(["1", "4", "40", "400"])),
        st.tuples(st.just("--config"), json_file(workdir / "engine.json", configs)),
    )
    if name == "dump-model":
        flags = st.one_of(flags, st.tuples(st.just("--step"), formulas))
    for flag in draw(st.lists(flags, max_size=3)):
        argv += list(flag)
    if draw(st.integers(0, 9)) == 5:   # a malformed command line
        argv += draw(st.sampled_from([["--max-levels", "x"], ["--schedule", "x"],
                                      ["--bogus"], ["--max-worlds"], ["p"], ["--step"]]))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def ends_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < SECONDS, argv
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.count("\n") == 1
        assert err.split(" error: ")[0] in ("usage", "parse", "config", "measure",
                                            "proof", "model", "io")
    else:
        assert err == ""


@settings(max_examples=300)
@given(data=st.data())
def test_every_command_line_ends_cleanly(workdir, data):
    ends_cleanly(data.draw(command_lines(workdir)))


@given(data=st.data())
def test_every_config_ends_cleanly(workdir, data):
    # the commands that read every config field, the measure included
    argv = data.draw(st.sampled_from([["prob", "p"], ["bayes", "p", "(q|p)"]]))
    ends_cleanly(argv + ["--config", data.draw(json_file(workdir / "engine.json", configs))])


@settings(max_examples=200)
@given(data=st.data())
def test_every_measure_key_ends_cleanly(workdir, data):
    # atom mode and well-formed weights, so that every drawn key is evaluated
    measure = data.draw(st.dictionaries(measure_keys, st.sampled_from(["1/4", "1/2", "0"]),
                                        min_size=1, max_size=4))
    path = workdir / "measure.json"
    path.write_text(json.dumps({"measure": measure}))
    ends_cleanly(["prob", "p", "--config", str(path)])
