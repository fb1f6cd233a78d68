"""The command line's own JSON writer and command dispatch against the
standard library's: ``json.dumps(report, indent=2)`` and
``build_parser().parse_args(argv)`` give the same bytes and outcomes."""

import json
import shutil

import pytest
from hypothesis import example, given, strategies as st

from dmbl import cli
from dmbl.cli import build_parser, main
from dmbl.proofs import corpus_dir

# strings with non-ASCII, control characters, quotes and backslashes
texts = st.one_of(st.text(max_size=8),
                  st.text(alphabet='"\\\x00\x1f\x7fé \ud800\U0001f600a/',
                          max_size=8))
leaves = st.one_of(
    st.none(), st.booleans(), texts,
    st.integers(-(2 ** 64), -(2 ** 63) - 1) | st.integers(2 ** 64, 2 ** 200),
    st.integers(), st.floats(allow_nan=True, allow_infinity=True))
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=20)


@given(documents)
@example({})
@example([])
@example({"a": {}, "": [[], {}]})
def test_writer_equals_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


# Fixed ids: ``repr`` of ``object()`` holds its address, which changes per run.
@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, {"a": object()}, [b"x"]],
                         ids=["(1, 2)", "{1: 'a'}", "{'a': object()}", "[b'x']"])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def _outcome(capsys, argv):
    """Exit code (or ``SystemExit`` code), stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def proof_path(tmp_path):
    """A corpus script copied to a path with a non-ASCII character."""
    path = tmp_path / "dérivation.json"
    shutil.copy(corpus_dir() / "02_full_universe_independence.json", path)
    return str(path)


EVERY_COMMAND = [
    ["parse", "p * (q|p)"],
    ["decide", "((q|p)) * p"],
    ["eval", "(q|p)"],
    ["indep", "p", "q"],
    ["prob", "(q|p)"],
    ["bayes", "((q|p)|q)", "p"],
    ["lewis-demo"],
    ["b6-diag", "p", "q", "(q|p)"],
    ["check-proof", "PROOF"],
    ["dump-model", "--step", "p", "--step", "(q|p)"],
    ["fixtures"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_every_json_report_has_json_dumps_bytes(capsys, proof_path, argv):
    argv = [proof_path if a == "PROOF" else a for a in argv] + ["--json"]
    code, out, err = _outcome(capsys, argv)
    assert code in (0, 1) and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if argv[0] == "check-proof":
        assert "d\\u00e9rivation.json" in out


DISPATCH = [
    # a valid call of each command
    *([*argv, "--json"] for argv in EVERY_COMMAND),
    ["b6-diag", "p", "q"],
    ["dump-model"],
    # missing, extra and unknown arguments
    ["prob"], ["indep", "p"], ["check-proof"],
    ["prob", "p", "extra"], ["fixtures", "x"], ["b6-diag", "p", "q", "r", "s"],
    ["prob", "p", "--frob"], ["decide", "p", "--frob=1"], ["prob", "p", "--version"],
    ["dump-model", "--step"],
    # abbreviated flags, a bad int and a bad choice
    ["prob", "p", "--max-w", "5"], ["prob", "p", "--jso"], ["prob", "p", "--max", "5"],
    ["prob", "p", "--max-worlds", "x"], ["prob", "p", "--schedule", "x"],
    ["prob", "p", "--schedule=canonical"],
    # separators and option-like operands
    ["prob", "--", "p"], ["prob", "p", "--", "q"], ["parse", "--", "-p"],
    # help, version and the top level's own paths
    ["prob", "-h"], ["--version"], ["-h"], [], ["frobnicate", "p"], ["--json", "prob", "p"],
    ["--vers"],
]


@pytest.mark.parametrize("argv", DISPATCH, ids=" ".join)
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, proof_path, argv):
    argv = [proof_path if a == "PROOF" else a for a in argv]
    direct = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda a: build_parser().parse_args(a))
    assert direct == _outcome(capsys, argv)


def test_dispatch_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["dmbl", "prob", "p", "extra"])
    code, out, err = _outcome(capsys, None)
    assert code == 2 and out == ""
    assert err == "usage error: dmbl: unrecognized arguments: extra\n"


def test_dispatch_sets_the_command():
    direct = cli._parse_args(["prob", "p", "--json"])
    assert direct == build_parser().parse_args(["prob", "p", "--json"])
    assert direct.command == "prob"
