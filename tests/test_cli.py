import json

import pytest

from dmbl.cli import main
from dmbl.proofs import corpus_dir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "p * (q|p)")
    assert code == 0
    assert "expanded:" in out


def test_parse_error_exit_code_and_prefix(capsys):
    code, _, err = run(capsys, "parse", "p /\\ (")
    assert code == 2
    assert err.startswith("parse error:")


def test_unknown_atom_is_parse_error(capsys):
    code, _, err = run(capsys, "decide", "r -> r")
    assert code == 2
    assert err.startswith("parse error:")


def test_decide_theorem_and_refutation(capsys):
    code, out, _ = run(capsys, "decide", "((q|p) /\\ p) <-> (p /\\ q)")
    assert code == 0 and "theorem" in out
    code, out, _ = run(capsys, "decide", "(q|p) -> q")
    assert code == 1 and "not-a-theorem" in out


def test_decide_modal_caveat(capsys):
    code, out, _ = run(capsys, "decide", "[]p -> p")
    assert code == 0
    assert "model-valid" in out and "note:" in out


def test_decide_canonical_schedule(capsys):
    code, out, _ = run(capsys, "decide", "((~q)|p) <-> ~(q|p)",
                       "--schedule", "canonical")
    assert code == 0


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "(q|p)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cardinality"] == 4 and data["level"] == 1


def test_indep_exit_codes(capsys):
    assert run(capsys, "indep", "p", "(q|p)")[0] == 0
    assert run(capsys, "indep", "p", "q")[0] == 1


def test_prob_and_bayes(capsys):
    code, out, _ = run(capsys, "prob", "(q|p)")
    assert code == 0 and "1/2" in out
    code, out, _ = run(capsys, "bayes", "p", "q")
    assert code == 0 and "equal" in out


def test_cap_exceeded_is_model_error(capsys):
    code, _, err = run(capsys, "decide", "(q|p) -> q", "--max-worlds", "4")
    assert code == 2
    assert err.startswith("model error:")


@pytest.mark.parametrize("flag", ["--max-levels", "--max-worlds"])
def test_zero_resource_cap_is_config_error(capsys, flag):
    code, _, err = run(capsys, "decide", "p", flag, "0")
    assert code == 2 and err.startswith("config error:")


def test_canonical_unreachable_event_caps_cleanly(capsys):
    # a conditional-valued event never enters the task list at this scale;
    # the cursor advances until a resource cap reports the failure
    code, _, err = run(capsys, "decide", "((p /\\ q)|(q|p))",
                       "--schedule", "canonical", "--max-worlds", "500")
    assert code == 2
    assert err.startswith("model error:")


def test_lewis_demo(capsys):
    code, out, _ = run(capsys, "lewis-demo")
    assert code == 0
    assert "all 36 strict pairs escape" in out


def test_b6_diag(capsys):
    code, out, _ = run(capsys, "b6-diag", "p", "(q|p)")
    assert code == 0 and "symmetric" in out
    code, out, _ = run(capsys, "b6-diag", "p", "q", "p \\/ q", "--json")
    assert code == 0
    data = json.loads(out)
    assert "nesting_equal" in data


def test_check_proof_corpus_file(capsys):
    path = str(corpus_dir() / "04_inference_property.json")
    code, out, _ = run(capsys, "check-proof", path)
    assert code == 0 and "accepted" in out


def test_check_proof_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "logic": "DmBL*", "target": "p",
        "lines": [{"formula": "p", "rule": "c1"}],
    }))
    code, out, _ = run(capsys, "check-proof", str(bad))
    assert code == 1 and "REJECTED" in out


PROOF_TRUNCATED = '{"name": "cut", "target": "p", "lines": [{"formula": "p"'
PROOF_NO_LINES = json.dumps({"name": "no-lines", "target": "p"})
PROOF_BAD_REFS = json.dumps({"name": "bad-refs", "target": "[]T", "lines": [
    {"formula": "T", "rule": "c1"},
    {"formula": "[]T", "rule": "nec", "refs": ["x"]}]})


@pytest.mark.parametrize("text", [PROOF_TRUNCATED, PROOF_NO_LINES,
                                  PROOF_BAD_REFS],
                         ids=["truncated", "no-lines", "bad-refs"])
def test_malformed_proof_script_is_proof_error(tmp_path, capsys, text):
    path = tmp_path / "proof.json"
    path.write_text(text)
    code, out, err = run(capsys, "check-proof", str(path))
    assert code == 2 and out == ""
    assert err.startswith("proof error:") and len(err.splitlines()) == 1


def test_dump_model_with_steps(capsys):
    code, out, _ = run(capsys, "dump-model", "--step", "p", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["levels"]) == 2
    assert data["history"][0]["case"] == 1


def test_fixtures_golden(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "golden scenario: PASS" in out


def test_json_reports_are_byte_identical(capsys):
    a = run(capsys, "decide", "((q|p)) * p", "--json")
    b = run(capsys, "decide", "((q|p)) * p", "--json")
    assert a == b


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({
        "atoms": ["p", "q"],
        "measure": {"p /\\ q": "2/5", "p /\\ ~q": "3/10",
                    "~p /\\ q": "1/5", "~p /\\ ~q": "1/10"},
    }))
    code, out, _ = run(capsys, "prob", "p", "--config", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["rational"] == "7/10"


def test_config_bad_measure(tmp_path, capsys):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({
        "atoms": ["p", "q"],
        "measure": {"p /\\ q": "1/2", "p /\\ ~q": "1/2"},
    }))
    code, _, err = run(capsys, "prob", "p", "--config", str(cfg))
    assert code == 2 and err.startswith("config error:")


def test_explicit_world_config(tmp_path, capsys):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({
        "worlds": ["a", "b", "c"],
        "measure": {"a": "1/5", "b": "3/10", "c": "1/2"},
    }))
    code, out, _ = run(capsys, "dump-model", "--config", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["base"]["worlds"] == ["a", "b", "c"]

@pytest.mark.parametrize("data", [
    {"max_levels": "3"},
    {"atoms": "pq"},
    {"atoms": ["p", 1]},
    {"max_worlds": True},
    {"schedule": 1},
    {"output": None},
    {"output": "xml"},
    {"measure": ["p"]},
    {"task_list": "p"},
    ["atoms", "p"],
], ids=["str-cap", "str-atoms", "int-atom", "bool-cap", "int-schedule",
        "null-output", "unknown-output", "list-measure", "str-task-list", "top-level-list"])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, data):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "decide", "p", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "engine.json"
    cfg.write_bytes(b'{"atoms": ["\xff"]}')
    code, out, err = run(capsys, "decide", "p", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["parse", "~" * 3000 + "p"],
    ["decide", "(" * 600 + "p" + ")" * 600],
    ["decide", " -> ".join(["p"] * 1000)],
], ids=["3000-negations", "600-parentheses", "1000-implications"])
def test_deep_nesting_is_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", ["(" * 100 + "p" + ")" * 100, "~" * 100 + "p"],
                         ids=["100-parentheses", "100-negations"])
def test_nesting_at_the_limit_parses_and_decides(capsys, text):
    assert run(capsys, "parse", text)[0] == 0
    code, out, _ = run(capsys, "decide", text)
    assert code == 1 and "not-a-theorem" in out


@pytest.mark.parametrize("atoms", [["p q"], ["p", "T"], ["F"], ["1p"], [""]])
def test_config_atom_not_an_identifier_is_config_error(tmp_path, capsys, atoms):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({"atoms": atoms}))
    code, out, err = run(capsys, "prob", "p", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["p q,r", "p,T"])
def test_atoms_flag_not_an_identifier_is_config_error(capsys, flag):
    code, out, err = run(capsys, "prob", "p", "--atoms", flag)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1
