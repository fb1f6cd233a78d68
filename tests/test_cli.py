import hashlib
import json
import sys
import time

import pytest

from dmbl import __version__, cli
from dmbl.cli import MAX_EXPANSION, build_parser, main
from dmbl.formula import expanded_size, parse
from dmbl.model import default_task_list
from dmbl.proofs import corpus_dir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "p * (q|p)")
    assert code == 0
    assert "expanded:" in out


def test_parse_prints_an_expansion_at_the_bound(capsys):
    # 15 chained operands expand to 98299 nodes, 16 to 196603
    text = " <-> ".join(["p"] * 15)
    assert expanded_size(parse(text)) <= MAX_EXPANSION
    code, out, err = run(capsys, "parse", text)
    assert code == 0 and err == "" and "expanded:" in out


@pytest.mark.parametrize("text", [" <-> ".join(["p"] * 16), " * ".join(["p"] * 20)],
                         ids=["16-iff", "20-indep"])
def test_parse_refuses_an_expansion_past_the_bound(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "parse", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: expansion too large") and err.count("\n") == 1


@pytest.mark.parametrize("text", [" <-> ".join(["(q|p)"] * 40), " * ".join(["p", "q"] * 6)],
                         ids=["40-iff", "12-indep"])
def test_decide_long_derived_chains_promptly(capsys, text):
    start = time.perf_counter()
    code, _, err = run(capsys, "decide", text)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1) and err == ""


def test_parse_error_exit_code_and_prefix(capsys):
    code, _, err = run(capsys, "parse", "p /\\ (")
    assert code == 2
    assert err.startswith("parse error:")


def test_memory_error_is_one_line(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "prob", exhausted)
    code, out, err = run(capsys, "prob", "(q|p)")
    assert code == 2 and out == ""
    assert err.startswith("memory error: ") and err.count("\n") == 1


def test_dump_model_text_is_its_json(capsys):
    argv = ("dump-model", "--step", "(q|p)")
    assert run(capsys, *argv) == run(capsys, *argv, "--json")


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


def test_cap_error_names_the_width_ladder(capsys):
    # a fifth fresh conditional on the depth-4 p,q chain
    code, _, err = run(capsys, "decide",
                       "((((((q|p)|q)|p /\\ q)|p \\/ q)|p <-> q) -> p)")
    assert code == 2
    assert err == ("model error: level too wide: "
                   "4 → 8 → 32 → 384 → 40960 → 536870912 > cap 200000\n")


def test_base_level_is_capped(capsys):
    code, _, err = run(capsys, "decide", "p", "--atoms", "a,b,c,d,p",
                       "--max-worlds", "10")
    assert code == 2
    assert err == "model error: level too wide: 32 > cap 10\n"


@pytest.mark.parametrize("argv", [
    ["decide", "p", "--max-levels", "x"],
    ["decide", "p", "--schedule", "fifo"],
    ["decide"],
    ["frobnicate", "p"],
    [],
])
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: dmbl") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    if flag == "--help":
        assert out.out.startswith("usage: dmbl")
    else:
        assert out.out == f"{__version__}\n"


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


def test_lewis_demo_three_atoms(capsys):
    code, out, err = run(capsys, "lewis-demo", "--atoms", "a,b,c")
    assert code == 0 and err == ""
    assert "all 5796 strict pairs escape" in out


def test_lewis_demo_pair_count_is_capped(capsys):
    # 16 base worlds give 3^16 - 3 * 2^16 + 3 strict pairs, far past the cap
    start = time.perf_counter()
    code, out, err = run(capsys, "lewis-demo", "--atoms", "a,b,c,d")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("model error: lewis-demo") and len(err.splitlines()) == 1
    assert "42850116 pairs > cap 200000" in err
    code, _, err = run(capsys, "lewis-demo", "--atoms", "a,b,c", "--max-worlds", "5795")
    assert code == 2 and "5796 pairs > cap 5795" in err
    # 16384 base worlds: the count has more digits than str() converts
    code, out, err = run(capsys, "lewis-demo", "--atoms", "a,b,c,d,e,f,g,h,i,j,k,l,m,n")
    assert code == 2 and out == ""
    assert err == ("model error: lewis-demo would build one model per strict pair: "
                   "3^16384 - 3 * 2^16384 + 3 pairs > cap 200000\n")


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


# nested past json.load's depth limit under any recursion limit (1000 is on 3.11)
NESTED = "[" * 100_000 + "]" * 100_000


def test_nested_proof_script_is_proof_error(tmp_path, capsys):
    path = tmp_path / "proof.json"
    path.write_text(NESTED)
    code, out, err = run(capsys, "check-proof", str(path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"proof error: cannot read proof script {path}: ")


def test_dump_model_with_steps(capsys):
    code, out, _ = run(capsys, "dump-model", "--step", "p", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["levels"]) == 2
    assert data["history"][0]["case"] == 1


@pytest.mark.parametrize("first, second", [
    (["dump-model", "--step", "p", "--json"], ["dump-model", "--json"]),
    (["b6-diag", "p", "q", "(q|p)", "--json"], ["b6-diag", "p", "q", "--json"]),
], ids=["dump-model", "b6-diag"])
def test_a_call_leaves_no_state_for_the_next(capsys, first, second):
    alone = run(capsys, *second)
    run(capsys, *first)
    assert run(capsys, *second) == alone
    data = json.loads(alone[1])
    assert data.get("history", []) == [] and "eta" not in data


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_fixtures_golden(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "golden scenario: PASS" in out


def test_json_reports_are_byte_identical(capsys):
    a = run(capsys, "decide", "((q|p)) * p", "--json")
    b = run(capsys, "decide", "((q|p)) * p", "--json")
    assert a == b


# sha256 of the stdout of each report; any change to a report's bytes shows here
DEEP = "((((q|p)|q)|p /\\ q)|p \\/ q)"    # builds the ladder 4, 8, 32, 384, 40960
GOLDEN_REPORTS = [
    pytest.param(["eval", DEEP, "--json"],
                 "5f66ffcf600a0a2ec12c9166a771950f81c41793e068fd7aa208f5b7ba25cb49",
                 id="eval"),
    pytest.param(["dump-model", "--step", "p", "--step", "(q|p)", "--json"],
                 "cdb9534f0e75cb7e60eb3eacd79815d99e561eccd6c0b22e17f6d0b78a127ac2",
                 id="dump-model"),
    pytest.param(["b6-diag", "p", "q", "(q|p)", "--json"],
                 "1ade024a1bf2193770d7ec3887cacfbf8eda3bc9c11469276c0db3badc478c0a",
                 id="b6-diag"),
    pytest.param(["decide", "((q|p)) * p", "--json"],
                 "6615dfae7fd78f75250e5dd5a2d0506961f56ea39d3003ffb53073e42cea44ea",
                 id="decide"),
    pytest.param(["bayes", "(q|p)", "(p|q)", "--json"],
                 "bf67066cf846e1ded865dcf5053f9cd3f269609041a9634c40fa1fe09297e866",
                 id="bayes"),
    pytest.param(["b6-diag", "T", "T", "(q|q)", "--json"],
                 "520a9bb7b2004f6f98ee9161f3ca5bb53f2377e2894461535a90e033e68e89b6",
                 id="b6-diag-qq"),
    # both nesting values list all 40960 top-level worlds: one run each
    pytest.param(["b6-diag", "T", "T", DEEP, "--json"],
                 "589f53cf9eca8af3bf7682b319bc9e054385b08f4f1e0d29fc7c84f045ab3f8b",
                 id="b6-diag-full-top"),
    # 24576 of the 40960 top-level worlds each, in three runs
    pytest.param(["b6-diag", "T", "T", DEEP + " /\\ (q|p)", "--json"],
                 "0019732522b20fb7620e33190a57a6cdeb013b1be07fb6adcd02f261ecd38883",
                 id="b6-diag-three-runs"),
    # both nesting values are empty at the 40960-world top
    pytest.param(["b6-diag", "T", "T", "F /\\ " + DEEP, "--json"],
                 "e04a030260bb6a1014cb348d5abd8f52bf95ad5dbef8b848a8cc589b42bc5c1f",
                 id="b6-diag-empty-top"),
    # 10240 of the 40960 top-level worlds each, in 50 runs
    pytest.param(["b6-diag", "T", "T", "(((q|p)|~q)|p /\\ q) /\\ " + DEEP, "--json"],
                 "76acbe971d7376f6b6e887b5ab6e3cde2b2cc6211a271c942eee866a0dab290c",
                 id="b6-diag-fifty-runs"),
    # probabilities weigh values at their own level: phi sits below the top
    pytest.param(["bayes", "((q|p)|q)", "p", "--json"],
                 "6b539052963f104e5cda77bac56e8ac3d794f4801f2cf52001b8985782328fe6",
                 id="bayes-nested"),
    pytest.param(["prob", "p /\\ q", "--json"],
                 "627cb6be4120cd1df2cd9bba27d31daadf73b628e2b6daa48fa222fff61418d8",
                 id="prob-level-0"),
    # a conditional at the top over 40960 worlds, weighed from its two runs
    pytest.param(["prob", DEEP, "--json"],
                 "a628bf5b66a317f53775c2bda7e37b06acfa7e04d36b2726aa6c0a76d396f13b",
                 id="prob-deep"),
    pytest.param(["bayes", "p \\/ q", "((((q|p)|q)|p /\\ q) /\\ ~(q|p))", "--json"],
                 "d1bb37be4546960d8da9aac8419f9e70fbabb7b4a2d37585515163b428a2df87",
                 id="bayes-deep"),
    # the last step is case 0 with four blocks (ladder 4, 8, 32, 128); its
    # pairs come off the per-world tables built on the dump's first read
    pytest.param(["dump-model", "--step", "p", "--step", "q", "--step", "p", "--json"],
                 "f1b8f46131763b32fbe61a4cd12d1c3d7b734607cf3ce72cccd9984e2a1e80b4",
                 id="dump-model-case-zero"),
    # the canonical schedule, stepping through the default task list
    pytest.param(["eval", "(q|p)", "--schedule", "canonical", "--json"],
                 "8ec69ea0db907acd31104c7c60f631027f49efe4eafa1328e478c6ef8cea782e",
                 id="eval-canonical"),
    pytest.param(["decide", "((~q)|p) <-> ~(q|p)", "--schedule", "canonical", "--json"],
                 "9f063ce454e1420d35eb7091ee8c9ed60bd59531a0146f3f5e7bd9c3da79f2ea",
                 id="decide-canonical"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS)
def test_reports_match_their_golden_hashes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_nested_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "engine.json"
    cfg.write_text('{"task_list": ' + NESTED + "}")
    code, out, err = run(capsys, "prob", "p", "--config", str(cfg))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot read config {cfg}: ")


# both ~p worlds weigh zero, so P(p) = 1 and conditionals on p or ~p are limits
ZERO_WEIGHT_MEASURE = {"~p /\\ ~q": "0", "~p /\\ q": "0",
                       "p /\\ ~q": "3/4", "p /\\ q": "1/4"}
LIMIT_NOTE = ("note: the base measure has zero weights; probabilities are "
              "limits under a vanishing uniform perturbation")


@pytest.mark.parametrize("text, want", [("(q|p)", "1/4 = 0.25"), ("(q|~p)", "1/2 = 0.5")])
def test_prob_with_a_zero_weight_base_is_the_limit(tmp_path, capsys, text, want):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"measure": ZERO_WEIGHT_MEASURE}))
    code, out, err = run(capsys, "prob", text, "--config", str(cfg))
    assert code == 0 and err == ""
    assert out == f"{LIMIT_NOTE}\nP({text.replace('|', ' | ')}) = {want}\n"
    code, out, err = run(capsys, "prob", text, "--config", str(cfg), "--json")
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["rational"] == want.split()[0] and report["limit"] is True


def test_bayes_with_a_zero_weight_base_is_the_limit(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"measure": ZERO_WEIGHT_MEASURE}))
    code, out, err = run(capsys, "bayes", "p", "q", "--config", str(cfg))
    assert code == 0 and err == ""
    assert out.splitlines() == [LIMIT_NOTE, "P((q|p)) * P(p) = 1/4", "P(p /\\ q) = 1/4",
                                "equal"]
    code, out, err = run(capsys, "bayes", "p", "q", "--config", str(cfg), "--json")
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["equal"] is True and report["limit"] is True
    assert report["lhs"]["rational"] == report["rhs"]["rational"] == "1/4"


def test_positive_base_text_reports_carry_no_note(capsys):
    # the --json reports are pinned by GOLDEN_REPORTS
    assert run(capsys, "prob", "(q|p)")[1] == "P((q | p)) = 1/2 = 0.5\n"
    assert run(capsys, "bayes", "p", "q")[1] == \
        "P((q|p)) * P(p) = 1/4\nP(p /\\ q) = 1/4\nequal\n"


def test_config_bad_measure(tmp_path, capsys):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({
        "atoms": ["p", "q"],
        "measure": {"p /\\ q": "1/2", "p /\\ ~q": "1/2"},
    }))
    code, _, err = run(capsys, "prob", "p", "--config", str(cfg))
    assert code == 2 and err.startswith("config error:")


@pytest.mark.parametrize("argv", [["prob", "p"], ["bayes", "p", "q"]])
def test_measure_key_above_the_base_is_config_error(tmp_path, capsys, argv):
    # the conditional steps the model, so the key's value is no base world
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({"measure": {
        "(p|q) /\\ ~p": "1/4", "p /\\ ~q": "1/4", "~p /\\ q": "1/4", "~p /\\ ~q": "1/4"}}))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error: measure key") and len(err.splitlines()) == 1
    assert "is not a base-level set (its value is at level 1)" in err


@pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan")])
def test_config_non_finite_weight_is_config_error(tmp_path, capsys, weight):
    # json reads Infinity and NaN, which Fraction rejects with OverflowError/ValueError
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({"measure": {"p /\\ q": weight}}))
    code, out, err = run(capsys, "prob", "p", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error: bad rational") and len(err.splitlines()) == 1


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
    {"worlds": ["a", "b"], "measure": {"a": True, "b": 0}},
    {"worlds": ["a", "b", "c"], "measure": {"a": 0.1, "b": 0.2, "c": 0.7}},
], ids=["str-cap", "str-atoms", "int-atom", "bool-cap", "int-schedule",
        "null-output", "unknown-output", "list-measure", "str-task-list", "top-level-list",
        "bool-measure-value", "float-measure-values"])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, data):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "decide", "p", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


_MINTERMS = ["p /\\ q", "p /\\ ~q", "~p /\\ q", "~p /\\ ~q"]


@pytest.mark.parametrize("data,key", [
    ({"worlds": ["a", "b"], "measure": {"a": "1e3000000", "b": "0"}}, "a"),
    ({"worlds": ["a", "b"], "measure": {"a": "1", "b": "1E-3_000_000"}}, "b"),
    ({"measure": dict(zip(_MINTERMS, ["1e3000000", "0", "0", "0"]))}, _MINTERMS[0]),
    ({"measure": dict(zip(_MINTERMS, ["0", "0", "1", "1e-3000000"]))}, _MINTERMS[3]),
], ids=["worlds-large", "worlds-small", "atoms-large", "atoms-small"])
def test_config_measure_exponent_beyond_digit_bound_is_config_error(tmp_path, capsys,
                                                                    data, key):
    # Fraction would expand the power of ten exactly before any check
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "prob", "T", "--config", str(cfg))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("config error: bad rational") and len(err.splitlines()) == 1
    assert repr(key) in err and "exponent" in err


@pytest.mark.parametrize("argv", [["prob", "((q|p)|q)"], ["bayes", "((q|p)|q)", "p"]],
                         ids=["prob", "bayes"])
@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_exact_result_past_the_digit_limit_is_measure_error(tmp_path, capsys, argv, output):
    # a 3001-digit denominator passes the config's bounds; the result's
    # terms grow past the digits that str() converts
    big = 10 ** 3000 + 7
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({"measure": {
        "p /\\ q": f"1/{big}", "p /\\ ~q": "1/3", "~p /\\ q": "1/3",
        "~p /\\ ~q": f"{big - 3}/{3 * big}"}}))
    code, out, err = run(capsys, *argv, "--config", str(cfg), *output)
    assert code == 2 and out == ""
    assert err == ("measure error: exact result has a term of more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("data", [
    {"worlds": ["a", "b"], "measure": {"a": "1e-1", "b": "9e-1"}},
    {"measure": dict(zip(_MINTERMS, ["1e-1", "2E-1", "3e-0_1", "0.04e1"]))},
], ids=["worlds", "atoms"])
def test_config_measure_with_exact_exponents_is_accepted(tmp_path, capsys, data):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "prob", "T", "--config", str(cfg))
    assert code == 0 and err == ""
    assert out.endswith("= 1 = 1.0\n")


@pytest.mark.parametrize("schedule", ["demand", "canonical"])
@pytest.mark.parametrize("caps,reason", [
    ([], "is not a base-level set (its value is at level 4)"),
    (["--max-worlds", "10", "--max-levels", "1"], "level cap 1 reached"),
], ids=["default-caps", "small-caps"])
def test_task_list_formula_above_the_base_is_config_error(tmp_path, capsys, schedule,
                                                          caps, reason):
    # the probe that evaluates the entry obeys the configured caps
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({"task_list": ["((((q|p)|q)|p /\\ q)|p \\/ q)", "p"]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "decide", "p", "--config", str(cfg),
                         "--schedule", schedule, *caps)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("config error: task list entry") and len(err.splitlines()) == 1
    assert reason in err


def test_task_list_base_formulas_match_world_labels(tmp_path, capsys):
    # worlds ~p~q, ~pq, p~q, pq: "p" is 0b1100 and "~p" is 0b0011
    labels = ["~p /\\ ~q", "~p /\\ q", "p /\\ ~q", "p /\\ q"]
    by_labels = [[labels[i] for i in range(4) if m >> i & 1]
                 for m in default_task_list(4)]
    by_formulas = [{0b1100: "p", 0b0011: "~p"}.get(m, e)
                   for m, e in zip(default_task_list(4), by_labels)]
    reports = []
    for name, task_list in (("labels", by_labels), ("formulas", by_formulas)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"task_list": task_list, "schedule": "canonical"}))
        code, out, err = run(capsys, "eval", "(q|p)", "--config", str(cfg), "--json")
        assert code == 0 and err == ""
        reports.append(out)
    assert reports[0] == reports[1]


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
