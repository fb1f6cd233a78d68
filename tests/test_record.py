"""The value records behave as the frozen dataclasses they replace did."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import dmbl
from dmbl.config import ConfigError, EngineConfig
from dmbl.evaluator import B6Report, Decision, Valuation
from dmbl.formula import (And, Atom, Bot, Box, Cond, Diamond, Formula, Iff, Implies,
                          Indep, Not, Or, Top, parse)
from dmbl.model import ProcessedEvent
from dmbl.probability import BaseMeasure, BayesResult, MeasureError
from dmbl.proofs import CrossReport, Derivation, Line, Verdict
from dmbl.worlds import Level, PropSet

P, Q = Atom("p"), Atom("q")
NODES = (Top, Bot, Atom, Not, And, Or, Implies, Iff, Box, Diamond, Cond, Indep)

# (class, its fields in constructor order with a value each, the repr the
# dataclasses gave that record)
RECORDS = [
    (Formula, {}, "Formula()"),
    (Top, {}, "Top()"),
    (Bot, {}, "Bot()"),
    (Atom, {"name": "p"}, "Atom(name='p')"),
    (Not, {"body": P}, "Not(body=Atom(name='p'))"),
    (And, {"left": P, "right": Q}, "And(left=Atom(name='p'), right=Atom(name='q'))"),
    (Or, {"left": P, "right": Q}, "Or(left=Atom(name='p'), right=Atom(name='q'))"),
    (Implies, {"left": P, "right": Q},
     "Implies(left=Atom(name='p'), right=Atom(name='q'))"),
    (Iff, {"left": P, "right": Q}, "Iff(left=Atom(name='p'), right=Atom(name='q'))"),
    (Box, {"body": P}, "Box(body=Atom(name='p'))"),
    (Diamond, {"body": P}, "Diamond(body=Atom(name='p'))"),
    (Cond, {"cons": Q, "ante": P}, "Cond(cons=Atom(name='q'), ante=Atom(name='p'))"),
    (Indep, {"lhs": P, "rhs": Q}, "Indep(lhs=Atom(name='p'), rhs=Atom(name='q'))"),
    (PropSet, {"level": 0, "mask": 5, "width": 4}, "PropSet(level=0, mask=5, width=4)"),
    (Level, {"index": 1, "width": 8, "split": 4, "prev_width": 4,
             "blocks": [([0, 1], [2, 3])], "masks": [(3, 12)]},
     "Level(index=1, width=8, split=4, prev_width=4, blocks=[([0, 1], [2, 3])], "
     "masks=[(3, 12)])"),
    (ProcessedEvent, {"step": 0, "level": 0, "event": 3, "case": 1, "nu": None,
                      "blocks": ((3, 12),), "lowest": (0, 3)},
     "ProcessedEvent(step=0, level=0, event=3, case=1, nu=None, blocks=((3, 12),), "
     "lowest=(0, 3))"),
    (Valuation, {"formula": P, "value": PropSet(0, 5, 4), "level": 0},
     "Valuation(formula=Atom(name='p'), value=PropSet(level=0, mask=5, width=4), "
     "level=0)"),
    (Decision, {"formula": P, "valid": False, "box_free": True},
     "Decision(formula=Atom(name='p'), valid=False, box_free=True)"),
    (B6Report, {"forward": True, "backward": True, "star_left": "1,2",
                "star_right": "1,2", "star_equal": True},
     "B6Report(forward=True, backward=True, star_left='1,2', star_right='1,2', "
     "star_equal=True)"),
    (BaseMeasure, {"weights": (Fraction(1, 2), Fraction(1, 2))},
     "BaseMeasure(weights=(Fraction(1, 2), Fraction(1, 2)))"),
    (Line, {"formula": P, "rule": "c2", "refs": (1, 2), "subst": {"phi": P}},
     "Line(formula=Atom(name='p'), rule='c2', refs=(1, 2), subst={'phi': Atom(name='p')})"),
    (Derivation, {"logic": "DmBL", "lines": (), "target": P, "name": "x"},
     "Derivation(logic='DmBL', lines=(), target=Atom(name='p'), name='x')"),
    (Verdict, {"ok": False, "line": 3, "reason": "why"},
     "Verdict(ok=False, line=3, reason='why')"),
    (CrossReport, {"name": "n", "accepted": True, "model_valid": None},
     "CrossReport(name='n', accepted=True, model_valid=None)"),
    (EngineConfig, {"atoms": ["a"], "worlds": None, "measure": {"a": "1/2"},
                    "schedule": "demand", "max_levels": 32, "max_worlds": 200000,
                    "task_list": [1], "output": "json"},
     "EngineConfig(atoms=['a'], worlds=None, measure={'a': '1/2'}, schedule='demand', "
     "max_levels=32, max_worlds=200000, task_list=[1], output='json')"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaves_as_its_dataclass_did(cls, fields, text):
    values = tuple(fields.values())
    record = cls(*values)
    assert cls(**fields) == record and repr(record) == text
    assert cls.__match_args__ == tuple(fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    # equality compares the fields' tuple, and only within the class
    assert record.__eq__(values) is NotImplemented and record != values
    hashable = all(type(v) not in (list, dict) for v in values) and cls is not EngineConfig
    if hashable:
        assert hash(record) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)
    # copies and pickles are rebuilt through the constructor
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text
    if cls is EngineConfig:  # the one mutable record
        record.output = "text"
        assert record.output == "text"
        return
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_records_compare_fields_as_a_tuple():
    # the tuple comparison's identity shortcut holds a value unequal to itself
    nan = float("nan")
    assert Atom(nan) == Atom(nan) and Atom(nan) != Atom(float("nan"))
    assert And(P, Q) != Or(P, Q) and And(P, Q) == And(Atom("p"), Atom("q"))
    assert Top() == Top() and Top() != Bot() and Top() != Formula()
    assert hash(Top()) == hash(()) == hash(Bot())


def test_defaults_of_records():
    assert repr(Line(P, "taut")) == "Line(formula=Atom(name='p'), rule='taut', refs=(), subst=None)"
    assert repr(Verdict(True)) == "Verdict(ok=True, line=None, reason=None)"
    assert Derivation("DmBL*", (), P).name == ""
    assert repr(Level(0, 4)) == ("Level(index=0, width=4, split=None, prev_width=None, "
                                 "blocks=None, masks=None)")
    assert repr(EngineConfig()) == (
        "EngineConfig(atoms=['p', 'q'], worlds=None, measure=None, schedule='demand', "
        "max_levels=32, max_worlds=200000, task_list=None, output='text')")


def test_formula_nodes_are_final_direct_subclasses():
    # tests elsewhere subclass Formula and And; the module's own classes are these
    assert {cls for cls in Formula.__subclasses__()
            if cls.__module__ == Formula.__module__} == set(NODES)
    for cls in NODES:
        assert cls.__bases__ == (Formula,)
        assert not hasattr(cls(*(P,) * len(cls._fields)), "__dict__")


def test_levels_keep_their_dict():
    lvl = Level(0, 4)
    vars(lvl)["extra"] = 1   # what cached_property and read_many store into
    assert lvl.extra == 1 and lvl == Level(0, 4)


@pytest.mark.parametrize("text", [
    "p", "T", "F /\\ ~q", "((q|p)|q) <-> (q | p /\\ q)", "[](p * (q|p)) -> <>~p",
    "(" * 40 + "p" + " /\\ q)" * 40, "~" * 99 + "p",
], ids=["atom", "constant", "connectives", "conditionals", "modal", "deep-and", "deep-not"])
def test_formulas_round_trip_through_copies_and_pickles(text):
    f = parse(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) == f
    assert copy.deepcopy(f) == f and copy.copy(f) == f and str(copy.deepcopy(f)) == str(f)


def test_constructors_validate():
    with pytest.raises(MeasureError):
        BaseMeasure((Fraction(1, 2),))
    with pytest.raises(ConfigError):
        EngineConfig(max_worlds=0)
    cfg = EngineConfig()
    with pytest.raises(ConfigError):
        cfg.replace(schedule="lazy")
    with pytest.raises(TypeError):
        cfg.replace(colour="red")
    changed = cfg.replace(atoms=["a", "b"], output="json")
    assert (changed.atoms, changed.output, changed.max_levels) == (["a", "b"], "json", 32)
    assert cfg == EngineConfig()


def test_bayes_result_is_a_named_tuple():
    res = BayesResult(Fraction(1, 3), Fraction(1, 3), True)
    assert isinstance(res, tuple) and res == (Fraction(1, 3), Fraction(1, 3), True)
    assert res.equal and repr(res) == (
        "BayesResult(lhs=Fraction(1, 3), rhs=Fraction(1, 3), equal=True)")


def test_importing_the_cli_loads_no_dataclasses_inspect_ast_or_typing():
    # -S: no site module, which loads typing on some hosts
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmbl.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dmbl.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "\n"
