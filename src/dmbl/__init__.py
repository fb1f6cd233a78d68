"""Engine for the conditional logic DmBL* and its probability extension."""

__version__ = "0.1.0"

from .formula import (Atom, And, Bot, Box, Cond, Diamond, Formula, Iff,
                      Implies, Indep, Not, Or, Top, TOP, BOT, FormulaError,
                      ParseError, UnknownAtomError, atoms_of, expand,
                      is_box_free, parse, to_text)
from .worlds import LevelMismatchError, PropSet, WorldsError
from .model import (CapExceededError, DegenerateEventError, FrozenStateError,
                    ModelError, ModelState, ProcessedEvent, ScheduleError,
                    UndefinedConditionalError, canonical_pairs,
                    default_task_list, seed_task_list)
from .evaluator import (B6Report, Decision, EvaluationError, Valuation,
                        assign, decide, diagnose_b6, independent,
                        lewis_escape, valid)
from .probability import (BaseMeasure, BayesResult, MeasureError,
                          MeasureState, bayes_check, init_measure, limit_prob,
                          prob)
from .proofs import (Derivation, Line, ProofError, Verdict, SCHEMAS, check,
                     cross_validate, derivation_from_dict, derivation_to_dict,
                     is_tautology_instance, load_corpus, load_derivation,
                     match_schema, substitute)

__all__ = [name for name in dir() if not name.startswith("_")]
