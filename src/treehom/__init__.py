"""Weighted tree automata with equality constraints over commutative semirings.

The package models weighted tree grammars whose rules may force subtrees at
chosen positions to be equal, applies nondeleting and nonerasing tree
homomorphisms to them, and offers the constructions needed to study whether
a homomorphic image of a regular weighted tree series is again regular:
building the image automaton, eliminating zero divisors, projecting to the
boolean support, and linearizing constraints away.  Everything is backed by
bounded brute-force checkers so small instances can be verified exactly.
"""

from .analyze import bounded_equivalence, check_h_unambiguous, linearization_equivalence
from .automaton import (
    Automaton,
    AutomatonError,
    Evaluator,
    Rule,
    Run,
    RunsTable,
    check_unambiguous,
    eq_restriction_violation,
    format_run,
    run_state_map,
)
from .construct import (
    dickson_cap,
    eliminate_zero_divisors,
    hom_image,
    linearize,
    project_boolean,
)
from .decide import (
    EVIDENCE_REGULAR,
    LINEARIZATION_MISMATCH,
    ORACLE_NONREGULAR,
    ORACLE_REGULAR,
    PRECONDITION_VIOLATED,
    UNKNOWN,
    DecisionReport,
    decide_hom_regularity,
)
from .hom import (
    HomError,
    TreeHomomorphism,
    check_tetris_free,
)
from .semiring import (
    ArcticSemiring,
    BooleanSemiring,
    IntegerSemiring,
    ModularSemiring,
    NaturalSemiring,
    Semiring,
    SemiringError,
    TropicalSemiring,
    Weight,
    get_semiring,
    power_index_period,
)
from .term import (
    Position,
    RankedAlphabet,
    TermError,
    TermSyntaxError,
    Tree,
    enumerate_trees,
    format_position,
    is_variable,
    parse_nodes,
    parse_position,
    parse_term,
    preorder,
    replace_at,
    substitute_vars,
    tree_key,
    variable,
)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "ArcticSemiring",
    "Automaton",
    "AutomatonError",
    "BooleanSemiring",
    "DecisionReport",
    "EVIDENCE_REGULAR",
    "Evaluator",
    "HomError",
    "IntegerSemiring",
    "LINEARIZATION_MISMATCH",
    "ModularSemiring",
    "NaturalSemiring",
    "ORACLE_NONREGULAR",
    "ORACLE_REGULAR",
    "PRECONDITION_VIOLATED",
    "Position",
    "RankedAlphabet",
    "Rule",
    "Run",
    "RunsTable",
    "Semiring",
    "SemiringError",
    "TermError",
    "TermSyntaxError",
    "Tree",
    "TreeHomomorphism",
    "TropicalSemiring",
    "UNKNOWN",
    "Verdict",
    "Weight",
    "bounded_equivalence",
    "check_h_unambiguous",
    "check_tetris_free",
    "check_unambiguous",
    "decide_hom_regularity",
    "dickson_cap",
    "eliminate_zero_divisors",
    "enumerate_trees",
    "eq_restriction_violation",
    "format_position",
    "format_run",
    "get_semiring",
    "hom_image",
    "is_variable",
    "linearization_equivalence",
    "linearize",
    "parse_nodes",
    "parse_position",
    "parse_term",
    "power_index_period",
    "preorder",
    "project_boolean",
    "replace_at",
    "run_state_map",
    "substitute_vars",
    "tree_key",
    "variable",
]
