"""Restricted decision pipeline: is the homomorphic image of a regular tree
series again regular?

The pipeline validates the preconditions (tetris-freeness and h-unambiguity,
both bounded), builds the eq-restricted image, eliminates zero divisors,
checks image unambiguity, projects to the boolean support automaton, and
then either consults an external support-regularity oracle or falls back to
the linearization surrogate: compare the image against its linearization up
to a height bound.  A mismatch refutes that particular linearization height,
it does not prove non-regularity; agreement is evidence, not proof.

The comparison, `linearization_equivalence(image, lin_height, eq_bound)`,
gives the verdict of `bounded_equivalence` by one of three paths:

0. The fixed image has no constrained rule besides the sink's: the image and
   its linearization have the same runs, and agree at every height.
1. When dropping the constraints leaves at most one accepting run per tree
   up to the bound, a tree's values differ exactly when its run weighs
   nonzero and is tall: it puts a tree taller than the linearization height
   into a constrained class.  A fixpoint over (state, tall) pairs by height
   finds the least tall tree, or proves there is none, without enumerating
   trees; only the image is then evaluated on that one tree, where the
   linearization is zero.
2. Otherwise, or if that tree's run weighs zero, the linearization is built
   and both are enumerated.  The report holds no linearization and neither
   output format prints one, so no output builds it outside this path.
"""

from __future__ import annotations

from .analyze import check_h_unambiguous, linearization_equivalence
from .automaton import Automaton, AutomatonError, check_unambiguous
from .construct import (
    dickson_cap,
    eliminate_zero_divisors,
    hom_image,
    project_boolean,
)
from .hom import TreeHomomorphism, check_tetris_free
from .verdict import Verdict

EVIDENCE_REGULAR = "EVIDENCE_REGULAR"
LINEARIZATION_MISMATCH = "LINEARIZATION_MISMATCH"
ORACLE_REGULAR = "ORACLE_REGULAR"
ORACLE_NONREGULAR = "ORACLE_NONREGULAR"
PRECONDITION_VIOLATED = "PRECONDITION_VIOLATED"
UNKNOWN = "UNKNOWN"

POSITIVE_VERDICTS = (EVIDENCE_REGULAR, ORACLE_REGULAR)


class DecisionReport:
    """What `decide_hom_regularity` found, stage by stage; None marks a stage not run."""

    def __init__(self, semiring_id: str, zero_sum_free: bool, check_bound: int,
                 lin_height: int, eq_bound: int, oracle: str | None):
        self.semiring_id = semiring_id
        self.zero_sum_free = zero_sum_free
        self.check_bound = check_bound
        self.lin_height = lin_height
        self.eq_bound = eq_bound
        self.oracle = oracle
        self.verdict = UNKNOWN
        self.warnings: list[str] = []
        self.tetris: Verdict | None = None
        self.h_unambiguous: Verdict | None = None
        self.image: Automaton | None = None
        self.zero_divisor_path: str | None = None
        self.fixed_image: Automaton | None = None
        self.image_unambiguous: Verdict | None = None
        self.internal_consistency_failure = False
        self.projection: Automaton | None = None
        self.support_arm: str | None = None
        self.equivalence: Verdict | None = None
        self.oracle_answer: str | None = None
        self.oracle_diagnostic: str | None = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"DecisionReport({fields})"


def _oracle_answer(command: str, projection: Automaton):
    """Run the external support-regularity oracle on the projection.

    The command gets the path of a projection file appended and must print
    exactly `regular` or `nonregular` and exit 0; anything else is a
    diagnostic and yields UNKNOWN, as does a command that is empty or does not
    split (an unclosed quote).
    """
    # Deferred: only this path runs a process, and cli imports this module.
    import os
    import shlex
    import subprocess
    import tempfile

    from .cli import format_automaton

    try:
        argv = shlex.split(command)
    except ValueError as err:
        return None, f"oracle failed to run: {err}"
    if not argv:
        return None, "oracle command is empty"
    with tempfile.NamedTemporaryFile("w", suffix=".aut", delete=False) as f:
        f.write(format_automaton(projection))
        path = f.name
    try:
        proc = subprocess.run(
            argv + [path],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        return None, f"oracle failed to run: {err}"
    finally:
        os.unlink(path)
    answer = proc.stdout.strip()
    if proc.returncode != 0:
        return None, f"oracle exited with status {proc.returncode}"
    if answer not in ("regular", "nonregular"):
        return None, f"oracle printed {answer!r}, expected 'regular' or 'nonregular'"
    return answer, None


def decide_hom_regularity(A: Automaton, h: TreeHomomorphism, *, check_bound: int = 4,
                          lin_height: int = 2, eq_bound: int = 4,
                          oracle: str | None = None) -> DecisionReport:
    if not A.is_wta:
        raise AutomatonError("the decision pipeline needs a WTA input")
    if A.alphabet != h.source:
        raise AutomatonError("automaton alphabet differs from the homomorphism source")
    for bound, name in ((check_bound, "height bound"), (lin_height, "linearization height"),
                        (eq_bound, "height bound")):
        if bound < 0:
            raise AutomatonError(f"{name} must be nonnegative")
    report = DecisionReport(
        semiring_id=A.semiring.id,
        zero_sum_free=A.semiring.zero_sum_free,
        check_bound=check_bound,
        lin_height=lin_height,
        eq_bound=eq_bound,
        oracle=oracle,
    )
    if not A.semiring.zero_sum_free:
        report.warnings.append(
            f"semiring {A.semiring.id} is not zero-sum free: positive verdicts "
            f"are capped at UNKNOWN"
        )

    report.tetris = check_tetris_free(h, check_bound)
    if not report.tetris.is_ok:
        report.verdict = PRECONDITION_VIOLATED
        report.warnings.append(f"homomorphism is not tetris-free: {report.tetris.detail}")
        return report

    report.h_unambiguous = check_h_unambiguous(A, h, check_bound)
    if not report.h_unambiguous.is_ok:
        report.verdict = PRECONDITION_VIOLATED
        report.warnings.append(
            f"input is not h-unambiguous: {report.h_unambiguous.detail}"
        )
        return report

    report.image = hom_image(A, h)
    report.fixed_image = eliminate_zero_divisors(report.image)
    if A.semiring.zero_divisor_free:
        report.zero_divisor_path = "unchanged (zero-divisor-free semiring)"
    elif report.fixed_image is report.image:
        report.zero_divisor_path = "unchanged (every rule weight is the one)"
    else:
        report.zero_divisor_path = f"dickson cap u={dickson_cap(report.image)}"

    report.image_unambiguous = check_unambiguous(report.fixed_image, check_bound)
    if not report.image_unambiguous.is_ok:
        # The image of an h-unambiguous WTA under a tetris-free hom cannot be
        # ambiguous within the checked bound; reaching this is a bug, not a
        # mathematical outcome, and poisons everything downstream.
        report.internal_consistency_failure = True
        report.warnings.append(
            "internal consistency failure: image automaton is ambiguous although "
            "the preconditions passed at the same bound: "
            + report.image_unambiguous.detail
        )
        report.verdict = UNKNOWN
        return report

    report.projection = project_boolean(report.fixed_image)
    report.support_arm = (
        "zero-sum-free"
        if A.semiring.zero_sum_free
        else f"unambiguous-up-to-bound({check_bound})"
    )

    if oracle is not None:
        answer, diagnostic = _oracle_answer(oracle, report.projection)
        report.oracle_answer = answer
        report.oracle_diagnostic = diagnostic
        if answer == "regular":
            report.verdict = ORACLE_REGULAR
        elif answer == "nonregular":
            report.verdict = ORACLE_NONREGULAR
        else:
            report.verdict = UNKNOWN
            report.warnings.append(diagnostic)
    else:
        report.equivalence = linearization_equivalence(report.fixed_image, lin_height, eq_bound)
        if report.equivalence.is_ok:
            report.verdict = EVIDENCE_REGULAR
        else:
            report.verdict = LINEARIZATION_MISMATCH

    if report.verdict in POSITIVE_VERDICTS and not A.semiring.zero_sum_free:
        report.warnings.append(
            f"verdict {report.verdict} downgraded to UNKNOWN: "
            f"{A.semiring.id} is not zero-sum free"
        )
        report.verdict = UNKNOWN
    return report
