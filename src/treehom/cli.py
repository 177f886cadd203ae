"""Command-line surface plus the line-oriented automaton and hom file formats.

Automaton files:

    # comment
    semiring: natural
    states: q qf bot
    sink: bot
    final: qf
    rules:
    k(q,g(bot)) -> qf @ 1 | 1 = 2.1

The alphabet is inferred from rule left-hand sides (rank = argument count);
using one name at two ranks is an error.  Hom files:

    from: a/0 g/1 f/1
    to: a/0 g/1 k/2
    f/1 -> k(x1,g(x1))

Exit codes: 0 ok/positive, 1 input error, 2 witness/negative, 3 unknown.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analyze import (
    bounded_equivalence,
    check_h_unambiguous,
    h_unambiguity_search_height,
)
from .automaton import (
    Automaton,
    AutomatonError,
    Evaluator,
    Run,
    RunsTable,
    check_unambiguous,
    eq_restriction_violation,
    format_run,
)
from .construct import (
    eliminate_zero_divisors,
    hom_image,
    linearize,
    project_boolean,
)
from .decide import (
    EVIDENCE_REGULAR,
    ORACLE_REGULAR,
    UNKNOWN,
    DecisionReport,
    decide_hom_regularity,
)
from .hom import HomError, TreeHomomorphism, check_tetris_free, images_clash
from .semiring import SemiringError, Weight, get_semiring
from .term import (
    RankedAlphabet,
    TermError,
    Tree,
    Variables,
    count_trees,
    format_position,
    parse_position,
    parse_term,
    preorder,
)
from .verdict import Verdict

ENUMERATION_WARN_LIMIT = 10**6


class FileFormatError(ValueError):
    def __init__(self, lineno, message):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_automaton(text: str) -> Automaton:
    semiring = None
    states = None
    sink = None
    finals = None
    rule_lines = []
    in_rules = False
    saw_rules_header = False
    for lineno, line in _content_lines(text):
        if in_rules:
            rule_lines.append((lineno, line))
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise FileFormatError(lineno, f"expected 'key: value', got {line!r}")
        key = key.strip()
        rest = rest.strip()
        if key == "semiring":
            try:
                semiring = get_semiring(rest)
            except SemiringError as err:
                raise FileFormatError(lineno, str(err)) from None
        elif key == "states":
            states = rest.split()
        elif key == "sink":
            parts = rest.split()
            if len(parts) != 1:
                raise FileFormatError(lineno, "sink takes exactly one state name")
            sink = parts[0]
        elif key == "final":
            finals = rest.split()
        elif key == "rules":
            if rest:
                raise FileFormatError(lineno, "rules: starts the rule block, no inline value")
            in_rules = True
            saw_rules_header = True
        else:
            raise FileFormatError(lineno, f"unknown section {key!r}")
    if semiring is None:
        raise FileFormatError(None, "missing 'semiring:' line")
    if states is None:
        raise FileFormatError(None, "missing 'states:' line")
    if finals is None:
        raise FileFormatError(None, "missing 'final:' line")
    if not saw_rules_header:
        raise FileFormatError(None, "missing 'rules:' section")

    state_set = set(states)
    parsed = []
    for lineno, line in rule_lines:
        main, had_constraint, constraint = line.partition("|")
        lhs_text, arrow, rest = main.partition("->")
        if not arrow:
            raise FileFormatError(lineno, "rule needs 'lhs -> state @ weight'")
        target_text, at, weight_text = rest.partition("@")
        if not at:
            raise FileFormatError(lineno, "rule needs '@ weight'")
        target = target_text.strip()
        try:
            lhs = parse_term(lhs_text.strip(), None, ext=state_set)
        except TermError as err:
            raise FileFormatError(lineno, str(err)) from None
        pairs = []
        if had_constraint:
            for chunk in constraint.split(","):
                a, eq, b = chunk.partition("=")
                if not eq:
                    raise FileFormatError(lineno, f"bad constraint pair {chunk.strip()!r}")
                try:
                    pairs.append((parse_position(a), parse_position(b)))
                except TermError as err:
                    raise FileFormatError(lineno, str(err)) from None
        try:
            weight = semiring.parse(weight_text.strip())
        except SemiringError as err:
            raise FileFormatError(lineno, str(err)) from None
        if weight.is_zero:
            raise FileFormatError(lineno, f"zero-weight rule: {line}")
        parsed.append((lineno, lhs, target, weight, tuple(pairs)))

    # parse_term has already rejected a state with arguments.
    ranks: dict[str, int] = {}
    for lineno, lhs, _, _, _ in parsed:
        for _, node in preorder(lhs):
            if node.label in state_set:
                continue
            rank = len(node.children)
            if ranks.setdefault(node.label, rank) != rank:
                raise FileFormatError(
                    lineno,
                    f"symbol {node.label} used at ranks {ranks[node.label]} and {rank}",
                )
    if not ranks:
        raise FileFormatError(None, "no alphabet symbols appear in any rule")
    alphabet = RankedAlphabet(sorted(ranks.items()))
    rules = [(lhs, target, weight, pairs) for _, lhs, target, weight, pairs in parsed]
    try:
        return Automaton(semiring, alphabet, states, finals, rules, sink=sink)
    except AutomatonError as err:
        raise FileFormatError(None, str(err)) from None


def format_automaton(A: Automaton) -> str:
    """A in the file format, states sorted by name and rules by (lhs text,
    target, constraint text).  No two rules share that key, since it
    determines the lhs, constraint classes and target; so each rule's text,
    weight included, is built once, by `Rule.text`, and never compared."""
    lines = [f"semiring: {A.semiring.id}", f"states: {' '.join(sorted(A.states))}"]
    if A.sink is not None:
        lines.append(f"sink: {A.sink}")
    lines.append(f"final: {' '.join(A.finals)}")
    lines.append("rules:")
    rules = sorted(A.rules, key=lambda r: (r.lhs.text, r.target, r.constraint_text))
    lines.extend(rule.text for rule in rules)
    return "\n".join(lines) + "\n"


def _parse_symbol_list(lineno: int, text: str):
    out = []
    for chunk in text.split():
        name, slash, rank = chunk.partition("/")
        if not slash or not rank.isdecimal():
            raise FileFormatError(lineno, f"expected name/rank, got {chunk!r}")
        try:
            out.append((name, int(rank)))
        except ValueError:  # past int()'s digit limit: no file holds that many arguments
            raise FileFormatError(lineno, f"rank of {name} has too many digits") from None
    if not out:
        raise FileFormatError(lineno, "empty symbol list")
    return out


def parse_hom(text: str) -> TreeHomomorphism:
    source = None
    target = None
    image_lines = []
    for lineno, line in _content_lines(text):
        key, sep, rest = line.partition(":")
        if sep and key.strip() in ("from", "to"):
            symbols = _parse_symbol_list(lineno, rest.strip())
            try:
                if key.strip() == "from":
                    source = RankedAlphabet(symbols)
                else:
                    target = RankedAlphabet(symbols)
            except TermError as err:
                raise FileFormatError(lineno, str(err)) from None
        else:
            image_lines.append((lineno, line))
    if source is None:
        raise FileFormatError(None, "missing 'from:' line")
    if target is None:
        raise FileFormatError(None, "missing 'to:' line")
    images: dict[str, Tree] = {}
    for lineno, line in image_lines:
        head, arrow, term_text = line.partition("->")
        if not arrow:
            raise FileFormatError(lineno, f"expected 'name/rank -> term', got {line!r}")
        (name, rank), = _parse_symbol_list(lineno, head.strip())
        if name not in source or source.rank(name) != rank:
            raise FileFormatError(lineno, f"{name}/{rank} is not a source symbol")
        if name in images:
            raise FileFormatError(lineno, f"duplicate image for {name}")
        try:
            images[name] = parse_term(term_text.strip(), target, ext=Variables(rank))
        except TermError as err:
            raise FileFormatError(lineno, str(err)) from None
    try:
        return TreeHomomorphism(source, target, images)
    except HomError as err:
        raise FileFormatError(None, str(err)) from None


def load_automaton(path: str) -> Automaton:
    with open(path, encoding="utf-8") as f:
        return parse_automaton(f.read())


def load_hom(path: str) -> TreeHomomorphism:
    with open(path, encoding="utf-8") as f:
        return parse_hom(f.read())


def _render_witness(obj):
    if obj is None:
        return None
    if isinstance(obj, Tree):
        return obj.text
    if isinstance(obj, Weight):
        return str(obj)
    if isinstance(obj, Run):
        return format_run(obj)
    if isinstance(obj, tuple):
        if all(isinstance(i, int) for i in obj):  # a position
            return format_position(obj)
        return [_render_witness(i) for i in obj]
    return obj


def verdict_to_dict(v: Verdict | None):
    if v is None:
        return None
    return {
        "status": v.status,
        "bound": v.bound,
        "detail": v.detail,
        "witness": _render_witness(v.witness),
    }


def _verdict_text(v: Verdict | None) -> str:
    if v is None:
        return "skipped"
    if v.is_ok:
        return f"ok up to height {v.bound}"
    return f"witness at height bound {v.bound}: {v.detail}"


def _automaton_summary(A: Automaton | None):
    if A is None:
        return None
    return {
        "semiring": A.semiring.id,
        "states": len(A.states),
        "rules": len(A.rules),
        "text": format_automaton(A),
    }


def report_to_dict(r: DecisionReport) -> dict:
    return {
        "kind": "decision",
        "verdict": r.verdict,
        "semiring": r.semiring_id,
        "zero_sum_free": r.zero_sum_free,
        "options": {
            "check_bound": r.check_bound,
            "lin_height": r.lin_height,
            "eq_bound": r.eq_bound,
            "oracle": r.oracle,
        },
        "warnings": list(r.warnings),
        "tetris_free": verdict_to_dict(r.tetris),
        "h_unambiguous": verdict_to_dict(r.h_unambiguous),
        "image": _automaton_summary(r.image),
        "zero_divisor_path": r.zero_divisor_path,
        "fixed_image": _automaton_summary(r.fixed_image),
        "image_unambiguous": verdict_to_dict(r.image_unambiguous),
        "internal_consistency_failure": r.internal_consistency_failure,
        "projection": _automaton_summary(r.projection),
        "support_arm": r.support_arm,
        "linearized": _automaton_summary(r.linearized),
        "equivalence": verdict_to_dict(r.equivalence),
        "oracle_answer": r.oracle_answer,
        "oracle_diagnostic": r.oracle_diagnostic,
    }


def report_to_text(r: DecisionReport) -> str:
    lines = [
        f"semiring: {r.semiring_id} (zero-sum free: {'yes' if r.zero_sum_free else 'no'})",
        f"options: check_bound={r.check_bound} lin_height={r.lin_height} "
        f"eq_bound={r.eq_bound} oracle={r.oracle or 'none'}",
        f"tetris-free: {_verdict_text(r.tetris)}",
        f"h-unambiguous: {_verdict_text(r.h_unambiguous)}",
    ]
    if r.image is not None:
        lines.append(
            f"image: {len(r.image.states)} states, {len(r.image.rules)} rules"
        )
        lines.append(f"zero-divisor elimination: {r.zero_divisor_path}")
        if r.fixed_image is not r.image:
            lines.append(
                f"fixed image: {len(r.fixed_image.states)} states, "
                f"{len(r.fixed_image.rules)} rules"
            )
        lines.append(f"image unambiguous: {_verdict_text(r.image_unambiguous)}")
    if r.projection is not None:
        lines.append(
            f"boolean projection: {len(r.projection.states)} states, "
            f"{len(r.projection.rules)} rules (support arm: {r.support_arm})"
        )
    if r.oracle is not None and r.oracle_answer is not None:
        lines.append(f"oracle answer: {r.oracle_answer}")
    if r.equivalence is not None:
        lines.append(
            f"linearization (height {r.lin_height}) vs image: "
            f"{_verdict_text(r.equivalence)}"
        )
    for w in r.warnings:
        lines.append(f"warning: {w}")
    lines.append(f"verdict: {r.verdict}")
    return "\n".join(lines) + "\n"


def emit_report(report, fmt: str = "text") -> str:
    """Render a decision report or a check verdict in text or machine form."""
    if isinstance(report, DecisionReport):
        if fmt == "machine":
            return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        return report_to_text(report)
    if isinstance(report, Verdict):
        if fmt == "machine":
            return json.dumps(verdict_to_dict(report), indent=2, sort_keys=True) + "\n"
        return _verdict_text(report) + "\n"
    raise TypeError(f"cannot render {type(report).__name__}")


def _emit(args, text: str):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _warn_enumeration(alphabet: RankedAlphabet, bound: int):
    n = count_trees(alphabet, bound)
    if n > ENUMERATION_WARN_LIMIT:
        print(
            f"warning: enumerating {n} trees of height <= {bound}; "
            f"this may take very long",
            file=sys.stderr,
        )


def _print_verdict(args, v: Verdict, ok_text: str, witness_text: str) -> int:
    if getattr(args, "format", "text") == "machine":
        sys.stdout.write(emit_report(v, "machine"))
    elif v.is_ok:
        print(f"{ok_text} up to height {v.bound}")
    else:
        print(f"{witness_text}: {v.detail}")
    return 0 if v.is_ok else 2


def _cmd_validate(args) -> int:
    if args.automaton is None and args.hom is None:
        print("error: nothing to validate, give --automaton and/or --hom", file=sys.stderr)
        return 1
    if args.automaton is not None:
        A = load_automaton(args.automaton)
        reason = eq_restriction_violation(A)
        eq = "yes" if reason is None else f"no ({reason})"
        print(
            f"{args.automaton}: valid {A.kind} over {A.semiring.id}, "
            f"{len(A.states)} states, {len(A.rules)} rules, eq-restricted: {eq}"
        )
    if args.hom is not None:
        h = load_hom(args.hom)
        print(
            f"{args.hom}: valid homomorphism, "
            f"{len(h.source.items())} source symbols, nondeleting and nonerasing"
        )
    return 0


def _cmd_eval(args) -> int:
    A = load_automaton(args.automaton)
    ev = Evaluator(A)
    print(str(ev.evaluate(ev.parse(args.tree))))
    return 0


def _cmd_support(args) -> int:
    A = load_automaton(args.automaton)
    for t, w in RunsTable(A, args.height).support():
        print(f"{t.text} -> {w}")
    return 0


def _cmd_runs(args) -> int:
    A = load_automaton(args.automaton)
    ev = Evaluator(A)
    t = ev.parse(args.tree)
    if args.state is not None:
        runs = ev.runs(t, args.state)
        where = f"to state {args.state}"
    else:
        runs = ev.accepting_runs(t)
        where = "accepting"
    print(f"{len(runs)} {where} run(s) for {t.text}")
    for i, run in enumerate(runs, start=1):
        print(f"run {i}: target {run.target}, weight {run.weight}")
        print(format_run(run, "  "))
    return 0


def _cmd_image(args) -> int:
    A = load_automaton(args.automaton)
    h = load_hom(args.hom)
    _emit(args, format_automaton(hom_image(A, h)))
    return 0


def _cmd_fix_zero_divisors(args) -> int:
    A = load_automaton(args.automaton)
    _emit(args, format_automaton(eliminate_zero_divisors(A)))
    return 0


def _cmd_project_bool(args) -> int:
    A = load_automaton(args.automaton)
    _emit(args, format_automaton(project_boolean(A)))
    return 0


def _cmd_linearize(args) -> int:
    A = load_automaton(args.automaton)
    _emit(args, format_automaton(linearize(A, args.height)))
    return 0


def _cmd_check(args) -> int:
    if args.what == "eq-restricted":
        A = load_automaton(args.automaton)
        reason = eq_restriction_violation(A)
        if args.format == "machine":
            print(json.dumps({"eq_restricted": reason is None, "reason": reason},
                             indent=2, sort_keys=True))
        else:
            print("eq-restricted" if reason is None else f"not eq-restricted: {reason}")
        return 0 if reason is None else 2
    if args.what == "unambiguous":
        A = load_automaton(args.automaton)
        v = check_unambiguous(A, args.height)
        return _print_verdict(args, v, "unambiguous", "ambiguous")
    if args.what == "tetris-free":
        h = load_hom(args.hom)
        if not images_clash(h):  # otherwise the check enumerates nothing
            _warn_enumeration(h.source, args.height)
        v = check_tetris_free(h, args.height)
        return _print_verdict(args, v, "tetris-free", "not tetris-free")
    if args.what == "h-unambiguous":
        A = load_automaton(args.automaton)
        h = load_hom(args.hom)
        v = check_h_unambiguous(A, h, args.height)
        return _print_verdict(args, v, "h-unambiguous", "not h-unambiguous")
    raise AssertionError(args.what)


def _cmd_equiv(args) -> int:
    A = load_automaton(args.a)
    B = load_automaton(args.b)
    v = bounded_equivalence(A, B, args.height)
    if args.format == "machine":
        sys.stdout.write(emit_report(v, "machine"))
        return 0 if v.is_ok else 2
    if v.is_ok:
        print(f"equivalent up to height {v.bound}")
        return 0
    t, va, vb = v.witness
    print(f"witness: {t.text} evaluates to {va} vs {vb}")
    return 2


def _cmd_decide(args) -> int:
    A = load_automaton(args.automaton)
    h = load_hom(args.hom)
    # The precondition checks walk the source trees up to the height that
    # `h_unambiguity_search_height` gives (tetris-freeness too, unless the
    # class images clash), or not at all.  It raises the pipeline's own error
    # on an input the pipeline rejects.
    if (count_trees(h.source, args.check_bound) > ENUMERATION_WARN_LIMIT
            and (height := h_unambiguity_search_height(A, h, args.check_bound)) is not None):
        _warn_enumeration(h.source, height)
    report = decide_hom_regularity(
        A,
        h,
        check_bound=args.check_bound,
        lin_height=args.lin_height,
        eq_bound=args.eq_bound,
        oracle=args.oracle,
    )
    sys.stdout.write(emit_report(report, args.format))
    if report.verdict in (EVIDENCE_REGULAR, ORACLE_REGULAR):
        return 0
    if report.verdict == UNKNOWN:
        return 3
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand's func
    looks up the package functions it calls when it runs, so a rebound
    module name still takes effect."""
    parser = argparse.ArgumentParser(
        prog="treehom",
        description="weighted tree automata with hom-constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an automaton and/or hom file")
    p.add_argument("--automaton")
    p.add_argument("--hom")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="evaluate the series on one tree")
    p.add_argument("--automaton", required=True)
    p.add_argument("--tree", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("support", help="nonzero-value trees up to a height")
    p.add_argument("--automaton", required=True)
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("runs", help="enumerate runs for one tree")
    p.add_argument("--automaton", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--state")
    p.set_defaults(func=_cmd_runs)

    p = sub.add_parser("image", help="eq-restricted homomorphic image of a WTA")
    p.add_argument("--automaton", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("fix-zero-divisors", help="make every run weight nonzero")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fix_zero_divisors)

    p = sub.add_parser("project-bool", help="boolean support projection")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_project_bool)

    p = sub.add_parser("linearize", help="instantiate constrained positions")
    p.add_argument("--automaton", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("check", help="bounded property checks")
    p.add_argument(
        "what",
        choices=["eq-restricted", "unambiguous", "tetris-free", "h-unambiguous"],
    )
    p.add_argument("--automaton")
    p.add_argument("--hom")
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=_cmd_check_dispatch)

    p = sub.add_parser("equiv", help="bounded series equivalence of two automata")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("decide", help="hom-image regularity pipeline")
    p.add_argument("--automaton", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("--check-bound", type=int, default=4)
    p.add_argument("--lin-height", type=int, default=2)
    p.add_argument("--eq-bound", type=int, default=4)
    p.add_argument("--oracle")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=_cmd_decide)

    return parser


def _cmd_check_dispatch(args) -> int:
    need = {
        "eq-restricted": ("automaton",),
        "unambiguous": ("automaton",),
        "tetris-free": ("hom",),
        "h-unambiguous": ("automaton", "hom"),
    }[args.what]
    for attr in need:
        if getattr(args, attr) is None:
            print(f"error: check {args.what} needs --{attr}", file=sys.stderr)
            return 1
    return _cmd_check(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, AutomatonError, HomError, SemiringError, TermError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply for the recursion limit", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
