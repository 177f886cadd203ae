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

Exit codes: 0 ok/positive (or help from -h/--help), 1 input error,
2 witness/negative or a usage error, 3 unknown.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .analyze import bounded_equivalence, check_h_unambiguous
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
from .hom import HomError, TreeHomomorphism, check_tetris_free
from .semiring import SemiringError, Weight, get_semiring
from .term import (
    RankedAlphabet,
    TermError,
    Tree,
    Variables,
    format_position,
    parse_nodes,
    parse_position,
    parse_term,
    preorder,
)
from .verdict import Verdict


class FileFormatError(ValueError):
    def __init__(self, lineno, message):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")


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
            nodes = parse_nodes(lhs_text.strip(), None, ext=state_set)
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
        parsed.append((lineno, nodes, target, weight, tuple(pairs)))

    # parse_nodes has already rejected a state with arguments.  It lists each
    # distinct subterm of an lhs once, children first, so the ranks are read
    # off those lists.  A clash is looked up again in preorder: the error
    # names the rank that the file uses first, in one lhs the outer symbol's.
    try:
        ranks = _symbol_ranks(parsed, state_set, lambda nodes: nodes)
    except FileFormatError:
        _symbol_ranks(parsed, state_set, lambda nodes: [n for _, n in preorder(nodes[-1])])
        raise
    if not ranks:
        raise FileFormatError(None, "no alphabet symbols appear in any rule")
    alphabet = RankedAlphabet(sorted(ranks.items()))
    rules = [(nodes[-1], target, weight, pairs) for _, nodes, target, weight, pairs in parsed]
    try:
        return Automaton(semiring, alphabet, states, finals, rules, sink=sink)
    except AutomatonError as err:
        raise FileFormatError(None, str(err)) from None


def _symbol_ranks(parsed, states, walk) -> dict[str, int]:
    """The rank of each symbol in the lhs node lists of the parsed rules,
    visited in the order that walk gives.  Raises at the first symbol used
    at a second rank."""
    ranks: dict[str, int] = {}
    for lineno, nodes, _, _, _ in parsed:
        for node in walk(nodes):
            if node.label not in states:
                rank = len(node.children)
                if ranks.setdefault(node.label, rank) != rank:
                    raise FileFormatError(
                        lineno,
                        f"symbol {node.label} used at ranks {ranks[node.label]} and {rank}",
                    )
    return ranks


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
        symbols = _parse_symbol_list(lineno, head.strip()) if arrow else ()
        if len(symbols) != 1:
            raise FileFormatError(lineno, f"expected 'name/rank -> term', got {line!r}")
        (name, rank), = symbols
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


def _read_text(path) -> str:
    """The text of a UTF-8 file, from one binary read.  Line breaks stay as
    they are: `str.splitlines`, which numbers the lines, breaks at "\\r\\n"
    and "\\r" as well as at "\\n"."""
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # The bytes before the first bad one decode; the line that the bad
        # byte starts is the last line of those bytes followed by any text.
        lineno = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise FileFormatError(
            lineno, f"not UTF-8 text: byte 0x{data[err.start]:02x} ({err.reason})"
        ) from None


def load_automaton(path: str) -> Automaton:
    return parse_automaton(_read_text(path))


def load_hom(path: str) -> TreeHomomorphism:
    return parse_hom(_read_text(path))


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


def _machine_text(payload) -> str:
    import json  # deferred: text output, the default, never needs json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report, fmt: str = "text") -> str:
    """Render a decision report or a check verdict in text or machine form."""
    if isinstance(report, DecisionReport):
        if fmt == "machine":
            return _machine_text(report_to_dict(report))
        return report_to_text(report)
    if isinstance(report, Verdict):
        if fmt == "machine":
            return _machine_text(verdict_to_dict(report))
        return _verdict_text(report) + "\n"
    raise TypeError(f"cannot render {type(report).__name__}")


def _emit(args, text: str):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


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
    print(str(Evaluator(A).evaluate_text(args.tree)))
    return 0


def _cmd_support(args) -> int:
    A = load_automaton(args.automaton)
    for t, w in RunsTable(A, args.height).support():
        print(f"{t.text} -> {w}")
    return 0


def _cmd_runs(args) -> int:
    A = load_automaton(args.automaton)
    text, runs = Evaluator(A).runs_text(args.tree, args.state)
    where = "accepting" if args.state is None else f"to state {args.state}"
    print(f"{len(runs)} {where} run(s) for {text}")
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
            sys.stdout.write(_machine_text({"eq_restricted": reason is None,
                                            "reason": reason}))
        else:
            print("eq-restricted" if reason is None else f"not eq-restricted: {reason}")
        return 0 if reason is None else 2
    if args.what == "unambiguous":
        A = load_automaton(args.automaton)
        v = check_unambiguous(A, args.height)
        return _print_verdict(args, v, "unambiguous", "ambiguous")
    if args.what == "tetris-free":
        h = load_hom(args.hom)
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


# The command line is `treehom <command> [options]`.  One table lists each
# command's handler, options and positional argument; `read_args` walks argv
# against it, and the help text is generated from it.  The reader follows
# the conventions of the standard library's option parser: `--name value`,
# `--name=value`, a unique prefix of a long option, `-oVALUE`, the last of
# repeated options wins, an argument that looks like a negative number is a
# value, and after `--` every argument is a value.  The handlers look up the
# package functions they call when they run, so a rebound module name still
# takes effect.


class Option:
    """One option of a command, or its positional argument when ``name``
    has no dashes.  Its value is read into the attribute ``dest``."""

    __slots__ = ("name", "short", "type", "default", "required", "choices", "dest")

    def __init__(self, name: str, short: str | None = None, type: type = str,
                 default: object = None, required: bool = False,
                 choices: tuple[str, ...] | None = None):
        self.name, self.short, self.type = name, short, type
        self.default, self.required, self.choices = default, required, choices
        self.dest = name.lstrip("-").replace("-", "_")

    @property
    def label(self) -> str:
        return f"{self.short}/{self.name}" if self.short else self.name

    @property
    def metavar(self) -> str:
        return "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()


class Command:
    """One command: its handler, help line, options and positional argument."""

    __slots__ = ("handler", "help", "options", "positional")

    def __init__(self, handler, help: str, options: tuple[Option, ...],
                 positional: Option | None = None):
        self.handler, self.help, self.options, self.positional = (
            handler, help, options, positional)


_HELP = Option("--help", short="-h")
_AUTOMATON = Option("--automaton", required=True)
_HOM = Option("--hom", required=True)
_TREE = Option("--tree", required=True)
_HEIGHT = Option("--height", type=int, required=True)
_OUTPUT = Option("--output", short="-o")
_FORMAT = Option("--format", default="text", choices=("text", "machine"))

COMMANDS = {
    "validate": Command(_cmd_validate, "validate an automaton and/or hom file",
                        (Option("--automaton"), Option("--hom"))),
    "eval": Command(_cmd_eval, "evaluate the series on one tree", (_AUTOMATON, _TREE)),
    "support": Command(_cmd_support, "nonzero-value trees up to a height",
                       (_AUTOMATON, _HEIGHT)),
    "runs": Command(_cmd_runs, "enumerate runs for one tree",
                    (_AUTOMATON, _TREE, Option("--state"))),
    "image": Command(_cmd_image, "eq-restricted homomorphic image of a WTA",
                     (_AUTOMATON, _HOM, _OUTPUT)),
    "fix-zero-divisors": Command(_cmd_fix_zero_divisors, "make every run weight nonzero",
                                 (_AUTOMATON, _OUTPUT)),
    "project-bool": Command(_cmd_project_bool, "boolean support projection",
                            (_AUTOMATON, _OUTPUT)),
    "linearize": Command(_cmd_linearize, "instantiate constrained positions",
                         (_AUTOMATON, _HEIGHT, _OUTPUT)),
    "check": Command(
        _cmd_check_dispatch, "bounded property checks",
        (Option("--automaton"), Option("--hom"), Option("--height", type=int, default=4),
         _FORMAT),
        Option("what", required=True,
               choices=("eq-restricted", "unambiguous", "tetris-free", "h-unambiguous")),
    ),
    "equiv": Command(_cmd_equiv, "bounded series equivalence of two automata",
                     (Option("--a", required=True), Option("--b", required=True), _HEIGHT,
                      _FORMAT)),
    "decide": Command(_cmd_decide, "hom-image regularity pipeline",
                      (_AUTOMATON, _HOM, Option("--check-bound", type=int, default=4),
                       Option("--lin-height", type=int, default=2),
                       Option("--eq-bound", type=int, default=4), Option("--oracle"),
                       _FORMAT)),
}

# Arguments that look like negative numbers are values, not options.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Exit(Exception):
    """Stops reading argv: help (status 0, text for stdout) or a usage error
    (status 2, text for stderr)."""

    def __init__(self, status: int, text: str):
        super().__init__(text)
        self.status, self.text = status, text


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: treehom [-h] <command> [options]\n"
    command = COMMANDS[name]
    words = [f"usage: treehom {name} [-h]"]
    for opt in command.options:
        word = f"{opt.short or opt.name} {opt.metavar}"
        words.append(word if opt.required else f"[{word}]")
    if command.positional is not None:
        words.append(command.positional.metavar)
    return " ".join(words) + "\n"


def _help(name: str | None) -> str:
    if name is None:
        head, title = "weighted tree automata with hom-constraints", "commands"
        rows = [(key, command.help) for key, command in COMMANDS.items()]
        tail = "\n`treehom <command> -h` lists the options of a command.\n"
    else:
        command = COMMANDS[name]
        head, title, tail = command.help, "arguments", ""
        rows = [("-h, --help", "show this help and exit")]
        if command.positional is not None:
            what = command.positional
            rows.append((what.name, f"required, one of: {', '.join(what.choices)}"))
        for opt in command.options:
            flags = ", ".join(f"{flag} {opt.metavar}" for flag in (opt.short, opt.name) if flag)
            rows.append((flags, "required" if opt.required else
                         "" if opt.default is None else f"default: {opt.default}"))
    width = max(len(left) for left, _ in rows) + 2
    lines = "".join(f"  {left:<{width}}{right}".rstrip() + "\n" for left, right in rows)
    return f"{_usage(name)}\n{head}\n\n{title}:\n{lines}{tail}"


def _fail(name: str | None, message: str):
    prog = "treehom" if name is None else f"treehom {name}"
    raise _Exit(2, f"{_usage(name)}{prog}: error: {message}\n")


def _option_table(options) -> dict:
    """Option string -> option, `-h/--help` first."""
    table = {"-h": _HELP, "--help": _HELP}
    for opt in options:
        if opt.short is not None:
            table[opt.short] = opt
        table[opt.name] = opt
    return table


def _classify(name, table, arg):
    """None for a value, else (option, or None if unknown; option string;
    value glued to it, or None)."""
    if not arg or arg[0] != "-":
        return None
    if arg in table:
        return table[arg], arg, None
    if len(arg) == 1:
        return None
    flag, eq, glued = arg.partition("=")
    if eq and flag in table:
        return table[flag], flag, glued
    if arg[1] == "-":  # a prefix of long options, up to any "="
        found = [(table[s], s, glued if eq else None) for s in table if s.startswith(flag)]
    else:  # a short option and the rest of the argument
        found = [(table[s], s, arg[2:]) for s in table if s == arg[:2]]
    if len(found) > 1:
        _fail(name, f"ambiguous option: {arg} could match "
                    f"{', '.join(s for _, s, _ in found)}")
    if found:
        return found[0]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, arg, None


def _taken(name, table, found, argv, kinds, i):
    """The (option, text) pairs that the option at i takes, in order, and
    the index after its value.  Short flags may share one argument: `-ho`."""
    opt, flag, glued = found
    taken = []
    while opt is _HELP and glued is not None:
        if flag[1] == "-" or not glued or "-" + glued[0] not in table:
            _fail(name, f"argument -h/--help: ignored explicit argument {glued!r}")
        taken.append((opt, None))
        flag = "-" + glued[0]
        opt, glued = table[flag], glued[1:] or None
    if opt is _HELP or glued is not None:
        return taken + [(opt, glued)], i + 1
    if kinds[i + 1:i + 2] != "A":  # an option's value never follows `--`
        _fail(name, f"argument {opt.label}: expected one argument")
    return taken + [(opt, argv[i + 1])], i + 2


def _read_command(name: str, argv: list) -> tuple[SimpleNamespace, list]:
    """The values of one command's arguments, and the arguments left over."""
    command = COMMANDS[name]
    table = _option_table(command.options)
    # Each argument is an option (O), a value (A) or the first `--` (-).
    found, kinds = {}, ""
    for i, arg in enumerate(argv):
        if "-" in kinds:
            kinds += "A"
        elif arg == "--":
            kinds += "-"
        elif (what := _classify(name, table, arg)) is None:
            kinds += "A"
        else:
            found[i] = what
            kinds += "O"

    positional = command.positional
    values = {"command": name}
    if positional is not None:
        values[positional.dest] = None
    values.update((opt.dest, opt.default) for opt in command.options)
    seen = set()  # dests given on the command line

    def take(opt, text):
        if opt is _HELP:
            raise _Exit(0, _help(name))
        try:
            value = opt.type(text)
        except ValueError:
            _fail(name, f"argument {opt.label}: invalid {opt.type.__name__} value: {text!r}")
        if opt.choices is not None and value not in opt.choices:
            _fail(name, f"argument {opt.label}: invalid choice: {value!r} "
                        f"(choose from {', '.join(map(repr, opt.choices))})")
        values[opt.dest] = value
        seen.add(opt.dest)

    extras = []
    i = 0
    while i < len(argv):
        if i in found and found[i][0] is not None:
            taken, i = _taken(name, table, found[i], argv, kinds, i)
            for opt, text in taken:
                take(opt, text)
        elif i not in found and positional is not None and "A" in (kinds[i], kinds[i + 1:i + 2]):
            i += kinds[i] == "-"  # the positional takes a `--` on either side
            take(positional, argv[i])
            i += 2 if kinds[i + 1:i + 2] == "-" else 1
            positional = None
        else:  # an unknown option does not take the value after it
            extras.append(argv[i])
            i += 1
    missing = [opt.label for opt in (command.positional, *command.options)
               if opt is not None and opt.required and opt.dest not in seen]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values), extras


def read_args(argv: list) -> tuple[Command, SimpleNamespace]:
    """The command that argv names and its option values, by dest.  Raises
    `_Exit` for `-h/--help` and for a usage error."""
    top = _option_table(())
    extras = []
    for i, arg in enumerate(argv):
        what = None if arg == "--" else _classify(None, top, arg)
        if what is None:
            break
        if what[0] is None:
            extras.append(arg)
        else:  # -h, possibly repeated in one argument
            _taken(None, top, what, argv, "", i)
            raise _Exit(0, _help(None))
    else:
        _fail(None, "the following arguments are required: command")
    name = argv[i]
    if name not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    args, left = _read_command(name, argv[i + 1:])
    if extras or left:
        _fail(None, f"unrecognized arguments: {' '.join(extras + left)}")
    return COMMANDS[name], args


def main(argv=None) -> int:
    try:
        command, args = read_args(sys.argv[1:] if argv is None else list(argv))
    except _Exit as stop:
        (sys.stdout if stop.status == 0 else sys.stderr).write(stop.text)
        return stop.status
    try:
        return command.handler(args)
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
