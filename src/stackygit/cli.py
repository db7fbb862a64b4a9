"""Command-line interface.

Every subcommand produces a JSON payload (``--json``) and a markdown
rendering derived from it; exit status 0 means everything verified, 1 a
refuted claim or failed check, 2 bad input, 3 an exceeded internal bound.
Each handler ``_cmd_*`` returns ``(status, body, markdown)``, and
:func:`run_command` alone puts the body in the envelope that states
``schema``, ``command`` (the subcommand's key in ``_COMMANDS``) and
``status``.  The handlers alone own the payload layout: the library returns
plain records, such as ``CheckResult`` and ``LocusReport``, rendered here.

The JSON text is ``json.dumps(payload, sort_keys=True, indent=2)`` byte for
byte (``tests/test_cli.py::test_json_text_is_json_dumps``), written directly
because ``indent`` turns ``json``'s C encoder off.

The grammar is stated once, in the table ``_COMMANDS``: each subcommand's
handler, help line, positionals (with their ``add_argument`` keywords) and
whether it takes ``--seed``.  :func:`run_command` first reads the command
line off that table with :func:`_plain_args`, which takes only plain lines
(an optional leading ``--json``, a subcommand and its arguments as values,
converted and checked as argparse does) and otherwise answers None.  Then
argparse decides, with the parser :func:`build_parser` builds from the
same table once per process and shares with every later call; it must not
be mutated, and each parse returns a fresh namespace, so no state passes
from one call to the next.  argparse alone writes help and usage errors,
and prints nothing: the parser raises their finished result, which
:func:`run_command` returns as it is.  A usage error answers exit 2 with
code ``usage`` and argparse's ``error:`` line as its message, and
``--help`` answers exit 0 with the help text under ``help`` and as the
markdown; both name the command ``argparse``.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from functools import cache
from itertools import takewhile
from json.encoder import encode_basestring_ascii

from . import ringspec
from .errors import (
    CoefficientTooLargeError,
    ExactArithmeticError,
    NestingTooDeepError,
    StackygitError,
    excerpt,
)
from .exprparse import MAX_NUMERAL_DIGITS, form, numeral
from .graded import affine_chart, rigidify, stacky_decompose
from .groups import GroupSpec, group_generators
from .invariants import DEFAULT_SEED, calibrate_invariants, catalog_ring
from .locus import quintic_locus_report, sextic_locus_report
from .symmetry import catalog_stabilizer, ground_forms, klein_generate, semi_invariance

SCHEMA_VERSION = 1


class CommandResult(namedtuple("CommandResult", "status payload markdown")):
    __slots__ = ()

    def json_text(self) -> str:
        """``json.dumps(self.payload, sort_keys=True, indent=2)`` byte for byte
        (``test_json_text_is_json_dumps``), written by :func:`_json` because
        ``indent`` turns ``json``'s C encoder off."""
        return _json(self.payload, "\n")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, ``newline`` being the line break and indent of its own level.  A
    float, a key that is not a str or any other type raises TypeError;
    lists and tuples are matched by exact type, so a record (a namedtuple)
    is refused too."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = ("," + inner).join([f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}"
                                    for key in sorted(value)])
        return f"{{{inner}{items}{newline}}}"
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        inner = newline + "  "
        items = ("," + inner).join([_json(item, inner) for item in value])
        return f"[{inner}{items}{newline}]"
    raise TypeError(f"{type(value).__name__} has no place in a payload")


def _result(command: str, status: int, body: dict, markdown: str) -> CommandResult:
    """``body`` in the payload envelope, which alone states the schema, the
    command and the status."""
    payload = {"schema": SCHEMA_VERSION, "command": command, "status": status, **body}
    return CommandResult(status, payload, markdown)


def _error_result(command: str, code: str, message: str, status: int) -> CommandResult:
    return _result(command, status, {"error": {"code": code, "message": message}},
                   f"error ({code}): {message}\n")


def _presentation_dict(ring) -> dict:
    return {
        "generators": [{"name": g, "weight": w}
                       for g, w in zip(ring.generators, ring.weights)],
        "relation": None if ring.relation is None else str(ring.relation),
        "text": ringspec.dumps(ring),
    }


# -- subcommand bodies ----------------------------------------------------------


def _cmd_decompose(args) -> tuple:
    ring = ringspec.load(args.ringspec)
    report = stacky_decompose(ring)
    body = {
        "ring": _presentation_dict(ring),
        "coarse_weights": list(report.coarse_weights),
        "canonical_weights": list(report.coarse_weights),
        "rigidification": _presentation_dict(report.rigidification),
        "gerbe_index": report.gerbe_index,
        "root": {
            "order": report.root_order,
            "divisor": str(report.root_divisor),
            "degree_on_canonical_stack": report.root_divisor_degree,
        },
        "notes": list(report.notes),
    }
    md = [
        f"# Stacky decomposition of {ring.describe()}",
        "",
        f"- coarse space: weighted projective space P{report.coarse_weights}",
        f"- canonical stack: weighted projective stack on {report.coarse_weights}",
        f"- rigidification: {report.rigidification.describe()}",
        f"- gerbe: essentially trivial mu_{report.gerbe_index}-gerbe over the rigidification",
        f"- square root: order {report.root_order} along a divisor of degree "
        f"{report.root_divisor_degree} on the canonical stack",
        f"- divisor: {report.root_divisor}",
        "",
    ]
    md += [f"note: {n}" for n in report.notes]
    return 0, body, "\n".join(md) + "\n"


def _cmd_rigidify(args) -> tuple:
    ring = ringspec.load(args.ringspec)
    rigid, index = rigidify(ring)
    body = {
        "ring": _presentation_dict(ring),
        "rigidification": _presentation_dict(rigid),
        "gerbe_index": index,
    }
    md = (f"# Rigidification of {ring.describe()}\n\n"
          f"- gerbe index: {index} (essentially trivial mu_{index}-gerbe)\n"
          f"- rigidification: {rigid.describe()}\n")
    return 0, body, md


def _cmd_chart(args) -> tuple:
    ring = ringspec.load(args.ringspec)
    chart = affine_chart(ring, args.generator)
    group = f"mu_{chart.modulus}"
    body = {
        "ring": _presentation_dict(ring),
        "chart_generator": chart.chart_generator,
        "automorphism_group": group,
        "modulus": chart.modulus,
        "residual_grading": [{"name": g, "degree": d} for g, d in chart.residual],
    }
    lines = [f"# Affine chart {args.generator} = 1 of {ring.describe()}", "",
             f"- quotient by {group}",
             "- residual Z/{} degrees:".format(chart.modulus)]
    lines += [f"    - {g}: {d}" for g, d in chart.residual]
    return 0, body, "\n".join(lines) + "\n"


def _cmd_stabilizer(args) -> tuple:
    f = form(args.form)
    maximal = catalog_stabilizer(f)
    certificates = [{
        "group": c.group.label,
        "order": c.group.order,
        "scalars": [str(s) for s in c.scalars],
        "generators": [str(g) for g in group_generators(c.group)],
    } for c in maximal]
    labels = [c.group.label for c in maximal]
    body = {"form": str(f), "degree": f.degree,
            "maximal_groups": labels,
            "certificates": certificates}
    lines = [f"# Stabilizer of {body['form']}", "",
             f"maximal catalog groups: {', '.join(labels)}", ""]
    for cert in certificates:
        lines.append(f"## {cert['group']} (order {cert['order']})")
        for g, s in zip(cert["generators"], cert["scalars"]):
            lines.append(f"- {g}: scalar {s}")
        lines.append("")
    return 0, body, "\n".join(lines) + "\n"


def _cmd_ground_forms(args) -> tuple:
    spec = GroupSpec.parse(args.group)
    gf = ground_forms(spec)
    body = {
        "group": spec.label,
        "order": spec.order,
        "forms": [{"form": str(g), "degree": g.degree, "nu": n}
                  for g, n in zip(gf.forms, gf.nu)],
    }
    lines = [f"# Ground forms of {spec.label} (order {spec.order})", ""]
    lines += [f"- F{i+1} = {g['form']}  (degree {g['degree']}, nu = {g['nu']})"
              for i, g in enumerate(body["forms"])]
    return 0, body, "\n".join(lines) + "\n"


def _integer(text: str) -> int:
    """The int an optionally signed ASCII decimal numeral names, read by
    :func:`~stackygit.exprparse.numeral`: the command line's one integer
    reader.  A numeral of more than ``MAX_NUMERAL_DIGITS`` significant
    digits raises CoefficientTooLargeError and any other text ValueError;
    neither message echoes a long text (:func:`~stackygit.errors.excerpt`)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"invalid int value: {excerpt(text)}")
    value = numeral(digits)
    if value is None:
        raise CoefficientTooLargeError(
            f"numeral {excerpt(text)} has more than {MAX_NUMERAL_DIGITS} digits")
    return -value if text[:1] == "-" else value


def _int_argument(text: str) -> int:
    """:func:`_integer` as an argparse type, whose errors argparse reports
    as usage errors with the reader's message."""
    try:
        return _integer(text)
    except (ValueError, CoefficientTooLargeError) as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_pair(text: str):
    lam, _, mu = text.partition(":")
    try:
        return _integer(lam), _integer(mu)
    except ValueError:
        raise ValueError(
            f"parameter pair {excerpt(text)}: expected integers lambda:mu") from None


def _cmd_klein(args) -> tuple:
    spec = GroupSpec.parse(args.group)
    params = [_parse_pair(p) for p in args.params]
    f = klein_generate(spec, args.alpha, args.beta, args.gamma, params)
    cert = semi_invariance(f, spec)
    body = {
        "group": spec.label,
        "exponents": [args.alpha, args.beta, args.gamma],
        "params": [list(p) for p in params],
        "form": str(f),
        "degree": f.degree,
        "semi_invariant": cert is not None,
        "scalars": [str(s) for s in cert.scalars] if cert else [],
    }
    md = (f"# Generated semi-invariant for {spec.label}\n\n"
          f"- form: {body['form']}\n- degree: {body['degree']}\n"
          f"- semi-invariance certificate: "
          f"{', '.join(body['scalars']) or 'none'}\n")
    return 0 if cert else 1, body, md


def _cmd_locus(args) -> tuple:
    report = quintic_locus_report() if args.family == "quintic" \
        else sextic_locus_report()
    claims = report.claims
    lines = [f"# Locus report: {report.family}", ""]
    for c in claims:
        lines += [f"## {c.label} [{c.verdict}]", c.claim, *(f"- {w}" for w in c.witnesses)]
        if c.note:
            lines.append(f"- note: {c.note}")
        lines.append("")
    counts = {verdict: sum(c.verdict == verdict for c in claims)
              for verdict in ("verified", "refuted", "out-of-scope")}
    body = {"family": report.family, "claims": [c._asdict() for c in claims], "counts": counts}
    return 0 if all(c.sound for c in claims) else 1, body, "\n".join(lines) + "\n"


def _cmd_catalog(args) -> tuple:
    entry = catalog_ring(args.family)
    body = {
        "family": entry.family,
        "source": entry.source,
        "ring": _presentation_dict(entry.ring),
        "relation_polynomial": None if entry.F is None else str(entry.F),
        "notes": list(entry.notes),
    }
    md = [f"# Invariant ring: {entry.family}", "",
          f"{entry.source}", "", "```", body["ring"]["text"].rstrip(), "```"]
    md += [f"note: {n}" for n in entry.notes]
    return 0, body, "\n".join(md) + "\n"


def _cmd_calibrate(args) -> tuple:
    result = calibrate_invariants(args.family, seed=args.seed)
    body = {
        "family": args.family,
        "seed": args.seed,
        "succeeded": result.succeeded,
        "scalars": {k: str(v) for k, v in (result.scalars or {}).items()},
        "detail": result.detail,
        "residuals": [list(r) for r in result.residuals],
    }
    md = (f"# Calibration: {args.family}\n\n- outcome: "
          f"{'success' if result.succeeded else 'failure'}\n- {result.detail}\n")
    for k, v in body["scalars"].items():
        md += f"- {k}: {v}\n"
    return 0 if result.succeeded else 1, body, md


def _cmd_verify_all(args) -> tuple:
    from .acceptance import blocking_failures, run_all

    results = run_all(seed=args.seed)
    failures = blocking_failures(results)
    body = {
        "seed": args.seed,
        "checks": [r._asdict() for r in results],
        "blocking_failures": failures,
    }
    lines = [f"# Acceptance suite (seed {args.seed})", ""]
    width = max(len(r.name) for r in results)
    for r in results:
        kind = "blocking" if r.blocking else "stretch"
        word = "pass" if r.passed else "FAIL"
        lines.append(f"{r.criterion:2d}. {r.name:<{width}}  [{word}]  ({kind})")
    lines.append("")
    lines.append(f"blocking failures: {failures}")
    return 0 if failures == 0 else 1, body, "\n".join(lines) + "\n"


class _ParserAnswer(Exception):
    """Carries the finished result of a usage error or a help request as
    its one argument."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises its usage errors and help text instead of printing them, so
    argparse never exits; the subcommand parsers are of the same class.

    Help is formatted at a fixed width of 78 columns, argparse's width on an
    80-column terminal, so that the help payload does not depend on
    ``COLUMNS`` or on the terminal."""

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=78)

    def error(self, message):
        raise _ParserAnswer(
            _error_result("argparse", "usage", f"{self.prog}: error: {message}", 2))

    def print_help(self, file=None):
        text = self.format_help()
        raise _ParserAnswer(_result("argparse", 0, {"help": text}, text))


class _Positional(namedtuple("_Positional", "name type choices nargs help",
                             defaults=(None, None, None, None))):
    """A positional argument: its name and its ``add_argument`` keywords,
    None standing for argparse's default."""

    __slots__ = ()

    def options(self) -> dict:
        return {key: value for key, value in zip(self._fields[1:], self[1:])
                if value is not None}

    def value(self, text: str):
        """``text`` converted and checked as argparse does; a text the
        parser refuses raises ArgumentTypeError or ValueError."""
        value = text if self.type is None else self.type(text)
        if self.choices is not None and value not in self.choices:
            raise ValueError("invalid choice")
        return value


_Command = namedtuple("_Command", "handler help positionals seed", defaults=(False,))
_RING = _Positional("ringspec")
_FAMILY = _Positional("family", choices=("quintic", "sextic"))

#: The command-line grammar: each subcommand's handler, help line and
#: positionals, and whether it takes ``--seed N``; read by
#: :func:`build_parser` and :func:`_plain_args`.
_COMMANDS = {
    "decompose": _Command(_cmd_decompose, "stacky decomposition of a ring spec", (_RING,)),
    "rigidify": _Command(_cmd_rigidify, "rigidification and gerbe index", (_RING,)),
    "chart": _Command(_cmd_chart, "affine chart at a generator",
                      (_RING, _Positional("generator"))),
    "stabilizer": _Command(_cmd_stabilizer, "maximal catalog stabilizer of a form",
                           (_Positional("form"),)),
    "ground-forms": _Command(_cmd_ground_forms, "ground forms and nu values of a group",
                             (_Positional("group"),)),
    "klein": _Command(_cmd_klein, "generate a semi-invariant form", (
        _Positional("group"), _Positional("alpha", _int_argument),
        _Positional("beta", _int_argument), _Positional("gamma", _int_argument),
        _Positional("params", nargs="*", help="parameter pairs lambda:mu"))),
    "locus": _Command(_cmd_locus, "divisor/singularity locus report", (_FAMILY,)),
    "catalog": _Command(_cmd_catalog, "invariant-ring presentation of a family",
                        (_Positional("family"),)),
    "calibrate": _Command(_cmd_calibrate, "transvectant calibration (stretch)",
                          (_FAMILY,), seed=True),
    "verify-all": _Command(_cmd_verify_all, "run the full acceptance suite", (), seed=True),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`_COMMANDS`."""
    parser = _ArgumentParser(
        prog="stackygit", allow_abbrev=False,
        description="Exact stack structures on GIT quotients of graded rings.")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON payload instead of markdown")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for positional in command.positionals:
            p.add_argument(positional.name, **positional.options())
        if command.seed:
            p.add_argument("--seed", type=_int_argument, default=DEFAULT_SEED)
        p.set_defaults(func=command.handler)
    return parser


def _leading_options(argv) -> list:
    """The tokens the parser reads as top-level options: those before the
    subcommand and before any "--"."""
    return list(takewhile(lambda t: t != "--" and t.startswith("-"), argv))


def _is_value(token: str) -> bool:
    """Whether every parser here reads ``token`` as a value: it does not
    start with "-", or it holds a space and starts with neither "--" nor
    "-h" (the only single-dash option)."""
    return token[:1] != "-" or (" " in token and token[1] not in "-h")


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    :data:`_COMMANDS` without argparse; None when ``argv`` is not plain.

    Plain is: at most one leading "--json", a subcommand, then exactly its
    positionals, each a value (:func:`_is_value`); "--seed N" once where
    the subcommand takes it; and where the last positional takes "*", one
    "--" right after the others, followed by no second "--".  Values are
    converted and checked as the parser does, and a value it refuses gives
    None, so argparse alone writes help and usage errors."""
    options = _leading_options(argv)
    if options and options != ["--json"]:
        return None
    start = len(options)
    command = _COMMANDS.get(argv[start]) if start < len(argv) else None
    if command is None:
        return None
    positionals = command.positionals
    variadic = bool(positionals) and positionals[-1].nargs == "*"
    fixed = len(positionals) - variadic
    texts, seed = [], None
    tokens = iter(argv[start + 1:])
    for token in tokens:
        if _is_value(token):
            texts.append(token)
        elif token == "--seed" and command.seed and seed is None:
            seed = next(tokens, "--")
            if not _is_value(seed):
                return None
        elif token == "--" and variadic and len(texts) == fixed:
            rest = list(tokens)
            if "--" in rest:
                return None
            texts += rest
        else:
            return None
    if len(texts) < fixed or (len(texts) > fixed and not variadic):
        return None
    args = argparse.Namespace(json=start == 1, command=argv[start], func=command.handler)
    try:
        for positional, text in zip(positionals[:fixed], texts):
            setattr(args, positional.name, positional.value(text))
        if variadic:
            last = positionals[-1]
            setattr(args, last.name, [last.value(text) for text in texts[fixed:]])
        if command.seed:
            args.seed = DEFAULT_SEED if seed is None else _int_argument(seed)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


def run_command(argv) -> CommandResult:
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except _ParserAnswer as answer:
            return answer.args[0]
    command = args.command
    try:
        return _result(command, *args.func(args))
    except StackygitError as err:
        return _error_result(command, err.code, str(err), err.exit_status)
    except ArithmeticError as err:
        return _error_result(command, ExactArithmeticError.code, str(err),
                             ExactArithmeticError.exit_status)
    except RecursionError as err:  # a backstop: the parser bounds its own nesting
        return _error_result(command, NestingTooDeepError.code, str(err),
                             NestingTooDeepError.exit_status)
    except FileNotFoundError as err:
        return _error_result(command, "file-not-found", _os_error_message(err), 2)
    except OSError as err:
        return _error_result(command, "file-unreadable", _os_error_message(err), 2)
    except ValueError as err:
        return _error_result(command, "bad-value", str(err), 2)


def _os_error_message(err: OSError) -> str:
    """``str(err)`` with the file name cut by :func:`excerpt`."""
    if not isinstance(err.filename, str):
        return str(err)
    return f"[Errno {err.errno}] {err.strerror}: {excerpt(err.filename)}"


def main(argv=None) -> int:
    """Run one command and print its JSON text or markdown.

    A usage error or a help request has no namespace to read ``json``
    from, so ``--json`` is read off the tokens the parser reads as
    top-level options (:func:`_leading_options`), which is also where
    :func:`_plain_args` looks for it."""
    argv = sys.argv[1:] if argv is None else argv
    result = run_command(argv)
    wants_json = "--json" in _leading_options(argv)
    sys.stdout.write(result.json_text() + "\n" if wants_json else result.markdown)
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
