"""Command-line interface.

Every subcommand produces a JSON payload (``--json``) and a markdown
rendering derived from it; exit status 0 means everything verified, 1 a
refuted claim or failed check, 2 bad input, 3 an exceeded internal bound.

The argument parser is built once per process, on the first
:func:`run_command` call, and shared by every later call; it must not be
mutated.  Each parse returns a fresh namespace, so no state passes from one
call to the next.  The parser prints nothing: a usage error answers exit 2
with code ``usage`` and argparse's ``error:`` line as its message, and
``--help`` answers exit 0 with the help text under ``help`` and as the
markdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from . import ringspec
from .errors import ExactArithmeticError, StackygitError
from .exprparse import form
from .graded import affine_chart, rigidify, stacky_decompose
from .groups import GroupSpec, group_generators
from .invariants import DEFAULT_SEED, calibrate_invariants, catalog_ring
from .locus import quintic_locus_report, sextic_locus_report
from .symmetry import catalog_stabilizer, ground_forms, klein_generate, semi_invariance

SCHEMA_VERSION = 1


@dataclass
class CommandResult:
    status: int
    payload: dict
    markdown: str

    def json_text(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2)


def _payload(command: str, body: dict, status: int = 0) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "status": status, **body}


def _error_result(command: str, code: str, message: str, status: int) -> CommandResult:
    payload = _payload(command, {"error": {"code": code, "message": message}}, status)
    return CommandResult(status, payload, f"error ({code}): {message}\n")


def _presentation_dict(ring) -> dict:
    return {
        "generators": [{"name": g, "weight": w}
                       for g, w in zip(ring.generators, ring.weights)],
        "relation": None if ring.relation is None else str(ring.relation),
        "text": ringspec.dumps(ring),
    }


# -- subcommand bodies ----------------------------------------------------------


def _cmd_decompose(args) -> CommandResult:
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
    return CommandResult(0, _payload("decompose", body), "\n".join(md) + "\n")


def _cmd_rigidify(args) -> CommandResult:
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
    return CommandResult(0, _payload("rigidify", body), md)


def _cmd_chart(args) -> CommandResult:
    ring = ringspec.load(args.ringspec)
    chart = affine_chart(ring, args.generator)
    body = {
        "ring": _presentation_dict(ring),
        "chart_generator": chart.chart_generator,
        "automorphism_group": chart.automorphism_group,
        "modulus": chart.modulus,
        "residual_grading": [{"name": g, "degree": d} for g, d in chart.residual],
    }
    lines = [f"# Affine chart {args.generator} = 1 of {ring.describe()}", "",
             f"- quotient by {chart.automorphism_group}",
             "- residual Z/{} degrees:".format(chart.modulus)]
    lines += [f"    - {g}: {d}" for g, d in chart.residual]
    return CommandResult(0, _payload("chart", body), "\n".join(lines) + "\n")


def _cmd_stabilizer(args) -> CommandResult:
    f = form(args.form)
    maximal = catalog_stabilizer(f, n_max=args.nmax)
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
    lines = [f"# Stabilizer of {f}", "",
             f"maximal catalog groups: {', '.join(labels)}", ""]
    for cert in certificates:
        lines.append(f"## {cert['group']} (order {cert['order']})")
        for g, s in zip(cert["generators"], cert["scalars"]):
            lines.append(f"- {g}: scalar {s}")
        lines.append("")
    return CommandResult(0, _payload("stabilizer", body), "\n".join(lines) + "\n")


def _cmd_ground_forms(args) -> CommandResult:
    spec = GroupSpec.parse(args.group)
    gf = ground_forms(spec)
    body = {
        "group": spec.label,
        "order": spec.order,
        "forms": [{"form": str(g), "degree": g.degree, "nu": n}
                  for g, n in zip(gf.forms, gf.nu)],
    }
    lines = [f"# Ground forms of {spec.label} (order {spec.order})", ""]
    lines += [f"- F{i+1} = {g}  (degree {g.degree}, nu = {n})"
              for i, (g, n) in enumerate(zip(gf.forms, gf.nu))]
    return CommandResult(0, _payload("ground-forms", body), "\n".join(lines) + "\n")


def _parse_pair(text: str):
    lam, _, mu = text.partition(":")
    return int(lam), int(mu)


def _cmd_klein(args) -> CommandResult:
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
          f"- form: {f}\n- degree: {f.degree}\n"
          f"- semi-invariance certificate: "
          f"{', '.join(str(s) for s in cert.scalars) if cert else 'none'}\n")
    status = 0 if cert else 1
    return CommandResult(status, _payload("klein", body, status), md)


def _cmd_locus(args) -> CommandResult:
    report = quintic_locus_report() if args.family == "quintic" \
        else sextic_locus_report()
    body = report.as_dict()
    status = 0 if report.all_sound() else 1
    lines = [f"# Locus report: {report.family}", ""]
    for claim in report.claims:
        lines.append(f"## {claim.label} [{claim.verdict}]")
        lines.append(claim.text)
        for w in claim.witnesses:
            lines.append(f"- {w}")
        if claim.note:
            lines.append(f"- note: {claim.note}")
        lines.append("")
    return CommandResult(status, _payload("locus", body, status),
                         "\n".join(lines) + "\n")


def _cmd_catalog(args) -> CommandResult:
    entry = catalog_ring(args.family)
    body = {
        "family": entry.family,
        "source": entry.source,
        "ring": _presentation_dict(entry.ring),
        "relation_polynomial": None if entry.F is None else str(entry.F),
        "notes": list(entry.notes),
    }
    md = [f"# Invariant ring: {entry.family}", "",
          f"{entry.source}", "", "```", ringspec.dumps(entry.ring).rstrip(), "```"]
    md += [f"note: {n}" for n in entry.notes]
    return CommandResult(0, _payload("catalog", body), "\n".join(md) + "\n")


def _cmd_calibrate(args) -> CommandResult:
    result = calibrate_invariants(args.family, seed=args.seed)
    body = {
        "family": args.family,
        "seed": args.seed,
        "succeeded": result.succeeded,
        "scalars": {k: str(v) for k, v in (result.scalars or {}).items()},
        "detail": result.detail,
        "residuals": [list(r) for r in result.residuals],
    }
    status = 0 if result.succeeded else 1
    md = (f"# Calibration: {args.family}\n\n- outcome: "
          f"{'success' if result.succeeded else 'failure'}\n- {result.detail}\n")
    for k, v in (result.scalars or {}).items():
        md += f"- {k}: {v}\n"
    return CommandResult(status, _payload("calibrate", body, status), md)


def _cmd_verify_all(args) -> CommandResult:
    from .acceptance import blocking_failures, run_all

    results = run_all(seed=args.seed)
    failures = blocking_failures(results)
    status = 0 if failures == 0 else 1
    body = {
        "seed": args.seed,
        "checks": [r.as_dict() for r in results],
        "blocking_failures": failures,
    }
    lines = [f"# Acceptance suite (seed {args.seed})", ""]
    width = max(len(r.name) for r in results)
    for r in results:
        kind = "blocking" if r.blocking else "stretch"
        lines.append(f"{r.criterion:2d}. {r.name:<{width}}  [{r.status}]  ({kind})")
    lines.append("")
    lines.append(f"blocking failures: {failures}")
    if args.verbose:
        lines.append("")
        for r in results:
            lines.append(f"## {r.criterion}. {r.name}")
            lines.extend(f"- {d}" for d in r.details)
            lines.append("")
    return CommandResult(status, _payload("verify-all", body, status),
                         "\n".join(lines) + "\n")


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Raises its usage errors and help text instead of printing them, so
    argparse never exits; the subcommand parsers are of the same class.

    Help is formatted at a fixed width of 78 columns, argparse's width on an
    80-column terminal, so that the help payload does not depend on
    ``COLUMNS`` or on the terminal."""

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=78)

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="stackygit",
        description="Exact stack structures on GIT quotients of graded rings.")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON payload instead of markdown")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="stacky decomposition of a ring spec")
    p.add_argument("ringspec")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("rigidify", help="rigidification and gerbe index")
    p.add_argument("ringspec")
    p.set_defaults(func=_cmd_rigidify)

    p = sub.add_parser("chart", help="affine chart at a generator")
    p.add_argument("ringspec")
    p.add_argument("generator")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("stabilizer", help="maximal catalog stabilizer of a form")
    p.add_argument("form")
    p.add_argument("--nmax", type=int, default=None,
                   help="bound for the cyclic/dihedral candidates (default: degree)")
    p.set_defaults(func=_cmd_stabilizer)

    p = sub.add_parser("ground-forms", help="ground forms and nu values of a group")
    p.add_argument("group")
    p.set_defaults(func=_cmd_ground_forms)

    p = sub.add_parser("klein", help="generate a semi-invariant form")
    p.add_argument("group")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("gamma", type=int)
    p.add_argument("params", nargs="*", help="parameter pairs lambda:mu")
    p.set_defaults(func=_cmd_klein)

    p = sub.add_parser("locus", help="divisor/singularity locus report")
    p.add_argument("family", choices=["quintic", "sextic"])
    p.set_defaults(func=_cmd_locus)

    p = sub.add_parser("catalog", help="invariant-ring presentation of a family")
    p.add_argument("family")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("calibrate", help="transvectant calibration (stretch)")
    p.add_argument("family", choices=["quintic", "sextic"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def run_command(argv) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        return _error_result("argparse", "usage", str(err), 2)
    except _HelpRequested as text:
        return CommandResult(0, _payload("argparse", {"help": str(text)}), str(text))
    command = args.command
    try:
        return args.func(args)
    except StackygitError as err:
        return _error_result(command, err.code, str(err), err.exit_status)
    except ArithmeticError as err:
        return _error_result(command, ExactArithmeticError.code, str(err),
                             ExactArithmeticError.exit_status)
    except FileNotFoundError as err:
        return _error_result(command, "file-not-found", str(err), 2)
    except OSError as err:
        return _error_result(command, "file-unreadable", str(err), 2)
    except ValueError as err:
        return _error_result(command, "bad-value", str(err), 2)


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    wants_json = "--json" in (sys.argv[1:] if argv is None else argv)
    sys.stdout.write(result.json_text() + "\n" if wants_json else result.markdown)
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
