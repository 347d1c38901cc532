"""Command line interface.

Exit codes: 0 on success, 1 on input or usage errors, 2 when rulebook
validation fails. Warnings are echoed to stderr and also recorded in the
rendered report. The only environment variable honored is SBMCAP_OUT_DIR,
which, when set, prefixes relative --out paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .aggregation import AggregationError
from .engine import REPORT_FORMATS, compute_capital, render_report
from .portfolio import PortfolioError, load_market_data, load_portfolio, load_registry
from .rulebook import (
    CorrelationScenario,
    RiskClass,
    RulebookError,
    RulebookValidationError,
    load_rulebook,
)
from .sensitivities import SensitivityError, collect_sensitivities

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RULEBOOK_INVALID = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this CLI reserves 2 for
    # rulebook validation failures, so usage problems become exit 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sbmcap", description="Sensitivities-based delta capital engine and scoring harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", parents=[], help="compute the capital requirement for a portfolio")
    _add_market_inputs(compute)
    compute.add_argument("--portfolio", required=True, help="portfolio file (CSV or JSON)")
    compute.add_argument(
        "--scenario",
        default="envelope",
        choices=["low", "medium", "high", "envelope"],
        help="correlation scenario; 'envelope' runs all three and takes the max (default)",
    )
    compute.add_argument("--classes", default=None, help="comma-separated risk class filter (girr,equity,fx,commodity)")
    compute.add_argument("--format", default="human", choices=list(REPORT_FORMATS), help="report rendering")
    compute.add_argument("--out", default=None, help="write the report here instead of stdout")

    validate = sub.add_parser("validate-rulebook", help="validate a rulebook file")
    validate.add_argument("--rulebook", required=True, help="rulebook JSON file")

    score = sub.add_parser("score", help="score candidate extraction answers against a case set")
    score.add_argument("--cases", required=True, help="reference case set (from gen-cases)")
    score.add_argument("--candidate", required=True, help="candidate answers JSON")
    # None stands for the harness.Tolerances default, filled in by _cmd_score,
    # so that building the parser does not import the harness.
    score.add_argument("--weight-tol", type=float, default=None)
    score.add_argument("--corr-tol", type=float, default=None)
    score.add_argument("--mcr-rel-tol", type=float, default=None)
    score.add_argument("--format", default="human", choices=["human", "hierarchical"])
    score.add_argument("--out", default=None)

    gen = sub.add_parser("gen-cases", help="generate a seeded scoring case set")
    _add_market_inputs(gen)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, required=True, help="number of cases")
    gen.add_argument("--out", default=None, help="write the case set here instead of stdout")
    gen.add_argument(
        "--emit-reference-candidate",
        default=None,
        metavar="PATH",
        help="also write the reference answers as a perfect candidate file",
    )

    prompt = sub.add_parser("render-prompt", help="render a five-element prompt spec to text")
    prompt.add_argument("--spec", required=True, help="JSON with role, input, goal, method, significance")
    prompt.add_argument("--out", default=None)

    dump = sub.add_parser("dump-sensitivities", help="dump netted sensitivities as CSV")
    _add_market_inputs(dump)
    dump.add_argument("--portfolio", required=True, help="portfolio file (CSV or JSON)")
    dump.add_argument("--out", default=None)

    return parser


def _add_market_inputs(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--rulebook", required=True, help="rulebook JSON file")
    sub_parser.add_argument("--market", required=True, help="market data JSON file")
    sub_parser.add_argument("--registry", required=True, help="issuer registry JSON file")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RulebookValidationError as exc:
        print("rulebook validation failed:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_RULEBOOK_INVALID
    except (RulebookError, PortfolioError, SensitivityError, AggregationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "compute":
        return _cmd_compute(args)
    if args.command == "validate-rulebook":
        return _cmd_validate(args)
    if args.command in _HARNESS_COMMANDS:
        from . import harness

        try:
            return _HARNESS_COMMANDS[args.command](args)
        except harness.HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if args.command == "dump-sensitivities":
        return _cmd_dump_sensitivities(args)
    raise _UsageError(f"sbmcap: unknown command {args.command!r}")


def _cmd_compute(args: argparse.Namespace) -> int:
    rb = load_rulebook(args.rulebook)
    p = load_portfolio(args.portfolio)
    md = load_market_data(args.market)
    registry = load_registry(args.registry)
    scenario = None if args.scenario == "envelope" else CorrelationScenario(args.scenario)
    classes = _parse_classes(args.classes)
    report = compute_capital(p, md, registry, rb, scenario=scenario, classes=classes)
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    _emit(render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    rb = load_rulebook(args.rulebook)  # raises on parse or validation problems
    by_class = {rc.value: len(rb.buckets_for(rc)) for rc in RiskClass}
    counts = ", ".join(f"{token}: {count}" for token, count in by_class.items())
    print(f"rulebook OK ({rb.version}); buckets {counts}")
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    from . import harness

    case_set = harness.load_cases(args.cases)
    candidate = harness.load_candidate(args.candidate)
    given = {"weight_tol": args.weight_tol, "corr_tol": args.corr_tol, "mcr_rel_tol": args.mcr_rel_tol}
    tolerances = harness.Tolerances(**{name: tol for name, tol in given.items() if tol is not None})
    report = harness.score_extraction(candidate, case_set, tolerances)
    _emit(harness.render_score_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_gen_cases(args: argparse.Namespace) -> int:
    from . import harness

    rb = load_rulebook(args.rulebook)
    md = load_market_data(args.market)
    registry = load_registry(args.registry)
    case_set = harness.generate_cases(args.seed, args.n, rb, md, registry)
    text = json.dumps(case_set.to_dict(), indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    if args.emit_reference_candidate:
        answers = harness.reference_candidate(case_set)
        candidate_text = json.dumps(harness.candidate_to_dict(answers, "reference"), indent=2, sort_keys=True) + "\n"
        _emit(candidate_text, args.emit_reference_candidate)
    return EXIT_OK


def _cmd_render_prompt(args: argparse.Namespace) -> int:
    from . import harness

    _emit(harness.render_prompt(harness.load_prompt_spec(args.spec)), args.out)
    return EXIT_OK


# The commands that use the harness: only these import it.
_HARNESS_COMMANDS = {"score": _cmd_score, "gen-cases": _cmd_gen_cases, "render-prompt": _cmd_render_prompt}


def _cmd_dump_sensitivities(args: argparse.Namespace) -> int:
    import csv
    import io

    rb = load_rulebook(args.rulebook)
    p = load_portfolio(args.portfolio)
    md = load_market_data(args.market)
    registry = load_registry(args.registry)
    records, messages = collect_sensitivities(p, md, registry, rb)
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["risk_class", "bucket", "name", "tenor", "value"])
    for rec in records:
        tenor = "" if rec.key.tenor is None else repr(rec.key.tenor)
        writer.writerow([rec.key.risk_class.value, rec.key.bucket, rec.key.name, tenor, repr(rec.value)])
    _emit(out.getvalue(), args.out)
    return EXIT_OK


def _parse_classes(raw: str | None) -> list[RiskClass] | None:
    if raw is None:
        return None
    classes = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            classes.append(RiskClass(token))
        except ValueError:
            valid = ", ".join(rc.value for rc in RiskClass)
            raise _UsageError(f"sbmcap compute: --classes: unknown risk class {token!r} (choose from {valid})") from None
    if not classes:
        raise _UsageError("sbmcap compute: --classes: no risk classes given")
    return classes


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    base = os.environ.get("SBMCAP_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
