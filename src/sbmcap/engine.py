"""End-to-end capital computation and report rendering.

compute_capital wires the pipeline together: collect bump-and-revalue
sensitivities, net them per risk factor, and hand them to
aggregation.scenario_envelope, which weights each factor once and aggregates
per bucket and risk class under each requested correlation scenario. The
worst scenario total is the capital requirement. CapitalReport wraps the
aggregation's result hierarchy (scenario, class, bucket, factor rows) with the
run's metadata and warnings, so every intermediate quantity (s_k, RW_k, WS_k,
K_b, S_b, the cross-bucket correlations used) is there for an auditor to
replay the aggregation by hand.

The report and its results are NamedTuples, and the hierarchical form is
derived from their ``_fields``: each field is a key of the same name, except
ScenarioResult.classes, written as "risk_classes" (``_JSON_KEYS``). Results
become objects, other tuples lists, and scenario and class dicts keep their
token keys. Parsing walks the same fields back with their annotations and
the rulebook's typed readers, names the path of a value it rejects, treats
a field in ``_field_defaults`` as optional, reads a ``Literal[1]`` field
(the ``schema_version``) as that integer alone, and puts scenarios and
classes in enum order. Rendering and parsing back gives an equal report, and
identical inputs give byte-identical output.

The harness reads its case sets and candidate files with the same reader
(``_decoder``), which raises the error class its caller names, and writes
them with the same writer (``_json_text``). Three annotations occur only
there: an Enum field reads its token, an ``int | float`` field a finite
number kept as an int when integral, and an Instrument a portfolio-file row.

This module's own JSON writer gives the bytes ``json.dumps(indent=2,
sort_keys=True, allow_nan=False)`` gives for the report as plain dicts and
lists: keys sorted, floats as ``float.__repr__``, strings escaped to ASCII,
and a NaN or infinity raising ValueError. The scenarios share their factor
rows, and the writer writes each result once per render.
"""

from __future__ import annotations

import functools
import math
import typing
from enum import Enum
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Literal, NamedTuple

from .aggregation import ScenarioResult, scenario_envelope
from .portfolio import Instrument, IssuerInfo, MarketData, Portfolio, PortfolioError, instrument_from_dict
from .rulebook import (
    CorrelationScenario, JSONFieldError, RiskClass, Rulebook, _parse_json_object, _prefixed, _read_literal,
    read_bool, read_finite, read_integer, read_list, read_object, read_string,
)
from .sensitivities import collect_sensitivities

REPORT_FORMATS = ("hierarchical", "tabular", "human")


class ReportFormatError(Exception):
    """Unknown render format or unparseable report text."""


class CapitalReport(NamedTuple):
    """Full audit trail of one capital computation; scenarios keyed by scenario token."""

    rulebook_version: str
    reporting_currency: str
    scenario_mode: str
    scenarios: dict[str, ScenarioResult]
    total_capital: float
    as_of: str | None = None
    warnings: tuple[str, ...] = ()
    schema_version: Literal[1] = 1


# dataclasses.replace(report, **changes), which the benchmark's self-test calls, reads the name, init and
# _field_type of each entry and calls CapitalReport(**fields); _replace is the tuple's own way.
CapitalReport.__dataclass_fields__ = {  # type: ignore[attr-defined]
    name: SimpleNamespace(name=name, init=True, _field_type=None) for name in CapitalReport._fields
}

# The one result field whose JSON key is not its name.
_JSON_KEYS = {(ScenarioResult, "classes"): "risk_classes"}


@functools.cache
def _decoder(tp: Any, error: type[Exception]) -> Callable[..., Any]:
    """Reader of the JSON form of a ``tp``, called as the rulebook's ``read_*`` are; a record prefixes its errors.

    What a reader rejects is raised as ``error``, each path prefix added on the way out.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp == Instrument:  # a position is its portfolio-file row
        errors = (error, PortfolioError)
        return lambda value, field, key=None: _prefixed(field, instrument_from_dict, value, errors, key)
    if origin is tuple:
        item = _decoder(args[0], error)
        return lambda value, field, key=None: tuple([item(x, field, i) for i, x in enumerate(read_list(value, field, key))])
    if origin is dict:
        item = _decoder(args[1], error)
        return lambda value, field, key=None: {
            k: item(x, field, k) for k, x in sorted(read_object(value, field, key).items(), key=_member_rank)
        }
    if hasattr(tp, "_fields"):
        hints = typing.get_type_hints(tp)
        optional = tp._field_defaults
        fields = [(name, _JSON_KEYS.get((tp, name), name), _decoder(hints[name], error), name not in optional)
                  for name in hints]

        def build(data: dict[str, Any]) -> Any:
            return tp(**{name: dec(data[key], key) for name, key, dec, required in fields if required or key in data})

        errors = (error,)
        return lambda value, field, key=None: _prefixed(field, build, read_object(value, field, key), errors, key)
    if type(None) in args:  # X | None
        rest = tuple(arg for arg in args if arg is not type(None))
        read = _decoder(rest[0] if len(rest) == 1 else typing.Union[rest], error)
        return lambda value, field, key=None: None if value is None else read(value, field, key)
    if origin is Literal:  # the one integer the field takes, such as a schema_version of 1
        return functools.partial(_read_literal, literal=args[0])
    if args == (int, float):  # a finite number, kept as an int when integral
        def read_number(value: Any, field: str, key: Any = None) -> int | float:
            number = read_finite(value, field, key)
            return int(number) if number.is_integer() else number

        return read_number
    if isinstance(tp, type) and issubclass(tp, Enum):  # a member, read from its token
        kind = "one of " + ", ".join(member.value for member in tp)

        def read_token(value: Any, field: str, key: Any = None) -> Any:
            try:
                return tp(value)
            except ValueError:
                raise JSONFieldError(field, kind, value, key) from None

        return read_token
    return {float: read_finite, int: read_integer, str: read_string, bool: read_bool}[tp]


# Scenario and class dicts are parsed back in enum order; unknown tokens go last.
_TOKEN_RANK = {token.value: i for i, token in enumerate((*CorrelationScenario, *RiskClass))}


def _member_rank(member: tuple[str, Any]) -> int:
    return _TOKEN_RANK.get(member[0], len(_TOKEN_RANK))


def compute_capital(
    p: Portfolio,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    rb: Rulebook,
    scenario: CorrelationScenario | None = None,
    classes: Iterable[RiskClass] | None = None,
) -> CapitalReport:
    """Compute the delta capital requirement for a portfolio.

    ``scenario=None`` runs all three correlation scenarios and takes the
    envelope (maximum) total; passing a scenario pins the computation to it.
    ``classes`` optionally restricts the computation to a subset of risk
    classes. Instrument-level failures surface as SensitivityError listing
    every failing position.
    """
    records, collected = collect_sensitivities(p, md, registry, rb)
    class_filter = set(classes) if classes is not None else None
    by_class: dict[RiskClass, list] = {}
    for rec in records:
        if class_filter is None or rec.key.risk_class in class_filter:
            by_class.setdefault(rec.key.risk_class, []).append(rec)

    total, scenarios = scenario_envelope(by_class, rb, tuple(CorrelationScenario) if scenario is None else (scenario,))
    messages = list(collected)
    if p.as_of and md.as_of and p.as_of != md.as_of:  # the report is dated by the portfolio
        messages.insert(0, f"portfolio as_of {p.as_of} differs from market as_of {md.as_of}")
    for sc_token, result in scenarios.items():
        messages.extend(
            f"{rc_token}: cross-bucket quadratic form was negative under scenario {sc_token}; "
            f"net bucket positions clamped to [-K_b, K_b]"
            for rc_token, cls in result.classes.items()
            if cls.fallback_engaged
        )
    return CapitalReport(
        rulebook_version=rb.version,
        reporting_currency=md.reporting_currency,
        as_of=p.as_of or md.as_of,
        scenario_mode="envelope" if scenario is None else scenario.value,
        scenarios=scenarios,
        total_capital=total,
        warnings=tuple(dict.fromkeys(messages)),
    )


def render_report(report: CapitalReport, fmt: str = "hierarchical") -> str:
    """Render a report; 'hierarchical' is lossless and machine-parseable."""
    if fmt == "hierarchical":
        return _json_text(report, "\n", {}) + "\n"
    if fmt == "tabular":
        return _render_tabular(report)
    if fmt == "human":
        return _render_human(report)
    raise ReportFormatError(f"unknown report format {fmt!r}; choose from {', '.join(REPORT_FORMATS)}")


def _json_text(value: Any, nl: str, written: dict[tuple[int, str], str]) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True, allow_nan=False) writes it, ``nl`` opening its lines.

    A result record is written as the object of its fields, and ``written``
    keeps the text of each one by (id, nl), so a record the report holds in
    several places is written once per render. Records are tuples, so they
    are told apart from lists before tuples are.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if hasattr(value, "_fields"):
        key = (id(value), nl)
        text = written.get(key)
        if text is None:
            fields = [(json_key, getattr(value, name)) for json_key, name in _json_fields(type(value))]
            text = written[key] = _json_object(fields, nl, written)
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json_text(x, inner, written) for x in value]) + nl + "]"
    if isinstance(value, dict):
        return _json_object([(_json_key(k), v) for k, v in sorted(value.items())], nl, written)
    for base, write in _SCALARS.items():
        if isinstance(value, base):  # a subclass, such as the str enums RiskClass and CorrelationScenario
            return write(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_object(members: list[tuple[str, Any]], nl: str, written: dict[tuple[int, str], str]) -> str:
    if not members:
        return "{}"
    inner = nl + "  "
    return "{" + inner + ("," + inner).join([k + ": " + _json_text(v, inner, written) for k, v in members]) + nl + "}"


def _json_float(value: float) -> str:
    # A last guard, since compute_capital raises before any NaN or infinity reaches a report.
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# JSON text of each scalar type; json.dumps writes a subclass as its base.
_SCALARS: dict[type, Callable[[Any], str]] = {
    float: _json_float,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_key(key: Any) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(_json_text(key, "", {}))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(quoted JSON key, attribute) of each field of a result record, in key order."""
    keys = sorted((_JSON_KEYS.get((cls, name), name), name) for name in cls._fields)
    return tuple((encode_basestring_ascii(key), name) for key, name in keys)


def parse_report(text: str) -> CapitalReport:
    """Inverse of the hierarchical renderer; each error names the path of the value it rejects."""
    label = "not a valid hierarchical capital report"
    return _decoder(CapitalReport, ReportFormatError)(_parse_json_object(text, ReportFormatError, label), label)


def _render_tabular(report: CapitalReport) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["scenario", "risk_class", "bucket", "k_b", "s_b_net", "s_b_effective", "class_charge", "fallback_engaged"]
    )
    writer.writerows(
        [token, rc_token, b.bucket, repr(b.k_b), repr(b.s_b_net), repr(b.s_b_effective), repr(cls.charge),
         str(cls.fallback_engaged).lower()]
        for token, sc in report.scenarios.items()
        for rc_token, cls in sc.classes.items()
        for b in cls.buckets
    )
    return out.getvalue()


def _render_human(report: CapitalReport) -> str:
    lines = [
        f"Delta capital report ({report.reporting_currency}, rulebook: {report.rulebook_version})",
        f"As of: {report.as_of or 'n/a'}    scenario mode: {report.scenario_mode}",
        "",
    ]
    for token, sc in report.scenarios.items():
        lines.append(f"scenario {token}: total {sc.total:,.2f}")
        for rc_token, cls in sc.classes.items():
            flag = "  [fallback: net positions clamped]" if cls.fallback_engaged else ""
            lines.append(f"  {rc_token:<10} charge {cls.charge:,.2f}{flag}")
            for b in cls.buckets:
                lines.append(
                    f"    bucket {b.bucket:>3}  K_b {b.k_b:,.2f}  S_b {b.s_b_net:,.2f}"
                    + (f"  S_b_eff {b.s_b_effective:,.2f}" if b.s_b_effective != b.s_b_net else "")
                )
                for f in b.factors:
                    tenor = f" @ {f.tenor:g}y" if f.tenor is not None else ""
                    lines.append(
                        f"      {f.name}{tenor}: s {f.sensitivity:,.2f} x rw {f.risk_weight:g} = ws {f.weighted_sensitivity:,.2f}"
                    )
        lines.append("")
    lines.append(f"Capital requirement: {report.total_capital:,.2f} {report.reporting_currency}")
    if report.warnings:
        lines.append("Warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    else:
        lines.append("Warnings: none")
    return "\n".join(lines) + "\n"
