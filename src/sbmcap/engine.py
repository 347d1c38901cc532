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

The hierarchical (dict and JSON) form is derived from the dataclass fields:
each field is a key of the same name, except where a field declares a
``json_key`` in its metadata. Nested results become objects, tuples become
lists, and scenario and class dicts keep their token keys. Parsing walks the
same fields back, checks each value's type, and puts scenarios and classes
in enum order. Reports are value objects: rendering to the hierarchical
format and parsing back reproduces an equal report, and identical inputs
produce byte-identical rendered output (no timestamps, stable ordering,
shortest-repr floats).

The hierarchical text is written by this module's own JSON writer, straight
from the result dataclasses, with no dict form in between. Its bytes are
those of ``json.dumps(report.to_dict(), indent=2, sort_keys=True,
allow_nan=False)``, which the tests keep as the oracle: keys sorted, floats
as ``float.__repr__``, strings escaped to ASCII, and a NaN or infinity
raising ValueError. The envelope's scenarios share their factor rows, and
the writer writes each result object once per render and reuses its text.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable

from .aggregation import ScenarioResult, scenario_envelope
from .portfolio import IssuerInfo, MarketData, Portfolio
from .rulebook import CorrelationScenario, RiskClass, Rulebook
from .sensitivities import collect_sensitivities

REPORT_FORMATS = ("hierarchical", "tabular", "human")


class ReportFormatError(Exception):
    """Unknown render format or unparseable report text."""


@dataclass(frozen=True)
class CapitalReport:
    """Full audit trail of one capital computation; scenarios keyed by scenario token."""

    rulebook_version: str
    reporting_currency: str
    scenario_mode: str
    scenarios: dict[str, ScenarioResult]
    total_capital: float
    as_of: str | None = None
    warnings: tuple[str, ...] = ()
    schema_version: int = 1

    def to_dict(self) -> dict[str, Any]:
        return _encoder(CapitalReport)(self)


def report_from_dict(data: dict[str, Any]) -> CapitalReport:
    """Rebuild a CapitalReport from its hierarchical dict form."""
    try:
        return _decoder(CapitalReport)(data)
    except (KeyError, TypeError) as exc:
        raise ReportFormatError(f"not a valid hierarchical capital report: {exc}") from None


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(attribute, JSON key, type, required) of each field of a result dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.metadata.get("json_key", f.name),
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _encoder(tp: Any) -> Callable[[Any], Any] | None:
    """Function from a value of type ``tp`` to its dict form; None if the value is already plain."""
    origin = typing.get_origin(tp)
    if origin is tuple:
        item = _encoder(typing.get_args(tp)[0])
        return list if item is None else lambda value: [item(x) for x in value]
    if origin is dict:
        item = _encoder(typing.get_args(tp)[1])
        return dict if item is None else lambda value: {k: item(x) for k, x in value.items()}
    if dataclasses.is_dataclass(tp):
        # A result's __dict__ holds exactly its fields: copy it, then convert
        # the fields that need it and rename those with a json_key.
        moved = [(name, key, enc) for name, key, hint, _ in _fields(tp) if (enc := _encoder(hint)) or key != name]

        def encode(value: Any) -> dict[str, Any]:
            out = value.__dict__.copy()
            for name, key, enc in moved:
                item = out.pop(name)
                out[key] = enc(item) if enc else item
            return out

        return encode
    return None


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """Inverse of _encoder(tp); raises KeyError or TypeError on a malformed dict form."""
    origin = typing.get_origin(tp)
    if origin is tuple:
        item = _decoder(typing.get_args(tp)[0])
        return lambda value: tuple(item(x) for x in _checked(value, (list,)))
    if origin is dict:
        item = _decoder(typing.get_args(tp)[1])
        return lambda value: {k: item(value[k]) for k in sorted(_checked(value, (dict,)), key=_token_rank)}
    if dataclasses.is_dataclass(tp):
        fields = [(name, key, _decoder(hint), required) for name, key, hint, required in _fields(tp)]

        def decode(value: Any) -> Any:
            _checked(value, (dict,))
            return tp(**{name: dec(value[key]) for name, key, dec, required in fields if required or key in value})

        return decode
    allowed = tuple(t for arg in typing.get_args(tp) or (tp,) for t in _SCALAR_TYPES[arg])
    return lambda value: _checked(value, allowed)


# JSON types accepted for each scalar field type; JSON integers are valid floats.
_SCALAR_TYPES = {float: (float, int), int: (int,), str: (str,), bool: (bool,), type(None): (type(None),)}

# Scenario and class dicts are parsed back in enum order; unknown tokens go last.
_TOKEN_RANK = {token.value: i for i, token in enumerate((*CorrelationScenario, *RiskClass))}


def _token_rank(token: str) -> int:
    return _TOKEN_RANK.get(token, len(_TOKEN_RANK))


def _checked(value: Any, types: tuple[type, ...]) -> Any:
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


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

    A dataclass is written as the object of its fields, and ``written`` keeps
    the text of each one by (id, nl), so an object the report holds in
    several places is written once per render.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
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
    key = (id(value), nl)
    text = written.get(key)
    if text is None:
        fields = [(json_key, getattr(value, name)) for json_key, name in _json_fields(type(value))]
        text = written[key] = _json_object(fields, nl, written)
    return text


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
    """(quoted JSON key, attribute) of each field of a result dataclass, in key order."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    keys = sorted((f.metadata.get("json_key", f.name), f.name) for f in dataclasses.fields(cls))
    return tuple((encode_basestring_ascii(key), name) for key, name in keys)


def parse_report(text: str) -> CapitalReport:
    """Inverse of the hierarchical renderer."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"invalid report JSON: {exc.msg} at line {exc.lineno}") from None
    if not isinstance(data, dict):
        raise ReportFormatError("report text must be a JSON object")
    return report_from_dict(data)


def _render_tabular(report: CapitalReport) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["scenario", "risk_class", "bucket", "k_b", "s_b_net", "s_b_effective", "class_charge", "fallback_engaged"]
    )
    for token, sc in report.scenarios.items():
        for rc_token, cls in sc.classes.items():
            for b in cls.buckets:
                writer.writerow(
                    [
                        token,
                        rc_token,
                        b.bucket,
                        repr(b.k_b),
                        repr(b.s_b_net),
                        repr(b.s_b_effective),
                        repr(cls.charge),
                        str(cls.fallback_engaged).lower(),
                    ]
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
