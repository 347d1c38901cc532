"""End-to-end capital computation and report rendering.

compute_capital wires the pipeline together: collect bump-and-revalue
sensitivities, net them per risk factor, aggregate per bucket and risk class
under each requested correlation scenario, and take the worst scenario total
as the capital requirement. The report keeps every intermediate quantity
(s_k, RW_k, WS_k, K_b, S_b, the cross-bucket correlations used) so a reviewer
can replay the aggregation by hand.

Reports are value objects: rendering to the hierarchical format and parsing
back reproduces an equal report, and identical inputs produce byte-identical
rendered output (no timestamps, stable ordering, shortest-repr floats).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .aggregation import ClassDeltaResult, scenario_envelope
from .portfolio import IssuerInfo, MarketData, Portfolio
from .rulebook import CorrelationScenario, RiskClass, Rulebook
from .sensitivities import collect_with_warnings

REPORT_FORMATS = ("hierarchical", "tabular", "human")

_SCENARIO_ORDER = (CorrelationScenario.LOW, CorrelationScenario.MEDIUM, CorrelationScenario.HIGH)


class ReportFormatError(Exception):
    """Unknown render format or unparseable report text."""


@dataclass(frozen=True)
class FactorRow:
    """One netted risk factor inside a bucket."""

    name: str
    tenor: float | None
    sensitivity: float
    risk_weight: float
    weighted_sensitivity: float


@dataclass(frozen=True)
class BucketReport:
    bucket: int
    k_b: float
    s_b_net: float
    s_b_effective: float
    factors: tuple[FactorRow, ...]


@dataclass(frozen=True)
class ClassReport:
    charge: float
    fallback_engaged: bool
    buckets: tuple[BucketReport, ...]
    cross_correlations: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class ScenarioReport:
    total: float
    classes: dict[str, ClassReport] = field(default_factory=dict)


@dataclass(frozen=True)
class CapitalReport:
    """Full audit trail of one capital computation."""

    rulebook_version: str
    reporting_currency: str
    scenario_mode: str
    scenarios: dict[str, ScenarioReport]
    total_capital: float
    as_of: str | None = None
    warnings: tuple[str, ...] = ()
    schema_version: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "rulebook_version": self.rulebook_version,
            "reporting_currency": self.reporting_currency,
            "as_of": self.as_of,
            "scenario_mode": self.scenario_mode,
            "total_capital": self.total_capital,
            "warnings": list(self.warnings),
            "scenarios": {
                token: {
                    "total": sc.total,
                    "risk_classes": {
                        rc_token: {
                            "charge": cls.charge,
                            "fallback_engaged": cls.fallback_engaged,
                            "cross_correlations": [
                                {"bucket_b": b, "bucket_c": c, "gamma": g} for b, c, g in cls.cross_correlations
                            ],
                            "buckets": [
                                {
                                    "bucket": br.bucket,
                                    "k_b": br.k_b,
                                    "s_b_net": br.s_b_net,
                                    "s_b_effective": br.s_b_effective,
                                    "factors": [
                                        {
                                            "name": f.name,
                                            "tenor": f.tenor,
                                            "sensitivity": f.sensitivity,
                                            "risk_weight": f.risk_weight,
                                            "weighted_sensitivity": f.weighted_sensitivity,
                                        }
                                        for f in br.factors
                                    ],
                                }
                                for br in cls.buckets
                            ],
                        }
                        for rc_token, cls in sc.classes.items()
                    },
                }
                for token, sc in self.scenarios.items()
            },
        }


def report_from_dict(data: dict[str, Any]) -> CapitalReport:
    """Rebuild a CapitalReport from its hierarchical dict form."""
    try:
        scenarios: dict[str, ScenarioReport] = {}
        for token in sorted(data["scenarios"], key=_scenario_sort):
            raw_scenario = data["scenarios"][token]
            classes: dict[str, ClassReport] = {}
            for rc_token in sorted(raw_scenario["risk_classes"], key=_class_sort):
                raw_class = raw_scenario["risk_classes"][rc_token]
                classes[rc_token] = ClassReport(
                    charge=raw_class["charge"],
                    fallback_engaged=raw_class["fallback_engaged"],
                    cross_correlations=tuple(
                        (row["bucket_b"], row["bucket_c"], row["gamma"]) for row in raw_class["cross_correlations"]
                    ),
                    buckets=tuple(
                        BucketReport(
                            bucket=raw_bucket["bucket"],
                            k_b=raw_bucket["k_b"],
                            s_b_net=raw_bucket["s_b_net"],
                            s_b_effective=raw_bucket["s_b_effective"],
                            factors=tuple(
                                FactorRow(
                                    name=raw_factor["name"],
                                    tenor=raw_factor["tenor"],
                                    sensitivity=raw_factor["sensitivity"],
                                    risk_weight=raw_factor["risk_weight"],
                                    weighted_sensitivity=raw_factor["weighted_sensitivity"],
                                )
                                for raw_factor in raw_bucket["factors"]
                            ),
                        )
                        for raw_bucket in raw_class["buckets"]
                    ),
                )
            scenarios[token] = ScenarioReport(total=raw_scenario["total"], classes=classes)
        return CapitalReport(
            schema_version=data.get("schema_version", 1),
            rulebook_version=data["rulebook_version"],
            reporting_currency=data["reporting_currency"],
            as_of=data.get("as_of"),
            scenario_mode=data["scenario_mode"],
            scenarios=scenarios,
            total_capital=data["total_capital"],
            warnings=tuple(data.get("warnings", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ReportFormatError(f"not a valid hierarchical capital report: {exc}") from None


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
    records, collected = collect_with_warnings(p, md, registry, rb)
    class_filter = set(classes) if classes is not None else None
    by_class: dict[RiskClass, list] = {}
    for rec in records:
        if class_filter is None or rec.key.risk_class in class_filter:
            by_class.setdefault(rec.key.risk_class, []).append(rec)

    scenarios = _SCENARIO_ORDER if scenario is None else (scenario,)
    envelope = scenario_envelope(by_class, rb, scenarios)

    messages = list(collected)
    scenario_reports: dict[str, ScenarioReport] = {}
    for sc in scenarios:
        outcome = envelope.scenarios[sc]
        class_reports = {
            rc.value: _class_report(outcome.classes[rc]) for rc in RiskClass if rc in outcome.classes
        }
        for rc in RiskClass:
            if rc in outcome.classes and outcome.classes[rc].fallback_engaged:
                messages.append(
                    f"{rc.value}: cross-bucket quadratic form was negative under scenario {sc.value}; "
                    f"net bucket positions clamped to [-K_b, K_b]"
                )
        scenario_reports[sc.value] = ScenarioReport(total=outcome.total, classes=class_reports)

    return CapitalReport(
        rulebook_version=rb.version,
        reporting_currency=md.reporting_currency,
        as_of=p.as_of or md.as_of,
        scenario_mode="envelope" if scenario is None else scenario.value,
        scenarios=scenario_reports,
        total_capital=envelope.total,
        warnings=tuple(dict.fromkeys(messages)),
    )


def _class_report(result: ClassDeltaResult) -> ClassReport:
    return ClassReport(
        charge=result.charge,
        fallback_engaged=result.fallback_engaged,
        cross_correlations=result.cross_correlations_used,
        buckets=tuple(
            BucketReport(
                bucket=b.bucket,
                k_b=b.k_b,
                s_b_net=b.s_b_net,
                s_b_effective=b.s_b_effective,
                factors=tuple(
                    FactorRow(
                        name=w.key.name,
                        tenor=w.key.tenor,
                        sensitivity=w.sensitivity,
                        risk_weight=w.risk_weight,
                        weighted_sensitivity=w.ws,
                    )
                    for w in b.factors
                ),
            )
            for b in result.buckets
        ),
    )


def render_report(report: CapitalReport, fmt: str = "hierarchical") -> str:
    """Render a report; 'hierarchical' is lossless and machine-parseable."""
    if fmt == "hierarchical":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "tabular":
        return _render_tabular(report)
    if fmt == "human":
        return _render_human(report)
    raise ReportFormatError(f"unknown report format {fmt!r}; choose from {', '.join(REPORT_FORMATS)}")


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


def _scenario_sort(token: str) -> int:
    order = [sc.value for sc in _SCENARIO_ORDER]
    return order.index(token) if token in order else len(order)


def _class_sort(token: str) -> int:
    order = [rc.value for rc in RiskClass]
    return order.index(token) if token in order else len(order)

