"""Reference forms the tests check the engine against.

Each is the plain, literal version of something the engine computes a
faster way, or a convenience only the tests need:

- ``bucket_risk_position``: K_b as the ordered-pair double sum with the
  correlation supplied by a callback. Acceptance criterion 3 checks it
  against a numpy quadratic form; the GIRR aggregation, which reads its rhos
  from a tenor-pair mapping, must match it bit for bit.
- ``tenor_rho``: the rulebook's GIRR tenor correlation as such a callback.
- ``risk_class_delta``: one risk class under one scenario, through
  ``scenario_envelope``.
- ``assign_equity_bucket_by_scan``: an issuer's equity bucket found by
  scanning every equity bucket in rulebook order; ``assign_bucket``, which
  reads an (economy, size) index, must give its bucket, note and error.
- ``bond_value`` and ``parallel_bumped``: a bond's present value by
  discounting every cash flow on the curve, and a parallel-shifted curve.
- ``render_hierarchical``: the hierarchical report as ``json.dumps`` writes
  ``dataclasses.asdict`` of the report; the engine's own JSON writer must
  give its bytes.
- ``fixture_rulebook_data``: a fresh dict of the fixture rulebook file, for
  tests that edit a rulebook and build it with ``rulebook_from_dict``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable

from sbmcap.aggregation import (
    AggregationError,
    BucketResult,
    ClassResult,
    FactorRow,
    _bucket_result,
    _fsum,
    scenario_envelope,
)
from sbmcap.engine import CapitalReport
from sbmcap.portfolio import (
    Bond,
    BucketAssignmentError,
    CashEquity,
    IssuerInfo,
    MarketData,
    MarketDataError,
    ZeroCurve,
)
from sbmcap.rulebook import CorrelationScenario, RiskClass, Rulebook
from sbmcap.sensitivities import SensitivityRecord

RhoProvider = Callable[[FactorRow, FactorRow, CorrelationScenario], float]


def bucket_risk_position(
    risk_class: RiskClass,
    bucket: int,
    rows: list[FactorRow],
    rho: RhoProvider,
    scenario: CorrelationScenario,
) -> BucketResult:
    """Intra-bucket risk position K_b and net weighted sum S_b of one bucket.

    The double sum runs over ordered factor pairs; negative quadratic forms
    are floored at zero before the square root, and a NaN or infinite form
    raises AggregationError.
    """
    if not rows:
        raise AggregationError("bucket_risk_position needs at least one factor row")
    ws = [r.weighted_sensitivity for r in rows]
    terms = [x * x for x in ws]
    for i, r_k in enumerate(rows):
        for j, r_l in enumerate(rows):
            if i == j:
                continue
            terms.append(rho(r_k, r_l, scenario) * ws[i] * ws[j])
    return _bucket_result(risk_class, bucket, rows, _fsum(terms), _fsum(ws), scenario)


def tenor_rho(rb: Rulebook, bucket: int) -> RhoProvider:
    """The GIRR intra-bucket correlation of ``bucket`` as a pairwise callback."""

    def rho(k: FactorRow, l: FactorRow, sc: CorrelationScenario) -> float:
        return rb.intra_correlation(RiskClass.GIRR, bucket, (k.name, k.tenor), (l.name, l.tenor), sc)

    return rho


def risk_class_delta(records: list[SensitivityRecord], rb: Rulebook, scenario: CorrelationScenario) -> ClassResult:
    """Full intra- plus cross-bucket aggregation of the records' one risk class."""
    risk_class = records[0].key.risk_class if records else RiskClass.EQUITY
    _, results = scenario_envelope({risk_class: records}, rb, (scenario,))
    return results[scenario.value].classes.get(risk_class.value, ClassResult(0.0, False, (), ()))


def assign_equity_bucket_by_scan(
    instr: CashEquity, registry: dict[str, IssuerInfo], rb: Rulebook
) -> tuple[int, str | None]:
    """The first non-residual equity bucket matching the issuer's economy, size and sector, else the residual one."""
    info = registry.get(instr.issuer_id)
    if info is None:
        why = f"issuer {instr.issuer_id!r} not in registry"
    else:
        for b in rb.buckets_for(RiskClass.EQUITY):
            if b.residual:
                continue
            if b.economy != info.economy or b.size != info.size:
                continue
            if b.sectors is None or info.sector in b.sectors:
                return b.bucket_id, None
        why = f"issuer {instr.issuer_id!r} ({info.economy}/{info.size}/{info.sector}) matches no equity bucket"
    residual = rb.residual_bucket(RiskClass.EQUITY)
    if residual is None:
        raise BucketAssignmentError(f"{why}, and the rulebook has no equity residual bucket")
    return residual.bucket_id, f"{why}; assigned to residual bucket {residual.bucket_id}"


def bond_value(bond: Bond, md: MarketData) -> float:
    """Present value of a bond: each cash flow discounted at (1 + z(t)) ** -t."""
    if bond.currency != md.reporting_currency:
        raise MarketDataError(
            f"bond denominated in {bond.currency}, but only the {md.reporting_currency} curve is available"
        )
    return sum(amount * (1.0 + md.zero_curve.rate(t)) ** -t for t, amount in bond.cash_flows())


def parallel_bumped(curve: ZeroCurve, size: float) -> ZeroCurve:
    """The curve with every pillar rate shifted by ``size``."""
    return ZeroCurve(curve.tenors, tuple(r + size for r in curve.rates))


def render_hierarchical(report: CapitalReport) -> str:
    """The hierarchical report text, through dataclasses.asdict and json.dumps."""
    data = dataclasses.asdict(report, dict_factory=_report_keys)
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _report_keys(fields: list[tuple[str, Any]]) -> dict[str, Any]:
    # The report's one renamed field: ScenarioResult.classes is written as "risk_classes".
    return {"risk_classes" if name == "classes" else name: value for name, value in fields}


FIXTURE_RULEBOOK = Path(__file__).resolve().parent.parent / "fixtures" / "rulebook.json"


def fixture_rulebook_data() -> dict[str, Any]:
    """The fixture rulebook file as a new dict, for a test to edit."""
    return json.loads(FIXTURE_RULEBOOK.read_text(encoding="utf-8"))
