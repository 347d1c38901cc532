"""Reference forms the tests check the engine against.

Each is the plain, literal version of something the engine computes a
faster way, or a convenience only the tests need:

- ``bucket_risk_position``: K_b as the ordered-pair double sum with the
  correlation supplied by a callback. Acceptance criterion 3 checks it
  against a numpy quadratic form; the GIRR aggregation, which reads its rhos
  from a tenor-pair mapping, must match it bit for bit.
- ``tenor_rho``: the rulebook's GIRR tenor correlation as such a callback.
- ``cross_correlation_per_pair`` and ``intra_rho_per_pair``: one gamma or
  rho read from the rulebook's raw correlation table and scenario-adjusted
  on the spot; ``PerPairRulebook`` answers the rulebook's per-class table
  reads with them, pair by pair. The tables the rulebook resolves when it
  is built must give the same numbers, and the same errors, bit for bit.
- ``risk_class_delta``: one risk class under one scenario, through
  ``scenario_envelope``.
- ``assign_equity_bucket_by_scan``: an issuer's equity bucket found by
  scanning every equity bucket for one that lists the issuer's sector, and
  then for its profile's bucket without a sector list; ``assign_bucket``,
  which reads the rulebook's membership index, must give its bucket, note
  and error.
- ``currency_bucket_by_scan``: the GIRR or FX bucket whose ``currencies``
  list a currency, found without the membership index.
- ``bond_value`` and ``parallel_bumped``: a bond's present value by
  discounting every cash flow on the curve, and a parallel-shifted curve.
- ``render_hierarchical``: the hierarchical report as ``json.dumps`` writes
  it once each result record is a dict of its fields; the engine's own JSON
  writer must give its bytes.
- ``fixture_rulebook_data``: a fresh dict of the fixture rulebook file, for
  tests that edit a rulebook and build it with ``rulebook_from_dict``.
"""

from __future__ import annotations

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
from sbmcap.rulebook import CorrelationScenario, RiskClass, Rulebook, RulebookQueryError, apply_scenario
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


def cross_correlation_per_pair(
    rb: Rulebook, risk_class: RiskClass, bucket_b: int, bucket_c: int, scenario: CorrelationScenario
) -> float:
    """gamma_bc: the tabulated (b, c), else (c, b), else the class default, scenario-adjusted."""
    if bucket_b == bucket_c:
        raise RulebookQueryError("cross correlation is defined for distinct buckets only")
    rb.bucket(risk_class, bucket_b)
    rb.bucket(risk_class, bucket_c)
    pairs = rb.correlations.cross_pairs
    base = pairs.get((risk_class, bucket_b, bucket_c), pairs.get((risk_class, bucket_c, bucket_b)))
    if base is None:
        base = rb.correlations.cross_default.get(risk_class)
    if base is None:
        raise RulebookQueryError(f"no cross-bucket correlation for {risk_class.value} buckets ({bucket_b}, {bucket_c})")
    return apply_scenario(base, scenario, rb.scenario_rules)


def intra_rho_per_pair(rb: Rulebook, risk_class: RiskClass, bucket: int, scenario: CorrelationScenario) -> float:
    """The tabulated rho of two distinct names in a non-GIRR bucket, scenario-adjusted."""
    rb.bucket(risk_class, bucket)
    try:
        base = rb.correlations.intra[(risk_class, bucket)]
    except KeyError:
        raise RulebookQueryError(f"no intra-bucket correlation tabulated for {risk_class.value} bucket {bucket}") from None
    return apply_scenario(base, scenario, rb.scenario_rules)


class PerPairRulebook(Rulebook):
    """A rulebook whose per-class correlation reads look each rho and gamma up pair by pair."""

    def intra_correlations(self, risk_class, bucket_ids, scenario=CorrelationScenario.MEDIUM):
        return {b: intra_rho_per_pair(self, risk_class, b, scenario) for b in bucket_ids}

    def cross_correlations(self, risk_class, bucket_ids, scenario=CorrelationScenario.MEDIUM):
        ids = list(bucket_ids)
        gamma = {}
        for i, b in enumerate(ids):
            for c in ids[i + 1 :]:
                gamma[b, c] = gamma[c, b] = cross_correlation_per_pair(self, risk_class, b, c, scenario)
        return gamma


def per_pair(rb: Rulebook) -> PerPairRulebook:
    """``rb`` with the per-pair correlation reads."""
    return PerPairRulebook(*rb)


def risk_class_delta(records: list[SensitivityRecord], rb: Rulebook, scenario: CorrelationScenario) -> ClassResult:
    """Full intra- plus cross-bucket aggregation of the records' one risk class."""
    risk_class = records[0].key.risk_class if records else RiskClass.EQUITY
    _, results = scenario_envelope({risk_class: records}, rb, (scenario,))
    return results[scenario.value].classes.get(risk_class.value, ClassResult(0.0, False, (), ()))


def assign_equity_bucket_by_scan(
    instr: CashEquity, registry: dict[str, IssuerInfo], rb: Rulebook
) -> tuple[int, str | None]:
    """The non-residual equity bucket of the issuer's economy and size that lists its sector, else the one of them
    without a sector list, else the residual one."""
    info = registry.get(instr.issuer_id)
    if info is None:
        why = f"issuer {instr.issuer_id!r} not in registry"
    else:
        for listed in (lambda b: b.sectors is not None and info.sector in b.sectors, lambda b: b.sectors is None):
            for b in rb.buckets_for(RiskClass.EQUITY):
                if not b.residual and b.economy == info.economy and b.size == info.size and listed(b):
                    return b.bucket_id, None
        why = f"issuer {instr.issuer_id!r} ({info.economy}/{info.size}/{info.sector}) matches no equity bucket"
    residual = rb.residual_bucket(RiskClass.EQUITY)
    if residual is None:
        raise BucketAssignmentError(f"{why}, and the rulebook has no equity residual bucket")
    return residual.bucket_id, f"{why}; assigned to residual bucket {residual.bucket_id}"


def currency_bucket_by_scan(rb: Rulebook, risk_class: RiskClass, currency: str) -> int:
    """Id of the ``risk_class`` bucket whose ``currencies`` list ``currency``, as ``assign_bucket`` words a miss."""
    for b in rb.buckets_for(risk_class):
        if currency in b.currencies:
            return b.bucket_id
    raise RulebookQueryError(f"no {risk_class.value} bucket covers currency {currency!r}")


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
    """The hierarchical report text, through json.dumps of the report as plain dicts and lists."""
    return json.dumps(_plain(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _plain(value: Any) -> Any:
    # Each result record as the dict of its fields (json.dumps would write a NamedTuple as a list).
    # The report's one renamed field: ScenarioResult.classes is written as "risk_classes".
    if hasattr(value, "_fields"):
        return {"risk_classes" if name == "classes" else name: _plain(v) for name, v in value._asdict().items()}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


FIXTURE_RULEBOOK = Path(__file__).resolve().parent.parent / "fixtures" / "rulebook.json"


def fixture_rulebook_data() -> dict[str, Any]:
    """The fixture rulebook file as a new dict, for a test to edit."""
    return json.loads(FIXTURE_RULEBOOK.read_text(encoding="utf-8"))
