"""Correlation-matrix aggregation of weighted sensitivities.

Within a bucket (d352 para 51):

    K_b = sqrt( max(0, sum_k WS_k^2 + sum_{k != l} rho_kl WS_k WS_l) )

Across buckets of one risk class (d352 para 52-53):

    Delta = sqrt( sum_b K_b^2 + sum_{b != c} gamma_bc S_b S_c )

with S_b the plain sum of WS_k in bucket b. Both double sums run over ordered
pairs, so each unordered pair contributes twice. If the quantity under the
outer root is negative, S_b is replaced by max(min(S_b, K_b), -K_b) for every
bucket and the charge recomputed; that clamp makes the quadratic form
nonnegative. The three correlation scenarios are applied to rho and gamma and
the capital requirement is the worst (largest) scenario total.

Outside GIRR every pair of distinct names in a bucket shares one tabulated
rho, and netting has already merged factors of the same name, so the
intra-bucket form collapses exactly to

    K_b^2 = (1 - rho) * sum_k WS_k^2 + rho * (sum_k WS_k)^2

which risk_class_delta evaluates in O(F) with one rho lookup per bucket and
scenario. A GIRR bucket is one curve with at most one factor per grid tenor,
and its tenor correlations differ pair by pair, so it keeps the pairwise sum
of bucket_risk_position. That function stays the general form: it takes the
correlation as a provider callable

    rho(k: RiskFactorKey, l: RiskFactorKey, scenario) -> float

and the cross-bucket charge takes gamma(bucket_b: int, bucket_c: int,
scenario) -> float the same way.

A quadratic form that is NaN or infinite raises AggregationError: flooring it
at zero would silently drop the bucket or class from capital.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from .rulebook import CorrelationScenario, RiskClass, Rulebook
from .sensitivities import RiskFactorKey, SensitivityRecord

RhoProvider = Callable[[RiskFactorKey, RiskFactorKey, CorrelationScenario], float]
GammaProvider = Callable[[int, int, CorrelationScenario], float]


class AggregationError(Exception):
    pass


_NON_FINITE_HINT = "an input price, quantity or rate is not finite or too large"


@dataclass(frozen=True)
class WeightedSensitivity:
    """A netted sensitivity with its risk weight applied; ws = risk_weight * sensitivity."""

    key: RiskFactorKey
    sensitivity: float
    risk_weight: float
    ws: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ws", self.risk_weight * self.sensitivity)


@dataclass(frozen=True)
class BucketResult:
    """Intra-bucket aggregation outcome.

    ``s_b_net`` is the plain sum of WS_k; ``s_b_effective`` is what actually
    entered the cross-bucket formula (clamped only when the fallback engaged).
    """

    bucket: int
    k_b: float
    s_b_net: float
    s_b_effective: float
    factors: tuple[WeightedSensitivity, ...] = ()


@dataclass(frozen=True)
class ClassDeltaResult:
    """Delta charge of one risk class under one scenario, with audit detail."""

    charge: float
    buckets: tuple[BucketResult, ...]
    fallback_engaged: bool
    cross_correlations_used: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class ScenarioOutcome:
    total: float
    classes: dict[RiskClass, ClassDeltaResult]


@dataclass(frozen=True)
class EnvelopeResult:
    """Per-scenario totals and the envelope (max) capital across scenarios."""

    total: float
    scenarios: dict[CorrelationScenario, ScenarioOutcome]


def weight_sensitivity(rec: SensitivityRecord, rb: Rulebook) -> WeightedSensitivity:
    """Apply the rulebook risk weight: WS_k = RW_k * s_k."""
    rw = rb.risk_weight(rec.key.risk_class, rec.key.bucket, rec.key.tenor)
    return WeightedSensitivity(key=rec.key, sensitivity=rec.value, risk_weight=rw)


def bucket_risk_position(
    ws_list: list[WeightedSensitivity],
    rho: RhoProvider,
    scenario: CorrelationScenario,
) -> BucketResult:
    """Intra-bucket risk position K_b and net weighted sum S_b.

    All entries must share one bucket and risk class. The double sum runs over
    ordered factor pairs; negative quadratic forms are floored at zero before
    the square root, and a NaN or infinite form raises AggregationError.
    """
    if not ws_list:
        raise AggregationError("bucket_risk_position needs at least one weighted sensitivity")
    buckets = {(w.key.risk_class, w.key.bucket) for w in ws_list}
    if len(buckets) > 1:
        raise AggregationError(f"mixed buckets in one aggregation call: {sorted((rc.value, b) for rc, b in buckets)}")
    terms = [w.ws * w.ws for w in ws_list]
    for i, w_k in enumerate(ws_list):
        for j, w_l in enumerate(ws_list):
            if i == j:
                continue
            terms.append(rho(w_k.key, w_l.key, scenario) * w_k.ws * w_l.ws)
    return _bucket_result(ws_list, _fsum(terms), _fsum(w.ws for w in ws_list), scenario)


def _uniform_rho_position(ws_list: list[WeightedSensitivity], rb: Rulebook, scenario: CorrelationScenario) -> BucketResult:
    """K_b of a non-GIRR bucket through the one-rho identity, in O(F).

    Exact only when every factor has its own name, so duplicate keys raise.
    rho is looked up once, on the first two names, and only when the bucket
    holds two or more factors: a one-name bucket needs no tabulated rho.
    """
    ws = [w.ws for w in ws_list]
    s_b = _fsum(ws)
    sum_sq = _fsum(x * x for x in ws)
    if len(ws_list) == 1:
        return _bucket_result(ws_list, sum_sq, s_b, scenario)
    first = ws_list[0].key
    if len({w.key.name for w in ws_list}) != len(ws_list):
        raise AggregationError(
            f"duplicate factor keys in {first.risk_class.value} bucket {first.bucket}; net the records first"
        )
    rho = rb.intra_correlation(first.risk_class, first.bucket, first.factor_ref(), ws_list[1].key.factor_ref(), scenario)
    return _bucket_result(ws_list, _fsum(((1.0 - rho) * sum_sq, rho * s_b * s_b)), s_b, scenario)


def _bucket_result(
    ws_list: list[WeightedSensitivity], quad: float, s_b: float, scenario: CorrelationScenario
) -> BucketResult:
    key = ws_list[0].key
    if not math.isfinite(quad):
        raise AggregationError(
            f"{key.risk_class.value} bucket {key.bucket}: intra-bucket quadratic form is {quad!r} "
            f"under scenario {scenario.value}; {_NON_FINITE_HINT}"
        )
    k_b = math.sqrt(max(0.0, quad))
    return BucketResult(bucket=key.bucket, k_b=k_b, s_b_net=s_b, s_b_effective=s_b, factors=tuple(ws_list))


def _fsum(values: Iterable[float]) -> float:
    """math.fsum, but NaN where fsum raises (inf - inf, intermediate overflow).

    The caller then rejects the non-finite form with an AggregationError.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def delta_charge(
    buckets: list[BucketResult],
    gamma: GammaProvider,
    scenario: CorrelationScenario,
) -> float:
    """Cross-bucket delta charge for one risk class."""
    charge, _, _ = _delta_charge_detail(buckets, gamma, scenario)
    return charge


def _delta_charge_detail(
    buckets: list[BucketResult],
    gamma: GammaProvider,
    scenario: CorrelationScenario,
) -> tuple[float, bool, dict[int, float]]:
    """(charge, fallback_engaged, effective S_b per bucket)."""
    ids = [b.bucket for b in buckets]
    if len(set(ids)) != len(ids):
        raise AggregationError(f"duplicate bucket ids in cross-bucket aggregation: {sorted(ids)}")
    k_sq = _fsum(b.k_b * b.k_b for b in buckets)

    def quad_with(s_by_bucket: dict[int, float]) -> float:
        cross = [
            gamma(b.bucket, c.bucket, scenario) * s_by_bucket[b.bucket] * s_by_bucket[c.bucket]
            for b in buckets
            for c in buckets
            if b.bucket != c.bucket
        ]
        quad = k_sq + _fsum(cross)
        if not math.isfinite(quad):
            classes = "/".join(sorted({w.key.risk_class.value for b in buckets for w in b.factors}))
            raise AggregationError(
                f"{classes} buckets {sorted(ids)}: cross-bucket quadratic form is {quad!r} "
                f"under scenario {scenario.value}; {_NON_FINITE_HINT}"
            )
        return quad

    s_eff = {b.bucket: b.s_b_net for b in buckets}
    quad = quad_with(s_eff)
    fallback = quad < 0.0
    if fallback:
        # d352 para 53: fall back to S_b clamped into [-K_b, K_b].
        s_eff = {b.bucket: max(min(b.s_b_net, b.k_b), -b.k_b) for b in buckets}
        quad = quad_with(s_eff)
    return math.sqrt(max(0.0, quad)), fallback, s_eff


def risk_class_delta(
    records: list[SensitivityRecord],
    rb: Rulebook,
    scenario: CorrelationScenario,
) -> ClassDeltaResult:
    """Full intra- plus cross-bucket aggregation of one risk class."""
    if not records:
        return ClassDeltaResult(charge=0.0, buckets=(), fallback_engaged=False)
    classes = {rec.key.risk_class for rec in records}
    if len(classes) > 1:
        raise AggregationError(f"records span several risk classes: {sorted(rc.value for rc in classes)}")
    risk_class = records[0].key.risk_class

    def rho(k: RiskFactorKey, l: RiskFactorKey, sc: CorrelationScenario) -> float:
        return rb.intra_correlation(risk_class, k.bucket, k.factor_ref(), l.factor_ref(), sc)

    def gamma(b: int, c: int, sc: CorrelationScenario) -> float:
        return rb.cross_correlation(risk_class, b, c, sc)

    by_bucket: dict[int, list[WeightedSensitivity]] = {}
    for rec in records:
        by_bucket.setdefault(rec.key.bucket, []).append(weight_sensitivity(rec, rb))
    if risk_class is RiskClass.GIRR:
        bucket_results = [bucket_risk_position(ws_list, rho, scenario) for _, ws_list in sorted(by_bucket.items())]
    else:
        bucket_results = [_uniform_rho_position(ws_list, rb, scenario) for _, ws_list in sorted(by_bucket.items())]

    charge, fallback, s_eff = _delta_charge_detail(bucket_results, gamma, scenario)
    final_buckets = tuple(replace(b, s_b_effective=s_eff[b.bucket]) for b in bucket_results)
    gammas = tuple(
        (b.bucket, c.bucket, gamma(b.bucket, c.bucket, scenario))
        for i, b in enumerate(bucket_results)
        for c in bucket_results[i + 1 :]
    )
    return ClassDeltaResult(
        charge=charge,
        buckets=final_buckets,
        fallback_engaged=fallback,
        cross_correlations_used=gammas,
    )


def scenario_envelope(
    records_by_class: dict[RiskClass, list[SensitivityRecord]],
    rb: Rulebook,
    scenarios: tuple[CorrelationScenario, ...] = (
        CorrelationScenario.LOW,
        CorrelationScenario.MEDIUM,
        CorrelationScenario.HIGH,
    ),
) -> EnvelopeResult:
    """Worst-of-scenarios capital with per-scenario audit detail.

    The portfolio total under one scenario is the plain sum of risk-class
    charges; the capital requirement is the maximum total across scenarios.
    """
    outcomes: dict[CorrelationScenario, ScenarioOutcome] = {}
    for scenario in scenarios:
        classes: dict[RiskClass, ClassDeltaResult] = {}
        for risk_class in RiskClass:
            if risk_class in records_by_class and records_by_class[risk_class]:
                classes[risk_class] = risk_class_delta(records_by_class[risk_class], rb, scenario)
        total = math.fsum(result.charge for result in classes.values())
        outcomes[scenario] = ScenarioOutcome(total=total, classes=classes)
    envelope = max((o.total for o in outcomes.values()), default=0.0)
    return EnvelopeResult(total=envelope, scenarios=outcomes)
