"""Correlation-matrix aggregation of weighted sensitivities, and the audit trail.

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

which is evaluated in O(F). Only rho depends on the scenario, so each such
bucket is prepared once per call: one risk weight lookup, its factor rows,
and sum_k WS_k and sum_k WS_k^2 each summed once. A scenario then costs one
rho lookup and the closed form per bucket. A GIRR bucket is one curve with
at most one factor per grid tenor, weighted per tenor, and its tenor
correlations differ pair by pair, so it keeps the pairwise sum. Its rhos
come as a mapping from ordered pairs of factor positions to rho, built per
bucket and scenario before the sum.

cross_bucket_delta takes the gammas of one class and scenario as a mapping
from ordered bucket pairs to gamma. Both correlations are symmetric
(rho_kl = rho_lk by the tenor formula, gamma_bc = gamma_cb because the
rulebook loader rejects asymmetric duplicates), so each rho or gamma is
looked up once per unordered pair and stored under both orders: 45 rho
lookups for a full 10-tenor GIRR bucket, per scenario.

The results form one frozen hierarchy, which is also the audit trail of the
capital report: ScenarioResult (total, classes by risk class token) holds
ClassResult (charge, fallback flag, buckets, cross-bucket correlations used),
which holds BucketResult (K_b, net and effective S_b, factors), which holds
FactorRow (s_k, RW_k, WS_k). Field names are the keys of the report's
hierarchical form. Each factor is weighted once per run and every scenario
shares the same tuple of rows.

A quadratic form that is NaN or infinite raises AggregationError: flooring it
at zero would silently drop the bucket or class from capital.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .rulebook import CorrelationScenario, RiskClass, Rulebook
from .sensitivities import SensitivityRecord


class AggregationError(Exception):
    pass


_NON_FINITE_HINT = "an input price, quantity or rate is not finite or too large"


@dataclass(frozen=True)
class FactorRow:
    """One netted risk factor of a bucket; weighted_sensitivity = risk_weight * sensitivity."""

    name: str
    tenor: float | None
    sensitivity: float
    risk_weight: float
    weighted_sensitivity: float


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
    factors: tuple[FactorRow, ...]


@dataclass(frozen=True)
class CrossCorrelation:
    """The gamma used for one unordered bucket pair of a risk class."""

    bucket_b: int
    bucket_c: int
    gamma: float


@dataclass(frozen=True)
class ClassResult:
    """Delta charge of one risk class under one scenario, with audit detail."""

    charge: float
    fallback_engaged: bool
    buckets: tuple[BucketResult, ...]
    cross_correlations: tuple[CrossCorrelation, ...]


@dataclass(frozen=True)
class ScenarioResult:
    """Sum of the class charges under one scenario; classes keyed by risk class token."""

    total: float
    classes: dict[str, ClassResult] = field(metadata={"json_key": "risk_classes"})


WeightedBuckets = list[tuple]  # as _weighted_buckets prepares them


def weight_sensitivity(rec: SensitivityRecord, rb: Rulebook) -> FactorRow:
    """Apply the rulebook risk weight: WS_k = RW_k * s_k."""
    key = rec.key
    rw = rb.risk_weight(key.risk_class, key.bucket, key.tenor)
    return FactorRow(
        name=key.name, tenor=key.tenor, sensitivity=rec.value, risk_weight=rw, weighted_sensitivity=rw * rec.value
    )


def _pairwise_position(
    risk_class: RiskClass,
    bucket: int,
    rows: Sequence[FactorRow],
    rho: Mapping[tuple[int, int], float],
    scenario: CorrelationScenario,
) -> BucketResult:
    """K_b as the double sum over ordered factor pairs; ``rho`` is keyed by row positions (i, j)."""
    ws = [r.weighted_sensitivity for r in rows]
    terms = [x * x for x in ws]
    terms += [rho[i, j] * ws[i] * ws[j] for i in range(len(ws)) for j in range(len(ws)) if i != j]
    return _bucket_result(risk_class, bucket, rows, _fsum(terms), _fsum(ws), scenario)


def _uniform_rho_position(risk_class: RiskClass, prepared: tuple, rb: Rulebook, scenario: CorrelationScenario) -> BucketResult:
    """K_b of a non-GIRR bucket, as _weighted_buckets prepared it, through the one-rho identity.

    rho is looked up once, on the first two names, and only when the bucket
    holds two or more factors: a one-name bucket needs no tabulated rho.
    """
    bucket, rows, s_b, sum_sq = prepared
    if len(rows) == 1:
        return _bucket_result(risk_class, bucket, rows, sum_sq, s_b, scenario)
    first, second = rows[0], rows[1]
    rho = rb.intra_correlation(risk_class, bucket, (first.name, first.tenor), (second.name, second.tenor), scenario)
    return _bucket_result(risk_class, bucket, rows, _fsum(((1.0 - rho) * sum_sq, rho * s_b * s_b)), s_b, scenario)


def _bucket_result(
    risk_class: RiskClass, bucket: int, rows: Sequence[FactorRow], quad: float, s_b: float, scenario: CorrelationScenario
) -> BucketResult:
    if not math.isfinite(quad):
        raise AggregationError(
            f"{risk_class.value} bucket {bucket}: intra-bucket quadratic form is {quad!r} "
            f"under scenario {scenario.value}; {_NON_FINITE_HINT}"
        )
    k_b = math.sqrt(max(0.0, quad))
    return BucketResult(bucket=bucket, k_b=k_b, s_b_net=s_b, s_b_effective=s_b, factors=tuple(rows))


def _fsum(values: Iterable[float]) -> float:
    """math.fsum, but NaN where fsum raises (inf - inf, intermediate overflow).

    The caller then rejects the non-finite form with an AggregationError.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def cross_bucket_delta(
    risk_class: RiskClass,
    buckets: list[BucketResult],
    gamma: Mapping[tuple[int, int], float],
    scenario: CorrelationScenario,
) -> ClassResult:
    """Cross-bucket delta charge of one risk class from its bucket positions.

    ``gamma`` holds gamma_bc for every ordered pair (b, c) of distinct
    buckets. When the fallback engages, the returned buckets carry the
    clamped S_b as ``s_b_effective``.
    """
    ids = [b.bucket for b in buckets]
    if len(set(ids)) != len(ids):
        raise AggregationError(f"duplicate bucket ids in cross-bucket aggregation: {sorted(ids)}")
    k_sq = _fsum(b.k_b * b.k_b for b in buckets)
    gammas = {(b, c): gamma[b, c] for b in ids for c in ids if b != c}

    def quad_with(s: dict[int, float]) -> float:
        quad = k_sq + _fsum(g * s[b] * s[c] for (b, c), g in gammas.items())
        if not math.isfinite(quad):
            raise AggregationError(
                f"{risk_class.value} buckets {sorted(ids)}: cross-bucket quadratic form is {quad!r} "
                f"under scenario {scenario.value}; {_NON_FINITE_HINT}"
            )
        return quad

    quad = quad_with({b.bucket: b.s_b_net for b in buckets})
    fallback = quad < 0.0
    if fallback:
        # d352 para 53: fall back to S_b clamped into [-K_b, K_b].
        buckets = [replace(b, s_b_effective=max(min(b.s_b_net, b.k_b), -b.k_b)) for b in buckets]
        quad = quad_with({b.bucket: b.s_b_effective for b in buckets})
    return ClassResult(
        charge=math.sqrt(max(0.0, quad)),
        fallback_engaged=fallback,
        buckets=tuple(buckets),
        cross_correlations=tuple(
            CrossCorrelation(b, c, gammas[b, c]) for i, b in enumerate(ids) for c in ids[i + 1 :]
        ),
    )


def _weighted_buckets(records: list[SensitivityRecord], rb: Rulebook) -> tuple[RiskClass, WeightedBuckets]:
    """The records' one risk class and its buckets in bucket order, prepared for every scenario.

    A GIRR bucket is (bucket, rows), weighted per tenor. Any other bucket is
    (bucket, rows, S_b, sum of WS_k^2), weighted by one risk weight lookup;
    its names must be distinct, as the one-rho identity needs.
    """
    classes = {rec.key.risk_class for rec in records}
    if len(classes) > 1:
        raise AggregationError(f"records span several risk classes: {sorted(rc.value for rc in classes)}")
    risk_class = records[0].key.risk_class
    by_bucket: dict[int, list[SensitivityRecord]] = {}
    for rec in records:
        by_bucket.setdefault(rec.key.bucket, []).append(rec)
    buckets = sorted(by_bucket.items())
    if risk_class is RiskClass.GIRR:
        return risk_class, [(bucket, tuple([weight_sensitivity(r, rb) for r in recs])) for bucket, recs in buckets]
    prepared: WeightedBuckets = []
    for bucket, recs in buckets:
        rw = rb.risk_weight(risk_class, bucket)
        rows = tuple([FactorRow(r.key.name, None, r.value, rw, rw * r.value) for r in recs])
        if len(rows) > 1 and len({r.name for r in rows}) != len(rows):
            raise AggregationError(f"duplicate factor keys in {risk_class.value} bucket {bucket}; net the records first")
        ws = [r.weighted_sensitivity for r in rows]
        prepared.append((bucket, rows, _fsum(ws), _fsum(x * x for x in ws)))
    return risk_class, prepared


def _class_result(
    risk_class: RiskClass, weighted: WeightedBuckets, rb: Rulebook, scenario: CorrelationScenario
) -> ClassResult:
    if risk_class is RiskClass.GIRR:
        positions = []
        for bucket, rows in weighted:
            factors = [(r.name, r.tenor) for r in rows]
            rho = _both_orders(
                range(len(rows)),
                lambda i, j: rb.intra_correlation(risk_class, bucket, factors[i], factors[j], scenario),
            )
            positions.append(_pairwise_position(risk_class, bucket, rows, rho, scenario))
    else:
        positions = [_uniform_rho_position(risk_class, prepared, rb, scenario) for prepared in weighted]
    gamma = _both_orders([b[0] for b in weighted], lambda b, c: rb.cross_correlation(risk_class, b, c, scenario))
    return cross_bucket_delta(risk_class, positions, gamma, scenario)


def _both_orders(
    ids: Sequence[Hashable], lookup: Callable[[Hashable, Hashable], float]
) -> dict[tuple[Hashable, Hashable], float]:
    """lookup(a, b) once per unordered pair of distinct positions in ``ids``, stored under (a, b) and (b, a)."""
    pairs: dict[tuple[Hashable, Hashable], float] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            pairs[a, b] = pairs[b, a] = lookup(a, b)
    return pairs


def scenario_envelope(
    records_by_class: dict[RiskClass, list[SensitivityRecord]],
    rb: Rulebook,
    scenarios: tuple[CorrelationScenario, ...] = tuple(CorrelationScenario),
) -> tuple[float, dict[str, ScenarioResult]]:
    """Worst-of-scenarios capital and the result of each scenario, keyed by its token.

    The portfolio total under one scenario is the plain sum of risk-class
    charges; the capital requirement is the maximum total across scenarios.
    Each class's buckets are prepared once (see _weighted_buckets) and
    aggregated under every scenario.
    """
    weighted = [_weighted_buckets(records_by_class[rc], rb) for rc in RiskClass if records_by_class.get(rc)]
    results: dict[str, ScenarioResult] = {}
    for scenario in scenarios:
        classes = {rc.value: _class_result(rc, buckets, rb, scenario) for rc, buckets in weighted}
        results[scenario.value] = ScenarioResult(total=math.fsum(c.charge for c in classes.values()), classes=classes)
    return max((r.total for r in results.values()), default=0.0), results
