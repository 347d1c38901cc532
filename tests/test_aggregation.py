"""Intra-bucket K_b, cross-bucket delta charge, fallback, scenarios."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmcap.aggregation import (
    AggregationError,
    BucketResult,
    WeightedSensitivity,
    bucket_risk_position,
    delta_charge,
    risk_class_delta,
    scenario_envelope,
    weight_sensitivity,
)
from sbmcap.engine import compute_capital
from sbmcap.portfolio import CashEquity, IssuerInfo, MarketData, Portfolio
from sbmcap.rulebook import CorrelationScenario, RiskClass, Rulebook, RulebookQueryError, rulebook_from_dict
from sbmcap.sensitivities import RiskFactorKey, SensitivityRecord, collect_sensitivities

MEDIUM = CorrelationScenario.MEDIUM
REL_TOL = 1e-12


def eq_key(name: str, bucket: int = 7) -> RiskFactorKey:
    return RiskFactorKey(RiskClass.EQUITY, bucket, name)


def ws(name: str, amount: float, bucket: int = 7) -> WeightedSensitivity:
    # risk weight 1 makes ws equal the stated amount
    return WeightedSensitivity(key=eq_key(name, bucket), sensitivity=amount, risk_weight=1.0)


def rho_const(value: float):
    def provider(k, l, scenario):
        return 1.0 if k == l else value

    return provider


def gamma_const(value: float):
    def provider(b, c, scenario):
        return value

    return provider


def one_bucket_rulebook(rho: float | None):
    """Equity bucket 1 with risk weight 1 (WS equals s); rho None leaves the intra rho untabulated."""
    return rulebook_from_dict(
        {
            "schema_version": 1,
            "version": "one-bucket",
            "tenor_grid": [1.0],
            "buckets": [
                {"risk_class": "equity", "id": 1, "description": "A", "economy": "advanced", "size": "large",
                 "sectors": ["energy"], "risk_weight": 1.0},
            ],
            "intra_correlations": {"equity": {"1": rho}} if rho is not None else {},
            "cross_correlations": {"equity": {"default": 0.0}},
        }
    )


@pytest.fixture()
def fallback_rulebook():
    # two equity buckets, intra rho 0, gamma 0.8: large enough to drive the
    # cross-bucket quadratic form negative for opposite-signed books
    return rulebook_from_dict(
        {
            "schema_version": 1,
            "version": "fallback-lab",
            "tenor_grid": [1.0],
            "buckets": [
                {"risk_class": "equity", "id": 1, "description": "A", "economy": "advanced", "size": "large",
                 "sectors": ["energy"], "risk_weight": 0.5},
                {"risk_class": "equity", "id": 2, "description": "B", "economy": "advanced", "size": "large",
                 "sectors": ["technology"], "risk_weight": 0.5},
            ],
            "intra_correlations": {"equity": {"1": 0.0, "2": 0.0}},
            "cross_correlations": {"equity": {"default": 0.8}},
        }
    )


class TestWeightSensitivity:
    def test_equity_worked_examples(self, rb, equity_portfolio, market, registry):
        records = collect_sensitivities(equity_portfolio, market, registry, rb)
        weighted = {w.key.name: w for w in (weight_sensitivity(r, rb) for r in records)}
        assert weighted["XOM"].risk_weight == 0.40
        assert weighted["XOM"].ws == pytest.approx(440_000.0, rel=REL_TOL)
        assert weighted["T"].risk_weight == 0.35
        assert weighted["T"].ws == pytest.approx(59_500.0, rel=REL_TOL)

    def test_girr_uses_tenor_weight(self, rb):
        rec = SensitivityRecord(RiskFactorKey(RiskClass.GIRR, 1, "USD", tenor=5.0), -40_000.0)
        w = weight_sensitivity(rec, rb)
        assert w.risk_weight == 0.015
        assert w.ws == pytest.approx(-600.0, rel=REL_TOL)

    def test_ws_invariant_holds_at_construction(self):
        w = WeightedSensitivity(key=eq_key("X"), sensitivity=123.0, risk_weight=0.4)
        assert w.ws == 123.0 * 0.4


class TestBucketRiskPosition:
    def test_single_factor_is_absolute_ws(self):
        result = bucket_risk_position([ws("A", -440_000.0)], rho_const(0.15), MEDIUM)
        assert result.k_b == 440_000.0
        assert result.s_b_net == -440_000.0

    def test_zero_correlation_is_pythagorean(self):
        result = bucket_risk_position([ws("A", 300.0), ws("B", 400.0)], rho_const(0.0), MEDIUM)
        assert result.k_b == pytest.approx(500.0, rel=REL_TOL)

    def test_perfect_correlation_adds_linearly(self):
        result = bucket_risk_position([ws("A", 100.0), ws("B", 100.0)], rho_const(1.0), MEDIUM)
        assert result.k_b == pytest.approx(200.0, rel=REL_TOL)

    def test_negative_quadratic_form_floors_at_zero(self):
        # three unit positions with pairwise rho -0.9 push the form negative
        result = bucket_risk_position([ws("A", 1.0), ws("B", 1.0), ws("C", 1.0)], rho_const(-0.9), MEDIUM)
        assert result.k_b == 0.0

    def test_ordered_pairs_count_each_pair_twice(self):
        result = bucket_risk_position([ws("A", 3.0), ws("B", 4.0)], rho_const(0.5), MEDIUM)
        assert result.k_b == pytest.approx(math.sqrt(9.0 + 16.0 + 2 * 0.5 * 12.0), rel=REL_TOL)

    def test_mixed_buckets_rejected(self):
        with pytest.raises(AggregationError, match="mixed buckets"):
            bucket_risk_position([ws("A", 1.0, bucket=6), ws("B", 1.0, bucket=7)], rho_const(0.0), MEDIUM)

    def test_empty_input_rejected(self):
        with pytest.raises(AggregationError, match="at least one"):
            bucket_risk_position([], rho_const(0.0), MEDIUM)

    @settings(max_examples=100, deadline=None)
    @given(
        amounts=st.lists(st.floats(min_value=-1000, max_value=1000, allow_nan=False), min_size=1, max_size=5),
        rho=st.floats(min_value=-0.3, max_value=0.99, allow_nan=False),
        lam=st.sampled_from([0.5, 2.0, 10.0]),
    )
    def test_nonnegative_and_homogeneous(self, amounts, rho, lam):
        base = bucket_risk_position([ws(f"F{i}", a) for i, a in enumerate(amounts)], rho_const(rho), MEDIUM)
        scaled = bucket_risk_position([ws(f"F{i}", lam * a) for i, a in enumerate(amounts)], rho_const(rho), MEDIUM)
        assert base.k_b >= 0.0
        assert scaled.k_b == pytest.approx(lam * base.k_b, rel=1e-12, abs=1e-12)


class TestDeltaCharge:
    def test_single_bucket_collapses_to_k_b(self):
        bucket = bucket_risk_position([ws("A", 250.0)], rho_const(0.0), MEDIUM)
        assert delta_charge([bucket], gamma_const(0.15), MEDIUM) == pytest.approx(bucket.k_b, rel=REL_TOL)

    def test_zero_gamma_gives_root_sum_of_squares(self):
        b1 = bucket_risk_position([ws("A", 300.0, bucket=6)], rho_const(0.0), MEDIUM)
        b2 = bucket_risk_position([ws("B", 400.0, bucket=7)], rho_const(0.0), MEDIUM)
        assert delta_charge([b1, b2], gamma_const(0.0), MEDIUM) == pytest.approx(500.0, rel=REL_TOL)

    def test_two_bucket_worked_example(self):
        b6 = bucket_risk_position([ws("T", 59_500.0, bucket=6)], rho_const(0.0), MEDIUM)
        b7 = bucket_risk_position([ws("XOM", 440_000.0, bucket=7)], rho_const(0.0), MEDIUM)
        expected = math.sqrt(440_000.0**2 + 59_500.0**2 + 2 * 0.15 * 440_000.0 * 59_500.0)
        assert delta_charge([b7, b6], gamma_const(0.15), MEDIUM) == pytest.approx(expected, rel=REL_TOL)

    def test_all_correlations_one_collapses_to_plain_sum(self):
        # rho = gamma = 1 with nonnegative WS makes the quadratic forms perfect
        # squares, so the charge degenerates to the arithmetic total
        b1 = bucket_risk_position([ws("A", 100.0, bucket=6), ws("B", 50.0, bucket=6)], rho_const(1.0), MEDIUM)
        b2 = bucket_risk_position([ws("C", 75.0, bucket=7), ws("D", 25.0, bucket=7)], rho_const(1.0), MEDIUM)
        assert delta_charge([b1, b2], gamma_const(1.0), MEDIUM) == pytest.approx(250.0, rel=REL_TOL)

    def test_duplicate_bucket_ids_rejected(self):
        b1 = bucket_risk_position([ws("A", 1.0)], rho_const(0.0), MEDIUM)
        b2 = bucket_risk_position([ws("B", 2.0)], rho_const(0.0), MEDIUM)
        with pytest.raises(AggregationError, match="duplicate bucket ids"):
            delta_charge([b1, b2], gamma_const(0.15), MEDIUM)

    def test_fallback_clamps_net_positions(self):
        # +/+ against -/- with rho 0 and gamma 0.8: S products overwhelm K^2
        b1 = bucket_risk_position([ws("A1", 100.0, bucket=1), ws("A2", 100.0, bucket=1)], rho_const(0.0), MEDIUM)
        b2 = bucket_risk_position([ws("B1", -100.0, bucket=2), ws("B2", -100.0, bucket=2)], rho_const(0.0), MEDIUM)
        k = 100.0 * math.sqrt(2.0)
        unclamped = 2 * k * k + 2 * 0.8 * (200.0 * -200.0)
        assert unclamped < 0  # the configuration really needs the fallback
        charge = delta_charge([b1, b2], gamma_const(0.8), MEDIUM)
        expected = math.sqrt(2 * k * k + 2 * 0.8 * (k * -k))
        assert charge == pytest.approx(expected, rel=REL_TOL)


class TestRiskClassDelta:
    def test_equity_case_study(self, rb, equity_portfolio, market, registry):
        records = collect_sensitivities(equity_portfolio, market, registry, rb)
        result = risk_class_delta(records, rb, MEDIUM)
        oracle = math.sqrt(440_000.0**2 + 59_500.0**2 + 2 * 0.15 * 440_000.0 * 59_500.0)
        assert result.charge == pytest.approx(oracle, rel=REL_TOL)
        assert [b.bucket for b in result.buckets] == [6, 7]
        assert not result.fallback_engaged
        assert result.cross_correlations_used == ((6, 7, 0.15),)

    def test_positive_homogeneity(self, rb):
        rng = random.Random(99)
        records = [
            SensitivityRecord(eq_key(f"I{i}", bucket=rng.choice([5, 6, 7, 8])), rng.uniform(-1e6, 1e6))
            for i in range(8)
        ]
        base = risk_class_delta(records, rb, MEDIUM)
        scaled = risk_class_delta(
            [SensitivityRecord(r.key, 2.0 * r.value) for r in records], rb, MEDIUM
        )
        assert scaled.charge == pytest.approx(2.0 * base.charge, rel=REL_TOL)
        for b_base, b_scaled in zip(base.buckets, scaled.buckets):
            assert b_scaled.k_b == pytest.approx(2.0 * b_base.k_b, rel=REL_TOL)

    def test_empty_records_give_zero_charge(self, rb):
        result = risk_class_delta([], rb, MEDIUM)
        assert result.charge == 0.0
        assert result.buckets == ()

    def test_mixed_classes_rejected(self, rb):
        records = [
            SensitivityRecord(eq_key("A"), 1.0),
            SensitivityRecord(RiskFactorKey(RiskClass.FX, 1, "EUR"), 1.0),
        ]
        with pytest.raises(AggregationError, match="several risk classes"):
            risk_class_delta(records, rb, MEDIUM)

    def test_fallback_flag_and_clamped_positions(self, fallback_rulebook):
        records = [
            SensitivityRecord(RiskFactorKey(RiskClass.EQUITY, 1, "E1"), 1_000.0),
            SensitivityRecord(RiskFactorKey(RiskClass.EQUITY, 1, "E2"), 1_000.0),
            SensitivityRecord(RiskFactorKey(RiskClass.EQUITY, 2, "T1"), -1_000.0),
            SensitivityRecord(RiskFactorKey(RiskClass.EQUITY, 2, "T2"), -1_000.0),
        ]
        result = risk_class_delta(records, fallback_rulebook, MEDIUM)
        assert result.fallback_engaged
        assert result.charge > 0.0
        assert math.isfinite(result.charge)
        for b in result.buckets:
            assert abs(b.s_b_effective) <= b.k_b * (1 + 1e-15)
            assert abs(b.s_b_net) > abs(b.s_b_effective)

    def test_no_fallback_for_same_signed_books(self, fallback_rulebook):
        records = [
            SensitivityRecord(RiskFactorKey(RiskClass.EQUITY, 1, "E1"), 1_000.0),
            SensitivityRecord(RiskFactorKey(RiskClass.EQUITY, 2, "T1"), 1_000.0),
        ]
        result = risk_class_delta(records, fallback_rulebook, MEDIUM)
        assert not result.fallback_engaged
        for b in result.buckets:
            assert b.s_b_effective == b.s_b_net


class TestScenarioEnvelope:
    def test_envelope_is_max_of_scenario_totals(self, rb, reference_portfolio, market, registry):
        records = collect_sensitivities(reference_portfolio, market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        result = scenario_envelope(by_class, rb)
        totals = {sc: outcome.total for sc, outcome in result.scenarios.items()}
        assert len(totals) == 3
        assert result.total == max(totals.values())

    def test_high_dominates_for_all_long_book(self, rb, reference_portfolio, market, registry):
        records = collect_sensitivities(reference_portfolio, market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        result = scenario_envelope(by_class, rb)
        assert result.total == result.scenarios[CorrelationScenario.HIGH].total

    def test_single_factor_class_is_scenario_invariant(self, rb):
        records = {RiskClass.EQUITY: [SensitivityRecord(eq_key("XOM"), 1_000.0)]}
        result = scenario_envelope(records, rb)
        totals = {outcome.total for outcome in result.scenarios.values()}
        assert len(totals) == 1

    def test_empty_input_gives_zero(self, rb):
        result = scenario_envelope({}, rb)
        assert result.total == 0.0
        assert all(outcome.total == 0.0 for outcome in result.scenarios.values())

    def test_scenario_totals_sum_class_charges(self, rb, reference_portfolio, market, registry):
        records = collect_sensitivities(reference_portfolio, market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        result = scenario_envelope(by_class, rb)
        for outcome in result.scenarios.values():
            assert outcome.total == pytest.approx(
                math.fsum(c.charge for c in outcome.classes.values()), rel=REL_TOL
            )


class TestUniformRhoBucket:
    """Non-GIRR buckets use K_b^2 = (1 - rho) sum WS^2 + rho (sum WS)^2."""

    @settings(max_examples=200, deadline=None)
    @given(
        amounts=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
        ),
        rho=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_matches_pairwise_sum(self, amounts, rho):
        records = [SensitivityRecord(eq_key(f"N{i}", bucket=1), a) for i, a in enumerate(amounts)]
        closed = risk_class_delta(records, one_bucket_rulebook(rho), MEDIUM).buckets[0]
        pairwise = bucket_risk_position([ws(f"N{i}", a, bucket=1) for i, a in enumerate(amounts)], rho_const(rho), MEDIUM)
        assert closed.s_b_net == pairwise.s_b_net
        # Near zero the two forms differ by rounding only: bound that by sum |WS|^2.
        scale = math.fsum(a * a for a in amounts)
        assert abs(closed.k_b - pairwise.k_b) <= REL_TOL * pairwise.k_b or abs(
            closed.k_b**2 - pairwise.k_b**2
        ) <= REL_TOL * scale

    def test_one_lookup_per_scenario_for_a_wide_bucket(self, rb, monkeypatch):
        names = [f"W{i:03d}" for i in range(300)]
        registry = {n: IssuerInfo(n, "technology", "advanced", "large") for n in names}
        md = MarketData(reporting_currency="USD", equity_prices={n: 10.0 + i for i, n in enumerate(names)})
        p = Portfolio(positions=tuple(CashEquity(n, 100 if i % 3 else -250) for i, n in enumerate(names)))
        calls = []
        original = Rulebook.intra_correlation

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Rulebook, "intra_correlation", counting)
        report = compute_capital(p, md, registry, rb)
        (bucket,) = report.scenarios["medium"].classes["equity"].buckets
        assert len(bucket.factors) == 300
        assert len(calls) <= 3

    def test_one_name_bucket_needs_no_tabulated_rho(self):
        result = risk_class_delta([SensitivityRecord(eq_key("A", bucket=1), -250.0)], one_bucket_rulebook(None), MEDIUM)
        assert result.buckets[0].k_b == 250.0
        assert result.charge == 250.0

    def test_two_name_bucket_without_rho_raises_query_error(self):
        records = [SensitivityRecord(eq_key("A", bucket=1), 1.0), SensitivityRecord(eq_key("B", bucket=1), 2.0)]
        with pytest.raises(RulebookQueryError, match="^no intra-bucket correlation tabulated for equity bucket 1$"):
            risk_class_delta(records, one_bucket_rulebook(None), MEDIUM)

    def test_duplicate_factor_keys_rejected(self):
        records = [SensitivityRecord(eq_key("A", bucket=1), 1.0), SensitivityRecord(eq_key("A", bucket=1), 2.0)]
        with pytest.raises(AggregationError, match="duplicate factor keys in equity bucket 1"):
            risk_class_delta(records, one_bucket_rulebook(0.5), MEDIUM)


class TestNonFiniteForms:
    """A NaN or infinite quadratic form raises; it is never floored to zero."""

    def test_nan_equity_price_raises_naming_bucket_and_scenario(self, rb, reference_portfolio, market, registry):
        md = replace(market, equity_prices={**market.equity_prices, "XOM": math.nan})
        with pytest.raises(AggregationError, match=r"^equity bucket 7: intra-bucket quadratic form is nan under scenario low"):
            compute_capital(reference_portfolio, md, registry, rb)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pairwise_form(self, bad):
        with pytest.raises(AggregationError, match="equity bucket 7: intra-bucket quadratic form"):
            bucket_risk_position([ws("A", 1.0), ws("B", bad)], rho_const(0.3), MEDIUM)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_closed_form(self, bad):
        records = [SensitivityRecord(eq_key("A", bucket=1), 1.0), SensitivityRecord(eq_key("B", bucket=1), bad)]
        with pytest.raises(AggregationError, match="equity bucket 1: intra-bucket quadratic form"):
            risk_class_delta(records, one_bucket_rulebook(0.5), MEDIUM)

    def test_cross_bucket_overflow(self):
        b6 = bucket_risk_position([ws("A", 1e154, bucket=6)], rho_const(0.0), MEDIUM)
        b7 = bucket_risk_position([ws("B", 1e154, bucket=7)], rho_const(0.0), MEDIUM)
        with pytest.raises(AggregationError, match=r"equity buckets \[6, 7\]: cross-bucket quadratic form is nan under scenario medium"):
            delta_charge([b6, b7], gamma_const(0.5), MEDIUM)

    def test_finite_negative_form_still_floors_at_zero(self):
        records = [SensitivityRecord(eq_key(n, bucket=1), 1.0) for n in "ABC"]
        assert risk_class_delta(records, one_bucket_rulebook(-0.9), MEDIUM).buckets[0].k_b == 0.0
