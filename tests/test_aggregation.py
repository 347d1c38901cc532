"""Intra-bucket K_b, cross-bucket delta charge, fallback, scenarios."""

from __future__ import annotations

import math
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bucket_risk_position,
    cross_correlation_per_pair,
    fixture_rulebook_data,
    per_pair,
    risk_class_delta,
    tenor_rho,
)
from sbmcap.aggregation import (
    AggregationError,
    CrossCorrelation,
    FactorRow,
    cross_bucket_delta,
    scenario_envelope,
    weight_sensitivity,
)
from sbmcap.engine import compute_capital
from sbmcap.portfolio import Bond, CashEquity, CommodityFuture, FXPosition, IssuerInfo, MarketData, Portfolio
from sbmcap.rulebook import CorrelationScenario, RiskClass, Rulebook, RulebookQueryError, rulebook_from_dict
from sbmcap.sensitivities import RiskFactorKey, SensitivityRecord, collect_sensitivities

MEDIUM = CorrelationScenario.MEDIUM
EQUITY = RiskClass.EQUITY
REL_TOL = 1e-12


def eq_key(name: str, bucket: int = 7) -> RiskFactorKey:
    return RiskFactorKey(RiskClass.EQUITY, bucket, name)


def ws(name: str, amount: float) -> FactorRow:
    # risk weight 1 makes ws equal the stated amount
    return FactorRow(name=name, tenor=None, sensitivity=amount, risk_weight=1.0, weighted_sensitivity=amount)


def position(rows: list[FactorRow], rho, bucket: int = 7):
    """K_b of equity bucket ``bucket`` under the medium scenario, pairwise."""
    return bucket_risk_position(EQUITY, bucket, rows, rho, MEDIUM)


def charge(buckets, gamma) -> float:
    """Medium-scenario cross-bucket charge of equity bucket positions."""
    return cross_bucket_delta(EQUITY, buckets, gamma, MEDIUM).charge


def rho_const(value: float):
    def provider(k, l, scenario):
        return 1.0 if k == l else value

    return provider


def gamma_const(value: float):
    """The same gamma for every bucket pair."""
    return defaultdict(lambda: value)


def one_bucket_rulebook(rho: float | None):
    """Equity bucket 1 with risk weight 1 (WS equals s); rho None leaves the intra rho untabulated.

    The loader rejects a bucket without a rho, so that rulebook is built in Python.
    """
    rb = rulebook_from_dict(
        {
            "schema_version": 1,
            "version": "one-bucket",
            "tenor_grid": [1.0],
            "buckets": [
                {"risk_class": "equity", "id": 1, "description": "A", "economy": "advanced", "size": "large",
                 "sectors": ["energy"], "risk_weight": 1.0},
            ],
            "intra_correlations": {"equity": {"1": 0.0 if rho is None else rho}},
            "cross_correlations": {"equity": {"default": 0.0}},
        }
    )
    if rho is None:
        rb = rb._replace(correlations=rb.correlations._replace(intra={}))
    return rb


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
        records, _ = collect_sensitivities(equity_portfolio, market, registry, rb)
        weighted = {w.name: w for w in (weight_sensitivity(r, rb) for r in records)}
        assert weighted["XOM"].risk_weight == 0.40
        assert weighted["XOM"].weighted_sensitivity == pytest.approx(440_000.0, rel=REL_TOL)
        assert weighted["T"].risk_weight == 0.35
        assert weighted["T"].weighted_sensitivity == pytest.approx(59_500.0, rel=REL_TOL)

    def test_girr_uses_tenor_weight(self, rb):
        rec = SensitivityRecord(RiskFactorKey(RiskClass.GIRR, 1, "USD", tenor=5.0), -40_000.0)
        w = weight_sensitivity(rec, rb)
        assert w.risk_weight == 0.015
        assert w.weighted_sensitivity == pytest.approx(-600.0, rel=REL_TOL)
        assert (w.name, w.tenor) == ("USD", 5.0)

    def test_ws_invariant_holds_at_construction(self, rb):
        # equity bucket 7 carries risk weight 0.4
        w = weight_sensitivity(SensitivityRecord(eq_key("X"), 123.0), rb)
        assert w.weighted_sensitivity == 123.0 * 0.4


class TestBucketRiskPosition:
    def test_single_factor_is_absolute_ws(self):
        result = position([ws("A", -440_000.0)], rho_const(0.15))
        assert result.k_b == 440_000.0
        assert result.s_b_net == -440_000.0

    def test_zero_correlation_is_pythagorean(self):
        result = position([ws("A", 300.0), ws("B", 400.0)], rho_const(0.0))
        assert result.k_b == pytest.approx(500.0, rel=REL_TOL)

    def test_perfect_correlation_adds_linearly(self):
        result = position([ws("A", 100.0), ws("B", 100.0)], rho_const(1.0))
        assert result.k_b == pytest.approx(200.0, rel=REL_TOL)

    def test_negative_quadratic_form_floors_at_zero(self):
        # three unit positions with pairwise rho -0.9 push the form negative
        result = position([ws("A", 1.0), ws("B", 1.0), ws("C", 1.0)], rho_const(-0.9))
        assert result.k_b == 0.0

    def test_ordered_pairs_count_each_pair_twice(self):
        result = position([ws("A", 3.0), ws("B", 4.0)], rho_const(0.5))
        assert result.k_b == pytest.approx(math.sqrt(9.0 + 16.0 + 2 * 0.5 * 12.0), rel=REL_TOL)

    def test_empty_input_rejected(self):
        with pytest.raises(AggregationError, match="at least one"):
            position([], rho_const(0.0))

    @settings(max_examples=100, deadline=None)
    @given(
        amounts=st.lists(st.floats(min_value=-1000, max_value=1000, allow_nan=False), min_size=1, max_size=5),
        rho=st.floats(min_value=-0.3, max_value=0.99, allow_nan=False),
        lam=st.sampled_from([0.5, 2.0, 10.0]),
    )
    def test_nonnegative_and_homogeneous(self, amounts, rho, lam):
        base = position([ws(f"F{i}", a) for i, a in enumerate(amounts)], rho_const(rho))
        scaled = position([ws(f"F{i}", lam * a) for i, a in enumerate(amounts)], rho_const(rho))
        assert base.k_b >= 0.0
        assert scaled.k_b == pytest.approx(lam * base.k_b, rel=1e-12, abs=1e-12)


class TestDeltaCharge:
    def test_single_bucket_collapses_to_k_b(self):
        bucket = position([ws("A", 250.0)], rho_const(0.0))
        assert charge([bucket], gamma_const(0.15)) == pytest.approx(bucket.k_b, rel=REL_TOL)

    def test_zero_gamma_gives_root_sum_of_squares(self):
        b1 = position([ws("A", 300.0)], rho_const(0.0), bucket=6)
        b2 = position([ws("B", 400.0)], rho_const(0.0), bucket=7)
        assert charge([b1, b2], gamma_const(0.0)) == pytest.approx(500.0, rel=REL_TOL)

    def test_two_bucket_worked_example(self):
        b6 = position([ws("T", 59_500.0)], rho_const(0.0), bucket=6)
        b7 = position([ws("XOM", 440_000.0)], rho_const(0.0), bucket=7)
        expected = math.sqrt(440_000.0**2 + 59_500.0**2 + 2 * 0.15 * 440_000.0 * 59_500.0)
        assert charge([b7, b6], gamma_const(0.15)) == pytest.approx(expected, rel=REL_TOL)

    def test_all_correlations_one_collapses_to_plain_sum(self):
        # rho = gamma = 1 with nonnegative WS makes the quadratic forms perfect
        # squares, so the charge degenerates to the arithmetic total
        b1 = position([ws("A", 100.0), ws("B", 50.0)], rho_const(1.0), bucket=6)
        b2 = position([ws("C", 75.0), ws("D", 25.0)], rho_const(1.0), bucket=7)
        assert charge([b1, b2], gamma_const(1.0)) == pytest.approx(250.0, rel=REL_TOL)

    def test_duplicate_bucket_ids_rejected(self):
        b1 = position([ws("A", 1.0)], rho_const(0.0))
        b2 = position([ws("B", 2.0)], rho_const(0.0))
        with pytest.raises(AggregationError, match="duplicate bucket ids"):
            charge([b1, b2], gamma_const(0.15))

    def test_fallback_clamps_net_positions(self):
        # +/+ against -/- with rho 0 and gamma 0.8: S products overwhelm K^2
        b1 = position([ws("A1", 100.0), ws("A2", 100.0)], rho_const(0.0), bucket=1)
        b2 = position([ws("B1", -100.0), ws("B2", -100.0)], rho_const(0.0), bucket=2)
        k = 100.0 * math.sqrt(2.0)
        unclamped = 2 * k * k + 2 * 0.8 * (200.0 * -200.0)
        assert unclamped < 0  # the configuration really needs the fallback
        clamped = charge([b1, b2], gamma_const(0.8))
        expected = math.sqrt(2 * k * k + 2 * 0.8 * (k * -k))
        assert clamped == pytest.approx(expected, rel=REL_TOL)


class TestRiskClassDelta:
    def test_equity_case_study(self, rb, equity_portfolio, market, registry):
        records, _ = collect_sensitivities(equity_portfolio, market, registry, rb)
        result = risk_class_delta(records, rb, MEDIUM)
        oracle = math.sqrt(440_000.0**2 + 59_500.0**2 + 2 * 0.15 * 440_000.0 * 59_500.0)
        assert result.charge == pytest.approx(oracle, rel=REL_TOL)
        assert [b.bucket for b in result.buckets] == [6, 7]
        assert not result.fallback_engaged
        assert result.cross_correlations == (CrossCorrelation(6, 7, 0.15),)

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

    def test_records_are_split_by_bucket(self, rb):
        # a bucket position takes one bucket's rows; the class aggregation groups records by bucket
        records = [SensitivityRecord(eq_key("B", bucket=7), 2.0), SensitivityRecord(eq_key("A", bucket=6), 1.0)]
        result = risk_class_delta(records, rb, MEDIUM)
        assert [(b.bucket, [f.name for f in b.factors]) for b in result.buckets] == [(6, ["A"]), (7, ["B"])]

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
        records, _ = collect_sensitivities(reference_portfolio, market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        total, scenarios = scenario_envelope(by_class, rb)
        totals = {sc: outcome.total for sc, outcome in scenarios.items()}
        assert len(totals) == 3
        assert total == max(totals.values())

    def test_high_dominates_for_all_long_book(self, rb, reference_portfolio, market, registry):
        records, _ = collect_sensitivities(reference_portfolio, market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        total, scenarios = scenario_envelope(by_class, rb)
        assert total == scenarios[CorrelationScenario.HIGH.value].total

    def test_single_factor_class_is_scenario_invariant(self, rb):
        records = {RiskClass.EQUITY: [SensitivityRecord(eq_key("XOM"), 1_000.0)]}
        _, scenarios = scenario_envelope(records, rb)
        totals = {outcome.total for outcome in scenarios.values()}
        assert len(totals) == 1

    def test_empty_input_gives_zero(self, rb):
        total, scenarios = scenario_envelope({}, rb)
        assert total == 0.0
        assert all(outcome.total == 0.0 for outcome in scenarios.values())

    def test_scenario_totals_sum_class_charges(self, rb, reference_portfolio, market, registry):
        records, _ = collect_sensitivities(reference_portfolio, market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        _, scenarios = scenario_envelope(by_class, rb)
        for outcome in scenarios.values():
            assert outcome.total == pytest.approx(
                math.fsum(c.charge for c in outcome.classes.values()), rel=REL_TOL
            )


    def test_each_factor_is_weighted_once_per_run(self, rb, reference_portfolio, market, registry, monkeypatch):
        netted, _ = collect_sensitivities(reference_portfolio, market, registry, rb)
        calls = []
        original = Rulebook.risk_weight

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Rulebook, "risk_weight", counting)
        report = compute_capital(reference_portfolio, market, registry, rb)
        assert len(report.scenarios) == 3
        assert len(calls) == len(netted) == 8

    def test_one_risk_weight_lookup_per_bucket_and_per_girr_factor(self, rb, market, registry, monkeypatch):
        # 300 names in equity bucket 8 (advanced, large, technology), names in other equity buckets, an FX, a
        # commodity and a bond position: one lookup per non-GIRR bucket, one per GIRR tenor.
        names = [f"W{i:03d}" for i in range(300)]
        wide_registry = {**registry, **{n: IssuerInfo(n, "technology", "advanced", "large") for n in names}}
        md = market._replace(equity_prices={**market.equity_prices, **{n: 10.0 + i for i, n in enumerate(names)}})
        positions = (
            *(CashEquity(n, 100 if i % 3 else -250) for i, n in enumerate(names)),
            CashEquity("XOM", 50), CashEquity("PBR", -20), FXPosition("EUR", 1e6), CommodityFuture("gold", 10, "oz"),
            Bond(notional=1e6, coupon_rate=0.05, maturity=7.3, frequency=2, currency="USD"),
        )
        calls = []
        original = Rulebook.risk_weight

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(Rulebook, "risk_weight", counting)
        report = compute_capital(Portfolio(positions=positions), md, wide_registry, rb)
        classes = report.scenarios["medium"].classes
        (wide,) = [b for b in classes["equity"].buckets if b.bucket == 8]
        assert len(wide.factors) >= 300
        (girr,) = classes["girr"].buckets
        expected = [(RiskClass(token), b.bucket) for token, c in classes.items() if token != "girr" for b in c.buckets]
        expected += [(GIRR, girr.bucket, f.tenor) for f in girr.factors]
        assert sorted(calls) == sorted(expected)
        assert calls.count((EQUITY, 8)) == 1

    def test_gammas_are_read_once_per_class_and_scenario(self, rb, market, registry, monkeypatch):
        # Six equity names in six buckets: one table read per scenario gives all 15 bucket pairs.
        names = ("XOM", "T", "MSFT", "PBR", "NWCO", "RGNL")
        calls = []
        original = Rulebook.cross_correlations

        def counting(self, risk_class, bucket_ids, scenario):
            calls.append((risk_class, list(bucket_ids), scenario))
            return original(self, risk_class, bucket_ids, scenario)

        monkeypatch.setattr(Rulebook, "cross_correlations", counting)
        report = compute_capital(Portfolio(positions=tuple(CashEquity(n, 100) for n in names)), market, registry, rb)
        buckets = [b.bucket for b in report.scenarios["medium"].classes["equity"].buckets]
        assert len(buckets) == 6
        assert calls == [(EQUITY, buckets, sc) for sc in CorrelationScenario]
        pairs = [(b, c) for i, b in enumerate(buckets) for c in buckets[i + 1 :]]
        for token, outcome in report.scenarios.items():
            used = outcome.classes["equity"].cross_correlations
            assert [(g.bucket_b, g.bucket_c, g.gamma) for g in used] == [
                (b, c, cross_correlation_per_pair(rb, EQUITY, c, b, CorrelationScenario(token))) for b, c in pairs
            ]


MIXED_QUANTITIES = st.floats(min_value=-1e7, max_value=1e7) | st.integers(min_value=-10**6, max_value=10**6).map(float)
MIXED_POSITIONS = st.one_of(
    st.builds(CashEquity, st.sampled_from(("XOM", "T", "MSFT", "JPM", "WMT", "BA", "PBR", "VALE", "NWCO", "RGNL")),
              MIXED_QUANTITIES),
    st.builds(FXPosition, st.sampled_from(("EUR", "JPY", "GBP", "CHF")), MIXED_QUANTITIES),
    st.builds(CommodityFuture, st.sampled_from(("gold", "silver", "crude_oil", "natural_gas", "copper", "wheat")),
              MIXED_QUANTITIES, st.just("")),
    st.builds(Bond, notional=st.floats(min_value=-1e8, max_value=1e8), coupon_rate=st.sampled_from((0.0, 0.03)),
              maturity=st.sampled_from((0.5, 4.0, 7.3, 30.0)), frequency=st.sampled_from((1, 2)),
              currency=st.just("USD")),
)


# Two names in one bucket in every class but GIRR (MSFT and JPM share equity bucket 8), and several buckets per class.
SHARED_BUCKETS = (CashEquity("MSFT", 100.0), CashEquity("JPM", -50.0), CommodityFuture("gold", 10.0, ""),
                  CommodityFuture("silver", -300.0, ""), FXPosition("EUR", 1e5), FXPosition("JPY", -1e6))


@pytest.fixture(scope="module")
def custom_scenario_rulebook():
    """The fixture rulebook with custom scenario rules, its cross pairs in the other order, and some nonzero pairs."""
    data = fixture_rulebook_data()
    for block in data["cross_correlations"].values():
        for row in block.get("pairs", []):
            row["b"], row["c"] = row["c"], row["b"]
    for token, b, c, value in (("equity", 8, 7, 0.3), ("commodity", 2, 7, 0.25), ("fx", 2, 1, 0.7)):
        data["cross_correlations"][token].setdefault("pairs", []).append({"b": b, "c": c, "value": value})
    data["scenario_rules"] = {"high": {"scale": 1.4, "cap": 0.95}, "low": {"scale": 0.6, "affine_scale": 2.5,
                                                                           "affine_shift": -1.2}}
    return rulebook_from_dict(data)


class TestAgainstThePerPairLookups:
    @settings(max_examples=100, deadline=None)
    @given(positions=st.lists(MIXED_POSITIONS, max_size=30), custom=st.booleans())
    def test_scenario_results_are_unchanged(self, rb, custom_scenario_rulebook, market, registry, positions, custom):
        # Resolved tables and per-pair lookups give the same scenario results, to the last digit of each repr.
        if custom:
            rb = custom_scenario_rulebook
        positions = (*SHARED_BUCKETS, *positions)
        records, _ = collect_sensitivities(Portfolio(positions=positions), market, registry, rb)
        by_class: dict = {}
        for rec in records:
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        capital, results = scenario_envelope(by_class, rb)
        expected_capital, expected = scenario_envelope(by_class, per_pair(rb))
        assert repr(capital) == repr(expected_capital)
        assert {token: repr(result) for token, result in results.items()} == {
            token: repr(result) for token, result in expected.items()
        }


GIRR = RiskClass.GIRR


@pytest.fixture(scope="module")
def two_girr_rulebook():
    """The fixture rulebook plus GIRR bucket 2 (EUR), weighted like bucket 1 (USD)."""
    data = fixture_rulebook_data()
    usd = next(b for b in data["buckets"] if b["risk_class"] == "girr")
    data["buckets"].append({**usd, "id": 2, "description": "EUR", "currencies": ["EUR"]})
    return rulebook_from_dict(data)


GIRR_DELTAS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestGirrTenorPairs:
    """A GIRR bucket's K_b comes from a tenor-pair rho mapping; the pairwise callback form is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_oracle_bit_for_bit(self, two_girr_rulebook, data):
        rb = two_girr_rulebook
        tenors = st.sampled_from(rb.tenor_grid)
        usd = data.draw(st.dictionaries(tenors, GIRR_DELTAS, min_size=1, max_size=10), label="usd")
        eur = data.draw(st.dictionaries(tenors, GIRR_DELTAS, max_size=10), label="eur")
        records = [
            SensitivityRecord(RiskFactorKey(GIRR, bucket, ccy, t), s)
            for bucket, ccy, deltas in ((1, "USD", usd), (2, "EUR", eur))
            for t, s in deltas.items()
        ]
        _, results = scenario_envelope({GIRR: records}, rb)
        for sc in CorrelationScenario:
            buckets = results[sc.value].classes["girr"].buckets
            assert [b.bucket for b in buckets] == ([1, 2] if eur else [1])
            for b in buckets:
                rows = [weight_sensitivity(r, rb) for r in records if r.key.bucket == b.bucket]
                oracle = bucket_risk_position(GIRR, b.bucket, rows, tenor_rho(rb, b.bucket), sc)
                assert b.k_b.hex() == oracle.k_b.hex()
                assert b.s_b_net.hex() == oracle.s_b_net.hex()

    def test_each_rho_is_looked_up_once_per_unordered_tenor_pair(self, rb, market, registry, monkeypatch):
        # A zero-coupon bond maturing on each of the 10 grid tenors: 45 tenor pairs under each of 3 scenarios.
        grid = rb.tenor_grid
        bonds = tuple(Bond(notional=1e6, coupon_rate=0.0, maturity=t, frequency=1, currency="USD") for t in grid)
        calls = []
        original = Rulebook.intra_correlation

        def counting(self, risk_class, bucket, k, l, scenario):
            calls.append((risk_class, bucket, k, l, scenario))
            return original(self, risk_class, bucket, k, l, scenario)

        monkeypatch.setattr(Rulebook, "intra_correlation", counting)
        report = compute_capital(Portfolio(positions=bonds), market, registry, rb)
        (bucket,) = report.scenarios["medium"].classes["girr"].buckets
        assert [f.tenor for f in bucket.factors] == list(grid)
        pairs = [(("USD", a), ("USD", b)) for i, a in enumerate(grid) for b in grid[i + 1 :]]
        assert len(pairs) == 45
        assert sorted(calls) == sorted((GIRR, 1, k, l, sc) for sc in CorrelationScenario for k, l in pairs)

    def test_non_finite_form_raises_naming_the_bucket(self, rb):
        records = [SensitivityRecord(RiskFactorKey(GIRR, 1, "USD", t), s) for t, s in ((1.0, 1.0), (2.0, math.inf))]
        with pytest.raises(AggregationError, match=r"^girr bucket 1: intra-bucket quadratic form is inf under scenario low"):
            scenario_envelope({GIRR: records}, rb)


class TestUniformRhoBucket:
    """Non-GIRR buckets use K_b^2 = (1 - rho) sum WS^2 + rho (sum WS)^2."""

    @settings(max_examples=200, deadline=None)
    @given(
        amounts=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
        ),
        rho=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    @example(amounts=[1.0601711442206303e-161] * 2, rho=1.0)  # the unscaled oracle's squares are subnormal
    def test_matches_pairwise_sum(self, amounts, rho):
        records = [SensitivityRecord(eq_key(f"N{i}", bucket=1), a) for i, a in enumerate(amounts)]
        closed = risk_class_delta(records, one_bucket_rulebook(rho), MEDIUM).buckets[0]
        pairwise = position([ws(f"N{i}", a) for i, a in enumerate(amounts)], rho_const(rho), bucket=1)
        assert closed.s_b_net == pairwise.s_b_net
        # K_b is homogeneous in the amounts, so the oracle's K_b is taken on the amounts scaled by the power
        # of two of the largest one, where no square underflows, and scaled back exactly.
        _, exp = math.frexp(max(abs(a) for a in amounts))
        scaled = position([ws(f"N{i}", math.ldexp(a, -exp)) for i, a in enumerate(amounts)], rho_const(rho), bucket=1)
        k_b = math.ldexp(scaled.k_b, exp)
        # Near zero the two forms differ by rounding only: bound that by sum |WS|^2.
        scale = math.fsum(a * a for a in amounts)
        assert abs(closed.k_b - k_b) <= REL_TOL * k_b or abs(closed.k_b**2 - k_b**2) <= REL_TOL * scale

    def test_one_rho_read_per_scenario_for_a_wide_bucket(self, rb, monkeypatch):
        names = [f"W{i:03d}" for i in range(300)]
        registry = {n: IssuerInfo(n, "technology", "advanced", "large") for n in names}
        md = MarketData(reporting_currency="USD", equity_prices={n: 10.0 + i for i, n in enumerate(names)})
        p = Portfolio(positions=tuple(CashEquity(n, 100 if i % 3 else -250) for i, n in enumerate(names)))
        calls = []
        original = Rulebook.intra_correlations

        def counting(self, risk_class, bucket_ids, scenario):
            calls.append((risk_class, list(bucket_ids), scenario))
            return original(self, risk_class, bucket_ids, scenario)

        monkeypatch.setattr(Rulebook, "intra_correlations", counting)
        report = compute_capital(p, md, registry, rb)
        (bucket,) = report.scenarios["medium"].classes["equity"].buckets
        assert len(bucket.factors) == 300
        assert calls == [(EQUITY, [bucket.bucket], sc) for sc in CorrelationScenario]

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

    def test_duplicate_name_raises_naming_its_bucket_before_any_scenario(self, rb, monkeypatch):
        # Bucket 7 is clean; bucket 8 holds "B" twice. The check runs once, while the buckets are prepared.
        records = [SensitivityRecord(eq_key(name, bucket), 1.0) for name, bucket in (("A", 7), ("C", 7), ("B", 8), ("B", 8))]
        calls = []
        original = Rulebook.intra_correlations
        monkeypatch.setattr(Rulebook, "intra_correlations", lambda self, *args: calls.append(args) or original(self, *args))
        with pytest.raises(AggregationError, match="^duplicate factor keys in equity bucket 8; net the records first$"):
            scenario_envelope({EQUITY: records}, rb)
        assert calls == []


class TestNonFiniteForms:
    """A NaN or infinite quadratic form raises; it is never floored to zero."""

    def test_nan_sensitivity_raises_naming_bucket_and_scenario(self, rb, reference_portfolio, market, registry):
        # compute_capital stops a NaN price at the position (see test_sensitivities);
        # records handed to the aggregation directly still meet this guard.
        by_class: dict = {}
        for rec in collect_sensitivities(reference_portfolio, market, registry, rb)[0]:
            if rec.key.name == "XOM":
                rec = SensitivityRecord(rec.key, math.nan)
            by_class.setdefault(rec.key.risk_class, []).append(rec)
        with pytest.raises(AggregationError, match=r"^equity bucket 7: intra-bucket quadratic form is nan under scenario low"):
            scenario_envelope(by_class, rb)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pairwise_form(self, bad):
        with pytest.raises(AggregationError, match="equity bucket 7: intra-bucket quadratic form"):
            position([ws("A", 1.0), ws("B", bad)], rho_const(0.3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_closed_form(self, bad):
        records = [SensitivityRecord(eq_key("A", bucket=1), 1.0), SensitivityRecord(eq_key("B", bucket=1), bad)]
        with pytest.raises(AggregationError, match="equity bucket 1: intra-bucket quadratic form"):
            risk_class_delta(records, one_bucket_rulebook(0.5), MEDIUM)

    def test_cross_bucket_overflow(self):
        b6 = position([ws("A", 1e154)], rho_const(0.0), bucket=6)
        b7 = position([ws("B", 1e154)], rho_const(0.0), bucket=7)
        with pytest.raises(AggregationError, match=r"equity buckets \[6, 7\]: cross-bucket quadratic form is nan under scenario medium"):
            charge([b6, b7], gamma_const(0.5))

    def test_finite_negative_form_still_floors_at_zero(self):
        records = [SensitivityRecord(eq_key(n, bucket=1), 1.0) for n in "ABC"]
        assert risk_class_delta(records, one_bucket_rulebook(-0.9), MEDIUM).buckets[0].k_b == 0.0
