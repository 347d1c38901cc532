"""Bump-and-revalue deltas: worked examples, identities, netting."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmcap import sensitivities
from sbmcap.engine import compute_capital
from sbmcap.portfolio import (
    Bond,
    CashEquity,
    CommodityFuture,
    CurveExtrapolationWarning,
    FXPosition,
    IssuerInfo,
    MarketData,
    MarketDataError,
    Portfolio,
    ZeroCurve,
    value,
)
from sbmcap.rulebook import RiskClass
from sbmcap.sensitivities import (
    GIRR_BUMP,
    REL_BUMP,
    RiskFactorKey,
    SensitivityError,
    SensitivityRecord,
    collect_sensitivities,
    collect_with_warnings,
    girr_deltas,
    net_records,
    spot_delta,
    tent_bumped_curve,
)

REL_TOL = 1e-12

# Pillars off the standard grid, and a curve that ends (20y) before the grid does (30y).
OFF_GRID_CURVE = ZeroCurve((0.1, 0.75, 4.0, 7.0, 12.5, 25.0, 40.0), (0.021, 0.025, 0.031, 0.034, 0.037, 0.041, 0.039))
SHORT_CURVE = ZeroCurve((0.5, 1.0, 2.0, 5.0, 10.0, 20.0), (0.045, 0.043, 0.04, 0.038, 0.039, 0.041))


def whole_curve_girr_deltas(bond, md, grid):
    """Oracle: revalue the whole bond on each tent-bumped curve; keep non-zero deltas."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CurveExtrapolationWarning)
        base = value(bond, md)
        out = {}
        for tenor in grid:
            bumped = value(bond, replace(md, zero_curve=tent_bumped_curve(md.zero_curve, grid, tenor, GIRR_BUMP)))
            s = (bumped - base) / GIRR_BUMP
            if s != 0.0:
                out[tenor] = s
    return out


class TestSpotDeltas:
    def test_equity_delta_recovers_position_value(self, market):
        # 10,000 XOM shares at 110: delta is the 1,100,000 position value.
        rec = spot_delta(CashEquity("XOM", 10_000), market, bucket=7)
        assert rec.key == RiskFactorKey(RiskClass.EQUITY, 7, "XOM")
        assert rec.value == pytest.approx(1_100_000.0, rel=REL_TOL)
        assert round(rec.value, 2) == 1_100_000.00

    def test_equity_delta_att(self, market):
        rec = spot_delta(CashEquity("T", 10_000), market, bucket=6)
        assert rec.value == pytest.approx(170_000.0, rel=REL_TOL)
        assert round(rec.value, 2) == 170_000.00

    def test_fx_deltas(self, market):
        eur = spot_delta(FXPosition("EUR", 100_000), market, bucket=1)
        assert eur.key == RiskFactorKey(RiskClass.FX, 1, "EUR")
        assert eur.value == pytest.approx(110_000.0, rel=REL_TOL)
        jpy = spot_delta(FXPosition("JPY", 10_000_000), market, bucket=2)
        assert jpy.value == pytest.approx(91_000.0, rel=REL_TOL)

    def test_commodity_deltas(self, market):
        gold = spot_delta(CommodityFuture("gold", 600, "oz"), market, bucket=7)
        assert gold.value == pytest.approx(1_200_000.0, rel=REL_TOL)
        crude = spot_delta(CommodityFuture("crude_oil", 2_000, "bbl"), market, bucket=2)
        assert crude.value == pytest.approx(160_000.0, rel=REL_TOL)

    def test_short_position_gives_negative_delta(self, market):
        rec = spot_delta(CashEquity("T", -5_000), market, bucket=6)
        assert rec.value == pytest.approx(-85_000.0, rel=REL_TOL)

    def test_delta_scales_with_position(self, market):
        one = spot_delta(CashEquity("MSFT", 1_000), market, bucket=8).value
        three = spot_delta(CashEquity("MSFT", 3_000), market, bucket=8).value
        assert three == pytest.approx(3.0 * one, rel=REL_TOL)

    def test_linear_bump_identity_for_all_spot_types(self, market):
        # For linear instruments the relative bump reproduces value() itself.
        instruments = [
            (CashEquity("XOM", 10_000), 7),
            (CashEquity("T", 10_000), 6),
            (FXPosition("EUR", 100_000), 1),
            (FXPosition("JPY", 10_000_000), 2),
            (CommodityFuture("gold", 600, "oz"), 7),
            (CommodityFuture("crude_oil", 2_000, "bbl"), 2),
        ]
        for instr, bucket in instruments:
            assert spot_delta(instr, market, bucket).value == pytest.approx(value(instr, market), rel=1e-9)

    @pytest.mark.parametrize(
        "instr, quotes, name",
        [
            (CashEquity("XOM", 10_000), "equity_prices", "XOM"),
            (FXPosition("EUR", 100_000), "fx_spots", "EUR"),
            (CommodityFuture("gold", 600, "oz"), "commodity_prices", "gold"),
        ],
    )
    def test_bumped_snapshot_holds_only_the_bumped_quote(self, market, monkeypatch, instr, quotes, name):
        seen = []

        def recording(instr, md):
            seen.append(md)
            return value(instr, md)

        monkeypatch.setattr(sensitivities, "value", recording)
        spot_delta(instr, market, bucket=1)
        base, bumped = seen
        assert base is market
        assert getattr(bumped, quotes) == {name: getattr(market, quotes)[name] * (1.0 + REL_BUMP)}
        others = {"equity_prices", "fx_spots", "commodity_prices"} - {quotes}
        assert all(getattr(bumped, other) == getattr(market, other) for other in others)


class TestGirrDeltas:
    def test_one_year_zero_coupon_worked_example(self, rb):
        # 1y zero-coupon 10,000 on a flat 0 percent curve; bumping the 1y node
        # by 1bp: s = 10,000 * ((1.0001)^-1 - 1) / 0.0001, about -9,999.00.
        md = MarketData(reporting_currency="USD", zero_curve=ZeroCurve((0.25, 30.0), (0.0, 0.0)))
        bond = Bond(notional=10_000, coupon_rate=0.0, maturity=1.0, frequency=1, currency="USD")
        records = girr_deltas(bond, md, rb.tenor_grid, bucket=1)
        by_tenor = {rec.key.tenor: rec.value for rec in records}
        expected = 10_000 * (1.0001**-1.0 - 1.0) / 0.0001
        assert by_tenor[1.0] == pytest.approx(expected, rel=REL_TOL)
        assert round(by_tenor[1.0], 2) == -9_999.00

    def test_zero_coupon_bond_loads_single_tenor(self, rb, market):
        bond = Bond(notional=10_000, coupon_rate=0.0, maturity=5.0, frequency=1, currency="USD")
        records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        assert [rec.key.tenor for rec in records] == [5.0]
        assert records[0].value < 0
        assert records[0].key.name == "USD"

    def test_coupon_bond_spreads_over_grid_tenors(self, rb, market):
        bond = Bond(notional=100.0, coupon_rate=0.05, maturity=3.0, frequency=1, currency="USD")
        records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        assert [rec.key.tenor for rec in records] == [1.0, 2.0, 3.0]
        assert all(rec.value < 0 for rec in records)

    def test_off_grid_flows_hit_adjacent_tenors(self, rb, market):
        # single flow at 4y sits between the 3y and 5y grid tenors
        bond = Bond(notional=100.0, coupon_rate=0.0, maturity=4.0, frequency=1, currency="USD")
        records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        assert [rec.key.tenor for rec in records] == [3.0, 5.0]

    def test_tenor_sum_matches_parallel_bump_for_grid_zero_coupon(self, rb, market):
        for maturity in (5.0, 10.0):
            bond = Bond(notional=10_000, coupon_rate=0.0, maturity=maturity, frequency=1, currency="USD")
            records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
            total = math.fsum(rec.value for rec in records)
            base = value(bond, market)
            bumped = value(bond, MarketData(
                reporting_currency="USD",
                zero_curve=market.zero_curve.parallel_bumped(GIRR_BUMP),
            ))
            parallel = (bumped - base) / GIRR_BUMP
            assert total == pytest.approx(parallel, rel=REL_TOL)

    def test_tenor_sum_near_parallel_bump_for_coupon_bond(self, rb, market):
        # One-sided bumps agree with the parallel bump only to first order for
        # off-grid coupon flows; the residual is second order in the bump.
        bond = Bond(notional=10_000, coupon_rate=0.035, maturity=10.0, frequency=2, currency="USD")
        records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        total = math.fsum(rec.value for rec in records)
        bumped = value(bond, MarketData(
            reporting_currency="USD",
            zero_curve=market.zero_curve.parallel_bumped(GIRR_BUMP),
        ))
        parallel = (bumped - value(bond, market)) / GIRR_BUMP
        assert total == pytest.approx(parallel, rel=1e-4)

    def test_tent_weights_sum_to_parallel_shift(self, rb, market):
        # t=40 sits beyond the last pillar; the partition of unity must hold
        # in the flat-extrapolation zone too, which warns on each query.
        grid = rb.tenor_grid
        base = market.zero_curve
        total = {t: 0.0 for t in (0.1, 0.25, 0.7, 1.0, 4.0, 12.5, 30.0, 40.0)}
        with pytest.warns(CurveExtrapolationWarning):
            for tenor in grid:
                bumped = tent_bumped_curve(base, grid, tenor, GIRR_BUMP)
                for t in total:
                    total[t] += bumped.rate(t) - base.rate(t)
        for t, shift in total.items():
            assert shift == pytest.approx(GIRR_BUMP, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        maturity=st.one_of(
            st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0)),
            st.floats(min_value=0.05, max_value=0.25),
            st.floats(min_value=30.0, max_value=45.0),
            st.floats(min_value=0.05, max_value=45.0),
        ),
        frequency=st.sampled_from((1, 2, 4)),
        coupon=st.floats(min_value=0.0, max_value=0.08),
        notional=st.one_of(st.floats(min_value=1e3, max_value=1e8), st.floats(min_value=-1e8, max_value=-1e3)),
        curve=st.sampled_from(("fixture", "off_grid", "short")),
    )
    def test_matches_whole_curve_revaluation(self, rb, market, maturity, frequency, coupon, notional, curve):
        md = {"fixture": market, "off_grid": replace(market, zero_curve=OFF_GRID_CURVE),
              "short": replace(market, zero_curve=SHORT_CURVE)}[curve]
        bond = Bond(notional=notional, coupon_rate=coupon, maturity=maturity, frequency=frequency, currency="USD")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CurveExtrapolationWarning)
            records = girr_deltas(bond, md, rb.tenor_grid, bucket=1)
        got = {rec.key.tenor: rec.value for rec in records}
        expected = whole_curve_girr_deltas(bond, md, rb.tenor_grid)
        assert [rec.key.tenor for rec in records] == sorted(got)
        floor = 1e-9 * abs(notional)
        # The same tenors, except that one side may carry a tenor whose delta is
        # below the floor: the whole-bond difference V_bumped - V_base rounds a
        # negligible flow's change (say a coupon of 1e-280) to exactly 0, which
        # the per-flow sum keeps.
        assert {t for t, s in got.items() if abs(s) > floor} <= set(expected)
        assert {t for t, s in expected.items() if abs(s) > floor} <= set(got)
        for tenor in set(got) | set(expected):
            assert got.get(tenor, 0.0) == pytest.approx(expected.get(tenor, 0.0), rel=1e-9, abs=floor)

    @pytest.mark.parametrize("maturity", [0.1, 0.25, 5.0, 10.0, 30.0, 40.0])
    def test_zero_coupon_bond_matches_whole_curve_revaluation_bit_for_bit(self, rb, market, maturity):
        # One non-zero flow below, on or beyond the grid: its PV difference is
        # V(z + tent) - V(z) itself, so the fixture report does not move.
        bond = Bond(notional=10_000, coupon_rate=0.0, maturity=maturity, frequency=1, currency="USD")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CurveExtrapolationWarning)
            records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        got = {rec.key.tenor: rec.value for rec in records}
        assert got == whole_curve_girr_deltas(bond, market, rb.tenor_grid)
        assert len(got) == 1

    def test_foreign_bond_fails_at_valuation_with_the_value_message(self, rb, registry, market):
        # USD has a GIRR bucket, so classification passes; the EUR snapshot has no USD curve.
        md = replace(market, reporting_currency="EUR")
        bond = Bond(notional=100.0, coupon_rate=0.02, maturity=5.0, frequency=1, currency="USD")
        with pytest.raises(MarketDataError) as from_value:
            value(bond, md)
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(Portfolio(positions=(CashEquity("XOM", 1), bond)), md, registry, rb)
        assert [(i.index, i.stage, i.message) for i in excinfo.value.issues] == [(1, "valuation", str(from_value.value))]

    def test_extrapolation_warnings_name_only_the_market_curve(self, rb, registry, market):
        # The curve ends at 20y, the grid at 30y: every flow past 20y warns once,
        # against the market's last pillar, not against the 30y grid end.
        md = replace(market, zero_curve=SHORT_CURVE)
        bond = Bond(notional=100.0, coupon_rate=0.02, maturity=40.0, frequency=1, currency="USD")
        _, messages = collect_with_warnings(Portfolio(positions=(bond,)), md, registry, rb)
        assert messages == tuple(
            f"zero rate at t={t} beyond last pillar 20, extrapolating flat" for t in range(21, 41)
        )

    def test_extrapolation_and_residual_warnings_in_position_and_flow_order(self, rb, registry, market, reference_portfolio):
        # Fixture curve: the last pillar is the last grid tenor, as in the benchmark.
        md = replace(market, equity_prices={**market.equity_prices, "ACME": 50.0})
        bonds = tuple(
            Bond(notional=1e6, coupon_rate=0.03, maturity=m, frequency=f, currency="USD")
            for m, f in ((31.3, 4), (30.7, 2), (34.9, 1))
        )
        p = Portfolio(positions=(bonds[0], CashEquity("ACME", 10), *bonds[1:]))
        report = compute_capital(p, md, registry, rb)
        beyond = [f"zero rate at t={t:g} beyond last pillar 30, extrapolating flat"
                  for bond in bonds for t, _ in bond.cash_flows() if t > 30.0]
        expected = [*beyond[:6], "issuer 'ACME' not in registry; assigned to residual bucket 11", *beyond[6:]]
        assert report.warnings == tuple(dict.fromkeys(expected))
        assert compute_capital(reference_portfolio, market, registry, rb).warnings == ()

    def test_off_grid_tenor_rejected(self, market, rb):
        with pytest.raises(ValueError, match="not on the grid"):
            tent_bumped_curve(market.zero_curve, rb.tenor_grid, 7.0, GIRR_BUMP)


class TestRiskFactorKey:
    def test_tenor_required_for_girr(self):
        with pytest.raises(ValueError, match="tenor"):
            RiskFactorKey(RiskClass.GIRR, 1, "USD")

    def test_tenor_forbidden_for_spot_classes(self):
        with pytest.raises(ValueError, match="tenor"):
            RiskFactorKey(RiskClass.EQUITY, 7, "XOM", tenor=5.0)


class TestCollectAndNet:
    def test_reference_portfolio_collects_eight_factors(self, reference_portfolio, market, registry, rb):
        records = collect_sensitivities(reference_portfolio, market, registry, rb)
        keys = [(r.key.risk_class.value, r.key.bucket, r.key.name, r.key.tenor) for r in records]
        assert keys == [
            ("commodity", 2, "crude_oil", None),
            ("commodity", 7, "gold", None),
            ("equity", 6, "T", None),
            ("equity", 7, "XOM", None),
            ("fx", 1, "EUR", None),
            ("fx", 2, "JPY", None),
            ("girr", 1, "USD", 5.0),
            ("girr", 1, "USD", 10.0),
        ]

    def test_same_factor_positions_net(self, market, registry, rb):
        p = Portfolio(positions=(CashEquity("XOM", 10_000), CashEquity("XOM", -4_000)))
        records = collect_sensitivities(p, market, registry, rb)
        assert len(records) == 1
        assert records[0].value == pytest.approx(660_000.0, rel=REL_TOL)

    def test_collect_is_additive_over_portfolios(self, market, registry, rb):
        p1 = Portfolio(positions=(CashEquity("XOM", 10_000), FXPosition("EUR", 50_000)))
        p2 = Portfolio(positions=(CashEquity("XOM", -3_000), CommodityFuture("gold", 10, "oz")))
        union = Portfolio(positions=p1.positions + p2.positions)
        merged = {r.key: r.value for r in collect_sensitivities(union, market, registry, rb)}
        split: dict = {}
        for part in (p1, p2):
            for rec in collect_sensitivities(part, market, registry, rb):
                split[rec.key] = split.get(rec.key, 0.0) + rec.value
        assert set(merged) == set(split)
        for key, total in merged.items():
            assert total == pytest.approx(split[key], rel=REL_TOL, abs=1e-9)

    def test_all_failures_reported_with_index_and_stage(self, market, registry, rb):
        registry_plus = {**registry, "NOPRICE": IssuerInfo("NOPRICE", "energy", "advanced", "large")}
        p = Portfolio(positions=(
            CashEquity("NOPRICE", 100),
            Bond(notional=100.0, coupon_rate=0.0, maturity=1.0, frequency=1, currency="EUR"),
            CashEquity("XOM", 100),
        ))
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(p, market, registry_plus, rb)
        issues = excinfo.value.issues
        assert [(i.index, i.stage) for i in issues] == [(0, "valuation"), (1, "classification")]
        assert "NOPRICE" in issues[0].message
        assert "EUR" in issues[1].message

    def test_empty_portfolio_collects_nothing(self, market, registry, rb):
        assert collect_sensitivities(Portfolio(positions=()), market, registry, rb) == []

    def test_net_records_orders_deterministically(self):
        key_b = RiskFactorKey(RiskClass.EQUITY, 7, "B")
        key_a = RiskFactorKey(RiskClass.EQUITY, 6, "A")
        key_g = RiskFactorKey(RiskClass.GIRR, 1, "USD", tenor=5.0)
        records = [
            SensitivityRecord(key_g, 1.0),
            SensitivityRecord(key_b, 2.0),
            SensitivityRecord(key_a, 3.0),
            SensitivityRecord(key_b, 4.0),
        ]
        netted = net_records(records)
        assert [r.key for r in netted] == [key_a, key_b, key_g]
        assert netted[1].value == 6.0
