"""Bump-and-revalue deltas: worked examples, identities, netting."""

from __future__ import annotations

import bisect
import math
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import bond_value, fixture_rulebook_data, parallel_bumped
from sbmcap import portfolio, sensitivities
from sbmcap.engine import compute_capital
from sbmcap.portfolio import (
    Bond,
    CashEquity,
    CommodityFuture,
    FXPosition,
    IssuerInfo,
    MarketData,
    MarketDataError,
    Portfolio,
    PortfolioError,
    ZeroCurve,
    assign_bucket,
    value,
)
from sbmcap.aggregation import AggregationError, scenario_envelope
from sbmcap.rulebook import RiskClass, RulebookError, RulebookQueryError, rulebook_from_dict
from sbmcap.sensitivities import (
    GIRR_BUMP,
    REL_BUMP,
    FactorOverflowError,
    RiskFactorKey,
    SensitivityError,
    SensitivityRecord,
    collect_sensitivities,
    net_records,
    tent_bumped_curve,
)

REL_TOL = 1e-12

# Pillars off the standard grid, and a curve that ends (20y) before the grid does (30y).
OFF_GRID_CURVE = ZeroCurve((0.1, 0.75, 4.0, 7.0, 12.5, 25.0, 40.0), (0.021, 0.025, 0.031, 0.034, 0.037, 0.041, 0.039))
SHORT_CURVE = ZeroCurve((0.5, 1.0, 2.0, 5.0, 10.0, 20.0), (0.045, 0.043, 0.04, 0.038, 0.039, 0.041))
# One pillar inside the grid: flat everywhere, extrapolated beyond 7y.
ONE_PILLAR_CURVE = ZeroCurve((7.0,), (0.03,))
# The fixture rulebook's tenor grid; the fixture curve's pillars are the same tenors.
FIXTURE_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0, 20.0, 30.0)
# A grid whose tenors and spacings are not exact binary fractions.
ODD_GRID = (0.3, 0.7, 1.1, 2.9, 4.3, 7.7, 11.3, 17.9, 26.1)


# Spot type -> (risk class, attribute naming its quote, MarketData method, field holding the quote).
SPOT_QUOTES = {
    CashEquity: (RiskClass.EQUITY, "issuer_id", "equity_price", "equity_prices"),
    FXPosition: (RiskClass.FX, "foreign_currency", "fx_spot", "fx_spots"),
    CommodityFuture: (RiskClass.COMMODITY, "commodity_id", "commodity_price", "commodity_prices"),
}


def spot_quote(instr, md, bucket):
    """Oracle: factor key of the one spot quote a position reads, and the snapshot with it bumped by 1%.

    The bumped snapshot holds that quote alone.
    """
    risk_class, name_attr, getter, quotes = SPOT_QUOTES[type(instr)]
    name = getattr(instr, name_attr)
    bumped = md._replace(**{quotes: {name: getattr(md, getter)(name) * (1.0 + REL_BUMP)}})
    return RiskFactorKey(risk_class=risk_class, bucket=bucket, name=name), bumped


def spot_delta(instr, md, key, bumped):
    """Oracle: [V(bumped) - V(md)] / 1% of one position, by revaluation, as factor ``key``."""
    base = value(instr, md)
    return SensitivityRecord(key=key, value=(value(instr, bumped) - base) / REL_BUMP)


def delta(instr, md, bucket):
    """Spot delta of one position, on its own quote's key and bumped snapshot."""
    return spot_delta(instr, md, *spot_quote(instr, md, bucket))


# Spot positions that fall to a residual bucket in ``with_residual_quotes(market)``.
RESIDUAL_SPOTS = (CashEquity("ACME", 10.0), CommodityFuture("unobtainium", 2.0, ""), CashEquity("ZETA", -5.0))


def with_residual_quotes(md):
    """The snapshot with quotes for the residual names ACME, ZETA (equities) and unobtainium."""
    return md._replace(equity_prices={**md.equity_prices, "ACME": 50.0, "ZETA": 20.0},
                   commodity_prices={**md.commodity_prices, "unobtainium": 7.0})


def kernel_deltas(bond, md, grid, bucket):
    """The GIRR kernel on one bond: a record per tenor it loads, and its notes in flow order."""
    notes = []
    pairs = sensitivities._GirrKernel(md, grid).deltas(bond, bucket, notes)
    return [SensitivityRecord(key, s) for key, s in pairs], notes


def girr_deltas(bond, md, grid, bucket):
    """The kernel's per-tenor delta records of one bond."""
    return kernel_deltas(bond, md, grid, bucket)[0]


def whole_curve_girr_deltas(bond, md, grid):
    """Oracle: revalue the whole bond on each tent-bumped curve; keep non-zero deltas."""
    base = bond_value(bond, md)
    out = {}
    for tenor in grid:
        bumped = bond_value(bond, md._replace(zero_curve=tent_bumped_curve(md.zero_curve, grid, tenor, GIRR_BUMP)))
        s = (bumped - base) / GIRR_BUMP
        if s != 0.0:
            out[tenor] = s
    return out


def per_flow_girr_deltas(bond, md, grid, bucket):
    """Oracle: the per-flow kernel, with a ZeroCurve.rate call and a grid bisect for each cash flow.

    Returns the records and the extrapolation notes: one per flow beyond the
    curve's last pillar, in ascending t.
    """
    if bond.currency != md.reporting_currency:
        raise MarketDataError(
            f"bond denominated in {bond.currency}, but only the {md.reporting_currency} curve is available"
        )
    curve = md.zero_curve
    terms = defaultdict(list)
    notes = []
    for t, amount in bond.cash_flows():
        z = curve.rate(t)
        if t > curve.tenors[-1]:
            notes.append(f"zero rate at t={t:g} beyond last pillar {curve.tenors[-1]:g}, extrapolating flat")
        pv = amount * (1.0 + z) ** -t
        for i, w in covering_tents(grid, t):
            terms[i].append(amount * (1.0 + (z + GIRR_BUMP * w)) ** -t - pv)
    records = []
    for i in sorted(terms):
        s = math.fsum(terms[i]) / GIRR_BUMP
        if s != 0.0:
            records.append(SensitivityRecord(RiskFactorKey(RiskClass.GIRR, bucket, bond.currency, grid[i]), s))
    return records, notes


def covering_tents(grid, t):
    """(grid index, tent weight) of the tents that are non-zero at t.

    The one end tenor at or beyond a grid end or on a grid tenor, else the two
    grid tenors either side of t.
    """
    if t <= grid[0]:
        return ((0, 1.0),)
    if t >= grid[-1]:
        return ((len(grid) - 1, 1.0),)
    i = bisect.bisect_right(grid, t)
    lo, hi = grid[i - 1], grid[i]
    if t == lo:
        return ((i - 1, 1.0),)
    return ((i - 1, (hi - t) / (hi - lo)), (i, (t - lo) / (hi - lo)))


def bits(records):
    """Records as (key, exact float bits), so that equal means equal to the last bit."""
    return [(rec.key, rec.value.hex()) for rec in records]


class TestSpotDeltas:
    def test_equity_delta_recovers_position_value(self, market):
        # 10,000 XOM shares at 110: delta is the 1,100,000 position value.
        rec = delta(CashEquity("XOM", 10_000), market, bucket=7)
        assert rec.key == RiskFactorKey(RiskClass.EQUITY, 7, "XOM")
        assert rec.value == pytest.approx(1_100_000.0, rel=REL_TOL)
        assert round(rec.value, 2) == 1_100_000.00

    def test_equity_delta_att(self, market):
        rec = delta(CashEquity("T", 10_000), market, bucket=6)
        assert rec.value == pytest.approx(170_000.0, rel=REL_TOL)
        assert round(rec.value, 2) == 170_000.00

    def test_fx_deltas(self, market):
        eur = delta(FXPosition("EUR", 100_000), market, bucket=1)
        assert eur.key == RiskFactorKey(RiskClass.FX, 1, "EUR")
        assert eur.value == pytest.approx(110_000.0, rel=REL_TOL)
        jpy = delta(FXPosition("JPY", 10_000_000), market, bucket=2)
        assert jpy.value == pytest.approx(91_000.0, rel=REL_TOL)

    def test_commodity_deltas(self, market):
        gold = delta(CommodityFuture("gold", 600, "oz"), market, bucket=7)
        assert gold.value == pytest.approx(1_200_000.0, rel=REL_TOL)
        crude = delta(CommodityFuture("crude_oil", 2_000, "bbl"), market, bucket=2)
        assert crude.value == pytest.approx(160_000.0, rel=REL_TOL)

    def test_short_position_gives_negative_delta(self, market):
        rec = delta(CashEquity("T", -5_000), market, bucket=6)
        assert rec.value == pytest.approx(-85_000.0, rel=REL_TOL)

    def test_delta_scales_with_position(self, market):
        one = delta(CashEquity("MSFT", 1_000), market, bucket=8).value
        three = delta(CashEquity("MSFT", 3_000), market, bucket=8).value
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
            assert delta(instr, market, bucket).value == pytest.approx(value(instr, market), rel=1e-9)

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
        original = value

        def recording(instr, md):
            seen.append(md)
            return original(instr, md)

        monkeypatch.setitem(globals(), "value", recording)
        delta(instr, market, bucket=1)
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
            base = bond_value(bond, market)
            bumped = bond_value(bond, MarketData(
                reporting_currency="USD",
                zero_curve=parallel_bumped(market.zero_curve, GIRR_BUMP),
            ))
            parallel = (bumped - base) / GIRR_BUMP
            assert total == pytest.approx(parallel, rel=REL_TOL)

    def test_tenor_sum_near_parallel_bump_for_coupon_bond(self, rb, market):
        # One-sided bumps agree with the parallel bump only to first order for
        # off-grid coupon flows; the residual is second order in the bump.
        bond = Bond(notional=10_000, coupon_rate=0.035, maturity=10.0, frequency=2, currency="USD")
        records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        total = math.fsum(rec.value for rec in records)
        bumped = bond_value(bond, MarketData(
            reporting_currency="USD",
            zero_curve=parallel_bumped(market.zero_curve, GIRR_BUMP),
        ))
        parallel = (bumped - bond_value(bond, market)) / GIRR_BUMP
        assert total == pytest.approx(parallel, rel=1e-4)

    def test_tent_weights_sum_to_parallel_shift(self, rb, market):
        # t=40 sits beyond the last pillar; the partition of unity must hold
        # in the flat-extrapolation zone too, where ZeroCurve.rate is silent.
        grid = rb.tenor_grid
        base = market.zero_curve
        total = {t: 0.0 for t in (0.1, 0.25, 0.7, 1.0, 4.0, 12.5, 30.0, 40.0)}
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
        md = {"fixture": market, "off_grid": market._replace(zero_curve=OFF_GRID_CURVE),
              "short": market._replace(zero_curve=SHORT_CURVE)}[curve]
        bond = Bond(notional=notional, coupon_rate=coupon, maturity=maturity, frequency=frequency, currency="USD")
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
        records = girr_deltas(bond, market, rb.tenor_grid, bucket=1)
        got = {rec.key.tenor: rec.value for rec in records}
        assert got == whole_curve_girr_deltas(bond, market, rb.tenor_grid)
        assert len(got) == 1

    # Maturities on every pillar and grid tenor, so that flows land exactly on
    # them (5y annual: 5, 4, 3, 2, 1; 20.25y quarterly also on 0.25 and 0.5),
    # below every curve's first pillar and beyond every curve's last one; bonds
    # with no flow (maturity at most 1e-9) or a single one; plus arbitrary
    # ones. Spot positions that fall to a residual bucket sit between the bonds,
    # so that their notes interleave with the extrapolation notes.
    @settings(max_examples=400, deadline=None)
    @example(positions=[Bond(1e6, 0.03, 20.25, 4, "USD"), CashEquity("ACME", 10.0), Bond(-1e5, 0.0, 30.0, 2, "USD")],
             curve="short", rates=[0.0, -0.0, 0.0, -0.0, 0.01, -0.0, 0.0, 0.0, 0.0, 0.0], odd_grid=False)
    @example(positions=[Bond(1e6, 0.03, 1e-9, 1, "USD"), Bond(1e6, 0.03, 0.3, 1, "USD")], curve="empty", rates=None,
             odd_grid=False)
    @given(
        positions=st.lists(
            st.builds(
                Bond,
                notional=st.one_of(st.floats(min_value=1e3, max_value=1e8), st.floats(min_value=-1e8, max_value=-1e3)),
                coupon_rate=st.floats(min_value=0.0, max_value=0.08),
                maturity=st.one_of(
                    st.sampled_from(sorted({*FIXTURE_GRID, *ODD_GRID, *OFF_GRID_CURVE.tenors, *SHORT_CURVE.tenors})),
                    st.sampled_from((0.05, 0.07, 20.25, 25.5, 30.25, 32.5, 40.5, 41.0, 45.0)),
                    st.sampled_from((1e-12, 5e-10, 1e-9)),
                    st.floats(min_value=1e-12, max_value=1.0),
                    st.floats(min_value=0.05, max_value=45.0),
                ),
                frequency=st.sampled_from((1, 2, 4)),
                currency=st.just("USD"),
            )
            | st.sampled_from(RESIDUAL_SPOTS),
            min_size=1,
            max_size=5,
        ),
        curve=st.sampled_from(("fixture", "off_grid", "short", "one pillar", "empty")),
        # Or the same pillars at arbitrary rates: negative ones, and zeros of either sign.
        rates=st.none()
        | st.lists(st.floats(min_value=-0.01, max_value=0.08) | st.sampled_from((0.0, -0.0)), min_size=10, max_size=10),
        odd_grid=st.booleans(),
    )
    def test_matches_the_per_flow_kernel_bit_for_bit(self, rb, registry, market, positions, curve, rates, odd_grid):
        assert rb.tenor_grid == FIXTURE_GRID == market.zero_curve.tenors
        zero_curve = {"fixture": market.zero_curve, "off_grid": OFF_GRID_CURVE, "short": SHORT_CURVE,
                      "one pillar": ONE_PILLAR_CURVE, "empty": ZeroCurve((), ())}[curve]
        if rates is not None:
            zero_curve = ZeroCurve(zero_curve.tenors, tuple(rates[: len(zero_curve.tenors)]))
        md = with_residual_quotes(market)._replace(zero_curve=zero_curve)
        if odd_grid:
            rb = rb._replace(tenor_grid=ODD_GRID)
        expected_records, expected_notes, expected_issues = [], [], []
        for index, instr in enumerate(positions):
            if not isinstance(instr, Bond):
                bucket, note = assign_bucket(instr, registry, rb)
                expected_records.append(delta(instr, md, bucket))
                expected_notes.append(note)
                continue
            try:
                expected, notes = per_flow_girr_deltas(instr, md, rb.tenor_grid, 1)
            except MarketDataError as exc:
                # The empty curve, for a bond with a flow.
                with pytest.raises(MarketDataError) as from_kernel:
                    kernel_deltas(instr, md, rb.tenor_grid, 1)
                assert str(from_kernel.value) == str(exc)
                expected_issues.append((index, "valuation", str(exc)))
                continue
            got, got_notes = kernel_deltas(instr, md, rb.tenor_grid, 1)
            assert bits(got) == bits(expected)
            assert got_notes == notes
            expected_records += expected
            expected_notes += notes
        # One knot table and one set of factor keys shared by all the bonds of a call.
        p = Portfolio(positions=tuple(positions))
        if expected_issues:
            with pytest.raises(SensitivityError) as excinfo:
                collect_sensitivities(p, md, registry, rb)
            assert [(i.index, i.stage, i.message) for i in excinfo.value.issues] == expected_issues
            return
        records, messages = collect_sensitivities(p, md, registry, rb)
        assert bits(records) == bits(net_records(expected_records))
        assert messages == tuple(dict.fromkeys(expected_notes))

    def test_kernel_never_calls_zero_curve_rate(self, monkeypatch, rb, registry, market):
        # Flows below the first pillar (0.5y), on and between pillars, and beyond the last (20y).
        calls = []
        original = ZeroCurve.rate

        def counting(curve, t):
            calls.append(t)
            return original(curve, t)

        monkeypatch.setattr(ZeroCurve, "rate", counting)
        md = market._replace(zero_curve=SHORT_CURVE)
        bonds = tuple(Bond(notional=1e6, coupon_rate=0.03, maturity=m, frequency=4, currency="USD") for m in (0.3, 7.3, 26.0))
        records, messages = collect_sensitivities(Portfolio(positions=bonds), md, registry, rb)
        flows = [t for bond in bonds for t, _ in bond.cash_flows()]
        assert min(flows) < SHORT_CURVE.tenors[0] and max(flows) > SHORT_CURVE.tenors[-1]
        assert calls == []
        assert len(records) == len(rb.tenor_grid)
        assert len(messages) == sum(t > SHORT_CURVE.tenors[-1] for t in flows) == 24

    def test_foreign_bond_fails_at_valuation_with_the_value_message(self, rb, registry, market):
        # USD has a GIRR bucket, so classification passes; the EUR snapshot has no USD curve.
        md = market._replace(reporting_currency="EUR")
        bond = Bond(notional=100.0, coupon_rate=0.02, maturity=5.0, frequency=1, currency="USD")
        with pytest.raises(MarketDataError) as from_value:
            bond_value(bond, md)
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(Portfolio(positions=(CashEquity("XOM", 1), bond)), md, registry, rb)
        assert [(i.index, i.stage, i.message) for i in excinfo.value.issues] == [(1, "valuation", str(from_value.value))]

    def test_extrapolation_warnings_name_only_the_market_curve(self, rb, registry, market):
        # The curve ends at 20y, the grid at 30y: every flow past 20y is noted once,
        # against the market's last pillar, not against the 30y grid end.
        md = market._replace(zero_curve=SHORT_CURVE)
        bond = Bond(notional=100.0, coupon_rate=0.02, maturity=40.0, frequency=1, currency="USD")
        _, messages = collect_sensitivities(Portfolio(positions=(bond,)), md, registry, rb)
        assert messages == tuple(
            f"zero rate at t={t} beyond last pillar 20, extrapolating flat" for t in range(21, 41)
        )

    def test_extrapolation_and_residual_warnings_in_position_and_flow_order(self, rb, registry, market, reference_portfolio):
        # Fixture curve: the last pillar is the last grid tenor, as in the benchmark.
        md = market._replace(equity_prices={**market.equity_prices, "ACME": 50.0})
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


class TestCollectAndNet:
    def test_reference_portfolio_collects_eight_factors(self, reference_portfolio, market, registry, rb):
        records, _ = collect_sensitivities(reference_portfolio, market, registry, rb)
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
        records, _ = collect_sensitivities(p, market, registry, rb)
        assert len(records) == 1
        assert records[0].value == pytest.approx(660_000.0, rel=REL_TOL)

    def test_collect_is_additive_over_portfolios(self, market, registry, rb):
        p1 = Portfolio(positions=(CashEquity("XOM", 10_000), FXPosition("EUR", 50_000)))
        p2 = Portfolio(positions=(CashEquity("XOM", -3_000), CommodityFuture("gold", 10, "oz")))
        union = Portfolio(positions=p1.positions + p2.positions)
        merged = {r.key: r.value for r in collect_sensitivities(union, market, registry, rb)[0]}
        split: dict = {}
        for part in (p1, p2):
            for rec in collect_sensitivities(part, market, registry, rb)[0]:
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
        assert collect_sensitivities(Portfolio(positions=()), market, registry, rb) == ([], ())

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

    def test_equal_keys_held_by_distinct_objects_net_into_one_factor(self):
        keys = [RiskFactorKey(RiskClass.GIRR, 1, "USD", tenor=5.0) for _ in range(3)]
        assert keys[0] is not keys[1]
        xom = RiskFactorKey(RiskClass.EQUITY, 7, "XOM")
        records = [SensitivityRecord(key, value) for key, value in zip(keys, (1.0, 2.0, 4.0))]
        netted = net_records([*records, SensitivityRecord(xom, 5.0)])
        assert netted == [SensitivityRecord(xom, 5.0), SensitivityRecord(keys[2], 7.0)]


# Repeated names in every spot class, plus bonds: 13 positions on 6 spot quotes.
REPEATED_NAMES = (
    CashEquity("XOM", 10_000),
    FXPosition("EUR", 100_000),
    CashEquity("T", -5_000),
    CashEquity("XOM", -4_000),
    CommodityFuture("gold", 600, "oz"),
    Bond(notional=1e6, coupon_rate=0.03, maturity=7.3, frequency=2, currency="USD"),
    CashEquity("MSFT", 1_000),
    FXPosition("EUR", -30_000),
    CashEquity("XOM", 2_500),
    CommodityFuture("crude_oil", 2_000, "bbl"),
    CommodityFuture("gold", -250, "oz"),
    Bond(notional=-4e5, coupon_rate=0.0, maturity=5.0, frequency=1, currency="USD"),
    CashEquity("T", 1_200),
)


def without_equity_residual():
    """The fixture rulebook with its equity residual bucket (and that bucket's correlations) removed."""
    data = fixture_rulebook_data()
    residual = next(b for b in data["buckets"] if b["risk_class"] == "equity" and b.get("residual"))
    data["buckets"].remove(residual)
    data["intra_correlations"]["equity"].pop(str(residual["id"]), None)
    pairs = data["cross_correlations"]["equity"].get("pairs", [])
    data["cross_correlations"]["equity"]["pairs"] = [p for p in pairs if residual["id"] not in (p["b"], p["c"])]
    return rulebook_from_dict(data)


class TestPerQuoteResolution:
    """collect_sensitivities classifies and bumps each distinct spot quote once."""

    def test_each_quote_read_once_and_no_position_revalued(self, monkeypatch, market, registry, rb):
        counts = {"assign_bucket": 0, "value": 0, "quote reads": 0, "records": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sensitivities, "assign_bucket", counting("assign_bucket", sensitivities.assign_bucket))
        monkeypatch.setattr(portfolio, "value", counting("value", portfolio.value))
        for getter in ("equity_price", "fx_spot", "commodity_price"):
            monkeypatch.setattr(MarketData, getter, counting("quote reads", getattr(MarketData, getter)))
        monkeypatch.setattr(sensitivities, "SensitivityRecord", counting("records", SensitivityRecord))
        records, _ = collect_sensitivities(Portfolio(positions=REPEATED_NAMES), market, registry, rb)
        # Each of the 6 quotes (XOM, T, MSFT, EUR, gold, crude_oil) is classified
        # and read once, and each of the 2 bonds is classified; no position is
        # revalued, and the only records built are one per netted factor, the
        # bonds' tenors included.
        assert any(rec.key.risk_class is RiskClass.GIRR for rec in records)
        assert counts == {"assign_bucket": 6 + 2, "value": 0, "quote reads": 6, "records": len(records)}

    def test_quotes_of_different_types_sharing_a_name_stay_apart(self, market, registry, rb):
        # An issuer id may spell a currency code; its equity price is another quote.
        registry = {**registry, "EUR": IssuerInfo("EUR", "energy", "advanced", "large")}
        md = market._replace(equity_prices={**market.equity_prices, "EUR": 10.0})
        positions = (FXPosition("EUR", 100_000), CashEquity("EUR", 1_000))
        records, _ = collect_sensitivities(Portfolio(positions=positions), md, registry, rb)
        assert [(r.key.risk_class, r.value) for r in records] == [
            (RiskClass.EQUITY, pytest.approx(10_000.0, rel=REL_TOL)),
            (RiskClass.FX, pytest.approx(110_000.0, rel=REL_TOL)),
        ]

    def test_repeated_quotes_give_the_same_deltas_as_positions_on_their_own(self, market, registry, rb):
        together, _ = collect_sensitivities(Portfolio(positions=REPEATED_NAMES), market, registry, rb)
        alone = [rec for instr in REPEATED_NAMES for rec in collect_sensitivities(Portfolio((instr,)), market, registry, rb)[0]]
        assert together == net_records(alone)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(order=st.permutations(REPEATED_NAMES))
    def test_capital_is_bit_identical_under_reordering(self, market, registry, rb, order):
        # fsum makes each factor's net sum independent of the order of its terms.
        expected = compute_capital(Portfolio(positions=REPEATED_NAMES), market, registry, rb).total_capital
        assert compute_capital(Portfolio(positions=tuple(order)), market, registry, rb).total_capital == expected

    @pytest.mark.parametrize(
        "unclassifiable, message",
        [
            (CashEquity("NOBUCKET", 100),
             "issuer 'NOBUCKET' (advanced/large/crypto) matches no equity bucket, and the rulebook has no equity residual bucket"),
            (FXPosition("XYZ", 100), "no fx bucket covers currency 'XYZ'"),
        ],
    )
    def test_unclassifiable_quote_fails_every_position_holding_it(self, market, registry, rb, unclassifiable, message):
        registry = {**registry, "NOBUCKET": IssuerInfo("NOBUCKET", "crypto", "advanced", "large")}
        positions = (unclassifiable, CashEquity("XOM", 10), unclassifiable, unclassifiable)
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(Portfolio(positions=positions), market, registry, without_equity_residual())
        issues = [(i.index, i.stage, i.message) for i in excinfo.value.issues]
        assert issues == [(i, "classification", message) for i in (0, 2, 3)]

    @pytest.mark.parametrize(
        "unquoted",
        [CashEquity("NOPRICE", 100), FXPosition("CHF", 1_000), CommodityFuture("silver", 5, "oz")],
    )
    def test_missing_quote_fails_each_position_at_valuation_with_the_value_message(self, market, registry, rb, unquoted):
        registry = {**registry, "NOPRICE": IssuerInfo("NOPRICE", "energy", "advanced", "large")}
        md = market._replace(fx_spots={k: v for k, v in market.fx_spots.items() if k != "CHF"},
                     commodity_prices={k: v for k, v in market.commodity_prices.items() if k != "silver"})
        with pytest.raises(MarketDataError) as from_value:
            value(unquoted, md)
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(Portfolio(positions=(unquoted, CashEquity("XOM", 10), unquoted)), md, registry, rb)
        issues = [(i.index, i.stage, i.message) for i in excinfo.value.issues]
        assert issues == [(0, "valuation", str(from_value.value)), (2, "valuation", str(from_value.value))]

    def test_residual_warning_once_in_first_seen_order(self, market, registry, rb):
        md = market._replace(equity_prices={**market.equity_prices, "ACME": 50.0, "ZETA": 20.0})
        positions = (CashEquity("ZETA", 1), CashEquity("ACME", 1), CashEquity("ZETA", 2), CashEquity("ACME", 3))
        _, messages = collect_sensitivities(Portfolio(positions=positions), md, registry, rb)
        assert messages == (
            "issuer 'ZETA' not in registry; assigned to residual bucket 11",
            "issuer 'ACME' not in registry; assigned to residual bucket 11",
        )


def per_position_sensitivities(positions, md, registry, rb):
    """Oracle: each position classified and revalued on its own, as (records, issues, notes).

    Spot positions go through ``spot_quote`` and ``spot_delta``, so each is
    revalued twice against full snapshots; bonds through ``per_flow_girr_deltas``.
    Issues are (index, stage, message), one per failed position; notes are the
    residual-bucket and extrapolation notes, in position and flow order.
    """
    records, issues, notes = [], [], []
    for index, instr in enumerate(positions):
        stage = "classification"
        try:
            if isinstance(instr, Bond):
                bucket = rb.currency_bucket(RiskClass.GIRR, instr.currency).bucket_id
                stage = "valuation"
                deltas, flow_notes = per_flow_girr_deltas(instr, md, rb.tenor_grid, bucket)
                notes += flow_notes
            else:
                if isinstance(instr, FXPosition):
                    bucket = rb.currency_bucket(RiskClass.FX, instr.foreign_currency).bucket_id
                else:
                    bucket, note = assign_bucket(instr, registry, rb)
                    if note is not None:
                        notes.append(note)
                stage = "valuation"
                deltas = [delta(instr, md, bucket)]
        except (PortfolioError, RulebookError) as exc:
            issues.append((index, stage, str(exc)))
            continue
        bad = next((rec for rec in deltas if not math.isfinite(rec.value)), None)
        if bad is None:
            records += deltas
            continue
        tenor = f" at tenor {bad.key.tenor:g}" if bad.key.tenor is not None else ""
        issues.append((index, "valuation", f"{bad.key.risk_class.value} delta to {bad.key.name}{tenor} is {bad.value!r}; "
                                           "a quantity, price or rate of this position is not finite or too large"))
    return records, issues, notes


# Positions on names that classify and price, with ordinary quantities or ones
# whose deltas on one factor sum past the float range (1e306), or a delta of
# 1.01 * 1.79e308 (one T share under "huge T").
ORDINARY = st.one_of(st.integers(min_value=-10**7, max_value=10**7).map(float), st.floats(min_value=-1e7, max_value=1e7))
CLEAN_QUANTITIES = st.one_of(ORDINARY, ORDINARY, st.sampled_from((1.0, 1e306)))
CLEAN_POSITIONS = st.one_of(
    st.builds(CashEquity, st.sampled_from(("XOM", "T", "MSFT", "PBR")), CLEAN_QUANTITIES),
    st.builds(FXPosition, st.sampled_from(("EUR", "JPY")), CLEAN_QUANTITIES),
    st.builds(CommodityFuture, st.sampled_from(("gold", "crude_oil")), CLEAN_QUANTITIES, st.just("")),
    st.builds(Bond, notional=st.floats(min_value=-1e8, max_value=1e8), coupon_rate=st.sampled_from((0.0, 0.03)),
              maturity=st.sampled_from((0.5, 4.0, 7.3, 30.0)), frequency=st.sampled_from((1, 2)),
              currency=st.just("USD")),
)
# Positions that fail: names that fall to a residual bucket (ACME, unobtainium),
# have no quote (NOPRICE; CHF and silver once dropped), have no bucket (XYZ, GBP
# bonds) or are the reporting currency (EUR, when the snapshot reports in EUR),
# and quantities that are not finite.
FAILING_POSITIONS = st.one_of(
    st.builds(CashEquity, st.sampled_from(("XOM", "ACME", "NOPRICE")), st.sampled_from((1.0, math.nan, math.inf))),
    st.builds(FXPosition, st.sampled_from(("EUR", "CHF", "XYZ")), st.sampled_from((1.0, -math.inf))),
    st.builds(CommodityFuture, st.sampled_from(("silver", "unobtainium")), st.sampled_from((1.0, math.nan)),
              st.just("")),
    st.builds(Bond, notional=st.sampled_from((1e6, math.nan)), coupon_rate=st.just(0.03), maturity=st.just(4.0),
              frequency=st.just(1), currency=st.sampled_from(("USD", "GBP"))),
)


class TestAgainstThePerPositionOracle:
    @settings(max_examples=300, deadline=None)
    @example(positions=[CashEquity("XOM", 1e306), FXPosition("EUR", 1.0), CashEquity("XOM", 1e306)],
             reporting="USD", quotes="fixture", residual=True)
    @example(positions=[CashEquity("T", 1.0), CashEquity("XOM", 2.0), CashEquity("T", -3.0)],
             reporting="USD", quotes="huge T", residual=True)
    @example(positions=[CashEquity("XOM", 2.0), CashEquity("XOM", 1.0)], reporting="USD", quotes="nan XOM", residual=True)
    @example(positions=[FXPosition("CHF", 1.0), CommodityFuture("silver", 5.0, ""), FXPosition("CHF", 2.0)],
             reporting="USD", quotes="no CHF or silver", residual=True)
    @example(positions=[CashEquity("ACME", 1.0), CommodityFuture("unobtainium", 2.0, ""), CashEquity("ACME", 3.0)],
             reporting="USD", quotes="fixture", residual=True)
    @given(
        positions=st.lists(CLEAN_POSITIONS, max_size=12) | st.lists(CLEAN_POSITIONS | FAILING_POSITIONS, max_size=12),
        reporting=st.sampled_from(("USD", "USD", "USD", "EUR")),
        quotes=st.sampled_from(("fixture", "nan XOM", "huge T", "no CHF or silver")),
        residual=st.booleans(),
    )
    def test_collect_matches_net_records_over_the_oracle_bit_for_bit(
        self, rb, registry, market, positions, reporting, quotes, residual
    ):
        registry = {**registry, "NOPRICE": IssuerInfo("NOPRICE", "energy", "advanced", "large")}
        md = market._replace(reporting_currency=reporting,
                     equity_prices={**market.equity_prices, "ACME": 50.0},
                     commodity_prices={**market.commodity_prices, "unobtainium": 7.0})
        if quotes == "nan XOM":
            md = md._replace(equity_prices={**md.equity_prices, "XOM": math.nan})
        elif quotes == "huge T":
            # 1.01 times this quote overflows, so every T delta is infinite or NaN.
            md = md._replace(equity_prices={**md.equity_prices, "T": 1.79e308})
        elif quotes == "no CHF or silver":
            md = md._replace(fx_spots={k: v for k, v in md.fx_spots.items() if k != "CHF"},
                         commodity_prices={k: v for k, v in md.commodity_prices.items() if k != "silver"})
        if not residual:
            rb = without_equity_residual()
        records, issues, oracle_notes = per_position_sensitivities(positions, md, registry, rb)
        if issues:
            with pytest.raises(SensitivityError) as excinfo:
                collect_sensitivities(Portfolio(positions=tuple(positions)), md, registry, rb)
            assert [(i.index, i.stage, i.message) for i in excinfo.value.issues] == issues
            return
        try:
            expected = net_records(records)
        except FactorOverflowError as exc:
            with pytest.raises(FactorOverflowError) as excinfo:
                collect_sensitivities(Portfolio(positions=tuple(positions)), md, registry, rb)
            assert str(excinfo.value) == str(exc)
            return
        got, messages = collect_sensitivities(Portfolio(positions=tuple(positions)), md, registry, rb)
        assert bits(got) == bits(expected)
        assert messages == tuple(dict.fromkeys(oracle_notes))


class TestNonFiniteDeltas:
    """A NaN or infinite delta fails its position at valuation, naming its index.

    API callers skip the loaders, which reject these values in files.
    """

    @pytest.mark.parametrize(
        "bad, message",
        [
            (CashEquity("XOM", math.nan), "equity delta to XOM is nan"),
            (FXPosition("EUR", math.inf), "fx delta to EUR is nan"),
            (Bond(notional=math.nan, coupon_rate=0.02, maturity=5.0, frequency=1, currency="USD"),
             "girr delta to USD at tenor 1 is nan"),
        ],
    )
    def test_non_finite_quantity(self, reference_portfolio, market, registry, rb, bad, message):
        positions = (*reference_portfolio.positions[:3], bad, *reference_portfolio.positions[3:])
        with pytest.raises(SensitivityError) as excinfo:
            compute_capital(Portfolio(positions=positions), market, registry, rb)
        [issue] = excinfo.value.issues
        assert (issue.index, issue.stage) == (3, "valuation")
        assert issue.message == f"{message}; a quantity, price or rate of this position is not finite or too large"

    def test_nan_price_fails_every_position_reading_it(self, reference_portfolio, market, registry, rb):
        md = market._replace(equity_prices={**market.equity_prices, "XOM": math.nan})
        positions = (*reference_portfolio.positions, CashEquity("XOM", -2_000))
        xom = [i for i, instr in enumerate(positions) if getattr(instr, "issuer_id", None) == "XOM"]
        with pytest.raises(SensitivityError) as excinfo:
            compute_capital(Portfolio(positions=positions), md, registry, rb)
        assert [(i.index, i.stage) for i in excinfo.value.issues] == [(i, "valuation") for i in xom]
        assert len(xom) == 2

    def test_nan_curve_rate_fails_the_bond(self, market, registry, rb):
        curve = market.zero_curve
        md = market._replace(zero_curve=ZeroCurve(curve.tenors, (math.nan, *curve.rates[1:])))
        bond = Bond(notional=100.0, coupon_rate=0.0, maturity=0.1, frequency=1, currency="USD")
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(Portfolio(positions=(CashEquity("XOM", 1), bond)), md, registry, rb)
        assert [(i.index, i.stage) for i in excinfo.value.issues] == [(1, "valuation")]

    @pytest.mark.parametrize(
        "rate, maturity, message",
        [
            (-1.0, 5.0, "zero rate -1.0 at tenor 0.5 is at or below -1, where (1 + z) ** -t has no real value"),
            (-1.5, 5.0, "zero rate -1.5 at tenor 0.5 is at or below -1, where (1 + z) ** -t has no real value"),
            # 0.1 ** -t passes the float range beyond t = 308.
            (-0.9, 400.0, "discounted cash flows are out of the float range; "
                          "the notional or maturity of this position is too large, or a zero rate too close to -1"),
        ],
    )
    def test_rate_without_a_finite_discount_factor_fails_the_bond(self, market, registry, rb, rate, maturity, message):
        md = market._replace(zero_curve=ZeroCurve((0.5, 30.0), (rate, rate)))
        bond = Bond(notional=100.0, coupon_rate=0.03, maturity=maturity, frequency=1, currency="USD")
        with pytest.raises(SensitivityError) as excinfo:
            collect_sensitivities(Portfolio(positions=(CashEquity("XOM", 1), bond, bond)), md, registry, rb)
        assert [(i.index, i.stage, i.message) for i in excinfo.value.issues] == [(1, "valuation", message),
                                                                                 (2, "valuation", message)]


# Books of every class that classify, price and net: the spot names the fixtures know, bonds at and off grid tenors.
MIXED_POSITIONS = st.one_of(
    st.builds(CashEquity, st.sampled_from(("XOM", "T", "MSFT", "PBR", "NWCO", "RGNL")), ORDINARY),
    st.builds(FXPosition, st.sampled_from(("EUR", "JPY", "GBP", "CHF")), ORDINARY),
    st.builds(CommodityFuture, st.sampled_from(("gold", "crude_oil", "silver")), ORDINARY, st.just("")),
    st.builds(Bond, notional=st.floats(min_value=-1e8, max_value=1e8), coupon_rate=st.sampled_from((0.0, 0.03)),
              maturity=st.sampled_from((0.5, 4.0, 7.3, 30.0, 41.0)), frequency=st.sampled_from((1, 2)),
              currency=st.just("USD")),
)


class TestFactorKeyTenor:
    """A key carries a tenor exactly for GIRR; the aggregation rejects a record that breaks this."""

    def test_girr_record_without_tenor_has_no_risk_weight(self, rb):
        record = SensitivityRecord(RiskFactorKey(RiskClass.GIRR, 1, "USD"), 1.0)
        with pytest.raises(RulebookQueryError, match="^GIRR risk weight lookup requires a tenor$"):
            scenario_envelope({RiskClass.GIRR: [record]}, rb)

    @pytest.mark.parametrize("risk_class, bucket, name", [(RiskClass.EQUITY, 7, "XOM"), (RiskClass.FX, 1, "EUR"),
                                                          (RiskClass.COMMODITY, 7, "gold")])
    def test_spot_record_with_tenor_raises_naming_its_bucket(self, rb, risk_class, bucket, name):
        records = [SensitivityRecord(RiskFactorKey(risk_class, bucket, name, 5.0), 1.0)]
        with pytest.raises(AggregationError, match=rf"^{risk_class.value} bucket {bucket}: a factor carries a tenor"):
            scenario_envelope({risk_class: records}, rb)

    @settings(max_examples=200, deadline=None)
    @given(positions=st.lists(MIXED_POSITIONS, min_size=1, max_size=12))
    def test_collected_keys_carry_a_grid_tenor_exactly_for_girr(self, rb, registry, market, positions):
        records, _ = collect_sensitivities(Portfolio(positions=tuple(positions)), market, registry, rb)
        for rec in records:
            if rec.key.risk_class is RiskClass.GIRR:
                assert rec.key.tenor in rb.tenor_grid
            else:
                assert rec.key.tenor is None


def old_netting_order(key: RiskFactorKey) -> tuple:
    """The sort key the netted records were ordered by when factor keys were dataclasses."""
    return key.risk_class, key.bucket, key.name, key.tenor or -1.0


FACTOR_KEYS = st.one_of(
    st.builds(RiskFactorKey, st.sampled_from((RiskClass.EQUITY, RiskClass.FX, RiskClass.COMMODITY)),
              st.integers(min_value=1, max_value=3), st.sampled_from(("A", "B", "EUR", "gold", "XOM")), st.none()),
    st.builds(RiskFactorKey, st.just(RiskClass.GIRR), st.integers(min_value=1, max_value=3),
              st.sampled_from(("USD", "EUR")), st.sampled_from(FIXTURE_GRID)),
)


class TestNettingOrder:
    @settings(max_examples=300, deadline=None)
    @given(factors=st.lists(st.tuples(FACTOR_KEYS, st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3)),
                            unique_by=lambda f: f[0]))
    def test_plain_tuple_order_is_the_old_key_order(self, factors):
        netted = sensitivities._net(factors)
        assert [rec.key for rec in netted] == sorted((key for key, _ in factors), key=old_netting_order)
