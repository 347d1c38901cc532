"""End-to-end capital computation and report rendering."""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bond_value, render_hierarchical
from sbmcap import load_market_data, load_portfolio, load_registry, load_rulebook
from sbmcap.aggregation import (
    AggregationError,
    BucketResult,
    ClassResult,
    CrossCorrelation,
    FactorRow,
    ScenarioResult,
)
from sbmcap.engine import (
    CapitalReport,
    ReportFormatError,
    compute_capital,
    parse_report,
    render_report,
)
from sbmcap.portfolio import (
    Bond,
    CashEquity,
    CommodityFuture,
    FXPosition,
    IssuerInfo,
    MarketData,
    Portfolio,
    ZeroCurve,
    value,
)
from sbmcap.rulebook import CorrelationScenario, RiskClass, rulebook_from_dict
from sbmcap.sensitivities import SensitivityError

MEDIUM = CorrelationScenario.MEDIUM
REL_TOL = 1e-12


class TestComputeCapital:
    def test_equity_case_study_medium(self, rb, equity_portfolio, market, registry):
        report = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        assert report.scenario_mode == "medium"
        assert list(report.scenarios) == ["medium"]
        oracle = math.sqrt(440_000.0**2 + 59_500.0**2 + 2 * 0.15 * 440_000.0 * 59_500.0)
        assert report.total_capital == pytest.approx(oracle, rel=REL_TOL)
        equity = report.scenarios["medium"].classes["equity"]
        assert equity.charge == report.total_capital
        assert [b.bucket for b in equity.buckets] == [6, 7]

    def test_envelope_takes_max_scenario(self, rb, reference_portfolio, market, registry):
        report = compute_capital(reference_portfolio, market, registry, rb)
        assert report.scenario_mode == "envelope"
        totals = [sc.total for sc in report.scenarios.values()]
        assert len(totals) == 3
        assert report.total_capital == max(totals)

    def test_scenario_totals_are_class_sums(self, rb, reference_portfolio, market, registry):
        report = compute_capital(reference_portfolio, market, registry, rb)
        for sc in report.scenarios.values():
            assert sc.total == pytest.approx(math.fsum(c.charge for c in sc.classes.values()), rel=REL_TOL)
            assert set(sc.classes) == {"girr", "equity", "fx", "commodity"}

    def test_class_filter_matches_subset_portfolio(self, rb, reference_portfolio, equity_portfolio, market, registry):
        filtered = compute_capital(reference_portfolio, market, registry, rb, scenario=MEDIUM, classes=[RiskClass.EQUITY])
        subset = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        unfiltered = compute_capital(reference_portfolio, market, registry, rb, scenario=MEDIUM)
        assert filtered.total_capital == subset.total_capital
        assert filtered.total_capital == unfiltered.scenarios["medium"].classes["equity"].charge
        assert set(filtered.scenarios["medium"].classes) == {"equity"}

    def test_empty_portfolio_gives_zero_capital(self, rb, market, registry):
        report = compute_capital(Portfolio(positions=()), market, registry, rb)
        assert report.total_capital == 0.0
        assert all(sc.classes == {} for sc in report.scenarios.values())
        assert all(sc.total == 0.0 for sc in report.scenarios.values())

    def test_adding_same_sign_position_in_bucket_increases_charge(self, rb, market, registry):
        # T and BA both land in equity bucket 6 with positive sensitivities.
        small = Portfolio(positions=(CashEquity("T", 10_000),))
        bigger = Portfolio(positions=(CashEquity("T", 10_000), CashEquity("BA", 1_000)))
        small_report = compute_capital(small, market, registry, rb, scenario=MEDIUM)
        bigger_report = compute_capital(bigger, market, registry, rb, scenario=MEDIUM)
        assert bigger_report.total_capital > small_report.total_capital
        (bucket,) = bigger_report.scenarios["medium"].classes["equity"].buckets
        assert bucket.bucket == 6 and len(bucket.factors) == 2

    def test_instrument_failures_propagate(self, rb, market, registry):
        registry_plus = {**registry, "NOPRICE": IssuerInfo("NOPRICE", "energy", "advanced", "large")}
        p = Portfolio(positions=(CashEquity("NOPRICE", 1),))
        with pytest.raises(SensitivityError) as excinfo:
            compute_capital(p, market, registry_plus, rb)
        assert excinfo.value.issues[0].index == 0

    def test_as_of_prefers_portfolio_then_market(self, rb, market, registry, fixtures_dir):
        from sbmcap.portfolio import load_portfolio

        dated = load_portfolio(fixtures_dir / "portfolio.json")._replace(as_of="2024-07-15")
        report = compute_capital(dated, market, registry, rb, scenario=MEDIUM)
        assert report.as_of == "2024-07-15"
        csv_portfolio = load_portfolio(fixtures_dir / "portfolio.csv")
        assert csv_portfolio.as_of is None
        report_csv = compute_capital(csv_portfolio, market, registry, rb, scenario=MEDIUM)
        assert report_csv.as_of == market.as_of == "2024-06-28"

    def test_report_carries_rulebook_version(self, rb, equity_portfolio, market, registry):
        report = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        assert report.rulebook_version == rb.version
        assert report.reporting_currency == "USD"

    def test_audit_trail_has_all_intermediates(self, rb, equity_portfolio, market, registry):
        report = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        equity = report.scenarios["medium"].classes["equity"]
        b7 = next(b for b in equity.buckets if b.bucket == 7)
        (xom,) = b7.factors
        assert xom.name == "XOM"
        assert xom.risk_weight == 0.40
        assert xom.weighted_sensitivity == pytest.approx(440_000.0, rel=REL_TOL)
        assert equity.cross_correlations == (CrossCorrelation(bucket_b=6, bucket_c=7, gamma=0.15),)


# Whole-unit long or short sizes of at least 2, so that a position can be cut into whole parts.
SIZES = st.integers(min_value=2, max_value=10**6).flatmap(lambda n: st.sampled_from((n, -n))).map(float)
# Positions on fixture names that classify and price, in every risk class.
BOOK_POSITIONS = st.one_of(
    st.builds(CashEquity, st.sampled_from(("XOM", "T", "MSFT", "JPM", "PBR", "VALE", "NWCO", "RGNL")), SIZES),
    st.builds(FXPosition, st.sampled_from(("EUR", "JPY", "GBP", "CHF")), SIZES),
    st.builds(CommodityFuture, st.sampled_from(("gold", "silver", "crude_oil", "copper", "wheat")), SIZES, st.just("")),
    st.builds(Bond, notional=SIZES, coupon_rate=st.sampled_from((0.0, 0.025, 0.05)),
              maturity=st.sampled_from((0.5, 3.0, 7.3, 12.0, 30.0)), frequency=st.sampled_from((1, 2, 4)),
              currency=st.just("USD")),
)
QUANTITY_ATTR = {CashEquity: "shares", FXPosition: "signed_notional", CommodityFuture: "quantity", Bond: "notional"}


class TestCapitalProperties:
    @settings(max_examples=100, deadline=None)
    @given(book=st.lists(BOOK_POSITIONS, min_size=1, max_size=10), data=st.data())
    def test_splitting_a_position_into_parts_keeps_capital(self, rb, market, registry, book, data):
        index = data.draw(st.integers(min_value=0, max_value=len(book) - 1), label="index")
        instr = book[index]
        attr = QUANTITY_ATTR[type(instr)]
        whole = getattr(instr, attr)
        size = int(abs(whole))
        cuts = data.draw(st.lists(st.integers(min_value=1, max_value=size - 1), min_size=1, max_size=3, unique=True),
                         label="cuts")
        bounds = [0, *sorted(cuts), size]
        parts = [instr._replace(**{attr: math.copysign(hi - lo, whole)}) for lo, hi in zip(bounds, bounds[1:])]
        assert math.fsum(getattr(part, attr) for part in parts) == whole
        split = (*book[:index], *parts, *book[index + 1:])
        before = compute_capital(Portfolio(positions=tuple(book)), market, registry, rb)
        after = compute_capital(Portfolio(positions=split), market, registry, rb)
        # A hedged book can net to zero capital, where relative error means nothing.
        scale = math.fsum(abs(bond_value(p, market) if isinstance(p, Bond) else value(p, market)) for p in book)
        assert after.total_capital == pytest.approx(before.total_capital, rel=1e-12, abs=1e-12 * scale)
        for token, outcome in before.scenarios.items():
            assert after.scenarios[token].total == pytest.approx(outcome.total, rel=1e-12, abs=1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(book=st.lists(BOOK_POSITIONS, max_size=12))
    def test_envelope_is_at_least_each_scenario_total(self, rb, market, registry, book):
        report = compute_capital(Portfolio(positions=tuple(book)), market, registry, rb)
        totals = [outcome.total for outcome in report.scenarios.values()]
        assert len(totals) == 3
        assert math.isfinite(report.total_capital)
        assert all(report.total_capital >= total for total in totals)
        assert report.total_capital in totals


    @settings(max_examples=100, deadline=None)
    @given(book=st.lists(BOOK_POSITIONS, max_size=12))
    def test_each_envelope_scenario_is_its_single_scenario_result_bit_for_bit(self, rb, market, registry, book):
        # The envelope prepares each bucket once for three scenarios; a pinned scenario prepares it for one.
        p = Portfolio(positions=tuple(book))
        envelope = compute_capital(p, market, registry, rb)
        for sc in CorrelationScenario:
            single = compute_capital(p, market, registry, rb, scenario=sc)
            assert list(single.scenarios) == [sc.value]
            # repr writes every float exactly, so equal text means equal bits.
            assert repr(single.scenarios[sc.value]) == repr(envelope.scenarios[sc.value])


# Finite numbers of every magnitude, zeros of both signs included.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (0.0, -0.0, 1e-300, 1e154, 1e200, 1e306, 1.7e308, -1.7e308)
)
FINITE_POSITIONS = st.one_of(
    st.builds(CashEquity, st.sampled_from(("XOM", "T", "MSFT", "PBR", "NWCO")), FINITE),
    st.builds(FXPosition, st.sampled_from(("EUR", "JPY", "GBP")), FINITE),
    st.builds(CommodityFuture, st.sampled_from(("gold", "crude_oil", "wheat")), FINITE, st.just("")),
    st.builds(Bond, notional=FINITE, coupon_rate=FINITE, maturity=st.floats(min_value=1e-12, max_value=1_000.0),
              frequency=st.sampled_from((1, 2, 4)), currency=st.just("USD")),
)
# Zero rates near -1, where discount factors get large, at and below it, and large ones.
RATES = st.floats(min_value=-1.5, max_value=-0.5) | st.floats(min_value=-0.5, max_value=10.0) | st.sampled_from(
    (-1.0, -0.9999999999999999, 1e300)
)


class TestFiniteInputs:
    """Finite inputs give finite capital or a named error: never NaN, inf or another exception."""

    @settings(max_examples=300, deadline=None)
    @given(
        book=st.lists(FINITE_POSITIONS, max_size=6),
        quote=FINITE,
        rates=st.lists(RATES, min_size=3, max_size=3),
    )
    def test_finite_capital_or_a_named_error(self, rb, market, registry, book, quote, rates):
        md = market._replace(equity_prices={**market.equity_prices, "XOM": quote},
                     zero_curve=ZeroCurve((0.5, 5.0, 30.0), tuple(rates)))
        try:
            report = compute_capital(Portfolio(positions=tuple(book)), md, registry, rb)
        except (SensitivityError, AggregationError):
            return
        numbers = [report.total_capital]
        for outcome in report.scenarios.values():
            numbers.append(outcome.total)
            for cls in outcome.classes.values():
                numbers.append(cls.charge)
                numbers += [x for b in cls.buckets for x in (b.k_b, b.s_b_net, b.s_b_effective)]
                numbers += [x for b in cls.buckets for f in b.factors for x in (f.sensitivity, f.weighted_sensitivity)]
        assert all(math.isfinite(x) for x in numbers)
        render_report(report, "hierarchical")


@pytest.fixture()
def fallback_setup():
    rb = rulebook_from_dict(
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
    registry = {
        "E1": IssuerInfo("E1", "energy", "advanced", "large"),
        "E2": IssuerInfo("E2", "energy", "advanced", "large"),
        "T1": IssuerInfo("T1", "technology", "advanced", "large"),
        "T2": IssuerInfo("T2", "technology", "advanced", "large"),
    }
    md = MarketData(reporting_currency="USD", equity_prices={k: 10.0 for k in registry})
    p = Portfolio(positions=(
        CashEquity("E1", 100), CashEquity("E2", 100),
        CashEquity("T1", -100), CashEquity("T2", -100),
    ))
    return rb, registry, md, p


class TestFallbackReporting:
    def test_fallback_is_flagged_and_warned(self, fallback_setup):
        rb, registry, md, p = fallback_setup
        report = compute_capital(p, md, registry, rb, scenario=MEDIUM)
        equity = report.scenarios["medium"].classes["equity"]
        assert equity.fallback_engaged
        assert any("clamped" in w for w in report.warnings)
        for b in equity.buckets:
            assert abs(b.s_b_effective) <= b.k_b * (1 + 1e-15)

    def test_fallback_charge_matches_hand_calculation(self, fallback_setup):
        rb, registry, md, p = fallback_setup
        report = compute_capital(p, md, registry, rb, scenario=MEDIUM)
        k = math.sqrt(2.0) * 500.0
        expected = math.sqrt(2 * k * k + 2 * 0.8 * k * -k)
        assert report.scenarios["medium"].classes["equity"].charge == pytest.approx(expected, rel=REL_TOL)


class TestRendering:
    def test_hierarchical_round_trip(self, rb, reference_portfolio, market, registry):
        report = compute_capital(reference_portfolio, market, registry, rb)
        text = render_report(report, "hierarchical")
        assert parse_report(text) == report

    def test_rendering_is_deterministic(self, rb, reference_portfolio, market, registry):
        a = render_report(compute_capital(reference_portfolio, market, registry, rb), "hierarchical")
        b = render_report(compute_capital(reference_portfolio, market, registry, rb), "hierarchical")
        assert a == b

    def test_tabular_has_one_row_per_scenario_class_bucket(self, rb, reference_portfolio, market, registry):
        report = compute_capital(reference_portfolio, market, registry, rb)
        rows = list(csv.DictReader(io.StringIO(render_report(report, "tabular"))))
        expected = sum(len(cls.buckets) for sc in report.scenarios.values() for cls in sc.classes.values())
        assert len(rows) == expected
        sample = next(r for r in rows if r["scenario"] == "medium" and r["risk_class"] == "equity" and r["bucket"] == "7")
        assert float(sample["k_b"]) == pytest.approx(440_000.0, rel=REL_TOL)

    def test_human_format_mentions_requirement_and_warnings(self, fallback_setup):
        rb, registry, md, p = fallback_setup
        report = compute_capital(p, md, registry, rb, scenario=MEDIUM)
        text = render_report(report, "human")
        assert "Capital requirement:" in text
        assert "clamped" in text

    def test_unknown_format_rejected(self, rb, equity_portfolio, market, registry):
        report = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        with pytest.raises(ReportFormatError, match="unknown report format"):
            render_report(report, "yaml")

    def test_parse_report_rejects_non_reports(self):
        with pytest.raises(ReportFormatError):
            parse_report("not json at all")
        with pytest.raises(ReportFormatError):
            parse_report('{"some": "object"}')


class TestDictForm:
    def test_parse_puts_scenarios_and_classes_in_enum_order(self, rb, reference_portfolio, market, registry):
        report = compute_capital(reference_portfolio, market, registry, rb)
        data = json.loads(render_report(report, "hierarchical"))  # sorted keys: high, low, medium
        assert list(data["scenarios"]) == ["high", "low", "medium"]
        parsed = parse_report(json.dumps(data))
        assert list(parsed.scenarios) == ["low", "medium", "high"]
        assert list(parsed.scenarios["low"].classes) == ["girr", "equity", "fx", "commodity"]

    def test_optional_keys_take_their_defaults(self, rb, equity_portfolio, market, registry):
        report = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        data = json.loads(render_report(report, "hierarchical"))
        for key in ("as_of", "warnings", "schema_version"):
            del data[key]
        parsed = parse_report(json.dumps(data))
        assert (parsed.as_of, parsed.warnings, parsed.schema_version) == (None, (), 1)
        assert parsed.scenarios == report.scenarios

    @pytest.mark.parametrize(
        "path",
        [
            ("rulebook_version",),
            ("scenarios", "medium", "risk_classes"),
            ("scenarios", "medium", "risk_classes", "equity", "cross_correlations"),
            ("scenarios", "medium", "risk_classes", "equity", "buckets", 0, "factors", 0, "weighted_sensitivity"),
        ],
    )
    def test_missing_key_is_format_error(self, rb, equity_portfolio, market, registry, path):
        data = json.loads(render_report(compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)))
        node = data
        for step in path[:-1]:
            node = node[step]
        del node[path[-1]]
        with pytest.raises(ReportFormatError, match=f"'{path[-1]}'"):
            parse_report(json.dumps(data))

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("total_capital",), "772695.14"),
            (("warnings",), "none"),
            (("scenarios", "medium", "risk_classes", "equity", "fallback_engaged"), 0),
            (("scenarios", "medium", "risk_classes", "equity", "buckets", 0, "bucket"), 6.0),
            (("scenarios", "medium", "risk_classes", "equity", "buckets", 0, "factors"), {}),
            (("scenarios", "medium", "risk_classes", "equity", "buckets", 0, "factors", 0, "tenor"), "5y"),
            (("scenarios", "medium", "risk_classes"), []),
        ],
    )
    def test_wrong_type_is_format_error(self, rb, equity_portfolio, market, registry, path, bad):
        data = json.loads(render_report(compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)))
        node = data
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = bad
        with pytest.raises(ReportFormatError, match="not a valid hierarchical capital report: expected"):
            parse_report(json.dumps(data))


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestGoldenOutput:
    """The fixture envelope report, byte for byte, in every format."""

    @pytest.fixture(scope="class")
    def report(self, rb, reference_portfolio, market, registry):
        return compute_capital(reference_portfolio, market, registry, rb)

    @pytest.mark.parametrize("fmt, suffix", [("hierarchical", "json"), ("tabular", "csv"), ("human", "txt")])
    def test_rendered_bytes_match_golden(self, report, fmt, suffix):
        golden = (GOLDEN_DIR / f"fixture_envelope.{suffix}").read_bytes()
        assert render_report(report, fmt).encode("utf-8") == golden

    def test_oracle_gives_the_golden_bytes(self, report):
        golden = (GOLDEN_DIR / "fixture_envelope.json").read_bytes()
        assert render_hierarchical(report).encode("utf-8") == golden

    def test_parsed_report_renders_the_same_human_text(self, report):
        text = render_report(report, "hierarchical")
        assert render_report(parse_report(text), "human") == render_report(report, "human")

    def test_nan_in_a_report_fails_to_render_instead_of_emitting_nan(self, report):
        data = json.loads(render_report(report, "hierarchical"))
        data["scenarios"]["medium"]["risk_classes"]["equity"]["buckets"][0]["k_b"] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_report(parse_report(json.dumps(data)), "hierarchical")

    def test_hierarchical_render_uses_neither_json_dumps_nor_the_dict_form(self, report, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called while rendering")

        monkeypatch.setattr(json, "dumps", forbidden)
        golden = (GOLDEN_DIR / "fixture_envelope.json").read_bytes()
        assert render_report(report, "hierarchical").encode("utf-8") == golden


# Floats json.dumps writes in its own way: signed zero, the smallest subnormal, and a huge exponent;
# an int or a bool where a float is declared is written as json.dumps writes it too.
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1e300, -1e300)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS), st.integers(-(10**20), 10**20),
    st.booleans(),
)
# Non-ASCII text, JSON escapes, a lone surrogate, and the str enums the engine itself uses.
TEXTS = st.one_of(
    st.text(),
    st.sampled_from(["Société Générale", "東京電力 Holdings", "tab\tquote\"back\\slash", "\x00\x1f\x7f\u2028", "\ud800"]),
    st.sampled_from([*RiskClass, *CorrelationScenario]),
)


@st.composite
def capital_reports(draw) -> CapitalReport:
    """Reports of any shape the result types allow; rows and classes are shared as the envelope shares them."""
    rows = draw(st.lists(st.builds(
        FactorRow, name=TEXTS, tenor=st.none() | FLOATS, sensitivity=FLOATS, risk_weight=FLOATS,
        weighted_sensitivity=FLOATS,
    ), min_size=1, max_size=5))
    bucket = st.builds(
        BucketResult, bucket=st.integers(-3, 12), k_b=FLOATS, s_b_net=FLOATS, s_b_effective=FLOATS,
        factors=st.lists(st.sampled_from(rows), max_size=4).map(tuple),
    )
    cross = st.builds(CrossCorrelation, bucket_b=st.integers(1, 11), bucket_c=st.integers(1, 11), gamma=FLOATS)
    classes = draw(st.lists(st.builds(
        ClassResult, charge=FLOATS, fallback_engaged=st.booleans(),
        buckets=st.lists(bucket, max_size=3).map(tuple), cross_correlations=st.lists(cross, max_size=3).map(tuple),
    ), min_size=1, max_size=3))
    # Keys are all tokens or all enum members: a token and its member are distinct keys that write alike.
    class_key = st.sampled_from(list(RiskClass)).map((lambda rc: rc.value) if draw(st.booleans()) else (lambda rc: rc))
    scenario = st.builds(
        ScenarioResult, total=FLOATS, classes=st.dictionaries(class_key, st.sampled_from(classes), max_size=4)
    )
    return CapitalReport(
        rulebook_version=draw(TEXTS),
        reporting_currency=draw(TEXTS),
        scenario_mode=draw(st.sampled_from(["envelope", *CorrelationScenario])),
        scenarios=draw(st.dictionaries(st.sampled_from([sc.value for sc in CorrelationScenario]), scenario, max_size=3)),
        total_capital=draw(FLOATS),
        as_of=draw(st.none() | TEXTS),
        warnings=tuple(draw(st.lists(TEXTS, max_size=3))),
        schema_version=draw(st.integers(0, 3)),
    )


_EDGE_ROW = FactorRow("Société Générale 東京", None, -0.0, 5e-324, 1e300)
EMPTY_REPORT = CapitalReport("d352", "USD", "envelope", {}, 0.0, as_of=None)
SINGLE_SCENARIO_REPORT = CapitalReport(
    rulebook_version="d352 – révisé",
    reporting_currency="USD",
    scenario_mode="high",
    scenarios={"high": ScenarioResult(1e300, {"equity": ClassResult(
        1e300, True, (BucketResult(11, 5e-324, -0.0, -5e-324, (_EDGE_ROW, _EDGE_ROW)),), (CrossCorrelation(1, 11, -0.0),)
    )})},
    total_capital=1e300,
    as_of="2024-06-28",
    warnings=("émetteur « ZZZ » inconnu → résiduel 11", "equity: clamped"),
)


class TestHierarchicalWriter:
    """The engine's JSON writer gives the bytes of json.dumps over the report as plain dicts and lists."""

    @settings(max_examples=100, deadline=None)
    @given(report=capital_reports())
    @example(report=EMPTY_REPORT)
    @example(report=SINGLE_SCENARIO_REPORT)
    def test_writer_matches_the_json_dumps_oracle(self, report):
        assert render_report(report, "hierarchical") == render_hierarchical(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_as_the_oracle_does(self, bad):
        report = SINGLE_SCENARIO_REPORT._replace(total_capital=bad)
        with pytest.raises(ValueError) as expected:
            render_hierarchical(report)
        with pytest.raises(ValueError) as got:
            render_report(report, "hierarchical")
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "report",
        [
            EMPTY_REPORT._replace(warnings=(object(),)),
            EMPTY_REPORT._replace(scenarios={"high": ScenarioResult(0.0, {("equity",): ClassResult(0.0, False, (), ())})}),
        ],
        ids=["value", "key"],
    )
    def test_unwritable_type_raises_type_error_as_the_oracle_does(self, report):
        with pytest.raises(TypeError) as expected:
            render_hierarchical(report)
        with pytest.raises(TypeError) as got:
            render_report(report, "hierarchical")
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("keys", [(2, 10), (1.5, -0.0), (None,), (True, 3)])
    def test_non_string_keys_are_written_as_the_oracle_writes_them(self, keys):
        cls = SINGLE_SCENARIO_REPORT.scenarios["high"].classes["equity"]
        report = EMPTY_REPORT._replace(scenarios={"high": ScenarioResult(1.0, {key: cls for key in keys})})
        assert render_report(report, "hierarchical") == render_hierarchical(report)

    @pytest.mark.parametrize("workload", ["equity-concentrated", "bond-ladder"])
    @pytest.mark.parametrize("seed", [1, 101])
    def test_every_benchmark_book_renders_as_the_oracle(self, perfbench_gen, workload, seed, tmp_path):
        inputs = perfbench_gen.write_inputs(workload, seed, tmp_path)
        rb = load_rulebook(inputs.rulebook)
        md, registry = load_market_data(inputs.market), load_registry(inputs.registry)
        assert inputs.books
        for book in inputs.books:
            report = compute_capital(load_portfolio(book), md, registry, rb)
            assert render_report(report, "hierarchical") == render_hierarchical(report), book.name


class TestBenchmarkReferences:
    """The benchmark checks its stored capital only in full-size runs; these are its default-seed books."""

    @pytest.mark.parametrize("workload", ["equity-concentrated", "bond-ladder"])
    def test_default_seed_books_match_the_stored_reference(self, perfbench_gen, perfbench_oracle, workload, tmp_path):
        reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))[workload]
        inputs = perfbench_gen.write_inputs(workload, 1, tmp_path)
        rb = load_rulebook(inputs.rulebook)
        md, registry = load_market_data(inputs.market), load_registry(inputs.registry)
        assert sorted(reference) == [book.name for book in inputs.books]
        for book in inputs.books:
            total = compute_capital(load_portfolio(book), md, registry, rb).total_capital
            assert total == pytest.approx(reference[book.name], rel=1e-9, abs=0.0), book.name
            if workload == "equity-concentrated":
                expected = perfbench_oracle.equity_capital(inputs.rulebook, inputs.market, inputs.registry, book)
                assert total == pytest.approx(expected, rel=1e-9, abs=0.0), book.name


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_oracle():
    """The benchmark's capital oracle for equity books, loaded from its file and left unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench_gen():
    """The benchmark's input generator, loaded from its file and left unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


# Pillars off the standard grid: the first (0.4y) above the first grid tenor,
# the last (25y) below the last one, so flows past 25y extrapolate and warn.
BOND_BOOK_CURVE = ZeroCurve(
    (0.4, 0.8, 1.5, 2.5, 4.0, 6.5, 9.0, 13.0, 18.0, 25.0),
    (0.0291, 0.0302, 0.0318, 0.0329, 0.0341, 0.0353, 0.0366, 0.0379, 0.0391, 0.0402),
)


def bond_book() -> Portfolio:
    """30 seeded coupon bonds at off-grid maturities, 3 of them beyond the last pillar."""
    rng = random.Random(6)
    bonds = []
    for j in range(30):
        maturity = rng.uniform(25.5, 34.0) if j % 8 == 7 else rng.uniform(0.3, 24.0)
        bonds.append(Bond(
            notional=rng.choice((1.0, 1.0, -1.0)) * round(rng.uniform(1e5, 5e6), -3),
            coupon_rate=round(rng.uniform(0.0, 0.07), 4),
            maturity=round(maturity, 3),
            frequency=(1, 2, 4)[j % 3],
            currency="USD",
        ))
    return Portfolio(positions=tuple(bonds))


class TestBondBookGolden:
    """A multi-bond book's envelope report, byte for byte: netted GIRR deltas and extrapolation warnings."""

    def test_rendered_bytes_match_golden(self, rb, market, registry):
        md = market._replace(zero_curve=BOND_BOOK_CURVE)
        report = compute_capital(bond_book(), md, registry, rb)
        golden = (GOLDEN_DIR / "bond_book_envelope.json").read_bytes()
        assert render_report(report, "hierarchical").encode("utf-8") == golden
