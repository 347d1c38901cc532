"""Portfolio loaders, valuation, and bucket assignment."""

from __future__ import annotations

import csv
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assign_equity_bucket_by_scan, bond_value, currency_bucket_by_scan, fixture_rulebook_data
from sbmcap.portfolio import (
    CSV_COLUMNS,
    Bond,
    BucketAssignmentError,
    CashEquity,
    CommodityFuture,
    FXPosition,
    MAX_MATURITY,
    IssuerInfo,
    MarketData,
    MarketDataError,
    Portfolio,
    PortfolioError,
    PortfolioParseError,
    ZeroCurve,
    assign_bucket,
    instrument_from_dict,
    instrument_to_dict,
    load_market_data,
    load_portfolio,
    load_registry,
    value,
)
from sbmcap.rulebook import RiskClass, Rulebook, RulebookQueryError, RulebookValidationError, rulebook_from_dict
from sbmcap.sensitivities import collect_sensitivities

REL_TOL = 1e-12


def flat_md(rate: float) -> MarketData:
    return MarketData(reporting_currency="USD", zero_curve=ZeroCurve((1.0, 30.0), (rate, rate)))


class TestLoaders:
    def test_reference_csv_loads_eight_positions(self, reference_portfolio):
        assert len(reference_portfolio.positions) == 8
        kinds = [type(p).__name__ for p in reference_portfolio.positions]
        assert kinds.count("Bond") == 2
        assert kinds.count("CashEquity") == 2
        assert kinds.count("FXPosition") == 2
        assert kinds.count("CommodityFuture") == 2

    def test_csv_and_json_forms_agree(self, fixtures_dir, reference_portfolio):
        from_json = load_portfolio(fixtures_dir / "portfolio.json")
        # Positions are tuples, and one of another type with equal fields would compare equal.
        assert [(type(p), p) for p in from_json.positions] == [(type(p), p) for p in reference_portfolio.positions]
        assert from_json.as_of == "2024-06-28"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_csv_line_endings_read_as_newlines(self, fixtures_dir, reference_portfolio, tmp_path, newline):
        path = tmp_path / "portfolio.csv"
        path.write_bytes((fixtures_dir / "portfolio.csv").read_bytes().replace(b"\n", newline))
        loaded = load_portfolio(path).positions
        assert [(type(p), p) for p in loaded] == [(type(p), p) for p in reference_portfolio.positions]

    def test_header_only_csv_is_empty_portfolio(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n", encoding="utf-8")
        assert load_portfolio(path).positions == ()

    def test_blank_file_is_rejected_naming_the_missing_header(self, tmp_path):
        # A file with no header row used to load as an empty portfolio, and so as zero capital.
        path = tmp_path / "blank.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(PortfolioParseError, match=f"^{re.escape(str(path))}: header missing column"):
            load_portfolio(path)

    def test_empty_lists_are_valid_empty_inputs(self, tmp_path):
        book, issuers = tmp_path / "book.json", tmp_path / "issuers.json"
        book.write_text('{"positions": []}', encoding="utf-8")
        issuers.write_text('{"issuers": []}', encoding="utf-8")
        assert load_portfolio(book).positions == ()
        assert load_registry(issuers) == {}

    @pytest.mark.parametrize("name, field", [("book.json", "positions"), ("issuers.json", "issuers")])
    def test_file_without_its_list_is_rejected_naming_it(self, tmp_path, name, field):
        path = tmp_path / name
        path.write_text('{"schema_version": 1}', encoding="utf-8")
        with pytest.raises(PortfolioParseError, match=f"^{re.escape(str(path))}: missing field '{field}'$"):
            load_portfolio(path) if name == "book.json" else load_registry(path)

    def test_bad_quantity_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            "equity,XOM,10000,shares,,,,,+\n"
            "equity,T,oops,shares,,,,,+\n",
            encoding="utf-8",
        )
        with pytest.raises(PortfolioParseError) as excinfo:
            load_portfolio(path)
        # This used to read "could not convert string to float: 'oops'", naming no column.
        assert str(excinfo.value) == f"{path}: line 3: column 'quantity' must be a number, got 'oops'"

    @pytest.mark.parametrize(
        "row, field",
        [
            ("equity,T,nan,shares,,,,,+", "line 3: quantity"),
            ("equity,T,-inf,shares,,,,,+", "line 3: quantity"),
            ("bond,B,100,,nan,5,1,USD,+", "line 3: coupon"),
            # an infinite maturity never leaves the loop in Bond.cash_flows
            ("bond,B,100,,0.02,inf,1,USD,+", "line 3: maturity"),
            ("bond,B,100,,0.02,5,inf,USD,+", "line 3: frequency"),
        ],
    )
    def test_csv_non_finite_number_rejected(self, tmp_path, row, field):
        path = tmp_path / "bad.csv"
        path.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            "equity,XOM,10000,shares,,,,,+\n" + row + "\n",
            encoding="utf-8",
        )
        pattern = "^" + re.escape(f"{path}: {field}") + " must be a finite number, got '-?(nan|inf)'$"
        with pytest.raises(PortfolioParseError, match=pattern):
            load_portfolio(path)

    @pytest.mark.parametrize(
        "position, message",
        [
            ({"type": "equity", "issuer_id": "T", "shares": float("nan")}, "positions[1]: shares must be a finite number"),
            ({"type": "fx", "currency": "EUR", "notional": float("inf")}, "positions[1]: notional must be a finite number"),
            ({"type": "commodity", "commodity_id": "gold", "quantity": float("-inf")},
             "positions[1]: quantity must be a finite number"),
            ({"type": "bond", "notional": 100, "maturity": float("inf"), "currency": "USD"},
             "positions[1]: maturity must be a finite number"),
            ({"type": "bond", "notional": 100, "maturity": 5, "coupon_rate": float("nan"), "currency": "USD"},
             "positions[1]: coupon_rate must be a finite number"),
            ({"type": "bond", "notional": 100, "maturity": 5, "frequency": float("inf"), "currency": "USD"},
             "positions[1]: frequency must be an integer, got inf"),
        ],
    )
    def test_json_non_finite_number_rejected(self, tmp_path, position, message):
        path = tmp_path / "bad.json"
        rows = [{"type": "equity", "issuer_id": "XOM", "shares": 1}, position]
        path.write_text(json.dumps({"positions": rows}), encoding="utf-8")
        with pytest.raises(PortfolioParseError) as excinfo:
            load_portfolio(path)
        assert str(excinfo.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "section, key, field",
        [
            ("equity_prices", "XOM", "equity_prices['XOM']"),
            ("fx_spots", "EUR", "fx_spots['EUR']"),
            ("commodity_prices", "gold", "commodity_prices['gold']"),
            ("zero_curve", (3, 1), "zero_curve[3]"),
            ("zero_curve", (0, 0), "zero_curve[0]"),
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_market_non_finite_number_rejected(self, fixtures_dir, tmp_path, section, key, field, bad):
        data = json.loads((fixtures_dir / "market.json").read_text(encoding="utf-8"))
        if section == "zero_curve":
            data[section][key[0]][key[1]] = bad
        else:
            data[section][key] = bad
        path = tmp_path / "market.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(PortfolioParseError) as excinfo:
            load_market_data(path)
        kind = "a finite number" if section == "zero_curve" else "a finite number above 0"
        assert str(excinfo.value) == f"{path}: {field} must be {kind}, got {bad!r}"

    # The CSV layer used to lower-case the type, so "Bond" read as a bond in a CSV row and was rejected in JSON.
    @pytest.mark.parametrize("kind", ["swaption", "Bond", "EQUITY", "Fx", "commodity."])
    def test_unknown_type_tag_rejected(self, tmp_path, kind):
        path = tmp_path / "bad.csv"
        path.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            " equity ,XOM,1,,,,,,+\n"  # every cell is stripped, the type cell too
            f"{kind},X,1,,,5,,USD,+\n",
            encoding="utf-8",
        )
        with pytest.raises(PortfolioParseError) as excinfo:
            load_portfolio(path)
        assert str(excinfo.value) == f"{path}: line 3: type must be one of bond, equity, fx, commodity, got {kind!r}"

    def test_missing_header_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("type,issuer_or_id,quantity\nequity,XOM,1\n", encoding="utf-8")
        with pytest.raises(PortfolioParseError, match="header missing column"):
            load_portfolio(path)

    def test_bond_defaults_to_semiannual_zero_coupon(self, tmp_path):
        path = tmp_path / "bond.csv"
        path.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            "bond,CORP-7Y,5000,,,7,,USD,+\n",
            encoding="utf-8",
        )
        (bond,) = load_portfolio(path).positions
        assert type(bond) is Bond and bond == Bond(notional=5000.0, coupon_rate=0.0, maturity=7.0, frequency=2, currency="USD", label="CORP-7Y")

    def test_sign_column_flips_quantity(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            "fx,GBPUSD,5000,,,,,GBP,-\n",
            encoding="utf-8",
        )
        (pos,) = load_portfolio(path).positions
        assert type(pos) is FXPosition and pos == FXPosition(foreign_currency="GBP", signed_notional=-5000.0)

    def test_invalid_sign_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            "equity,XOM,1,,,,,,x\n",
            encoding="utf-8",
        )
        with pytest.raises(PortfolioParseError, match="sign"):
            load_portfolio(path)

    def test_portfolio_dict_round_trip(self, reference_portfolio):
        rebuilt = tuple(instrument_from_dict(instrument_to_dict(i)) for i in reference_portfolio.positions)
        assert [(type(p), p) for p in rebuilt] == [(type(p), p) for p in reference_portfolio.positions]

    def test_registry_loads(self, registry):
        assert registry["XOM"] == IssuerInfo(issuer_id="XOM", sector="energy", economy="advanced", size="large", name="Exxon Mobil Corp")
        assert len(registry) == 10

    @pytest.mark.parametrize(
        "position, message",
        [
            ({"type": "equity", "issuer_id": "T"}, "positions[1]: missing field 'shares'"),
            ({"issuer_id": "T", "shares": 1}, "positions[1]: missing field 'type'"),
            ({"type": "swap", "notional": 1}, "positions[1]: type must be one of bond, equity, fx, commodity, got 'swap'"),
        ],
    )
    def test_json_position_error_names_the_file_and_the_field(self, tmp_path, position, message):
        # A missing field used to read "positions[1]: 'shares'", and a missing type "unknown position type None".
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"positions": [{"type": "equity", "issuer_id": "XOM", "shares": 1}, position]}))
        with pytest.raises(PortfolioParseError) as excinfo:
            load_portfolio(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("reporting_currency"), "missing field 'reporting_currency'"),
            (lambda d: d["zero_curve"].__setitem__(2, [2.0]), "zero_curve[2] must be a [tenor, rate] pair, got [2.0]"),
            (lambda d: d["zero_curve"][2].append(0.1), "zero_curve[2] must be a [tenor, rate] pair, got [1, 0.032, 0.1]"),
            (lambda d: d["zero_curve"].__setitem__(2, 5), "zero_curve[2] must be a [tenor, rate] pair, got 5"),
            (lambda d: d["zero_curve"].reverse(), "zero curve tenors must be strictly increasing"),
        ],
    )
    def test_market_error_names_the_file(self, fixtures_dir, tmp_path, edit, message):
        # A pair of other than two entries used to read "zero_curve must be a list of [tenor, rate] pairs", a missing
        # field "missing market data field 'x'", and an unsorted curve named no file.
        data = json.loads((fixtures_dir / "market.json").read_text(encoding="utf-8"))
        edit(data)
        path = tmp_path / "market.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(PortfolioParseError) as excinfo:
            load_market_data(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_registry_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"issuers": ['
            '{"issuer_id": "A", "sector": "energy", "economy": "advanced", "size": "large"},'
            '{"issuer_id": "A", "sector": "energy", "economy": "advanced", "size": "large"}]}',
            encoding="utf-8",
        )
        with pytest.raises(PortfolioParseError, match="duplicate issuer_id"):
            load_registry(path)


_NAMES = st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=6).filter(
    lambda s: s == s.strip())
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
POSITIONS = st.one_of(
    st.builds(Bond, _NUMBERS, _NUMBERS, st.floats(0.0, MAX_MATURITY, exclude_min=True), st.sampled_from((1, 2, 4)),
              _NAMES, st.just("") | _NAMES),
    st.builds(CashEquity, _NAMES, _NUMBERS),
    st.builds(FXPosition, _NAMES, _NUMBERS),
    st.builds(CommodityFuture, _NAMES, _NUMBERS, st.just("") | _NAMES),
)
# The cells a CSV row of each type cannot leave blank.
REQUIRED_CELLS = {
    Bond: ("quantity", "maturity", "currency"),
    CashEquity: ("issuer_or_id", "quantity"),
    FXPosition: ("currency", "quantity"),
    CommodityFuture: ("issuer_or_id", "quantity"),
}


def csv_cells(instr, sign: str) -> dict[str, str]:
    """The CSV cells of one position; with sign '-', the quantity cell holds the negated quantity."""
    if type(instr) is Bond:
        cells = {"type": "bond", "issuer_or_id": instr.label, "quantity": instr.notional, "coupon": instr.coupon_rate,
                 "maturity": instr.maturity, "frequency": instr.frequency, "currency": instr.currency}
    elif type(instr) is CashEquity:
        cells = {"type": "equity", "issuer_or_id": instr.issuer_id, "quantity": instr.shares}
    elif type(instr) is FXPosition:
        cells = {"type": "fx", "currency": instr.foreign_currency, "quantity": instr.signed_notional}
    else:
        cells = {"type": "commodity", "issuer_or_id": instr.commodity_id, "quantity": instr.quantity, "unit": instr.unit}
    cells["quantity"], cells["sign"] = (-cells["quantity"] if sign == "-" else cells["quantity"]), sign
    return {column: repr(cells[column]) if type(cells.get(column)) is float else str(cells.get(column, ""))
            for column in CSV_COLUMNS}


@settings(max_examples=150, deadline=None)
@given(instr=POSITIONS, sign=st.sampled_from(("", "+", "-")))
def test_csv_row_reads_as_its_json_row_and_a_blank_required_cell_names_its_column(files_dir, instr, sign):
    book, json_book = files_dir / "book.csv", files_dir / "book.json"
    json_book.write_text(json.dumps({"positions": [instrument_to_dict(instr)]}), encoding="utf-8")

    def write_csv(cells):
        out = io.StringIO()
        csv.DictWriter(out, CSV_COLUMNS, lineterminator="\n").writerows([dict(zip(CSV_COLUMNS, CSV_COLUMNS)), cells])
        book.write_text(out.getvalue(), encoding="utf-8")

    cells = csv_cells(instr, sign)
    write_csv(cells)
    read = [(type(p), p) for path in (book, json_book) for p in load_portfolio(path).positions]
    assert read == [(type(instr), instr)] * 2
    for column in REQUIRED_CELLS[type(instr)]:
        write_csv({**cells, column: ""})
        with pytest.raises(PortfolioParseError) as excinfo:
            load_portfolio(book)
        assert str(excinfo.value) == f"{book}: line 2: column {column!r} is required for this row type"


BOND = Bond(notional=1_000.0, coupon_rate=0.05, maturity=5.0, frequency=2, currency="USD", label="B")
CURVE = ZeroCurve((1.0, 5.0, 30.0), (0.03, 0.035, 0.04))


class TestValueTypes:
    """Bond, ZeroCurve and MarketData check or fill in their fields on every construction path."""

    @pytest.mark.parametrize(
        "instance, name",
        [(BOND, "maturity"), (BOND, "extra"), (CURVE, "rates"), (CURVE, "extra"),
         (MarketData("USD"), "equity_prices"), (MarketData("USD"), "extra")],
    )
    def test_attributes_cannot_be_assigned(self, instance, name):
        with pytest.raises(AttributeError):
            setattr(instance, name, 1.0)

    @pytest.mark.parametrize(
        "changes, message",
        [({"maturity": math.nan}, "finite"), ({"maturity": -1.0}, "positive"), ({"frequency": 3}, "frequency")],
    )
    def test_a_rebuilt_bond_is_checked(self, changes, message):
        with pytest.raises(PortfolioParseError, match=message):
            BOND._replace(**changes)
        with pytest.raises(PortfolioParseError, match=message):
            Bond(**{**BOND._asdict(), **changes})

    def test_a_rebuilt_curve_is_checked(self):
        with pytest.raises(MarketDataError, match="strictly increasing"):
            CURVE._replace(tenors=(5.0, 1.0, 30.0))
        with pytest.raises(MarketDataError, match="differ in length"):
            CURVE._replace(rates=(0.03,))

    def test_default_quote_dicts_are_not_shared(self):
        first, second = MarketData("USD"), MarketData("USD")
        for name in ("equity_prices", "fx_spots", "commodity_prices"):
            assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)
        first.equity_prices["XOM"] = 110.0
        assert second.equity_prices == {} and MarketData("USD").equity_prices == {}
        assert first._replace(fx_spots=None).fx_spots == {}

    def test_equal_exactly_when_the_fields_are(self):
        assert BOND == Bond(**BOND._asdict()) and BOND != BOND._replace(label="C")
        assert CURVE == ZeroCurve(CURVE.tenors, CURVE.rates) and CURVE != CURVE._replace(rates=(0.03, 0.035, 0.05))
        assert MarketData("USD", {"XOM": 1.0}) == MarketData("USD", {"XOM": 1.0}) != MarketData("USD", {"XOM": 2.0})


class TestValuation:
    def test_equity_value(self, market):
        assert value(CashEquity("XOM", 10_000), market) == 1_100_000.0

    def test_fx_value(self, market):
        assert value(FXPosition("EUR", 100_000), market) == pytest.approx(110_000.0, rel=REL_TOL)
        assert value(FXPosition("JPY", 10_000_000), market) == pytest.approx(91_000.0, rel=REL_TOL)

    def test_commodity_value(self, market):
        assert value(CommodityFuture("gold", 600, "oz"), market) == 1_200_000.0
        assert value(CommodityFuture("crude_oil", 2_000, "bbl"), market) == 160_000.0

    def test_zero_rate_zero_coupon_bond_is_par(self):
        bond = Bond(notional=10_000, coupon_rate=0.0, maturity=5.0, frequency=1, currency="USD")
        assert bond_value(bond, flat_md(0.0)) == 10_000.0

    @pytest.mark.parametrize("maturity", [1.0, 2.0, 5.0, 10.0])
    def test_annual_coupon_bond_at_coupon_rate_prices_near_par(self, maturity):
        # Annual coupons under annual compounding: par within 0.1 percent.
        bond = Bond(notional=100.0, coupon_rate=0.04, maturity=maturity, frequency=1, currency="USD")
        pv = bond_value(bond, flat_md(0.04))
        assert abs(pv - 100.0) / 100.0 < 1e-3

    def test_bond_value_decreases_with_rates(self):
        bond = Bond(notional=100.0, coupon_rate=0.03, maturity=5.0, frequency=2, currency="USD")
        assert bond_value(bond, flat_md(0.05)) < bond_value(bond, flat_md(0.03)) < bond_value(bond, flat_md(0.01))

    def test_value_is_linear_in_position_size(self, market):
        eq_one = value(CashEquity("T", 1_000), market)
        assert value(CashEquity("T", 3_000), market) == pytest.approx(3 * eq_one, rel=REL_TOL)
        bond = Bond(notional=10_000, coupon_rate=0.04, maturity=7.3, frequency=2, currency="USD")
        doubled = Bond(notional=20_000, coupon_rate=0.04, maturity=7.3, frequency=2, currency="USD")
        assert bond_value(doubled, market) == pytest.approx(2 * bond_value(bond, market), rel=REL_TOL)

    def test_cash_flow_schedule(self):
        bond = Bond(notional=100.0, coupon_rate=0.04, maturity=2.0, frequency=2, currency="USD")
        flows = bond.cash_flows()
        assert [t for t, _ in flows] == pytest.approx([0.5, 1.0, 1.5, 2.0])
        assert [a for _, a in flows] == pytest.approx([2.0, 2.0, 2.0, 102.0])

    def test_zero_curve_interpolates_linearly(self, market):
        # pillars at 3y (0.034) and 5y (0.035)
        assert market.zero_curve.rate(4.0) == pytest.approx(0.0345, rel=1e-15)

    def test_zero_curve_flat_below_first_pillar(self, market):
        assert market.zero_curve.rate(0.1) == market.zero_curve.rate(0.25) == 0.03

    def test_extrapolation_beyond_last_pillar_warns(self, market, registry, rb):
        # The curve extrapolates flat and silently; collecting the bond's deltas
        # returns one message per flow beyond the 30y last pillar.
        bond = Bond(notional=100.0, coupon_rate=0.05, maturity=35.0, frequency=1, currency="USD")
        _, messages = collect_sensitivities(Portfolio(positions=(bond,)), market, registry, rb)
        assert messages == tuple(f"zero rate at t={t} beyond last pillar 30, extrapolating flat" for t in range(31, 36))

    def test_zero_coupon_bond_beyond_last_pillar_warns_once(self, market, registry, rb):
        # A zero-coupon bond pays only at maturity: one flow, valued at the flat last rate, and one message.
        bond = Bond(notional=100.0, coupon_rate=0.0, maturity=35.0, frequency=1, currency="USD")
        assert bond.cash_flows() == [(35.0, 100.0)]
        assert bond_value(bond, market) == pytest.approx(100.0 * 1.04**-35.0, rel=1e-12)
        _, messages = collect_sensitivities(Portfolio(positions=(bond,)), market, registry, rb)
        assert messages == ("zero rate at t=35 beyond last pillar 30, extrapolating flat",)

    def test_missing_equity_price(self, market):
        with pytest.raises(MarketDataError, match=r"^no equity price for issuer 'ZZZ'$"):
            value(CashEquity("ZZZ", 1), market)

    def test_missing_fx_spot(self, market):
        with pytest.raises(MarketDataError, match=r"^no FX spot for currency 'AUD'$"):
            value(FXPosition("AUD", 1), market)

    def test_fx_against_reporting_currency_rejected(self, market):
        with pytest.raises(MarketDataError, match="^FX position must be against a non-reporting currency$"):
            value(FXPosition("USD", 1), market)

    def test_missing_commodity_price(self, market):
        with pytest.raises(MarketDataError, match=r"^no commodity price for 'uranium'$"):
            value(CommodityFuture("uranium", 1, "lb"), market)

    @pytest.mark.parametrize("instr, quotes, name", [(CashEquity("XOM", 10.0), "equity_prices", "XOM"),
                                                     (FXPosition("EUR", -5.0), "fx_spots", "EUR"),
                                                     (CommodityFuture("gold", 2.0, "oz"), "commodity_prices", "gold")])
    @pytest.mark.parametrize("quote, kind", [(0.0, "a finite number above 0"), (-0.0, "a finite number above 0"),
                                             (-110.0, "a finite number above 0"), ("110", "a number")])
    def test_quote_not_a_number_above_zero_rejected(self, market, instr, quotes, name, quote, kind):
        # value() reads a quote by the rule compute_capital does: it used to return 0.0, -x or raise TypeError.
        md = market._replace(**{quotes: {**getattr(market, quotes), name: quote}})
        with pytest.raises(MarketDataError) as excinfo:
            value(instr, md)
        assert str(excinfo.value) == f"{quotes}[{name!r}] must be {kind}, got {quote!r}"

    def test_nan_or_infinite_quote_is_valued(self, market):
        # Its deltas are not finite, and compute_capital fails each position on it there.
        assert math.isnan(value(CashEquity("XOM", 1.0), market._replace(equity_prices={"XOM": math.nan})))
        assert value(CashEquity("XOM", 2.0), market._replace(equity_prices={"XOM": math.inf})) == math.inf

    def test_bond_has_no_spot_value(self, market):
        bond = Bond(notional=100.0, coupon_rate=0.02, maturity=5.0, frequency=1, currency="USD")
        with pytest.raises(PortfolioError, match="cannot value instrument of type Bond"):
            value(bond, market)

    def test_foreign_bond_rejected(self, market):
        bond = Bond(notional=100.0, coupon_rate=0.02, maturity=5.0, frequency=1, currency="EUR")
        with pytest.raises(MarketDataError, match="EUR"):
            bond_value(bond, market)

    def test_empty_curve_rejected(self):
        md = MarketData(reporting_currency="USD")
        bond = Bond(notional=100.0, coupon_rate=0.0, maturity=1.0, frequency=1, currency="USD")
        with pytest.raises(MarketDataError, match="empty"):
            bond_value(bond, md)

    def test_bond_invariants(self):
        with pytest.raises(PortfolioParseError, match="maturity"):
            Bond(notional=100.0, coupon_rate=0.0, maturity=-1.0, frequency=1, currency="USD")
        with pytest.raises(PortfolioParseError, match="frequency"):
            Bond(notional=100.0, coupon_rate=0.0, maturity=1.0, frequency=3, currency="USD")

    def test_nan_maturity_rejected(self):
        # A NaN maturity used to give an empty cash-flow list: a bond worth 0 with no GIRR delta.
        with pytest.raises(PortfolioParseError, match="^bond maturity must be a finite number, got nan$"):
            Bond(notional=1e6, coupon_rate=0.05, maturity=math.nan, frequency=1, currency="USD")

    def test_infinite_maturity_rejected(self):
        # Rejected at construction, before cash_flows() could loop without end.
        with pytest.raises(PortfolioParseError, match="^bond maturity must be a finite number, got inf$"):
            Bond(notional=1e6, coupon_rate=0.05, maturity=math.inf, frequency=1, currency="USD")

    @pytest.mark.parametrize("maturity, shown", [(1e12, "1000000000000.0"), (1e17, "1e+17")])
    def test_maturity_beyond_the_cap_rejected(self, maturity, shown):
        # 1e12 asks for 4e12 quarterly flows; at 1e17, t - 0.25 == t and cash_flows() would never end.
        with pytest.raises(PortfolioParseError, match=f"^bond maturity must be at most 1000 years, got {re.escape(shown)}$"):
            Bond(notional=1e6, coupon_rate=0.05, maturity=maturity, frequency=4, currency="USD")

    def test_maturity_at_the_cap_accepted(self):
        bond = Bond(notional=1e6, coupon_rate=0.05, maturity=MAX_MATURITY, frequency=4, currency="USD")
        assert len(bond.cash_flows()) == 4_000

    def test_unsorted_curve_rejected(self):
        with pytest.raises(MarketDataError, match="strictly increasing"):
            ZeroCurve((5.0, 1.0), (0.03, 0.03))

    @pytest.mark.parametrize("tenors", [(0.5, math.nan, 10.0), (math.nan, 1.0, 10.0), (0.5, 1.0, math.inf)])
    def test_non_finite_curve_tenor_rejected(self, tenors):
        # API callers skip the loader's finiteness check; a NaN pillar would pass the ordering check.
        with pytest.raises(MarketDataError, match="^zero curve tenors must be finite numbers"):
            ZeroCurve(tenors, (0.03, 0.035, 0.04))


ECONOMIES = ("advanced", "emerging")
SIZES = ("large", "small")
SECTORS = ("energy", "technology", "financials", "utilities")


def equity_rulebook(rows: list[dict]) -> Rulebook:
    """Equity buckets only, each with a rho, under one cross default."""
    return rulebook_from_dict({
        "schema_version": 1,
        "version": "equity-only",
        "tenor_grid": [1.0],
        "buckets": rows,
        "intra_correlations": {"equity": {str(row["id"]): 0.2 for row in rows}},
        "cross_correlations": {"equity": {"default": 0.15}},
    })


def equity_bucket(bucket_id: int, economy: str, size: str, sectors: list[str] | None, residual: bool = False) -> dict:
    row = {"risk_class": "equity", "id": bucket_id, "description": f"bucket {bucket_id}", "economy": economy,
           "size": size, "residual": residual, "risk_weight": 0.5}
    if sectors is not None:
        row["sectors"] = sectors
    return row


@st.composite
def overlapping_equity_rows(draw) -> list[dict]:
    """Buckets that share economy and size, with overlapping or absent sector lists, in an order other than by id.

    In half the draws each row leaves out what an earlier row of its economy and size lists, so that the rows load.
    """
    distinct, listed, rows = draw(st.booleans()), set(), []
    for bucket_id in draw(st.permutations(range(1, draw(st.integers(min_value=1, max_value=8)) + 1))):
        economy, size = draw(st.sampled_from(ECONOMIES)), draw(st.sampled_from(SIZES))
        sectors = draw(st.none() | st.lists(st.sampled_from(SECTORS), min_size=1, max_size=3, unique=True))
        names = {(economy, size, sector) for sector in sectors or [None]}
        if distinct and names & listed:
            if sectors is None or names <= listed:
                continue
            sectors = [sector for sector in sectors if (economy, size, sector) not in listed]
        listed |= names
        rows.append(equity_bucket(bucket_id, economy, size, sectors))
    if draw(st.booleans()):
        # A residual bucket may carry an economy and size that issuers match; it is only ever the fallback.
        residual = equity_bucket(9, draw(st.sampled_from(ECONOMIES)), draw(st.sampled_from(SIZES)), None, True)
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), residual)
    return rows


def clashes(rows: list[dict]) -> list[str]:
    """One violation per name a row lists that an earlier row lists: a sector of an economy and size, or an economy and
    size without a sector list. A residual bucket lists nothing."""
    first, found = {}, []
    for row in rows:
        for sector in [] if row["residual"] else row.get("sectors", [None]):
            profile = f"{row['economy']}/{row['size']}"
            key = (profile, sector)
            if key in first:
                what = f"{profile} without sectors" if sector is None else f"{profile} sector {sector!r}"
                found.append(f"equity buckets {first[key]} and {row['id']} both list {what}")
            first.setdefault(key, row["id"])
    return found


def assignment(assign, instr, registry, rb):
    """(bucket, note), or the message of the BucketAssignmentError raised."""
    try:
        return assign(instr, registry, rb)
    except BucketAssignmentError as exc:
        return str(exc)


class TestBucketAssignment:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=overlapping_equity_rows(),
        profiles=st.lists(
            st.tuples(
                st.sampled_from(SECTORS + ("other",)),
                st.sampled_from(ECONOMIES + ("frontier",)),
                st.sampled_from(SIZES + ("mid",)),
            ),
            max_size=12,
        ),
    )
    def test_equity_index_agrees_with_the_scan(self, rows, profiles):
        # Rows that list a name twice fail to load, one violation per name; the others assign as the scan does.
        if clashes(rows):
            with pytest.raises(RulebookValidationError) as raised:
                equity_rulebook(rows)
            assert raised.value.violations == clashes(rows)
            return
        rb = equity_rulebook(rows)
        registry = {f"I{i}": IssuerInfo(f"I{i}", *profile) for i, profile in enumerate(profiles)}
        for issuer in [*registry, "UNREGISTERED"]:
            instr = CashEquity(issuer, 1.0)
            expected = assignment(assign_equity_bucket_by_scan, instr, registry, rb)
            assert assignment(assign_bucket, instr, registry, rb) == expected

    @pytest.mark.parametrize("reverse", [False, True])
    def test_sector_listing_bucket_wins_in_either_row_order(self, reverse):
        rows = [
            equity_bucket(5, "advanced", "large", ["energy"]),
            equity_bucket(2, "advanced", "large", None),
            equity_bucket(3, "advanced", "large", None, residual=True),
        ]
        rb = equity_rulebook(rows[::-1] if reverse else rows)
        registry = {
            "OIL": IssuerInfo("OIL", "energy", "advanced", "large"),
            "SOFT": IssuerInfo("SOFT", "technology", "advanced", "large"),
            "EM": IssuerInfo("EM", "energy", "emerging", "large"),
        }
        assert assign_bucket(CashEquity("OIL", 1), registry, rb) == (5, None)
        assert assign_bucket(CashEquity("SOFT", 1), registry, rb) == (2, None)
        assert assign_bucket(CashEquity("EM", 1), registry, rb) == (
            3, "issuer 'EM' (emerging/large/energy) matches no equity bucket; assigned to residual bucket 3"
        )

    @pytest.mark.parametrize(
        ("issuer", "expected"),
        [
            ("XOM", 7), ("T", 6), ("MSFT", 8), ("JPM", 8), ("WMT", 5),
            ("BA", 6), ("PBR", 3), ("VALE", 3), ("NWCO", 10), ("RGNL", 9),
        ],
    )
    def test_equity_buckets(self, rb, registry, issuer, expected):
        assert assign_bucket(CashEquity(issuer, 1), registry, rb) == (expected, None)

    @pytest.mark.parametrize(
        ("commodity", "expected"),
        [
            ("gold", 7), ("silver", 7), ("crude_oil", 2), ("natural_gas", 6),
            ("copper", 5), ("wheat", 8), ("coffee", 10), ("live_cattle", 9),
        ],
    )
    def test_commodity_buckets(self, rb, registry, commodity, expected):
        assert assign_bucket(CommodityFuture(commodity, 1, "lot"), registry, rb) == (expected, None)

    def test_unknown_issuer_falls_to_residual_with_warning(self, rb, registry):
        bucket, note = assign_bucket(CashEquity("UNKNOWN", 1), registry, rb)
        assert bucket == 11
        assert note == "issuer 'UNKNOWN' not in registry; assigned to residual bucket 11"

    def test_unknown_commodity_falls_to_residual_with_warning(self, rb, registry):
        bucket, note = assign_bucket(CommodityFuture("uranium", 1, "lb"), registry, rb)
        assert bucket == 11
        assert note == "commodity 'uranium' matches no bucket; assigned to residual bucket 11"

    def test_unknown_issuer_without_residual_bucket_errors(self, registry):
        data = fixture_rulebook_data()
        data["buckets"] = [b for b in data["buckets"] if not (b["risk_class"] == "equity" and b["id"] == 11)]
        del data["intra_correlations"]["equity"]["11"]
        data["cross_correlations"]["equity"]["pairs"] = [
            p for p in data["cross_correlations"]["equity"]["pairs"] if 11 not in (p["b"], p["c"])
        ]
        stripped = rulebook_from_dict(data)
        with pytest.raises(BucketAssignmentError, match="no equity residual bucket"):
            assign_bucket(CashEquity("UNKNOWN", 1), registry, stripped)

    def test_bond_gets_the_girr_bucket_of_its_currency(self, rb, registry):
        bond = Bond(notional=1.0, coupon_rate=0.0, maturity=1.0, frequency=1, currency="USD")
        assert assign_bucket(bond, registry, rb) == (currency_bucket_by_scan(rb, RiskClass.GIRR, "USD"), None)

    def test_fx_position_gets_the_fx_bucket_of_its_currency(self, rb, registry):
        expected = currency_bucket_by_scan(rb, RiskClass.FX, "EUR")
        assert assign_bucket(FXPosition("EUR", -5.0), registry, rb) == (expected, None)

    @pytest.mark.parametrize("instr", [Bond(1.0, 0.0, 1.0, 1, "XYZ"), FXPosition("XYZ", 1.0)])
    def test_uncovered_currency_is_a_rulebook_query_error(self, rb, registry, instr):
        token = "girr" if isinstance(instr, Bond) else "fx"
        with pytest.raises(RulebookQueryError, match=f"^no {token} bucket covers currency 'XYZ'$"):
            assign_bucket(instr, registry, rb)

    def test_object_that_is_no_instrument_has_no_bucket(self, rb, registry):
        with pytest.raises(BucketAssignmentError, match="^cannot assign a bucket to an instrument of type str$"):
            assign_bucket("XOM", registry, rb)

    def test_multiple_positions_same_issuer_allowed(self, rb, registry, market):
        p = Portfolio(positions=(CashEquity("XOM", 100), CashEquity("XOM", -40)))
        assert len(p.positions) == 2
        assert value(p.positions[0], market) + value(p.positions[1], market) == pytest.approx(6_600.0, rel=REL_TOL)
