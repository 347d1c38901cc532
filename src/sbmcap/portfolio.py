"""Portfolio instruments, market data, file loaders, and valuation.

Four linear instrument types are supported: fixed-coupon bonds in the
reporting currency, cash equities, FX spot positions, and commodity futures
(valued as a linear spot proxy, no carry). Valuation is intentionally plain
so that bump-and-revalue sensitivities stay transparent.

Conventions:
  - Bond discounting uses annual compounding, DF(t) = (1 + z(t)) ** -t, with
    piecewise-linear interpolation of zero rates between pillars and flat
    extrapolation outside.
  - Coupon dates run backwards from maturity in steps of 1/frequency, so the
    final flow falls exactly at maturity. A zero-coupon bond pays only at
    maturity: its one cash flow is (maturity, notional).
  - FX positions are signed notionals of the foreign currency; positive means
    long the foreign currency against the reporting currency.
  - The spot table ``_SPOT_TYPES``, beside the row table ``_ROWS``, says once
    what an equity, FX or commodity position reads. ``value`` and
    ``sensitivities.collect_sensitivities`` read a quote through it, by the
    market loader's rule: a finite number above 0.
"""

from __future__ import annotations

import bisect
import math
from pathlib import Path
from typing import Any, NamedTuple, Union

from .rulebook import (
    JSONFieldError, RiskClass, Rulebook, RulebookQueryError, _each, _make_through_new, _prefixed, _read_literal,
    _read_positive, read_finite, read_integer, read_json_object, read_list, read_object, read_string, read_text,
)

CSV_COLUMNS = ("type", "issuer_or_id", "quantity", "unit", "coupon", "maturity", "frequency", "currency", "sign")

# Cash flows closer to valuation than this are treated as already paid.
_TIME_EPS = 1e-9

# Longest bond maturity accepted, in years (ten century bonds). Beyond about 2.3e15,
# stepping back one coupon period no longer changes t and cash_flows() never ends.
MAX_MATURITY = 1_000.0


class PortfolioError(Exception):
    """Base class for portfolio problems."""


class PortfolioParseError(PortfolioError):
    """A portfolio file row could not be parsed; message names the location."""


class MarketDataError(PortfolioError):
    """Valuation needs a quote or curve the market snapshot does not have."""


class BucketAssignmentError(PortfolioError):
    """An instrument cannot be mapped to any rulebook bucket."""


class _BondFields(NamedTuple):
    notional: float
    coupon_rate: float
    maturity: float
    frequency: int
    currency: str
    label: str = ""


class Bond(_BondFields):
    """Fixed-coupon bullet bond in the reporting currency; every construction, ``_replace`` included, checks it."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Bond:
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.maturity):
            # A NaN maturity yields no cash flows and an infinite one never ends them.
            raise PortfolioParseError(f"bond maturity must be a finite number, got {self.maturity}")
        if self.maturity <= 0:
            raise PortfolioParseError(f"bond maturity must be positive, got {self.maturity}")
        if self.maturity > MAX_MATURITY:
            raise PortfolioParseError(f"bond maturity must be at most {MAX_MATURITY:g} years, got {self.maturity}")
        if self.frequency not in (1, 2, 4):
            raise PortfolioParseError(f"bond frequency must be 1, 2 or 4, got {self.frequency}")
        return self

    _make = classmethod(_make_through_new)

    def cash_flows(self) -> list[tuple[float, float]]:
        """(time, amount) pairs, coupon dates counted back from maturity; a zero-coupon bond pays only at maturity."""
        flows: list[tuple[float, float]] = []
        coupon = self.notional * self.coupon_rate / self.frequency
        # A zero-coupon bond has no coupon dates: one step back from maturity ends its schedule.
        step = 1.0 / self.frequency if self.coupon_rate else self.maturity
        t = self.maturity
        while t > _TIME_EPS:
            flows.append((t, coupon))
            t -= step
        flows.reverse()
        if flows:
            t_final, amount = flows[-1]
            flows[-1] = (t_final, amount + self.notional)
        return flows


class CashEquity(NamedTuple):
    issuer_id: str
    shares: float


class FXPosition(NamedTuple):
    foreign_currency: str
    signed_notional: float


class CommodityFuture(NamedTuple):
    commodity_id: str
    quantity: float
    unit: str


# Instruments are tuples, so two of different types but equal fields compare equal: compare types too.
Instrument = Union[Bond, CashEquity, FXPosition, CommodityFuture]


# The one statement of a position row: per type, its ``type`` token and, per field in field order, its row key and
# its CSV column. instrument_to_dict and _CSV_KEYS (per type, CSV column to row key, in field order) are built from it.
_ROWS: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {
    Bond: ("bond", (("notional", "quantity"), ("coupon_rate", "coupon"), ("maturity", "maturity"),
                    ("frequency", "frequency"), ("currency", "currency"), ("id", "issuer_or_id"))),
    CashEquity: ("equity", (("issuer_id", "issuer_or_id"), ("shares", "quantity"))),
    FXPosition: ("fx", (("currency", "currency"), ("notional", "quantity"))),
    CommodityFuture: ("commodity", (("commodity_id", "issuer_or_id"), ("quantity", "quantity"), ("unit", "unit"))),
}


class _SpotType(NamedTuple):
    risk_class: RiskClass
    name_attr: str  # the instrument attribute naming its quote
    quotes: str  # the MarketData field holding the quote
    quantity_attr: str  # the instrument attribute the quote multiplies
    missing: str  # what a missing quote is called, before its name


# What each spot position reads: the one statement of it, for value() and collect_sensitivities.
_SPOT_TYPES = {
    CashEquity: _SpotType(RiskClass.EQUITY, "issuer_id", "equity_prices", "shares", "no equity price for issuer"),
    FXPosition: _SpotType(RiskClass.FX, "foreign_currency", "fx_spots", "signed_notional", "no FX spot for currency"),
    CommodityFuture: _SpotType(
        RiskClass.COMMODITY, "commodity_id", "commodity_prices", "quantity", "no commodity price for"),
}


class Portfolio(NamedTuple):
    positions: tuple[Instrument, ...]
    as_of: str | None = None


class IssuerInfo(NamedTuple):
    """Classification attributes for a single equity issuer."""

    issuer_id: str
    sector: str
    economy: str
    size: str
    name: str = ""


class _ZeroCurveFields(NamedTuple):
    tenors: tuple[float, ...]
    rates: tuple[float, ...]


class ZeroCurve(_ZeroCurveFields):
    """Piecewise-linear zero curve with flat extrapolation; every construction, ``_replace`` included, checks it."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> ZeroCurve:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.tenors) != len(self.rates):
            raise MarketDataError("zero curve tenors and rates differ in length")
        if not all(math.isfinite(t) for t in self.tenors):
            # A NaN pillar compares false both ways, so the ordering check below would pass it.
            raise MarketDataError(f"zero curve tenors must be finite numbers, got {self.tenors}")
        if any(a >= b for a, b in zip(self.tenors, self.tenors[1:])):
            raise MarketDataError("zero curve tenors must be strictly increasing")
        return self

    _make = classmethod(_make_through_new)

    def rate(self, t: float) -> float:
        """Zero rate at t, held flat outside the pillars.

        The flat extrapolation is silent here. The GIRR kernel
        (``sensitivities.collect_sensitivities``) reports each cash flow beyond
        the last pillar in the messages it returns.
        """
        if not self.tenors:
            raise MarketDataError("zero curve is empty")
        if t <= self.tenors[0]:
            return self.rates[0]
        if t >= self.tenors[-1]:
            return self.rates[-1]
        i = bisect.bisect_right(self.tenors, t)
        t0, t1 = self.tenors[i - 1], self.tenors[i]
        r0, r1 = self.rates[i - 1], self.rates[i]
        return r0 + (r1 - r0) * (t - t0) / (t1 - t0)


class _MarketDataFields(NamedTuple):
    reporting_currency: str
    equity_prices: dict[str, float]
    fx_spots: dict[str, float]
    commodity_prices: dict[str, float]
    zero_curve: ZeroCurve
    as_of: str | None


class MarketData(_MarketDataFields):
    """Market snapshot: spot quotes plus one reporting-currency zero curve; a quote dict left out is a new one."""

    __slots__ = ()

    def __new__(
        cls, reporting_currency: str, equity_prices: dict[str, float] | None = None,
        fx_spots: dict[str, float] | None = None, commodity_prices: dict[str, float] | None = None,
        zero_curve: ZeroCurve = ZeroCurve((), ()), as_of: str | None = None,
    ) -> MarketData:
        quotes = [{} if q is None else q for q in (equity_prices, fx_spots, commodity_prices)]
        return super().__new__(cls, reporting_currency, *quotes, zero_curve, as_of)

    _make = classmethod(_make_through_new)


def _read_quote(spot: _SpotType, name: str, md: MarketData) -> float:
    """Quote ``name`` of a spot type, held to the market loader's rule; a NaN or infinite one fails each delta on it."""
    if name == md.reporting_currency and spot.risk_class is RiskClass.FX:  # which has no FX quote
        raise MarketDataError("FX position must be against a non-reporting currency")
    try:
        x = getattr(md, spot.quotes)[name]
    except KeyError:
        raise MarketDataError(f"{spot.missing} {name!r}") from None
    try:
        if not x <= 0.0:  # an accepted quote costs one dict read and this comparison
            return x
        kind = "a finite number above 0"
    except TypeError:  # not a number
        kind = "a number"
    raise MarketDataError(str(JSONFieldError(spot.quotes, kind, x, name)))  # in the market loader's words


def value(instr: Instrument, md: MarketData) -> float:
    """Present value of one spot position (equity, FX or commodity) in the reporting currency: quantity times quote.

    Bonds are valued only through their GIRR deltas (``sensitivities.collect_sensitivities``).
    """
    spot = _SPOT_TYPES.get(type(instr))
    if spot is None:
        raise PortfolioError(f"cannot value instrument of type {type(instr).__name__}")
    return getattr(instr, spot.quantity_attr) * _read_quote(spot, getattr(instr, spot.name_attr), md)


def assign_bucket(instr: Instrument, registry: dict[str, IssuerInfo], rb: Rulebook) -> tuple[int, str | None]:
    """Rulebook bucket id for an instrument, and a note or None, from one ``Rulebook.member_bucket`` lookup.

    A bond takes the GIRR bucket of its currency and an FX position the FX bucket of its foreign currency; a currency
    no bucket lists is a RulebookQueryError. Unmatched equities and commodities fall through to the residual bucket
    when the rulebook defines one, and the note says why; otherwise they raise BucketAssignmentError. A name that is
    not a string raises JSONFieldError, as the portfolio loader would.
    """
    if isinstance(instr, (Bond, FXPosition)):
        risk_class = RiskClass.GIRR if isinstance(instr, Bond) else RiskClass.FX
        currency = read_string(instr.currency if risk_class is RiskClass.GIRR else instr.foreign_currency, "currency")
        bucket = rb.member_bucket(risk_class, currency)
        if bucket is None:
            raise RulebookQueryError(f"no {risk_class.value} bucket covers currency {currency!r}")
        return bucket.bucket_id, None
    if isinstance(instr, CashEquity):
        info = registry.get(read_string(instr.issuer_id, "issuer_id"))
        if info is None:
            return _residual_or_error(rb, RiskClass.EQUITY, f"issuer {instr.issuer_id!r} not in registry")
        bucket = rb.member_bucket(RiskClass.EQUITY, (info.economy, info.size, info.sector))
        return (bucket.bucket_id, None) if bucket else _residual_or_error(rb, RiskClass.EQUITY, (
            f"issuer {instr.issuer_id!r} ({info.economy}/{info.size}/{info.sector}) matches no equity bucket"))
    if isinstance(instr, CommodityFuture):
        bucket = rb.member_bucket(RiskClass.COMMODITY, read_string(instr.commodity_id, "commodity_id"))
        return (bucket.bucket_id, None) if bucket else _residual_or_error(
            rb, RiskClass.COMMODITY, f"commodity {instr.commodity_id!r} matches no bucket")
    raise BucketAssignmentError(f"cannot assign a bucket to an instrument of type {type(instr).__name__}")


def _residual_or_error(rb: Rulebook, risk_class: RiskClass, why: str) -> tuple[int, str]:
    residual = rb.residual_bucket(risk_class)
    if residual is None:
        raise BucketAssignmentError(f"{why}, and the rulebook has no {risk_class.value} residual bucket")
    return residual.bucket_id, f"{why}; assigned to residual bucket {residual.bucket_id}"


# -- file loaders -----------------------------------------------------------


# Malformed input the readers below raise: each becomes a PortfolioParseError that names the file and the path.
_ERRORS = (PortfolioParseError, PortfolioError)


def load_market_data(path: str | Path) -> MarketData:
    return _prefixed(str(path), _market_from_dict, read_json_object(path, PortfolioParseError), _ERRORS)


def _market_from_dict(data: dict[str, Any]) -> MarketData:
    _read_literal(data.get("schema_version", 1), "schema_version")
    curve = [_pillar(pair, i) for i, pair in enumerate(read_list(data.get("zero_curve", []), "zero_curve"))]
    return MarketData(
        read_string(data["reporting_currency"], "reporting_currency"),
        *(_quotes(data.get(field, {}), field) for field in ("equity_prices", "fx_spots", "commodity_prices")),
        ZeroCurve(tuple(tenor for tenor, _ in curve), tuple(rate for _, rate in curve)),
        None if data.get("as_of") is None else read_string(data["as_of"], "as_of"),
    )


def _quotes(value: Any, field: str) -> dict[str, float]:
    # A price is a finite number above 0: a zero or negative quote would shrink or flip every delta on it.
    quotes = read_object(value, field)
    for quote in quotes.values():  # a file of float prices is returned as read
        if type(quote) is not float or not 0.0 < quote < math.inf:
            return {name: _read_positive(quote, field, name) for name, quote in quotes.items()}
    return quotes


def _pillar(value: Any, i: int) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise JSONFieldError("zero_curve", "a [tenor, rate] pair", value, i)
    return read_finite(value[0], "zero_curve", i), read_finite(value[1], "zero_curve", i)


def load_registry(path: str | Path) -> dict[str, IssuerInfo]:
    """Issuer registry as a dict keyed by issuer id."""
    return _prefixed(str(path), _registry_from_dict, read_json_object(path, PortfolioParseError), _ERRORS)


def _registry_from_dict(data: dict[str, Any]) -> dict[str, IssuerInfo]:
    _read_literal(data.get("schema_version", 1), "schema_version")
    registry: dict[str, IssuerInfo] = {}
    for info in _each(data["issuers"], "issuers", _issuer, _ERRORS):
        if registry.setdefault(info.issuer_id, info) is not info:
            raise PortfolioParseError(f"duplicate issuer_id {info.issuer_id!r}")
    return registry


def _issuer(row: Any) -> IssuerInfo:
    return IssuerInfo(
        read_string(read_object(row, "issuer")["issuer_id"], "issuer_id"),
        read_string(row["sector"], "sector"),
        read_string(row["economy"], "economy"),
        read_string(row["size"], "size"),
        read_string(row.get("name", ""), "name"),
    )


def load_portfolio(path: str | Path) -> Portfolio:
    """Load a portfolio from CSV or JSON (decided by file extension)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _prefixed(str(path), _portfolio_from_dict, read_json_object(path, PortfolioParseError), _ERRORS)
    return _portfolio_from_csv(path)


def _portfolio_from_dict(data: dict[str, Any]) -> Portfolio:
    _read_literal(data.get("schema_version", 1), "schema_version")
    positions = _each(data["positions"], "positions", instrument_from_dict, _ERRORS)
    return Portfolio(positions, None if data.get("as_of") is None else read_string(data["as_of"], "as_of"))


def instrument_from_dict(row: Any) -> Instrument:
    """Parse one position from its JSON-schema row; a wrongly typed field raises ``JSONFieldError``."""
    # Written out, not read from _ROWS, for load_portfolio's speed; it reads each type's keys in _ROWS's order.
    kind = read_object(row, "position")["type"]
    if kind == "bond":
        return Bond(
            read_finite(row["notional"], "notional"),
            read_finite(row.get("coupon_rate", 0.0), "coupon_rate"),
            read_finite(row["maturity"], "maturity"),
            read_integer(row.get("frequency", 2), "frequency"),
            read_string(row["currency"], "currency"),
            read_string(row.get("id", ""), "id"),
        )
    if kind == "equity":
        return CashEquity(read_string(row["issuer_id"], "issuer_id"), read_finite(row["shares"], "shares"))
    if kind == "fx":
        return FXPosition(read_string(row["currency"], "currency"), read_finite(row["notional"], "notional"))
    if kind == "commodity":
        return CommodityFuture(
            read_string(row["commodity_id"], "commodity_id"),
            read_finite(row["quantity"], "quantity"),
            read_string(row.get("unit", ""), "unit"),
        )
    raise JSONFieldError("type", "one of " + ", ".join(token for token, _ in _ROWS.values()), kind)


def _portfolio_from_csv(path: Path) -> Portfolio:
    import csv
    import io

    text = read_text(path, PortfolioParseError)
    reader = csv.DictReader(io.StringIO(text), restval="")  # a short row's missing cells are blank
    try:  # the reader raises csv.Error on a line it cannot split, such as one with a cell past the field limit
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]  # an empty file has no header
        if missing:
            raise PortfolioParseError(f"{path}: header missing column(s) {missing}")
        return Portfolio(tuple([_prefixed(f"{path}: line {reader.line_num}", _instrument_from_csv_row, row, _ERRORS)
                                for row in reader]))
    except csv.Error as exc:
        raise PortfolioParseError(f"{path}: line {reader.reader.line_num}: {exc}") from None  # the line it stopped on


_CSV_KEYS = {kind: {column: key for key, column in fields} for kind, fields in _ROWS.values()}
_CSV_NUMBERS = ("quantity", "coupon", "maturity", "frequency")


def _instrument_from_csv_row(row: dict[str, str]) -> Instrument:
    # The row's portfolio-file row, read by instrument_from_dict.
    kind = row["type"].strip()
    columns = _CSV_KEYS.get(kind, {})  # an unknown type reads no cell: the row reader rejects the type
    position: dict[str, Any] = {"type": kind}
    for column, key in columns.items():
        cell = row[column].strip()
        if not cell:
            continue  # a blank cell is an absent key
        position[key] = _finite(cell, column) if column in _CSV_NUMBERS else cell
        if column == "quantity":  # the sign column applies to the quantity
            sign = row["sign"].strip()
            if sign not in ("", "+", "-"):
                raise PortfolioParseError(f"sign must be '+', '-' or empty, got {sign!r}")
            position[key] = -position[key] if sign == "-" else position[key]
    try:
        return instrument_from_dict(position)
    except KeyError as exc:
        column = next(column for column, key in columns.items() if key == exc.args[0])
        raise PortfolioParseError(f"column {column!r} is required for this row type") from None


def instrument_to_dict(instr: Instrument) -> dict[str, Any]:
    """JSON-schema row for one position (inverse of instrument_from_dict); a bond without a label has no ``id``."""
    kind, fields = next((layout for cls, layout in _ROWS.items() if isinstance(instr, cls)), (None, ()))
    if kind is None:
        raise PortfolioError(f"cannot serialize instrument of type {type(instr).__name__}")
    return {"type": kind, **{key: field for (key, _), field in zip(fields, instr) if key != "id" or field}}


def _finite(raw: str, column: str) -> float:
    # float() of a CSV cell accepts "nan" and "inf"; neither is a usable quantity.
    try:
        number = float(raw)
    except ValueError:
        raise PortfolioParseError(f"column {column!r} must be a number, got {raw!r}") from None
    if not math.isfinite(number):
        raise PortfolioParseError(f"{column} must be a finite number, got {raw!r}")
    return number
