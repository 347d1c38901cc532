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
    final flow falls exactly at maturity.
  - FX positions are signed notionals of the foreign currency; positive means
    long the foreign currency against the reporting currency.
"""

from __future__ import annotations

import bisect
import math
from pathlib import Path
from typing import Any, NamedTuple, Union

from .rulebook import (
    JSONFieldError, RiskClass, Rulebook, _each, _make_through_new, _prefixed,
    read_finite, read_finite_values, read_integer, read_json_object, read_list, read_object, read_string, read_text,
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
        """(time, amount) pairs, coupon dates counted back from maturity."""
        flows: list[tuple[float, float]] = []
        coupon = self.notional * self.coupon_rate / self.frequency
        t = self.maturity
        while t > _TIME_EPS:
            flows.append((t, coupon))
            t -= 1.0 / self.frequency
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

    def equity_price(self, issuer_id: str) -> float:
        try:
            return self.equity_prices[issuer_id]
        except KeyError:
            raise MarketDataError(f"no equity price for issuer {issuer_id!r}") from None

    def fx_spot(self, currency: str) -> float:
        """Price of one unit of ``currency`` in the reporting currency, which itself has no FX quote."""
        if currency == self.reporting_currency:
            raise MarketDataError("FX position must be against a non-reporting currency")
        try:
            return self.fx_spots[currency]
        except KeyError:
            raise MarketDataError(f"no FX spot for currency {currency!r}") from None

    def commodity_price(self, commodity_id: str) -> float:
        try:
            return self.commodity_prices[commodity_id]
        except KeyError:
            raise MarketDataError(f"no commodity price for {commodity_id!r}") from None


def value(instr: Instrument, md: MarketData) -> float:
    """Present value of one spot position (equity, FX or commodity) in the reporting currency.

    Bonds are valued only through their GIRR deltas (``sensitivities.collect_sensitivities``).
    """
    if isinstance(instr, CashEquity):
        return instr.shares * md.equity_price(instr.issuer_id)
    if isinstance(instr, FXPosition):
        return instr.signed_notional * md.fx_spot(instr.foreign_currency)
    if isinstance(instr, CommodityFuture):
        return instr.quantity * md.commodity_price(instr.commodity_id)
    raise PortfolioError(f"cannot value instrument of type {type(instr).__name__}")


def assign_bucket(instr: Instrument, registry: dict[str, IssuerInfo], rb: Rulebook) -> tuple[int, str | None]:
    """Rulebook bucket id for an instrument, and a note or None.

    A bond takes the GIRR bucket of its currency and an FX position the FX
    bucket of its foreign currency. Unmatched equities and commodities fall
    through to the residual bucket when the rulebook defines one, and the
    note says why; otherwise they raise BucketAssignmentError.
    """
    if isinstance(instr, Bond):
        return rb.currency_bucket(RiskClass.GIRR, instr.currency).bucket_id, None
    if isinstance(instr, FXPosition):
        return rb.currency_bucket(RiskClass.FX, instr.foreign_currency).bucket_id, None
    if isinstance(instr, CashEquity):
        info = registry.get(instr.issuer_id)
        if info is None:
            return _residual_or_error(rb, RiskClass.EQUITY, f"issuer {instr.issuer_id!r} not in registry")
        for b in rb.equity_buckets_for(info.economy, info.size):
            if b.sectors is None or info.sector in b.sectors:
                return b.bucket_id, None
        return _residual_or_error(
            rb,
            RiskClass.EQUITY,
            f"issuer {instr.issuer_id!r} ({info.economy}/{info.size}/{info.sector}) matches no equity bucket",
        )
    if isinstance(instr, CommodityFuture):
        for b in rb.buckets_for(RiskClass.COMMODITY):
            if instr.commodity_id in b.commodities:
                return b.bucket_id, None
        return _residual_or_error(rb, RiskClass.COMMODITY, f"commodity {instr.commodity_id!r} matches no bucket")
    raise BucketAssignmentError(f"cannot assign a bucket to an instrument of type {type(instr).__name__}")


def _residual_or_error(rb: Rulebook, risk_class: RiskClass, why: str) -> tuple[int, str]:
    residual = rb.residual_bucket(risk_class)
    if residual is None:
        raise BucketAssignmentError(f"{why}, and the rulebook has no {risk_class.value} residual bucket")
    return residual.bucket_id, f"{why}; assigned to residual bucket {residual.bucket_id}"


# -- file loaders -----------------------------------------------------------


# Malformed input the JSON readers below raise: each becomes a PortfolioParseError that names the file and the path.
_ERRORS = (PortfolioParseError, PortfolioError)


def load_market_data(path: str | Path) -> MarketData:
    return _prefixed(str(path), _market_from_dict, read_json_object(path, PortfolioParseError), _ERRORS)


def _market_from_dict(data: dict[str, Any]) -> MarketData:
    curve = [_pillar(pair, i) for i, pair in enumerate(read_list(data.get("zero_curve", []), "zero_curve"))]
    return MarketData(
        read_string(data["reporting_currency"], "reporting_currency"),
        read_finite_values(data.get("equity_prices", {}), "equity_prices"),
        read_finite_values(data.get("fx_spots", {}), "fx_spots"),
        read_finite_values(data.get("commodity_prices", {}), "commodity_prices"),
        ZeroCurve(tuple(tenor for tenor, _ in curve), tuple(rate for _, rate in curve)),
        None if data.get("as_of") is None else read_string(data["as_of"], "as_of"),
    )


def _pillar(value: Any, i: int) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise JSONFieldError("zero_curve", "a [tenor, rate] pair", value, i)
    return read_finite(value[0], "zero_curve", i), read_finite(value[1], "zero_curve", i)


def load_registry(path: str | Path) -> dict[str, IssuerInfo]:
    """Issuer registry as a dict keyed by issuer id."""
    return _prefixed(str(path), _registry_from_dict, read_json_object(path, PortfolioParseError), _ERRORS)


def _registry_from_dict(data: dict[str, Any]) -> dict[str, IssuerInfo]:
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
    positions = _each(data["positions"], "positions", instrument_from_dict, _ERRORS)
    return Portfolio(positions, None if data.get("as_of") is None else read_string(data["as_of"], "as_of"))


def instrument_from_dict(row: Any) -> Instrument:
    """Parse one position from its JSON-schema row; a wrongly typed field raises ``JSONFieldError``."""
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
    raise JSONFieldError("type", "one of bond, equity, fx, commodity", kind)


def _portfolio_from_csv(path: Path) -> Portfolio:
    import csv
    import io

    text = read_text(path, PortfolioParseError)
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]  # an empty file has no header
    if missing:
        raise PortfolioParseError(f"{path}: header missing column(s) {missing}")
    errors = (PortfolioParseError, TypeError, ValueError)  # float() of a cell that is not a number raises ValueError
    return Portfolio(tuple([_prefixed(f"{path}: line {reader.line_num}", _instrument_from_csv_row, row, errors)
                            for row in reader]))


def _instrument_from_csv_row(row: dict[str, str]) -> Instrument:
    kind = (row.get("type") or "").strip().lower()
    ident = (row.get("issuer_or_id") or "").strip()
    quantity = _required_float(row, "quantity")
    sign = (row.get("sign") or "").strip()
    if sign not in ("", "+", "-"):
        raise PortfolioParseError(f"sign must be '+', '-' or empty, got {sign!r}")
    signed = -quantity if sign == "-" else quantity
    if kind == "bond":
        coupon_raw = (row.get("coupon") or "").strip()
        frequency_raw = (row.get("frequency") or "").strip()
        return Bond(
            notional=signed,
            coupon_rate=_finite(coupon_raw, "coupon") if coupon_raw else 0.0,
            maturity=_required_float(row, "maturity"),
            frequency=read_integer(_finite(frequency_raw, "frequency"), "frequency") if frequency_raw else 2,
            currency=_required_str(row, "currency"),
            label=ident,
        )
    if kind == "equity":
        if not ident:
            raise PortfolioParseError("equity rows need an issuer id in issuer_or_id")
        return CashEquity(issuer_id=ident, shares=signed)
    if kind == "fx":
        return FXPosition(foreign_currency=_required_str(row, "currency"), signed_notional=signed)
    if kind == "commodity":
        if not ident:
            raise PortfolioParseError("commodity rows need a commodity id in issuer_or_id")
        return CommodityFuture(commodity_id=ident, quantity=signed, unit=(row.get("unit") or "").strip())
    raise PortfolioParseError(f"unknown position type {kind!r}")


def instrument_to_dict(instr: Instrument) -> dict[str, Any]:
    """JSON-schema row for one position (inverse of instrument_from_dict)."""
    if isinstance(instr, Bond):
        row: dict[str, Any] = {
            "type": "bond",
            "notional": instr.notional,
            "coupon_rate": instr.coupon_rate,
            "maturity": instr.maturity,
            "frequency": instr.frequency,
            "currency": instr.currency,
        }
        if instr.label:
            row["id"] = instr.label
        return row
    if isinstance(instr, CashEquity):
        return {"type": "equity", "issuer_id": instr.issuer_id, "shares": instr.shares}
    if isinstance(instr, FXPosition):
        return {"type": "fx", "currency": instr.foreign_currency, "notional": instr.signed_notional}
    if isinstance(instr, CommodityFuture):
        return {"type": "commodity", "commodity_id": instr.commodity_id, "quantity": instr.quantity, "unit": instr.unit}
    raise PortfolioError(f"cannot serialize instrument of type {type(instr).__name__}")


def _required_float(row: dict[str, str], column: str) -> float:
    raw = (row.get(column) or "").strip()
    if not raw:
        raise PortfolioParseError(f"column {column!r} is required for this row type")
    return _finite(raw, column)


def _finite(raw: Any, label: str) -> float:
    # float() of a CSV cell accepts "nan" and "inf"; neither is a usable quantity.
    number = float(raw)
    if not math.isfinite(number):
        raise PortfolioParseError(f"{label} must be a finite number, got {raw!r}")
    return number


def _required_str(row: dict[str, str], column: str) -> str:
    raw = (row.get(column) or "").strip()
    if not raw:
        raise PortfolioParseError(f"column {column!r} is required for this row type")
    return raw
