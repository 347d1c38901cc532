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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from .rulebook import RiskClass, Rulebook, read_json_object

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


@dataclass(frozen=True)
class Bond:
    """Fixed-coupon bullet bond in the reporting currency."""

    notional: float
    coupon_rate: float
    maturity: float
    frequency: int
    currency: str
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.maturity):
            # A NaN maturity yields no cash flows and an infinite one never ends them.
            raise PortfolioParseError(f"bond maturity must be a finite number, got {self.maturity}")
        if self.maturity <= 0:
            raise PortfolioParseError(f"bond maturity must be positive, got {self.maturity}")
        if self.maturity > MAX_MATURITY:
            raise PortfolioParseError(f"bond maturity must be at most {MAX_MATURITY:g} years, got {self.maturity}")
        if self.frequency not in (1, 2, 4):
            raise PortfolioParseError(f"bond frequency must be 1, 2 or 4, got {self.frequency}")

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


@dataclass(frozen=True)
class CashEquity:
    issuer_id: str
    shares: float


@dataclass(frozen=True)
class FXPosition:
    foreign_currency: str
    signed_notional: float


@dataclass(frozen=True)
class CommodityFuture:
    commodity_id: str
    quantity: float
    unit: str


Instrument = Union[Bond, CashEquity, FXPosition, CommodityFuture]


@dataclass(frozen=True)
class Portfolio:
    positions: tuple[Instrument, ...]
    as_of: str | None = None


@dataclass(frozen=True)
class IssuerInfo:
    """Classification attributes for a single equity issuer."""

    issuer_id: str
    sector: str
    economy: str
    size: str
    name: str = ""


@dataclass(frozen=True)
class ZeroCurve:
    """Piecewise-linear zero curve with flat extrapolation."""

    tenors: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tenors) != len(self.rates):
            raise MarketDataError("zero curve tenors and rates differ in length")
        if not all(math.isfinite(t) for t in self.tenors):
            # A NaN pillar compares false both ways, so the ordering check below would pass it.
            raise MarketDataError(f"zero curve tenors must be finite numbers, got {self.tenors}")
        if any(a >= b for a, b in zip(self.tenors, self.tenors[1:])):
            raise MarketDataError("zero curve tenors must be strictly increasing")

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


@dataclass(frozen=True)
class MarketData:
    """Market snapshot: spot quotes plus one reporting-currency zero curve."""

    reporting_currency: str
    equity_prices: dict[str, float] = field(default_factory=dict)
    fx_spots: dict[str, float] = field(default_factory=dict)
    commodity_prices: dict[str, float] = field(default_factory=dict)
    zero_curve: ZeroCurve = ZeroCurve((), ())
    as_of: str | None = None

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
    """Rulebook bucket id for an equity or commodity instrument, and a note or None.

    Unmatched instruments fall through to the residual bucket when the
    rulebook defines one, and the note says why; otherwise they raise
    BucketAssignmentError.
    """
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
    raise BucketAssignmentError(f"bucket assignment applies to equities and commodities, not {type(instr).__name__}")


def _residual_or_error(rb: Rulebook, risk_class: RiskClass, why: str) -> tuple[int, str]:
    residual = rb.residual_bucket(risk_class)
    if residual is None:
        raise BucketAssignmentError(f"{why}, and the rulebook has no {risk_class.value} residual bucket")
    return residual.bucket_id, f"{why}; assigned to residual bucket {residual.bucket_id}"


# -- file loaders -----------------------------------------------------------


def load_market_data(path: str | Path) -> MarketData:
    data = read_json_object(path, PortfolioParseError)
    curve_raw = data.get("zero_curve", [])
    try:
        tenors = tuple(_numbers(path, "zero_curve", {i: p[0] for i, p in enumerate(curve_raw)}).values())
        rates = tuple(_numbers(path, "zero_curve", {i: p[1] for i, p in enumerate(curve_raw)}).values())
    except (TypeError, KeyError, IndexError):
        raise PortfolioParseError(f"{path}: zero_curve must be a list of [tenor, rate] pairs") from None

    def quotes(section: str) -> dict[str, float]:
        raw = data.get(section, {})
        if not isinstance(raw, dict):
            raise PortfolioParseError(f"{path}: {section} must be an object mapping names to numbers, got {raw!r}")
        return _numbers(path, section, raw)

    try:
        return MarketData(
            reporting_currency=str(data["reporting_currency"]),
            equity_prices=quotes("equity_prices"),
            fx_spots=quotes("fx_spots"),
            commodity_prices=quotes("commodity_prices"),
            zero_curve=ZeroCurve(tenors, rates),
            as_of=_as_of(path, data),
        )
    except KeyError as exc:
        raise PortfolioParseError(f"{path}: missing market data field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise PortfolioParseError(f"{path}: {exc}") from None


def load_registry(path: str | Path) -> dict[str, IssuerInfo]:
    """Issuer registry as a dict keyed by issuer id."""
    data = read_json_object(path, PortfolioParseError)
    registry: dict[str, IssuerInfo] = {}
    for pos, row in enumerate(_list_section(path, data, "issuers")):
        if not isinstance(row, dict):
            raise PortfolioParseError(f"{path}: issuers[{pos}]: each issuer must be an object, got {row!r}")
        try:
            info = IssuerInfo(
                issuer_id=str(row["issuer_id"]),
                sector=str(row["sector"]),
                economy=str(row["economy"]),
                size=str(row["size"]),
                name=str(row.get("name", "")),
            )
        except (KeyError, TypeError) as exc:
            raise PortfolioParseError(f"{path}: issuers[{pos}]: missing field {exc}") from None
        if info.issuer_id in registry:
            raise PortfolioParseError(f"{path}: duplicate issuer_id {info.issuer_id!r}")
        registry[info.issuer_id] = info
    return registry


def load_portfolio(path: str | Path) -> Portfolio:
    """Load a portfolio from CSV or JSON (decided by file extension)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _portfolio_from_json(path)
    return _portfolio_from_csv(path)


def _portfolio_from_json(path: Path) -> Portfolio:
    data = read_json_object(path, PortfolioParseError)
    positions: list[Instrument] = []
    for pos, row in enumerate(_list_section(path, data, "positions")):
        if not isinstance(row, dict) or "type" not in row:
            raise PortfolioParseError(f"{path}: positions[{pos}]: each position needs a 'type' field")
        try:
            positions.append(instrument_from_dict(row))
        except (PortfolioParseError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PortfolioParseError(f"{path}: positions[{pos}]: {exc}") from None
    return Portfolio(positions=tuple(positions), as_of=_as_of(path, data))


def instrument_from_dict(row: dict[str, Any]) -> Instrument:
    """Parse one position from its JSON-schema row."""
    kind = row["type"]
    if kind == "bond":
        return Bond(
            notional=_number(row["notional"], "notional"),
            coupon_rate=_number(row.get("coupon_rate", 0.0), "coupon_rate"),
            maturity=_number(row["maturity"], "maturity"),
            frequency=_frequency(row.get("frequency", 2)),
            currency=str(row["currency"]),
            label=str(row.get("id", "")),
        )
    if kind == "equity":
        return CashEquity(issuer_id=str(row["issuer_id"]), shares=_number(row["shares"], "shares"))
    if kind == "fx":
        return FXPosition(foreign_currency=str(row["currency"]), signed_notional=_number(row["notional"], "notional"))
    if kind == "commodity":
        return CommodityFuture(
            commodity_id=str(row["commodity_id"]),
            quantity=_number(row["quantity"], "quantity"),
            unit=str(row.get("unit", "")),
        )
    raise PortfolioParseError(f"unknown position type {kind!r}")


def _portfolio_from_csv(path: Path) -> Portfolio:
    import csv
    import io

    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        return Portfolio(positions=())
    missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise PortfolioParseError(f"{path}: header missing column(s) {missing}")
    positions: list[Instrument] = []
    for row in reader:
        line = reader.line_num
        try:
            positions.append(_instrument_from_csv_row(row))
        except PortfolioParseError as exc:
            raise PortfolioParseError(f"{path}: line {line}: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise PortfolioParseError(f"{path}: line {line}: {exc}") from None
    return Portfolio(positions=tuple(positions))


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
            frequency=_frequency(_finite(frequency_raw, "frequency")) if frequency_raw else 2,
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
    # float() accepts "nan", "inf" and JSON NaN/Infinity; none is a usable quantity or quote.
    number = float(raw)
    if not math.isfinite(number):
        raise PortfolioParseError(f"{label} must be a finite number, got {raw!r}")
    return number


def _number(raw: Any, label: str) -> float:
    # _finite of a JSON number field, where float() would also read true as 1.0 and "12" as 12.0.
    if type(raw) is not float and type(raw) is not int:
        raise PortfolioParseError(f"{label} must be a number, got {raw!r}")
    try:
        number = float(raw)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise PortfolioParseError(f"{label} must be a finite number, got {raw!r}")
    return number


def _numbers(path: str | Path, section: str, raw: dict[Any, Any]) -> dict[Any, float]:
    # _number of each value, its label formatted only for a value that is not a finite float.
    numbers = {}
    for key, value in raw.items():
        finite = type(value) is float and math.isfinite(value)
        numbers[key] = value if finite else _number(value, f"{path}: {section}[{key!r}]")
    return numbers


def _frequency(raw: Any) -> int:
    # int() would turn 2.7 into 2 and true into 1 with no message; Bond checks that an int is 1, 2 or 4.
    if type(raw) is int:
        return raw
    number = _number(raw, "frequency")
    if not number.is_integer():
        raise PortfolioParseError(f"frequency must be 1, 2 or 4, got {number!r}")
    return int(number)


def _list_section(path: str | Path, data: dict[str, Any], section: str) -> list[Any]:
    rows = data.get(section, [])
    if not isinstance(rows, list):
        raise PortfolioParseError(f"{path}: {section} must be a list, got {rows!r}")
    return rows


def _as_of(path: str | Path, data: dict[str, Any]) -> str | None:
    as_of = data.get("as_of")
    if as_of is not None and not isinstance(as_of, str):
        raise PortfolioParseError(f"{path}: as_of must be a string, got {as_of!r}")
    return as_of


def _required_str(row: dict[str, str], column: str) -> str:
    raw = (row.get(column) or "").strip()
    if not raw:
        raise PortfolioParseError(f"column {column!r} is required for this row type")
    return raw
