"""Bump-and-revalue delta sensitivities.

Spot classes use a one-sided 1% relative bump:

    s = [V(1.01 x) - V(x)] / 0.01

GIRR uses a one-sided 1 basis point absolute bump per standard tenor:

    s_t = [V(z + 1bp tent at t) - V(z)] / 0.0001

where the tent is the piecewise-linear hat function that is 1 at the bumped
grid tenor, 0 at the adjacent grid tenors, and flat outside the grid ends.
The tents over all grid tenors sum to 1 everywhere, so the tenor deltas of a
bond add up to its parallel-bump delta (exactly, for flows on grid dates).

A tent is zero outside the grid interval on either side of its tenor, where
the bumped curve equals the base curve and a cash flow's value does not
move. So each flow is revalued only under the one or two tents that cover
it, and its PV changes are summed per tenor. This is exact, not an
approximation: the flows left out would add exactly 0 to V(z + tent) - V(z).
``tent_bumped_curve`` keeps the whole-curve definition of the bump, which
the tests revalue against.

``collect_sensitivities`` builds one knot table per call, at its first bond
(``_GirrKernel``). So a cash flow costs one binary search and at most three
discount factors, and its deltas are the same to the bit as with a curve
lookup per flow. Each GIRR factor key is built once per call, when a bond
first loads its tenor; ``net_records`` hashes each distinct key object once.

For linear spot instruments the relative bump recovers the position value:
10,000 XOM shares at 110 give s = 1,100,000, the position's dollar value.

A spot revaluation reads only the bumped quote, so the bumped snapshot holds
that quote alone. ``collect_sensitivities`` classifies, keys and bumps each
distinct quote once per call and revalues every position that reads it
against that one snapshot. This is exact: a spot position's bucket and
factor depend only on its quote, and each position is still revalued on its
own, so every per-position delta and every netted sum is the same to the bit
as with one bump per position.

A NaN or infinite delta (from non-finite inputs passed in through the API;
the loaders reject them) fails its position at the valuation stage.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

from .portfolio import (
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
from .rulebook import RiskClass, Rulebook, RulebookError

# One-sided bump sizes; deltas are scaled back to per-unit terms.
REL_BUMP = 0.01
GIRR_BUMP = 0.0001


class SensitivityError(Exception):
    """One or more positions failed; carries every issue, not just the first."""

    def __init__(self, issues: list["InstrumentIssue"]):
        self.issues = tuple(issues)
        lines = ", ".join(str(i) for i in self.issues)
        super().__init__(f"{len(self.issues)} position(s) failed: {lines}")


class FactorOverflowError(SensitivityError):
    """The deltas of one risk factor sum past the float range; no single position failed."""

    def __init__(self, key: "RiskFactorKey"):
        self.key = key
        self.issues = ()
        Exception.__init__(
            self, f"net {_factor_label(key)} in bucket {key.bucket} overflows the float range; "
            "the positions on this factor are too large"
        )


@dataclass(frozen=True)
class InstrumentIssue:
    """Where in the portfolio a computation failed and why."""

    index: int
    stage: str
    message: str

    def __str__(self) -> str:
        return f"position {self.index} ({self.stage}): {self.message}"


@dataclass(frozen=True)
class RiskFactorKey:
    """Identity of one delta risk factor.

    ``tenor`` is present exactly for GIRR factors; spot factors carry None.
    """

    risk_class: RiskClass
    bucket: int
    name: str
    tenor: float | None = None

    def __post_init__(self) -> None:
        if (self.tenor is not None) != (self.risk_class is RiskClass.GIRR):
            raise ValueError("tenor must be set for GIRR factors and only for GIRR factors")

    def sort_key(self) -> tuple[str, int, str, float]:
        return (self.risk_class.value, self.bucket, self.name, self.tenor if self.tenor is not None else -1.0)


@dataclass(frozen=True)
class SensitivityRecord:
    key: RiskFactorKey
    value: float


class _SpotType(NamedTuple):
    risk_class: RiskClass
    name_attr: str  # the instrument attribute naming its quote
    getter: str  # the MarketData method that reads the quote
    quotes: str  # the MarketData field that holds it


_SPOT_TYPES = {
    CashEquity: _SpotType(RiskClass.EQUITY, "issuer_id", "equity_price", "equity_prices"),
    FXPosition: _SpotType(RiskClass.FX, "foreign_currency", "fx_spot", "fx_spots"),
    CommodityFuture: _SpotType(RiskClass.COMMODITY, "commodity_id", "commodity_price", "commodity_prices"),
}


def spot_quote(
    instr: CashEquity | FXPosition | CommodityFuture, md: MarketData, bucket: int
) -> tuple[RiskFactorKey, MarketData]:
    """Factor key of the one spot quote a position reads, and the snapshot with it bumped by 1%.

    The quote is the issuer's equity price, the foreign currency's FX spot
    against the reporting currency, or the commodity price; the factor is
    named after it. The bumped snapshot holds that quote alone.
    """
    risk_class, name_attr, getter, quotes = _SPOT_TYPES[type(instr)]
    name = getattr(instr, name_attr)
    bumped = replace(md, **{quotes: {name: getattr(md, getter)(name) * (1.0 + REL_BUMP)}})
    return RiskFactorKey(risk_class=risk_class, bucket=bucket, name=name), bumped


def spot_delta(
    instr: CashEquity | FXPosition | CommodityFuture, md: MarketData, key: RiskFactorKey, bumped: MarketData
) -> SensitivityRecord:
    """Delta to a position's spot quote: [V(bumped) - V(md)] / 1%, as factor ``key``.

    ``key`` and ``bumped`` are what ``spot_quote`` returns for the position's quote.
    """
    base = value(instr, md)
    return SensitivityRecord(key=key, value=(value(instr, bumped) - base) / REL_BUMP)


def girr_deltas(instr: Bond, md: MarketData, grid: tuple[float, ...], bucket: int) -> list[SensitivityRecord]:
    """Per-tenor curve deltas of a bond.

    One record per standard tenor whose 1bp tent bump moves the bond value;
    tenors the bond has no exposure to are dropped. Each cash flow is
    revalued only under the tents that cover it (see the module docstring).
    """
    return _GirrKernel(md, grid).deltas(instr, bucket)


class _GirrKernel:
    """Knot table of one curve and grid, and the GIRR factor keys handed out so far.

    The knots are the sorted union of the curve pillars and the grid tenors.
    Row k serves knots[k-1] <= t < knots[k] (row 0 all t below the first
    knot, the last row all t from the last knot on). There the curve is one
    segment (t0, r0, r1 - r0, t1 - t0), and the same tents cover t: the grid
    tenors either side (i - 1, i, lo, hi, hi - lo), or one end tent (i, None,
    ...). z(t) and the tent weights are the expressions of ``ZeroCurve.rate``
    and of the tent with the same operands in the same order. Flows at or
    outside the first and last pillars call ``curve.rate``, which warns on
    extrapolation.
    """

    def __init__(self, md: MarketData, grid: tuple[float, ...]):
        self.currency = md.reporting_currency
        self.curve = curve = md.zero_curve
        self.grid = grid
        tenors, rates = curve.tenors, curve.rates
        # An empty curve has no inside; its rate() raises for every flow.
        self.first, self.last = (tenors[0], tenors[-1]) if tenors else (math.inf, -math.inf)
        self.knots = sorted(set(tenors) | set(grid))
        self.rows: list[tuple] = []
        for start in (-math.inf, *self.knots):
            segment: tuple = (None, None, None, None)
            if self.first <= start < self.last:
                j = bisect.bisect_right(tenors, start)
                segment = (tenors[j - 1], rates[j - 1], rates[j] - rates[j - 1], tenors[j] - tenors[j - 1])
            if start < grid[0]:
                tents: tuple = (0, None, None, None, None)
            elif start >= grid[-1]:
                tents = (len(grid) - 1, None, None, None, None)
            else:
                i = bisect.bisect_right(grid, start)
                tents = (i - 1, i, grid[i - 1], grid[i], grid[i] - grid[i - 1])
            self.rows.append(segment + tents)
        # bucket -> factor key per grid position, each built on first use.
        self.keys: dict[int, list[RiskFactorKey | None]] = {}

    def deltas(self, instr: Bond, bucket: int) -> list[SensitivityRecord]:
        if instr.currency != self.currency:
            raise MarketDataError(
                f"bond denominated in {instr.currency}, but only the {self.currency} curve is available"
            )
        knots, rows, first, last = self.knots, self.rows, self.first, self.last
        terms: list[list[float]] = [[] for _ in self.grid]
        for t, amount in instr.cash_flows():
            t0, r0, dr, dt, a, b, lo, hi, width = rows[bisect.bisect_right(knots, t)]
            z = r0 + dr * (t - t0) / dt if first < t < last else self.curve.rate(t)
            # Bumped PV minus base PV, flow by flow: for a zero-coupon bond this is
            # V(z + tent) - V(z) to the last bit.
            pv = amount * (1.0 + z) ** -t
            if b is None or t == lo:
                terms[a].append(amount * (1.0 + (z + GIRR_BUMP)) ** -t - pv)
            else:
                terms[a].append(amount * (1.0 + (z + GIRR_BUMP * ((hi - t) / width))) ** -t - pv)
                terms[b].append(amount * (1.0 + (z + GIRR_BUMP * ((t - lo) / width))) ** -t - pv)
        keys = self.keys.get(bucket)
        if keys is None:
            keys = self.keys[bucket] = [None] * len(self.grid)
        records: list[SensitivityRecord] = []
        for i, parts in enumerate(terms):
            s = math.fsum(parts) / GIRR_BUMP
            if s == 0.0:
                continue
            key = keys[i]
            if key is None:
                key = keys[i] = RiskFactorKey(RiskClass.GIRR, bucket, self.currency, self.grid[i])
            records.append(SensitivityRecord(key=key, value=s))
        return records


def tent_bumped_curve(curve: ZeroCurve, grid: tuple[float, ...], tenor: float, size: float) -> ZeroCurve:
    """Curve shifted by ``size`` times the hat function centered at ``tenor``.

    Both the base curve and the tent are piecewise linear, so their sum is
    represented exactly on the union of the curve pillars and the grid.
    """
    if tenor not in grid:
        raise ValueError(f"tenor {tenor} is not on the grid")
    knots = sorted(set(curve.tenors) | set(grid))
    rates = tuple(curve.rate(t) + size * _tent_weight(grid, tenor, t) for t in knots)
    return ZeroCurve(tuple(knots), rates)


def _tent_weight(grid: tuple[float, ...], tenor: float, t: float) -> float:
    # Hat function: 1 at the bumped tenor, 0 at neighbouring grid tenors,
    # flat beyond the grid ends. Weights across all tenors sum to 1.
    i = grid.index(tenor)
    if t <= grid[0]:
        return 1.0 if i == 0 else 0.0
    if t >= grid[-1]:
        return 1.0 if i == len(grid) - 1 else 0.0
    if t == tenor:
        return 1.0
    if i > 0 and grid[i - 1] < t < tenor:
        return (t - grid[i - 1]) / (tenor - grid[i - 1])
    if i < len(grid) - 1 and tenor < t < grid[i + 1]:
        return (grid[i + 1] - t) / (grid[i + 1] - tenor)
    return 0.0


def collect_sensitivities(
    p: Portfolio,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    rb: Rulebook,
) -> list[SensitivityRecord]:
    """All delta sensitivities of a portfolio, netted per risk factor.

    Every position is attempted; failures are gathered and raised together as
    a SensitivityError tagged with position index and stage. Each distinct
    spot quote is classified and bumped once (see the module docstring).
    """
    raw: list[SensitivityRecord] = []
    issues: list[InstrumentIssue] = []
    # (instrument type, quote name) -> factor key and bumped snapshot, or the
    # issue the first position reading that quote raised.
    quotes: dict[tuple[type, str], tuple[RiskFactorKey, MarketData] | InstrumentIssue] = {}
    girr: _GirrKernel | None = None  # built when the first bond is seen
    for index, instr in enumerate(p.positions):
        stage = "classification"
        try:
            spot = _SPOT_TYPES.get(type(instr))
            if spot is not None:
                quote_id = (type(instr), getattr(instr, spot.name_attr))
                quote = quotes.get(quote_id)
                if quote is None:
                    quote = quotes[quote_id] = _resolve_quote(index, instr, md, registry, rb)
                if isinstance(quote, InstrumentIssue):
                    issues.append(InstrumentIssue(index, quote.stage, quote.message))
                    continue
                stage = "valuation"
                records = [spot_delta(instr, md, *quote)]
            elif isinstance(instr, Bond):
                bucket = rb.currency_bucket(RiskClass.GIRR, instr.currency).bucket_id
                stage = "valuation"
                if girr is None:
                    girr = _GirrKernel(md, rb.tenor_grid)
                records = girr.deltas(instr, bucket)
            else:
                issues.append(InstrumentIssue(index, "classification", f"unsupported type {type(instr).__name__}"))
                continue
        except (PortfolioError, RulebookError, ValueError) as exc:
            issues.append(InstrumentIssue(index, stage, str(exc)))
            continue
        for rec in records:
            if not math.isfinite(rec.value):
                issues.append(InstrumentIssue(index, "valuation", _non_finite_message(rec)))
                break
        else:
            raw.extend(records)
    if issues:
        raise SensitivityError(issues)
    return net_records(raw)


def _resolve_quote(
    index: int,
    instr: CashEquity | FXPosition | CommodityFuture,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    rb: Rulebook,
) -> tuple[RiskFactorKey, MarketData] | InstrumentIssue:
    # Bucket, factor key and bumped snapshot of the quote a spot position
    # reads, or the issue of position ``index`` if classifying or bumping fails.
    stage = "classification"
    try:
        if isinstance(instr, FXPosition):
            bucket = rb.currency_bucket(RiskClass.FX, instr.foreign_currency).bucket_id
        else:
            bucket = assign_bucket(instr, registry, rb)
        stage = "valuation"
        return spot_quote(instr, md, bucket)
    except (PortfolioError, RulebookError, ValueError) as exc:
        return InstrumentIssue(index, stage, str(exc))


def _non_finite_message(rec: SensitivityRecord) -> str:
    return (
        f"{_factor_label(rec.key)} is {rec.value!r}; "
        "a quantity, price or rate of this position is not finite or too large"
    )


def _factor_label(key: RiskFactorKey) -> str:
    tenor = f" at tenor {key.tenor:g}" if key.tenor is not None else ""
    return f"{key.risk_class.value} delta to {key.name}{tenor}"


def collect_with_warnings(
    p: Portfolio,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    rb: Rulebook,
) -> tuple[list[SensitivityRecord], tuple[str, ...]]:
    """collect_sensitivities plus the distinct warning messages it raised.

    Residual-bucket and curve-extrapolation warnings are recorded, not shown,
    and returned once each in first-seen order.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = collect_sensitivities(p, md, registry, rb)
    return records, tuple(dict.fromkeys(str(w.message) for w in caught))


def net_records(records: list[SensitivityRecord]) -> list[SensitivityRecord]:
    """Sum sensitivities that share a risk factor key, deterministically ordered.

    Records are grouped by key object first, since the records of one call
    share them; equal keys held by distinct objects then merge. Raises
    FactorOverflowError if a factor's deltas sum past the float range.
    """
    by_object: dict[int, list] = {}  # id(key) -> [key, value, value, ...]
    for rec in records:
        group = by_object.get(id(rec.key))
        if group is None:
            by_object[id(rec.key)] = [rec.key, rec.value]
        else:
            group.append(rec.value)
    grouped: dict[RiskFactorKey, list[float]] = {}
    for key, *values in by_object.values():
        grouped.setdefault(key, []).extend(values)
    netted = [SensitivityRecord(key=key, value=_net(key, values)) for key, values in grouped.items()]
    netted.sort(key=lambda rec: rec.key.sort_key())
    return netted


def _net(key: RiskFactorKey, values: list[float]) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise FactorOverflowError(key) from None
