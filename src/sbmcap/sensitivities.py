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

For linear spot instruments the relative bump recovers the position value:
10,000 XOM shares at 110 give s = 1,100,000, the position's dollar value.

A spot revaluation reads only the bumped quote, so the bumped snapshot holds
that quote alone.
"""

from __future__ import annotations

import bisect
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, replace

from .portfolio import (
    Bond,
    CashEquity,
    CommodityFuture,
    FXPosition,
    Instrument,
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


# Per spot type: risk class, the attribute naming its quote, the MarketData
# getter that reads the quote, and the MarketData field that holds it.
_SPOT_QUOTES = {
    CashEquity: (RiskClass.EQUITY, "issuer_id", "equity_price", "equity_prices"),
    FXPosition: (RiskClass.FX, "foreign_currency", "fx_spot", "fx_spots"),
    CommodityFuture: (RiskClass.COMMODITY, "commodity_id", "commodity_price", "commodity_prices"),
}


def spot_delta(instr: CashEquity | FXPosition | CommodityFuture, md: MarketData, bucket: int) -> SensitivityRecord:
    """Delta to the one spot quote a position reads, from a 1% relative bump.

    The quote is the issuer's equity price, the foreign currency's FX spot
    against the reporting currency, or the commodity price; the factor is
    named after it.
    """
    risk_class, name_attr, getter, quotes = _SPOT_QUOTES[type(instr)]
    name = getattr(instr, name_attr)
    base = value(instr, md)
    bumped_md = replace(md, **{quotes: {name: getattr(md, getter)(name) * (1.0 + REL_BUMP)}})
    s = (value(instr, bumped_md) - base) / REL_BUMP
    return SensitivityRecord(key=RiskFactorKey(risk_class=risk_class, bucket=bucket, name=name), value=s)


def girr_deltas(instr: Bond, md: MarketData, grid: tuple[float, ...], bucket: int) -> list[SensitivityRecord]:
    """Per-tenor curve deltas of a bond.

    One record per standard tenor whose 1bp tent bump moves the bond value;
    tenors the bond has no exposure to are dropped. Each cash flow is
    revalued only under the tents that cover it (see the module docstring).
    """
    if instr.currency != md.reporting_currency:
        raise MarketDataError(
            f"bond denominated in {instr.currency}, but only the {md.reporting_currency} curve is available"
        )
    curve = md.zero_curve
    terms: dict[int, list[float]] = defaultdict(list)
    for t, amount in instr.cash_flows():
        z = curve.rate(t)
        # Bumped PV minus base PV, flow by flow: for a zero-coupon bond this is
        # V(z + tent) - V(z) to the last bit.
        pv = amount * (1.0 + z) ** -t
        for i, w in _covering_tents(grid, t):
            terms[i].append(amount * (1.0 + (z + GIRR_BUMP * w)) ** -t - pv)
    records: list[SensitivityRecord] = []
    for i in sorted(terms):
        s = math.fsum(terms[i]) / GIRR_BUMP
        if s == 0.0:
            continue
        key = RiskFactorKey(risk_class=RiskClass.GIRR, bucket=bucket, name=instr.currency, tenor=grid[i])
        records.append(SensitivityRecord(key=key, value=s))
    return records


def _covering_tents(grid: tuple[float, ...], t: float) -> tuple[tuple[int, float], ...]:
    # (grid index, tent weight) of the tents that are non-zero at t: the one
    # end tenor at or beyond a grid end or on a grid tenor, else the two grid
    # tenors either side of t. Same weights as _tent_weight.
    if t <= grid[0]:
        return ((0, 1.0),)
    if t >= grid[-1]:
        return ((len(grid) - 1, 1.0),)
    i = bisect.bisect_right(grid, t)
    lo, hi = grid[i - 1], grid[i]
    if t == lo:
        return ((i - 1, 1.0),)
    return ((i - 1, (hi - t) / (hi - lo)), (i, (t - lo) / (hi - lo)))


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
    a SensitivityError tagged with position index and stage.
    """
    raw: list[SensitivityRecord] = []
    issues: list[InstrumentIssue] = []
    for index, instr in enumerate(p.positions):
        stage = "classification"
        try:
            if isinstance(instr, (CashEquity, CommodityFuture)):
                bucket = assign_bucket(instr, registry, rb)
                stage = "valuation"
                raw.append(spot_delta(instr, md, bucket))
            elif isinstance(instr, FXPosition):
                bucket = rb.currency_bucket(RiskClass.FX, instr.foreign_currency).bucket_id
                stage = "valuation"
                raw.append(spot_delta(instr, md, bucket))
            elif isinstance(instr, Bond):
                bucket = rb.currency_bucket(RiskClass.GIRR, instr.currency).bucket_id
                stage = "valuation"
                raw.extend(girr_deltas(instr, md, rb.tenor_grid, bucket))
            else:
                issues.append(InstrumentIssue(index, "classification", f"unsupported type {type(instr).__name__}"))
        except (PortfolioError, RulebookError, ValueError) as exc:
            issues.append(InstrumentIssue(index, stage, str(exc)))
    if issues:
        raise SensitivityError(issues)
    return net_records(raw)


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
    """Sum sensitivities that share a risk factor key, deterministically ordered."""
    grouped: dict[RiskFactorKey, list[float]] = defaultdict(list)
    for rec in records:
        grouped[rec.key].append(rec.value)
    netted = [SensitivityRecord(key=key, value=math.fsum(values)) for key, values in grouped.items()]
    netted.sort(key=lambda rec: rec.key.sort_key())
    return netted
