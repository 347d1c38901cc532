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
(``_GirrKernel``). The cash flows of a bond ascend, so a row of the table is
looked up only when a flow leaves the current knot interval, and a flow
costs at most three discount factors. Rows below the first pillar and from
the last pillar on hold flat segments, so no flow calls ``ZeroCurve.rate``,
and the deltas are the same to the bit as with a curve lookup per flow. For
each bond the kernel returns one (factor key, s_t) pair per tenor it loads,
and s_t joins that factor's term list: no record is built per bond and
tenor. Each GIRR factor key is built once per call, when a bond first loads
its tenor.

A linear spot position is worth its quantity q times its one quote x, so its
delta is (q * 1.01 x - q * x) / 0.01 (10,000 XOM shares at 110 give
1,100,000, the position's value): the products ``value`` computes, on the
same operands, so the same to the bit as revaluing against a bumped
snapshot. ``collect_sensitivities`` classifies, keys and reads each distinct
quote once per call; a position then costs one float, not a snapshot and a
record. All deltas, bond tenor deltas included, go into one list per factor,
netted by one exactly rounded ``fsum``, so term order does not change a sum.

Factor keys and records are ``NamedTuple``s: a key costs one tuple, and it
compares equal to, and hashes like, the plain tuple of its fields. The
netted records are sorted in plain tuple order, which is (risk class,
bucket, name, tenor): after netting the keys are distinct, and only GIRR
keys carry a tenor.

What a spot position reads is stated in ``portfolio._SPOT_TYPES``, and its
quote is read by ``portfolio._read_quote``, as ``value`` reads it. A quote
that is missing, at or below 0 or not a number, or a NaN or infinite delta,
fails its position at the valuation stage (the loaders reject such inputs
in files); a spot delta past the float range from a finite quantity and
quote is an overflow.

Diagnostics are data. Each cash flow beyond the curve's last pillar, which
the kernel values at the flat last rate, appends a note to one list, and so
does each quote that ``assign_bucket`` puts in a residual bucket: in
position order, and in flow order within a bond. ``collect_sensitivities``
returns the distinct notes in first-seen order beside the records; nothing
goes through Python's ``warnings`` machinery.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, NamedTuple

from .portfolio import (
    Bond,
    Instrument,
    IssuerInfo,
    MarketData,
    MarketDataError,
    Portfolio,
    PortfolioError,
    ZeroCurve,
    _SPOT_TYPES,
    _SpotType,
    _read_quote,
    assign_bucket,
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


class InstrumentIssue(NamedTuple):
    """Where in the portfolio a computation failed and why."""

    index: int
    stage: str
    message: str

    def __str__(self) -> str:
        return f"position {self.index} ({self.stage}): {self.message}"


class RiskFactorKey(NamedTuple):
    """Identity of one delta risk factor.

    ``tenor`` is present exactly for GIRR factors; spot factors carry None.
    The aggregation enforces that: a GIRR risk weight needs a tenor, and a
    non-GIRR record with one is rejected.
    """

    risk_class: RiskClass
    bucket: int
    name: str
    tenor: float | None = None


class SensitivityRecord(NamedTuple):
    key: RiskFactorKey
    value: float


class _GirrKernel:
    """Knot table of one curve and grid, and the GIRR factor keys handed out so far.

    The knots are the sorted union of the curve pillars and the grid tenors.
    Row k serves knots[k-1] <= t < knots[k] (row 0 all t below the first
    knot, the last row all t from the last knot on) and ends with its upper
    bound knots[k]. There the curve is one segment (t0, r0, r1 - r0, t1 - t0),
    and the same tents cover t: the grid tenors either side (i - 1, i, lo, hi,
    hi - lo), or one end tent (i, None, ...). Below the first pillar and from
    the last pillar on, the segment is flat, (pillar, rate, 0.0, 1.0). z(t)
    and the tent weights are the expressions of ``ZeroCurve.rate`` and of the
    tent with the same operands in the same order. Where ``ZeroCurve.rate``
    returns a pillar rate r itself (on a flat segment, or at t equal to the
    first pillar), the segment adds a signed zero to r. That can only flip
    the sign of a zero rate, and 1.0 + z erases the sign.
    """

    def __init__(self, md: MarketData, grid: tuple[float, ...]):
        self.currency = md.reporting_currency
        self.grid = grid
        tenors, rates = md.zero_curve.tenors, md.zero_curve.rates
        self.knots = knots = sorted(set(tenors) | set(grid))
        # A curve no bond can be valued on has no rows: the first cash flow a bond has raises why.
        self.unusable = "zero curve is empty" if not tenors else next(
            (f"zero rate {r!r} at tenor {t:g} is at or below -1, where (1 + z) ** -t has no real value"
             for t, r in zip(tenors, rates) if r <= -1.0),
            None,
        )
        self.rows: list[tuple] = []
        self.last = tenors[-1] if tenors else math.inf
        self.beyond = f" beyond last pillar {self.last:g}, extrapolating flat"
        for start, end in zip((-math.inf, *knots), (*knots, math.inf)) if self.unusable is None else ():
            if start < tenors[0]:
                segment: tuple = (tenors[0], rates[0], 0.0, 1.0)
            elif start >= tenors[-1]:
                segment = (tenors[-1], rates[-1], 0.0, 1.0)
            else:
                j = bisect.bisect_right(tenors, start)
                segment = (tenors[j - 1], rates[j - 1], rates[j] - rates[j - 1], tenors[j] - tenors[j - 1])
            if start < grid[0]:
                tents: tuple = (0, None, None, None, None)
            elif start >= grid[-1]:
                tents = (len(grid) - 1, None, None, None, None)
            else:
                i = bisect.bisect_right(grid, start)
                tents = (i - 1, i, grid[i - 1], grid[i], grid[i] - grid[i - 1])
            self.rows.append((*segment, *tents, end))
        # bucket -> factor key per grid position, each built on first use.
        self.keys: dict[int, list[RiskFactorKey | None]] = {}

    def deltas(self, instr: Bond, bucket: int, notes: list[str]) -> list[tuple[RiskFactorKey, float]]:
        """(factor key, s_t) of each tenor the bond loads; each flow beyond the last pillar appends a note."""
        if instr.currency != self.currency:
            raise MarketDataError(
                f"bond denominated in {instr.currency}, but only the {self.currency} curve is available"
            )
        knots, rows, last, beyond = self.knots, self.rows, self.last, self.beyond
        terms: list[list[float]] = [[] for _ in self.grid]
        end = -math.inf
        for t, amount in instr.cash_flows():
            if t >= end:
                # Flows ascend, so a row is looked up once per knot interval they reach.
                if not rows:
                    raise MarketDataError(self.unusable)
                t0, r0, dr, dt, a, b, lo, hi, width, end = rows[bisect.bisect_right(knots, t)]
            if t > last:
                notes.append(f"zero rate at t={t:g}{beyond}")
            z = r0 + dr * (t - t0) / dt
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
        pairs = []
        for i, parts in enumerate(terms):
            s = math.fsum(parts) / GIRR_BUMP
            if s == 0.0:
                continue
            key = keys[i]
            if key is None:
                key = keys[i] = RiskFactorKey(RiskClass.GIRR, bucket, self.currency, self.grid[i])
            pairs.append((key, s))
        return pairs


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
) -> tuple[list[SensitivityRecord], tuple[str, ...]]:
    """All delta sensitivities of a portfolio, netted per risk factor, and the run's messages.

    Every position is attempted; failures are gathered and raised together as
    a SensitivityError tagged with position index and stage. Each distinct
    spot quote is classified, keyed and bumped once (see the module docstring),
    and the bonds of one currency are classified once.
    The messages are the residual-bucket and curve-extrapolation notes, each
    once, in first-seen order.
    """
    issues: list[InstrumentIssue] = []
    notes: list[str] = []
    # id(factor key) -> (key, delta terms), in first-seen order. Each spot quote
    # and each GIRR tenor has one key object per call.
    factors: dict[int, tuple[RiskFactorKey, list[float]]] = {}
    # (instrument type, quote name) -> factor key, x, 1.01 x and the factor's
    # terms, or the issue the first position reading that quote raised.
    quotes: dict[tuple[type, str], tuple[RiskFactorKey, float, float, list[float]] | InstrumentIssue] = {}
    girr: _GirrKernel | None = None  # built when the first bond is seen
    bond_buckets: dict[str, int] = {}  # GIRR bucket by currency, of the bonds classified so far
    # A local: CPython compiles .get on an imported name as an attribute load, a bound method per position.
    spot_types = _SPOT_TYPES
    for index, instr in enumerate(p.positions):
        spot = spot_types.get(type(instr))
        if spot is not None:
            quote_id = (type(instr), getattr(instr, spot.name_attr))
            quote = quotes.get(quote_id)
            if quote is None:
                quote = quotes[quote_id] = _resolve_quote(index, instr, spot, md, registry, rb, notes)
                if type(quote) is not InstrumentIssue:
                    factors[id(quote[0])] = (quote[0], quote[3])
            if type(quote) is InstrumentIssue:
                issues.append(InstrumentIssue(index, quote.stage, quote.message))
                continue
            key, x, bumped, terms = quote
            q = getattr(instr, spot.quantity_attr)
            s = (q * bumped - q * x) / REL_BUMP
            if math.isfinite(s):
                terms.append(s)
            else:
                issues.append(InstrumentIssue(index, "valuation", _non_finite_message(key, s, q, x)))
            continue
        if not isinstance(instr, Bond):
            issues.append(InstrumentIssue(index, "classification", f"unsupported type {type(instr).__name__}"))
            continue
        stage = "classification"
        try:
            bucket = bond_buckets.get(instr.currency)
            if bucket is None:
                bucket = bond_buckets[instr.currency] = assign_bucket(instr, registry, rb)[0]
            stage = "valuation"
            if girr is None:
                girr = _GirrKernel(md, rb.tenor_grid)
            pairs = girr.deltas(instr, bucket, notes)
        except (PortfolioError, RulebookError, ValueError) as exc:
            issues.append(InstrumentIssue(index, stage, str(exc)))
            continue
        except (OverflowError, ZeroDivisionError):
            # Float ** raises where it would give inf, and so does fsum on an intermediate overflow.
            message = ("discounted cash flows are out of the float range; "
                       "the notional or maturity of this position is too large, or a zero rate too close to -1")
            issues.append(InstrumentIssue(index, "valuation", message))
            continue
        for key, s in pairs:
            if not math.isfinite(s):
                issues.append(InstrumentIssue(index, "valuation", _non_finite_message(key, s)))
                break
        else:
            for key, s in pairs:
                factor = factors.get(id(key))
                if factor is None:
                    factor = factors[id(key)] = (key, [])
                factor[1].append(s)
    if issues:
        raise SensitivityError(issues)
    return _net(factors.values()), tuple(dict.fromkeys(notes))


def _resolve_quote(
    index: int,
    instr: Instrument,
    spot: _SpotType,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    rb: Rulebook,
    notes: list[str],
) -> tuple[RiskFactorKey, float, float, list[float]] | InstrumentIssue:
    # Factor key, x, 1.01 x and an empty term list of the quote a spot position
    # reads, or the issue of position ``index`` if classifying or reading it fails.
    stage = "classification"
    try:
        name = getattr(instr, spot.name_attr)
        bucket, note = assign_bucket(instr, registry, rb)
        if note is not None:
            notes.append(note)
        stage = "valuation"
        x = _read_quote(spot, name, md)
        return RiskFactorKey(spot.risk_class, bucket, name), x, x * (1.0 + REL_BUMP), []
    except (PortfolioError, RulebookError, ValueError) as exc:
        return InstrumentIssue(index, stage, str(exc))


def _non_finite_message(key: RiskFactorKey, delta: float, *operands: float) -> str:
    if operands and all(map(math.isfinite, operands)):  # a spot delta whose products left the float range
        return f"{_factor_label(key)} overflows the float range; the quantity or price of this position is too large"
    return (
        f"{_factor_label(key)} is {delta!r}; "
        "a quantity, price or rate of this position is not finite or too large"
    )


def _factor_label(key: RiskFactorKey) -> str:
    tenor = f" at tenor {key.tenor:g}" if key.tenor is not None else ""
    return f"{key.risk_class.value} delta to {key.name}{tenor}"


def net_records(records: list[SensitivityRecord]) -> list[SensitivityRecord]:
    """Sum sensitivities that share a risk factor key, deterministically ordered.

    Raises FactorOverflowError if a factor's deltas sum past the float range.
    """
    grouped: dict[RiskFactorKey, list[float]] = {}
    for rec in records:
        grouped.setdefault(rec.key, []).append(rec.value)
    return _net(grouped.items())


def _net(factors: Iterable[tuple[RiskFactorKey, list[float]]]) -> list[SensitivityRecord]:
    # One record per factor, its terms summed by one fsum, sorted by factor key.
    netted = []
    for key, terms in factors:
        try:
            netted.append(SensitivityRecord(key, math.fsum(terms)))
        except OverflowError:
            raise FactorOverflowError(key) from None
    # Keys are distinct here and only GIRR keys carry a tenor, so the tuple order
    # is (risk class, bucket, name, tenor); RiskClass is a str enum, so its
    # members order as their values do.
    netted.sort()
    return netted
