"""Whole-book GIRR capital against an oracle that shares no code with the engine.

The oracle reads the rulebook and market files with ``json`` and follows the
method's text: each bond is revalued on the whole curve bumped by one basis
point times the tent of each grid tenor (1 at that tenor, 0 at its grid
neighbours, flat beyond the grid ends), the tenor deltas are weighted, and the
bucket charge is the full pairwise sum over the grid tenors under each
correlation scenario. Capital is the worst of the three scenarios.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbmcap import compute_capital, load_portfolio

BUMP = 0.0001
SCENARIOS = ("low", "medium", "high")


def curve_rate(pillars: list[tuple[float, float]], t: float) -> float:
    """Zero rate at t: linear between pillars, flat outside them."""
    if t <= pillars[0][0]:
        return pillars[0][1]
    if t >= pillars[-1][0]:
        return pillars[-1][1]
    for (t0, r0), (t1, r1) in zip(pillars, pillars[1:]):
        if t <= t1:
            return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
    raise AssertionError("unreachable")


def tent(grid: list[float], k: int, t: float) -> float:
    """The hat function of grid tenor k at t."""
    if t <= grid[0]:
        return 1.0 if k == 0 else 0.0
    if t >= grid[-1]:
        return 1.0 if k == len(grid) - 1 else 0.0
    left = grid[k - 1] if k > 0 else None
    right = grid[k + 1] if k < len(grid) - 1 else None
    if left is not None and left < t <= grid[k]:
        return (t - left) / (grid[k] - left)
    if right is not None and grid[k] <= t < right:
        return (right - t) / (right - grid[k])
    return 0.0


def flows(bond: dict) -> list[tuple[float, float]]:
    """(time, amount) of each payment: coupons every 1/frequency years back from maturity, the notional last."""
    frequency = bond.get("frequency", 2)
    coupon = bond["notional"] * bond.get("coupon_rate", 0.0) / frequency
    times, t = [], bond["maturity"]
    while t > 1e-9:
        times.append(t)
        t -= 1.0 / frequency
    times.reverse()
    return [(t, coupon + (bond["notional"] if i == len(times) - 1 else 0.0)) for i, t in enumerate(times)]


def present_value(payments: list[tuple[float, float]], rate) -> float:
    return math.fsum(amount * (1.0 + rate(t)) ** -t for t, amount in payments)


def girr_capital(rulebook: dict, market: dict, bonds: list[dict]) -> tuple[float, float]:
    """The envelope GIRR capital of a book of reporting-currency bonds, and the scale of its pairwise terms."""
    grid = [float(t) for t in rulebook["tenor_grid"]]
    pillars = [(float(t), float(r)) for t, r in market["zero_curve"]]
    (bucket,) = [b for b in rulebook["buckets"] if b["risk_class"] == "girr" and market["reporting_currency"] in b["currencies"]]
    weights = {float(t): w for t, w in bucket["risk_weights_by_tenor"].items()}
    deltas = [[] for _ in grid]
    for bond in bonds:
        payments = flows(bond)
        base = present_value(payments, lambda t: curve_rate(pillars, t))
        for k in range(len(grid)):
            bumped = present_value(payments, lambda t: curve_rate(pillars, t) + BUMP * tent(grid, k, t))
            deltas[k].append((bumped - base) / BUMP)
    ws = [weights[t] * math.fsum(d) for t, d in zip(grid, deltas)]

    params, rules = rulebook["girr_tenor_params"], rulebook["scenario_rules"]

    def rho(k: int, l: int, scenario: str) -> float:
        if k == l:
            return 1.0
        base = max(math.exp(-params["theta"] * abs(grid[k] - grid[l]) / min(grid[k], grid[l])), params["floor"])
        if scenario == "high":
            return min(rules["high"]["scale"] * base, rules["high"]["cap"])
        if scenario == "low":
            return max(rules["low"]["affine_scale"] * base + rules["low"]["affine_shift"], rules["low"]["scale"] * base)
        return base

    pairs = list(itertools.product(range(len(grid)), repeat=2))
    charges = [math.sqrt(max(0.0, math.fsum(rho(k, l, sc) * ws[k] * ws[l] for k, l in pairs))) for sc in SCENARIOS]
    return max(charges), math.fsum(abs(ws[k] * ws[l]) for k, l in pairs)


@pytest.fixture(scope="module")
def inputs(fixtures_dir):
    return {name: json.loads((fixtures_dir / f"{name}.json").read_text()) for name in ("rulebook", "market")}


@pytest.fixture(scope="module")
def book_path(tmp_path_factory):
    return tmp_path_factory.mktemp("girr") / "book.json"


BONDS = st.fixed_dictionaries({
    "type": st.just("bond"),
    "notional": st.floats(min_value=1e3, max_value=1e7) | st.floats(min_value=-1e7, max_value=-1e3),
    "coupon_rate": st.floats(min_value=0.0, max_value=0.1),
    "maturity": st.floats(min_value=0.05, max_value=45.0),  # the curve and the grid end at 30 years
    "frequency": st.sampled_from([1, 2, 4]),
    "currency": st.just("USD"),
})


@settings(max_examples=60, deadline=None)
@given(bonds=st.lists(BONDS, min_size=1, max_size=6))
@example(bonds=[
    {"type": "bond", "notional": 1e6, "coupon_rate": 0.05, "maturity": 37.3, "frequency": 2, "currency": "USD"},
    {"type": "bond", "notional": -4e5, "coupon_rate": 0.0, "maturity": 7.0, "frequency": 1, "currency": "USD"},
    {"type": "bond", "notional": 2e5, "coupon_rate": 0.03, "maturity": 0.1, "frequency": 4, "currency": "USD"},
])
def test_engine_capital_matches_the_whole_curve_oracle(rb, market, registry, inputs, book_path, bonds):
    book_path.write_text(json.dumps({"positions": bonds}))
    engine = compute_capital(load_portfolio(book_path), market, registry, rb).total_capital
    oracle, scale = girr_capital(inputs["rulebook"], inputs["market"], bonds)
    # Near zero both are roots of sums that cancel, and differ by rounding only: bound that by the terms' scale.
    assert abs(engine - oracle) <= 1e-9 * oracle or abs(engine**2 - oracle**2) <= 1e-9 * scale
