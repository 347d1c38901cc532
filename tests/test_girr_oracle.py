"""Whole-book capital against an oracle that shares no code with the engine.

The oracle reads the rulebook, market and registry files with ``json`` and
follows the method's text, not the engine's structure:

- A bond is revalued on the whole curve bumped by one basis point times the
  tent of each grid tenor (1 at that tenor, 0 at its grid neighbours, flat
  beyond the grid ends). A spot position is revalued with its one quote
  bumped by 1%.
- A bond falls in the GIRR bucket of its currency and an FX position in the
  FX bucket of its currency. An equity falls in the bucket of its issuer's
  economy, size and sector, and a commodity in the bucket listing it; a name
  that matches none falls in the class's residual bucket.
- Deltas are netted per risk factor and weighted. Each bucket charge is the
  full pairwise sum over its factors, with the tabulated rho (or the GIRR
  tenor formula) scenario-adjusted, and 1 on the diagonal. The residual
  buckets follow their tabulated rho and gamma as every other bucket does.
- The class charge is the cross-bucket form, with every S_b clamped into
  [-K_b, K_b] if the form is negative (d352 para 53). Class charges are
  summed per scenario, and capital is the worst of the three scenarios.

Engine and oracle must agree within 1e-9 relative. Near zero both are roots
of sums that cancel and differ by rounding only; there each class charge is
checked against its own oracle within 1e-9 of the scale of its terms.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbmcap import compute_capital, load_market_data, load_portfolio, load_registry, load_rulebook

BUMP = 0.0001
REL_BUMP = 0.01
SCENARIOS = ("low", "medium", "high")
# Per spot class: the field naming the quote, the quantity field and the market section holding the quote.
SPOT = {"equity": ("issuer_id", "shares", "equity_prices"), "fx": ("currency", "notional", "fx_spots"),
        "commodity": ("commodity_id", "quantity", "commodity_prices")}


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


def scenario_adjusted(rho: float, scenario: str, rules: dict) -> float:
    if scenario == "high":
        return min(rules["high"]["scale"] * rho, rules["high"]["cap"])
    if scenario == "low":
        return max(rules["low"]["affine_scale"] * rho + rules["low"]["affine_shift"], rules["low"]["scale"] * rho)
    return rho


def bucket_of(rulebook: dict, registry: dict, risk_class: str, position: dict) -> dict:
    """The rulebook bucket a position falls in."""
    buckets = [b for b in rulebook["buckets"] if b["risk_class"] == risk_class]
    if risk_class in ("girr", "fx"):
        (bucket,) = [b for b in buckets if position["currency"] in b["currencies"]]
        return bucket
    residual = next(b for b in buckets if b.get("residual"))
    if risk_class == "commodity":
        return next((b for b in buckets if position["commodity_id"] in b.get("commodities", ())), residual)
    info = registry.get(position["issuer_id"])
    for b in buckets:
        if info and not b.get("residual") and (b["economy"], b["size"]) == (info["economy"], info["size"]):
            if b.get("sectors") is None or info["sector"] in b["sectors"]:
                return b
    return residual


def book_capital(rulebook: dict, market: dict, registry: dict, positions: list[dict]) -> dict:
    """{scenario: {risk class: (charge, scale of its terms)}} of a book of portfolio-file rows."""
    grid = [float(t) for t in rulebook["tenor_grid"]]
    pillars = [(float(t), float(r)) for t, r in market["zero_curve"]]
    issuers = {row["issuer_id"]: row for row in registry["issuers"]}
    deltas: dict[tuple, list[float]] = {}  # (class, bucket id, name, tenor) -> deltas
    weights: dict[tuple, float] = {}
    for position in positions:
        risk_class = "girr" if position["type"] == "bond" else position["type"]
        bucket = bucket_of(rulebook, issuers, risk_class, position)
        if risk_class == "girr":
            payments = flows(position)
            base = present_value(payments, lambda t: curve_rate(pillars, t))
            for k, tenor in enumerate(grid):
                bumped = present_value(payments, lambda t: curve_rate(pillars, t) + BUMP * tent(grid, k, t))
                key = ("girr", bucket["id"], position["currency"], tenor)
                deltas.setdefault(key, []).append((bumped - base) / BUMP)
                weights[key] = {float(t): w for t, w in bucket["risk_weights_by_tenor"].items()}[tenor]
            continue
        name_field, quantity_field, section = SPOT[risk_class]
        name, q = position[name_field], position[quantity_field]
        x = market[section][name]
        key = (risk_class, bucket["id"], name, None)
        deltas.setdefault(key, []).append((q * (x * (1.0 + REL_BUMP)) - q * x) / REL_BUMP)
        weights[key] = bucket["risk_weight"]
    ws_by_bucket: dict[tuple[str, int], list[tuple[tuple, float]]] = {}
    for key, terms in deltas.items():
        ws_by_bucket.setdefault(key[:2], []).append((key, weights[key] * math.fsum(terms)))

    params, rules = rulebook["girr_tenor_params"], rulebook["scenario_rules"]
    intra = {(rc, int(b)): rho for rc, table in rulebook["intra_correlations"].items() for b, rho in table.items()}

    def rho(k: tuple, l: tuple) -> float:
        if k[0] == "girr":
            return max(math.exp(-params["theta"] * abs(k[3] - l[3]) / min(k[3], l[3])), params["floor"])
        return intra[k[:2]]

    def gamma(risk_class: str, b: int, c: int) -> float:
        table = rulebook["cross_correlations"][risk_class]
        pairs = {frozenset((p["b"], p["c"])): p["value"] for p in table.get("pairs", ())}
        return pairs.get(frozenset((b, c)), table["default"])

    result = {}
    for scenario in SCENARIOS:
        result[scenario] = {}
        for risk_class in sorted({rc for rc, _ in ws_by_bucket}):
            k_b, s_b, scale = {}, {}, []
            for (rc, b), ws in ws_by_bucket.items():
                if rc != risk_class:
                    continue
                terms = [(1.0 if k == l else scenario_adjusted(rho(k, l), scenario, rules)) * wk * wl
                         for (k, wk), (l, wl) in itertools.product(ws, repeat=2)]
                k_b[b] = math.sqrt(max(0.0, math.fsum(terms)))
                s_b[b] = math.fsum(w for _, w in ws)
                scale.extend(abs(term) for term in terms)

            def cross_form(s: dict[int, float]) -> list[float]:
                return [k * k for k in k_b.values()] + [
                    scenario_adjusted(gamma(risk_class, b, c), scenario, rules) * s[b] * s[c]
                    for b, c in itertools.permutations(s, 2)
                ]

            terms = cross_form(s_b)
            if math.fsum(terms) < 0.0:
                terms = cross_form({b: max(min(s, k_b[b]), -k_b[b]) for b, s in s_b.items()})
            charge = math.sqrt(max(0.0, math.fsum(terms)))
            result[scenario][risk_class] = (charge, math.fsum(scale) + math.fsum(abs(term) for term in terms))
    return result


def assert_engine_matches(report, oracle: dict) -> None:
    expected = max((math.fsum(charge for charge, _ in classes.values()) for classes in oracle.values()), default=0.0)
    if abs(report.total_capital - expected) <= 1e-9 * expected:
        return
    for scenario, classes in oracle.items():
        engine = report.scenarios[scenario].classes
        assert set(engine) == set(classes), scenario
        for risk_class, (charge, scale) in classes.items():
            assert abs(engine[risk_class].charge ** 2 - charge**2) <= 1e-9 * scale, (scenario, risk_class)


@pytest.fixture(scope="module")
def inputs(fixtures_dir):
    return {name: json.loads((fixtures_dir / f"{name}.json").read_text()) for name in ("rulebook", "market", "issuers")}


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
    report = compute_capital(load_portfolio(book_path), market, registry, rb)
    assert_engine_matches(report, book_capital(inputs["rulebook"], inputs["market"], inputs["issuers"], bonds))


# Names that fall in the residual buckets: an issuer whose sector no bucket lists, one not in the registry at all,
# and a commodity no bucket lists. The test inputs quote all three.
OTHER_SECTOR, UNREGISTERED, UNLISTED = "OTHR", "UNREG", "uranium"


@pytest.fixture(scope="module")
def book_inputs(inputs, tmp_path_factory):
    """Paths and JSON of the test inputs: the fixtures plus residual names, and a rulebook whose gammas are high.

    Gammas of 0.9 across equity and commodity buckets make the cross-bucket form of opposed buckets negative,
    so shorts engage the para 53 clamp.
    """
    market = json.loads(json.dumps(inputs["market"]))
    market["equity_prices"].update({OTHER_SECTOR: 55.0, UNREGISTERED: 9.5})
    market["commodity_prices"][UNLISTED] = 80.0
    issuers = json.loads(json.dumps(inputs["issuers"]))
    issuers["issuers"].append(
        {"issuer_id": OTHER_SECTOR, "sector": "other", "economy": "advanced", "size": "large", "name": "Other"}
    )
    stressed = json.loads(json.dumps(inputs["rulebook"]))
    for risk_class in ("equity", "commodity"):
        stressed["cross_correlations"][risk_class]["default"] = 0.9
    root = tmp_path_factory.mktemp("books")
    data = {"market": market, "issuers": issuers, "rulebook": inputs["rulebook"], "stressed": stressed}
    for name, document in data.items():
        (root / f"{name}.json").write_text(json.dumps(document))
    loaded = {
        "market": load_market_data(root / "market.json"),
        "issuers": load_registry(root / "issuers.json"),
        "rulebook": load_rulebook(root / "rulebook.json"),
        "stressed": load_rulebook(root / "stressed.json"),
    }
    return root, data, loaded


def run_both(book_inputs, positions: list[dict], stressed: bool):
    root, data, loaded = book_inputs
    rulebook = "stressed" if stressed else "rulebook"
    path = root / "book.json"
    path.write_text(json.dumps({"positions": positions}))
    report = compute_capital(load_portfolio(path), loaded["market"], loaded["issuers"], loaded[rulebook])
    return report, book_capital(data[rulebook], data["market"], data["issuers"], positions)


def signed(low: float, high: float):
    return st.floats(min_value=low, max_value=high) | st.floats(min_value=-high, max_value=-low)


EQUITY_NAMES = ["XOM", "T", "MSFT", "JPM", "WMT", "BA", "PBR", "VALE", "NWCO", "RGNL", OTHER_SECTOR, UNREGISTERED]
POSITIONS = {
    "bond": BONDS,
    "equity": st.fixed_dictionaries(
        {"type": st.just("equity"), "issuer_id": st.sampled_from(EQUITY_NAMES), "shares": signed(1.0, 1e5)}
    ),
    "fx": st.fixed_dictionaries(
        {"type": st.just("fx"), "currency": st.sampled_from(["EUR", "JPY", "GBP", "CHF"]), "notional": signed(1e3, 1e7)}
    ),
    "commodity": st.fixed_dictionaries({
        "type": st.just("commodity"),
        "commodity_id": st.sampled_from(["gold", "silver", "crude_oil", "natural_gas", "copper", "wheat", "coffee",
                                         "live_cattle", UNLISTED]),
        "quantity": signed(1.0, 1e5),
        "unit": st.just("lot"),
    }),
}


@st.composite
def opposed_buckets(draw, prices: dict[str, float]) -> list[dict]:
    """Every name of one two-name equity bucket long and every name of another short.

    Each is worth 1e7 to 4e7, more than most drawn positions. Under the stressed rulebook the cross-bucket form
    of such a book is then often negative, so the clamp engages: in about a fifth of the equity books drawn.
    """
    long, short = draw(st.permutations([("MSFT", "JPM"), ("T", "BA"), ("PBR", "VALE")]))[:2]
    value = st.floats(min_value=1e7, max_value=4e7)
    return [{"type": "equity", "issuer_id": name, "shares": sign * draw(value) / prices[name]}
            for names, sign in ((long, 1.0), (short, -1.0)) for name in names]


@pytest.mark.parametrize("kinds", [("equity",), ("fx",), ("commodity",), ("bond", "equity", "fx", "commodity")])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), stressed=st.booleans())
def test_engine_capital_matches_the_oracle_on_spot_and_mixed_books(book_inputs, kinds, data, stressed):
    size = (1, 4) if "bond" in kinds else (1, 12)
    positions = data.draw(st.lists(st.one_of([POSITIONS[kind] for kind in kinds]), min_size=size[0], max_size=size[1]))
    if "equity" in kinds and data.draw(st.booleans()):
        positions += data.draw(opposed_buckets(book_inputs[1]["market"]["equity_prices"]))
    report, oracle = run_both(book_inputs, positions, stressed)
    assert_engine_matches(report, oracle)


def test_opposed_buckets_engage_the_clamp_and_match_the_oracle(book_inputs):
    # Bucket 8 (MSFT, JPM) long and bucket 6 (T, BA) short, each about 205,000 weighted: with gamma 0.9 the
    # cross-bucket form is negative in every scenario. Residual names and a bond past the last pillar ride along.
    positions = [
        {"type": "equity", "issuer_id": "MSFT", "shares": 1000.0},
        {"type": "equity", "issuer_id": "JPM", "shares": 2050.0},
        {"type": "equity", "issuer_id": "T", "shares": -34454.0},
        {"type": "equity", "issuer_id": "BA", "shares": -3254.0},
        {"type": "equity", "issuer_id": UNREGISTERED, "shares": 500.0},
        {"type": "commodity", "commodity_id": "gold", "quantity": 300.0, "unit": "oz"},
        {"type": "commodity", "commodity_id": UNLISTED, "quantity": -700.0, "unit": "lb"},
        {"type": "bond", "notional": 1e6, "coupon_rate": 0.04, "maturity": 33.0, "frequency": 2, "currency": "USD"},
    ]
    report, oracle = run_both(book_inputs, positions, stressed=True)
    assert all(sc.classes["equity"].fallback_engaged for sc in report.scenarios.values())
    assert_engine_matches(report, oracle)
