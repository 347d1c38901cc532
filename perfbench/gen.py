"""Seeded synthetic inputs for the sbmcap benchmark.

Every file the engine sees is written here: a d352 delta rulebook, a market
snapshot, an issuer registry and a few portfolio books per workload. The same
(workload, seed, size) always gives byte-identical files; the program under
test receives only those files, never the seed.

Each workload has a record of why it exists and the shares it is built with
(WORKLOADS below), so a later reader can tell which layer it loads and what a
change to another layer should do to it (nothing).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

TENOR_GRID = (0.25, 0.5, 1, 2, 3, 5, 10, 15, 20, 30)
GIRR_WEIGHTS = (0.024, 0.024, 0.0225, 0.0188, 0.0173, 0.015, 0.015, 0.015, 0.015, 0.015)

_CONSUMER = ("consumer", "transportation", "administrative", "healthcare", "utilities")
_TELECOM = ("telecommunications", "industrials")
_MATERIALS = ("materials", "energy", "agriculture", "manufacturing", "mining")
_FINANCIALS = ("financials", "real_estate", "technology")

# (id, economy, size, sectors or None for all sectors, risk weight, intra rho); d352 para 57-58.
EQUITY_BUCKETS = (
    (1, "emerging", "large", _CONSUMER, 0.55, 0.15),
    (2, "emerging", "large", _TELECOM, 0.60, 0.15),
    (3, "emerging", "large", _MATERIALS, 0.45, 0.15),
    (4, "emerging", "large", _FINANCIALS, 0.55, 0.15),
    (5, "advanced", "large", _CONSUMER, 0.30, 0.25),
    (6, "advanced", "large", _TELECOM, 0.35, 0.25),
    (7, "advanced", "large", _MATERIALS, 0.40, 0.25),
    (8, "advanced", "large", _FINANCIALS, 0.50, 0.25),
    (9, "emerging", "small", None, 0.70, 0.075),
    (10, "advanced", "small", None, 0.50, 0.125),
)
EQUITY_RESIDUAL = (11, 0.70, 0.0)
EQUITY_CROSS_DEFAULT = 0.15

FX_CURRENCIES = ("EUR", "JPY", "GBP", "CHF")
FX_SPOTS = {"EUR": 1.1, "JPY": 0.0091, "GBP": 1.27, "CHF": 1.12}

# (id, commodities, risk weight, intra rho); d352 para 72-73.
COMMODITY_BUCKETS = (
    (1, ("coal", "charcoal"), 0.30, 0.55),
    (2, ("crude_oil", "brent", "heating_oil", "gasoline", "ethanol"), 0.35, 0.95),
    (3, ("electricity", "carbon"), 0.60, 0.40),
    (4, ("freight_dry", "freight_tanker"), 0.80, 0.80),
    (5, ("copper", "aluminium", "nickel", "zinc", "iron_ore", "tin"), 0.40, 0.60),
    (6, ("natural_gas", "lng"), 0.45, 0.65),
    (7, ("gold", "silver", "platinum", "palladium"), 0.20, 0.55),
    (8, ("wheat", "corn", "soybean", "oats", "canola"), 0.35, 0.45),
    (9, ("live_cattle", "feeder_cattle", "hogs", "milk"), 0.25, 0.15),
    (10, ("coffee", "sugar", "cotton", "cocoa", "lumber"), 0.35, 0.40),
)
COMMODITY_RESIDUAL = (11, 0.50, 0.15)
COMMODITY_PRICES = {
    "gold": 2000.0,
    "silver": 25.0,
    "crude_oil": 80.0,
    "natural_gas": 3.5,
    "copper": 4.2,
    "wheat": 6.5,
    "coffee": 2.3,
    "live_cattle": 1.8,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it loads, why, and the shares it is built with."""

    name: str
    why: str
    kind: str  # "equity" or "bond": which book generator builds the books
    books: int
    positions: int
    names: int = 0
    main_bucket_share: float = 0.0
    residual_share: float = 0.0
    beyond_pillar_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="equity-concentrated",
            kind="equity",
            why=(
                "Long/short equity books netting onto a few hundred names, most in one bucket: loads the "
                "intra-bucket sum and correlation lookups; GIRR does no work."
            ),
            books=4,
            positions=1000,
            names=260,
            main_bucket_share=0.80,
            residual_share=0.04,
        ),
        Workload(
            name="bond-ladder",
            kind="bond",
            why=(
                "USD fixed-coupon bonds at off-grid maturities, some beyond the last pillar: loads GIRR "
                "bump-and-revalue and extrapolation; aggregation sees one bucket of at most 10 factors."
            ),
            books=4,
            positions=200,
            beyond_pillar_share=0.05,
        ),
    )
}

# Registered issuers of a workload without an equity universe of its own (bond-ladder).
SMALL_UNIVERSE = 12

# The equity bucket that holds most names in equity-concentrated: advanced large financials.
MAIN_EQUITY_BUCKET = 8


def d352_rulebook() -> dict:
    """The d352 delta parameter set in the rulebook file schema; the same for every seed."""
    buckets: list[dict] = [
        {
            "risk_class": "girr",
            "id": 1,
            "description": "USD risk-free yield curve",
            "currencies": ["USD"],
            "risk_weights_by_tenor": {_tenor_key(t): w for t, w in zip(TENOR_GRID, GIRR_WEIGHTS)},
        }
    ]
    for bucket_id, economy, size, sectors, rw, _ in EQUITY_BUCKETS:
        row = {"risk_class": "equity", "id": bucket_id, "description": f"{economy} {size}",
               "economy": economy, "size": size, "risk_weight": rw}
        if sectors is not None:
            row["sectors"] = list(sectors)
        buckets.append(row)
    buckets.append({"risk_class": "equity", "id": EQUITY_RESIDUAL[0], "description": "residual",
                    "residual": True, "risk_weight": EQUITY_RESIDUAL[1]})
    for bucket_id, ccy in enumerate(FX_CURRENCIES, start=1):
        buckets.append({"risk_class": "fx", "id": bucket_id, "description": ccy, "currencies": [ccy],
                        "risk_weight": 0.3})
    for bucket_id, commodities, rw, _ in COMMODITY_BUCKETS:
        buckets.append({"risk_class": "commodity", "id": bucket_id, "description": commodities[0],
                        "commodities": list(commodities), "risk_weight": rw})
    buckets.append({"risk_class": "commodity", "id": COMMODITY_RESIDUAL[0], "description": "residual",
                    "residual": True, "risk_weight": COMMODITY_RESIDUAL[1]})

    def residual_pairs(residual_id: int, others: int) -> list[dict]:
        return [{"b": residual_id, "c": c, "value": 0.0} for c in range(1, others + 1)]

    return {
        "schema_version": 1,
        "version": "bcbs-d352-2016-01 delta subset (benchmark)",
        "tenor_grid": list(TENOR_GRID),
        "girr_tenor_params": {"theta": 0.03, "floor": 0.4},
        "scenario_rules": {"high": {"scale": 1.25, "cap": 1.0},
                           "low": {"scale": 0.75, "affine_scale": 2.0, "affine_shift": -1.0}},
        "buckets": buckets,
        "intra_correlations": {
            "equity": {**{str(b[0]): b[5] for b in EQUITY_BUCKETS}, str(EQUITY_RESIDUAL[0]): EQUITY_RESIDUAL[2]},
            "commodity": {**{str(b[0]): b[3] for b in COMMODITY_BUCKETS},
                          str(COMMODITY_RESIDUAL[0]): COMMODITY_RESIDUAL[2]},
        },
        "cross_correlations": {
            "girr": {"default": 0.5},
            "equity": {"default": EQUITY_CROSS_DEFAULT, "pairs": residual_pairs(EQUITY_RESIDUAL[0], len(EQUITY_BUCKETS))},
            "fx": {"default": 0.6},
            "commodity": {"default": 0.2, "pairs": residual_pairs(COMMODITY_RESIDUAL[0], len(COMMODITY_BUCKETS))},
        },
    }


def _tenor_key(t: float) -> str:
    return repr(int(t)) if float(t).is_integer() else repr(float(t))


def _issuer(issuer_id: str, bucket_id: int, rng: random.Random) -> dict:
    _, economy, size, sectors, _, _ = EQUITY_BUCKETS[bucket_id - 1]
    sector = rng.choice(sectors if sectors is not None else _CONSUMER + _TELECOM + _MATERIALS + _FINANCIALS)
    return {"issuer_id": issuer_id, "sector": sector, "economy": economy, "size": size}


def _universe(w: Workload, rng: random.Random) -> tuple[list[dict], list[str]]:
    """(registry rows, unregistered issuer ids) for a workload."""
    if w.names:
        n_residual = round(w.names * w.residual_share)
        n_main = round(w.names * w.main_bucket_share)
        n_other = w.names - n_main - n_residual
        others = [b[0] for b in EQUITY_BUCKETS if b[0] != MAIN_EQUITY_BUCKET]
        bucket_ids = [MAIN_EQUITY_BUCKET] * n_main + [others[i % len(others)] for i in range(n_other)]
        registry = [_issuer(f"EQ{i:04d}", b, rng) for i, b in enumerate(bucket_ids)]
        unregistered = [f"UNREG{i:03d}" for i in range(n_residual)]
        return registry, unregistered
    # Small universes: at least one issuer per non-residual bucket, so harness cases reach every bucket.
    registry = [_issuer(f"EQ{i:04d}", EQUITY_BUCKETS[i % len(EQUITY_BUCKETS)][0], rng)
                for i in range(SMALL_UNIVERSE)]
    return registry, []


def market(rng: random.Random, equity_ids: list[str]) -> dict:
    """Market snapshot: seeded USD curve, spot quotes for every equity id, FX and commodities."""
    level = rng.uniform(0.025, 0.045)
    slope = rng.uniform(0.0, 0.015)
    curve = [[t, round(level + slope * (t / 30.0) ** 0.5, 6)] for t in TENOR_GRID]
    return {
        "schema_version": 1,
        "as_of": "2024-06-28",
        "reporting_currency": "USD",
        "equity_prices": {i: round(rng.uniform(5.0, 500.0), 2) for i in equity_ids},
        "fx_spots": {c: round(s * rng.uniform(0.95, 1.05), 6) for c, s in FX_SPOTS.items()},
        "commodity_prices": {c: round(p * rng.uniform(0.9, 1.1), 4) for c, p in COMMODITY_PRICES.items()},
        "zero_curve": curve,
    }


def equity_book(w: Workload, rng: random.Random, names: list[str]) -> list[dict]:
    """Long and short share positions; every name is held at least once, so books net onto all names."""
    positions = []
    for i in range(w.positions):
        name = names[i] if i < len(names) else rng.choice(names)
        sign = 1 if rng.random() < 0.6 else -1
        positions.append({"type": "equity", "issuer_id": name, "shares": float(sign * 100 * rng.randint(1, 500))})
    return positions


def bond_book(w: Workload, rng: random.Random) -> list[dict]:
    """Off-grid fixed-coupon USD bonds; a stated share matures beyond the last pillar.

    Maturities are stratified (one bond per equal slice of the range) and the
    frequencies cycle 1, 2, 4, so every seed gives books with the same number
    of cash flows to within a few; only the seeded jitter inside each slice,
    the notionals and the coupons differ.
    """
    n_beyond = round(w.positions * w.beyond_pillar_share)
    positions = []
    for i in range(w.positions):
        lo, hi, n, j = (30.5, 40.0, n_beyond, i) if i < n_beyond else (0.3, 30.0, w.positions - n_beyond, i - n_beyond)
        maturity = round(lo + (j + rng.random()) * (hi - lo) / n, 3)
        while maturity in TENOR_GRID:
            maturity = round(maturity + 0.001, 3)
        sign = 1 if rng.random() < 0.75 else -1
        positions.append({
            "type": "bond",
            "id": f"B{i:04d}",
            "notional": float(sign * 1000 * rng.randint(10, 1000)),
            "coupon_rate": round(rng.uniform(0.0, 0.08), 4),
            "maturity": maturity,
            "frequency": (1, 2, 4)[i % 3],
            "currency": "USD",
        })
    rng.shuffle(positions)
    return positions


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated files."""

    rulebook: Path
    market: Path
    registry: Path
    books: tuple[Path, ...]


def write_inputs(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Write one workload's files for ``seed`` into ``out_dir``.

    ``scale`` shrinks books, positions and names for fast self-tests; the
    benchmark always runs at scale 1.
    """
    w = WORKLOADS[workload]
    if scale != 1.0:
        w = replace(w, books=min(w.books, 4), names=max(10, round(w.names * scale)) if w.names else 0,
                    positions=max(20, round(w.positions * scale)))
    rng = random.Random(f"{workload}/{seed}")
    registry, unregistered = _universe(w, rng)
    equity_ids = [r["issuer_id"] for r in registry] + unregistered
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = Inputs(
        rulebook=out_dir / "rulebook.json",
        market=out_dir / "market.json",
        registry=out_dir / "issuers.json",
        books=tuple(out_dir / f"book{k:02d}.json" for k in range(w.books)),
    )
    _write(paths.rulebook, d352_rulebook())
    _write(paths.market, market(rng, equity_ids))
    _write(paths.registry, {"schema_version": 1, "issuers": registry})
    for k, path in enumerate(paths.books):
        book_rng = random.Random(f"{workload}/{seed}/book{k}")
        if w.kind == "equity":
            positions = equity_book(w, book_rng, equity_ids)
        else:
            positions = bond_book(w, book_rng)
        _write(path, {"schema_version": 1, "as_of": "2024-06-28", "positions": positions})
    return paths


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
