"""Independent O(F) capital oracle for equity-only books.

It reads the rulebook, market, registry and book files as plain JSON and
shares no code with the engine. Outside GIRR every distinct-name pair in a
bucket has one tabulated correlation, so after netting per name

    K_b^2 = (1 - rho) * sum WS_k^2 + rho * (sum WS_k)^2

and the linear-bump identity gives WS_k = RW_b * shares_k * price_k. The
cross-bucket form, the d352 para 53 clamp and the worst of three scenarios
follow the rulebook text, not the engine.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SCENARIOS = ("low", "medium", "high")


def scenario_adjust(rho: float, scenario: str, rules: dict) -> float:
    high = rules.get("high", {})
    low = rules.get("low", {})
    if scenario == "high":
        return min(high.get("scale", 1.25) * rho, high.get("cap", 1.0))
    if scenario == "low":
        return max(low.get("affine_scale", 2.0) * rho + low.get("affine_shift", -1.0), low.get("scale", 0.75) * rho)
    return rho


def equity_capital(rulebook: Path, market: Path, registry: Path, book: Path) -> float:
    """Envelope delta capital of an equity-only book."""
    rb = json.loads(rulebook.read_text(encoding="utf-8"))
    prices = json.loads(market.read_text(encoding="utf-8"))["equity_prices"]
    issuers = {row["issuer_id"]: row for row in json.loads(registry.read_text(encoding="utf-8"))["issuers"]}
    positions = json.loads(book.read_text(encoding="utf-8"))["positions"]

    buckets = [b for b in rb["buckets"] if b["risk_class"] == "equity"]
    residual = next(b["id"] for b in buckets if b.get("residual"))

    def bucket_of(issuer_id: str) -> int:
        info = issuers.get(issuer_id)
        if info is not None:
            for b in buckets:
                if b.get("residual") or b.get("economy") != info["economy"] or b.get("size") != info["size"]:
                    continue
                if b.get("sectors") is None or info["sector"] in b["sectors"]:
                    return b["id"]
        return residual

    weight = {b["id"]: b["risk_weight"] for b in buckets}
    value_by_name: dict[str, list[float]] = {}
    for pos in positions:
        if pos["type"] != "equity":
            raise ValueError("the oracle covers equity-only books")
        value_by_name.setdefault(pos["issuer_id"], []).append(pos["shares"] * prices[pos["issuer_id"]])
    ws_by_bucket: dict[int, list[float]] = {}
    for name, values in value_by_name.items():
        b = bucket_of(name)
        ws_by_bucket.setdefault(b, []).append(weight[b] * math.fsum(values))

    intra = {int(k): v for k, v in rb["intra_correlations"]["equity"].items()}
    cross = rb["cross_correlations"]["equity"]
    pairs = {}
    for pair in cross.get("pairs", ()):
        pairs[(pair["b"], pair["c"])] = pairs[(pair["c"], pair["b"])] = pair["value"]
    rules = rb.get("scenario_rules", {})

    totals = []
    for scenario in SCENARIOS:
        k_b, s_b = {}, {}
        for b, ws in ws_by_bucket.items():
            rho = scenario_adjust(intra[b], scenario, rules)
            s_b[b] = math.fsum(ws)
            quad = (1.0 - rho) * math.fsum(w * w for w in ws) + rho * s_b[b] * s_b[b]
            k_b[b] = math.sqrt(max(0.0, quad))

        def cross_form(s: dict[int, float]) -> float:
            terms = [k * k for k in k_b.values()]
            for b in s:
                for c in s:
                    if b != c:
                        gamma = scenario_adjust(pairs.get((b, c), cross["default"]), scenario, rules)
                        terms.append(gamma * s[b] * s[c])
            return math.fsum(terms)

        quad = cross_form(s_b)
        if quad < 0.0:
            quad = cross_form({b: max(min(s, k_b[b]), -k_b[b]) for b, s in s_b.items()})
        totals.append(math.sqrt(max(0.0, quad)))
    return max(totals)
