"""Acceptance suite.

Eight criteria, each as one test that prints a single summary line of the
form "[acceptance] criterion N: PASS (...)" (run pytest with -s to see the
lines as they happen; they also appear in captured output). Every expected
number is either computed inline from the stated formula, taken verbatim
from the published rulebook tables, or cross-checked against an independent
dense-matrix oracle; none is an unexplained constant.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import bond_value, bucket_risk_position, parallel_bumped, risk_class_delta
from sbmcap.aggregation import FactorRow, cross_bucket_delta, weight_sensitivity
from sbmcap.engine import compute_capital
from sbmcap.harness import (
    ExtractionAnswer,
    generate_cases,
    reference_candidate,
    score_extraction,
)
from sbmcap.portfolio import (
    Bond,
    CashEquity,
    FXPosition,
    IssuerInfo,
    MarketData,
    Portfolio,
    assign_bucket,
    value,
)
from sbmcap.rulebook import CorrelationScenario, RiskClass, rulebook_from_dict
from sbmcap.sensitivities import (
    GIRR_BUMP,
    RiskFactorKey,
    SensitivityRecord,
    collect_sensitivities,
    net_records,
)

MEDIUM = CorrelationScenario.MEDIUM


@contextmanager
def criterion(n: int):
    """Print exactly one pass/fail line for criterion n."""
    record = {"detail": ""}
    try:
        yield record
    except BaseException:
        print(f"\n[acceptance] criterion {n}: FAIL")
        raise
    print(f"\n[acceptance] criterion {n}: PASS ({record['detail']})")


def test_criterion_1_equity_case_study(rb, equity_portfolio, market, registry):
    """Two-stock case study: sensitivities, WS, K_b, and the Medium charge.

    The expected charge is evaluated inline from the cross-bucket formula
    sqrt(K_7^2 + K_6^2 + 2 * gamma_67 * S_7 * S_6); a widely circulated
    figure of about 461,262.67 for this same setup is not consistent with
    that formula (see README) and is deliberately not used here.
    """
    with criterion(1) as c:
        records = net_records(collect_sensitivities(equity_portfolio, market, registry, rb)[0])
        by_name = {r.key.name: r for r in records}
        assert by_name["XOM"].value == pytest.approx(1_100_000.0, rel=1e-12)
        assert round(by_name["XOM"].value, 2) == 1_100_000.00
        assert by_name["T"].value == pytest.approx(170_000.0, rel=1e-12)
        assert round(by_name["T"].value, 2) == 170_000.00

        ws = {name: weight_sensitivity(rec, rb).weighted_sensitivity for name, rec in by_name.items()}
        assert ws["XOM"] == pytest.approx(440_000.0, rel=1e-12)
        assert ws["T"] == pytest.approx(59_500.0, rel=1e-12)

        start = time.perf_counter()
        report = compute_capital(equity_portfolio, market, registry, rb, scenario=MEDIUM)
        elapsed = time.perf_counter() - start

        equity = report.scenarios["medium"].classes["equity"]
        k_by_bucket = {b.bucket: b.k_b for b in equity.buckets}
        assert k_by_bucket[7] == pytest.approx(440_000.0, rel=1e-12)
        assert k_by_bucket[6] == pytest.approx(59_500.0, rel=1e-12)

        oracle = math.sqrt(440_000.0**2 + 59_500.0**2 + 2 * 0.15 * 440_000.0 * 59_500.0)
        assert report.total_capital == pytest.approx(oracle, rel=1e-9)
        assert elapsed < 1.0
        c["detail"] = f"charge {report.total_capital:,.2f} vs formula {oracle:,.2f}, {elapsed * 1000:.0f} ms"


def test_criterion_2_rulebook_facts(rb):
    with criterion(2) as c:
        rw7 = rb.risk_weight(RiskClass.EQUITY, 7)
        rw6 = rb.risk_weight(RiskClass.EQUITY, 6)
        gamma = rb.cross_correlation(RiskClass.EQUITY, 6, 7, MEDIUM)
        assert rw7 == 0.40
        assert rw6 == 0.35
        assert gamma == 0.15
        c["detail"] = f"RW(7)={rw7}, RW(6)={rw6}, gamma(6,7)={gamma}"


def test_criterion_3_quadratic_form_oracle():
    """K_b against a dense-matrix oracle on 500 seeded random buckets.

    The pure-Python side is the ordered-pair double sum of
    ``oracles.bucket_risk_position``, which the GIRR aggregation matches bit
    for bit (test_aggregation.py); the dense oracle is a numpy evaluation of
    sqrt(max(0, w' P w)). Agreement must hold to 1e-12 relative on every
    instance.
    """
    with criterion(3) as c:
        rng = random.Random(20240612)
        worst = 0.0
        min_quad = math.inf
        floored = 0
        start = time.perf_counter()
        for _ in range(500):
            n = rng.randint(1, 6)
            ws_values = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
            corr = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    corr[i, j] = corr[j, i] = rng.uniform(-0.3, 0.99)

            ws_list = [
                FactorRow(name=f"F{i}", tenor=None, sensitivity=v, risk_weight=1.0, weighted_sensitivity=v)
                for i, v in enumerate(ws_values)
            ]
            index = {f"F{i}": i for i in range(n)}

            def rho(k, l, sc, corr=corr, index=index):
                return float(corr[index[k.name], index[l.name]])

            engine_k = bucket_risk_position(RiskClass.EQUITY, 1, ws_list, rho, MEDIUM).k_b
            w = np.asarray(ws_values)
            quad = float(w @ corr @ w)
            oracle_k = math.sqrt(max(0.0, quad))

            # The form stays far from zero on this seed (min |quad| > 200),
            # so both routes agree on its sign and the floored case is exact.
            min_quad = min(min_quad, abs(quad))
            if oracle_k == 0.0:
                floored += 1
                assert engine_k == 0.0
                continue
            rel = abs(engine_k - oracle_k) / oracle_k
            worst = max(worst, rel)
            assert rel <= 1e-12
        elapsed = time.perf_counter() - start
        assert min_quad > 1.0
        assert elapsed < 5.0
        c["detail"] = (
            f"500 instances ({floored} floored to zero), worst rel {worst:.2e}, "
            f"min |quad| {min_quad:.1f}, {elapsed:.2f} s"
        )


def test_criterion_4_homogeneity_and_collapse(rb):
    """Scaling, gamma=0 collapse, and single-bucket collapse on 100 instances."""
    with criterion(4) as c:
        rng = random.Random(4040)
        singles = 0
        for _ in range(100):
            buckets = rng.sample([5, 6, 7, 8], rng.randint(1, 4))
            records = [
                SensitivityRecord(
                    key=RiskFactorKey(RiskClass.EQUITY, b, f"N{b}-{j}"),
                    value=rng.uniform(-1_000_000.0, 1_000_000.0),
                )
                for b in buckets
                for j in range(rng.randint(1, 4))
            ]
            base = risk_class_delta(records, rb, MEDIUM)

            for lam in (0.5, 2.0, 10.0):
                scaled = risk_class_delta(
                    [r._replace(value=r.value * lam) for r in records], rb, MEDIUM
                )
                assert scaled.charge == pytest.approx(lam * base.charge, rel=1e-12)
                for b_base, b_scaled in zip(base.buckets, scaled.buckets):
                    assert b_scaled.k_b == pytest.approx(lam * b_base.k_b, rel=1e-12)

            rss = math.sqrt(math.fsum(b.k_b**2 for b in base.buckets))
            ids = [b.bucket for b in base.buckets]
            no_gamma = {(b, c_): 0.0 for b in ids for c_ in ids if b != c_}
            zero_gamma = cross_bucket_delta(RiskClass.EQUITY, list(base.buckets), no_gamma, MEDIUM).charge
            assert zero_gamma == pytest.approx(rss, rel=1e-12)

            if len(buckets) == 1:
                singles += 1
                assert base.charge == pytest.approx(base.buckets[0].k_b, rel=1e-12)
        assert singles > 0
        c["detail"] = f"100 instances, lambda in (0.5, 2, 10), {singles} single-bucket collapses"


def test_criterion_5_linear_bump_identity(rb, reference_portfolio, market, registry):
    """Bump-and-revalue deltas against their closed forms, per fixture position.

    Spot classes are linear, so the 1% bump divided by 0.01 must return the
    position's market value. For bonds, the tenor tent bumps partition a
    parallel shift, so the tenor deltas must sum to the parallel-bump delta.
    """
    with criterion(5) as c:
        spots = bonds = 0
        for instr in reference_portfolio.positions:
            if isinstance(instr, Bond):
                bucket = rb.currency_bucket(RiskClass.GIRR, instr.currency).bucket_id
                girr, _ = collect_sensitivities(Portfolio(positions=(instr,)), market, registry, rb)
                assert {r.key.bucket for r in girr} == {bucket}
                tenor_sum = math.fsum(r.value for r in girr)
                bumped = market._replace(zero_curve=parallel_bumped(market.zero_curve, GIRR_BUMP))
                parallel = (bond_value(instr, bumped) - bond_value(instr, market)) / GIRR_BUMP
                assert tenor_sum == pytest.approx(parallel, rel=1e-6)
                bonds += 1
                continue
            if isinstance(instr, FXPosition):
                bucket = rb.currency_bucket(RiskClass.FX, instr.foreign_currency).bucket_id
            else:
                bucket, _ = assign_bucket(instr, registry, rb)
            [rec], _ = collect_sensitivities(Portfolio(positions=(instr,)), market, registry, rb)
            assert rec.key.bucket == bucket
            assert rec.value == pytest.approx(value(instr, market), rel=1e-9)
            spots += 1
        assert spots == 6 and bonds == 2
        c["detail"] = f"{spots} spot positions at rel 1e-9, {bonds} bonds at rel 1e-6"


def test_criterion_6_fallback_path():
    """Find a negative under-root instance by search, then run it end to end.

    The search sweeps two-factor-per-bucket sign patterns against a gamma
    grid at the aggregation layer; the first hit is replayed through the
    full engine on a synthetic two-bucket rulebook so the report-level
    fallback flag is exercised, not just the formula.
    """
    with criterion(6) as c:
        def row(name: str, ws: float) -> FactorRow:
            return FactorRow(name=name, tenor=None, sensitivity=ws, risk_weight=1.0, weighted_sensitivity=ws)

        def rho_zero(k, l, sc):
            return 0.0

        hit = None
        for gamma in (0.2, 0.4, 0.6, 0.8, 0.9):
            for signs in itertools.product((-1.0, 1.0), repeat=4):
                ws_a = [row("A1", signs[0] * 100.0), row("A2", signs[1] * 100.0)]
                ws_b = [row("B1", signs[2] * 100.0), row("B2", signs[3] * 100.0)]
                res_a = bucket_risk_position(RiskClass.EQUITY, 1, ws_a, rho_zero, MEDIUM)
                res_b = bucket_risk_position(RiskClass.EQUITY, 2, ws_b, rho_zero, MEDIUM)
                quad = res_a.k_b**2 + res_b.k_b**2 + 2 * gamma * res_a.s_b_net * res_b.s_b_net
                if quad < 0.0 and hit is None:
                    hit = (gamma, signs, res_a, res_b)
        assert hit is not None, "search found no negative under-root instance"
        gamma, signs, res_a, res_b = hit
        assert res_a.s_b_net * res_b.s_b_net < 0

        pair = {(res_a.bucket, res_b.bucket): gamma, (res_b.bucket, res_a.bucket): gamma}
        charge = cross_bucket_delta(RiskClass.EQUITY, [res_a, res_b], pair, MEDIUM).charge
        assert math.isfinite(charge) and charge >= 0.0

        rb_lab = rulebook_from_dict(
            {
                "schema_version": 1,
                "version": "fallback-search",
                "tenor_grid": [1.0],
                "buckets": [
                    {"risk_class": "equity", "id": 1, "description": "A", "economy": "advanced",
                     "size": "large", "sectors": ["energy"], "risk_weight": 1.0},
                    {"risk_class": "equity", "id": 2, "description": "B", "economy": "advanced",
                     "size": "large", "sectors": ["technology"], "risk_weight": 1.0},
                ],
                "intra_correlations": {"equity": {"1": 0.0, "2": 0.0}},
                "cross_correlations": {"equity": {"default": gamma}},
            }
        )
        registry = {
            "A1": IssuerInfo("A1", "energy", "advanced", "large"),
            "A2": IssuerInfo("A2", "energy", "advanced", "large"),
            "B1": IssuerInfo("B1", "technology", "advanced", "large"),
            "B2": IssuerInfo("B2", "technology", "advanced", "large"),
        }
        md = MarketData(reporting_currency="USD", equity_prices={k: 1.0 for k in registry})
        p = Portfolio(positions=tuple(
            CashEquity(name, signs[i] * 100.0) for i, name in enumerate(("A1", "A2", "B1", "B2"))
        ))
        report = compute_capital(p, md, registry, rb_lab, scenario=MEDIUM)
        equity = report.scenarios["medium"].classes["equity"]
        assert equity.fallback_engaged
        assert any("clamped" in w for w in report.warnings)
        assert math.isfinite(report.total_capital) and report.total_capital >= 0.0
        for b in equity.buckets:
            assert abs(b.s_b_effective) <= b.k_b * (1 + 1e-15)
        assert report.total_capital == pytest.approx(charge, rel=1e-12)
        c["detail"] = f"gamma={gamma}, signs={signs}, clamped charge {report.total_capital:.6f}"


def test_criterion_7_scoring_harness(rb, market, registry):
    with criterion(7) as c:
        case_set = generate_cases(seed=4007, n=40, rb=rb, md=market, registry=registry)

        perfect = score_extraction(reference_candidate(case_set), case_set)
        assert (
            perfect.bucket_accuracy,
            perfect.risk_weight_accuracy,
            perfect.correlation_accuracy,
            perfect.mcr_accuracy,
        ) == (100.0, 100.0, 100.0, 100.0)

        # Exactly 34 of 40 correct buckets must score 85, not approximately 85.
        corrupted = dict(reference_candidate(case_set))
        for case_id in sorted(corrupted)[:6]:
            answer = corrupted[case_id]
            corrupted[case_id] = dataclasses.replace(answer, bucket=answer.bucket + 1)
        assert score_extraction(corrupted, case_set).bucket_accuracy == 85.0

        axes = ("bucket", "risk_weight", "correlation", "mcr_value")
        rng = random.Random(7007)
        reference = reference_candidate(case_set)

        def corrupt(answer: ExtractionAnswer) -> ExtractionAnswer:
            fields = {}
            for axis in axes:
                good = getattr(answer, axis)
                roll = rng.random()
                if roll < 0.4:
                    fields[axis] = good
                elif roll < 0.7:
                    fields[axis] = None
                elif axis == "bucket":
                    fields[axis] = good + rng.randint(1, 3)
                else:
                    fields[axis] = good * 1.5 + 1.0
            return ExtractionAnswer(**fields)

        candidate = {case_id: corrupt(ans) for case_id, ans in reference.items()}
        ids = sorted(candidate)
        for _ in range(200):
            case_id = rng.choice(ids)
            axis = rng.choice(axes)
            before = score_extraction(candidate, case_set)
            fixed = dataclasses.replace(
                candidate[case_id], **{axis: getattr(reference[case_id], axis)}
            )
            improved = {**candidate, case_id: fixed}
            after = score_extraction(improved, case_set)
            for attr in ("bucket_accuracy", "risk_weight_accuracy", "correlation_accuracy", "mcr_accuracy"):
                assert getattr(after, attr) >= getattr(before, attr)
            candidate = improved
        c["detail"] = "perfect 100/100/100/100, 34/40 buckets = 85.0, 200 corrections monotone"


def test_criterion_8_determinism_across_processes(fixtures_dir, tmp_path):
    """Byte-identical compute and gen-cases output across fresh interpreter runs."""
    with criterion(8) as c:
        base = [sys.executable, "-m", "sbmcap.cli"]
        market_args = [
            "--rulebook", str(fixtures_dir / "rulebook.json"),
            "--market", str(fixtures_dir / "market.json"),
            "--registry", str(fixtures_dir / "issuers.json"),
        ]

        def run(args: list[str]) -> bytes:
            proc = subprocess.run(base + args, capture_output=True, check=True)
            return proc.stdout

        compute_args = ["compute", *market_args, "--portfolio", str(fixtures_dir / "portfolio.csv"), "--format", "hierarchical"]
        first = run(compute_args)
        second = run(compute_args)
        assert first == second and first

        gen_args = ["gen-cases", *market_args, "--seed", "20240612", "--n", "8"]
        gen_first = run(gen_args)
        gen_second = run(gen_args)
        assert gen_first == gen_second and gen_first
        assert json.loads(gen_first)["n"] == 8
        c["detail"] = f"compute {len(first)} bytes, gen-cases {len(gen_first)} bytes, both byte-identical"
