"""Rulebook loading, parameter queries, scenarios, and validation."""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmcap.rulebook import (
    CorrelationScenario,
    GirrTenorParams,
    RiskClass,
    RulebookParseError,
    RulebookQueryError,
    RulebookValidationError,
    ScenarioRules,
    apply_scenario,
    girr_tenor_correlation,
    load_rulebook,
    rulebook_from_dict,
)

LOW = CorrelationScenario.LOW
MEDIUM = CorrelationScenario.MEDIUM
HIGH = CorrelationScenario.HIGH

TENOR_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0, 20.0, 30.0)


class TestReferenceRulebook:
    def test_loads_with_expected_bucket_counts(self, rb):
        counts = {rc: len(rb.buckets_for(rc)) for rc in RiskClass}
        assert counts[RiskClass.GIRR] == 1
        assert counts[RiskClass.EQUITY] == 11
        assert counts[RiskClass.FX] == 4
        assert counts[RiskClass.COMMODITY] == 11

    @pytest.mark.parametrize(
        ("risk_class", "bucket_id", "expected"),
        [
            (RiskClass.EQUITY, 7, 0.40),
            (RiskClass.EQUITY, 6, 0.35),
            (RiskClass.EQUITY, 11, 0.70),
            (RiskClass.FX, 1, 0.30),
            (RiskClass.COMMODITY, 7, 0.20),
            (RiskClass.COMMODITY, 2, 0.35),
        ],
    )
    def test_scalar_risk_weights(self, rb, risk_class, bucket_id, expected):
        assert rb.risk_weight(risk_class, bucket_id) == expected

    @pytest.mark.parametrize(
        ("tenor", "expected"),
        [(0.25, 0.024), (0.5, 0.024), (1.0, 0.0225), (2.0, 0.0188), (3.0, 0.0173), (5.0, 0.015), (30.0, 0.015)],
    )
    def test_girr_risk_weights_by_tenor(self, rb, tenor, expected):
        assert rb.risk_weight(RiskClass.GIRR, 1, tenor) == expected

    def test_girr_weight_requires_tenor(self, rb):
        with pytest.raises(RulebookQueryError, match="tenor"):
            rb.risk_weight(RiskClass.GIRR, 1)

    def test_off_grid_tenor_rejected(self, rb):
        with pytest.raises(RulebookQueryError, match="grid"):
            rb.risk_weight(RiskClass.GIRR, 1, 7.0)

    def test_spot_weight_rejects_tenor(self, rb):
        with pytest.raises(RulebookQueryError, match="not tenor specific"):
            rb.risk_weight(RiskClass.EQUITY, 7, 5.0)

    def test_unknown_bucket(self, rb):
        with pytest.raises(RulebookQueryError, match="no equity bucket"):
            rb.risk_weight(RiskClass.EQUITY, 99)

    def test_round_trips_through_dict(self, rb):
        assert rulebook_from_dict(rb.to_dict()) == rb


class TestCorrelationQueries:
    def test_equity_cross_bucket(self, rb):
        assert rb.cross_correlation(RiskClass.EQUITY, 6, 7, MEDIUM) == 0.15

    def test_cross_is_symmetric_in_arguments(self, rb):
        for rc, b, c in [(RiskClass.EQUITY, 6, 7), (RiskClass.COMMODITY, 2, 7), (RiskClass.FX, 1, 2)]:
            assert rb.cross_correlation(rc, b, c, MEDIUM) == rb.cross_correlation(rc, c, b, MEDIUM)

    @pytest.mark.parametrize(
        ("risk_class", "expected"),
        [(RiskClass.FX, 0.6), (RiskClass.COMMODITY, 0.2)],
    )
    def test_cross_defaults(self, rb, risk_class, expected):
        buckets = rb.buckets_for(risk_class)
        ids = [b.bucket_id for b in buckets if not b.residual][:2]
        assert rb.cross_correlation(risk_class, ids[0], ids[1], MEDIUM) == expected

    def test_girr_cross_default_with_second_currency(self, rb):
        # The fixture carries one GIRR bucket (the USD curve), so querying the
        # cross-currency gamma of 0.5 needs a second bucket added alongside it.
        data = rb.to_dict()
        usd = next(b for b in data["buckets"] if b["risk_class"] == "girr")
        eur = dict(usd, id=2, description="EUR risk-free yield curve", currencies=["EUR"])
        data["buckets"].append(eur)
        two_ccy = rulebook_from_dict(data)
        assert two_ccy.cross_correlation(RiskClass.GIRR, 1, 2, MEDIUM) == 0.5

    def test_residual_bucket_pairs_are_zero(self, rb):
        for other in range(1, 11):
            assert rb.cross_correlation(RiskClass.EQUITY, 11, other, MEDIUM) == 0.0
            assert rb.cross_correlation(RiskClass.COMMODITY, 11, other, MEDIUM) == 0.0

    def test_cross_same_bucket_rejected(self, rb):
        with pytest.raises(RulebookQueryError, match="distinct"):
            rb.cross_correlation(RiskClass.EQUITY, 7, 7, MEDIUM)

    def test_equity_intra_same_bucket_pair(self, rb):
        assert rb.intra_correlation(RiskClass.EQUITY, 7, ("XOM", None), ("CVX", None), MEDIUM) == 0.25

    def test_intra_self_correlation_is_one(self, rb):
        for scenario in CorrelationScenario:
            assert rb.intra_correlation(RiskClass.EQUITY, 7, ("XOM", None), ("XOM", None), scenario) == 1.0

    def test_commodity_intra(self, rb):
        assert rb.intra_correlation(RiskClass.COMMODITY, 2, ("crude_oil", None), ("brent", None), MEDIUM) == 0.95

    def test_intra_missing_bucket(self, rb):
        with pytest.raises(RulebookQueryError):
            rb.intra_correlation(RiskClass.EQUITY, 99, ("A", None), ("B", None), MEDIUM)

    def test_girr_intra_uses_tenor_formula(self, rb):
        got = rb.intra_correlation(RiskClass.GIRR, 1, ("USD", 1.0), ("USD", 5.0), MEDIUM)
        assert got == pytest.approx(math.exp(-0.03 * 4.0 / 1.0), rel=1e-15)

    def test_girr_intra_requires_tenors(self, rb):
        with pytest.raises(RulebookQueryError, match="tenor"):
            rb.intra_correlation(RiskClass.GIRR, 1, ("USD", None), ("USD", 5.0), MEDIUM)


class TestGirrTenorCorrelation:
    def test_equal_tenors_give_one(self):
        assert girr_tenor_correlation(5.0, 5.0) == 1.0

    def test_one_and_five_years(self):
        # exp(-0.03 * |1 - 5| / 1) = exp(-0.12)
        assert girr_tenor_correlation(1.0, 5.0) == pytest.approx(0.8869204367171575, rel=1e-15)

    def test_floor_binds_for_distant_tenors(self):
        # exp(-0.03 * 29.75 / 0.25) is about 0.028, floored at 0.40
        assert girr_tenor_correlation(0.25, 30.0) == 0.40

    @pytest.mark.parametrize(("t_k", "t_l"), [(0.25, 30.0), (1.0, 5.0), (2.0, 3.0), (10.0, 15.0)])
    def test_symmetry(self, t_k, t_l):
        assert girr_tenor_correlation(t_k, t_l) == girr_tenor_correlation(t_l, t_k)

    def test_decreases_with_gap(self):
        rhos = [girr_tenor_correlation(1.0, t) for t in (1.0, 2.0, 3.0, 5.0, 10.0)]
        assert all(a >= b for a, b in zip(rhos, rhos[1:]))
        assert rhos[0] == 1.0

    def test_rejects_nonpositive_tenor(self):
        with pytest.raises(RulebookQueryError):
            girr_tenor_correlation(0.0, 5.0)

    @settings(max_examples=200, deadline=None)
    @given(
        t_k=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        t_l=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    )
    def test_stays_in_floor_one_band(self, t_k, t_l):
        rho = girr_tenor_correlation(t_k, t_l)
        assert 0.40 <= rho <= 1.0

    # Nearly-coincident tenors round to rho = 1.0 in doubles, so the strict
    # direction of "rho = 1 only for equal tenors" is checked on grid pairs.
    @pytest.mark.parametrize(("t_k", "t_l"), list(itertools.combinations(TENOR_GRID, 2)))
    def test_distinct_grid_tenors_stay_below_one(self, t_k, t_l):
        assert girr_tenor_correlation(t_k, t_l) < 1.0

    def test_custom_params(self):
        params = GirrTenorParams(theta=0.1, floor=0.2)
        assert girr_tenor_correlation(1.0, 2.0, params) == pytest.approx(math.exp(-0.1), rel=1e-15)


class TestScenarios:
    @pytest.mark.parametrize("base", [-1.0, -0.25, 0.0, 0.15, 0.4, 0.75, 1.0])
    def test_medium_is_identity(self, base):
        assert apply_scenario(base, MEDIUM) == base

    def test_high_scales_up(self):
        assert apply_scenario(0.15, HIGH) == pytest.approx(0.1875, abs=1e-15)

    def test_high_caps_at_one(self):
        assert apply_scenario(0.9, HIGH) == 1.0
        assert apply_scenario(1.0, HIGH) == 1.0

    def test_low_takes_max_of_branches(self):
        # 0.15: max(2 * 0.15 - 1, 0.75 * 0.15) = max(-0.7, 0.1125)
        assert apply_scenario(0.15, LOW) == pytest.approx(0.1125, abs=1e-15)
        # 0.9: max(0.8, 0.675)
        assert apply_scenario(0.9, LOW) == pytest.approx(0.8, abs=1e-15)

    def test_scenario_applies_to_lookups(self, rb):
        assert rb.cross_correlation(RiskClass.EQUITY, 6, 7, HIGH) == pytest.approx(0.1875, abs=1e-15)
        assert rb.cross_correlation(RiskClass.EQUITY, 6, 7, LOW) == pytest.approx(0.1125, abs=1e-15)
        assert rb.intra_correlation(RiskClass.EQUITY, 7, ("A", None), ("B", None), LOW) == pytest.approx(
            0.1875, abs=1e-15
        )

    @settings(max_examples=200, deadline=None)
    @given(base=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_adjusted_value_stays_in_range(self, base):
        # Prescribed table correlations are all nonnegative; on that domain
        # every scenario keeps the value inside [0, 1].
        for scenario in CorrelationScenario:
            assert 0.0 <= apply_scenario(base, scenario) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(base=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_scenario_ordering_for_nonnegative_base(self, base):
        assert apply_scenario(base, LOW) <= apply_scenario(base, MEDIUM) <= apply_scenario(base, HIGH)

    def test_custom_rules(self):
        rules = ScenarioRules(high_scale=1.5, high_cap=0.95)
        assert apply_scenario(0.5, HIGH, rules) == pytest.approx(0.75, abs=1e-15)
        assert apply_scenario(0.7, HIGH, rules) == 0.95


class TestValidation:
    @staticmethod
    def _base() -> dict:
        return {
            "schema_version": 1,
            "version": "test",
            "tenor_grid": [1.0, 5.0],
            "buckets": [
                {
                    "risk_class": "girr",
                    "id": 1,
                    "description": "USD",
                    "currencies": ["USD"],
                    "risk_weights_by_tenor": {"1": 0.02, "5": 0.015},
                },
                {"risk_class": "equity", "id": 1, "description": "a", "economy": "advanced", "size": "large",
                 "sectors": ["energy"], "risk_weight": 0.4},
                {"risk_class": "equity", "id": 2, "description": "b", "economy": "advanced", "size": "large",
                 "sectors": ["technology"], "risk_weight": 0.5},
            ],
            "intra_correlations": {"equity": {"1": 0.25, "2": 0.25}},
            "cross_correlations": {"equity": {"default": 0.15}, "girr": {"default": 0.5}},
        }

    def test_base_document_is_valid(self):
        rulebook_from_dict(self._base())

    def test_asymmetric_cross_pair_rejected(self):
        data = self._base()
        data["cross_correlations"]["equity"]["pairs"] = [
            {"b": 1, "c": 2, "value": 0.15},
            {"b": 2, "c": 1, "value": 0.2},
        ]
        with pytest.raises(RulebookValidationError, match="asymmetric"):
            rulebook_from_dict(data)

    def test_symmetric_duplicate_pair_accepted(self):
        data = self._base()
        data["cross_correlations"]["equity"]["pairs"] = [
            {"b": 1, "c": 2, "value": 0.2},
            {"b": 2, "c": 1, "value": 0.2},
        ]
        rb = rulebook_from_dict(data)
        assert rb.cross_correlation(RiskClass.EQUITY, 1, 2) == 0.2

    def test_non_finite_parameters_rejected_naming_each_field(self):
        data = self._base()
        data["scenario_rules"] = {"high": {"scale": math.nan}, "low": {"affine_shift": -math.inf}}
        data["girr_tenor_params"] = {"theta": math.inf}
        data["tenor_grid"] = [1.0, math.nan]
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations[:4] == [
            "tenor_grid[1] must be a finite number, got nan",
            "girr_tenor_params.theta must be a finite number, got inf",
            "scenario_rules.high.scale must be a finite number, got nan",
            "scenario_rules.low.affine_shift must be a finite number, got -inf",
        ]

    @pytest.mark.parametrize(
        "section, key", [("high", "scale"), ("high", "cap"), ("low", "scale"), ("low", "affine_scale"), ("low", "affine_shift")]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_each_non_finite_scenario_rule_rejected(self, section, key, bad):
        data = self._base()
        data["scenario_rules"] = {section: {key: bad}}
        with pytest.raises(RulebookValidationError, match=rf"scenario_rules\.{section}\.{key} must be a finite number"):
            rulebook_from_dict(data)

    def test_percent_style_weight_rejected(self):
        data = self._base()
        data["buckets"][1]["risk_weight"] = 40.0
        with pytest.raises(RulebookValidationError, match="fractions, not percent"):
            rulebook_from_dict(data)

    def test_correlation_above_one_rejected(self):
        data = self._base()
        data["intra_correlations"]["equity"]["1"] = 1.3
        with pytest.raises(RulebookValidationError, match=r"outside \[-1, 1\]"):
            rulebook_from_dict(data)

    def test_second_residual_bucket_in_a_class_rejected_naming_both(self):
        data = self._base()
        data["buckets"][1]["residual"] = True
        assert rulebook_from_dict(data).residual_bucket(RiskClass.EQUITY).bucket_id == 1
        data["buckets"][2]["residual"] = True
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == ["equity buckets 1, 2: more than one residual bucket in the class"]

    def test_duplicate_bucket_id_rejected(self):
        data = self._base()
        data["buckets"].append(dict(data["buckets"][1]))
        with pytest.raises(RulebookValidationError, match="duplicate bucket id"):
            rulebook_from_dict(data)

    def test_girr_bucket_must_cover_grid(self):
        data = self._base()
        del data["buckets"][0]["risk_weights_by_tenor"]["5"]
        with pytest.raises(RulebookValidationError, match="missing risk weight for tenor"):
            rulebook_from_dict(data)

    def test_missing_risk_weight_rejected(self):
        data = self._base()
        del data["buckets"][1]["risk_weight"]
        with pytest.raises(RulebookValidationError, match="missing risk_weight"):
            rulebook_from_dict(data)

    def test_unsorted_grid_rejected(self):
        data = self._base()
        data["tenor_grid"] = [5.0, 1.0]
        with pytest.raises(RulebookValidationError, match="strictly increasing"):
            rulebook_from_dict(data)

    def test_correlation_for_unknown_bucket_rejected(self):
        data = self._base()
        data["intra_correlations"]["equity"]["9"] = 0.25
        with pytest.raises(RulebookValidationError, match="unknown equity bucket 9"):
            rulebook_from_dict(data)

    def test_all_violations_reported_together(self):
        data = self._base()
        data["buckets"][1]["risk_weight"] = 40.0
        data["tenor_grid"] = [5.0, 1.0]
        data["intra_correlations"]["equity"]["1"] = 1.3
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert len(excinfo.value.violations) >= 3

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"version": "x",\n  "tenor_grid": [1.0,]\n}', encoding="utf-8")
        with pytest.raises(RulebookParseError, match="line 2"):
            load_rulebook(bad)

    def test_file_round_trip(self, rb, tmp_path):
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(rb.to_dict()), encoding="utf-8")
        assert load_rulebook(path) == rb

    def test_bucket_without_intra_rho_rejected(self):
        data = self._base()
        del data["intra_correlations"]["equity"]["2"]
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == ["equity bucket 2: no intra-bucket correlation tabulated"]

    @pytest.mark.parametrize("currencies, needs_rho", [(["EUR"], False), (["EUR", "DKK"], True)])
    def test_fx_bucket_needs_a_rho_only_when_it_lists_two_currencies(self, currencies, needs_rho):
        data = self._base()
        data["buckets"].append({"risk_class": "fx", "id": 1, "description": "fx", "currencies": currencies,
                                "risk_weight": 0.3})
        if not needs_rho:
            rulebook_from_dict(data)
            return
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == ["fx bucket 1: no intra-bucket correlation tabulated"]
        data["intra_correlations"]["fx"] = {"1": 0.5}
        rulebook_from_dict(data)

    def test_bucket_pair_without_gamma_rejected(self):
        data = self._base()
        data["buckets"].append({"risk_class": "equity", "id": 3, "description": "c", "economy": "emerging",
                                "size": "large", "sectors": ["energy"], "risk_weight": 0.45})
        data["intra_correlations"]["equity"]["3"] = 0.15
        data["cross_correlations"]["equity"] = {"pairs": [{"b": 2, "c": 1, "value": 0.15}]}
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [
            "equity buckets (1, 3): no cross-bucket correlation, and no class default",
            "equity buckets (2, 3): no cross-bucket correlation, and no class default",
        ]
        data["cross_correlations"]["equity"]["default"] = 0.15
        rulebook_from_dict(data)

    def test_one_bucket_class_needs_no_gamma(self):
        data = self._base()
        del data["cross_correlations"]["girr"]
        rulebook_from_dict(data)
