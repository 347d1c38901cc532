"""Rulebook loading, parameter queries, scenarios, and validation."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cross_correlation_per_pair, fixture_rulebook_data, intra_rho_per_pair
from sbmcap.rulebook import (
    Bucket,
    CorrelationScenario,
    CorrelationTable,
    GirrTenorParams,
    RiskClass,
    Rulebook,
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

    def test_girr_cross_default_with_second_currency(self):
        # The fixture carries one GIRR bucket (the USD curve), so querying the
        # cross-currency gamma of 0.5 needs a second bucket added alongside it.
        data = fixture_rulebook_data()
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

    def test_self_correlation_is_one_whatever_the_scenario_rules(self):
        # Scenario-adjusted, a high cap of 0.9 would make a factor's correlation with itself 0.9.
        data = fixture_rulebook_data()
        data["scenario_rules"]["high"]["cap"] = 0.9
        capped = rulebook_from_dict(data)
        for scenario in CorrelationScenario:
            assert capped.intra_correlation(RiskClass.EQUITY, 7, ("XOM", None), ("XOM", None), scenario) == 1.0
            assert capped.intra_correlation(RiskClass.GIRR, 1, ("USD", 5.0), ("USD", 5.0), scenario) == 1.0
        assert capped.intra_correlation(RiskClass.EQUITY, 7, ("XOM", None), ("CVX", None), HIGH) == 0.25 * 1.25

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


def outcome(fn, *args):
    """A correlation query's floats as hex strings (bit for bit), or its RulebookQueryError message."""
    try:
        got = fn(*args)
    except RulebookQueryError as exc:
        return "error", str(exc)
    if isinstance(got, dict):
        return "value", {key: float.hex(value) for key, value in got.items()}
    return "value", float.hex(got)


def cross_correlations_per_pair(rb: Rulebook, risk_class: RiskClass, ids: list[int], scenario) -> dict:
    """The gamma of each pair (b, c) of ``ids``, b listed first, under both orders, looked up pair by pair."""
    gamma = {}
    for i, b in enumerate(ids):
        for c in ids[i + 1 :]:
            gamma[b, c] = gamma[c, b] = cross_correlation_per_pair(rb, risk_class, b, c, scenario)
    return gamma


def assert_tables_match_the_per_pair_path(rb: Rulebook, risk_class: RiskClass, ids: list[int]) -> None:
    """Every correlation query on ``ids`` (plus an unknown id) against the per-pair oracle, in every scenario."""
    queried = [*ids, 99]
    for sc in CorrelationScenario:
        for b, c in itertools.product(queried, queried):
            assert outcome(rb.cross_correlation, risk_class, b, c, sc) == outcome(
                cross_correlation_per_pair, rb, risk_class, b, c, sc
            )
        for order in (ids, ids[::-1]):
            assert outcome(rb.cross_correlations, risk_class, order, sc) == outcome(
                cross_correlations_per_pair, rb, risk_class, order, sc
            )
        # Each id is checked before any pair is read.
        unknown = ("error", f"no {risk_class.value} bucket with id 99")
        assert outcome(rb.cross_correlations, risk_class, queried, sc) == unknown
        for bucket in queried if risk_class is not RiskClass.GIRR else ():  # GIRR rhos come from the tenor formula
            expected = outcome(intra_rho_per_pair, rb, risk_class, bucket, sc)
            assert outcome(rb.intra_correlation, risk_class, bucket, ("A", None), ("B", None), sc) == expected
            got = outcome(rb.intra_correlations, risk_class, [bucket], sc)
            assert got == (expected if expected[0] == "error" else ("value", {bucket: expected[1]}))


CORRELATIONS = st.floats(min_value=-1.0, max_value=1.0) | st.sampled_from((0.0, -0.0, 1.0, 0.15))
SCENARIO_RULES = st.just(ScenarioRules()) | st.builds(
    ScenarioRules,
    high_scale=st.floats(min_value=0.5, max_value=2.0),
    high_cap=st.floats(min_value=0.5, max_value=1.0),
    low_scale=st.floats(min_value=0.1, max_value=1.0),
    low_affine_scale=st.floats(min_value=0.5, max_value=3.0),
    low_affine_shift=st.floats(min_value=-2.0, max_value=0.0),
)


class TestResolvedTables:
    """The scenario-adjusted tables built with a rulebook give what the per-pair lookups gave, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_api_built_rulebooks(self, data):
        # Unvalidated rulebooks: pairs under either order or both (with different values), missing rhos and
        # gammas, with or without a class default, and rulebooks rebuilt from another with _replace.
        risk_class = data.draw(st.sampled_from([RiskClass.EQUITY, RiskClass.FX, RiskClass.COMMODITY]), label="class")
        ids = data.draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6, unique=True), label="ids")
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
        pairs = data.draw(st.dictionaries(pair, CORRELATIONS, max_size=8), label="pairs") if len(ids) > 1 else {}
        intra = data.draw(st.dictionaries(st.sampled_from(ids), CORRELATIONS), label="intra")
        default = data.draw(st.none() | CORRELATIONS, label="default")
        table = CorrelationTable(
            intra={(risk_class, b): v for b, v in intra.items()},
            cross_default={} if default is None else {risk_class: default},
            cross_pairs={(risk_class, b, c): v for (b, c), v in pairs.items()},
        )
        rules = data.draw(SCENARIO_RULES, label="rules")
        buckets = tuple(Bucket(risk_class, b, f"bucket {b}", risk_weight=0.5) for b in ids)
        rb = Rulebook("api", 1, TENOR_GRID, buckets, table, GirrTenorParams(), rules)
        if data.draw(st.booleans(), label="rebuilt"):
            other = CorrelationTable(cross_default={risk_class: 0.3}, cross_pairs={})
            other_rb = Rulebook("other", 1, TENOR_GRID, buckets, other, GirrTenorParams(), ScenarioRules(high_scale=1.5))
            rb = other_rb._replace(correlations=table, scenario_rules=rules)
        assert_tables_match_the_per_pair_path(rb, risk_class, ids)

    @settings(max_examples=30, deadline=None)
    # The loader rejects rules that lift a GIRR tenor rho of 1 above 1 under the low scenario.
    @given(swap=st.lists(st.booleans(), min_size=64, max_size=64),
           rules=SCENARIO_RULES.filter(lambda r: r.low_affine_scale + r.low_affine_shift <= 1.0))
    def test_loaded_rulebooks_with_pairs_in_either_order(self, swap, rules):
        data = fixture_rulebook_data()
        flips = iter(swap)
        for block in data["cross_correlations"].values():
            for row in block.get("pairs", []):
                if next(flips):
                    row["b"], row["c"] = row["c"], row["b"]
        data["scenario_rules"] = {
            "high": {"scale": rules.high_scale, "cap": rules.high_cap},
            "low": {"scale": rules.low_scale, "affine_scale": rules.low_affine_scale, "affine_shift": rules.low_affine_shift},
        }
        rb = rulebook_from_dict(data)
        assert rb.scenario_rules == rules
        for risk_class in (RiskClass.EQUITY, RiskClass.FX, RiskClass.COMMODITY, RiskClass.GIRR):
            assert_tables_match_the_per_pair_path(rb, risk_class, [b.bucket_id for b in rb.buckets_for(risk_class)])

    def test_a_removed_gamma_or_rho_is_a_named_query_error(self, rb):
        pairs = {key: v for key, v in rb.correlations.cross_pairs.items() if key[0] is not RiskClass.COMMODITY}
        gapped = rb._replace(
            correlations=CorrelationTable(
                intra={key: v for key, v in rb.correlations.intra.items() if key != (RiskClass.EQUITY, 7)},
                cross_default={rc: v for rc, v in rb.correlations.cross_default.items() if rc is not RiskClass.COMMODITY},
                cross_pairs=pairs,
            ),
        )
        ids = [b.bucket_id for b in rb.buckets_for(RiskClass.COMMODITY)]
        with pytest.raises(RulebookQueryError, match=rf"^no cross-bucket correlation for commodity buckets \({ids[0]}, {ids[1]}\)$"):
            gapped.cross_correlations(RiskClass.COMMODITY, ids, MEDIUM)
        with pytest.raises(RulebookQueryError, match="^no intra-bucket correlation tabulated for equity bucket 7$"):
            gapped.intra_correlations(RiskClass.EQUITY, [6, 7], HIGH)
        assert rb.cross_correlations(RiskClass.COMMODITY, ids[:2], MEDIUM) == {
            (ids[0], ids[1]): rb.cross_correlation(RiskClass.COMMODITY, ids[0], ids[1], MEDIUM),
            (ids[1], ids[0]): rb.cross_correlation(RiskClass.COMMODITY, ids[0], ids[1], MEDIUM),
        }

    def test_unknown_scenario_is_a_named_query_error(self, rb):
        for query in (lambda: rb.cross_correlations(RiskClass.EQUITY, [6, 7], "medium"),
                      lambda: rb.intra_correlations(RiskClass.EQUITY, [7], "medium"),
                      lambda: rb.cross_correlation(RiskClass.EQUITY, 6, 7, "medium")):
            with pytest.raises(RulebookQueryError, match="^unknown scenario 'medium'$"):
                query()


class TestRulebookValue:
    """A Rulebook is immutable, and each construction builds its own indexes and adjusted tables."""

    @pytest.mark.parametrize("name", ["version", "scenario_rules", "_adjusted", "_by_id", "extra"])
    def test_attributes_cannot_be_assigned_or_deleted(self, rb, name):
        with pytest.raises(AttributeError):
            setattr(rb, name, None)
        with pytest.raises(AttributeError):
            delattr(rb, name)

    def test_a_rebuilt_rulebook_reads_its_own_adjusted_tables(self, rb):
        rules = ScenarioRules(high_scale=1.5, high_cap=0.95, low_scale=0.5)
        rebuilt = rb._replace(scenario_rules=rules)
        assert rebuilt.scenario_rules == rules
        for scenario in (LOW, HIGH):
            rhos = rebuilt.intra_correlations(RiskClass.EQUITY, [5, 9], scenario)
            assert rhos == {b: intra_rho_per_pair(rebuilt, RiskClass.EQUITY, b, scenario) for b in (5, 9)}
            assert rhos != rb.intra_correlations(RiskClass.EQUITY, [5, 9], scenario)
            gamma = rebuilt.cross_correlation(RiskClass.EQUITY, 5, 9, scenario)
            assert gamma == cross_correlation_per_pair(rebuilt, RiskClass.EQUITY, 5, 9, scenario)
            assert gamma != rb.cross_correlation(RiskClass.EQUITY, 5, 9, scenario)

    def test_a_rebuilt_rulebook_indexes_its_own_buckets(self, rb):
        rebuilt = rb._replace(buckets=tuple(b for b in rb.buckets if b.risk_class is not RiskClass.COMMODITY))
        assert rebuilt.buckets_for(RiskClass.COMMODITY) == ()
        with pytest.raises(RulebookQueryError, match="no commodity bucket with id 1"):
            rebuilt.bucket(RiskClass.COMMODITY, 1)
        assert rb.bucket(RiskClass.COMMODITY, 1).bucket_id == 1
        assert rebuilt.member_bucket(RiskClass.COMMODITY, "gold") is None
        assert rb.member_bucket(RiskClass.COMMODITY, "gold").bucket_id == 7

    def test_equal_exactly_when_the_fields_are(self, rb):
        assert rb == rulebook_from_dict(fixture_rulebook_data())
        assert rb != rb._replace(version="other")
        assert rb != rb._replace(scenario_rules=ScenarioRules(high_cap=0.9))

    def test_a_loaded_rulebook_is_read_only_all_the_way_down(self):
        # A GIRR weight written through the bucket would lower every later GIRR charge on this rulebook.
        rb = rulebook_from_dict(fixture_rulebook_data())
        with pytest.raises(TypeError):
            rb.bucket(RiskClass.GIRR, 1).risk_weights_by_tenor[1.0] = 0.0
        assert rb.risk_weight(RiskClass.GIRR, 1, 1.0) == 0.0225
        for table in rb.correlations:
            key = next(iter(table))
            with pytest.raises(TypeError):
                table[key] = 0.0
        assert rb == rulebook_from_dict(fixture_rulebook_data())


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
            "tenor_grid[1] must be a finite number above 0, got nan",
            "girr_tenor_params.theta must be a finite number above 0, got inf",
            "scenario_rules.high.scale must be a finite number above 0, got nan",
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

    def test_a_rho_the_high_scenario_takes_below_minus_one_is_a_violation(self):
        data = fixture_rulebook_data()
        data["intra_correlations"]["equity"]["1"] = -0.9
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [
            "equity correlations in [-0.9, 0.25] reach -1.125 under scenario high; "
            "a scenario-adjusted correlation must stay in [-1, 1]"
        ]

    def test_low_rules_that_lift_a_tenor_rho_above_one_are_a_violation(self):
        # The 1y/2y tenor rho, 0.970, would become 2.44 under the low scenario; the tenor range [floor, 1] is checked.
        data = fixture_rulebook_data()
        data["scenario_rules"]["low"]["affine_shift"] = 0.5
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        suffix = "under scenario low; a scenario-adjusted correlation must stay in [-1, 1]"
        assert excinfo.value.violations == [
            f"commodity correlations in [0.0, 0.95] reach 2.4 {suffix}",
            f"girr correlations in [0.4, 1.0] reach 2.5 {suffix}",
            f"fx correlations in [0.6, 0.6] reach 1.7 {suffix}",
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        rules=st.builds(
            ScenarioRules,
            high_scale=st.floats(min_value=0.1, max_value=3.0),
            high_cap=st.floats(min_value=-1.5, max_value=1.0),
            low_scale=st.floats(min_value=0.1, max_value=3.0),
            low_affine_scale=st.floats(min_value=0.0, max_value=3.0),
            low_affine_shift=st.floats(min_value=-3.0, max_value=3.0),
        ),
        rhos=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4),
    )
    def test_every_correlation_a_loaded_rulebook_adjusts_stays_in_range(self, rules, rhos):
        # The check adjusts only the ends of each class's range; if the rulebook loads, every tabulated rho and gamma
        # and every grid tenor pair stays in [-1, 1] under each scenario.
        data = fixture_rulebook_data()
        for bucket_id, rho in zip(data["intra_correlations"]["equity"], rhos):
            data["intra_correlations"]["equity"][bucket_id] = rho
        data["scenario_rules"] = {
            "high": {"scale": rules.high_scale, "cap": rules.high_cap},
            "low": {"scale": rules.low_scale, "affine_scale": rules.low_affine_scale, "affine_shift": rules.low_affine_shift},
        }
        try:
            rb = rulebook_from_dict(data)
        except RulebookValidationError as exc:
            assert all(v.endswith("a scenario-adjusted correlation must stay in [-1, 1]") for v in exc.violations)
            return
        for scenario in CorrelationScenario:
            values = [rb.intra_correlation(RiskClass.GIRR, 1, ("USD", t), ("USD", u), scenario)
                      for t, u in itertools.combinations(rb.tenor_grid, 2)]
            for rc in RiskClass:
                ids = [b.bucket_id for b in rb.buckets_for(rc)]
                values += rb.cross_correlations(rc, ids, scenario).values()
                values += rb.intra_correlations(rc, [i for i in ids if (rc, i) in rb.correlations.intra], scenario).values()
            assert all(-1.0 <= v <= 1.0 for v in values), (scenario, rules, rhos)

    def test_percent_style_weight_rejected(self):
        data = self._base()
        data["buckets"][1]["risk_weight"] = 40.0
        with pytest.raises(RulebookValidationError, match="fractions, not percent"):
            rulebook_from_dict(data)

    def test_correlation_above_one_rejected(self):
        data = self._base()
        data["intra_correlations"]["equity"]["1"] = 1.3
        with pytest.raises(RulebookValidationError, match=r"must be in \[-1, 1\]"):
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

    def test_name_listed_by_two_buckets_of_a_class_rejected_naming_both(self):
        # Row order would decide each of these names; one name in two classes (USD) is no clash.
        data = self._base()
        data["buckets"][2]["sectors"].append("energy")
        data["buckets"] += [
            {"risk_class": "girr", "id": 2, "description": "USD again", "currencies": ["USD"],
             "risk_weights_by_tenor": {"1": 0.02, "5": 0.015}},
            {"risk_class": "fx", "id": 1, "description": "USD", "currencies": ["USD"], "risk_weight": 0.3},
            *({"risk_class": "equity", "id": i, "description": "small", "economy": "advanced", "size": "small",
               "risk_weight": 0.5, "residual": i == 5} for i in (3, 4, 5)),
        ]
        data["intra_correlations"]["equity"].update({"3": 0.25, "4": 0.25, "5": 0.25})
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [
            "equity buckets 1 and 2 both list advanced/large sector 'energy'",
            "girr buckets 1 and 2 both list 'USD'",
            "equity buckets 3 and 4 both list advanced/small without sectors",
        ]

    @pytest.mark.parametrize(
        "field, bad, violation",
        [
            (None, None, "equity bucket 1: duplicate bucket id within risk class"),
            ("sectors", "energy", "buckets[2]: sectors must be a list, got 'energy'"),
            ("economy", 5, "buckets[2]: economy must be a string, got 5"),
            ("residual", "yes", "buckets[2]: residual must be true or false, got 'yes'"),
        ],
    )
    def test_a_bucket_listing_a_name_again_through_another_fault_is_one_violation(self, field, bad, violation):
        data = self._base()
        if field is None:
            data["buckets"].append(dict(data["buckets"][1]))
        else:
            data["buckets"][2].update({"sectors": ["energy"], field: bad})
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [violation]

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
        assert excinfo.value.violations == [
            "buckets[1]: risk_weight must be in [0, 1] (enter fractions, not percent), got 40.0",
            "intra_correlations[equity]['1'] must be in [-1, 1], got 1.3",
            "tenor_grid must be strictly increasing",
        ]

    @pytest.mark.parametrize("key", ["1.0", " 1", "1e0"])
    def test_two_keys_for_one_tenor_rejected_naming_both(self, key):
        # float() reads each as the 1y tenor: the later weight used to replace 0.0225 without a word.
        data = fixture_rulebook_data()
        data["buckets"][0]["risk_weights_by_tenor"][key] = 0.0
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [f"buckets[0]: risk_weights_by_tenor: keys '1' and {key!r} name one tenor"]

    @pytest.mark.parametrize("key", [" 7", "+7", "0_7"])
    def test_two_keys_for_one_bucket_rejected_naming_both(self, key):
        data = fixture_rulebook_data()
        data["intra_correlations"]["equity"][key] = 0.0
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [f"intra_correlations[equity]: keys '7' and {key!r} name one bucket id"]

    @pytest.mark.parametrize(
        "table, key, violation",
        [
            (("buckets", 0, "risk_weights_by_tenor"), "1", "buckets[0]: risk_weights_by_tenor: '1y' is not a tenor"),
            (("intra_correlations", "equity"), "7", "intra_correlations[equity]: '7y' is not a bucket id"),
        ],
    )
    def test_a_key_not_read_is_one_violation(self, table, key, violation):
        # The entry it names is not known, so the table is not checked against the grid or the buckets.
        root = data = fixture_rulebook_data()
        for name in table:
            data = data[name]
        data[key + "y"] = data.pop(key)
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(root)
        assert excinfo.value.violations == [violation]

    @pytest.mark.parametrize(
        "path, violation",
        [
            (("tenor_grid",), "tenor_grid must be a list, got 5"),
            (("buckets",), "buckets must be a list, got 5"),
            (("buckets", 0), "buckets[0]: bucket must be an object, got 5"),
            (("buckets", 1, "risk_class"), "buckets[1]: missing or unknown risk_class"),
            (("buckets", 0, "risk_weights_by_tenor"), "buckets[0]: risk_weights_by_tenor must be an object, got 5"),
            (("intra_correlations",), "intra_correlations must be an object, got 5"),
            (("intra_correlations", "equity"), "intra_correlations[equity] must be an object, got 5"),
            (("cross_correlations",), "cross_correlations must be an object, got 5"),
            (("cross_correlations", "equity"), "cross_correlations[equity] must be an object, got 5"),
            (("cross_correlations", "equity", "pairs"), "cross_correlations[equity].pairs must be a list, got 5"),
            (("girr_tenor_params",), "girr_tenor_params must be an object, got 5"),
            (("scenario_rules",), "scenario_rules must be an object, got 5"),
            (("scenario_rules", "high"), "scenario_rules.high must be an object, got 5"),
        ],
    )
    def test_a_rejected_section_is_one_violation(self, path, violation):
        # Its buckets, weights and correlations are not read, and not reported as missing either.
        data = fixture_rulebook_data()
        set_leaf(data, path, 5)
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == [violation]

    def test_a_rejected_pair_leaves_the_class_gammas_unchecked(self):
        # The pair not read may be the one the class needs, so its absence is not reported.
        data = self._base()
        data["cross_correlations"]["equity"] = {"pairs": [{"b": True, "c": 2, "value": 0.15}]}
        with pytest.raises(RulebookValidationError) as excinfo:
            rulebook_from_dict(data)
        assert excinfo.value.violations == ["cross_correlations[equity].pairs[0]: b must be an integer, got True"]

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"version": "x",\n  "tenor_grid": [1.0,]\n}', encoding="utf-8")
        with pytest.raises(RulebookParseError, match="line 2"):
            load_rulebook(bad)

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


def set_leaf(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def numeric_leaves(value, path=()):
    """(path, number) for each number in a parsed JSON document; true and false are not numbers."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_leaves(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_leaves(item, (*path, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def leaf_label(path):
    """How a violation names the rulebook value at ``path``."""
    head, *rest = path
    if head == "buckets":
        pos, field, *key = rest
        return f"buckets[{pos}]: {field}" + "".join(f"[{k!r}]" for k in key)
    if head == "intra_correlations":
        return f"intra_correlations[{rest[0]}][{rest[1]!r}]"
    if head == "cross_correlations":
        rc, *within = rest
        return f"{head}[{rc}].default" if within == ["default"] else f"{head}[{rc}].pairs[{within[1]}]: {within[2]}"
    if head == "tenor_grid":
        return f"tenor_grid[{rest[0]}]"
    return ".".join(path)


# A finite number outside the range of each leaf that has one, by the nearest key on the leaf's path that names it.
OUT_OF_RANGE = {"tenor_grid": 0.0, "risk_weight": 40.0, "risk_weights_by_tenor": 1.5, "intra_correlations": -1.5,
                "default": 1.01, "value": -1.01, "theta": -0.03, "floor": 1.0, "scale": 0.0, "cap": 1.01,
                "affine_scale": -0.5, "schema_version": 7}


def test_each_rejected_number_is_one_violation_naming_it():
    # NaN, an infinity or a number outside the leaf's range, in each numeric leaf of the fixture rulebook in turn.
    original = fixture_rulebook_data()
    edits = 0
    for path, _ in numeric_leaves(original):
        out_of_range = next((OUT_OF_RANGE[key] for key in reversed(path) if key in OUT_OF_RANGE), None)
        for bad in (math.nan, math.inf, -math.inf, out_of_range):
            if bad is None:
                continue
            data = fixture_rulebook_data()
            set_leaf(data, path, bad)
            with pytest.raises(RulebookValidationError) as excinfo:
                rulebook_from_dict(data)
            violations = excinfo.value.violations
            assert len(violations) == 1, (path, bad, violations)
            assert violations[0].startswith(f"{leaf_label(path)} must be "), (path, bad, violations)
            edits += 1
    assert edits > 500  # about 150 numeric leaves
