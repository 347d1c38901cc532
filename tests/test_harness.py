"""Scoring harness: prompts, case generation, and extraction scoring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmcap.engine import compute_capital
from sbmcap.harness import (
    Case,
    CaseSet,
    ExtractionAnswer,
    FactorRef,
    HarnessError,
    PromptSpec,
    PromptValidationError,
    Tolerances,
    case_set_from_dict,
    generate_cases,
    load_candidate,
    load_cases,
    load_prompt_spec,
    prompt_spec_from_dict,
    reference_candidate,
    render_candidate,
    render_case_set,
    render_prompt,
    render_score_report,
    score_extraction,
)
from sbmcap.portfolio import CashEquity, Portfolio
from sbmcap.rulebook import CorrelationScenario, RiskClass

PROMPT = PromptSpec(
    role="You are a market-risk analyst.",
    input="A rulebook excerpt and one position description.",
    goal="Report the bucket, risk weight, correlation, and capital figure.",
    method="Look each value up in the tables; do not estimate.",
    significance="These four numbers determine the capital requirement.",
)


class TestPromptRendering:
    def test_sections_appear_labeled_and_ordered(self):
        text = render_prompt(PROMPT)
        headers = ["Role:", "Input:", "Goal:", "Method:", "Significance:"]
        positions = [text.index(h) for h in headers]
        assert positions == sorted(positions)
        assert text.startswith("Role: You are a market-risk analyst.")
        assert text.endswith("\n")

    def test_bodies_are_stripped(self):
        spec = PROMPT._replace(role="  padded  ")
        assert "Role: padded\n" in render_prompt(spec)

    @pytest.mark.parametrize("field_name", ["role", "input", "goal", "method", "significance"])
    @pytest.mark.parametrize("bad", ["", "   "])
    def test_empty_element_is_named(self, field_name, bad):
        spec = PROMPT._replace(**{field_name: bad})
        with pytest.raises(PromptValidationError) as excinfo:
            render_prompt(spec)
        assert excinfo.value.field_name == field_name

    def test_spec_from_dict_round_trip(self):
        data = PROMPT._asdict()
        assert prompt_spec_from_dict(data) == PROMPT

    @pytest.mark.parametrize("field_name", ["role", "input", "goal", "method", "significance"])
    def test_spec_from_dict_names_missing_field(self, field_name):
        data = PROMPT._asdict()
        del data[field_name]
        with pytest.raises(PromptValidationError) as excinfo:
            prompt_spec_from_dict(data)
        assert excinfo.value.field_name == field_name

    def test_spec_file_error_names_the_file(self, fixtures_dir, tmp_path):
        data = json.loads((fixtures_dir / "prompt_mcr.json").read_text())
        del data["goal"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(HarnessError) as excinfo:
            load_prompt_spec(path)
        assert str(excinfo.value) == f"{path}: prompt element 'goal' must be a non-empty string"

    def test_fixture_prompt_renders(self, fixtures_dir):
        data = json.loads((fixtures_dir / "prompt_mcr.json").read_text())
        text = render_prompt(prompt_spec_from_dict(data))
        for header in ("Role:", "Input:", "Goal:", "Method:", "Significance:"):
            assert header in text


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DROP = object()  # as a replacement value: delete the key instead


def position_types(cs: CaseSet) -> list[list[type]]:
    # Positions are tuples, and one of another type with equal fields would compare equal.
    return [[type(p) for p in case.positions] for case in cs.cases]


@pytest.fixture(scope="module")
def case_set(rb, market, registry):
    return generate_cases(seed=7, n=12, rb=rb, md=market, registry=registry)


class TestCaseGeneration:
    def test_identical_seeds_give_identical_sets(self, rb, market, registry, case_set):
        again = generate_cases(seed=7, n=12, rb=rb, md=market, registry=registry)
        assert again == case_set
        assert position_types(again) == position_types(case_set)

    def test_different_seeds_differ(self, rb, market, registry, case_set):
        other = generate_cases(seed=8, n=12, rb=rb, md=market, registry=registry)
        assert other != case_set

    def test_risk_classes_cycle(self, case_set):
        expected = [RiskClass.GIRR, RiskClass.EQUITY, RiskClass.FX, RiskClass.COMMODITY] * 3
        assert [c.risk_class for c in case_set.cases] == expected

    def test_case_ids_are_zero_padded_and_unique(self, case_set):
        ids = [c.case_id for c in case_set.cases]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert ids[0] == "case-001"

    def test_reference_answers_are_complete(self, case_set):
        for case in case_set.cases:
            r = case.reference
            assert r.bucket is not None
            assert r.risk_weight is not None and r.risk_weight > 0
            assert r.correlation is not None and -1.0 <= r.correlation <= 1.0
            assert r.mcr_value is not None and r.mcr_value >= 0

    def test_reference_mcr_matches_engine_recomputation(self, case_set, rb, market, registry):
        for case in case_set.cases[:4]:
            report = compute_capital(
                Portfolio(positions=case.positions), market, registry, rb, scenario=case_set.scenario
            )
            assert case.reference.mcr_value == report.total_capital

    def test_girr_factors_carry_tenors(self, case_set):
        girr = [c for c in case_set.cases if c.risk_class is RiskClass.GIRR]
        assert girr
        for case in girr:
            assert all(f.tenor is not None for f in case.factors)
        spot = [c for c in case_set.cases if c.risk_class is not RiskClass.GIRR]
        for case in spot:
            assert all(f.tenor is None for f in case.factors)

    def test_file_round_trip(self, case_set, tmp_path):
        path = tmp_path / "cases.json"
        path.write_text(render_case_set(case_set), encoding="utf-8")
        loaded = load_cases(path)
        assert loaded == case_set
        assert position_types(loaded) == position_types(case_set)

    def test_dict_round_trip_preserves_scenario(self, rb, market, registry):
        cs = generate_cases(seed=3, n=4, rb=rb, md=market, registry=registry, scenario=CorrelationScenario.HIGH)
        parsed = case_set_from_dict(json.loads(render_case_set(cs)))
        assert parsed == cs
        assert position_types(parsed) == position_types(cs)

    def test_case_set_matches_golden(self, rb, market, registry):
        # Pins the order of the RNG draws, and so every generated case.
        golden = (GOLDEN_DIR / "cases_seed7_n8.json").read_text(encoding="utf-8")
        assert render_case_set(generate_cases(seed=7, n=8, rb=rb, md=market, registry=registry)) == golden

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64), n=st.integers(min_value=1, max_value=50),
           scenario=st.sampled_from(CorrelationScenario))
    def test_written_files_read_back_equal_and_rewrite_to_the_same_bytes(
        self, rb, market, registry, files_dir, seed, n, scenario
    ):
        case_set = generate_cases(seed, n, rb, market, registry, scenario)
        answers = reference_candidate(case_set)
        cases_text, candidate_text = render_case_set(case_set), render_candidate(answers, "reference")
        cases, candidate = files_dir / "cases.json", files_dir / "candidate.json"
        cases.write_text(cases_text, encoding="utf-8")
        candidate.write_text(candidate_text, encoding="utf-8")
        loaded, loaded_answers = load_cases(cases), load_candidate(candidate)
        assert loaded == case_set
        assert position_types(loaded) == position_types(case_set)
        assert loaded_answers == answers
        assert render_candidate(loaded_answers, "reference") == candidate_text
        assert render_case_set(loaded) == cases_text

    def test_short_pool_fails_at_the_first_case_of_its_class(self, rb, market, registry):
        md = market._replace(equity_prices={"XOM": market.equity_prices["XOM"]})
        assert len(generate_cases(seed=1, n=1, rb=rb, md=md, registry=registry).cases) == 1  # one GIRR case
        with pytest.raises(HarnessError, match="^need at least two priced issuers to build equity cases$"):
            generate_cases(seed=1, n=2, rb=rb, md=md, registry=registry)

    def test_nonpositive_n_rejected(self, rb, market, registry):
        with pytest.raises(HarnessError, match="positive"):
            generate_cases(seed=1, n=0, rb=rb, md=market, registry=registry)


class TestScoring:
    def test_reference_candidate_scores_100_everywhere(self, case_set):
        report = score_extraction(reference_candidate(case_set), case_set)
        assert report.bucket_accuracy == 100.0
        assert report.risk_weight_accuracy == 100.0
        assert report.correlation_accuracy == 100.0
        assert report.mcr_accuracy == 100.0
        assert report.n_cases == case_set.n

    def test_empty_candidate_scores_zero_and_marks_missing(self, case_set):
        report = score_extraction({}, case_set)
        assert report.bucket_accuracy == 0.0
        assert report.mcr_accuracy == 0.0
        assert all(v.bucket == "missing" for v in report.verdicts)

    def test_unknown_case_id_is_an_error(self, case_set):
        candidate = {"case-999": ExtractionAnswer(bucket=1)}
        with pytest.raises(HarnessError, match="case-999"):
            score_extraction(candidate, case_set)

    def test_corrupting_k_buckets_scores_exact_fraction(self, case_set):
        candidate = reference_candidate(case_set)
        wrong = 0
        for case_id in sorted(candidate)[:3]:
            answer = candidate[case_id]
            candidate[case_id] = answer._replace(bucket=answer.bucket + 1)
            wrong += 1
        report = score_extraction(candidate, case_set)
        assert report.bucket_accuracy == 100.0 * (case_set.n - wrong) / case_set.n
        assert report.risk_weight_accuracy == 100.0

    def test_weight_tolerance_boundary(self, case_set):
        case = case_set.cases[0]
        base = reference_candidate(case_set)
        inside = case.reference._replace(risk_weight=case.reference.risk_weight + 0.0049)
        outside = case.reference._replace(risk_weight=case.reference.risk_weight + 0.0051)
        report_in = score_extraction({**base, case.case_id: inside}, case_set)
        report_out = score_extraction({**base, case.case_id: outside}, case_set)
        assert report_in.risk_weight_accuracy == 100.0
        assert report_out.risk_weight_accuracy < 100.0

    def test_tolerance_boundary_is_inclusive(self):
        # Exactly representable numbers so "<=" vs "<" is actually observable.
        case = Case(
            case_id="edge-1",
            risk_class=RiskClass.EQUITY,
            positions=(CashEquity("X", 1),),
            factors=(FactorRef("X"), FactorRef("Y")),
            reference=ExtractionAnswer(bucket=1, risk_weight=1.0, correlation=0.25, mcr_value=100.0),
        )
        edge_set = CaseSet(seed=0, n=1, scenario=CorrelationScenario.MEDIUM, cases=(case,))
        answer = ExtractionAnswer(bucket=1, risk_weight=1.5, correlation=0.25, mcr_value=101.0)
        report = score_extraction(
            {"edge-1": answer}, edge_set, Tolerances(weight_tol=0.5, mcr_rel_tol=0.01)
        )
        assert report.risk_weight_accuracy == 100.0
        assert report.mcr_accuracy == 100.0

    def test_mcr_tolerance_is_relative(self, case_set):
        case = next(c for c in case_set.cases if c.reference.mcr_value > 0)
        base = reference_candidate(case_set)
        ref = case.reference.mcr_value
        inside = case.reference._replace(mcr_value=ref * 1.0099)
        outside = case.reference._replace(mcr_value=ref * 1.02)
        assert score_extraction({**base, case.case_id: inside}, case_set).mcr_accuracy == 100.0
        assert score_extraction({**base, case.case_id: outside}, case_set).mcr_accuracy < 100.0

    def test_custom_tolerances_respected(self, case_set):
        case = case_set.cases[0]
        base = reference_candidate(case_set)
        off = case.reference._replace(correlation=case.reference.correlation + 0.04)
        loose = Tolerances(corr_tol=0.05)
        assert score_extraction({**base, case.case_id: off}, case_set).correlation_accuracy < 100.0
        assert score_extraction({**base, case.case_id: off}, case_set, loose).correlation_accuracy == 100.0

    def test_missing_axis_counts_as_incorrect(self, case_set):
        base = reference_candidate(case_set)
        case = case_set.cases[0]
        base[case.case_id] = case.reference._replace(correlation=None)
        report = score_extraction(base, case_set)
        assert report.correlation_accuracy == 100.0 * (case_set.n - 1) / case_set.n
        assert report.verdicts[0].correlation == "missing"

    def test_empty_case_set_rejected(self, case_set):
        empty = case_set._replace(cases=(), n=0)
        with pytest.raises(HarnessError, match="empty"):
            score_extraction({}, empty)

    def test_accuracy_equals_counts(self, case_set):
        report = score_extraction(reference_candidate(case_set), case_set)
        for axis, (correct, scored) in report.counts.items():
            assert scored == case_set.n
            assert correct == scored


class TestCandidateFiles:
    def test_candidate_file_round_trip(self, case_set, tmp_path):
        answers = reference_candidate(case_set)
        path = tmp_path / "candidate.json"
        path.write_text(render_candidate(answers, "unit test"))
        loaded = load_candidate(path)
        assert loaded == answers

    def test_integral_float_buckets_normalize_to_int(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"answers": {"case-001": {"bucket": 7.0, "risk_weight": 0.4}}}))
        answer = load_candidate(path)["case-001"]
        assert answer.bucket == 7 and isinstance(answer.bucket, int)

    @pytest.mark.parametrize(
        "axis, bad",
        [("bucket", True), ("bucket", "1"), ("risk_weight", "0.15"), ("correlation", False), ("mcr_value", "1e6")],
    )
    def test_boolean_or_string_answer_rejected_naming_case_and_axis(self, tmp_path, axis, bad):
        # Candidate files are machine-written: true is not bucket 1, and "0.15" is not 0.15.
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"answers": {"case-001": {axis: bad}}}))
        with pytest.raises(HarnessError) as excinfo:
            load_candidate(path)
        assert str(excinfo.value) == (
            f"{path}: malformed candidate answers: answers['case-001']: {axis} must be a number, got {bad!r}"
        )

    @pytest.mark.parametrize("row", [5, None, [0.15], "bucket"])
    def test_answer_row_that_is_not_an_object_rejected(self, tmp_path, row):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"answers": {"case-001": row}}))
        with pytest.raises(HarnessError) as excinfo:
            load_candidate(path)
        assert str(excinfo.value) == (
            f"{path}: malformed candidate answers: answers['case-001'] must be an object, got {row!r}"
        )

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text('{"answers": {"case-001": {"mcr_value": 1' + "0" * 400 + "}}}")
        with pytest.raises(HarnessError, match=r"malformed candidate answers: answers\['case-001'\]: mcr_value must be a finite number, got 10{400}$"):
            load_candidate(path)

    @pytest.mark.parametrize(
        "axis, bad, message",
        [("bucket", True, "cases[0]: reference: bucket must be a number, got True"),
         ("mcr_value", 10**400, "cases[0]: reference: mcr_value must be a finite number, got 1" + "0" * 400),
         # Or a path to another field of the case set: int() used to read "7" as 7 and true as 1, float() "5" as 5.0.
         (("seed",), "7", "seed must be an integer, got '7'"),
         (("n",), True, "n must be an integer, got True"),
         (("cases", 0, "factors", 1, "tenor"), "5", "cases[0]: factors[1]: tenor must be a number, got '5'"),
         (("cases", 0, "case_id"), 5, "cases[0]: case_id must be a string, got 5"),
         # A bad token used to read "5 is not a valid RiskClass", and a dropped key as the bare key.
         (("cases", 2, "risk_class"), 5, "cases[2]: risk_class must be one of girr, equity, fx, commodity, got 5"),
         (("scenario",), "x", "scenario must be one of low, medium, high, got 'x'"),
         (("cases", 1, "positions"), DROP, "cases[1]: missing field 'positions'"),
         # A case set without a scenario used to be read as the medium scenario; gen-cases always writes one.
         (("scenario",), DROP, "missing field 'scenario'"),
         # The rows a case set reads: a row of the wrong kind used to be named "case", "factor" or "answer".
         (("cases", 0), 5, "cases[0] must be an object, got 5"),
         (("cases", 0, "factors", 1), [], "cases[0]: factors[1] must be an object, got []"),
         (("cases", 0, "reference"), 0.5, "cases[0]: reference must be an object, got 0.5"),
         (("cases", 1, "positions", 0), "x", "cases[1]: positions[0]: position must be an object, got 'x'")],
    )
    def test_reference_answer_that_is_not_a_float_rejected(self, case_set, axis, bad, message):
        data = json.loads(render_case_set(case_set))
        *parents, last = ("cases", 0, "reference", axis) if isinstance(axis, str) else axis
        target = data
        for key in parents:
            target = target[key]
        if bad is DROP:
            del target[last]
        else:
            target[last] = bad
        with pytest.raises(HarnessError) as excinfo:
            case_set_from_dict(data)
        assert str(excinfo.value) == f"malformed case set: {message}"

    @pytest.mark.parametrize("bad, message", [(True, "must be a number, got True"), (1e400, "must be a finite number")])
    def test_position_number_that_is_not_a_finite_json_number_rejected(self, case_set, bad, message):
        # The position's own error used to leave the loader without the "malformed case set" prefix.
        data = json.loads(render_case_set(case_set))
        row = data["cases"][1]["positions"][0]
        assert row["type"] == "equity"
        row["shares"] = bad
        with pytest.raises(HarnessError, match=rf"^malformed case set: cases\[1\]: positions\[0\]: shares {message}"):
            case_set_from_dict(data)

    @pytest.mark.parametrize("field_name", ["risk_weight", "correlation"])
    @pytest.mark.parametrize("bad", [-0.01, 1.51, 73.0])
    def test_out_of_band_fraction_rejected(self, tmp_path, field_name, bad):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"answers": {"case-001": {field_name: bad}}}))
        with pytest.raises(HarnessError, match="sanity band"):
            load_candidate(path)

    def test_band_edges_accepted(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"answers": {"case-001": {"risk_weight": 0.0, "correlation": 1.5}}}))
        answer = load_candidate(path)["case-001"]
        assert answer.risk_weight == 0.0 and answer.correlation == 1.5

    def test_candidate_without_answers_key_rejected(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(HarnessError, match="answers"):
            load_candidate(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text('{"answers": }')
        with pytest.raises(HarnessError, match="line 1"):
            load_candidate(path)


class TestScoreReportRendering:
    def test_human_format_lists_all_axes(self, case_set):
        report = score_extraction(reference_candidate(case_set), case_set)
        text = render_score_report(report)
        for label in ("bucket", "risk weight", "correlation", "capital requirement"):
            assert label in text
        assert "100.0%" in text

    def test_hierarchical_format_is_json(self, case_set):
        report = score_extraction(reference_candidate(case_set), case_set)
        data = json.loads(render_score_report(report, "hierarchical"))
        assert data["accuracy"]["bucket"] == 100.0
        assert data["verdicts"] == [
            {"case_id": c.case_id, "bucket": "correct", "risk_weight": "correct", "correlation": "correct",
             "mcr_value": "correct"}
            for c in case_set.cases
        ]

    def test_unknown_format_rejected(self, case_set):
        report = score_extraction(reference_candidate(case_set), case_set)
        with pytest.raises(HarnessError, match="format"):
            render_score_report(report, "xml")
