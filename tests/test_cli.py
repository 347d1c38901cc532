"""CLI behavior: subcommands, exit codes, output routing."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sbmcap.cli import main
from sbmcap.engine import parse_report


@pytest.fixture()
def paths(fixtures_dir):
    return {
        "rulebook": str(fixtures_dir / "rulebook.json"),
        "market": str(fixtures_dir / "market.json"),
        "registry": str(fixtures_dir / "issuers.json"),
        "portfolio": str(fixtures_dir / "portfolio.csv"),
        "equity_portfolio": str(fixtures_dir / "portfolio_equity.csv"),
        "prompt": str(fixtures_dir / "prompt_mcr.json"),
    }


def market_args(paths):
    return ["--rulebook", paths["rulebook"], "--market", paths["market"], "--registry", paths["registry"]]


def test_importing_the_cli_does_not_load_the_harness():
    # Only score, gen-cases and render-prompt need the harness; compute does not pay for it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import json, sys, sbmcap.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith('sbmcap'))))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "sbmcap.cli" in loaded
    assert "sbmcap.harness" not in loaded


class TestHelp:
    def test_top_level_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("compute", "validate-rulebook", "score", "gen-cases", "render-prompt", "dump-sensitivities"):
            assert name in out

    def test_compute_help_lists_all_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--rulebook", "--market", "--registry", "--portfolio", "--scenario", "--classes", "--format", "--out"):
            assert flag in out


class TestCompute:
    def test_human_output_and_exit_zero(self, paths, capsys):
        code = main(["compute", *market_args(paths), "--portfolio", paths["portfolio"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "Capital requirement:" in out
        assert "envelope" in out

    def test_hierarchical_output_parses_back(self, paths, capsys):
        code = main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--format", "hierarchical"])
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert report.total_capital > 0
        assert set(report.scenarios) == {"low", "medium", "high"}

    def test_scenario_flag_narrows_to_one_scenario(self, paths, capsys):
        code = main(
            ["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--scenario", "medium", "--format", "hierarchical"]
        )
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert list(report.scenarios) == ["medium"]

    def test_classes_filter_matches_subset_portfolio(self, paths, capsys):
        main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--classes", "equity", "--format", "hierarchical"])
        filtered = parse_report(capsys.readouterr().out)
        main(["compute", *market_args(paths), "--portfolio", paths["equity_portfolio"], "--format", "hierarchical"])
        subset = parse_report(capsys.readouterr().out)
        assert filtered.total_capital == subset.total_capital

    def test_out_writes_file_and_keeps_stdout_quiet(self, paths, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            ["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--format", "hierarchical", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert parse_report(target.read_text()).total_capital > 0

    def test_repeat_runs_are_byte_identical(self, paths, capsys):
        main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--format", "hierarchical"])
        first = capsys.readouterr().out
        main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--format", "hierarchical"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_class_token_is_usage_error(self, paths, capsys):
        code = main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--classes", "credit"])
        err = capsys.readouterr().err
        assert code == 1
        assert "credit" in err and "--classes" in err

    def test_bad_scenario_choice_is_usage_error(self, paths, capsys):
        code = main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--scenario", "extreme"])
        assert code == 1
        assert "--scenario" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, paths, capsys):
        code = main(["compute", *market_args(paths)])
        err = capsys.readouterr().err
        assert code == 1
        assert "--portfolio" in err

    def test_nan_price_is_input_error_not_lower_capital(self, paths, capsys, tmp_path):
        market = json.loads(Path(paths["market"]).read_text(encoding="utf-8"))
        market["equity_prices"]["XOM"] = float("nan")
        bad = tmp_path / "market.json"
        bad.write_text(json.dumps(market), encoding="utf-8")
        args = ["compute", "--rulebook", paths["rulebook"], "--market", str(bad), "--registry", paths["registry"]]
        code = main([*args, "--portfolio", paths["portfolio"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {bad}: equity_prices['XOM'] must be a finite number, got nan\n"

    def test_netting_overflow_is_input_error_naming_the_factor(self, paths, capsys, tmp_path):
        # Each position's delta (1.1e308) is finite; their net sum is not.
        header = Path(paths["portfolio"]).read_text(encoding="utf-8").splitlines()[0]
        book = tmp_path / "overflow.csv"
        book.write_text(f"{header}\n" + "equity,XOM,1e306,,,,,,+\n" * 2, encoding="utf-8")
        code = main(["compute", *market_args(paths), "--portfolio", str(book)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: net equity delta to XOM in bucket 7 overflows the float range; "
            "the positions on this factor are too large\n"
        )

    def test_missing_portfolio_file_is_input_error(self, paths, capsys):
        code = main(["compute", *market_args(paths), "--portfolio", "/nonexistent/p.csv"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")


class TestValidateRulebook:
    def test_fixture_rulebook_is_ok(self, paths, capsys):
        code = main(["validate-rulebook", "--rulebook", paths["rulebook"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "rulebook OK" in out

    def test_invalid_rulebook_exits_two_with_violations(self, paths, capsys, tmp_path):
        data = json.loads(Path(paths["rulebook"]).read_text())
        data["cross_correlations"]["equity"]["pairs"] += [
            {"b": 6, "c": 7, "value": 0.15},
            {"b": 7, "c": 6, "value": 0.99},
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "rulebook validation failed" in err
        assert "asymmetric" in err

    def test_non_finite_parameters_exit_two_naming_the_fields(self, paths, capsys, tmp_path):
        data = json.loads(Path(paths["rulebook"]).read_text())
        data["scenario_rules"]["high"]["scale"] = float("nan")
        data["girr_tenor_params"]["theta"] = float("inf")
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(data))  # written as NaN and Infinity
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "rulebook validation failed:\n"
            "  - girr_tenor_params.theta must be a finite number, got inf\n"
            "  - scenario_rules.high.scale must be a finite number, got nan\n"
        )

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestScoringFlow:
    def test_gen_cases_then_score_reference_scores_100(self, paths, capsys, tmp_path):
        cases = tmp_path / "cases.json"
        candidate = tmp_path / "candidate.json"
        code = main(
            ["gen-cases", *market_args(paths), "--seed", "11", "--n", "8",
             "--out", str(cases), "--emit-reference-candidate", str(candidate)]
        )
        assert code == 0
        assert json.loads(cases.read_text())["n"] == 8
        assert len(json.loads(candidate.read_text())["answers"]) == 8

        code = main(["score", "--cases", str(cases), "--candidate", str(candidate), "--format", "hierarchical"])
        assert code == 0
        accuracy = json.loads(capsys.readouterr().out)["accuracy"]
        assert all(accuracy[axis] == 100.0 for axis in ("bucket", "risk_weight", "correlation", "mcr_value"))

    def test_gen_cases_stdout_is_deterministic(self, paths, capsys):
        main(["gen-cases", *market_args(paths), "--seed", "11", "--n", "4"])
        first = capsys.readouterr().out
        main(["gen-cases", *market_args(paths), "--seed", "11", "--n", "4"])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["seed"] == 11

    def test_score_unknown_case_id_is_input_error(self, paths, capsys, tmp_path):
        cases = tmp_path / "cases.json"
        main(["gen-cases", *market_args(paths), "--seed", "11", "--n", "4", "--out", str(cases)])
        capsys.readouterr()
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps({"answers": {"case-xyz": {"bucket": 1}}}))
        code = main(["score", "--cases", str(cases), "--candidate", str(candidate)])
        assert code == 1
        assert "case-xyz" in capsys.readouterr().err

    def test_score_tolerance_flags_are_honored(self, paths, capsys, tmp_path):
        cases_path = tmp_path / "cases.json"
        main(["gen-cases", *market_args(paths), "--seed", "11", "--n", "4", "--out", str(cases_path)])
        capsys.readouterr()
        data = json.loads(cases_path.read_text())
        answers = {
            c["case_id"]: {**c["reference"], "correlation": c["reference"]["correlation"] + 0.03}
            for c in data["cases"]
        }
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps({"answers": answers}))
        main(["score", "--cases", str(cases_path), "--candidate", str(candidate), "--format", "hierarchical"])
        strict = json.loads(capsys.readouterr().out)["accuracy"]["correlation"]
        main(["score", "--cases", str(cases_path), "--candidate", str(candidate), "--corr-tol", "0.05", "--format", "hierarchical"])
        loose = json.loads(capsys.readouterr().out)["accuracy"]["correlation"]
        assert strict == 0.0
        assert loose == 100.0


class TestRenderPrompt:
    def test_fixture_prompt_renders(self, paths, capsys):
        code = main(["render-prompt", "--spec", paths["prompt"]])
        out = capsys.readouterr().out
        assert code == 0
        for header in ("Role:", "Input:", "Goal:", "Method:", "Significance:"):
            assert header in out

    def test_empty_element_is_input_error_naming_field(self, paths, capsys, tmp_path):
        data = json.loads(Path(paths["prompt"]).read_text())
        data["method"] = "   "
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code = main(["render-prompt", "--spec", str(spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert "method" in err


class TestDumpSensitivities:
    def test_csv_has_one_row_per_factor(self, paths, capsys):
        code = main(["dump-sensitivities", *market_args(paths), "--portfolio", paths["portfolio"]])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        assert rows[0].keys() == {"risk_class", "bucket", "name", "tenor", "value"}
        xom = next(r for r in rows if r["name"] == "XOM")
        assert float(xom["value"]) == pytest.approx(1_100_000.0, rel=1e-12)
        girr = [r for r in rows if r["risk_class"] == "girr"]
        assert sorted(r["tenor"] for r in girr) == ["10.0", "5.0"]

    def test_warnings_are_reported_like_compute(self, paths, capsys, tmp_path):
        # An unregistered issuer lands in the residual bucket; a 32y annual bond
        # has flows beyond the 30y last pillar.
        market = json.loads(Path(paths["market"]).read_text(encoding="utf-8"))
        market["equity_prices"]["ACME"] = 50.0
        market_path = tmp_path / "market.json"
        market_path.write_text(json.dumps(market), encoding="utf-8")
        portfolio = tmp_path / "portfolio.csv"
        portfolio.write_text(
            "type,issuer_or_id,quantity,unit,coupon,maturity,frequency,currency,sign\n"
            "equity,ACME,100,shares,,,,,+\n"
            "bond,LONG,10000,,0.04,32,1,USD,+\n",
            encoding="utf-8",
        )
        args = ["--rulebook", paths["rulebook"], "--market", str(market_path), "--registry", paths["registry"],
                "--portfolio", str(portfolio)]
        assert main(["dump-sensitivities", *args]) == 0
        err = capsys.readouterr().err
        assert err == (
            "warning: issuer 'ACME' not in registry; assigned to residual bucket 11\n"
            "warning: zero rate at t=31 beyond last pillar 30, extrapolating flat\n"
            "warning: zero rate at t=32 beyond last pillar 30, extrapolating flat\n"
        )
        assert main(["compute", *args]) == 0
        assert capsys.readouterr().err == err


class TestOutDirEnv:
    def test_relative_out_lands_under_env_dir(self, paths, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SBMCAP_OUT_DIR", str(tmp_path))
        code = main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--format", "hierarchical", "--out", "sub/report.json"])
        assert code == 0
        assert (tmp_path / "sub" / "report.json").exists()

    def test_absolute_out_ignores_env_dir(self, paths, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SBMCAP_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        code = main(["compute", *market_args(paths), "--portfolio", paths["portfolio"], "--format", "hierarchical", "--out", str(target)])
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "elsewhere").exists()
