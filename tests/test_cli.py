"""CLI behavior: subcommands, exit codes, output routing."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sbmcap import compute_capital, load_market_data, load_portfolio, load_registry, load_rulebook
from sbmcap.cli import main
from sbmcap.engine import ReportFormatError, parse_report
from sbmcap.portfolio import CSV_COLUMNS
from sbmcap.rulebook import RiskClass
from sbmcap.harness import AXES, load_cases, reference_candidate, render_candidate


@pytest.fixture()
def paths(fixtures_dir):
    return {
        "rulebook": str(fixtures_dir / "rulebook.json"),
        "market": str(fixtures_dir / "market.json"),
        "registry": str(fixtures_dir / "issuers.json"),
        "portfolio": str(fixtures_dir / "portfolio.csv"),
        "equity_portfolio": str(fixtures_dir / "portfolio_equity.csv"),
        "json_portfolio": str(fixtures_dir / "portfolio.json"),
        "prompt": str(fixtures_dir / "prompt_mcr.json"),
    }


def market_args(paths):
    return ["--rulebook", paths["rulebook"], "--market", paths["market"], "--registry", paths["registry"]]


def test_importing_the_cli_does_not_load_the_harness():
    # Only score, gen-cases and render-prompt need the harness, and only the CSV reader and
    # writers need csv; compute with a JSON portfolio pays for neither.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import json, sys, sbmcap.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith(('sbmcap', 'csv')))))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "sbmcap.cli" in loaded
    assert "sbmcap.harness" not in loaded
    assert "csv" not in loaded


def test_importing_the_cli_does_not_load_dataclasses_or_inspect():
    # The package's types are NamedTuples; dataclasses, and the inspect it imports, would add to every CLI run,
    # and the harness is imported by every gen-cases, score and render-prompt run.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, sbmcap.cli, sbmcap.harness; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_readme_command_line_examples_run_on_the_fixtures(fixtures_dir, monkeypatch, capsys, tmp_path):
    # Every command of every sh block in the README's "Command line" section, in order and in a directory that holds
    # a copy of fixtures/, so score reads the files gen-cases wrote.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    commands = [shlex.split(line) for block in blocks for line in block.replace("\\\n", " ").splitlines() if line]
    assert [command[:2] for command in commands] == [
        ["sbmcap", name] for name in ("compute", "validate-rulebook", "gen-cases", "score", "render-prompt",
                                      "dump-sensitivities")
    ]
    shutil.copytree(fixtures_dir, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SBMCAP_OUT_DIR", raising=False)
    for command in commands:
        assert main(command[1:]) == 0, (command, capsys.readouterr().err)


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
        assert captured.err == f"error: {bad}: equity_prices['XOM'] must be a finite number above 0, got nan\n"

    def test_every_quote_not_above_zero_is_an_input_error_naming_it(self, paths, capsys, tmp_path):
        # A zero price used to zero every delta on it, and a negative one to flip them: one zero XOM price cut the
        # fixture capital from 772,695.14 to 377,269.05 with exit 0 and no warning.
        market = json.loads(Path(paths["market"]).read_text(encoding="utf-8"))
        bad = tmp_path / "market.json"
        args = ["compute", *market_args({**paths, "market": str(bad)}), "--portfolio", paths["portfolio"]]
        runs = 0
        for section in ("equity_prices", "fx_spots", "commodity_prices"):
            for name, quote in market[section].items():
                for edited in (0, -quote, -0.0):
                    bad.write_text(json.dumps({**market, section: {**market[section], name: edited}}), encoding="utf-8")
                    code = main(args)
                    captured = capsys.readouterr()
                    assert (code, captured.out) == (1, ""), (section, name, edited)
                    assert captured.err == (
                        f"error: {bad}: {section}[{name!r}] must be a finite number above 0, got {float(edited)!r}\n"
                    )
                    runs += 1
        assert runs == 3 * 22

    def test_spot_delta_past_the_float_range_is_named_an_overflow(self, paths, capsys, tmp_path):
        # The quantity and the price are finite, but q * 1.01 x is not; this used to read "equity delta to T is nan".
        header = Path(paths["portfolio"]).read_text(encoding="utf-8").splitlines()[0]
        book = tmp_path / "huge.csv"
        book.write_text(f"{header}\nequity,XOM,1,,,,,,+\nequity,T,1e308,shares,,,,,+\n", encoding="utf-8")
        code = main(["compute", *market_args(paths), "--portfolio", str(book)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "error: 1 position(s) failed: position 1 (valuation): equity delta to T overflows the float range; "
            "the quantity or price of this position is too large\n"
        )

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

    def test_bond_maturity_beyond_the_cap_is_input_error_naming_the_row(self, paths, capsys, tmp_path):
        # One row is enough: its coupon loop would otherwise never end.
        header = Path(paths["portfolio"]).read_text(encoding="utf-8").splitlines()[0]
        book = tmp_path / "long.csv"
        book.write_text(f"{header}\nbond,LONG,100,,0.02,1e17,4,USD,+\n", encoding="utf-8")
        code = main(["compute", *market_args(paths), "--portfolio", str(book)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {book}: line 2: bond maturity must be at most 1000 years, got 1e+17\n"

    def test_missing_portfolio_file_is_input_error(self, paths, capsys):
        code = main(["compute", *market_args(paths), "--portfolio", "/nonexistent/p.csv"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    # Each of these used to print "Capital requirement: 0.00 USD" and exit 0.
    def test_json_portfolio_without_positions_is_input_error(self, paths, capsys, tmp_path):
        book = tmp_path / "book.json"
        book.write_text("{}", encoding="utf-8")
        code = main(["compute", *market_args(paths), "--portfolio", str(book)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {book}: missing field 'positions'\n")

    def test_registry_without_issuers_is_input_error(self, paths, capsys, tmp_path):
        registry = tmp_path / "issuers.json"
        registry.write_text('{"schema_version": 1}', encoding="utf-8")
        code = main(["compute", *market_args({**paths, "registry": str(registry)}), "--portfolio", paths["portfolio"]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {registry}: missing field 'issuers'\n")

    def test_empty_csv_portfolio_is_input_error(self, paths, capsys, tmp_path):
        book = tmp_path / "book.csv"
        book.write_bytes(b"")
        code = main(["compute", *market_args(paths), "--portfolio", str(book)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {book}: header missing column(s) {list(CSV_COLUMNS)}\n"

    @pytest.mark.parametrize("line", [1, 2, 5])
    def test_csv_cell_past_the_field_limit_is_input_error_naming_the_line(self, paths, capsys, tmp_path, line):
        # The csv module refuses a cell longer than 131,072 characters; that used to escape as a traceback.
        lines = Path(paths["portfolio"]).read_text(encoding="utf-8").splitlines()
        cells = lines[line - 1].split(",")
        cells[1] = "x" * 200_000
        lines[line - 1] = ",".join(cells)
        book = tmp_path / "book.csv"
        book.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["compute", *market_args(paths), "--portfolio", str(book)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {book}: line {line}: field larger than field limit (131072)\n"

    def test_portfolio_dated_apart_from_the_market_is_warned(self, paths, capsys, tmp_path):
        book = json.loads(Path(paths["json_portfolio"]).read_text(encoding="utf-8"))
        book["as_of"] = "2099-01-01"
        path = tmp_path / "book.json"
        path.write_text(json.dumps(book), encoding="utf-8")
        code = main(["compute", *market_args(paths), "--portfolio", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        warned = [line for line in captured.err.splitlines() if "as_of" in line]
        assert warned == ["warning: portfolio as_of 2099-01-01 differs from market as_of 2024-06-28"]


def is_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# One edit of one cell: a blank, a non-number or non-finite number in a number column, a bad sign or a bad type.
_CSV_TYPES = ("bond", "equity", "fx", "commodity")
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8)
CSV_CELL_EDITS = st.one_of(
    st.tuples(st.sampled_from(CSV_COLUMNS), st.just("")),
    st.tuples(st.sampled_from(("quantity", "coupon", "maturity", "frequency")),
              st.sampled_from(("nan", "-NaN", "inf", "-inf", "+Infinity", "1e999", "x", "1,5")) | _CELL_TEXT)
    .filter(lambda edit: edit[1].strip() and not is_finite_number(edit[1])),
    st.tuples(st.just("sign"), _CELL_TEXT.filter(lambda text: text.strip() not in ("", "+", "-"))),
    # A type token in another case is a bad type, as in a JSON row.
    st.tuples(st.just("type"), _CELL_TEXT.filter(lambda text: text.strip() not in _CSV_TYPES)
              | st.sampled_from(_CSV_TYPES).flatmap(lambda kind: st.sampled_from((kind.upper(), kind.title())))),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 7), CSV_CELL_EDITS), min_size=1, max_size=4),
       cut=st.none() | st.integers(0, len(CSV_COLUMNS) - 1))
def test_edited_csv_book_runs_or_fails_naming_the_file_and_the_line(paths, capsys, tmp_path, edits, cut):
    # Cells of the fixture book are edited, and the last line may be cut off after its first ``cut`` cells. The run
    # succeeds, or fails with one error naming the file and an edited line; never a traceback.
    header, *rows = list(csv.reader(io.StringIO(Path(paths["portfolio"]).read_text(encoding="utf-8"))))
    for row, (column, text) in edits:
        rows[row][header.index(column)] = text
    edited_lines = {row + 2 for row, _ in edits}
    if cut is not None:
        rows[-1] = rows[-1][:cut]
        edited_lines.add(len(rows) + 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    book = tmp_path / "book.csv"
    book.write_text(out.getvalue(), encoding="utf-8")
    code = main(["compute", *market_args(paths), "--portfolio", str(book)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert captured.out == "" and captured.err.count("\n") == 1, captured.err
        named = re.match(f"error: {re.escape(str(book))}: line ([0-9]+): ", captured.err)
        assert named and int(named.group(1)) in edited_lines, captured.err


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

    @pytest.mark.parametrize("version", [7, 10**400])
    def test_schema_version_other_than_one_exits_two_naming_it(self, paths, capsys, tmp_path, version):
        # A file written for another schema used to be read as this one: "rulebook OK", exit 0.
        data = json.loads(Path(paths["rulebook"]).read_text())
        data["schema_version"] = version
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(data))
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"rulebook validation failed:\n  - schema_version must be 1, got {version!r}\n"

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
            "  - girr_tenor_params.theta must be a finite number above 0, got inf\n"
            "  - scenario_rules.high.scale must be a finite number above 0, got nan\n"
        )

    # A JSON integer past the float range, or Infinity where an integer belongs: each is named, as 1e400 is.
    HUGE_NUMBERS = {
        "bucket risk weight": (
            lambda d: d["buckets"][1].update(risk_weight=10**400),
            "buckets[1]: risk_weight must be in [0, 1] (enter fractions, not percent), got inf",
        ),
        "tenor risk weight": (
            lambda d: d["buckets"][0]["risk_weights_by_tenor"].update({"1": -(10**400)}),
            "buckets[0]: risk_weights_by_tenor['1'] must be in [0, 1] (enter fractions, not percent), got -inf",
        ),
        "bucket id": (lambda d: d["buckets"][1].update(id=math.inf), "buckets[1]: id must be an integer, got inf"),
        "intra correlation": (
            lambda d: d["intra_correlations"]["equity"].update({"7": 10**400}),
            "intra_correlations[equity]['7'] must be in [-1, 1], got inf",
        ),
        "cross default": (
            lambda d: d["cross_correlations"]["equity"].update(default=10**400),
            "cross_correlations[equity].default must be in [-1, 1], got inf",
        ),
        "cross pair value": (
            lambda d: d["cross_correlations"]["fx"]["pairs"].append({"b": 1, "c": 2, "value": 10**400}),
            "cross_correlations[fx].pairs[0]: value must be in [-1, 1], got inf",
        ),
        "cross pair bucket": (
            lambda d: d["cross_correlations"]["fx"]["pairs"].append({"b": math.inf, "c": 2, "value": 0.5}),
            "cross_correlations[fx].pairs[0]: b must be an integer, got inf",
        ),
        "tenor grid": (
            lambda d: d["tenor_grid"].__setitem__(0, 10**400),
            "tenor_grid[0] must be a finite number above 0, got inf",
        ),
        "scenario rule": (
            lambda d: d["scenario_rules"]["high"].update(scale=10**400),
            "scenario_rules.high.scale must be a finite number above 0, got inf",
        ),
        "tenor parameter": (
            lambda d: d["girr_tenor_params"].update(theta=-(10**400)),
            "girr_tenor_params.theta must be a finite number above 0, got -inf",
        ),
        "schema version": (lambda d: d.update(schema_version=math.inf), "schema_version must be an integer, got inf"),
    }

    @pytest.mark.parametrize("where", list(HUGE_NUMBERS))
    def test_number_past_the_float_range_exits_two_naming_it(self, paths, capsys, tmp_path, where):
        edit, violation = self.HUGE_NUMBERS[where]
        data = json.loads(Path(paths["rulebook"]).read_text())
        data["cross_correlations"]["fx"]["pairs"] = []
        edit(data)
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data))  # 10**400 as its 401 digits, math.inf as Infinity
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rulebook validation failed:\n")
        assert f"  - {violation}\n" in captured.err

    @pytest.mark.parametrize(
        "gap, violation",
        [
            ("equity bucket 7 rho", "equity bucket 7: no intra-bucket correlation tabulated"),
            ("commodity cross default", "commodity buckets (1, 2): no cross-bucket correlation, and no class default"),
        ],
    )
    def test_incomplete_rulebook_exits_two_naming_the_gap(self, paths, capsys, tmp_path, gap, violation):
        data = json.loads(Path(paths["rulebook"]).read_text())
        if gap == "equity bucket 7 rho":
            del data["intra_correlations"]["equity"]["7"]
        else:
            del data["cross_correlations"]["commodity"]["default"]
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps(data))
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"  - {violation}\n" in captured.err

    def test_second_residual_bucket_exits_two_naming_both(self, paths, capsys, tmp_path):
        # residual_bucket would return bucket 1, and unregistered issuers would take its 0.55, not 0.70.
        data = json.loads(Path(paths["rulebook"]).read_text())
        pos = next(i for i, b in enumerate(data["buckets"]) if (b["risk_class"], b["id"]) == ("equity", 1))
        data["buckets"][pos]["residual"] = True
        bad = tmp_path / "two_residual.json"
        bad.write_text(json.dumps(data))
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "rulebook validation failed:\n"
            "  - equity buckets 1, 11: more than one residual bucket in the class\n"
        )

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        code = main(["validate-rulebook", "--rulebook", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestWrongTypedSections:
    """A section or field of the wrong JSON type is named: a violation for the rulebook, an error line for the rest."""

    @pytest.mark.parametrize(
        "risk_class, field, bad, violation",
        [
            (None, "schema_version", "x", "schema_version must be an integer, got 'x'"),
            (None, "intra_correlations", [1], "intra_correlations must be an object, got [1]"),
            ("equity", "risk_weight", "abc", "{where}: risk_weight must be a number, got 'abc'"),
            ("equity", "sectors", 5, "{where}: sectors must be a list, got 5"),
            ("girr", "risk_weights_by_tenor", [1, 2], "{where}: risk_weights_by_tenor must be an object, got [1, 2]"),
            ("girr", "currencies", "USD", "{where}: currencies must be a list, got 'USD'"),
            ("commodity", "commodities", 5, "{where}: commodities must be a list, got 5"),
            ("equity", "residual", "false", "{where}: residual must be true or false, got 'false'"),
            # The equity bucket index is keyed by (economy, size), so neither may be a list.
            ("equity", "economy", ["advanced"], "{where}: economy must be a string, got ['advanced']"),
            ("equity", "size", 5, "{where}: size must be a string, got 5"),
            # float(), int() and str() used to read false as 0, "0.55" as 0.55, 1.7 as 1 and 5 as "5".
            ("equity", "risk_weight", False, "{where}: risk_weight must be a number, got False"),
            ("equity", "risk_weight", "0.55", "{where}: risk_weight must be a number, got '0.55'"),
            ("equity", "id", False, "{where}: id must be an integer, got False"),
            ("equity", "id", "7", "{where}: id must be an integer, got '7'"),
            ("equity", "id", 1.7, "{where}: id must be an integer, got 1.7"),
            ("equity", "description", 5, "{where}: description must be a string, got 5"),
            ("equity", "sectors", ["energy", 5], "{where}: sectors[1] must be a string, got 5"),
            ("girr", "currencies", [True], "{where}: currencies[0] must be a string, got True"),
            ("commodity", "commodities", [None], "{where}: commodities[0] must be a string, got None"),
            (None, ("buckets", 0, "risk_weights_by_tenor", "5"), False,
             "buckets[0]: risk_weights_by_tenor['5'] must be a number, got False"),
            (None, ("buckets", 0, "risk_weights_by_tenor", "5"), "0.55",
             "buckets[0]: risk_weights_by_tenor['5'] must be a number, got '0.55'"),
            (None, ("intra_correlations", "equity", "7"), False, "intra_correlations[equity]['7'] must be a number, got False"),
            (None, ("intra_correlations", "equity", "7"), "0.55",
             "intra_correlations[equity]['7'] must be a number, got '0.55'"),
            (None, ("cross_correlations", "equity", "default"), False,
             "cross_correlations[equity].default must be a number, got False"),
            (None, ("cross_correlations", "equity", "default"), "0.55",
             "cross_correlations[equity].default must be a number, got '0.55'"),
            (None, ("cross_correlations", "equity", "pairs", 0, "b"), 1.7,
             "cross_correlations[equity].pairs[0]: b must be an integer, got 1.7"),
            (None, ("cross_correlations", "equity", "pairs", 0, "c"), False,
             "cross_correlations[equity].pairs[0]: c must be an integer, got False"),
            (None, ("cross_correlations", "equity", "pairs", 0, "c"), "1",
             "cross_correlations[equity].pairs[0]: c must be an integer, got '1'"),
            (None, ("cross_correlations", "equity", "pairs", 0, "value"), False,
             "cross_correlations[equity].pairs[0]: value must be a number, got False"),
            (None, ("cross_correlations", "equity", "pairs", 0, "value"), "0.55",
             "cross_correlations[equity].pairs[0]: value must be a number, got '0.55'"),
            (None, ("tenor_grid", 0), False, "tenor_grid[0] must be a number, got False"),
            (None, ("tenor_grid", 0), "0.25", "tenor_grid[0] must be a number, got '0.25'"),
            (None, ("girr_tenor_params", "theta"), True, "girr_tenor_params.theta must be a number, got True"),
            (None, ("girr_tenor_params", "theta"), "0.03", "girr_tenor_params.theta must be a number, got '0.03'"),
            (None, ("scenario_rules", "high", "scale"), False, "scenario_rules.high.scale must be a number, got False"),
            (None, ("scenario_rules", "low", "affine_shift"), "-1",
             "scenario_rules.low.affine_shift must be a number, got '-1'"),
            (None, ("scenario_rules", "high"), 5, "scenario_rules.high must be an object, got 5"),
            (None, "schema_version", False, "schema_version must be an integer, got False"),
            (None, "schema_version", 1.7, "schema_version must be an integer, got 1.7"),
            (None, "version", 5, "version must be a string, got 5"),
            (None, "tenor_grid", 0.25, "tenor_grid must be a list, got 0.25"),
            (None, "buckets", 5, "buckets must be a list, got 5"),
            (None, ("buckets", 3), "equity", "buckets[3]: bucket must be an object, got 'equity'"),
        ],
    )
    def test_rulebook_field_is_a_violation(self, paths, capsys, tmp_path, risk_class, field, bad, violation):
        data = json.loads(Path(paths["rulebook"]).read_text())
        where = ""
        if risk_class is None:
            # A field of the top level, or the path to any value.
            *parents, last = field if isinstance(field, tuple) else (field,)
            target = data
            for key in parents:
                target = target[key]
            target[last] = bad
        else:
            pos = next(i for i, b in enumerate(data["buckets"]) if b["risk_class"] == risk_class)
            data["buckets"][pos][field] = bad
            where = f"buckets[{pos}]"
        path = tmp_path / "rulebook.json"
        path.write_text(json.dumps(data))
        code = main(["validate-rulebook", "--rulebook", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("rulebook validation failed:\n")
        assert f"  - {violation.format(where=where)}\n" in captured.err

    @pytest.mark.parametrize("section, bad", [("equity_prices", [1, 2]), ("fx_spots", 5), ("commodity_prices", "x")])
    def test_market_section_is_an_input_error(self, paths, capsys, tmp_path, section, bad):
        data = json.loads(Path(paths["market"]).read_text())
        data[section] = bad
        path = tmp_path / "market.json"
        path.write_text(json.dumps(data))
        code = main(["compute", *market_args({**paths, "market": str(path)}), "--portfolio", paths["portfolio"]])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {section} must be an object, got {bad!r}\n"
        )

    @pytest.mark.parametrize("bad", [5, {"XOM": {}}, "XOM"])
    def test_registry_issuers_is_an_input_error(self, paths, capsys, tmp_path, bad):
        path = tmp_path / "issuers.json"
        path.write_text(json.dumps({"schema_version": 1, "issuers": bad}))
        code = main(["compute", *market_args({**paths, "registry": str(path)}), "--portfolio", paths["portfolio"]])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: issuers must be a list, got {bad!r}\n"

    @pytest.mark.parametrize("bad", [5, None, [], "XOM"])
    def test_registry_issuer_row_that_is_not_an_object_is_an_input_error(self, paths, capsys, tmp_path, bad):
        path = tmp_path / "issuers.json"
        path.write_text(json.dumps({"schema_version": 1, "issuers": [bad]}))
        code = main(["compute", *market_args({**paths, "registry": str(path)}), "--portfolio", paths["portfolio"]])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: issuers[0]: issuer must be an object, got {bad!r}\n"

    @pytest.mark.parametrize("bad", [5, {"type": "equity"}, "equity"])
    def test_portfolio_positions_is_an_input_error(self, paths, capsys, tmp_path, bad):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps({"schema_version": 1, "positions": bad}))
        code = main(["compute", *market_args(paths), "--portfolio", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: positions must be a list, got {bad!r}\n"

    @pytest.mark.parametrize("source", ["market", "json_portfolio"])
    @pytest.mark.parametrize("bad", [20240101, ["2024"], {"date": "2024-06-28"}, True])
    def test_as_of_that_is_not_a_string_is_an_input_error(self, paths, capsys, tmp_path, source, bad):
        # A non-string as_of used to reach the report, which parse_report then rejected.
        data = json.loads(Path(paths[source]).read_text())
        data["as_of"] = bad
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        given = {**paths, source: str(path)}
        code = main(["compute", *market_args(given), "--portfolio", given["json_portfolio"],
                     "--format", "hierarchical"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {path}: as_of must be a string, got {bad!r}\n"

    @pytest.mark.parametrize(
        "source, where, bad, message",
        [
            ("json_portfolio", ("positions", 4, "shares"), True, "positions[4]: shares must be a number, got True"),
            ("json_portfolio", ("positions", 4, "shares"), "12", "positions[4]: shares must be a number, got '12'"),
            ("json_portfolio", ("positions", 6, "notional"), False, "positions[6]: notional must be a number, got False"),
            ("json_portfolio", ("positions", 2, "quantity"), "600", "positions[2]: quantity must be a number, got '600'"),
            ("json_portfolio", ("positions", 0, "maturity"), "5", "positions[0]: maturity must be a number, got '5'"),
            ("json_portfolio", ("positions", 0, "coupon_rate"), True, "positions[0]: coupon_rate must be a number, got True"),
            ("json_portfolio", ("positions", 0, "frequency"), True, "positions[0]: frequency must be an integer, got True"),
            ("market", ("equity_prices", "XOM"), True, "equity_prices['XOM'] must be a number, got True"),
            ("market", ("fx_spots", "EUR"), "1.08", "fx_spots['EUR'] must be a number, got '1.08'"),
            ("market", ("commodity_prices", "gold"), False, "commodity_prices['gold'] must be a number, got False"),
            ("market", ("zero_curve", 0, 0), True, "zero_curve[0] must be a number, got True"),
            ("market", ("zero_curve", 2, 1), "0.04", "zero_curve[2] must be a number, got '0.04'"),
            # An integer beyond the float range used to end in an OverflowError traceback here, and to be named
            # "int too large to convert to float" in a position.
            pytest.param("json_portfolio", ("positions", 5, "shares"), 10**400,
                         f"positions[5]: shares must be a finite number, got {10**400!r}", id="shares-beyond-float-range"),
            pytest.param("market", ("equity_prices", "T"), 10**400,
                         "equity_prices['T'] must be a finite number above 0, got inf", id="integer-beyond-float-range"),
            # These loaders used to read no schema_version, so a version-2 file was read as version 1 without a word.
            *((source, ("schema_version",), bad, message) for source in ("market", "registry", "json_portfolio")
              for bad, message in ((2, "schema_version must be 1, got 2"),
                                   (None, "schema_version must be an integer, got None"))),
            # A string field takes only a string: str() used to read null as "None" and 5 as "5".
            ("registry", ("issuers", 0, "sector"), None, "issuers[0]: sector must be a string, got None"),
            ("registry", ("issuers", 0, "issuer_id"), 5, "issuers[0]: issuer_id must be a string, got 5"),
            ("market", ("reporting_currency",), None, "reporting_currency must be a string, got None"),
            ("json_portfolio", ("positions", 6, "currency"), 5, "positions[6]: currency must be a string, got 5"),
            ("json_portfolio", ("positions", 4, "issuer_id"), None, "positions[4]: issuer_id must be a string, got None"),
        ],
    )
    def test_number_field_that_is_not_a_json_number_is_an_input_error(
        self, paths, capsys, tmp_path, source, where, bad, message
    ):
        # float() used to read true as 1.0 and "12" as 12.0.
        data = json.loads(Path(paths[source]).read_text())
        *parents, last = where
        target = data
        for key in parents:
            target = target[key]
        target[last] = bad
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        given = {**paths, source: str(path)}
        code = main(["compute", *market_args(given), "--portfolio", given["json_portfolio"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_false_risk_weight_is_a_violation_not_a_zero_weight(self, paths, capsys, tmp_path):
        # float(False) is 0.0: compute used to exit 0 with 377,269.05 where the fixture book needs 772,695.14.
        data = json.loads(Path(paths["rulebook"]).read_text())
        pos = next(i for i, b in enumerate(data["buckets"]) if (b["risk_class"], b["id"]) == ("equity", 7))
        data["buckets"][pos]["risk_weight"] = False
        path = tmp_path / "rulebook.json"
        path.write_text(json.dumps(data))
        code = main(["compute", *market_args({**paths, "rulebook": str(path)}), "--portfolio", paths["portfolio"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"  - buckets[{pos}]: risk_weight must be a number, got False\n" in captured.err

    @pytest.mark.parametrize("loader", ["json", "csv"])
    @pytest.mark.parametrize("bad", ["2.7", "0.5", "1.0000001"])
    def test_fractional_bond_frequency_is_an_input_error(self, paths, capsys, tmp_path, loader, bad):
        # int() used to truncate 2.7 to 2 and change the cash flows with no message.
        if loader == "json":
            data = json.loads(Path(paths["json_portfolio"]).read_text())
            data["positions"][0]["frequency"] = float(bad)
            path, where = tmp_path / "portfolio.json", "positions[0]"
            path.write_text(json.dumps(data))
        else:
            lines = Path(paths["portfolio"]).read_text().splitlines(keepends=True)
            lines[1] = lines[1].replace(",5,1,USD,", f",5,{bad},USD,")
            path, where = tmp_path / "portfolio.csv", "line 2"
            path.write_text("".join(lines))
        code = main(["compute", *market_args(paths), "--portfolio", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {path}: {where}: frequency must be an integer, got {bad}\n"

    @pytest.mark.parametrize("loader", ["json", "csv"])
    def test_integral_float_frequency_reads_as_the_integer(self, paths, capsys, tmp_path, loader):
        source = "json_portfolio" if loader == "json" else "portfolio"
        assert main(["compute", *market_args(paths), "--portfolio", paths[source]]) == 0
        expected = capsys.readouterr().out
        if loader == "json":
            data = json.loads(Path(paths[source]).read_text())
            for row in data["positions"]:
                if row["type"] == "bond":
                    row["frequency"] = float(row["frequency"])
            path = tmp_path / "portfolio.json"
            path.write_text(json.dumps(data))
        else:
            path = tmp_path / "portfolio.csv"
            path.write_text(Path(paths[source]).read_text().replace(",1,USD,", ",1.0,USD,"))
        assert main(["compute", *market_args(paths), "--portfolio", str(path)]) == 0
        assert capsys.readouterr().out == expected

    def test_null_as_of_falls_back_to_the_market_date(self, paths, capsys, tmp_path):
        data = json.loads(Path(paths["json_portfolio"]).read_text())
        data["as_of"] = None
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps(data))
        code = main(["compute", *market_args(paths), "--portfolio", str(path), "--format", "hierarchical"])
        assert code == 0
        assert parse_report(capsys.readouterr().out).as_of == "2024-06-28"


GOLDEN_CASES = Path(__file__).resolve().parent / "golden" / "cases_seed7_n8.json"
GOLDEN_CANDIDATE = Path(__file__).resolve().parent / "golden" / "candidate_seed7_n8.json"
GOLDEN_SENSITIVITIES = Path(__file__).resolve().parent / "golden" / "fixture_sensitivities.csv"

# Each JSON input file the CLI reads: the command that reads it from ``path``, and what its top level is called.
JSON_INPUTS = {
    "rulebook": (lambda paths, path: ["validate-rulebook", "--rulebook", path], "rulebook document"),
    "market": (
        lambda paths, path: ["compute", *market_args({**paths, "market": path}), "--portfolio", paths["portfolio"]],
        "top level",
    ),
    "registry": (
        lambda paths, path: ["compute", *market_args({**paths, "registry": path}), "--portfolio", paths["portfolio"]],
        "top level",
    ),
    "portfolio": (lambda paths, path: ["compute", *market_args(paths), "--portfolio", path], "top level"),
    "cases": (lambda paths, path: ["score", "--cases", path, "--candidate", path], "top level"),
    "candidate": (lambda paths, path: ["score", "--cases", str(GOLDEN_CASES), "--candidate", path], "top level"),
    "prompt spec": (lambda paths, path: ["render-prompt", "--spec", path], "prompt spec"),
}


HUGE = "1" * 5001  # more digits than Python turns into an int by default (4300)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{\n  "a":\n}', "invalid JSON at line 3 column 1: Expecting value"),
        ("[1, 2]", "{what} must be a JSON object"),
        ('"text"', "{what} must be a JSON object"),
        (f'{{"schema_version": {HUGE}}}', f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"),
        (f'{{"a": [1,, {HUGE}]}}', "invalid JSON at line 1 column 10: Expecting value"),
        ("[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
    ],
    ids=["invalid", "list", "string", "huge integer", "invalid before a huge integer", "deep nesting"],
)
@pytest.mark.parametrize("source", list(JSON_INPUTS))
def test_unreadable_json_input_is_an_input_error_naming_the_file(paths, capsys, tmp_path, source, text, message):
    # Every JSON loader reads its file one way, so each message names the path (and the line and column).
    command, what = JSON_INPUTS[source]
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main(command(paths, str(path)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message.format(what=what)}\n"


@pytest.mark.parametrize("source", [*JSON_INPUTS, "csv portfolio"])
def test_input_that_is_not_utf8_is_an_input_error_naming_the_byte(paths, capsys, tmp_path, source):
    # A Latin-1 "é" in a CSV row, a 0xff byte in a JSON string: the message names the first bad byte.
    if source == "csv portfolio":
        path, head, bad = tmp_path / "input.csv", Path(paths["portfolio"]).read_bytes() + b"equity,caf", 0xE9
        command = ["compute", *market_args(paths), "--portfolio", str(path)]
    else:
        path, head, bad = tmp_path / "input.json", b'{"name": "', 0xFF
        command = JSON_INPUTS[source][0](paths, str(path))
    path.write_bytes(head + bytes([bad]) + b'"}\n')
    code = main(command)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text: byte 0x{bad:02x} at offset {len(head)}\n"


# The command that reads each CLI input from ``path``, by its key in ``paths`` (the CSV book is "portfolio"), for the
# damage property below.
DAMAGED_INPUTS = {
    "rulebook": lambda paths, path: [
        "compute", *market_args({**paths, "rulebook": path}), "--portfolio", paths["json_portfolio"]],
    "market": lambda paths, path: [
        "compute", *market_args({**paths, "market": path}), "--portfolio", paths["json_portfolio"]],
    "registry": lambda paths, path: [
        "compute", *market_args({**paths, "registry": path}), "--portfolio", paths["json_portfolio"]],
    "json_portfolio": lambda paths, path: [
        "compute", *market_args(paths), "--portfolio", path, "--format", "hierarchical"],
    "portfolio": lambda paths, path: ["dump-sensitivities", *market_args(paths), "--portfolio", path],
    "cases": lambda paths, path: ["score", "--cases", path, "--candidate", paths["candidate"]],
    "candidate": lambda paths, path: [
        "score", "--cases", paths["cases"], "--candidate", path, "--format", "hierarchical"],
    "prompt": lambda paths, path: ["render-prompt", "--spec", path],
}
# A value to replace: a number, or in JSON also a string that is not a key.
NUMBER = rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
JSON_VALUE = re.compile(rb'"(?:[^"\\]|\\.)*"(?!\s*:)|' + NUMBER)
ODD_VALUES = (b"1e400", b"NaN", b"Infinity", b"1e308", b"0", b'""', b"{}", b"null")
DEEP = b"[" * 5000 + b"1" + b"]" * 5000
LONG = b"x" * 200_000  # past the csv module's field limit of 131,072 characters


@st.composite
def damaged(draw, text: bytes, is_json: bool) -> bytes:
    """``text`` with one edit: cut short, one bit of one byte flipped, or one value replaced (by 200,000 characters,
    quoted in JSON and a bare cell in CSV, or in JSON maybe by arrays nested 5,000 deep)."""
    edit = draw(st.sampled_from(("truncate", "flip", "replace", "long", *(("nest",) if is_json else ()))))
    if edit == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if edit == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + bytes([text[i] ^ 1 << draw(st.integers(0, 7))]) + text[i + 1:]
    values = [m.span() for m in (JSON_VALUE if is_json else re.compile(NUMBER)).finditer(text)]
    start, end = draw(st.sampled_from(values))
    if edit == "replace":
        value = draw(st.sampled_from(ODD_VALUES))
    elif edit == "long":
        value = b'"' + LONG + b'"' if is_json else LONG
    else:
        value = DEEP
    return text[:start] + value + text[end:]


@pytest.mark.parametrize("source", list(DAMAGED_INPUTS))
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_input_runs_or_fails_with_one_error_never_a_traceback(paths, capsys, tmp_path, source, data):
    # One edit to one input file: the run succeeds, fails with exactly one error line, or for a rulebook lists its
    # violations. Nothing ends in a traceback.
    paths = {**paths, "cases": str(GOLDEN_CASES), "candidate": str(GOLDEN_CANDIDATE)}
    path = tmp_path / ("input.csv" if source == "portfolio" else "input.json")
    path.write_bytes(data.draw(damaged(Path(paths[source]).read_bytes(), source != "portfolio"), label="text"))
    code = main(DAMAGED_INPUTS[source](paths, str(path)))
    captured = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in captured.err, captured.err
    if code == 1:
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    if code == 2:
        assert source == "rulebook" and captured.err.startswith("rulebook validation failed:\n"), captured.err


def json_leaves(value, path=()):
    """(path, value) of each number and string in a JSON document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_leaves(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_leaves(item, (*path, i))
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        yield path, value


# Top-level fields no loader reads, so a value of any type passes.
UNREAD_FIELDS = {
    ("candidate", ("schema_version",)),
    ("candidate", ("source_label",)),
}


def test_every_json_value_of_the_wrong_type_is_an_input_error_or_a_violation(paths, capsys, tmp_path):
    # Each number of each JSON input becomes true and each string 5, one at a time; float(), int() and str()
    # would read true as 1 and 5 as "5". Every loader must refuse each, naming the file or the violation.
    # A rulebook value is one violation that names it: a rejected value is not reported again as missing.
    candidate = tmp_path / "candidate.json"
    candidate.write_text(render_candidate(reference_candidate(load_cases(GOLDEN_CASES))))
    commands = {
        "rulebook": lambda path: ["validate-rulebook", "--rulebook", path],
        "market": lambda path: ["compute", *market_args({**paths, "market": path}), "--portfolio", paths["json_portfolio"]],
        "registry": lambda path: ["compute", *market_args({**paths, "registry": path}), "--portfolio", paths["json_portfolio"]],
        "json_portfolio": lambda path: ["compute", *market_args(paths), "--portfolio", path],
        "cases": lambda path: ["score", "--cases", path, "--candidate", str(candidate)],
        "candidate": lambda path: ["score", "--cases", str(GOLDEN_CASES), "--candidate", path],
    }
    sources = {**paths, "cases": str(GOLDEN_CASES), "candidate": str(candidate)}
    accepted = set()
    for source, command in commands.items():
        original = json.loads(Path(sources[source]).read_text())
        assert main(command(sources[source])) == 0, source
        capsys.readouterr()
        path = tmp_path / f"{source}.json"
        for where, value in json_leaves(original):
            data = json.loads(json.dumps(original))
            target = data
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = 5 if isinstance(value, str) else True
            path.write_text(json.dumps(data))
            code = main(command(str(path)))
            captured = capsys.readouterr()
            if code == 0:
                accepted.add((source, where))
                continue
            assert captured.out == "", (source, where)
            if code == 2:
                assert source == "rulebook" and captured.err.startswith("rulebook validation failed:\n  - "), where
                leaf = ".*".join(re.escape(f"[{key}]" if isinstance(key, int) else key) for key in where)
                assert captured.err.count("\n") == 2 and re.search(leaf, captured.err.splitlines()[1]), captured.err
            else:
                assert code == 1 and captured.err.startswith(f"error: {path}: "), (source, where, captured.err)
                assert captured.err.count("\n") == 1, (source, where)
    assert accepted == UNREAD_FIELDS


def json_nodes(value, path=()):
    """(path, value) of each object member and list item of a JSON document, in document order, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield (*path, key), item
        yield from json_nodes(item, (*path, key))


def dropped_or_nulled(document):
    """(path, drop, edited copy) for each key of ``document`` dropped and each value nulled, one edit at a time."""
    for where, _ in json_nodes(document):
        for drop in (False, True) if isinstance(where[-1], str) else (False,):
            data = json.loads(json.dumps(document))
            target = data
            for key in where[:-1]:
                target = target[key]
            if drop:
                del target[where[-1]]
            else:
                target[where[-1]] = None
            yield where, drop, data


# The keys whose drop or null leaves a valid input, by input and edit: an optional field, a quote or answer the run
# does not need, the gamma table of a class with one bucket, or a field no loader reads. The rulebook reads null as absent.
RULEBOOK_OPTIONAL = {"version", "schema_version", "girr_tenor_params", "theta", "floor", "scenario_rules", "high", "low",
                     "scale", "cap", "affine_scale", "affine_shift", "description", "economy", "size", "sectors",
                     "currencies", "commodities", "residual", "pairs", "default"}
UNUSED_QUOTES = {"MSFT", "JPM", "WMT", "BA", "PBR", "VALE", "NWCO", "RGNL", "GBP", "CHF", "silver", "natural_gas",
                 "copper", "wheat", "coffee", "live_cattle"}
ACCEPTED_EDITS = {
    ("rulebook", "drop"): RULEBOOK_OPTIONAL | {"girr"},
    ("rulebook", "null"): RULEBOOK_OPTIONAL,
    ("market", "drop"): {"schema_version", "as_of", *UNUSED_QUOTES},
    ("market", "null"): {"as_of"},
    ("registry", "drop"): {"schema_version", "name"},
    ("json_portfolio", "drop"): {"schema_version", "as_of", "coupon_rate", "frequency", "id", "unit"},
    ("json_portfolio", "null"): {"as_of"},
    ("cases", "drop"): {"schema_version", "tenor", "coupon_rate", "frequency", "unit", *AXES},
    ("cases", "null"): {"tenor", *AXES},
    ("candidate", "drop"): {"schema_version", "source_label", *AXES, *(f"case-{i:03d}" for i in range(1, 9))},
    ("candidate", "null"): {"schema_version", "source_label", *AXES},
}


def test_every_dropped_key_or_null_value_is_an_input_error_or_a_violation(paths, capsys, tmp_path):
    # Each key of each JSON input is dropped, and each value nulled, one at a time. A file that is no longer valid
    # is exit 1 with one error naming the file and the path (a dropped key reads "missing field 'x'"), or for the
    # rulebook exit 2 and its violations; never a traceback. A file still valid runs, if the key may be left out.
    candidate = tmp_path / "candidate.json"
    candidate.write_text(render_candidate(reference_candidate(load_cases(GOLDEN_CASES))))
    commands = {
        "rulebook": lambda path: ["validate-rulebook", "--rulebook", path],
        "market": lambda path: ["compute", *market_args({**paths, "market": path}), "--portfolio", paths["json_portfolio"]],
        "registry": lambda path: ["compute", *market_args({**paths, "registry": path}), "--portfolio", paths["json_portfolio"]],
        "json_portfolio": lambda path: ["compute", *market_args(paths), "--portfolio", path],
        "cases": lambda path: ["score", "--cases", path, "--candidate", str(candidate)],
        "candidate": lambda path: ["score", "--cases", str(GOLDEN_CASES), "--candidate", path],
        "prompt": lambda path: ["render-prompt", "--spec", path],
    }
    sources = {**paths, "cases": str(GOLDEN_CASES), "candidate": str(candidate)}
    accepted, edits = {}, 0
    for source, command in commands.items():
        original = json.loads(Path(sources[source]).read_text())
        path = tmp_path / f"{source}.json"
        for where, drop, data in dropped_or_nulled(original):
            path.write_text(json.dumps(data))
            code = main(command(str(path)))
            captured = capsys.readouterr()
            edit, edits = (source, where, "drop" if drop else "null"), edits + 1
            if code == 0:
                accepted.setdefault(edit[::2], set()).add(next(k for k in reversed(where) if isinstance(k, str)))
                continue
            assert captured.out == "", edit
            if code == 2:
                assert source == "rulebook" and captured.err.startswith("rulebook validation failed:\n  - "), edit
                continue
            assert code == 1 and captured.err.count("\n") == 1, (edit, captured.err)
            if source == "market" and drop and where[0] != "reporting_currency" and "position(s) failed" in captured.err:
                continue  # a valid snapshot without a quote the book needs fails at valuation
            assert captured.err.startswith(f"error: {path}: "), (edit, captured.err)
            # A [tenor, rate] pair is named by its index.
            named = where[:2] if where[0] == "zero_curve" else where
            leaf = ".*".join(re.escape(f"[{k}]" if isinstance(k, int) else k) for k in named)
            if source == "prompt":  # a prompt element missing, null or blank is one error naming it
                leaf = re.escape(f"prompt element '{where[-1]}' must be a non-empty string")
            elif drop:
                leaf = leaf[: -len(re.escape(where[-1]))] + re.escape(f"missing field '{where[-1]}'")
            assert re.search(leaf, captured.err), (edit, captured.err)
    assert accepted == ACCEPTED_EDITS
    assert edits > 1000  # about 1,400


def test_every_dropped_key_or_null_value_of_a_report_is_a_format_error_naming_it():
    # The same walk over the golden envelope report, read back by parse_report: a report no longer valid raises
    # ReportFormatError naming the path, field by field, list index by index and key by key.
    original = json.loads((GOLDEN_CASES.parent / "fixture_envelope.json").read_text())
    accepted, edits = set(), 0
    for where, drop, data in dropped_or_nulled(original):
        edits += 1
        try:
            parse_report(json.dumps(data))
        except ReportFormatError as exc:
            message = str(exc)
        else:
            accepted.add(("drop" if drop else "null", where[-1] if isinstance(where[-1], str) else where[-2]))
            continue
        assert message.startswith("not a valid hierarchical capital report: "), (where, message)
        leaf = ".*".join(re.escape(f"[{k}]" if isinstance(k, int) else k) for k in where)
        if drop:
            leaf = leaf[: -len(re.escape(where[-1]))] + re.escape(f"missing field '{where[-1]}'") + "$"
        assert re.search(leaf, message), (where, message)
    # Optional fields, a null tenor, and a scenario or class left out of its dict.
    assert accepted == {("drop", "as_of"), ("null", "as_of"), ("drop", "warnings"), ("drop", "schema_version"),
                        ("null", "tenor"), *(("drop", token) for token in ("low", "medium", "high")),
                        *(("drop", rc.value) for rc in RiskClass)}
    assert edits > 600  # about 700


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

    def test_gen_cases_gives_the_golden_bytes(self, paths, capsys, tmp_path):
        candidate = tmp_path / "candidate.json"
        code = main(["gen-cases", *market_args(paths), "--seed", "7", "--n", "8", "--emit-reference-candidate", str(candidate)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.encode("utf-8") == GOLDEN_CASES.read_bytes()
        assert candidate.read_bytes() == GOLDEN_CANDIDATE.read_bytes()

    @pytest.mark.parametrize("fmt, golden", [("human", "score_seed7_n8.txt"), ("hierarchical", "score_seed7_n8.json")])
    def test_score_gives_the_golden_bytes(self, capsys, fmt, golden):
        code = main(["score", "--cases", str(GOLDEN_CASES), "--candidate", str(GOLDEN_CANDIDATE), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.encode("utf-8") == (GOLDEN_CASES.parent / golden).read_bytes()

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

    def test_score_boolean_bucket_is_input_error(self, paths, capsys, tmp_path):
        cases = tmp_path / "cases.json"
        main(["gen-cases", *market_args(paths), "--seed", "11", "--n", "4", "--out", str(cases)])
        capsys.readouterr()
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps({"answers": {"case-001": {"bucket": True}}}))
        code = main(["score", "--cases", str(cases), "--candidate", str(candidate)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {candidate}: malformed candidate answers: answers['case-001']: bucket must be a number, got True\n"
        )

    def test_case_set_of_another_schema_version_is_input_error(self, capsys, tmp_path):
        # A case set written for another schema used to load as this one, and was written back with its version.
        data = json.loads(GOLDEN_CASES.read_text())
        data["schema_version"] = 2
        cases = tmp_path / "cases.json"
        cases.write_text(json.dumps(data))
        code = main(["score", "--cases", str(cases), "--candidate", str(GOLDEN_CANDIDATE)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {cases}: malformed case set: schema_version must be 1, got 2\n"

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"role": ', "invalid JSON at line 1 column 10: Expecting value"),
            ('["role"]', "prompt spec must be a JSON object"),
        ],
    )
    def test_unreadable_spec_is_input_error_naming_the_file(self, capsys, tmp_path, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code = main(["render-prompt", "--spec", str(spec)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"


class TestDumpSensitivities:
    def test_fixture_json_book_gives_the_golden_bytes(self, paths, capsys):
        code = main(["dump-sensitivities", *market_args(paths), "--portfolio", paths["json_portfolio"]])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.encode("utf-8") == GOLDEN_SENSITIVITIES.read_bytes()

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
        args = diagnostic_args(paths, tmp_path)
        assert main(["dump-sensitivities", *args]) == 0
        err = capsys.readouterr().err
        assert err == DIAGNOSTIC_LINES
        assert main(["compute", *args]) == 0
        assert capsys.readouterr().err == err


def diagnostic_args(paths, tmp_path):
    """CLI input options for a book with a residual-bucket note and two extrapolation notes.

    An unregistered issuer lands in the residual bucket; a 32y annual bond has
    flows beyond the 30y last pillar.
    """
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
    return ["--rulebook", paths["rulebook"], "--market", str(market_path), "--registry", paths["registry"],
            "--portfolio", str(portfolio)]


DIAGNOSTIC_LINES = (
    "warning: issuer 'ACME' not in registry; assigned to residual bucket 11\n"
    "warning: zero rate at t=31 beyond last pillar 30, extrapolating flat\n"
    "warning: zero rate at t=32 beyond last pillar 30, extrapolating flat\n"
)


def test_diagnostics_travel_as_data_not_through_the_warnings_module(paths, capsys, tmp_path, monkeypatch):
    # Python's warning filters are process-global: neither compute_capital nor
    # CLI compute may change them, enter catch_warnings or emit a warning.
    args = diagnostic_args(paths, tmp_path)
    files = dict(zip(args[::2], args[1::2]))
    inputs = (load_portfolio(files["--portfolio"]), load_market_data(files["--market"]),
              load_registry(files["--registry"]), load_rulebook(files["--rulebook"]))
    used = []

    def spy(name, fn):
        def wrapper(*a, **k):
            used.append(name)
            return fn(*a, **k)
        return wrapper

    catch_warnings = warnings.catch_warnings
    monkeypatch.setattr(warnings, "warn", spy("warn", warnings.warn))
    monkeypatch.setattr(warnings, "catch_warnings", spy("catch_warnings", catch_warnings))
    with catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        report = compute_capital(*inputs)
        assert warnings.filters == filters
        assert main(["compute", *args]) == 0
        assert warnings.filters == filters
    assert caught == [] and used == []
    assert report.warnings == tuple(line[len("warning: "):] for line in DIAGNOSTIC_LINES.splitlines())
    assert capsys.readouterr().err == DIAGNOSTIC_LINES


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
