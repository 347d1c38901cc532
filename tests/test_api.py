"""The package's public names and the README's Python API example."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sbmcap
import sbmcap.engine

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = Path(__file__).resolve().parent.parent / "src" / "sbmcap"
BENCHMARK_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_exported_name_resolves():
    assert sbmcap.__all__
    for name in sbmcap.__all__:
        assert getattr(sbmcap, name) is not None, name


def test_readme_python_api_snippet_runs_on_the_fixtures(monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = set(re.findall(r"\w+", snippet.split("from sbmcap import", 1)[1].split(")", 1)[0]))
    assert imported <= set(sbmcap.__all__)
    monkeypatch.chdir(README.parent)
    exec(compile(snippet, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("772695.14")
    assert "Capital requirement: 772,695.14 USD" in out


def test_engine_imports_only_the_standard_library():
    # Relative imports (level > 0) stay inside the package; every absolute one must be stdlib.
    foreign = []
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{source.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_engine_reports_diagnostics_without_the_warnings_module():
    # Diagnostics are returned as data; Python's process-global warning filters stay out of the engine.
    found = []
    for source in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{source.name}:{node.lineno}" for alias in node.names if alias.name == "warnings"]
            elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
                found.append(f"{source.name}:{node.lineno}")
    assert found == []


@pytest.fixture()
def layers(monkeypatch):
    """The benchmark's boundary wrappers (perfbench/layers.py), loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", BENCHMARK_LAYERS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_boundary_resolves(layers):
    # The benchmark's traced runs wrap these names; one deleted or renamed here would read 0 there.
    assert layers.BOUNDARIES
    missing = []
    for module_name, attr, _ in layers.BOUNDARIES:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_compute_capital_passes_each_spanned_layer_once(layers, rb, market, registry, reference_portfolio):
    # The traced run splits a compute_capital call into collect, envelope and the rest by these spans;
    # a second pass through either, or a bypass, would make that split meaningless.
    tracer = layers.Tracer()
    tracer.install()
    try:
        sbmcap.engine.compute_capital(reference_portfolio, market, registry, rb)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    spans = [name for name, *_ in tracer.spans]
    assert spans == ["engine.compute_capital", "sensitivities.collect_sensitivities", "aggregation.scenario_envelope"]
    assert [parent for *_, parent in tracer.spans] == [-1, 0, 0]
    assert tracer.calls["rulebook.risk_weight"] == 8  # one per netted factor: six spot buckets, two GIRR tenors


def test_benchmark_self_test_passes():
    # The benchmark runs the engine and the CLI on tiny inputs (about ten seconds), so a name it calls
    # that is renamed or deleted here fails this test rather than the benchmark's own run.
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=README.parent, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr[-4000:]
