"""Wrappers at the sbmcap module boundaries, installed only in traced runs.

Each boundary is a public function or method of one layer. A wrapper counts
calls and busy seconds; the coarse boundaries (loads, collect, envelope,
compute, render, harness) also record spans (name, start, end, parent) in
memory, written out when the run ends. The hot per-factor boundaries
(correlation and weight lookups, valuation, bucket assignment, curve builds)
are counted only: a span per call would hold hundreds of thousands of tuples
per compute_capital call.

A wrapped function is rebound in its own module and in every sbmcap module
that imported it by name (``sensitivities`` imports ``value`` and
``assign_bucket`` from ``portfolio``, for example). A boundary that no longer
exists is reported as missing, not as an error.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path, spanned). Counted-only boundaries are the hot ones.
BOUNDARIES = (
    ("sbmcap.rulebook", "load_rulebook", True),
    ("sbmcap.rulebook", "Rulebook.intra_correlation", False),
    ("sbmcap.rulebook", "Rulebook.cross_correlation", False),
    ("sbmcap.rulebook", "Rulebook.risk_weight", False),
    ("sbmcap.portfolio", "load_portfolio", True),
    ("sbmcap.portfolio", "load_market_data", True),
    ("sbmcap.portfolio", "load_registry", True),
    ("sbmcap.portfolio", "value", False),
    ("sbmcap.portfolio", "assign_bucket", False),
    ("sbmcap.sensitivities", "collect_sensitivities", True),
    ("sbmcap.sensitivities", "tent_bumped_curve", False),
    ("sbmcap.sensitivities", "net_records", False),
    ("sbmcap.aggregation", "scenario_envelope", True),
    ("sbmcap.engine", "compute_capital", True),
    ("sbmcap.engine", "render_report", True),
    ("sbmcap.harness", "generate_cases", True),
    ("sbmcap.harness", "score_extraction", True),
)


def boundary_name(module: str, attr: str) -> str:
    """Metric prefix of a boundary, e.g. ``rulebook.intra_correlation``."""
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Tracer:
    """Counters and spans of one traced run."""

    calls: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    # Sizes seen at net_records: (raw records in, netted factors out) of the last call.
    last_netting: tuple[int, int] = (0, 0)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        """Wrap every boundary; counters and spans accumulate across installs."""
        for module_name, attr, spanned in BOUNDARIES:
            name = boundary_name(module_name, attr)
            self.calls.setdefault(name, 0)
            self.seconds.setdefault(name, 0.0)
            module = sys.modules.get(module_name)
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, fn_name, None) if holder is not None else None
            if not callable(original):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, spanned)
            self._rebind(holder, fn_name, wrapper)
            if not owner:
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "sbmcap" or mod_name.startswith("sbmcap.")) and mod is not holder:
                        for key, val in list(vars(mod).items()):
                            if val is original:
                                self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.seconds)

    def span(self, name: str):
        """Context manager recording a span from the benchmark's own code."""
        return _Span(self, name)

    def _rebind(self, holder: object, key: str, value: object) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def _wrap(self, name: str, fn, spanned: bool):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        if name == "sensitivities.net_records":
            @functools.wraps(fn)
            def netting(records, *args, **kwargs):
                start = clock()
                out = fn(records, *args, **kwargs)
                seconds[name] += clock() - start
                calls[name] += 1
                self.last_netting = (len(records), len(out))
                return out
            return netting

        if not spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += clock() - start
                    calls[name] += 1
            return counted

        @functools.wraps(fn)
        def spanned_call(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)
        return spanned_call


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append((self.name, 0.0, 0.0, self.parent))
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, self.parent)
        if self.name in t.calls:
            t.calls[self.name] += 1
            t.seconds[self.name] += end - self.start
        return False
