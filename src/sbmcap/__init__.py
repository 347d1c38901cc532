"""Sensitivities-based market risk capital engine (delta risk).

Data-driven implementation of the Basel III standardised approach delta
aggregation (BCBS d352) for GIRR, equity, FX, and commodity risk, plus an
extraction-scoring harness for evaluating how reliably a reader (human or
model) pulls buckets, weights, correlations, and capital numbers out of the
rulebook.

The package exports the README's Python API; everything else is imported
from its submodule (``sbmcap.aggregation``, ``sbmcap.harness``, ...).
"""

from .engine import CapitalReport, compute_capital, parse_report, render_report
from .portfolio import load_market_data, load_portfolio, load_registry
from .rulebook import load_rulebook

__version__ = "0.1.0"

__all__ = [
    "CapitalReport",
    "compute_capital",
    "load_market_data",
    "load_portfolio",
    "load_registry",
    "load_rulebook",
    "parse_report",
    "render_report",
]
