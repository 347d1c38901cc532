from __future__ import annotations

from pathlib import Path

import pytest

from sbmcap import load_market_data, load_portfolio, load_registry, load_rulebook

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory) -> Path:
    """A directory a hypothesis test rewrites its files in, example after example."""
    return tmp_path_factory.mktemp("files")


@pytest.fixture(scope="session")
def rb():
    return load_rulebook(FIXTURES_DIR / "rulebook.json")


@pytest.fixture(scope="session")
def market():
    return load_market_data(FIXTURES_DIR / "market.json")


@pytest.fixture(scope="session")
def registry():
    return load_registry(FIXTURES_DIR / "issuers.json")


@pytest.fixture(scope="session")
def reference_portfolio():
    return load_portfolio(FIXTURES_DIR / "portfolio.csv")


@pytest.fixture(scope="session")
def equity_portfolio():
    return load_portfolio(FIXTURES_DIR / "portfolio_equity.csv")
