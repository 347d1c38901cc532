"""Write reference.json: the envelope total_capital of every default-seed book.

    python3 perfbench/make_reference.py

Every benchmark run checks the default-seed books against this file to 1e-9
relative, so a change that moves capital shows as failed operations. Rerun
it only when the capital figures are meant to change, and say why.
"""

from __future__ import annotations

import json
import sys
import tempfile

import gen
from run import DEFAULT_SEED, REFERENCE, SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    from sbmcap import compute_capital, load_market_data, load_portfolio, load_registry, load_rulebook

    WORK.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in gen.WORKLOADS:
            inputs = gen.write_inputs(workload, DEFAULT_SEED, gen.Path(tmp) / workload)
            rb, md = load_rulebook(inputs.rulebook), load_market_data(inputs.market)
            registry = load_registry(inputs.registry)
            reference[workload] = {
                path.name: compute_capital(load_portfolio(path), md, registry, rb).total_capital for path in inputs.books
            }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
