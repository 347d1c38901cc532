"""sbmcap benchmark: seeded workloads run as a closed loop from one client in one process.

    python3 perfbench/run.py --workload equity-concentrated --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository; the engine is imported from ``src/``
and the CLI is started as ``python -m sbmcap.cli`` with ``src`` on
PYTHONPATH. Inputs are generated from ``--seed`` (see gen.py) into a scratch
directory under ``.perfbench/`` that is removed at exit; a record of the run
(sample counts, machine-speed probe, error rate, spans when traced) is left
in ``.perfbench/``.

Each run splits ``--seconds`` over four phases, each timing the benchmark's
own calls into the public API: set-up (the four loaders), the capital loop
(one ``compute_capital`` call per book, cycling through the books), the
harness (``generate_cases`` then ``score_extraction`` of the reference
candidate) and the CLI in a fresh interpreter. Capital, harness and CLI
times are reported at their 75th percentile over the run (see QUANTILE),
set-up time as the median of many set-ups; the run record also keeps the
medians and means. With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
measured with wrappers at the module boundaries (layers.py). Every
operation is checked and a failed check counts as a failed operation;
``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import gen
import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 1
CASES_PER_CHUNK = 100
REL_TOL = 1e-9
CHILD_TIMEOUT_S = 120
SCENARIO_TOKENS = ("low", "medium", "high")

# Share of --seconds given to each kind of operation. The capital loop gets the largest
# share; the harness gets enough for about 200 chunks of 100 two-position cases.
PHASES = {
    "equity-concentrated": {"setup": 0.04, "capital": 0.50, "cases": 0.16, "cli": 0.30},
    "bond-ladder": {"setup": 0.04, "capital": 0.45, "cases": 0.21, "cli": 0.30},
}

# Capital, harness and CLI times are reported at this percentile of a run's samples. On a
# shared host the speed of one call switches between a fast state and a commoner slow
# one for seconds at a time, with bursts of a third, much slower one. The share of each
# moves from run to run: a median jumps between the first two states as the slow share
# crosses one half, a mean follows the bursts, while the 75th percentile stays inside
# the commonest state. It also keeps ten samples beyond it: about 25 CLI runs and 70
# equity-concentrated capital calls fit in a run, too few for p90.
QUANTILE = 75
END_TO_END = {
    f"capital_s.p{QUANTILE}": "s",
    f"cases_per_s.p{100 - QUANTILE}": "1/s",
    f"cli_s.p{QUANTILE}": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "rulebook.load_s": "s",
    "rulebook.intra_correlation.calls": "count",
    "rulebook.intra_correlation.s": "s",
    "rulebook.cross_correlation.calls": "count",
    "rulebook.risk_weight.calls": "count",
    "portfolio.load_s": "s",
    "portfolio.value.calls": "count",
    "portfolio.value.s": "s",
    "portfolio.assign_bucket.calls": "count",
    "portfolio.assign_bucket.s": "s",
    "sensitivities.collect_s": "s",
    "sensitivities.tent_bumped_curve.calls": "count",
    "sensitivities.raw_records": "count",
    "sensitivities.netted_factors": "count",
    "aggregation.envelope_s": "s",
    "aggregation.pair_terms": "count",
    "aggregation.fallback_engaged": "count",
    "engine.compute_s": "s",
    "engine.overhead_s": "s",
    "engine.render_s": "s",
    "engine.report_bytes": "bytes",
    "harness.generate_s": "s",
    "harness.score_s": "s",
    "harness.compute_calls": "count",
    "cli.bare_interpreter_s": "s",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Run:
    """One benchmark run: inputs, the operation tally and the measured samples."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: float, work: Path):
        from sbmcap import engine, harness, portfolio, rulebook  # imported after the src check

        self.engine, self.harness, self.portfolio, self.rulebook = engine, harness, portfolio, rulebook
        self.workload, self.seed, self.seconds, self.scale = workload, seed, seconds, scale
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.inputs = gen.write_inputs(workload, seed, work / "run", scale)
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        self.loaded = self.load(self.inputs)
        self.books = [self.portfolio.load_portfolio(b) for b in self.inputs.books]
        self.expected: dict[int, float] = {}

    # -- operation bookkeeping -------------------------------------------------

    def op(self, label: str, fn, *args):
        """Run one operation; an exception or failed check counts as one failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # every failure is tallied, the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def load(self, inputs: gen.Inputs):
        p, rb = self.portfolio, self.rulebook
        return (rb.load_rulebook(inputs.rulebook), p.load_market_data(inputs.market), p.load_registry(inputs.registry))

    # -- correctness ------------------------------------------------------------

    def check_report(self, report, book: int) -> None:
        """The envelope is the worst scenario, and a book repeats its first total bit for bit."""
        totals = [report.scenarios[t].total for t in SCENARIO_TOKENS]
        check(report.total_capital == max(totals), f"envelope {report.total_capital!r} is not the max of {totals}")
        check(math.isfinite(report.total_capital) and report.total_capital > 0, "capital is not positive and finite")
        expected = self.expected.setdefault(book, report.total_capital)
        check(report.total_capital == expected, f"book {book}: {report.total_capital!r} != earlier {expected!r}")

    def prepare(self) -> None:
        """Compute every book once untimed: first results, stored references and the oracle."""
        rb, md, registry = self.loaded
        for k, book in enumerate(self.books):
            self.op(f"prepare book {k}", self.prepare_book, k, book, rb, md, registry, self.inputs)
        if self.scale != 1.0:
            return
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[self.workload]
        if self.seed == DEFAULT_SEED:
            default, totals = self.inputs, self.expected
        else:
            default = gen.write_inputs(self.workload, DEFAULT_SEED, self.work / "default")
            d_rb, d_md, d_registry = self.load(default)
            totals = {}
            for k, path in enumerate(default.books):
                report = self.op(f"default book {k}", self.engine.compute_capital,
                                 self.portfolio.load_portfolio(path), d_md, d_registry, d_rb)
                if report is not None:
                    totals[k] = report.total_capital
                    self.op(f"default book {k} oracle", self.check_oracle, default, k, report.total_capital)
        for k, path in enumerate(default.books):
            self.op(f"reference {path.name}", self.check_reference, reference.get(path.name), totals.get(k))

    def prepare_book(self, k, book, rb, md, registry, inputs) -> None:
        report = self.engine.compute_capital(book, md, registry, rb)
        self.check_report(report, k)
        self.check_oracle(inputs, k, report.total_capital)

    def check_oracle(self, inputs: gen.Inputs, k: int, total: float) -> None:
        if self.workload != "equity-concentrated":
            return
        expected = oracle.equity_capital(inputs.rulebook, inputs.market, inputs.registry, inputs.books[k])
        check(rel_close(total, expected), f"book {k}: engine {total!r} vs oracle {expected!r}")

    @staticmethod
    def check_reference(expected: float | None, total: float | None) -> None:
        check(expected is not None and total is not None and rel_close(total, expected),
              f"capital {total!r} differs from the stored reference {expected!r}")

    # -- phases -------------------------------------------------------------------

    def setup_once(self, k: int) -> float:
        p = self.portfolio
        start = time.perf_counter()
        self.rulebook.load_rulebook(self.inputs.rulebook)
        p.load_market_data(self.inputs.market)
        p.load_registry(self.inputs.registry)
        book = p.load_portfolio(self.inputs.books[k % len(self.books)])
        elapsed = time.perf_counter() - start
        check(len(book.positions) == len(self.books[k % len(self.books)].positions), "portfolio lost positions")
        return elapsed

    def capital_time(self, k: int) -> float:
        return self.capital_once(k)[0]

    def capital_once(self, k: int) -> tuple[float, object]:
        rb, md, registry = self.loaded
        start = time.perf_counter()
        report = self.engine.compute_capital(self.books[k], md, registry, rb)
        elapsed = time.perf_counter() - start
        self.check_report(report, k)
        return elapsed, report

    def cases_once(self, chunk: int) -> tuple[float, float, float]:
        """(generate seconds, score seconds, cases) of one harness chunk with its own seed."""
        h = self.harness
        rb, md, registry = self.loaded
        n = max(4, round(CASES_PER_CHUNK * self.scale))
        start = time.perf_counter()
        case_set = h.generate_cases(self.seed * 10_000 + chunk, n, rb, md, registry)
        mid = time.perf_counter()
        score = h.score_extraction(h.reference_candidate(case_set), case_set)
        end = time.perf_counter()
        accuracies = (score.bucket_accuracy, score.risk_weight_accuracy, score.correlation_accuracy, score.mcr_accuracy)
        check(score.n_cases == n and all(a == 100.0 for a in accuracies), f"reference candidate scored {accuracies}")
        return mid - start, end - mid, n

    def cli_once(self, k: int) -> tuple[float, float]:
        """(wall seconds, peak RSS MB) of the user's command in a fresh interpreter."""
        rb_path, md_path, reg_path = self.inputs.rulebook, self.inputs.market, self.inputs.registry
        common = ["--rulebook", str(rb_path), "--market", str(md_path), "--registry", str(reg_path)]
        out = self.work / "cli"
        out.mkdir(exist_ok=True)
        book = k % len(self.books)
        report_path = out / "report.json"
        report_path.unlink(missing_ok=True)
        wall, rss = self.spawn(["compute", *common, "--portfolio", str(self.inputs.books[book]),
                                "--format", "hierarchical", "--out", str(report_path)])
        total = json.loads(report_path.read_text(encoding="utf-8"))["total_capital"]
        check(book in self.expected and total == self.expected[book],
              f"CLI total {total!r} is not the API total {self.expected.get(book)!r}")
        return wall, rss

    def spawn(self, cli_args: list[str]) -> tuple[float, float]:
        return self.spawn_python(["-m", "sbmcap.cli", *cli_args])

    def spawn_python(self, args: list[str]) -> tuple[float, float]:
        """(wall seconds, peak RSS MB) of one child interpreter, reaped with wait4 for its own rusage."""
        with tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=self.work,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                err.seek(0)
                raise CheckFailed(f"exit {proc.returncode}: {err.read().decode(errors='replace')[-300:]}")
        return wall, usage.ru_maxrss / 1024.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def speed_probe() -> float:
    """Fixed pure-Python work, timed as the median of three; recorded, never used to scale."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def interleave(seconds: float, phases: dict[str, tuple[float, int, object]]) -> dict[str, list]:
    """Closed loop over several operation kinds, interleaved in time.

    ``phases`` maps a name to (time share, minimum count, fn(i)). The next
    operation is always the kind furthest below its time share, so every kind
    is sampled across the whole run and sees the same drift in machine speed.
    """
    used = dict.fromkeys(phases, 0.0)
    count = dict.fromkeys(phases, 0)
    results: dict[str, list] = {name: [] for name in phases}
    deadline = time.perf_counter() + seconds
    while True:
        short = [name for name, (_, min_ops, _) in phases.items() if count[name] < min_ops]
        if not short and time.perf_counter() >= deadline:
            return results
        name = min(short or phases, key=lambda n: used[n] / phases[n][0])
        start = time.perf_counter()
        result = phases[name][2](count[name])
        used[name] += time.perf_counter() - start
        count[name] += 1
        if result is not None:
            results[name].append(result)


def until(seconds: float, min_ops: int, fn) -> list:
    """Closed loop of one operation kind: fn(i) for ``seconds`` and at least min_ops times."""
    return interleave(seconds, {"ops": (1.0, min_ops, fn)})["ops"]


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, int], dict[str, list]]:
    share = PHASES[run.workload]
    n_books = len(run.books)
    run.op("cli warm-up", run.cli_once, 0)
    out = interleave(run.seconds, {
        "setup": (share["setup"], 5, lambda i: run.op("setup", run.setup_once, i)),
        "capital": (share["capital"], n_books, lambda i: run.op("capital", run.capital_time, i % n_books)),
        "cases": (share["cases"], 3, lambda i: run.op("cases", run.cases_once, i)),
        "cli": (share["cli"], 3, lambda i: run.op("cli", run.cli_once, i + 1)),
    })
    capital, cases, cli = out["capital"], out["cases"], out["cli"]
    cases_per_s = [n / (g + s) for g, s, n in cases]
    cli_s = [w for w, _ in cli]
    values = {
        f"capital_s.p{QUANTILE}": percentile(capital, QUANTILE),
        f"cases_per_s.p{100 - QUANTILE}": percentile(cases_per_s, 100 - QUANTILE),
        f"cli_s.p{QUANTILE}": percentile(cli_s, QUANTILE),
        "setup_s": median(out["setup"]),
        "peak_rss_mb": median(r for _, r in cli),
    }
    centre = {name: {"median": median(rows), "mean": mean(rows)}
              for name, rows in (("capital_s", capital), ("cases_per_s", cases_per_s), ("cli_s", cli_s))}
    return values, {name: len(rows) for name, rows in out.items()}, {**out, "centre": centre}


def per_layer(run: Run, tracer: layers.Tracer) -> tuple[dict[str, float], dict[str, int], dict[str, list]]:
    """Traced run: per-layer metrics from wrappers at the module boundaries.

    Untraced and traced capital calls alternate (a third of the capital time
    untraced), so trace.overhead compares calls made under the same machine
    speed. Counts come from the first traced call of each book, so they repeat
    exactly for a seed; times are medians over every traced call.
    """
    share = {phase: s * run.seconds for phase, s in PHASES[run.workload].items()}
    n_books = len(run.books)

    def traced_call(i: int):
        tracer.install()
        try:
            return run.op("capital", traced_capital, run, tracer, i % n_books)
        finally:
            tracer.uninstall()

    capital = interleave(share["capital"], {
        "untraced": (1.0, n_books, lambda i: run.op("capital", run.capital_time, i % n_books)),
        "traced": (2.0, n_books, traced_call),
    })
    untraced, traced = capital["untraced"], capital["traced"]
    tracer.install()
    try:
        setup = until(share["setup"], 5, lambda i: run.op("setup", traced_setup, run, tracer, i))
        renders = until(0, n_books, lambda k: run.op("render", traced_render, run, tracer, k))
        cases = until(share["cases"], 1, lambda i: run.op("cases", traced_cases, run, tracer, i))
    finally:
        tracer.uninstall()
    probes = until(share["cli"], 5, lambda i: run.op("cli probe", cli_probe, run))

    def col(rows, key):
        return median(r[key] for r in rows)

    values = {name: col(traced[:n_books] if PER_LAYER[name] == "count" else traced, name)
              for name in (traced[0] if traced else ())}
    compute_p50, untraced_p50 = values.get("engine.compute_s", 0.0), median(untraced)
    values.update({
        "rulebook.load_s": col(setup, "rulebook.load_s"),
        "portfolio.load_s": col(setup, "portfolio.load_s"),
        "engine.render_s": col(renders, "engine.render_s"),
        "engine.report_bytes": col(renders, "engine.report_bytes"),
        "harness.generate_s": col(cases, "harness.generate_s"),
        "harness.score_s": col(cases, "harness.score_s"),
        "harness.compute_calls": col(cases, "harness.compute_calls"),
        "cli.bare_interpreter_s": median(bare for bare, _ in probes),
        "cli.import_s": median(imported - bare for bare, imported in probes),
        "trace.overhead": compute_p50 / untraced_p50 - 1.0 if compute_p50 and untraced_p50 else 0.0,
    })
    samples = {"setup": len(setup), "capital_untraced": len(untraced), "capital_traced": len(traced),
               "cases_chunks": len(cases), "cli_probes": len(probes)}
    return {name: values.get(name, 0.0) for name in PER_LAYER}, samples, {"untraced_capital": untraced}


def cli_probe(run: Run) -> tuple[float, float]:
    """(bare interpreter seconds, ``import sbmcap.cli`` seconds), each in a fresh interpreter."""
    bare, _ = run.spawn_python(["-c", "pass"])
    imported, _ = run.spawn_python(["-c", "import sbmcap.cli"])
    return bare, imported


def _delta(tracer: layers.Tracer, before, name: str, kind: str = "s"):
    calls, seconds = before
    return tracer.seconds[name] - seconds[name] if kind == "s" else tracer.calls[name] - calls[name]


def traced_setup(run: Run, tracer: layers.Tracer, i: int) -> dict[str, float]:
    before = tracer.snapshot()
    with tracer.span("bench.setup"):
        run.setup_once(i)
    loaders = ("portfolio.load_portfolio", "portfolio.load_market_data", "portfolio.load_registry")
    return {
        "rulebook.load_s": _delta(tracer, before, "rulebook.load_rulebook"),
        "portfolio.load_s": sum(_delta(tracer, before, name) for name in loaders),
    }


def traced_capital(run: Run, tracer: layers.Tracer, k: int) -> dict[str, float]:
    before = tracer.snapshot()
    with tracer.span("bench.capital"):
        _, report = run.capital_once(k)
    row = {
        f"{name}.calls": _delta(tracer, before, name, "calls")
        for name in ("rulebook.intra_correlation", "rulebook.cross_correlation", "rulebook.risk_weight",
                     "portfolio.value", "portfolio.assign_bucket", "sensitivities.tent_bumped_curve")
    }
    row.update({f"{name}.s": _delta(tracer, before, name)
                for name in ("rulebook.intra_correlation", "portfolio.value", "portfolio.assign_bucket")})
    compute = _delta(tracer, before, "engine.compute_capital")
    collect = _delta(tracer, before, "sensitivities.collect_sensitivities")
    envelope = _delta(tracer, before, "aggregation.scenario_envelope")
    raw, netted = tracer.last_netting
    classes = [cls for sc in report.scenarios.values() for cls in sc.classes.values()]
    row.update({
        "engine.compute_s": compute,
        "sensitivities.collect_s": collect,
        "aggregation.envelope_s": envelope,
        "engine.overhead_s": compute - collect - envelope,
        "sensitivities.raw_records": raw,
        "sensitivities.netted_factors": netted,
        # Computed from the report, not counted: ordered distinct-factor pairs per bucket, all scenarios.
        "aggregation.pair_terms": sum(len(b.factors) * (len(b.factors) - 1) for cls in classes for b in cls.buckets),
        "aggregation.fallback_engaged": sum(cls.fallback_engaged for cls in classes),
    })
    return row


def traced_render(run: Run, tracer: layers.Tracer, k: int) -> dict[str, float]:
    _, report = run.capital_once(k)
    before = tracer.snapshot()
    text = run.engine.render_report(report, "hierarchical")
    check(json.loads(text)["total_capital"] == report.total_capital, "rendered total differs from the report")
    return {"engine.render_s": _delta(tracer, before, "engine.render_report"), "engine.report_bytes": len(text.encode())}


def traced_cases(run: Run, tracer: layers.Tracer, chunk: int) -> dict[str, float]:
    before = tracer.snapshot()
    with tracer.span("bench.cases"):
        _, _, n = run.cases_once(chunk)
    return {
        "harness.generate_s": _delta(tracer, before, "harness.generate_cases") / n,
        "harness.score_s": _delta(tracer, before, "harness.score_extraction") / n,
        "harness.compute_calls": _delta(tracer, before, "engine.compute_capital", "calls") / n,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload and return the result object plus the run record."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        probe_start = speed_probe()
        run = Run(workload, seed, seconds, scale, work)
        run.prepare()
        # Inputs and first results stay alive all run; move them out of the collector's way.
        gc.collect()
        gc.freeze()
        tracer = layers.Tracer()
        values, samples, raw = per_layer(run, tracer) if trace else end_to_end(run)
        probe_end = speed_probe()
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "speed_probe_s": {"start": probe_start, "end": probe_end},
        "error_rate": run.failed / run.attempted, "samples": samples, "raw_samples": raw, "errors": run.errors,
        "result": result,
    }
    if trace:
        record.update(missing_boundaries=tracer.missing,
                      counters={n: {"calls": tracer.calls[n], "s": tracer.seconds[n]} for n in tracer.calls},
                      spans=tracer.spans)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sbmcap" / "__init__.py").is_file():
        print(f"error: no sbmcap package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")
    result = record["result"]
    for metric, m in result["metrics"].items():
        print(f"{metric:40s} {m['value']:.6g} {m['unit']}")
    for metric, centre in record["raw_samples"].get("centre", {}).items():
        print(f"{metric:40s} median {centre['median']:.6g}  mean {centre['mean']:.6g}  (not bounded)")
    print(f"samples {record['samples']}  error_rate {record['error_rate']:.4g}  "
          f"speed_probe_s {record['speed_probe_s']['start']:.4f} -> {record['speed_probe_s']['end']:.4f}")
    if record.get("missing_boundaries"):
        print(f"missing boundaries: {', '.join(record['missing_boundaries'])}")
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
