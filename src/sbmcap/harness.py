"""Extraction-scoring harness: cases, candidate answers, prompts.

The harness measures how well a candidate (a model, a script, an analyst)
reads the four quantities a capital calculation hinges on: the bucket of a
position, its risk weight, the correlation between two factors, and the
minimum capital requirement of a small portfolio. Reference answers come from
the engine itself, so the harness needs no hand-keyed ground truth.

Scoring rules:
  - bucket: exact match
  - risk weight and correlation: absolute tolerance (default 0.005)
  - capital requirement: relative tolerance (default 1%)
  - a missing answer for an asked question counts as incorrect
  - per-axis accuracy is 100 * correct / number of cases that carry a
    reference answer for that axis; ScoreReport.counts holds one AxisScore
    (correct, scored) per axis, and the accuracy is derived from it

Every harness record is a NamedTuple, like the engine's records, and its
file is its fields: case sets, candidate answers and hierarchical score
reports are read with the engine's report reader and written with its JSON
writer, keys sorted, as ``json.dumps(indent=2, sort_keys=True)`` writes
them. Two layouts of the case set file are not a record's fields: a position
is written as its portfolio-file row, and a factor without a tenor leaves
the key out. A candidate file is read for its answers; its schema_version
and source_label are written, not read. A score report adds each axis's
accuracy and a schema_version to its fields.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, NamedTuple

from .engine import _decoder, _json_text, compute_capital
from .portfolio import (
    Bond,
    CashEquity,
    CommodityFuture,
    FXPosition,
    Instrument,
    IssuerInfo,
    MarketData,
    Portfolio,
    assign_bucket,
    instrument_to_dict,
)
from .rulebook import CorrelationScenario, RiskClass, Rulebook, _prefixed, read_json_object


class HarnessError(Exception):
    pass


class PromptValidationError(HarnessError):
    """A prompt element is missing; ``field_name`` says which."""

    def __init__(self, field_name: str):
        self.field_name = field_name
        super().__init__(f"prompt element {field_name!r} must be a non-empty string")


class Tolerances(NamedTuple):
    """Comparison tolerances for candidate answers."""

    weight_tol: float = 0.005
    corr_tol: float = 0.005
    mcr_rel_tol: float = 0.01


class ExtractionAnswer(NamedTuple):
    """Answers to the four per-case questions; None means not answered."""

    bucket: int | float | None = None
    risk_weight: float | None = None
    correlation: float | None = None
    mcr_value: float | None = None


# The scored axes, in the order of every per-axis listing.
AXES = ExtractionAnswer._fields


class FactorRef(NamedTuple):
    """A factor a case question points at, as the (name, tenor) key the rulebook takes; tenor set for GIRR only."""

    name: str
    tenor: float | None = None


class Case(NamedTuple):
    """One scoring case: two positions, two factors, four reference answers.

    The questions are fixed by construction: bucket and risk weight refer to
    the first factor, correlation is between the two factors, and mcr_value
    is the engine's capital requirement for the case portfolio under the
    case-set scenario.
    """

    case_id: str
    risk_class: RiskClass
    positions: tuple[Instrument, ...]
    factors: tuple[FactorRef, FactorRef]
    reference: ExtractionAnswer


class CaseSet(NamedTuple):
    seed: int
    n: int
    scenario: CorrelationScenario
    cases: tuple[Case, ...]
    schema_version: int = 1


CaseVerdict = NamedTuple("CaseVerdict", [("case_id", str), *((axis, str) for axis in AXES)])
CaseVerdict.__doc__ = "Per-axis outcome for one case: correct, incorrect, missing, or n/a."


class AxisScore(NamedTuple):
    """Of the cases whose reference answers one axis, how many the candidate got right."""

    correct: int
    scored: int

    @property
    def accuracy(self) -> float:
        """Percent correct; 0 when no case is scored."""
        return 100.0 * self.correct / self.scored if self.scored else 0.0


class ScoreReport(NamedTuple):
    """One AxisScore per axis, keyed by axis name in AXES order, plus per-case verdicts."""

    n_cases: int
    counts: dict[str, AxisScore]
    verdicts: tuple[CaseVerdict, ...]

    # perfbench/run.py reads each axis's accuracy under these names.
    bucket_accuracy = property(lambda self: self.counts["bucket"].accuracy)
    risk_weight_accuracy = property(lambda self: self.counts["risk_weight"].accuracy)
    correlation_accuracy = property(lambda self: self.counts["correlation"].accuracy)
    mcr_accuracy = property(lambda self: self.counts["mcr_value"].accuracy)


class PromptSpec(NamedTuple):
    """Five-element prompt: role, input, goal, method, significance."""

    role: str
    input: str
    goal: str
    method: str
    significance: str


def render_prompt(spec: PromptSpec) -> str:
    """Render the five labeled sections in fixed order; raises PromptValidationError naming the first empty element."""
    spec = prompt_spec_from_dict(spec._asdict())
    return "\n\n".join(f"{name.capitalize()}: {body.strip()}" for name, body in zip(spec._fields, spec)) + "\n"


def prompt_spec_from_dict(data: dict[str, Any]) -> PromptSpec:
    """The five elements of ``data``; raises PromptValidationError naming the first missing or empty one."""
    for name in PromptSpec._fields:
        value = data.get(name)
        if not isinstance(value, str) or not value.strip():
            raise PromptValidationError(name)
    return PromptSpec(*(data[name] for name in PromptSpec._fields))


# -- scoring ------------------------------------------------------------------


def score_extraction(
    candidate: dict[str, ExtractionAnswer],
    reference: CaseSet,
    tolerances: Tolerances = Tolerances(),
) -> ScoreReport:
    """Score candidate answers against a reference case set.

    Candidate keys must be a subset of the reference case ids; unknown ids
    raise HarnessError. Cases absent from the candidate count as missing
    (incorrect) on every axis the reference answers.
    """
    if not reference.cases:
        raise HarnessError("cannot score against an empty case set")
    known = {c.case_id for c in reference.cases}
    unknown = sorted(set(candidate) - known)
    if unknown:
        raise HarnessError(f"candidate answers reference unknown case id(s): {', '.join(unknown)}")

    correct = dict.fromkeys(AXES, 0)
    scored = dict.fromkeys(AXES, 0)
    verdicts = []
    for case in reference.cases:
        answer = candidate.get(case.case_id, ExtractionAnswer())
        outcome = []
        for axis, ref_value, cand_value in zip(AXES, case.reference, answer):
            if ref_value is None:
                outcome.append("n/a")
                continue
            scored[axis] += 1
            if cand_value is None:
                outcome.append("missing")
            elif _axis_match(axis, cand_value, ref_value, tolerances):
                correct[axis] += 1
                outcome.append("correct")
            else:
                outcome.append("incorrect")
        verdicts.append(CaseVerdict(case.case_id, *outcome))
    counts = {axis: AxisScore(correct[axis], scored[axis]) for axis in AXES}
    return ScoreReport(len(reference.cases), counts, tuple(verdicts))


def _axis_match(axis: str, cand: float, ref: float, tol: Tolerances) -> bool:
    if axis == "bucket":
        return cand == ref
    if axis == "risk_weight":
        return abs(cand - ref) <= tol.weight_tol
    if axis == "correlation":
        return abs(cand - ref) <= tol.corr_tol
    return abs(cand - ref) <= tol.mcr_rel_tol * abs(ref)


# -- case generation -----------------------------------------------------------


def generate_cases(
    seed: int,
    n: int,
    rb: Rulebook,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    scenario: CorrelationScenario = CorrelationScenario.MEDIUM,
) -> CaseSet:
    """Generate n seeded scoring cases, cycling through the risk classes.

    Identical (seed, n, inputs) produce an identical case set. Reference
    answers are computed by the engine, so they move with the rulebook.
    """
    if n <= 0:
        raise HarnessError("case count must be positive")
    rng = random.Random(seed)
    pools = _case_pools(rb, md, registry)
    order = tuple(RiskClass)
    width = max(3, len(str(n)))
    cases = []
    for i in range(1, n + 1):
        risk_class = order[(i - 1) % len(order)]
        case_id = f"case-{i:0{width}d}"
        cases.append(_generate_case(case_id, risk_class, pools[risk_class], rng, rb, md, registry, scenario))
    return CaseSet(seed, n, scenario, tuple(cases))


# Raised when a class's pool has fewer than the two entries a case draws.
_SHORT_POOL = {
    RiskClass.GIRR: "need at least two grid tenors inside the curve to build GIRR cases",
    RiskClass.EQUITY: "need at least two priced issuers to build equity cases",
    RiskClass.FX: "need at least two quoted currencies to build FX cases",
    RiskClass.COMMODITY: "need at least two priced commodities to build commodity cases",
}


def _case_pools(rb: Rulebook, md: MarketData, registry: dict[str, IssuerInfo]) -> dict[RiskClass, list]:
    """What a case of each class draws its two factors from, in a fixed order.

    Equity: registered issuers with a price; FX and commodity: quoted names
    some bucket covers; GIRR: grid tenors inside the curve.
    """
    fx_covered = {ccy for b in rb.buckets_for(RiskClass.FX) for ccy in b.currencies}
    commodity_covered = {cid for b in rb.buckets_for(RiskClass.COMMODITY) for cid in b.commodities}
    curve_max = md.zero_curve.tenors[-1] if md.zero_curve.tenors else 0.0
    return {
        RiskClass.GIRR: [t for t in rb.tenor_grid if t <= curve_max],
        RiskClass.EQUITY: sorted(i for i in registry if i in md.equity_prices),
        RiskClass.FX: sorted(c for c in md.fx_spots if c in fx_covered),
        RiskClass.COMMODITY: sorted(c for c in md.commodity_prices if c in commodity_covered),
    }


# The position a spot case holds in one quote, its size drawn from the case's generator.
_SPOT_POSITION = {
    RiskClass.EQUITY: lambda name, rng: CashEquity(issuer_id=name, shares=100 * rng.randint(1, 200)),
    RiskClass.FX: lambda name, rng: FXPosition(foreign_currency=name, signed_notional=10_000 * rng.randint(1, 100)),
    RiskClass.COMMODITY: lambda name, rng: CommodityFuture(commodity_id=name, quantity=rng.randint(1, 500), unit="lot"),
}


def _generate_case(
    case_id: str,
    risk_class: RiskClass,
    pool: list,
    rng: random.Random,
    rb: Rulebook,
    md: MarketData,
    registry: dict[str, IssuerInfo],
    scenario: CorrelationScenario,
) -> Case:
    if len(pool) < 2:
        raise HarnessError(_SHORT_POOL[risk_class])
    first, second = rng.sample(pool, 2)
    # Each position draws its size in turn: the first, then the second.
    if risk_class is RiskClass.GIRR:
        ccy = md.reporting_currency
        # Zero-coupon bonds maturing on grid tenors load exactly one tenor each.
        positions: tuple[Instrument, ...] = tuple(
            Bond(notional=1_000 * rng.randint(1, 100), coupon_rate=0.0, maturity=t, frequency=1, currency=ccy)
            for t in (first, second)
        )
        factors = (FactorRef(ccy, first), FactorRef(ccy, second))
        tenor = first
    else:
        positions = tuple(_SPOT_POSITION[risk_class](name, rng) for name in (first, second))
        factors = (FactorRef(first), FactorRef(second))
        tenor = None
    bucket_1, bucket_2 = (assign_bucket(p, registry, rb)[0] for p in positions)

    if bucket_1 == bucket_2:
        correlation = rb.intra_correlation(risk_class, bucket_1, *factors, scenario)
    else:
        correlation = rb.cross_correlation(risk_class, bucket_1, bucket_2, scenario)
    reference = ExtractionAnswer(
        bucket_1,
        rb.risk_weight(risk_class, bucket_1, tenor),
        correlation,
        compute_capital(Portfolio(positions), md, registry, rb, scenario=scenario).total_capital,
    )
    return Case(case_id, risk_class, positions, factors, reference)


# -- file round-trips ----------------------------------------------------------


def case_set_from_dict(data: dict[str, Any]) -> CaseSet:
    """The case set ``data`` holds; raises HarnessError naming the path to the value it rejects."""
    return _decoder(CaseSet, HarnessError)(data, "malformed case set")


def load_cases(path: str | Path) -> CaseSet:
    return _prefixed(str(path), case_set_from_dict, read_json_object(path, HarnessError), (HarnessError,))


def render_case_set(case_set: CaseSet) -> str:
    """The case set file: its fields, keys sorted, but for the two layouts that are not a record's.

    A position is written as its portfolio-file row, and a factor without a
    tenor leaves the key out.
    """
    cases = [
        case._replace(
            positions=[instrument_to_dict(p) for p in case.positions],
            factors=[f if f.tenor is not None else {"name": f.name} for f in case.factors],
        )
        for case in case_set.cases
    ]
    return _json_text(case_set._replace(cases=cases), "\n", {}) + "\n"


def load_prompt_spec(path: str | Path) -> PromptSpec:
    spec = read_json_object(path, HarnessError, "prompt spec")
    return _prefixed(str(path), prompt_spec_from_dict, spec, (HarnessError,))


class _CandidateFile(NamedTuple):
    # What a candidate file is read for; its schema_version and source_label are written, not read.
    answers: dict[str, ExtractionAnswer]


def render_candidate(answers: dict[str, ExtractionAnswer], source_label: str = "") -> str:
    """The candidate file of ``answers``, keys sorted; ``source_label`` says where the answers came from."""
    return _json_text({"answers": answers, "schema_version": 1, "source_label": source_label}, "\n", {}) + "\n"


def load_candidate(path: str | Path) -> dict[str, ExtractionAnswer]:
    read = _decoder(_CandidateFile, HarnessError)
    answers = read(read_json_object(path, HarnessError), f"{path}: malformed candidate answers").answers
    for case_id, answer in answers.items():
        # Sanity band: a fraction outside [0, 1.5] is a garbled extraction,
        # not a wrong answer, so it is rejected rather than scored.
        for field_name in ("risk_weight", "correlation"):
            fraction = getattr(answer, field_name)
            if fraction is not None and not 0.0 <= fraction <= 1.5:
                raise HarnessError(
                    f"{path}: case {case_id}: {field_name} {fraction} is outside the [0, 1.5] sanity band"
                )
    return answers


def reference_candidate(case_set: CaseSet) -> dict[str, ExtractionAnswer]:
    """The reference answers recast as a (perfect) candidate."""
    return {c.case_id: c.reference for c in case_set.cases}


def render_score_report(report: ScoreReport, fmt: str = "human") -> str:
    if fmt == "hierarchical":
        accuracy = {axis: score.accuracy for axis, score in report.counts.items()}
        return _json_text({**report._asdict(), "accuracy": accuracy, "schema_version": 1}, "\n", {}) + "\n"
    if fmt != "human":
        raise HarnessError(f"unknown score report format {fmt!r}")
    lines = [f"Extraction score over {report.n_cases} case(s)"]
    names = ("bucket", "risk weight", "correlation", "capital requirement")
    for axis, name in zip(AXES, names):
        score = report.counts[axis]
        lines.append(f"  {name:<20} {score.accuracy:6.1f}%  ({score.correct}/{score.scored})")
    return "\n".join(lines) + "\n"
