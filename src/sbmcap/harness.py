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
    reference answer for that axis
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from .engine import compute_capital
from .portfolio import (
    Bond,
    CashEquity,
    CommodityFuture,
    FXPosition,
    Instrument,
    IssuerInfo,
    MarketData,
    Portfolio,
    PortfolioError,
    assign_bucket,
    instrument_from_dict,
    instrument_to_dict,
)
from .rulebook import (
    CorrelationScenario, JSONFieldError, RiskClass, Rulebook,
    read_finite, read_integer, read_json_object, read_list, read_object, read_string,
)

AXES = ("bucket", "risk_weight", "correlation", "mcr_value")


class HarnessError(Exception):
    pass


class PromptValidationError(HarnessError):
    """A prompt element is missing; ``field_name`` says which."""

    def __init__(self, field_name: str):
        self.field_name = field_name
        super().__init__(f"prompt element {field_name!r} must be a non-empty string")


@dataclass(frozen=True)
class Tolerances:
    """Comparison tolerances for candidate answers."""

    weight_tol: float = 0.005
    corr_tol: float = 0.005
    mcr_rel_tol: float = 0.01


@dataclass(frozen=True)
class ExtractionAnswer:
    """Answers to the four per-case questions; None means not answered."""

    bucket: int | float | None = None
    risk_weight: float | None = None
    correlation: float | None = None
    mcr_value: float | None = None


@dataclass(frozen=True)
class FactorRef:
    """A factor a case question points at; tenor set for GIRR only."""

    name: str
    tenor: float | None = None


@dataclass(frozen=True)
class Case:
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


@dataclass(frozen=True)
class CaseSet:
    seed: int
    n: int
    scenario: CorrelationScenario
    cases: tuple[Case, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "seed": self.seed,
            "n": self.n,
            "scenario": self.scenario.value,
            "cases": [
                {
                    "case_id": c.case_id,
                    "risk_class": c.risk_class.value,
                    "positions": [instrument_to_dict(p) for p in c.positions],
                    "factors": [
                        {"name": f.name, "tenor": f.tenor} if f.tenor is not None else {"name": f.name}
                        for f in c.factors
                    ],
                    "reference": asdict(c.reference),
                }
                for c in self.cases
            ],
        }


@dataclass(frozen=True)
class CaseVerdict:
    """Per-axis outcome for one case: correct, incorrect, missing, or n/a."""

    case_id: str
    bucket: str
    risk_weight: str
    correlation: str
    mcr_value: str


@dataclass(frozen=True)
class ScoreReport:
    """Per-axis accuracies in percent plus per-case verdicts."""

    n_cases: int
    bucket_accuracy: float
    risk_weight_accuracy: float
    correlation_accuracy: float
    mcr_accuracy: float
    counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    verdicts: tuple[CaseVerdict, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "n_cases": self.n_cases,
            "accuracy": {
                "bucket": self.bucket_accuracy,
                "risk_weight": self.risk_weight_accuracy,
                "correlation": self.correlation_accuracy,
                "mcr_value": self.mcr_accuracy,
            },
            "counts": {axis: {"correct": c, "scored": d} for axis, (c, d) in self.counts.items()},
            "verdicts": [asdict(v) for v in self.verdicts],
        }


@dataclass(frozen=True)
class PromptSpec:
    """Five-element prompt: role, input, goal, method, significance."""

    role: str
    input: str
    goal: str
    method: str
    significance: str


def render_prompt(spec: PromptSpec) -> str:
    """Render the five labeled sections in fixed order.

    Raises PromptValidationError naming the first empty element.
    """
    sections = [
        ("Role", spec.role),
        ("Input", spec.input),
        ("Goal", spec.goal),
        ("Method", spec.method),
        ("Significance", spec.significance),
    ]
    for header, body in sections:
        if not isinstance(body, str) or not body.strip():
            raise PromptValidationError(header.lower())
    return "\n\n".join(f"{header}: {body.strip()}" for header, body in sections) + "\n"


def prompt_spec_from_dict(data: dict[str, Any]) -> PromptSpec:
    fields = {}
    for name in ("role", "input", "goal", "method", "significance"):
        value = data.get(name)
        if not isinstance(value, str) or not value.strip():
            raise PromptValidationError(name)
        fields[name] = value
    return PromptSpec(**fields)


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
    verdicts: list[CaseVerdict] = []
    for case in reference.cases:
        answer = candidate.get(case.case_id, ExtractionAnswer())
        outcome: dict[str, str] = {}
        for axis in AXES:
            ref_value = getattr(case.reference, axis)
            if ref_value is None:
                outcome[axis] = "n/a"
                continue
            scored[axis] += 1
            cand_value = getattr(answer, axis)
            if cand_value is None:
                outcome[axis] = "missing"
                continue
            if _axis_match(axis, cand_value, ref_value, tolerances):
                correct[axis] += 1
                outcome[axis] = "correct"
            else:
                outcome[axis] = "incorrect"
        verdicts.append(CaseVerdict(case_id=case.case_id, **outcome))

    def accuracy(axis: str) -> float:
        return 100.0 * correct[axis] / scored[axis] if scored[axis] else 0.0

    return ScoreReport(
        n_cases=len(reference.cases),
        bucket_accuracy=accuracy("bucket"),
        risk_weight_accuracy=accuracy("risk_weight"),
        correlation_accuracy=accuracy("correlation"),
        mcr_accuracy=accuracy("mcr_value"),
        counts={axis: (correct[axis], scored[axis]) for axis in AXES},
        verdicts=tuple(verdicts),
    )


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
    return CaseSet(seed=seed, n=n, scenario=scenario, cases=tuple(cases))


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
        bucket_1 = bucket_2 = rb.currency_bucket(RiskClass.GIRR, ccy).bucket_id
        factors = (FactorRef(ccy, first), FactorRef(ccy, second))
        tenor = first
    else:
        positions = tuple(_SPOT_POSITION[risk_class](name, rng) for name in (first, second))
        if risk_class is RiskClass.FX:
            bucket_1, bucket_2 = (rb.currency_bucket(RiskClass.FX, name).bucket_id for name in (first, second))
        else:
            bucket_1, bucket_2 = (assign_bucket(p, registry, rb)[0] for p in positions)
        factors = (FactorRef(first), FactorRef(second))
        tenor = None

    if bucket_1 == bucket_2:
        correlation = rb.intra_correlation(
            risk_class, bucket_1, (factors[0].name, factors[0].tenor), (factors[1].name, factors[1].tenor), scenario
        )
    else:
        correlation = rb.cross_correlation(risk_class, bucket_1, bucket_2, scenario)
    reference = ExtractionAnswer(
        bucket=bucket_1,
        risk_weight=rb.risk_weight(risk_class, bucket_1, tenor),
        correlation=correlation,
        mcr_value=compute_capital(Portfolio(positions=positions), md, registry, rb, scenario=scenario).total_capital,
    )
    return Case(case_id=case_id, risk_class=risk_class, positions=positions, factors=factors, reference=reference)


# -- file round-trips ----------------------------------------------------------


def case_set_from_dict(data: dict[str, Any]) -> CaseSet:
    try:
        cases = []
        for raw in read_list(data["cases"], "cases"):
            case_id = read_string(read_object(raw, "case")["case_id"], "case_id")
            positions = tuple(instrument_from_dict(p) for p in read_list(raw["positions"], "positions"))
            factors = []
            for factor in read_list(raw["factors"], "factors"):
                tenor = read_object(factor, "factor").get("tenor")
                factors.append(FactorRef(read_string(factor["name"], "name"), None if tenor is None else read_finite(tenor, "tenor")))
            reference = _answer_from_dict(case_id, raw["reference"])
            cases.append(Case(case_id, RiskClass(raw["risk_class"]), positions, tuple(factors), reference))  # type: ignore[arg-type]
        seed, n = read_integer(data["seed"], "seed"), read_integer(data["n"], "n")
        return CaseSet(seed, n, CorrelationScenario(data.get("scenario", "medium")), tuple(cases))
    except (KeyError, TypeError, ValueError, JSONFieldError, PortfolioError) as exc:
        raise HarnessError(f"malformed case set: {exc}") from None


def load_cases(path: str | Path) -> CaseSet:
    data = read_json_object(path, HarnessError)
    try:
        return case_set_from_dict(data)
    except HarnessError as exc:
        raise HarnessError(f"{path}: {exc}") from None


def load_prompt_spec(path: str | Path) -> PromptSpec:
    return prompt_spec_from_dict(read_json_object(path, HarnessError, "prompt spec"))


def candidate_to_dict(answers: dict[str, ExtractionAnswer], source_label: str = "") -> dict[str, Any]:
    return {
        "schema_version": 1,
        "source_label": source_label,
        "answers": {case_id: asdict(answer) for case_id, answer in sorted(answers.items())},
    }


def load_candidate(path: str | Path) -> dict[str, ExtractionAnswer]:
    data = read_json_object(path, HarnessError)
    try:
        answers = {case_id: _answer_from_dict(case_id, row) for case_id, row in read_object(data.get("answers"), "answers").items()}
    except (JSONFieldError, ValueError) as exc:
        raise HarnessError(f"{path}: malformed candidate answers: {exc}") from None
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


def _answer_from_dict(case_id: str, row: Any) -> ExtractionAnswer:
    """One answer row: a finite number or null per axis, and a bucket of integral value as an int.

    A row or value of another kind raises ValueError naming the case and the axis.
    """
    try:
        answer = read_object(row, "answer")
        values = {axis: None if answer.get(axis) is None else read_finite(answer[axis], axis) for axis in AXES}
    except JSONFieldError as exc:
        raise ValueError(f"case {case_id}: {exc}") from None
    bucket = values["bucket"]
    if bucket is not None and bucket.is_integer():
        values["bucket"] = int(bucket)
    return ExtractionAnswer(**values)


def render_score_report(report: ScoreReport, fmt: str = "human") -> str:
    if fmt == "hierarchical":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt != "human":
        raise HarnessError(f"unknown score report format {fmt!r}")
    lines = [f"Extraction score over {report.n_cases} case(s)"]
    names = ("bucket", "risk weight", "correlation", "capital requirement")
    values = (report.bucket_accuracy, report.risk_weight_accuracy, report.correlation_accuracy, report.mcr_accuracy)
    for axis, name, value in zip(AXES, names, values):
        correct, scored = report.counts.get(axis, (0, 0))
        lines.append(f"  {name:<20} {value:6.1f}%  ({correct}/{scored})")
    return "\n".join(lines) + "\n"
