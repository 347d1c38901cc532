"""Machine-readable rulebook: buckets, risk weights, correlations, scenarios.

The rulebook is plain data loaded from JSON. Every regulatory parameter the
engine uses (bucket definitions, risk weights, intra- and cross-bucket
correlations, tenor-correlation parameters, correlation-scenario rules) lives
in the file, not in code, so a parameter update is a data edit.

Reference parameter set: BCBS "Minimum capital requirements for market risk",
January 2016 (bis.org/bcbs/publ/d352.pdf), delta risk only.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any


class RiskClass(str, Enum):
    """Delta risk classes covered by the engine."""

    GIRR = "girr"
    EQUITY = "equity"
    FX = "fx"
    COMMODITY = "commodity"


class CorrelationScenario(str, Enum):
    """Regulatory correlation scenarios (d352 para 54)."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class RulebookError(Exception):
    """Base class for rulebook problems."""


class RulebookParseError(RulebookError):
    """The source document could not be parsed or is structurally off."""


class RulebookValidationError(RulebookError):
    """Semantic validation failed; carries the full violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        summary = "; ".join(self.violations)
        super().__init__(f"rulebook validation failed ({len(self.violations)} violation(s)): {summary}")


class RulebookQueryError(RulebookError):
    """A lookup asked for something the rulebook does not define."""


@dataclass(frozen=True)
class ScenarioRules:
    """Data-driven scenario adjustment of a base correlation.

    high: min(high_scale * rho, high_cap)
    low:  max(low_affine_scale * rho + low_affine_shift, low_scale * rho)
    medium: identity
    """

    high_scale: float = 1.25
    high_cap: float = 1.0
    low_scale: float = 0.75
    low_affine_scale: float = 2.0
    low_affine_shift: float = -1.0


@dataclass(frozen=True)
class GirrTenorParams:
    """Parameters of the GIRR tenor-gap correlation formula."""

    theta: float = 0.03
    floor: float = 0.40


@dataclass(frozen=True)
class Bucket:
    """One rulebook bucket.

    Non-GIRR buckets carry a single scalar ``risk_weight``; GIRR buckets carry
    ``risk_weights_by_tenor`` with one weight per standard tenor. Membership
    criteria differ per class: equity buckets match on (economy, size, sector),
    FX and GIRR buckets list currencies, commodity buckets list commodity ids.
    """

    risk_class: RiskClass
    bucket_id: int
    description: str
    risk_weight: float | None = None
    risk_weights_by_tenor: dict[float, float] = field(default_factory=dict)
    economy: str | None = None
    size: str | None = None
    sectors: tuple[str, ...] | None = None
    currencies: tuple[str, ...] = ()
    commodities: tuple[str, ...] = ()
    residual: bool = False


@dataclass(frozen=True)
class CorrelationTable:
    """Tabulated correlations, keyed by class and bucket ids."""

    intra: dict[tuple[RiskClass, int], float] = field(default_factory=dict)
    cross_default: dict[RiskClass, float] = field(default_factory=dict)
    cross_pairs: dict[tuple[RiskClass, int, int], float] = field(default_factory=dict)


@dataclass(frozen=True)
class Rulebook:
    """Validated rulebook ready for queries."""

    version: str
    schema_version: int
    tenor_grid: tuple[float, ...]
    buckets: tuple[Bucket, ...]
    correlations: CorrelationTable
    girr_tenor_params: GirrTenorParams
    scenario_rules: ScenarioRules
    # Bucket indexes built once from ``buckets``. Of two buckets with one id
    # the first is found; validation rejects such duplicates anyway.
    _by_id: dict[tuple[RiskClass, int], Bucket] = field(init=False, repr=False, compare=False)
    _by_class: dict[RiskClass, tuple[Bucket, ...]] = field(init=False, repr=False, compare=False)
    _equity_by_profile: dict[tuple[str | None, str | None], tuple[Bucket, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[tuple[RiskClass, int], Bucket] = {}
        by_class: dict[RiskClass, list[Bucket]] = {rc: [] for rc in RiskClass}
        by_profile: dict[tuple[str | None, str | None], list[Bucket]] = {}
        for b in self.buckets:
            by_id.setdefault((b.risk_class, b.bucket_id), b)
            by_class[b.risk_class].append(b)
            if b.risk_class is RiskClass.EQUITY and not b.residual:
                by_profile.setdefault((b.economy, b.size), []).append(b)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_by_class", {rc: tuple(bs) for rc, bs in by_class.items()})
        object.__setattr__(self, "_equity_by_profile", {k: tuple(bs) for k, bs in by_profile.items()})

    # -- bucket lookups ----------------------------------------------------

    def buckets_for(self, risk_class: RiskClass) -> tuple[Bucket, ...]:
        return self._by_class[risk_class]

    def bucket(self, risk_class: RiskClass, bucket_id: int) -> Bucket:
        try:
            return self._by_id[(risk_class, bucket_id)]
        except KeyError:
            raise RulebookQueryError(f"no {risk_class.value} bucket with id {bucket_id}") from None

    def equity_buckets_for(self, economy: str, size: str) -> tuple[Bucket, ...]:
        """The non-residual equity buckets of an (economy, size) pair, in rulebook order."""
        return self._equity_by_profile.get((economy, size), ())

    def residual_bucket(self, risk_class: RiskClass) -> Bucket | None:
        return next((b for b in self._by_class[risk_class] if b.residual), None)

    def currency_bucket(self, risk_class: RiskClass, currency: str) -> Bucket:
        """Bucket listing ``currency`` (FX and GIRR classes)."""
        for b in self.buckets_for(risk_class):
            if currency in b.currencies:
                return b
        raise RulebookQueryError(f"no {risk_class.value} bucket covers currency {currency!r}")

    # -- parameter queries ---------------------------------------------------

    def risk_weight(self, risk_class: RiskClass, bucket_id: int, tenor: float | None = None) -> float:
        """Risk weight for a factor in (risk_class, bucket), per tenor for GIRR."""
        b = self.bucket(risk_class, bucket_id)
        if risk_class is RiskClass.GIRR:
            if tenor is None:
                raise RulebookQueryError("GIRR risk weight lookup requires a tenor")
            try:
                return b.risk_weights_by_tenor[tenor]
            except KeyError:
                raise RulebookQueryError(
                    f"tenor {tenor} is not on the standard grid for GIRR bucket {bucket_id}"
                ) from None
        if tenor is not None:
            raise RulebookQueryError(f"{risk_class.value} risk weights are not tenor specific")
        assert b.risk_weight is not None  # guaranteed by validation
        return b.risk_weight

    def intra_correlation(
        self,
        risk_class: RiskClass,
        bucket_id: int,
        k: tuple[str, float | None],
        l: tuple[str, float | None],
        scenario: CorrelationScenario = CorrelationScenario.MEDIUM,
    ) -> float:
        """Correlation between two factors of the same bucket.

        ``k`` and ``l`` are (name, tenor) pairs; tenor is None outside GIRR.
        Self-correlation is exactly 1 under every scenario.
        """
        if k == l:
            return apply_scenario(1.0, scenario, self.scenario_rules)
        if risk_class is RiskClass.GIRR:
            t_k, t_l = k[1], l[1]
            if t_k is None or t_l is None:
                raise RulebookQueryError("GIRR intra correlation requires tenors on both factors")
            if k[0] == l[0] and t_k == t_l:
                base = 1.0
            else:
                base = girr_tenor_correlation(t_k, t_l, self.girr_tenor_params)
            return apply_scenario(base, scenario, self.scenario_rules)
        if k[0] == l[0]:
            return apply_scenario(1.0, scenario, self.scenario_rules)
        self.bucket(risk_class, bucket_id)  # existence check
        try:
            base = self.correlations.intra[(risk_class, bucket_id)]
        except KeyError:
            raise RulebookQueryError(
                f"no intra-bucket correlation tabulated for {risk_class.value} bucket {bucket_id}"
            ) from None
        return apply_scenario(base, scenario, self.scenario_rules)

    def cross_correlation(
        self,
        risk_class: RiskClass,
        bucket_b: int,
        bucket_c: int,
        scenario: CorrelationScenario = CorrelationScenario.MEDIUM,
    ) -> float:
        """Cross-bucket correlation gamma_bc for two distinct buckets."""
        if bucket_b == bucket_c:
            raise RulebookQueryError("cross correlation is defined for distinct buckets only")
        self.bucket(risk_class, bucket_b)
        self.bucket(risk_class, bucket_c)
        pairs = self.correlations.cross_pairs
        base = pairs.get((risk_class, bucket_b, bucket_c), pairs.get((risk_class, bucket_c, bucket_b)))
        if base is None:
            base = self.correlations.cross_default.get(risk_class)
        if base is None:
            raise RulebookQueryError(
                f"no cross-bucket correlation for {risk_class.value} buckets ({bucket_b}, {bucket_c})"
            )
        return apply_scenario(base, scenario, self.scenario_rules)


def girr_tenor_correlation(t_k: float, t_l: float, params: GirrTenorParams = GirrTenorParams()) -> float:
    """Correlation between two tenors of one curve.

    Formula (d352 para 65): max(exp(-theta * |t_k - t_l| / min(t_k, t_l)), floor).
    """
    if t_k <= 0 or t_l <= 0:
        raise RulebookQueryError("tenors must be positive")
    rho = math.exp(-params.theta * abs(t_k - t_l) / min(t_k, t_l))
    return max(rho, params.floor)


def apply_scenario(
    base: float,
    scenario: CorrelationScenario,
    rules: ScenarioRules = ScenarioRules(),
) -> float:
    """Scenario-adjust a base correlation (d352 para 54).

    medium leaves the value untouched, high is min(1.25 * rho, 1), low is
    max(2 * rho - 1, 0.75 * rho) under the default rules.
    """
    if scenario is CorrelationScenario.MEDIUM:
        return base
    if scenario is CorrelationScenario.HIGH:
        return min(rules.high_scale * base, rules.high_cap)
    if scenario is CorrelationScenario.LOW:
        return max(rules.low_affine_scale * base + rules.low_affine_shift, rules.low_scale * base)
    raise RulebookQueryError(f"unknown scenario {scenario!r}")


def _parse_buckets(raw: Any, violations: list[str]) -> tuple[Bucket, ...]:
    buckets: list[Bucket] = []
    if not isinstance(raw, list):
        violations.append("'buckets' must be a list")
        return ()
    for pos, row in enumerate(raw):
        where = f"buckets[{pos}]"
        if not isinstance(row, dict):
            violations.append(f"{where}: bucket entries must be objects")
            continue
        try:
            rc = RiskClass(row["risk_class"])
        except (KeyError, ValueError):
            violations.append(f"{where}: missing or unknown risk_class")
            continue
        try:
            bucket_id = int(row["id"])
        except (KeyError, TypeError, ValueError):
            violations.append(f"{where}: missing or non-integer id")
            continue
        # A field of the wrong type is named and then treated as absent.
        by_tenor: dict[float, float] = {}
        for key, value in _typed(row, "risk_weights_by_tenor", dict, where, violations, {}).items():
            try:
                by_tenor[float(key)] = float(value)
            except (TypeError, ValueError):
                violations.append(f"{where}: bad tenor weight entry {key!r}")
        rw = row.get("risk_weight")
        if rw is not None:
            try:
                rw = float(rw)
            except (TypeError, ValueError):
                violations.append(f"{where}: risk_weight must be a number, got {rw!r}")
                rw = None
        sectors = _typed(row, "sectors", list, where, violations, None)
        buckets.append(
            Bucket(
                risk_class=rc,
                bucket_id=bucket_id,
                description=str(row.get("description", "")),
                risk_weight=rw,
                risk_weights_by_tenor=by_tenor,
                economy=_typed(row, "economy", str, where, violations, None),
                size=_typed(row, "size", str, where, violations, None),
                sectors=tuple(sectors) if sectors is not None else None,
                currencies=tuple(_typed(row, "currencies", list, where, violations, ())),
                commodities=tuple(_typed(row, "commodities", list, where, violations, ())),
                residual=_typed(row, "residual", bool, where, violations, False),
            )
        )
    return tuple(buckets)


_JSON_TYPES = {list: "a list", dict: "an object", bool: "true or false", str: "a string"}


def _typed(row: dict[str, Any], name: str, kind: type, where: str, violations: list[str], default: Any) -> Any:
    # row[name] if it is a ``kind`` from _JSON_TYPES, else ``default``; a value of another type is a violation.
    value = row.get(name)
    if value is None:
        return default
    if not isinstance(value, kind):
        label = f"{where}: {name}" if where else name
        violations.append(f"{label} must be {_JSON_TYPES[kind]}, got {value!r}")
        return default
    return value


def _parse_correlations(data: dict[str, Any], violations: list[str]) -> CorrelationTable:
    intra: dict[tuple[RiskClass, int], float] = {}
    for rc_token, per_bucket in _typed(data, "intra_correlations", dict, "", violations, {}).items():
        try:
            rc = RiskClass(rc_token)
        except ValueError:
            violations.append(f"intra_correlations: unknown risk class {rc_token!r}")
            continue
        if not isinstance(per_bucket, dict):
            violations.append(f"intra_correlations[{rc_token}]: must map bucket id to value")
            continue
        for bucket_key, value in per_bucket.items():
            try:
                intra[(rc, int(bucket_key))] = float(value)
            except (TypeError, ValueError):
                violations.append(f"intra_correlations[{rc_token}][{bucket_key}]: not a number")
    cross_default: dict[RiskClass, float] = {}
    cross_pairs: dict[tuple[RiskClass, int, int], float] = {}
    for rc_token, spec_block in _typed(data, "cross_correlations", dict, "", violations, {}).items():
        try:
            rc = RiskClass(rc_token)
        except ValueError:
            violations.append(f"cross_correlations: unknown risk class {rc_token!r}")
            continue
        if not isinstance(spec_block, dict):
            violations.append(f"cross_correlations[{rc_token}]: must be an object")
            continue
        if "default" in spec_block:
            try:
                cross_default[rc] = float(spec_block["default"])
            except (TypeError, ValueError):
                violations.append(f"cross_correlations[{rc_token}].default: not a number")
        pairs = _typed(spec_block, "pairs", list, f"cross_correlations[{rc_token}]", violations, ())
        for pos, pair in enumerate(pairs):
            where = f"cross_correlations[{rc_token}].pairs[{pos}]"
            try:
                b_id, c_id, value = int(pair["b"]), int(pair["c"]), float(pair["value"])
            except (KeyError, TypeError, ValueError):
                violations.append(f"{where}: needs integer b, c and numeric value")
                continue
            if b_id == c_id:
                violations.append(f"{where}: b and c must differ")
                continue
            existing = cross_pairs.get((rc, b_id, c_id), cross_pairs.get((rc, c_id, b_id)))
            if existing is not None and existing != value:
                violations.append(
                    f"{where}: asymmetric duplicate, ({b_id},{c_id}) already tabulated as {existing} but found {value}"
                )
                continue
            key = (rc, b_id, c_id) if (rc, b_id, c_id) in cross_pairs or (rc, c_id, b_id) not in cross_pairs else (rc, c_id, b_id)
            cross_pairs[key] = value
    return CorrelationTable(intra=intra, cross_default=cross_default, cross_pairs=cross_pairs)


def _validate(rb: Rulebook, violations: list[str]) -> None:
    # Range checks pass NaN (every comparison with it is false) and some pass
    # infinities, so non-finite parameters are named first.
    rules, tenor = rb.scenario_rules, rb.girr_tenor_params
    parameters = [(f"tenor_grid[{i}]", t) for i, t in enumerate(rb.tenor_grid)] + [
        ("girr_tenor_params.theta", tenor.theta),
        ("girr_tenor_params.floor", tenor.floor),
        ("scenario_rules.high.scale", rules.high_scale),
        ("scenario_rules.high.cap", rules.high_cap),
        ("scenario_rules.low.scale", rules.low_scale),
        ("scenario_rules.low.affine_scale", rules.low_affine_scale),
        ("scenario_rules.low.affine_shift", rules.low_affine_shift),
    ]
    violations.extend(f"{name} must be a finite number, got {v!r}" for name, v in parameters if not math.isfinite(v))
    if not rb.tenor_grid:
        violations.append("tenor_grid must be non-empty")
    if any(t <= 0 for t in rb.tenor_grid):
        violations.append("tenor_grid entries must be positive")
    if any(a >= b for a, b in zip(rb.tenor_grid, rb.tenor_grid[1:])):
        violations.append("tenor_grid must be strictly increasing")

    seen: set[tuple[RiskClass, int]] = set()
    for b in rb.buckets:
        tag = f"{b.risk_class.value} bucket {b.bucket_id}"
        if (b.risk_class, b.bucket_id) in seen:
            violations.append(f"{tag}: duplicate bucket id within risk class")
        seen.add((b.risk_class, b.bucket_id))
        if b.risk_class is RiskClass.GIRR:
            if b.risk_weight is not None:
                violations.append(f"{tag}: GIRR buckets use risk_weights_by_tenor, not a scalar weight")
            missing = [t for t in rb.tenor_grid if t not in b.risk_weights_by_tenor]
            if missing:
                violations.append(f"{tag}: missing risk weight for tenor(s) {missing}")
            extra = [t for t in b.risk_weights_by_tenor if t not in rb.tenor_grid]
            if extra:
                violations.append(f"{tag}: risk weight tabulated for off-grid tenor(s) {sorted(extra)}")
            for t, w in sorted(b.risk_weights_by_tenor.items()):
                if not 0.0 <= w <= 1.0:
                    violations.append(f"{tag}: risk weight {w} at tenor {t} outside [0, 1] (enter fractions, not percent)")
        else:
            if b.risk_weights_by_tenor:
                violations.append(f"{tag}: only GIRR buckets may carry tenor risk weights")
            if b.risk_weight is None:
                violations.append(f"{tag}: missing risk_weight")
            elif not 0.0 <= b.risk_weight <= 1.0:
                violations.append(f"{tag}: risk weight {b.risk_weight} outside [0, 1] (enter fractions, not percent)")
    # residual_bucket returns one bucket per class; a second would silently take some issuers.
    for rc in RiskClass:
        residual = [str(b.bucket_id) for b in rb.buckets_for(rc) if b.residual]
        if len(residual) > 1:
            violations.append(f"{rc.value} buckets {', '.join(residual)}: more than one residual bucket in the class")

    for (rc, bucket_id), value in sorted(rb.correlations.intra.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        if (rc, bucket_id) not in seen:
            violations.append(f"intra correlation references unknown {rc.value} bucket {bucket_id}")
        if not -1.0 <= value <= 1.0:
            violations.append(f"intra correlation for {rc.value} bucket {bucket_id} outside [-1, 1]: {value}")
    for rc, value in rb.correlations.cross_default.items():
        if not -1.0 <= value <= 1.0:
            violations.append(f"cross default for {rc.value} outside [-1, 1]: {value}")
    for (rc, b_id, c_id), value in sorted(rb.correlations.cross_pairs.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])):
        for ref in (b_id, c_id):
            if (rc, ref) not in seen:
                violations.append(f"cross correlation pair references unknown {rc.value} bucket {ref}")
        if not -1.0 <= value <= 1.0:
            violations.append(f"cross correlation for {rc.value} buckets ({b_id},{c_id}) outside [-1, 1]: {value}")

    # Completeness: a rho for every bucket that can hold two names, a gamma for every pair of buckets in a class.
    # GIRR tenors correlate by formula; an FX bucket holds two names only if it lists two currencies.
    for b in rb.buckets:
        if b.risk_class is RiskClass.GIRR or (b.risk_class, b.bucket_id) in rb.correlations.intra:
            continue
        if b.risk_class is not RiskClass.FX or len(b.currencies) > 1:
            violations.append(f"{b.risk_class.value} bucket {b.bucket_id}: no intra-bucket correlation tabulated")
    pairs = rb.correlations.cross_pairs
    for rc in (rc for rc in RiskClass if rc not in rb.correlations.cross_default):
        ids = sorted({b.bucket_id for b in rb.buckets_for(rc)})
        violations.extend(
            f"{rc.value} buckets ({b_id}, {c_id}): no cross-bucket correlation, and no class default"
            for b_id, c_id in itertools.combinations(ids, 2)
            if (rc, b_id, c_id) not in pairs and (rc, c_id, b_id) not in pairs
        )

    if not 0.0 < rb.girr_tenor_params.floor < 1.0:
        violations.append(f"girr tenor floor {rb.girr_tenor_params.floor} outside (0, 1)")
    if rb.girr_tenor_params.theta <= 0:
        violations.append(f"girr tenor theta {rb.girr_tenor_params.theta} must be positive")
    if rb.scenario_rules.high_scale <= 0 or rb.scenario_rules.low_scale <= 0:
        violations.append("scenario scales must be positive")
    if rb.scenario_rules.high_cap > 1.0:
        violations.append("scenario high cap must not exceed 1")


def rulebook_from_dict(data: dict[str, Any]) -> Rulebook:
    """Build and validate a Rulebook from the file schema.

    Raises RulebookParseError for structural problems and
    RulebookValidationError with the full violation list for semantic ones.
    """
    if not isinstance(data, dict):
        raise RulebookParseError("rulebook document must be a JSON object")
    violations: list[str] = []
    try:
        grid = tuple(float(t) for t in data.get("tenor_grid", ()))
    except (TypeError, ValueError):
        raise RulebookParseError("tenor_grid must be a list of numbers") from None
    buckets = _parse_buckets(data.get("buckets", []), violations)
    correlations = _parse_correlations(data, violations)
    tenor_raw = data.get("girr_tenor_params", {})
    scenario_raw = data.get("scenario_rules", {})
    try:
        tenor_params = GirrTenorParams(
            theta=float(tenor_raw.get("theta", GirrTenorParams.theta)),
            floor=float(tenor_raw.get("floor", GirrTenorParams.floor)),
        )
        high = scenario_raw.get("high", {})
        low = scenario_raw.get("low", {})
        scenario_rules = ScenarioRules(
            high_scale=float(high.get("scale", ScenarioRules.high_scale)),
            high_cap=float(high.get("cap", ScenarioRules.high_cap)),
            low_scale=float(low.get("scale", ScenarioRules.low_scale)),
            low_affine_scale=float(low.get("affine_scale", ScenarioRules.low_affine_scale)),
            low_affine_shift=float(low.get("affine_shift", ScenarioRules.low_affine_shift)),
        )
    except (TypeError, ValueError, AttributeError):
        raise RulebookParseError("girr_tenor_params and scenario_rules must hold numeric fields") from None
    schema_version = data.get("schema_version", 1)
    try:
        schema_version = int(schema_version)
    except (TypeError, ValueError):
        violations.append(f"schema_version must be an integer, got {schema_version!r}")
    rb = Rulebook(
        version=str(data.get("version", "")),
        schema_version=schema_version,
        tenor_grid=grid,
        buckets=buckets,
        correlations=correlations,
        girr_tenor_params=tenor_params,
        scenario_rules=scenario_rules,
    )
    _validate(rb, violations)
    if violations:
        raise RulebookValidationError(violations)
    return rb


def load_rulebook(path: str | Path) -> Rulebook:
    """Load and validate a rulebook JSON file."""
    return rulebook_from_dict(read_json_object(path, RulebookParseError, "rulebook document"))


def read_json_object(path: str | Path, error_cls: type[Exception], what: str = "top level") -> dict[str, Any]:
    """The JSON object in the file at ``path``; invalid JSON or another top-level type raises ``error_cls``.

    Every input loader reads its file through this; both messages name the path.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error_cls(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise error_cls(f"{path}: {what} must be a JSON object")
    return data
