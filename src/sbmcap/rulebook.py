"""Machine-readable rulebook: buckets, risk weights, correlations, scenarios.

The rulebook is plain data loaded from JSON. Every regulatory parameter the
engine uses (bucket definitions, risk weights, intra- and cross-bucket
correlations, tenor-correlation parameters, correlation-scenario rules) lives
in the file, not in code, so a parameter update is a data edit.

Every JSON input, a capital report included, is read through the readers at the
end of this module: ``true`` and ``"0.5"`` are not numbers, an integer is a number
of integral value, and the other loaders stop at the first value they reject with
``<file>: <path>: <reason>`` (``_prefixed``, ``_each``). The rulebook loader
reports each value it rejects as one violation, not again as missing; only the
rules that span fields run after that, and a Rulebook is built only if none fails.

Reference parameter set: BCBS "Minimum capital requirements for market risk",
January 2016 (bis.org/bcbs/publ/d352.pdf), delta risk only.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple


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


class ScenarioRules(NamedTuple):
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


class GirrTenorParams(NamedTuple):
    """Parameters of the GIRR tenor-gap correlation formula."""

    theta: float = 0.03
    floor: float = 0.40


# The default of every mapping field: empty, and read-only, so no two values share a mutable default.
_EMPTY: Mapping[Any, Any] = MappingProxyType({})


class Bucket(NamedTuple):
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
    risk_weights_by_tenor: Mapping[float, float] = _EMPTY
    economy: str | None = None
    size: str | None = None
    sectors: tuple[str, ...] | None = None
    currencies: tuple[str, ...] = ()
    commodities: tuple[str, ...] = ()
    residual: bool = False


class CorrelationTable(NamedTuple):
    """Tabulated correlations, keyed by class and bucket ids."""

    intra: Mapping[tuple[RiskClass, int], float] = _EMPTY
    cross_default: Mapping[RiskClass, float] = _EMPTY
    cross_pairs: Mapping[tuple[RiskClass, int, int], float] = _EMPTY


def _make_through_new(cls: type, iterable: Iterable[Any]) -> Any:
    # NamedTuple._make, which _replace calls, builds the tuple without calling __new__; this one calls it.
    return cls(*iterable)


class _RulebookFields(NamedTuple):
    version: str
    schema_version: int
    tenor_grid: tuple[float, ...]
    buckets: tuple[Bucket, ...]
    correlations: CorrelationTable
    girr_tenor_params: GirrTenorParams
    scenario_rules: ScenarioRules


class Rulebook(_RulebookFields):
    """Validated rulebook ready for queries.

    Each construction, ``_replace`` included, indexes the buckets and scenario-adjusts the correlations
    once. Those tables are not fields, so equality ignores them; no attribute can be assigned.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> Rulebook:
        self = super().__new__(cls, *args, **kwargs)
        by_class = {rc: tuple(b for b in self.buckets if b.risk_class is rc) for rc in RiskClass}
        by_profile: dict[tuple[str | None, str | None], list[Bucket]] = {}
        for b in by_class[RiskClass.EQUITY]:
            if not b.residual:
                by_profile.setdefault((b.economy, b.size), []).append(b)
        vars(self).update(
            # Of two buckets with one id the first is found; validation rejects such duplicates anyway.
            _by_id={(b.risk_class, b.bucket_id): b for b in reversed(self.buckets)},
            _by_class=by_class,
            _equity_by_profile={k: tuple(bs) for k, bs in by_profile.items()},
            _adjusted=_adjusted_correlations(self.correlations, self.scenario_rules),
        )
        return self

    _make = classmethod(_make_through_new)

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"a Rulebook is immutable; {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

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
        if risk_class is not RiskClass.GIRR:  # a name is one factor
            return 1.0 if k[0] == l[0] else self.intra_correlations(risk_class, (bucket_id,), scenario)[bucket_id]
        if k == l:
            return 1.0
        t_k, t_l = k[1], l[1]
        if t_k is None or t_l is None:
            raise RulebookQueryError("GIRR intra correlation requires tenors on both factors")
        return apply_scenario(girr_tenor_correlation(t_k, t_l, self.girr_tenor_params), scenario, self.scenario_rules)

    def intra_correlations(
        self,
        risk_class: RiskClass,
        bucket_ids: Iterable[int],
        scenario: CorrelationScenario = CorrelationScenario.MEDIUM,
    ) -> dict[int, float]:
        """The one rho of two distinct names in each non-GIRR bucket of ``bucket_ids``, by bucket id."""
        ids = list(bucket_ids)
        for bucket_id in ids:
            self.bucket(risk_class, bucket_id)  # existence check
        intra = self._adjusted_for(risk_class, scenario).intra
        rho = {}
        for bucket_id in ids:
            try:
                rho[bucket_id] = intra[bucket_id]
            except KeyError:
                raise RulebookQueryError(
                    f"no intra-bucket correlation tabulated for {risk_class.value} bucket {bucket_id}"
                ) from None
        return rho

    def cross_correlation(
        self,
        risk_class: RiskClass,
        bucket_b: int,
        bucket_c: int,
        scenario: CorrelationScenario = CorrelationScenario.MEDIUM,
    ) -> float:
        """Cross-bucket correlation gamma_bc for two distinct buckets."""
        return self.cross_correlations(risk_class, (bucket_b, bucket_c), scenario)[bucket_b, bucket_c]

    def cross_correlations(
        self,
        risk_class: RiskClass,
        bucket_ids: Iterable[int],
        scenario: CorrelationScenario = CorrelationScenario.MEDIUM,
    ) -> dict[tuple[int, int], float]:
        """gamma_bc for every ordered pair (b, c) of distinct buckets in ``bucket_ids``.

        For each unordered pair the gamma of (b, c), with b listed first, is
        stored under both orders; the loader rejects asymmetric duplicates.
        """
        ids = list(bucket_ids)
        if len(set(ids)) != len(ids):
            raise RulebookQueryError("cross correlation is defined for distinct buckets only")
        for bucket_id in ids:
            self.bucket(risk_class, bucket_id)
        adjusted = self._adjusted_for(risk_class, scenario)
        pairs, default = adjusted.cross_pairs, adjusted.cross_default
        gamma: dict[tuple[int, int], float] = {}
        for i, b in enumerate(ids):
            for c in ids[i + 1 :]:
                value = pairs.get((b, c), default)
                if value is None:
                    raise RulebookQueryError(f"no cross-bucket correlation for {risk_class.value} buckets ({b}, {c})")
                gamma[b, c] = gamma[c, b] = value
        return gamma

    def _adjusted_for(self, risk_class: RiskClass, scenario: CorrelationScenario) -> _AdjustedCorrelations:
        # A str scenario token would find its member's table; apply_scenario rejects it, and so does this.
        if not isinstance(scenario, CorrelationScenario):
            raise RulebookQueryError(f"unknown scenario {scenario!r}")
        return self._adjusted[risk_class, scenario]


class _AdjustedCorrelations(NamedTuple):
    """The tabulated correlations of one risk class, adjusted to one scenario."""

    cross_default: float | None
    cross_pairs: dict[tuple[int, int], float]  # every tabulated pair, under both orders
    intra: dict[int, float]  # bucket id -> rho


def _adjusted_correlations(
    table: CorrelationTable, rules: ScenarioRules
) -> dict[tuple[RiskClass, CorrelationScenario], _AdjustedCorrelations]:
    # One apply_scenario call per tabulated value and scenario; no bucket pair is enumerated.
    # A pair tabulated under both orders keeps each order's own value. Every risk class has
    # a table, and so does any other class key a rulebook built in Python tabulates.
    classes = {*RiskClass, *table.cross_default, *(key[0] for key in table.cross_pairs), *(key[0] for key in table.intra)}
    adjusted: dict[tuple[RiskClass, CorrelationScenario], _AdjustedCorrelations] = {}
    for scenario in CorrelationScenario:
        for rc in classes:
            default = table.cross_default.get(rc)
            adjusted[rc, scenario] = _AdjustedCorrelations(
                None if default is None else apply_scenario(default, scenario, rules), {}, {}
            )
        for (rc, b, c), value in table.cross_pairs.items():
            pairs = adjusted[rc, scenario].cross_pairs
            pairs[b, c] = gamma = apply_scenario(value, scenario, rules)
            pairs.setdefault((c, b), gamma)
        for (rc, bucket_id), value in table.intra.items():
            adjusted[rc, scenario].intra[bucket_id] = apply_scenario(value, scenario, rules)
    return adjusted


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
    if scenario is _MEDIUM:
        return base
    if scenario is _HIGH:
        return min(rules.high_scale * base, rules.high_cap)
    if scenario is _LOW:
        return max(rules.low_affine_scale * base + rules.low_affine_shift, rules.low_scale * base)
    raise RulebookQueryError(f"unknown scenario {scenario!r}")


# The risk class of each token, and each scenario, read once: RiskClass(token) would find a class too, through the Enum
# machinery at 30 times the cost, and a member read through its Enum class costs about five reads of a global.
_RISK_CLASSES = {rc.value: rc for rc in RiskClass}
_LOW, _MEDIUM, _HIGH = CorrelationScenario


class _Rejected(dict):
    """Stands where the loader rejected a value, so that it does not read as absent: it holds every key and yields none.
    A rule that asks whether a value is there finds it, and a rule that iterates compares nothing with it."""

    def __contains__(self, key: Any) -> bool:
        return True

    def get(self, key: Any, default: Any = None) -> _Rejected:  # a field of a rejected object is rejected
        return self


_REJECTED = _Rejected()


def _parse_buckets(rows: list[Any], violations: list[str]) -> tuple[list[Bucket], set[RiskClass]]:
    # The buckets read, and the classes of the rows not read: any id of such a class may be the id of one of them.
    buckets: list[Bucket] = []
    unlisted = set(RiskClass) if rows is _REJECTED else set()
    for pos, row in enumerate(rows):
        where = f"buckets[{pos}]: "
        rc = None
        try:
            rc = _RISK_CLASSES[read_object(row, "bucket").get("risk_class")]
            bucket_id = read_integer(row.get("id"), "id")
        except (KeyError, TypeError, JSONFieldError) as exc:  # TypeError: a list or object is no key
            violations.append(where + (str(exc) if isinstance(exc, JSONFieldError) else "missing or unknown risk_class"))
            unlisted.update(RiskClass if rc is None else (rc,))
            continue
        by_tenor = _field(read_object, row, "risk_weights_by_tenor", where, violations, {})
        buckets.append(
            Bucket(
                rc,
                bucket_id,
                _field(read_string, row, "description", where, violations, ""),
                _field(_read_weight, row, "risk_weight", where, violations),
                _keyed(by_tenor, float, "tenor", _read_weight, "risk_weights_by_tenor", where, violations),
                _field(read_string, row, "economy", where, violations),
                _field(read_string, row, "size", where, violations),
                _field(_strings, row, "sectors", where, violations),
                _field(_strings, row, "currencies", where, violations, ()),
                _field(_strings, row, "commodities", where, violations, ()),
                _field(read_bool, row, "residual", where, violations, False),
            )
        )
    return buckets, unlisted


def _read(reader: Callable[..., Any], value: Any, field: str, where: str, violations: list[str], key: Any = None) -> Any:
    # reader's value, or the placeholder where it rejects the value: a violation names it, unless it is the placeholder.
    try:
        return reader(value, field, key)
    except JSONFieldError as exc:
        if value is not _REJECTED:
            violations.append(where + str(exc))
        return _REJECTED


def _field(reader: Callable[..., Any], row: dict[str, Any], name: str, where: str, violations: list[str],
           default: Any = None) -> Any:
    # row[name] as ``reader`` reads it, or ``default`` where absent or null; a field of a rejected object is rejected.
    value = row.get(name)
    try:
        return default if value is None else reader(value, name)
    except JSONFieldError:  # _read reads it again to name it; an accepted value takes one call
        return _read(reader, value, name, where, violations)


def _keyed(table: dict[str, Any], key_type: type, what: str, reader: Callable[..., Any], label: str, where: str,
           violations: list[str]) -> Any:
    # The values of ``table`` by key as ``key_type`` reads it, which is lenient: "1", " 1" and "1.0" are one tenor.
    # So a second key for one id or tenor is a violation naming both, and a table with a key not read is rejected.
    entries, keys = {}, {}  # by key read: the value, and the key it was read from
    rejected = table is _REJECTED
    for key, value in table.items():
        value = _read(reader, value, label, where, violations, key)
        try:
            parsed = key_type(key)
        except ValueError:
            violations.append(f"{where}{label}: {key!r} is not a {what}")
            rejected = True
            continue
        if parsed in keys:
            violations.append(f"{where}{label}: keys {keys[parsed]!r} and {key!r} name one {what}")
        else:
            entries[parsed], keys[parsed] = value, key
    return _REJECTED if rejected else MappingProxyType(entries) if entries else _EMPTY


def _strings(value: Any, field: str, key: Any = None) -> tuple[str, ...]:
    return tuple([read_string(item, field, i) for i, item in enumerate(read_list(value, field))])


def _by_class(data: dict[str, Any], name: str, violations: list[str]) -> Iterator[tuple[RiskClass, str, Any]]:
    # (risk class, label, object) of each entry of the object ``name``, which is keyed by risk class token.
    section = _field(read_object, data, name, "", violations, {})
    if section is _REJECTED:  # it stands for a rejected object of every class
        section = dict.fromkeys(_RISK_CLASSES, section)
    for rc_token, table in section.items():
        label = f"{name}[{rc_token}]"
        if rc_token not in _RISK_CLASSES:
            violations.append(f"{name}: unknown risk class {rc_token!r}")
            continue
        yield _RISK_CLASSES[rc_token], label, _read(read_object, table, label, "", violations)


def _parse_correlations(data: dict[str, Any], violations: list[str]) -> tuple[dict[RiskClass, Any], ...]:
    # The rho table of each class, by bucket id; the gamma default of each class; and each gamma, by (class, b, c).
    intra = {rc: _keyed(per_bucket, int, "bucket id", _read_correlation, label, "", violations)
             for rc, label, per_bucket in _by_class(data, "intra_correlations", violations)}
    cross_default: dict[RiskClass, Any] = {}
    cross_pairs: dict[tuple[RiskClass, int, int], Any] = {}
    for rc, label, spec_block in _by_class(data, "cross_correlations", violations):
        default = _field(_read_correlation, spec_block, "default", f"{label}.", violations)
        if default is not None:
            cross_default[rc] = default
        for pos, pair in enumerate(_field(read_list, spec_block, "pairs", f"{label}.", violations, ())):
            where = f"{label}.pairs[{pos}]: "
            try:
                b_id = read_integer(read_object(pair, "pair").get("b"), "b")
                c_id = read_integer(pair.get("c"), "c")
            except JSONFieldError as exc:
                violations.append(where + str(exc))
                cross_default.setdefault(rc, _REJECTED)  # the pair not read may be any pair of the class
                continue
            value = _read(_read_correlation, pair.get("value"), "value", where, violations)
            if b_id == c_id:
                violations.append(f"{where}b and c must differ")
                continue
            existing = cross_pairs.get((rc, b_id, c_id), cross_pairs.get((rc, c_id, b_id)))
            if existing is None:
                cross_pairs[rc, b_id, c_id] = value
            elif existing != value and _REJECTED not in (existing, value):
                violations.append(
                    f"{where}asymmetric duplicate, ({b_id},{c_id}) already tabulated as {existing} but found {value}"
                )
    return intra, cross_default, cross_pairs


def _validate(grid: Any, buckets: list[Bucket], unlisted: set[RiskClass], intra: dict[RiskClass, Any],
              cross_default: dict[RiskClass, Any], cross_pairs: dict[Any, Any], floor: Any, rules: ScenarioRules,
              violations: list[str]) -> None:
    # The rules that span fields; each value was checked where it was read, and each one rejected is the placeholder.
    if _REJECTED in grid:  # a grid with a rejected entry is checked against nothing
        grid = _REJECTED
    elif not grid:
        violations.append("tenor_grid must be non-empty")
    elif any(a >= b for a, b in itertools.pairwise(grid)):
        violations.append("tenor_grid must be strictly increasing")

    ids: dict[RiskClass, set[int]] = {rc: set() for rc in RiskClass}
    for b in buckets:
        tag = f"{b.risk_class.value} bucket {b.bucket_id}"
        if b.bucket_id in ids[b.risk_class]:
            violations.append(f"{tag}: duplicate bucket id within risk class")
        ids[b.risk_class].add(b.bucket_id)
        if b.risk_class is RiskClass.GIRR:
            if b.risk_weight is not None:
                violations.append(f"{tag}: GIRR buckets use risk_weights_by_tenor, not a scalar weight")
            missing = [t for t in grid if t not in b.risk_weights_by_tenor]
            if missing:
                violations.append(f"{tag}: missing risk weight for tenor(s) {missing}")
            extra = [t for t in b.risk_weights_by_tenor if t not in grid]
            if extra:
                violations.append(f"{tag}: risk weight tabulated for off-grid tenor(s) {sorted(extra)}")
        else:
            if b.risk_weights_by_tenor:
                violations.append(f"{tag}: only GIRR buckets may carry tenor risk weights")
            if b.risk_weight is None:
                violations.append(f"{tag}: missing risk_weight")
    # residual_bucket returns one bucket per class; a second would silently take some issuers.
    for rc in RiskClass:
        residual = [str(b.bucket_id) for b in buckets if b.risk_class is rc and b.residual]
        if len(residual) > 1:
            violations.append(f"{rc.value} buckets {', '.join(residual)}: more than one residual bucket in the class")

    known = {rc: _REJECTED if rc in unlisted else ids[rc] for rc in RiskClass}
    refs = [("intra correlation", rc, b) for rc, rhos in intra.items() for b in rhos]
    refs += [("cross correlation pair", rc, b) for rc, *pair in cross_pairs for b in pair]
    violations.extend(f"{name} references unknown {rc.value} bucket {b}" for name, rc, b in refs if b not in known[rc])

    # Completeness: a rho for every bucket that can hold two names, a gamma for every pair of buckets in a class.
    # GIRR tenors correlate by formula; an FX bucket holds two names only if it lists two currencies.
    for b in buckets:
        if b.risk_class is RiskClass.GIRR or b.bucket_id in intra.get(b.risk_class, ()):
            continue
        if b.risk_class is not RiskClass.FX or len(b.currencies) > 1:
            violations.append(f"{b.risk_class.value} bucket {b.bucket_id}: no intra-bucket correlation tabulated")
    for rc in (rc for rc in RiskClass if rc not in cross_default):
        violations.extend(
            f"{rc.value} buckets ({b_id}, {c_id}): no cross-bucket correlation, and no class default"
            for b_id, c_id in itertools.combinations(sorted(ids[rc]), 2)
            if (rc, b_id, c_id) not in cross_pairs and (rc, c_id, b_id) not in cross_pairs
        )

    # Scenario-adjusted correlations stay in [-1, 1]. Both rules are non-decreasing in rho (no scale is negative), so
    # a class's adjusted values lie between those of its range's ends; GIRR tenors range over [floor, 1].
    if _REJECTED in rules:
        return
    values = {rc: [*rhos.values()] for rc, rhos in intra.items()}
    for rc, gamma in [*cross_default.items(), *((key[0], gamma) for key, gamma in cross_pairs.items())]:
        values.setdefault(rc, []).append(gamma)
    values.setdefault(RiskClass.GIRR, []).extend((floor, 1.0))
    for rc, rhos in values.items():
        if _REJECTED in rhos:
            continue
        lo, hi = min(rhos), max(rhos)
        for scenario in (_HIGH, _LOW):
            worst = max(apply_scenario(lo, scenario, rules), apply_scenario(hi, scenario, rules), key=abs)
            if abs(worst) > 1.0:
                violations.append(f"{rc.value} correlations in [{lo!r}, {hi!r}] reach {worst!r} under scenario "
                                  f"{scenario.value}; a scenario-adjusted correlation must stay in [-1, 1]")


def rulebook_from_dict(data: dict[str, Any]) -> Rulebook:
    """Validate the file schema and build a Rulebook from it.

    Raises RulebookParseError if ``data`` is no object, else RulebookValidationError naming every violation.
    """
    if not isinstance(data, dict):
        raise RulebookParseError("rulebook document must be a JSON object")
    violations: list[str] = []
    version = _field(read_string, data, "version", "", violations, "")
    schema_version = _field(_read_literal, data, "schema_version", "", violations, 1)
    grid = _field(read_list, data, "tenor_grid", "", violations, ())
    if grid is not _REJECTED:
        grid = tuple([_read(_read_positive, t, "tenor_grid", "", violations, i) for i, t in enumerate(grid)])
    buckets, unlisted = _parse_buckets(_field(read_list, data, "buckets", "", violations, ()), violations)
    intra, cross_default, cross_pairs = _parse_correlations(data, violations)
    tenor_raw = _field(read_object, data, "girr_tenor_params", "", violations, {})
    tenor = GirrTenorParams(
        _field(_read_positive, tenor_raw, "theta", "girr_tenor_params.", violations, GirrTenorParams().theta),
        _field(_read_floor, tenor_raw, "floor", "girr_tenor_params.", violations, GirrTenorParams().floor),
    )
    rules, scenario_raw = ScenarioRules(), _field(read_object, data, "scenario_rules", "", violations, {})
    high = _field(read_object, scenario_raw, "high", "scenario_rules.", violations, {})
    low = _field(read_object, scenario_raw, "low", "scenario_rules.", violations, {})
    rules = ScenarioRules(
        _field(_read_positive, high, "scale", "scenario_rules.high.", violations, rules.high_scale),
        _field(_read_cap, high, "cap", "scenario_rules.high.", violations, rules.high_cap),
        _field(_read_positive, low, "scale", "scenario_rules.low.", violations, rules.low_scale),
        _field(_read_slope, low, "affine_scale", "scenario_rules.low.", violations, rules.low_affine_scale),
        _field(_read_affine, low, "affine_shift", "scenario_rules.low.", violations, rules.low_affine_shift),
    )
    _validate(grid, buckets, unlisted, intra, cross_default, cross_pairs, tenor.floor, rules, violations)
    if violations:
        raise RulebookValidationError(violations)
    rhos = {(rc, bucket_id): rho for rc, per_bucket in intra.items() for bucket_id, rho in per_bucket.items()}
    table = CorrelationTable(*map(MappingProxyType, (rhos, cross_default, cross_pairs)))
    return Rulebook(version, schema_version, grid, tuple(buckets), table, tenor, rules)


def load_rulebook(path: str | Path) -> Rulebook:
    """Load and validate a rulebook JSON file."""
    return rulebook_from_dict(read_json_object(path, RulebookParseError, "rulebook document"))


def read_json_object(path: str | Path, error_cls: type[Exception], what: str = "top level") -> dict[str, Any]:
    """The JSON object in the file at ``path``, as every JSON input loader reads it; each error names the path."""
    return _parse_json_object(read_text(path, error_cls), error_cls, str(path), what)


def _parse_json_object(text: str, error_cls: type[Exception], label: str, what: str = "top level") -> dict[str, Any]:
    # The JSON object ``text`` holds; invalid JSON or another top-level type raises ``error_cls``, prefixed ``label: ``.
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error_cls(f"{label}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # The one other ValueError: int() refuses a literal of more digits than the interpreter's limit.
        raise error_cls(
            f"{label}: invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError:
        raise error_cls(f"{label}: invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise error_cls(f"{label}: {what} must be a JSON object")
    return data


def _prefixed(label: str, read: Callable[[Any], Any], raw: Any, errors: tuple[type[Exception], ...],
              key: Any = None) -> Any:
    """``read(raw)``; what it rejects is raised as ``errors[0]`` prefixed ``label: ``, or ``label[key!r]: `` with a key.

    ``errors`` are the loader's error class and the others its readers raise; a KeyError reads ``missing field 'x'``.
    """
    try:
        return read(raw)
    except (KeyError, JSONFieldError, *errors) as exc:
        label = label if key is None else f"{label}[{key!r}]"
        raise errors[0](f"{label}: missing field {exc}" if isinstance(exc, KeyError) else f"{label}: {exc}") from None


def _each(items: Any, field: str, read: Callable[[Any], Any], errors: tuple[type[Exception], ...]) -> tuple[Any, ...]:
    """``read`` of each item of the list ``items``; item i's error is raised as by ``_prefixed``, as ``field[i]: ``."""
    rows, done = read_list(items, field), []
    try:
        for row in rows:
            done.append(read(row))
    except (KeyError, JSONFieldError, *errors):  # a row read takes one call; _prefixed reads the rejected one again
        _prefixed(field, read, rows[len(done)], errors, len(done))
        raise
    return tuple(done)


def read_text(path: str | Path, error_cls: type[Exception]) -> str:
    """The UTF-8 text of the file at ``path`` as ``Path.read_text`` gives it; a bad byte raises ``error_cls``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise error_cls(f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}") from None


class JSONFieldError(Exception):
    """A JSON value is not what its field takes: ``<field> must be <kind>, got <value!r>``.

    Every JSON input loader reads each value through the ``read_*`` functions below and turns this into its own error.
    ``key`` names an entry of a list or object field, ``field[key]``; no label is formatted unless a value is rejected.
    """

    def __init__(self, field: str, kind: str, value: Any, key: Any = None):
        super().__init__(f"{field if key is None else f'{field}[{key!r}]'} must be {kind}, got {value!r}")


def read_number(value: Any, field: str, key: Any = None) -> float:
    """A JSON number, not a bool, as a float; an integer past the float range is the infinity of its sign."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise JSONFieldError(field, "a number", value, key)


def read_finite(value: Any, field: str, key: Any = None) -> float:
    """A JSON number that is neither NaN nor infinite, as a float."""
    number = value if type(value) is float else read_number(value, field, key)
    if number - number != 0.0:
        raise JSONFieldError(field, "a finite number", value, key)
    return number


def read_integer(value: Any, field: str, key: Any = None) -> int:
    """A JSON integer, or a number of integral value such as 2.0; not a bool, a fraction or an infinity."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise JSONFieldError(field, "an integer", value, key)


def _bounded(kind: str, low: float, high: float) -> Callable[..., float]:
    # Numbers in [low, high], NaN aside; an open bound is the nearest float inside. A rejection names the float read.
    def read(value: Any, field: str, key: Any = None) -> float:
        number = value if type(value) is float else read_number(value, field, key)
        if low <= number <= high:
            return number
        raise JSONFieldError(field, kind, number, key)

    return read


_read_weight = _bounded("in [0, 1] (enter fractions, not percent)", 0.0, 1.0)
_read_correlation = _bounded("in [-1, 1]", -1.0, 1.0)
_read_positive = _bounded("a finite number above 0", math.nextafter(0.0, 1.0), sys.float_info.max)
_read_floor = _bounded("in (0, 1)", math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
_read_cap = _bounded("a finite number at most 1", -sys.float_info.max, 1.0)
_read_affine = _bounded("a finite number", -sys.float_info.max, sys.float_info.max)
_read_slope = _bounded("a finite number at least 0", 0.0, sys.float_info.max)


def _read_literal(value: Any, field: str, key: Any = None, literal: int = 1) -> int:
    # The one integer a field takes, such as a schema_version of 1.
    if read_integer(value, field, key) != literal:
        raise JSONFieldError(field, str(literal), value, key)
    return literal


def _reader(json_type: type, kind: str) -> Callable[..., Any]:
    def read(value: Any, field: str, key: Any = None) -> Any:
        if type(value) is json_type:
            return value
        raise JSONFieldError(field, kind, value, key)

    return read


read_string: Callable[..., str] = _reader(str, "a string")
read_bool: Callable[..., bool] = _reader(bool, "true or false")
read_list: Callable[..., list[Any]] = _reader(list, "a list")
read_object: Callable[..., dict[str, Any]] = _reader(dict, "an object")
