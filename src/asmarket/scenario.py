"""Market instance data model, validation and file ingestion.

A scenario document is a single JSON tree with explicit units in the field
names (diffable, hand-editable). ``schema_version`` is carried at the top
level so the format can evolve.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

SCHEMA_VERSION = 1

PHES = "PHES"
BESS = "BESS"


class ScenarioError(Exception):
    """Raised when a scenario document cannot be parsed at all."""


class ScenarioValidationError(ScenarioError):
    """Carries every violated invariant, each naming a field path."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid scenario:\n" + "\n".join(self.diagnostics))


def _is_number(v) -> bool:
    """A finite JSON number (an integer or a float; a boolean is not one)."""
    return isinstance(v, float) and math.isfinite(v) or isinstance(v, int) and not isinstance(v, bool)


# declared field type -> (check, what the value must be)
_FIELD_CHECKS = {
    "float": (_is_number, "a finite number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}
_SERIES = "tuple[float, ...]"  # hourly values, a list of numbers in a document
_DOC_KEYS = {"params": "system", "horizon": "horizon_hours"}  # where field and key differ


@functools.cache
def _typed_fields(cls) -> tuple:
    """A getter of the type-checked fields of ``cls``: its scalars' (document
    key, check, what), then its series' (document key, optional)."""
    scalars = [f for f in fields(cls) if f.type in _FIELD_CHECKS]
    series = [f for f in fields(cls) if f.type in (_SERIES, f"{_SERIES} | None")]
    return (
        operator.attrgetter(*(f.name for f in scalars + series)),
        tuple((_DOC_KEYS.get(f.name, f.name), *_FIELD_CHECKS[f.type]) for f in scalars),
        tuple((_DOC_KEYS.get(f.name, f.name), f.type != _SERIES) for f in series),
    )


def _type_errors(obj, prefix: str) -> list[str]:
    """A diagnostic for each field of ``obj`` not holding a value of its
    declared type: a finite number for ``float``, an integer for ``int``, a
    boolean for ``bool``, a string for ``str``, and a tuple of finite
    numbers (or None, if optional) for a series."""
    getter, scalars, series = _typed_fields(type(obj))
    values = getter(obj)
    out = [f"{prefix}{key}: must be {what} (got {v!r})" for (key, ok, what), v in zip(scalars, values) if not ok(v)]
    for (key, optional), v in zip(series, values[len(scalars):]):
        if isinstance(v, tuple):
            out.extend(f"{prefix}{key}[{t}]: must be a finite number (got {x!r})" for t, x in enumerate(v) if not _is_number(x))
        elif not (optional and v is None):
            out.append(f"{prefix}{key}: must be a list of numbers (got {v!r})")
    return out


@dataclass(frozen=True)
class SystemParams:
    """Frequency-security parameters of the grid."""

    f0_hz: float = 50.0
    rocof_max_hz_per_s: float = 1.0
    delta_f_max_hz: float = 0.8
    t_efr_s: float = 1.0
    t_pfr_s: float = 10.0

    def validate(self, path: str = "system") -> list[str]:
        out = _type_errors(self, f"{path}.")
        if out:
            return out
        for name in ("f0_hz", "rocof_max_hz_per_s", "delta_f_max_hz", "t_efr_s", "t_pfr_s"):
            v = getattr(self, name)
            if v <= 0:
                out.append(f"{path}.{name}: must be strictly positive (got {v!r})")
        if self.t_efr_s >= self.t_pfr_s:
            out.append(f"{path}.t_efr_s: must be < t_pfr_s (got {self.t_efr_s} >= {self.t_pfr_s})")
        if self.delta_f_max_hz >= self.f0_hz:
            out.append(f"{path}.delta_f_max_hz: must be < f0_hz (got {self.delta_f_max_hz} >= {self.f0_hz})")
        return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Thermal generator: committed energy, inertia and PFR provider."""

    id: str
    p_max_mw: float
    p_msg_mw: float
    inertia_s: float
    pfr_max_mw: float
    energy_offer_gbp_per_mwh: float
    inertia_offer_gbp_per_mws: float = 0.0
    pfr_offer_gbp_per_mw: float = 0.0
    min_up_h: int = 0
    min_down_h: int = 0
    start_up_h: int = 0
    initially_on: bool = False  # committed in the hour before the horizon
    loss_eligible: bool = True
    technology: str = "thermal"

    def validate(self, path: str, horizon: int | None = None) -> list[str]:
        out = _type_errors(self, f"{path}.")
        if out:
            return out
        if not (0 <= self.p_msg_mw <= self.p_max_mw):
            out.append(f"{path}.p_msg_mw: must satisfy 0 <= p_msg <= p_max (got {self.p_msg_mw}, p_max {self.p_max_mw})")
        if self.p_max_mw <= 0:
            out.append(f"{path}.p_max_mw: must be > 0 (got {self.p_max_mw})")
        if not (0 <= self.pfr_max_mw <= self.p_max_mw):
            out.append(f"{path}.pfr_max_mw: must satisfy 0 <= pfr_max <= p_max (got {self.pfr_max_mw})")
        if self.inertia_s < 0:
            out.append(f"{path}.inertia_s: must be >= 0 (got {self.inertia_s})")
        for name in ("min_up_h", "min_down_h", "start_up_h"):
            v = getattr(self, name)
            if v < 0:
                out.append(f"{path}.{name}: must be a non-negative integer (got {v!r})")
        return out


@dataclass(frozen=True)
class RESSpec:
    """Renewable unit with an hourly capacity-factor profile."""

    id: str
    p_max_mw: float
    cf: tuple[float, ...]
    energy_offer_gbp_per_mwh: float
    loss_eligible: bool = True
    technology: str = "res"

    def validate(self, path: str, horizon: int | None = None) -> list[str]:
        out = _type_errors(self, f"{path}.")
        if out:
            return out
        if self.p_max_mw <= 0:
            out.append(f"{path}.p_max_mw: must be > 0 (got {self.p_max_mw})")
        if horizon is not None and len(self.cf) != horizon:
            out.append(f"{path}.cf: length {len(self.cf)} does not match horizon {horizon}")
        for t, v in enumerate(self.cf):
            if not (0.0 <= v <= 1.0):
                out.append(f"{path}.cf[{t}]: must lie in [0, 1] (got {v})")
        return out


@dataclass(frozen=True)
class StorageSpec:
    """Storage unit. PHES provide inertia and PFR, BESS provide EFR."""

    id: str
    kind: str
    p_max_mw: float
    p_msg_mw: float
    e_min_mwh: float
    e_max_mwh: float
    e_ini_mwh: float
    e_end_mwh: float
    eta_charge: float
    eta_discharge: float
    inertia_s: float
    pfr_max_mw: float
    efr_max_mw: float
    energy_offer_gbp_per_mwh: float
    inertia_offer_gbp_per_mws: float = 0.0
    pfr_offer_gbp_per_mw: float = 0.0
    efr_offer_gbp_per_mw: float = 0.0
    loss_eligible: bool = True
    technology: str = "storage"

    def validate(self, path: str, horizon: int | None = None) -> list[str]:
        out = _type_errors(self, f"{path}.")
        if out:
            return out
        if self.kind not in (PHES, BESS):
            out.append(f"{path}.kind: must be 'PHES' or 'BESS' (got {self.kind!r})")
        if self.p_max_mw <= 0:
            out.append(f"{path}.p_max_mw: must be > 0 (got {self.p_max_mw})")
        if not (0 <= self.p_msg_mw <= self.p_max_mw):
            out.append(f"{path}.p_msg_mw: must satisfy 0 <= p_msg <= p_max (got {self.p_msg_mw})")
        if not (self.e_min_mwh <= self.e_ini_mwh <= self.e_max_mwh):
            out.append(f"{path}.e_ini_mwh: must satisfy e_min <= e_ini <= e_max (got {self.e_ini_mwh})")
        if not (self.e_min_mwh <= self.e_end_mwh <= self.e_max_mwh):
            out.append(f"{path}.e_end_mwh: must satisfy e_min <= e_end <= e_max (got {self.e_end_mwh})")
        for name in ("eta_charge", "eta_discharge"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                out.append(f"{path}.{name}: must lie in (0, 1] (got {v})")
        if not (0 <= self.pfr_max_mw <= self.p_max_mw):
            out.append(f"{path}.pfr_max_mw: must satisfy 0 <= pfr_max <= p_max (got {self.pfr_max_mw})")
        if not (0 <= self.efr_max_mw <= self.p_max_mw):
            out.append(f"{path}.efr_max_mw: must satisfy 0 <= efr_max <= p_max (got {self.efr_max_mw})")
        if self.inertia_s < 0:
            out.append(f"{path}.inertia_s: must be >= 0 (got {self.inertia_s})")
        # Service mapping: BESS deliver EFR only, PHES deliver PFR only.
        if self.kind == BESS and self.pfr_max_mw != 0:
            out.append(f"{path}.pfr_max_mw: BESS units must have pfr_max = 0 (got {self.pfr_max_mw})")
        if self.kind == PHES and self.efr_max_mw != 0:
            out.append(f"{path}.efr_max_mw: PHES units must have efr_max = 0 (got {self.efr_max_mw})")
        return out


def _csv_unsafe(label: str) -> bool:
    """Whether ``label`` cannot be written into an unquoted CSV field: it
    holds a comma, a double quote, or a line break or other unprintable
    character."""
    return "," in label or '"' in label or not label.isprintable()


# the unit groups: document key and Scenario field, spec class. A unit's
# validate(path, horizon) skips its range checks if a type check fails; a
# horizon of None (the scenario's own type checks failed) skips series lengths.
_UNIT_GROUPS = (("generators", GeneratorSpec), ("res_units", RESSpec), ("storage_units", StorageSpec))


@dataclass(frozen=True)
class Scenario:
    """Complete market instance, immutable. Construction validates it however
    it was built (from a document, by ``gb_template``, by
    ``dataclasses.replace``) and raises ScenarioValidationError on any
    diagnostic."""

    params: SystemParams
    horizon: int
    demand_mw: tuple[float, ...]
    generators: tuple[GeneratorSpec, ...] = ()
    res_units: tuple[RESSpec, ...] = ()
    storage_units: tuple[StorageSpec, ...] = ()
    p_loss_cap_mw: tuple[float, ...] | None = None

    def validate(self) -> list[str]:
        out = self.params.validate()
        own = _type_errors(self, "")
        out += own
        if not own:
            if self.horizon <= 0:
                out.append(f"horizon: must be >= 1 (got {self.horizon})")
            if len(self.demand_mw) != self.horizon:
                out.append(f"demand_mw: length {len(self.demand_mw)} does not match horizon {self.horizon}")
            for t, d in enumerate(self.demand_mw):
                if d <= 0:
                    out.append(f"demand_mw[{t}]: demand must be > 0 (got {d})")
            if self.p_loss_cap_mw is not None:
                if len(self.p_loss_cap_mw) != self.horizon:
                    out.append(f"p_loss_cap_mw: length {len(self.p_loss_cap_mw)} does not match horizon {self.horizon}")
                for t, v in enumerate(self.p_loss_cap_mw):
                    if v < 0:
                        out.append(f"p_loss_cap_mw[{t}]: must be >= 0 (got {v})")
        horizon = None if own else self.horizon
        if not (self.generators or self.res_units or self.storage_units):
            out.append("generators: the scenario has no units (generators, res_units and storage_units are all empty)")
        seen: set[str] = set()
        technologies = set()
        for key, _ in _UNIT_GROUPS:
            for i, u in enumerate(getattr(self, key)):
                out += u.validate(f"{key}[{i}]", horizon)
                if isinstance(u.technology, str):
                    technologies.add(u.technology)
                if not isinstance(u.id, str):
                    continue  # reported by the unit's type check
                if u.id in seen:
                    out.append(f"{key}[{i}].id: duplicate unit id {u.id!r}")
                seen.add(u.id)
        # the output tables are unquoted CSV: every label is scanned at once,
        # and the units are walked for their paths only if one is unsafe
        if _csv_unsafe("".join(seen) + "".join(technologies)):
            for key, _ in _UNIT_GROUPS:
                for i, u in enumerate(getattr(self, key)):
                    for name in ("id", "technology"):
                        v = getattr(u, name)
                        if isinstance(v, str) and _csv_unsafe(v):
                            out.append(f"{key}[{i}].{name}: must be printable without ',' or '\"' (got {v!r})")
        return out

    def __post_init__(self):
        diags = self.validate()
        if diags:
            raise ScenarioValidationError(diags)

    @property
    def all_units(self) -> tuple:
        return self.generators + self.res_units + self.storage_units

    def technology_of(self) -> dict[str, str]:
        return {u.id: u.technology for u in self.all_units}

    def truncated(self, hours: int) -> "Scenario":
        """Restrict the instance to its first ``hours`` hours."""
        if hours < 1 or hours > self.horizon:
            raise ValueError(f"hours must be in [1, {self.horizon}] (got {hours})")
        return replace(
            self,
            horizon=hours,
            demand_mw=self.demand_mw[:hours],
            res_units=tuple(replace(r, cf=r.cf[:hours]) for r in self.res_units),
            p_loss_cap_mw=None if self.p_loss_cap_mw is None else self.p_loss_cap_mw[:hours],
        )


# ---------------------------------------------------------------------------
# Document I/O

_TOP_KEYS = {"schema_version", *(_DOC_KEYS.get(f.name, f.name) for f in fields(Scenario))}


def _tuple(v):
    """A document's list as a tuple, any other value as it is."""
    return tuple(v) if isinstance(v, list) else v


@functools.cache
def _doc_keys(cls) -> tuple[dict, frozenset, tuple]:
    """The keys of ``cls``'s document objects in field order, the required
    ones, and the series."""
    return (
        dict.fromkeys(f.name for f in fields(cls)),
        frozenset(f.name for f in fields(cls) if f.default is MISSING),
        tuple(f.name for f in fields(cls) if f.type == _SERIES),
    )


def _spec_from_dict(cls, raw, path: str, diags: list[str]):
    """``cls`` built from a document object, or None after reporting a
    non-object, unknown keys or missing required keys. The values are
    checked when the ``Scenario`` holding the spec is built."""
    if not isinstance(raw, dict):
        diags.append(f"{path}: must be an object (got {raw!r})")
        return None
    keys, required, series = _doc_keys(cls)
    if not required <= raw.keys() <= keys.keys():
        diags.extend(f"{path}.{k}: unknown field" for k in sorted(raw.keys() - keys))
        diags.extend(f"{path}.{k}: missing required field" for k in keys if k in required and k not in raw)
        return None
    for key in series:
        raw = {**raw, key: _tuple(raw[key])}
    return cls(**raw)


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a document. Unknown and missing keys and non-objects
    are reported before any value is checked."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION} (got {version!r})")
    diags = [f"{k}: unknown field" for k in sorted(doc.keys() - _TOP_KEYS)]
    diags += [f"{k}: missing required field" for k in ("horizon_hours", "demand_mw") if k not in doc]
    params = _spec_from_dict(SystemParams, doc.get("system", {}), "system", diags)
    units = {}
    for key, cls in _UNIT_GROUPS:
        raws = doc.get(key, [])
        if not isinstance(raws, list):
            diags.append(f"{key}: must be a list of objects (got {raws!r})")
            continue
        units[key] = tuple(_spec_from_dict(cls, raw, f"{key}[{i}]", diags) for i, raw in enumerate(raws))
    if diags:
        raise ScenarioValidationError(diags)
    return Scenario(
        params=params,
        horizon=doc["horizon_hours"],
        demand_mw=_tuple(doc["demand_mw"]),
        p_loss_cap_mw=_tuple(doc.get("p_loss_cap_mw")),
        **units,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": asdict(scenario.params),
        "horizon_hours": scenario.horizon,
        "demand_mw": list(scenario.demand_mw),
        "p_loss_cap_mw": None if scenario.p_loss_cap_mw is None else list(scenario.p_loss_cap_mw),
        "generators": [asdict(g) for g in scenario.generators],
        "res_units": [{**asdict(r), "cf": list(r.cf)} for r in scenario.res_units],
        "storage_units": [asdict(s) for s in scenario.storage_units],
    }


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ScenarioError on malformed documents and ScenarioValidationError
    (listing every violated invariant with its field path) on invalid ones.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    return scenario_from_dict(doc)


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# GB template


def _gb_demand(horizon: int) -> tuple[float, ...]:
    # Synthetic deterministic weekly demand: double-peaked weekday shape,
    # weekends scaled down, normalised to a 62.7 GW peak.
    raw = []
    for t in range(horizon):
        hd = t % 24
        dow = (t // 24) % 7
        shape = (
            0.76
            - 0.14 * math.cos(2 * math.pi * (hd - 2.0) / 24.0)
            - 0.08 * math.cos(4 * math.pi * (hd - 1.0) / 24.0)
        )
        if dow >= 5:
            shape *= 0.93
        raw.append(shape)
    peak = max(raw)
    return tuple(62700.0 * s / peak for s in raw)


def _gb_cf(kind: str, horizon: int) -> tuple[float, ...]:
    # Single deterministic profile per RES technology.
    out = []
    for t in range(horizon):
        if kind == "offshore":
            v = 0.45 + 0.28 * math.sin(2 * math.pi * (t - 30) / 52.7) + 0.12 * math.sin(2 * math.pi * t / 17.3)
            v = min(max(v, 0.05), 0.95)
        elif kind == "onshore":
            v = 0.32 + 0.24 * math.sin(2 * math.pi * (t - 40) / 48.3) + 0.10 * math.sin(2 * math.pi * t / 13.1)
            v = min(max(v, 0.03), 0.90)
        else:  # solar
            hd = t % 24
            bell = math.sin(math.pi * (hd - 6.0) / 13.0) if 6 <= hd <= 19 else 0.0
            v = 0.62 * max(bell, 0.0) ** 1.2
        out.append(v)
    return tuple(out)


def gb_template(horizon: int = 168) -> Scenario:
    """Future GB fleet template.

    Unit counts fill each technology's installed capacity with uniform unit
    sizes (capacity and power ranges as published for the mix): Big Nuclear
    1x1800, Nuclear 2x1600, CCGT 25x1000, OCGT 10x100, Biomass 6x500,
    BECCS 2x500, Offshore 28x1800, Onshore 50x600, Solar 168x250,
    PHES 12x400, BESS 200x100. Energy/inertia/response offers follow the
    published table; response capacity is the stated share of p_max.

    Storage energy capacities (PHES 8 h, BESS 2 h), round-trip efficiencies,
    min-up/down times and the demand/CF profiles are synthetic deterministic
    choices, documented here because the source mix does not publish them.
    Start-up lead times are zero so the template solves from a cold start.
    """
    gens: list[GeneratorSpec] = []

    def add_gens(prefix, tech, count, p_msg, p_max, h, pfr_share, le, lh, lpfr, mut, mdt):
        for i in range(count):
            gens.append(
                GeneratorSpec(
                    id=f"{prefix}_{i + 1}",
                    p_max_mw=p_max,
                    p_msg_mw=p_msg,
                    inertia_s=h,
                    pfr_max_mw=pfr_share * p_max,
                    energy_offer_gbp_per_mwh=le,
                    inertia_offer_gbp_per_mws=lh,
                    pfr_offer_gbp_per_mw=lpfr,
                    min_up_h=mut,
                    min_down_h=mdt,
                    start_up_h=0,
                    technology=tech,
                )
            )

    add_gens("big_nuclear", "Big Nuclear", 1, 1800, 1800, 5, 0.0, 78, 1, 0, 24, 24)
    add_gens("nuclear", "Nuclear", 2, 1600, 1600, 5, 0.0, 78, 1, 0, 24, 24)
    add_gens("ccgt", "CCGT", 25, 500, 1000, 5, 0.30, 99, 2, 3, 4, 4)
    add_gens("ocgt", "OCGT", 10, 50, 100, 5, 0.30, 222, 5, 7, 1, 1)
    add_gens("biomass", "Biomass", 6, 450, 500, 5, 0.20, 98, 4, 4.5, 4, 4)
    add_gens("beccs", "BECCS", 2, 450, 500, 5, 0.20, 138, 3.5, 4.5, 4, 4)

    res: list[RESSpec] = []
    for name, tech, count, p_max, offer in (
        ("offshore", "Offshore Wind", 28, 1800.0, 47.0),
        ("onshore", "Onshore Wind", 50, 600.0, 45.0),
        ("solar", "Solar PV", 168, 250.0, 39.0),
    ):
        cf = _gb_cf(name, horizon)
        for i in range(count):
            res.append(
                RESSpec(
                    id=f"{name}_{i + 1}",
                    p_max_mw=p_max,
                    cf=cf,
                    energy_offer_gbp_per_mwh=offer,
                    technology=tech,
                )
            )

    stos: list[StorageSpec] = []
    # e_ini = e_end = half the energy capacity; offers: energy, inertia, PFR, EFR
    for kind, count, p_max, e_max, eta, h, pfr, efr, le, lh, lpfr, lefr in (
        (PHES, 12, 400.0, 3200.0, 0.866, 5.0, 80.0, 0.0, 60.0, 1.0, 5.0, 0.0),
        (BESS, 200, 100.0, 200.0, 0.92, 0.0, 0.0, 5.0, 50.0, 0.0, 0.0, 10.0),
    ):
        for i in range(count):
            stos.append(
                StorageSpec(
                    id=f"{kind.lower()}_{i + 1}",
                    kind=kind,
                    p_max_mw=p_max,
                    p_msg_mw=0.0,
                    e_min_mwh=0.0,
                    e_max_mwh=e_max,
                    e_ini_mwh=e_max / 2,
                    e_end_mwh=e_max / 2,
                    eta_charge=eta,
                    eta_discharge=eta,
                    inertia_s=h,
                    pfr_max_mw=pfr,
                    efr_max_mw=efr,
                    energy_offer_gbp_per_mwh=le,
                    inertia_offer_gbp_per_mws=lh,
                    pfr_offer_gbp_per_mw=lpfr,
                    efr_offer_gbp_per_mw=lefr,
                    technology=kind,
                )
            )

    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=_gb_demand(horizon),
        generators=tuple(gens),
        res_units=tuple(res),
        storage_units=tuple(stos),
    )
