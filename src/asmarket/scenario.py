"""Market instance data model, validation and file ingestion.

A scenario document is a single JSON tree with explicit units in the field
names (diffable, hand-editable). ``schema_version`` is carried at the top
level so the format can evolve.
"""
from __future__ import annotations

import functools
import json
import math
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
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class SystemParams:
    """Frequency-security parameters of the grid."""

    f0_hz: float = 50.0
    rocof_max_hz_per_s: float = 1.0
    delta_f_max_hz: float = 0.8
    t_efr_s: float = 1.0
    t_pfr_s: float = 10.0

    def validate(self, path: str = "system") -> list[str]:
        out = []
        for name in ("f0_hz", "rocof_max_hz_per_s", "delta_f_max_hz", "t_efr_s", "t_pfr_s"):
            v = getattr(self, name)
            if not (_is_number(v) and v > 0):
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
    loss_eligible: bool = True
    technology: str = "thermal"

    def validate(self, path: str) -> list[str]:
        out = []
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
            if not (_is_integer(v) and v >= 0):
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

    def validate(self, path: str, horizon: int) -> list[str]:
        out = []
        if self.p_max_mw <= 0:
            out.append(f"{path}.p_max_mw: must be > 0 (got {self.p_max_mw})")
        if len(self.cf) != horizon:
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

    def validate(self, path: str) -> list[str]:
        out = []
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


@dataclass(frozen=True)
class Scenario:
    """Complete market instance. Validated on construction, which raises
    ScenarioValidationError on any diagnostic, and immutable after it."""

    params: SystemParams
    horizon: int
    demand_mw: tuple[float, ...]
    generators: tuple[GeneratorSpec, ...] = ()
    res_units: tuple[RESSpec, ...] = ()
    storage_units: tuple[StorageSpec, ...] = ()
    p_loss_cap_mw: tuple[float, ...] | None = None

    def validate(self) -> list[str]:
        out = self.params.validate()
        if self.horizon <= 0:
            out.append(f"horizon: must be >= 1 (got {self.horizon})")
        if len(self.demand_mw) != self.horizon:
            out.append(f"demand_mw: length {len(self.demand_mw)} does not match horizon {self.horizon}")
        for t, d in enumerate(self.demand_mw):
            if not (_is_number(d) and d > 0):
                out.append(f"demand_mw[{t}]: demand must be > 0 (got {d})")
        if self.p_loss_cap_mw is not None:
            if len(self.p_loss_cap_mw) != self.horizon:
                out.append(f"p_loss_cap_mw: length {len(self.p_loss_cap_mw)} does not match horizon {self.horizon}")
            for t, v in enumerate(self.p_loss_cap_mw):
                if v < 0:
                    out.append(f"p_loss_cap_mw[{t}]: must be >= 0 (got {v})")
        seen: set[str] = set()
        for i, g in enumerate(self.generators):
            out.extend(g.validate(f"generators[{i}]"))
            if g.id in seen:
                out.append(f"generators[{i}].id: duplicate unit id {g.id!r}")
            seen.add(g.id)
        for i, r in enumerate(self.res_units):
            out.extend(r.validate(f"res_units[{i}]", self.horizon))
            if r.id in seen:
                out.append(f"res_units[{i}].id: duplicate unit id {r.id!r}")
            seen.add(r.id)
        for i, s in enumerate(self.storage_units):
            out.extend(s.validate(f"storage_units[{i}]"))
            if s.id in seen:
                out.append(f"storage_units[{i}].id: duplicate unit id {s.id!r}")
            seen.add(s.id)
        return out

    def __post_init__(self):
        diags = self.validate()
        if diags:
            raise ScenarioValidationError(diags)

    @property
    def all_units(self) -> tuple:
        return self.generators + self.res_units + self.storage_units

    def unit_ids(self) -> list[str]:
        return [u.id for u in self.all_units]

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


def _numbers(v, path: str, diags: list[str]) -> tuple[float, ...] | None:
    """``v`` as floats if it is a list of finite JSON numbers; else each
    offending entry is reported and None returned."""
    if not isinstance(v, list):
        diags.append(f"{path}: must be a list of numbers (got {v!r})")
        return None
    bad = [f"{path}[{t}]: must be a finite number (got {x!r})" for t, x in enumerate(v) if not _is_number(x)]
    diags.extend(bad)
    return None if bad else tuple(float(x) for x in v)


# declared field type -> (check, what the value must be)
_FIELD_CHECKS = {
    "float": (_is_number, "a finite number"),
    "int": (_is_integer, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@functools.cache
def _field_table(cls) -> tuple[tuple[str, str, bool], ...]:
    """(name, declared type, required) of each field of ``cls``."""
    return tuple(
        (f.name, f.type, f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)
    )


def _spec_from_dict(cls, raw: dict, path: str, diags: list[str]):
    """Build a dataclass from a JSON mapping, reporting unknown/missing keys
    and fields not holding a value of their declared type: a finite number
    for ``float``, an integer for ``int``, a boolean for ``bool`` and a
    string for ``str``."""
    if not isinstance(raw, dict):
        diags.append(f"{path}: must be an object (got {raw!r})")
        return None
    table = _field_table(cls)
    for k in sorted(set(raw) - {name for name, _, _ in table}):
        diags.append(f"{path}.{k}: unknown field")
    kwargs, missing = {}, []
    n_diags = len(diags)
    for name, type_, required in table:
        if name not in raw:
            if required:
                missing.append(f"{path}.{name}: missing required field")
            continue
        v = raw[name]
        if name == "cf":
            v = _numbers(v, f"{path}.cf", diags)
        elif type_ in _FIELD_CHECKS:
            ok, what = _FIELD_CHECKS[type_]
            if not ok(v):
                diags.append(f"{path}.{name}: must be {what} (got {v!r})")
        kwargs[name] = v
    diags.extend(missing)
    if len(diags) > n_diags:
        return None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        diags.append(f"{path}: {exc}")
        return None


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION} (got {version!r})")
    diags: list[str] = []
    params = _spec_from_dict(SystemParams, doc.get("system", {}), "system", diags)
    gens = []
    for i, raw in enumerate(doc.get("generators", [])):
        g = _spec_from_dict(GeneratorSpec, raw, f"generators[{i}]", diags)
        if g is not None:
            gens.append(g)
    res = []
    for i, raw in enumerate(doc.get("res_units", [])):
        r = _spec_from_dict(RESSpec, raw, f"res_units[{i}]", diags)
        if r is not None:
            res.append(r)
    stos = []
    for i, raw in enumerate(doc.get("storage_units", [])):
        s = _spec_from_dict(StorageSpec, raw, f"storage_units[{i}]", diags)
        if s is not None:
            stos.append(s)
    horizon = doc.get("horizon_hours")
    if "horizon_hours" not in doc:
        diags.append("horizon_hours: missing required field")
    elif not _is_integer(horizon):
        diags.append(f"horizon_hours: must be an integer (got {horizon!r})")
    if "demand_mw" not in doc:
        diags.append("demand_mw: missing required field")
    demand = _numbers(doc.get("demand_mw", []), "demand_mw", diags)
    cap = doc.get("p_loss_cap_mw")
    cap = None if cap is None else _numbers(cap, "p_loss_cap_mw", diags)
    if diags:
        raise ScenarioValidationError(diags)
    return Scenario(
        params=params,
        horizon=horizon,
        demand_mw=demand,
        generators=tuple(gens),
        res_units=tuple(res),
        storage_units=tuple(stos),
        p_loss_cap_mw=cap,
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
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    for i in range(12):
        stos.append(
            StorageSpec(
                id=f"phes_{i + 1}",
                kind=PHES,
                p_max_mw=400.0,
                p_msg_mw=0.0,
                e_min_mwh=0.0,
                e_max_mwh=3200.0,
                e_ini_mwh=1600.0,
                e_end_mwh=1600.0,
                eta_charge=0.866,
                eta_discharge=0.866,
                inertia_s=5.0,
                pfr_max_mw=80.0,
                efr_max_mw=0.0,
                energy_offer_gbp_per_mwh=60.0,
                inertia_offer_gbp_per_mws=1.0,
                pfr_offer_gbp_per_mw=5.0,
                efr_offer_gbp_per_mw=0.0,
                technology="PHES",
            )
        )
    for i in range(200):
        stos.append(
            StorageSpec(
                id=f"bess_{i + 1}",
                kind=BESS,
                p_max_mw=100.0,
                p_msg_mw=0.0,
                e_min_mwh=0.0,
                e_max_mwh=200.0,
                e_ini_mwh=100.0,
                e_end_mwh=100.0,
                eta_charge=0.92,
                eta_discharge=0.92,
                inertia_s=0.0,
                pfr_max_mw=0.0,
                efr_max_mw=5.0,
                energy_offer_gbp_per_mwh=50.0,
                inertia_offer_gbp_per_mws=0.0,
                pfr_offer_gbp_per_mw=0.0,
                efr_offer_gbp_per_mw=10.0,
                technology="BESS",
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
