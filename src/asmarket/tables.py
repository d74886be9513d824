"""Comma-separated run artifacts and the run manifest.

Every table starts with a ``# run: <id>`` line followed by a one-line header
and rows in a fixed column order. Values are written with full round-trip
precision so reruns with identical inputs are byte-identical.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_table(path: Path, run_id: str, header: list[str], rows) -> None:
    lines = [f"# run: {run_id}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_prices(path, run_id, prices) -> None:
    write_table(
        path,
        run_id,
        ["hour", "lambda_e_gbp_per_mwh", "lambda_h_gbp_per_mws", "lambda_pfr_gbp_per_mw",
         "lambda_efr_gbp_per_mw", "omega_loss_gbp_per_mw"],
        (
            (t + 1, prices.lambda_e[t], prices.lambda_h[t], prices.lambda_pfr[t],
             prices.lambda_efr[t], prices.omega_loss[t])
            for t in range(len(prices.lambda_e))
        ),
    )


def write_commitment(path, run_id, scenario, schedule) -> None:
    rows = []
    for g in scenario.generators:
        for t in range(scenario.horizon):
            rows.append(
                (t + 1, g.id, g.technology, schedule.gen_on[g.id][t],
                 schedule.gen_start_up[g.id][t], schedule.gen_start_gen[g.id][t],
                 schedule.gen_shut_down[g.id][t], 0, 0)
            )
    for s in scenario.storage_units:
        for t in range(scenario.horizon):
            rows.append(
                (t + 1, s.id, s.technology, 0, 0, 0, 0,
                 schedule.sto_charging[s.id][t], schedule.sto_discharging[s.id][t])
            )
    write_table(
        path, run_id,
        ["hour", "unit_id", "technology", "on", "start_up", "start_gen", "shut_down",
         "charging", "discharging"],
        rows,
    )


def write_dispatch(path, run_id, scenario, dispatch) -> None:
    rows = []
    for g in scenario.generators:
        for t in range(scenario.horizon):
            rows.append((t + 1, g.id, g.technology, dispatch.gen_p[g.id][t], 0.0, 0.0, 0.0,
                         dispatch.gen_pfr[g.id][t], 0.0))
    for r in scenario.res_units:
        for t in range(scenario.horizon):
            rows.append((t + 1, r.id, r.technology, dispatch.res_p[r.id][t], 0.0, 0.0, 0.0, 0.0, 0.0))
    for s in scenario.storage_units:
        for t in range(scenario.horizon):
            rows.append((t + 1, s.id, s.technology, 0.0, dispatch.sto_charge[s.id][t],
                         dispatch.sto_discharge[s.id][t], dispatch.sto_soc[s.id][t],
                         dispatch.sto_pfr[s.id][t], dispatch.sto_efr[s.id][t]))
    write_table(
        path, run_id,
        ["hour", "unit_id", "technology", "p_mw", "charge_mw", "discharge_mw", "soc_mwh",
         "pfr_mw", "efr_mw"],
        rows,
    )


def write_standalone_matrix(path, run_id, standalone) -> None:
    """One row per unit that is dispatched at any hour, one column per hour."""
    header = ["unit_id", "technology"] + [f"omega_h{t + 1}_gbp" for t in range(standalone.horizon)]
    rows = []
    for uid in standalone.units():
        if standalone.dispatched[uid].any():
            rows.append([uid, standalone.technology[uid]] + list(standalone.omegas[uid]))
    write_table(path, run_id, header, rows)


def write_allocation(path, run_id, series, technology) -> None:
    rows = []
    for hour, alloc in enumerate(series.per_hour, start=1):
        for uid in sorted(alloc.phi):
            rows.append((hour, uid, technology.get(uid, ""), alloc.phi[uid]))
    write_table(path, run_id, ["hour", "unit_id", "technology", "phi_gbp"], rows)


def write_allocation_by_technology(path, run_id, series) -> None:
    rows = [(tech, series.by_technology[tech]) for tech in sorted(series.by_technology)]
    write_table(path, run_id, ["technology", "phi_total_gbp"], rows)


def write_duals(path, run_id, scenario, duals) -> None:
    """Full dual dump keyed by (unit, hour): system-wide multipliers under
    unit id 'system', private psi duals under their unit."""
    rows = []
    T = scenario.horizon
    for t in range(T):
        for name in ("lambda_e", "lambda_h", "lambda_pfr", "lambda_efr", "mu_rocof",
                     "mu_nadir_1", "mu_nadir_2", "mu_nadir_3", "mu_qss", "omega_loss"):
            rows.append((t + 1, "system", name, getattr(duals, name)[t]))
    per_hour = {
        "psi_max_y": duals.psi_max_y, "psi_max_yst": duals.psi_max_yst,
        "psi_max_ysg": duals.psi_max_ysg, "psi_max_ysd": duals.psi_max_ysd,
        "psi_mdt": duals.psi_mdt, "psi_cf": duals.psi_cf,
        "psi_e_min": duals.psi_e_min, "psi_e_max": duals.psi_e_max,
        "psi_max_ycha": duals.psi_max_ycha, "psi_max_ydis": duals.psi_max_ydis,
        "psi_mutex": duals.psi_mutex,
    }
    for name, table in per_hour.items():
        for uid in sorted(table):
            for t in range(T):
                rows.append((t + 1, uid, name, table[uid][t]))
    for name, table in (("psi_ini", duals.psi_ini), ("psi_end", duals.psi_end)):
        for uid in sorted(table):
            rows.append((1 if name == "psi_ini" else T, uid, name, table[uid]))
    write_table(path, run_id, ["hour", "unit_id", "dual", "value"], rows)


def write_audit_hourly(path, run_id, dispatch, breakdown) -> None:
    write_table(
        path, run_id,
        ["hour", "p_loss_mw", "as_market_gbp", "inertia_revenue_gbp", "pfr_revenue_gbp",
         "efr_revenue_gbp", "omega_identity_residual_gbp"],
        (
            (t + 1, dispatch.p_loss_mw[t], breakdown.as_market[t], breakdown.inertia_revenue[t],
             breakdown.pfr_revenue[t], breakdown.efr_revenue[t],
             breakdown.omega_identity_residual[t])
            for t in range(breakdown.horizon)
        ),
    )


def write_audit_summary(path, run_id, breakdown) -> None:
    rows = [
        ("energy_payments_gbp", breakdown.energy_payments),
        ("as_payments_gbp", breakdown.as_payments),
        ("system_costs_gbp", breakdown.system_costs),
        ("thermal_profits_gbp", breakdown.thermal_profits),
        ("renewable_profits_gbp", breakdown.renewable_profits),
        ("storage_profits_gbp", breakdown.storage_profits),
        ("omitted_terms_gbp", breakdown.omitted_terms),
        ("identity_residual_rel", breakdown.identity_residual_rel),
    ]
    for tech in sorted(breakdown.by_technology):
        for key in ("energy_revenue", "as_revenue"):
            rows.append((f"{tech}:{key}_gbp", breakdown.by_technology[tech][key]))
    write_table(path, run_id, ["quantity", "value"], rows)


# ---------------------------------------------------------------------------
# Manifest


@dataclass
class RunManifest:
    run_id: str
    tool_version: str
    scenario_path: str
    scenario_sha256: str
    created_utc: str
    flags: dict
    stages: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def add_stage(self, name: str, status: str, wall_s: float, solver: dict | None = None) -> None:
        stage = {"name": name, "status": status, "wall_s": round(wall_s, 3)}
        if solver is not None:
            stage["solver"] = solver
        self.stages.append(stage)

    def save(self, path: Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=1, sort_keys=True), encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_run_id(scenario_sha: str, flags: dict, tool_version: str) -> str:
    blob = json.dumps({"scenario": scenario_sha, "flags": flags, "version": tool_version},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_manifest(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def verify_manifest(manifest: dict, out_dir: Path) -> list[str]:
    """Every inventoried file must exist and carry the manifest's run id."""
    problems = []
    for name in manifest["outputs"]:
        p = Path(out_dir) / name
        if not p.exists():
            problems.append(f"{name}: missing")
            continue
        if p.suffix == ".csv":
            first = (p.read_text(encoding="utf-8").splitlines() or [""])[0]
            if first != f"# run: {manifest['run_id']}":
                problems.append(f"{name}: run id mismatch ({first!r})")
    return problems
