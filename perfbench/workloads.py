"""Seeded scenario documents and the operation each workload times.

Seed 0 reproduces the reference instances exactly: the 10-unit ``toy10``
system of the test suite and ``asmarket.gb_template``, each built at the
workload's horizon. Any other seed scales every hourly demand by an
independent factor in ``[1 - DEMAND_JITTER, 1 + DEMAND_JITTER]``; the fleet,
the offers and the capacity factors stay as they are, so the instance keeps
its size and its binding constraints.

The program under test only ever sees the JSON document written here.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from asmarket import cli
from asmarket.pricing import as_prices_from_duals, duality_audit
from asmarket.scenario import Scenario, gb_template, load_scenario, scenario_to_dict
from asmarket.solve import solve_relaxed
from asmarket.ucmodel import EndogenousMax, build_uc

DEMAND_JITTER = 1e-5
ROOT = Path(__file__).resolve().parent.parent


def _suite_fixtures():
    """The test suite's ``tests/conftest.py``, which defines ``toy10``."""
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy10(horizon: int) -> Scenario:
    """The test suite's ten-unit system (6 thermal, wind, solar, PHES, BESS)."""
    return _suite_fixtures().toy10_scenario(horizon)


def scenario_doc(system: str, horizon: int, seed: int) -> dict:
    """Scenario document for ``system`` ('toy10' or 'gb') at ``horizon`` hours."""
    base = toy10(horizon) if system == "toy10" else gb_template(horizon)
    doc = scenario_to_dict(base)
    if seed:
        rng = random.Random(seed)
        doc["demand_mw"] = [
            d * (1.0 + DEMAND_JITTER * rng.uniform(-1.0, 1.0)) for d in doc["demand_mw"]
        ]
    return doc


def write_doc(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# Operations


def fanout_jobs(wanted: int) -> int:
    """Stand-alone worker count, never above the CPUs this process may use."""
    return max(1, min(wanted, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    hours: int
    kind: str            # 'run' (the ``asmarket run`` command) or 'price'
    run_flags: tuple = ()

    def run_argv(self, doc: Path, out: Path) -> list[str]:
        return ["run", str(doc), "--out", str(out), *self.run_flags]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy10-run", "toy10", 6, "run",
                 ("--rule", "all", "--loss-rule", "endogenous", "--jobs", "1")),
        Workload("gb-run", "gb", 1, "run",
                 ("--gap", "1e-2", "--jobs", str(fanout_jobs(2)))),
        Workload("gb-price", "gb", 6, "price"),
    )
}


@dataclass
class PriceResult:
    scenario: Scenario
    dispatch: object
    prices: object
    breakdown: object


def run_pass(workload: Workload, doc: Path, out: Path):
    """One timed operation. Returns what the output checks need."""
    if workload.kind == "run":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workload.run_argv(doc, out))
        if code != cli.EXIT_OK:
            raise RuntimeError(f"asmarket run exited with code {code}")
        return out
    scenario = load_scenario(doc)
    model = build_uc(scenario, EndogenousMax(), relaxed=True)
    dispatch, duals, _ = solve_relaxed(model)
    prices = as_prices_from_duals(duals, scenario.params)
    breakdown = duality_audit(dispatch, duals, scenario)
    return PriceResult(scenario, dispatch, prices, breakdown)
