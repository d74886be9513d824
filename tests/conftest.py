"""Shared toy instances.

Sizing note: securing a loss L needs inertia >= L*f0/(2*RoCoF_max) = 25*L at
the default parameters, and the nadir cone roughly needs
(H/f0 - EFR/3.2)*PFR/10 >= (L - EFR)^2/3.2, so fleets below are sized to
leave those constraints feasible but binding where the test wants prices.
"""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from asmarket.scenario import (
    BESS,
    PHES,
    GeneratorSpec,
    RESSpec,
    Scenario,
    StorageSpec,
    SystemParams,
)


def gen(uid, p_max, p_msg, h, pfr, lam_e, lam_h=0.0, lam_pfr=0.0, mut=0, mdt=0, st=0, tech="thermal"):
    return GeneratorSpec(
        id=uid,
        p_max_mw=p_max,
        p_msg_mw=p_msg,
        inertia_s=h,
        pfr_max_mw=pfr,
        energy_offer_gbp_per_mwh=lam_e,
        inertia_offer_gbp_per_mws=lam_h,
        pfr_offer_gbp_per_mw=lam_pfr,
        min_up_h=mut,
        min_down_h=mdt,
        start_up_h=st,
        technology=tech,
    )


def bess(uid, p_max, e_max, efr, lam_e, lam_efr, e_frac=0.5, tech="BESS"):
    return StorageSpec(
        id=uid,
        kind=BESS,
        p_max_mw=p_max,
        p_msg_mw=0.0,
        e_min_mwh=0.0,
        e_max_mwh=e_max,
        e_ini_mwh=e_frac * e_max,
        e_end_mwh=e_frac * e_max,
        eta_charge=0.92,
        eta_discharge=0.92,
        inertia_s=0.0,
        pfr_max_mw=0.0,
        efr_max_mw=efr,
        energy_offer_gbp_per_mwh=lam_e,
        efr_offer_gbp_per_mw=lam_efr,
        technology=tech,
    )


def phes(uid, p_max, e_max, pfr, lam_e, lam_h, lam_pfr, e_frac=0.5, tech="PHES"):
    return StorageSpec(
        id=uid,
        kind=PHES,
        p_max_mw=p_max,
        p_msg_mw=0.0,
        e_min_mwh=0.0,
        e_max_mwh=e_max,
        e_ini_mwh=e_frac * e_max,
        e_end_mwh=e_frac * e_max,
        eta_charge=0.87,
        eta_discharge=0.87,
        inertia_s=5.0,
        pfr_max_mw=pfr,
        efr_max_mw=0.0,
        energy_offer_gbp_per_mwh=lam_e,
        inertia_offer_gbp_per_mws=lam_h,
        pfr_offer_gbp_per_mw=lam_pfr,
        technology=tech,
    )


def with_initial_state(sc: Scenario, on=(), e0=None) -> Scenario:
    """``sc`` with the generators named in ``on`` committed in the hour before
    the horizon and each storage unit named in ``e0`` (id -> MWh) starting
    from that energy."""
    e0 = e0 or {}
    return replace(
        sc,
        generators=tuple(replace(g, initially_on=True) if g.id in on else g for g in sc.generators),
        storage_units=tuple(replace(s, e_ini_mwh=e0[s.id]) if s.id in e0 else s for s in sc.storage_units),
    )


def single_gen_scenario(horizon=2, demand=60.0) -> Scenario:
    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=(demand,) * horizon,
        generators=(gen("g1", 100.0, 0.0, 5.0, 50.0, 40.0, 0.5, 2.0),),
    )


def binding_scenario(horizon=3) -> Scenario:
    """Two thermal units plus a BESS; a 100 MW fixed loss binds RoCoF, the
    nadir cone and q-s-s in different hours."""
    demand = (500.0, 620.0, 560.0)[:horizon]
    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=demand,
        generators=(
            gen("g1", 400.0, 100.0, 5.0, 120.0, 40.0, 0.5, 2.0, 1, 1),
            gen("g2", 300.0, 50.0, 5.0, 90.0, 65.0, 0.8, 3.0, 1, 1),
        ),
        storage_units=(bess("b1", 80.0, 160.0, 80.0, 50.0, 10.0),),
    )


def toy10_scenario(horizon=24) -> Scenario:
    """Ten units (6 thermal, 2 RES, PHES, BESS) over a daily demand curve."""
    demand = tuple(
        1250.0 + 420.0 * math.sin(2 * math.pi * (h - 9) / 24.0)
        + 130.0 * math.sin(4 * math.pi * (h - 16) / 24.0)
        for h in range(horizon)
    )
    wind_cf = tuple(0.45 + 0.3 * math.sin(2 * math.pi * (h - 3) / 19.0) for h in range(horizon))
    solar_cf = tuple(
        max(0.0, math.sin(math.pi * (h % 24 - 6) / 13.0)) * 0.8 if 6 <= h % 24 <= 19 else 0.0
        for h in range(horizon)
    )
    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=demand,
        generators=(
            gen("coal1", 500.0, 100.0, 6.0, 150.0, 40.0, 0.6, 2.0, 2, 2),
            gen("coal2", 400.0, 80.0, 6.0, 120.0, 55.0, 0.9, 2.5, 2, 2),
            gen("ccgt1", 350.0, 50.0, 5.0, 100.0, 70.0, 1.2, 3.0, 1, 1),
            gen("ccgt2", 300.0, 50.0, 5.0, 90.0, 85.0, 1.5, 3.5, 1, 1),
            gen("ocgt1", 250.0, 0.0, 5.0, 75.0, 100.0, 2.0, 4.0),
            gen("ocgt2", 200.0, 0.0, 4.0, 60.0, 130.0, 3.0, 5.0),
        ),
        res_units=(
            RESSpec("wind1", 300.0, wind_cf, 8.0, technology="wind"),
            RESSpec("solar1", 200.0, solar_cf, 5.0, technology="solar"),
        ),
        storage_units=(
            phes("phes1", 150.0, 900.0, 50.0, 45.0, 0.8, 3.0),
            bess("bess1", 120.0, 240.0, 100.0, 35.0, 8.0),
        ),
    )


def endog_scenario(horizon=2) -> Scenario:
    """Fleet of equal small units: the endogenous loss rule can secure the
    largest dispatched unit (RoCoF cap 25*150 = 3750 <= 4500 MWs committed,
    and the BESS can cover a full unit with EFR)."""
    demand = (520.0, 600.0)[:horizon]
    gens = tuple(
        gen(f"g{k}", 150.0, 0.0, 5.0, 50.0, 40.0 + 8.0 * k, 0.5, 2.0) for k in range(1, 7)
    )
    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=demand,
        generators=gens,
        storage_units=(bess("b1", 150.0, 300.0, 150.0, 50.0, 5.0),),
    )


def free_pfr_scenario(horizon=2) -> Scenario:
    """Zero-priced inertia and PFR: any securable outage is covered by the
    energy-only dispatch at no cost, so its stand-alone AS market is empty."""
    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=(160.0,) * horizon,
        generators=(
            gen("big", 1000.0, 0.0, 10.0, 500.0, 30.0, 0.0, 0.0),
            gen("mid", 120.0, 0.0, 5.0, 40.0, 45.0, 0.0, 0.0),
        ),
    )


def hour_one_shutdown_scenario() -> Scenario:
    """One hour of 60 MW; the dear g2, committed before the horizon with a
    30 MW minimum, is cheapest shut down at hour 1 while g1 serves the load.
    g1 is not loss-eligible: the 1000 MWs of the two units could not secure
    its 60 MW in a stand-alone market."""
    return Scenario(
        params=SystemParams(),
        horizon=1,
        demand_mw=(60.0,),
        generators=(
            replace(gen("g1", 100.0, 0.0, 5.0, 50.0, 40.0, 0.0, 0.0), loss_eligible=False),
            replace(gen("g2", 100.0, 30.0, 5.0, 50.0, 300.0, 0.0, 0.0), initially_on=True),
        ),
    )


@pytest.fixture
def single_gen():
    return single_gen_scenario()


@pytest.fixture
def binding():
    return binding_scenario()


@pytest.fixture
def toy10():
    return toy10_scenario()
