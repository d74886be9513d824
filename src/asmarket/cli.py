"""Command-line pipeline: scenario -> UC -> prices -> stand-alone markets ->
allocations, with persistent run artifacts.

Exit codes: 0 ok, 1 validation (of the scenario, or options that cannot build a
model), 2 infeasible, 3 internal.
"""
from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (
    RULES,
    AirportGame,
    AllocationError,
    allocate_hourly,
    nucleolus_lp_oracle,
    shapley_bruteforce,
)
from .pricing import StandaloneError, as_prices_from_duals, duality_audit, standalone_markets
from .scenario import Scenario, ScenarioError, ScenarioValidationError, load_scenario
from .solve import InfeasibleError, solve_mip, solve_relaxed
from .tables import (
    RunManifest,
    make_run_id,
    sha256_file,
    write_allocation,
    write_allocation_by_technology,
    write_audit_hourly,
    write_audit_summary,
    write_commitment,
    write_dispatch,
    write_duals,
    write_prices,
    write_standalone_matrix,
)
from .ucmodel import EndogenousMax, FixedProfile, ModelError, build_uc

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3

OUT_DIR_ENV = "ASMARKET_OUT_DIR"

ORACLES = {"shapley": shapley_bruteforce, "nucleolus": nucleolus_lp_oracle}


def cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ScenarioValidationError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print("scenario is valid")
    return EXIT_OK


def _loss_rule(spec: str, scenario: Scenario):
    if spec == "endogenous":
        return EndogenousMax()
    if spec == "profile":
        if scenario.p_loss_cap_mw is None:
            raise ScenarioError("--loss-rule profile requires p_loss_cap_mw in the scenario")
        return FixedProfile(scenario.p_loss_cap_mw)
    try:
        value = float(spec)
    except ValueError:
        raise ScenarioError(f"--loss-rule must be 'endogenous', 'profile' or a MW value (got {spec!r})")
    if not math.isfinite(value) or value < 0:
        raise ScenarioError(f"--loss-rule must be a finite, non-negative MW value (got {spec!r})")
    return FixedProfile.constant(value, scenario.horizon)


def _realized_loss_profile(scenario: Scenario, dispatch) -> tuple[float, ...]:
    # largest dispatched loss-eligible injection per hour
    T = scenario.horizon
    worst = np.zeros(T)
    for u in scenario.all_units:
        if u.loss_eligible:
            worst = np.maximum(worst, dispatch.dispatch_of(u.id))
    return tuple(float(v) for v in worst)


# SolveStats fields written to the manifest; wall times are left out so that
# reruns stay identical apart from the stage timings
_SOLVER_FIELDS = (
    "nodes", "lp_iterations", "oa_rounds", "cuts", "rel_mip_gap", "stop_reason", "budget_exhausted",
    "final_cone_residual", "lp_columns",
)


def cmd_run(args) -> int:
    t_start = time.perf_counter()
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or "asmarket_out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    flags = {
        "rule": args.rule,
        "loss_rule": args.loss_rule,
        "gap": args.gap,
        "hours": args.hours,
    }
    try:
        scenario_sha = sha256_file(args.scenario)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    run_id = make_run_id(scenario_sha, flags, __version__)
    manifest = RunManifest(
        run_id=run_id,
        tool_version=__version__,
        scenario_path=str(args.scenario),
        scenario_sha256=scenario_sha,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        flags=flags,
    )
    manifest_path = out_dir / "manifest.json"

    def finish(code: int) -> int:
        manifest.save(manifest_path)
        return code

    def run_stage(name, fn, stats_of=None):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            manifest.add_stage(name, "failed", time.perf_counter() - t0)
            raise
        solver = None
        if stats_of is not None:
            stats = stats_of(result)
            solver = {f: getattr(stats, f) for f in _SOLVER_FIELDS}
        manifest.add_stage(name, "ok", time.perf_counter() - t0, solver)
        return result

    try:
        if not math.isfinite(args.gap) or args.gap < 0:
            raise ScenarioError(f"--gap must be finite and non-negative (got {args.gap})")

        def load():
            sc = load_scenario(args.scenario)
            if args.hours is None:
                return sc
            if not 1 <= args.hours <= sc.horizon:
                raise ScenarioError(f"--hours must be in [1, {sc.horizon}] (got {args.hours})")
            return sc.truncated(args.hours)

        scenario = run_stage("load", load)
        loss_rule = _loss_rule(args.loss_rule, scenario)

        def block_i():
            model = build_uc(scenario, loss_rule, relaxed=False)
            return solve_mip(model, rel_gap=args.gap)

        schedule, dispatch, mip_stats = run_stage("uc_mip", block_i, lambda r: r[2])
        if mip_stats.budget_exhausted:
            print(
                f"warning: MIP budget exhausted at gap {mip_stats.rel_mip_gap:.2e}; "
                "results use the incumbent",
                file=sys.stderr,
            )

        def price_stage():
            # fixed designs price at their own loss parameter; the endogenous
            # rule prices at the realized largest dispatched unit
            if isinstance(loss_rule, FixedProfile):
                profile = loss_rule.p_mw
            else:
                profile = _realized_loss_profile(scenario, dispatch)
            model = build_uc(scenario, FixedProfile(profile), relaxed=True)
            relaxed_dispatch, duals, stats = solve_relaxed(model)
            prices = as_prices_from_duals(duals, scenario.params)
            breakdown = duality_audit(relaxed_dispatch, duals, scenario)
            return relaxed_dispatch, duals, prices, breakdown, stats, model

        relaxed_dispatch, duals, prices, breakdown, price_stats, price_model = run_stage(
            "prices", price_stage, lambda r: r[4]
        )

        # the stand-alone stage takes the priced solve over for its own
        # profile, and re-targets the priced model for every other one
        standalone = run_stage(
            "standalone",
            lambda: standalone_markets(
                scenario, (schedule, dispatch), priced=(price_model, duals.omega_loss, price_stats)
            ),
            lambda r: r.stats,
        )

        rules = list(RULES) if args.rule == "all" else [args.rule]
        series = run_stage(
            "allocation",
            lambda: {rule: allocate_hourly(standalone, rule) for rule in rules},
        )

        def write_outputs():
            tech = scenario.technology_of()
            outputs = {
                "commitment.csv": lambda p: write_commitment(p, run_id, scenario, schedule),
                "dispatch.csv": lambda p: write_dispatch(p, run_id, scenario, dispatch),
                "prices.csv": lambda p: write_prices(p, run_id, prices),
                "standalone_omega.csv": lambda p: write_standalone_matrix(p, run_id, standalone),
                "duals.csv": lambda p: write_duals(p, run_id, scenario, duals),
                "audit_hourly.csv": lambda p: write_audit_hourly(p, run_id, relaxed_dispatch, breakdown),
                "audit_summary.csv": lambda p: write_audit_summary(p, run_id, breakdown),
            }
            for rule, s in series.items():
                outputs[f"allocation_{rule}.csv"] = (
                    lambda p, s=s: write_allocation(p, run_id, s, tech)
                )
                outputs[f"allocation_{rule}_by_technology.csv"] = (
                    lambda p, s=s: write_allocation_by_technology(p, run_id, s)
                )
            for name, writer in outputs.items():
                writer(out_dir / name)
                manifest.outputs.append(name)
            manifest.outputs.append("manifest.json")

        run_stage("write", write_outputs)
    except (ScenarioError, ModelError) as exc:
        print(str(exc), file=sys.stderr)
        return finish(EXIT_VALIDATION)
    except (InfeasibleError, StandaloneError) as exc:
        print(str(exc), file=sys.stderr)
        return finish(EXIT_INFEASIBLE)
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return finish(EXIT_INTERNAL)
    manifest.add_stage("total", "ok", time.perf_counter() - t_start)
    print(f"run {run_id} complete: {len(manifest.outputs)} artifacts in {out_dir}")
    return finish(EXIT_OK)


def _read_costs_file(path: Path) -> list[tuple[str, float]]:
    """Rows ``id,omega``, after an optional first line ``unit_id,omega_gbp``;
    blank lines and ``#`` comments are skipped."""
    lines = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if lines and lines[0] == "unit_id,omega_gbp":
        lines = lines[1:]
    rows = []
    for line in lines:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ScenarioError(f"costs file line needs exactly 'id,omega': {line!r}")
        try:
            value = float(parts[1])
        except ValueError:
            raise ScenarioError(f"bad omega value in line: {line!r}")
        rows.append((parts[0], value))
    if not rows:
        raise ScenarioError("costs file has no data rows")
    return rows


def cmd_game(args) -> int:
    try:
        costs = _read_costs_file(args.costs_file)
        game = AirportGame.from_costs(costs)
        alloc = RULES[args.rule](game)
        # the oracle runs, or refuses, before anything is printed
        oracle = None
        if args.oracle:
            if args.rule not in ORACLES:
                raise AllocationError(f"no oracle for the {args.rule} rule")
            oracle = ORACLES[args.rule](game)
        print("unit_id,phi_gbp")
        for uid, _ in game.players:
            print(f"{uid},{alloc.phi[uid]!r}")
        if oracle is not None:
            dev = max(abs(alloc.phi[u] - oracle.phi[u]) for u in alloc.phi)
            print(f"# oracle max deviation: {dev!r}")
    except OSError as exc:
        print(f"cannot read costs file: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ScenarioError, AllocationError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmarket",
        description="Frequency-secured market clearing, AS pricing and cost allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario document")
    p.add_argument("scenario", type=Path)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("scenario", type=Path)
    p.add_argument("--out", type=Path, default=None,
                   help=f"output directory (default ${OUT_DIR_ENV} or ./asmarket_out)")
    p.add_argument("--rule", choices=sorted(RULES) + ["all"], default="all")
    p.add_argument("--loss-rule", default="endogenous",
                   help="'endogenous', 'profile' (scenario p_loss_cap_mw) or a constant MW value")
    p.add_argument("--gap", type=float, default=1e-6, help="relative MIP gap")
    p.add_argument("--hours", type=int, default=None, help="truncate the horizon")
    # no effect: kept so that existing command lines, the benchmark's among them, still parse
    p.add_argument("--jobs", type=int,
                   help="ignored, accepted for existing command lines; stand-alone solves run serially")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("game", help="allocate a cost vector from a file of id,omega rows")
    p.add_argument("costs_file", type=Path)
    p.add_argument("--rule", choices=sorted(RULES), default="nucleolus")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force counterpart and print the max deviation")
    p.set_defaults(fn=cmd_game)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
