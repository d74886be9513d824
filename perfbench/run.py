"""Benchmark of the clearing -> pricing -> stand-alone -> allocation chain.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toy10-run --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (median pass wall and CPU time, set-up time, peak RSS);
with ``--trace 1`` the same passes run with spans around the program's public
functions and the metrics are the per-layer ones. Workloads are described in
``perfbench/README.md`` and ``perfbench/workloads.py``.
"""
import os
import sys
import time

T_START = time.perf_counter()

# One native thread per pool: OpenBLAS would otherwise start one per CPU at
# import, and the only parallelism measured is the program's own fan-out.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
WARMUP_HOURS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root: Path):
    """Import the checkout's own ``src/asmarket``, never an installed copy."""
    src = root / "src"
    if not (src / "asmarket" / "__init__.py").is_file():
        raise SystemExit(f"no src/asmarket under {root}: run from the root of a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import asmarket
    if Path(asmarket.__file__).resolve().parent != (src / "asmarket").resolve():
        raise SystemExit(f"imported asmarket from {asmarket.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START

    work = HERE / ".work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc_path = work / "scenario.json"
    out = work / "out"

    def check(result, scenario):
        if workload.kind == "run":
            checks.check_run(result, scenario)
        else:
            checks.check_price(result)

    # Set-up: imports (once), then the scenario document and a warm-up pass of
    # the workload's operation on a small instance, repeated; the first
    # repeat also loads every lazily imported module.
    warm_doc = work / "warmup.json"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workloads.write_doc(workloads.scenario_doc(workload.system, workload.hours, args.seed), doc_path)
        workloads.write_doc(workloads.scenario_doc("toy10", WARMUP_HOURS, 0), warm_doc)
        warm = workloads.run_pass(workload, warm_doc, out)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    scenario = workloads.load_scenario(doc_path)
    check(warm, workloads.load_scenario(warm_doc))

    tracer = patches = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        patches = spans.instrument(tracer)
    walls, cpus, layers = [], [], []
    attempted = failed = 0
    correct = True
    measured = 0.0
    while measured < args.seconds:
        attempted += 1
        if tracer:
            tracer.pass_id = attempted
        gc.collect()   # the previous pass's and checks' garbage is not this pass's time
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workloads.run_pass(workload, doc_path, out)
        except Exception:
            failed += 1
            measured += time.perf_counter() - w0
            traceback.print_exc()
            continue
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        measured += wall
        walls.append(wall)
        cpus.append(cpu)
        print(f"pass {attempted}: {wall:.4f} s wall, {cpu:.4f} s cpu", file=sys.stderr)
        if tracer:
            layers.append(spans.pass_metrics(tracer.spans, attempted))
            tracer.active = False   # the checks' own solves are not spans
        try:
            check(result, scenario)
        except checks.CheckError as exc:
            correct = False
            print(f"check failed on pass {attempted}: {exc}", file=sys.stderr)
        if tracer:
            tracer.active = True
    if patches:
        patches.close()
        tracer.write(work / "trace.jsonl")
    if not walls:
        print("every pass failed", file=sys.stderr)
        return 1

    if tracer:
        print(f"traced e2e_s median {statistics.median(walls)!r} over {len(walls)} passes",
              file=sys.stderr)
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
            for name, (unit, _, _) in spans.METRICS.items()
        }
    else:
        metrics = {
            "e2e_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
            },
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
