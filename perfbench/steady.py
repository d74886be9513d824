"""Two sets of benchmark runs of the same code, compared against the bounds.

    python3 perfbench/steady.py --runs 10

Two sets, A and B, each run ``perfbench/run.py`` once per workload of
BENCHMARK.json and seed (set A uses seeds 1..N, set B seeds 101..100+N), one
process at a time. For every
workload and end-to-end metric it prints each set's median, its spread (the
distance between the first and third quartile as a share of the median),
the change of B's median against A's, and the bound from BENCHMARK.json.
A metric is steady when every spread but set-up time's is below a third of
its bound and the change, either way, is within the bound. Raw results go to
``perfbench/.work/steady.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = {"A": 1, "B": 101}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    results: dict[str, dict[str, list[dict]]] = {}
    for label in "AB":
        for i in range(args.runs):
            seed = SEED_BASE[label] + i
            for w in names:
                r = run_once(w, seed, args.seconds)
                results.setdefault(w, {}).setdefault(label, []).append(r)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {label} seed {seed} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {values}", flush=True)

    out = ROOT / "perfbench" / ".work"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    steady = True
    print(f"\n{'workload':10} {'metric':12} {'median A':>10} {'spread A':>9} "
          f"{'median B':>10} {'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
    for w in names:
        sets = results[w]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row, ok = [], True
            for label in sets:
                values = [r["metrics"][name]["value"] for r in sets[label]]
                s = spread(values)
                ok &= name == "setup_s" or s <= bound / 3
                row.append((statistics.median(values), s))
            change = row[-1][0] / row[0][0] - 1.0
            ok &= abs(change) <= bound
            steady &= ok
            cells = " ".join(f"{med:10.4g} {s:9.2%}" for med, s in row)
            print(f"{w:10} {name:12} {cells} {change:8.2%} {bound:6.2f}  {'ok' if ok else 'NOT STEADY'}")
        shares = {label: {r["failed"] / r["attempted"] for r in runs} for label, runs in sets.items()}
        same = len(set().union(*shares.values())) == 1
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        steady &= same and correct
        print(f"{w:10} failed share per set {shares}  correct={correct}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
