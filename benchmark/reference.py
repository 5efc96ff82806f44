#!/usr/bin/env python3
"""Make the stored reference figures anew.

    python3 benchmark/reference.py --seeds 1-10 --traced-seed 1

runs benchmark/run.py once per workload and seed with tracing off, and once
per workload with tracing on at --traced-seed, for BENCHMARK.json's
run_seconds.  It prints, per workload and end-to-end metric, the median,
the quartiles and their distance as a share of the median (the spread the
metric's bound is compared against), then the traced runs' layer numbers,
and writes every run's result to benchmark/reference.json.  Run it from the
root of the repository on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="seed range of the untraced runs, e.g. 1-10")
    ap.add_argument("--traced-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "reference.json"))
    args = ap.parse_args()
    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    results = {"run_seconds": seconds, "untraced": {}, "traced": {}}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    for w in workloads:
        runs = []
        for seed in args.seeds:
            r = run(w, seed, 0, seconds)
            runs.append({"seed": seed, **r})
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        results["untraced"][w] = runs
    for w in workloads:
        results["traced"][w] = {"seed": args.traced_seed,
                                **run(w, args.traced_seed, 1, seconds)}
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")

    print(f"\n| workload | metric | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|---|")
    for w, runs in results["untraced"].items():
        for name, bound in bounds.items():
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {s:.3f} | {bound} |")
    names = list(next(iter(results["traced"].values()))["metrics"])
    print("\n| layer metric | " + " | ".join(results["traced"]) + " |\n|---|"
          + "---|" * len(results["traced"]))
    for name in names:
        print(f"| {name} | " + " | ".join(
            f"{r['metrics'][name]['value']:.4g}" for r in results["traced"].values()) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
