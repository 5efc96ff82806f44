#!/usr/bin/env python3
"""binrec benchmark: one command for the three workloads.

    python3 benchmark/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

With --trace 0 it samples the set-up time in fresh processes, repeats whole
rounds of the workload for about --seconds with tracing off, checks every
output against computations made apart from binrec, and prints the
end-to-end metrics.  With --trace 1 it runs one untraced round (pooled for
desk-sweep), one untraced serial round, then one serial round with every
binrec layer wrapped in spans, checks the outputs and prints the per-layer
metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Run it from the
root of the repository; spans and sweep CSVs go to benchmark/out/.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread in this process and in every process it starts, so that
# the pooled sweep's two workers use the machine's two cores and no more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUP_SAMPLES = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("desk-sweep", "noisy-robust", "certificate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="build inputs, warm up, print setup times and exit "
                         "(used to sample setup_s in fresh processes)")
    return ap.parse_args(argv)


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (ru_maxrss
    is in KiB on Linux)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def setup_sample(args) -> float:
    """Wall time from starting a fresh process until it reports that its
    imports, inputs and warm-up are done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup sample exited with code {proc.returncode}")
    return t1 - t0


def timed_rounds(wl, seconds: float):
    """Whole rounds until the next one would end after ``seconds``; at least
    one.  Returns (first round's outputs, per-round (wall, cpu), rounds whose
    outputs differ from the first)."""
    first = None
    rounds = []
    differing = 0
    start = time.perf_counter()
    while True:
        c0, t0 = cpu_s(), time.perf_counter()
        out = wl.run_round(wl.workers)
        t1 = time.perf_counter()
        rounds.append((t1 - t0, cpu_s() - c0))
        if first is None:
            first = out
        elif not wl.same(first, out):
            differing += 1
        if t1 - start + (t1 - t0) > seconds:
            return first, rounds, differing


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "binrec").is_dir():
        print(f"binrec sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import tracing
    import workloads
    import_s = time.perf_counter() - START

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    wl.warm_up()
    inputs_s = time.perf_counter() - START - import_s
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
        return 0

    if args.trace == 0:
        # before the timed rounds, so that their load does not linger into
        # the samples; a sample's resident set never exceeds this process's,
        # which has done the same set-up
        setup = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
        outputs, rounds, differing = timed_rounds(wl, args.seconds)
        rss = peak_rss_mb()
        problems = [f"{differing} rounds returned other outputs than the first"] if differing else []
        # only the sweep needs a serial traced pass: its records omit the
        # points that the checks examine
        tracer = traced = None
        if wl.capture_trials:
            tracer = tracing.Tracer()
            with tracing.installed(tracer, probe_phase1=False):
                traced = wl.run_round(1)
        problems += wl.check(outputs, traced, tracer)
        n_rounds = len(rounds)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "trials_per_s": (statistics.median(wl.trials / w for w, _ in rounds), "1/s"),
            "cpu_ms_per_trial": (statistics.median(1e3 * c / wl.trials for _, c in rounds), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        print(f"# {args.workload} seed {args.seed}: {n_rounds} rounds of {wl.trials} trials "
              f"in {sum(w for w, _ in rounds):.2f} s; setup samples "
              + ", ".join(f"{s:.3f}" for s in setup) + wl.note(outputs))
    else:
        t0 = time.perf_counter()
        outputs = wl.run_round(wl.workers)
        wall_first = time.perf_counter() - t0
        t0 = time.perf_counter()
        serial = wl.run_round(1)
        wall_serial = time.perf_counter() - t0
        n_rounds = 3
        problems = []
        if not wl.same(outputs, serial):
            problems.append("serial round returned other outputs than the first round")
        pool_overhead = wall_first - wall_serial / wl.workers if wl.workers > 1 else 0.0
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracing.installed(tracer), tracer.span("bench.round"):
            traced = wl.run_round(1)
        wall_traced = time.perf_counter() - t0
        problems += wl.check(outputs, traced, tracer)
        layers = tracing.layer_metrics(tracer)
        layers["setup.import_s"] = import_s
        layers["setup.inputs_s"] = inputs_s
        layers["experiments.pool_overhead_s"] = pool_overhead
        layers["trace.overhead_s"] = wall_traced - wall_serial
        tracer.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
        units = {m["name"]: m["unit"]
                 for m in json.loads(BENCHMARK.read_text())["per_layer"]}
        if set(units) != set(layers):
            raise RuntimeError(f"per-layer metrics differ from {BENCHMARK.name}: "
                               f"{sorted(set(units) ^ set(layers))}")
        metrics = {name: (layers[name], unit) for name, unit in units.items()}
        root = tracer.spans[0]
        own = tracer.self_times()
        print(f"# {args.workload} seed {args.seed}: traced wall {wall_traced:.3f} s, "
              f"root span {root.end - root.start:.3f} s, of which binrec spans' self times "
              f"{sum(own[1:]):.3f} s ({sum(own[1:]) / wall_traced:.1%}); "
              f"{len(tracer.spans)} spans; repeated LPs take "
              f"{tracing.repeated_lp_share(tracer):.1%} of optim.solve_lp.self_s"
              + wl.note(outputs))

    attempted = n_rounds * wl.trials
    failed = n_rounds * wl.failed(outputs)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
