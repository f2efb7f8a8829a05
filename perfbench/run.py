"""Benchmark for wl2link: one workload, one seed, one run.

    python3 perfbench/run.py --workload power-er --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see perfbench/README.md): power-er, linkpred-ring, oracle-small.

Every measurement happens in a fresh worker process (perfbench/worker.py),
so peak RSS and process-global tables never carry over from another
workload. With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the workload's fixed plan once untraced and once
traced, and prints the per-layer metrics and the tracing overhead.
Bounded times are in reference seconds (perfbench/speed.py): wall seconds
rescaled to one fixed machine speed, measured while the worker runs.

The last line of standard output is the result as JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A full record, with machine and input facts, goes to perfbench/out/.
The exit code is not 0, and no result is printed, when the program cannot
be imported or set up, or a worker does not finish in time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("power-er", "linkpred-ring", "oracle-small")
SETUP_SAMPLES = 4  # set-up-only processes per run, besides the measured ones
PASS_SEEDS = 1000  # linkpred-ring: distinct ring seeds available to one run
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(args, mode, deadline, seconds=0.0, seed=None):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed if seed is None else seed),
        "--mode", mode, "--seconds", str(seconds),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, runs):
    """Times in reference seconds (perfbench/speed.py): a worker's wall time
    divided by the machine's slowdown over its operations. Throughput and
    peak RSS are medians over the measured workers (one, except on
    linkpred-ring, where every pass is a worker of its own)."""
    times = [s for r in runs for s, _ in r["ops"] if s is not None]
    if not times:
        raise BenchError("no operation completed")
    per_worker = []
    for r in runs:
        done = [(s, n) for s, n in r["ops"] if s is not None]
        if done:
            ref_seconds = sum(s for s, _ in done) / r["slowdown"]
            per_worker.append(sum(n for _, n in done) / ref_seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "items_per_ref_s": (statistics.median(per_worker), "1/s"),
    }
    items = sum(n for r in runs for s, n in r["ops"] if s is not None)
    # Reported but not bounded: wall-clock throughput and latency move with
    # the machine's speed, and with 3-4 operations per power-er run the
    # latency percentiles move more than any bound allows.
    wall = {
        "items_per_s": items / sum(times),
        "slowdowns": [r["slowdown"] for r in runs],
        "op_ms_p50": statistics.median(times) * 1000.0,
        "op_ms_p99": percentile(times, 99) * 1000.0,
        "ops": len(times),
    }
    return metrics, wall


def measure(args, deadline):
    setup_runs = [worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    if args.workload == "linkpred-ring":
        # One pass of all kinds per fresh process, on its own ring: pass j
        # uses ring and split seed PASS_SEEDS * seed + j. Another pass starts
        # only if it is expected to end in time.
        while True:
            seed = PASS_SEEDS * args.seed + len(runs)
            runs.append(worker(args, "run", deadline, seed=seed))
            last = runs[-1]["wall_s"]
            if time.monotonic() - start + last > args.seconds:
                break
    else:
        runs.append(worker(args, "run", deadline, args.seconds))
    setups = [r["setup_s"] for r in setup_runs + runs]
    metrics, wall = end_to_end(setups, runs)
    record = {
        "wall": wall,
        "setup_samples": setups,
        "setup_wall_samples": [r["setup_wall_s"] for r in setup_runs + runs],
        "ops": [r["ops"] for r in runs],
        "worker_facts": [r["facts"] for r in runs],
    }
    return runs, metrics, record


def measure_traced(args, deadline):
    seed = PASS_SEEDS * args.seed if args.workload == "linkpred-ring" else args.seed
    plain = worker(args, "plain", deadline, seed=seed)
    traced = worker(args, "trace", deadline, seed=seed)
    layers = traced["layers"]
    overhead = traced["wall_s"] - plain["wall_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_share"] = overhead / plain["wall_s"]
    units = {name: unit for name, unit, _ in declared("per_layer")}
    metrics = {name: (value, units.get(name, "")) for name, value in layers.items()}
    record = {
        "absent": traced["absent"],
        "spans_file": traced["spans_file"],
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    if traced["absent"]:
        print("absent entry points: " + ", ".join(traced["absent"]))
    return [plain, traced], metrics, record


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in spec[section]]


def cross_run_problems(args, runs):
    """The untraced and traced passes (same seed) must agree on every AUC."""
    if args.workload != "linkpred-ring" or not args.trace:
        return []
    first = runs[0]["facts"]["test_auc"]
    return [
        f"pass {i}: test AUCs {r['facts']['test_auc']} differ from pass 0 {first}"
        for i, r in enumerate(runs[1:], start=1)
        if r["facts"]["test_auc"] != first
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs, metrics, record = measure_traced(args, deadline)
        else:
            runs, metrics, record = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    # one problem per failed operation, plus one if tracing changed an AUC
    problems = [p for r in runs for p in r["problems"]] + cross_run_problems(args, runs)
    attempted = sum(len(r["ops"]) for r in runs)
    wanted = {name for name, _, _ in declared("per_layer" if args.trace else "end_to_end")}
    extra, missing = set(metrics) - wanted, wanted - set(metrics)
    if extra or (missing and not args.trace):
        print(f"metrics differ from BENCHMARK.json: extra {sorted(extra)}, "
              f"missing {sorted(missing)}", file=sys.stderr)
        return 1

    facts = {**runs[-1]["facts"], "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "workers_measured": len(runs),
             "wall": record.get("wall")}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"facts": facts, "problems": problems, "metrics": metrics, **record}, indent=1
    ))
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(f"operations attempted {attempted}, failed {len(problems)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
