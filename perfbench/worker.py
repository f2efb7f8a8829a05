"""One benchmark process: set up one workload from its seed and run it.

Started by run.py, one fresh process per use, and never meant to be run by
hand. Modes:

  setup   import wl2link and build the inputs, then stop (a set-up sample)
  run     set up, then run operations until --seconds have passed, or the
          workload's fixed number of operations per process
  plain   set up, then run the fixed trace plan untraced
  trace   set up, then run the fixed trace plan with every entry point wrapped

Set-up and operation times leave out the speed probe's own time
(perfbench/speed.py); each comes with the machine's slowdown over the
interval it was measured in. The probe runs during set-up in every mode and
during the operations of ``run``; traced and plain plans run without it.

The last line of standard output is one JSON object. Exit code 2 means the
program could not be imported or set up.
"""

from speed import SpeedProbe

PROBE = SpeedProbe()
PROBE.start()
T0 = PROBE.clock()  # set-up is timed from before the first import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts():
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
    }


def run_ops(workload, indices):
    """Run operations, counting an exception or a failed check as a failure."""
    ops, problems = [], []
    for i in indices:
        try:
            seconds, items, problem = workload.op(i)
        except Exception:
            seconds, items, problem = None, 0, traceback.format_exc(limit=3)
        ops.append([seconds, items])
        if problem is not None:
            problems.append(f"op {i}: {problem}")
            print(f"[{workload.name}] op {i} failed: {problem}", file=sys.stderr)
    return ops, problems


def timed_indices(seconds):
    """Closed loop: the next operation starts when the previous one has ended,
    and only while it is expected to end within the time (at least one)."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        yield i
        last = time.perf_counter() - t
        i += 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "plain", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
        from tracing import Tracer

        tracer = Tracer() if args.mode == "trace" else None
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    except Exception:
        PROBE.stop()
        traceback.print_exc()
        return 2
    setup_wall = PROBE.clock() - T0
    setup_end = PROBE.mark()
    setup_slowdown = PROBE.slowdown(0, setup_end)
    result = {
        "setup_s": setup_wall / setup_slowdown,
        "setup_wall_s": setup_wall,
        "setup_slowdown": setup_slowdown,
    }
    if args.mode != "run":
        PROBE.stop()
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "run":
        workloads.clock = PROBE.clock
        if workload.ops_per_process is not None:
            indices = range(workload.ops_per_process)
        else:
            indices = timed_indices(args.seconds)
        t = time.perf_counter()
        try:
            ops, problems = run_ops(workload, indices)
        finally:
            PROBE.stop()
        result["slowdown"] = PROBE.slowdown(setup_end)
    else:
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            ops, problems = run_ops(workload, range(workload.trace_ops))
        finally:
            if tracer is not None:
                tracer.restore()
    wall = time.perf_counter() - t

    result.update(
        wall_s=wall,
        ops=ops,
        problems=problems,
        peak_rss_mb=peak_rss_mb(),
        facts={**machine_facts(), **workload.facts()},
    )
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        layers = tracer.layer_metrics()
        layers["trace.span_cost_us"] = tracer.span_cost() * 1e6
        result.update(
            layers=layers,
            absent=tracer.absent,
            spans_file=str(spans_path.relative_to(ROOT)),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
