"""Traced reproductions of the ROADMAP baseline tables.

    python3 perfbench/baseline.py power    # batch_refine per kind, default corpus
    python3 perfbench/baseline.py ring200  # benchmark() per kind, ring200 seed 0

``power`` runs one traced ``power_check`` on the test suite's default
corpus (fixtures plus ``random_corpus()``, 13,234 instances; about 1.5
minutes on a 2-core x86-64 machine). ``ring200`` runs the linkpred-ring
pass on ``ring_lattice(200, 4, 0.1, 0)`` with split seed 0 (about 35 s).
Run each in a fresh process: featurize depends on process history.
"""

import importlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import LINKPRED_KINDS, POWER_KINDS, Tracer  # noqa: E402

harness = importlib.import_module("wl2link.harness")


def traced(run):
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer.layer_metrics(), wall


def power():
    corpus = harness.Corpus.merge(harness.fixtures_corpus(), harness.random_corpus())
    reports = []
    m, wall = traced(lambda: reports.append(harness.power_check(corpus)))
    print(f"default corpus: {len(corpus)} instances, power_check {wall:.1f} s traced")
    print(f"{'kind':12s} {'batch_refine s':>15s} {'sessions':>9s} {'iterations':>10s}")
    for k in POWER_KINDS:
        print(
            f"{k:12s} {m[f'harness.batch_refine.s.{k}']:15.1f} "
            f"{m[f'harness.sessions.{k}']:9.0f} {m[f'harness.iterations.{k}']:10.0f}"
        )
    print(f"compare (power_check self time) {m['harness.compare.s']:.2f} s")
    failing = sorted(k for k, v in reports[0].implications.items() if v["violations"])
    print(f"implications with violations: {failing}")


def ring200():
    import workloads

    ring = workloads.LinkpredRing(0, n=200)
    m, wall = traced(lambda: [ring.op(i) for i in range(ring.ops_per_process)])
    n = ring.targets
    print(f"ring200 seed 0: {n} targets per kind, {wall:.1f} s traced")
    print(f"{'kind':12s} {'wall s':>7s} {'test AUC':>9s} {'refine ms':>10s} {'rank ms':>8s} {'rank share':>11s}")
    for k in LINKPRED_KINDS:
        refine = m[f"linkpred.refine.s.{k}"]
        rank = m[f"linkpred.color_rank.s.{k}"]
        print(
            f"{k:12s} {m[f'linkpred.benchmark.s.{k}']:7.1f} {m[f'linkpred.test_auc.{k}']:9.6f} "
            f"{1000 * refine / n:10.2f} {1000 * rank / n:8.2f} {rank / (refine + rank):11.0%}"
        )


if __name__ == "__main__":
    parts = {"power": power, "ring200": ring200}
    if len(sys.argv) != 2 or sys.argv[1] not in parts:
        sys.exit(__doc__)
    parts[sys.argv[1]]()
