"""The benchmark's traced run wraps wl2link entry points by name.

A renamed or moved entry point drops its per-layer metrics from the traced
result, so every name the tracer wraps must still resolve, and a traced
pass must still yield every per-layer metric that BENCHMARK.json declares.
"""

import importlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # loaded by path and not registered in sys.modules: the module is only read
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module_name,path", [(m, p) for m, p, _, _ in tracing.ENTRY_POINTS], ids=str
)
def test_entry_point_resolves(module_name, path):
    found = tracing._resolve(module_name, path)
    assert found is not None, f"{module_name}.{path} is gone"
    assert callable(found[2])


def test_a_traced_pass_records_every_declared_metric():
    # every entry point called once on tiny inputs, through the module
    # attributes that the tracer wraps: no entry point is absent, every span
    # name is recorded (so each attributes function ran on a real result),
    # and the metrics are exactly the per-layer ones BENCHMARK.json declares
    graph = importlib.import_module("wl2link.graph")
    refine = importlib.import_module("wl2link.refine")
    harness = importlib.import_module("wl2link.harness")
    unroll = importlib.import_module("wl2link.unroll")
    linkpred = importlib.import_module("wl2link.linkpred")
    from wl2link.generate import cycle_graph, ring_lattice

    kind, g = refine.TestKind.WL1, cycle_graph(6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        g.without_edge(0, 1)
        graph.split_links(ring_lattice(20, 4, 0.1, seed=1), 0.1, 0.05, 0)
        graph.sample_non_edges(g, 2, random.Random(0))
        refine.RefinementSession(kind, g).step()
        refine.indistinguishable(kind, (0, 1), g, (0, 2), g)
        linkpred.refine_to_stable(kind, g, mask=(0, 1))
        corpus = harness.Corpus([(g, (0, 1)), (g, (0, 2)), (cycle_graph(5), (0, 1))], {})
        report = harness.power_check(corpus, kinds=[kind])
        harness.oracle_soundness(corpus, report.results)
        unroll.unroll("T_A", g, (0, 1), 2)
        unroll.link_isomorphic(g, (0, 1), g, (1, 2))
        unroll.link_certificate(g, (0, 1))
        linkpred.featurize(kind, g, (0, 2))
        linkpred.benchmark(ring_lattice(30, 4, 0.1, seed=1), kind, split_seed=0)
    finally:
        tracer.restore()
    assert tracer.absent == []
    assert {span[0] for span in tracer.spans} == {name for _, _, name, _ in tracing.ENTRY_POINTS}
    declared = json.loads((TRACING.parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    assert set(tracer.layer_metrics()) == {m["name"] for m in declared}
    restored = (refine.RefinementSession.step, linkpred.featurize)
    assert not any(hasattr(fn, "__wrapped__") for fn in restored)
