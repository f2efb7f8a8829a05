"""``scripts/bench.py`` reads every end-to-end metric against its bound."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench():
    # loaded by path and not registered in sys.modules: the module is only read
    spec = importlib.util.spec_from_file_location("scripts_bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load_bench()

NARROW = [96, 98, 99, 100, 100, 100, 100, 101, 102, 104]  # median 100, IQR 1.5
WIDE = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]  # median 100, IQR 35


def read(base, head, better="higher", bound=0.25):
    def side(samples):
        return {"samples": {"m": samples}}

    row = bench.compare(side(base), side(head), {"m": better}, {"m": bound})
    assert row["m"]["bound"] == bound
    return row["m"]["verdict"]


@pytest.mark.parametrize(
    "base,head,better,expected",
    [
        (NARROW, [70] * 10, "higher", "regressed"),  # 30 % worse, bound 25 %
        (NARROW, [130] * 10, "lower", "regressed"),
        (WIDE, [70] * 10, "higher", "regressed"),  # a wide base does not hide it
        (NARROW, [80] * 10, "higher", "within_bound"),  # 20 % worse
        (NARROW, [110] * 10, "higher", "improved"),
        (NARROW, [90] * 10, "lower", "improved"),
        (NARROW, [110] * 8 + [90] * 2, "higher", "within_bound"),  # won 8 of 10
        (NARROW, [x + 0.5 for x in NARROW], "higher", "within_bound"),  # won 10, by < the IQR
        (WIDE, [95] * 10, "higher", "unresolved"),
        (WIDE, [139] * 10, "higher", "unresolved"),  # won 9 of 10, but a base run beats it
        (WIDE, [141] * 10, "higher", "improved"),  # every head run beats every base run
    ],
)
def test_verdict(base, head, better, expected):
    assert read(base, head, better) == expected


def test_per_layer_metrics_get_no_verdict():
    side = {"samples": {"m": NARROW}}
    row = bench.compare(side, side, {"m": "lower"}, {})["m"]
    assert "bound" not in row and "verdict" not in row


def test_reads_a_committed_run():
    # BENCH_18.json's runs, whose verdicts were first worked out by hand
    report = json.loads((ROOT / "BENCH_18.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared}
    verdicts = {
        (w, name): row["verdict"]
        for w, per in report["perfbench"]["workloads"].items()
        for name, row in bench.compare(per["base"], per["head"], better, bounds).items()
    }
    assert verdicts[("power-er", "items_per_ref_s")] == "improved"
    assert verdicts[("linkpred-ring", "items_per_ref_s")] == "improved"
    assert verdicts[("oracle-small", "items_per_ref_s")] == "within_bound"
    assert verdicts[("oracle-small", "setup_s")] == "unresolved"
    assert "regressed" not in verdicts.values()
