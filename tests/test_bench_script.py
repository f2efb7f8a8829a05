"""``scripts/bench.py`` reads every end-to-end metric against its bound."""

import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from wl2link.generate import ring_lattice
from wl2link.harness import batch_refine
from wl2link.linkpred import benchmark
from wl2link.refine import Interner, TestKind
from wl2link.unroll import tree_equal, unroll

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


def test_relative_change_of_the_medians():
    side = {"samples": {"m": NARROW}}
    row = bench.compare(side, {"samples": {"m": [110] * 10}}, {"m": "higher"}, {"m": 0.25})["m"]
    assert row["relative_change"] == pytest.approx(0.1)
    row = bench.compare(side, {"samples": {"m": [99] * 10}}, {"m": "lower"}, {"m": 0.15})["m"]
    assert row["relative_change"] == pytest.approx(-0.01)
    zero = {"samples": {"m": [0] * 10}}
    assert bench.compare(zero, side, {"m": "lower"}, {"m": 0.15})["m"]["relative_change"] is None
    assert "relative_change" not in bench.compare(side, side, {"m": "lower"}, {})["m"]


def test_code_lines_count_no_comment_docstring_or_blank_line():
    text = '''"""A module docstring
over two lines."""

# a comment
import os  # code, with a comment


def f(x):
    """One line."""
    y = [
        x,  # a statement over three lines
    ]
    return "not a docstring"


class C:
    """A class docstring."""

    z = """a string
    that is code"""
'''
    # import, def, the three lines of y, return, class, and the two of z
    assert bench.code_lines(text) == 9


def test_code_size_sums_the_modules(tmp_path):
    package = tmp_path / "src" / "wl2link"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (package / "b.py").write_text('"""doc"""\nimport os\n')
    (package / "notes.txt").write_text("x = 1\n")
    assert bench.code_size(tmp_path) == {"files": {"a.py": 2, "b.py": 1}, "total": 3}


def fake_perfbench(calls):
    def run(root, workload, seed):
        calls.append((Path(root).name, workload, seed))
        value = 100.0 + seed + (5 if Path(root).name == "head" else 0)
        return {"metrics": {"items_per_ref_s": value}, "attempted": 10, "failed": 0}

    return run


def run_main(tmp_path, monkeypatch, argv):
    """``bench.main(argv)`` with the checkouts at tmp_path/base and
    tmp_path/head and every measurement faked; returns the report and the
    perfbench calls as (side, workload, seed)."""
    head = tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []
    monkeypatch.setattr(bench, "HEAD", head)
    monkeypatch.setattr(bench, "perfbench", fake_perfbench(calls))
    monkeypatch.setattr(bench, "probe_rounds", lambda *args: {"probe": args[-1]})
    monkeypatch.setattr(bench, "tier1", lambda root: {"summary": "1 passed"})
    monkeypatch.setattr(bench, "traced_pass", lambda root, w: {"traced": (Path(root).name, w)})
    bench.main(["--base", str(tmp_path / "base"), "--tag", "t"] + argv)
    return json.loads((head / "BENCH_t.json").read_text()), calls


def test_workloads_filter_runs_only_those(tmp_path, monkeypatch):
    report, calls = run_main(tmp_path, monkeypatch, ["--workloads", "oracle-small", "--seeds", "1", "2"])
    # the sides alternate, base first on odd seeds
    assert calls == [
        ("base", "oracle-small", 1), ("head", "oracle-small", 1),
        ("head", "oracle-small", 2), ("base", "oracle-small", 2),
    ]
    assert list(report["perfbench"]["workloads"]) == ["oracle-small"]
    row = report["perfbench"]["workloads"]["oracle-small"]["comparison"]["items_per_ref_s"]
    assert row["head_won"] == 2 and row["pairs"] == 2
    # the perfbench part alone: no traced, corpus, ring200, tree or tier-1 section
    assert set(report) == {"machine", "perfbench", "code_lines"}


def test_a_full_run_keeps_every_part(tmp_path, monkeypatch):
    report, calls = run_main(tmp_path, monkeypatch, ["--seeds", "3"])
    assert [w for _, w, _ in calls] == [w for w in bench.WORKLOADS for _ in range(2)]
    assert set(report["perfbench"]["workloads"]) == set(bench.WORKLOADS)
    assert report["default_corpus_batch_refine"] == {"probe": "default corpus"}
    assert report["ring200_benchmark"] == {"probe": "ring200"}
    assert report["unroll_trees"] == {"probe": "trees"}
    # one traced pass per workload, on the head only
    assert report["traced_head"] == {w: {"traced": ["head", w]} for w in bench.WORKLOADS}
    assert report["tier1"] == {side: {"summary": "1 passed"} for side in ("base", "head")}


def test_workloads_filter_refuses_unknown_names(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit):
        run_main(tmp_path, monkeypatch, ["--workloads", "oracle-big"])
    assert "invalid choice" in capsys.readouterr().err


def test_probe_rounds_flag_histories_that_differ(monkeypatch):
    # a fake probe whose head gives another FWL2 history in the second round
    rounds = {}

    def probe(root, source, kind):
        i = rounds[root, kind] = rounds.get((root, kind), -1) + 1
        differs = root.name == "head" and kind == "FWL2" and i == 1
        return {"seconds": 1.0 + i, "history_sha256": "b" if differs else "a"}

    monkeypatch.setattr(bench, "probe", probe)
    sides = {"base": Path("base"), "head": Path("head")}
    report = bench.probe_rounds(sides, [1, 2], ("WL1", "FWL2"), "source", "corpus")
    assert report["history_differs"] == {"WL1": [], "FWL2": [2]}
    # the hashes are kept with every sample, and take no median
    assert report["head"]["FWL2"]["median"] == {"seconds": 1.5}
    assert [r["history_sha256"] for r in report["head"]["FWL2"]["samples"]] == ["a", "b"]
    # a probe that gives no hash gets no flags
    monkeypatch.setattr(bench, "probe", lambda root, source, kind: {"seconds": 1.0})
    assert set(bench.probe_rounds(sides, [1], ("WL1",), "source", "ring")) == {"base", "head"}


def test_probe_rounds_flag_reports_that_differ(monkeypatch):
    # ring200's probe hashes its report: the base gives another WL1 report
    # in the first round
    rounds = {}

    def probe(root, source, kind):
        i = rounds[root, kind] = rounds.get((root, kind), -1) + 1
        differs = root.name == "base" and kind == "WL1" and i == 0
        return {"seconds": 2.0, "featurize_seconds": 1.0, "report_sha256": "d" if differs else "c"}

    monkeypatch.setattr(bench, "probe", probe)
    sides = {"base": Path("base"), "head": Path("head")}
    report = bench.probe_rounds(sides, [3, 4], ("WL1", "FWL2_Local"), "source", "ring200")
    assert report["report_differs"] == {"WL1": [3], "FWL2_Local": []}
    assert "history_differs" not in report
    assert report["head"]["WL1"]["median"] == {"seconds": 2.0, "featurize_seconds": 1.0}


def test_ring_probe_hashes_the_report_without_its_timing():
    out = bench.probe(ROOT, bench.RING_PROBE, "WL1")
    report = benchmark(ring_lattice(200, 4, 0.1, seed=0), TestKind.WL1, split_seed=0)
    fields = json.loads(report.to_json())
    assert fields.pop("featurize_seconds") > 0 and out["featurize_seconds"] > 0
    assert out["report_sha256"] == hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    assert out["test_auc"] == report.test_auc


def test_corpus_probe_hashes_the_history(default_corpus):
    # the probe's hash is the sha256 of the bytes of BatchResult.history
    out = bench.probe(ROOT, bench.CORPUS_PROBE, "WL1")
    history = batch_refine(TestKind.WL1, default_corpus).history
    assert out["history_sha256"] == hashlib.sha256(history.tobytes()).hexdigest()
    assert out["instances"] == len(default_corpus)


def test_tree_probe_hashes_the_verdicts():
    # the probe's hash is the sha256 of every pair's two verdicts at depths 0-4
    out = bench.probe(ROOT, bench.TREE_PROBE, "T_B")
    pairs = {}
    exec(bench.TREE_PAIRS, pairs)
    pairs = pairs["pairs"]
    assert out["pairs"] == len(pairs) == 240 and out["us_per_pair"] > 0
    assert {g1.n for g1, *_ in pairs} == {5, 6, 7, 8}
    verdicts, entries = [], 0
    for depth in range(5):
        verdicts.append([])
        for g1, e1, g2, e2 in pairs:
            interner = Interner()
            t1 = unroll("T_B", g1, e1, depth, interner)
            verdicts[-1].append(
                [tree_equal(t1, unroll("T_B", g2, e, depth, interner)) for e in (e2, e2[::-1])]
            )
            entries += len(interner)
    assert out["trees_sha256"] == hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert out["interner_entries"] == entries
    # both verdicts occur at depth 3
    assert {v for row in verdicts[3] for v in row} == {True, False}


DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# the metrics derived from RefinementSession.step's spans
STEP = sorted(n for n in DECLARED
              if n.startswith(("refine.step.", "refine.units_per_step.", "refine.iterations.")))


def result_line(names):
    return json.dumps({"metrics": {n: {"value": 0.0, "unit": ""} for n in names}})


@pytest.mark.parametrize(
    "printed,returncode,names,missing,absent",
    [
        # a full result: every declared per-layer metric, nothing absent
        (["facts {}", result_line(DECLARED)], 0, 117, [], []),
        # an entry point gone: the metrics of its spans are left out
        (
            ["absent entry points: wl2link.refine.RefinementSession.step",
             result_line(n for n in DECLARED if n not in STEP)],
            0, 93, STEP, ["wl2link.refine.RefinementSession.step"],
        ),
        # a last line that is not a result, and no output at all
        (["absent entry points: a.b, c.d"], 0, 0, sorted(DECLARED), ["a.b", "c.d"]),
        ([], 1, 0, sorted(DECLARED), []),
    ],
)
def test_traced_pass_reads_the_last_line(monkeypatch, printed, returncode, names, missing, absent):
    calls = []

    def run(cmd, cwd, stdout, text):
        calls.append((cmd[1:], cwd))
        return SimpleNamespace(returncode=returncode, stdout="".join(f"{x}\n" for x in printed))

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run, PIPE=-1))
    assert bench.traced_pass(ROOT, "power-er") == {
        "returncode": returncode, "per_layer_names": names, "missing": missing, "absent": absent,
    }
    assert calls == [(["perfbench/run.py", "--workload", "power-er", "--seed", "1",
                       "--seconds", "5", "--trace", "1"], ROOT)]
