"""Compare this checkout with a base checkout and write BENCH_<tag>.json.

    python3 scripts/bench.py --base ../base-checkout --tag 11

Five measurements, each run on both checkouts:

- ``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` for every
  workload and seed (1 to 10 by default, ten pairs); the two sides
  alternate, base first on odd seeds. The file keeps every end-to-end
  sample and the per-workload medians, and per metric the base's quartiles
  and the number of seeds whose head sample beat the base sample, in the
  direction that ``BENCHMARK.json`` gives the metric (ties count for
  neither side). Each end-to-end metric also gets its bound from
  ``BENCHMARK.json`` and a verdict (see ``verdict``).
- ``batch_refine`` per kind on the default corpus (the built-in fixtures
  plus ``random_corpus()``), one fresh process per kind, one round per seed
  with the sides alternating the same way: seconds, iterations, and the
  process's peak RSS, every sample and the medians. Each run also gives
  the sha256 of its ``BatchResult.history`` (every iteration's ordered
  keys), and ``history_differs`` lists per kind the seeds whose base and
  head hashes differ: an empty list means the two sides gave byte-identical
  ids in every round.
- ``benchmark()`` per kind on ring200 (``ring:n=200,k=4,rewire=0.1,seed=0``,
  split seed 0), likewise one fresh process per kind and one round per
  seed: wall seconds, test AUC and the report's ``featurize_seconds``.
  Each run also gives the sha256 of the report's JSON with
  ``featurize_seconds`` removed, and ``report_differs`` lists per kind the
  seeds whose base and head hashes differ, as ``history_differs`` does.
- ``unroll`` per tree kind on a fixed seeded set of 240 pairs of targets on
  n = 5-8 (``TREE_PAIRS``), likewise one fresh process per kind and one
  round per seed: microseconds per pair, building at depth 3 the first
  target's tree and the second's in both orientations with a fresh
  ``Interner`` per pair (best of 5 passes), and the interner entries summed
  over depths 0-4. Each run also gives the sha256 of every pair's two
  ``tree_equal`` verdicts at depths 0-4, and ``trees_differs`` lists per
  kind the seeds whose base and head hashes differ.
- The tier-1 suite (``python -m pytest -q --continue-on-collection-errors``),
  once per side: wall seconds and pytest's summary line.

After the perfbench pairs, one traced pass per workload runs on this
checkout alone (``--seed 1 --seconds 5 --trace 1``, ``traced_pass``): its
exit code, the number of metrics on its last line, the per-layer metrics of
``BENCHMARK.json`` that line lacks, and the entry points it reports absent.

The file also gives each side's code size: the lines of ``src/wl2link`` that
hold code, per file and in all, counting no comment, docstring or blank
line (``code_lines``). Each end-to-end comparison row gives its relative
change, the head's median over the base's, minus 1.

Run it from the root of the checkout to measure; the base is any other
checkout of the repository.

``--workloads W ...`` runs the perfbench measurement alone, on those
workloads only: the file then has no traced, corpus, ring200, tree or tier-1
section.
It serves a standing gate on one workload against an older commit:

    python3 scripts/bench.py --base ../old-checkout --workloads oracle-small --tag gate
"""

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
WORKLOADS = ("power-er", "linkpred-ring", "oracle-small")
POWER_KINDS = ("WL1", "WL2", "FWL2", "WL2_Local", "FWL2_Local")
RING_KINDS = ("WL1", "WL1_Label01", "WL2_Local", "FWL2_Local")
TREE_KINDS = ("T_A", "T_B", "T_C", "T_D")

# Runs in the checkout under test: one kind of batch_refine on the default corpus.
CORPUS_PROBE = """
import hashlib, json, resource, sys, time
from wl2link.harness import Corpus, batch_refine, fixtures_corpus, random_corpus
from wl2link.refine import TestKind
corpus = Corpus.merge(fixtures_corpus(), random_corpus())
start = time.perf_counter()
result = batch_refine(TestKind.parse(sys.argv[1]), corpus)
print(json.dumps({
    "instances": len(corpus),
    "seconds": time.perf_counter() - start,
    "iterations": result.iterations,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "history_sha256": hashlib.sha256(result.history.tobytes()).hexdigest(),
}))
"""

# Runs in the checkout under test: one kind of benchmark() on ring200.
RING_PROBE = """
import hashlib, json, sys, time
from wl2link.generate import ring_lattice
from wl2link.linkpred import benchmark
from wl2link.refine import TestKind
g = ring_lattice(200, 4, 0.1, seed=0)
start = time.perf_counter()
report = benchmark(g, TestKind.parse(sys.argv[1]), split_seed=0)
seconds = time.perf_counter() - start
fields = json.loads(report.to_json())
del fields["featurize_seconds"]
print(json.dumps({
    "seconds": seconds,
    "test_auc": report.test_auc,
    "featurize_seconds": report.featurize_seconds,
    "report_sha256": hashlib.sha256(json.dumps(fields).encode()).hexdigest(),
}))
"""

# A fixed seeded set of pairs of targets on n = 5-8, in oracle-small's three
# shapes: a relabelled copy, a second target on the same graph, an independent
# graph. TREE_PROBE runs one tree kind over them in the checkout under test.
TREE_PAIRS = """
import random
from wl2link.generate import erdos_renyi
from wl2link.graph import permute
rng, pairs = random.Random(26), []
for i in range(240):
    n, p = rng.randint(5, 8), rng.choice((0.2, 0.35, 0.5))
    g1 = erdos_renyi(n, p, seed=rng.randrange(2**31))
    e1 = tuple(rng.sample(range(n), 2))
    if i % 3 == 0:
        pi = rng.sample(range(n), n)
        pairs.append((g1, e1, permute(g1, pi), (pi[e1[0]], pi[e1[1]])))
    elif i % 3 == 1:
        pairs.append((g1, e1, g1, tuple(rng.sample(range(n), 2))))
    else:
        pairs.append((g1, e1, erdos_renyi(n, p, seed=rng.randrange(2**31)), e1))
"""
TREE_PROBE = TREE_PAIRS + """
import hashlib, json, sys, time
from wl2link.refine import Interner
from wl2link.unroll import tree_equal, unroll
kind = sys.argv[1]

def build(depth):
    verdicts, entries = [], 0
    for g1, e1, g2, e2 in pairs:
        interner = Interner()
        t1 = unroll(kind, g1, e1, depth, interner)
        verdicts.append([tree_equal(t1, unroll(kind, g2, e, depth, interner)) for e in (e2, e2[::-1])])
        entries += len(interner)
    return verdicts, entries

seconds = []
for _ in range(5):
    start = time.perf_counter()
    build(3)
    seconds.append(time.perf_counter() - start)
verdicts, entries = zip(*map(build, range(5)))
print(json.dumps({
    "pairs": len(pairs),
    "us_per_pair": min(seconds) / len(pairs) * 1e6,
    "interner_entries": sum(entries),
    "trees_sha256": hashlib.sha256(json.dumps(verdicts).encode()).hexdigest(),
}))
"""


def last_json_line(cmd, cwd, env=None):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_lines(text):
    """The number of lines of the Python source ``text`` that hold code. A
    line that holds only a comment, part of a docstring or nothing does not
    count."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                docstrings.update(range(node.lineno, node.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def code_size(root):
    """``code_lines`` of every module of ``src/wl2link`` under ``root``, and their sum."""
    paths = sorted(Path(root, "src", "wl2link").glob("*.py"))
    files = {p.name: code_lines(p.read_text()) for p in paths}
    return {"files": files, "total": sum(files.values())}


def perfbench(root, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "30", "--trace", "0"]
    result = last_json_line(cmd, root)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"]}


def traced_pass(root, workload):
    """One traced perfbench run of ``workload`` in the checkout at ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "5", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        metrics = {}  # the last line is not a result
    declared = json.loads((Path(root) / "BENCHMARK.json").read_text())["per_layer"]
    prefix = "absent entry points: "
    return {
        "returncode": proc.returncode,
        "per_layer_names": len(metrics),
        "missing": sorted({m["name"] for m in declared} - set(metrics)),
        "absent": [name for line in lines if line.startswith(prefix)
                   for name in line.removeprefix(prefix).split(", ")],
    }


def src_env(root):
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


def probe(root, source, kind):
    return last_json_line([sys.executable, "-c", source, kind], root, src_env(root))


def tier1(root):
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=src_env(root), stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"seconds": time.perf_counter() - start, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def probe_rounds(sides, seeds, kinds, source, label):
    """One fresh process per side, kind and seed; the sides alternate as above.
    For every hash ``<name>_sha256`` that the probe gives, ``<name>_differs``
    lists per kind the seeds whose base and head hashes differ."""
    out = {side: {kind: [] for kind in kinds} for side in sides}
    for seed in seeds:
        order = ("base", "head") if seed % 2 else ("head", "base")
        for kind in kinds:
            for side in order:
                out[side][kind].append(probe(sides[side], source, kind))
                print(f"{label} {kind} {side}: {out[side][kind][-1]}", file=sys.stderr)
    report = {
        side: {
            kind: {
                "samples": samples,
                "median": {
                    k: statistics.median(r[k] for r in samples)
                    for k, v in samples[0].items()
                    if not isinstance(v, str)
                },
            }
            for kind, samples in per.items()
        }
        for side, per in out.items()
    }
    for key in out["head"][kinds[0]][0]:
        if key.endswith("_sha256"):
            report[key.removesuffix("_sha256") + "_differs"] = {
                kind: [
                    seed
                    for seed, b, h in zip(seeds, out["base"][kind], out["head"][kind])
                    if b[key] != h[key]
                ]
                for kind in kinds
            }
    return report


def summarize(runs):
    samples = {}
    for run in runs:
        for name, value in run["metrics"].items():
            samples.setdefault(name, []).append(value)
    return {
        "samples": samples,
        "median": {name: statistics.median(v) for name, v in samples.items()},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def verdict(row, bound, b, h):
    """How one end-to-end metric's ``compare`` row reads, with ``bound`` a
    fraction of the base's median and ``b``, ``h`` the base and head samples:
    ``regressed`` when the head's median is worse than the base's by more
    than the bound; else ``unresolved`` when the base's IQR is wider than the
    bound and not every head sample beats every base sample; else
    ``improved`` when the head won at least 9 pairs in 10 and the medians
    differ by more than the base's IQR; else ``within_bound``."""
    sign = 1 if row["better"] == "higher" else -1
    allowed = bound * abs(row["base_median"])
    gain = sign * (row["head_median"] - row["base_median"])
    if -gain > allowed:
        return "regressed"
    if row["base_iqr"] > allowed and not all(sign * (y - x) > 0 for x in b for y in h):
        return "unresolved"
    if 10 * row["head_won"] >= 9 * row["pairs"] and gain > row["base_iqr"]:
        return "improved"
    return "within_bound"


def compare(base, head, better, bounds):
    """Per metric: the base's quartiles and interquartile range, both medians,
    and how many seed pairs the head won in the metric's direction; per
    metric with a bound (the end-to-end ones), the bound, the verdict and the
    relative change of the medians (None if the base's is 0)."""
    out = {}
    for name, direction in better.items():
        if name not in base["samples"] or name not in head["samples"]:
            continue
        b, h = base["samples"][name], head["samples"][name]
        sign = 1 if direction == "higher" else -1
        quartiles = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else [b[0]] * 3
        row = out[name] = {
            "better": direction,
            "base_quartiles": quartiles,
            "base_iqr": quartiles[2] - quartiles[0],
            "base_median": statistics.median(b),
            "head_median": statistics.median(h),
            "head_won": sum(sign * (y - x) > 0 for x, y in zip(b, h)),
            "pairs": min(len(b), len(h)),
        }
        if name in bounds:
            row["bound"] = bounds[name]
            row["verdict"] = verdict(row, bounds[name], b, h)
            base_median = row["base_median"]
            row["relative_change"] = row["head_median"] / base_median - 1 if base_median else None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="root of the checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--tag", default="local", help="the output is BENCH_<tag>.json")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    help="run only the perfbench part, on these workloads")
    args = ap.parse_args(argv)
    sides = {"base": Path(args.base).resolve(), "head": HEAD}
    selected = [w for w in WORKLOADS if args.workloads is None or w in args.workloads]

    runs = {w: {side: [] for side in sides} for w in selected}
    for w in selected:
        for seed in args.seeds:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                runs[w][side].append(perfbench(sides[side], w, seed))
                print(f"{w} seed {seed} {side}: {runs[w][side][-1]['metrics']}", file=sys.stderr)

    declared = json.loads((HEAD / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    workloads = {}
    for w, per in runs.items():
        workloads[w] = {side: summarize(r) for side, r in per.items()}
        workloads[w]["comparison"] = compare(
            workloads[w]["base"], workloads[w]["head"], better, bounds
        )
    report = {
        "machine": {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0))},
        "perfbench": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0",
            "seeds": args.seeds,
            "workloads": workloads,
        },
        "code_lines": {side: code_size(root) for side, root in sides.items()},
    }
    if args.workloads is None:
        report["traced_head"] = {}
        for w in WORKLOADS:
            report["traced_head"][w] = traced_pass(HEAD, w)
            print(f"traced {w}: {report['traced_head'][w]}", file=sys.stderr)
        report["default_corpus_batch_refine"] = probe_rounds(
            sides, args.seeds, POWER_KINDS, CORPUS_PROBE, "default corpus"
        )
        report["ring200_benchmark"] = probe_rounds(sides, args.seeds, RING_KINDS, RING_PROBE, "ring200")
        report["unroll_trees"] = probe_rounds(sides, args.seeds, TREE_KINDS, TREE_PROBE, "trees")
        report["tier1"] = {}
        for side in ("base", "head"):
            report["tier1"][side] = tier1(sides[side])
            print(f"tier-1 {side}: {report['tier1'][side]}", file=sys.stderr)
    out = HEAD / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
