"""Byte-identical CLI output for fixed inputs.

The files under ``tests/golden/`` hold what ``refine``, ``distinguish``,
``power-check`` and ``predict`` print with ``--output json``, and the
manifest that ``fixtures`` writes, for small fixed graphs. ``predict``'s
``featurize_seconds`` is a timing, so it is dropped before comparing.
``batch-refine-histories`` pins ``batch_refine``'s ids of every kind, as
the sha256 of each ``BatchResult.history``, on a corpus whose runs rank
tens of thousands of keys at once.
After a deliberate output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from wl2link import refine
from wl2link.cli import main
from wl2link.generate import erdos_renyi, path_graph, rook_graph
from wl2link.graph import Graph, disjoint_union
from wl2link.harness import Corpus, batch_refine, fixtures_corpus, random_corpus
from wl2link.refine import ALL_KINDS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _graphs():
    k2 = path_graph(2)
    k2k2, _ = disjoint_union(k2, k2)
    house = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
    return {
        "k2": k2, "k2k2": k2k2, "house": house, "er9": erdos_renyi(9, 0.4, seed=5),
        "rook4": rook_graph(4),
    }


# case name -> CLI arguments; "@name" stands for the edge list of graph name
CASES = {
    "power-check-fixtures": ("power-check", "--corpus", "fixtures"),
    "power-check-random6": ("power-check", "--corpus", "random:count=6,seed=3"),
}
for _kind in ALL_KINDS:
    _k = _kind.value
    CASES[f"refine-{_k}-k2k2"] = ("refine", "--graph", "@k2k2", "--test", _k, "--mask", "0,2")
    CASES[f"refine-{_k}-house"] = ("refine", "--graph", "@house", "--test", _k, "--mask", "1,4")
    CASES[f"refine-{_k}-er9"] = ("refine", "--graph", "@er9", "--test", _k, "--mask", "2,4")
    CASES[f"distinguish-{_k}-k2-k2k2"] = (
        "distinguish", "--graph-a", "@k2", "--link-a", "0,1",
        "--graph-b", "@k2k2", "--link-b", "0,1", "--test", _k,
    )
for _k in ("FWL2", "FWL2_Local"):
    CASES[f"refine-{_k}-rook4"] = ("refine", "--graph", "@rook4", "--test", _k, "--mask", "0,1")
for _k in ("WL1", "WL1_Label01", "WL2_Local", "FWL2_Local"):
    CASES[f"predict-{_k}-ring60"] = (
        "predict", "--generate", "ring:n=60,k=4,rewire=0.1,seed=1", "--test", _k, "--seed", "1",
    )
MANIFEST = "fixtures-manifest"
HISTORIES = "batch-refine-histories"
# the fixtures plus 16 random graphs: 1,018 instances, whose every kind has
# steps that rank more than 1,024 keys at once
HISTORY_CORPUS = {"count": 16, "seed": 7}


def _histories() -> str:
    corpus = Corpus.merge(fixtures_corpus(), random_corpus(**HISTORY_CORPUS))
    rows = {}
    for kind in ALL_KINDS:
        result = batch_refine(kind, corpus)
        rows[kind.value] = {
            "iterations": result.iterations,
            "stable": result.stable,
            "shape": list(result.history.shape),
            "history_sha256": hashlib.sha256(result.history.tobytes()).hexdigest(),
        }
    return json.dumps({"corpus": corpus.spec, "kinds": rows}, indent=2) + "\n"


def _output(name, workdir: pathlib.Path) -> str:
    if name == MANIFEST:
        out = workdir / "fixtures"
        assert main(["--quiet", "fixtures", "--out", str(out)]) == 0
        return (out / "manifest.json").read_text()
    for graph_name, g in _graphs().items():
        text = "".join(f"{u} {v}\n" for u, v in g.edge_list())
        (workdir / f"{graph_name}.edgelist").write_text(text)
    argv = ["--output", "json"] + [
        str(workdir / f"{a[1:]}.edgelist") if a.startswith("@") else a
        for a in CASES[name]
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    if CASES[name][0] != "predict":
        return buf.getvalue()
    report = json.loads(buf.getvalue())
    del report["featurize_seconds"]
    return json.dumps(report) + "\n"


@pytest.mark.parametrize("name", sorted(CASES) + [MANIFEST])
def test_cli_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert _output(name, tmp_path).encode() == expected


def test_batch_histories_match_golden(monkeypatch):
    # the runs rank arrays past the value-sort cut
    lengths, dense_ranks = [], refine._dense_ranks

    def spy(keys):
        lengths.append(len(keys))
        return dense_ranks(keys)

    monkeypatch.setattr(refine, "_dense_ranks", spy)
    expected = (GOLDEN / f"{HISTORIES}.json").read_text()
    assert _histories() == expected
    assert max(lengths) >= refine._VALUE_SORT_MIN


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES) + [MANIFEST]:
            (GOLDEN / f"{name}.json").write_bytes(_output(name, pathlib.Path(tmp)).encode())
    (GOLDEN / f"{HISTORIES}.json").write_text(_histories())
    print(f"wrote {len(CASES) + 2} files to {GOLDEN}", file=sys.stderr)
