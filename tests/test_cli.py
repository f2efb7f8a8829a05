import json

import pytest

from wl2link.cli import main
from wl2link.generate import cycle_graph, path_graph
from wl2link.graph import disjoint_union


def write_edgelist(path, g):
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edge_list()))
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    return write_edgelist(tmp_path / "c6.edgelist", cycle_graph(6))


@pytest.fixture
def k2_files(tmp_path):
    k2 = path_graph(2)
    k2k2, _ = disjoint_union(k2, k2)
    return (
        write_edgelist(tmp_path / "k2.edgelist", k2),
        write_edgelist(tmp_path / "k2k2.edgelist", k2k2),
    )


class TestRefine:
    def test_c6_wl1_single_class(self, c6_file, capsys):
        assert main(["refine", "--graph", c6_file, "--test", "WL1"]) == 0
        out = capsys.readouterr().out
        assert "stable_at: 1" in out
        assert "iteration 0: 1 classes" in out

    def test_path3_two_classes(self, tmp_path, capsys):
        path = write_edgelist(tmp_path / "p3.edgelist", path_graph(3))
        assert main(["refine", "--graph", path, "--test", "WL1"]) == 0
        out = capsys.readouterr().out
        assert "2 classes" in out.splitlines()[-1]

    def test_json_schema(self, c6_file, capsys):
        assert main(
            ["--output", "json", "refine", "--graph", c6_file, "--test", "WL2",
             "--mask", "0,1"]
        ) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["test"] == "WL2"
        assert d["mask"] == [0, 1]
        assert all(len(row) == 3 for row in d["colors"]["0"])

    def test_untracked_local_folklore_target(self, k2_files, capsys):
        # a cross-component target is never tracked by FWL2_Local: its class
        # is its own two read-outs
        assert main(
            ["refine", "--graph", k2_files[1], "--test", "FWL2_Local", "--mask", "0,2"]
        ) == 0
        assert "target stable color class size: 2" in capsys.readouterr().out

    def test_untracked_local_folklore_target_json(self, k2_files, capsys):
        # the JSON carries the target's read-out colour at every iteration,
        # numbered after the tracked colours
        assert main(
            ["--output", "json", "refine", "--graph", k2_files[1],
             "--test", "FWL2_Local", "--mask", "0,2"]
        ) == 0
        d = json.loads(capsys.readouterr().out)
        assert set(d["readouts"]) == set(d["colors"])
        for t, rows in d["readouts"].items():
            tracked = {c for _, _, c in d["colors"][t]}
            assert [r[:2] for r in rows] == [[0, 2], [2, 0]]
            assert rows[0][2] == rows[1][2] == len(tracked)

    def test_bogus_kind_usage_error(self, c6_file, capsys):
        assert main(["refine", "--graph", c6_file, "--test", "BOGUS"]) == 1
        assert "valid" in capsys.readouterr().err

    def test_missing_file_runtime_error(self, capsys):
        assert main(["refine", "--graph", "/nonexistent", "--test", "WL1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDistinguish:
    def test_f3_wl2(self, k2_files, capsys):
        k2, k2k2 = k2_files
        assert main(
            ["distinguish", "--graph-a", k2, "--link-a", "0,1",
             "--graph-b", k2k2, "--link-b", "0,1", "--test", "WL2"]
        ) == 0
        assert "distinguished at iteration 1" in capsys.readouterr().out

    def test_same_instance(self, c6_file, capsys):
        assert main(
            ["distinguish", "--graph-a", c6_file, "--link-a", "0,1",
             "--graph-b", c6_file, "--link-b", "0,1", "--test", "FWL2"]
        ) == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_bad_pair_usage_error(self, c6_file, capsys):
        assert main(
            ["distinguish", "--graph-a", c6_file, "--link-a", "0;1",
             "--graph-b", c6_file, "--link-b", "0,1", "--test", "WL1"]
        ) == 1

    def test_max_iters_below_one_runtime_error(self, k2_files, capsys):
        k2, k2k2 = k2_files
        assert main(
            ["distinguish", "--graph-a", k2, "--link-a", "0,1",
             "--graph-b", k2k2, "--link-b", "0,1", "--test", "WL1",
             "--max-iters", "0"]
        ) == 2
        assert "max_iters must be >= 1" in capsys.readouterr().err


class TestFixturesCommand:
    def test_writes_manifest_and_validates(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["fixtures", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {entry["name"] for entry in manifest}
        assert {"F3-graph-size", "F4a-common-neighbor", "F4b-antipodal-vs-cross"} <= names
        for entry in manifest:
            for side in ("a", "b"):
                assert (out / entry["files"][side]).exists()
        f3 = next(e for e in manifest if e["name"] == "F3-graph-size")
        assert f3["expected"]["WL2"] == {"distinguished": True, "iteration": 1}
        assert f3["expected"]["WL1"]["distinguished"] is False

    def test_json_output_is_the_manifest(self, tmp_path, capsysbinary):
        out = tmp_path / "fx"
        assert main(["--output", "json", "fixtures", "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == (out / "manifest.json").read_bytes()


class TestPowerCheckCommand:
    def test_fixtures_corpus_json(self, capsys):
        assert main(
            ["--output", "json", "power-check", "--corpus", "fixtures",
             "--tests", "WL1,WL2,FWL2"]
        ) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["kinds"] == ["WL1", "WL2", "FWL2"]
        assert d["implications"]["WL1->WL2"]["holds"] is True
        assert d["implications"]["WL2->WL1"]["holds"] is False

    def test_unknown_corpus(self, capsys):
        assert main(["power-check", "--corpus", "bogus"]) == 1

    @pytest.mark.parametrize("spec,message", [
        ("random:count=x", "bad int 'x' for 'count'"),
        ("random:count", "option 'count' in 'random:count' needs a value"),
        ("random:size=3", "unknown option 'size'"),
    ])
    def test_bad_corpus_option_usage_error(self, capsys, spec, message):
        assert main(["power-check", "--corpus", spec]) == 1
        assert message in capsys.readouterr().err

    def test_max_iters_below_one_runtime_error(self, capsys):
        assert main(["power-check", "--corpus", "fixtures", "--max-iters", "0"]) == 2
        assert "max_iters must be >= 1" in capsys.readouterr().err


class TestPredictCommand:
    def test_deterministic_json(self, capsys):
        argv = ["--output", "json", "predict", "--generate", "er:n=50,p=0.15,seed=4",
                "--test", "WL2_Local", "--seed", "3"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        for key in ("val_auc", "test_auc", "n", "m", "dataset", "kind"):
            assert first[key] == second[key]

    def test_requires_one_source(self, capsys):
        assert main(["predict", "--test", "WL1"]) == 1

    @pytest.mark.parametrize("spec,message", [
        ("ring:nodes=50", "unknown option 'nodes'"),
        ("er:prob=0.9", "unknown option 'prob'"),
        ("ring:n", "option 'n' in 'ring:n' needs a value"),
        ("ring:n=50.5", "bad int '50.5' for 'n'"),
        ("er:p=x", "bad float 'x' for 'p'"),
        ("ring:n=5,k=8", "even k with 2 <= k < n, got k=8, n=5"),
        ("ring:n=-3", "even k with 2 <= k < n, got k=4, n=-3"),
        ("ring:n=20,k=5", "even k with 2 <= k < n, got k=5, n=20"),
        ("ring:rewire=1.5", "rewire probability must lie in [0, 1]"),
        ("er:p=2", "edge probability p must lie in [0, 1]"),
        ("er:n=1", "needs n >= 2"),
    ])
    def test_bad_generator_option_usage_error(self, capsys, spec, message):
        # refused before any graph is built, so a typo cannot fall back to a default
        assert main(["predict", "--generate", spec, "--test", "WL1"]) == 1
        assert message in capsys.readouterr().err

    def test_seed_flag_after_subcommand(self, capsys):
        assert main(
            ["predict", "--generate", "er:n=50,p=0.15,seed=4", "--test", "WL1",
             "--seed", "2", "--output", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["split_seed"] == 2

    def test_quiet_table(self, capsys):
        assert main(
            ["--quiet", "predict", "--generate", "er:n=50,p=0.15,seed=4",
             "--test", "WL1"]
        ) == 0
        assert capsys.readouterr().out == ""


# Every command with the arguments it requires; "@" stands for an edge list.
COMMAND_ARGS = {
    "refine": ["--graph", "@", "--test", "WL1"],
    "distinguish": ["--graph-a", "@", "--link-a", "0,1", "--graph-b", "@", "--link-b", "0,1",
                    "--test", "WL1"],
    "power-check": ["--corpus", "fixtures"],
    "fixtures": ["--out", "@dir"],
    "predict": ["--generate", "er:n=50,p=0.15,seed=4", "--test", "WL1"],
}
# (flag, value, the commands that read it)
SCOPED_FLAGS = [
    ("--seed", "3", {"predict"}),
    ("--max-iters", "2", {"refine", "distinguish", "power-check"}),
]


def _argv(command, c6_file, tmp_path):
    args = [{"@": c6_file, "@dir": str(tmp_path / "fx")}.get(a, a) for a in COMMAND_ARGS[command]]
    return [command] + args


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value)
    for flag, value, readers in SCOPED_FLAGS
    for command in COMMAND_ARGS
    if command not in readers
])
def test_flag_the_command_does_not_read_is_refused(command, flag, value, c6_file, tmp_path,
                                                   capsys):
    assert main(_argv(command, c6_file, tmp_path) + [flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [(flag, value) for flag, value, _ in SCOPED_FLAGS] + [
    ("--outp", "json"),  # no option at all: named, not its value read as a command
])
def test_command_flag_before_the_command_is_refused(flag, value, c6_file, tmp_path, capsys):
    assert main([flag, value] + _argv("predict", c6_file, tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {flag} ")


@pytest.mark.parametrize("flag,value", [(flag, value) for flag, value, _ in SCOPED_FLAGS] + [
    ("--out", "report.json"),  # not an abbreviation of --output before the command
])
def test_command_flag_before_the_command_is_named(flag, value, c6_file, tmp_path, capsys):
    # the message names the flag, not its value read as a command name
    assert main([flag, value] + _argv("predict", c6_file, tmp_path)) == 1
    err = capsys.readouterr().err
    assert f"usage error: {flag} is an option of " in err
    assert "put it after the command" in err


@pytest.mark.parametrize("argv,flag", [
    (["refine", "--graph", "/dev/null", "--tes", "WL1", "--mas", "0,1"], "--tes"),
    (["power-check", "--corpus", "fixtures", "--outp", "x"], "--outp"),
])
def test_command_flags_are_not_abbreviated(argv, flag, capsys):
    # --tes is not --test, and --outp is not --output, after the command too
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {flag}\n"


def test_generate_help_names_the_seed_option(capsys):
    with pytest.raises(SystemExit):
        main(["predict", "--help"])
    assert "rewire=..,seed=.." in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("before", [True, False])
def test_output_and_quiet_on_either_side(command, before, c6_file, tmp_path, capsys):
    flags = ["--output", "table", "--quiet"]
    argv = _argv(command, c6_file, tmp_path)
    assert main(flags + argv if before else argv + flags) == 0
    assert capsys.readouterr().out == ""
