import itertools
import math
import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wl2link import harness, refine
from wl2link.generate import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    rook_graph,
    shrikhande_graph,
)
from wl2link.graph import Graph, GraphError, disjoint_union, permute
from wl2link.harness import Corpus, batch_refine
from wl2link.linkpred import featurize_many
from wl2link.refine import (
    ABSENT,
    DEFAULT_DENSE_NODE_LIMIT,
    Interner,
    MemoryGateError,
    RefinementError,
    RefinementSession,
    TestKind,
    _adjacency,
    _check_splits,
    _dense_ranks,
    _edge_codes,
    _entry_plan,
    _Lines,
    _locate,
    _pack,
    _ranges,
    _Union,
    indistinguishable,
    lockstep,
    open_sessions,
    refine_to_stable,
)

ALL = list(TestKind)


def brute_force_node_orbits(g):
    """Node partition under the full automorphism group (reference oracle)."""
    n = g.n
    autos = []
    for perm in itertools.permutations(range(n)):
        if any(g.labels[v] != g.labels[perm[v]] for v in range(n)):
            continue
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges):
            autos.append(perm)
    orbits = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        orbit = {perm[v] for perm in autos}
        seen |= orbit
        orbits.append(frozenset(orbit))
    return sorted(orbits)


class TestKindBasics:
    def test_parse_roundtrip(self):
        for kind in ALL:
            assert TestKind.parse(kind.value) is kind

    def test_parse_unknown(self):
        with pytest.raises(RefinementError, match="valid:"):
            TestKind.parse("WL3")

    def test_classification(self):
        assert not TestKind.WL1.pair_indexed
        assert not TestKind.WL1_LABEL01.pair_indexed
        assert TestKind.WL2.dense and TestKind.FWL2.dense
        assert not TestKind.WL2_LOCAL.dense and not TestKind.FWL2_LOCAL.dense
        assert [k for k in ALL if k.folklore] == [TestKind.FWL2, TestKind.FWL2_LOCAL]


class TestInterner:
    def test_injective_and_dense(self):
        it = Interner()
        a = it.intern(("i", 0))
        b = it.intern(("i", 1))
        assert a == 0 and b == 1
        assert it.intern(("i", 0)) == a
        assert len(it) == 2


class TestInitColors:
    def test_wl1_by_label(self):
        g = Graph.build(3, [(0, 1)], labels=[5, 5, 7])
        colors = RefinementSession(TestKind.WL1, g).colors
        assert colors[0] == colors[1] != colors[2]

    def test_fwl2_init_on_path_three_classes(self):
        # P3 pairs split into: diagonal, edge, non-edge (single label).
        classes = {}
        for pair, c in RefinementSession(TestKind.FWL2, path_graph(3)).colors.items():
            classes.setdefault(c, set()).add(pair)
        assert len(classes) == 3
        by_kind = {frozenset(v) for v in classes.values()}
        assert frozenset({(0, 0), (1, 1), (2, 2)}) in by_kind
        assert frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}) in by_kind
        assert frozenset({(0, 2), (2, 0)}) in by_kind

    def test_mask_zeroes_indicator(self):
        # t = 0 of a lockstep run: both sessions' init colours in one table
        g = path_graph(3)
        masked = RefinementSession(TestKind.WL2, g, mask=(0, 1))
        unmasked = RefinementSession(TestKind.WL2, g)

        def check(t, keys):
            assert masked.colors[(0, 1)] != unmasked.colors[(0, 1)]
            assert masked.colors[(0, 1)] == unmasked.colors[(0, 2)]  # both non-edges now
            return True

        assert lockstep([masked, unmasked], observe=check) == (0, False)

    def test_local_reads_out_its_target(self):
        g = path_graph(4)
        session = RefinementSession(TestKind.WL2_LOCAL, g, mask=(0, 3))
        assert (0, 1) in session.colors and (1, 0) in session.colors
        assert not {(0, 3), (3, 0), (0, 2)} & set(session.colors)
        assert set(session.readouts) == {(0, 3), (3, 0)}
        session.step()
        r = session.readouts
        assert session.link_key((0, 3)) == tuple(sorted((r[(0, 3)], r[(3, 0)])))

    def test_label01_requires_mask(self):
        with pytest.raises(RefinementError):
            RefinementSession(TestKind.WL1_LABEL01, path_graph(3))

    def test_memory_gate(self):
        big = Graph.build(DEFAULT_DENSE_NODE_LIMIT + 1, [])
        with pytest.raises(MemoryGateError, match="dense node limit"):
            RefinementSession(TestKind.FWL2, big)
        # node-level and local kinds are not gated
        RefinementSession(TestKind.WL1, big)
        RefinementSession(TestKind.WL2_LOCAL, big)


class TestStablePartitions:
    def test_wl1_path4_orbits(self):
        g = path_graph(4)
        result = refine_to_stable(TestKind.WL1, g)
        assert result.final.partition() == brute_force_node_orbits(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_wl1_matches_orbits_on_trees_and_sparse(self, seed):
        # 1-WL computes exact orbits on small random graphs most of the time;
        # it must always be at least as coarse (never split an orbit).
        g = erdos_renyi(6, 0.3, seed=seed)
        stable = refine_to_stable(TestKind.WL1, g).final
        for orbit in brute_force_node_orbits(g):
            colors = {stable.colors[v] for v in orbit}
            assert len(colors) == 1

    def test_monotone_class_counts(self):
        g = erdos_renyi(9, 0.4, seed=4)
        for kind in ALL:
            result = refine_to_stable(kind, g, mask=(0, 1))
            counts = [c.num_classes() for c in result.history]
            assert counts == sorted(counts)
            assert result.stable_at is not None
            assert not result.reached_cap

    def test_to_json_schema(self):
        import json

        result = refine_to_stable(TestKind.WL2, path_graph(3), mask=(0, 2))
        d = json.loads(result.to_json())
        assert d["test"] == "WL2"
        assert d["stable_at"] == result.stable_at
        rows = d["colors"]["0"]
        assert all(len(r) == 3 for r in rows)
        assert len(rows) == 9


class TestDistinguish:
    def test_wl2_sees_graph_size(self):
        k2 = complete_graph(2)
        k2k2, _ = disjoint_union(k2, k2)
        res = indistinguishable(TestKind.WL2, (0, 1), k2, (0, 1), k2k2)
        assert res.distinguished_at == 1

    def test_wl1_blind_to_graph_size(self):
        k2 = complete_graph(2)
        k2k2, _ = disjoint_union(k2, k2)
        res = indistinguishable(TestKind.WL1, (0, 1), k2, (0, 1), k2k2)
        assert not res.distinguished and res.stable

    def test_same_instance_indistinguishable(self):
        g = erdos_renyi(8, 0.4, seed=2)
        for kind in ALL:
            res = indistinguishable(kind, (1, 5), g, (1, 5), g)
            assert not res.distinguished

    def test_symmetric_orientation(self):
        g = erdos_renyi(8, 0.4, seed=2)
        for kind in ALL:
            res = indistinguishable(kind, (1, 5), g, (5, 1), g)
            assert not res.distinguished, kind

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            indistinguishable(TestKind.WL1, (0, 9), path_graph(3), (0, 1), path_graph(3))

    @pytest.mark.parametrize("kind", ALL)
    def test_non_edge_targets_of_one_graph_share_a_session(self, kind, monkeypatch):
        # one session serves both targets (WL1_Label01 marks each target in
        # its labels, so it keeps one per target), and sharing it changes no
        # verdict, iteration count or stability
        g = Graph.build(8, set(cycle_graph(8).edges) | {(0, 4)})  # C8 and a long chord
        twin = Graph.build(g.n, g.edges, g.labels)
        non_edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
                     if not g.has_edge(u, v)]
        pairs = list(zip(non_edges, non_edges[1:] + non_edges[:1]))
        separate = [indistinguishable(kind, e1, g, e2, twin) for e1, e2 in pairs]
        opened = []
        init = RefinementSession.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(kwargs["mask"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(RefinementSession, "__init__", counting_init)
        for (e1, e2), expected in zip(pairs, separate):
            opened.clear()
            shared = indistinguishable(kind, e1, g, e2, g)
            assert len(opened) == (2 if kind is TestKind.WL1_LABEL01 else 1)
            assert (shared.distinguished_at, shared.iterations, shared.stable) == (
                expected.distinguished_at, expected.iterations, expected.stable)
        assert {r.distinguished for r in separate} == {True, False}


class TestMaskingNoLeak:
    @pytest.mark.parametrize("kind", ALL)
    def test_target_color_independent_of_edge_presence(self, kind):
        # Adding or removing the target edge must not change any refinement
        # outcome when that pair is masked.
        base = erdos_renyi(8, 0.35, seed=6)
        target = (2, 5)
        with_edge = Graph.build(base.n, set(base.edges) | {target}, base.labels)
        without = with_edge.without_edge(*target)
        res = indistinguishable(kind, target, with_edge, target, without)
        assert not res.distinguished, kind


class TestEquivariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permuted_instance_indistinguishable(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        g = erdos_renyi(n, 0.4, seed=seed % 997)
        pi = list(range(n))
        rng.shuffle(pi)
        h = permute(g, pi)
        p, q = rng.sample(range(n), 2)
        kind = rng.choice(ALL)
        res = indistinguishable(kind, (p, q), g, (pi[p], pi[q]), h)
        assert not res.distinguished


class TestInitRanks:
    """t = 0 ranks every unit's init signature with the step's ranker."""

    @pytest.mark.parametrize("kind", ALL)
    def test_json_depends_only_on_label_order(self, kind):
        # labels rank before they pack: any ints in the same order give the
        # same JSON, negative ones and ones above 2**63 included
        g = erdos_renyi(9, 0.4, seed=8)
        small = [v % 4 for v in range(g.n)]
        spread = {0: -(2**70), 1: -3, 2: 2**63 + 7, 3: 2**64}

        def json_of(labels):
            h = Graph.build(g.n, g.edges, labels)
            return refine_to_stable(kind, h, mask=(0, 1), extra_targets=[(2, 7)]).to_json()

        assert json_of([spread[x] for x in small]) == json_of(small)
        assert json_of([3 - x for x in small]) != json_of(small)  # the order does count

    @pytest.mark.parametrize("kind", ALL)
    def test_shared_run_ranks_sorted_signatures(self, kind):
        # the t = 0 ids of a shared run are the ranks of the sorted keys
        # (read-out, init signature) over all of its sessions
        cases = [(g, mask, ts) for g, mask, ts in _cases(kind) if g.n < 30]
        sessions = [RefinementSession(kind, g, mask=m, extra_targets=ts) for g, m, ts in cases]
        assert lockstep(sessions, observe=lambda t, keys: True) == (0, False)

        ids, keys = {}, {}
        for i, s in enumerate(sessions):
            for read, colors in ((0, s.colors), (1, s.readouts)):
                for unit, c in colors.items():
                    p, q = unit if kind.pair_indexed else (unit, unit)
                    ids[i, read, unit] = c
                    keys[i, read, unit] = (read, _init_pair_sig(s.labels, s.eff, p, q))
        rank = {k: r for r, k in enumerate(sorted(set(keys.values())))}
        assert ids == {unit: rank[k] for unit, k in keys.items()}


class TestCanonicalIds:
    @pytest.mark.parametrize("kind", ALL)
    def test_ids_follow_relabelling(self, kind):
        # a lone session numbers colours by sorted signature, so relabelled
        # nodes keep their colour ids at every iteration, read-outs included
        g, _ = disjoint_union(erdos_renyi(8, 0.4, seed=5), path_graph(3))
        pi = list(range(g.n))
        random.Random(1).shuffle(pi)
        h = permute(g, pi)

        def moved(pair):
            return (pi[pair[0]], pi[pair[1]])

        def image(unit):
            return moved(unit) if kind.pair_indexed else pi[unit]

        mask, cross = (1, 4), (0, 9)  # cross joins the two components
        a = refine_to_stable(kind, g, mask=mask, extra_targets=[cross])
        b = refine_to_stable(kind, h, mask=moved(mask), extra_targets=[moved(cross)])
        assert len(a.history) == len(b.history)
        for ma, mb in zip(a.history, b.history):
            assert {image(u): c for u, c in ma.colors.items()} == mb.colors
            assert {image(u): c for u, c in ma.readouts.items()} == mb.readouts
        if kind is TestKind.FWL2_LOCAL:
            assert cross in a.final.readouts


def _full_table(union):
    """The number of lines of a union's first table: one per node (node
    kinds), a row and a column per node (plain kinds), one per slot
    (folklore kinds). A union whose table is smaller has rebuilt it."""
    if not union.kind.pair_indexed:
        return union.n
    return len(union.codes) if union.kind.folklore else 2 * union.n


def _record_tables(monkeypatch):
    """Per step of every union from now on: (whether the step ranked on a
    rebuilt table, the step's state before and after)."""
    steps = []
    step = refine._Union.step

    def spy(union):
        before = union.state
        after = step(union)
        steps.append((union.lines.lines < _full_table(union), before, after))
        return after

    monkeypatch.setattr(refine._Union, "step", spy)
    return steps


class TestSplitOnlyGuard:
    def test_merge_detected(self):
        session = RefinementSession(TestKind.WL1, path_graph(3))
        session.step()  # colors now {0: a, 1: b, 2: a}
        a = session.colors[0]
        b = session.colors[1]
        assert a != b
        old = np.fromiter(session.colors.values(), np.int64)
        _check_splits(old, np.array([1, 0, 1]))  # renumbered, not merged
        with pytest.raises(RefinementError, match="merged"):
            _check_splits(old, np.array([99, 99, 99]))

    def test_plain_step_checks_its_ranks(self, monkeypatch):
        # the array step checks its own ids: keys that lose the old colour
        # merge (t = 0 ranks with _pack too, so the broken keys start at t = 1)
        session = RefinementSession(TestKind.WL2, path_graph(3))
        session.step()
        monkeypatch.setattr(refine, "_pack", lambda fields: 0 * fields[0][0])
        with pytest.raises(RefinementError, match="merged"):
            session.step()

    @pytest.mark.parametrize("kind", [TestKind.WL1, TestKind.FWL2, TestKind.FWL2_LOCAL])
    def test_node_and_folklore_steps_check_their_ranks(self, kind, monkeypatch):
        # the same guard on the other rules: two classes a step in
        session = RefinementSession(kind, Graph.build(3, [(0, 1), (1, 2)], labels=[0, 1, 0]))
        session.step()
        assert len(set(session.colors.values())) > 1
        monkeypatch.setattr(refine, "_pack", lambda fields: 0 * fields[0][0])
        with pytest.raises(RefinementError, match="merged"):
            session.step()

    @pytest.mark.parametrize("kind", ALL)
    def test_steps_on_a_rebuilt_table_check_their_ranks(self, kind, monkeypatch):
        # keys that lose the old colour merge on the step that first ranks
        # the live rows of a rebuilt table: the asymmetric graph's units soon
        # have classes of their own, the path's mirror images keep pairs
        sessions = [
            RefinementSession(kind, erdos_renyi(9, 0.6, seed=0), mask=(0, 1)),
            RefinementSession(kind, path_graph(4), mask=(0, 3)),
        ]
        compact, rebuilt = refine._Union._compact, []

        def compact_then_break(union):
            compact(union)
            if union.lines.lines < _full_table(union) and not rebuilt:
                rebuilt.append(union.t)
                monkeypatch.setattr(refine, "_pack", lambda fields: 0 * fields[0][0])

        monkeypatch.setattr(refine._Union, "_compact", compact_then_break)
        with pytest.raises(RefinementError, match="merged"):
            lockstep(sessions)
        assert rebuilt

    def test_merge_detected_under_optimize(self):
        # the invariant is a raised error, not an assert, so -O keeps it
        code = (
            "from wl2link.generate import path_graph\n"
            "from wl2link.refine import RefinementError, RefinementSession, TestKind\n"
            "assert False, 'asserts are live'\n"
            "s = RefinementSession(TestKind.WL1, path_graph(3))\n"
            "s.step()\n"
            "import numpy as np\n"
            "from wl2link.refine import _check_splits\n"
            "try:\n"
            "    _check_splits(np.array(list(s.colors.values())), np.array([99, 99, 99]))\n"
            "except RefinementError as err:\n"
            "    print(err)\n"
            "try:\n"
            "    _check_splits(np.array([0, 1, 0]), np.array([0, 0, 0]))\n"
            "except RefinementError as err:\n"
            "    print('array', err)\n"
            "from wl2link.refine import _pack\n"
            "try:\n"
            "    _pack([(np.array([0]), 2**32)] * 2)\n"
            "except RefinementError as err:\n"
            "    print(err)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert "merged" in out.stdout
        assert "array refinement merged" in out.stdout
        assert "do not fit" in out.stdout

    def test_merge_detected_on_a_rebuilt_table_under_optimize(self):
        code = (
            "from wl2link import refine\n"
            "from wl2link.generate import erdos_renyi, path_graph\n"
            "from wl2link.refine import RefinementError, RefinementSession, TestKind, lockstep\n"
            "assert False, 'asserts are live'\n"
            "kind = TestKind.FWL2\n"
            "sessions = [RefinementSession(kind, erdos_renyi(9, 0.6, seed=0), mask=(0, 1)),\n"
            "            RefinementSession(kind, path_graph(4), mask=(0, 3))]\n"
            "compact = refine._Union._compact\n"
            "def compact_then_break(union):\n"
            "    compact(union)\n"
            "    if union.lines.lines < len(union.codes):  # a rebuilt table\n"
            "        print('rebuilt at', union.t)\n"
            "        refine._pack = lambda fields: 0 * fields[0][0]\n"
            "refine._Union._compact = compact_then_break\n"
            "try:\n"
            "    lockstep(sessions)\n"
            "except RefinementError as err:\n"
            "    print(err)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        rebuilt, error = out.stdout.splitlines()[-2:]
        assert rebuilt == "rebuilt at 3" and error == "refinement merged two color classes"


class TestFwl2LocalReadouts:
    def test_targets_are_not_tracked(self):
        # both sessions step in one lockstep run and share colour ids
        self._check_targets_not_tracked(
            lambda sessions, check: lockstep(sessions, 3, lambda t, keys: check(t))
        )

    def test_targets_are_not_tracked_canonical(self):
        # each session runs alone and numbers its own colours, read-outs
        # after tracked ones
        def alone(sessions, check):
            for t in range(1, 4):
                for s in sessions:
                    s.step()
                check(t)

        self._check_targets_not_tracked(alone)

    @staticmethod
    def _check_targets_not_tracked(run):
        g = path_graph(4)
        session = RefinementSession(TestKind.FWL2_LOCAL, g, mask=(0, 3), extra_targets=[(0, 2)])
        assert not {(0, 3), (3, 0), (0, 2), (2, 0)} & set(session.colors)
        assert set(session.readouts) == {(0, 3), (3, 0), (0, 2), (2, 0)}
        assert session.num_units() == 2 * g.m
        # targets change neither the tracked colours nor their growth
        plain = RefinementSession(TestKind.FWL2_LOCAL, g)
        assert session.colors == plain.colors
        steps = []

        def check(t):
            assert session.colors == plain.colors
            if t:
                # (0, 2) is walk-reachable and now tracked: the key reads it there
                assert session.ordered_key((0, 2)) == (
                    plain.colors[(0, 2)], plain.colors[(2, 0)]
                )
                steps.append(t)

        run([session, plain], check)
        assert steps == [1, 2, 3]

    def test_readout_carries_on_when_tracked(self):
        # a step that does not expand reads (0, 2) out, an expanding one
        # tracks it; one lockstep run expands every session alike
        g = path_graph(5)
        read = RefinementSession(TestKind.FWL2_LOCAL, g, extra_targets=[(0, 2)])
        grow = RefinementSession(TestKind.FWL2_LOCAL, g, extra_targets=[(0, 2)])
        read.step(expand=False)
        grow.step()
        assert (0, 2) not in read.colors and (0, 2) not in grow.readouts
        assert (0, 2) in read.readouts and (0, 2) in grow.colors


def _shared_instances():
    """Instances that share sessions, with edge and non-edge targets; the
    distance-2 targets are read-outs that a later FWL2_Local layer tracks."""
    labelled = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)], labels=[0, 1, 0, 2, 0])
    return [
        (cycle_graph(6), (0, 2)),
        (cycle_graph(6), (0, 1)),
        (labelled, (1, 3)),
        (labelled, (0, 1)),
        (complete_graph(4), (0, 1)),
        (Graph.build(3, []), (0, 2)),
    ]


class TestOneTablePerIteration:
    """Several sessions in lockstep share one numbering per iteration."""

    @pytest.mark.parametrize("kind", ALL)
    def test_ids_in_use_are_dense_at_every_t(self, kind, monkeypatch):
        # at every t, the ids in use across all sessions, read-outs
        # included, are exactly range(k): no numbering outlives its iteration
        instances = _shared_instances()
        sizes = []

        def spy(sessions, max_iters=None, observe=None, readers=()):
            def check(t, keys):
                ids, tracked = set(), set()
                for s in sessions:
                    ids.update(s.colors.values(), s.readouts.values())
                    tracked.update(s.colors.values())
                assert ids == set(range(len(ids))), f"t = {t}"
                # a read-out's id follows every tracked colour
                assert all(c >= len(tracked) for s in sessions for c in s.readouts.values())
                sizes.append(len(sessions))
                return observe(t, keys)

            return lockstep(sessions, max_iters, check, readers)

        monkeypatch.setattr(harness, "lockstep", spy)
        monkeypatch.setattr(refine, "lockstep", spy)
        batch = batch_refine(kind, Corpus(instances, {}))
        assert batch.iterations >= 1 and min(sizes) > 1
        c3c3, _ = disjoint_union(cycle_graph(3), cycle_graph(3))
        indistinguishable(kind, (0, 2), cycle_graph(6), (0, 3), c3c3)
        assert len(sizes) >= batch.iterations + 3  # and a step of the pair run

    @pytest.mark.parametrize("kind", ALL)
    def test_observed_keys_are_the_ordered_keys(self, kind):
        # the keys gathered off the run's ids are the readers' ordered keys
        # read from the dicts, at every t
        sessions, readers = open_sessions(kind, _shared_instances())
        tracked = []  # per t: the readers whose target orientation is tracked

        def check(t, keys):
            assert keys.dtype == np.int64 and keys.shape == (len(readers), 2)
            assert keys.tolist() == [list(s.ordered_key(target)) for s, target in readers]
            if kind.pair_indexed:
                tracked.append({r for r, (s, target) in enumerate(readers) if target in s.colors})

        iterations, _ = lockstep(sessions, observe=check, readers=readers)
        assert len(tracked) == (iterations + 1 if kind.pair_indexed else 0)
        if kind is TestKind.FWL2_LOCAL:
            assert tracked[-1] - tracked[0]  # read out at t = 0, tracked by a layer later

    @pytest.mark.parametrize("kind", ALL)
    def test_runs_build_no_dicts(self, kind, monkeypatch):
        # batch_refine and indistinguishable read their keys off the ids only
        def no_dicts(*args):
            raise AssertionError("a session's dicts were built")

        monkeypatch.setattr(refine._Union, "dicts", no_dicts)
        batch_refine(kind, Corpus(_shared_instances(), {}))
        c3c3, _ = disjoint_union(cycle_graph(3), cycle_graph(3))
        indistinguishable(kind, (0, 2), cycle_graph(6), (0, 3), c3c3)
        indistinguishable(kind, (0, 2), cycle_graph(6), (0, 1), cycle_graph(6))

    @pytest.mark.parametrize("kind", ALL)
    def test_dicts_read_after_the_run_are_the_last_iteration(self, kind):
        # a run that reads its dicts at every t, and one that reads them only
        # once it has returned, end on the same dicts
        read = []

        def record(t, keys):
            read.append([(s.colors, s.readouts) for s in watched])

        watched, readers = open_sessions(kind, _shared_instances())
        iterations, _ = lockstep(watched, observe=record, readers=readers)
        sessions, readers = open_sessions(kind, _shared_instances())
        assert lockstep(sessions, readers=readers) == (iterations, True)
        assert [(s.colors, s.readouts) for s in sessions] == read[-1]
        assert read[-1] != read[0]

    def test_readers_are_checked(self):
        # a node kind's target must be one of its own session's graph, and a
        # pair kind's must be tracked or read out by its session
        a, b = RefinementSession(TestKind.WL1, path_graph(3)), RefinementSession(
            TestKind.WL1, cycle_graph(5)
        )
        with pytest.raises(GraphError, match="out of range"):
            lockstep([a, b], readers=[(a, (0, 4))])
        lockstep([a, b], max_iters=1, readers=[(b, (0, 4))])
        for kind in (TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL):
            # (0, 2) is a later pair of the expanding run, but no read-out
            session = RefinementSession(kind, path_graph(3))
            with pytest.raises(RefinementError, match="neither tracked nor read out"):
                lockstep([session], readers=[(session, (0, 2))])
        read = RefinementSession(TestKind.FWL2_LOCAL, path_graph(3), extra_targets=[(0, 2)])
        lockstep([read], readers=[(read, (0, 2)), (read, (1, 0))])

    def test_init_joins_different_signatures(self):
        # each session numbers its init canonically; lockstep gives
        # different init signatures of different sessions different ids
        g, ones = path_graph(3), Graph.build(3, [(0, 1), (1, 2)], labels=[1, 1, 1])
        a, b = (RefinementSession(TestKind.WL1, h) for h in (g, ones))
        assert a.colors == b.colors
        for _ in range(2):  # a second join keeps the joint ids
            assert lockstep([a, b], observe=lambda t, keys: True) == (0, False)
            assert a.colors[0] != b.colors[0]
        assert indistinguishable(TestKind.WL1, (0, 2), g, (0, 2), ones).distinguished_at == 0

    def test_sessions_start_at_init(self):
        a, b = (RefinementSession(TestKind.WL2, path_graph(3)) for _ in range(2))
        a.step()
        with pytest.raises(RefinementError, match="t = 0"):
            lockstep([a, b])

    def test_no_sessions(self):
        for run in (lambda: lockstep([]), lambda: batch_refine(TestKind.WL1, Corpus([], {}))):
            with pytest.raises(RefinementError, match="no sessions were given"):
                run()

    def test_one_kind_per_run(self):
        # every kind ranks lines of its own, so two kinds never share ids
        wl1, wl2 = (RefinementSession(kind, path_graph(3)) for kind in (TestKind.WL1, TestKind.WL2))
        with pytest.raises(RefinementError, match="one kind"):
            lockstep([wl1, wl2])


class TestInitState:
    """At t = 0 a union's ``state`` is (distinct tracked ids, tracked units),
    read here off the sessions' colour dicts."""

    @staticmethod
    def counted(sessions, own):
        # an own-numbered union's ids never span two sessions: count (session, id)
        ids = [(i if own else 0, c) for i, s in enumerate(sessions) for c in s.colors.values()]
        return len(set(ids)), len(ids)

    @pytest.mark.parametrize("kind", ALL)
    @pytest.mark.parametrize("expand,own", [(True, False), (False, False), (False, True)])
    def test_state_counts_the_tracked_colours(self, kind, expand, own):
        instances = [
            (erdos_renyi(7, 0.4, seed=3), (0, 1)),
            (erdos_renyi(7, 0.4, seed=3), (2, 6)),
            (cycle_graph(6), (0, 3)),
            (Graph.build(4, [], [1, 0, 1, 2]), (0, 3)),
        ]
        sessions, _ = open_sessions(kind, instances)
        union = refine._Union(sessions, expand, own)
        assert union.t == 0
        assert union.state == self.counted(sessions, own)

    @pytest.mark.parametrize(
        "kind,state",
        [
            (TestKind.WL1, (2, 5)),  # two labels
            (TestKind.WL1_LABEL01, (4, 5)),  # (label, target or not)
            (TestKind.WL2, (6, 25)),  # label pairs off the diagonal, labels on it
            (TestKind.FWL2, (6, 25)),
            (TestKind.WL2_LOCAL, (0, 0)),  # no edge, no tracked unit
            (TestKind.FWL2_LOCAL, (0, 0)),
        ],
    )
    def test_edgeless_graph(self, kind, state):
        session = RefinementSession(kind, Graph.build(5, [], [0, 1, 0, 1, 1]), mask=(0, 1))
        union = refine._Union([session], expand=True)
        assert union.state == self.counted([session], False) == state


class TestOneUnionPerSession:
    """A union is built on sessions at t = 0; a session past t = 0 steps only
    through its own union."""

    @pytest.mark.parametrize("kind", ALL)
    def test_hand_steps_match_refine_to_stable(self, kind):
        # read at t = 0, then stepped one step at a time
        g, mask, targets = cycle_graph(7), (0, 2), [(0, 3)]
        result = refine_to_stable(kind, g, mask=mask, extra_targets=targets)
        session = RefinementSession(kind, g, mask=mask, extra_targets=targets)
        for t, expected in enumerate(result.history):
            if t:
                session.step()
            assert session.colors == expected.colors, f"t = {t}"
            assert session.readouts == expected.readouts, f"t = {t}"

    def test_steps_reuse_the_union(self, monkeypatch):
        # expanding FWL2_Local: one union numbers the read at t = 0, one more
        # runs all three steps
        built = []
        init = refine._Union.__init__

        def count(union, sessions, expand):
            built.append(expand)
            init(union, sessions, expand)

        monkeypatch.setattr(refine._Union, "__init__", count)
        g = path_graph(4)
        session = RefinementSession(TestKind.FWL2_LOCAL, g, mask=(0, 3), extra_targets=[(0, 2)])
        assert set(session.readouts) == {(0, 3), (3, 0), (0, 2), (2, 0)}
        for _ in range(3):
            session.step()
        assert built == [False, True]
        # the union that numbered t = 0 takes the steps where it grows as they
        # ask: for every kind that never expands, and for steps that do not
        kinds = [(kind, True) for kind in ALL if kind is not TestKind.FWL2_LOCAL]
        for kind, expand in kinds + [(TestKind.FWL2_LOCAL, False)]:
            built.clear()
            read, fresh = (
                RefinementSession(kind, g, mask=(0, 3), extra_targets=[(0, 2)]) for _ in range(2)
            )
            assert read.readouts is not None  # numbers t = 0
            for _ in range(3):
                read.step(expand)
            assert built == [False], kind
            for _ in range(3):
                fresh.step(expand)
            assert (read.colors, read.readouts) == (fresh.colors, fresh.readouts), kind

    def test_a_shared_session_steps_only_with_its_run(self):
        a, b = (RefinementSession(TestKind.WL2, path_graph(3)) for _ in range(2))
        lockstep([a, b], max_iters=1)
        with pytest.raises(RefinementError, match="shared run"):
            a.step()

    @pytest.mark.parametrize("first", [True, False])
    def test_expand_is_kept_past_init(self, first):
        session = RefinementSession(TestKind.FWL2_LOCAL, path_graph(5))
        session.step(expand=first)
        with pytest.raises(RefinementError, match="whether it expands"):
            session.step(expand=not first)
        session.step(expand=first)
        # a kind that never expands steps on whatever it is asked
        dense = RefinementSession(TestKind.FWL2, path_graph(5))
        dense.step(expand=first)
        dense.step(expand=not first)

    def test_lockstep_refuses_a_lone_stepped_session(self):
        session = RefinementSession(TestKind.WL1, path_graph(3))
        session.step()
        with pytest.raises(RefinementError, match="t = 0"):
            lockstep([session])


class TestEntryEncoding:
    """A folklore step packs its entries (a, b) as ``_pack``'s keys of
    (a + 1, b + 1), both below the step's colour bound + 1."""

    def test_orders_like_the_pairs(self):
        bound = 3 * 10**9
        values = (ABSENT, 0, 1, 2, 255, 256, 2**31 - 1, 2**31, bound - 1)
        pairs = [(a, b) for a in values for b in values]
        a, b = map(np.array, zip(*pairs))
        keys = _pack([(a + 1, bound + 1), (b + 1, bound + 1)]).tolist()
        assert len(set(keys)) == len(pairs)
        assert sorted(pairs, key=lambda ab: keys[pairs.index(ab)]) == sorted(pairs)
        assert min(keys) == 0  # (ABSENT, ABSENT) is the 0 pad: no wrap-around below it

    def test_colour_bound(self):
        # the largest bound whose square fits in int64 packs its top entry;
        # bounds whose product is above 2**63 do not fit, in either order
        top = math.isqrt(2**63)
        assert _pack([(np.array([top - 1]), top)] * 2).tolist() == [top * top - 1]
        for bounds in ((top + 1, top + 1), (2**62, 3), (3, 2**62)):
            with pytest.raises(RefinementError, match="do not fit"):
                _pack([(np.array([0]), bound) for bound in bounds])


class TestDenseRanks:
    """``_dense_ranks`` is ``np.unique``'s inverse on either side of its
    value-sort cut, whether or not the keys fit beside their positions."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, 1023, 1024, 1025, 4999]),
        st.sampled_from(["narrow", "at the limits", "past the top", "past the bottom", "wide"]),
        st.integers(1, 5000),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_unique(self, length, spread, distinct, seed):
        rng = np.random.default_rng(seed)
        # a key fits beside a position if -limit <= key < limit
        limit = 2 ** (63 - max(length - 1, 0).bit_length())
        lo, hi = {
            "narrow": (0, 7),
            "at the limits": (-limit, limit - 1),
            "past the top": (limit - 8, limit),
            "past the bottom": (-limit - 1, -limit + 8),
            "wide": (-(2**63), 2**63 - 1),
        }[spread]
        lo, hi = max(lo, -(2**63)), min(hi, 2**63 - 1)  # no limit below one position bit
        # both ends, then keys drawn from a pool of distinct values
        pool = rng.integers(lo, hi, min(distinct, length) or 1, np.int64, endpoint=True)
        ends = np.array([lo, hi][:length], np.int64)
        keys = rng.permutation(np.concatenate((ends, rng.choice(pool, length - len(ends)))))
        copy = keys.copy()
        ranks, count = _dense_ranks(keys)
        values, inverse = np.unique(keys, return_inverse=True)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == inverse.tolist() and count == len(values)
        assert keys.tobytes() == copy.tobytes()  # the keys are left as they were


class TestLinesRank:
    """``_Lines.rank`` ranks lines in tuple order, also where a line and an
    entry do not fit in one int64 key and it ranks the entries first."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 6), max_size=40), min_size=1, max_size=30),
        st.sampled_from([7, 2**40, 2**61, 2**62, 2**63 - 1]),
    )
    def test_ranks_sorted_tuples(self, rows, bound):
        # entry i of a row stands for the value i * (bound - 1) // 6: ties,
        # 0 and bound - 1 included; rows longer than a block cross blocks
        values = np.array([i * (bound - 1) // 6 for row in rows for i in row], np.int64)
        line = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        lines = _Lines(line, len(rows))
        rank, count = lines.rank(values.copy(), bound)
        tuples = [tuple(sorted(row)) for row in rows]
        want = {t: i for i, t in enumerate(sorted(set(tuples)))}
        assert rank.tolist() == [want[t] for t in tuples] and count == len(want)
        if len(rows) * (bound + 1) >= 2**63:
            # past int64: the same ranks as the entries' dense ranks give
            dense = lines.rank(*_dense_ranks(values))
            assert dense[0].tolist() == rank.tolist() and dense[1] == count


def _init_pair_sig(labels, eff, r, s):
    """The init signature of the pair (r, s): its endpoint labels, edge bit
    and diagonal bit."""
    e_ind = 1 if r != s and eff.has_edge(r, s) else 0
    return ("i", labels[r], labels[s], e_ind, 1 if r == s else 0)


def _folklore_signatures(session, colors):
    """The pure-Python folklore rule's signatures of the pairs tracked after
    the step and of the read-outs: entries as sorted tuples of colour pairs,
    and walk expansion by a scan of every tracked pair."""
    nbrs, eff, labels, get = session.nbrs, session.eff, session.labels, colors.get

    def entries(p, q):
        via = set(nbrs[p]) | set(nbrs[q])
        return tuple(sorted((get((u, q), ABSENT), get((p, u), ABSENT)) for u in via))

    sigs = {pair: ("s", c, entries(*pair)) for pair, c in colors.items()}
    if session.kind.local:
        candidates = set()
        for p, u in colors:
            candidates.update((p, q) for q in nbrs[u])
            candidates.update((x, u) for x in nbrs[p])
        for pair in candidates - colors.keys():
            sigs[pair] = ("v", _init_pair_sig(labels, eff, *pair), entries(*pair))
    read = {
        pair: ("v", _init_pair_sig(labels, eff, *pair), entries(*pair))
        for pair in session.readouts
        if pair not in sigs
    }
    return sigs, read


def _reference_folklore(kind, g, mask, targets, iterations):
    """(colours, read-outs) per iteration of a lone folklore session, by the
    pure-Python rule (``_folklore_signatures``)."""
    session = RefinementSession(kind, g, mask=mask, extra_targets=targets)
    colors = session.colors
    history = [(colors, session.readouts)]
    for _ in range(iterations):
        sigs, read = _folklore_signatures(session, colors)
        ids = {}
        for group in (sigs.values(), read.values()):
            for sig in sorted(set(group) - ids.keys()):
                ids[sig] = len(ids)
        colors = {pair: ids[sig] for pair, sig in sigs.items()}
        history.append((colors, {pair: ids[sig] for pair, sig in read.items()}))
    return history


def _folklore_cases():
    rng = random.Random(11)
    cases = []
    for seed in range(40):
        n = rng.randint(2, 14)
        g = erdos_renyi(n, rng.choice((0.1, 0.25, 0.4, 0.6)), seed=seed)
        cases.append((g, tuple(rng.sample(range(n), 2)), [tuple(rng.sample(range(n), 2))]))
    two_parts, _ = disjoint_union(cycle_graph(4), path_graph(3))
    cases += [
        (rook_graph(4), (0, 1), [(0, 5)]),
        (shrikhande_graph(), (0, 1), [(0, 6)]),
        (Graph.build(5, []), (0, 1), [(2, 4)]),
        (Graph.build(6, [(0, 1), (1, 2), (2, 0)]), (0, 1), [(3, 4), (0, 5)]),
        (two_parts, (0, 1), [(0, 5)]),  # (0, 5) joins the two components
        (Graph.build(0, []), None, []),
        (Graph.build(1, []), None, []),
    ]
    return cases


def reference_entry_plan(codes, n, deg, flat, dense, order=None):
    """The folklore entry plan that searches for every entry's two pairs
    among ``codes``, and for a common neighbour among the edge codes."""
    start = np.cumsum(deg) - deg
    ps, qs = np.divmod(codes, n)

    def spread(pairs, nodes):
        which, at = _ranges(start[nodes], start[nodes] + deg[nodes])
        return pairs[which], flat[at]

    line, u = spread(np.arange(len(codes)), ps)
    if not dense:
        other = np.flatnonzero(ps != qs)
        line_q, u_q = spread(other, qs[other])
        keep = _locate(_edge_codes(n, deg, flat), ps[line_q] * n + u_q) < 0
        line, u = np.concatenate((line, line_q[keep])), np.concatenate((u, u_q[keep]))
        by_line = np.argsort(line, kind="stable")
        line, u = line[by_line], u[by_line]
    return line, _locate(codes, u * n + qs[line], order), _locate(codes, ps[line] * n + u, order)


class TestFolkloreReference:
    @pytest.mark.parametrize("kind", [TestKind.FWL2, TestKind.FWL2_LOCAL])
    def test_matches_pure_python_rule(self, kind):
        for g, mask, targets in _folklore_cases():
            result = refine_to_stable(kind, g, mask=mask, extra_targets=targets)
            history = [(m.colors, m.readouts) for m in result.history]
            assert history == _reference_folklore(kind, g, mask, targets, len(history) - 1)

    @pytest.mark.parametrize("kind", [TestKind.FWL2, TestKind.FWL2_LOCAL])
    def test_entry_rows_decode_to_pairs(self, kind):
        # every pair's line, tracked or not, is its tuple of colour pairs
        # (C[u, q], C[p, u]) over u in nbrs[p] ∪ nbrs[q], packed as a step packs it
        for g, mask, targets in _folklore_cases():
            session = RefinementSession(kind, g, mask=mask, extra_targets=targets)
            for _ in range(3):
                get, nbrs = session.colors.get, session.nbrs
                # the session's edge codes first, in CSR order, as in a union
                deg, flat = _adjacency([session.nbrs])
                units = _edge_codes(g.n, deg, flat)
                codes = np.concatenate((units, np.setdiff1d(np.arange(g.n * g.n), units)))
                pairs = [divmod(c, g.n) for c in codes.tolist()]
                line, a, b = _entry_plan(codes, g.n, deg, flat, kind.dense, np.argsort(codes))
                assert (np.diff(line) >= 0).all()
                vals = np.array([get(pair, ABSENT) for pair in pairs] + [ABSENT], np.int64)
                base = int(vals.max()) + 2  # the step's colour bound + 1
                entries = _pack([(vals[a] + 1, base), (vals[b] + 1, base)]).tolist()
                ends = np.searchsorted(line, np.arange(len(pairs) + 1)).tolist()
                for (p, q), lo, hi in zip(pairs, ends, ends[1:]):
                    via = set(nbrs[p]) | set(nbrs[q])
                    pairs_row = sorted((get((u, q), ABSENT), get((p, u), ABSENT)) for u in via)
                    row = sorted(entries[lo:hi])
                    assert [tuple(x - 1 for x in divmod(c, base)) for c in row] == pairs_row
                session.step()

    @pytest.mark.parametrize("kind", [TestKind.FWL2, TestKind.FWL2_LOCAL])
    def test_entry_plan_matches_the_search_plan(self, kind):
        # every union of the cases: each lone session and all in one run,
        # joint and own-numbered, expanding and not
        def sessions():
            return [RefinementSession(kind, g, mask=m, extra_targets=ts) for g, m, ts in cases]

        cases = _folklore_cases()
        runs = [[s] for s in sessions()] + [sessions()]
        for run, expand, own in itertools.product(runs, (False, True), (False, True)):
            union = _Union(run, expand, own)
            nbrs = _adjacency([s.nbrs for s in run]) if kind.dense else union.adj
            want = reference_entry_plan(union.codes, union.n, *nbrs, kind.dense, union.order)
            got = _entry_plan(union.codes, union.n, *nbrs, kind.dense, union.order)
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert union.lines.line.tobytes() == want[0].tobytes()

    def test_tracked_pairs_follow_distance(self):
        # (p, q) is tracked from step max(dist(p, q) - 1, 0) on, and (p, p)
        # from step 1 if p has a neighbour
        for g, mask, targets in _folklore_cases():
            session = RefinementSession(TestKind.FWL2_LOCAL, g, mask=mask, extra_targets=targets)
            eff = nx.Graph(list(session.eff.edges))
            dist = dict(nx.all_pairs_shortest_path_length(eff))
            for t in range(g.n + 1):
                expected = {
                    (p, q)
                    for p in dist
                    for q, d in dist[p].items()
                    if (t >= 1 if p == q else d - 1 <= t)
                }
                assert set(session.colors) == expected
                session.step()

    def test_expansion_memory_gate(self):
        # expansion ends with every pair of every component that has an edge
        # tracked; the dense kinds' n^2 cap bounds the sum of their squares
        limit = DEFAULT_DENSE_NODE_LIMIT
        at_cap, _ = disjoint_union(cycle_graph(limit), Graph.build(50, []))
        RefinementSession(TestKind.FWL2_LOCAL, at_cap).step()
        for g in (cycle_graph(limit + 1), disjoint_union(cycle_graph(100), cycle_graph(90))[0]):
            with pytest.raises(MemoryGateError, match="walk expansion"):
                RefinementSession(TestKind.FWL2_LOCAL, g).step()

    def test_gate_spares_featurize(self):
        g = cycle_graph(200)
        with pytest.raises(MemoryGateError):
            refine_to_stable(TestKind.FWL2_LOCAL, g)
        rows = featurize_many(TestKind.FWL2_LOCAL, g, [(0, 1), (0, 100)])
        assert rows.shape == (2, 11) and np.isfinite(rows).all()


def _plain_signatures(session, colors):
    """The dict rule's signatures of the tracked pairs and the read-outs:
    one sorted row and column of colours per node."""
    nbrs = session.nbrs
    rows = [tuple(sorted(colors[(p, v)] for v in nb)) for p, nb in enumerate(nbrs)]
    cols = [tuple(sorted(colors[(u, q)] for u in nb)) for q, nb in enumerate(nbrs)]
    sigs = {(p, q): ("s", c, cols[q], rows[p]) for (p, q), c in colors.items()}
    labels, eff = session.labels, session.eff
    read = {
        (p, q): ("v", _init_pair_sig(labels, eff, p, q), cols[q], rows[p])
        for p, q in session.readouts
    }
    return sigs, read


def _reference_plain(kind, g, mask, targets, iterations):
    """(colours, read-outs) per iteration of a lone plain session, by the
    dict rule with canonical ids: sorted signatures, tracked ones first."""
    session = RefinementSession(kind, g, mask=mask, extra_targets=targets)
    colors = session.colors
    history = [(colors, session.readouts)]
    for _ in range(iterations):
        sigs, read = _plain_signatures(session, colors)
        ids = {}
        for group in (sigs.values(), read.values()):
            for sig in sorted(set(group)):
                ids[sig] = len(ids)
        colors = {pair: ids[sig] for pair, sig in sigs.items()}
        history.append((colors, {pair: ids[sig] for pair, sig in read.items()}))
    return history


def _wl1_signatures(session, colors):
    """The dict rule's signatures of the nodes: colour and sorted neighbour
    colours. Node kinds have no read-outs."""
    nbrs = session.nbrs
    return {v: ("s", c, tuple(sorted(colors[u] for u in nbrs[v]))) for v, c in colors.items()}, {}


def _reference_wl1(kind, g, mask, targets, iterations):
    """Colours (and no read-outs) per iteration of a lone node session, by
    the dict rule with canonical ids: sorted signatures."""
    session = RefinementSession(kind, g, mask=mask, extra_targets=targets)
    colors = session.colors
    history = [(colors, session.readouts)]
    for _ in range(iterations):
        sigs, _ = _wl1_signatures(session, colors)
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        colors = {v: ids[sig] for v, sig in sigs.items()}
        history.append((colors, {}))
    return history


def _plain_cases():
    # _folklore_cases, plus lines wider than one block of the array step
    star, _ = disjoint_union(Graph.build(21, [(0, v) for v in range(1, 21)]), cycle_graph(5))
    g = erdos_renyi(9, 0.3, seed=1)
    labelled = Graph.build(g.n, g.edges, labels=[v % 4 for v in range(g.n)])
    return _folklore_cases() + [
        # read-outs with different init signatures
        (labelled, (0, 1), [(u, v) for u in range(9) for v in range(u + 1, 9)]),
        (star, (1, 2), [(0, 21), (3, 24)]),  # the hub has 20 neighbours
        (erdos_renyi(70, 0.5, seed=3), (0, 1), [(2, 3)]),  # degrees about 35
    ]


def _partitions(sessions):
    """The partition of all sessions' tracked and read-out units by colour."""
    classes = {}
    for i, s in enumerate(sessions):
        for side, colors in (("c", s.colors), ("r", s.readouts)):
            for unit, c in colors.items():
                classes.setdefault(c, set()).add((i, side, unit))
    return {frozenset(units) for units in classes.values()}


PLAIN = [TestKind.WL2, TestKind.WL2_LOCAL]


def _signatures(session, colors):
    """The dict rule's signatures of ``session``'s kind."""
    if not session.kind.pair_indexed:
        return _wl1_signatures(session, colors)
    if session.kind.folklore:
        return _folklore_signatures(session, colors)
    return _plain_signatures(session, colors)


def _cases(kind):
    """``_plain_cases``, but those without a target for WL1_Label01."""
    return [c for c in _plain_cases() if c[1] is not None or kind is not TestKind.WL1_LABEL01]


class TestPlainReference:
    @pytest.mark.parametrize("kind", PLAIN + [TestKind.WL1, TestKind.WL1_LABEL01])
    def test_lone_session_matches_dict_rule(self, kind):
        reference = _reference_plain if kind.pair_indexed else _reference_wl1
        for g, mask, targets in _cases(kind):
            result = refine_to_stable(kind, g, mask=mask, extra_targets=targets)
            history = [(m.colors, m.readouts) for m in result.history]
            assert history == reference(kind, g, mask, targets, len(history) - 1)

    @pytest.mark.parametrize("kind", ALL)
    def test_lockstep_partitions_match_one_shared_dict(self, kind, monkeypatch):
        # every case of one kind in one run, against the dict rule with one
        # table per iteration shared by all sessions in first-appearance order;
        # then the asymmetric cases alone: a joint run that rebuilds its table
        steps = _record_tables(monkeypatch)
        self.check_joint_run(kind, _cases(kind))
        steps.clear()
        self.check_joint_run(kind, _asymmetric_cases())
        assert any(rebuilt for rebuilt, _, _ in steps)

    @staticmethod
    def check_joint_run(kind, cases):
        def open_all():
            return [RefinementSession(kind, g, mask=m, extra_targets=ts) for g, m, ts in cases]

        sessions, seen = open_all(), []
        iterations, _ = lockstep(
            sessions, observe=lambda t, keys: seen.append(_partitions(sessions))
        )
        reference = open_all()
        assert lockstep(reference, observe=lambda t, keys: True) == (0, False)  # the t = 0 join
        expected = [_partitions(reference)]
        for _ in range(iterations):
            table, steps = {}, []
            for s in reference:
                sigs, read = _signatures(s, s.colors)
                ids = [table.setdefault(sig, len(table)) for sig in sigs.values()]
                steps.append((dict(zip(sigs, ids)), read))
            for s, (colors, read) in zip(reference, steps):
                s.colors = colors
                s.readouts = {pair: table.setdefault(sig, len(table)) for pair, sig in read.items()}
            expected.append(_partitions(reference))
        assert seen == expected


def _asymmetric_cases():
    """Cases of ``_folklore_cases`` whose units soon have classes of their
    own, so that a run of them drops rows and rebuilds its table."""
    return [_folklore_cases()[i] for i in (0, 1, 5, 7, 15)]


class TestLiveRows:
    """Once at most half of a union's rows are live, a step ranks those
    only, over a rebuilt table; the ids stay those of the dict rules, which
    rank every unit."""

    @pytest.mark.parametrize("kind", ALL)
    def test_rebuilt_tables_match_the_dict_rule(self, kind, monkeypatch):
        if kind.folklore:
            reference, cases = _reference_folklore, _folklore_cases()
        else:
            reference = _reference_plain if kind.pair_indexed else _reference_wl1
            cases = _cases(kind)
        steps, rebuilt = _record_tables(monkeypatch), 0
        for g, mask, targets in cases:
            steps.clear()
            result = refine_to_stable(kind, g, mask=mask, extra_targets=targets)
            if any(on_rebuilt for on_rebuilt, _, _ in steps):
                rebuilt += 1
                history = [(m.colors, m.readouts) for m in result.history]
                assert history == reference(kind, g, mask, targets, len(history) - 1)
        assert rebuilt >= 5

    def test_expansion_continues_on_a_rebuilt_table(self, monkeypatch):
        # untracked slots stay live, so FWL2_Local still starts tracking the
        # pairs one walk step further away, as far as the distance rule says
        steps, grew = _record_tables(monkeypatch), 0
        for g, mask, targets in _folklore_cases():
            steps.clear()
            result = refine_to_stable(TestKind.FWL2_LOCAL, g, mask=mask, extra_targets=targets)
            eff = nx.Graph(list(result.session.eff.edges))
            dist = dict(nx.all_pairs_shortest_path_length(eff))
            for t, (on_rebuilt, before, after) in enumerate(steps, 1):
                if on_rebuilt and after[1] > before[1]:
                    grew += 1
                    assert set(result.history[t].colors) == {
                        (p, q) for p in dist for q, d in dist[p].items() if d - 1 <= t
                    }
        assert grew
