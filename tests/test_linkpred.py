import json
import os
import random
import subprocess
import sys
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest

from wl2link import linkpred, refine
from wl2link.generate import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    ring_lattice,
    rook_graph,
    shrikhande_graph,
    star_graph,
)
from wl2link.graph import Graph, GraphError, permute, sample_non_edges
from wl2link.linkpred import (
    _UNION_SLOTS,
    EPOCHS,
    LEARNING_RATE,
    LinkPredError,
    auc,
    benchmark,
    featurize,
    featurize_many,
    heuristic_cn,
    heuristic_pa,
    heuristic_ra,
    train_scorer,
)
from wl2link.refine import (
    RefinementSession,
    TestKind,
    lockstep,
    open_sessions,
    refine_to_stable,
    session_groups,
)


class TestHeuristics:
    def test_triangle_with_edge_removed(self):
        tri = complete_graph(3).without_edge(0, 1)
        assert heuristic_cn(tri, 0, 1) == 1
        assert heuristic_pa(tri, 0, 1) == 1
        assert heuristic_ra(tri, 0, 1) == 0.5

    def test_cross_component(self):
        g = Graph.build(4, [(0, 1), (2, 3)])
        assert heuristic_cn(g, 0, 2) == 0
        assert heuristic_ra(g, 0, 2) == 0.0

    def test_star_leaf_pair(self):
        st = star_graph(4)
        assert heuristic_cn(st, 1, 2) == 1
        assert heuristic_pa(st, 1, 2) == 1
        assert heuristic_ra(st, 1, 2) == 0.25

    def test_rejects_diagonal(self):
        with pytest.raises(GraphError):
            heuristic_cn(star_graph(3), 1, 1)


class TestFeaturize:
    def test_triangle_fwl2_local_cn_one(self):
        tri = complete_graph(3)
        f = featurize(TestKind.FWL2_LOCAL, tri, (0, 1), width=4)
        assert f[0] == 1.0  # cn

    def test_wl1_c6_single_bucket(self):
        f = featurize(TestKind.WL1, cycle_graph(6), (0, 1), width=4)
        hist = f[3:]
        assert np.count_nonzero(hist) == 1
        assert hist.sum() == pytest.approx(1.0)

    def test_node_kind_zero_fills_heuristics(self):
        f = featurize(TestKind.WL1, complete_graph(4), (0, 1), width=4)
        assert tuple(f[:3]) == (0.0, 0.0, 0.0)

    def test_dimension(self):
        f = featurize(TestKind.WL1, cycle_graph(5), (0, 2), width=7)
        assert f.shape == (3 + 7,)

    def test_rejects_bad_width(self):
        with pytest.raises(LinkPredError):
            featurize(TestKind.WL1, cycle_graph(5), (0, 2), width=0)

    @pytest.mark.parametrize(
        "kind", [TestKind.WL1, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL, TestKind.FWL2]
    )
    def test_automorphic_targets_equal_features(self, kind):
        g = erdos_renyi(10, 0.35, seed=21)
        pi = list(range(10))
        random.Random(3).shuffle(pi)
        h = permute(g, pi)
        for target in [(0, 4), (2, 7)]:
            image = (pi[target[0]], pi[target[1]])
            fa = featurize(kind, g, target, width=5)
            fb = featurize(kind, h, image, width=5)
            assert np.array_equal(fa, fb), (kind, target)

    @pytest.mark.parametrize(
        "kind", [TestKind.WL1, TestKind.WL1_LABEL01, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL]
    )
    def test_pure_across_calls(self, kind):
        # a target's vector is the same in a cold process and in one that
        # featurized other targets of the same graph first
        code = (
            "import sys\n"
            "from wl2link.generate import ring_lattice\n"
            "from wl2link.linkpred import featurize\n"
            "from wl2link.refine import TestKind\n"
            "kind = TestKind(sys.argv[1])\n"
            "g = ring_lattice(40, 4, 0.1, seed=0)\n"
            "for e in [(3, 17), (8, 30), (12, 2)][: int(sys.argv[2])]:\n"
            "    featurize(kind, g, e)\n"
            "print(featurize(kind, g, (0, 5)).tolist())\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        cold, warm = (
            subprocess.run(
                [sys.executable, "-c", code, kind.value, str(before)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            for before in (0, 3)
        )
        assert cold == warm

    def test_mask_invariance_end_to_end(self):
        # Feature extraction never reads the target edge's existence.
        base = erdos_renyi(9, 0.35, seed=13)
        target = (1, 6)
        with_edge = Graph.build(base.n, set(base.edges) | {tuple(sorted(target))})
        without = with_edge.without_edge(*target)
        for kind in (TestKind.WL1, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL):
            fa = featurize(kind, with_edge, target, width=6)
            fb = featurize(kind, without, target, width=6)
            assert np.array_equal(fa, fb), kind


LINKPRED_KINDS = [TestKind.WL1, TestKind.WL1_LABEL01, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL]
GRAPHS = {
    "ring": lambda: ring_lattice(24, 4, 0.1, seed=2),
    "er": lambda: erdos_renyi(14, 0.3, seed=4),
    "rook": lambda: rook_graph(4),
    "shrikhande": shrikhande_graph,
}


def _reference_row(kind, g, target, width):
    """A target's row by the lone-session dict rule: a session of the target
    alone, numbered canonically, its stable colours ranked by (class size,
    id) in Python, the target's read-outs counting as units of their own."""
    p, q = target
    mask = target if kind is TestKind.WL1_LABEL01 or g.has_edge(p, q) else None
    session = RefinementSession(kind, g, mask=mask, extra_targets=[target])
    if kind is TestKind.FWL2_LOCAL:
        union = refine._Union([session], expand=False)  # one step over the observed pairs
        union.step()
        final = union.color_map(0, 1, union.ids)
    else:
        final = refine_to_stable(kind, g, mask=mask, extra_targets=[target]).final
    colors, readouts, eff = final.colors, final.readouts, session.eff
    sizes = Counter(colors.values())
    keys = sorted((size, c) for c, size in sizes.items())
    if kind.pair_indexed:
        heuristics = [float(h(eff, p, q)) for h in (heuristic_cn, heuristic_pa, heuristic_ra)]
        units = {(a, u) for a in target for u in session.nbrs[a]}
        units |= {(u, a) for a, u in units}
    else:
        heuristics = [0.0] * 3
        units = set(eff.adj[p]) | set(eff.adj[q])
    extra = Counter(readouts[u] for u in ((p, q), (q, p)) if u in readouts)
    new = [(k, c) for c, k in extra.items()]
    hist = [0.0] * width
    for c, k in (Counter(colors[u] for u in units) + extra).items():
        key = (sizes[c] + extra[c], c)
        hist[(bisect_left(keys, key) + sum(m < key for m in new)) % width] += k
    total = sum(hist)
    return np.array(heuristics + [h / total if total else h for h in hist])


class TestFeaturizeMany:
    @pytest.mark.parametrize("kind", list(TestKind))
    def test_rows_match_the_lone_session_rule(self, kind):
        graphs = [
            ring_lattice(30, 4, 0.1, seed=3),
            erdos_renyi(12, 0.3, seed=2),
            Graph.build(7, [(0, 1), (1, 2), (2, 0), (3, 4)], labels=[0, 3, 3, 7, 0, 0, 7]),
            Graph.build(4, []),
        ]
        for g in graphs:
            pairs = [(p, q) for p in range(g.n) for q in range(g.n) if p != q]
            targets = pairs[:: len(pairs) // 30 + 1]
            reference = np.array([_reference_row(kind, g, t, 5) for t in targets])
            assert featurize_many(kind, g, targets, width=5).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kind", LINKPRED_KINDS)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_shared_sessions_match_one_target_each(self, kind, graph):
        g = GRAPHS[graph]()
        targets = sample_non_edges(g, 10, random.Random(5))
        p, q = g.edge_list()[0]
        # both orientations of a non-edge and of an edge, and a duplicate
        targets += [targets[0][::-1], targets[1], (p, q), (q, p)]
        shared = featurize_many(kind, g, targets, width=6)
        single = np.array([featurize(kind, g, t, width=6) for t in targets])
        assert shared.shape == (len(targets), 3 + 6)
        assert shared.tobytes() == single.tobytes()

    def test_one_session_per_masked_graph(self, monkeypatch):
        masks = []
        init = RefinementSession.__init__

        def counting_init(self, *args, **kwargs):
            masks.append(kwargs["mask"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(RefinementSession, "__init__", counting_init)
        targets = [(0, 2), (2, 0), (0, 4), (0, 1), (1, 0), (4, 3)]
        featurize_many(TestKind.WL2_LOCAL, cycle_graph(8), targets)
        assert masks == [None, (0, 1), (3, 4)]
        masks.clear()
        featurize_many(TestKind.WL1_LABEL01, cycle_graph(8), targets)
        assert masks == [(0, 2), (0, 4), (0, 1), (4, 3)]

    @pytest.mark.parametrize("kind", LINKPRED_KINDS)
    def test_budgeted_unions_match_one_target_each(self, kind, monkeypatch):
        # every edge masks its own session: more sessions than one union holds
        g = ring_lattice(40, 4, 0.1, seed=1)
        targets = g.edge_list() + sample_non_edges(g, 10, random.Random(3))
        if kind is not TestKind.FWL2_LOCAL:
            stable = {refine_to_stable(kind, g, mask=e).stable_at for e in g.edge_list()}
            assert len(stable) > 1  # the sessions stabilise at different steps
        unions = []
        init = refine._Union.__init__

        def spy(self, sessions, *args, **kwargs):
            unions.append(len(sessions))
            init(self, sessions, *args, **kwargs)

        monkeypatch.setattr(refine._Union, "__init__", spy)
        shared = featurize_many(kind, g, targets, width=6)
        assert len(unions) > 1 and max(unions) > 1
        single = np.array([featurize(kind, g, t, width=6) for t in targets])
        assert shared.tobytes() == single.tobytes()

    @pytest.mark.parametrize("kind", [TestKind.WL1, TestKind.WL1_LABEL01, TestKind.WL2_LOCAL])
    def test_run_stops_when_every_session_is_stable(self, kind, monkeypatch):
        # on a path, the joint partition keeps splitting after every session
        # is stable: the sessions' masked paths differ in length
        g = Graph.build(12, [(i, i + 1) for i in range(11)])
        targets = g.edge_list()[:6] + [(0, 11), (1, 3)]
        last = max(
            refine_to_stable(kind, g, mask=m, extra_targets=ts).stable_at
            for _, m, ts in session_groups(kind, [(g, t) for t in targets])
        )
        joint, _ = lockstep(open_sessions(kind, [(g, t) for t in targets])[0])
        assert joint > last
        steps = []
        step = refine._Union.step

        def spy(self):
            steps.append(self.t + 1)
            return step(self)

        monkeypatch.setattr(refine._Union, "step", spy)
        featurize_many(kind, g, targets)
        assert steps == list(range(1, last + 1))

    @pytest.mark.parametrize("kind", LINKPRED_KINDS)
    def test_unions_keep_to_the_slot_budget(self, kind, monkeypatch):
        unions = []
        init = refine._Union.__init__

        def spy(self, sessions, *args, **kwargs):
            init(self, sessions, *args, **kwargs)
            unions.append((len(sessions), len(self.codes)))

        monkeypatch.setattr(refine._Union, "__init__", spy)
        small = ring_lattice(40, 4, 0.1, seed=1)
        targets = small.edge_list() + sample_non_edges(small, 10, random.Random(3))
        featurize_many(kind, small, targets)
        # a pair kind's session here tracks 2m > budget pairs: it runs alone
        big = erdos_renyi(300, 0.03, seed=1)
        featurize_many(kind, big, big.edge_list()[:3] + sample_non_edges(big, 3, random.Random(3)))
        assert all(sessions == 1 or slots <= _UNION_SLOTS for sessions, slots in unions)
        assert max(slots for _, slots in unions) > _UNION_SLOTS or not kind.pair_indexed
        assert max(sessions for sessions, _ in unions) > 1

    @pytest.mark.parametrize("kind", LINKPRED_KINDS)
    def test_no_targets_no_rows(self, kind):
        assert featurize_many(kind, cycle_graph(8), [], width=5).shape == (0, 3 + 5)


def reference_train(features, labels):
    """The scorer's descent in its plain form: a fresh array per operation,
    and the loss from both log terms."""

    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    n = len(y)
    losses = []
    for _ in range(EPOCHS):
        z = xs @ w + b
        pred = sigmoid(z)
        eps = 1e-12
        losses.append(
            float(-np.mean(y * np.log(pred + eps) + (1 - y) * np.log(1 - pred + eps)))
        )
        grad = pred - y
        w -= LEARNING_RATE * (xs.T @ grad) / n
        b -= LEARNING_RATE * float(grad.mean())
    return w, b, mean, std, losses


def _scorer_cases(monkeypatch):
    """(features, labels) of ``benchmark``'s training (its ``featurize_many``
    rows) for the four linkpred kinds on ring(60) seeds 1-3 and on ring200,
    random features with a constant column, and the separable and XOR cases."""
    cases = []

    def record(x, y):
        cases.append((x, y))
        return train_scorer(x, y)

    monkeypatch.setattr(linkpred, "train_scorer", record)
    graphs = [(ring_lattice(60, 4, 0.1, seed=s), s) for s in (1, 2, 3)]
    graphs.append((ring_lattice(200, 4, 0.1, seed=0), 0))
    for g, seed in graphs:
        for kind in (TestKind.WL1, TestKind.WL1_LABEL01, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL):
            benchmark(g, kind, split_seed=seed)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(90, 5))
    x[:, 2] = 3.5
    cases.append((x, rng.integers(0, 2, 90)))
    cases.append(([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1]))
    cases.append(([[0.0], [1.0], [0.0], [1.0]] * 10, [0, 0, 1, 1] * 10))
    return cases


class TestTrainScorer:
    def test_matches_the_reference_descent(self, monkeypatch):
        cases = _scorer_cases(monkeypatch)
        assert len(cases) == 19
        for x, y in cases:
            scorer = train_scorer(x, y)
            w, b, mean, std, losses = reference_train(x, y)
            assert scorer.weights.tobytes() == w.tobytes()
            assert scorer.bias == b
            assert scorer.mean.tobytes() == mean.tobytes()
            assert scorer.std.tobytes() == std.tobytes()
            assert scorer.loss_history == losses

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1], [0.5, 1], [1, 2, 1]])
    def test_rejects_labels_other_than_zero_and_one(self, labels):
        x = [[float(i)] for i in range(len(labels))]
        with pytest.raises(LinkPredError, match="0 or 1"):
            train_scorer(x, labels)

    def test_separable_loss_decreases(self):
        x = [[0.0], [1.0], [2.0], [3.0]]
        y = [0, 0, 1, 1]
        scorer = train_scorer(x, y)
        losses = scorer.loss_history
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_identical_features_keep_zero_weights(self):
        x = [[1.0, 2.0]] * 6
        y = [0, 1, 0, 1, 0, 1]
        scorer = train_scorer(x, y)
        assert np.allclose(scorer.weights, 0.0)

    def test_xor_pattern_auc_near_half(self):
        x = [[0.0], [1.0], [0.0], [1.0]] * 10
        y = [0, 0, 1, 1] * 10
        scorer = train_scorer(x, y)
        assert auc(scorer.score(np.array(x)), y) == pytest.approx(0.5, abs=0.1)

    def test_rejects_single_class(self):
        with pytest.raises(LinkPredError, match="single class"):
            train_scorer([[0.0], [1.0]], [1, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(LinkPredError, match="finite"):
            train_scorer([[0.0], [float("nan")]], [0, 1])

    def test_deterministic(self):
        rng = random.Random(0)
        x = [[rng.random(), rng.random()] for _ in range(20)]
        y = [i % 2 for i in range(20)]
        a = train_scorer(x, y)
        b = train_scorer(x, y)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


class TestAuc:
    def test_perfect(self):
        assert auc([2, 3, 0, 1], [1, 1, 0, 0]) == 1.0

    def test_reversed(self):
        assert auc([0, 1, 2, 3], [1, 1, 0, 0]) == 0.0

    def test_pure_tie(self):
        assert auc([1, 1], [1, 0]) == 0.5

    def test_monotone_transform_invariant(self):
        rng = random.Random(4)
        scores = [rng.random() for _ in range(40)]
        labels = [rng.randint(0, 1) for _ in range(40)]
        labels[0], labels[1] = 0, 1
        a = auc(scores, labels)
        b = auc([np.exp(3 * s) for s in scores], labels)
        assert a == pytest.approx(b)

    def test_rejects_single_class(self):
        with pytest.raises(LinkPredError):
            auc([1.0, 2.0], [1, 1])


class TestBenchmark:
    def test_deterministic_repeat(self):
        g = erdos_renyi(60, 0.12, seed=3)
        a = benchmark(g, TestKind.FWL2_LOCAL, split_seed=2)
        b = benchmark(g, TestKind.FWL2_LOCAL, split_seed=2)
        assert a.val_auc == b.val_auc and a.test_auc == b.test_auc

    def test_report_schema(self):
        g = erdos_renyi(60, 0.12, seed=3)
        d = json.loads(benchmark(g, TestKind.WL1, split_seed=1, dataset="er").to_json())
        assert set(d) == {
            "dataset", "kind", "split_seed", "val_auc", "test_auc",
            "featurize_seconds", "n", "m", "isolated_nodes",
        }
        assert d["kind"] == "WL1" and d["n"] == 60

    def test_er_low_signal_band(self):
        g = erdos_renyi(200, 0.03, seed=5)
        for kind in (TestKind.WL1, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL):
            r = benchmark(g, kind, split_seed=1)
            assert 0.35 <= r.test_auc <= 0.75, (kind, r.test_auc)

    def test_ring_lattice_folklore_beats_wl1(self):
        ws = ring_lattice(200, 4, 0.1, seed=100)
        f = benchmark(ws, TestKind.FWL2_LOCAL, split_seed=0)
        w = benchmark(ws, TestKind.WL1, split_seed=0)
        assert f.test_auc > w.test_auc
