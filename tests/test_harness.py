import itertools
import json
import random

import numpy as np
import pytest

from wl2link import harness, refine
from wl2link.generate import (
    cycle_graph,
    erdos_renyi,
    path_graph,
    rook_graph,
    shrikhande_graph,
)
from wl2link.graph import Graph, GraphError, disjoint_union, permute
from wl2link.harness import (
    BatchResult,
    Corpus,
    all_pairs_corpus,
    batch_refine,
    builtin_fixtures,
    fixtures_corpus,
    oracle_soundness,
    power_check,
    random_corpus,
)
from wl2link.refine import RefinementError, TestKind, indistinguishable, refine_to_stable
from wl2link.unroll import link_isomorphic


class TestCorpora:
    def test_random_corpus_deterministic(self):
        a = random_corpus(count=5, seed=11)
        b = random_corpus(count=5, seed=11)
        assert len(a) == len(b)
        assert all(
            g1.edges == g2.edges and e1 == e2
            for (g1, e1), (g2, e2) in zip(a.instances, b.instances)
        )

    def test_random_corpus_targets_cover_all_ordered_pairs(self):
        corpus = random_corpus(count=1, seed=0)
        g = corpus.instances[0][0]
        targets = {e for _, e in corpus.instances}
        assert len(targets) == g.n * (g.n - 1)

    def test_all_pairs(self):
        corpus = all_pairs_corpus(cycle_graph(4))
        assert len(corpus) == 12

    def test_merge(self):
        merged = Corpus.merge(all_pairs_corpus(cycle_graph(3)), random_corpus(count=1))
        assert len(merged) == 6 + len(random_corpus(count=1))


class TestBatchRefine:
    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("target", [(0, 7), (1, 1)], ids=["out-of-range", "diagonal"])
    def test_bad_target_rejected(self, kind, target):
        corpus = Corpus([(path_graph(3), target)], {})
        with pytest.raises(GraphError, match="target"):
            batch_refine(kind, corpus)

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_matches_pairwise_lockstep(self, kind):
        # Batch verdicts must agree with the two-instance reference runner.
        corpus = Corpus.merge(fixtures_corpus(), random_corpus(count=3, seed=5))
        result = batch_refine(kind, corpus)
        assert result.stable
        keys = result.final_keys()
        instances = corpus.instances
        step = max(1, len(instances) // 40)
        for i in range(0, len(instances), step):
            for j in range(i + 1, len(instances), 7 * step):
                g1, e1 = instances[i]
                g2, e2 = instances[j]
                ref = indistinguishable(kind, e1, g1, e2, g2)
                assert (keys[i] != keys[j]) == ref.distinguished, (i, j)

    def test_stabilization_bound(self, monkeypatch):
        # a run whose colour count keeps changing for more steps than its
        # units + 1 breaks the refinement bound
        step = refine._Union.step

        def slow(union):
            count, units = step(union)
            return count + min(union.t, 20), units

        monkeypatch.setattr(refine._Union, "step", slow)
        corpus = Corpus([(cycle_graph(6), (0, 1))], {})  # 6 units: stable by t = 7
        with pytest.raises(RefinementError, match="stabilization bound"):
            batch_refine(TestKind.WL1, corpus, max_iters=30)

    def test_first_difference_matches_reference(self):
        corpus = fixtures_corpus()
        result = batch_refine(TestKind.FWL2, corpus)
        # F3 pair occupies instances 2 and 3
        g1, e1 = corpus.instances[2]
        g2, e2 = corpus.instances[3]
        ref = indistinguishable(TestKind.FWL2, e1, g1, e2, g2)
        assert result.first_difference(2, 3) == ref.distinguished_at


def _stop_rule_instances():
    rng = random.Random(4)
    graphs = [
        erdos_renyi(n, p, seed=rng.randrange(2**31)) for n in (5, 8, 11) for p in (0.2, 0.4)
    ]
    graphs += [rook_graph(4), shrikhande_graph(), disjoint_union(cycle_graph(3), cycle_graph(4))[0]]
    return [(g, tuple(rng.sample(range(g.n), 2))) for g in graphs for _ in range(7)]


class TestStopRule:
    @pytest.mark.parametrize("kind", list(TestKind))
    def test_runners_stop_together(self, kind):
        # the lone, batched and pairwise runners share one stop rule
        for g, e in _stop_rule_instances():
            alone = refine_to_stable(kind, g, mask=e)
            batch = batch_refine(kind, Corpus([(g, e)], {}))
            pair = indistinguishable(kind, e, g, e, g)
            assert alone.stable_at == batch.iterations == pair.iterations, (g.n, e)
            assert batch.stable and pair.stable

    def test_max_iters_below_one_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(RefinementError, match="max_iters must be >= 1"):
            indistinguishable(TestKind.WL1, (0, 1), g, (0, 2), g, max_iters=0)
        with pytest.raises(RefinementError, match="max_iters must be >= 1"):
            batch_refine(TestKind.WL1, all_pairs_corpus(g), max_iters=0)


class TestFixtures:
    def test_builtin_expected_verdicts(self):
        for fixture in builtin_fixtures():
            for kind, expect in fixture.expected.items():
                res = indistinguishable(
                    kind, fixture.target_a, fixture.graph_a,
                    fixture.target_b, fixture.graph_b,
                )
                assert res.distinguished == expect, (fixture.name, kind)

    def test_srg_pair(self):
        # Both are SRG(16, 6, 2, 2): 6-regular, adjacent nodes share two
        # neighbours and so do non-adjacent ones.
        for g in (rook_graph(4), shrikhande_graph()):
            sets = [set(ns) for ns in g.adj]
            assert g.n == 16 and all(len(ns) == 6 for ns in sets)
            for a in range(16):
                for b in range(a + 1, 16):
                    assert len(sets[a] & sets[b]) == 2
        # not isomorphic: a rook's-graph row is a 4-clique, Shrikhande has none
        assert _has_four_clique(rook_graph(4))
        assert not _has_four_clique(shrikhande_graph())

    def test_distinguished_pairs_are_not_isomorphic(self):
        # a test that tells a pair apart is sound only on non-isomorphic links
        checked = []
        for fixture in builtin_fixtures():
            if any(fixture.expected.values()):
                assert not link_isomorphic(
                    fixture.graph_a, fixture.target_a,
                    fixture.graph_b, fixture.target_b, masked=True,
                ), fixture.name
                checked.append(fixture.name)
        assert "F5b-srg-edge" in checked and len(checked) >= 4

    def test_srg_links_are_not_isomorphic(self):
        # F5a's pair fools every kind, yet the links differ: no 4-clique maps
        # into Shrikhande. F5b's pair is the edge-target version.
        by_name = {f.name: f for f in builtin_fixtures()}
        for name in ("F5a-srg-non-edge", "F5b-srg-edge"):
            f = by_name[name]
            assert f.graph_a.n == 16
            for masked in (True, False):
                assert not link_isomorphic(
                    f.graph_a, f.target_a, f.graph_b, f.target_b, masked=masked
                ), (name, masked)


def _has_four_clique(g):
    return any(
        all(g.has_edge(a, b) for a, b in itertools.combinations((v, *rest), 2))
        for v in range(g.n)
        for rest in itertools.combinations(g.adj[v], 3)
    )


class TestFwl2LocalReadouts:
    def test_srg_non_edge_not_distinguished(self):
        # FWL2 cannot tell this pair apart, so its local restriction may not
        # either: a target that fed back into the tracked pairs split it.
        res = indistinguishable(
            TestKind.FWL2_LOCAL, (0, 5), rook_graph(4), (0, 2), shrikhande_graph()
        )
        assert not res.distinguished

    def test_shared_sessions_match_one_session_per_instance(self):
        shared = Corpus.merge(fixtures_corpus(), random_corpus(count=4, seed=3))
        # a Graph copy per instance forces a session per instance
        alone = Corpus(
            [(Graph.build(g.n, g.edges, g.labels), e) for g, e in shared.instances],
            {},
        )
        a = batch_refine(TestKind.FWL2_LOCAL, shared)
        b = batch_refine(TestKind.FWL2_LOCAL, alone)
        assert a.iterations == b.iterations
        for t in range(a.iterations + 1):
            assert _partition(a, t) == _partition(b, t), t
        n = len(shared)
        for i in range(0, n, 13):
            for j in range(i + 1, n, 29):
                assert a.first_difference(i, j) == b.first_difference(i, j)


def _partition(result, t):
    classes = {}
    for i in range(result.history.shape[1]):
        classes.setdefault(result.link_key(i, t), set()).add(i)
    return sorted(map(sorted, classes.values()))


@pytest.fixture(scope="module")
def small_report():
    corpus = Corpus.merge(fixtures_corpus(), random_corpus(count=8, seed=2))
    return power_check(corpus)


class TestPowerCheck:
    def test_implications_schema(self, small_report):
        d = json.loads(small_report.to_json())
        assert d["num_instances"] == small_report.num_instances
        assert set(d["kinds"]) == {
            "WL1", "WL2", "FWL2", "WL2_Local", "FWL2_Local",
        }
        for entry in d["implications"].values():
            assert set(entry) >= {"holds", "violations"}
            assert entry["holds"] == (entry["violations"] == 0)

    def test_witness_iterations_populated(self, small_report):
        for w in small_report.witnesses:
            assert w["iteration"] is not None
            i, j = w["instances"]
            assert 0 <= i < j < small_report.num_instances

    def test_stats_per_kind_stay_out_of_json(self, small_report):
        stats = small_report.stats
        assert list(stats) == small_report.kinds
        for kind, s in stats.items():
            assert s["iterations"] == small_report.results[kind].iterations >= 1
            assert s["seconds"] > 0
        assert "stats" not in small_report.to_json() and "seconds" not in small_report.to_json()

    def test_deterministic(self):
        corpus = Corpus.merge(fixtures_corpus(), random_corpus(count=3, seed=9))
        a = power_check(corpus).to_json()
        b = power_check(corpus).to_json()
        assert a == b

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            power_check(Corpus([], {}))

    def test_repeated_kind_rejected(self, monkeypatch):
        # refused before any kind is refined, whatever its position
        refined = []
        monkeypatch.setattr(harness, "batch_refine", lambda kind, *a, **kw: refined.append(kind))
        corpus = fixtures_corpus()
        for kinds in ([TestKind.WL1, TestKind.WL1], [TestKind.WL1, TestKind.WL2, TestKind.WL1]):
            with pytest.raises(ValueError, match="more than once: WL1$"):
                power_check(corpus, kinds=kinds)
        assert refined == []

    def test_oracle_soundness_on_small_corpus(self, small_report):
        corpus = Corpus.merge(fixtures_corpus(), random_corpus(count=8, seed=2))
        result = oracle_soundness(corpus, small_report.results)
        assert result["violations"] == 0
        assert result["checked"] > 0

    def test_oracle_soundness_reports_a_violation(self):
        # two relabelled copies of one graph, and a kind whose final keys tell
        # them apart; the 10-node instance is above the certificate's bound
        g = erdos_renyi(7, 0.4, seed=1)
        pi = [3, 0, 6, 1, 5, 2, 4]
        corpus = Corpus([(cycle_graph(10), (0, 1)), (g, (0, 1)), (permute(g, pi), (3, 0))], {})
        results = {
            TestKind.WL1: BatchResult(TestKind.WL1, np.array([[(0, 0)] * 3]), 0, True),
            TestKind.WL2: BatchResult(TestKind.WL2, np.array([[(0, 0), (0, 0), (0, 1)]]), 0, True),
        }
        assert oracle_soundness(corpus, results) == {
            "instances": 2,
            "checked": 1,
            "violations": 1,
            "details": [{"kind": "WL2", "instances": [1, 2]}],
        }
