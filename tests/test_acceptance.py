"""End-to-end acceptance checks for the shipped behavior.

Each test states one externally promised property of the package:
the empirical power partial order over the six refinement tests, oracle
agreement, tree-unrolling correspondence, heuristic recovery, benchmark
signal, and complexity guards.
"""

import itertools
import random
import time

import networkx as nx
import numpy as np
import pytest

from wl2link.generate import erdos_renyi, from_networkx, ring_lattice
from wl2link.graph import Graph, label01, permute
from wl2link.harness import (
    EQUAL_POWER,
    INCOMPARABLE,
    STRICTLY_WEAKER,
    Corpus,
    batch_refine,
    builtin_fixtures,
    oracle_soundness,
)
from wl2link.linkpred import benchmark, featurize
from wl2link.refine import (
    DEFAULT_DENSE_NODE_LIMIT,
    Interner,
    MemoryGateError,
    TestKind,
    indistinguishable,
    refine_to_stable,
)
from wl2link.unroll import link_isomorphic, unroll


# -- 1. Power partial order --------------------------------------------------


class TestCriterion1PowerTable:
    def test_equal_power_bidirectional(self, default_power_report):
        a, b = EQUAL_POWER[0]
        for x, y in ((a, b), (b, a)):
            entry = default_power_report.implications[f"{x.value}->{y.value}"]
            assert entry["holds"] and entry["violations"] == 0

    @pytest.mark.parametrize("pair", STRICTLY_WEAKER, ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_strictly_weaker(self, default_power_report, pair):
        weaker, stronger = pair
        entry = default_power_report.implications[f"{weaker.value}->{stronger.value}"]
        assert entry["holds"], f"{weaker.value} should imply {stronger.value}"
        assert default_power_report.has_witness(weaker, stronger), (
            f"no witness that {stronger.value} is strictly stronger"
        )

    def test_incomparable_cell(self, default_power_report):
        a, b = INCOMPARABLE[0]
        for x, y in ((a, b), (b, a)):
            entry = default_power_report.implications[f"{x.value}->{y.value}"]
            assert not entry["holds"] and entry["violations"] >= 1

    def test_runtime_budget(self, default_power_report):
        stats = default_power_report.stats
        assert list(stats) == default_power_report.kinds
        assert sum(s["seconds"] for s in stats.values()) <= 600


# -- 2. WL1 ~ WL2_Local over the full corpus ---------------------------------


def test_criterion2_wl1_equals_wl2_local(default_power_report):
    assert default_power_report.num_pairs >= 10**5
    for x, y in ((TestKind.WL1, TestKind.WL2_LOCAL), (TestKind.WL2_LOCAL, TestKind.WL1)):
        entry = default_power_report.implications[f"{x.value}->{y.value}"]
        assert entry["violations"] == 0


# -- 3. Oracle soundness -----------------------------------------------------


def test_criterion3_oracle_soundness(default_corpus, default_power_report):
    result = oracle_soundness(default_corpus, default_power_report.results)
    assert result["checked"] > 0
    assert result["violations"] == 0, result["details"]


@pytest.mark.parametrize("d,n", [(3, 10), (3, 24), (3, 40), (4, 11), (4, 25), (4, 40)])
def test_criterion3_soundness_on_regular_graphs(d, n):
    # Regular graphs above the certificate's 9-node bound, where 1-WL colours
    # are uninformative: a relabelled copy of a link is isomorphic, and no
    # kind may tell the two apart.
    rng = random.Random(1000 * d + n)
    g = from_networkx(nx.random_regular_graph(d, n, seed=rng.randrange(2**31)))
    pi = list(range(n))
    rng.shuffle(pi)
    h = permute(g, pi)
    edge = rng.choice(sorted(g.edges))
    non_edge = rng.choice([e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)])
    for p, q in (edge, non_edge):
        e2 = (pi[p], pi[q])
        assert link_isomorphic(g, (p, q), h, e2, masked=True)
        for kind in TestKind:
            assert not indistinguishable(kind, (p, q), g, e2, h).distinguished, kind


# -- 4. Tree correspondence --------------------------------------------------

TREE_TEST_PAIRS = (
    ("T_B", TestKind.WL1),
    ("T_B", TestKind.WL1_LABEL01),
    ("T_A", TestKind.WL2_LOCAL),
    ("T_C", TestKind.WL2),
    ("T_D", TestKind.FWL2),
)


@pytest.mark.parametrize("tree_kind,test_kind", TREE_TEST_PAIRS, ids=lambda v: str(v))
def test_criterion4_tree_correspondence(
    default_corpus, default_power_report, tree_kind, test_kind
):
    small = [
        i for i, (g, _) in enumerate(default_corpus.instances) if g.n <= 7
    ]
    assert small
    instances = [default_corpus.instances[i] for i in small]
    if test_kind is TestKind.WL1_LABEL01:
        # the power report leaves this kind out; its tree is T_B over the
        # 0/1 labels
        history = batch_refine(test_kind, Corpus(instances, {})).history
        instances = [(label01(g, e), e) for g, e in instances]
    else:
        history = default_power_report.results[test_kind].history[:, small]
    interner = Interner()
    for depth in range(4):
        by_tree = {}
        by_color = {}
        for i, (g, e) in enumerate(instances):
            tree = unroll(tree_kind, g, e, depth, interner)
            by_tree.setdefault(tree.canonical_id, set()).add(i)
            key = tuple(history[min(depth, len(history) - 1), i].tolist())
            by_color.setdefault(key, set()).add(i)
        partition_tree = {frozenset(v) for v in by_tree.values()}
        partition_color = {frozenset(v) for v in by_color.values()}
        assert partition_tree == partition_color, (tree_kind, depth)


# -- 5. Common neighbors from the folklore signature -------------------------


def test_criterion5_cn_recovery(default_corpus, default_power_report):
    # After one folklore step, a link colour fixes |N(p) ∩ N(q)|: equal
    # colours mean equal counts. One plain step does not.
    def mixed_classes(kind):
        result = default_power_report.results[kind]
        counts = {}
        for i, (g, (p, q)) in enumerate(default_corpus.instances):
            cn = len(set(g.adj[p]) & set(g.adj[q]))
            counts.setdefault(result.link_key(i, 1), set()).add(cn)
        return sum(len(c) > 1 for c in counts.values())

    assert mixed_classes(TestKind.FWL2) == 0
    assert mixed_classes(TestKind.FWL2_LOCAL) == 0
    assert mixed_classes(TestKind.WL2) > 0


# -- 6. Fixture captions -----------------------------------------------------


@pytest.fixture(scope="module")
def fixtures():
    return {f.name: f for f in builtin_fixtures()}


class TestCriterion6Fixtures:
    def run(self, fixture, kind):
        return indistinguishable(
            kind, fixture.target_a, fixture.graph_a, fixture.target_b, fixture.graph_b
        )

    def test_f3(self, fixtures):
        f3 = fixtures["F3-graph-size"]
        wl2 = self.run(f3, TestKind.WL2)
        assert wl2.distinguished_at == 1
        assert not self.run(f3, TestKind.WL1).distinguished

    def test_f4a(self, fixtures):
        f4a = fixtures["F4a-common-neighbor"]
        assert not self.run(f4a, TestKind.WL2).distinguished
        assert self.run(f4a, TestKind.FWL2_LOCAL).distinguished
        assert self.run(f4a, TestKind.WL1_LABEL01).distinguished

    def test_f4b(self, fixtures):
        f4b = fixtures["F4b-antipodal-vs-cross"]
        assert not self.run(f4b, TestKind.WL1_LABEL01).distinguished
        assert self.run(f4b, TestKind.FWL2).distinguished
        assert self.run(f4b, TestKind.FWL2_LOCAL).distinguished

    def test_manifest_verdicts_all_match(self, fixtures):
        for fixture in fixtures.values():
            for kind, expect in fixture.expected.items():
                assert self.run(fixture, kind).distinguished == expect, (
                    fixture.name,
                    kind,
                )


# -- 7. Permutation equivariance ---------------------------------------------


@pytest.mark.parametrize("kind", list(TestKind), ids=lambda k: k.value)
def test_criterion7_permutation_equivariance(kind):
    rng = random.Random(list(TestKind).index(kind))
    violations = 0
    for trial in range(1000):
        n = rng.randint(4, 9)
        g = erdos_renyi(n, rng.choice([0.2, 0.4, 0.6]), seed=trial)
        pi = list(range(n))
        rng.shuffle(pi)
        h = permute(g, pi)
        p, q = rng.sample(range(n), 2)
        res = indistinguishable(kind, (p, q), g, (pi[p], pi[q]), h)
        if res.distinguished:
            violations += 1
    assert violations == 0


# -- 8. Link-prediction signal -----------------------------------------------


def test_criterion8_ring_lattice_auc_margin():
    folklore, node = [], []
    for seed in range(10):
        ws = ring_lattice(200, 4, 0.1, seed=seed)
        folklore.append(benchmark(ws, TestKind.FWL2_LOCAL, split_seed=seed).test_auc)
        node.append(benchmark(ws, TestKind.WL1, split_seed=seed).test_auc)
    mean_folklore = float(np.mean(folklore))
    mean_node = float(np.mean(node))
    assert mean_folklore >= 0.80, folklore
    assert mean_folklore - mean_node >= 0.03, (folklore, node)


# -- 9. Monotonicity and stabilization bound ---------------------------------


def test_criterion9_monotone_refinement():
    # The engine checks split-only refinement and the stabilization bound on
    # every step of every run (raising RefinementError, so -O keeps them);
    # make sure this test's own asserts are live and re-verify the
    # properties explicitly on a mixed sample.
    live = False
    try:
        assert False
    except AssertionError:
        live = True
    assert live, "python -O would disable the engine's invariant checks"
    rng = random.Random(9)
    for trial in range(12):
        g = erdos_renyi(rng.randint(4, 10), 0.4, seed=trial)
        p, q = rng.sample(range(g.n), 2)
        for kind in TestKind:
            result = refine_to_stable(kind, g, mask=(p, q))
            counts = [c.num_classes() for c in result.history]
            assert counts == sorted(counts), kind
            assert result.stable_at is not None
            assert result.stable_at <= result.session.num_units() + 1


# -- 10. Complexity sanity ---------------------------------------------------


class TestCriterion10Complexity:
    def test_wl2_local_featurize_time_linear_in_m(self):
        rng = random.Random(10)
        sizes = [(200, 400), (400, 800), (800, 1600)]
        times = []
        for n, m in sizes:
            g = ring_lattice(n, 4, 0.1, seed=10)
            assert g.m == m
            targets = [tuple(rng.sample(range(n), 2)) for _ in range(8)]
            t0 = time.perf_counter()
            for e in targets:
                featurize(TestKind.WL2_LOCAL, g, e, width=8)
            times.append(time.perf_counter() - t0)
        ms = [m for _, m in sizes]
        slope = sum(t * m for t, m in zip(times, ms)) / sum(m * m for m in ms)
        for t, m in zip(times, ms):
            ratio = t / (slope * m)
            assert 1 / 3 <= ratio <= 3, (times, ms)

    def test_fwl2_memory_gate(self):
        big = Graph.build(DEFAULT_DENSE_NODE_LIMIT + 1, [(0, 1)])
        with pytest.raises(MemoryGateError, match="dense node limit"):
            refine_to_stable(TestKind.FWL2, big)
        with pytest.raises(MemoryGateError):
            featurize(TestKind.WL2, big, (0, 1))
