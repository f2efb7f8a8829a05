"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Every call into wl2link goes through a module attribute (``harness.power_check``
rather than an imported name), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import random
import time

import wl2link.cli  # noqa: F401  -- the front end's import cost belongs to set-up

graph = importlib.import_module("wl2link.graph")
generate = importlib.import_module("wl2link.generate")
refine = importlib.import_module("wl2link.refine")
unroll = importlib.import_module("wl2link.unroll")
harness = importlib.import_module("wl2link.harness")
linkpred = importlib.import_module("wl2link.linkpred")

TestKind = refine.TestKind

# The clock operations are timed with. The worker replaces it with the speed
# probe's clock, which leaves out the time the probe takes.
clock = time.perf_counter

# Tree oracle <-> refinement kind pairs whose partitions coincide at every
# depth (acceptance criterion 4 of the test suite).
TREE_TEST_PAIRS = (
    ("T_B", TestKind.WL1),
    ("T_A", TestKind.WL2_LOCAL),
    ("T_C", TestKind.WL2),
    ("T_D", TestKind.FWL2),
)


class Workload:
    """One closed-loop workload: ``op(i)`` runs operation i and checks it.

    ``op`` returns (seconds spent in the timed calls, work items, problem),
    where problem is None or a one-line description of a failed check.
    ``trace_ops`` is the fixed plan that traced runs execute.
    ``ops_per_process`` is set when a fresh process must run a fixed number
    of operations (None: loop until the time is up).
    """

    name = ""
    trace_ops = 1
    ops_per_process = None

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def checking(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def facts(self) -> dict:
        return {}


class PowerER(Workload):
    """power_check over the fixtures plus relabelled Erdos-Renyi graphs.

    The graphs are isomorphic copies of a fixed reference set: one graph of
    the default generator for every n = 4..12 and p in EDGE_PROBS (27
    graphs; 1,700 instances with the fixtures), drawn with REFERENCE_SEED.
    Each operation relabels every reference graph with a fresh node order
    drawn from the workload seed.

    Fresh ER graphs per seed made the cost of a run depend on the draw: the
    interquartile range of items_per_s over five seeds was 19 % of its
    median, for the same code. Relabelled copies keep the work per operation
    fixed and still make every seed a different input. Relabelling must not
    change any implication's violation count, which each operation checks
    against the first.
    """

    name = "power-er"
    trace_ops = 1
    SIZES = range(4, 13)
    EDGE_PROBS = (0.2, 0.35, 0.5)
    REFERENCE_SEED = 7

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        cell_seeds = random.Random(self.REFERENCE_SEED)
        self.reference = [
            generate.erdos_renyi(n, p, seed=cell_seeds.randrange(2**31))
            for n in self.SIZES
            for p in self.EDGE_PROBS
        ]
        self.rng = random.Random(seed)
        self.fixtures = harness.fixtures_corpus()
        self.first = self.corpus()
        self.violations = None  # violation count per implication, first operation

    def corpus(self):
        parts = [
            harness.all_pairs_corpus(graph.permute(g, generate.random_permutation(g.n, self.rng)))
            for g in self.reference
        ]
        return harness.Corpus.merge(self.fixtures, *parts)

    def op(self, i):
        # later corpora are drawn in order and not kept, so that what the
        # benchmark holds does not grow with the number of operations
        corpus = self.first if i == 0 else self.corpus()
        t0 = clock()
        report = harness.power_check(corpus)
        seconds = clock() - t0
        soundness = harness.oracle_soundness(corpus, report.results)
        with self.checking():
            problem = self.check(report, soundness)
        return seconds, len(corpus) * len(report.kinds), problem

    def check(self, report, soundness):
        bad = []
        counts = {k: v["violations"] for k, v in report.implications.items()}
        if self.violations is None:
            self.violations = counts
        elif counts != self.violations:
            bad.append("violation counts changed under relabelling")
        for a, b in harness.EQUAL_POWER:
            if not (report.implication_holds(a, b) and report.implication_holds(b, a)):
                bad.append(f"{a.value}~{b.value} not equal")
        for a, b in harness.STRICTLY_WEAKER:
            if not (report.implication_holds(a, b) and report.has_witness(a, b)):
                bad.append(f"{a.value}<{b.value} not strict")
        for a, b in harness.INCOMPARABLE:
            if report.implication_holds(a, b) or report.implication_holds(b, a):
                bad.append(f"{a.value}|{b.value} comparable")
        if soundness["violations"]:
            bad.append(f"{soundness['violations']} oracle violations")
        return "; ".join(bad) or None

    def facts(self):
        return {
            "corpus": "fixtures + relabelled reference ER graphs, n 4..12 x p 0.2/0.35/0.5",
            "reference_seed": self.REFERENCE_SEED,
            "graphs_per_op": len(self.reference),
            "fixture_instances": len(self.fixtures),
            "instances_per_op": len(self.first),
            "kinds": 5,
        }


class LinkpredRing(Workload):
    """benchmark() on one small-world ring, every kind once, in a fixed order.

    A fresh process runs exactly one pass, because featurize depends on the
    process-global canonical colour table: AUCs repeat only from a fresh
    process with this kind order. Ring and split share the seed.
    """

    name = "linkpred-ring"
    KINDS = (TestKind.WL1, TestKind.WL1_LABEL01, TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL)
    trace_ops = len(KINDS)
    ops_per_process = len(KINDS)
    N, K, REWIRE = 60, 4, 0.1

    def __init__(self, seed, tracer=None, n=N):
        super().__init__(seed, tracer)
        self.graph = generate.ring_lattice(n, self.K, self.REWIRE, seed)
        split = graph.split_links(self.graph, 0.10, 0.05, seed)
        # train positives and their matched negatives, then val and test pairs
        train_pos = split.train_graph.m
        self.targets = 2 * train_pos + sum(
            len(s) for s in (split.val_pos, split.val_neg, split.test_pos, split.test_neg)
        )
        self.aucs = {}

    def op(self, i):
        kind = self.KINDS[i % len(self.KINDS)]
        t0 = clock()
        report = linkpred.benchmark(self.graph, kind, self.seed)
        seconds = clock() - t0
        with self.checking():
            aucs = (report.val_auc, report.test_auc)
            problem = None
            if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in aucs):
                problem = f"{kind.value}: AUC outside [0, 1]: {aucs}"
            elif (report.n, report.m) != (self.graph.n, self.graph.m):
                problem = f"{kind.value}: report describes another graph"
            self.aucs[kind.value] = report.test_auc
        return seconds, self.targets, problem

    def facts(self):
        canon = getattr(linkpred, "_canon", None)
        return {
            "ring": {"n": self.graph.n, "m": self.graph.m, "k": self.K, "rewire": self.REWIRE},
            "split_seed": self.seed,
            "targets_per_kind": self.targets,
            "kind_order": [k.value for k in self.KINDS],
            "test_auc": self.aucs,
            # size of the process-global table behind featurize's history
            # dependence; None once the table is gone
            "canon_entries": None if canon is None else len(canon),
        }


class OracleSmall(Workload):
    """Decide seeded pairs of small instances with every exact oracle and kind.

    A third of the pairs are relabelled copies (masked-isomorphic by
    construction, with the target's own edge toggled half the time), a third
    put a second target into the same graph, and a third pair two
    independent graphs of the same size and density.
    """

    name = "oracle-small"
    trace_ops = 600
    DEPTH = 3
    N_RANGE = (5, 8)
    EDGE_PROBS = (0.2, 0.35, 0.5)

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.rng = random.Random(seed)
        self.pairs = [self.draw(i) for i in range(self.trace_ops)]

    def draw(self, i):
        """Pair i. Pairs are drawn in order; those past the trace plan are not
        kept, so that what the benchmark holds does not grow with the run."""
        rng = self.rng
        n = rng.randint(*self.N_RANGE)
        p = rng.choice(self.EDGE_PROBS)
        g1 = generate.erdos_renyi(n, p, seed=rng.randrange(2**31))
        e1 = tuple(rng.sample(range(n), 2))
        shape = i % 3
        if shape == 0:
            pi = generate.random_permutation(n, rng)
            g2 = graph.permute(g1, pi)
            e2 = (pi[e1[0]], pi[e1[1]])
            if rng.random() < 0.5:
                edges = set(g2.edges) ^ {tuple(sorted(e2))}
                g2 = graph.Graph.build(n, edges, g2.labels)
        elif shape == 1:
            g2, e2 = g1, tuple(rng.sample(range(n), 2))
        else:
            g2 = generate.erdos_renyi(n, p, seed=rng.randrange(2**31))
            e2 = tuple(rng.sample(range(n), 2))
        return g1, e1, g2, e2, shape == 0

    def op(self, i):
        g1, e1, g2, e2, relabelled = self.pairs[i] if i < len(self.pairs) else self.draw(i)
        d = self.DEPTH
        t0 = clock()
        iso = unroll.link_isomorphic(g1, e1, g2, e2, masked=True)
        cert1 = unroll.link_certificate(g1, e1, masked=True)
        cert2 = unroll.link_certificate(g2, e2, masked=True)
        interner = refine.Interner()
        trees = {
            t: (unroll.unroll(t, g1, e1, d, interner), unroll.unroll(t, g2, e2, d, interner))
            for t in unroll.TREE_KINDS
        }
        verdicts = {k: refine.indistinguishable(k, e1, g1, e2, g2) for k in refine.ALL_KINDS}
        seconds = clock() - t0
        if self.tracer is not None:
            self.tracer.count("unroll.interner_entries", len(interner))
        with self.checking():
            problem = self.check(g2, e2, relabelled, iso, cert1 == cert2, trees, verdicts, interner)
        return seconds, 1, problem

    def check(self, g2, e2, relabelled, iso, same_cert, trees, verdicts, interner):
        if iso != same_cert:
            return f"link_isomorphic={iso} but certificates equal={same_cert}"
        if relabelled and not iso:
            return "relabelled copy not found masked-isomorphic"
        if iso:
            split = [k.value for k, v in verdicts.items() if v.distinguished]
            if split:
                return f"masked-isomorphic pair distinguished by {split}"
        d = self.DEPTH
        for t, kind in TREE_TEST_PAIRS:
            t1, t2 = trees[t]
            # link colours are orientation-free: compare with both orientations
            same_tree = unroll.tree_equal(t1, t2) or unroll.tree_equal(
                t1, unroll.unroll(t, g2, (e2[1], e2[0]), d, interner)
            )
            at = verdicts[kind].distinguished_at
            if same_tree != (at is None or at > d):
                return f"{t} at depth {d} disagrees with {kind.value} (distinguished at {at})"
        return None

    def facts(self):
        return {
            "pairs_pregenerated": len(self.pairs),
            "n_range": list(self.N_RANGE),
            "edge_probs": list(self.EDGE_PROBS),
            "tree_depth": self.DEPTH,
            "kinds": len(refine.ALL_KINDS),
        }


WORKLOADS = {w.name: w for w in (PowerER, LinkpredRing, OracleSmall)}
