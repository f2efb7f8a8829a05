"""Corpus construction and empirical verification of the power partial order."""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .generate import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    rook_graph,
    shrikhande_graph,
)
from .graph import Graph, disjoint_union
from .refine import ALL_KINDS, TestKind, lockstep, open_sessions
from .unroll import DEFAULT_ISO_BOUND, link_certificate


@dataclass
class Corpus:
    """Instances are (graph, ordered target pair); deterministic given spec."""

    instances: list
    spec: dict

    def __len__(self):
        return len(self.instances)

    @staticmethod
    def merge(*parts) -> "Corpus":
        instances = []
        for part in parts:
            instances.extend(part.instances)
        return Corpus(instances, {"merged": [p.spec for p in parts]})


# Node counts (inclusive) and edge probabilities of random_corpus's graphs.
RANDOM_N_RANGE = (4, 12)
RANDOM_EDGE_PROBS = (0.2, 0.35, 0.5)


def random_corpus(count: int = 200, seed: int = 7) -> Corpus:
    """Erdos-Renyi corpus with every ordered non-diagonal pair as a target."""
    rng = random.Random(seed)
    instances = []
    for _ in range(count):
        n = rng.randint(*RANDOM_N_RANGE)
        p = rng.choice(RANDOM_EDGE_PROBS)
        g = erdos_renyi(n, p, seed=rng.randrange(2**31))
        instances += all_pairs_corpus(g).instances
    spec = {
        "generator": "erdos_renyi",
        "count": count,
        "seed": seed,
        "n_range": list(RANDOM_N_RANGE),
        "edge_probs": list(RANDOM_EDGE_PROBS),
    }
    return Corpus(instances, spec)


def all_pairs_corpus(g: Graph) -> Corpus:
    instances = [
        (g, (u, v)) for u in range(g.n) for v in range(g.n) if u != v
    ]
    return Corpus(instances, {"generator": "all_pairs", "n": g.n, "m": g.m})


# ---------------------------------------------------------------------------
# Batch lockstep refinement: all instances of one kind refined together, one
# session per group of ``session_groups``. Each iteration numbers the colours of
# all sessions together, so colours compare corpus-wide within an iteration.
# Every iteration's keys of all instances are one gather off the run's ids.
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    kind: TestKind
    history: np.ndarray  # int64 (T + 1, instances, 2): ordered key (a, b) per t, instance
    iterations: int
    stable: bool

    def link_key(self, i: int, t: int = -1):
        return tuple(sorted(self.history[t, i].tolist()))

    def final_keys(self):
        return list(map(tuple, np.sort(self.history[-1], axis=1).tolist()))

    def first_difference(self, i: int, j: int):
        keys = np.sort(self.history[:, [i, j]], axis=2)
        differ = np.flatnonzero((keys[:, 0] != keys[:, 1]).any(axis=1))
        return int(differ[0]) if differ.size else None


def batch_refine(kind: TestKind, corpus: Corpus, max_iters: int = None) -> BatchResult:
    sessions, readers = open_sessions(kind, corpus.instances)
    history = []
    iterations, stable = lockstep(
        sessions, max_iters, lambda t, keys: history.append(keys), readers
    )
    return BatchResult(kind=kind, history=np.stack(history), iterations=iterations, stable=stable)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    """A pair of (graph, target) instances with pinned per-test verdicts."""

    name: str
    graph_a: Graph
    target_a: tuple
    graph_b: Graph
    target_b: tuple
    expected: dict  # TestKind -> bool (distinguished?)
    note: str = ""


def builtin_fixtures():
    """The pinned fixture families."""
    c6 = cycle_graph(6)
    c3c3, _ = disjoint_union(cycle_graph(3), cycle_graph(3))
    k2 = complete_graph(2)
    k2k2, _ = disjoint_union(k2, k2)
    rook, shrikhande = rook_graph(4), shrikhande_graph()
    fixtures = [
        Fixture(
            name="F1-symmetric-endpoints",
            graph_a=c6,
            target_a=(0, 1),
            graph_b=c6,
            target_b=(0, 3),
            expected={},
            note="same ring, adjacent vs antipodal target",
        ),
        Fixture(
            name="F3-graph-size",
            graph_a=k2,
            target_a=(0, 1),
            graph_b=k2k2,
            target_b=(0, 1),
            expected={
                TestKind.WL1: False,
                TestKind.WL2_LOCAL: False,
                TestKind.WL2: True,
                TestKind.FWL2_LOCAL: False,
                TestKind.FWL2: True,
            },
            note="global pair tests see total graph size; node-local tests do not",
        ),
        Fixture(
            name="F4a-common-neighbor",
            graph_a=c6,
            target_a=(0, 2),
            graph_b=c3c3,
            target_b=(0, 3),
            expected={
                TestKind.WL1: False,
                TestKind.WL2_LOCAL: False,
                TestKind.WL2: False,
                TestKind.FWL2_LOCAL: True,
                TestKind.FWL2: True,
                TestKind.WL1_LABEL01: True,
            },
            note="distance-2 ring pair (one common neighbor) vs cross-ring pair",
        ),
        Fixture(
            name="F4b-antipodal-vs-cross",
            graph_a=c6,
            target_a=(0, 3),
            graph_b=c3c3,
            target_b=(0, 3),
            expected={
                TestKind.WL1_LABEL01: False,
                TestKind.FWL2_LOCAL: True,
                TestKind.FWL2: True,
            },
            note="0/1 marking cannot separate these; folklore pair tests can",
        ),
        Fixture(
            name="F5a-srg-non-edge",
            graph_a=rook,
            target_a=(0, 5),
            graph_b=shrikhande,
            target_b=(0, 2),
            expected={kind: False for kind in ALL_KINDS},
            note="SRG(16,6,2,2) pair: non-adjacent targets, two common neighbors each",
        ),
        Fixture(
            name="F5b-srg-edge",
            graph_a=rook,
            target_a=(0, 1),
            graph_b=shrikhande,
            target_b=(0, 1),
            expected={kind: True for kind in ALL_KINDS},
            note="the same SRG pair with an edge target masked",
        ),
    ]
    return fixtures


def fixtures_corpus() -> Corpus:
    fixtures = builtin_fixtures()
    instances = []
    for f in fixtures:
        instances.append((f.graph_a, f.target_a))
        instances.append((f.graph_b, f.target_b))
    return Corpus(instances, {"generator": "fixtures", "names": [f.name for f in fixtures]})


# ---------------------------------------------------------------------------
# Power report
# ---------------------------------------------------------------------------

# Expected pattern of the power partial order over the five unlabeled tests.
EQUAL_POWER = ((TestKind.WL1, TestKind.WL2_LOCAL),)
STRICTLY_WEAKER = (
    (TestKind.WL1, TestKind.WL2),
    (TestKind.WL1, TestKind.FWL2_LOCAL),
    (TestKind.WL1, TestKind.FWL2),
    (TestKind.WL2_LOCAL, TestKind.WL2),
    (TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL),
    (TestKind.WL2_LOCAL, TestKind.FWL2),
    (TestKind.WL2, TestKind.FWL2),
    (TestKind.FWL2_LOCAL, TestKind.FWL2),
)
INCOMPARABLE = ((TestKind.WL2, TestKind.FWL2_LOCAL),)


@dataclass
class PowerReport:
    corpus_spec: dict
    kinds: list
    num_instances: int
    implications: dict  # "A->B" -> {"holds": bool, "violations": int}
    witnesses: list  # strictness witnesses per ordered kind pair
    results: dict = field(repr=False, default=None)  # kind -> BatchResult
    # kind -> {"seconds", "iterations"} of its batch_refine; timings, so not in to_json
    stats: dict = field(repr=False, compare=False, default=None)

    @property
    def num_pairs(self) -> int:
        return self.num_instances * (self.num_instances - 1) // 2

    def implication_holds(self, a: TestKind, b: TestKind) -> bool:
        return self.implications[f"{a.value}->{b.value}"]["holds"]

    def has_witness(self, a: TestKind, b: TestKind) -> bool:
        return any(
            w["weaker"] == a.value and w["stronger"] == b.value for w in self.witnesses
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "corpus": self.corpus_spec,
                "num_instances": self.num_instances,
                "num_instance_pairs": self.num_pairs,
                "kinds": [k.value for k in self.kinds],
                "implications": self.implications,
                "witnesses": self.witnesses,
            },
            indent=2,
        )


def _implication_violations(keys_a, keys_b):
    """Pairs where A distinguishes (keys differ) but B does not (keys equal)."""
    groups = {}
    for i, kb in enumerate(keys_b):
        groups.setdefault(kb, []).append(i)
    violations = 0
    example = None
    for members in groups.values():  # in order of first member
        sub = {}
        for i in members:
            sub.setdefault(keys_a[i], []).append(i)
        if len(sub) < 2:
            continue
        total = len(members) * (len(members) - 1) // 2
        same_a = sum(len(v) * (len(v) - 1) // 2 for v in sub.values())
        violations += total - same_a
        if example is None:
            reps = sorted(v[0] for v in sub.values())
            example = (reps[0], reps[1])
    return violations, example


def power_check(corpus: Corpus, kinds=None, max_iters: int = None) -> PowerReport:
    """Pairwise distinguishability of every corpus instance pair, per test kind."""
    if not corpus.instances:
        raise ValueError("corpus is empty")
    if kinds is None:
        kinds = [k for k in ALL_KINDS if k is not TestKind.WL1_LABEL01]
    results, stats = {}, {}
    for k in kinds:
        start = time.perf_counter()
        results[k] = batch_refine(k, corpus, max_iters=max_iters)
        stats[k] = {"seconds": time.perf_counter() - start, "iterations": results[k].iterations}
    keys = {k: results[k].final_keys() for k in kinds}
    implications = {}
    for a, b in itertools.permutations(kinds, 2):
        violations, example = _implication_violations(keys[a], keys[b])
        entry = {"holds": violations == 0, "violations": violations}
        if example is not None:
            entry["example"] = list(example)
        implications[f"{a.value}->{b.value}"] = entry
    # B is strictly stronger than A where B distinguishes a pair A does not:
    # an example of the implication B -> A failing
    witnesses = []
    for a, b in itertools.permutations(kinds, 2):
        example = implications[f"{b.value}->{a.value}"].get("example")
        if example is not None:
            witnesses.append(
                {
                    "weaker": a.value,
                    "stronger": b.value,
                    "instances": list(example),
                    "iteration": results[b].first_difference(*example),
                }
            )
    return PowerReport(
        corpus_spec=corpus.spec,
        kinds=list(kinds),
        num_instances=len(corpus.instances),
        implications=implications,
        witnesses=witnesses,
        results=results,
        stats=stats,
    )


def oracle_soundness(corpus: Corpus, results: dict) -> dict:
    """No test may distinguish a pair the exhaustive oracle deems isomorphic.

    Over instances of at most ``DEFAULT_ISO_BOUND`` nodes, a violation is a
    pair with equal target-fixing certificates (masked, matching engine
    semantics) that a kind tells apart; ``details`` has one per such kind.
    """
    small = [
        i for i, (g, _) in enumerate(corpus.instances) if g.n <= DEFAULT_ISO_BOUND
    ]
    certs = [link_certificate(*corpus.instances[i], masked=True) for i in small]
    checked = sum(k * (k - 1) // 2 for k in Counter(certs).values())
    violations = 0
    details = []
    for kind, result in results.items():
        keys = result.final_keys()
        count, example = _implication_violations([keys[i] for i in small], certs)
        violations += count
        if example is not None:
            details.append({"kind": kind.value, "instances": [small[i] for i in example]})
    return {
        "instances": len(small),
        "checked": checked,
        "violations": violations,
        "details": details,
    }
