"""Link prediction: classical heuristics, refinement-color features, AUC."""

from __future__ import annotations

import json
import random
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import Graph, check_target, sample_non_edges, split_links
from .refine import RefinementSession, TestKind, refine_to_stable, session_groups


class LinkPredError(ValueError):
    pass


# -- classical heuristics ----------------------------------------------------


def _common_neighbors(g: Graph, p: int, q: int):
    check_target(g, (p, q))
    return set(g.adj[p]) & set(g.adj[q])


def heuristic_cn(g: Graph, p: int, q: int) -> int:
    """|N(p) ∩ N(q)|. The caller excludes the pair's own edge beforehand."""
    return len(_common_neighbors(g, p, q))


def heuristic_pa(g: Graph, p: int, q: int) -> int:
    """deg(p) * deg(q)."""
    check_target(g, (p, q))
    return g.degree(p) * g.degree(q)


def heuristic_ra(g: Graph, p: int, q: int) -> float:
    """Sum of 1/deg(u) over common neighbors u."""
    return sum(1.0 / g.degree(u) for u in _common_neighbors(g, p, q))


# -- color features ----------------------------------------------------------


def _color_ranks(sizes):
    """Distinct colors as (class size, color id) keys, in rank order."""
    return sorted((size, c) for c, size in sizes.items())


def featurize(kind: TestKind, g_train: Graph, target, width: int = 8) -> np.ndarray:
    """Feature vector of one target: ``featurize_many`` of a single target."""
    return featurize_many(kind, g_train, [target], width)[0]


def featurize_many(kind: TestKind, g_train: Graph, targets, width: int = 8) -> np.ndarray:
    """Feature vectors [cn, pa, ra, hist_0..hist_{width-1}], one row per target.

    Each target is masked. Heuristics are populated for pair-indexed kinds
    and zero-filled for node-level kinds (whose point is to measure what
    refinement alone sees). The histogram buckets the final colors of the
    units incident to the target (pairs touching p or q; nodes adjacent to
    p or q) by color rank modulo width.

    Targets with the same masked graph share one lone session
    (``session_groups``), which numbers its colors canonically (sorted
    signatures per iteration). A row reads the session's tracked colors and
    only its own target's read-outs, so it is a pure function of (kind,
    graph, target, width): neither earlier calls nor other targets change it.
    """
    if width < 1:
        raise LinkPredError("width must be >= 1")
    instances = [(g_train, t) for t in targets]
    rows = [None] * len(instances)
    for _, mask, group in session_groups(kind, instances):
        if kind is TestKind.FWL2_LOCAL:
            # One sharpening step over the observed pairs; expansion to longer
            # walks is not needed for target-incident readout.
            session = RefinementSession(kind, g_train, mask=mask, extra_targets=group)
            session.step(expand=False)
        else:
            # only the stable colours are read: no earlier iteration's map is built
            session = refine_to_stable(kind, g_train, mask=mask, extra_targets=group).session
        # class sizes and their rank order, once per session
        sizes = Counter(session.colors.values())
        keys = _color_ranks(sizes)
        for target, indices in group.items():
            row = _target_features(session, target, width, sizes, keys)
            for i in indices:
                rows[i] = row
    return np.array(rows).reshape(len(rows), 3 + width)


def _target_features(session: RefinementSession, target, width: int, sizes, keys) -> np.ndarray:
    kind, eff, colors, readouts = session.kind, session.eff, session.colors, session.readouts
    p, q = target
    if kind.pair_indexed:
        cn = float(heuristic_cn(eff, p, q))
        pa = float(heuristic_pa(eff, p, q))
        ra = heuristic_ra(eff, p, q)
        # featurize's sessions track exactly the pairs (a, u), u in nbrs[a]
        units = {(a, u) for a in target for u in session.nbrs[a]}
        units.update([(u, a) for a, u in units])
    else:
        cn = pa = ra = 0.0
        units = set(eff.adj[p]) | set(eff.adj[q])
    # The target's own read-outs count as units; the other targets' do not.
    # A read-out's id follows every tracked colour, so each adds a (size,
    # color) key of its own, which moves the keys past it.
    extra = Counter(readouts[u] for u in ((p, q), (q, p)) if u in readouts)
    new = [(k, c) for c, k in extra.items()]
    hist = [0.0] * width
    for c, k in (Counter(colors[u] for u in units) + extra).items():
        key = (sizes[c] + extra[c], c)
        rank = bisect_left(keys, key) + sum(m < key for m in new)
        hist[rank % width] += k
    # Relative frequencies: the histogram encodes color composition only.
    # Raw counts would re-encode |N(p) ∪ N(q)|, i.e. degree information that
    # belongs to the PA heuristic, not to the refinement colors.
    total = sum(hist)
    if total > 0:
        hist = [h / total for h in hist]
    return np.array([cn, pa, ra] + hist)


# -- linear scorer -----------------------------------------------------------


# Full-batch gradient descent: step size and number of steps.
LEARNING_RATE = 0.1
EPOCHS = 500


@dataclass
class LinearScorer:
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray
    loss_history: list = field(repr=False, default_factory=list)

    def score(self, features: np.ndarray) -> np.ndarray:
        x = (np.atleast_2d(features) - self.mean) / self.std
        return x @ self.weights + self.bias


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def train_scorer(features, labels) -> LinearScorer:
    """Logistic regression by full-batch gradient descent from zero init."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) != len(y) or len(y) < 2:
        raise LinkPredError("need >= 2 feature rows matching the labels")
    if not np.isfinite(x).all():
        raise LinkPredError("non-finite feature values")
    if len(set(y.tolist())) < 2:
        raise LinkPredError("training labels contain a single class")
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
        pred = _sigmoid(z)
        eps = 1e-12
        losses.append(
            float(-np.mean(y * np.log(pred + eps) + (1 - y) * np.log(1 - pred + eps)))
        )
        grad = pred - y
        w -= LEARNING_RATE * (xs.T @ grad) / n
        b -= LEARNING_RATE * float(grad.mean())
    return LinearScorer(weights=w, bias=b, mean=mean, std=std, loss_history=losses)


# -- evaluation --------------------------------------------------------------


def auc(scores, labels) -> float:
    """Exact rank-statistic AUC: P(pos > neg) + half the tie probability."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise LinkPredError("AUC needs both classes")
    # each score's average 1-based rank within its tie group
    _, tie, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie]
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class BenchmarkReport:
    dataset: str
    kind: TestKind
    split_seed: int
    val_auc: float
    test_auc: float
    featurize_seconds: float
    n: int
    m: int
    isolated_nodes: int

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "kind": self.kind.value})


def benchmark(
    g: Graph,
    kind: TestKind,
    split_seed: int,
    width: int = 8,
    dataset: str = "custom",
) -> BenchmarkReport:
    """10%/5% held-out split, self-masked training features, val/test AUC.

    Train positives are the remaining train edges, each masked during its
    own featurization; train negatives are an equal number of sampled
    non-edges of the original graph, disjoint from the held-out negatives.
    All features are computed on the train graph only.
    """
    split = split_links(g, 0.10, 0.05, split_seed)
    train = split.train_graph
    train_pos = train.edge_list()
    rng = random.Random(split_seed + 1)
    held_negs = set(split.val_neg) | set(split.test_neg)
    train_neg = sample_non_edges(g, len(train_pos), rng, forbidden=held_negs)

    # (positives, negatives) of train, validation and test, featurized in one
    # call so that every non-edge target of the train graph shares a session
    splits = [(train_pos, train_neg), (split.val_pos, split.val_neg)]
    splits.append((split.test_pos, split.test_neg))
    t0 = time.perf_counter()
    rows = featurize_many(kind, train, [e for pos, neg in splits for e in (*pos, *neg)], width)
    elapsed = time.perf_counter() - t0
    xs = np.split(rows, np.cumsum([len(pos) + len(neg) for pos, neg in splits[:-1]]))
    ys = [np.array([1] * len(pos) + [0] * len(neg)) for pos, neg in splits]
    scorer = train_scorer(xs[0], ys[0])
    val_auc, test_auc = (auc(scorer.score(x), y) for x, y in zip(xs[1:], ys[1:]))
    return BenchmarkReport(
        dataset=dataset,
        kind=kind,
        split_seed=split_seed,
        val_auc=val_auc,
        test_auc=test_auc,
        featurize_seconds=elapsed,
        n=g.n,
        m=g.m,
        isolated_nodes=sum(1 for v in range(train.n) if train.degree(v) == 0),
    )
