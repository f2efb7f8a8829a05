"""Link prediction: classical heuristics, refinement-color features, AUC."""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import Graph, check_target, sample_non_edges, split_links
from .refine import RefinementSession, TestKind, _ranges, _Union, lockstep, session_groups
from .refine import refine_to_stable  # noqa: F401  (a name perfbench's tracer wraps)


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


# A split's sessions run as consecutive unions of at most this many slots
# (tracked units plus read pairs; a bigger session runs alone), so that the
# run's memory stays bounded whatever the graph size. On 60- and 200-node
# rings, larger unions were barely faster and raised the peak memory.
_UNION_SLOTS = 2048


def _color_ranks(sizes, owner):
    """Each colour's rank among its session's colours in (class size, colour
    id) order; colour c has class size ``sizes[c]`` in session ``owner[c]``."""
    order = np.lexsort((sizes, owner))  # stable: ids break the ties
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    classes = np.bincount(owner)
    return pos - (np.cumsum(classes) - classes)[owner]


def featurize(kind: TestKind, g_train: Graph, target, width: int = 8) -> np.ndarray:
    """Feature vector of one target: ``featurize_many`` of a single target."""
    return featurize_many(kind, g_train, [target], width)[0]


def featurize_many(kind: TestKind, g_train: Graph, targets, width: int = 8) -> np.ndarray:
    """Feature vectors [cn, pa, ra, hist_0..hist_{width-1}], one row per target.

    Each target is masked. Heuristics are populated for pair-indexed kinds
    and zero-filled for node-level kinds (whose point is to measure what
    refinement alone sees). The histogram buckets the final colors of the
    units incident to the target (pairs touching p or q; nodes adjacent to
    p or q) by color rank modulo width; a color's rank orders its session's
    colors by (class size, color id).

    Targets with the same masked graph share one session
    (``session_groups``), and the sessions run in ``lockstep`` as a few
    consecutive unions of at most ``_UNION_SLOTS`` slots. Each union is
    own-numbered: its ids are the ranks of signatures that start with the
    session, so they never span two sessions, and within a session they
    keep the order of a lone session's canonical ids (sorted signatures per
    iteration). The union stops at the first step where no session's own
    partition splits; a lone session would be stable by then too, and a
    step that splits nothing keeps each id's order. ``FWL2_Local`` takes a
    single step over the observed pairs, without expansion. A row reads the
    session's tracked colors and only its own target's read-outs, so it is
    a pure function of (kind, graph, target, width): neither earlier calls
    nor other targets change it.
    """
    if width < 1:
        raise LinkPredError("width must be >= 1")
    instances = [(g_train, t) for t in targets]
    rows = np.zeros((len(instances), 3 + width))
    for run in _runs(kind, instances):
        indices, features = _run_features(kind, run, width)
        rows[np.concatenate(indices)] = np.repeat(features, list(map(len, indices)), axis=0)
    return rows


def _runs(kind: TestKind, instances):
    """The sessions of ``session_groups``, opened in order and cut into
    consecutive runs of at most ``_UNION_SLOTS`` slots (tracked units plus
    read pairs): per run, a list of (session, {target: [instance index, ...]})."""
    run, size = [], 0
    for g, mask, group in session_groups(kind, instances):
        session = RefinementSession(kind, g, mask=mask, extra_targets=group)
        slots = len(session.reads) + (sum(map(len, session.nbrs)) if kind.pair_indexed else g.n)
        if run and size + slots > _UNION_SLOTS:
            yield run
            run, size = [], 0
        run.append((session, group))
        size += slots
    if run:
        yield run


def _run_features(kind: TestKind, run, width: int):
    """One run's target indices, per (session, target), and feature rows."""
    sessions = [s for s, _ in run]
    union = _Union(sessions, expand=False, own=True)
    # FWL2_Local: one sharpening step over the observed pairs; expansion to
    # longer walks is not needed for target-incident read-out
    lockstep(sessions, 1 if kind is TestKind.FWL2_LOCAL else None, _union=union)
    readers = [(s, t) for s, group in run for t in group]
    indices = [ix for _, group in run for ix in group.values()]
    features = np.zeros((len(readers), 3 + width))
    if kind.pair_indexed:
        features[:, :3] = [
            (heuristic_cn(s.eff, p, q), heuristic_pa(s.eff, p, q), heuristic_ra(s.eff, p, q))
            for s, (p, q) in readers
        ]
    features[:, 3:] = _histograms(union, readers, width)
    return indices, features


def _histograms(union, readers, width: int):
    """Every reader's relative colour-rank histogram, read off a stepped
    own-numbered union that never expands, so that it tracks its first
    ``units`` slots and their colours are 0 .. classes - 1."""
    kind, ids, n, (classes, units) = union.kind, union.ids, union.n, union.state
    last = union.offset[1:]
    colours = ids[:units]
    sizes = np.bincount(colours, minlength=classes)
    owner = np.empty(classes, np.int64)
    owner[colours] = np.searchsorted(last, union.codes[:units] // n, side="right")
    rank = _color_ranks(sizes, owner)
    # per session s and k = 0, 1, 2: how many of its classes have at most k units
    at_most = np.stack([np.bincount(owner[sizes <= k], minlength=len(last)) for k in range(3)], 1)

    key = union.slots(readers)  # (p, q) and (q, p), or p and q
    ends = union.codes[key] // n  # every reader's p and q in the union
    if kind.pair_indexed:
        # the tracked units (e, u) of either end e are a run of the sorted
        # tracked codes; then their reverses (u, e)
        codes = union.codes[:units]
        which, slots = _ranges(*(np.searchsorted(codes, ends.ravel() * n + d) for d in (0, n)))
        slot_codes = codes[slots]
        reverse = union.locate(slot_codes % n * n + slot_codes // n)
        which, slots = np.tile(which, 2), np.concatenate((slots, reverse))
    else:
        deg, flat = union.adj
        start = np.cumsum(deg) - deg
        which, at = _ranges(start[ends.ravel()], (start + deg)[ends.ravel()])
        slots = flat[at]
    # each reader's distinct units, then its (colour, count) pairs
    reader, slots = np.divmod(np.unique(which // 2 * max(units, 1) + slots), max(units, 1))
    keys, count = np.unique(reader * classes + colours[slots], return_counts=True)
    reader, colour = np.divmod(keys, max(classes, 1))

    # The target's own read-outs count as units of their own: a read-out
    # follows every tracked colour, so it adds a (count, id) key that ranks
    # after every class of at most its count. k: each orientation's count.
    read = key >= units
    out = ids[key]
    k = read.astype(np.int64)
    same = read.all(1) & (out[:, 0] == out[:, 1])
    k[same] = (2, 0)
    other_k, other = k[:, ::-1], out[:, ::-1]
    before = (other_k > 0) & ((other_k < k) | ((other_k == k) & (other < out)))
    session = np.searchsorted(last, ends[:, 0], side="right")
    out_rank = at_most[session[:, None], k] + before
    # and a tracked colour ranks after the read-out keys of smaller count
    shift = ((k[reader] > 0) & (k[reader] < sizes[colour, None])).sum(1)

    has = k > 0
    rows = np.concatenate((reader, np.repeat(np.arange(len(readers)), 2)[has.ravel()]))
    ranks = np.concatenate((rank[colour] + shift, out_rank[has]))
    weights = np.concatenate((count, k[has]))
    hist = np.bincount(rows * width + ranks % width, weights, len(readers) * width)
    hist = hist.reshape(len(readers), width)
    # Relative frequencies: the histogram encodes color composition only.
    # Raw counts would re-encode |N(p) ∪ N(q)|, i.e. degree information that
    # belongs to the PA heuristic, not to the refinement colors.
    total = hist.sum(axis=1, keepdims=True)
    return np.divide(hist, total, out=np.zeros(hist.shape), where=total > 0)


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


def train_scorer(features, labels) -> LinearScorer:
    """Logistic regression by full-batch gradient descent from zero init.

    The labels are 0 and 1. ``loss_history`` holds each epoch's mean
    log-loss, taken in the descent's own pass from the predictions of that
    epoch's step; the loss never feeds the descent. Every epoch works in
    place on (rows,) buffers, so the memory stays O(rows)."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) != len(y) or len(y) < 2:
        raise LinkPredError("need >= 2 feature rows matching the labels")
    if not np.isfinite(x).all():
        raise LinkPredError("non-finite feature values")
    if not np.isin(y, (0.0, 1.0)).all():
        raise LinkPredError("training labels must be 0 or 1")
    if len(set(y.tolist())) < 2:
        raise LinkPredError("training labels contain a single class")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    n = len(y)
    pos = y == 1.0
    pred, like, grad = np.empty(n), np.empty(n), np.empty(n)
    losses = []
    for _ in range(EPOCHS):
        # the sigmoid 0.5 * (1 + tanh(z / 2)), in place
        np.dot(xs, w, out=pred)
        pred += b
        pred *= 0.5
        np.tanh(pred, out=pred)
        pred += 1.0
        pred *= 0.5
        # each label's likelihood: pred where y is 1, else 1 - pred
        np.subtract(1.0, pred, out=like)
        np.copyto(like, pred, where=pos)
        like += 1e-12
        np.log(like, out=like)
        losses.append(-(float(like.sum()) / n))
        np.subtract(pred, y, out=grad)
        w -= LEARNING_RATE * (xs.T @ grad) / n
        b -= LEARNING_RATE * (float(grad.sum()) / n)
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
