"""Immutable undirected labeled graphs, edge-list I/O and link splitting."""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


class EdgeListParseError(GraphError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with integer node labels.

    ``edges`` holds canonical (u, v) pairs with u < v; ``adj`` holds a sorted
    neighbor tuple per node. Instances are immutable and safe to share.
    """

    n: int
    edges: frozenset  # of (u, v) tuples, u < v
    labels: tuple  # label id per node
    adj: tuple = field(compare=False)  # tuple of sorted neighbor tuples

    @staticmethod
    def build(n: int, edges, labels=None) -> "Graph":
        if n < 0:
            raise GraphError("negative node count")
        canon = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        if labels is None:
            labels = (0,) * n
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise GraphError(f"got {len(labels)} labels for {n} nodes")
        nbrs = [[] for _ in range(n)]
        for u, v in canon:
            nbrs[u].append(v)
            nbrs[v].append(u)
        adj = tuple(tuple(sorted(ns)) for ns in nbrs)
        return Graph(n=n, edges=frozenset(canon), labels=labels, adj=adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def without_edge(self, u: int, v: int) -> "Graph":
        """Copy with edge {u, v} removed; no-op if the edge is absent."""
        key = (u, v) if u < v else (v, u)
        if key not in self.edges:
            return self
        adj = list(self.adj)  # only the two endpoints' neighbours change
        adj[u] = tuple(x for x in adj[u] if x != v)
        adj[v] = tuple(x for x in adj[v] if x != u)
        return Graph(self.n, self.edges - {key}, self.labels, tuple(adj))

    def edge_list(self):
        return sorted(self.edges)


def _data_lines(text: str):
    """(line number, raw line, content) of each line not blank without its '#' comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, raw, line


def load_edgelist(text: str, labels=None) -> Graph:
    """Parse "u v" lines (0-based ids, '#' comments) into a Graph.

    Node count is 1 + max id seen, or len(labels) when a label list is given.
    """
    edges = []
    max_id = -1
    for line_no, raw, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {raw!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer node id in {raw!r}", line_no)
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative node id in {raw!r}", line_no)
        if u == v:
            raise EdgeListParseError(f"self-loop {u}", line_no)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if labels is not None:
        n = len(labels)
        if max_id >= n:
            raise GraphError(f"node id {max_id} out of range for {n} labels")
    else:
        n = max_id + 1
    return Graph.build(n, edges, labels)


def load_labels(text: str):
    """Parse one integer label per line ('#' comments allowed)."""
    labels = []
    for line_no, raw, line in _data_lines(text):
        try:
            labels.append(int(line))
        except ValueError:
            raise EdgeListParseError(f"non-integer label {raw!r}", line_no)
    return labels


def permute(g: Graph, pi) -> Graph:
    """Relabel nodes: edge {u,v} -> {pi[u],pi[v]}, label of pi[u] = label of u."""
    pi = list(pi)
    if sorted(pi) != list(range(g.n)):
        raise GraphError("pi is not a permutation of 0..n-1")
    edges = [(pi[u], pi[v]) for u, v in g.edges]
    labels = [0] * g.n
    for v in range(g.n):
        labels[pi[v]] = g.labels[v]
    return Graph.build(g.n, edges, labels)


def check_target(g: Graph, target):
    """(p, q) if they are distinct nodes of g, else GraphError: every layer's target check."""
    p, q = target
    if not (0 <= p < g.n and 0 <= q < g.n):
        raise GraphError(f"target ({p}, {q}) out of range")
    if p == q:
        raise GraphError(f"target nodes must be distinct, got ({p}, {q})")
    return p, q


def disjoint_union(g1: Graph, g2: Graph):
    """Concatenate two graphs; returns (graph, offset) with g2 shifted by g1.n."""
    off = g1.n
    edges = list(g1.edges) + [(u + off, v + off) for u, v in g2.edges]
    labels = g1.labels + g2.labels
    return Graph.build(g1.n + g2.n, edges, labels), off


def label01(g: Graph, target) -> Graph:
    """Mark the two target nodes: label -> 2*label + 1 on targets, 2*label else.

    The doubling keeps (original label, is_target) injective. Symmetric in the
    target's orientation.
    """
    p, q = check_target(g, target)
    labels = tuple(2 * lab + (1 if v in (p, q) else 0) for v, lab in enumerate(g.labels))
    return Graph(g.n, g.edges, labels, g.adj)


@dataclass(frozen=True)
class LinkSplit:
    train_graph: Graph
    val_pos: tuple
    val_neg: tuple
    test_pos: tuple
    test_neg: tuple


# Rejection sampling gives up after this many multiples of the request size
# and falls back to enumerating all non-edges (correct on dense graphs).
_NEG_SAMPLE_CAP = 50


def sample_non_edges(g: Graph, count: int, rng: random.Random, forbidden=()):
    """Sample ``count`` distinct non-edges of g uniformly, as (u, v) u < v.

    ``forbidden`` pairs are never drawn, in either orientation.
    """
    # only the forbidden non-edges shrink the pool
    forbidden = {(min(u, v), max(u, v)) for u, v in forbidden if u != v} - g.edges
    total_non_edges = g.n * (g.n - 1) // 2 - g.m - len(forbidden)
    if total_non_edges < count:
        raise GraphError(
            f"need {count} non-edges but only {total_non_edges} available"
        )
    chosen = set()
    attempts = 0
    cap = _NEG_SAMPLE_CAP * count
    while len(chosen) < count and attempts < cap:
        attempts += 1
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in g.edges or key in chosen or key in forbidden:
            continue
        chosen.add(key)
    if len(chosen) < count:
        pool = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if (u, v) not in g.edges and (u, v) not in forbidden and (u, v) not in chosen
        ]
        chosen.update(rng.sample(pool, count - len(chosen)))
    return sorted(chosen)


def split_links(g: Graph, test_frac: float, val_frac: float, seed: int) -> LinkSplit:
    """Hold out floor(frac*m) edges for test/validation plus matched negatives.

    Deterministic given the seed. Negatives are uniform non-edges of the
    original graph, disjoint between the validation and test sets.
    """
    if not (0 < test_frac < 1) or not (0 <= val_frac < 1):
        raise GraphError("fractions must lie in (0, 1)")
    if test_frac + val_frac >= 1:
        raise GraphError("test_frac + val_frac must be < 1")
    m = g.m
    n_test = int(test_frac * m)
    n_val = int(val_frac * m)
    if n_test < 1 or (val_frac > 0 and n_val < 1):
        raise GraphError(f"graph with m={m} too small for the given fractions")
    rng = random.Random(seed)
    edges = g.edge_list()
    rng.shuffle(edges)
    test_pos = tuple(sorted(edges[:n_test]))
    val_pos = tuple(sorted(edges[n_test : n_test + n_val]))
    held = set(test_pos) | set(val_pos)
    train = Graph.build(g.n, [e for e in g.edges if e not in held], g.labels)
    negs = sample_non_edges(g, n_test + n_val, rng)
    rng.shuffle(negs)
    test_neg = tuple(sorted(negs[:n_test]))
    val_neg = tuple(sorted(negs[n_test:]))
    return LinkSplit(
        train_graph=train,
        val_pos=val_pos,
        val_neg=val_neg,
        test_pos=test_pos,
        test_neg=test_neg,
    )
