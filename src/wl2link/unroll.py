"""Ground truth: bounded unrolling trees, link isomorphism, certificates.

Three tree builders mirror the three refinement rules:

- node tree (T_B), the 1-WL rule: a node's label and the multiset of its
  neighbours' trees. A target's tree is the pair of its endpoints' trees.
  It mirrors WL1, and WL1_Label01 when built over the 0/1 labels of
  ``label01``.
- plain-pair tree (T_A, T_C): a pair (r, s)'s label and the multisets of
  the trees of (r, i) and of (j, s), for i in nbrs[r] and j in nbrs[s].
  T_A takes the observed neighbours (WL2_Local), T_C every node (WL2).
- folklore tree (T_D): a pair's label and the multiset of the tree pairs
  of (r, u) and (u, s) over every node u (FWL2).

There is no FWL2_Local tree yet. In the pair trees a target's tree is the
target pair's own tree. Trees are built on the masked graph, so the
target's label carries no edge bit, and are compared via hash-consed
canonical forms: equality is exact, never a lossy hash. The node tree is
memoised per node and depth. A pair tree is memoised per pair and depth,
and builds each node's row (the trees of (r, u)) and column (of (u, s))
once per depth, which every pair of that row or column then shares: the
plain tree's sorted multisets, the folklore tree's lists in node order,
zipped into its entry pairs. Every pair's label comes from one n x n table
built once per tree.

``link_isomorphic`` (networkx's VF2++, up to ``DEFAULT_DENSE_NODE_LIMIT`` =
128 nodes) and ``link_certificate`` (an exhaustive search, numpy codes over a
cached table of placements, up to ``DEFAULT_ISO_BOUND`` = 9 nodes) are
independent oracles that tests check against each other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .graph import Graph, check_target
from .refine import DEFAULT_DENSE_NODE_LIMIT, Interner

TREE_KINDS = ("T_A", "T_B", "T_C", "T_D")


class UnrollError(ValueError):
    pass


@dataclass(frozen=True)
class UnrollTree:
    kind: str
    depth: int
    canonical_id: int
    interner: Interner


def _pair_labels(eff: Graph):
    """Every pair (r, s)'s label at [r][s]: the labels of r and s, the edge
    bit and the diagonal bit."""
    lab = eff.labels
    table = [[(x, y, 0, 0) for y in lab] for x in lab]
    for r, (x, nb) in enumerate(zip(lab, eff.adj)):
        for s in nb:
            table[r][s] = (x, lab[s], 1, 0)
        table[r][r] = (x, x, 0, 1)
    return table


def _node_tree(eff: Graph, intern):
    @functools.cache
    def node(k, d):
        if d == 0:
            return intern((eff.labels[k],))
        return intern((eff.labels[k], tuple(sorted(node(l, d - 1) for l in eff.adj[k]))))

    return node


def _plain_pair_tree(eff: Graph, nbrs, intern):
    label = _pair_labels(eff)

    @functools.cache
    def row(r, d):  # the sorted trees of (r, i), i in nbrs[r]
        return tuple(sorted(pair(r, i, d) for i in nbrs[r]))

    @functools.cache
    def col(s, d):  # the sorted trees of (j, s), j in nbrs[s]
        return tuple(sorted(pair(j, s, d) for j in nbrs[s]))

    @functools.cache
    def pair(r, s, d):
        if d == 0:
            return intern((label[r][s],))
        return intern((label[r][s], row(r, d - 1), col(s, d - 1)))

    return pair


def _folklore_tree(eff: Graph, intern):
    label, nodes = _pair_labels(eff), range(eff.n)

    @functools.cache
    def row(r, d):  # the trees of (r, u) in node order
        return [pair(r, u, d) for u in nodes]

    @functools.cache
    def col(s, d):  # the trees of (u, s) in node order
        return [pair(u, s, d) for u in nodes]

    @functools.cache
    def pair(r, s, d):
        if d == 0:
            return intern((label[r][s],))
        return intern((label[r][s], tuple(sorted(zip(row(r, d - 1), col(s, d - 1))))))

    return pair


def unroll(kind: str, g: Graph, e, depth: int, interner: Interner = None) -> UnrollTree:
    """Build the depth-limited tree for target pair e with masked semantics.

    Trees compare only when built with the same ``interner``; without one,
    the tree gets a fresh table of its own.
    """
    if kind not in TREE_KINDS:
        raise UnrollError(f"unknown tree kind {kind!r}; valid: {TREE_KINDS}")
    if depth < 0:
        raise UnrollError("depth must be >= 0")
    p, q = check_target(g, e)
    interner = interner if interner is not None else Interner()
    intern = interner.intern
    eff = g.without_edge(p, q)
    if kind == "T_B":
        node = _node_tree(eff, intern)
        cid = intern((node(p, depth), node(q, depth)))
    elif kind == "T_D":
        cid = _folklore_tree(eff, intern)(p, q, depth)
    else:
        nbrs = eff.adj if kind == "T_A" else (tuple(range(eff.n)),) * eff.n
        cid = _plain_pair_tree(eff, nbrs, intern)(p, q, depth)
    return UnrollTree(kind=kind, depth=depth, canonical_id=cid, interner=interner)


def tree_equal(t1: UnrollTree, t2: UnrollTree) -> bool:
    if t1.kind != t2.kind or t1.depth != t2.depth:
        raise UnrollError("trees of different kind or depth are not comparable")
    if t1.interner is not t2.interner:
        raise UnrollError("trees built with different interners are not comparable")
    return t1.canonical_id == t2.canonical_id


def _link_invariant(g: Graph, p: int, q: int):
    return (g.n, g.m, sorted(zip(map(len, g.adj), g.labels)),
            g.labels[p], g.labels[q], g.degree(p), g.degree(q))


def _role_graph(g: Graph, p: int, q: int) -> nx.Graph:
    """g as an ``nx.Graph`` whose node v carries (label, role): role 1 for p,
    2 for q, 0 otherwise."""
    h = nx.Graph()
    roles = {p: 1, q: 2}
    h.add_nodes_from((v, {"key": (lab, roles.get(v, 0))}) for v, lab in enumerate(g.labels))
    h.add_edges_from(g.edges)
    return h


def link_isomorphic(g1: Graph, e1, g2: Graph, e2, masked: bool = False) -> bool:
    """Is there a label-preserving isomorphism g1 -> g2 mapping p1 to p2 and
    q1 to q2? Decided by networkx's VF2++ (Jüttner & Madarasi, 2018) on
    nodes labelled (label, role), after a cheap invariant compare.

    With ``masked`` the target edge (if any) is removed from both graphs
    first, matching the engine's masked-target semantics. Pairs that pass
    the compare and have more nodes than the engine's dense cap,
    ``DEFAULT_DENSE_NODE_LIMIT``, are refused.
    """
    ends1 = check_target(g1, e1)
    ends2 = check_target(g2, e2)
    if masked:
        g1 = g1.without_edge(*ends1)
        g2 = g2.without_edge(*ends2)
    if _link_invariant(g1, *ends1) != _link_invariant(g2, *ends2):
        return False
    if g1.n > DEFAULT_DENSE_NODE_LIMIT:
        raise UnrollError(f"n={g1.n} exceeds the VF2++ bound {DEFAULT_DENSE_NODE_LIMIT}")
    h1, h2 = _role_graph(g1, *ends1), _role_graph(g2, *ends2)
    return nx.vf2pp_is_isomorphic(h1, h2, node_label="key")


DEFAULT_ISO_BOUND = 9


@functools.cache
def _placements(n: int):
    """Rows (0, 1, *perm) for every perm of 2..n-1, in permutations order."""
    table = np.array([(0, 1, *t) for t in itertools.permutations(range(2, n))], np.intp)
    table.flags.writeable = False
    return table


@functools.cache
def _pair_weights(n: int):
    """Symmetric n x n weights: pair (i, j), i < j, at row-major index k weighs
    2**(T - 1 - k), T = n(n - 1)/2 <= 36, so one int64 sum codes an edge set."""
    iu, ju = np.triu_indices(n, 1)
    weights = np.zeros((n, n), dtype=np.int64)
    weights[iu, ju] = 1 << np.arange(len(iu) - 1, -1, -1, dtype=np.int64)
    weights += weights.T
    weights.flags.writeable = False
    return weights


def link_certificate(g: Graph, e, masked: bool = True):
    """Canonical form of (graph, target): equal iff target-fixing isomorphic.

    Pins the target to positions (0, 1) and takes the smallest (labels, edges)
    encoding over the (n - 2)! placements of the other nodes, coded at once
    with the tables above (cached per n). All placements have m edges, so
    where two edge sets first differ in row-major order, the one holding that
    pair has the smaller sorted edge tuple: the smallest tuple has the largest
    weight sum. Labels code as base-b digits of their ranks among b values.
    Exponential: graphs above ``DEFAULT_ISO_BOUND`` nodes are refused.
    """
    p, q = check_target(g, e)
    if g.n > DEFAULT_ISO_BOUND:
        raise UnrollError(
            f"n={g.n} exceeds the exhaustive-search bound {DEFAULT_ISO_BOUND}"
        )
    if masked:
        g = g.without_edge(p, q)
    order = [p, q] + [v for v in range(g.n) if v not in (p, q)]
    pos = _placements(g.n)[:, np.argsort(order)]  # node v sits at pos[r, v]
    eu, ev = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T
    ecode = _pair_weights(g.n)[pos[:, eu], pos[:, ev]].sum(axis=1)
    values, ranks = np.unique(g.labels, return_inverse=True)
    digits = len(values) ** np.arange(g.n - 1, -1, -1, dtype=np.int64)
    lcode = (digits[pos] * ranks).sum(axis=1)
    at = pos[np.lexsort((-ecode, lcode))[0]].tolist()
    labels = tuple(g.labels[v] for v in sorted(range(g.n), key=at.__getitem__))
    edges = [(at[u], at[v]) if at[u] < at[v] else (at[v], at[u]) for u, v in g.edges]
    return (g.n, (labels, tuple(sorted(edges))))
