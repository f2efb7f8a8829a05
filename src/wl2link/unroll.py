"""Ground truth: bounded unrolling trees, exhaustive link isomorphism, certificates.

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
canonical forms: equality is exact, never a lossy hash. Each builder is
memoised per unit and depth.

``link_isomorphic`` (a Python search) and ``link_certificate`` (numpy codes over a
cached table of placements) are independent oracles that tests check against each other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .refine import Interner

TREE_KINDS = ("T_A", "T_B", "T_C", "T_D")


class UnrollError(ValueError):
    pass


@dataclass(frozen=True)
class UnrollTree:
    kind: str
    depth: int
    canonical_id: int
    interner: Interner


def _check_target(g: Graph, e):
    p, q = e
    if not (0 <= p < g.n and 0 <= q < g.n):
        raise UnrollError(f"target ({p}, {q}) out of range")
    if p == q:
        raise UnrollError(f"target nodes must be distinct, got ({p}, {q})")
    return p, q


def _pair_label(eff: Graph, r: int, s: int):
    return (eff.labels[r], eff.labels[s], int(eff.has_edge(r, s)), int(r == s))


def _node_tree(eff: Graph, intern):
    @functools.cache
    def node(k, d):
        if d == 0:
            return intern((eff.labels[k],))
        return intern((eff.labels[k], tuple(sorted(node(l, d - 1) for l in eff.adj[k]))))

    return node


def _plain_pair_tree(eff: Graph, nbrs, intern):
    @functools.cache
    def pair(r, s, d):
        if d == 0:
            return intern((_pair_label(eff, r, s),))
        left = tuple(sorted(pair(r, i, d - 1) for i in nbrs[r]))
        right = tuple(sorted(pair(j, s, d - 1) for j in nbrs[s]))
        return intern((_pair_label(eff, r, s), left, right))

    return pair


def _folklore_tree(eff: Graph, intern):
    @functools.cache
    def pair(r, s, d):
        if d == 0:
            return intern((_pair_label(eff, r, s),))
        via = tuple(sorted((pair(r, u, d - 1), pair(u, s, d - 1)) for u in range(eff.n)))
        return intern((_pair_label(eff, r, s), via))

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
    p, q = _check_target(g, e)
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


DEFAULT_ISO_BOUND = 9


def link_isomorphic(g1: Graph, e1, g2: Graph, e2, masked: bool = False) -> bool:
    """Exhaustively search for a target-fixing edge/label-preserving bijection.

    With ``masked`` the target edge (if any) is removed from both graphs
    first, matching the engine's masked-target semantics. Graphs above
    ``DEFAULT_ISO_BOUND`` nodes are refused.
    """
    p1, q1 = _check_target(g1, e1)
    p2, q2 = _check_target(g2, e2)
    if g1.n != g2.n:
        return False
    if g1.n > DEFAULT_ISO_BOUND:
        raise UnrollError(
            f"n={g1.n} exceeds the exhaustive-search bound {DEFAULT_ISO_BOUND}"
        )
    if masked:
        g1 = g1.without_edge(p1, q1)
        g2 = g2.without_edge(p2, q2)
    if g1.m != g2.m:
        return False
    if sorted(g1.labels) != sorted(g2.labels):
        return False
    if sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return False
    if (g1.labels[p1], g1.labels[q1]) != (g2.labels[p2], g2.labels[q2]):
        return False
    if (g1.degree(p1), g1.degree(q1)) != (g2.degree(p2), g2.degree(q2)):
        return False
    rest1 = [v for v in range(g1.n) if v not in (p1, q1)]
    rest2 = [v for v in range(g2.n) if v not in (p2, q2)]
    edges2 = g2.edges
    for perm in itertools.permutations(rest2):
        pi = {p1: p2, q1: q2}
        pi.update(zip(rest1, perm))
        ok = True
        for v in rest1:
            if g1.labels[v] != g2.labels[pi[v]]:
                ok = False
                break
        if not ok:
            continue
        for u, v in g1.edges:
            a, b = pi[u], pi[v]
            if ((a, b) if a < b else (b, a)) not in edges2:
                ok = False
                break
        if ok:
            return True
    return False


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
    p, q = _check_target(g, e)
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
