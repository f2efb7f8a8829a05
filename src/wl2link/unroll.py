"""Ground truth: bounded unrolling trees, link isomorphism, certificates.

Three tree builders mirror the refinement rules:

- node tree (T_B), the 1-WL rule: a node's label and the multiset of its
  neighbours' trees. A target's tree is the pair of its endpoints' trees.
  It mirrors WL1, and WL1_Label01 when built over the 0/1 labels of
  ``label01``.
- local pair tree (T_A), the plain rule over observed neighbours: a pair
  (r, s)'s label and the multisets of the trees of (r, i) and of (j, s),
  for i in adj[r] and j in adj[s]. It mirrors WL2_Local.
- dense pair tree, over every node: the plain rule with every node for a
  neighbour (T_C, WL2), or the folklore rule (T_D, FWL2), a pair's label
  and the multiset of the tree pairs of (r, u) and (u, s) over every u.

There is no FWL2_Local tree yet. In the pair trees a target's tree is the
target pair's own tree. Trees are built on the masked graph, so the
target's label carries no edge bit, and are compared via hash-consed
canonical forms: equality is exact, never a lossy hash. Every pair's label
comes from one n x n table built once per tree.

A builder fills one depth at a time, from depth 0 up to the root at depth
D, each from the one below it, with no recursion and no cache:

- The local builders first walk down from the root to find the units each
  depth reads: the node tree's nodes at depth d are the neighbours of its
  nodes at d + 1; the local pair tree's pairs at depth d are the (r, i) and
  (j, s) of the rows r and columns s of its pairs at d + 1. They then fill
  those units bottom-up in dicts, each row and column once per depth.
- The dense builder needs no walk. Depths 0 to D - 2 are full n x n
  tables of ids: for the plain rule each row and column is sorted once,
  for the folklore rule they are kept in node order and zipped into the
  entry pairs. Depth D - 1 builds only row p and column q, and depth D the
  root. For D >= 2 the depth above every full table reads all its rows or
  all its columns, so all its pairs; for D = 1 depth 0 is row p and
  column q alone.

These are exactly the (unit, depth) that the recursion, a tree at depth d
asking for its children's at d - 1, reaches from the root. So the interner
receives the recursion's signatures up to the children's ids: the same
partition of trees and the same table size. Only the ids, numbered in
first-appearance order, differ.

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


def _node_tree(eff: Graph, p: int, q: int, depth: int, intern):
    """The node tree of (p, q) (T_B): the pair of its endpoints' trees."""
    adj, lab = eff.adj, eff.labels
    nodes, levels = {p, q}, []  # per depth from the top: its nodes
    for _ in range(depth):
        levels.append(nodes)
        nodes = {l for k in nodes for l in adj[k]}
    ids = {k: intern((lab[k],)) for k in nodes}
    for nodes in reversed(levels):
        ids = {k: intern((lab[k], tuple(sorted([ids[l] for l in adj[k]])))) for k in nodes}
    return intern((ids[p], ids[q]))


def _local_pair_tree(eff: Graph, p: int, q: int, depth: int, intern):
    """The plain-pair tree of (p, q) over the observed neighbours (T_A)."""
    label, nbrs = _pair_labels(eff), eff.adj
    units, levels = {(p, q)}, []  # per depth from the top: its pairs, rows and columns
    for _ in range(depth):
        rows, cols = {r for r, _ in units}, {s for _, s in units}
        levels.append((units, rows, cols))
        units = {(r, i) for r in rows for i in nbrs[r]} | {(j, s) for s in cols for j in nbrs[s]}
    ids = {(r, s): intern((label[r][s],)) for r, s in units}
    for units, rows, cols in reversed(levels):
        row = {r: tuple(sorted([ids[r, i] for i in nbrs[r]])) for r in rows}
        col = {s: tuple(sorted([ids[j, s] for j in nbrs[s]])) for s in cols}
        ids = {(r, s): intern((label[r][s], row[r], col[s])) for r, s in units}
    return ids[p, q]


def _dense_tree(eff: Graph, p: int, q: int, depth: int, intern, folklore: bool):
    """The pair tree of (p, q) over every node: plain (T_C) or folklore (T_D)."""
    label, repeat = _pair_labels(eff), itertools.repeat
    if depth == 0:
        return intern((label[p][q],))
    if folklore:  # rows and columns in node order, zipped into entry pairs
        line = tuple

        def sigs(labs, rows, cols):
            return zip(labs, [tuple(sorted(zip(r, c))) for r, c in zip(rows, cols)])

    else:  # sorted rows and columns: a signature is (label, row, column)

        def line(trees):
            return tuple(sorted(trees))

        sigs = zip

    def ids(labs, rows, cols):  # the trees of the pairs with labs[i], rows[i] and cols[i]
        return list(map(intern, sigs(labs, rows, cols)))

    def lines(table):  # every row's and every column's line
        return list(map(line, table)), list(map(line, zip(*table)))

    col_q = [labs[q] for labs in label]
    if depth == 1:  # depth 0's row p and column q
        row, col = [intern((lab,)) for lab in label[p]], [intern((lab,)) for lab in col_q]
    else:
        rows, cols = lines([[intern((lab,)) for lab in labs] for labs in label])
        for _ in range(depth - 2):
            rows, cols = lines([ids(labs, repeat(r), cols) for labs, r in zip(label, rows)])
        row, col = ids(label[p], repeat(rows[p]), cols), ids(col_q, rows, repeat(cols[q]))
    return ids([label[p][q]], [line(row)], [line(col)])[0]


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
        cid = _node_tree(eff, p, q, depth, intern)
    elif kind == "T_A":
        cid = _local_pair_tree(eff, p, q, depth, intern)
    else:
        cid = _dense_tree(eff, p, q, depth, intern, folklore=kind == "T_D")
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
