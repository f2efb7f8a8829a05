"""Ground-truth machinery: bounded unrolling trees and exhaustive link isomorphism.

The four tree families mirror the neighborhood structure of the four
pair-refinement flavors: T_A (edge-restricted pair tree), T_B (two node
trees rooted at the endpoints), T_C (all-pairs plain tree), T_D (folklore
pair-of-pairs tree). Trees are built on the masked graph (target edge
removed; root carries no edge indicator) and compared via hash-consed
canonical forms, so equality is exact, never a lossy hash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def _unroll_b(eff: Graph, p: int, q: int, depth: int, intern, memo):
    def node(k, d):
        key = (k, d)
        form = memo.get(key)
        if form is None:
            if d == 0:
                form = intern(("bn", eff.labels[k]))
            else:
                form = intern(
                    ("bn", eff.labels[k], tuple(sorted(node(l, d - 1) for l in eff.adj[k])))
                )
            memo[key] = form
        return form

    if depth == 0:
        return intern(("Broot", eff.labels[p], eff.labels[q]))
    left = tuple(sorted(node(i, depth - 1) for i in eff.adj[p]))
    right = tuple(sorted(node(j, depth - 1) for j in eff.adj[q]))
    return intern(("Broot", eff.labels[p], eff.labels[q], left, right))


def _unroll_a(eff: Graph, p: int, q: int, depth: int, intern, memo):
    def node(r, s, d):
        key = (r, s, d)
        form = memo.get(key)
        if form is None:
            lab = (eff.labels[r], eff.labels[s])
            if d == 0:
                form = intern(("an", lab))
            else:
                left = tuple(sorted(node(r, i, d - 1) for i in eff.adj[r]))
                right = tuple(sorted(node(j, s, d - 1) for j in eff.adj[s]))
                form = intern(("an", lab, left, right))
            memo[key] = form
        return form

    # Root label omits the edge indicator: the target's existence is unknown.
    if depth == 0:
        return intern(("Aroot", eff.labels[p], eff.labels[q]))
    left = tuple(sorted(node(p, i, depth - 1) for i in eff.adj[p]))
    right = tuple(sorted(node(j, q, depth - 1) for j in eff.adj[q]))
    return intern(("Aroot", eff.labels[p], eff.labels[q], left, right))


def _unroll_c(eff: Graph, p: int, q: int, depth: int, intern, memo):
    n = eff.n

    def node(r, s, d):
        key = (r, s, d)
        form = memo.get(key)
        if form is None:
            lab = (
                eff.labels[r],
                eff.labels[s],
                1 if r != s and eff.has_edge(r, s) else 0,
                1 if r == s else 0,
            )
            if d == 0:
                form = intern(("cn", lab))
            else:
                left = tuple(sorted(node(r, i, d - 1) for i in range(n)))
                right = tuple(sorted(node(j, s, d - 1) for j in range(n)))
                form = intern(("cn", lab, left, right))
            memo[key] = form
        return form

    if depth == 0:
        return intern(("Croot", eff.labels[p], eff.labels[q]))
    left = tuple(sorted(node(p, i, depth - 1) for i in range(n)))
    right = tuple(sorted(node(j, q, depth - 1) for j in range(n)))
    return intern(("Croot", eff.labels[p], eff.labels[q], left, right))


def _unroll_d(eff: Graph, p: int, q: int, depth: int, intern, memo):
    n = eff.n

    def node(a, r, b, d):
        # the pair-of-pairs ((a, r), (r, b))
        key = (a, r, b, d)
        form = memo.get(key)
        if form is None:
            lab = (
                eff.labels[a],
                eff.labels[r],
                eff.labels[b],
                1 if a != r and eff.has_edge(a, r) else 0,
                1 if r != b and eff.has_edge(r, b) else 0,
                1 if a == r else 0,
                1 if r == b else 0,
            )
            if d == 0:
                form = intern(("dn", lab))
            else:
                left = tuple(sorted(node(a, t, r, d - 1) for t in range(n)))
                right = tuple(sorted(node(r, s, b, d - 1) for s in range(n)))
                form = intern(("dn", lab, left, right))
            memo[key] = form
        return form

    if depth == 0:
        return intern(("Droot", eff.labels[p], eff.labels[q]))
    children = tuple(sorted(node(p, i, q, depth - 1) for i in range(n)))
    return intern(("Droot", eff.labels[p], eff.labels[q], children))


_BUILDERS = {"T_A": _unroll_a, "T_B": _unroll_b, "T_C": _unroll_c, "T_D": _unroll_d}


def unroll(kind: str, g: Graph, e, depth: int, interner: Interner = None) -> UnrollTree:
    """Build the depth-limited tree for target pair e with masked semantics.

    Trees compare only when built with the same ``interner``; without one,
    the tree gets a fresh table of its own.
    """
    if kind not in _BUILDERS:
        raise UnrollError(f"unknown tree kind {kind!r}; valid: {TREE_KINDS}")
    if depth < 0:
        raise UnrollError("depth must be >= 0")
    p, q = e
    if not (0 <= p < g.n and 0 <= q < g.n):
        raise UnrollError(f"target ({p}, {q}) out of range")
    interner = interner if interner is not None else Interner()
    eff = g.without_edge(p, q)
    cid = _BUILDERS[kind](eff, p, q, depth, interner.intern, {})
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
    p1, q1 = e1
    p2, q2 = e2
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


def link_certificate(g: Graph, e, masked: bool = True):
    """Canonical form of (graph, target): equal iff target-fixing isomorphic.

    Pins the target to positions (0, 1) and minimizes the (labels, edges)
    encoding over all placements of the remaining nodes. Exponential: graphs
    above ``DEFAULT_ISO_BOUND`` nodes are refused.
    """
    if g.n > DEFAULT_ISO_BOUND:
        raise UnrollError(
            f"n={g.n} exceeds the exhaustive-search bound {DEFAULT_ISO_BOUND}"
        )
    p, q = e
    if masked:
        g = g.without_edge(p, q)
    rest = [v for v in range(g.n) if v not in (p, q)]
    best = None
    for perm in itertools.permutations(range(2, g.n)):
        pi = {p: 0, q: 1}
        pi.update(zip(rest, perm))
        labels = tuple(g.labels[v] for v in sorted(pi, key=pi.get))
        edges = tuple(
            sorted(
                (pi[u], pi[v]) if pi[u] < pi[v] else (pi[v], pi[u])
                for u, v in g.edges
            )
        )
        cand = (labels, edges)
        if best is None or cand < best:
            best = cand
    return (g.n, best)
