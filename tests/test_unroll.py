import functools
import itertools
import random
import sys

import networkx as nx
import pytest

from wl2link.generate import cycle_graph, erdos_renyi, path_graph
from wl2link.graph import Graph, GraphError, disjoint_union, permute
from wl2link.refine import Interner
from wl2link.unroll import (
    TREE_KINDS,
    UnrollError,
    link_certificate,
    link_isomorphic,
    tree_equal,
    unroll,
)


def test_package_attribute_is_the_module():
    # the package does not re-export the function under its module's name
    import wl2link
    import wl2link.unroll as module

    assert module is sys.modules["wl2link.unroll"] is wl2link.unroll
    assert module.unroll is unroll and callable(unroll)


class TestUnrollBasics:
    def test_depth_zero_label_only(self):
        g = path_graph(3)
        it = Interner()
        t1 = unroll("T_B", g, (0, 1), 0, it)
        t2 = unroll("T_B", g, (0, 2), 0, it)
        assert tree_equal(t1, t2)  # unlabeled graph: all roots look alike

    def test_rejects_unknown_kind(self):
        with pytest.raises(UnrollError, match="valid"):
            unroll("T_X", path_graph(3), (0, 1), 1)

    def test_rejects_negative_depth(self):
        with pytest.raises(UnrollError):
            unroll("T_A", path_graph(3), (0, 1), -1)

    @pytest.mark.parametrize(
        "target,match", [((0, 9), "out of range"), ((1, 1), "distinct")]
    )
    def test_every_oracle_rejects_bad_targets(self, target, match):
        # the same targets every refinement session rejects
        g = path_graph(4)
        for check in (
            lambda: unroll("T_D", g, target, 2),
            lambda: link_isomorphic(g, target, g, (0, 1)),
            lambda: link_isomorphic(g, (0, 1), g, target),
            lambda: link_certificate(g, target),
        ):
            with pytest.raises(GraphError, match=match):
                check()

    def test_rejects_mismatched_comparison(self):
        g = path_graph(3)
        it = Interner()
        ta = unroll("T_A", g, (0, 1), 1, it)
        tb = unroll("T_B", g, (0, 1), 1, it)
        with pytest.raises(UnrollError):
            tree_equal(ta, tb)
        with pytest.raises(UnrollError):
            tree_equal(ta, unroll("T_A", g, (0, 1), 2, it))

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_masked_semantics(self, kind):
        # The target edge is removed: P2's edge pair unrolls exactly like
        # the same two nodes with no edge at all.
        g_edge = path_graph(2)
        g_none = path_graph(2).without_edge(0, 1)
        it = Interner()
        for depth in range(3):
            t1 = unroll(kind, g_edge, (0, 1), depth, it)
            t2 = unroll(kind, g_none, (0, 1), depth, it)
            assert tree_equal(t1, t2)

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_depth_separates_c6_targets(self, kind):
        # Masked C6: (0,1) leaves a P6 (endpoint targets), (0,3) leaves
        # symmetric distance-3 nodes; every family eventually separates them.
        c6 = cycle_graph(6)
        it = Interner()
        verdicts = [
            tree_equal(
                unroll(kind, c6, (0, 1), d, it), unroll(kind, c6, (0, 3), d, it)
            )
            for d in range(4)
        ]
        assert verdicts[0] is True
        assert False in verdicts

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_equivariance(self, kind):
        g = erdos_renyi(7, 0.4, seed=8)
        pi = list(range(7))
        random.Random(5).shuffle(pi)
        h = permute(g, pi)
        it = Interner()
        for depth in range(5):
            t1 = unroll(kind, g, (1, 4), depth, it)
            t2 = unroll(kind, h, (pi[1], pi[4]), depth, it)
            assert tree_equal(t1, t2)


def reference_unroll(kind, g, e, depth, interner):
    """A tree's canonical id as a direct recursion: every (r, s, d) builds
    its own multisets and asks the graph for its label, memoised only per
    (r, s, d); the folklore tree takes its entry pairs node by node."""
    p, q = e
    eff = g.without_edge(p, q)
    intern = interner.intern

    def label(r, s):
        return (eff.labels[r], eff.labels[s], int(eff.has_edge(r, s)), int(r == s))

    @functools.cache
    def node(k, d):
        if d == 0:
            return intern((eff.labels[k],))
        return intern((eff.labels[k], tuple(sorted(node(v, d - 1) for v in eff.adj[k]))))

    nbrs = eff.adj if kind == "T_A" else (tuple(range(eff.n)),) * eff.n

    @functools.cache
    def pair(r, s, d):
        if d == 0:
            return intern((label(r, s),))
        if kind == "T_D":
            via = tuple(sorted((pair(r, u, d - 1), pair(u, s, d - 1)) for u in range(eff.n)))
            return intern((label(r, s), via))
        left = tuple(sorted(pair(r, i, d - 1) for i in nbrs[r]))
        right = tuple(sorted(pair(j, s, d - 1) for j in nbrs[s]))
        return intern((label(r, s), left, right))

    return intern((node(p, depth), node(q, depth))) if kind == "T_B" else pair(p, q, depth)


def atlas_links():
    """Every ordered target (p, q) of every atlas graph with 2 to 5 nodes,
    unlabelled and with labels v % 2."""
    links = []
    for h in nx.graph_atlas_g()[2:53]:
        n = h.number_of_nodes()
        for labels in (None, [v % 2 for v in range(n)]):
            g = Graph.build(n, h.edges(), labels)
            links += [(g, e) for e in itertools.permutations(range(n), 2)]
    return links


def labelled_er_links():
    """Targets on labelled G(n, p) graphs with n = 6 to 8, each in both
    orientations and on a relabelled copy."""
    rng = random.Random(26)
    links = []
    for n in range(6, 9):
        for p in (0.3, 0.5, 0.7):
            g = random_graph(rng, n, p, (0, 1, 5))
            a, b = rng.sample(range(n), 2)
            pi = rng.sample(range(n), n)
            links += [(g, (a, b)), (g, (b, a)), (permute(g, pi), (pi[a], pi[b]))]
    return links


class TestTreesMatchTheReference:
    """The builders fill one depth at a time; the trees they give are the
    direct recursion's. Depth 4 is the first at which the dense builder
    fills two full tables past depth 0."""

    @staticmethod
    def check(kind, links):
        for depth in range(5):
            shared, ref_shared = Interner(), Interner()
            ids = []
            for g, e in links:
                got = unroll(kind, g, e, depth, shared).canonical_id
                want = reference_unroll(kind, g, e, depth, ref_shared)
                ids.append((got, want))
                alone, ref_alone = Interner(), Interner()
                unroll(kind, g, e, depth, alone)
                reference_unroll(kind, g, e, depth, ref_alone)
                assert len(alone) == len(ref_alone), (kind, depth, g, e)
            assert len(shared) == len(ref_shared), (kind, depth)
            # equal trees under one builder are equal under the other
            got, want = zip(*ids)
            assert len(set(got)) == len(set(want)) == len(set(ids)), (kind, depth)

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_same_partition_and_table_size(self, kind):
        links = atlas_links()
        assert len(links) == 2 * 840
        self.check(kind, links)

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_labelled_er_graphs(self, kind):
        links = labelled_er_links()
        assert {g.n for g, _ in links} == {6, 7, 8}
        assert all(len(set(g.labels)) > 1 for g, _ in links)
        self.check(kind, links)


class TestLinkIsomorphic:
    def test_permuted_copy(self):
        g = erdos_renyi(7, 0.4, seed=8)
        pi = list(range(7))
        random.Random(1).shuffle(pi)
        h = permute(g, pi)
        assert link_isomorphic(g, (0, 3), h, (pi[0], pi[3]))

    def test_rejects_different_targets(self):
        c6 = cycle_graph(6)
        assert not link_isomorphic(c6, (0, 1), c6, (0, 2))

    def test_masked_mode(self):
        # With masking, C6's (0,2) target matches the same graph minus that
        # chord... trivially: compare edge-present vs edge-absent variants.
        c6 = cycle_graph(6)
        from wl2link.graph import Graph

        with_chord = Graph.build(6, set(c6.edges) | {(0, 2)})
        assert not link_isomorphic(with_chord, (0, 2), c6, (0, 2))
        assert link_isomorphic(with_chord, (0, 2), c6, (0, 2), masked=True)

    def test_size_bound(self, monkeypatch):
        # n = 16 is decided; n = 129 is refused before networkx sees a graph
        g = erdos_renyi(16, 0.3, seed=0)
        pi = list(range(16))
        random.Random(2).shuffle(pi)
        assert link_isomorphic(g, (0, 1), permute(g, pi), (pi[0], pi[1]))
        big = erdos_renyi(129, 0.05, seed=0)
        module = sys.modules["wl2link.unroll"]

        def refuse(*args, **kwargs):
            raise AssertionError("networkx called above the bound")

        monkeypatch.setattr(module.nx, "Graph", refuse)
        monkeypatch.setattr(module.nx, "vf2pp_is_isomorphic", refuse)
        with pytest.raises(UnrollError, match="bound 128"):
            link_isomorphic(big, (0, 1), big, (0, 1))

    def test_cross_component_targets(self):
        c3c3, _ = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert link_isomorphic(c3c3, (0, 4), c3c3, (1, 5))
        assert not link_isomorphic(c3c3, (0, 1), c3c3, (0, 3))


def reference_certificate(g, e, masked=True):
    """The pure-Python certificate: builds and compares every placement's
    (labels, sorted edge tuple) in ``itertools.permutations`` order."""
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


def random_graph(rng, n, p, labels):
    """G(n, p) from ``rng``, with node labels drawn from ``labels`` if given."""
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    if labels is not None:
        labels = [rng.choice(labels) for _ in range(n)]
    return Graph.build(n, edges, labels)


def labelled_instances():
    """Labelled targets on n = 6..9, each with a relabelled copy, plus a
    second target on the same graph and a copy with one label changed."""
    rng = random.Random(11)
    instances = []
    for n in range(6, 10):
        for p in (0.3, 0.5):
            g = random_graph(rng, n, p, (-3, 0, 2, 7))
            e = tuple(rng.sample(range(n), 2))
            pi = list(range(n))
            rng.shuffle(pi)
            v = rng.randrange(n)
            changed = list(g.labels)
            changed[v] = 2 if changed[v] != 2 else -3
            instances += [
                (g, e),
                (permute(g, pi), (pi[e[0]], pi[e[1]])),
                (g, tuple(rng.sample(range(n), 2))),
                (Graph.build(n, g.edges, changed), e),
            ]
    return instances


class TestCertificate:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_reference(self, n):
        # byte-equal, so a numpy integer leaking into the tuple would fail
        rng = random.Random(n)
        for p in (0, 0.2, 0.5, 0.8, 1):
            for labels in (None, (-3, 0, 2, 7), (5, -1)):
                for _ in range(1 if n == 9 else 3):
                    g = random_graph(rng, n, p, labels)
                    a, b = rng.sample(range(n), 2)
                    for e in ((a, b), (b, a)):
                        for masked in (True, False):
                            want = reference_certificate(g, e, masked)
                            got = link_certificate(g, e, masked)
                            assert repr(got) == repr(want), (g, e, masked)

    def test_agrees_with_vf2pp_oracle(self):
        rng = random.Random(7)
        unlabelled = []
        for i in range(12):
            g = erdos_renyi(5, 0.45, seed=100 + i)
            p, q = rng.sample(range(5), 2)
            unlabelled.append((g, (p, q)))
        verdicts = set()
        for instances in (unlabelled, labelled_instances()):
            for g1, e1 in instances:
                for g2, e2 in instances:
                    want = link_isomorphic(g1, e1, g2, e2, masked=True)
                    got = link_certificate(g1, e1) == link_certificate(g2, e2)
                    assert want == got
                    verdicts.add((want, g1 is g2 and e1 == e2))
        # isomorphic copies and non-isomorphic pairs both occur
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_size_bound(self):
        # 8! placements at n = 10: refused before any is tried
        g = erdos_renyi(10, 0.3, seed=0)
        with pytest.raises(UnrollError, match="bound"):
            link_certificate(g, (0, 1))

    def test_orientation_matters_only_when_asymmetric(self):
        g = path_graph(3)
        assert link_certificate(g, (0, 1)) == link_certificate(g, (2, 1))
        assert link_certificate(g, (0, 1)) != link_certificate(g, (1, 0))
