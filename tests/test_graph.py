import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wl2link.generate import complete_graph, cycle_graph, erdos_renyi, path_graph
from wl2link.graph import (
    EdgeListParseError,
    Graph,
    GraphError,
    disjoint_union,
    label01,
    load_edgelist,
    load_labels,
    permute,
    sample_non_edges,
    split_links,
)
from wl2link.harness import builtin_fixtures


class TestBuild:
    def test_canonical_edges(self):
        g = Graph.build(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert g.m == 2
        assert g.adj == ((2,), (2,), (0, 1))

    def test_default_labels(self):
        assert Graph.build(2, [(0, 1)]).labels == (0, 0)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.build(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph.build(2, [(0, 2)])

    def test_rejects_bad_label_count(self):
        with pytest.raises(GraphError, match="labels"):
            Graph.build(2, [(0, 1)], labels=[1])

    def test_without_edge(self):
        g = cycle_graph(4)
        h = g.without_edge(1, 0)
        assert not h.has_edge(0, 1)
        assert h.m == g.m - 1
        assert g.without_edge(0, 2) is g  # absent edge: no copy

    def test_copies_match_build(self):
        # without_edge and label01 reuse what they do not change; the graphs
        # they give equal what Graph.build gives, field by field
        graphs = [g for f in builtin_fixtures() for g in (f.graph_a, f.graph_b)]
        graphs += [erdos_renyi(n, 0.4, seed=n) for n in (5, 8, 12)]
        graphs.append(Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], labels=[2, 0, 1, 0]))

        def fields(g):
            return g.n, g.edges, g.labels, g.adj

        for g in graphs:
            for u, v in g.edge_list():
                rest = Graph.build(g.n, g.edges - {(u, v)}, g.labels)
                assert fields(g.without_edge(u, v)) == fields(rest)
                assert fields(g.without_edge(v, u)) == fields(rest)
                marked = [2 * x + (w in (u, v)) for w, x in enumerate(g.labels)]
                assert fields(label01(g, (v, u))) == fields(Graph.build(g.n, g.edges, marked))


class TestEdgeListIO:
    def test_roundtrip_with_comments(self):
        g = load_edgelist("# header\n0 1\n1 2  # trailing\n\n")
        assert g.n == 3 and g.m == 2

    def test_bad_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load_edgelist("0 1\n0 1 2\n")
        assert exc.value.line_no == 2

    def test_non_integer(self):
        with pytest.raises(EdgeListParseError):
            load_edgelist("0 x\n")

    def test_labels(self):
        labels = load_labels("# labels\n3\n1\n")
        g = load_edgelist("0 1\n", labels)
        assert g.labels == (3, 1)

    def test_label_count_bounds_ids(self):
        with pytest.raises(GraphError):
            load_edgelist("0 5\n", [0, 0])


class TestPermute:
    @given(st.integers(0, 2**31), st.integers(4, 10))
    @settings(max_examples=30, deadline=None)
    def test_structure_preserved(self, seed, n):
        rng = random.Random(seed)
        g = erdos_renyi(n, 0.4, seed=seed % 1000)
        pi = list(range(n))
        rng.shuffle(pi)
        h = permute(g, pi)
        assert h.m == g.m
        for u, v in g.edges:
            assert h.has_edge(pi[u], pi[v])
        assert all(h.labels[pi[v]] == g.labels[v] for v in range(n))

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphError):
            permute(path_graph(3), [0, 0, 1])


def test_disjoint_union():
    g, off = disjoint_union(path_graph(2), cycle_graph(3))
    assert off == 2
    assert g.n == 5 and g.m == 4
    assert g.has_edge(0, 1) and g.has_edge(2, 3)


class TestLabel01:
    def test_marks_targets_injectively(self):
        g = Graph.build(3, [(0, 1)], labels=[0, 0, 1])
        h = label01(g, (0, 2))
        assert h.labels == (1, 0, 3)

    def test_symmetric_in_orientation(self):
        g = cycle_graph(5)
        assert label01(g, (1, 3)).labels == label01(g, (3, 1)).labels

    def test_rejects_diagonal(self):
        with pytest.raises(GraphError):
            label01(cycle_graph(3), (1, 1))


class TestSplit:
    def test_counts_and_disjointness(self):
        g = erdos_renyi(40, 0.3, seed=1)
        split = split_links(g, 0.10, 0.05, seed=3)
        assert len(split.test_pos) == int(0.10 * g.m)
        assert len(split.val_pos) == int(0.05 * g.m)
        assert len(split.test_neg) == len(split.test_pos)
        assert len(split.val_neg) == len(split.val_pos)
        held = set(split.test_pos) | set(split.val_pos)
        assert held.isdisjoint(split.train_graph.edges)
        assert split.train_graph.m + len(held) == g.m
        negs = set(split.test_neg) | set(split.val_neg)
        assert negs.isdisjoint(g.edges)
        assert set(split.test_neg).isdisjoint(split.val_neg)

    def test_deterministic(self):
        g = erdos_renyi(30, 0.3, seed=2)
        a = split_links(g, 0.10, 0.05, seed=9)
        b = split_links(g, 0.10, 0.05, seed=9)
        assert a == b

    def test_too_small(self):
        with pytest.raises(GraphError):
            split_links(path_graph(3), 0.10, 0.05, seed=0)

    def test_bad_fractions(self):
        g = erdos_renyi(30, 0.3, seed=2)
        with pytest.raises(GraphError):
            split_links(g, 0.7, 0.4, seed=0)


class TestSampleNonEdges:
    def test_dense_fallback(self):
        g = complete_graph(6).without_edge(0, 1).without_edge(2, 3)
        rng = random.Random(0)
        got = sample_non_edges(g, 2, rng)
        assert sorted(got) == [(0, 1), (2, 3)]

    def test_respects_forbidden(self):
        g = path_graph(4)
        rng = random.Random(0)
        got = sample_non_edges(g, 2, rng, forbidden=[(0, 2)])
        assert (0, 2) not in got and len(got) == 2

    def test_forbidden_counts_only_non_edges_in_either_orientation(self):
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])  # non-edges 02, 03, 13
        got = sample_non_edges(g, 3, random.Random(0), forbidden=[(0, 1)])
        assert got == [(0, 2), (0, 3), (1, 3)]
        for seed in range(10):
            got = sample_non_edges(g, 2, random.Random(seed), forbidden=[(2, 0)])
            assert got == [(0, 3), (1, 3)]
        got = sample_non_edges(g, 2, random.Random(0), forbidden=[(0, 2), (2, 0)])
        assert got == [(0, 3), (1, 3)]
        with pytest.raises(GraphError, match="only 2 available"):
            sample_non_edges(g, 3, random.Random(0), forbidden=[(2, 0)])

    def test_insufficient(self):
        with pytest.raises(GraphError):
            sample_non_edges(complete_graph(4), 1, random.Random(0))
