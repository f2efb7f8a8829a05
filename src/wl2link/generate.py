"""Small graph constructors and seeded random graph generators."""

from __future__ import annotations

import random

import networkx as nx

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def rook_graph(k: int) -> Graph:
    """k x k rook's graph: cell r*k + c, adjacent within a row or a column."""
    cells = [divmod(v, k) for v in range(k * k)]
    return Graph.build(
        k * k,
        [
            (a, b)
            for a in range(k * k)
            for b in range(a + 1, k * k)
            if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
        ],
    )


def shrikhande_graph() -> Graph:
    """Cayley graph on Z4 x Z4 with generators ±(0,1), ±(1,0), ±(1,1).

    Node 4*a + b is (a, b). Strongly regular with the parameters of the 4 x 4
    rook's graph, SRG(16, 6, 2, 2), but not isomorphic to it.
    """
    gens = ((0, 1), (1, 0), (1, 1))
    edges = [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4)
        for b in range(4)
        for da, db in gens
    ]
    return Graph.build(16, edges)


def from_networkx(nxg) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(nxg.nodes()))}
    edges = [(mapping[u], mapping[v]) for u, v in nxg.edges() if u != v]
    return Graph.build(len(mapping), edges)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p); ValueError unless n >= 2 and 0 <= p <= 1."""
    if n < 2:
        raise ValueError(f"Erdos-Renyi graph needs n >= 2, got n={n}")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability p must lie in [0, 1], got p={p}")
    return from_networkx(nx.gnp_random_graph(n, p, seed=seed))


def ring_lattice(n: int, k: int, rewire: float, seed: int) -> Graph:
    """Watts-Strogatz ring lattice: n nodes, k nearest neighbors, rewired edges.

    ValueError unless k is even with 2 <= k < n and 0 <= rewire <= 1; networkx
    would round an odd k down to k - 1.
    """
    if k % 2 or not 2 <= k < n:
        raise ValueError(f"ring lattice needs an even k with 2 <= k < n, got k={k}, n={n}")
    if not 0 <= rewire <= 1:
        raise ValueError(f"rewire probability must lie in [0, 1], got rewire={rewire}")
    return from_networkx(nx.watts_strogatz_graph(n, k, rewire, seed=seed))


def random_permutation(n: int, rng: random.Random):
    pi = list(range(n))
    rng.shuffle(pi)
    return pi
