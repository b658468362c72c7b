"""Brute-force helpers for the dynamic-graph tests: small random
graphs and deltas, and every shortest path of a graph by enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    GraphUpdate,
    WeightedCSRGraph,
    from_edges,
    from_weighted_edges,
)


def shortest_path_sets(graph):
    """``(s, t) -> frozenset`` of every shortest s-t path, by brute
    force (empty when t is unreachable)."""
    nx = pytest.importorskip("networkx")
    nxg = nx.DiGraph() if graph.directed else nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    if isinstance(graph, WeightedCSRGraph):
        nxg.add_weighted_edges_from(graph.weighted_edges())
        weight = "weight"
    else:
        nxg.add_edges_from(graph.edges())
        weight = None
    sets = {}
    for s in range(graph.n):
        for t in range(graph.n):
            if s == t:
                continue
            try:
                paths = nx.all_shortest_paths(nxg, s, t, weight=weight)
                sets[(s, t)] = frozenset(tuple(p) for p in paths)
            except nx.NetworkXNoPath:
                sets[(s, t)] = frozenset()
    return sets


def random_graph(rng, n, edges, directed, weighted):
    """A random simple graph with ``edges`` edges (weights 1..3)."""
    chosen = set()
    while len(chosen) < edges:
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        if not directed:
            u, v = min(u, v), max(u, v)
        chosen.add((u, v))
    rows = sorted(chosen)
    if weighted:
        triples = [(u, v, int(rng.integers(1, 4))) for u, v in rows]
        return from_weighted_edges(triples, n=n, directed=directed)
    return from_edges(rows, n=n, directed=directed)


def random_update(rng, graph, ops):
    """``ops`` deletes and ``ops`` inserts (plus ``ops`` reweights on a
    weighted graph), valid against ``graph``."""
    weighted = isinstance(graph, WeightedCSRGraph)
    present = [
        (u, int(v)) for u in range(graph.n) for v in graph.neighbors(u)
        if graph.directed or u < int(v)
    ]
    picked = rng.permutation(len(present))
    deletes = [present[i] for i in picked[:ops]]
    reweights = [
        (*present[i], int(rng.integers(1, 5))) for i in picked[ops : 2 * ops]
    ] if weighted else []
    inserts = set()
    while len(inserts) < ops:
        u, v = (int(x) for x in rng.choice(graph.n, size=2, replace=False))
        if not graph.directed:
            u, v = min(u, v), max(u, v)
        if not graph.has_edge(u, v):
            inserts.add((u, v))
    return GraphUpdate.from_ops(
        [(u, v, int(rng.integers(1, 4))) for u, v in sorted(inserts)],
        deletes,
        reweights,
    )


def path_length(graph, paths):
    """Length of any path in a shortest-path set (-1 when empty)."""
    if not paths:
        return -1
    path = next(iter(paths))
    if not isinstance(graph, WeightedCSRGraph):
        return len(path) - 1
    total = 0
    for u, v in zip(path, path[1:]):
        row = graph.neighbors(u)
        total += int(graph.neighbor_weights(u)[np.searchsorted(row, v)])
    return total
