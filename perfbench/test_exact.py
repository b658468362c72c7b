"""The exact evaluator against brute-force enumeration of shortest paths.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest

from exact import ExactGBC


def _all_shortest_paths(n, arcs, s, t):
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    dist = [-1] * n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if dist[t] < 0:
        return []
    paths = []

    def extend(path):
        u = path[-1]
        if u == t:
            paths.append(list(path))
            return
        for v in out[u]:
            if dist[v] == dist[u] + 1 and dist[v] <= dist[t]:
                path.append(v)
                extend(path)
                path.pop()

    extend([s])
    return paths


def brute_force_gbc(n, edges, directed, group):
    arcs = {(int(u), int(v)) for u, v in edges if u != v}
    if not directed:
        arcs |= {(v, u) for u, v in arcs}
    group = set(group)
    total = 0.0
    for s, t in itertools.permutations(range(n), 2):
        paths = _all_shortest_paths(n, sorted(arcs), s, t)
        if paths:
            total += sum(1 for p in paths if group & set(p)) / len(paths)
    return total


def _random_graph(rng, n, m, directed):
    edges = rng.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]]


def test_path_graph_by_hand():
    ev = ExactGBC(3, [(0, 1), (1, 2)], directed=False)
    assert ev.value([1]) == pytest.approx(6.0)  # every ordered pair
    assert ev.value([0]) == pytest.approx(4.0)  # pairs with 0 as endpoint
    assert ev.value([]) == pytest.approx(0.0)


def test_disconnected_pairs_contribute_nothing():
    # two components {0, 1} and {2, 3}: only 4 ordered pairs have paths
    ev = ExactGBC(4, [(0, 1), (2, 3)], directed=False)
    assert ev.value([0, 1, 2, 3]) == pytest.approx(4.0)
    assert ev.value([0]) == pytest.approx(2.0)


def test_directed_reachability_is_one_way():
    ev = ExactGBC(3, [(0, 1)], directed=True)
    assert ev.value([0]) == pytest.approx(1.0)
    assert ev.value([1]) == pytest.approx(1.0)
    assert ev.value([2]) == pytest.approx(0.0)


def test_counts_every_shortest_path_once():
    # 0 -> {1, 2} -> 3: two shortest 0-3 paths, one through each middle
    ev = ExactGBC(4, [(0, 1), (0, 2), (1, 3), (2, 3)], directed=True)
    assert ev.value([1]) == pytest.approx(1.0 + 1.0 + 0.5)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_value_matches_brute_force(directed, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    edges = _random_graph(rng, n, int(rng.integers(n, 2 * n + 2)), directed)
    ev = ExactGBC(n, edges, directed)
    for size in (0, 1, 2, 3):
        group = rng.choice(n, size=size, replace=False).tolist()
        assert ev.value(group) == pytest.approx(
            brute_force_gbc(n, edges, directed, group)
        )


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_gains_are_value_differences(directed, seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(6, 10))
    edges = _random_graph(rng, n, 2 * n, directed)
    ev = ExactGBC(n, edges, directed)
    group = rng.choice(n, size=2, replace=False).tolist()
    gains = ev.gains(group)
    base = brute_force_gbc(n, edges, directed, group)
    for v in range(n):
        expected = 0.0 if v in group else (
            brute_force_gbc(n, edges, directed, group + [v]) - base
        )
        assert gains[v] == pytest.approx(expected, abs=1e-9)


def test_blocks_agree_with_one_block(monkeypatch):
    import exact

    rng = np.random.default_rng(7)
    edges = _random_graph(rng, 40, 90, True)
    whole = ExactGBC(40, edges, True).value([1, 5, 9])
    monkeypatch.setattr(exact, "_BLOCK", 7)
    assert ExactGBC(40, edges, True).value([1, 5, 9]) == pytest.approx(whole)


def test_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        ExactGBC(3, [(0, 3)], directed=False)
    with pytest.raises(ValueError):
        ExactGBC(3, [(0, 1)], directed=False).value([5])
