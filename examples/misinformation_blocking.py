"""Misinformation blocking: where should K fact-checking monitors sit?

The paper's introduction motivates top-K GBC with misinformation
filtering in social networks: information spreads along (near-)shortest
paths, so a group of K nodes maximizing *group* betweenness intercepts
the largest fraction of point-to-point information flows.

This example builds a social network with pronounced community
structure — four dense communities connected in a chain by short
bridges of "broker" accounts — and compares three monitor-placement
strategies:

* top-K *degree* (the naive heuristic: watch the loudest accounts),
* top-K *individual betweenness* (watch the K most central accounts —
  but central accounts pile up on the same bridges, so the monitors
  are redundant),
* the *group* betweenness group found by AdaAlg (jointly optimized, so
  one monitor per bridge suffices and the rest spread out).

The group-optimized placement intercepts more flows than both
heuristics — the gap to the degree heuristic is dramatic — while
AdaAlg needs only a few thousand sampled paths to find it.

Run with::

    python examples/misinformation_blocking.py
"""

import numpy as np

from repro import AdaAlg
from repro.coverage import CoverageInstance
from repro.graph import community_chain
from repro.paths import PathSampler, betweenness_centrality, exact_gbc


def intercepted_fraction(graph, group, n_flows=20000, seed=0):
    """Simulate random information flows; return the fraction a monitor
    group intercepts (Monte-Carlo counterpart of normalized GBC)."""
    flows = CoverageInstance(graph.n)
    flows.add_samples(PathSampler(graph, seed=seed).sample(n_flows))
    return flows.coverage_fraction(group)


def main() -> None:
    k = 12
    graph = community_chain(seed=0)
    print(f"social network: {graph.n} accounts, {graph.num_edges} ties "
          f"(4 communities, 3-account bridges)")
    print(f"placing K={k} misinformation monitors\n")

    by_degree = np.argsort(graph.out_degrees())[::-1][:k].tolist()

    print("computing exact betweenness (Brandes)...")
    centrality = betweenness_centrality(graph)
    by_betweenness = np.argsort(centrality)[::-1][:k].tolist()

    print("running AdaAlg...")
    result = AdaAlg(eps=0.3, gamma=0.01, seed=11).run(graph, k)
    by_group = result.group
    print(f"AdaAlg used {result.num_samples} path samples "
          f"({result.elapsed_seconds:.2f}s)\n")

    print(f"{'strategy':<24}{'intercepted flows':>18}{'exact GBC':>14}")
    for label, group in [
        ("top-K degree", by_degree),
        ("top-K betweenness", by_betweenness),
        ("AdaAlg group (GBC)", by_group),
    ]:
        fraction = intercepted_fraction(graph, group, seed=5)
        gbc = exact_gbc(graph, group) / graph.num_ordered_pairs
        print(f"{label:<24}{fraction:>17.1%}{gbc:>14.1%}")

    bridges = set(range(graph.n - 9, graph.n))  # the 3x3 bridge accounts
    print(f"\nbridge accounts among top-K betweenness picks: "
          f"{len(bridges & set(by_betweenness))} (stacked on the same paths)")
    print(f"bridge accounts among the AdaAlg group        : "
          f"{len(bridges & set(by_group))} (cross traffic is covered once; "
          f"the rest spread into the communities)")


if __name__ == "__main__":
    main()
