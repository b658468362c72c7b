"""Shortest-path machinery: BFS, bidirectional search, sampling, exact BC/GBC."""

from .allpairs import all_pairs_sigma
from .bfs import bfs_distances, bfs_sigma
from .bidirectional import BidirectionalResult, bidirectional_sigma
from .brandes import betweenness_centrality
from .dijkstra import dijkstra_sigma, weighted_distances
from .exact_gbc import exact_gbc, normalized_gbc
from .pair_sampler import PairSample, PairSampler, shortest_path_dag
from .packed import PackedSamples
from .sampler import PathSampler
from .wavefront import WavefrontResults, wavefront_search
from .wavefront_weighted import WeightedSearchResult, wavefront_weighted_search

__all__ = [
    "bfs_distances",
    "bfs_sigma",
    "dijkstra_sigma",
    "weighted_distances",
    "BidirectionalResult",
    "bidirectional_sigma",
    "betweenness_centrality",
    "all_pairs_sigma",
    "exact_gbc",
    "normalized_gbc",
    "PackedSamples",
    "PairSample",
    "PairSampler",
    "shortest_path_dag",
    "PathSampler",
    "WavefrontResults",
    "wavefront_search",
    "WeightedSearchResult",
    "wavefront_weighted_search",
]
