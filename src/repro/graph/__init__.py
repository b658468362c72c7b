"""Graph substrate: CSR structure, builders, generators, I/O, components."""

from .analysis import (
    GraphSummary,
    approximate_diameter,
    degree_statistics,
    graph_summary,
    sampled_clustering_coefficient,
)
from .build import empty_graph, from_adjacency, from_edges, from_networkx
from .components import (
    giant_component,
    strongly_connected_components,
    weakly_connected_components,
)
from .csr import CSRGraph
from .delta import DeltaGraph, GraphUpdate, arc_changes, read_delta_file
from .generators import (
    barabasi_albert,
    barbell_graph,
    binary_tree,
    community_chain,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    powerlaw_cluster,
    random_directed,
    star_graph,
    stochastic_block_model,
    watts_strogatz,
)
from .io import (
    read_edge_list,
    read_weighted_edge_list,
    write_edge_list,
    write_weighted_edge_list,
)
from .mmap import is_mmap_graph, load_mmap, save_mmap
from .weighted import WeightedCSRGraph, from_weighted_edges

__all__ = [
    "CSRGraph",
    "DeltaGraph",
    "GraphUpdate",
    "read_delta_file",
    "arc_changes",
    "GraphSummary",
    "graph_summary",
    "degree_statistics",
    "approximate_diameter",
    "sampled_clustering_coefficient",
    "WeightedCSRGraph",
    "from_weighted_edges",
    "from_edges",
    "from_adjacency",
    "from_networkx",
    "empty_graph",
    "read_edge_list",
    "write_edge_list",
    "read_weighted_edge_list",
    "write_weighted_edge_list",
    "save_mmap",
    "load_mmap",
    "is_mmap_graph",
    "weakly_connected_components",
    "strongly_connected_components",
    "giant_component",
    "barabasi_albert",
    "watts_strogatz",
    "erdos_renyi",
    "powerlaw_cluster",
    "random_directed",
    "stochastic_block_model",
    "community_chain",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "barbell_graph",
    "binary_tree",
]
