"""repro — adaptive sampling for top-K group betweenness centrality.

A complete, self-contained reproduction of *“An Adaptive Sampling
Algorithm for the Top-K Group Betweenness Centrality”* (ICDE 2025):
the AdaAlg algorithm, the HEDGE / CentRa / EXHAUST comparison
algorithms, exact references (Brandes, Puzis greedy, brute force), the
graph and sampling substrates they run on, and the experiment harness
that regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import AdaAlg, datasets
>>> graph = datasets.load("GrQc", seed=7)
>>> result = AdaAlg(eps=0.3, gamma=0.01, seed=7).run(graph, k=10)
>>> len(result.group)
10
"""

from . import (
    bounds,
    coverage,
    datasets,
    engine,
    experiments,
    graph,
    nodebc,
    paths,
    session,
)
from .algorithms import (
    AdaAlg,
    BruteForce,
    CentRa,
    Exhaust,
    GBCAlgorithm,
    GBCResult,
    Hedge,
    PuzisGreedy,
)
from .exceptions import (
    AlgorithmError,
    CheckpointError,
    DatasetError,
    GraphError,
    ParameterError,
    ReproError,
    SessionInterrupted,
)
from .engine import EpochEngine, SampleEngine, SerialEngine, create_engine
from .graph import CSRGraph, WeightedCSRGraph, from_edges, from_weighted_edges
from .paths import PathSampler, betweenness_centrality, exact_gbc, normalized_gbc
from .session import SampleStore, SamplingSession

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AdaAlg",
    "Hedge",
    "CentRa",
    "Exhaust",
    "PuzisGreedy",
    "BruteForce",
    "GBCAlgorithm",
    "GBCResult",
    "CSRGraph",
    "WeightedCSRGraph",
    "from_edges",
    "from_weighted_edges",
    "PathSampler",
    "SampleEngine",
    "SerialEngine",
    "EpochEngine",
    "create_engine",
    "betweenness_centrality",
    "exact_gbc",
    "normalized_gbc",
    "SampleStore",
    "SamplingSession",
    "ReproError",
    "GraphError",
    "ParameterError",
    "AlgorithmError",
    "DatasetError",
    "CheckpointError",
    "SessionInterrupted",
    "graph",
    "paths",
    "engine",
    "coverage",
    "bounds",
    "datasets",
    "experiments",
    "nodebc",
    "session",
]
