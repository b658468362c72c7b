"""Reference groups for the quality checks, made apart from the program.

    PYTHONPATH=src python3 perfbench/refs.py     # rewrites perfbench/refs.json

For each benchmark graph, plain greedy over the exact evaluator
(``exact.py``): each step adds the node of largest exact marginal gain
(ties to the smallest id).  One run up to the largest K serves every
smaller K, since greedy's first K picks are its answer for K.  The
graphs themselves come from the program's dataset registry (seed 0,
giant component), which is the input the workloads use; the file
records a fingerprint of each graph's edges so a run can tell when the
registry changed and the references must be made again.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from exact import ExactGBC  # noqa: E402

REFS_PATH = HERE / "refs.json"
DATASETS = ("GrQc", "Epinions")
MAX_K = 50


def edges_of(graph) -> np.ndarray:
    """The ``(m, 2)`` arc array of a CSR graph (both orientations of
    an undirected edge)."""
    indptr = np.asarray(graph.indptr)
    sources = np.repeat(np.arange(graph.n), np.diff(indptr))
    return np.stack([sources, np.asarray(graph.indices)], axis=1).astype(np.int64)


def fingerprint(n: int, edges: np.ndarray, directed: bool) -> str:
    arcs = np.unique(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=0)
    digest = hashlib.sha256(f"{n}:{int(directed)}:".encode())
    digest.update(np.ascontiguousarray(arcs).tobytes())
    return digest.hexdigest()


def greedy(evaluator: ExactGBC, k: int) -> tuple[list[int], list[float]]:
    group: list[int] = []
    values: list[float] = []
    for _ in range(k):
        gains = evaluator.gains(group)
        gains[group] = -1.0
        group.append(int(np.argmax(gains)))
        values.append(evaluator.value(group))
    return group, values


def load_refs() -> dict:
    with open(REFS_PATH) as src:
        return json.load(src)


def main() -> int:
    import repro.datasets

    refs = {}
    for name in DATASETS:
        graph = repro.datasets.load(name, seed=0)
        edges = edges_of(graph)
        evaluator = ExactGBC(graph.n, edges, graph.directed)
        group, values = greedy(evaluator, MAX_K)
        refs[name] = {
            "n": int(graph.n),
            "directed": bool(graph.directed),
            "edges_sha256": fingerprint(graph.n, edges, graph.directed),
            "group": group,
            "value": values,
        }
        print(f"{name}: B(ref_{MAX_K}) = {values[-1]:.1f}", file=sys.stderr)
    blocks = []
    for name, entry in refs.items():
        fields = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                            for key, value in entry.items())
        blocks.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    with open(REFS_PATH, "w") as out:
        out.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
