"""The serve wire protocol: request parsing and the result contract.

One request per line, one response per line, both JSON objects.  A
query request looks like::

    {"op": "query", "dataset": "SyntheticNetwork-BA", "algorithm":
     "adaalg", "k": 3, "eps": 0.3, "gamma": 0.1, "seed": 42}

and its response carries the same deterministic ``result`` payload the
CLI writes with ``run --json`` — byte-comparable by construction —
plus a ``served`` block saying how the answer was produced (cache hit,
coalesced onto an in-flight leader, computed, warm samples reused).

``op`` values: ``"query"``, ``"ping"`` (liveness), ``"stats"``
(telemetry counters + lane inventory), ``"mutate"`` (apply an edge
delta to a held dataset; see :func:`parse_mutation`).  Anything else —
or a malformed frame — earns ``{"ok": false, "error": ...}`` and
leaves the connection open.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms import AdaAlg, CentRa, Exhaust, Hedge
from ..exceptions import GraphError, ServeError
from ..graph.delta import GraphUpdate

__all__ = [
    "ALGORITHMS",
    "QueryKey",
    "build_algorithm",
    "parse_mutation",
    "parse_request",
    "result_payload",
]

#: Query ``algorithm`` values the daemon accepts (the checkpointable
#: sampling algorithms; the exact baselines have no sampling session
#: to keep warm and are out of scope for the serving tier).
ALGORITHMS = ("adaalg", "hedge", "centra", "exhaust")

_CLASSES = {
    "adaalg": AdaAlg,
    "hedge": Hedge,
    "centra": CentRa,
    "exhaust": Exhaust,
}


@dataclass(frozen=True)
class QueryKey:
    """The identity of one query — the LRU-cache and coalescing key.

    Two requests with equal keys are answered identically (the daemon
    is deterministic per key and per warm-lane history), so they may
    legitimately share one cached result or one in-flight computation.
    """

    dataset: str
    algorithm: str
    k: int
    eps: float
    gamma: float
    seed: int
    #: The dataset's graph version at admission time.  ``mutate`` bumps
    #: it, so results cached before an update can never answer queries
    #: arriving after it — same parameters, different graph, different
    #: key.
    version: int = 0


def _named_dataset(frame: dict, datasets) -> str:
    if not isinstance(frame, dict):
        raise ServeError("request frame must be a JSON object")
    dataset = frame.get("dataset")
    if dataset not in datasets:
        known = ", ".join(sorted(datasets))
        raise ServeError(
            f"unknown dataset {dataset!r}; this server holds: {known}"
        )
    return dataset


def parse_request(frame: dict, datasets, versions=None) -> QueryKey:
    """Validate a ``query`` frame against the served ``datasets``.

    ``versions`` (dataset name -> current graph version) stamps the
    key, keying the daemon's cache and coalescing by graph generation.
    Raises :class:`~repro.exceptions.ServeError` with a message safe to
    echo back to the client.
    """
    dataset = _named_dataset(frame, datasets)
    algorithm = frame.get("algorithm", "adaalg")
    if algorithm not in ALGORITHMS:
        known = ", ".join(ALGORITHMS)
        raise ServeError(
            f"unknown algorithm {algorithm!r}; expected one of: {known}"
        )
    try:
        k = int(frame.get("k", 1))
        eps = float(frame.get("eps", 0.3))
        gamma = float(frame.get("gamma", 0.01))
        seed = int(frame.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ServeError(f"malformed query parameter: {exc}")
    if k < 1:
        raise ServeError(f"need k >= 1, got k={k}")
    if not 0.0 < eps < 1.0:
        raise ServeError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < gamma < 1.0:
        raise ServeError(f"gamma must lie in (0, 1), got {gamma}")
    return QueryKey(
        dataset=dataset,
        algorithm=algorithm,
        k=k,
        eps=eps,
        gamma=gamma,
        seed=seed,
        version=int(versions.get(dataset, 0)) if versions else 0,
    )


#: The fields a ``mutate`` frame may carry.
_MUTATE_FIELDS = frozenset({"op", "dataset", "insert", "delete", "reweight"})


def parse_mutation(frame: dict, datasets) -> tuple[str, GraphUpdate]:
    """Validate a ``mutate`` frame; returns ``(dataset, update)``.

    The frame carries the ops as JSON lists of edge rows::

        {"op": "mutate", "dataset": "...",
         "insert": [[u, v], [u, v, w], ...],
         "delete": [[u, v], ...],
         "reweight": [[u, v, w], ...]}

    Any other field is refused — among them the invalidation radius
    older clients sent: which warm-lane samples an update stales is
    decided exactly, per pair, and nothing tunes it.  Shape errors (and
    graph-level validity, checked later against the actual graph)
    surface as :class:`~repro.exceptions.ServeError`.
    """
    dataset = _named_dataset(frame, datasets)
    unknown = sorted(set(frame) - _MUTATE_FIELDS)
    if unknown:
        raise ServeError(
            f"mutate frame has unknown field(s) {', '.join(unknown)}; "
            "invalidation is now exact (each warm sample is tested by its "
            "pair and redrawn in place), so it takes no parameters"
        )
    try:
        inserts = [
            (int(row[0]), int(row[1]), int(row[2]) if len(row) >= 3 else 1)
            for row in frame.get("insert") or ()
        ]
        deletes = [
            (int(row[0]), int(row[1])) for row in frame.get("delete") or ()
        ]
        reweights = [
            (int(row[0]), int(row[1]), int(row[2]))
            for row in frame.get("reweight") or ()
        ]
    except (TypeError, ValueError, IndexError) as exc:
        raise ServeError(f"malformed mutation op: {exc}")
    try:
        update = GraphUpdate.from_ops(inserts, deletes, reweights)
    except GraphError as exc:
        raise ServeError(str(exc))
    if update.is_empty:
        raise ServeError(
            "mutate frame carries no ops; expected at least one of "
            "insert, delete, or reweight"
        )
    return dataset, update


def build_algorithm(key: QueryKey, *, telemetry=None, debug=False, workers=0):
    """The algorithm instance answering ``key`` — constructed exactly
    like the CLI ``run`` command's, so a cold-lane answer is
    bit-identical to the single-shot ``repro-gbc run`` with the same
    seed (``workers``, the daemon-wide fan-out, never changes it).
    """
    cls = _CLASSES[key.algorithm]
    kwargs = {
        "seed": key.seed, "telemetry": telemetry, "debug": debug,
        "workers": workers,
    }
    if key.algorithm != "exhaust":
        # EXHAUST pins its own tiny (eps, gamma); mirroring the CLI
        # factory, the query's values are ignored for it
        kwargs.update(eps=key.eps, gamma=key.gamma)
    return cls(**kwargs)


def result_payload(result, k: int) -> dict:
    """The deterministic result contract shared by ``run --json`` and
    the daemon's ``result`` response field.

    Deliberately excludes wall-clock time and checkpoint/resume
    bookkeeping, so an interrupted-and-resumed run, an uninterrupted
    one, and a served cold-lane answer all produce identical payloads
    (the CI resume and serve-smoke checks diff them byte-for-byte).
    """
    return {
        "algorithm": result.algorithm,
        "k": int(k),
        "group": sorted(int(v) for v in result.group),
        "estimate": result.estimate,
        "estimate_unbiased": result.estimate_unbiased,
        "num_samples": int(result.num_samples),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }
