"""Top-K GBC algorithms: AdaAlg (the paper), baselines, exact references."""

from ..exceptions import ParameterError
from .adaalg import AdaAlg, AdaAlgIteration
from .base import GBCAlgorithm, GBCResult, SamplingAlgorithm
from .brute import BruteForce
from .centra import CentRa
from .exhaust import Exhaust
from .hedge import Hedge
from .heuristics import TopBetweenness, TopDegree
from .puzis import PuzisGreedy
from .yoshida import YoshidaSketch, yoshida_sample_size

__all__ = [
    "ALGORITHMS",
    "create_algorithm",
    "GBCAlgorithm",
    "SamplingAlgorithm",
    "GBCResult",
    "AdaAlg",
    "AdaAlgIteration",
    "Hedge",
    "CentRa",
    "Exhaust",
    "PuzisGreedy",
    "YoshidaSketch",
    "yoshida_sample_size",
    "BruteForce",
    "TopDegree",
    "TopBetweenness",
]

#: The session-backed sampling algorithms by key (``cls.name.lower()``):
#: the ``--algorithm`` values the CLI checkpoints and the ``algorithm``
#: values the serve daemon answers.  The CLI, the daemon and the
#: experiments harness all build through :func:`create_algorithm`, and
#: each class's ``session_lanes`` says how many lanes a shared session
#: for it needs.
ALGORITHMS = {cls.name.lower(): cls for cls in (AdaAlg, Hedge, CentRa, Exhaust)}


def create_algorithm(key: str, *, eps: float, gamma: float, seed, **options):
    """The sampling algorithm ``key`` names, built from a query's
    ``(eps, gamma, seed)`` plus any
    :class:`~repro.algorithms.base.SamplingAlgorithm` keywords.

    EXHAUST is the quality yardstick and pins its own tiny
    ``(eps, gamma)``; the query's values are ignored for it.
    """
    if key not in ALGORITHMS:
        raise ParameterError(
            f"unknown sampling algorithm {key!r}; expected one of: "
            f"{', '.join(ALGORITHMS)}"
        )
    cls = ALGORITHMS[key]
    if cls is not Exhaust:
        options.update(eps=eps, gamma=gamma)
    return cls(seed=seed, **options)
