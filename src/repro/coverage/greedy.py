"""Lazy greedy (CELF) maximum coverage with batched re-evaluation.

The classic (1 - 1/e)-approximation for maximum coverage [Nemhauser et
al. 1978], accelerated with the CELF lazy-evaluation trick: marginal
gains of a monotone submodular function only shrink as the solution
grows, so a stale heap entry whose re-evaluated gain still tops the
heap is guaranteed optimal for this round.  On the path hypergraphs
produced by the samplers this typically evaluates a small fraction of
the candidate nodes per round.

Stale entries are re-evaluated in *batches*: instead of paying one
:meth:`~repro.coverage.hypergraph.CoverageInstance.marginal_gain` call
per popped candidate, up to ``batch`` consecutive stale pops are
collected and priced through one vectorized
:meth:`~repro.coverage.hypergraph.CoverageInstance.marginal_gains`
pass.  The selected groups (and their gains) are identical for every
batch size — batching only changes *when* exact gains are computed,
never which fresh entry wins a round — so ``batch`` is a pure
throughput knob.

The run is *memoized per pool*: the greedy order on a fixed instance
does not depend on ``K``, so the paused CELF state is kept on the
instance and a call for any ``K`` reads a prefix of that one order,
resuming the run only when a larger ``K`` is asked for.  The instance
drops the state whenever its paths change (append or in-place rewrite).
Warm pools queried again and again — a daemon lane whose pool is
already large enough, the experiments' reference pool — stop re-running
CELF from scratch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..obs import as_telemetry
from .hypergraph import CoverageInstance

__all__ = ["DEFAULT_EVAL_BATCH", "GreedyCoverResult", "greedy_max_cover"]

#: Default number of stale heap entries re-priced per vectorized pass.
DEFAULT_EVAL_BATCH = 16


@dataclass(frozen=True)
class GreedyCoverResult:
    """Outcome of one greedy max-cover run.

    Attributes
    ----------
    group:
        The selected node ids, in pick order (padded nodes last).
    covered:
        Total number of paths covered by the group — the paper's ``L'``.
    gains:
        Marginal number of newly covered paths per pick (0 for padding).
    evaluations:
        How many gain evaluations the lazy greedy performed in this
        call (a CELF efficiency diagnostic; plain greedy would use
        ``K * n``).  0 when the call was read off the memoized run.
    eval_batches:
        How many vectorized :meth:`marginal_gains` passes those
        evaluations were amortized over (equals ``evaluations`` when
        ``batch=1``).
    """

    group: list[int]
    covered: int
    gains: list[int]
    evaluations: int
    eval_batches: int = 0


class _GreedyState:
    """One CELF run on a fixed pool, paused between picks.

    The greedy order does not depend on ``k``: heap keys
    ``(-gain, node)`` never tie, ``k`` only decides when the loop
    stops, and no stale candidate is pending at an accepted pick.  So
    the state after pick ``j`` is exactly the state a fresh run for
    ``k=j`` ends in, and a call for any ``k`` is a prefix of one order
    that is extended only when a larger ``k`` is asked for.

    The state holds no reference to the instance it runs on (each
    :meth:`advance` is handed it): the instance keeps the state, and a
    back reference would make every dead pool wait for the cycle
    collector.
    """

    def __init__(self, instance: CoverageInstance, batch: int):
        self.batch = batch
        # heap of (-gain, node); gains recorded at push time may be
        # stale.  The initial gains are exact degrees, read as one vector.
        degrees = instance.degrees()
        self.heap: list[tuple[int, int]] = [
            (-int(degrees[node]), int(node)) for node in np.flatnonzero(degrees > 0)
        ]
        heapq.heapify(self.heap)
        # node -> round when its gain was last computed.  The initial
        # degree entries are exact for round 0, so they are seeded as
        # fresh — the first pop of the run is accepted without a
        # redundant re-evaluation (gains only shrink, so the top exact
        # entry is optimal as-is).
        self.fresh_for_round = {node: 0 for _neg_gain, node in self.heap}
        self.round_no = 0
        self.covered = np.zeros(instance.num_paths, dtype=bool)
        self.picks: list[int] = []
        self.gains: list[int] = []
        #: no node has positive marginal gain left
        self.exhausted = False
        # (k, pad) -> the group handed out, so a repeat call returns the
        # same list
        self.groups: dict[tuple[int, bool], list[int]] = {}

    def advance(self, instance: CoverageInstance, k: int, hub) -> tuple[int, int]:
        """Pick until there are ``k`` picks or none is left; returns the
        ``(evaluations, eval_batches)`` this call spent."""
        heap, fresh_for_round = self.heap, self.fresh_for_round
        evaluations = eval_batches = 0
        # stale candidates popped but not yet re-priced this round
        pending: list[int] = []

        def flush() -> None:
            """Price every pending candidate in one vectorized pass and
            push the still-useful ones back onto the heap."""
            nonlocal evaluations, eval_batches
            fresh_gains = instance.marginal_gains(
                np.asarray(pending, dtype=np.int64), self.covered
            )
            evaluations += len(pending)
            eval_batches += 1
            hub.count("coverage.batched_evals", len(pending))
            for node, gain in zip(pending, fresh_gains.tolist()):
                fresh_for_round[node] = self.round_no
                if gain > 0:
                    heapq.heappush(heap, (-gain, node))
            pending.clear()

        while len(self.picks) < k and not self.exhausted:
            if not heap:
                if pending:
                    flush()
                    continue
                self.exhausted = True
                break
            neg_gain, node = heapq.heappop(heap)
            if fresh_for_round.get(node) == self.round_no:
                if pending:
                    # A fresh top may only be accepted once every collected
                    # candidate has re-entered the contest with its exact
                    # gain: push it back unchanged and settle the batch
                    # first.  (Heap order is a pure function of contents —
                    # ``(-gain, node)`` keys never tie — so deferring the
                    # pop cannot change which entry wins the round.)
                    heapq.heappush(heap, (neg_gain, node))
                    flush()
                    continue
                gain = -neg_gain
                if gain <= 0:
                    self.exhausted = True
                    break
                self.picks.append(node)
                self.gains.append(gain)
                instance.mark_covered(node, self.covered)
                self.round_no += 1
                continue
            # stale entry: collect it for the next vectorized re-evaluation
            pending.append(node)
            if len(pending) >= self.batch:
                flush()
        return evaluations, eval_batches

    def group(self, num_nodes: int, k: int, pad: bool) -> list[int]:
        """The first ``k`` picks, padded with unused ids when asked to."""
        group = self.groups.get((k, pad))
        if group is None:
            group = self.picks[:k]
            if pad and len(group) < k:
                in_group = set(group)
                filler = (v for v in range(num_nodes) if v not in in_group)
                group.extend(next(filler) for _ in range(k - len(group)))
            self.groups[k, pad] = group
        return group


def greedy_max_cover(
    instance: CoverageInstance,
    k: int,
    pad: bool = True,
    batch: int = DEFAULT_EVAL_BATCH,
    telemetry=None,
) -> GreedyCoverResult:
    """Pick ``k`` nodes covering as many paths of ``instance`` as possible.

    The CELF run is kept on ``instance`` (see the module docstring), so
    a later call for the same or a smaller ``k`` reads a prefix of it
    and a larger ``k`` resumes it; the instance drops it whenever its
    paths change.  Repeat calls for the same ``k`` and ``pad`` return
    the same ``group`` list, which callers must not modify.

    Parameters
    ----------
    k:
        Group size.  Must not exceed the node universe.
    pad:
        When fewer than ``k`` nodes have positive marginal gain (small
        sample sets), fill the group with unused node ids so that it
        has exactly ``k`` members — the problem statement asks for a
        group of exactly ``K`` nodes and extra members never hurt.
    batch:
        Stale heap entries collected per vectorized re-evaluation pass.
        Result-invariant; ``1`` reproduces the entry-at-a-time CELF
        evaluation schedule exactly.  A call with another ``batch``
        than the kept run starts a fresh one.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` hub; each vectorized
        pass of this call reports its size on the
        ``coverage.batched_evals`` counter.
    """
    if k < 1:
        raise ParameterError("group size k must be >= 1")
    if k > instance.num_nodes:
        raise ParameterError(
            f"group size k={k} exceeds the node universe {instance.num_nodes}"
        )
    if batch < 1:
        raise ParameterError(f"evaluation batch size must be >= 1, got {batch}")
    state = instance._greedy
    if state is None or state.batch != batch:
        state = instance._greedy = _GreedyState(instance, batch)
    evaluations, eval_batches = state.advance(instance, k, as_telemetry(telemetry))
    group = state.group(instance.num_nodes, k, pad)
    gains = state.gains[:k]
    gains += [0] * (len(group) - len(gains))
    return GreedyCoverResult(
        group=group,
        covered=sum(gains),
        gains=gains,
        evaluations=evaluations,
        eval_batches=eval_batches,
    )
