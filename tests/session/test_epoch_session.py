"""End-to-end worker-count determinism through sessions and algorithms.

The headline guarantee of the index-addressed stream: for a fixed seed
every sampling algorithm returns the *same* group, estimates, and
sample counts whether the samples were computed in-process
(``workers=0``) or by 1 or 4 persistent workers — and a checkpointed
run killed at an iteration boundary resumes bit-identically.
"""

from __future__ import annotations

import pytest

from repro.algorithms import AdaAlg, CentRa, Exhaust, Hedge
from repro.engine import STREAM_TAG
from repro.exceptions import SessionInterrupted
from repro.graph import barabasi_albert
from repro.session import SamplingSession


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(80, 2, seed=5)


_FACTORIES = {
    "adaalg": lambda **kw: AdaAlg(eps=0.4, gamma=0.1, seed=11, **kw),
    "hedge": lambda **kw: Hedge(
        eps=0.3, gamma=0.1, seed=7, guess_base=1.2, max_samples=20_000, **kw
    ),
    "centra": lambda **kw: CentRa(
        eps=0.3, gamma=0.1, seed=7, guess_base=1.2, max_samples=20_000, **kw
    ),
    "exhaust": lambda **kw: Exhaust(seed=7, num_samples=3000, **kw),
}


def _assert_identical(a, b):
    assert a.group == b.group
    assert a.estimate == b.estimate
    assert a.estimate_unbiased == b.estimate_unbiased
    assert a.num_samples == b.num_samples
    assert a.iterations == b.iterations
    assert a.converged == b.converged


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_groups_identical_across_worker_counts(graph, name):
    def run(workers):
        algorithm = _FACTORIES[name](workers=workers)
        return algorithm.run(graph, 3)

    reference = run(0)
    for workers in (1, 4):
        _assert_identical(run(workers), reference)


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_resume_is_bit_identical(graph, tmp_path, name):
    """Kill after the first checkpoint, resume, and land on the
    uninterrupted run's exact result."""
    path = str(tmp_path / "ck.npz")

    def factory(**kw):
        return _FACTORIES[name](workers=2, **kw)

    straight = factory().run(graph, 3)
    with pytest.raises(SessionInterrupted):
        factory(checkpoint_path=path, stop_after_checkpoints=1).run(graph, 3)
    resumed = factory(resume_from=path).run(graph, 3)
    _assert_identical(resumed, straight)
    assert resumed.diagnostics["resumed"] is True


def test_resume_across_worker_counts(graph, tmp_path):
    """A checkpoint written by a 2-worker run resumes in-process (and
    vice versa) without moving a single sample."""
    path = str(tmp_path / "ck.npz")
    straight = _FACTORIES["adaalg"](
        workers=2
    ).run(graph, 3)
    with pytest.raises(SessionInterrupted):
        _FACTORIES["adaalg"](
            workers=2,
            checkpoint_path=path, stop_after_checkpoints=1,
        ).run(graph, 3)
    resumed = _FACTORIES["adaalg"](
        workers=0, resume_from=path
    ).run(graph, 3)
    _assert_identical(resumed, straight)


def test_checkpoint_records_stream_cursor(graph, tmp_path):
    path = str(tmp_path / "ck.npz")
    with pytest.raises(SessionInterrupted):
        _FACTORIES["adaalg"](
            workers=2, checkpoint_path=path, stop_after_checkpoints=1,
        ).run(graph, 3)
    meta = SamplingSession.peek(path)
    assert meta["provenance"] == {"include_endpoints": True, "workers": 2}
    # every lane's state is its key and the cursor at its store's end
    for state, paths in zip(meta["rng_states"], meta["num_paths"]):
        assert state["stream"] == STREAM_TAG
        assert state["cursor"] == paths


def test_session_extends_land_exactly_on_target(graph):
    session = SamplingSession(graph, lanes=1, seed=0, workers=2)
    with session:
        session.extend(100)
        assert session.store(0).num_paths == 100
        assert session.store(0).draw_schedule == [100]
        session.extend(80)  # already satisfied
        assert session.store(0).num_paths == 100
        assert session.store(0).draw_schedule == [100]


def test_session_round_trips_epoch_engine(graph, tmp_path):
    path = str(tmp_path / "ck.npz")
    session = SamplingSession(graph, lanes=2, seed=9, workers=2)
    with session:
        session.extend(128, lane=0)
        session.extend(64, lane=1)
        session.checkpoint(path)
        session.extend(256, lane=0)
        expected = session.store(0).export_arrays()
    thawed, _state = SamplingSession.resume(path, graph)
    with thawed:
        assert thawed.provenance["workers"] == 2
        thawed.extend(256, lane=0)
        observed = thawed.store(0).export_arrays()
    for key in ("flat", "offsets", "degrees"):
        assert (observed[key] == expected[key]).all()
