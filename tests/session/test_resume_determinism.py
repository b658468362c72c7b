"""Checkpoint → kill → resume must be bit-identical to running straight
through — for every sampling algorithm and every worker count.

Also freezes the pre-session-refactor reference results: with a fixed
seed, running through a session must reproduce the exact groups,
estimates, and sample counts the direct-engine implementation produced.
"""

from __future__ import annotations

import pytest

from repro.algorithms import AdaAlg, CentRa, Exhaust, Hedge
from repro.exceptions import CheckpointError, ParameterError, SessionInterrupted
from repro.graph import barabasi_albert


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(80, 2, seed=5)


#: (group, estimate, estimate_unbiased, num_samples, iterations) of
#: AdaAlg(eps=0.4, gamma=0.1, seed=11).run(g, 4) recorded *before* the
#: session refactor (commit b59620f) — the refactor must not move them.
#: The serial engine's entry was re-recorded when it moved to packed
#: cohort draws, and again when sampling moved to the index-addressed
#: stream (sample i = f(seed, i, graph)); sample counts and iterations
#: never moved (same schedule, same law).
_FROZEN_ADAALG = {
    "serial": ([3, 0, 1, 13], 5277.2, 5008.599999999999, 800, 2),
}


@pytest.mark.parametrize("engine", ["serial"])
def test_adaalg_matches_pre_refactor_reference(graph, engine):
    result = AdaAlg(eps=0.4, gamma=0.1, seed=11).run(graph, 4)
    group, estimate, unbiased, samples, iterations = _FROZEN_ADAALG[engine]
    assert result.group == group
    assert result.estimate == estimate
    assert result.estimate_unbiased == unbiased
    assert result.num_samples == samples
    assert result.iterations == iterations


def test_baselines_match_pre_refactor_reference(graph):
    # re-recorded with the serial engine's move to packed cohort draws
    # and with the index-addressed stream; sample counts are unchanged
    # (same schedule, same law)
    result = Hedge(eps=0.5, gamma=0.1, seed=7, max_samples=20_000).run(graph, 3)
    assert (result.group, result.estimate, result.num_samples) == (
        [3, 0, 1], 4849.553158705701, 1298,
    )
    result = CentRa(eps=0.5, gamma=0.1, seed=7, max_samples=20_000).run(graph, 3)
    assert (result.group, result.estimate, result.num_samples) == (
        [3, 0, 1], 4713.812154696133, 362,
    )
    result = Exhaust(seed=7, num_samples=3000).run(graph, 3)
    assert (result.group, result.estimate, result.num_samples) == (
        [3, 0, 1], 4872.72, 3000,
    )


# ----------------------------------------------------------------------
# Interrupt/resume equivalence
# ----------------------------------------------------------------------
_FACTORIES = {
    # multi-iteration configs: every algorithm passes ≥1 checkpointable
    # iteration boundary before converging on the module graph
    "adaalg": lambda **kw: AdaAlg(eps=0.4, gamma=0.1, seed=11, **kw),
    "hedge": lambda **kw: Hedge(eps=0.3, gamma=0.1, seed=7, guess_base=1.2, **kw),
    "centra": lambda **kw: CentRa(eps=0.3, gamma=0.1, seed=7, guess_base=1.2, **kw),
    "centra-era": lambda **kw: CentRa(
        eps=0.3, gamma=0.1, seed=7, guess_base=1.15, empirical_stop=True, **kw
    ),
    "exhaust": lambda **kw: Exhaust(seed=7, num_samples=3000, **kw),
}


def _assert_identical(resumed, straight):
    assert resumed.group == straight.group
    assert resumed.estimate == straight.estimate
    assert resumed.estimate_unbiased == straight.estimate_unbiased
    assert resumed.num_samples == straight.num_samples
    assert resumed.iterations == straight.iterations
    assert resumed.converged == straight.converged


def _kill_and_resume(graph, factory, k, path):
    straight = factory().run(graph, k)
    with pytest.raises(SessionInterrupted) as excinfo:
        factory(checkpoint_path=path, stop_after_checkpoints=1).run(graph, k)
    assert excinfo.value.path == path
    assert excinfo.value.checkpoints == 1
    resumed = factory(resume_from=path).run(graph, k)
    _assert_identical(resumed, straight)
    assert straight.diagnostics["resumed"] is False
    assert resumed.diagnostics["resumed"] is True
    assert straight.diagnostics["checkpoints"] == 0
    return straight, resumed


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_resume_is_bit_identical(graph, tmp_path, name):
    _kill_and_resume(graph, _FACTORIES[name], 3, str(tmp_path / "ck.npz"))


@pytest.mark.parametrize("engine", ["serial", "epoch"])
@pytest.mark.parametrize("name", ["adaalg", "hedge", "exhaust"])
def test_resume_is_bit_identical_across_engines(graph, tmp_path, name, engine):
    workers = {"workers": 2} if engine == "epoch" else {}

    def factory(**kw):
        return _FACTORIES[name](**workers, **kw)

    _kill_and_resume(graph, factory, 3, str(tmp_path / "ck.npz"))


def test_checkpointing_does_not_perturb_results(graph, tmp_path):
    """A run with checkpointing enabled equals one without."""
    plain = _FACTORIES["adaalg"]().run(graph, 4)
    noisy = _FACTORIES["adaalg"](
        checkpoint_path=str(tmp_path / "ck.npz"), checkpoint_every=1
    ).run(graph, 4)
    _assert_identical(noisy, plain)
    assert noisy.diagnostics["checkpoints"] >= 1


def test_checkpoint_every_thins_snapshots(graph, tmp_path):
    path = str(tmp_path / "ck.npz")
    every = _FACTORIES["hedge"](checkpoint_path=path, checkpoint_every=1).run(
        graph, 3
    )
    sparse = _FACTORIES["hedge"](checkpoint_path=path, checkpoint_every=5).run(
        graph, 3
    )
    assert sparse.diagnostics["checkpoints"] <= every.diagnostics["checkpoints"]
    _assert_identical(sparse, every)


# ----------------------------------------------------------------------
# Misuse is rejected loudly
# ----------------------------------------------------------------------
class TestValidation:
    def test_wrong_algorithm_rejected(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with pytest.raises(SessionInterrupted):
            _FACTORIES["adaalg"](
                checkpoint_path=path, stop_after_checkpoints=1
            ).run(graph, 3)
        with pytest.raises(CheckpointError):
            _FACTORIES["hedge"](resume_from=path).run(graph, 3)

    def test_wrong_k_rejected(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with pytest.raises(SessionInterrupted):
            _FACTORIES["adaalg"](
                checkpoint_path=path, stop_after_checkpoints=1
            ).run(graph, 3)
        with pytest.raises(CheckpointError):
            _FACTORIES["adaalg"](resume_from=path).run(graph, 4)

    def test_failed_resume_validation_closes_the_session(
        self, graph, tmp_path, monkeypatch
    ):
        """Regression: a resumed session that fails tag validation must
        be closed before the error propagates, or its engines (workers,
        shared memory) outlive the failed run."""
        from repro.session import SamplingSession

        path = str(tmp_path / "ck.npz")
        with pytest.raises(SessionInterrupted):
            _FACTORIES["adaalg"](
                checkpoint_path=path, stop_after_checkpoints=1
            ).run(graph, 3)

        closed = []
        original_close = SamplingSession.close

        def recording_close(self):
            closed.append(self)
            return original_close(self)

        monkeypatch.setattr(SamplingSession, "close", recording_close)
        with pytest.raises(CheckpointError):
            _FACTORIES["hedge"](resume_from=path).run(graph, 3)
        assert len(closed) == 1

    def test_stop_requires_checkpoint_path(self):
        with pytest.raises(ParameterError):
            AdaAlg(seed=0, stop_after_checkpoints=1)

    def test_checkpoint_every_validated(self):
        with pytest.raises(ParameterError):
            AdaAlg(seed=0, checkpoint_every=0)

    def test_session_and_resume_exclusive(self, graph):
        from repro.session import SamplingSession

        with SamplingSession(graph, lanes=2, seed=0) as session:
            with pytest.raises(ParameterError):
                AdaAlg(seed=0, session=session, resume_from="x.npz")
