"""Tests for the epoch-based asynchronous engine (:mod:`repro.engine.epoch`).

The contract under test:

* the sample stream is a pure function of ``(seed, epoch_size)`` —
  bit-identical for 0 (in-process), 1, or 4 persistent workers, and
  independent of how ``draw`` requests slice it;
* ``extend`` rounds targets up to epoch boundaries and ingests each
  epoch as one packed delta;
* ``rng_state`` snapshots are only defined at epoch boundaries and
  reposition the stream exactly;
* statistics account epochs, dispatches (including speculation), and
  worker startup;
* a dying worker degrades to in-process computation without changing
  a single sample, and a raising epoch body surfaces as an
  ``EngineError`` without breaking the engine;
* the shared graph segments are unlinked on close.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.engine import EpochEngine, PackedSamples, create_engine
from repro.engine import epoch as epoch_module
from repro.engine.serial import SerialEngine
from repro.exceptions import CheckpointError, EngineError, ParameterError
from repro.graph import barabasi_albert


@pytest.fixture(scope="module")
def ba200():
    return barabasi_albert(200, 2, seed=3)


def _epoch(graph, seed=7, workers=0, epoch_size=64, **kwargs):
    return EpochEngine(
        graph, seed=seed, workers=workers, epoch_size=epoch_size, **kwargs
    )


def _assert_same_samples(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.source == b.source
        assert a.target == b.target
        assert a.distance == b.distance
        assert a.sigma_st == b.sigma_st
        assert np.array_equal(a.nodes, b.nodes)


class TestValidation:
    def test_bad_workers(self, grid3x3):
        with pytest.raises(ParameterError):
            EpochEngine(grid3x3, workers=-1)

    def test_bad_epoch_size(self, grid3x3):
        with pytest.raises(ParameterError):
            EpochEngine(grid3x3, epoch_size=0)
        with pytest.raises(ParameterError):
            create_engine("epoch", grid3x3, epoch_size=0)

    def test_bad_lookahead(self, grid3x3):
        with pytest.raises(ParameterError):
            EpochEngine(grid3x3, lookahead=-1)

    def test_factory_routes_epoch_size(self, grid3x3):
        with create_engine("epoch", grid3x3, epoch_size=17) as engine:
            assert engine.epoch_size == 17
        # other engines accept and ignore the knob
        with create_engine("serial", grid3x3, epoch_size=17) as engine:
            assert not hasattr(engine, "epoch_size")


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_identical_across_worker_counts(self, ba200, workers):
        def run(n_workers):
            instance = CoverageInstance(ba200.n)
            with _epoch(ba200, workers=n_workers) as engine:
                engine.extend(instance, 100)
                engine.extend(instance, 300)
            return instance

        reference = run(0)
        observed = run(workers)
        assert observed.num_paths == reference.num_paths
        assert np.array_equal(observed.degrees(), reference.degrees())
        for pid in range(reference.num_paths):
            assert np.array_equal(observed.path(pid), reference.path(pid))

    def test_draw_slicing_invariant(self, ba200):
        """Carried epoch tails make the stream independent of how
        requests slice it."""
        with _epoch(ba200, epoch_size=50, workers=2) as engine:
            sliced = engine.draw(30) + engine.draw(45)
        with _epoch(ba200, epoch_size=50, workers=0) as engine:
            whole = engine.draw(75)
        _assert_same_samples(sliced, whole)

    def test_draw_and_extend_share_the_stream(self, ba200):
        """``extend`` after ``draw`` continues from the carry, exactly
        where a pure-draw engine would be."""
        instance = CoverageInstance(ba200.n)
        with _epoch(ba200, epoch_size=64, workers=0) as engine:
            head = engine.draw(40)  # carries 24 samples
            engine.extend(instance, 60)  # flushes carry + 1 epoch
        assert instance.num_paths == 88  # 24 carried + 64
        with _epoch(ba200, epoch_size=64, workers=0) as engine:
            replay = engine.draw(128)
        _assert_same_samples(head, replay[:40])
        for pid in range(instance.num_paths):
            sample = replay[40 + pid]
            # carried samples append in path order, packed epochs in
            # sorted order — the covered node *set* is what must match
            assert np.array_equal(
                np.unique(instance.path(pid)), np.unique(sample.nodes)
            )

    def test_epoch_size_is_part_of_stream_identity(self, ba200):
        with _epoch(ba200, epoch_size=32, workers=0) as engine:
            a = engine.draw(64)
        with _epoch(ba200, epoch_size=64, workers=0) as engine:
            b = engine.draw(64)
        assert any(
            x.source != y.source or x.target != y.target
            for x, y in zip(a, b)
        )


class TestExtendRounding:
    def test_extend_lands_on_epoch_boundary(self, grid3x3):
        instance = CoverageInstance(grid3x3.n)
        with _epoch(grid3x3, epoch_size=30, workers=0) as engine:
            engine.extend(instance, 10)
            assert instance.num_paths == 30
            engine.extend(instance, 30)  # already satisfied
            assert instance.num_paths == 30
            engine.extend(instance, 31)
            assert instance.num_paths == 60

    def test_effective_target(self, grid3x3):
        with _epoch(grid3x3, epoch_size=30, workers=0) as engine:
            assert engine.effective_target(10, 0) == 30
            assert engine.effective_target(30, 0) == 30
            assert engine.effective_target(31, 30) == 60
            assert engine.effective_target(20, 25) == 25  # no shrink
            engine.draw(10)  # 20 samples carried
            assert engine.effective_target(10, 0) == 20  # carry flushes
            assert engine.effective_target(50, 0) == 50  # carry + 1 epoch

    def test_extend_flushes_carry_first(self, grid3x3):
        instance = CoverageInstance(grid3x3.n)
        with _epoch(grid3x3, epoch_size=30, workers=0) as engine:
            engine.draw(10)
            engine.extend(instance, 15)
            # 20 carried samples cover the request without a new epoch
            assert instance.num_paths == 20
            assert engine.stats.epochs == 1


class TestStats:
    def test_in_process_accounting(self, ba200):
        instance = CoverageInstance(ba200.n)
        with _epoch(ba200, epoch_size=64, workers=0) as engine:
            engine.extend(instance, 100)
            engine.extend(instance, 300)
            stats = engine.stats
        assert stats.samples == 320
        assert stats.epochs == stats.batches == stats.dispatches == 5
        assert stats.draw_calls == 2
        assert stats.pool_startups == 0
        assert stats.workers == 0
        assert stats.traversals > 0
        assert sum(stats.worker_samples.values()) == 320
        payload = stats.as_dict()
        assert payload["epochs"] == 5
        assert payload["dispatches"] == 5

    def test_workers_speculate_but_ingest_exactly(self, ba200):
        instance = CoverageInstance(ba200.n)
        engine = _epoch(ba200, epoch_size=64, workers=2, lookahead=2)
        with engine:
            engine.extend(instance, 100)
            engine.extend(instance, 300)
            stats = engine.stats
            if stats.workers == 0:  # pragma: no cover - sandboxed
                pytest.skip("subprocesses unavailable")
            assert stats.samples == 320
            assert stats.epochs == 5
            # lookahead keeps tickets in flight beyond demand
            assert stats.dispatches > stats.epochs
            assert stats.pool_startups == 1
            # work counters fold at ingest: speculative epochs that are
            # still in flight contribute nothing
            assert sum(stats.worker_samples.values()) == 320

    def test_persistent_workers_survive_draws(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=1)
        with engine:
            engine.draw(64)
            engine.draw(64)
            instance = CoverageInstance(ba200.n)
            engine.extend(instance, 256)
            if engine.stats.workers == 0:  # pragma: no cover - sandboxed
                pytest.skip("subprocesses unavailable")
            assert engine.stats.pool_startups == 1


class TestWire:
    def test_pack_unpack_round_trip(self, ba200):
        with SerialEngine(ba200, seed=5) as serial:
            samples = list(serial.draw(40))
        packed = PackedSamples.from_samples(samples)
        assert len(packed) == 40
        _assert_same_samples(list(packed), samples)

    def test_packed_coverage_is_deduplicated(self, two_triangles):
        # null samples (disconnected pairs) pack to empty coverage rows
        with SerialEngine(two_triangles, seed=3) as serial:
            packed = serial.draw(60)
        for include_endpoints in (True, False):
            flat, offsets = packed.coverage(include_endpoints)
            for i, sample in enumerate(packed):
                row = flat[offsets[i]:offsets[i + 1]]
                inner = sample.nodes if include_endpoints else sample.nodes[1:-1]
                assert np.array_equal(row, np.unique(inner))

    def test_pickle_round_trip(self, grid3x3):
        import pickle

        with SerialEngine(grid3x3, seed=5) as serial:
            packed = serial.draw(10)
        clone = pickle.loads(pickle.dumps(packed))
        _assert_same_samples(list(clone), list(packed))


class TestCheckpoint:
    def test_mid_epoch_snapshot_refused(self, grid3x3):
        with _epoch(grid3x3, epoch_size=30, workers=0) as engine:
            engine.draw(10)
            with pytest.raises(CheckpointError):
                engine.rng_state()

    def test_state_repositions_the_stream(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=2, seed=9)
        instance = CoverageInstance(ba200.n)
        engine.extend(instance, 128)
        state = engine.rng_state()
        assert state["bit_generator"] == "repro-epoch-stream"
        assert state["next_epoch"] == 2
        engine.close()

        resumed = _epoch(ba200, epoch_size=64, workers=0, seed=0)
        resumed.set_rng_state(state)
        continued = resumed.draw(64)
        resumed.close()

        straight = _epoch(ba200, epoch_size=64, workers=0, seed=9)
        straight.draw(128)
        expected = straight.draw(64)
        straight.close()
        _assert_same_samples(continued, expected)

    def test_epoch_size_mismatch_refused(self, grid3x3):
        with _epoch(grid3x3, epoch_size=30, workers=0) as engine:
            state = engine.rng_state()
        with _epoch(grid3x3, epoch_size=31, workers=0) as other:
            with pytest.raises(CheckpointError):
                other.set_rng_state(state)

    def test_foreign_state_refused(self, grid3x3):
        with _epoch(grid3x3, workers=0) as engine:
            with pytest.raises(CheckpointError):
                engine.set_rng_state({"bit_generator": "PCG64", "state": {}})


class TestLifecycle:
    def test_close_is_idempotent_and_restartable(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=0)
        first = engine.draw(64)
        engine.close()
        engine.close()
        # the stream position survives close: the next epoch follows on
        second = engine.draw(64)
        engine.close()
        straight = _epoch(ba200, epoch_size=64, workers=0)
        expected = straight.draw(128)
        straight.close()
        _assert_same_samples(first + second, expected)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_close_mid_epoch_keeps_the_carried_tail(self, ba200, workers):
        """Closing mid-epoch discards only speculative epochs: the
        undelivered tail of the current epoch is still drawn next."""
        engine = _epoch(ba200, epoch_size=64, workers=workers)
        try:
            first = engine.draw(10)
            engine.close()
            second = engine.draw(54)
        finally:
            engine.close()
        straight = _epoch(ba200, epoch_size=64, workers=workers)
        try:
            expected = straight.draw(64)
        finally:
            straight.close()
        _assert_same_samples(first + second, expected)

    def test_set_rng_state_drops_the_carried_tail(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=0)
        state = engine.rng_state()
        first = engine.draw(10)
        engine.set_rng_state(state)
        again = engine.draw(10)
        engine.close()
        _assert_same_samples(first, again)

    def test_extend_failure_reaps_workers(self, ba200):
        """An exception escaping ``extend`` must stop the persistent
        workers even when the caller holds the exception (and through
        its traceback, the engine) in a reference cycle — the scenario
        where ``__del__`` never runs and daemon children would
        otherwise sample forever."""
        import multiprocessing

        before = set(multiprocessing.active_children())
        engine = _epoch(ba200, epoch_size=64, workers=2)
        engine.draw(64)
        if engine.stats.workers == 0:  # pragma: no cover - sandboxed
            engine.close()
            pytest.skip("subprocesses unavailable")

        class Boom(Exception):
            pass

        instance = CoverageInstance(ba200.n)

        def failing_append(flat, offsets):
            raise Boom("coverage append failed")

        instance.add_paths_packed = failing_append
        cycle = []
        with pytest.raises(Boom) as excinfo:
            engine.extend(instance, 256)
        # a cycle through the traceback keeps the engine frames alive,
        # defeating refcount-driven __del__ cleanup
        cycle.append(excinfo.value)
        cycle.append(cycle)
        leaked = [
            p
            for p in set(multiprocessing.active_children()) - before
            if p.is_alive()
        ]
        assert not leaked, f"extend failure leaked workers: {leaked}"
        # the engine stays restartable: the next draw brings the pool
        # back and the stream continues from the carried position
        del instance.add_paths_packed
        engine.extend(instance, 64)
        assert instance.num_paths >= 64
        engine.close()

    def test_worker_death_degrades_deterministically(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=2)
        first = engine.draw(64)
        if engine.stats.workers == 0:  # pragma: no cover - sandboxed
            engine.close()
            pytest.skip("subprocesses unavailable")
        for proc in engine._procs:
            proc.terminate()
        # draw past the speculation horizon (lookahead 2 x 2 workers):
        # epochs the dead pool never computed must be awaited, which is
        # what forces death detection — a draw small enough to be served
        # from already-arrived speculative epochs may never notice
        second = engine.draw(512)
        assert engine.stats.workers == 0  # degraded in-process
        engine.close()
        straight = _epoch(ba200, epoch_size=64, workers=0)
        expected = straight.draw(576)
        straight.close()
        _assert_same_samples(first + second, expected)


#: Epoch seed the patched epoch body refuses to serve while armed.
_POISON = {"seed": None, "armed": False}


@pytest.fixture
def poisoned(monkeypatch):
    """Patch the shared epoch body to raise for one seed while armed.

    Workers start lazily on the first draw and the default ``fork``
    start method copies the patched module state into them, so the
    same patch covers worker-side and in-process epochs."""
    real = epoch_module._epoch_samples

    def epoch_samples(graph, seed, count):
        if _POISON["armed"] and seed == _POISON["seed"]:
            raise ValueError(f"injected failure for seed {seed}")
        return real(graph, seed, count)

    monkeypatch.setattr(epoch_module, "_epoch_samples", epoch_samples)
    yield _POISON
    _POISON.update(seed=None, armed=False)


def _poison_epoch(poison, engine, index):
    poison.update(seed=engine._seed_for(index), armed=True)
    return poison["seed"]


class TestEpochFailures:
    """An epoch body that raises inside a healthy worker (or in process)
    surfaces as :class:`~repro.exceptions.EngineError` naming the
    epoch's index, size and seed; the engine stays usable and the
    stream continues exactly where the healthy one would."""

    def test_failing_epoch_raises_engine_error(self, ba200, poisoned):
        with _epoch(ba200, epoch_size=16, workers=0) as engine:
            seed = _poison_epoch(poisoned, engine, 1)
            assert len(engine.draw(16)) == 16
            with pytest.raises(
                EngineError, match=rf"epoch 1 \(size=16, seed={seed}\)"
            ):
                engine.draw(16)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_engine_usable_after_failure(self, ba200, poisoned, workers):
        with _epoch(ba200, epoch_size=16, workers=workers) as engine:
            seed = _poison_epoch(poisoned, engine, 2)
            first = engine.draw(16)
            with pytest.raises(
                EngineError, match=rf"epoch 2 \(size=16, seed={seed}\)"
            ):
                engine.draw(64)
            # a transient fault: the retried draw continues the stream
            # bit-identically, restarting any reaped workers
            poisoned["armed"] = False
            second = engine.draw(64)
        with _epoch(ba200, epoch_size=16, workers=0) as healthy:
            expected = healthy.draw(80)
        _assert_same_samples(first + second, expected)

    def test_extend_surfaces_the_error(self, ba200, poisoned):
        engine = create_engine("epoch", ba200, seed=32, workers=0, epoch_size=7)
        with engine:
            _poison_epoch(poisoned, engine, 0)
            instance = CoverageInstance(ba200.n)
            with pytest.raises(EngineError, match=r"epoch 0 \(size=7"):
                engine.extend(instance, 7)
            assert instance.num_paths == 0


def _segment_paths(engine):
    """On-disk /dev/shm paths of the engine's shared graph segments."""
    if engine._segments is None:
        return []
    return [
        os.path.join("/dev/shm", name.lstrip("/"))
        for name in engine._segments.block_names()
    ]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no POSIX shared memory")
class TestSharedSegments:
    def test_segments_unlinked_on_close(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=2)
        engine.draw(64)
        paths = _segment_paths(engine)
        if engine.stats.workers:  # workers actually started
            assert paths and all(os.path.exists(p) for p in paths)
        engine.close()
        assert not any(os.path.exists(p) for p in paths)
        engine.close()  # idempotent

    def test_segments_unlinked_after_worker_death(self, ba200):
        engine = _epoch(ba200, epoch_size=64, workers=2)
        engine.draw(64)
        paths = _segment_paths(engine)
        for proc in engine._procs:
            proc.terminate()
        assert len(engine.draw(512)) == 512
        engine.close()
        assert not any(os.path.exists(p) for p in paths)
