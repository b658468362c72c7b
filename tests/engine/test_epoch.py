"""Tests for the worker fan-out engine (:mod:`repro.engine.epoch`).

The contract under test:

* the sample stream is a pure function of the seed — bit-identical for
  0 (in-process), 1, or 4 persistent workers, identical to the serial
  engine, and independent of how ``draw`` requests slice it;
* ``rng_state`` (key and cursor) snapshots reposition the stream
  exactly, between any two draws;
* statistics account tickets and worker startup;
* a dying worker degrades to in-process computation without changing
  a single sample, and a raising ticket surfaces as an ``EngineError``
  without breaking the engine;
* the shared graph segments are unlinked on close.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.engine import STREAM_TAG, EpochEngine, PackedSamples, create_engine
from repro.engine import epoch as epoch_module
from repro.engine.serial import SerialEngine
from repro.exceptions import CheckpointError, EngineError, ParameterError
from repro.graph import barabasi_albert
from repro.obs import Telemetry


@pytest.fixture(scope="module")
def ba200():
    return barabasi_albert(200, 2, seed=3)


def _epoch(graph, seed=7, workers=0):
    return EpochEngine(graph, seed=seed, workers=workers)


@pytest.fixture
def small_tickets(monkeypatch):
    """Tickets of 16 indices, so small draws span several tickets (the
    default ``fork`` start copies the patched size into workers)."""
    monkeypatch.setattr(epoch_module, "_TICKET", 16)
    return 16


def _assert_same_samples(first, second):
    assert len(first) == len(second)
    for name in ("sources", "targets", "distances", "sigmas", "nodes", "offsets"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


class TestValidation:
    def test_bad_workers(self, grid3x3):
        with pytest.raises(ParameterError):
            EpochEngine(grid3x3, workers=-1)

    def test_bad_epoch_size(self, grid3x3):
        """The epoch size is no longer a knob (tickets have one fixed
        internal size that never changes a sample): any value is
        refused, never silently ignored."""
        with pytest.raises(TypeError):
            EpochEngine(grid3x3, epoch_size=64)
        with pytest.raises(TypeError):
            create_engine(grid3x3, workers=1, epoch_size=64)

    def test_bad_lookahead(self, grid3x3):
        """Speculative lookahead is gone with the epoch stream: any value
        is refused, never silently ignored."""
        with pytest.raises(TypeError):
            EpochEngine(grid3x3, lookahead=2)


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

    def test_draw_slicing_invariant(self, ba200, small_tickets):
        """Sample ``i`` is sample ``i``: the stream is independent of how
        requests slice it, of the ticket boundaries and of the engine."""
        with _epoch(ba200, workers=2) as engine:
            sliced = PackedSamples.concat([engine.draw(30), engine.draw(45)])
        with _epoch(ba200, workers=0) as engine:
            whole = engine.draw(75)
        with SerialEngine(ba200, seed=7) as engine:
            serial = engine.draw(75)
        _assert_same_samples(sliced, whole)
        _assert_same_samples(whole, serial)

    def test_draw_and_extend_share_the_stream(self, ba200):
        """``extend`` after ``draw`` continues at the cursor, exactly
        where a pure-draw engine would be."""
        instance = CoverageInstance(ba200.n)
        with _epoch(ba200, workers=0) as engine:
            head = engine.draw(40)
            engine.extend(instance, 60)
        assert instance.num_paths == 60
        with _epoch(ba200, workers=0) as engine:
            replay = engine.draw(40)
            replay_tail = engine.draw(60)
        _assert_same_samples(head, replay)
        # the instance stores each path's covered node set
        flat, offsets = replay_tail.coverage()
        for pid in range(instance.num_paths):
            assert np.array_equal(
                instance.path(pid), flat[offsets[pid] : offsets[pid + 1]]
            )


class TestExtendRounding:
    def test_extend_flushes_carry_first(self, grid3x3):
        """A partial draw moves the cursor; a following ``extend`` draws
        exactly what is missing, starting there."""
        instance = CoverageInstance(grid3x3.n)
        with _epoch(grid3x3, workers=0) as engine:
            engine.draw(10)
            engine.extend(instance, 15)
            assert instance.num_paths == 15
            assert engine.cursor == 25


class TestStats:
    def test_in_process_accounting(self, ba200, small_tickets):
        instance = CoverageInstance(ba200.n)
        with _epoch(ba200, workers=0) as engine:
            engine.extend(instance, 100)
            engine.extend(instance, 300)
            stats = engine.stats
        assert stats.samples == 300
        assert stats.batches == 7 + 13  # tickets of 16
        assert stats.draw_calls == 2
        assert stats.pool_startups == 0
        assert stats.workers == 0
        assert stats.traversals > 0
        assert sum(stats.worker_samples.values()) == 300
        assert stats.as_dict()["batches"] == 20

    def test_search_rounds_identical_across_worker_counts(self, ba200):
        """Tickets and the in-process draw cut the stream into the same
        512-sample search calls, so the lock-step rounds they report —
        in the stats and as the ``paths.search_rounds`` counter — agree
        for 0, 1 and 2 workers."""
        seen = []
        for workers in (0, 1, 2):
            hub = Telemetry()
            instance = CoverageInstance(ba200.n)
            with create_engine(
                ba200, seed=7, workers=workers, telemetry=hub
            ) as engine:
                engine.extend(instance, 700)
                engine.extend(instance, 1_300)
                rounds = engine.stats.search_rounds
            assert hub.snapshot()["counters"]["paths.search_rounds"] == rounds
            seen.append(rounds)
        assert seen[0] > 0
        assert seen == [seen[0]] * 3

    def test_persistent_workers_survive_draws(self, ba200):
        engine = _epoch(ba200, workers=1)
        with engine:
            engine.draw(64)
            engine.draw(64)
            instance = CoverageInstance(ba200.n)
            engine.extend(instance, 256)
            if engine.stats.workers == 0:  # pragma: no cover - sandboxed
                pytest.skip("subprocesses unavailable")
            assert engine.stats.pool_startups == 1
            assert sum(engine.stats.worker_samples.values()) == 384


class TestWire:
    def test_pack_unpack_round_trip(self, ba200):
        with SerialEngine(ba200, seed=5) as serial:
            samples = serial.draw(40)
        packed = PackedSamples.from_paths(
            samples.sources, samples.targets, samples.distances,
            samples.sigmas, samples.edges,
            np.split(samples.nodes, samples.offsets[1:-1]),
        )
        assert len(packed) == 40
        _assert_same_samples(packed, samples)

    def test_packed_coverage_is_deduplicated(self, two_triangles):
        # null samples (disconnected pairs) pack to empty coverage rows
        with SerialEngine(two_triangles, seed=3) as serial:
            packed = serial.draw(60)
        for include_endpoints in (True, False):
            flat, offsets = packed.coverage(include_endpoints)
            paths = np.split(packed.nodes, packed.offsets[1:-1])
            for i, nodes in enumerate(paths):
                row = flat[offsets[i]:offsets[i + 1]]
                inner = nodes if include_endpoints else nodes[1:-1]
                assert np.array_equal(row, np.unique(inner))

    def test_pickle_round_trip(self, grid3x3):
        import pickle

        with SerialEngine(grid3x3, seed=5) as serial:
            packed = serial.draw(10)
        clone = pickle.loads(pickle.dumps(packed))
        _assert_same_samples(clone, packed)


class TestCheckpoint:
    def test_state_repositions_the_stream(self, ba200):
        engine = _epoch(ba200, workers=2, seed=9)
        instance = CoverageInstance(ba200.n)
        engine.extend(instance, 100)
        state = engine.rng_state()
        assert state == {"stream": STREAM_TAG, "key": 9, "cursor": 100}
        engine.close()

        resumed = _epoch(ba200, workers=0, seed=0)
        resumed.set_rng_state(state)
        continued = resumed.draw(64)
        resumed.close()

        straight = _epoch(ba200, workers=0, seed=9)
        straight.draw(100)
        expected = straight.draw(64)
        straight.close()
        _assert_same_samples(continued, expected)

    def test_epoch_size_mismatch_refused(self, grid3x3):
        """A state of the retired epoch stream (keyed on its epoch size)
        cannot be continued by the index-addressed stream."""
        old = {
            "bit_generator": "repro-epoch-stream",
            "entropy": 5,
            "next_epoch": 2,
            "epoch_size": 30,
        }
        with _epoch(grid3x3, workers=0) as engine:
            with pytest.raises(CheckpointError, match="repro-epoch-stream"):
                engine.set_rng_state(old)

    def test_foreign_state_refused(self, grid3x3):
        with _epoch(grid3x3, workers=0) as engine:
            with pytest.raises(CheckpointError, match="older sample stream"):
                engine.set_rng_state({"bit_generator": "PCG64", "state": {}})


class TestLifecycle:
    def test_close_is_idempotent_and_restartable(self, ba200):
        engine = _epoch(ba200, workers=0)
        first = engine.draw(64)
        engine.close()
        engine.close()
        # the stream position survives close
        second = engine.draw(64)
        engine.close()
        straight = _epoch(ba200, workers=0)
        expected = straight.draw(128)
        straight.close()
        _assert_same_samples(PackedSamples.concat([first, second]), expected)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_close_mid_epoch_keeps_the_carried_tail(
        self, ba200, workers, small_tickets
    ):
        """Closing between draws that split a ticket loses nothing: the
        next draw starts at the cursor."""
        engine = _epoch(ba200, workers=workers)
        try:
            first = engine.draw(10)
            engine.close()
            second = engine.draw(54)
        finally:
            engine.close()
        straight = _epoch(ba200, workers=workers)
        try:
            expected = straight.draw(64)
        finally:
            straight.close()
        _assert_same_samples(PackedSamples.concat([first, second]), expected)

    def test_set_rng_state_drops_the_carried_tail(self, ba200):
        engine = _epoch(ba200, workers=0)
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
        engine = _epoch(ba200, workers=2)
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
        # back and the stream continues from the cursor
        del instance.add_paths_packed
        engine.extend(instance, 64)
        assert instance.num_paths >= 64
        engine.close()

    def test_worker_death_degrades_deterministically(self, ba200):
        engine = _epoch(ba200, workers=2)
        first = engine.draw(64)
        if engine.stats.workers == 0:  # pragma: no cover - sandboxed
            engine.close()
            pytest.skip("subprocesses unavailable")
        for proc in engine._procs:
            proc.terminate()
        second = engine.draw(1500)
        assert engine.stats.workers == 0  # degraded in-process
        engine.close()
        straight = _epoch(ba200, workers=0)
        expected = straight.draw(1564)
        straight.close()
        _assert_same_samples(PackedSamples.concat([first, second]), expected)


#: Ticket start the patched ticket body refuses to serve while armed.
_POISON = {"lo": None, "armed": False}


@pytest.fixture
def poisoned(monkeypatch, small_tickets):
    """Patch the shared ticket body to raise for one ticket while armed.

    Workers start lazily on the first draw and the default ``fork``
    start method copies the patched module state into them, so the
    same patch covers worker-side and in-process tickets."""
    real = epoch_module._ticket_samples

    def ticket_samples(graph, key, lo, hi):
        if _POISON["armed"] and lo == _POISON["lo"]:
            raise ValueError(f"injected failure for ticket {lo}")
        return real(graph, key, lo, hi)

    monkeypatch.setattr(epoch_module, "_ticket_samples", ticket_samples)
    yield _POISON
    _POISON.update(lo=None, armed=False)


class TestEpochFailures:
    """A ticket body that raises inside a healthy worker (or in process)
    surfaces as :class:`~repro.exceptions.EngineError` naming the
    ticket's index range; the engine stays usable and the stream
    continues exactly where the healthy one would."""

    def test_failing_epoch_raises_engine_error(self, ba200, poisoned):
        with _epoch(ba200, workers=0) as engine:
            poisoned.update(lo=16, armed=True)
            assert len(engine.draw(16)) == 16
            with pytest.raises(EngineError, match=r"ticket \[16, 32\)"):
                engine.draw(16)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_engine_usable_after_failure(self, ba200, poisoned, workers):
        with _epoch(ba200, workers=workers) as engine:
            poisoned.update(lo=32, armed=True)
            first = engine.draw(16)
            with pytest.raises(EngineError, match=r"ticket \[32, 48\)"):
                engine.draw(64)
            # a transient fault: the retried draw continues the stream
            # bit-identically, restarting any reaped workers
            poisoned["armed"] = False
            second = engine.draw(64)
        with _epoch(ba200, workers=0) as healthy:
            expected = healthy.draw(80)
        _assert_same_samples(PackedSamples.concat([first, second]), expected)

    def test_extend_surfaces_the_error(self, ba200, poisoned):
        with _epoch(ba200, seed=32, workers=0) as engine:
            poisoned.update(lo=0, armed=True)
            instance = CoverageInstance(ba200.n)
            with pytest.raises(EngineError, match=r"ticket \[0, 7\)"):
                engine.extend(instance, 7)
            assert instance.num_paths == 0
            assert engine.cursor == 0


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
        engine = _epoch(ba200, workers=2)
        engine.draw(64)
        paths = _segment_paths(engine)
        if engine.stats.workers:  # workers actually started
            assert paths and all(os.path.exists(p) for p in paths)
        engine.close()
        assert not any(os.path.exists(p) for p in paths)
        engine.close()  # idempotent

    def test_segments_unlinked_after_worker_death(self, ba200):
        engine = _epoch(ba200, workers=2)
        engine.draw(64)
        paths = _segment_paths(engine)
        for proc in engine._procs:
            proc.terminate()
        assert len(engine.draw(1500)) == 1500
        engine.close()
        assert not any(os.path.exists(p) for p in paths)
