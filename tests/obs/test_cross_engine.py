"""Telemetry counters agree across execution engines.

The ``engine.*`` counters re-export :class:`repro.engine.base.EngineStats`
deltas at every ``extend``; the sample/draw accounting is part of the
engines' determinism contract, so for a fixed request sequence the
serial and epoch engines must report identical totals.
"""

import pytest

from repro.coverage import CoverageInstance
from repro.engine import create_engine
from repro.obs import Telemetry

#: Engine name -> the ``workers`` value that selects it.
WORKERS = {"serial": 0, "epoch": 2}


def _run_engine(name, graph, requests):
    tel = Telemetry()
    engine = create_engine(graph, seed=41, telemetry=tel, workers=WORKERS[name])
    with engine:
        instance = CoverageInstance(graph.n)
        for target in requests:
            engine.extend(instance, target)
    return tel, instance


@pytest.mark.parametrize("name", sorted(WORKERS))
def test_counter_totals_match_engine_stats(grid3x3, name):
    tel, instance = _run_engine(name, grid3x3, [32, 64])
    assert tel.counters["engine.samples"] == 64
    assert tel.counters["engine.draw_calls"] == 2
    assert tel.counters["engine.traversals"] > 0
    assert instance.num_paths == 64


def test_counter_totals_identical_across_engines(grid3x3):
    requests = [32, 77]
    baseline, _ = _run_engine("serial", grid3x3, requests)
    for name in sorted(set(WORKERS) - {"serial"}):
        tel, _ = _run_engine(name, grid3x3, requests)
        for counter in ("engine.samples", "engine.draw_calls"):
            assert tel.counters[counter] == baseline.counters[counter], (
                f"{name} disagrees with serial on {counter}"
            )


def test_spans_recorded_per_draw(grid3x3):
    tel, _ = _run_engine("serial", grid3x3, [16, 32])
    assert tel.spans["draw"]["count"] == 2
