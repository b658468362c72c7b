"""Fixture records for the registry-drift project rule (RPR302)."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.checks.core import ModuleRecord, _check_records, parse_record, run_checks
from repro.checks.rules_registry_drift import RegistryDriftRule

REGISTRY = """\
COUNTERS = frozenset({"engine.samples", "engine.ghost"})
EVENTS = frozenset({"epoch.sealed"})
"""

ROOT = '"""Synthetic package root."""\n'

EMITTER = """\
def run(telemetry):
    telemetry.count("engine.samples", 1)
    telemetry.event("epoch.sealed")
"""


def _records(modules):
    records = []
    for module, source in modules:
        record = parse_record(source, module, module.replace(".", "/") + ".py")
        assert isinstance(record, ModuleRecord), record
        records.append(record)
    return records


def _drift(records):
    findings, _suppressed = _check_records(records, [RegistryDriftRule])
    return findings


class TestDrift:
    def test_unemitted_counter_is_drift(self):
        findings = _drift(
            _records(
                [
                    ("mypkg", ROOT),
                    ("mypkg.obs.registry", REGISTRY),
                    ("mypkg.engine", EMITTER),
                ]
            )
        )
        assert [f.rule for f in findings] == ["RPR302"]
        assert "engine.ghost" in findings[0].message
        assert "COUNTERS" in findings[0].message
        # reported at the registry literal, in the registry module
        assert findings[0].module == "mypkg.obs.registry"

    def test_fully_emitted_registry_is_clean(self):
        emitter = EMITTER + '\n\ndef more(tel):\n    tel.count("engine.ghost")\n'
        findings = _drift(
            _records(
                [
                    ("mypkg", ROOT),
                    ("mypkg.obs.registry", REGISTRY),
                    ("mypkg.engine", emitter),
                ]
            )
        )
        assert findings == []

    def test_unemitted_span_is_drift(self):
        registry = REGISTRY + 'SPANS = frozenset({"draw", "ghost.span"})\n'
        emitter = EMITTER + (
            "\n\ndef timed(hub):\n"
            '    hub.count("engine.ghost")\n'
            '    with hub.span("draw"):\n'
            "        pass\n"
        )
        findings = _drift(
            _records(
                [
                    ("mypkg", ROOT),
                    ("mypkg.obs.registry", registry),
                    ("mypkg.engine", emitter),
                ]
            )
        )
        assert [f.rule for f in findings] == ["RPR302"]
        assert "ghost.span" in findings[0].message
        assert "SPANS" in findings[0].message

    def test_subset_runs_stay_silent(self):
        """Without the package root among the checked modules this is a
        file subset, and a missing emitter proves nothing."""
        findings = _drift(
            _records(
                [
                    ("mypkg.obs.registry", REGISTRY),
                    ("mypkg.engine", EMITTER),
                ]
            )
        )
        assert findings == []

    def test_shipped_registry_has_no_drift(self):
        report = run_checks(
            [Path(repro.__file__).parent], rules=[RegistryDriftRule]
        )
        assert report.ok, "\n".join(f.render() for f in report.findings)
