"""Fixture snippets for the telemetry-discipline rule (RPR301)."""

import textwrap

from repro.obs import COUNTERS, EVENTS, is_counter, is_event, is_span

def rule_ids_of(findings):
    """The sorted rule-ID list of a findings batch."""
    return sorted({finding.rule for finding in findings})


def check(findings_for, source, module="repro.engine.serial"):
    return findings_for(textwrap.dedent(source), module=module)


class TestUnregisteredTelemetryName:
    def test_triggers_on_unknown_counter(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(telemetry):
                telemetry.count("engine.sampels", 1)
            """,
        )
        assert rule_ids_of(findings) == ["RPR301"]
        assert "engine.sampels" in findings[0].message

    def test_triggers_on_unknown_event(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(self):
                self.telemetry.event("iteration_done")
            """,
        )
        assert rule_ids_of(findings) == ["RPR301"]

    def test_triggers_on_unknown_span(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(self):
                with self.telemetry.span("session.redraws", samples=3):
                    pass
            """,
        )
        assert rule_ids_of(findings) == ["RPR301"]
        assert "span name 'session.redraws'" in findings[0].message

    def test_span_names_registered_or_dynamic(self, findings_for):
        """Literal span names must be registered; a name computed at
        run time (the algorithms' outer spans) is left alone."""
        findings = check(
            findings_for,
            """
            def run(self, telemetry):
                with telemetry.span("session.invalidate", lanes=2):
                    pass
                with telemetry.span("session.redraw", samples=3):
                    pass
                with telemetry.span(self.name.lower()):
                    pass
            """,
        )
        assert findings == []
        assert is_span("session.invalidate") and is_span("session.redraw")

    def test_triggers_on_non_literal_name(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(telemetry, name):
                telemetry.count(name, 1)
            """,
        )
        assert rule_ids_of(findings) == ["RPR301"]
        assert "string literal" in findings[0].message

    def test_passes_on_registered_counter(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(self):
                self.telemetry.count("engine.samples", 4)
            """,
        )
        assert findings == []

    def test_passes_on_registered_event(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(hub):
                hub.event("iteration", i=3)
            """,
        )
        assert findings == []

    def test_ignores_non_hub_receivers(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(text, items):
                return text.count("x") + items.count(3)
            """,
        )
        assert findings == []

    def test_registry_helpers_agree_with_rule(self):
        assert is_counter("engine.samples")
        assert not is_counter("engine.sampels")
        assert is_event("iteration")
        assert not is_event("engine.samples")
        assert COUNTERS.isdisjoint(EVENTS)

    def test_epoch_engine_names_registered(self, findings_for):
        """The epoch-engine and mmap-tier names emit findings-free."""
        findings = check(
            findings_for,
            """
            def run(self, hub):
                self.telemetry.count("engine.epoch.dispatches", 3)
                hub.count("graph.mmap.opens", 1)
                hub.count("graph.mmap.bytes_mapped", 4096)
            """,
            module="repro.engine.epoch",
        )
        assert findings == []
        for name in (
            "engine.epoch.dispatches",
            "graph.mmap.opens",
            "graph.mmap.bytes_mapped",
        ):
            assert is_counter(name)
        # the retired epoch stream's names are gone with it
        for name in ("engine.epoch.epochs", "engine.epoch.discarded"):
            assert not is_counter(name)
        assert not is_event("engine.epoch.barrier")

    def test_epoch_typo_still_caught(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(self):
                self.telemetry.count("engine.epoch.epoches", 1)
            """,
            module="repro.engine.epoch",
        )
        assert rule_ids_of(findings) == ["RPR301"]

    def test_weighted_wavefront_names_registered(self, findings_for):
        """The weighted-kernel and batched-CELF names emit findings-free."""
        findings = check(
            findings_for,
            """
            def run(self, hub):
                self.telemetry.count("paths.weighted_cohorts", 1)
                self.telemetry.count("paths.bucket_relaxations", 17)
                hub.count("coverage.batched_evals", 16)
            """,
            module="repro.engine.base",
        )
        assert findings == []
        for name in (
            "paths.weighted_cohorts",
            "paths.bucket_relaxations",
            "coverage.batched_evals",
        ):
            assert is_counter(name)

    def test_weighted_wavefront_typo_still_caught(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(self):
                self.telemetry.count("paths.weighted_cohortz", 1)
                self.telemetry.count("coverage.batched_eval", 4)
            """,
            module="repro.engine.base",
        )
        assert rule_ids_of(findings) == ["RPR301"]
        assert len(findings) == 2

    def test_dynamic_graph_names_registered(self, findings_for):
        """The delta / invalidation / redraw / mutate names emit
        findings-free."""
        findings = check(
            findings_for,
            """
            def run(self, hub):
                self.telemetry.count("graph.delta.updates", 1)
                self.telemetry.count("graph.delta.edges_changed", 5)
                hub.count("store.invalidated", 40)
                hub.count("store.redrawn", 40)
                hub.count("serve.mutations", 1)
                self.telemetry.event("session.update", tested=500)
                hub.event("serve.mutate", seconds=0.1)
            """,
            module="repro.graph.delta",
        )
        assert findings == []
        for name in (
            "graph.delta.updates",
            "graph.delta.edges_changed",
            "store.invalidated",
            "store.redrawn",
            "serve.mutations",
        ):
            assert is_counter(name)
        assert is_event("session.update")
        assert is_event("serve.mutate")

    def test_dynamic_graph_typo_still_caught(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(self):
                self.telemetry.count("graph.delta.update", 1)
                self.telemetry.event("serve.mutated")
            """,
            module="repro.serve.daemon",
        )
        assert rule_ids_of(findings) == ["RPR301"]
        assert len(findings) == 2
