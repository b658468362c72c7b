"""Fixture snippets for the RNG-taint dataflow rule (RPR701).

Fixtures use ``id()``/``hash()`` as taint sources: they are ambient
(CPython address / PYTHONHASHSEED dependent) but invisible to the
syntactic RPR0xx rules, so these tests exercise exactly the laundering
gap the dataflow tier exists to close.
"""

from __future__ import annotations

import textwrap


def taint_findings(findings_for, source, module="repro.paths.sampler"):
    findings = findings_for(textwrap.dedent(source), module=module)
    return [f for f in findings if f.rule == "RPR701"]


class TestDirectFlow:
    def test_triggers_on_laundered_source(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def run(engine, obj):
                offset = hash(obj)
                engine.extend(offset)
            """,
        )
        assert len(findings) == 1
        assert "ambient entropy" in findings[0].message
        assert "engine.extend()" in findings[0].message

    def test_triggers_on_sampler_and_ingest_entry_points(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def run(sampler, instance, obj):
                drawn = sampler.sample(hash(obj) % 7)
                instance.add_paths([[id(obj)]])
                return drawn
            """,
        )
        assert len(findings) == 2
        assert "sampler.sample()" in findings[0].message
        assert "add_paths()" in findings[1].message

    def test_triggers_on_tainted_seed_keyword(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def build(graph, obj):
                return create_engine(graph, seed=id(obj))
            """,
        )
        assert len(findings) == 1

    def test_passes_on_clean_seed_keyword(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def build(graph, seed):
                return create_engine(graph, seed=seed)
            """,
        )
        assert findings == []

    def test_rebinding_clears_taint(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def run(engine, obj):
                n = hash(obj)
                n = 7
                engine.extend(n)
            """,
        )
        assert findings == []

    def test_loop_carried_taint_is_found(self, findings_for):
        """Taint entering through the back edge still reaches the sink
        (the join over the loop header must be a may-union)."""
        findings = taint_findings(
            findings_for,
            """
            def run(engine, items, obj):
                acc = 0
                for item in items:
                    engine.extend(acc)
                    acc = acc + hash(obj)
            """,
        )
        assert len(findings) == 1


class TestInterprocedural:
    def test_triggers_through_a_local_helper(self, findings_for):
        """One level of summaries: a helper that returns taint marks
        its call sites."""
        findings = taint_findings(
            findings_for,
            """
            def _nonce(obj):
                return hash(obj)

            def run(sampler, n, obj):
                jitter = _nonce(obj)
                sampler.draw(n + jitter)
            """,
        )
        assert len(findings) == 1
        assert "sampler.draw()" in findings[0].message

    def test_clean_helper_does_not_taint(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def _scale(n):
                return n * 2

            def run(sampler, n):
                sampler.draw(_scale(n))
            """,
        )
        assert findings == []


class TestSanitization:
    def test_rng_seam_sanitizes(self, findings_for):
        """Values produced by repro._rng are clean by definition."""
        findings = taint_findings(
            findings_for,
            """
            from repro import _rng

            def run(engine, seed):
                gen = _rng.as_generator(seed)
                engine.extend(gen)
            """,
        )
        assert findings == []

    def test_rule_is_inert_inside_the_seam_module(self, findings_for):
        findings = taint_findings(
            findings_for,
            """
            def spawn(engine, obj):
                engine.extend(hash(obj))
            """,
            module="repro._rng",
        )
        assert findings == []
