"""Fixture snippets for the cross-process safety rules (RPR201/RPR202)."""

import textwrap

def rule_ids_of(findings):
    """The sorted rule-ID list of a findings batch."""
    return sorted({finding.rule for finding in findings})


def check(findings_for, source, module="repro.engine.epoch"):
    return findings_for(textwrap.dedent(source), module=module)


# ----------------------------------------------------------------------
# RPR201 — unpicklable pool tasks
# ----------------------------------------------------------------------
class TestUnpicklableTask:
    def test_triggers_on_lambda_submit(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(pool, data):
                return pool.submit(lambda: data + 1)
            """,
        )
        assert rule_ids_of(findings) == ["RPR201"]

    def test_triggers_on_lambda_map(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(pool, chunks):
                return pool.map(lambda c: c * 2, chunks)
            """,
        )
        assert rule_ids_of(findings) == ["RPR201"]

    def test_triggers_on_nested_function(self, findings_for):
        findings = check(
            findings_for,
            """
            def run(pool, chunks):
                def work(chunk):
                    return chunk * 2
                return pool.map(work, chunks)
            """,
        )
        assert rule_ids_of(findings) == ["RPR201"]
        assert "work" in findings[0].message

    def test_triggers_on_lambda_initializer(self, findings_for):
        findings = check(
            findings_for,
            """
            from concurrent.futures import ProcessPoolExecutor

            def build():
                return ProcessPoolExecutor(initializer=lambda: None)
            """,
        )
        assert rule_ids_of(findings) == ["RPR201"]

    def test_passes_on_module_level_function(self, findings_for):
        # a module-level task function, as the epoch engine submits
        findings = check(
            findings_for,
            """
            def _draw_chunk(args):
                return args

            def run(pool, chunks):
                return [pool.submit(_draw_chunk, c) for c in chunks]
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR202 — shared CSR array mutation
# ----------------------------------------------------------------------
class TestSharedArrayMutation:
    def test_triggers_on_subscript_write(self, findings_for):
        findings = check(
            findings_for,
            """
            def corrupt(graph):
                graph.indptr[0] = 1
            """,
        )
        assert rule_ids_of(findings) == ["RPR202"]

    def test_triggers_on_augassign(self, findings_for):
        findings = check(
            findings_for,
            """
            def shift(graph):
                graph.indices[:] += 1
            """,
        )
        assert rule_ids_of(findings) == ["RPR202"]

    def test_triggers_on_setflags_write_true(self, findings_for):
        findings = check(
            findings_for,
            """
            def unlock(graph):
                graph.indptr.setflags(write=True)
            """,
        )
        assert rule_ids_of(findings) == ["RPR202"]

    def test_passes_in_owning_module(self, findings_for):
        findings = check(
            findings_for,
            """
            def fill(shm_view, source):
                shm_view.indptr[:] = source
            """,
            module="repro.engine.shm",
        )
        assert findings == []

    def test_passes_on_constructor_rebinding(self, findings_for):
        # holder objects may *bind* the arrays (repro.paths.bidirectional)
        findings = check(
            findings_for,
            """
            class Side:
                def __init__(self, indptr, indices):
                    self.indptr = indptr
                    self.indices = indices
            """,
            module="repro.paths.bidirectional",
        )
        assert findings == []

    def test_passes_on_local_name_collision(self, findings_for):
        # a local probability vector named `weights` is not shared state
        findings = check(
            findings_for,
            """
            def normalize(weights):
                weights /= weights.sum()
                return weights
            """,
            module="repro.graph.generators",
        )
        assert findings == []

    def test_passes_on_setflags_write_false(self, findings_for):
        findings = check(
            findings_for,
            """
            def freeze(view):
                view.setflags(write=False)
            """,
        )
        assert findings == []
