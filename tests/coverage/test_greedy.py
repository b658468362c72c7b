"""Unit tests for the CELF lazy greedy max-cover."""

import gc
import types
import weakref
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from repro.coverage import CoverageInstance, greedy_max_cover
from repro.exceptions import InvariantViolation, ParameterError
from repro.obs import Telemetry, check_greedy


def _instance(paths, n):
    inst = CoverageInstance(n)
    inst.add_paths(paths)
    return inst


class TestBasics:
    def test_single_best_node(self):
        inst = _instance([[0], [0], [0, 1], [2]], 3)
        result = greedy_max_cover(inst, 1)
        assert result.group == [0]
        assert result.covered == 3

    def test_two_rounds(self):
        inst = _instance([[0], [0], [1], [2], [2], [2]], 3)
        result = greedy_max_cover(inst, 2)
        assert result.group == [2, 0]
        assert result.covered == 5
        assert result.gains == [3, 2]

    def test_overlap_resolved_by_marginal_gain(self):
        # node 0 covers 3 paths, node 1 covers the same 3 plus nothing new,
        # node 2 covers 1 fresh path
        inst = _instance([[0, 1], [0, 1], [0, 1], [2]], 3)
        result = greedy_max_cover(inst, 2)
        assert result.group[0] == 0
        assert result.group[1] == 2
        assert result.covered == 4

    def test_k_validation(self):
        inst = _instance([[0]], 2)
        with pytest.raises(ParameterError):
            greedy_max_cover(inst, 0)
        with pytest.raises(ParameterError):
            greedy_max_cover(inst, 3)

    def test_padding_to_exactly_k(self):
        inst = _instance([[0]], 5)
        result = greedy_max_cover(inst, 3)
        assert len(result.group) == 3
        assert result.group[0] == 0
        assert result.gains[1:] == [0, 0]

    def test_no_padding_option(self):
        inst = _instance([[0]], 5)
        result = greedy_max_cover(inst, 3, pad=False)
        assert result.group == [0]

    def test_empty_instance(self):
        inst = CoverageInstance(4)
        result = greedy_max_cover(inst, 2)
        assert len(result.group) == 2
        assert result.covered == 0

    def test_null_paths_never_covered(self):
        inst = _instance([[], [], [0]], 2)
        result = greedy_max_cover(inst, 2)
        assert result.covered == 1


class TestOptimality:
    def _brute_best(self, inst, k):
        best = 0
        for combo in combinations(range(inst.num_nodes), k):
            best = max(best, inst.covered_count(combo))
        return best

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_beats_1_minus_1_over_e(self, seed):
        rng = np.random.default_rng(seed)
        paths = [
            rng.choice(8, size=rng.integers(1, 4), replace=False)
            for _ in range(30)
        ]
        inst = _instance(paths, 8)
        for k in (1, 2, 3):
            greedy = greedy_max_cover(inst, k).covered
            optimum = self._brute_best(inst, k)
            assert greedy >= (1 - 1 / np.e) * optimum - 1e-9

    def test_k_equals_1_is_optimal(self):
        rng = np.random.default_rng(42)
        paths = [rng.choice(10, size=3, replace=False) for _ in range(40)]
        inst = _instance(paths, 10)
        greedy = greedy_max_cover(inst, 1).covered
        assert greedy == self._brute_best(inst, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_equals_plain_greedy(self, seed):
        """CELF must pick the same cover value as naive greedy."""
        rng = np.random.default_rng(seed + 50)
        paths = [
            rng.choice(12, size=rng.integers(1, 5), replace=False)
            for _ in range(60)
        ]
        inst = _instance(paths, 12)

        # naive greedy reference
        covered = np.zeros(inst.num_paths, dtype=bool)
        naive = []
        for _ in range(4):
            gains = [
                int(np.count_nonzero(~covered[inst.paths_through(v)]))
                if v not in naive
                else -1
                for v in range(12)
            ]
            best = int(np.argmax(gains))
            naive.append(best)
            covered[inst.paths_through(best)] = True
        naive_value = int(covered.sum())

        lazy = greedy_max_cover(inst, 4)
        assert lazy.covered == naive_value

    def test_evaluations_less_than_plain(self):
        rng = np.random.default_rng(7)
        paths = [rng.choice(50, size=4, replace=False) for _ in range(300)]
        inst = _instance(paths, 50)
        result = greedy_max_cover(inst, 10, batch=1)
        assert result.evaluations < 10 * 50  # plain greedy would do K*n


class TestLazyEvaluationCounts:
    """The initial degree entries are exact, so CELF must accept the
    first pop of every run without a redundant re-evaluation.  These
    counts pin the entry-at-a-time schedule, so they run at ``batch=1``
    (larger batches may price extra candidates speculatively)."""

    def test_disjoint_nodes_need_k_minus_1_evaluations(self):
        # every path hits exactly one node: after a pick, the next
        # pop's stale entry is re-evaluated once (its gain is
        # unchanged) and then accepted fresh on the following pop —
        # k - 1 evaluations in total, not k.  A fresh instance per k
        # pins the fresh-run schedule (a reused one would resume its
        # memoized run and spend only the difference).
        for k in (1, 2, 3):
            inst = _instance([[0], [0], [0], [1], [1], [2]], 4)
            result = greedy_max_cover(inst, k, batch=1)
            assert result.evaluations == k - 1
            assert result.eval_batches == result.evaluations

    def test_first_pick_costs_zero_evaluations(self):
        inst = _instance([[0, 1], [0], [2]], 3)
        result = greedy_max_cover(inst, 1, batch=1)
        assert result.group == [0]
        assert result.evaluations == 0
        assert result.eval_batches == 0

    def test_seeding_does_not_change_the_cover(self):
        rng = np.random.default_rng(11)
        paths = [
            rng.choice(20, size=rng.integers(1, 5), replace=False)
            for _ in range(100)
        ]
        inst = _instance(paths, 20)
        result = greedy_max_cover(inst, 5)
        # the group is a genuine greedy solution: replaying its gains
        # against the instance reproduces the covered total
        assert sum(result.gains) == result.covered
        assert inst.covered_count(result.group) == result.covered


class TestGainsBookkeeping:
    def test_gains_sum_to_covered(self):
        rng = np.random.default_rng(3)
        paths = [rng.choice(9, size=2, replace=False) for _ in range(25)]
        inst = _instance(paths, 9)
        result = greedy_max_cover(inst, 4)
        assert sum(result.gains) == result.covered

    def test_gains_non_increasing(self):
        rng = np.random.default_rng(4)
        paths = [rng.choice(15, size=3, replace=False) for _ in range(80)]
        inst = _instance(paths, 15)
        result = greedy_max_cover(inst, 6)
        picked = [g for g in result.gains if g > 0]
        assert picked == sorted(picked, reverse=True)


class TestBatchedEvaluation:
    """The batch knob is a pure throughput lever: selections are frozen
    across every batch size; only the evaluation schedule moves."""

    def _random_instance(self, seed, n=40, paths=250):
        rng = np.random.default_rng(seed)
        return _instance(
            [
                rng.choice(n, size=rng.integers(1, 6), replace=False)
                for _ in range(paths)
            ],
            n,
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch", [2, 3, 16, 64])
    def test_batch_sizes_pick_identical_groups(self, seed, batch):
        inst = self._random_instance(seed)
        reference = greedy_max_cover(inst, 8, batch=1)
        batched = greedy_max_cover(inst, 8, batch=batch)
        assert batched.group == reference.group
        assert batched.gains == reference.gains
        assert batched.covered == reference.covered

    def test_default_batch_matches_sequential(self):
        inst = self._random_instance(9)
        reference = greedy_max_cover(inst, 6, batch=1)
        default = greedy_max_cover(inst, 6)
        assert default.group == reference.group
        assert default.gains == reference.gains

    def test_batches_amortize_evaluations(self):
        # many overlapping candidates force plenty of stale pops per
        # round, so the vectorized passes must each absorb several
        rng = np.random.default_rng(21)
        inst = _instance(
            [rng.choice(60, size=5, replace=False) for _ in range(600)], 60
        )
        result = greedy_max_cover(inst, 10, batch=16)
        assert result.evaluations > 0
        assert 0 < result.eval_batches < result.evaluations

    def test_batch_one_pins_one_eval_per_batch(self):
        inst = self._random_instance(5)
        result = greedy_max_cover(inst, 8, batch=1)
        assert result.eval_batches == result.evaluations

    def test_telemetry_counts_batched_evals(self):
        inst = self._random_instance(13)
        hub = Telemetry()
        result = greedy_max_cover(inst, 8, telemetry=hub)
        counted = hub.snapshot()["counters"].get("coverage.batched_evals", 0)
        assert counted == result.evaluations

    def test_batch_validation(self):
        inst = _instance([[0]], 2)
        with pytest.raises(ParameterError):
            greedy_max_cover(inst, 1, batch=0)


def _random_paths(rng, n, count, longest=6):
    return [
        rng.choice(n, size=rng.integers(0, longest), replace=False)
        for _ in range(count)
    ]


class TestMemoizedOrder:
    """The CELF run is kept on the instance: every call is a prefix of
    one greedy order, so it must equal a fresh run on an identical
    copy, whatever K sequence came before it."""

    @staticmethod
    def _same(result, fresh):
        assert result.group == fresh.group
        assert result.gains == fresh.gains
        assert result.covered == fresh.covered

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "ks",
        [
            (1, 2, 5, 9, 14),
            (14, 9, 5, 2, 1),
            (6, 6, 6),
            (3, 12, 1, 7, 40, 2, 40),
        ],
        ids=["ascending", "descending", "repeated", "mixed"],
    )
    def test_any_k_sequence_equals_fresh_runs(self, seed, ks):
        rng = np.random.default_rng(seed)
        n = 40
        paths = _random_paths(rng, n, 200)
        inst = _instance(paths, n)
        for k in ks:
            result = greedy_max_cover(inst, k)
            self._same(result, greedy_max_cover(_instance(paths, n), k))

    @pytest.mark.parametrize("pad", [True, False])
    def test_exhausted_pool_equals_fresh_runs(self, pad):
        # two useful nodes: K beyond them pads (or stops) the same way
        paths = [[0], [0], [3]]
        inst = _instance(paths, 6)
        for k in (5, 1, 6, 2):
            result = greedy_max_cover(inst, k, pad=pad)
            self._same(result, greedy_max_cover(_instance(paths, 6), k, pad=pad))

    def test_append_drops_the_memo(self):
        rng = np.random.default_rng(30)
        paths = _random_paths(rng, 30, 120)
        extra = _random_paths(rng, 30, 80)
        inst = _instance(paths, 30)
        greedy_max_cover(inst, 8)
        inst.add_paths(extra)
        self._same(
            greedy_max_cover(inst, 8), greedy_max_cover(_instance(paths + extra, 30), 8)
        )

    def test_replace_drops_the_memo(self):
        rng = np.random.default_rng(31)
        paths = _random_paths(rng, 30, 120)
        inst = _instance(paths, 30)
        greedy_max_cover(inst, 8)
        ids = np.arange(0, 120, 3)
        fresh = [np.unique(p) for p in _random_paths(rng, 30, ids.size)]
        offsets = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum([p.size for p in fresh], out=offsets[1:])
        inst.replace_paths(ids, np.concatenate(fresh), offsets)
        rewritten = list(paths)
        for i, nodes in zip(ids, fresh):
            rewritten[i] = nodes
        self._same(
            greedy_max_cover(inst, 8), greedy_max_cover(_instance(rewritten, 30), 8)
        )

    def test_repeat_and_smaller_k_spend_no_evaluations(self):
        rng = np.random.default_rng(32)
        inst = _instance(_random_paths(rng, 50, 400), 50)
        first = greedy_max_cover(inst, 10)
        assert first.evaluations > 0
        hub = Telemetry()
        for k in (10, 4, 1):
            result = greedy_max_cover(inst, k, telemetry=hub)
            assert (result.evaluations, result.eval_batches) == (0, 0)
        assert hub.snapshot()["counters"].get("coverage.batched_evals", 0) == 0

    def test_resumed_run_spends_the_rest_of_a_fresh_run(self):
        rng = np.random.default_rng(33)
        paths = _random_paths(rng, 50, 400)
        inst = _instance(paths, 50)
        spent = sum(
            greedy_max_cover(inst, k, batch=1).evaluations for k in (3, 7, 12)
        )
        assert spent == greedy_max_cover(_instance(paths, 50), 12, batch=1).evaluations

    def test_other_batch_starts_a_fresh_run(self):
        rng = np.random.default_rng(34)
        paths = _random_paths(rng, 50, 400)
        inst = _instance(paths, 50)
        greedy_max_cover(inst, 10, batch=1)
        result = greedy_max_cover(inst, 10, batch=4)
        assert result.evaluations == greedy_max_cover(
            _instance(paths, 50), 10, batch=4
        ).evaluations

    def test_memo_makes_no_reference_cycle(self):
        # with the cycle collector off, a dead pool must still be freed
        # at once: the memo may not point back at its instance
        inst = _instance([[0, 1], [1], [2]], 3)
        greedy_max_cover(inst, 2)
        alive = weakref.ref(inst)
        gc.disable()
        try:
            del inst
            assert alive() is None
        finally:
            gc.enable()


class TestCheckGreedy:
    def _instance(self):
        rng = np.random.default_rng(40)
        return _instance(_random_paths(rng, 30, 150), 30)

    @pytest.mark.parametrize("k", [1, 5, 30])
    def test_accepts_celf_results(self, k):
        inst = self._instance()
        check_greedy(inst, k, greedy_max_cover(inst, k))

    def test_accepts_padded_results(self):
        inst = _instance([[0], [0], [3]], 6)
        check_greedy(inst, 5, greedy_max_cover(inst, 5))
        check_greedy(inst, 5, greedy_max_cover(inst, 5, pad=False))

    def test_rejects_a_corrupted_group(self):
        inst = self._instance()
        result = greedy_max_cover(inst, 4)
        swapped = [result.group[1], result.group[0], *result.group[2:]]
        with pytest.raises(InvariantViolation):
            check_greedy(inst, 4, replace(result, group=swapped))

    def test_rejects_a_memo_kept_across_an_append(self):
        inst = _instance([[0], [0], [1]], 3)
        greedy_max_cover(inst, 1)

        def keep_memo(self):
            memo = self._greedy
            CoverageInstance._invalidate(self)
            self._greedy = memo

        inst._invalidate = types.MethodType(keep_memo, inst)
        inst.add_paths([[1], [1]])
        stale = greedy_max_cover(inst, 1)
        assert stale.group == [0]  # the stale memo answered
        with pytest.raises(InvariantViolation):
            check_greedy(inst, 1, stale)
