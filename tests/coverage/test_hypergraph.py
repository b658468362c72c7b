"""Unit tests for the path/node coverage incidence."""

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.exceptions import ParameterError


class TestConstruction:
    def test_empty(self):
        inst = CoverageInstance(5)
        assert inst.num_paths == 0
        assert inst.num_nodes == 5

    def test_negative_universe_rejected(self):
        with pytest.raises(ParameterError):
            CoverageInstance(-1)

    def test_add_path_returns_sequential_ids(self):
        """Path ids follow append order, across appends."""
        inst = CoverageInstance(5)
        inst.add_paths([[0, 1]])
        inst.add_paths([[2], [3, 4]])
        assert [inst.path(pid).tolist() for pid in range(3)] == [[0, 1], [2], [3, 4]]

    def test_out_of_universe_rejected(self):
        inst = CoverageInstance(3)
        with pytest.raises(ParameterError):
            inst.add_paths([[1], [0, 5]])
        assert inst.num_paths == 0  # a rejected append adds nothing

    def test_null_path_allowed(self):
        inst = CoverageInstance(3)
        inst.add_paths([[]])
        assert inst.num_paths == 1
        assert inst.covered_count([0, 1, 2]) == 0

    def test_duplicate_nodes_in_path_deduped(self):
        inst = CoverageInstance(5)
        inst.add_paths([[2, 2, 1]])
        assert list(inst.path(0)) == [1, 2]
        assert inst.degree(2) == 1

    def test_add_paths_bulk(self):
        inst = CoverageInstance(4)
        inst.add_paths([[0], [1, 2], []])
        assert inst.num_paths == 3
        inst.add_paths([])
        assert inst.num_paths == 3


class TestQueries:
    @pytest.fixture
    def inst(self):
        inst = CoverageInstance(6)
        inst.add_paths([[0, 1, 2], [2, 3], [4], [], [0, 5]])
        return inst

    def test_degree(self, inst):
        assert inst.degree(2) == 2
        assert inst.degree(5) == 1
        assert inst.degree(3) == 1

    def test_paths_through(self, inst):
        assert inst.paths_through(0) == [0, 4]
        assert inst.paths_through(4) == [2]

    def test_covered_count_single(self, inst):
        assert inst.covered_count([2]) == 2

    def test_covered_count_union_not_sum(self, inst):
        # node 0 covers {0,4}, node 2 covers {0,1}: union is 3, not 4
        assert inst.covered_count([0, 2]) == 3

    def test_covered_count_empty_group(self, inst):
        assert inst.covered_count([]) == 0

    def test_covered_count_all(self, inst):
        assert inst.covered_count(range(6)) == 4  # null path never covered

    def test_covered_count_bad_group(self, inst):
        with pytest.raises(ParameterError):
            inst.covered_count([9])

    def test_coverage_fraction(self, inst):
        assert inst.coverage_fraction([2]) == pytest.approx(0.4)

    def test_coverage_fraction_empty_instance(self):
        assert CoverageInstance(3).coverage_fraction([0]) == 0.0

    def test_numpy_path_input(self):
        inst = CoverageInstance(5)
        inst.add_paths([np.array([3, 1], dtype=np.int64)])
        assert inst.covered_count([1]) == 1


class TestReplacePaths:
    def test_random_replacements_match_rebuilt_instance(self):
        """Rewriting random paths in place leaves exactly the instance
        built from scratch with the new node sets: ids, degrees and
        incidence."""
        rng = np.random.default_rng(3)
        paths = [
            np.unique(rng.choice(30, size=rng.integers(0, 6), replace=False))
            for _ in range(120)
        ]
        inst = CoverageInstance(30)
        inst.add_paths(paths)
        inst.covered_count([0])  # build the incidence, so it must go stale
        for _round in range(3):
            ids = np.sort(rng.choice(len(paths), size=25, replace=False))
            fresh = [
                np.unique(rng.choice(30, size=rng.integers(0, 6), replace=False))
                for _ in ids
            ]
            offsets = np.zeros(ids.size + 1, dtype=np.int64)
            np.cumsum([p.size for p in fresh], out=offsets[1:])
            inst.replace_paths(ids, np.concatenate(fresh), offsets)
            for pid, nodes in zip(ids, fresh):
                paths[pid] = nodes
            reference = CoverageInstance(30)
            reference.add_paths(paths)
            assert inst.num_paths == len(paths)
            for pid, nodes in enumerate(paths):
                assert inst.path(pid).tolist() == nodes.tolist()
            np.testing.assert_array_equal(inst.degrees(), reference.degrees())
            for node in range(30):
                assert inst.paths_through(node) == reference.paths_through(node)

    def test_bad_replacements_rejected(self):
        inst = CoverageInstance(5)
        inst.add_paths([[0, 1], [2], [3, 4]])
        good = (np.array([0, 1]), np.array([0, 1, 2]))
        for ids, flat, offsets in (
            (np.array([1, 0]), *good),  # not ascending
            (np.array([0, 3]), *good),  # out of range
            (np.array([0, 0]), *good),  # repeated
            (np.array([0, 1]), np.array([0, 9]), np.array([0, 1, 2])),
            (np.array([0, 1]), np.array([0, 1]), np.array([0, 2])),
        ):
            with pytest.raises(ParameterError):
                inst.replace_paths(ids, flat, np.asarray(offsets))
        inst.replace_paths(np.array([], dtype=np.int64), [], np.zeros(1, np.int64))
        assert [inst.path(i).tolist() for i in range(3)] == [[0, 1], [2], [3, 4]]
