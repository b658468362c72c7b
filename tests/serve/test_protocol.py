"""Unit tests for the serve wire protocol (parsing + result contract)."""

from __future__ import annotations

import pytest

from repro.algorithms import AdaAlg
from repro.exceptions import ServeError
from repro.graph import barabasi_albert
from repro.serve import QueryKey, parse_request, result_payload
from repro.serve.protocol import ALGORITHMS, build_algorithm

DATASETS = {"ba": None}


class TestParseRequest:
    def test_full_frame(self):
        key = parse_request(
            {
                "op": "query",
                "dataset": "ba",
                "algorithm": "hedge",
                "k": 3,
                "eps": 0.5,
                "gamma": 0.1,
                "seed": 9,
            },
            DATASETS,
        )
        assert key == QueryKey("ba", "hedge", 3, 0.5, 0.1, 9)

    def test_defaults(self):
        key = parse_request({"dataset": "ba"}, DATASETS)
        assert key == QueryKey("ba", "adaalg", 1, 0.3, 0.01, 0)

    def test_keys_are_hashable_cache_identities(self):
        a = parse_request({"dataset": "ba", "k": 2}, DATASETS)
        b = parse_request({"dataset": "ba", "k": "2"}, DATASETS)
        assert a == b and hash(a) == hash(b)
        assert a != parse_request({"dataset": "ba", "k": 3}, DATASETS)

    def test_unknown_dataset_names_the_inventory(self):
        with pytest.raises(ServeError, match="ba"):
            parse_request({"dataset": "nope"}, DATASETS)

    def test_unknown_algorithm(self):
        with pytest.raises(ServeError, match="unknown algorithm"):
            parse_request({"dataset": "ba", "algorithm": "exact"}, DATASETS)

    @pytest.mark.parametrize(
        "patch",
        [
            {"k": 0},
            {"k": "three"},
            {"eps": 0.0},
            {"eps": 1.0},
            {"gamma": -0.5},
            {"gamma": 1.5},
            {"seed": "abc"},
        ],
    )
    def test_out_of_range_parameters(self, patch):
        frame = {"dataset": "ba", **patch}
        with pytest.raises(ServeError):
            parse_request(frame, DATASETS)

    def test_non_object_frame(self):
        with pytest.raises(ServeError):
            parse_request(["not", "a", "dict"], DATASETS)


class TestBuildAlgorithm:
    def test_every_served_algorithm_constructs(self):
        from repro.serve.protocol import _CLASSES

        for name in ALGORITHMS:
            key = QueryKey("ba", name, 2, 0.4, 0.05, 7)
            algorithm = build_algorithm(key)
            assert isinstance(algorithm, _CLASSES[name])
            if name != "exhaust":  # EXHAUST pins its own (eps, gamma)
                assert algorithm.eps == 0.4
                assert algorithm.gamma == 0.05


class TestResultPayload:
    def test_matches_the_cli_run_contract(self):
        """The daemon's ``result`` field and ``run --json`` are the
        same function — the bit-identity acceptance criterion."""
        from repro.cli import _result_payload

        graph = barabasi_albert(60, 2, seed=3)
        result = AdaAlg(eps=0.6, gamma=0.1, seed=5).run(graph, 2)
        payload = result_payload(result, 2)
        assert payload == _result_payload(result, 2)
        assert payload["k"] == 2
        assert payload["group"] == sorted(payload["group"])
        assert all(isinstance(v, int) for v in payload["group"])
        # no wall-clock or resume bookkeeping in the contract
        assert "seconds" not in payload and "resumed" not in payload
