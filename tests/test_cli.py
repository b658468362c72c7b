"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import REQUIRED_FIELDS


def _star_edge_list(tmp_path, leaves=20):
    edge_file = tmp_path / "g.txt"
    lines = [f"0 {i}" for i in range(1, leaves)]
    edge_file.write_text("\n".join(lines) + "\n")
    return edge_file


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "GrQc"])
        assert args.algorithm == "adaalg"
        assert args.k == 20
        assert args.eps == 0.3

    def test_run_requires_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "GrQc", "--edge-list", "x.txt"]
            )

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig4"])
        assert args.name == "fig4"
        assert args.preset == "smoke"

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])

    def test_ablation_experiments_available(self):
        for name in (
            "ablation-base",
            "ablation-work",
            "ablation-endpoints",
            "ablation-strategies",
            "ablation-pairs",
            "ablation-validation",
            "ablation-localsearch",
            "ablation-scaling",
        ):
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name


class TestCheckCommand:
    """``repro-gbc check`` takes exactly the arguments of
    ``python -m repro.checks``."""

    def test_rules_subset_exits_zero(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--rules", "RPR1",
             "src/repro/_rng.py"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 findings in 1 file(s)" in proc.stdout

    def test_changed_only_parses(self):
        args = build_parser().parse_args(["check", "--changed-only"])
        assert args.changed_only == "origin/main"
        assert args.rules is None and args.paths == ["src/repro"]
        args = build_parser().parse_args(
            ["check", "--rules", "RPR5", "--changed-only", "HEAD"]
        )
        assert (args.rules, args.changed_only) == ("RPR5", "HEAD")

    def test_arguments_match_the_checker(self):
        from repro.checks.cli import build_parser as checks_parser

        def options(parser):
            return sorted(
                (action.dest, tuple(action.option_strings))
                for action in parser._actions
                if action.dest != "help"
            )

        sub = build_parser()._subparsers._group_actions[0].choices["check"]
        assert options(sub) == options(checks_parser())


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "GrQc" in out
        assert "LiveJournal" in out

    def test_run_on_edge_list(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        lines = [f"0 {i}" for i in range(1, 20)]  # a star
        edge_file.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "run",
                "--edge-list",
                str(edge_file),
                "--algorithm",
                "adaalg",
                "-k",
                "1",
                "--eps",
                "0.5",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "group (K=1): [0]" in out
        assert "samples" in out

    def test_run_puzis_on_edge_list(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        edge_file.write_text("0 1\n1 2\n2 3\n3 4\n")
        code = main(
            ["run", "--edge-list", str(edge_file), "--algorithm", "puzis", "-k", "1"]
        )
        assert code == 0
        assert "group (K=1): [2]" in capsys.readouterr().out

    def test_run_brute_whole_graph(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        edge_file.write_text("0 1\n1 2\n5 6\n")
        code = main(
            [
                "run",
                "--edge-list",
                str(edge_file),
                "--algorithm",
                "brute",
                "-k",
                "1",
                "--whole-graph",
            ]
        )
        assert code == 0
        assert "brute" in capsys.readouterr().out.lower()

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "paper_V" in out

    def test_experiment_output_csv(self, tmp_path, capsys):
        out_file = tmp_path / "table1.csv"
        assert main(["experiment", "table1", "--output", str(out_file)]) == 0
        assert out_file.exists()
        assert "dataset" in out_file.read_text().splitlines()[0]

    def test_compare_command(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        lines = [f"0 {i}" for i in range(1, 25)]
        lines += [f"{i} {i + 1}" for i in range(1, 24)]
        edge_file.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "compare",
                "--edge-list",
                str(edge_file),
                "-k",
                "2",
                "--eps",
                "0.5",
                "--algorithms",
                "adaalg",
                "yoshida",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AdaAlg" in out
        assert "YoshidaSketch" in out

    def test_run_with_log_json_and_invariants(self, tmp_path, capsys):
        edge_file = _star_edge_list(tmp_path)
        log_path = tmp_path / "run.jsonl"
        code = main(
            [
                "run",
                "--edge-list",
                str(edge_file),
                "-k",
                "2",
                "--eps",
                "0.5",
                "--seed",
                "3",
                "--log-json",
                str(log_path),
                "--debug-invariants",
            ]
        )
        assert code == 0
        assert str(log_path) in capsys.readouterr().out
        lines = log_path.read_text().strip().splitlines()
        assert lines, "telemetry log is empty"
        kinds = set()
        for line in lines:
            record = json.loads(line)
            for field in REQUIRED_FIELDS:
                assert field in record, f"{field!r} missing from {record}"
            kinds.add(record["kind"])
        assert {"span", "event", "counter"} <= kinds

    def test_run_progress_lines_on_stderr(self, tmp_path, capsys):
        edge_file = _star_edge_list(tmp_path)
        code = main(
            [
                "run",
                "--edge-list",
                str(edge_file),
                "-k",
                "2",
                "--eps",
                "0.5",
                "--seed",
                "3",
                "--progress",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "AdaAlg" in err
        assert "q=1" in err

    def test_compare_with_log_json(self, tmp_path, capsys):
        edge_file = _star_edge_list(tmp_path)
        log_path = tmp_path / "cmp.jsonl"
        code = main(
            [
                "compare",
                "--edge-list",
                str(edge_file),
                "-k",
                "2",
                "--eps",
                "0.5",
                "--algorithms",
                "adaalg",
                "hedge",
                "--log-json",
                str(log_path),
            ]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in log_path.read_text().strip().splitlines()
            if json.loads(line)["kind"] == "event"
        ]
        algorithms = {
            e["algorithm"] for e in events if e.get("name") == "iteration"
        }
        assert algorithms == {"AdaAlg", "HEDGE"}

    def test_experiment_telemetry_flag_parsed(self):
        args = build_parser().parse_args(
            ["experiment", "fig4", "--telemetry"]
        )
        assert args.telemetry

    def test_run_weighted_edge_list(self, tmp_path, capsys):
        edge_file = tmp_path / "w.txt"
        edge_file.write_text("0 1 1\n1 2 1\n2 3 1\n3 4 1\n")
        code = main(
            [
                "run",
                "--edge-list",
                str(edge_file),
                "--weighted",
                "--algorithm",
                "puzis",
                "-k",
                "1",
            ]
        )
        assert code == 0
        assert "group (K=1): [2]" in capsys.readouterr().out


def _ba_edge_list(tmp_path):
    from repro.graph import barabasi_albert, write_edge_list

    path = tmp_path / "ba.txt"
    write_edge_list(barabasi_albert(80, 2, seed=5), path)
    return path


class TestCheckpointResume:
    _RUN = ["--algorithm", "adaalg", "-k", "4", "--eps", "0.4",
            "--gamma", "0.1", "--seed", "11"]

    def test_interrupt_then_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        edge_file = str(_ba_edge_list(tmp_path))
        base = tmp_path / "base.json"
        code = main(["run", "--edge-list", edge_file, *self._RUN,
                     "--json", str(base)])
        assert code == 0

        ck = tmp_path / "ck.npz"
        code = main(["run", "--edge-list", edge_file, *self._RUN,
                     "--checkpoint", str(ck), "--stop-after-checkpoints", "1"])
        assert code == 3
        assert ck.exists()
        assert "interrupted" in capsys.readouterr().err

        resumed = tmp_path / "resumed.json"
        code = main(["resume", str(ck), "--json", str(resumed)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "resumed     : True" in out
        assert resumed.read_bytes() == base.read_bytes()

    def test_checkpointed_run_output_unperturbed(self, tmp_path, capsys):
        edge_file = str(_ba_edge_list(tmp_path))
        base = tmp_path / "base.json"
        noisy = tmp_path / "noisy.json"
        assert main(["run", "--edge-list", edge_file, *self._RUN,
                     "--json", str(base)]) == 0
        assert main(["run", "--edge-list", edge_file, *self._RUN,
                     "--checkpoint", str(tmp_path / "ck.npz"),
                     "--json", str(noisy)]) == 0
        assert noisy.read_bytes() == base.read_bytes()
        payload = json.loads(base.read_text())
        assert payload["algorithm"] == "AdaAlg"
        assert "elapsed_seconds" not in payload  # keeps runs diffable

    def test_resume_rejects_library_checkpoint(self, tmp_path):
        from repro.exceptions import CheckpointError
        from repro.graph import barabasi_albert
        from repro.session import SamplingSession

        path = str(tmp_path / "lib.npz")
        with SamplingSession(barabasi_albert(30, 2, seed=0), seed=1) as s:
            s.extend(10)
            s.checkpoint(path)
        with pytest.raises(CheckpointError):
            main(["resume", path])

    def test_checkpoint_flags_require_sampling_algorithm(self, tmp_path):
        edge_file = str(_star_edge_list(tmp_path))
        with pytest.raises(SystemExit):
            main(["run", "--edge-list", edge_file, "--algorithm", "puzis",
                  "-k", "2", "--checkpoint", str(tmp_path / "ck.npz")])

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--workers", "2", "--log-json", "LOG"], "--workers"),
            (["--log-json", "LOG"], "--log-json"),
        ],
    )
    def test_reference_refuses_sampling_flags(self, tmp_path, flags, named):
        """A reference draws no session: ``--workers`` and
        ``--log-json`` are refused by name before any file is made."""
        from repro.graph import barabasi_albert, write_edge_list

        edge_file = tmp_path / "ci_ba.txt"
        write_edge_list(barabasi_albert(120, 3, seed=7), edge_file)
        log = tmp_path / "x.jsonl"
        flags = [str(log) if flag == "LOG" else flag for flag in flags]
        with pytest.raises(SystemExit, match=named):
            main(["run", "--edge-list", str(edge_file), "--algorithm",
                  "yoshida", "-k", "5", "--eps", "0.4", "--seed", "7", *flags])
        assert not log.exists()

    def test_reference_prints_no_workers_line(self, tmp_path, capsys):
        edge_file = _star_edge_list(tmp_path)
        assert main(["run", "--edge-list", str(edge_file), "--algorithm",
                     "yoshida", "-k", "1", "--eps", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "YoshidaSketch" in out and "workers" not in out

    def test_parser_knows_new_surface(self):
        args = build_parser().parse_args(
            ["experiment", "sweep-warmstart", "--reuse-sessions"]
        )
        assert args.name == "sweep-warmstart"
        assert args.reuse_sessions
        args = build_parser().parse_args(
            ["run", "--dataset", "GrQc", "--checkpoint", "c.npz",
             "--checkpoint-every", "3"]
        )
        assert args.checkpoint == "c.npz"
        assert args.checkpoint_every == 3


def _delta_file(tmp_path, lines):
    path = tmp_path / "delta.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestMutateCommand:
    # k=2 keeps the expected group unambiguous at this coarse eps: the
    # two BA hubs are clear winners, while the third slot is a
    # statistical near-tie that warm and cold pools may break
    # differently within the eps guarantee.
    _RUN = ["--algorithm", "adaalg", "-k", "2", "--eps", "0.5",
            "--gamma", "0.1", "--seed", "11"]

    def test_parser_requires_exactly_one_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mutate", "d.txt"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mutate", "d.txt", "--checkpoint", "c", "--graph-dir", "g"]
            )
        args = build_parser().parse_args(
            ["mutate", "d.txt", "--checkpoint", "c", "--out", "g"]
        )
        assert not hasattr(args, "touch_radius")
        assert args.checkpoint_out is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mutate", "d.txt", "--graph-dir", "g", "--touch-radius", "1"]
            )

    def test_graph_dir_mode_matches_overlay(self, tmp_path, capsys):
        from repro.graph import (
            DeltaGraph,
            GraphUpdate,
            barabasi_albert,
            load_mmap,
            save_mmap,
        )

        graph = barabasi_albert(40, 2, seed=5)
        gdir = str(tmp_path / "g")
        save_mmap(graph, gdir)
        delta = _delta_file(tmp_path, [
            "# tiny delta", "+ 3 37", "- 0 1",
        ])
        assert main(["mutate", delta, "--graph-dir", gdir]) == 0
        assert "ops applied : 2" in capsys.readouterr().out

        overlay = DeltaGraph(graph)
        overlay.apply(GraphUpdate.from_ops([(3, 37, 1)], [(0, 1)], ()))
        expected = overlay.compact()
        mutated = load_mmap(gdir)
        assert mutated.num_edges == expected.num_edges
        assert (mutated.indptr == expected.indptr).all()
        assert (mutated.indices == expected.indices).all()

    def test_checkpoint_mode_then_resume_matches_cold_run(
        self, tmp_path, capsys
    ):
        from repro.graph import DeltaGraph, GraphUpdate, save_mmap

        edge_file = str(_ba_edge_list(tmp_path))
        ck = tmp_path / "ck.npz"
        code = main(["run", "--edge-list", edge_file, *self._RUN,
                     "--checkpoint", str(ck), "--stop-after-checkpoints", "1"])
        assert code == 3

        delta = _delta_file(tmp_path, ["+ 5 71", "+ 9 63", "- 0 2"])
        gdir = str(tmp_path / "mutated-graph")
        code = main(["mutate", delta, "--checkpoint", str(ck),
                     "--out", gdir])
        assert code == 0
        out = capsys.readouterr().out
        assert "invalidated and redrawn" in out
        assert "touched" not in out

        warm = tmp_path / "warm.json"
        assert main(["resume", str(ck), "--json", str(warm)]) == 0

        # cold single-shot run on the compacted graph (the mmap dir is a
        # valid --edge-list source)
        from repro.graph import read_edge_list

        base, _ids = read_edge_list(edge_file)
        overlay = DeltaGraph(base)
        overlay.apply(GraphUpdate.from_ops(
            [(5, 71, 1), (9, 63, 1)], [(0, 2)], ()
        ))
        cdir = str(tmp_path / "cold-graph")
        save_mmap(overlay.compact(), cdir)
        cold = tmp_path / "cold.json"
        assert main(["run", "--edge-list", cdir, *self._RUN,
                     "--json", str(cold)]) == 0

        warm_payload = json.loads(warm.read_text())
        cold_payload = json.loads(cold.read_text())
        assert sorted(warm_payload["group"]) == sorted(cold_payload["group"])
        assert warm_payload["converged"]

    def test_checkpoint_mode_requires_out(self, tmp_path):
        delta = _delta_file(tmp_path, ["+ 0 1"])
        with pytest.raises(SystemExit, match="--out"):
            main(["mutate", delta, "--checkpoint", "ck.npz"])

    def test_rejects_library_checkpoint(self, tmp_path):
        from repro.exceptions import CheckpointError
        from repro.graph import barabasi_albert
        from repro.session import SamplingSession

        path = str(tmp_path / "lib.npz")
        with SamplingSession(barabasi_albert(30, 2, seed=0), seed=1) as s:
            s.extend(10)
            s.checkpoint(path)
        delta = _delta_file(tmp_path, ["+ 0 1"])
        with pytest.raises(CheckpointError, match="provenance"):
            main(["mutate", delta, "--checkpoint", path,
                  "--out", str(tmp_path / "g")])

    def test_dataset_mode_requires_endpoint(self, tmp_path):
        delta = _delta_file(tmp_path, ["+ 0 1"])
        with pytest.raises(SystemExit, match="endpoint"):
            main(["mutate", delta, "--dataset", "ba"])
