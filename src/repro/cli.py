"""Command-line interface: ``repro-gbc`` (or ``python -m repro``).

Subcommands
-----------
``run``
    Run one algorithm on a dataset (or an edge-list file) and print the
    found group, its estimated centrality, and the sample count.  With
    ``--checkpoint PATH`` the run snapshots its sampling session at
    iteration boundaries, so a killed run can be continued with
    ``resume`` — bit-identically to an uninterrupted run.
``resume``
    Continue a checkpointed ``run`` from its snapshot file.
``compare``
    Run several algorithms head-to-head on the same graph and print a
    comparison table (quality, samples, time).
``experiment``
    Regenerate one of the paper's tables/figures at a chosen preset,
    optionally exporting the rows (``--output result.csv|.json``).
``serve``
    Run the resident GBC-as-a-service daemon: load datasets once, keep
    warm sampling lanes, answer concurrent top-K queries over a
    line-delimited JSON TCP/Unix-socket API with result caching and
    request coalescing (see ``docs/serving.md``).
``mutate``
    Apply an edge-delta file (``+ u v [w]`` / ``- u v`` / ``= u v w``)
    to a run checkpoint, an mmap graph directory, or a dataset held by
    a running ``serve`` daemon — testing every stored sample by its
    pair, redrawing the stale ones in place and keeping the rest
    (see ``docs/dynamic-graphs.md``).
``datasets``
    List the Table I registry.
``check``
    Run the project's static-analysis pass (:mod:`repro.checks`) over
    source trees — determinism, RNG hygiene, cross-process safety,
    telemetry and exception discipline.  Exit 1 on any finding.

Exit codes: 0 success, 3 when ``--stop-after-checkpoints`` interrupted
the run on purpose (the checkpoint is ready to ``resume``).

Examples
--------
::

    repro-gbc run --algorithm adaalg --dataset GrQc -k 20 --eps 0.3
    repro-gbc run --algorithm hedge --edge-list my_graph.txt -k 10
    repro-gbc run --algorithm adaalg --dataset GrQc -k 20 \
        --workers 2 --mmap graph.mmap
    repro-gbc run --algorithm adaalg --dataset GrQc -k 20 \
        --checkpoint run.ckpt.npz --checkpoint-every 2
    repro-gbc resume run.ckpt.npz
    repro-gbc compare --dataset GrQc -k 20
    repro-gbc experiment fig4 --preset smoke --output fig4.csv
    repro-gbc datasets
    repro-gbc check src/repro --format json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from .algorithms import (
    ALGORITHMS,
    BruteForce,
    PuzisGreedy,
    YoshidaSketch,
    create_algorithm,
)
from .datasets import DATASETS, load
from .exceptions import CheckpointError, SessionInterrupted
from .experiments import (
    BENCH,
    FULL,
    REDUCED,
    SMOKE,
    run_base_sweep,
    run_endpoint_ablation,
    run_eps_sweep,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_local_search_ablation,
    run_pair_vs_path,
    run_sampler_work,
    run_strategy_comparison,
    run_work_scaling,
    run_table1,
    run_validation_set_ablation,
    write_result,
)
from .experiments.report import format_table
from .graph import (
    giant_component,
    is_mmap_graph,
    load_mmap,
    read_edge_list,
    read_weighted_edge_list,
    save_mmap,
)
from .obs import CallbackSink, JsonlSink, Telemetry
from .paths import exact_gbc
from .serve.protocol import result_payload
from .session import SamplingSession

__all__ = ["main", "build_parser"]

#: Exit code of a run deliberately interrupted by --stop-after-checkpoints.
EXIT_INTERRUPTED = 3

_PRESETS = {"smoke": SMOKE, "bench": BENCH, "reduced": REDUCED, "full": FULL}
_EXPERIMENTS = {
    "table1": lambda cfg: run_table1(cfg),
    "fig1": lambda cfg: run_fig1(cfg),
    "fig2": lambda cfg: run_fig2(cfg),
    "fig3": lambda cfg: run_fig3(cfg),
    "fig4": lambda cfg: run_fig4(cfg),
    "fig5": lambda cfg: run_fig5(cfg),
    "sweep-warmstart": lambda cfg: run_eps_sweep(cfg),
    "ablation-base": lambda cfg: run_base_sweep(cfg),
    "ablation-work": lambda cfg: run_sampler_work(cfg),
    "ablation-endpoints": lambda cfg: run_endpoint_ablation(cfg),
    "ablation-strategies": lambda cfg: run_strategy_comparison(cfg),
    "ablation-pairs": lambda cfg: run_pair_vs_path(cfg),
    "ablation-validation": lambda cfg: run_validation_set_ablation(cfg),
    "ablation-localsearch": lambda cfg: run_local_search_ablation(cfg),
    "ablation-scaling": lambda cfg: run_work_scaling(cfg),
}

#: The sketch and exact references ``run``/``compare`` also accept
#: next to the sampling algorithms of :data:`repro.algorithms.ALGORITHMS`;
#: they draw no session, so they take no sampling or checkpoint options.
_REFERENCES = {
    "yoshida": lambda args: YoshidaSketch(
        eps=args.eps, gamma=args.gamma, seed=args.seed
    ),
    "puzis": lambda _args: PuzisGreedy(),
    "brute": lambda _args: BruteForce(),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-gbc",
        description="Top-K group betweenness centrality (AdaAlg reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(parser_):
        source = parser_.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--dataset", help="registry dataset name (see `datasets`)"
        )
        source.add_argument("--edge-list", help="path to a SNAP-style edge list")
        parser_.add_argument(
            "--directed", action="store_true", help="edge list is directed"
        )
        parser_.add_argument(
            "--weighted",
            action="store_true",
            help="edge list has a third integer-weight column",
        )
        parser_.add_argument(
            "--whole-graph",
            action="store_true",
            help="do not restrict to the giant component",
        )
        parser_.add_argument("--seed", type=int, default=0, help="random seed")
        add_workers_flag(parser_)
        parser_.add_argument(
            "--mmap",
            nargs="?",
            const="",
            default=None,
            metavar="DIR",
            help="sample out-of-core: spill the loaded graph to the "
            "on-disk memory-mapped format at DIR (a temporary "
            "directory when omitted) and reopen it via np.memmap; "
            "workers attach read-only without copying. An --edge-list "
            "pointing at an existing mmap directory is opened "
            "directly.",
        )
        parser_.add_argument(
            "--log-json",
            metavar="PATH",
            default=None,
            help="write run telemetry (spans, per-iteration events, "
            "counters) as JSON lines to PATH",
        )
        parser_.add_argument(
            "--debug-invariants",
            action="store_true",
            help="validate every sampled path and the coverage "
            "bookkeeping while running (slow; for debugging)",
        )
        parser_.add_argument(
            "--progress",
            action="store_true",
            help="print per-iteration progress lines to stderr",
        )

    def add_workers_flag(parser_):
        parser_.add_argument(
            "--workers",
            type=int,
            default=0,
            metavar="N",
            help="worker processes that compute the samples (default 0: "
            "in process); results never depend on it",
        )

    def add_checkpoint_flags(parser_, resuming: bool):
        parser_.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help="snapshot the sampling session to PATH at iteration "
            "boundaries (resume later with `resume PATH`)"
            + ("; defaults to the file being resumed" if resuming else ""),
        )
        parser_.add_argument(
            "--checkpoint-every",
            type=int,
            default=1,
            metavar="N",
            help="iterations between checkpoints (default 1)",
        )
        parser_.add_argument(
            "--stop-after-checkpoints",
            type=int,
            default=None,
            metavar="N",
            help="deliberately stop (exit code 3) once N checkpoints "
            "were written — for testing resume",
        )
        parser_.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="also write the result (group, estimates, samples) as "
            "deterministic JSON to PATH",
        )

    run = sub.add_parser("run", help="run one algorithm on one graph")
    add_graph_source(run)
    run.add_argument(
        "--algorithm",
        choices=[*ALGORITHMS, *_REFERENCES],
        default="adaalg",
    )
    run.add_argument("-k", type=int, default=20, help="group size (default 20)")
    run.add_argument("--eps", type=float, default=0.3, help="error ratio")
    run.add_argument("--gamma", type=float, default=0.01, help="error probability")
    add_checkpoint_flags(run, resuming=False)

    resume = sub.add_parser(
        "resume", help="continue a checkpointed run from its snapshot"
    )
    resume.add_argument(
        "checkpoint_file", metavar="PATH",
        help="checkpoint written by `run --checkpoint`",
    )
    add_checkpoint_flags(resume, resuming=True)
    resume.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="write run telemetry as JSON lines to PATH",
    )
    resume.add_argument(
        "--progress",
        action="store_true",
        help="print per-iteration progress lines to stderr",
    )
    resume.add_argument(
        "--debug-invariants",
        action="store_true",
        help="validate every sampled path while running (slow)",
    )

    compare = sub.add_parser(
        "compare", help="run several algorithms head-to-head on one graph"
    )
    add_graph_source(compare)
    compare.add_argument("-k", type=int, default=20, help="group size (default 20)")
    compare.add_argument("--eps", type=float, default=0.3, help="error ratio")
    compare.add_argument("--gamma", type=float, default=0.01, help="error probability")
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["exhaust", "hedge", "centra", "adaalg"],
        choices=[*ALGORITHMS, "yoshida"],
        help="which algorithms to compare",
    )
    compare.add_argument(
        "--exact",
        action="store_true",
        help="grade each group with the exact GBC (slow on large graphs)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--preset", choices=sorted(_PRESETS), default="smoke", help="scale preset"
    )
    experiment.add_argument("--seed", type=int, default=None, help="override seed")
    experiment.add_argument(
        "--output", default=None, help="also write rows to a .csv or .json file"
    )
    experiment.add_argument(
        "--telemetry",
        action="store_true",
        help="collect in-memory run telemetry for every algorithm run "
        "(recorded in the result metadata)",
    )
    experiment.add_argument(
        "--reuse-sessions",
        action="store_true",
        help="warm-start the sweep: share one growing sample pool per "
        "(dataset, algorithm) across cells (samples_reused lands in "
        "the result metadata)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the resident query daemon (load graphs once, answer "
        "concurrent top-K queries over line-delimited JSON)",
    )
    serve.add_argument(
        "--dataset",
        action="append",
        required=True,
        metavar="NAME",
        help="registry dataset to hold resident (repeatable)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="graph-materialization seed for synthetic datasets "
        "(default 0); queries whose seed matches answer bit-identically "
        "to `run --seed`",
    )
    serve.add_argument(
        "--whole-graph",
        action="store_true",
        help="do not restrict datasets to their giant component",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--port",
        type=int,
        default=7332,
        help="TCP port (0 = ephemeral; see --ready-file). Default 7332",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="serve on a Unix socket at PATH instead of TCP",
    )
    add_workers_flag(serve)
    serve.add_argument(
        "--mmap",
        metavar="DIR",
        default=None,
        help="spill each loaded dataset to DIR/<name>/ and serve it "
        "memory-mapped (out-of-core tier)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        metavar="N",
        help="LRU result-cache capacity in queries (default 128; 0 off)",
    )
    serve.add_argument(
        "--warm-dir",
        metavar="DIR",
        default=None,
        help="checkpoint warm sampling lanes here on drain and thaw "
        "them at the next startup",
    )
    serve.add_argument(
        "--ready-file",
        metavar="PATH",
        default=None,
        help="write the bound endpoint as JSON to PATH once listening "
        "(how scripts learn an ephemeral --port 0)",
    )
    serve.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="write serve telemetry (request events, counters) as "
        "JSON lines to PATH",
    )
    serve.add_argument(
        "--debug-invariants",
        action="store_true",
        help="validate every sampled path while serving (slow)",
    )

    mutate = sub.add_parser(
        "mutate",
        help="apply an edge-delta file to a checkpoint, an mmap graph "
        "directory, or a dataset held by a running serve daemon",
    )
    mutate.add_argument(
        "delta_file",
        metavar="DELTA",
        help="edge-delta file: one op per line — '+ u v [w]' insert, "
        "'- u v' delete, '= u v w' reweight; '#' starts a comment",
    )
    target = mutate.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="apply to a `run --checkpoint` snapshot: thaw the session, "
        "migrate it onto the mutated graph (redrawing the stale samples "
        "in place), save the compacted graph to --out, and rewrite the "
        "checkpoint so `resume` continues on the new graph",
    )
    target.add_argument(
        "--graph-dir",
        metavar="DIR",
        help="apply to a memory-mapped graph directory (written by "
        "--mmap or `mutate --out`); rewrites it in place unless --out "
        "names a different directory",
    )
    target.add_argument(
        "--dataset",
        metavar="NAME",
        help="apply to a dataset held by a running serve daemon "
        "(needs --port or --socket); the daemon migrates its warm "
        "lanes and evicts the superseded cache entries",
    )
    mutate.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory for the compacted graph in the mmap format "
        "(required with --checkpoint; defaults to in-place with "
        "--graph-dir)",
    )
    mutate.add_argument(
        "--checkpoint-out",
        metavar="PATH",
        default=None,
        help="write the migrated checkpoint here instead of replacing "
        "the input (only with --checkpoint)",
    )
    mutate.add_argument("--host", default="127.0.0.1", help="daemon TCP host")
    mutate.add_argument(
        "--port", type=int, default=None, help="daemon TCP port"
    )
    mutate.add_argument(
        "--socket", metavar="PATH", default=None, help="daemon Unix socket"
    )

    sub.add_parser("datasets", help="list the Table I dataset registry")

    check = sub.add_parser(
        "check",
        help="run the static-analysis pass (determinism / RNG hygiene / "
        "cross-process safety rules)",
    )
    # the same arguments as `python -m repro.checks`
    from .checks.cli import add_arguments

    add_arguments(check)
    return parser


def _refuse_reference_flags(args) -> None:
    """Exit with an error naming the first sampling, telemetry or
    checkpoint flag given to ``run`` with a reference algorithm, which
    draws no session — before any output file is created."""
    if args.algorithm in ALGORITHMS:
        return
    for flag, given in (
        ("--workers", args.workers != 0),
        ("--log-json", args.log_json),
        ("--checkpoint / resume", args.checkpoint),
    ):
        if given:
            raise SystemExit(
                f"error: {flag} is only supported for the sampling "
                f"algorithms ({', '.join(sorted(ALGORITHMS))}), not "
                f"{args.algorithm!r}"
            )


def _algorithm(name: str, args, telemetry, **checkpointing):
    """The algorithm ``name`` configured from the flags: a sampling
    algorithm through :func:`~repro.algorithms.create_algorithm` — the
    factory the serve daemon uses too — or a reference, which takes no
    sampling or checkpoint options."""
    if name not in ALGORITHMS:
        return _REFERENCES[name](args)
    return create_algorithm(
        name,
        eps=args.eps,
        gamma=args.gamma,
        seed=args.seed,
        workers=args.workers,
        telemetry=telemetry,
        debug=args.debug_invariants,
        **checkpointing,
    )


def _progress_line(record: dict) -> str | None:
    """A human-readable stderr line for an ``iteration`` event."""
    if record.get("kind") != "event" or record.get("name") != "iteration":
        return None
    parts = [record.get("algorithm", "?")]
    for key in ("q", "guess", "samples", "estimate", "unbiased", "cnt"):
        value = record.get(key)
        if value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.1f}")
        else:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def _build_telemetry(args):
    """A :class:`~repro.obs.Telemetry` hub for the CLI flags, or ``None``
    when neither ``--log-json`` nor ``--progress`` was given (the
    algorithms then run on the no-op hub)."""
    sinks = []
    if args.log_json:
        sinks.append(JsonlSink(args.log_json))
    if args.progress:

        def emit(record):
            line = _progress_line(record)
            if line is not None:
                print(line, file=sys.stderr)

        sinks.append(CallbackSink(emit))
    if not sinks and not args.debug_invariants:
        return None
    return Telemetry(sinks=sinks)


def _load_graph(args):
    if args.dataset:
        graph = load(args.dataset, seed=args.seed, giant_only=not args.whole_graph)
    elif is_mmap_graph(args.edge_list):
        # an mmap directory was saved post-preprocessing: open as-is
        # (restricting to the giant component would copy the arrays
        # into memory and defeat the out-of-core tier)
        graph = load_mmap(args.edge_list)
    else:
        if args.weighted:
            graph, _ = read_weighted_edge_list(
                args.edge_list, directed=args.directed
            )
        else:
            graph, _ = read_edge_list(args.edge_list, directed=args.directed)
        if not args.whole_graph:
            graph, _ = giant_component(graph)
    mmap_dir = getattr(args, "mmap", None)
    if mmap_dir is not None and graph.mmap_source is None:
        # spill the fully preprocessed graph and reopen it memory-mapped
        # so the run (and its sampling workers) operate out-of-core
        target = mmap_dir or tempfile.mkdtemp(prefix="repro-mmap-")
        save_mmap(graph, target)
        graph = load_mmap(target)
        print(f"mmap        : {graph.mmap_source}", file=sys.stderr)
    return graph


def _cli_checkpoint(path: str, hint: str) -> tuple[dict, dict, dict, object]:
    """``(meta, state, provenance, graph)`` of a checkpoint written by
    ``run --checkpoint``; ``hint`` says what to do with a library-API
    checkpoint instead."""
    meta = SamplingSession.peek(path)
    state = meta.get("state") or {}
    saved = state.get("meta") or {}
    if not saved or "algorithm" not in saved:
        raise CheckpointError(
            f"{path!r} does not carry CLI run provenance; {hint}"
        )
    return meta, state, saved, _load_graph(argparse.Namespace(
        dataset=saved.get("dataset"),
        edge_list=saved.get("edge_list"),
        directed=bool(saved.get("directed")),
        weighted=bool(saved.get("weighted")),
        whole_graph=bool(saved.get("whole_graph")),
        seed=saved.get("seed", 0),
        mmap=saved.get("mmap"),
    ))


def _print_result(result, graph, args, k: int) -> None:
    pairs = graph.num_ordered_pairs
    print(f"algorithm   : {result.algorithm}")
    if getattr(args, "algorithm", None) not in _REFERENCES:
        print(f"workers     : {args.workers}")
    print(f"graph       : n={graph.n} m={graph.num_edges} "
          f"({'directed' if graph.directed else 'undirected'})")
    print(f"group (K={k}): {sorted(result.group)}")
    print(f"estimate    : {result.estimate:.1f} "
          f"(normalized {result.estimate / pairs:.4f})")
    if result.estimate_unbiased is not None:
        print(f"unbiased    : {result.estimate_unbiased:.1f}")
    print(f"samples     : {result.num_samples}")
    print(f"iterations  : {result.iterations}")
    print(f"converged   : {result.converged}")
    if result.diagnostics.get("resumed"):
        print("resumed     : True")
    if result.diagnostics.get("checkpoints"):
        print(f"checkpoints : {result.diagnostics['checkpoints']}")
    print(f"elapsed     : {result.elapsed_seconds:.2f}s")
    if getattr(args, "log_json", None):
        print(f"telemetry   : {args.log_json}")


def _finish_run(algorithm, graph, args, k: int) -> int:
    """Run, print, optionally write ``--json``; maps a deliberate
    ``--stop-after-checkpoints`` interruption to exit code 3."""
    try:
        result = algorithm.run(graph, k)
    except SessionInterrupted as exc:
        print(f"interrupted : {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    _print_result(result, graph, args, k)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result_payload(result, k), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"json        : {args.json}")
    return 0


def _cmd_run(args) -> int:
    _refuse_reference_flags(args)
    graph = _load_graph(args)
    telemetry = _build_telemetry(args)
    algorithm = _algorithm(
        args.algorithm,
        args,
        telemetry,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        stop_after_checkpoints=args.stop_after_checkpoints,
    )
    if args.checkpoint:
        # graph + run provenance the `resume` command needs to rebuild
        # this exact invocation from the snapshot alone
        algorithm.checkpoint_meta = {
            "dataset": args.dataset,
            "edge_list": args.edge_list,
            "directed": args.directed,
            "weighted": args.weighted,
            "whole_graph": args.whole_graph,
            "seed": args.seed,
            "algorithm": args.algorithm,
            "workers": args.workers,
            "mmap": args.mmap,
        }
    try:
        return _finish_run(algorithm, graph, args, args.k)
    finally:
        if telemetry is not None:
            telemetry.close()


def _cmd_resume(args) -> int:
    path = args.checkpoint_file
    meta, state, saved, graph = _cli_checkpoint(
        path,
        "it was written by the library API — resume it with "
        "SamplingAlgorithm(resume_from=...) instead",
    )
    params = state.get("params") or {}
    telemetry = _build_telemetry(args)
    algorithm = create_algorithm(
        saved["algorithm"],
        eps=params.get("eps", 0.3),
        gamma=params.get("gamma", 0.01),
        seed=saved.get("seed", 0),
        workers=saved.get("workers") or 0,
        telemetry=telemetry,
        debug=args.debug_invariants,
        checkpoint_path=args.checkpoint or path,
        checkpoint_every=args.checkpoint_every,
        resume_from=path,
        stop_after_checkpoints=args.stop_after_checkpoints,
    )
    args.workers = saved.get("workers") or 0
    print(f"resuming    : {path} ({state['algorithm']}, "
          f"K={state['k']}, {sum(meta['num_paths'])} samples banked)")
    try:
        return _finish_run(algorithm, graph, args, int(state["k"]))
    finally:
        if telemetry is not None:
            telemetry.close()


def _cmd_compare(args) -> int:
    graph = _load_graph(args)
    pairs = graph.num_ordered_pairs
    telemetry = _build_telemetry(args)
    rows = []
    try:
        for name in args.algorithms:
            algorithm = _algorithm(name, args, telemetry)
            result = algorithm.run(graph, args.k)
            quality = (
                exact_gbc(graph, result.group) if args.exact else result.estimate
            )
            rows.append(
                [
                    result.algorithm,
                    quality / pairs if pairs else 0.0,
                    result.num_samples,
                    round(result.elapsed_seconds, 2),
                    result.converged,
                ]
            )
    finally:
        if telemetry is not None:
            telemetry.close()
    metric = "exact norm GBC" if args.exact else "estimated norm GBC"
    print(f"graph: n={graph.n} m={graph.num_edges}; "
          f"K={args.k} eps={args.eps} gamma={args.gamma}")
    print(format_table([
        "algorithm", metric, "samples", "seconds", "converged"
    ], rows))
    return 0


def _cmd_experiment(args) -> int:
    config = _PRESETS[args.preset]
    if args.seed is not None:
        config = config.with_overrides(seed=args.seed)
    if args.telemetry:
        config = config.with_overrides(telemetry=True)
    if args.reuse_sessions:
        config = config.with_overrides(reuse_sessions=True)
    result = _EXPERIMENTS[args.name](config)
    print(result.render())
    if args.output:
        write_result(result, args.output)
        print(f"rows written to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    # imported lazily: the daemon pulls in asyncio machinery most CLI
    # invocations never need
    from .serve.daemon import ServerConfig, serve_main

    datasets = {}
    for name in args.dataset:
        graph = load(name, seed=args.seed, giant_only=not args.whole_graph)
        if args.mmap is not None:
            target = f"{args.mmap.rstrip('/')}/{name}"
            if not is_mmap_graph(target):
                save_mmap(graph, target)
            graph = load_mmap(target)
        datasets[name] = graph
        print(
            f"serve: loaded {name}: n={graph.n} m={graph.num_edges}"
            + (f" (mmap: {graph.mmap_source})" if graph.mmap_source else ""),
            file=sys.stderr,
        )
    config = ServerConfig(
        datasets=datasets,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        cache_size=args.cache_size,
        warm_dir=args.warm_dir,
        log_json=args.log_json,
        ready_file=args.ready_file,
        debug=args.debug_invariants,
    )
    return serve_main(config)


def _mutate_daemon(args, update) -> int:
    """Forward the delta to a running serve daemon's ``mutate`` op."""
    from .serve.client import ServeClient

    if args.port is None and not args.socket:
        raise SystemExit(
            "error: mutate --dataset needs the daemon endpoint "
            "(--port or --socket)"
        )
    with ServeClient(
        host=args.host, port=args.port, socket_path=args.socket
    ) as client:
        answer = client.mutate(
            args.dataset,
            insert=update.inserts.tolist(),
            delete=update.deletes.tolist(),
            reweight=update.reweights.tolist(),
        )
    mutated = answer["mutated"]
    print(f"dataset     : {mutated['dataset']} (version {mutated['version']})")
    print(f"ops applied : {mutated['ops']}")
    print(f"lanes       : {mutated['lanes_updated']} migrated")
    print(f"samples     : {mutated['tested']} tested, "
          f"{mutated['invalidated']} invalidated and redrawn, "
          f"{mutated['surviving']} kept")
    print(f"cache       : {mutated['cache_evicted']} entries evicted")
    print(f"graph       : n={mutated['n']} m={mutated['m']}")
    return 0


def _mutate_graph_dir(args, update) -> int:
    """Apply the delta to an mmap graph directory."""
    from .graph.delta import DeltaGraph

    graph = load_mmap(args.graph_dir)
    new_graph = DeltaGraph(graph).apply(update)
    target = args.out or args.graph_dir
    save_mmap(new_graph, target)
    print(f"ops applied : {update.num_ops}")
    print(f"graph       : n={new_graph.n} m={new_graph.num_edges}")
    print(f"written     : {target}")
    return 0


def _mutate_checkpoint(args, update) -> int:
    """Migrate a run checkpoint onto the mutated graph."""
    if args.out is None:
        raise SystemExit(
            "error: mutate --checkpoint needs --out DIR to hold the "
            "compacted graph (the rewritten checkpoint resumes against it)"
        )
    path = args.checkpoint
    _meta, _state, _saved, graph = _cli_checkpoint(
        path,
        "mutate library-API checkpoints through "
        "SamplingSession.resume(...).apply_update(...) instead",
    )
    session, state = SamplingSession.resume(path, graph)
    try:
        stats = session.apply_update(update)
        save_mmap(session.graph, args.out)
        # rewrite the checkpoint against the compacted graph: the CLI
        # provenance now points at the mmap directory (resume opens it
        # directly), and the loop state is cleared — the resumed
        # algorithm re-enters its stopping rule over the migrated pool
        # (stale samples were redrawn in place, so nothing is missing)
        new_state = dict(state or {})
        new_state["loop"] = None
        provenance = dict(new_state.get("meta") or {})
        provenance.update(
            dataset=None,
            edge_list=args.out,
            whole_graph=True,
            mmap=None,
        )
        new_state["meta"] = provenance
        out_path = args.checkpoint_out or path
        session.checkpoint(out_path, state=new_state)
    finally:
        session.close()
    print(f"ops applied : {update.num_ops}")
    print(f"samples     : {stats['tested']} tested, "
          f"{stats['invalidated']} invalidated and redrawn, "
          f"{stats['surviving']} kept")
    print(f"graph       : n={session.graph.n} m={session.graph.num_edges} "
          f"-> {args.out}")
    print(f"checkpoint  : {out_path}")
    return 0


def _cmd_mutate(args) -> int:
    from .graph.delta import read_delta_file

    update = read_delta_file(args.delta_file)
    if args.dataset:
        return _mutate_daemon(args, update)
    if args.graph_dir:
        return _mutate_graph_dir(args, update)
    return _mutate_checkpoint(args, update)


def _cmd_check(args) -> int:
    # imported lazily: the checker is pure stdlib + the obs registry,
    # but most CLI invocations never need it
    from .checks.cli import run_cli

    return run_cli(args)


def _cmd_datasets(_args) -> int:
    rows = [
        [
            spec.name,
            spec.paper_nodes,
            spec.paper_edges,
            "directed" if spec.directed else "undirected",
            spec.kind,
            spec.description,
        ]
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            ["name", "paper_V", "paper_E", "type", "kind", "description"], rows
        )
    )
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "mutate": _cmd_mutate,
        "datasets": _cmd_datasets,
        "check": _cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
