"""Starts the query daemon the way ``repro-gbc serve --dataset NAME
--port 0`` does, optionally with the layer wrappers installed first.

    python3 perfbench/launcher.py --dataset GrQc --ready-file F --report R [--spans PATH]

The dataset is materialized with seed 0 and restricted to its giant
component, the daemon keeps every other setting at its default, binds
an ephemeral port and writes it to the ready file.  On SIGTERM the
daemon drains and ``serve_main`` returns; the launcher then writes R:
the process's peak resident memory and whether any child process is
left, and the spans, if any, to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker import peak_rss_mb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    recorder = None
    if args.spans:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    import repro.datasets
    from repro.serve.daemon import ServerConfig, serve_main

    graph = repro.datasets.load(args.dataset, seed=0)
    config = ServerConfig(
        datasets={args.dataset: graph}, port=0, ready_file=args.ready_file
    )
    code = serve_main(config)
    try:
        os.waitpid(-1, os.WNOHANG)  # returns while any child exists
        children_left = True
    except ChildProcessError:
        children_left = False
    with open(args.report, "w") as out:
        json.dump({
            "peak_rss_mb": peak_rss_mb(),
            "children_left": children_left,
        }, out)
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
