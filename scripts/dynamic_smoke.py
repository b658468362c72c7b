#!/usr/bin/env python
"""End-to-end smoke test for the dynamic-graph path (CI).

Drives the real daemon through a mutate-then-requery cycle and checks
the equivalence contract from docs/dynamic-graphs.md:

1. start ``repro-gbc serve`` on a seeded synthetic dataset and wait
   for its ``--ready-file``;
2. run one query to establish a warm lane and a cache entry;
3. apply a ~1% edge delta through ``repro-gbc mutate --dataset``
   (the CLI front for the daemon's ``mutate`` op; the warm lane's
   stale samples are redrawn in place) and require the dataset
   version to bump;
4. re-issue the query: it must be recomputed (not cache-served), and
   its group must equal a cold ``repro-gbc run --json`` on the
   compacted post-delta graph;
5. SIGTERM the daemon and require a clean exit.

Exits non-zero with a diagnostic on the first violated check.

Usage::

    PYTHONPATH=src python scripts/dynamic_smoke.py [--dataset NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

from repro.datasets import load  # noqa: E402
from repro.graph import DeltaGraph, read_delta_file, save_mmap  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

# k=2 keeps the expected group unambiguous at this eps: the top two
# hubs win by a wide margin, so warm and cold pools agree on them.
QUERY = {"k": 2, "eps": 0.5, "gamma": 0.1, "seed": 7}
GRAPH_SEED = 7
DELTA_FRACTION = 0.01


def fail(message: str) -> None:
    print(f"dynamic-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_ready(proc: subprocess.Popen, ready: str, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while not os.path.exists(ready):
        if proc.poll() is not None:
            fail(f"daemon exited early with code {proc.returncode}")
        if time.monotonic() > deadline:
            fail("daemon never wrote its ready file")
        time.sleep(0.05)
    return json.loads(open(ready).read())["port"]


def write_delta(graph, path: str) -> int:
    """A deterministic ~1% delta: half deletes, half fresh inserts."""
    rng = np.random.default_rng(GRAPH_SEED)
    edges = []
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if u < v:
                edges.append((u, int(v)))
    changes = max(1, int(len(edges) * DELTA_FRACTION / 2))
    picks = rng.choice(len(edges), size=changes, replace=False)
    present = set(edges)
    lines = [f"- {edges[i][0]} {edges[i][1]}" for i in picks]
    inserted = 0
    while inserted < changes:
        u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        lines.append(f"+ {key[0]} {key[1]}")
        inserted += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# dynamic-smoke 1% delta\n")
        handle.write("\n".join(lines) + "\n")
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="SyntheticNetwork-BA")
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    # the daemon loads this dataset the same way (name + seed + giant
    # component); build the cold reference from an identical copy
    graph = load(args.dataset, seed=GRAPH_SEED, giant_only=True)

    with tempfile.TemporaryDirectory(prefix="dynamic_smoke_") as tmp:
        ready = os.path.join(tmp, "ready.json")
        delta_path = os.path.join(tmp, "delta.txt")
        ops = write_delta(graph, delta_path)

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", args.dataset,
                "--seed", str(GRAPH_SEED),
                "--port", "0",
                "--ready-file", ready,
            ],
            env=env,
            stderr=subprocess.PIPE,
        )
        try:
            port = wait_for_ready(proc, ready, timeout=120)
            print(f"dynamic-smoke: daemon up on port {port}")

            with ServeClient(port=port) as client:
                before = client.query(args.dataset, "adaalg", **QUERY)
            print(
                f"dynamic-smoke: warm query group="
                f"{sorted(before['result']['group'])} "
                f"({before['result']['num_samples']} samples)"
            )

            # --- mutate through the CLI front ----------------------
            mutate = subprocess.run(
                [
                    sys.executable, "-m", "repro", "mutate", delta_path,
                    "--dataset", args.dataset,
                    "--port", str(port),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            if mutate.returncode != 0:
                fail(f"mutate exited {mutate.returncode}:\n{mutate.stderr}")
            print(mutate.stdout.rstrip())
            if f"ops applied : {ops}" not in mutate.stdout:
                fail(
                    f"expected {ops} applied ops in mutate output:\n"
                    f"{mutate.stdout}"
                )
            if "invalidated and redrawn" not in mutate.stdout:
                fail(f"mutate output lacks the redraw counts:\n{mutate.stdout}")

            with ServeClient(port=port) as client:
                stats = client.stats()
                after = client.query(args.dataset, "adaalg", **QUERY)
            version = stats["datasets"][args.dataset]["version"]
            if version != 1:
                fail(f"dataset version is {version}, expected 1")
            if after["served"]["source"] == "cache":
                fail("post-mutate query served from the stale cache")
            print(
                f"dynamic-smoke: requery source={after['served']['source']} "
                f"group={sorted(after['result']['group'])} "
                f"({after['result']['num_samples']} samples, "
                f"{after['served'].get('samples_reused', 0)} reused)"
            )

            # --- cold reference on the compacted graph -------------
            delta = DeltaGraph(graph)
            delta.apply(read_delta_file(delta_path))
            cold_dir = os.path.join(tmp, "cold-graph")
            save_mmap(delta.compact(), cold_dir)
            run_json = os.path.join(tmp, "cold.json")
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "run",
                    "--edge-list", cold_dir,
                    "--algorithm", "adaalg",
                    "-k", str(QUERY["k"]),
                    "--eps", str(QUERY["eps"]),
                    "--gamma", str(QUERY["gamma"]),
                    "--seed", str(QUERY["seed"]),
                    "--json", run_json,
                ],
                env=env,
                check=True,
            )
            cold = json.loads(open(run_json).read())
            warm_group = sorted(after["result"]["group"])
            cold_group = sorted(cold["group"])
            if warm_group != cold_group:
                fail(
                    "mutate+requery group differs from the cold run on "
                    f"the compacted graph: warm {warm_group} vs cold "
                    f"{cold_group}"
                )
            print(
                f"dynamic-smoke: warm group == cold group {cold_group} "
                f"(warm {after['result']['num_samples']} vs cold "
                f"{cold['num_samples']} samples)"
            )

            # --- clean shutdown ------------------------------------
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            if code != 0:
                stderr = proc.stderr.read().decode()
                fail(f"daemon exited {code} on SIGTERM:\n{stderr}")
            print("dynamic-smoke: PASS")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


if __name__ == "__main__":
    main()
