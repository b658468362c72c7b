#!/usr/bin/env python
"""End-to-end smoke test for the ``repro-gbc serve`` daemon (CI).

Drives the real thing — a daemon subprocess on an ephemeral TCP port —
through the whole serving contract:

1. start ``repro-gbc serve`` on a seeded synthetic dataset and wait
   for its ``--ready-file``;
2. fire N identical queries concurrently and require exactly ONE
   sampling pass: ``serve.computed == 1`` and
   ``serve.coalesced == N - 1`` (or cache hits for stragglers that
   arrived after the leader finished), with every response carrying
   identical result bits;
3. diff one served result against ``repro-gbc run --json`` with the
   same parameters — byte-identical by contract;
4. send SIGTERM and require a clean drain: exit code 0, warm-lane
   checkpoint written, and no orphaned child processes.

Exits non-zero with a diagnostic on the first violated check.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--dataset NAME]
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.serve import ServeClient  # noqa: E402

QUERY = {"k": 5, "eps": 0.4, "gamma": 0.1, "seed": 7}
CLIENTS = 6


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
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


def find_orphans() -> list[str]:
    """Surviving processes of the daemon's tree (fork workers share its
    ``-m repro serve`` cmdline), found by scanning /proc."""
    orphans = []
    if not os.path.isdir("/proc"):  # non-Linux: skip the check
        return orphans
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "-m repro serve" in cmdline or "repro.serve" in cmdline:
            orphans.append(f"{pid}: {cmdline.strip()}")
    return orphans


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="SyntheticNetwork-BA")
    parser.add_argument("--clients", type=int, default=CLIENTS)
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        ready = os.path.join(tmp, "ready.json")
        warm = os.path.join(tmp, "warm")
        # persistent worker processes: the drain check below then
        # actually exercises worker reaping, not just loop exit
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", args.dataset,
                # the graph-materialization seed must match the run
                # below: `run --seed` seeds BOTH the synthetic graph
                # and the algorithm, while serve queries only carry
                # the algorithm seed
                "--seed", str(QUERY["seed"]),
                "--port", "0",
                "--ready-file", ready,
                "--warm-dir", warm,
                "--workers", "2",
            ],
            env=env,
            stderr=subprocess.PIPE,
        )
        try:
            port = wait_for_ready(proc, ready, timeout=120)
            print(f"serve-smoke: daemon up on port {port}")

            # --- concurrent identical queries: one sampling pass ----
            def ask(_slot: int) -> dict:
                with ServeClient(port=port) as client:
                    return client.query(args.dataset, "adaalg", **QUERY)

            with concurrent.futures.ThreadPoolExecutor(args.clients) as pool:
                answers = list(pool.map(ask, range(args.clients)))
            reference = answers[0]["result"]
            if any(a["result"] != reference for a in answers):
                fail("concurrent identical queries returned different bits")
            sources = sorted(a["served"]["source"] for a in answers)
            with ServeClient(port=port) as client:
                counters = client.stats()["counters"]
            computed = counters.get("serve.computed", 0)
            coalesced = counters.get("serve.coalesced", 0)
            hits = counters.get("serve.cache_hits", 0)
            if computed != 1:
                fail(
                    f"expected exactly 1 sampling pass for "
                    f"{args.clients} identical queries, got "
                    f"computed={computed} (sources: {sources})"
                )
            if coalesced + hits != args.clients - 1:
                fail(
                    f"followers neither coalesced nor cache-served: "
                    f"coalesced={coalesced} hits={hits} "
                    f"(sources: {sources})"
                )
            print(
                f"serve-smoke: {args.clients} identical queries -> "
                f"1 computed, {coalesced} coalesced, {hits} cached"
            )

            # --- served result == single-shot run ------------------
            run_json = os.path.join(tmp, "run.json")
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "run",
                    "--dataset", args.dataset,
                    "--algorithm", "adaalg",
                    "-k", str(QUERY["k"]),
                    "--eps", str(QUERY["eps"]),
                    "--gamma", str(QUERY["gamma"]),
                    "--seed", str(QUERY["seed"]),
                    # same worker count as the daemon; the samples do
                    # not depend on it, so this diff would also hold
                    # in process
                    "--workers", "2",
                    "--json", run_json,
                ],
                env=env,
                check=True,
            )
            direct = json.loads(open(run_json).read())
            if json.dumps(reference, sort_keys=True) != json.dumps(
                direct, sort_keys=True
            ):
                fail(
                    "served result differs from repro-gbc run --json:\n"
                    f"  served: {json.dumps(reference, sort_keys=True)}\n"
                    f"  direct: {json.dumps(direct, sort_keys=True)}"
                )
            print("serve-smoke: served result bit-identical to run --json")

            # --- graceful drain ------------------------------------
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            stderr = proc.stderr.read().decode()
            if code != 0:
                fail(f"daemon exited {code} on SIGTERM:\n{stderr}")
            if "drained" not in stderr:
                fail(f"daemon never reported draining:\n{stderr}")
            warm_files = os.listdir(warm) if os.path.isdir(warm) else []
            if not any(name.endswith(".warm.npz") for name in warm_files):
                fail(f"drain wrote no warm-lane checkpoint (saw {warm_files})")
            orphans = find_orphans()
            if orphans:
                fail(f"daemon left orphaned processes behind: {orphans}")
            print(
                f"serve-smoke: clean drain, no orphans, checkpoints: "
                f"{sorted(warm_files)}"
            )
        finally:
            if proc.poll() is None:
                # prefer a drain so worker processes are reaped even
                # on a failed check; SIGKILL only as a last resort
                # (it would orphan fork children)
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    print("serve-smoke: OK")


if __name__ == "__main__":
    main()
