"""The process that runs the ``cold-query`` calls, so that its peak
memory is the program's alone.

Protocol (line-delimited JSON on stdin/stdout):

1. start-up: import the program, materialize every dataset named on
   the command line, print ``{"ready": true}``;
2. read one line ``{"ops": [...]}`` (or EOF: exit, a set-up probe);
3. run each op as a fresh ``AdaAlg(eps=..., seed=...).run(graph, k)``,
   with a calibration probe (``calib.py``) before each and after the
   last, then print ``{"results": [...], "t0": ..., "t1": ...,
   "calibration": ..., "peak_rss_mb": ...}``.

With ``--spans PATH`` the layer wrappers are installed before the
program is imported further, and the spans are written to PATH at the
end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def peak_rss_mb() -> float:
    """This process's own peak resident memory.  ``ru_maxrss`` is not
    used: Linux carries the parent's high-water mark across fork and
    exec, so it would report the benchmark's memory, not the program's."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", action="append", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    recorder = None
    if args.spans:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    import repro.datasets
    from calib import Calibration
    from repro import AdaAlg

    graphs = {name: repro.datasets.load(name, seed=0) for name in args.dataset}
    print(json.dumps({"ready": True}), flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    ops = json.loads(line)["ops"]

    def one(op):
        return AdaAlg(eps=op["eps"], seed=op["seed"]).run(graphs[op["dataset"]], op["k"])

    if recorder is not None:
        one = recorder.wrap(one, "bench.query")
    results = []
    calibration = Calibration()
    t0 = time.perf_counter()
    for op in ops:
        calibration.probe()
        began = time.perf_counter()
        try:
            result = one(op)
        except Exception as exc:  # reported as a failed operation
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        ended = time.perf_counter()
        results.append({
            "group": [int(v) for v in result.group],
            "estimate": float(result.estimate),
            "num_samples": int(result.num_samples),
            "iterations": int(result.iterations),
            "start": began,
            "end": ended,
        })
    calibration.probe()
    t1 = time.perf_counter()
    peak_mb = peak_rss_mb()
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps({"results": results, "t0": t0, "t1": t1,
                      "calibration": calibration.as_dict(),
                      "peak_rss_mb": peak_mb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
