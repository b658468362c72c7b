"""CI regression gate for a benchmark export's headline metric.

Compares a fresh ``benchmarks/results/bench_*.json`` export against a
checked-in baseline recorded at the *same* workload and fails when the
metric ``meta[KEY]`` (higher is better) dropped by more than the
relative tolerance (default 25%) against the baseline, or fell below
an optional absolute ``--floor``.  The gated metrics are ratios or
deterministic fractions — wall-clock speedups measured on one machine
transfer across runner generations far better than absolute seconds —
but only when the workloads match, which the script verifies first on
the ``--workload-keys`` meta entries.

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json \
        --metric KEY --workload-keys K1 K2 ... [--tolerance 0.25] [--floor X]

The CI gates:

* worker fan-out — ``--metric speedup_epoch_vs_serial_w2
  --workload-keys n m targets seed``;
* unweighted wavefront — ``--metric speedup_wavefront_vs_scalar
  --workload-keys n m draws seed``;
* weighted wavefront — ``--metric speedup_wavefront_vs_scalar
  --workload-keys n m draws max_weight seed``;
* dynamic graphs — ``--metric reuse_fraction --workload-keys n m pool
  delta_fraction seed --floor 0.80``.

Exit status 0 on pass, 1 on regression or workload mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in benchmark export")
    parser.add_argument("fresh", help="benchmark export from this run")
    parser.add_argument("--metric", required=True, help="meta key to gate on")
    parser.add_argument(
        "--workload-keys",
        nargs="+",
        required=True,
        help="meta keys that must match between the two exports",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative drop of the metric (default: 0.25)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=None,
        help="absolute minimum of the fresh metric (default: none)",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)["meta"]
    fresh = _load(args.fresh)["meta"]
    mismatched = [
        key for key in args.workload_keys if baseline.get(key) != fresh.get(key)
    ]
    if mismatched:
        print(
            f"workloads differ on {', '.join(mismatched)} — baseline "
            f"{ {k: baseline.get(k) for k in mismatched} } vs fresh "
            f"{ {k: fresh.get(k) for k in mismatched} }; "
            "regenerate the baseline at this workload before gating on it",
            file=sys.stderr,
        )
        return 1

    reference = float(baseline[args.metric])
    observed = float(fresh[args.metric])
    relative_floor = reference * (1.0 - args.tolerance)
    ok = observed >= relative_floor
    floors = f"relative floor {relative_floor:.4g}"
    if args.floor is not None:
        ok = ok and observed >= args.floor
        floors += f", absolute floor {args.floor:.4g}"
    print(
        f"{args.metric}: fresh {observed:.4g}, baseline {reference:.4g}, "
        f"{floors} (tolerance {args.tolerance:.0%}) -> "
        f"{'ok' if ok else 'REGRESSION'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
