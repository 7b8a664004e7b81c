"""Seeded benchmark of the choreo library.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads: certify, arcs, descent (see bench/README.md).  With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics and the tracing overhead.
The lines before it print every metric by name and unit, the failed ratio
and the environment.  Details, and for traced runs the spans, are written
to .bench_out/ in the checkout.  Exits 2 without a result when the checkout
has no choreo sources to measure.
"""

import argparse
import json
import os
import sys

# One BLAS thread: the benchmark measures a single-threaded caller, and the
# variables only take effect if set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("certify", "arcs", "descent")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark of the choreo library.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        from choreobench import ROOT, bench
    except ImportError as exc:
        print(f"cannot import choreo from this checkout: {exc}", file=sys.stderr)
        return 2

    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, details = out["result"], out["details"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    if out["spans"] is not None:
        with open(out_dir / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(
                [dict(zip(("name", "start", "end", "parent", "attrs"), s)) for s in out["spans"]], fh
            )

    print("environment " + json.dumps(details["environment"], sort_keys=True))
    print(
        f"{args.workload}: {result['attempted']} ops, {result['failed']} failed, "
        f"details in {out_dir / stem}.json"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<52} {details['failed_ratio']:>14.6g} ratio")
    for reason in details["failures"]:
        print(f"  failure: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
