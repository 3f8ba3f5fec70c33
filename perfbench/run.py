"""cooplab benchmark: time to verified claims.

    python3 perfbench/run.py --workload zoo-loop --seed 0 --seconds 12 --trace 0

Run from the root of a checkout; cooplab is imported from its ``src/``.
With ``--trace 0`` the named workload is passed at least twice and for
``--seconds`` seconds; ``wall_s`` adds each operation's median time and
``setup_s`` is the median of several fresh interpreters, both at the host's
reference speed (hostspeed.py).  With ``--trace 1`` one traced pass of every
workload gives the per-layer metrics.
The last line of standard output is the JSON result; a full report
(environment, per-operation digests and gate margins, findings) goes to
``perfbench/out/`` and a summary to standard error.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# One process, one thread: pin BLAS and OpenMP pools before numpy loads;
# child processes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("zoo-loop", "ic-pipeline", "vectorized", "exact-tree"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the acceptance seeds 101-109")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    src = HERE.parent / "src" / "cooplab" / "__init__.py"
    if not src.is_file():
        print(f"cooplab sources not found at {src.parent}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    import measure  # imports numpy and cooplab

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import layers

        outcome = layers.traced_run(args.workload, args.seed, OUT / f"spans-{stem}.jsonl.gz")
    else:
        outcome = measure.untraced_run(args.workload, args.seed, args.seconds)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": measure.environment(loadavg),
        **outcome,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for line in outcome["findings"]:
        print(f"finding: {line}", file=sys.stderr)
    print(f"{outcome['failed']} of {outcome['attempted']} operations failed; "
          f"report in {OUT / f'report-{stem}.json'}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
