"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_singles --seed 1 --seconds 20 --trace 0

Prints one line per metric, then, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the inputs' provenance is written under ``.perfbench/records/``.
Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {CHECKOUT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    records = CHECKOUT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = harness.run(CHECKOUT, args.workload, args.seed, args.seconds, bool(args.trace), stem)
    for name, metric in record["metrics"].items():
        print(f"{args.workload:>13} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in sorted(record["detail"].items()):
        print(f"{args.workload:>13} {name:<28} {value}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
