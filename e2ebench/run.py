#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Run from the repository root::

    python3 e2ebench/run.py --workload dc_strict --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is an ``info`` record (machine, seed, fingerprint, derived
rates).  The benchmark exits non-zero without printing a result when the
simulator sources (``src/repro``) are not in the current directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload of e2ebench/workloads.py")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall-clock budget of the measurement loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no simulator sources at {src / 'repro'}; run "
              "from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    if args.workload not in harness.workloads.INSTANTIATE:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(harness.workloads.INSTANTIATE)}")
    with open(HERE / "pins.json") as fh:
        pins = json.load(fh)
    try:
        out = harness.measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), pins, root)
    finally:
        harness.stop_children()
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
