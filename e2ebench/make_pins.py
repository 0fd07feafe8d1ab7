#!/usr/bin/env python3
"""Pin the simulated-output fingerprint of every workload for a set of seeds.

Run from the repository root::

    python3 e2ebench/make_pins.py --seeds 0-31

The held-out seed (``workloads.HELD_OUT_SEED``) is always pinned too.  For
each workload and seed the pin is the fingerprint of the oracle run — the
other execution mode of the same system: fast mode for dc_strict,
in-process strict for dc_mp2 (the same two-way partitioned system), strict
for dctcp_fluid.  The measured mode is run too and must agree before a
pin is written.  Re-pin only for a deliberate change of simulated
behaviour, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,2,5")
    args = p.parse_args(argv)
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    import harness
    import outputs
    import workloads

    path = HERE / "pins.json"
    with open(path) as fh:
        doc = json.load(fh)
    doc["held_out_seed"] = workloads.HELD_OUT_SEED
    doc["machine"] = harness.machine()
    pins = doc.setdefault("pins", {})
    seeds = sorted(set(_seeds(args.seeds)) | {workloads.HELD_OUT_SEED})
    failures = 0
    for workload in workloads.INSTANTIATE:
        runner = harness.runner_for(workload, Path.cwd() / harness.OUT_DIR)
        for seed in seeds:
            oracle = outputs.digest(runner.oracle(seed))
            it = harness._one_iteration(runner, seed, False, None)
            measured = (outputs.digest(it.fingerprint)
                        if it.error is None else it.error)
            if measured != oracle:
                failures += 1
                print(f"{workload} seed {seed}: measured {measured} != "
                      f"oracle {oracle}; not pinned", file=sys.stderr)
                continue
            pins.setdefault(workload, {})[str(seed)] = oracle
            print(f"{workload} seed {seed}: {oracle}", flush=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
