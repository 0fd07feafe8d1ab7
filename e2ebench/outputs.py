"""Simulated-output fingerprints and per-layer counts from public results.

A fingerprint is what a run simulated, independent of how fast it ran:
every component's executed-event count, every component's public
``collect_outputs()``, and, when the run kept one, the audit ledger root.
Two runs of the same workload and seed must give the same fingerprint in
every execution mode, traced or not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable


def _outputs(comp) -> dict:
    collect = getattr(comp, "collect_outputs", None)
    return collect() if collect is not None else {}


def fingerprint_inprocess(exp, stats) -> dict:
    """Fingerprint of an in-process run (``Experiment.run``)."""
    fp = {"events": dict(stats.per_component_events),
          "outputs": {c.name: _outputs(c) for c in exp.sim.components}}
    if exp.audit is not None:
        fp["audit_root"] = exp.audit.root_digest()
    return fp


def fingerprint_mp(results) -> dict:
    """Fingerprint of a multiprocess run (``Experiment.run_mp`` results)."""
    return {"events": {n: r.events for n, r in results.items()},
            "outputs": {n: r.outputs for n, r in results.items()}}


def digest(fp: dict) -> str:
    """Stable SHA-256 of a fingerprint."""
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- per-layer counts ---------------------------------------------------------

def net_counts(nets: Iterable) -> Dict[str, float]:
    """Packet-path and fluid counters summed over network partitions."""
    out = {"packets": 0, "drops": 0, "ecn_marks": 0, "fluid_updates": 0,
           "fluid_promoted": 0, "fluid_bytes": 0, "delivered_bytes": 0}
    for net in nets:
        out["packets"] += net.total_tx_packets()
        queues = [q for link in net.links
                  for q in (link.dir_ab.queue, link.dir_ba.queue)]
        queues += [att.ext.direction.queue for att in net.externals.values()]
        for q in queues:
            out["drops"] += q.stats.dropped
            out["ecn_marks"] += q.stats.ecn_marked
        if net.fluid is not None:
            fstats = net.fluid.stats()
            out["fluid_updates"] += fstats["updates"]
            out["fluid_promoted"] += fstats["promoted"]
            out["fluid_bytes"] += fstats["bytes_modeled"]
        for app_out in net.collect_outputs().values():
            out["delivered_bytes"] += app_out.get("delivered", 0)
    return out


def queue_counts(queues: Iterable) -> Dict[str, float]:
    """Event-queue health summed the way ``SimStats`` sums it."""
    peak = scheduled = cancelled = reused = 0
    for q in queues:
        qs = q.stats()
        peak = max(peak, qs["peak_heap"])
        reused += qs["pool_reuse"]
        cancelled += qs["cancelled_total"]
        scheduled += qs["allocations"] + qs["pool_reuse"]
    return {"peak_heap": peak,
            "pool_reuse_rate": reused / scheduled if scheduled else 0.0,
            "cancelled_ratio": cancelled / scheduled if scheduled else 0.0}


def channel_counts(ends: Iterable) -> Dict[str, float]:
    """Data messages and sync markers sent over every channel end."""
    msgs = syncs = 0
    for end in ends:
        c = end.counters()
        msgs += c["tx_msgs"]
        syncs += c["tx_syncs"]
    return {"msgs": msgs, "syncs": syncs}
