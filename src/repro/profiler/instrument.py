"""Profiler instrumentation: sampling adapter counters during a run.

The counters themselves live on :class:`~repro.channels.channel.ChannelEnd`
(updated by the channel code and the runners); this module only *samples*
them.  Three sources produce :class:`~repro.profiler.records.ProfileLog`
data:

* :class:`StrictModeSampler` — a round observer (``Simulation.observers``)
  of the in-process strict-sync coordinator: snapshots counters every N
  rounds and at run end (modeled cycle counts).
* :func:`sample_component` — one snapshot of a live component; the
  multi-process runner calls this in each child (real nanosecond waits).
* :func:`log_from_model` — converts a virtual-time
  :class:`~repro.parallel.model.ModelResult` into the same record format,
  so post-processing and WTPG generation are identical for modeled runs.
"""

from __future__ import annotations

import time
from typing import Optional

from ..kernel.component import Component
from ..parallel.model import ModelResult
from .records import AdapterRecord, ProfileLog


def sample_component(comp: Component, log: ProfileLog,
                     tsc_ns: Optional[float] = None) -> None:
    """Append one record per adapter of ``comp`` to ``log``."""
    ts = time.perf_counter_ns() if tsc_ns is None else tsc_ns
    for end in comp.ends:
        log.append(AdapterRecord(
            comp=comp.name,
            adapter=end.name,
            peer=end.peer_name,
            tsc_ns=float(ts),
            sim_ps=comp.now,
            wait_cycles=end.wait_cycles,
            tx_cycles=end.tx_cycles,
            rx_cycles=end.rx_cycles,
            tx_msgs=end.tx_msgs,
            rx_msgs=end.rx_msgs,
            tx_syncs=end.tx_syncs,
            rx_syncs=end.rx_syncs,
            work_cycles=comp.work_cycles,
        ))


class StrictModeSampler:
    """Periodically samples all components of an in-process simulation.

    A round observer: register it on ``Simulation.observers``.  Every
    ``interval`` coordinator rounds, and once in :meth:`finish`, a
    snapshot of every component is appended to the log.
    """

    def __init__(self, components, interval: int = 1000) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.components = list(components)
        self.interval = interval
        self.log = ProfileLog()

    def start(self, until_ps: int) -> None:
        pass

    def on_round(self, rounds: int, done: bool) -> None:
        if not rounds % self.interval:
            self.sample()

    def finish(self) -> None:
        """Final snapshot: the log's last-minus-first diffs cover the run."""
        self.sample()

    def sample(self) -> None:
        """Take one snapshot of every component immediately."""
        ts = time.perf_counter_ns()
        for comp in self.components:
            sample_component(comp, self.log, tsc_ns=ts)


def log_from_model(result: ModelResult) -> ProfileLog:
    """Render a modeled parallel execution as begin/end profiler records.

    Produces two records per component pair edge — one at time zero with
    zero counters and one at the end with the modeled totals — which is
    exactly what the post-processor needs to compute diffs.
    """
    log = ProfileLog()
    ns_per_cycle = 1e9 / result.machine.hz
    end_tsc = result.makespan_cycles * ns_per_cycle
    # Collect peers per component from the edge map (both directions).
    peers: dict[str, set] = {name: set() for name in result.components}
    for (src, dst) in result.edge_wait_cycles:
        peers.setdefault(src, set()).add(dst)
        peers.setdefault(dst, set()).add(src)
    for name, stats in result.components.items():
        plist = sorted(peers.get(name, ())) or ["<all>"]
        for peer in plist:
            wait = result.edge_wait_cycles.get((name, peer), 0.0)
            comm_share = stats.comm_cycles / len(plist)
            for tsc, sim, w, c, work in (
                (0.0, 0, 0.0, 0.0, 0.0),
                (end_tsc, result.sim_time_ps, wait, comm_share, stats.work_cycles),
            ):
                log.append(AdapterRecord(
                    comp=name,
                    adapter=f"{name}->{peer}",
                    peer=peer,
                    tsc_ns=tsc,
                    sim_ps=sim,
                    wait_cycles=w,
                    tx_cycles=c / 2,
                    rx_cycles=c / 2,
                    work_cycles=work,
                ))
    return log
