"""Cooperative in-process execution of a SplitSim simulation.

The :class:`Simulation` object assembles component simulators and channels
and runs them to a simulated end time.  Two execution modes exist:

* ``"fast"`` (default): all components share one global event queue and
  channels deliver directly (with their latency) into the receiver's queue.
  Synchronization never blocks because the global queue already executes
  events in timestamp order.  This produces *identical simulated behaviour*
  to a synchronized run — conservative synchronization only ever adds
  waiting, never changes event order — at much lower interpreter overhead.

* ``"strict"``: every component keeps a private queue and the full
  SimBricks-style sync protocol runs — sync markers, input horizons,
  blocking.  Use this to exercise/validate the protocol and to collect
  wait counters for the profiler.

Everything that samples a run — the profiler, trace counter tracks, the
epoch timeline, the audit ledger — is a *round observer* on
:attr:`Simulation.observers`: ``start(until_ps)`` before the first event,
``on_round(rounds, done)`` after every strict coordinator round (``done``
only on the last; no event is mid-flight there, and each observer applies
its own interval) and ``finish()`` after the run.  Fast mode has no rounds.

Real multi-process execution lives in :mod:`repro.parallel.procrunner`; the
virtual-time performance model in :mod:`repro.parallel.model`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..channels.channel import ChannelEnd, FifoQueue, connect
from ..kernel.component import Component, WorkRecorder
from ..kernel.events import EventQueue
from ..kernel.simtime import TIME_INFINITY, US

#: Modeled host cycles burned per blocked poll iteration in strict mode.
POLL_COST_CYCLES = 50.0


class DeadlockError(RuntimeError):
    """Raised when no component can make progress before the end time."""


class _DirectQueue:
    """Fast-mode transport: delivers straight into the peer's event queue.

    ``bind`` caches the receiver's ``queue.schedule`` and dispatch bound
    methods so the per-message ``push`` does no attribute traversal at all.
    """

    def __init__(self) -> None:
        self.peer_comp: Optional[Component] = None
        self.peer_end: Optional[ChannelEnd] = None
        self._schedule_at = None
        self._dispatch = None

    def bind(self, comp: Component, end: ChannelEnd) -> None:
        """Point this queue at the receiving component and end."""
        self.peer_comp = comp
        self.peer_end = end
        self._schedule_at = comp.queue.schedule_at
        self._dispatch = comp._dispatch_cached

    def push(self, msg) -> bool:
        """Deliver a message straight into the peer's event queue."""
        end = self.peer_end
        end.rx_msgs += 1
        self._schedule_at(self.peer_comp, msg.stamp, self._dispatch, end, msg)
        return True

    def pop(self):  # pragma: no cover - fast mode never polls
        return None

    def peek_stamp(self):  # pragma: no cover
        return None


@dataclass
class SimStats:
    """Summary of one simulation run."""

    sim_time_ps: int = 0
    wall_seconds: float = 0.0
    events: int = 0
    rounds: int = 0
    mode: str = "fast"
    per_component_events: Dict[str, int] = field(default_factory=dict)
    per_component_work: Dict[str, float] = field(default_factory=dict)
    # -- event-queue/engine health (aggregated over all queues of the run) --
    #: largest heap length observed (live + lazily-cancelled entries)
    peak_heap: int = 0
    #: fraction of schedules served from the event free list
    pool_reuse_rate: float = 0.0
    #: fraction of scheduled events cancelled before firing
    cancelled_ratio: float = 0.0
    #: fresh Event objects constructed across the run
    event_allocations: int = 0

    @property
    def events_per_second(self) -> float:
        """Interpreter throughput of the run (events / wall second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds


class Simulation:
    """Container wiring components and channels, and running them.

    Parameters
    ----------
    mode:
        ``"fast"`` or ``"strict"`` (see module docstring).
    work_window_ps:
        When set, a :class:`WorkRecorder` with this window granularity is
        attached to every component; required input for the virtual-time
        parallel execution model.
    """

    def __init__(self, mode: str = "fast",
                 work_window_ps: Optional[int] = None) -> None:
        if mode not in ("fast", "strict"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.components: List[Component] = []
        self.channels: List[Tuple[ChannelEnd, ChannelEnd]] = []
        self.recorder: Optional[WorkRecorder] = None
        if work_window_ps is not None:
            self.recorder = WorkRecorder(work_window_ps)
        #: round observers, called in registration order (see the module
        #: docstring for the ``start``/``on_round``/``finish`` protocol)
        self.observers: List = []
        #: observability tracer (``None`` = disabled); install via
        #: :func:`repro.obs.install.install_tracer`, never directly.
        self.obs = None
        self._wired = False

    # -- assembly ----------------------------------------------------------

    def add(self, comp: Component) -> Component:
        """Register a component simulator."""
        if any(c.name == comp.name for c in self.components):
            raise ValueError(f"duplicate component name {comp.name!r}")
        self.components.append(comp)
        return comp

    def connect(self, end_a: ChannelEnd, end_b: ChannelEnd) -> None:
        """Create a channel between two attached channel ends."""
        if end_a.owner is None or end_b.owner is None:
            raise ValueError("attach ends to components before connecting")
        self.channels.append((end_a, end_b))

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    # -- execution ---------------------------------------------------------

    def _wire(self) -> None:
        if self._wired:
            raise RuntimeError("simulation already ran; build a fresh one")
        self._wired = True
        if self.recorder is not None:
            for c in self.components:
                c.recorder = self.recorder
        if self.mode == "fast":
            shared = EventQueue()
            for c in self.components:
                # Preserve events scheduled before the run started.
                while True:
                    ev = c.queue.pop()
                    if ev is None:
                        break
                    shared.schedule(ev.ts, ev.fn, *ev.args, owner=c)
                c.queue = shared
                c._schedule_at = shared.schedule_at
            for end_a, end_b in self.channels:
                q_ab, q_ba = _DirectQueue(), _DirectQueue()
                q_ab.bind(end_b.owner, end_b)
                q_ba.bind(end_a.owner, end_a)
                end_a.wire(out_q=q_ab, in_q=q_ba, peer_name=end_b.name)
                end_b.wire(out_q=q_ba, in_q=q_ab, peer_name=end_a.name)
                end_a.peer_comp_name = end_b.owner.name
                end_b.peer_comp_name = end_a.owner.name
                end_a.synchronized = False
                end_b.synchronized = False
            self._shared_queue = shared
        else:
            for end_a, end_b in self.channels:
                connect(end_a, end_b, FifoQueue)
                end_a.peer_comp_name = end_b.owner.name
                end_b.peer_comp_name = end_a.owner.name
        if self.obs is not None:
            # lazy import: the obs layer costs nothing when disabled
            from ..obs.install import wire_tracer
            wire_tracer(self)

    def run(self, until_ps: int) -> SimStats:
        """Run the simulation to ``until_ps`` and return run statistics."""
        self._wire()
        t0 = _time.perf_counter()
        if self.mode == "fast":
            rounds = self._run_fast(until_ps)
        else:
            rounds = self._run_strict(until_ps)
        wall = _time.perf_counter() - t0
        stats = SimStats(
            sim_time_ps=until_ps,
            wall_seconds=wall,
            events=sum(c.events_processed for c in self.components),
            rounds=rounds,
            mode=self.mode,
            per_component_events={c.name: c.events_processed for c in self.components},
            per_component_work={c.name: c.work_cycles for c in self.components},
        )
        self._fill_queue_stats(stats)
        return stats

    def _fill_queue_stats(self, stats: SimStats) -> None:
        """Aggregate queue health counters (fast mode shares one queue)."""
        queues = {id(c.queue): c.queue for c in self.components}
        scheduled = cancelled = reused = allocs = 0
        for q in queues.values():
            qs = q.stats()
            stats.peak_heap = max(stats.peak_heap, qs["peak_heap"])
            allocs += qs["allocations"]
            reused += qs["pool_reuse"]
            cancelled += qs["cancelled_total"]
            scheduled += qs["allocations"] + qs["pool_reuse"]
        stats.event_allocations = allocs
        if scheduled:
            stats.pool_reuse_rate = reused / scheduled
            stats.cancelled_ratio = cancelled / scheduled

    def _run_fast(self, until_ps: int) -> int:
        queue = self._shared_queue
        for observer in self.observers:
            observer.start(until_ps)
        for c in self.components:
            c._started = True
            c.start()
        # One fused drain: a single cancelled-scan per event, inlined
        # dispatch accounting, and free-list recycling (kernel/events.py).
        steps = queue.run_until(until_ps)
        for c in self.components:
            if c.now < until_ps:
                c.now = until_ps
        for observer in self.observers:
            observer.finish()
        return steps

    def _run_strict(self, until_ps: int) -> int:
        comps = self.components
        commits = {c.name: -1 for c in comps}
        rounds = 0
        observers = self.observers
        for observer in observers:
            observer.start(until_ps)
        while True:
            progressed = False
            done = True
            for c in comps:
                before_events = c.events_processed
                commit = c.advance(until_ps)
                if commit > commits[c.name] or c.events_processed > before_events:
                    progressed = True
                commits[c.name] = commit
                if commit < until_ps:
                    done = False
                    # Attribute a poll's worth of waiting to the limiting ends.
                    for end in c.blocking_ends():
                        end.note_wait(POLL_COST_CYCLES)
            rounds += 1
            for observer in observers:
                observer.on_round(rounds, done)
            if done:
                for observer in observers:
                    observer.finish()
                return rounds
            if not progressed:
                detail = ", ".join(
                    f"{c.name}@{commits[c.name]} hz={c.input_horizon()}" for c in comps
                )
                raise DeadlockError(f"no progress after round {rounds}: {detail}")
