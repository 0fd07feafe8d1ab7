"""Wiring a :class:`~repro.obs.trace.Tracer` through a simulation.

Instrumentation points live in the layers themselves (kernel drain spans,
channel counter tracks, link busy periods); this module *attaches* a tracer
to them and provides the one counter-track emitter
(:func:`sample_counters`) plus the strict-mode round observer that drives
it (:class:`CounterTrackSampler`).  Every instrumented site
holds a plain attribute that is ``None`` when tracing is off, so the
disabled hot path pays at most one pointer test.

Call :func:`install_tracer` on a :class:`~repro.parallel.simulation.Simulation`
before it runs; the simulation finishes the wiring (queues are swapped in
fast mode, externals are bound late) by calling :func:`wire_tracer` from
``Simulation._wire``.
"""

from __future__ import annotations

from .trace import Tracer, us_from_ps


def install_tracer(sim, tracer: Tracer, counter_interval_rounds: int = 64) -> Tracer:
    """Attach ``tracer`` to a simulation (before :meth:`Simulation.run`).

    In strict mode this also registers a :class:`CounterTrackSampler`
    round observer that samples per-component/per-channel counter tracks
    every ``counter_interval_rounds`` coordinator rounds.
    """
    if counter_interval_rounds <= 0:
        raise ValueError("counter interval must be positive")
    sim.obs = tracer
    if sim.mode == "strict":
        sim.observers.append(
            CounterTrackSampler(sim, tracer, counter_interval_rounds))
    if getattr(sim, "_wired", False):
        wire_tracer(sim)
    return sim.obs


def wire_tracer(sim) -> None:
    """Finish tracer wiring once queues/channels exist (post ``_wire``).

    * strict mode: one kernel-drain track per component queue;
    * fast mode: all components share one queue, hence one ``kernel`` track;
    * network partitions additionally get per-link-direction busy tracks.
    """
    tracer = sim.obs
    if tracer is None:
        return
    for comp in sim.components:
        tid_name = comp.name if sim.mode == "strict" else "kernel"
        comp.queue.obs = (tracer, tracer.tid(tid_name))
        if getattr(comp, "links", None) is not None:
            install_network_tracer(comp, tracer)


def install_network_tracer(net, tracer: Tracer) -> None:
    """Attach busy-period/queue tracks to every link direction of ``net``."""
    for link in net.links:
        for direction in (link.dir_ab, link.dir_ba):
            direction.obs = (tracer, tracer.tid(f"link:{direction.label}"))
    for att in net.externals.values():
        direction = att.ext.direction
        direction.obs = (tracer, tracer.tid(f"link:{direction.label}"))
    if net.fluid is not None:
        net.fluid.obs = (tracer, tracer.tid(f"fluid:{net.name}"))


def install_component_tracer(comp, tracer: Tracer) -> None:
    """Attach a sim-domain tracer to one standalone component.

    For components driven outside a :class:`Simulation` (unit tests, custom
    drivers).  The multiprocess runner does *not* use this — its children
    trace waits/heartbeats in the wall domain (see
    :mod:`repro.parallel.procrunner`) so kernel drains aren't flooded into
    the bounded ring.
    """
    comp.queue.obs = (tracer, tracer.tid(comp.name))
    if getattr(comp, "links", None) is not None:
        install_network_tracer(comp, tracer)


def sample_counters(tracer: Tracer, comp, ts: float) -> None:
    """Emit cumulative ``comp|<name>`` and per-end ``chan|...`` counter
    samples at ``ts`` (sim time in-process, wall time in mp children).
    A baseline and a final sample bracket the run, so last-minus-first
    diffs equal the counter-based profiler's totals."""
    tid = tracer.tid(comp.name)
    tracer.counter(tid, "comp", f"comp|{comp.name}", ts, {
        "events": comp.events_processed,
        "work_cycles": comp.work_cycles,
    })
    for end in comp.ends:
        end.obs_sample(tracer, tid, ts, comp.name)


class CounterTrackSampler:
    """Strict-mode round observer: at t=0, every ``interval_rounds``
    rounds and at completion, :func:`sample_counters` per component plus
    a ``stall|<name>`` instant naming who each blocked component waits on
    (input to ``splitsim-inspect``'s stall timeline and trace WTPG)."""

    def __init__(self, sim, tracer: Tracer, interval_rounds: int) -> None:
        self.sim = sim
        self.tracer = tracer
        self.interval_rounds = interval_rounds
        self.until_ps = 0

    def start(self, until_ps: int) -> None:
        self.until_ps = until_ps
        self._sample(0)  # baseline: trace-derived diffs then cover the run

    def on_round(self, rounds: int, done: bool) -> None:
        if done or not rounds % self.interval_rounds:
            self._sample(rounds)

    def finish(self) -> None:
        pass

    def _sample(self, rounds: int) -> None:
        tracer = self.tracer
        for comp in self.sim.components:
            ts = us_from_ps(comp.now)
            sample_counters(tracer, comp, ts)
            if comp.now < self.until_ps:
                blocking = comp.blocking_ends()
                if blocking:
                    tracer.instant(tracer.tid(comp.name), "sync",
                                   f"stall|{comp.name}", ts, {
                                       "on": [e.peer_comp_name or e.peer_name
                                              for e in blocking],
                                       "round": rounds,
                                   })
