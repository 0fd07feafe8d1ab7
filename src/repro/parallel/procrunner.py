"""Run a SplitSim simulation with one OS process per component simulator.

This is the "real" parallel runtime corresponding to the paper's deployment:
each component simulator is its own process; channels are shared-memory
rings (:mod:`repro.parallel.shm_ring`); synchronization is the conservative
protocol from :mod:`repro.channels.channel`; blocked components busy-poll
their input rings, and the time they spend doing so is measured with real
nanosecond timestamps — exactly the quantity the SplitSim profiler reports.

On a single-core machine (like this sandbox) this runtime is *correct* but
cannot exhibit wall-clock speedup; the virtual-time model
(:mod:`repro.parallel.model`) covers the performance experiments.

Components are described by picklable factory callables so they can be
constructed inside the child process::

    spec = ProcSpec("a", make_pinger, ("a", True))
    runner = ProcessRunner([spec_a, spec_b],
                           [ProcChannel("a", "a.e", "b", "b.e")])
    results = runner.run(until_ps=1 * MS)
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.component import Component
from .shm_ring import ShmRing

#: Spin iterations between backoff steps while blocked.
_SPIN_BATCH = 200
#: Pure sched-yield rounds before the blocked loop starts sleeping.
_YIELD_ROUNDS = 8
#: First real sleep once yields are exhausted; doubles up to the max.
_NAP_BASE_S = 5e-6
_NAP_MAX_S = 200e-6


@dataclass
class ProcSpec:
    """Description of one component process.

    Either a picklable ``factory`` (constructed inside the child) or a
    prebuilt ``component`` (inherited through fork; nothing is pickled).
    """

    name: str
    factory: Optional[Callable[..., Component]] = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    component: Optional[Component] = None

    def make(self) -> Component:
        """Obtain the component (prebuilt or via the factory)."""
        if self.component is not None:
            return self.component
        if self.factory is None:
            raise ValueError(f"{self.name}: neither factory nor component")
        return self.factory(*self.args, **self.kwargs)


@dataclass
class ProcChannel:
    """A channel between named ends of two component processes.

    End names refer to ``ChannelEnd.name`` values created by the factories.
    """

    comp_a: str
    end_a: str
    comp_b: str
    end_b: str


@dataclass
class ProcResult:
    """What one component process reports back after finishing."""

    name: str
    events: int = 0
    wall_seconds: float = 0.0
    wait_seconds: float = 0.0
    work_cycles: float = 0.0
    end_counters: Dict[str, dict] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    #: shm transport counters (frames/batches/bytes per direction, summed
    #: over this component's rings) plus the wire codec's fallback counts
    transport: dict = field(default_factory=dict)
    #: :func:`repro.obs.audit.timeline_digest` of this component's event
    #: timeline, filled when the run was started with ``digest=True``
    timeline_digest: Optional[str] = None
    #: per-epoch audit ledger payload (rows + component digest +
    #: zlib-compressed timeline payload; see :mod:`repro.obs.audit`),
    #: filled when the run was started with ``audit_path``
    audit: Optional[dict] = None
    error: Optional[str] = None


def _transport_stats(rings: List[ShmRing]) -> dict:
    """Aggregate shm-ring counters plus the wire codec's fallback counts."""
    from ..channels import wire
    totals = {"frames_out": 0, "batches_out": 0, "bytes_out": 0,
              "frames_in": 0, "batches_in": 0, "bytes_in": 0}
    for ring in rings:
        for key, value in ring.stats().items():
            totals[key] += value
    totals["frames_per_batch"] = (
        totals["frames_out"] / totals["batches_out"]
        if totals["batches_out"] else 0.0)
    totals["wire"] = wire.stats()
    return totals


def _find_end(comp: Component, end_name: str):
    for end in comp.ends:
        if end.name == end_name:
            return end
    raise KeyError(f"{comp.name}: no channel end named {end_name!r}")


class _HeartbeatPump:
    """Rate-limited child telemetry: heartbeats plus progress counters.

    One :meth:`maybe` call costs a single ``perf_counter`` read unless the
    heartbeat interval has elapsed; the advance loop calls it once per sync
    round, the blocked spin loop once per spin batch.
    """

    def __init__(self, name: str, q, tracer, comp: Component,
                 in_rings: List[ShmRing], t_start: float,
                 interval_s: float) -> None:
        self._name = name
        self._q = q
        self._tracer = tracer
        self._comp = comp
        self._in_rings = in_rings
        self._t_start = t_start
        self._interval = interval_s
        self._next = t_start + interval_s
        self._last_events = 0
        self._last_t = t_start
        #: epoch-timeline tracker (:class:`repro.obs.timeline.EpochTracker`)
        #: whose delta payload piggybacks on every heartbeat; ``None`` when
        #: the run records no timeline.
        self.epoch_tracker = None
        #: audit ledger state (:class:`repro.obs.audit.ComponentAuditor`)
        #: whose newly closed rows piggyback on every heartbeat; ``None``
        #: when the run is not audited.
        self.auditor = None

    def maybe(self, commit: int, waiting: bool) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        self._next = now + self._interval
        events = self._comp.events_processed
        dt = now - self._last_t
        eps = (events - self._last_events) / dt if dt > 0 else 0.0
        self._last_events = events
        self._last_t = now
        fill = max((r.fill_fraction() for r in self._in_rings), default=0.0)
        if self._q is not None:
            from ..obs.telemetry import Heartbeat
            epoch = None
            if self.epoch_tracker is not None:
                epoch = self.epoch_tracker.delta(commit)
            audit_rows = None
            if self.auditor is not None:
                self.auditor.flush_closed()
                audit_rows = self.auditor.take_rows() or None
            try:
                self._q.put_nowait(Heartbeat(
                    comp=self._name, wall_s=now - self._t_start,
                    sim_ps=commit, events=events, events_per_sec=eps,
                    ring_fill=fill, waiting=waiting, epoch=epoch,
                    audit=audit_rows))
            except Exception:  # pragma: no cover - queue full/closed
                pass
        tracer = self._tracer
        if tracer is not None:
            ts = tracer.wall_us()
            tracer.counter(tracer.tid("telemetry"), "telemetry", "progress",
                           ts, {"sim_ps": commit, "events": events})
            tracer.counter(tracer.tid("telemetry"), "telemetry", "ring_fill",
                           ts, {"in_fill": fill})

    def flush(self, commit: int) -> None:
        """Force one final beat at run end: short runs still contribute at
        least one epoch row, and totals cover exactly the run."""
        self._next = 0.0
        self.maybe(commit, waiting=False)


def _child_main(spec: ProcSpec,
                wiring: List[Tuple[str, str, str, str, str]],
                until_ps: int, result_q, timeout_s: float,
                telemetry_q=None, trace_dir: Optional[str] = None,
                hb_interval_s: float = 0.25, index: int = 0,
                digest: bool = False,
                flow_sample: Optional[int] = None,
                cmd_q=None, reply_q=None,
                epoch_timeline: bool = False,
                audit_window_ps: Optional[int] = None) -> None:
    result = ProcResult(name=spec.name)
    rings: List[ShmRing] = []
    tracer = None
    auditor = None
    try:
        if trace_dir is not None:
            from ..obs.install import sample_counters
            from ..obs.trace import Tracer
            tracer = Tracer(pid=index + 1, process_name=spec.name,
                            clock="wall")
            # Causal flow tracing: hop records land in this child's ring
            # (args carry exact sim-ps), stitched across processes by the
            # merged-trace analysis.  Explicit arg wins over the env knob.
            from ..obs.flows import install_flow_recorder, sample_from_env
            n = flow_sample if flow_sample is not None else sample_from_env(0)
            if n:
                install_flow_recorder(tracer, sample_n=n)
        comp = spec.make()
        in_rings: List[ShmRing] = []
        for end_name, out_name, in_name, peer, peer_comp in wiring:
            out_ring = ShmRing.attach(out_name)
            rings.append(out_ring)  # appended one by one: a failed attach
            in_ring = ShmRing.attach(in_name)  # must not orphan the first
            rings.append(in_ring)
            in_rings.append(in_ring)
            end = _find_end(comp, end_name)
            end.wire(out_q=out_ring, in_q=in_ring, peer_name=peer)
            end.peer_comp_name = peer_comp
        audited = audit_window_ps is not None
        if digest or audited:
            from ..obs.audit import DEFAULT_WINDOW_PS, ComponentAuditor
            auditor = ComponentAuditor(
                spec.name, audit_window_ps if audited else DEFAULT_WINDOW_PS)
            # Per-event hot path: one bare list append; window splitting
            # happens in batch at heartbeat/run-end flush points.
            append = auditor.buf.append
            comp.queue.trace = lambda owner, ts: append(ts)
        t_start = time.perf_counter()
        run_start_us = 0.0
        if tracer is not None:
            run_start_us = tracer.wall_us()
            tracer.span(tracer.tid("lifecycle"), "proc", "setup",
                        0.0, run_start_us)
            sample_counters(tracer, comp, tracer.wall_us())  # baseline
        pump = None
        if telemetry_q is not None or tracer is not None:
            pump = _HeartbeatPump(spec.name, telemetry_q, tracer, comp,
                                  in_rings, t_start, hb_interval_s)
            if epoch_timeline and telemetry_q is not None:
                from ..obs.timeline import EpochTracker
                pump.epoch_tracker = EpochTracker(comp)
            if audited and telemetry_q is not None:
                pump.auditor = auditor
        mailbox = None
        if cmd_q is not None:
            # Control-plane command mailbox, polled at sync-round
            # boundaries only: commands execute at a quiescent horizon and
            # can never interleave with event execution.
            from ..obs.live import ChildMailbox
            mailbox = ChildMailbox(
                spec.name, cmd_q, reply_q, comp, tracer=tracer,
                trace_dir=trace_dir,
                transport_stats=lambda: _transport_stats(rings))
        deadline = t_start + timeout_s
        ends = comp.ends
        wait_ns = 0
        last_commit = -1
        while True:
            commit = comp.advance(until_ps)
            done = commit >= until_ps
            blocked = commit == last_commit
            # Publish this round's batched frames; when finished or about
            # to block, also force out any deferred sync promise so the
            # peer never stalls on a promise we computed but coalesced.
            for e in ends:
                e.flush(blocked=done or blocked, deadline=deadline)
            if pump is not None:
                pump.maybe(commit, waiting=False)
            if mailbox is not None and mailbox.poll(commit):
                break  # graceful stop at this quiescent horizon
            if done:
                break
            if blocked:
                # Blocked: poll inputs with spin -> yield -> sleep
                # escalation, measuring real wait time.
                blocking = comp.blocking_ends()
                if not blocking:
                    continue
                t0 = time.perf_counter_ns()
                spins = 0
                naps = 0
                stopping = False
                while all(e.in_q.empty() for e in blocking):
                    spins += 1
                    if spins % _SPIN_BATCH:
                        continue
                    if naps < _YIELD_ROUNDS:
                        time.sleep(0)
                    else:
                        step = min(naps - _YIELD_ROUNDS, 6)
                        time.sleep(min(_NAP_MAX_S, _NAP_BASE_S * (1 << step)))
                    naps += 1
                    if pump is not None:
                        pump.maybe(commit, waiting=True)
                    if mailbox is not None and mailbox.poll(commit):
                        stopping = True  # commit is still quiescent here
                        break
                    if time.perf_counter() > deadline:
                        raise TimeoutError(
                            f"{spec.name} stuck at commit={commit}"
                        )
                dt = time.perf_counter_ns() - t0
                wait_ns += dt
                share = dt / max(1, len(blocking))
                for e in blocking:
                    e.note_wait(share)
                if tracer is not None:
                    dur_us = dt / 1e3
                    tracer.span(
                        tracer.tid("sync"), "sync",
                        f"wait|{'+'.join(e.name for e in blocking)}",
                        tracer.wall_us() - dur_us, dur_us,
                        {"commit": commit,
                         "on": [e.peer_comp_name or e.peer_name
                                for e in blocking]})
                if stopping:
                    break
            last_commit = commit
        if pump is not None and (pump.epoch_tracker is not None
                                 or pump.auditor is not None):
            pump.flush(commit)
        if auditor is not None:
            auditor.finalize()
        if digest:
            result.timeline_digest = auditor.timeline_digest()
        if audited:
            from ..obs.audit import pack_payload
            result.audit = {
                "rows": [r.to_wire() for r in auditor.rows],
                "digest": auditor.digest(),
                "payload_z": pack_payload(auditor.payload()),
                "events": auditor.events,
            }
        result.events = comp.events_processed
        result.wall_seconds = time.perf_counter() - t_start
        result.wait_seconds = wait_ns / 1e9
        result.work_cycles = comp.work_cycles
        result.end_counters = {e.name: e.counters() for e in comp.ends}
        result.transport = _transport_stats(rings)
        collect = getattr(comp, "collect_outputs", None)
        if collect is not None:
            result.outputs = collect()
        if tracer is not None:
            end_us = tracer.wall_us()
            tracer.span(tracer.tid("lifecycle"), "proc", "run",
                        run_start_us, end_us - run_start_us,
                        {"events": result.events,
                         "wait_seconds": result.wait_seconds})
            sample_counters(tracer, comp, tracer.wall_us())  # final sample
            tracer.save_jsonl(os.path.join(trace_dir,
                                           f"{spec.name}.trace.jsonl"))
    except Exception as exc:  # pragma: no cover - error path
        result.error = f"{type(exc).__name__}: {exc}"
        if auditor is not None and audit_window_ps is not None:
            # ship what closed before the failure: the parent keeps a
            # partial ledger (null root) instead of losing localization
            auditor.flush_closed()
            result.audit = {"rows": [r.to_wire() for r in auditor.rows],
                            "partial": True}
    finally:
        for ring in rings:
            ring.close()
        result_q.put(result)


class ProcessRunner:
    """Launches component processes, wires rings, and collects results."""

    def __init__(self, specs: List[ProcSpec], channels: List[ProcChannel],
                 ring_bytes: int = 1 << 20) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")
        self.specs = specs
        self.channels = channels
        self.ring_bytes = ring_bytes

    def run(self, until_ps: int, timeout_s: float = 120.0, *,
            progress: bool = False, report_path: Optional[str] = None,
            trace_dir: Optional[str] = None,
            hb_interval_s: float = 0.25,
            digest: bool = False,
            flow_sample: Optional[int] = None,
            control_dir: Optional[str] = None,
            stall_intervals: int = 4,
            stale_after_s: Optional[float] = None,
            timeline_path: Optional[str] = None,
            audit_path: Optional[str] = None,
            audit_window_ps: Optional[int] = None) -> Dict[str, ProcResult]:
        """Run all components to ``until_ps``; returns per-component results.

        Parameters
        ----------
        progress:
            Render a live one-line status (stderr) from child heartbeats.
        report_path:
            Write the versioned ``run_report.json`` here after the run
            (written even when a component fails or the parent times out,
            before raising).
        trace_dir:
            Directory for per-child wall-clock traces (JSONL) and the
            merged ``trace.json`` Chrome-trace document.
        hb_interval_s:
            Child heartbeat period; heartbeats are only collected when
            ``progress``, ``report_path`` or ``control_dir`` is requested.
        digest:
            Record each child's event timeline and return its SHA-256 in
            ``ProcResult.timeline_digest`` (determinism checks).
        flow_sample:
            Keep 1-in-N causal flows in the per-child traces (needs
            ``trace_dir``); ``None`` defers to ``SPLITSIM_FLOW_SAMPLE``.
        control_dir:
            Serve the live control plane from this run directory: a
            ``control.json`` discovery file plus a unix-socket endpoint
            that ``splitsim-inspect attach`` connects to.  Children poll
            a command mailbox at sync-round boundaries, so commands never
            perturb event order (the determinism digest is unchanged).
        stall_intervals:
            Heartbeat intervals without sim-time progress before the
            watchdog flags a component as stalled.
        stale_after_s:
            Age after which a silent component is flagged stale; default
            ``max(2.0, 8 * hb_interval_s)``.
        timeline_path:
            Write the epoch-resolved metrics timeline here
            (``timeline.jsonl``): children piggyback per-epoch counter
            deltas on their heartbeats (plus one forced final beat), the
            parent assembles and persists them.  Referenced from the run
            report's ``timeline`` field when ``report_path`` is given.
            Pure counter reads — the determinism digest is unchanged.
        audit_path:
            Write the per-epoch digest ledger here (``audit.jsonl``, see
            :mod:`repro.obs.audit`): children piggyback closed windows on
            their heartbeats and ship the authoritative rows + payload in
            their result; the parent assembles the ledger and folds the
            root digest — bit-identical to the in-process golden fold.
            Referenced from the run report's ``audit`` field when
            ``report_path`` is given.
        audit_window_ps:
            Epoch width of the audit ledger in simulated picoseconds
            (default :data:`repro.obs.audit.DEFAULT_WINDOW_PS`).  Two
            ledgers are only comparable at matching widths.
        """
        ctx = mp.get_context("fork")
        rings: List[ShmRing] = []
        # wiring[comp] = (end_name, out_ring, in_ring, peer_end, peer_comp)
        wiring: Dict[str, List[Tuple[str, str, str, str, str]]] = {
            s.name: [] for s in self.specs
        }
        names = [s.name for s in self.specs]
        want_telemetry = (progress or report_path is not None
                          or control_dir is not None
                          or timeline_path is not None
                          or audit_path is not None)
        aggregator = None
        monitor = None
        telemetry_q = None
        parent_tracer = None
        control = None
        collector = None
        audit_collector = None
        if want_telemetry:
            from ..obs.telemetry import TelemetryAggregator, HealthMonitor
            aggregator = TelemetryAggregator(names)
            monitor = HealthMonitor(names, hb_interval_s=hb_interval_s,
                                    stall_intervals=stall_intervals,
                                    stale_after_s=stale_after_s)
        if timeline_path is not None:
            from ..obs.timeline import MpTimelineCollector
            collector = MpTimelineCollector(names, until_ps)
        if audit_path is not None:
            from ..obs.audit import DEFAULT_WINDOW_PS, MpAuditCollector
            if audit_window_ps is None:
                audit_window_ps = DEFAULT_WINDOW_PS
            audit_collector = MpAuditCollector(names, until_ps,
                                               audit_window_ps)
        else:
            audit_window_ps = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            from ..obs.trace import Tracer
            parent_tracer = Tracer(pid=0, process_name="runner",
                                   clock="wall")
        try:
            for ch in self.channels:
                # append as soon as each ring exists: if the second create
                # fails, the finally below still unlinks the first
                r_ab = ShmRing.create(self.ring_bytes)
                rings.append(r_ab)
                r_ba = ShmRing.create(self.ring_bytes)
                rings.append(r_ba)
                wiring[ch.comp_a].append(
                    (ch.end_a, r_ab.name, r_ba.name, ch.end_b, ch.comp_b))
                wiring[ch.comp_b].append(
                    (ch.end_b, r_ba.name, r_ab.name, ch.end_a, ch.comp_a))

            result_q = ctx.Queue()
            if want_telemetry:
                telemetry_q = ctx.Queue()
            cmd_queues: Dict[str, object] = {}
            reply_q = None
            if control_dir is not None:
                os.makedirs(control_dir, exist_ok=True)
                cmd_queues = {name: ctx.Queue() for name in names}
                reply_q = ctx.Queue()
            launch_us = 0.0
            procs = [
                ctx.Process(
                    target=_child_main,
                    args=(spec, wiring[spec.name], until_ps, result_q,
                          timeout_s, telemetry_q, trace_dir, hb_interval_s,
                          index, digest, flow_sample,
                          cmd_queues.get(spec.name), reply_q,
                          timeline_path is not None, audit_window_ps),
                    name=f"splitsim-{spec.name}",
                )
                for index, spec in enumerate(self.specs)
            ]
            for p in procs:
                p.start()
            if control_dir is not None:
                from ..obs.live import ControlPlane
                merge_partial = None
                if trace_dir is not None:
                    from ..obs.trace import merge_trace_jsonl
                    merge_partial = lambda: merge_trace_jsonl(
                        trace_dir, names,
                        suffix=(".trace.partial.jsonl", ".trace.jsonl"),
                        parent_tracer=parent_tracer,
                        out_name="trace.partial.json")
                control = ControlPlane(
                    control_dir, names, until_ps, aggregator, monitor,
                    cmd_queues, reply_q, trace_dir=trace_dir,
                    merge_partial=merge_partial)
                control.start()
            if parent_tracer is not None:
                launch_us = parent_tracer.wall_us()
                parent_tracer.span(parent_tracer.tid("phases"), "phase",
                                   "launch", 0.0, launch_us,
                                   {"processes": len(procs)})
            t_run0 = time.perf_counter()
            results: Dict[str, ProcResult] = {}
            deadline = time.monotonic() + timeout_s + 10
            timed_out = False
            while len(results) < len(procs):
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                self._drain_telemetry(telemetry_q, aggregator, monitor,
                                      progress, collector, audit_collector)
                try:
                    res: ProcResult = result_q.get(
                        timeout=hb_interval_s if want_telemetry else 0.5)
                except Empty:
                    continue
                results[res.name] = res
                if monitor is not None:
                    monitor.note_done(res.name, res.error)
                if control is not None:
                    control.note_done(res.name, res.error)
                if audit_collector is not None:
                    audit_collector.note_result(res)
            self._drain_telemetry(telemetry_q, aggregator, monitor, progress,
                                  collector, audit_collector)
            if progress:
                sys.stderr.write("\n")
                sys.stderr.flush()
            for p in procs:
                p.join(timeout=0.1 if timed_out else 10)
                if p.is_alive():  # pragma: no cover - cleanup path
                    p.terminate()
            wall_total = time.perf_counter() - t_run0
            trace_path = None
            if parent_tracer is not None:
                parent_tracer.span(parent_tracer.tid("phases"), "phase",
                                   "run", launch_us,
                                   parent_tracer.wall_us() - launch_us)
                trace_path = self._merge_traces(trace_dir, parent_tracer)
            timeline_rel = None
            if collector is not None or audit_collector is not None:
                # children are joined: their queue feeders have flushed, so
                # one more drain picks up the forced final beats
                self._drain_telemetry(telemetry_q, aggregator, monitor,
                                      False, collector, audit_collector)
            if collector is not None:
                collector.save(timeline_path)
                timeline_rel = self._report_rel(timeline_path, report_path)
            audit_rel = None
            if audit_collector is not None:
                audit_collector.save(audit_path)
                audit_rel = self._report_rel(audit_path, report_path)
            if report_path is not None:
                from ..obs.telemetry import (build_run_report,
                                             write_run_report)
                write_run_report(report_path, build_run_report(
                    until_ps, wall_total, results, aggregator,
                    trace=trace_path,
                    health=monitor.report() if monitor else None,
                    timeline=timeline_rel, audit=audit_rel))
            if timed_out:
                missing = sorted(set(names) - set(results))
                raise TimeoutError(
                    "simulation processes did not finish: "
                    f"no result from {missing}")
            errors = {n: r.error for n, r in results.items() if r.error}
            if errors:
                raise RuntimeError(f"component failures: {errors}")
            return results
        finally:
            if control is not None:
                control.close()
            for ring in rings:
                # close/unlink are idempotent and must not mask each other:
                # every segment gets its unlink attempt even if an earlier
                # ring's close misbehaves
                try:
                    ring.close()
                finally:
                    ring.unlink()

    @staticmethod
    def _report_rel(path: str, report_path: Optional[str]) -> str:
        """Path as referenced from the run report (relative when possible)."""
        if report_path is None:
            return path
        try:
            return os.path.relpath(path, os.path.dirname(report_path) or ".")
        except ValueError:  # pragma: no cover - cross-drive
            return path

    def _drain_telemetry(self, telemetry_q, aggregator, monitor,
                         progress: bool, collector=None,
                         audit_collector=None) -> None:
        """Consume pending heartbeats; watchdog pass; refresh status line."""
        if telemetry_q is None:
            return
        noted = False
        while True:
            try:
                hb = telemetry_q.get_nowait()
            except Empty:
                break
            aggregator.note(hb)
            if collector is not None:
                collector.note(hb)
            if audit_collector is not None:
                audit_collector.note(hb)
            noted = True
        if monitor is not None:
            monitor.observe(aggregator)
        if progress and noted:
            line = aggregator.status_line(
                stale_after_s=monitor.stale_after_s if monitor else None)
            if monitor is not None:
                line += monitor.badge()
            sys.stderr.write("\r\x1b[K" + line)
            sys.stderr.flush()

    def _merge_traces(self, trace_dir: str, parent_tracer) -> str:
        """Merge per-child JSONL traces + runner phases into trace.json."""
        from ..obs.trace import merge_trace_jsonl
        return merge_trace_jsonl(trace_dir, [s.name for s in self.specs],
                                 parent_tracer=parent_tracer)
