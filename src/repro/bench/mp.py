"""Multiprocess transport benchmarks and determinism helpers.

Two benchmark tiers back the ``splitsim-bench mp`` family:

* **Ring microbenchmarks** — raw messages/sec through one
  :class:`~repro.parallel.shm_ring.ShmRing` in a single process, comparing
  the seed transport (pickle per message, one cursor publish per message)
  against the batched wire-codec fast path (struct frames, one cursor
  publish per batch).
* **End-to-end runs** — a token-pipeline topology under the real
  :class:`~repro.parallel.procrunner.ProcessRunner` at 2/4/8 processes,
  batched vs the unbatched pickle baseline, measured in events/sec.

The pipeline topology (:func:`pipeline_specs`) doubles as the determinism
fixture: :func:`inproc_strict_digests` and :func:`mp_digests` run the same
model in-process (strict coordinator) and as real OS processes and return
per-component event-timeline SHA-256 digests, which must be identical —
with the wire codec on or off.  Token injections are staggered by a prime
offset so no two events of one component ever share a timestamp; the
digests are therefore exact, not merely statistically stable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..channels import wire
from ..channels.channel import (ChannelEnd, set_transport_batching,
                                transport_batching)
from ..channels.messages import MmioMsg, RawMsg
from ..kernel.component import Component
from ..kernel.simtime import NS, US
from ..obs.audit import DEFAULT_WINDOW_PS, AuditRecorder
from ..parallel.procrunner import ProcChannel, ProcSpec, ProcessRunner
from ..parallel.shm_ring import ShmRing
from ..parallel.simulation import Simulation

#: Pipeline channel latency / per-stage forwarding delay.
LATENCY_PS = 500 * NS
HOP_PS = 100 * NS
#: Prime injection stagger: keeps every event timestamp of every component
#: unique (7 does not divide the 100ns/500ns delay lattice).
STAGGER_PS = 7 * NS
#: Tokens circulating the pipeline (pipeline depth > 1 keeps stages busy).
TOKENS = 4


class RingForwarder(Component):
    """One stage of a unidirectional token pipeline (ring topology).

    Stage ``i`` receives on its ``prev`` end (channel from stage ``i-1``)
    and forwards each token to stage ``i+1`` after a fixed hop delay.
    Stage 0 injects the tokens at staggered start times.
    """

    def __init__(self, name: str, index: int, n: int,
                 tokens: int = TOKENS) -> None:
        super().__init__(name)
        self.tokens = tokens if index == 0 else 0
        self.prev = self.attach_end(
            ChannelEnd(f"{name}.prev", latency=LATENCY_PS), self.on_msg)
        self.next = self.attach_end(
            ChannelEnd(f"{name}.next", latency=LATENCY_PS), self.on_msg)
        self.received = 0

    def start(self) -> None:
        for k in range(self.tokens):
            self.call_after(k * STAGGER_PS, self._fire, k)

    def _fire(self, token: int) -> None:
        self.next.send(RawMsg(payload=token), self.now)

    def on_msg(self, msg) -> None:
        self.received += 1
        self.call_after(HOP_PS, self._fire, msg.payload)

    def collect_outputs(self) -> dict:
        return {"received": self.received}


def make_forwarder(name: str, index: int, n: int,
                   tokens: int = TOKENS) -> RingForwarder:
    """Picklable factory for :class:`ProcSpec`."""
    return RingForwarder(name, index, n, tokens)


def pipeline_specs(n: int, tokens: int = TOKENS
                   ) -> Tuple[List[ProcSpec], List[ProcChannel]]:
    """Specs + channels for an ``n``-stage token pipeline (one proc each)."""
    if n < 2:
        raise ValueError("pipeline needs at least 2 stages")
    specs = [ProcSpec(f"s{i}", make_forwarder, (f"s{i}", i, n, tokens))
             for i in range(n)]
    channels = [ProcChannel(f"s{i}", f"s{i}.next",
                            f"s{(i + 1) % n}", f"s{(i + 1) % n}.prev")
                for i in range(n)]
    return specs, channels


def _build_inproc(n: int, tokens: int) -> Tuple[Simulation, list]:
    sim = Simulation(mode="strict")
    comps = [sim.add(RingForwarder(f"s{i}", i, n, tokens)) for i in range(n)]
    for i in range(n):
        sim.connect(comps[i].next, comps[(i + 1) % n].prev)
    return sim, comps


def _run_inproc_audited(n: int, until_ps: int, tokens: int,
                        window_ps: int) -> AuditRecorder:
    sim, comps = _build_inproc(n, tokens)
    recorder = AuditRecorder(comps, window_ps=window_ps)
    sim.observers.append(recorder)
    sim.run(until_ps)
    return recorder


def inproc_strict_digests(n: int, until_ps: int,
                          tokens: int = TOKENS) -> Dict[str, str]:
    """Per-component timeline digests of the strict in-process run."""
    recorder = _run_inproc_audited(n, until_ps, tokens, DEFAULT_WINDOW_PS)
    return {name: auditor.timeline_digest()
            for name, auditor in recorder.auditors.items()}


def mp_digests(n: int, until_ps: int, tokens: int = TOKENS,
               timeout_s: float = 120.0) -> Dict[str, str]:
    """Per-component timeline digests of the real multiprocess run."""
    specs, channels = pipeline_specs(n, tokens)
    results = ProcessRunner(specs, channels).run(
        until_ps, timeout_s=timeout_s, digest=True)
    return {name: res.timeline_digest for name, res in results.items()}


#: Audit epoch width for the pipeline determinism fixture (the 50 us
#: smoke run then spans ten windows).
AUDIT_WINDOW_PS = 5 * US


def inproc_audit_ledger(n: int, until_ps: int, tokens: int = TOKENS,
                        window_ps: int = AUDIT_WINDOW_PS):
    """Audit ledger of the strict in-process pipeline run."""
    recorder = _run_inproc_audited(n, until_ps, tokens, window_ps)
    return recorder.to_ledger(mode="strict")


def mp_audit_ledger(n: int, until_ps: int, tokens: int = TOKENS,
                    window_ps: int = AUDIT_WINDOW_PS,
                    timeout_s: float = 120.0, tmpdir: str = "."):
    """Audit ledger of the real multiprocess pipeline run."""
    import os

    from ..obs.audit import load_audit
    specs, channels = pipeline_specs(n, tokens)
    path = os.path.join(tmpdir, "audit.jsonl")
    ProcessRunner(specs, channels).run(
        until_ps, timeout_s=timeout_s, audit_path=path,
        audit_window_ps=window_ps)
    return load_audit(path)


# -- bench workload factories ------------------------------------------------

#: Messages per send_batch in the ring microbenchmark.
RING_BATCH = 64


def ring_workload(n_msgs: int, batched: bool):
    """Workload factory: ``n_msgs`` MMIO messages through one shm ring.

    ``batched=False`` reproduces the seed transport exactly: pickle per
    message and one cursor publish per message.  ``batched=True`` is the
    wire-codec fast path with ``RING_BATCH`` frames per cursor publish.
    """
    def workload():
        msgs = [MmioMsg(stamp=i, addr=0x1000 + 8 * i, value=i,
                        is_write=bool(i & 1), req_id=i)
                for i in range(RING_BATCH)]
        rounds = max(1, n_msgs // RING_BATCH)
        total = rounds * RING_BATCH
        state = {"frames_per_batch": RING_BATCH if batched else 1}

        def run():
            was_codec = wire.codec_enabled()
            wire.set_codec_enabled(batched)
            try:
                with ShmRing.create(1 << 20) as ring:
                    if batched:
                        for _ in range(rounds):
                            sent = ring.send_batch(msgs)
                            assert sent == RING_BATCH
                            ring.recv_batch()
                    else:
                        for i in range(total):
                            ring.push(msgs[i % RING_BATCH])
                            ring.pop()
                    state["bytes_out"] = ring.bytes_out
            finally:
                wire.set_codec_enabled(was_codec)
            state["events"] = total
            state["messages"] = total

        return run, lambda: dict(state)
    return workload


def mp_events_workload(n_procs: int, until_ps: int, batch: bool,
                       codec: bool = True, timeout_s: float = 300.0):
    """Workload factory: end-to-end pipeline run under ProcessRunner.

    ``batch=False, codec=False`` is the seed baseline (pickle per message,
    per-message cursor publishes, per-interval SyncMsg allocation).
    """
    def workload():
        state: Dict[str, float] = {}

        def run():
            was_batch = transport_batching()
            was_codec = wire.codec_enabled()
            set_transport_batching(batch)
            wire.set_codec_enabled(codec)
            try:
                specs, channels = pipeline_specs(n_procs)
                results = ProcessRunner(specs, channels).run(
                    until_ps, timeout_s=timeout_s)
            finally:
                set_transport_batching(was_batch)
                wire.set_codec_enabled(was_codec)
            state["events"] = sum(r.events for r in results.values())
            state["messages"] = sum(
                c["tx_msgs"] for r in results.values()
                for c in r.end_counters.values())
            state["syncs"] = sum(
                c["tx_syncs"] for r in results.values()
                for c in r.end_counters.values())
            fpb = [r.transport.get("frames_per_batch", 0.0)
                   for r in results.values() if r.transport]
            if fpb:
                state["frames_per_batch"] = round(sum(fpb) / len(fpb), 2)

        return run, lambda: dict(state)
    return workload
