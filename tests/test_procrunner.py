"""Integration tests for the real multi-process runtime."""

import hashlib

import pytest

from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import MS, NS, US
from repro.parallel.procrunner import ProcChannel, ProcSpec, ProcessRunner
from repro.parallel.simulation import Simulation


class Pinger(Component):
    def __init__(self, name, initiator=False, limit=30):
        super().__init__(name)
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=500 * NS), self.on_msg)
        self.initiator = initiator
        self.limit = limit
        self.log = []

    def start(self):
        if self.initiator:
            self.call_after(0, self.fire, 0)

    def fire(self, i):
        self.end.send(RawMsg(payload=i), self.now)

    def on_msg(self, msg):
        self.log.append((self.now, msg.payload))
        if msg.payload < self.limit:
            self.call_after(100 * NS, self.fire, msg.payload + 1)

    def collect_outputs(self):
        return {"log": self.log}


def make_pinger(name, initiator=False):
    return Pinger(name, initiator)


class Broken(Component):
    def start(self):
        raise RuntimeError("boom")


def make_broken(name):
    return Broken(name)


@pytest.mark.slow
def test_mp_matches_inproc():
    runner = ProcessRunner(
        [ProcSpec("a", make_pinger, ("a", True)),
         ProcSpec("b", make_pinger, ("b",))],
        [ProcChannel("a", "a.e", "b", "b.e")],
    )
    results = runner.run(until_ps=1 * MS, timeout_s=60)

    sim = Simulation(mode="fast")
    a = sim.add(Pinger("a", True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    sim.run(1 * MS)

    assert results["a"].outputs["log"] == a.log
    assert results["b"].outputs["log"] == b.log
    assert results["a"].events == a.events_processed


@pytest.mark.slow
def test_mp_reports_counters_and_waits():
    runner = ProcessRunner(
        [ProcSpec("a", make_pinger, ("a", True)),
         ProcSpec("b", make_pinger, ("b",))],
        [ProcChannel("a", "a.e", "b", "b.e")],
    )
    results = runner.run(until_ps=500 * US, timeout_s=60)
    ca = results["a"].end_counters["a.e"]
    assert ca["tx_msgs"] > 0
    assert ca["tx_syncs"] > 0
    assert results["a"].wall_seconds > 0


def test_digest_of_component_without_events():
    """A child that executes no event still reports ``sha256("name:;")``."""
    from repro.bench.mp import pipeline_specs
    specs, channels = pipeline_specs(2, tokens=0)
    results = ProcessRunner(specs, channels).run(10 * US, digest=True)
    for name, res in results.items():
        assert res.events == 0
        assert res.timeline_digest == hashlib.sha256(
            f"{name}:;".encode()).hexdigest()
        assert res.audit is None  # digest alone records no ledger


def test_duplicate_names_rejected():
    spec = ProcSpec("a", make_pinger, ("a",))
    with pytest.raises(ValueError):
        ProcessRunner([spec, spec], [])


@pytest.mark.slow
def test_child_error_propagates():
    runner = ProcessRunner([ProcSpec("bad", make_broken, ("bad",))], [])
    with pytest.raises(RuntimeError, match="boom"):
        runner.run(until_ps=1 * US, timeout_s=30)
