"""Fast-mode vs strict-sync-mode equivalence and coordinator behaviour."""

import pytest

from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import NS, US
from repro.parallel.simulation import DeadlockError, Simulation


class Pinger(Component):
    """Ping-pong component used across mode-equivalence tests."""

    def __init__(self, name, initiator=False, latency=500 * NS, limit=20):
        super().__init__(name)
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=latency), self.on_msg)
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


def run_pingpong(mode):
    sim = Simulation(mode=mode)
    a = sim.add(Pinger("a", initiator=True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    stats = sim.run(100 * US)
    return (a.log, b.log), stats


def test_modes_produce_identical_event_timelines():
    fast, _ = run_pingpong("fast")
    strict, _ = run_pingpong("strict")
    assert fast == strict


def test_fast_mode_event_count():
    (_, blog), stats = run_pingpong("fast")
    assert blog[0] == (500 * NS, 0)
    assert stats.events > 0
    assert stats.per_component_events["a"] == stats.per_component_events["b"]


def test_strict_mode_exchanges_syncs():
    sim = Simulation(mode="strict")
    a = sim.add(Pinger("a", initiator=True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    sim.run(50 * US)
    assert a.end.tx_syncs > 0
    assert b.end.rx_syncs > 0


def test_strict_mode_counts_waits():
    sim = Simulation(mode="strict")
    a = sim.add(Pinger("a", initiator=True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    sim.run(50 * US)
    assert a.end.wait_polls + b.end.wait_polls > 0


class RecordingObserver:
    """Round observer that logs every protocol call."""

    def __init__(self):
        self.calls = []

    def start(self, until_ps):
        self.calls.append(("start", until_ps))

    def on_round(self, rounds, done):
        self.calls.append(("round", rounds, done))

    def finish(self):
        self.calls.append(("finish",))


def _observed_pingpong(mode, until_ps=50 * US):
    sim = Simulation(mode=mode)
    a = sim.add(Pinger("a", initiator=True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    observer = RecordingObserver()
    sim.observers.append(observer)
    return observer, sim.run(until_ps)


def test_strict_observer_sees_start_every_round_then_finish():
    observer, stats = _observed_pingpong("strict")
    assert stats.rounds > 1
    calls = observer.calls
    assert calls[0] == ("start", 50 * US)
    assert calls[1:-1] == [("round", r, r == stats.rounds)
                           for r in range(1, stats.rounds + 1)]
    assert calls[-1] == ("finish",)


def test_fast_observer_sees_only_start_and_finish():
    observer, stats = _observed_pingpong("fast")
    assert stats.events > 0
    assert observer.calls == [("start", 50 * US), ("finish",)]


def test_duplicate_component_name_rejected():
    sim = Simulation()
    sim.add(Component("x"))
    with pytest.raises(ValueError):
        sim.add(Component("x"))


def test_connect_requires_attached_ends():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.connect(ChannelEnd("a", 1), ChannelEnd("b", 1))


def test_simulation_single_use():
    sim = Simulation()
    sim.add(Component("x"))
    sim.run(1 * US)
    with pytest.raises(RuntimeError):
        sim.run(2 * US)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Simulation(mode="warp")


def test_component_lookup():
    sim = Simulation()
    c = sim.add(Component("x"))
    assert sim.component("x") is c
    with pytest.raises(KeyError):
        sim.component("y")


def test_work_recorder_attached_to_all_components():
    sim = Simulation(work_window_ps=1 * US)
    a = sim.add(Pinger("a", initiator=True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    sim.run(50 * US)
    assert sim.recorder.total_work("a") > 0
    assert sim.recorder.total_work("b") > 0
    # message flow recorded with component names
    assert ("a", "b") in sim.recorder.msgs


def test_idle_simulation_completes():
    sim = Simulation(mode="strict")
    a = sim.add(Pinger("a"))  # nobody initiates
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    stats = sim.run(10 * US)
    assert stats.events == 0
    assert a.now == 10 * US
