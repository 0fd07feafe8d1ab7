"""Tests for profiler records, post-processing, and the WTPG."""

import pytest

from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.kernel.component import Component, WorkRecorder
from repro.kernel.simtime import NS, SEC, US
from repro.parallel.model import ModelChannel, ParallelExecutionModel
from repro.parallel.simulation import Simulation
from repro.profiler.instrument import (StrictModeSampler, log_from_model,
                                       sample_component)
from repro.profiler.postprocess import analyze
from repro.profiler.records import AdapterRecord, ProfileLog
from repro.profiler.wtpg import (bottleneck_nodes, build_wtpg, to_dot,
                                 to_text)


def make_record(comp="c", adapter="c.e", tsc=0.0, sim=0, wait=0.0, work=0.0):
    return AdapterRecord(comp=comp, adapter=adapter, peer="p", tsc_ns=tsc,
                         sim_ps=sim, wait_cycles=wait, work_cycles=work)


def test_record_json_roundtrip(tmp_path):
    log = ProfileLog()
    log.append(make_record(tsc=1.5, sim=10, wait=3.0))
    log.append(make_record(comp="d", tsc=2.5))
    path = tmp_path / "profile.jsonl"
    log.save(path)
    loaded = ProfileLog.load(path)
    assert len(loaded) == 2
    assert loaded.records[0] == log.records[0]
    assert loaded.components() == ["c", "d"]
    assert loaded.adapters_of("c") == ["c.e"]


def test_analyze_differences_counters():
    log = ProfileLog()
    log.append(make_record(tsc=0.0, sim=0, wait=0.0, work=0.0))
    log.append(make_record(tsc=1e9, sim=int(0.5e12), wait=2.4e8, work=1.2e9))
    analysis = analyze(log)
    # 0.5 simulated seconds in 1 wall second
    assert analysis.sim_speed == pytest.approx(0.5)
    cm = analysis.components["c"]
    assert cm.wait_cycles == pytest.approx(2.4e8)
    assert cm.work_cycles == pytest.approx(1.2e9)
    assert 0 < cm.efficiency < 1


def test_analyze_trims_warmup_records():
    log = ProfileLog()
    # warm-up record with garbage counters, then two clean ones
    log.append(make_record(tsc=0.0, sim=0, wait=999.0))
    log.append(make_record(tsc=1.0, sim=100, wait=1000.0))
    log.append(make_record(tsc=2.0, sim=200, wait=1001.0))
    with_warm = analyze(log, drop_head=0)
    trimmed = analyze(log, drop_head=1)
    assert trimmed.components["c"].wait_cycles == pytest.approx(1.0)
    assert with_warm.components["c"].wait_cycles == pytest.approx(2.0)


def test_sampler_collects_from_live_components():
    sim = Simulation(mode="strict")

    class Echo(Component):
        def __init__(self, name, initiator=False):
            super().__init__(name)
            self.end = self.attach_end(
                ChannelEnd(f"{name}.e", latency=500 * NS), self.on_msg)
            self.initiator = initiator

        def start(self):
            if self.initiator:
                self.call_after(0, lambda: self.end.send(RawMsg(payload=0),
                                                         self.now))

        def on_msg(self, msg):
            if msg.payload < 10:
                self.call_after(
                    100 * NS,
                    lambda p=msg.payload: self.end.send(RawMsg(payload=p + 1),
                                                        self.now))

    a = sim.add(Echo("a", True))
    b = sim.add(Echo("b"))
    sim.connect(a.end, b.end)
    sampler = StrictModeSampler([a, b], interval=1)
    sampler.sample()
    sim.run(20 * US)
    sampler.sample()
    analysis = analyze(sampler.log)
    assert set(analysis.components) == {"a", "b"}
    assert analysis.sim_seconds > 0


def test_log_from_model_feeds_postprocess():
    rec = WorkRecorder(1 * US)
    for w in range(50):
        rec.note_work("slow", w * US, 50_000)
        rec.note_work("fast", w * US, 1_000)
    model = ParallelExecutionModel(rec, 50 * US,
                                   [ModelChannel("slow", "fast", 500 * NS)])
    result = model.run("splitsim")
    analysis = analyze(log_from_model(result))
    assert analysis.components["fast"].wait_fraction > \
        analysis.components["slow"].wait_fraction
    assert analysis.bottlenecks(1) == ["slow"]


def test_wtpg_structure_and_colors():
    rec = WorkRecorder(1 * US)
    for w in range(50):
        rec.note_work("slow", w * US, 50_000)
        rec.note_work("fast", w * US, 1_000)
    model = ParallelExecutionModel(rec, 50 * US,
                                   [ModelChannel("slow", "fast", 500 * NS)])
    analysis = analyze(log_from_model(model.run("splitsim")))
    graph = build_wtpg(analysis)
    assert set(graph.nodes) >= {"slow", "fast"}
    # bottleneck (low wait) is red-ish: high red channel
    slow_color = graph.nodes["slow"]["color"]
    assert int(slow_color[1:3], 16) > 200
    assert "slow" in bottleneck_nodes(graph)
    assert "fast" not in bottleneck_nodes(graph, threshold=0.2)


def test_wtpg_renders_dot_and_text():
    log = ProfileLog()
    log.append(make_record(tsc=0.0))
    log.append(make_record(tsc=1e9, sim=SEC // 100, wait=100.0, work=1000.0))
    graph = build_wtpg(analyze(log))
    dot = to_dot(graph, title="test")
    assert dot.startswith("digraph wtpg {")
    assert '"c"' in dot
    text = to_text(graph, title="test")
    assert "c" in text


def test_sample_component_snapshots_counters():
    comp = Component("x")
    end = comp.attach_end(ChannelEnd("x.e", latency=1 * NS), lambda m: None)
    end.tx_msgs = 5
    log = ProfileLog()
    sample_component(comp, log, tsc_ns=123.0)
    assert len(log) == 1
    rec = log.records[0]
    assert rec.tx_msgs == 5
    assert rec.tsc_ns == 123.0


# -- StrictModeSampler edge cases ---------------------------------------------

def _one_end_component(name="x"):
    comp = Component(name)
    comp.attach_end(ChannelEnd(f"{name}.e", latency=1 * NS), lambda m: None)
    return comp


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        StrictModeSampler([], interval=0)
    with pytest.raises(ValueError):
        StrictModeSampler([], interval=-5)


def test_sampler_interval_one_samples_every_tick():
    comp = _one_end_component()
    sampler = StrictModeSampler([comp], interval=1)
    for _ in range(7):
        sampler.on_round(_ + 1, False)
    # one record per adapter per tick
    assert len(sampler.log) == 7


def test_sampler_interval_skips_between_samples():
    comp = _one_end_component()
    sampler = StrictModeSampler([comp], interval=10)
    for _ in range(9):
        sampler.on_round(_ + 1, False)
    assert len(sampler.log) == 0
    sampler.on_round(10, False)
    assert len(sampler.log) == 1


def test_sampler_with_no_components_is_a_noop():
    sampler = StrictModeSampler([], interval=1)
    for _ in range(100):
        sampler.on_round(_ + 1, False)
    sampler.sample()
    assert len(sampler.log) == 0
    assert sampler.log.components() == []


def test_sampler_snapshot_overhead_is_bounded():
    """A snapshot is append-only bookkeeping; pin it well under 1 ms/comp.

    Uses the bench harness micro-timer so the measurement style matches
    the committed perf baselines (best-of-N, fresh state per repeat).
    """
    from repro.bench.harness import measure

    comps = [_one_end_component(f"c{i}") for i in range(10)]

    def workload():
        sampler = StrictModeSampler(comps, interval=1)

        def run():
            for _ in range(100):
                sampler.sample()

        return run, lambda: {"events": len(sampler.log)}

    result = measure("sampler-overhead", {"comps": 10}, workload,
                     repeat=3, trace_alloc=False)
    assert result.events == 10 * 100
    # generous bound: 1000 snapshots of 10 one-end components in < 1 s
    assert result.wall_seconds < 1.0
