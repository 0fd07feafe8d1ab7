"""Epoch-resolved metrics timeline: schema, phases, and determinism."""

import json

import pytest

from repro.bench.mp import RingForwarder, pipeline_specs
from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.timeline import (EpochRow, ROW_COLUMNS, TIMELINE_KIND,
                                TIMELINE_SCHEMA, TimelineRecorder,
                                detect_phases, load_timeline,
                                resolve_timeline_path, save_timeline)
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System
from repro.obs.audit import timeline_digest
from repro.parallel.procrunner import ProcessRunner
from repro.parallel.simulation import Simulation

GBPS = 1e9
UNTIL_PS = 100 * US


def kv_system():
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system


def make_row(comp="a", epoch=0, **kw):
    defaults = dict(sim_ps=1000 * epoch, wall_s=0.1 * (epoch + 1),
                    events=10, work_cycles=500.0, wait_cycles=100.0,
                    comm_cycles=50.0, events_per_sec=100.0)
    defaults.update(kw)
    return EpochRow(comp=comp, epoch=epoch, **defaults)


# -- phase detection ----------------------------------------------------------

def test_detect_phases_short_series_is_all_steady():
    assert detect_phases([]) == (0, 0)
    assert detect_phases([1.0, 2.0, 3.0]) == (0, 3)


def test_detect_phases_all_idle_is_all_steady():
    assert detect_phases([0.0] * 6) == (0, 6)


def test_detect_phases_trims_warmup_and_drain():
    # idle head and tail around a busy middle
    activity = [0.0, 0.0, 10.0, 12.0, 11.0, 0.0]
    lo, hi = detect_phases(activity)
    assert (lo, hi) == (2, 5)


# -- row arithmetic -----------------------------------------------------------

def test_epoch_row_wait_fraction_and_accounting():
    row = make_row(work_cycles=600.0, wait_cycles=300.0, comm_cycles=100.0)
    assert row.accounted_cycles == 1000.0
    assert row.wait_fraction == pytest.approx(0.3)
    idle = make_row(work_cycles=0.0, wait_cycles=0.0, comm_cycles=0.0)
    assert idle.wait_fraction == 0.0


# -- persistence round trip ---------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rows = [
        make_row("a", 0, edges={"b": (5, 2)}, counters={"tx_packets": 7.0}),
        make_row("b", 0, ring_fill=0.25),
        make_row("a", 1, edges={"b": (3, 1)}),
    ]
    path = tmp_path / "timeline.jsonl"
    header = save_timeline(str(path), rows, mode="strict",
                           until_ps=UNTIL_PS, components=["a", "b"],
                           meta={"note": "x"})
    assert header["schema"] == TIMELINE_SCHEMA
    assert header["kind"] == TIMELINE_KIND
    assert header["columns"] == list(ROW_COLUMNS)

    tl = load_timeline(str(path))
    assert tl.mode == "strict"
    assert tl.until_ps == UNTIL_PS
    assert tl.components == ["a", "b"]
    assert tl.meta == {"note": "x"}
    assert len(tl.rows) == 3
    by = tl.by_component()
    assert [r.epoch for r in by["a"]] == [0, 1]
    assert by["a"][0].edges == {"b": (5, 2)}
    assert by["a"][0].counters == {"tx_packets": 7.0}
    assert by["a"][1].edges == {"b": (3, 1)}
    assert by["b"][0].ring_fill == 0.25
    assert by["a"][0].events == 10
    assert by["a"][0].work_cycles == 500.0


def test_resolve_timeline_path_maps_directories(tmp_path):
    assert resolve_timeline_path(str(tmp_path)) == \
        str(tmp_path / "timeline.jsonl")
    f = tmp_path / "other.jsonl"
    f.write_text("")
    assert resolve_timeline_path(str(f)) == str(f)


def test_load_rejects_malformed_documents(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_timeline(str(empty))

    bad_header = tmp_path / "bad.jsonl"
    bad_header.write_text("{not json\n")
    with pytest.raises(ValueError, match="header"):
        load_timeline(str(bad_header))

    wrong_kind = tmp_path / "kind.jsonl"
    wrong_kind.write_text(json.dumps({"kind": "something-else"}) + "\n")
    with pytest.raises(ValueError, match="not a timeline"):
        load_timeline(str(wrong_kind))

    path = tmp_path / "row.jsonl"
    header = save_timeline(str(path), [make_row()], mode="strict",
                           until_ps=1, components=["a"])
    assert header["dropped"] == 0
    with open(path, "a") as fh:
        fh.write('{"c": 99, "r": []}\n')
    with pytest.raises(ValueError, match=r"row\.jsonl:3"):
        load_timeline(str(path))

    with pytest.raises(OSError):
        load_timeline(str(tmp_path / "missing.jsonl"))


def test_recorder_bounds_rows_and_counts_drops(tmp_path):
    sim, comps = _pipeline_sim(2)
    rec = TimelineRecorder(comps, interval_rounds=1, max_rows=4)
    sim.observers.append(rec)
    sim._run_strict(UNTIL_PS)
    assert len(rec.rows) == 4
    assert rec.dropped > 0
    header = rec.save(str(tmp_path / "t.jsonl"))
    assert header["dropped"] == rec.dropped


# -- strict in-process sampling ----------------------------------------------

def _pipeline_sim(n):
    sim = Simulation(mode="strict")
    comps = [sim.add(RingForwarder(f"s{i}", i, n)) for i in range(n)]
    for i in range(n):
        sim.connect(comps[i].next, comps[(i + 1) % n].prev)
    sim._wire()
    return sim, comps


def _strict_digests(with_timeline):
    sim, comps = _pipeline_sim(3)
    timelines = {c.name: [] for c in comps}
    for c in comps:
        c.queue.trace = (lambda owner, ts, tl=timelines[c.name]:
                         tl.append(ts))
    rec = None
    if with_timeline:
        rec = TimelineRecorder(comps, interval_rounds=4)
        sim.observers.append(rec)
    sim._run_strict(UNTIL_PS)
    digests = {name: timeline_digest(name, tl)
               for name, tl in timelines.items()}
    return digests, rec, comps


def test_strict_recorder_rows_account_for_all_events():
    _, rec, comps = _strict_digests(True)
    assert rec.rows
    for comp in comps:
        total = sum(r.events for r in rec.rows if r.comp == comp.name)
        assert total == comp.events_processed
    # all components share the coordinator's epoch counter
    epochs = {r.comp: [] for r in rec.rows}
    for r in rec.rows:
        epochs[r.comp].append(r.epoch)
    assert len({tuple(e) for e in epochs.values()}) == 1


def test_strict_digest_identical_with_timeline_on_and_off():
    base, _, _ = _strict_digests(False)
    timed, rec, _ = _strict_digests(True)
    assert rec.rows
    assert timed == base


# -- multiprocess sampling ----------------------------------------------------

@pytest.mark.slow
def test_mp_digest_identical_with_timeline_on_and_off(tmp_path):
    specs, channels = pipeline_specs(3)
    base = ProcessRunner(specs, channels).run(UNTIL_PS, timeout_s=120,
                                              digest=True)
    base_digests = {n: r.timeline_digest for n, r in base.items()}

    path = tmp_path / "timeline.jsonl"
    specs, channels = pipeline_specs(3)
    timed = ProcessRunner(specs, channels).run(UNTIL_PS, timeout_s=120,
                                               digest=True,
                                               timeline_path=str(path))
    assert {n: r.timeline_digest for n, r in timed.items()} == base_digests

    tl = load_timeline(str(path))
    assert tl.mode == "mp"
    assert set(tl.components) == set(base)
    for name, res in timed.items():
        total = sum(r.events for r in tl.by_component()[name])
        assert total == res.events


@pytest.mark.slow
def test_run_mp_report_references_timeline(tmp_path):
    from repro.obs.telemetry import RUN_REPORT_SCHEMA

    exp = Instantiation(kv_system()).build()
    report_path = tmp_path / "run_report.json"
    results = exp.run_mp(2 * MS, timeout_s=120,
                         report_path=str(report_path),
                         timeline_path=str(tmp_path / "timeline.jsonl"))
    report = json.loads(report_path.read_text())
    assert report["schema"] == RUN_REPORT_SCHEMA
    assert report["timeline"] == "timeline.jsonl"

    tl = load_timeline(str(tmp_path / "timeline.jsonl"))
    assert set(tl.components) == set(results)
    for name, res in results.items():
        total = sum(r.events for r in tl.by_component()[name])
        assert total == res.events


@pytest.mark.slow
def test_mp_child_crash_flushes_partial_timeline(tmp_path):
    # a child that dies before its forced final beat must not take the
    # whole timeline with it: rows piggybacked on earlier heartbeats are
    # kept, the run report is still written (health: failed), and the
    # inspect CLI renders the partial document
    from repro.obs.telemetry import HEALTH_FAILED

    from .test_audit import make_crashing

    specs, channels = pipeline_specs(2)
    specs[1].factory = make_crashing
    tl_path = tmp_path / "timeline.jsonl"
    report_path = tmp_path / "run_report.json"
    with pytest.raises((RuntimeError, TimeoutError)):
        ProcessRunner(specs, channels).run(
            UNTIL_PS, timeout_s=3.0, hb_interval_s=0.0,
            timeline_path=str(tl_path), report_path=str(report_path))

    report = json.loads(report_path.read_text())
    states = report["health"]["components"]
    assert HEALTH_FAILED in states.values()
    assert report["health"]["degraded"]
    assert report["timeline"] == "timeline.jsonl"

    tl = load_timeline(str(tl_path))
    assert tl.rows  # partial rows survived the crash
    assert {r.comp for r in tl.rows} <= {"s0", "s1"}

    from repro.obs.inspect_cli import main as inspect_main
    assert inspect_main(["timeline", str(tmp_path)]) == 0


# -- experiment integration ---------------------------------------------------

def test_instantiation_timeline_forces_strict_and_records():
    exp = Instantiation(kv_system(), timeline=True,
                        timeline_interval_rounds=8).build()
    assert exp.sim.mode == "strict"
    exp.run(1 * MS)
    assert exp.timeline is not None and exp.timeline.rows
    names = {r.comp for r in exp.timeline.rows}
    assert names == {c.name for c in exp.sim.components}


def test_enable_timeline_requires_strict_mode():
    exp = Instantiation(kv_system(), mode="fast").build()
    with pytest.raises(RuntimeError, match="strict"):
        exp.enable_timeline()


def test_save_timeline_without_recorder_raises():
    exp = Instantiation(kv_system()).build()
    with pytest.raises(RuntimeError):
        exp.save_timeline("nowhere.jsonl")
