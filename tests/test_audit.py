"""Divergence auditor: per-epoch digest ledger, golden root, cross-run diff.

The ledger's root must be the determinism guard's golden fold bit for bit —
with auditing on or off, in fast mode, strict in-process, and real
multiprocess runs — and a single perturbed event must be localized to
exactly its (epoch, component) window.
"""

import json

import pytest

from repro.bench.mp import (AUDIT_WINDOW_PS, RingForwarder,
                            inproc_audit_ledger, mp_audit_ledger,
                            pipeline_specs)
from repro.bench.workloads import build_mixed_system
from repro.kernel.simtime import US
from repro.obs.audit import (AUDIT_FILE, AUDIT_KIND, AUDIT_SCHEMA,
                             AuditRecorder, ComponentAuditor,
                             DIFF_DIVERGED, DIFF_IDENTICAL,
                             DIFF_INCOMPARABLE, chunk_digest, diff_ledgers,
                             fold_root, load_audit, resolve_audit_path,
                             timeline_digest)
from repro.orchestration.instantiate import Instantiation
from repro.parallel.procrunner import ProcessRunner
from repro.parallel.simulation import Simulation

from .test_determinism_guard import DURATION, GOLDEN_DIGEST

UNTIL_PS = 50 * US
WINDOW = AUDIT_WINDOW_PS  # 5 us: the 50 us pipeline run spans ten windows


# -- ComponentAuditor unit behaviour ------------------------------------------

def _fed(timestamps, window_ps=10, flush_every=None):
    """An auditor fed ``timestamps``, optionally flushing mid-stream."""
    a = ComponentAuditor("c", window_ps)
    for i, ts in enumerate(timestamps, start=1):
        a.buf.append(ts)
        if flush_every and not i % flush_every:
            a.flush_closed()
    a.finalize()
    return a


def test_windows_are_fixed_simtime_intervals():
    a = _fed([1, 2, 11, 25])
    assert [(r.epoch, r.n, r.t0, r.t1) for r in a.rows] == \
        [(0, 2, 1, 2), (1, 1, 11, 11), (2, 1, 25, 25)]


def test_boundary_event_belongs_to_next_window():
    # window e covers [e*W, (e+1)*W): ts == 10 is epoch 1, not epoch 0
    a = _fed([9, 10])
    assert [(r.epoch, r.n) for r in a.rows] == [(0, 1), (1, 1)]


def test_empty_windows_produce_no_row():
    a = _fed([5, 95])
    assert [r.epoch for r in a.rows] == [0, 9]


def test_rows_invariant_to_flush_schedule():
    # flushing at sync rounds / heartbeats must close the exact same
    # windows as one finalize at run end
    ts = [3, 7, 12, 12, 19, 31, 44, 45, 46, 90]
    expected = _fed(ts)
    for every in (1, 2, 3):
        got = _fed(ts, flush_every=every)
        assert got.rows == expected.rows
        assert got.payload() == expected.payload()


def test_flush_preserves_buffer_identity():
    # installed trace hooks hold a bound buf.append: flushing must trim
    # the list in place, never rebind it
    a = ComponentAuditor("c", 10)
    append = a.buf.append
    append(1)
    append(25)
    a.flush_closed()
    append(26)  # through the *original* bound method
    a.finalize()
    assert sum(r.n for r in a.rows) == 3


def test_digests_chain_across_windows():
    base = _fed([1, 11, 21])
    bumped = _fed([1, 2, 11, 21])  # one extra event in window 0
    assert [r.epoch for r in base.rows] == [r.epoch for r in bumped.rows]
    # every digest at or after the perturbed window differs
    for rb, rp in zip(base.rows, bumped.rows):
        assert rb.digest != rp.digest
    # and the chain is reproducible from the spec
    prev = ""
    for row, chunk in zip(base.rows, ("1", "11", "21")):
        prev = chunk_digest(prev, row.epoch, chunk)
        assert row.digest == prev


def test_payload_reconstructs_guard_encoding():
    ts = [3, 7, 12, 19, 44, 90]
    a = _fed(ts, flush_every=2)
    assert a.payload() == "c:" + ",".join(map(str, ts)) + ";"
    assert a.digest() == timeline_digest("c", ts)
    # the fold over a single component is that component's digest
    assert fold_root({"c": a.payload()}) == a.digest()


def test_take_rows_is_incremental():
    a = ComponentAuditor("c", 10)
    a.buf.extend([1, 11, 25])
    a.flush_closed()
    first = a.take_rows()
    assert [w["e"] for w in first] == [0, 1]
    assert a.take_rows() == []
    a.finalize()
    assert [w["e"] for w in a.take_rows()] == [2]


def test_empty_component_has_no_digest():
    a = ComponentAuditor("c", 10)
    a.finalize()
    assert a.rows == [] and a.digest() is None and a.events == 0


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        ComponentAuditor("c", 0)


# -- golden-root equivalence (mixed workload, both modes) ---------------------

def _audited_mixed(mode):
    exp = Instantiation(build_mixed_system(), mode=mode, audit=True).build()
    exp.run(DURATION)
    return exp


def test_strict_audit_root_is_golden_digest():
    exp = _audited_mixed("strict")
    rec = exp.audit
    assert rec.root_digest() == GOLDEN_DIGEST
    assert rec.sorted_rows()
    # per-component digests equal the guard's per-component encoding
    for name, auditor in rec.auditors.items():
        if auditor.chunks:
            assert auditor.digest() == rec.component_digests()[name]


def test_fast_audit_root_is_golden_digest():
    # epochs are simulated-time windows, so the fast-mode ledger is
    # row-identical to the strict one — same root, same golden fold
    exp = _audited_mixed("fast")
    assert exp.audit.root_digest() == GOLDEN_DIGEST


def test_fast_and_strict_ledgers_are_row_identical():
    a = _audited_mixed("fast").audit.to_ledger(mode="fast")
    b = _audited_mixed("strict").audit.to_ledger(mode="strict")
    diff = diff_ledgers(a, b)
    assert diff.status == DIFF_IDENTICAL
    assert diff.rows_compared == len(a.rows) == len(b.rows) > 0


def test_guard_digest_unchanged_with_audit_on():
    # auditing chains any pre-installed trace hook: the guard's own
    # tracer and the auditor coexist, and both reproduce the golden fold
    exp = Instantiation(build_mixed_system(), mode="strict",
                        audit=True).build()
    sim = exp.sim
    lines = {}

    def trace(owner, ts):
        lines.setdefault(owner.name if owner is not None else "?",
                         []).append(ts)

    sim._wire()
    for c in sim.components:
        c.queue.trace = trace
    sim._run_strict(DURATION)
    assert fold_root({n: n + ":" + ",".join(map(str, t)) + ";"
                      for n, t in lines.items()}) == GOLDEN_DIGEST
    assert exp.audit.root_digest() == GOLDEN_DIGEST


# -- persistence --------------------------------------------------------------

def _pipeline_recorder(n=3, until_ps=UNTIL_PS, window_ps=WINDOW,
                       perturb=None):
    sim = Simulation(mode="strict")
    comps = [sim.add(RingForwarder(f"s{i}", i, n)) for i in range(n)]
    for i in range(n):
        sim.connect(comps[i].next, comps[(i + 1) % n].prev)
    if perturb is not None:
        comp, ts = perturb
        orig_start = comps[comp].start

        def start(_orig=orig_start, _c=comps[comp], _ts=ts):
            _orig()
            _c.call_after(_ts, lambda: None)  # one extra no-op event

        comps[comp].start = start
    sim._wire()
    rec = AuditRecorder(comps, window_ps=window_ps)
    sim.observers.append(rec)
    sim._run_strict(until_ps)
    return rec


def test_save_load_round_trip(tmp_path):
    rec = _pipeline_recorder()
    path = tmp_path / AUDIT_FILE
    header = rec.save(str(path), mode="strict")
    assert header["kind"] == AUDIT_KIND
    assert header["schema"] == AUDIT_SCHEMA
    led = load_audit(str(path))
    assert led.mode == "strict"
    assert led.until_ps == UNTIL_PS
    assert led.window_ps == WINDOW
    assert led.components == sorted(c for c in rec.auditors)
    assert led.root == rec.root_digest()
    assert not led.partial
    assert led.component_digests() == rec.component_digests()
    assert [r.to_wire() for r in led.rows] == \
        [r.to_wire() for r in rec.sorted_rows()]
    # a run directory resolves to its audit.jsonl
    assert resolve_audit_path(str(tmp_path)) == str(path)
    assert diff_ledgers(led, rec.to_ledger()).identical


def test_load_rejects_malformed_documents(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_audit(str(empty))

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    with pytest.raises(ValueError, match="header"):
        load_audit(str(bad))

    kind = tmp_path / "kind.jsonl"
    kind.write_text(json.dumps({"kind": "something-else"}) + "\n")
    with pytest.raises(ValueError, match="not an audit ledger"):
        load_audit(str(kind))

    schema = tmp_path / "schema.jsonl"
    schema.write_text(json.dumps({"kind": AUDIT_KIND, "schema": 99}) + "\n")
    with pytest.raises(ValueError, match="schema"):
        load_audit(str(schema))

    path = tmp_path / "row.jsonl"
    _pipeline_recorder().save(str(path))
    with open(path, "a") as fh:
        fh.write('{"c": 99, "e": 0}\n')
    with pytest.raises(ValueError, match=r"row\.jsonl:\d+: corrupt"):
        load_audit(str(path))

    with pytest.raises(OSError):
        load_audit(str(tmp_path / "missing.jsonl"))


# -- cross-run diff -----------------------------------------------------------

def test_diff_identical_runs():
    a = _pipeline_recorder().to_ledger()
    b = _pipeline_recorder().to_ledger()
    diff = diff_ledgers(a, b)
    assert diff.status == DIFF_IDENTICAL and diff.identical
    assert diff.divergence is None
    assert diff.problems == []
    assert diff.mismatched_components == []
    assert diff.rows_compared == len(a.rows) > 0
    assert diff.root_a == diff.root_b == a.root


#: The perturbation fixture: one extra no-op event on stage 1 at 23 us.
#: With 5 us windows that is window [20us, 25us) — epoch 4, component s1.
PERTURB_COMP, PERTURB_TS, PERTURB_EPOCH = 1, 23 * US, 4


def test_diff_localizes_single_event_perturbation():
    clean = _pipeline_recorder().to_ledger()
    dirty = _pipeline_recorder(
        perturb=(PERTURB_COMP, PERTURB_TS)).to_ledger()
    diff = diff_ledgers(clean, dirty)
    assert diff.status == DIFF_DIVERGED and not diff.identical
    d = diff.divergence
    assert (d.epoch, d.comp) == (PERTURB_EPOCH, "s1")
    assert d.window == (20 * US, 25 * US)
    assert d.row_b.n == d.row_a.n + 1  # exactly the injected event
    # chaining: only the perturbed component's end-of-run digest moved
    assert diff.mismatched_components == ["s1"]
    # every row before the divergent window compared clean
    keys = sorted(clean.by_key())
    assert diff.rows_compared == keys.index((PERTURB_EPOCH, "s1"))
    rep = diff.to_dict()
    assert rep["first_divergence"]["epoch"] == PERTURB_EPOCH
    assert rep["first_divergence"]["component"] == "s1"


def test_diff_missing_row_is_divergence():
    a = _pipeline_recorder().to_ledger()
    b = _pipeline_recorder().to_ledger()
    dropped = b.rows.pop(3)
    diff = diff_ledgers(a, b)
    assert diff.status == DIFF_DIVERGED
    assert (diff.divergence.epoch, diff.divergence.comp) == \
        (dropped.epoch, dropped.comp)
    assert diff.divergence.row_b is None


def test_diff_window_mismatch_is_incomparable():
    a = _pipeline_recorder(window_ps=WINDOW).to_ledger()
    b = _pipeline_recorder(window_ps=2 * WINDOW).to_ledger()
    diff = diff_ledgers(a, b)
    assert diff.status == DIFF_INCOMPARABLE
    assert any("window_ps" in p for p in diff.problems)
    assert diff.divergence is None


def test_diff_duration_and_component_set_warnings():
    a = _pipeline_recorder(until_ps=UNTIL_PS).to_ledger()
    b = _pipeline_recorder(n=4, until_ps=UNTIL_PS // 2).to_ledger()
    diff = diff_ledgers(a, b)
    assert any("until_ps" in p for p in diff.problems)
    assert any("only in B" in p for p in diff.problems)


# -- multiprocess equivalence -------------------------------------------------

@pytest.mark.slow
def test_mp_ledger_identical_to_inproc_strict(tmp_path):
    # the acceptance pin: the 4-process ledger is row-for-row and
    # root-for-root identical to the strict in-process one
    inproc = inproc_audit_ledger(4, UNTIL_PS)
    mp = mp_audit_ledger(4, UNTIL_PS, tmpdir=str(tmp_path))
    assert mp.root is not None and mp.root == inproc.root
    assert not mp.partial
    assert mp.component_digests() == inproc.component_digests()
    assert [r.to_wire() for r in mp.rows] == \
        [r.to_wire() for r in inproc.rows]
    diff = diff_ledgers(inproc, mp)
    assert diff.status == DIFF_IDENTICAL
    assert diff.rows_compared == len(inproc.rows) > 0


class CrashingForwarder(RingForwarder):
    """Pipeline stage that dies mid-run, well past the first windows."""

    CRASH_AFTER = 40

    def on_msg(self, msg):
        if self.received >= self.CRASH_AFTER:
            raise RuntimeError("injected crash")
        super().on_msg(msg)


def make_crashing(name, index, n, tokens):
    return CrashingForwarder(name, index, n, tokens)


@pytest.mark.slow
def test_mp_crash_leaves_partial_ledger(tmp_path):
    # a child that dies before its result still contributes the windows
    # it closed (heartbeat piggyback + crash-path flush); the parent
    # keeps a partial ledger with a null root instead of losing it all
    specs, channels = pipeline_specs(2)
    specs[1].factory = make_crashing
    path = tmp_path / AUDIT_FILE
    with pytest.raises((RuntimeError, TimeoutError)):
        ProcessRunner(specs, channels).run(
            UNTIL_PS, timeout_s=3.0, hb_interval_s=0.0,
            audit_path=str(path), audit_window_ps=WINDOW)
    led = load_audit(str(path))
    assert led.partial
    assert led.root is None
    assert {r.comp for r in led.rows} == {"s0", "s1"}
    # the surviving prefix still diffs against a clean run and localizes
    clean = _pipeline_recorder(n=2)
    diff = diff_ledgers(clean.to_ledger(), led)
    assert diff.rows_compared > 0
