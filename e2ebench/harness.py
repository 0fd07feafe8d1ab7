"""Measurement loop of the benchmark: set up, run, check, repeat.

One invocation measures one workload for a wall-clock budget.  Each
iteration builds the workload afresh (timed as set-up), runs it for its
fixed simulated duration (timed as the run), and checks the simulated
outputs against the pinned fingerprint for the seed or, for a seed with no
pin, against an oracle run in another execution mode.  Medians over the
iterations that passed are reported; set-up and run times are scaled to a
nominal host speed that ``probe.py`` measures, in separate interpreters,
before set-up, between set-up and run, and after the run.

With tracing on, iterations alternate untraced and traced; the untraced
ones give the baseline for ``trace.overhead`` and the traced ones the
per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import outputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
SHM_DIR = "/dev/shm"
#: Per-iteration limit on an in-process run and on a multiprocess run.
RUN_TIMEOUT_S = 120
#: Scratch and span output, relative to the checkout root.
OUT_DIR = ".e2ebench_out"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

#: Typical :func:`host_speed_probe` times, by number of probes run at
#: once, on the machine that made the pins (a shared 2-core x86-64 VM,
#: Python 3.11.7).  ``run_s`` and ``setup_s`` are reported at this speed.
PROBE_NOMINAL_S = {1: 0.16, 2: 0.17}


def host_speed_probe(procs: int) -> float:
    """Seconds the slowest of ``procs`` concurrent ``probe.py`` runs takes.

    The shared machine's speed drifts by 10-30% over minutes, which no
    number of iterations within one run averages out.  Each probe is a
    fresh interpreter, so nothing the simulator allocates or imports can
    change its time, and it takes no part in ``peak_rss_mib``.
    """
    cmd = [sys.executable, "-I", str(HERE / "probe.py")]
    children = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
                for _ in range(procs)]
    try:
        times = [c.communicate(timeout=60)[0] for c in children]
    finally:
        for c in children:
            c.kill()  # a no-op on a probe that has exited
            c.wait()
    if any(c.returncode for c in children):
        raise RuntimeError("probe.py failed")
    return max(map(float, times))


def machine() -> dict:
    """Where a result was measured; results from elsewhere are flagged."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the simulation processes of ``run_mp`` (joined by the runner,
    but only terminated without a wait when one hangs), the first
    ``multiprocessing.shared_memory`` segment starts a resource-tracker
    process that would otherwise outlive this one.  It ends once every
    holder of its pipe has closed it, so the simulation processes, which
    inherit the pipe, go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()


def _shm_entries() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def _peak_rss_mib() -> float:
    """Peak RSS of this process since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            match = re.search(r"VmHWM:\s+(\d+) kB", fh.read())
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Alarm:
    """Raise ``TimeoutError`` in this process after ``seconds``."""

    def __init__(self, seconds: int) -> None:
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise TimeoutError(f"run exceeded {self.seconds} s")

    def __enter__(self):
        self._prev = signal.signal(signal.SIGALRM, self._fire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self._prev)


class Iteration:
    """What one set-up + run of the workload measured."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.setup_s = 0.0
        self.run_s = 0.0
        #: mean :func:`host_speed_probe` around set-up and around the run
        #: (``None`` on traced iterations, which take no probe)
        self.setup_probe_s: Optional[float] = None
        self.run_probe_s: Optional[float] = None
        self.fingerprint: Optional[dict] = None
        self.error: Optional[str] = None
        #: peak RSS of this process during the iteration, plus the sum of
        #: the mp children's peaks
        self.rss_mib = 0.0
        self.counts: Dict[str, float] = {}
        self.setup_spans: Optional[dict] = None
        self.run_spans: Optional[dict] = None
        self.procs = 1


# -- workload runners ----------------------------------------------------------

class InProcessRunner:
    """``Experiment.run`` in this process (dc_strict, dctcp_fluid)."""

    #: One process sets the time, so one probe tracks it.
    probe_procs = 1

    def __init__(self, name: str) -> None:
        self.instantiate = workloads.INSTANTIATE[name]

    def setup(self, seed: int):
        return self.instantiate(seed)

    def run(self, built, it: Iteration):
        exp, duration = built
        with _Alarm(RUN_TIMEOUT_S):
            return exp.run(duration).stats

    def fingerprint(self, built, stats) -> dict:
        return outputs.fingerprint_inprocess(built[0], stats)

    def oracle(self, seed: int) -> dict:
        exp, duration = self.instantiate(seed, oracle=True)
        with _Alarm(RUN_TIMEOUT_S):
            stats = exp.run(duration).stats
        return outputs.fingerprint_inprocess(exp, stats)

    def counts(self, built, stats) -> Dict[str, float]:
        exp, _ = built
        comps = exp.sim.components
        counts = {"events": stats.events,
                  "rounds": stats.rounds if stats.mode == "strict" else 0,
                  "peak_heap": stats.peak_heap,
                  "pool_reuse_rate": stats.pool_reuse_rate,
                  "cancelled_ratio": stats.cancelled_ratio}
        counts.update(outputs.channel_counts(e for c in comps for e in c.ends))
        counts.update(outputs.net_counts(exp.network_components()))
        counts["instructions"] = sum(
            h.collect_outputs()["instructions"] for h in exp.hosts.values())
        counts["nic_events"] = sum(stats.per_component_events[n.name]
                                   for n in exp.nics.values())
        return counts


class MultiprocessRunner:
    """``Experiment.run_mp``: one OS process per component (dc_mp2).

    A hook around the child entry point reports, from inside each child,
    its peak RSS, its event-queue health, its network counters and, when
    tracing, its spans; each child writes one JSON file that the parent
    reads back after the run.
    """

    #: Two processes on two cores set the run time, so two probes run at
    #: once and the slower counts (one probe, on ten runs, widened the
    #: spread of ``run_s`` from 7% to 20%).
    probe_procs = 2

    def __init__(self, name: str, out_dir: Path) -> None:
        self.instantiate = workloads.INSTANTIATE[name]
        self.out_dir = out_dir
        self.recorder: Optional[spans.SpanRecorder] = None
        self.model_s: Optional[float] = None

    def setup(self, seed: int):
        return self.instantiate(seed)

    def _install_child_hook(self, child_dir: Path):
        from repro.parallel import procrunner
        orig = procrunner._child_main
        recorder = self.recorder
        inner = recorder.wrap("parallel", orig) if recorder else orig

        def child_main(spec, *args, **kwargs):
            if recorder is not None:
                recorder.reset()
            _reset_peak_rss()
            try:
                inner(spec, *args, **kwargs)
            finally:
                comp = spec.component
                report = {"rss_mib": _peak_rss_mib(),
                          "queue": outputs.queue_counts([comp.queue]),
                          "net": outputs.net_counts([comp])}
                if recorder is not None:
                    report["spans"] = recorder.snapshot()
                with open(child_dir / f"{spec.name}.json", "w") as fh:
                    json.dump(report, fh)

        procrunner._child_main = child_main
        return lambda: setattr(procrunner, "_child_main", orig)

    def run(self, built, it: Iteration):
        exp, duration = built
        child_dir = self.out_dir / f"children-{os.getpid()}"
        shutil.rmtree(child_dir, ignore_errors=True)
        child_dir.mkdir(parents=True)
        restore = self._install_child_hook(child_dir)
        try:
            results = exp.run_mp(duration, timeout_s=RUN_TIMEOUT_S)
            reports = {name: json.loads((child_dir / f"{name}.json")
                                        .read_text())
                       for name in results}
        finally:
            restore()
            shutil.rmtree(child_dir, ignore_errors=True)
        it.procs = len(results)
        it.rss_mib += sum(r["rss_mib"] for r in reports.values())
        self._reports = reports
        return results

    def fingerprint(self, built, results) -> dict:
        return outputs.fingerprint_mp(results)

    def oracle(self, seed: int, work_window_ps: Optional[int] = None) -> dict:
        """In-process strict run of the same partitioned system."""
        exp, duration = self.instantiate(seed, work_window_ps=work_window_ps)
        with _Alarm(RUN_TIMEOUT_S):
            stats = exp.run(duration).stats
        if work_window_ps is not None:
            self.model_s = exp.execution_model(duration).run().wall_seconds
        return outputs.fingerprint_inprocess(exp, stats)

    def counts(self, built, results) -> Dict[str, float]:
        reports = self._reports
        events = sum(r.events for r in results.values())
        queues = [r["queue"] for r in reports.values()]
        counts = {"events": events, "rounds": 0,
                  "peak_heap": max(q["peak_heap"] for q in queues),
                  # each child's ratio weighted by its events
                  "pool_reuse_rate": sum(
                      q["pool_reuse_rate"] * results[n].events
                      for n, q in zip(reports, queues)) / max(1, events),
                  "cancelled_ratio": sum(
                      q["cancelled_ratio"] * results[n].events
                      for n, q in zip(reports, queues)) / max(1, events)}
        msgs = syncs = 0
        for r in results.values():
            for c in r.end_counters.values():
                msgs += c["tx_msgs"]
                syncs += c["tx_syncs"]
        counts.update(msgs=msgs, syncs=syncs)
        for key in reports[next(iter(reports))]["net"]:
            counts[key] = sum(r["net"][key] for r in reports.values())
        waits = [r.wait_seconds / r.wall_seconds for r in results.values()
                 if r.wall_seconds > 0]
        busy = [r.wall_seconds - r.wait_seconds for r in results.values()]
        frames = sum(r.transport["frames_out"] for r in results.values())
        batches = sum(r.transport["batches_out"] for r in results.values())
        counts.update({
            "mp.wait_frac_max": max(waits, default=0.0),
            "mp.wait_frac_mean": statistics.fmean(waits) if waits else 0.0,
            "mp.work_imbalance": (max(busy) / statistics.fmean(busy)
                                  if busy and statistics.fmean(busy) > 0
                                  else 0.0),
            "mp.frames": frames,
            "mp.frames_per_batch": frames / batches if batches else 0.0,
            "mp.pickle_fallbacks": sum(
                r.transport["wire"]["msg_pickle_fallbacks"]
                + r.transport["wire"]["payload_pickles"]
                for r in results.values()),
        })
        return counts

    def child_spans(self) -> List[dict]:
        return [r["spans"] for r in self._reports.values() if "spans" in r]


def runner_for(workload: str, out_dir: Path):
    """The runner that measures ``workload``."""
    if workload == "dc_mp2":
        return MultiprocessRunner(workload, out_dir)
    return InProcessRunner(workload)


# -- the loop ------------------------------------------------------------------

def _merge_spans(snaps: List[dict]) -> dict:
    out = {"self_s": {}, "calls": {}, "child_calls": {}, "root_s": 0.0}
    for snap in snaps:
        for key in ("self_s", "calls", "child_calls"):
            for layer, v in snap[key].items():
                out[key][layer] = out[key].get(layer, 0) + v
        out["root_s"] += snap["root_s"]
    return out


def _one_iteration(runner, seed: int, traced: bool,
                   tracer: Optional[spans.Tracer]) -> Iteration:
    it = Iteration(traced)
    recorder = tracer.recorder if traced else None
    if isinstance(runner, MultiprocessRunner):
        runner.recorder = recorder
    gc.collect()
    _reset_peak_rss()
    shm_before = _shm_entries()
    # per-layer figures use raw times, so traced iterations take no probe
    probe = None if traced else lambda: host_speed_probe(runner.probe_procs)
    if traced:
        tracer.install()
    try:
        probe_setup = probe() if probe else None
        if recorder is not None:
            recorder.reset()
        t0 = time.perf_counter()
        built = runner.setup(seed)
        it.setup_s = time.perf_counter() - t0
        setup_rss = _peak_rss_mib()
        if recorder is not None:
            it.setup_spans = recorder.snapshot()
        if probe:
            probe_run = probe()
            it.setup_probe_s = (probe_setup + probe_run) / 2
        _reset_peak_rss()
        if recorder is not None:
            recorder.reset()
        t0 = time.perf_counter()
        result = runner.run(built, it)
        it.run_s = time.perf_counter() - t0
        it.rss_mib += max(setup_rss, _peak_rss_mib())
        if probe:
            it.run_probe_s = (probe_run + probe()) / 2
        if recorder is not None:
            snaps = [recorder.snapshot()]
            if isinstance(runner, MultiprocessRunner):
                snaps += runner.child_spans()
            it.run_spans = _merge_spans(snaps)
        it.fingerprint = runner.fingerprint(built, result)
        it.counts = runner.counts(built, result)
    except Exception as exc:  # one failed iteration; the loop goes on
        it.error = f"{type(exc).__name__}: {exc}"
    finally:
        if traced:
            tracer.uninstall()
    residue = _shm_entries() - shm_before
    if residue and it.error is None:
        it.error = f"shared-memory residue: {sorted(residue)}"
    return it


def measure(workload: str, seed: int, seconds: float, trace: bool,
            pins: dict, root: Path) -> dict:
    """Run one benchmark invocation; returns the result and info records."""
    out_dir = root / OUT_DIR
    runner = runner_for(workload, out_dir)
    tracer = spans.Tracer(spans.SpanRecorder()) if trace else None
    span_cost = spans.span_cost() if trace else (0.0, 0.0)
    iters: List[Iteration] = []
    t_start = time.perf_counter()
    # Start another iteration while it is expected to end within budget.
    while len(iters) < (2 if trace else 1) or (
            (time.perf_counter() - t_start) * (len(iters) + 1) / len(iters)
            <= seconds):
        traced = trace and len(iters) % 2 == 1
        iters.append(_one_iteration(runner, seed, traced, tracer))
        err = iters[-1].error
        if err:
            print(f"iteration {len(iters)} failed: {err}", file=sys.stderr)

    pin = pins.get("pins", {}).get(workload, {}).get(str(seed))
    reference = pin
    if pin is None or (trace and workload == "dc_mp2"):
        window = workloads.MODEL_WINDOW_PS if trace else None
        try:
            oracle = (runner.oracle(seed, window) if workload == "dc_mp2"
                      else runner.oracle(seed))
        except Exception as exc:  # no reference: every iteration fails
            oracle = {"oracle_error": f"{type(exc).__name__}: {exc}"}
            print(f"oracle run failed: {oracle['oracle_error']}",
                  file=sys.stderr)
        if pin is None:
            reference = outputs.digest(oracle)
        elif pin != outputs.digest(oracle):
            print(f"pinned fingerprint {pin} differs from the oracle "
                  f"{outputs.digest(oracle)}", file=sys.stderr)
    for it in iters:
        if it.error is None and outputs.digest(it.fingerprint) != reference:
            it.error = (f"fingerprint {outputs.digest(it.fingerprint)} != "
                        f"reference {reference}")
            print(f"{workload} seed {seed}: {it.error}\n"
                  f"{json.dumps(it.fingerprint, sort_keys=True)}",
                  file=sys.stderr)

    failed = sum(1 for it in iters if it.error is not None)
    plain = [it for it in iters if not it.traced]
    # times of an iteration that failed part-way say nothing; when every
    # iteration failed the result is incorrect and its times are moot
    passed = [it for it in plain if it.error is None] or plain
    nominal = PROBE_NOMINAL_S[runner.probe_procs]

    def at_nominal(t: float, probe_s: Optional[float]) -> float:
        """``t`` scaled to the nominal host speed (raw when unprobed)."""
        return t * nominal / probe_s if probe_s else t

    run_s = statistics.median(at_nominal(it.run_s, it.run_probe_s)
                              for it in passed)
    setup_s = statistics.median(at_nominal(it.setup_s, it.setup_probe_s)
                                for it in passed)
    wall_run_s = statistics.median(it.run_s for it in passed)
    peak_mib = statistics.median(it.rss_mib for it in passed)
    events = next((it.counts["events"] for it in iters if it.counts), 0)
    sim_s = workloads.DURATION_PS[workload] / 1e12
    info = {
        "workload": workload, "seed": seed, "machine": machine(),
        "pinned": pin is not None,
        "pins_machine_differs": pins.get("machine") != machine(),
        "fingerprint": reference,
        "iterations": len(plain), "traced_iterations": len(iters) - len(plain),
        "wall_run_s": wall_run_s,
        "wall_run_s_all": [it.run_s for it in plain],
        "wall_setup_s_all": [it.setup_s for it in plain],
        "setup_probe_s_all": [it.setup_probe_s for it in plain],
        "run_probe_s_all": [it.run_probe_s for it in plain],
        "failed_frac": failed / len(iters),
        "events": events,
        "sim_us_per_host_s": sim_s * 1e6 / wall_run_s if wall_run_s else 0.0,
        "events_per_s": events / wall_run_s if wall_run_s else 0.0,
    }
    if workload == "dc_mp2" and (os.cpu_count() or 1) < 2:
        info["note"] = "nproc < 2: both simulation processes share one core"
    if trace:
        metrics = per_layer(iters, runner, wall_run_s, span_cost)
        _write_spans(out_dir, workload, seed, iters, span_cost)
    else:
        values = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mib": peak_mib}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": len(iters),
              "failed": failed, "metrics": metrics}
    return {"info": info, "result": result}


def _write_spans(out_dir: Path, workload: str, seed: int,
                 iters: List[Iteration], span_cost) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"span_cost_s": {"inside": span_cost[0], "outside": span_cost[1]},
           "iterations": [{"setup_s": it.setup_s, "run_s": it.run_s,
                           "setup_spans": it.setup_spans,
                           "run_spans": it.run_spans}
                          for it in iters if it.traced]}
    with open(out_dir / f"spans-{workload}-{seed}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


# -- per-layer metrics -----------------------------------------------------------

#: per-layer metric -> unit; every one is reported on every workload (0
#: where the layer does not run)
PER_LAYER = {
    "netsim.routing.fib_s": "s", "orchestration.build_s": "s",
    "kernel.events": "count", "kernel.ns_per_event": "ns",
    "kernel.self_s": "s", "kernel.cancelled_ratio": "ratio",
    "kernel.pool_reuse_rate": "ratio", "kernel.peak_heap": "count",
    "parallel.rounds": "count", "parallel.events_per_round": "count",
    "parallel.self_s": "s",
    "parallel.mp.wait_frac_max": "ratio", "parallel.mp.wait_frac_mean": "ratio",
    "parallel.mp.work_imbalance": "ratio", "parallel.mp.frames": "count",
    "parallel.mp.frames_per_batch": "count",
    "parallel.mp.pickle_fallbacks": "count",
    "parallel.shm_ring.self_s": "s", "parallel.model_ratio": "ratio",
    "channels.msgs": "count", "channels.syncs": "count",
    "channels.syncs_per_msg": "ratio", "channels.self_s": "s",
    "channels.trunk.self_s": "s", "channels.wire.self_s": "s",
    "netsim.packets": "count", "netsim.drops": "count",
    "netsim.ecn_marks": "count", "netsim.self_s": "s",
    "netsim.link.self_s": "s", "netsim.switch.self_s": "s",
    "netsim.queues.self_s": "s", "netsim.transport.self_s": "s",
    "netsim.apps.self_s": "s",
    "netsim.fluid.self_s": "s", "netsim.fluid.updates": "count",
    "netsim.fluid.promoted": "count", "netsim.fluid.byte_share": "ratio",
    "hostsim.self_s": "s", "hostsim.instructions": "count",
    "nicsim.self_s": "s", "nicsim.events": "count",
    "obs.timeline.self_s": "s", "obs.audit.self_s": "s", "obs.share": "ratio",
    "trace.overhead": "ratio", "trace.unattributed_frac": "ratio",
    "trace.span_cost_ns": "ns",
}

_SELF_LAYERS = ("kernel", "parallel", "parallel.shm_ring", "channels",
                "channels.trunk", "channels.wire", "netsim", "netsim.link",
                "netsim.switch", "netsim.queues", "netsim.transport",
                "netsim.apps", "netsim.fluid", "hostsim", "nicsim",
                "obs.timeline", "obs.audit")


def per_layer(iters: List[Iteration], runner, run_s: float,
              span_cost) -> dict:
    """Per-layer metrics: mean span times over the traced iterations,
    counts from the public results of the run."""
    traced = [it for it in iters if it.traced and it.error is None]
    if not traced:
        traced = [it for it in iters if it.traced]
    n = len(traced)

    inside, outside = span_cost

    def mean_self(phase: str, layer: str) -> float:
        """Mean self time, less the cost the spans themselves added."""
        total = 0.0
        for it in traced:
            snap = getattr(it, phase) or {}
            total += (snap.get("self_s", {}).get(layer, 0.0)
                      - snap.get("calls", {}).get(layer, 0) * inside
                      - snap.get("child_calls", {}).get(layer, 0) * outside)
        return max(0.0, total / n)

    counts = traced[-1].counts or {}
    get = lambda key: counts.get(key, 0)
    traced_run_s = statistics.median(it.run_s for it in traced)
    # share of each traced run (per process) that no span covers
    unattributed = sum(
        1.0 - (it.run_spans or {"root_s": 0.0})["root_s"]
        / (it.procs * it.run_s) for it in traced if it.run_s) / n
    events = get("events")
    v = {
        "netsim.routing.fib_s": mean_self("setup_spans", "netsim.routing"),
        "orchestration.build_s": mean_self("setup_spans", "orchestration"),
        "kernel.events": events,
        "kernel.ns_per_event": run_s / events * 1e9 if events else 0.0,
        "kernel.cancelled_ratio": get("cancelled_ratio"),
        "kernel.pool_reuse_rate": get("pool_reuse_rate"),
        "kernel.peak_heap": get("peak_heap"),
        "parallel.rounds": get("rounds"),
        "parallel.events_per_round": (events / get("rounds")
                                      if get("rounds") else 0.0),
        "parallel.model_ratio": (runner.model_s / run_s
                                 if getattr(runner, "model_s", None)
                                 else 0.0),
        "channels.msgs": get("msgs"), "channels.syncs": get("syncs"),
        "channels.syncs_per_msg": (get("syncs") / get("msgs")
                                   if get("msgs") else 0.0),
        "netsim.packets": get("packets"), "netsim.drops": get("drops"),
        "netsim.ecn_marks": get("ecn_marks"),
        "netsim.fluid.updates": get("fluid_updates"),
        "netsim.fluid.promoted": get("fluid_promoted"),
        "netsim.fluid.byte_share": (get("fluid_bytes")
                                    / get("delivered_bytes")
                                    if get("delivered_bytes") else 0.0),
        "hostsim.instructions": get("instructions"),
        "nicsim.events": get("nic_events"),
        "trace.overhead": traced_run_s / run_s if run_s else 0.0,
        "trace.span_cost_ns": (inside + outside) * 1e9,
        "trace.unattributed_frac": max(0.0, unattributed),
    }
    for key in ("wait_frac_max", "wait_frac_mean", "work_imbalance",
                "frames", "frames_per_batch", "pickle_fallbacks"):
        v[f"parallel.mp.{key}"] = get(f"mp.{key}")
    for layer in _SELF_LAYERS:
        v[f"{layer}.self_s"] = mean_self("run_spans", layer)
    # spans' own cost removed, so compare with the untraced run
    v["obs.share"] = ((v["obs.timeline.self_s"] + v["obs.audit.self_s"])
                      / run_s if run_s else 0.0)
    return {k: {"value": v[k], "unit": unit} for k, unit in PER_LAYER.items()}
