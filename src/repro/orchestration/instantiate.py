"""Instantiation: turning a system configuration into a runnable simulation.

An :class:`Instantiation` holds the *implementation choices* — which host
simulator backs each detailed host, how the network is partitioned, which
execution mode runs the whole thing — and :meth:`build` assembles all
component simulators and channels into a ready
:class:`~repro.orchestration.instantiate.Experiment`.

The resulting experiment exposes the pieces the evaluation needs: the apps
(for workload metrics), per-component work recordings and model channels
(for the virtual-time performance model), and counters/ends (for the
profiler).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..channels.channel import ChannelEnd
from ..hostsim.driver import DirectEthDriver, I40eDriver
from ..hostsim.host import HostSim, gem5_host, qemu_host
from ..kernel.rng import derive_seed
from ..kernel.simtime import NS, US
from ..netsim.fidelity import FidelityConfig
from ..netsim.network import NetworkSim
from ..netsim.partition import (PartitionedBuild, assign_all,
                                assign_hosts_with_switch,
                                instantiate_partitioned)
from ..netsim.ptp_tc import install_transparent_clocks
from ..netsim.topology import NetBuild, TopoSpec, instantiate as build_single
from ..nicsim.i40e import I40eNic
from ..parallel.model import ModelChannel, ParallelExecutionModel
from ..parallel.procrunner import ProcChannel, ProcessRunner, ProcSpec
from ..parallel.simulation import SimStats, Simulation
from ..profiler.instrument import StrictModeSampler
from ..profiler.postprocess import ProfileAnalysis, analyze
from .system import System

DEFAULT_ETH_LATENCY_PS = 500 * NS
DEFAULT_PCI_LATENCY_PS = 250 * NS


@dataclass
class ExperimentResult:
    """Everything a finished run reports."""

    stats: SimStats
    experiment: "Experiment"

    @property
    def sim_time_ps(self) -> int:
        """Simulated duration of the finished run."""
        return self.stats.sim_time_ps


class Experiment:
    """An assembled simulation, ready to run once."""

    def __init__(self, system: System, sim: Simulation,
                 netbuild: Union[NetBuild, PartitionedBuild],
                 hosts: Dict[str, HostSim], nics: Dict[str, I40eNic],
                 model_channels: List[ModelChannel]) -> None:
        self.system = system
        self.sim = sim
        self.netbuild = netbuild
        self.hosts = hosts
        self.nics = nics
        self.model_channels = model_channels
        #: set when the instantiation enabled profiling
        self.sampler = None
        #: sim-domain tracer (set by :meth:`enable_tracing`)
        self.tracer = None
        #: wall-domain tracer carrying orchestration phase spans (ORCH_PID)
        self.phase_tracer = None
        #: :class:`~repro.obs.trace.PhaseClock` over ``phase_tracer``
        self.phases = None
        #: :class:`~repro.obs.flows.FlowRecorder` (set by
        #: :meth:`enable_flow_tracing`)
        self.flow_recorder = None
        #: :class:`~repro.obs.timeline.TimelineRecorder` (set by
        #: :meth:`enable_timeline`)
        self.timeline = None
        #: :class:`~repro.obs.audit.AuditRecorder` (set by
        #: :meth:`enable_audit`)
        self.audit = None

    # -- conveniences ------------------------------------------------------------

    def apps_of(self, host_name: str) -> list:
        """All application instances running on a host (any fidelity)."""
        choice = self.system.hosts[host_name]
        if choice.detailed:
            return self.hosts[host_name].os.apps
        return self.netbuild.host(host_name).apps

    def app(self, host_name: str, index: int = 0):
        """One application instance of a host (default: the first)."""
        return self.apps_of(host_name)[index]

    def host_os(self, host_name: str):
        """The simulated OS of a detailed host."""
        return self.hosts[host_name].os

    def network_components(self) -> List[NetworkSim]:
        """Every network-simulator partition of this experiment."""
        if isinstance(self.netbuild, PartitionedBuild):
            return self.netbuild.all_components()
        return [self.netbuild.net]

    def install_transparent_clocks(self) -> int:
        """Enable PTP transparent clocks on every switch egress queue."""
        return sum(install_transparent_clocks(net)
                   for net in self.network_components())

    def core_count(self) -> int:
        """Processor cores the equivalent parallel deployment would use
        (one per component simulator, as in the paper's accounting)."""
        return len(self.sim.components)

    # -- execution -------------------------------------------------------------------

    def enable_tracing(self, capacity: int = 1 << 16,
                       interval_rounds: int = 64):
        """Attach the observability layer to this experiment.

        Creates a sim-domain :class:`~repro.obs.trace.Tracer` over the
        simulation (kernel drains, channel counter tracks, link busy
        periods, strict-round stalls) plus a wall-domain phase tracer on
        the dedicated orchestrator pid.  Call before :meth:`run`; export
        afterwards with :meth:`save_trace`.  Returns the sim tracer.
        """
        from ..obs.install import install_tracer
        from ..obs.trace import ORCH_PID, PhaseClock, Tracer
        if self.tracer is None:
            self.tracer = Tracer(capacity=capacity, pid=1,
                                 process_name="simulation", clock="sim")
            install_tracer(self.sim, self.tracer, interval_rounds)
        if self.phase_tracer is None:
            self.phase_tracer = Tracer(pid=ORCH_PID,
                                       process_name="orchestration",
                                       clock="wall")
            self.phases = PhaseClock(self.phase_tracer)
        return self.tracer

    def enable_flow_tracing(self, sample_n: int = 1):
        """Record causal per-message flow hops into this experiment's trace.

        Installs a :class:`~repro.obs.flows.FlowRecorder` over the sim
        tracer (enabling tracing first if needed).  ``sample_n`` keeps one
        flow in ``n``; 1 traces everything.  Pair with
        :meth:`disable_flow_tracing` (the recorder is process-global) —
        typically in a ``try/finally`` around :meth:`run`.
        """
        from ..obs.flows import install_flow_recorder
        self.enable_tracing()
        self.flow_recorder = install_flow_recorder(self.tracer,
                                                   sample_n=sample_n)
        return self.flow_recorder

    def disable_flow_tracing(self) -> None:
        """Detach the process-global flow recorder installed above."""
        from ..obs.flows import uninstall_flow_recorder
        uninstall_flow_recorder()
        self.flow_recorder = None

    def save_trace(self, path: str, extra_meta: Optional[dict] = None) -> dict:
        """Write the merged Chrome-trace document; returns the document."""
        if self.tracer is None:
            raise RuntimeError("enable_tracing() before running "
                               "to collect a trace")
        import json
        from ..obs.trace import chrome_doc
        tracers = [self.tracer]
        if self.phase_tracer is not None:
            tr = self.phase_tracer
            tr.instant(tr.tid("phases"), "phase", "teardown", tr.wall_us())
            tracers.append(tr)
        meta = {"mode": self.sim.mode}
        if extra_meta:
            meta.update(extra_meta)
        doc = chrome_doc(tracers, extra_meta=meta)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return doc

    def metrics(self, stats: Optional[SimStats] = None):
        """Unified metrics snapshot registry for this experiment."""
        from ..obs.metrics import collect_experiment
        return collect_experiment(self, stats=stats)

    def enable_timeline(self, interval_rounds: int = 64,
                        max_rows: Optional[int] = None):
        """Attach the epoch-resolved metrics timeline to this experiment.

        Samples every component's compute/wait/comm cycles, per-edge
        message and sync counts, and selected registry counters at
        sync-round boundaries (every ``interval_rounds`` rounds).  Strict
        mode only — the sampler reads counters at the epochs the sync
        protocol defines.  Call before :meth:`run`; export afterwards with
        :meth:`save_timeline`.  Feed the file to
        :func:`repro.parallel.advisor.recommend_partition` or
        ``splitsim-inspect timeline``.  Returns the recorder.
        """
        from ..obs.timeline import TimelineRecorder
        if self.sim.mode != "strict":
            raise RuntimeError("the epoch timeline needs strict-sync "
                               "execution (mode='strict', profile=True, "
                               "or timeline=True at instantiation)")
        if self.timeline is None:
            kwargs = {} if max_rows is None else {"max_rows": max_rows}
            self.timeline = TimelineRecorder(
                self.sim.components, interval_rounds=interval_rounds,
                meta={"net_switches": self._net_switches()}, **kwargs)
            self.sim.observers.append(self.timeline)
        return self.timeline

    def enable_audit(self, window_ps: Optional[int] = None,
                     interval_rounds: int = 64):
        """Attach the per-epoch digest ledger to this experiment.

        Folds every component's event timeline into per-epoch subdigests
        over fixed simulated-time windows (``window_ps`` wide), chained so
        ``splitsim-inspect diff`` can localize the first divergent
        ``(epoch, component)`` between two runs.  The ledger's root digest
        is bit-identical to the determinism guard's timeline fold.  Works
        in both execution modes: strict runs flush closed windows every
        ``interval_rounds`` sync rounds; fast runs flush at run end.  Call
        before :meth:`run`; export with :meth:`save_audit`.
        """
        from ..obs.audit import DEFAULT_WINDOW_PS, AuditRecorder
        if self.audit is None:
            self.audit = AuditRecorder(
                self.sim.components,
                window_ps=DEFAULT_WINDOW_PS if window_ps is None
                else window_ps,
                interval_rounds=interval_rounds,
                meta={"system": self.system.spec.name
                      if hasattr(self.system, "spec")
                      and hasattr(self.system.spec, "name") else None})
            self.sim.observers.append(self.audit)
        return self.audit

    def save_audit(self, path: str) -> dict:
        """Write the recorded audit ledger; returns its header."""
        if self.audit is None:
            raise RuntimeError("enable_audit() before running "
                               "to collect an audit ledger")
        return self.audit.save(path, mode=self.sim.mode)

    def _net_switches(self) -> Dict[str, List[str]]:
        """Which topology switches each network component carries (for the
        advisor's switch-level assignment output)."""
        nb = self.netbuild
        if isinstance(nb, PartitionedBuild):
            return {net.name: [sw for sw in nb.spec.switches
                               if nb.assignment.get(sw) == label]
                    for label, net in nb.parts.items()}
        return {nb.net.name: list(nb.spec.switches)}

    def save_timeline(self, path: str) -> dict:
        """Write the recorded epoch timeline; returns its header."""
        if self.timeline is None:
            raise RuntimeError("enable_timeline() before running "
                               "to collect a timeline")
        return self.timeline.save(path)

    def run(self, duration_ps: int) -> ExperimentResult:
        """Run the assembled simulation to ``duration_ps``."""
        if self.phases is not None:
            with self.phases("run"):
                stats = self.sim.run(duration_ps)
        else:
            stats = self.sim.run(duration_ps)
        return ExperimentResult(stats=stats, experiment=self)

    def profile_analysis(self, drop_head: int = 1,
                         drop_tail: int = 0) -> ProfileAnalysis:
        """Post-process the profiler samples collected during the run
        (read-only: the sampler took its final snapshot at run end)."""
        if self.sampler is None:
            raise RuntimeError("build the instantiation with profile=True")
        return analyze(self.sampler.log, drop_head=drop_head,
                       drop_tail=drop_tail)

    def run_mp(self, duration_ps: int, timeout_s: float = 300.0, *,
               progress: bool = False, report_path: Optional[str] = None,
               trace_dir: Optional[str] = None,
               hb_interval_s: float = 0.25,
               flow_sample: Optional[int] = None,
               digest: bool = False,
               control_dir: Optional[str] = None,
               stall_intervals: int = 4,
               stale_after_s: Optional[float] = None,
               timeline_path: Optional[str] = None,
               audit_path: Optional[str] = None,
               audit_window_ps: Optional[int] = None):
        """Run this experiment with one OS process per component simulator.

        This is the paper's actual deployment (shared-memory channels,
        busy-poll synchronization).  Components are inherited via fork, so
        the experiment must not have been run in-process already.  Returns
        the per-process results of :class:`~repro.parallel.procrunner`.
        ``progress``/``report_path``/``trace_dir`` switch on live heartbeat
        telemetry, the versioned ``run_report.json``, and per-child traces
        merged into ``trace_dir/trace.json``.  ``control_dir`` serves the
        live control plane (``splitsim-inspect attach``) from that run
        directory; ``stall_intervals``/``stale_after_s`` tune its watchdog.
        ``timeline_path`` writes the epoch-resolved metrics timeline there
        (children piggyback epoch deltas on heartbeats).  ``audit_path``
        writes the per-epoch digest ledger there (``audit_window_ps``
        sets the epoch width; see :mod:`repro.obs.audit`).
        """
        specs = [ProcSpec(c.name, component=c) for c in self.sim.components]
        channels = [
            ProcChannel(ea.owner.name, ea.name, eb.owner.name, eb.name)
            for ea, eb in self.sim.channels
        ]
        runner = ProcessRunner(specs, channels)
        return runner.run(duration_ps, timeout_s=timeout_s,
                          progress=progress, report_path=report_path,
                          trace_dir=trace_dir, hb_interval_s=hb_interval_s,
                          flow_sample=flow_sample, digest=digest,
                          control_dir=control_dir,
                          stall_intervals=stall_intervals,
                          stale_after_s=stale_after_s,
                          timeline_path=timeline_path,
                          audit_path=audit_path,
                          audit_window_ps=audit_window_ps)

    def execution_model(self, sim_time_ps: int) -> ParallelExecutionModel:
        """Virtual-time model over this experiment's recorded workload."""
        if self.sim.recorder is None:
            raise RuntimeError("build the instantiation with work_window_ps")
        return ParallelExecutionModel(
            self.sim.recorder, sim_time_ps, self.model_channels,
            components=[c.name for c in self.sim.components],
            baselines={c.name: getattr(c, "baseline_cycles_per_ps", 0.0)
                       for c in self.sim.components})


@dataclass
class Instantiation:
    """Implementation choices for simulating a :class:`System`."""

    system: System
    mode: str = "fast"
    network_flavor: str = "ns3"
    #: None = single network process; or a mapping switch->partition label;
    #: or a callable (TopoSpec) -> switch-level assignment.
    network_partition: Optional[Union[Dict[str, str], Callable]] = None
    use_trunk: bool = True
    work_window_ps: Optional[int] = None
    eth_latency_ps: int = DEFAULT_ETH_LATENCY_PS
    pci_latency_ps: int = DEFAULT_PCI_LATENCY_PS
    transparent_clocks: bool = False
    #: Enable the SplitSim profiler: forces strict-sync execution and
    #: samples every adapter's counters periodically (the paper's
    #: "add the flag to enable profiling").
    profile: bool = False
    profile_interval_rounds: int = 200
    #: Enable the observability layer: a sim-domain tracer over the whole
    #: simulation plus wall-domain build/run/teardown phase spans.
    trace: bool = False
    trace_capacity: int = 1 << 16
    trace_interval_rounds: int = 64
    #: Causal flow tracing: keep 1-in-N flows (1 = every flow, ``None`` =
    #: off).  Implies ``trace``.  See ``repro.obs.flows``.
    flow_sample: Optional[int] = None
    #: Network fidelity tiers (batched packet drain, fluid flow-level
    #: model); ``None`` = pure packet-level, exactly as before.  See
    #: :class:`~repro.netsim.fidelity.FidelityConfig`.
    fidelity: Optional["FidelityConfig"] = None
    #: Record the epoch-resolved metrics timeline (forces strict-sync
    #: execution, like ``profile``).  Export with
    #: ``experiment.save_timeline(path)`` after the run.
    timeline: bool = False
    timeline_interval_rounds: int = 64
    #: Record the per-epoch digest ledger (see :mod:`repro.obs.audit`).
    #: Works in any execution mode — epochs are fixed simulated-time
    #: windows, so ledgers from fast, strict, and multiprocess runs are
    #: directly comparable.  Export with ``experiment.save_audit(path)``.
    audit: bool = False
    #: Audit epoch width in simulated picoseconds (``None`` = the module
    #: default, :data:`repro.obs.audit.DEFAULT_WINDOW_PS`).
    audit_window_ps: Optional[int] = None
    #: Apply a saved advisor recommendation (``partition.json`` from
    #: ``splitsim-inspect recommend``) as the network partition.
    #: Mutually exclusive with ``network_partition``.
    partition_file: Optional[str] = None

    def build(self) -> Experiment:
        """Assemble all component simulators and channels per the choices."""
        phase_tracer = None
        build_start_us = 0.0
        if self.flow_sample is not None:
            self.trace = True
        if self.trace:
            from ..obs.trace import ORCH_PID, Tracer
            phase_tracer = Tracer(pid=ORCH_PID,
                                  process_name="orchestration",
                                  clock="wall")
            build_start_us = phase_tracer.wall_us()
        system = self.system
        spec = system.spec
        mode = "strict" if self.profile or self.timeline else self.mode
        sim = Simulation(mode=mode, work_window_ps=self.work_window_ps)
        model_channels: List[ModelChannel] = []

        network_partition = self.network_partition
        if self.partition_file is not None:
            if network_partition is not None:
                raise ValueError("partition_file and network_partition are "
                                 "mutually exclusive")
            from .strategies import partition_from_file
            network_partition = partition_from_file(self.partition_file)

        # -- network ------------------------------------------------------
        if network_partition is None:
            nb = build_single(spec, name="net", flavor=self.network_flavor,
                              seed=system.seed)
            sim.add(nb.net)
            attachments = nb.attachments
        else:
            part = network_partition
            switch_part = part(spec) if callable(part) else part
            assignment = assign_hosts_with_switch(spec, switch_part)
            nb = instantiate_partitioned(
                spec, assignment, flavor=self.network_flavor,
                seed=system.seed, use_trunk=self.use_trunk)
            for comp in nb.all_components():
                sim.add(comp)
            for end_a, end_b in nb.channels:
                sim.connect(end_a, end_b)
            model_channels.extend(nb.model_channels)
            attachments = nb.attachments

        # -- fidelity tiers -------------------------------------------------
        if self.fidelity is not None:
            if isinstance(nb, PartitionedBuild):
                for comp in nb.all_components():
                    self.fidelity.apply(comp)
            else:
                self.fidelity.apply(nb.net)

        # -- protocol-level apps -------------------------------------------
        for name, choice in system.hosts.items():
            if choice.detailed:
                continue
            host = nb.host(name)
            for factory in choice.app_factories:
                host.add_app(factory(host))

        # -- detailed hosts + NICs -----------------------------------------
        hosts: Dict[str, HostSim] = {}
        nics: Dict[str, I40eNic] = {}
        for name, choice in system.hosts.items():
            if not choice.detailed:
                continue
            att = attachments.get(name)
            if att is None:
                raise RuntimeError(f"detailed host {name} has no attachment "
                                   "(is it linked to a switch?)")
            link_bw = att.ext.direction.bandwidth_bps
            seed = derive_seed(system.seed, f"host.{name}") & 0x7FFFFFFF
            addr = spec.addr_of(name)
            net = att.net

            if choice.nic == "direct":
                driver = DirectEthDriver(eth_latency_ps=self.eth_latency_ps)
                host = self._make_host(name, addr, choice, driver, seed)
                sim.add(host)
                net_end = ChannelEnd(f"net:{name}", latency=self.eth_latency_ps)
                net.bind_external_to_end(name, net_end)
                sim.connect(driver.eth, net_end)
                model_channels.append(
                    ModelChannel(host.name, net.name, self.eth_latency_ps))
            else:
                driver = I40eDriver(pci_latency_ps=self.pci_latency_ps)
                host = self._make_host(name, addr, choice, driver, seed)
                nic = I40eNic(f"{name}.nic", line_rate_bps=link_bw,
                              eth_latency_ps=self.eth_latency_ps,
                              pci_latency_ps=self.pci_latency_ps,
                              phc_drift_ppm=choice.phc_drift_ppm, seed=seed)
                sim.add(host)
                sim.add(nic)
                sim.connect(driver.pci, nic.pci)
                net_end = ChannelEnd(f"net:{name}", latency=self.eth_latency_ps)
                net.bind_external_to_end(name, net_end)
                sim.connect(nic.eth, net_end)
                nics[name] = nic
                model_channels.append(
                    ModelChannel(host.name, nic.name, self.pci_latency_ps))
                model_channels.append(
                    ModelChannel(nic.name, net.name, self.eth_latency_ps))
            for factory in choice.app_factories:
                host.add_app(factory(host.os))
            hosts[name] = host

        exp = Experiment(system, sim, nb, hosts, nics, model_channels)
        if phase_tracer is not None:
            from ..obs.trace import PhaseClock
            exp.phase_tracer = phase_tracer
            exp.phases = PhaseClock(phase_tracer)
            exp.enable_tracing(self.trace_capacity,
                               self.trace_interval_rounds)
            if self.flow_sample is not None:
                exp.enable_flow_tracing(self.flow_sample)
            phase_tracer.span(phase_tracer.tid("phases"), "phase", "build",
                              build_start_us,
                              phase_tracer.wall_us() - build_start_us,
                              {"components": len(sim.components),
                               "channels": len(sim.channels)})
        if self.profile:
            sampler = StrictModeSampler(sim.components,
                                        interval=self.profile_interval_rounds)
            sim.observers.append(sampler)
            exp.sampler = sampler
        if self.timeline:
            exp.enable_timeline(self.timeline_interval_rounds)
        if self.audit:
            exp.enable_audit(self.audit_window_ps)
        if self.transparent_clocks:
            exp.install_transparent_clocks()
        return exp

    def _make_host(self, name: str, addr: int, choice, driver,
                   seed: int) -> HostSim:
        maker = gem5_host if choice.simulator == "gem5" else qemu_host
        return maker(f"{name}.host", addr, seed=seed,
                     freq_ghz=choice.freq_ghz,
                     clock_drift_ppm=choice.clock_drift_ppm, driver=driver)
