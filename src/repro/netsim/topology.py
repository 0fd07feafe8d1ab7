"""Abstract topology specifications and their instantiation.

A :class:`TopoSpec` describes hosts, switches, and links independent of how
they will be simulated.  The same spec can be instantiated as one
:class:`~repro.netsim.network.NetworkSim` (:func:`instantiate`) or split
across several synchronized ones (:mod:`repro.netsim.partition`) — with
identical timing, since routing is computed globally and cut links keep
their latency/bandwidth through the channel plumbing.

Hosts marked ``external`` are *not* simulated here: their attachment point
becomes an :class:`~repro.netsim.network.ExternalAttachment` to be bound to
a detailed host/NIC simulator.  This is the mechanism behind mixed-fidelity
simulation.

Builders for the paper's topologies live at the bottom: dumbbell (congestion
control), single-switch rack (NetCache/Pegasus), fat-tree (DONS FatTree8
comparison), and the 1200-host datacenter used by the clock-sync study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from ..kernel.simtime import US, NS
from .network import ExternalAttachment, NetworkSim
from .routing import build_graph, compute_fib

GBPS = 1e9
DEFAULT_QUEUE_BYTES = 512 * 1024


@dataclass
class HostSpec:
    """A host in the abstract topology (``external`` = detailed host)."""

    name: str
    addr: int
    external: bool = False
    rx_proc_delay_ps: int = 0
    #: apps attached at instantiation time: callables (host) -> app
    app_factories: List[Callable] = field(default_factory=list)


@dataclass
class SwitchSpec:
    """A switch in the abstract topology, with an optional pipeline."""

    name: str
    proc_delay_ps: Optional[int] = None
    #: callable (switch) -> Pipeline instance, or None
    pipeline_factory: Optional[Callable] = None


@dataclass
class LinkSpec:
    """A bidirectional link with bandwidth, latency, and queue settings."""

    a: str
    b: str
    bandwidth_bps: float
    latency_ps: int
    queue_capacity_bytes: int = DEFAULT_QUEUE_BYTES
    ecn_threshold_pkts: Optional[int] = None

    def endpoints(self) -> Tuple[str, str]:
        """The two node names this link joins."""
        return (self.a, self.b)


class TopoSpec:
    """A simulator-independent description of a network."""

    def __init__(self) -> None:
        self.hosts: Dict[str, HostSpec] = {}
        self.switches: Dict[str, SwitchSpec] = {}
        self.links: List[LinkSpec] = []
        self._next_addr = count(1)

    # -- assembly ------------------------------------------------------------

    def add_host(self, name: str, external: bool = False,
                 rx_proc_delay_ps: int = 0) -> HostSpec:
        """Declare a host; addresses are assigned sequentially."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        spec = HostSpec(name, addr=next(self._next_addr), external=external,
                        rx_proc_delay_ps=rx_proc_delay_ps)
        self.hosts[name] = spec
        return spec

    def add_switch(self, name: str, proc_delay_ps: Optional[int] = None,
                   pipeline_factory: Optional[Callable] = None) -> SwitchSpec:
        """Declare a switch; ``pipeline_factory(switch)`` adds in-network logic."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        spec = SwitchSpec(name, proc_delay_ps, pipeline_factory)
        self.switches[name] = spec
        return spec

    def add_link(self, a: str, b: str, bandwidth_bps: float,
                 latency_ps: int, **kwargs) -> LinkSpec:
        """Join two declared nodes with a link."""
        for n in (a, b):
            if n not in self.hosts and n not in self.switches:
                raise KeyError(f"unknown node {n!r}")
        link = LinkSpec(a, b, bandwidth_bps, latency_ps, **kwargs)
        self.links.append(link)
        return link

    def on_host(self, name: str, app_factory: Callable) -> None:
        """Attach an application factory to a (non-external) host."""
        spec = self.hosts[name]
        if spec.external:
            raise ValueError(f"{name} is external; configure its host simulator")
        spec.app_factories.append(app_factory)

    # -- derived data -----------------------------------------------------------

    def addr_of(self, host: str) -> int:
        """Network address assigned to a declared host."""
        return self.hosts[host].addr

    def graph(self) -> nx.Graph:
        """The topology as a networkx graph (for routing and analysis)."""
        return build_graph(
            list(self.switches), list(self.hosts),
            [l.endpoints() for l in self.links],
        )

    def fib(self) -> Dict[str, Dict[int, FrozenSet[str]]]:
        """Globally computed forwarding state for every switch.

        Next-hop sets are shared frozensets (see :mod:`.routing`).
        """
        return compute_fib(self.graph(),
                           {h.name: h.addr for h in self.hosts.values()})


@dataclass
class NetBuild:
    """Result of instantiating a topology into one NetworkSim."""

    net: NetworkSim
    spec: TopoSpec
    #: external host name -> attachment (bind to a NIC channel end)
    attachments: Dict[str, ExternalAttachment]

    def host(self, name: str):
        """Look up an instantiated (protocol-level) host by name."""
        return self.net.nodes[name]


def instantiate(spec: TopoSpec, name: str = "net", flavor: str = "ns3",
                seed: int = 0) -> NetBuild:
    """Build the whole topology inside a single NetworkSim component."""
    net = NetworkSim(name, flavor=flavor, seed=seed)
    attachments: Dict[str, ExternalAttachment] = {}

    for sw in spec.switches.values():
        switch = net.add_switch(sw.name, sw.proc_delay_ps)
        if sw.pipeline_factory is not None:
            switch.pipeline = sw.pipeline_factory(switch)
    for hs in spec.hosts.values():
        if not hs.external:
            net.add_host(hs.name, hs.addr, hs.rx_proc_delay_ps)

    port_map: Dict[Tuple[str, str], object] = {}
    for ls in spec.links:
        ext_a = spec.hosts.get(ls.a) is not None and spec.hosts[ls.a].external
        ext_b = spec.hosts.get(ls.b) is not None and spec.hosts[ls.b].external
        if ext_a and ext_b:
            raise ValueError(f"link {ls.a}-{ls.b}: both endpoints external")
        if ext_a or ext_b:
            inside, outside = (ls.b, ls.a) if ext_a else (ls.a, ls.b)
            att = net.add_external(
                outside, net.nodes[inside], ls.bandwidth_bps,
                ls.queue_capacity_bytes, ls.ecn_threshold_pkts)
            attachments[outside] = att
            port_map[(inside, outside)] = att.port
        else:
            link = net.add_link(
                net.nodes[ls.a], net.nodes[ls.b], ls.bandwidth_bps,
                ls.latency_ps, ls.queue_capacity_bytes, ls.ecn_threshold_pkts)
            # ECN marking is a switch-egress feature; host egress queues
            # (the a->b queue when a is a host) never mark, as on Linux.
            if ls.a in spec.hosts:
                link.dir_ab.queue.ecn_threshold_pkts = None
            if ls.b in spec.hosts:
                link.dir_ba.queue.ecn_threshold_pkts = None
            port_map[(ls.a, ls.b)] = link.port_a
            port_map[(ls.b, ls.a)] = link.port_b

    _install_fib(spec, {n: net for n in spec.switches}, port_map)

    for hs in spec.hosts.values():
        if not hs.external:
            host = net.nodes[hs.name]
            for factory in hs.app_factories:
                host.add_app(factory(host))
    return NetBuild(net=net, spec=spec, attachments=attachments)


def _install_fib(spec: TopoSpec, switch_net: Dict[str, NetworkSim],
                 port_map: Dict[Tuple[str, str], object]) -> None:
    """Install globally-computed routes into instantiated switches.

    ECMP ports go in sorted next-hop order.  The FIB shares one next-hop
    set across many destinations, so each distinct set is resolved to its
    port list once per switch.
    """
    fib = spec.fib()
    for sw_name, routes in fib.items():
        net = switch_net.get(sw_name)
        if net is None:
            continue
        switch = net.nodes[sw_name]
        ports_of: Dict[FrozenSet[str], List[object]] = {}
        for addr, next_hops in routes.items():
            ports = ports_of.get(next_hops)
            if ports is None:
                ports = ports_of[next_hops] = []
                for hop in sorted(next_hops):
                    port = port_map.get((sw_name, hop))
                    if port is None:
                        raise RuntimeError(f"no port for {sw_name} -> {hop}")
                    ports.append(port)
            for port in ports:
                switch.add_route(addr, port)


# --------------------------------------------------------------------------
# Topology builders used across the paper's experiments.
# --------------------------------------------------------------------------

def dumbbell(spec: Optional[TopoSpec] = None, pairs: int = 2,
             edge_bw: float = 10 * GBPS, bottleneck_bw: float = 10 * GBPS,
             edge_latency_ps: int = 1 * US, bottleneck_latency_ps: int = 2 * US,
             ecn_threshold_pkts: Optional[int] = None,
             external_left: int = 0) -> TopoSpec:
    """Dumbbell: N senders -- swL -- bottleneck -- swR -- N receivers.

    ``external_left``: how many of the senders (and matching receivers) are
    detailed (external) hosts — the mixed-fidelity knob of Fig. 6.
    """
    spec = spec or TopoSpec()
    spec.add_switch("swL")
    spec.add_switch("swR")
    spec.add_link("swL", "swR", bottleneck_bw, bottleneck_latency_ps,
                  ecn_threshold_pkts=ecn_threshold_pkts)
    for i in range(pairs):
        ext = i < external_left
        spec.add_host(f"snd{i}", external=ext)
        spec.add_host(f"rcv{i}", external=ext)
        spec.add_link(f"snd{i}", "swL", edge_bw, edge_latency_ps,
                      ecn_threshold_pkts=ecn_threshold_pkts)
        spec.add_link(f"rcv{i}", "swR", edge_bw, edge_latency_ps,
                      ecn_threshold_pkts=ecn_threshold_pkts)
    return spec


def single_switch_rack(servers: int, clients: int,
                       bw: float = 10 * GBPS, latency_ps: int = 1 * US,
                       external_servers: bool = False,
                       external_clients: int = 0,
                       pipeline_factory: Optional[Callable] = None) -> TopoSpec:
    """The NetCache/Pegasus setup: servers and clients on one switch."""
    spec = TopoSpec()
    spec.add_switch("tor", pipeline_factory=pipeline_factory)
    for i in range(servers):
        spec.add_host(f"server{i}", external=external_servers)
        spec.add_link(f"server{i}", "tor", bw, latency_ps)
    for i in range(clients):
        spec.add_host(f"client{i}", external=i < external_clients)
        spec.add_link(f"client{i}", "tor", bw, latency_ps)
    return spec


def fat_tree(k: int = 8, bw: float = 10 * GBPS,
             latency_ps: int = 1 * US) -> TopoSpec:
    """Standard k-ary fat tree: (k/2)^2 cores, k pods, k^3/4 hosts.

    ``k=8`` gives the 128-server FatTree8 used in the DONS comparison
    (Fig. 8).
    """
    if k % 2:
        raise ValueError("k must be even")
    spec = TopoSpec()
    half = k // 2
    cores = [spec.add_switch(f"core{i}") for i in range(half * half)]
    for pod in range(k):
        aggs = [spec.add_switch(f"p{pod}agg{i}") for i in range(half)]
        edges = [spec.add_switch(f"p{pod}edge{i}") for i in range(half)]
        for ai, agg in enumerate(aggs):
            for ei in range(half):
                spec.add_link(agg.name, edges[ei].name, bw, latency_ps)
            for ci in range(half):
                core = cores[ai * half + ci]
                spec.add_link(agg.name, core.name, bw, latency_ps)
        for ei, edge in enumerate(edges):
            for hi in range(half):
                host = spec.add_host(f"p{pod}e{ei}h{hi}")
                spec.add_link(host.name, edge.name, bw, latency_ps)
    return spec


def datacenter(aggs: int = 4, racks_per_agg: int = 6, hosts_per_rack: int = 40,
               core_bw: float = 100 * GBPS, agg_bw: float = 100 * GBPS,
               host_bw: float = 10 * GBPS,
               link_latency_ps: int = 1 * US,
               external_hosts: int = 0,
               tor_pipeline_factory: Optional[Callable] = None) -> TopoSpec:
    """The clock-sync study's topology: core -> aggregation -> ToR -> hosts.

    Default dimensions (4 aggs x 6 racks x 40 hosts = 960 background hosts
    plus externals) mirror the paper's 1200-host network; scaled-down
    variants just pass smaller numbers.  ``external_hosts`` reserves the
    first hosts (round-robin across racks) as detailed-host attachment
    points.  ``tor_pipeline_factory``, when given, installs a pipeline on
    every switch (e.g. PTP transparent clocks).
    """
    spec = TopoSpec()
    spec.add_switch("core", pipeline_factory=tor_pipeline_factory)
    ext_left = external_hosts
    for a in range(aggs):
        agg = spec.add_switch(f"agg{a}", pipeline_factory=tor_pipeline_factory)
        spec.add_link("core", agg.name, core_bw, link_latency_ps)
        for r in range(racks_per_agg):
            tor = spec.add_switch(f"a{a}r{r}tor",
                                  pipeline_factory=tor_pipeline_factory)
            spec.add_link(agg.name, tor.name, agg_bw, link_latency_ps)
            for h in range(hosts_per_rack):
                ext = ext_left > 0 and h == 0 and (a * racks_per_agg + r) < external_hosts
                if ext:
                    ext_left -= 1
                host = spec.add_host(f"a{a}r{r}h{h}", external=ext)
                spec.add_link(host.name, tor.name, host_bw, link_latency_ps)
    return spec
