"""Tests for global routing and the topology builders."""

from collections import deque
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.simtime import MS, US
from repro.netsim import routing, topology
from repro.netsim.routing import build_graph, compute_fib
from repro.netsim.topology import (TopoSpec, datacenter, dumbbell, fat_tree,
                                   instantiate, single_switch_rack)
from repro.parallel.simulation import Simulation


# -- reference oracle: one BFS per destination host ---------------------------

def oracle_next_hops(graph, dst):
    """For destination node ``dst``: node -> set of shortest-path next hops."""
    dist = {dst: 0}
    order = deque([dst])
    while order:
        cur = order.popleft()
        for nb in graph.neighbors(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                order.append(nb)
    next_hops = {}
    for node, d in dist.items():
        if node == dst:
            continue
        hops = {nb for nb in graph.neighbors(node)
                if dist.get(nb, 1 << 30) == d - 1}
        if hops:
            next_hops[node] = hops
    return next_hops


def oracle_fib(graph, host_addr):
    """Switch -> {dst addr -> next hops}, by a BFS from every host."""
    fib = {n: {} for n, d in graph.nodes(data=True)
           if d.get("kind") == "switch"}
    for host, addr in host_addr.items():
        for node, hops in oracle_next_hops(graph, host).items():
            if node in fib:
                fib[node][addr] = hops
    return fib


def assert_same_fib(got, want):
    """Equal FIBs, with switches and destinations in the same order."""
    assert got == want
    assert list(got) == list(want)
    for sw in want:
        assert list(got[sw]) == list(want[sw]), sw


def spec_fib_inputs(spec):
    return spec.graph(), {h.name: h.addr for h in spec.hosts.values()}


BUILDERS = {
    "datacenter": lambda: datacenter(),
    "datacenter_ext": lambda: datacenter(external_hosts=2),
    "fat_tree8": lambda: fat_tree(k=8),
    "dumbbell": lambda: dumbbell(pairs=3, external_left=1),
    "rack": lambda: single_switch_rack(servers=2, clients=3,
                                       external_servers=True,
                                       external_clients=1),
}


@lru_cache(maxsize=None)
def builder_oracle_fib(builder):
    """The oracle's FIB for one builder (computed once per test session)."""
    return oracle_fib(*spec_fib_inputs(BUILDERS[builder]()))


@st.composite
def switch_host_graphs(draw):
    """Random switch/host graphs: leaf, multi-homed, host-linked, isolated.

    Sparse switch-switch links also leave disconnected components.
    """
    switches = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = [(a, b) for i, a in enumerate(switches) for b in switches[i + 1:]]
    links = list(draw(st.lists(st.sampled_from(pairs), unique=True))
                 if pairs else [])
    hosts = [f"h{i}" for i in range(draw(st.integers(0, 8)))]
    for i, host in enumerate(hosts):
        kind = draw(st.sampled_from(("leaf", "multi", "host", "isolated")))
        if kind == "leaf":
            links.append((host, draw(st.sampled_from(switches))))
        elif kind == "multi":
            for sw in draw(st.lists(st.sampled_from(switches), min_size=1,
                                    max_size=3, unique=True)):
                links.append((host, sw))
        elif kind == "host" and i > 0:
            links.append((host, draw(st.sampled_from(hosts[:i]))))
            if draw(st.booleans()):
                links.append((host, draw(st.sampled_from(switches))))
    order = draw(st.permutations(hosts))
    host_addr = {h: 10 + i for i, h in enumerate(order)}
    return build_graph(switches, hosts, links), host_addr


@settings(max_examples=300, deadline=None)
@given(switch_host_graphs())
def test_fib_matches_per_host_oracle_on_random_graphs(case):
    graph, host_addr = case
    assert_same_fib(compute_fib(graph, host_addr),
                    oracle_fib(graph, host_addr))


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_fib_matches_per_host_oracle_on_builders(builder):
    graph, host_addr = spec_fib_inputs(BUILDERS[builder]())
    assert_same_fib(compute_fib(graph, host_addr), builder_oracle_fib(builder))


def test_fib_shares_next_hop_sets_behind_one_switch():
    spec = datacenter(aggs=2, racks_per_agg=2, hosts_per_rack=3)
    fib = spec.fib()
    behind = [spec.addr_of(f"a1r0h{h}") for h in range(3)]
    for sw in ("core", "agg0", "a0r0tor", "a1r1tor"):
        sets = [fib[sw][addr] for addr in behind]
        assert all(isinstance(s, frozenset) for s in sets)
        assert all(s is sets[0] for s in sets), sw
    assert fib["a1r0tor"][behind[0]] == {"a1r0h0"}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_install_fib_port_lists_match_oracle(builder, monkeypatch):
    """Switches get the oracle's ECMP ports, sorted by next-hop name."""
    spec = BUILDERS[builder]()
    seen = {}
    real_install = topology._install_fib

    def spy(spec_, switch_net, port_map):
        seen["port_map"] = port_map
        real_install(spec_, switch_net, port_map)

    monkeypatch.setattr(topology, "_install_fib", spy)
    build = instantiate(spec)
    port_map = seen["port_map"]
    for sw, routes in builder_oracle_fib(builder).items():
        want = {addr: [port_map[(sw, hop)] for hop in sorted(hops)]
                for addr, hops in routes.items()}
        got = build.net.nodes[sw].fib
        assert list(got) == list(want), sw
        for addr, ports in want.items():
            assert len(got[addr]) == len(ports)
            assert all(a is b for a, b in zip(got[addr], ports)), (sw, addr)


def _counting_bfs(monkeypatch):
    dsts = []
    real = routing._switch_next_hops

    def counted(adj, dst, switches):
        dsts.append(dst)
        return real(adj, dst, switches)

    monkeypatch.setattr(routing, "_switch_next_hops", counted)
    return dsts


def test_fib_runs_one_bfs_per_attachment_switch(monkeypatch):
    """A return to one BFS per host (960 here) fails on the count."""
    spec = datacenter(4, 6, 40, external_hosts=2)
    dsts = _counting_bfs(monkeypatch)
    spec.fib()
    tors = [n for n in spec.switches if n.endswith("tor")]
    assert len(tors) == 24
    assert sorted(dsts) == sorted(tors)


def test_fib_runs_one_extra_bfs_per_non_leaf_host(monkeypatch):
    spec = datacenter(2, 2, 4)
    spec.add_host("multi")
    spec.add_link("multi", "a0r0tor", 1e9, 1000)
    spec.add_link("multi", "a1r1tor", 1e9, 1000)
    spec.add_host("lonely")
    spec.add_host("stub")
    spec.add_link("stub", "a0r0h0", 1e9, 1000)
    dsts = _counting_bfs(monkeypatch)
    fib = spec.fib()
    tors = [n for n in spec.switches if n.endswith("tor")]
    # a0r0h0 is no longer a leaf once "stub" hangs off it
    non_leaf = ["a0r0h0", "lonely", "multi", "stub"]
    assert sorted(dsts) == sorted(tors + non_leaf)
    assert_same_fib(fib, oracle_fib(*spec_fib_inputs(spec)))


def test_next_hops_on_line():
    g = build_graph(["s1", "s2"], ["a", "b"],
                    [("a", "s1"), ("s1", "s2"), ("s2", "b")])
    fib = compute_fib(g, {"a": 1, "b": 2})
    assert fib["s1"][2] == {"s2"}
    assert fib["s2"][2] == {"b"}
    assert fib["s1"][1] == {"a"}
    assert fib["s2"][1] == {"s1"}


def test_fib_rejects_unknown_host():
    g = build_graph(["s1"], ["a"], [("a", "s1")])
    with pytest.raises(KeyError):
        compute_fib(g, {"a": 1, "ghost": 2})


def test_fib_covers_all_switch_dst_pairs():
    spec = fat_tree(k=4)
    fib = spec.fib()
    addrs = {h.addr for h in spec.hosts.values()}
    for sw, routes in fib.items():
        assert set(routes) == addrs


def test_fat_tree_dimensions():
    spec = fat_tree(k=8)
    assert len(spec.hosts) == 128          # k^3/4
    assert len(spec.switches) == 80        # 16 core + 32 agg + 32 edge
    with pytest.raises(ValueError):
        fat_tree(k=5)


def test_fat_tree_ecmp_multipath():
    spec = fat_tree(k=4)
    fib = spec.fib()
    # an edge switch reaching a remote pod has multiple equal next hops
    edge = "p0edge0"
    remote = spec.addr_of("p3e1h1")
    assert len(fib[edge][remote]) > 1


def test_datacenter_dimensions_paper_scale():
    spec = datacenter()  # defaults mirror the 1200-host study
    hosts = len(spec.hosts)
    switches = len(spec.switches)
    assert hosts == 4 * 6 * 40
    assert switches == 1 + 4 + 24


def test_datacenter_external_hosts_marked():
    spec = datacenter(aggs=2, racks_per_agg=2, hosts_per_rack=4,
                      external_hosts=3)
    ext = [h for h in spec.hosts.values() if h.external]
    assert len(ext) == 3


def test_dumbbell_shape_and_ecn_config():
    spec = dumbbell(pairs=3, ecn_threshold_pkts=20)
    assert len(spec.hosts) == 6
    assert len(spec.switches) == 2
    bottleneck = [l for l in spec.links if {l.a, l.b} == {"swL", "swR"}]
    assert bottleneck[0].ecn_threshold_pkts == 20


def test_single_switch_rack_externals():
    spec = single_switch_rack(servers=2, clients=3, external_servers=True,
                              external_clients=1)
    ext = {h.name for h in spec.hosts.values() if h.external}
    assert ext == {"server0", "server1", "client0"}


def test_spec_validation_errors():
    spec = TopoSpec()
    spec.add_host("h")
    with pytest.raises(ValueError):
        spec.add_host("h")
    with pytest.raises(KeyError):
        spec.add_link("h", "nope", 1e9, 1000)
    spec.hosts["h"].external = True
    with pytest.raises(ValueError):
        spec.on_host("h", lambda h: None)


def test_instantiate_routes_end_to_end():
    """Any host pair in a fat tree can exchange a datagram."""
    spec = fat_tree(k=4)
    build = instantiate(spec)
    sim = Simulation(mode="fast")
    sim.add(build.net)
    src = build.host("p0e0h0")
    dst_name = "p3e1h1"
    dst_addr = spec.addr_of(dst_name)
    got = []
    build.host(dst_name).stack.udp_socket(9, lambda pkt: got.append(pkt.src))
    sock = src.stack.udp_socket(8)
    build.net.schedule(0, lambda: sock.sendto(dst_addr, 9, 100))
    sim.run(1 * MS)
    assert got == [spec.addr_of("p0e0h0")]


def test_instantiate_both_external_endpoints_rejected():
    spec = TopoSpec()
    spec.add_host("a", external=True)
    spec.add_host("b", external=True)
    spec.add_link("a", "b", 1e9, 1000)
    with pytest.raises(ValueError):
        instantiate(spec)
