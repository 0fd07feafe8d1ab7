"""Routing: global forwarding-table computation over a topology spec.

Forwarding tables are computed on the abstract topology graph, so they are
identical however the network is partitioned across simulator processes.
Every switch gets *all* of its shortest-path next hops toward each host,
which enables ECMP in multi-path fabrics such as fat trees.

One BFS serves all the hosts behind one attachment switch.  A *leaf* host
has exactly one link, and it goes to a switch S.  Every path to the host
ends with S -> host, so for any other switch X the shortest-path next hops
toward the host are X's next hops toward S, and S's only next hop is the
host itself.  :func:`compute_fib` therefore runs one BFS per attachment
switch, plus one per host that is not a leaf (multi-homed, linked to
another host, or isolated), instead of one per host.

Next-hop sets are ``frozenset``\\ s, and they are shared: at a given switch,
every leaf host behind the same attachment switch maps to the same set
object.  Consumers may do per-set work (such as sorting ports) once per
distinct set instead of once per destination.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

import networkx as nx


def build_graph(switch_names: List[str], host_names: List[str],
                links: List[Tuple[str, str]]) -> nx.Graph:
    """Assemble the topology graph with node-kind annotations."""
    graph = nx.Graph()
    graph.add_nodes_from(switch_names, kind="switch")
    graph.add_nodes_from(host_names, kind="host")
    graph.add_edges_from(links)
    return graph


def _switch_next_hops(adj: Dict[str, List[str]], dst: str,
                      switches: Set[str]) -> Dict[str, FrozenSet[str]]:
    """For destination node ``dst``: switch -> its shortest-path next hops.

    BFS from the destination over every node (hosts may be transit); a
    neighbor at distance d-1 from a switch at distance d is a valid next
    hop, and all of them are kept.  Unreachable switches get no entry.
    """
    dist = {dst: 0}
    frontier = [dst]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for cur in frontier:
            for nb in adj[cur]:
                if nb not in dist:
                    dist[nb] = depth
                    reached.append(nb)
        frontier = reached
    return {
        node: frozenset(nb for nb in adj[node] if dist[nb] == d - 1)
        for node, d in dist.items() if d and node in switches
    }


def compute_fib(graph: nx.Graph, host_addr: Dict[str, int]
                ) -> Dict[str, Dict[int, FrozenSet[str]]]:
    """Full forwarding state: switch name -> {dst addr -> next-hop names}.

    Host names map to their addresses via ``host_addr``; only switches get
    FIB entries (hosts send everything out their single port).  Next-hop
    sets are shared across destinations (see the module docstring).
    """
    adj = {node: list(nbrs) for node, nbrs in graph.adj.items()}
    switches = {n for n, kind in graph.nodes(data="kind") if kind == "switch"}
    fib: Dict[str, Dict[int, FrozenSet[str]]] = {
        n: {} for n in adj if n in switches
    }
    #: attachment switch -> next hops of every other switch toward it
    behind: Dict[str, Dict[str, FrozenSet[str]]] = {}
    for host, addr in host_addr.items():
        nbrs = adj.get(host)
        if nbrs is None:
            raise KeyError(f"host {host!r} not in topology graph")
        if len(nbrs) == 1 and nbrs[0] in switches:
            via = nbrs[0]
            table = behind.get(via)
            if table is None:
                table = behind[via] = _switch_next_hops(adj, via, switches)
            fib[via][addr] = frozenset((host,))
        else:
            table = _switch_next_hops(adj, host, switches)
        for sw, hops in table.items():
            fib[sw][addr] = hops
    return fib
