"""The benchmark's workloads: fixed-size simulations built from a seed.

Every builder here is owned by the benchmark, not by ``src/repro``, so a
change to the simulator cannot change what the benchmark feeds it.  Each
workload is one batch simulation of a fixed simulated duration: a closed
loop with no external request load.  The seed drives the ``System`` seed
(per-host RNG streams) and the shuffle that picks background pairs.

``dc_strict``
    The Fig. 9 datacenter at paper dimensions (4 aggs x 6 racks x 40
    hosts = 960 hosts).  Two qemu hosts behind i40e NICs run closed-loop
    KV; seeded NewReno bulk pairs run in the background.  In-process
    strict sync with the epoch timeline and audit ledger on.
``dc_mp2``
    The same topology and background pairs with protocol-level hosts
    only: a KV server in the agg0 block and three clients in the agg1
    block.  The network is split two ways by a fixed switch assignment
    and run as two OS processes over shared-memory rings.
``dctcp_fluid``
    The Fig. 6 dumbbell: four long finite DCTCP transfers through one
    ECN bottleneck, run in fast mode with the fluid flow-level tier.
"""

from __future__ import annotations

import random
import re
from typing import Dict

from repro.kernel.simtime import MS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.fidelity import FidelityConfig
from repro.netsim.topology import datacenter, dumbbell
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9

#: Seed kept out of tuning and pinned with the others; a later claim of a
#: gain must also hold on it.
HELD_OUT_SEED = 7919

#: Paper dimensions of the Fig. 9 / clock-sync datacenter (960 hosts).
DC_DIMS = dict(aggs=4, racks_per_agg=6, hosts_per_rack=40)
DC_BG_PAIRS = 16
DC_STRICT_SIM_PS = 6 * MS
DC_MP2_SIM_PS = 6 * MS
#: Work-recording window for the traced dc_mp2 model input.
MODEL_WINDOW_PS = 50 * US

DCTCP_FLOWS = 4
DCTCP_BYTES = 512 << 20
#: Seeded start times fall in [0, DCTCP_START_US) us.  Sizes stay fixed:
#: seeded sizes moved the event count by +-5% from seed to seed.
DCTCP_START_US = 2000
DCTCP_K = 15
DCTCP_SIM_PS = 2000 * MS

MP2_SERVER = "a0r0h1"
MP2_CLIENTS = ("a1r0h1", "a1r2h1", "a1r4h1")

#: Hosts never drawn as background: dc_strict's two detailed hosts (the
#: first host of the first two racks) and dc_mp2's KV hosts.  Excluding
#: the same set in both gives both workloads the same background pairs.
RESERVED = frozenset({"a0r0h0", "a0r1h0", MP2_SERVER, *MP2_CLIENTS})

_BLOCK = re.compile(r"^(?:agg(\d+)|a(\d+)r\d+tor)$")


def _add_background(system: System, seed: int, pairs: int) -> None:
    """Seeded NewReno bulk pairs among the idle protocol-level hosts.

    The seed picks the hosts and start times; the block pattern is fixed
    so that every seed offers the same load.  Pair ``i`` goes from agg
    block ``i % 4`` to block ``(i + i // 4) % 4``: every block sources and
    sinks the same number of pairs, and half of the pairs cross dc_mp2's
    partition (odd block offsets).
    """
    aggs = DC_DIMS["aggs"]
    rng = random.Random(seed)
    blocks = [[h for h in system.hosts
               if h.startswith(f"a{a}r") and h not in RESERVED]
              for a in range(aggs)]
    for hosts in blocks:
        rng.shuffle(hosts)
    for i in range(pairs):
        src = blocks[i % aggs].pop()
        dst = blocks[(i + i // aggs) % aggs].pop()
        system.app(dst, lambda h: BulkSink(port=5001))
        addr = system.addr_of(dst)
        delay = rng.randrange(800) * US
        system.app(src, lambda h, a=addr, d=delay: BulkSender(
            a, 5001, variant="newreno", total_bytes=1 << 20,
            start_delay_ps=d))


def build_dc_strict_system(seed: int) -> System:
    """960-host datacenter, two qemu KV hosts, seeded background pairs."""
    spec = datacenter(core_bw=40 * GBPS, agg_bw=40 * GBPS,
                      host_bw=10 * GBPS, external_hosts=2, **DC_DIMS)
    system = System.from_topospec(spec, seed=seed)
    server, client = system.detailed_hosts()
    system.app(server, lambda h: KVServerApp())
    addr = system.addr_of(server)
    system.app(client, lambda h: KVClientApp([addr], closed_loop_window=8))
    _add_background(system, seed, DC_BG_PAIRS)
    return system


def build_dc_mp2_system(seed: int) -> System:
    """The same datacenter with protocol-level hosts only."""
    spec = datacenter(core_bw=40 * GBPS, agg_bw=40 * GBPS,
                      host_bw=10 * GBPS, **DC_DIMS)
    system = System.from_topospec(spec, seed=seed)
    system.app(MP2_SERVER, lambda h: KVServerApp())
    addr = system.addr_of(MP2_SERVER)
    for client in MP2_CLIENTS:
        system.app(client, lambda h: KVClientApp([addr],
                                                 closed_loop_window=4))
    _add_background(system, seed, DC_BG_PAIRS)
    return system


def mp2_partition(spec) -> Dict[str, str]:
    """Fixed two-way switch assignment: core + even agg blocks | odd ones.

    The KV server sits in block 0 and its clients in block 1, so every
    request and reply crosses the trunk between the two halves.
    """
    out = {}
    for name in spec.switches:
        m = _BLOCK.match(name)
        block = int(m.group(1) or m.group(2)) if m else 0
        out[name] = "a" if block % 2 == 0 else "b"
    return out


def build_dctcp_fluid_system(seed: int) -> System:
    """Fig. 6 dumbbell with long finite DCTCP transfers, seeded starts."""
    system = System.from_topospec(
        dumbbell(pairs=DCTCP_FLOWS, ecn_threshold_pkts=DCTCP_K), seed=seed)
    rng = random.Random(seed)
    for i in range(DCTCP_FLOWS):
        dst = system.addr_of(f"rcv{i}")
        delay = rng.randrange(DCTCP_START_US) * US
        system.app(f"rcv{i}", lambda h: BulkSink(variant="dctcp"))
        system.app(f"snd{i}", lambda h, a=dst, d=delay: BulkSender(
            a, total_bytes=DCTCP_BYTES, variant="dctcp", start_delay_ps=d))
    return system


# -- instantiations -----------------------------------------------------------
#
# Each ``instantiate_*`` returns ``(experiment, duration_ps)`` ready to run.
# ``oracle=True`` builds the reference run in the other execution mode,
# whose fingerprint is the pin for the seed.

def instantiate_dc_strict(seed: int, oracle: bool = False):
    system = build_dc_strict_system(seed)
    if oracle:
        inst = Instantiation(system, mode="fast", audit=True)
    else:
        inst = Instantiation(system, mode="strict", timeline=True, audit=True)
    return inst.build(), DC_STRICT_SIM_PS


def instantiate_dc_mp2(seed: int, work_window_ps=None):
    """The two-way partitioned system; ``run_mp`` runs it as two processes
    and ``run`` in process under strict sync (its oracle)."""
    system = build_dc_mp2_system(seed)
    inst = Instantiation(system, mode="strict",
                         network_partition=mp2_partition,
                         work_window_ps=work_window_ps)
    return inst.build(), DC_MP2_SIM_PS


def instantiate_dctcp_fluid(seed: int, oracle: bool = False):
    system = build_dctcp_fluid_system(seed)
    inst = Instantiation(system, mode="strict" if oracle else "fast",
                         fidelity=FidelityConfig(fluid=True))
    return inst.build(), DCTCP_SIM_PS


INSTANTIATE = {
    "dc_strict": instantiate_dc_strict,
    "dc_mp2": instantiate_dc_mp2,
    "dctcp_fluid": instantiate_dctcp_fluid,
}

DURATION_PS = {
    "dc_strict": DC_STRICT_SIM_PS,
    "dc_mp2": DC_MP2_SIM_PS,
    "dctcp_fluid": DCTCP_SIM_PS,
}
