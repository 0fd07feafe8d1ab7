"""Wire codec round-trip properties and fallback behaviour.

The core invariant: ``decode(encode(msg, promise))`` reconstructs an equal
message and the exact promise for *every* message class — via the struct
fast path for in-range values and transparently via the pickle fallback
otherwise.  ``Packet`` is a ``__slots__`` class without ``__eq__``, so
equality is checked field by field (:func:`msgs_equal`); everything else
uses dataclass equality, which covers every field.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.channels import wire
from repro.channels.messages import (DmaCompletionMsg, DmaReadMsg,
                                     DmaWriteMsg, EthMsg, InterruptMsg,
                                     MemInvalidateMsg, MemReadMsg,
                                     MemRespMsg, MemWriteMsg, MmioMsg,
                                     MmioRespMsg, Msg, RawMsg, SyncMsg,
                                     TrunkMsg)
from repro.netsim.packet import Packet

u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
u16 = st.integers(min_value=0, max_value=2**16 - 1)
small_bytes = st.binary(max_size=64)
payloads = st.one_of(st.none(), small_bytes,
                     st.integers(), st.text(max_size=16),
                     st.tuples(st.integers(), st.text(max_size=8)))

_PKT_FIELDS = ("src", "dst", "size_bytes", "proto", "src_port", "dst_port",
               "seq", "ack", "flags", "wnd", "data_len", "ect", "ce", "ece",
               "residence_ps", "arrival_ts", "payload", "create_ts", "hops",
               "uid", "flow")


def packets_equal(a, b):
    if a is None or b is None:
        return a is b
    return all(getattr(a, f) == getattr(b, f) for f in _PKT_FIELDS)


def msgs_equal(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, EthMsg):
        return ((a.stamp, a.seq, a.flow, a.hop)
                == (b.stamp, b.seq, b.flow, b.hop)
                and packets_equal(a.packet, b.packet))
    if isinstance(a, TrunkMsg):
        return ((a.stamp, a.seq, a.flow, a.hop, a.subchannel)
                == (b.stamp, b.seq, b.flow, b.hop, b.subchannel)
                and (a.inner is b.inner is None
                     or msgs_equal(a.inner, b.inner)))
    return a == b


def packets():
    return st.builds(
        Packet,
        src=u64, dst=u64, size_bytes=u32,
        proto=st.sampled_from(["", "udp", "tcp", "raw"]),
        src_port=u16, dst_port=u16, seq=u64, ack=u64,
        flags=st.sampled_from(["", "S", "SA", "F"]),
        wnd=u32, data_len=u32, ect=st.booleans(), ce=st.booleans(),
        ece=st.booleans(), residence_ps=u64, arrival_ts=u64,
        payload=payloads, create_ts=u64, hops=u16, uid=u64, flow=u64,
    )


def messages():
    base = {"stamp": u64, "seq": u64, "flow": u64, "hop": u16}
    return st.one_of(
        st.builds(Msg, **base),
        st.builds(SyncMsg, **base),
        st.builds(EthMsg, packet=st.one_of(st.none(), packets()), **base),
        st.builds(MmioMsg, addr=u64, value=u64, is_write=st.booleans(),
                  req_id=u32, **base),
        st.builds(MmioRespMsg, value=u64, req_id=u32, **base),
        st.builds(DmaReadMsg, addr=u64, length=u32, req_id=u32, **base),
        st.builds(DmaWriteMsg, addr=u64, data=st.one_of(st.none(),
                                                        small_bytes),
                  length=u32, req_id=u32, **base),
        st.builds(DmaCompletionMsg, data=st.one_of(st.none(), small_bytes),
                  length=u32, req_id=u32, **base),
        st.builds(InterruptMsg, vector=u32, **base),
        st.builds(MemReadMsg, addr=u64, length=u32, req_id=u32, **base),
        st.builds(MemWriteMsg, addr=u64, length=u32, req_id=u32,
                  data=st.one_of(st.none(), small_bytes), **base),
        st.builds(MemRespMsg, req_id=u32, data=st.one_of(st.none(),
                                                         small_bytes),
                  is_write=st.booleans(), **base),
        st.builds(MemInvalidateMsg, addr=u64, **base),
        st.builds(TrunkMsg, subchannel=u32,
                  inner=st.one_of(st.none(),
                                  st.builds(MmioMsg, addr=u64, value=u64,
                                            is_write=st.booleans(),
                                            req_id=u32, **base)),
                  **base),
        st.builds(RawMsg, payload=payloads, **base),
    )


@settings(max_examples=200, deadline=None)
@given(msg=messages(), promise=u64)
def test_roundtrip_every_class(msg, promise):
    out, p = wire.decode(wire.encode(msg, promise))
    assert msgs_equal(out, msg)
    assert p == promise


@settings(max_examples=50, deadline=None)
@given(msg=messages(), promise=u64)
def test_roundtrip_codec_disabled(msg, promise):
    wire.set_codec_enabled(False)
    try:
        buf = wire.encode(msg, promise)
        assert buf[0] == wire.TAG_PICKLE
        out, p = wire.decode(buf)
    finally:
        wire.set_codec_enabled(True)
    assert msgs_equal(out, msg) and p == promise


def test_out_of_range_values_fall_back_to_pickle():
    wire.reset_stats()
    cases = [
        MmioMsg(stamp=5, addr=-1),                 # negative -> no u64 fit
        InterruptMsg(stamp=5, vector=2**40),       # too wide for u32
        MemReadMsg(stamp=2**70),                   # stamp overflows u64
    ]
    for msg in cases:
        buf = wire.encode(msg, 7)
        assert buf[0] == wire.TAG_PICKLE
        out, promise = wire.decode(buf)
        assert out == msg and promise == 7
    assert wire.stats()["msg_pickle_fallbacks"] == len(cases)


class CustomMsg(RawMsg):
    """User-defined message type with no registered codec."""


def test_unknown_subclass_falls_back_to_pickle():
    wire.reset_stats()
    unknown = CustomMsg(stamp=9, payload=b"x")
    buf = wire.encode(unknown, 11)
    assert buf[0] == wire.TAG_PICKLE
    out, promise = wire.decode(buf)
    assert type(out) is CustomMsg
    assert out == unknown and promise == 11
    assert wire.stats()["msg_pickle_fallbacks"] == 1


def test_tag_table_is_injective_and_stable():
    tags = list(wire.TAGS.values())
    assert len(set(tags)) == len(tags)
    assert wire.TAG_PICKLE not in tags
    assert all(0 < t < 0x100 for t in tags)
    # pinned: the tag table is wire format; renumbering breaks mixed-version
    # rings
    assert wire.TAGS[Msg] == 0x01
    assert wire.TAGS[SyncMsg] == 0x02
    assert wire.TAGS[EthMsg] == 0x03
    assert wire.TAGS[RawMsg] == 0x0F


def test_payload_pickle_counter():
    wire.reset_stats()
    wire.decode(wire.encode(RawMsg(payload=b"raw-bytes")))
    assert wire.stats()["payload_pickles"] == 0
    wire.decode(wire.encode(RawMsg(payload={"not": "bytes"})))
    assert wire.stats()["payload_pickles"] == 1


def test_eth_packet_struct_path_avoids_pickle():
    wire.reset_stats()
    pkt = Packet(src=1, dst=2, size_bytes=1500, proto="udp", src_port=10,
                 dst_port=20, payload=b"\x00" * 32)
    out, _ = wire.decode(wire.encode(EthMsg(stamp=3, packet=pkt)))
    s = wire.stats()
    assert s["msg_pickle_fallbacks"] == 0 and s["payload_pickles"] == 0
    got = out.packet
    assert (got.src, got.dst, got.size_bytes, got.proto, got.src_port,
            got.dst_port, got.payload) == (1, 2, 1500, "udp", 10, 20,
                                           b"\x00" * 32)


def test_nested_trunk_roundtrip():
    inner = EthMsg(stamp=4, packet=Packet(src=7, dst=8, size_bytes=64))
    msg = TrunkMsg(stamp=9, seq=2, subchannel=3, inner=inner)
    out, promise = wire.decode(wire.encode(msg, 123))
    assert promise == 123
    assert out.subchannel == 3
    assert type(out.inner) is EthMsg
    assert out.inner.packet.src == 7 and out.inner.packet.dst == 8


def test_sync_frame_is_compact():
    # a sync marker must stay far below pickle size:
    # header + stamp + seq + flow + hop
    frame = wire.encode(SyncMsg(stamp=10**12), promise=10**12)
    assert len(frame) == 9 + 26
    assert len(frame) < len(pickle.dumps(SyncMsg(stamp=10**12)))


@settings(max_examples=200, deadline=None)
@given(msg=messages(), promise=u64)
def test_flow_fields_ride_the_struct_fast_path(msg, promise):
    """Provenance must not knock a message off the fixed-layout codec.

    Every message class carrying in-range flow/hop values round-trips with
    the fields intact and **zero** pickle fallbacks — the flow header is
    part of the common struct prefix, so tagged traffic costs the same as
    untagged on the multiprocess transport.
    """
    wire.reset_stats()
    out, p = wire.decode(wire.encode(msg, promise))
    assert wire.stats()["msg_pickle_fallbacks"] == 0
    assert (out.flow, out.hop) == (msg.flow, msg.hop)
    assert msgs_equal(out, msg) and p == promise
    if isinstance(msg, EthMsg) and msg.packet is not None:
        assert out.packet.flow == msg.packet.flow


# -- malformed frames ----------------------------------------------------------

class TaggedPacket(Packet):
    """A Packet subclass: rides the wire as a pickled tail."""

    __slots__ = ()


def _full_packet(payload, cls=Packet):
    return cls(src=1, dst=2, size_bytes=1500, proto="tcp", src_port=10,
                  dst_port=20, seq=3, ack=4, flags="SA", wnd=5, data_len=6,
                  ect=True, payload=payload, hops=2, uid=9, flow=11)


#: At least one frame per registered class (every tail kind, a nested
#: trunk) plus both whole-message pickle fallbacks.
MALFORMED_CASES = [
    Msg(stamp=1, seq=2, flow=3, hop=4),
    SyncMsg(stamp=5),
    EthMsg(stamp=6, packet=None),
    EthMsg(stamp=6, packet=_full_packet(b"\x01" * 40)),
    EthMsg(stamp=6, packet=_full_packet({"not": "bytes"})),
    EthMsg(stamp=6, packet=_full_packet(None)),
    EthMsg(stamp=6, packet=_full_packet(b"x", TaggedPacket)),
    MmioMsg(stamp=7, addr=8, value=9, is_write=True, req_id=10),
    MmioRespMsg(stamp=7, value=9, req_id=10),
    DmaReadMsg(stamp=11, addr=12, length=13, req_id=14),
    DmaWriteMsg(stamp=11, addr=12, data=b"dma-data", length=8, req_id=14),
    DmaWriteMsg(stamp=11, addr=12, data=None, length=0, req_id=14),
    DmaCompletionMsg(stamp=15, data=b"done", length=4, req_id=16),
    InterruptMsg(stamp=17, vector=18),
    MemReadMsg(stamp=19, addr=20, length=21, req_id=22),
    MemWriteMsg(stamp=19, addr=20, length=3, req_id=22, data=b"abc"),
    MemRespMsg(stamp=23, req_id=24, data=b"resp", is_write=False),
    MemInvalidateMsg(stamp=25, addr=26),
    TrunkMsg(stamp=27, subchannel=1, inner=None),
    TrunkMsg(stamp=27, subchannel=1,
             inner=EthMsg(stamp=28, packet=_full_packet(b"in"))),
    RawMsg(stamp=29, payload=b"raw"),
    RawMsg(stamp=29, payload=("pickled", 1)),
    CustomMsg(stamp=30, payload=b"custom"),
    MmioMsg(stamp=31, addr=-1),
]


def test_malformed_cases_cover_every_class():
    covered = {type(m) for m in MALFORMED_CASES}
    assert set(wire.TAGS) <= covered
    assert any(wire.encode(m)[0] == wire.TAG_PICKLE for m in MALFORMED_CASES)


def test_truncated_frames_raise_wire_error():
    """A frame cut at any offset raises WireError and never a message."""
    for msg in MALFORMED_CASES:
        frame = wire.encode(msg, 42)
        out, _ = wire.decode(frame)
        assert msgs_equal(out, msg)
        for cut in range(len(frame)):
            try:
                got = wire.decode(frame[:cut])
            except wire.WireError:
                continue
            raise AssertionError(f"{type(msg).__name__} cut at {cut}/"
                                 f"{len(frame)} decoded to {got!r}")


def test_unknown_tag_raises_wire_error():
    frame = bytearray(wire.encode(Msg(stamp=1)))
    frame[0] = 0x7E
    try:
        wire.decode(bytes(frame))
    except wire.WireError as exc:
        assert "unknown frame tag 0x7e" in str(exc)
    else:
        raise AssertionError("unknown tag decoded")


def test_corrupt_pickle_frame_raises_wire_error():
    frame = wire.encode(CustomMsg(stamp=1, payload=b"x"))
    bad = frame[:wire._HDR_SIZE] + b"\x80\x05garbage."
    try:
        wire.decode(bad)
    except wire.WireError:
        pass
    else:
        raise AssertionError("corrupt pickle decoded")
