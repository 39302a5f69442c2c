"""Packets and the link model."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPV4_HEADER_BYTES,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    Packet,
)


def make_packet(payload=b"x" * 100, protocol=IPPROTO_UDP):
    return Packet("10.0.0.1", "10.0.0.2", 1000, 2000, protocol, payload)


class TestPacket:
    def test_udp_wire_size(self):
        p = make_packet(b"x" * 100)
        assert p.wire_bytes == IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 100

    def test_tcp_wire_size(self):
        p = make_packet(b"x" * 100, protocol=IPPROTO_TCP)
        assert p.wire_bytes == IPV4_HEADER_BYTES + TCP_HEADER_BYTES + 100

    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError):
            Packet("a", "b", 1, 2, 99, b"")

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            Packet("a", "b", 0, 2, IPPROTO_UDP, b"")
        with pytest.raises(ValueError):
            Packet("a", "b", 1, 70000, IPPROTO_UDP, b"")

    def test_reply_shell_swaps_endpoints(self):
        p = make_packet()
        r = p.reply_shell(b"pong")
        assert (r.src, r.dst) == (p.dst, p.src)
        assert (r.src_port, r.dst_port) == (p.dst_port, p.src_port)
        assert r.payload == b"pong"

    def test_forward_preserves_payload_and_meta(self):
        p = make_packet()
        p.meta["frame"] = 7
        f = p.forward_to("10.0.0.3", 3000, "10.0.0.9", 3478)
        assert f.payload == p.payload
        assert f.meta["frame"] == 7
        assert f.dst == "10.0.0.3"

    def test_packet_ids_unique(self):
        assert make_packet().packet_id != make_packet().packet_id


class TestCachedWireBytes:
    """``wire_bytes`` is computed once at construction, never stale."""

    @pytest.mark.parametrize("protocol,header", [
        (IPPROTO_UDP, UDP_HEADER_BYTES), (IPPROTO_TCP, TCP_HEADER_BYTES),
    ])
    @pytest.mark.parametrize("size", [0, 1, 1180])
    def test_new_and_copied_packets(self, protocol, header, size):
        p = make_packet(b"x" * size, protocol=protocol)
        assert p.wire_bytes == IPV4_HEADER_BYTES + header + size
        forwarded = p.forward_to("10.0.0.3", 3000, "10.0.0.9", 3478)
        assert forwarded.wire_bytes == IPV4_HEADER_BYTES + header + size
        reply = p.reply_shell(b"pong")
        assert reply.wire_bytes == IPV4_HEADER_BYTES + header + 4
        assert p.reply_shell().wire_bytes == IPV4_HEADER_BYTES + header

    def test_equality_and_repr_ignore_the_field(self):
        p = make_packet(b"abc")
        q = Packet(p.src, p.dst, p.src_port, p.dst_port, p.protocol,
                   p.payload, packet_id=p.packet_id)
        q.wire_bytes = -1  # a field outside compare cannot break equality
        assert p == q
        assert "wire_bytes" not in repr(p)
        assert repr(p) == repr(q)

    def test_not_an_init_argument(self):
        with pytest.raises(TypeError):
            Packet("a", "b", 1, 2, IPPROTO_UDP, b"", wire_bytes=10)


class TestLink:
    def test_serialization_delay(self):
        link = Link(rate_bps=8e6)
        p = make_packet(b"x" * 972)  # 1000 wire bytes
        assert link.serialization_delay(p) == pytest.approx(0.001)

    def test_transmit_schedules_completion(self):
        sim = Simulator()
        link = Link(rate_bps=8e6)
        done = []
        link.transmit(sim, make_packet(b"x" * 972), lambda p: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.001)]

    def test_queueing_serializes_back_to_back(self):
        sim = Simulator()
        link = Link(rate_bps=8e6)
        times = []
        for _ in range(3):
            link.transmit(sim, make_packet(b"x" * 972), lambda p: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(0.001), pytest.approx(0.002),
                         pytest.approx(0.003)]

    def test_drop_tail_when_queue_full(self):
        sim = Simulator()
        link = Link(rate_bps=1e4, queue_bytes=2000)  # slow + tiny queue
        accepted = [
            link.transmit(sim, make_packet(b"x" * 972), lambda p: None)
            for _ in range(5)
        ]
        assert accepted[0] is True
        assert not all(accepted)
        assert link.stats.packets_dropped >= 1
        assert link.stats.drop_rate > 0

    def test_extra_delay_applied_after_serialization(self):
        sim = Simulator()
        link = Link(rate_bps=8e6)
        times = []
        link.transmit(sim, make_packet(b"x" * 972),
                      lambda p: times.append(sim.now), extra_delay=0.05)
        sim.run()
        assert times == [pytest.approx(0.051)]

    def test_transmit_agrees_with_public_arithmetic(self):
        """The inlined admission/serialization arithmetic in ``transmit``
        equals ``backlog_bytes`` and ``serialization_delay`` exactly."""
        sim = Simulator()
        link = Link(rate_bps=3e6, queue_bytes=9000)
        offers = [(i * 7e-4, b"x" * (100 + 97 * i % 1100)) for i in range(60)]
        for at, payload in offers:
            def offer(payload=payload):
                packet = make_packet(payload)
                backlog = link.backlog_bytes(sim.now)
                expect_ok = backlog + packet.wire_bytes <= link.queue_bytes
                expect_done = (max(sim.now, link._busy_until)
                               + link.serialization_delay(packet))
                ok = link.transmit(sim, packet, lambda p: None)
                assert ok == expect_ok
                if ok:
                    assert link._busy_until == expect_done
            sim.schedule_at(at, offer)
        sim.run()
        assert link.stats.packets_dropped > 0
        assert link.stats.packets_sent > 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Link(rate_bps=0)

    def test_utilization_bounded(self):
        sim = Simulator()
        link = Link(rate_bps=8e6)
        link.transmit(sim, make_packet(), lambda p: None)
        sim.run()
        assert 0.0 <= link.utilization(max(sim.now, 1e-6)) <= 1.0


class TestWireSizeProperty:
    @given(st.binary(min_size=0, max_size=2000))
    def test_wire_size_monotone_in_payload(self, payload):
        p = make_packet(payload)
        assert p.wire_bytes == 28 + len(payload)
