"""Simplified QUIC and TCP-ping probing."""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from repro.geo.regions import city
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.transport.probing import TcpPingResponder, tcp_ping
from repro.transport.quic import (
    CONNECTION_ID_BYTES,
    KEYSTREAM_MEMO_SIZE,
    QUIC_MAX_PAYLOAD,
    SHORT_HEADER_BYTES,
    QuicConnection,
    _keystream,
    is_quic_datagram,
    parse_header,
)


def make_conn(secret=b"s" * 16):
    return QuicConnection(b"conn0001", secret)


class TestQuicFraming:
    def test_short_header_recognized(self):
        conn = make_conn()
        datagram = conn.protect_frame(b"payload")[0]
        assert is_quic_datagram(datagram)
        header = parse_header(datagram)
        assert not header.long_form
        assert header.dcid == b"conn0001"

    def test_long_header_recognized(self):
        conn = make_conn()
        initial = conn.initial_packet()
        header = parse_header(initial)
        assert header.long_form
        assert header.packet_type == 0  # Initial

    def test_handshake_completes_connection(self):
        conn = make_conn()
        assert not conn.handshake_complete
        conn.handshake_packet()
        assert conn.handshake_complete

    def test_packet_numbers_increase(self):
        conn = make_conn()
        a = parse_header(conn.protect_frame(b"x")[0]).packet_number
        b = parse_header(conn.protect_frame(b"y")[0]).packet_number
        assert b == a + 1

    def test_bad_dcid_length_rejected(self):
        with pytest.raises(ValueError):
            QuicConnection(b"short", b"secret")

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            make_conn().protect_frame(b"")

    def test_large_frame_fragments(self):
        conn = make_conn()
        frame = b"z" * (QUIC_MAX_PAYLOAD + 100)
        datagrams = conn.protect_frame(frame)
        assert len(datagrams) == 2

    def test_non_quic_bytes_rejected(self):
        with pytest.raises(ValueError):
            parse_header(b"\x80" + b"\x00" * 20)  # RTP-looking


class TestQuicProtection:
    def test_roundtrip(self):
        sender = make_conn()
        receiver = make_conn()
        datagram = sender.protect_frame(b"secret payload")[0]
        assert receiver.unprotect(datagram) == b"secret payload"

    def test_ciphertext_differs_from_plaintext(self):
        conn = make_conn()
        datagram = conn.protect_frame(b"secret payload!!")[0]
        assert b"secret" not in datagram

    def test_wrong_secret_garbles(self):
        sender = make_conn(secret=b"a" * 16)
        eavesdropper = make_conn(secret=b"b" * 16)
        datagram = sender.protect_frame(b"secret payload")[0]
        assert eavesdropper.unprotect(datagram) != b"secret payload"

    def test_wrong_dcid_rejected(self):
        sender = make_conn()
        other = QuicConnection(b"conn0002", b"s" * 16)
        datagram = sender.protect_frame(b"x")[0]
        with pytest.raises(ValueError):
            other.unprotect(datagram)

    @given(st.binary(min_size=1, max_size=3000))
    def test_roundtrip_property(self, frame):
        sender = make_conn()
        receiver = make_conn()
        rebuilt = b"".join(
            receiver.unprotect(d) for d in sender.protect_frame(frame)
        )
        assert rebuilt == frame


def reference_keystream(key, nonce, length):
    """The original per-byte keystream: the oracle for the fast cipher."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(key + struct.pack("!QI", nonce, counter)).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def reference_xor(key, nonce, data):
    stream = reference_keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


LONG_HEADER_BYTES = 10 + CONNECTION_ID_BYTES
CIPHER_LENGTHS = [0, 1, 31, 32, 33, QUIC_MAX_PAYLOAD, 2000]


def sample_bytes(length):
    return bytes((7 * i + 3) % 256 for i in range(length))


class TestCipherMatchesReference:
    """The memoized keystream and big-int XOR against the per-byte cipher."""

    @pytest.mark.parametrize("length", CIPHER_LENGTHS)
    def test_keystream_bytes(self, length):
        for nonce in (0, 1, 2**40):
            assert _keystream(b"k" * 16, nonce, length) == \
                reference_keystream(b"k" * 16, nonce, length)

    @pytest.mark.parametrize("length", CIPHER_LENGTHS)
    def test_xor_bytes(self, length):
        conn = make_conn()
        data = sample_bytes(length)
        assert conn._xor(9, data) == reference_xor(b"s" * 16, 9, data)

    @pytest.mark.parametrize("length", [n for n in CIPHER_LENGTHS if n])
    def test_protect_unprotect_roundtrip(self, length):
        sender = make_conn()
        receiver = make_conn()
        frame = sample_bytes(length)
        datagrams = sender.protect_frame(frame)
        for datagram in datagrams:
            number = parse_header(datagram).packet_number
            chunk = frame[number * QUIC_MAX_PAYLOAD:
                          (number + 1) * QUIC_MAX_PAYLOAD]
            assert datagram[SHORT_HEADER_BYTES:] == \
                reference_xor(b"s" * 16, number, chunk)
        assert b"".join(receiver.unprotect(d) for d in datagrams) == frame

    def test_long_header_packets(self):
        conn = make_conn()
        for packet, size in ((conn.initial_packet(), 512),
                             (conn.handshake_packet(), 256)):
            number = parse_header(packet).packet_number
            assert packet[LONG_HEADER_BYTES:] == \
                reference_xor(b"s" * 16, number, bytes(size))
            assert make_conn().unprotect(packet) == bytes(size)

    def test_secrets_never_share_a_memo_entry(self):
        _keystream.cache_clear()
        frame = sample_bytes(100)
        a = make_conn(secret=b"a" * 16).protect_frame(frame)[0]
        b = make_conn(secret=b"b" * 16).protect_frame(frame)[0]
        assert _keystream.cache_info().currsize == 2
        assert a[SHORT_HEADER_BYTES:] == reference_xor(b"a" * 16, 0, frame)
        assert b[SHORT_HEADER_BYTES:] == reference_xor(b"b" * 16, 0, frame)
        assert make_conn(secret=b"b" * 16).unprotect(a) != frame

    def test_receiver_hits_the_senders_keystream(self):
        _keystream.cache_clear()
        datagram = make_conn().protect_frame(sample_bytes(500))[0]
        make_conn().unprotect(datagram)
        info = _keystream.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize == KEYSTREAM_MEMO_SIZE

    @given(st.binary(max_size=64), st.integers(0, 2**64 - 1),
           st.binary(max_size=2100))
    def test_xor_property(self, key, nonce, data):
        conn = QuicConnection(b"conn0001", key)
        assert conn._xor(nonce, data) == reference_xor(key, nonce, data)


class TestTcpPing:
    def _testbed(self):
        sim = Simulator()
        network = Network(sim)
        client = Host("10.0.0.2", city("san jose"), name="client")
        server = Host("17.100.0.1", city("washington"), name="server")
        network.attach(client)
        network.attach(server)
        TcpPingResponder(server)
        return sim, network, client, server

    def test_rtt_matches_path_model(self):
        sim, network, client, server = self._testbed()
        rtts = tcp_ping(sim, client, server.address, count=3)
        expected = 2 * network.one_way_delay_s(
            client.address, server.address
        ) * 1000
        assert len(rtts) == 3
        for rtt in rtts:
            assert rtt == pytest.approx(expected, rel=0.1)

    def test_responder_counts_probes(self):
        sim, network, client, server = self._testbed()
        responder = TcpPingResponder(server, port=8443)
        tcp_ping(sim, client, server.address, count=4, server_port=8443,
                 client_port=52001)
        assert responder.probes_answered == 4

    def test_invalid_count_rejected(self):
        sim, network, client, server = self._testbed()
        with pytest.raises(ValueError):
            tcp_ping(sim, client, server.address, count=0)

    def test_non_probe_payload_ignored(self):
        sim, network, client, server = self._testbed()
        from repro.netsim.packet import IPPROTO_TCP, Packet

        client.bind(52000, lambda p: None)
        client.send(Packet(client.address, server.address, 52000, 443,
                           IPPROTO_TCP, b"GET / HTTP/1.1"))
        sim.run()
        # No SYN-ACK generated for non-SYN payloads.
        assert client.inbox == []
        client.unbind(52000)
