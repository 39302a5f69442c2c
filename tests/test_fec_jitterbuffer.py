"""FEC framing/recovery and the jitter buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.transport.fec import FecDecoder, FecEncoder, FecPacket, _xor_bytes
from repro.vca.jitterbuffer import (
    JitterBuffer,
    minimal_playout_delay_ms,
    persona_playout_budget_ms,
)


def payloads(n, seed=0, lo=100, hi=200):
    rng = np.random.default_rng(seed)
    return [
        bytes(rng.integers(0, 256, rng.integers(lo, hi), dtype=np.uint8))
        for _ in range(n)
    ]


class TestFecFraming:
    def test_packet_roundtrip(self):
        packet = FecPacket(group=3, index=1, k=4, payload=b"hello",
                           is_parity=False)
        assert FecPacket.parse(packet.pack()) == packet

    def test_parity_emitted_every_k(self):
        encoder = FecEncoder(k=4)
        emitted = []
        for p in payloads(8):
            emitted.extend(encoder.protect(p))
        parities = [p for p in emitted if p.is_parity]
        assert len(parities) == 2
        assert encoder.parity_packets_sent == 2

    def test_overhead_fraction(self):
        assert FecEncoder(k=5).overhead_fraction == pytest.approx(0.2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            FecEncoder(k=1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            FecPacket.parse(b"\x07" + b"\x00" * 16)


def reference_xor(a, b):
    """The per-byte XOR, shorter operand zero-padded on the right."""
    if len(a) < len(b):
        a, b = b, a
    out = bytearray(a)
    for i, byte in enumerate(b):
        out[i] ^= byte
    return bytes(out)


class TestXorBytes:
    @pytest.mark.parametrize("length", [0, 1, 33, 1180])
    def test_matches_per_byte_reference(self, length):
        a = bytes((7 * i + 3) % 256 for i in range(length))
        shorter_lengths = {0, 1, length // 2, length - 1, length}
        for shorter in sorted(n for n in shorter_lengths if 0 <= n <= length):
            b = bytes((11 * i + 200) % 256 for i in range(shorter))
            assert _xor_bytes(a, b) == reference_xor(a, b)
            assert _xor_bytes(b, a) == reference_xor(a, b)
            assert len(_xor_bytes(a, b)) == length

    def test_trailing_zero_bytes_survive(self):
        assert _xor_bytes(b"\x01\x00\x00", b"\x01") == b"\x00\x00\x00"
        assert _xor_bytes(b"", b"") == b""

    @given(st.binary(max_size=300), st.binary(max_size=300))
    def test_property_against_reference(self, a, b):
        assert _xor_bytes(a, b) == reference_xor(a, b)


class TestFecRecovery:
    def test_no_loss_passthrough(self):
        encoder, decoder = FecEncoder(k=4), FecDecoder()
        sent = payloads(8, seed=1)
        got = []
        for p in sent:
            for packet in encoder.protect(p):
                got.extend(decoder.receive(packet))
        assert got == sent
        assert decoder.recovered == 0

    def test_single_loss_per_group_recovered(self):
        encoder, decoder = FecEncoder(k=4), FecDecoder()
        sent = payloads(12, seed=2)
        got = []
        for i, p in enumerate(sent):
            for packet in encoder.protect(p):
                if not packet.is_parity and packet.index == 2:
                    continue  # drop one source per group
                got.extend(decoder.receive(packet))
        assert sorted(got, key=len) == sorted(sent, key=len)
        assert set(got) == set(sent)
        assert decoder.recovered == 3

    def test_variable_lengths_recovered_exactly(self):
        encoder, decoder = FecEncoder(k=3), FecDecoder()
        sent = payloads(6, seed=3, lo=50, hi=500)
        got = []
        for packet_list in map(encoder.protect, sent):
            for packet in packet_list:
                if not packet.is_parity and packet.index == 0:
                    continue
                got.extend(decoder.receive(packet))
        assert set(got) == set(sent)

    def test_double_loss_not_recoverable(self):
        encoder, decoder = FecEncoder(k=4), FecDecoder()
        sent = payloads(4, seed=4)
        got = []
        for packet_list in map(encoder.protect, sent):
            for packet in packet_list:
                if not packet.is_parity and packet.index in (0, 1):
                    continue
                got.extend(decoder.receive(packet))
        assert len(got) == 2
        assert decoder.recovered == 0

    def test_parity_loss_harmless(self):
        encoder, decoder = FecEncoder(k=4), FecDecoder()
        sent = payloads(4, seed=5)
        got = []
        for packet_list in map(encoder.protect, sent):
            for packet in packet_list:
                if packet.is_parity:
                    continue
                got.extend(decoder.receive(packet))
        assert got == sent

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=5))
    def test_any_single_loss_position_recovered(self, k, lost_index):
        lost_index = lost_index % k
        encoder, decoder = FecEncoder(k=k), FecDecoder()
        sent = payloads(k, seed=6)
        got = []
        for packet_list in map(encoder.protect, sent):
            for packet in packet_list:
                if not packet.is_parity and packet.index == lost_index:
                    continue
                got.extend(decoder.receive(packet))
        assert set(got) == set(sent)


class TestFecAblation:
    def test_fec_beats_plain_under_loss(self):
        from repro.experiments import ablations

        result = ablations.run_fec_resilience(
            loss_rates=(0.02, 0.05), duration_s=5.0, seed=0
        )
        assert result.fec_always_helps()
        for point in result.points:
            assert point.availability_fec > point.availability_plain
            assert point.availability_fec > 0.98


def stream(jitter_std_ms, n=500, base_ms=20.0, seed=0, fps=90.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        send = i / fps
        arrival = send + (base_ms + max(0.0, rng.normal(0, jitter_std_ms))) / 1000.0
        out.append((send, arrival))
    return out


class TestJitterBuffer:
    def test_zero_jitter_zero_late(self):
        buffer = JitterBuffer(playout_delay_ms=25.0)
        report = buffer.play(stream(0.0))
        assert report.late_fraction == 0.0
        assert report.mean_wait_ms == pytest.approx(5.0, abs=0.2)

    def test_insufficient_delay_late_frames(self):
        buffer = JitterBuffer(playout_delay_ms=19.0)
        report = buffer.play(stream(0.0))
        assert report.late_fraction == 1.0

    def test_jitter_requires_headroom(self):
        tight = JitterBuffer(playout_delay_ms=21.0).play(stream(5.0, seed=1))
        roomy = JitterBuffer(playout_delay_ms=40.0).play(stream(5.0, seed=1))
        assert tight.late_fraction > roomy.late_fraction

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            JitterBuffer(-1.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            JitterBuffer(10.0).play([])

    def test_minimal_delay_meets_budget(self):
        data = stream(4.0, seed=2)
        delay = minimal_playout_delay_ms(data, late_budget=0.01)
        report = JitterBuffer(delay).play(data)
        assert report.late_fraction <= 0.01

    def test_minimal_delay_is_tight(self):
        data = stream(4.0, seed=2)
        delay = minimal_playout_delay_ms(data, late_budget=0.01)
        tighter = JitterBuffer(max(0.0, delay - 2.0)).play(data)
        assert tighter.late_fraction > 0.01

    def test_impossible_budget_raises(self):
        data = [(0.0, 10.0)]  # ten-second delay
        with pytest.raises(ValueError):
            minimal_playout_delay_ms(data, max_delay_ms=100.0)

    def test_analytic_budget_matches_empirical(self):
        data = stream(3.0, n=4000, seed=3)
        empirical = minimal_playout_delay_ms(data, late_budget=0.01)
        analytic = persona_playout_budget_ms(
            network_jitter_std_ms=3.0, base_one_way_ms=20.0
        )
        # Truncated-Gaussian jitter: the analytic Gaussian quantile is an
        # upper-side estimate within a few ms.
        assert empirical == pytest.approx(analytic, abs=4.0)

    def test_persona_jitter_fits_display_budget(self):
        # Testbed jitter (~2 ms) costs only a few ms of playout delay on
        # top of the base one-way path — consistent with the < 16 ms
        # display-latency difference bound of Sec. 4.3.
        budget = persona_playout_budget_ms(2.0, 0.0)
        assert budget < 6.0
