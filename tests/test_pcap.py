"""Tests for the pcap reader/writer and the capture-to-stream feed."""

import struct

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traffic.pcap import (
    pcap_to_streams,
    read_pcap,
    write_pcap,
)
from repro.types import FiveTuple


def sample_headers():
    return [
        FiveTuple(0x0A000001, 0x0A000002, 1234, 80, 6),
        FiveTuple(0x0A000001, 0x0A000002, 1234, 80, 6),
        FiveTuple(0xC0A80101, 0x08080808, 5353, 53, 17),
        FiveTuple(0x0A000003, 0x0A000004, 0, 0, 1),  # ICMP, portless
    ]


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "t.pcap"
        headers = sample_headers()
        lengths = np.array([100, 1500, 60, 84], dtype=np.int64)
        write_pcap(path, headers, lengths)
        result = read_pcap(path)
        assert result.skipped == 0
        assert len(result.packets) == 4
        for pkt, h, length in zip(result.packets, headers, lengths):
            assert pkt.header == h
            assert pkt.ip_length == length

    def test_timestamps_monotone(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_headers(), interarrival_s=0.5)
        times = [p.timestamp for p in read_pcap(path).packets]
        assert times == sorted(times)


class TestRobustness:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(TraceFormatError):
            read_pcap(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\x01")
        with pytest.raises(TraceFormatError):
            read_pcap(path)

    def test_non_ipv4_frames_skipped(self, tmp_path):
        path = tmp_path / "mixed.pcap"
        write_pcap(path, sample_headers()[:1])
        raw = bytearray(path.read_bytes())
        # Append an ARP frame record (ethertype 0x0806).
        frame = b"\x02" * 12 + (0x0806).to_bytes(2, "big") + b"\x00" * 28
        raw += struct.pack("<IIII", 0, 0, len(frame), len(frame)) + frame
        path.write_bytes(bytes(raw))
        result = read_pcap(path)
        assert len(result.packets) == 1
        assert result.skipped == 1

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, sample_headers()[:1])
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TraceFormatError):
            read_pcap(path)


class TestStreamFeed:
    def test_streams_align(self, tmp_path):
        path = tmp_path / "t.pcap"
        headers = sample_headers()
        lengths = np.array([100, 1500, 60, 84], dtype=np.int64)
        write_pcap(path, headers, lengths)
        ids, lens = pcap_to_streams(path)
        assert len(ids) == 4
        np.testing.assert_array_equal(lens, lengths)
        # Same 5-tuple -> same flow ID.
        assert ids[0] == ids[1]
        assert len(np.unique(ids)) == 3

    def test_feeds_caesar(self, tmp_path):
        from repro.core.caesar import Caesar
        from repro.core.config import CaesarConfig

        rng = np.random.default_rng(5)
        headers = []
        base = sample_headers()[0]
        for _ in range(300):
            which = rng.integers(0, 3)
            headers.append(
                FiveTuple(base.src_ip + int(which), base.dst_ip, 1000, 80, 6)
            )
        path = tmp_path / "t.pcap"
        write_pcap(path, headers)
        ids, lens = pcap_to_streams(path)
        caesar = Caesar(
            CaesarConfig(
                cache_entries=16, entry_capacity=100_000, k=3, bank_size=64,
                counter_capacity=2**40,
            )
        )
        caesar.process(ids, lens)
        caesar.finalize()
        assert caesar.counters.total_mass == int(lens.sum())
