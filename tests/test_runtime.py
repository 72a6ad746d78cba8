"""Streaming runtime tests: bit-identity, crash recovery, backpressure.

The contract under test (docs/runtime.md): a ``StreamingRuntime`` run —
chunked ingest through one shared-memory ring per shard into ``W``
worker processes, with any number of workers SIGKILLed along the way —
finishes with per-shard states (estimates *and* checkpoint digests)
bit-identical to a single-process ``ShardedCaesar.process`` of the same
stream, on every construction engine.
"""

import dataclasses
import multiprocessing as mp
import signal
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, IngestError, TraceFormatError
from repro.obs.registry import MetricsRegistry
from repro.resilience.wal import WAL_MAGIC, WriteAheadLog, recover
from repro.runtime import StreamPartitioner, chunk_stream
from repro.runtime.client import StreamingRuntime
from repro.runtime.transport import (
    CTRL_BYTES,
    KIND_CHUNK,
    RingConsumer,
    RingProducer,
    ShardChannel,
)
from repro.runtime.worker import (
    WorkerSpec,
    append_ingest_chunk,
    boot_shard,
    decode_ingest_record,
)
from tests.conftest import wait_until

def make_config(engine="batched", seed=5):
    return CaesarConfig(
        cache_entries=64,
        entry_capacity=16,
        k=3,
        bank_size=512,
        seed=seed,
        engine=engine,
    )


#: A ring that fills after ~2 hundred-packet chunks (the backpressure
#: tests freeze the consumer and need a fast fill).
TINY_RING_BYTES = 2048


def weighted_config(config):
    """Byte-weighted sizing (the cache-kernel CI job's): an entry holds
    16 full-size packets and the counters hold byte totals."""
    return dataclasses.replace(
        config, entry_capacity=16 * 1500, counter_capacity=2**40 - 1
    )


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(11)
    return rng.zipf(1.25, 12_000).astype(np.uint64) % 2048


@pytest.fixture(scope="module")
def byte_lengths(stream):
    return np.random.default_rng(7).integers(40, 1501, size=len(stream), dtype=np.int64)


@pytest.fixture(scope="module")
def flows(stream):
    return np.unique(stream)


def offline_baseline(config, num_shards, packets, lengths=None):
    base = ShardedCaesar(config, num_shards)
    base.process(packets, lengths)
    base.finalize()
    return base


def assert_matches_offline(rt_result, runtime, base, flows):
    """Full bit-identity between a drained runtime and the offline run."""
    base_digests = tuple(s.checkpoint().digest for s in base.shards)
    assert rt_result.shard_digests == base_digests
    np.testing.assert_array_equal(
        runtime.query(flows), base.estimate(flows, "csm", clip_negative=True)
    )
    twin = rt_result.load_scheme()
    np.testing.assert_array_equal(
        twin.estimate(flows, "csm", clip_negative=True),
        base.estimate(flows, "csm", clip_negative=True),
    )


class TestPartitioner:
    def test_matches_sharded_scheme_assignment(self, stream):
        sc = ShardedCaesar(make_config(), num_shards=4)
        part = StreamPartitioner(4)
        np.testing.assert_array_equal(part.shard_of(stream), sc.shard_of(stream))

    def test_partition_covers_every_packet_once(self, stream):
        part = StreamPartitioner(3)
        pieces = part.partition(stream, None)
        assert sum(len(p) for p, _ in pieces) == len(stream)
        np.testing.assert_array_equal(
            np.sort(np.concatenate([p for p, _ in pieces])), np.sort(stream)
        )

    def test_partition_keeps_lengths_aligned(self, stream):
        lengths = np.arange(len(stream), dtype=np.int64)
        part = StreamPartitioner(2)
        owners = part.shard_of(stream)
        for s, (pkts, lens) in enumerate(part.partition(stream, lengths)):
            np.testing.assert_array_equal(pkts, stream[owners == s])
            np.testing.assert_array_equal(lens, lengths[owners == s])

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_partition_rejects_misaligned_lengths(self, stream, shards, extra):
        with pytest.raises(ConfigError, match="align"):
            StreamPartitioner(shards).partition(
                stream[:1000], np.ones(1000 + extra, dtype=np.int64)
            )

    def test_chunk_stream_flat_array(self, stream):
        chunks = list(chunk_stream(stream, chunk_packets=5000))
        assert [len(p) for p, _ in chunks] == [5000, 5000, 2000]
        np.testing.assert_array_equal(np.concatenate([p for p, _ in chunks]), stream)

    def test_chunk_stream_iterable_forms(self, stream):
        arrays = [stream[:100], stream[100:250]]
        out = list(chunk_stream(iter(arrays)))
        assert len(out) == 2 and out[1][1] is None
        pairs = [(stream[:100], np.ones(100, dtype=np.int64))]
        (pkts, lens), = list(chunk_stream(iter(pairs)))
        assert lens is not None and len(lens) == 100

    def test_chunk_stream_rejects_lengths_with_iterable(self, stream):
        with pytest.raises(ConfigError):
            list(chunk_stream(iter([stream]), lengths=np.ones(len(stream), np.int64)))


class TestIngestWal:
    def test_roundtrip(self, tmp_path, stream):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 0, stream[:50], None)
            append_ingest_chunk(wal, 1, stream[50:80], np.ones(30, np.int64))
        records = list(WriteAheadLog.iter_records(path))
        seq0, pkts0, lens0 = decode_ingest_record(records[0])
        assert seq0 == 0 and lens0 is None
        np.testing.assert_array_equal(pkts0, stream[:50])
        seq1, pkts1, lens1 = decode_ingest_record(records[1])
        assert seq1 == 1
        np.testing.assert_array_equal(lens1, np.ones(30, np.int64))

    def test_torn_tail_is_truncated_before_reuse(self, tmp_path, stream):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 0, stream[:40], None)
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03torn")  # crash mid-append
        removed = WriteAheadLog.truncate_torn_tail(path)
        assert removed == 7
        assert len(list(WriteAheadLog.iter_records(path))) == 1

    def test_boot_recovers_from_wal_only(self, tmp_path, stream):
        """No checkpoint on disk: boot replays the whole ingest WAL."""
        spec = WorkerSpec(shard_id=0, config=make_config(), state_dir=str(tmp_path))
        with WriteAheadLog(spec.wal_path) as wal:
            append_ingest_chunk(wal, 0, stream[:500], None)
            append_ingest_chunk(wal, 1, stream[500:900], None)
        scheme, last_seq, replayed = boot_shard(spec)
        assert (last_seq, replayed) == (1, 2)
        assert scheme.num_packets == 900

    def test_boot_falls_back_past_unreadable_checkpoints(self, tmp_path, stream):
        """Boot walks newest-first past a torn checkpoint, ignores a file
        named like the retired ``ck_<seq>_delta.npz`` kind whatever it
        holds, and recovers from the newest readable checkpoint plus
        ingest-WAL replay to the state a WAL-only boot reaches."""
        config = make_config()
        chunks = np.array_split(stream[:3000], 6)

        def spec_with_wal(name):
            spec = WorkerSpec(shard_id=0, config=config, state_dir=str(tmp_path / name))
            Path(spec.state_dir).mkdir()
            with WriteAheadLog(spec.wal_path) as wal:
                for seq, chunk in enumerate(chunks):
                    append_ingest_chunk(wal, seq, chunk, None)
            return spec

        def state_after(n):
            scheme = Caesar(config)
            for chunk in chunks[:n]:
                scheme.process(chunk)
            return scheme.checkpoint()

        spec = spec_with_wal("ckpts")
        state_after(2).save(spec.checkpoint_path(1))
        torn = state_after(4).save(spec.checkpoint_path(3))
        torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
        # Readable, but of the wrong state: taking it as seq 5 would
        # silently skip four chunks.
        state_after(1).save(Path(spec.state_dir) / "ck_0000000005_delta.npz")
        scheme, last_seq, replayed = boot_shard(spec)
        assert (last_seq, replayed) == (5, 4)

        reference, ref_seq, ref_replayed = boot_shard(spec_with_wal("wal_only"))
        assert (ref_seq, ref_replayed) == (5, 6)
        assert scheme.checkpoint().digest == reference.checkpoint().digest

    def test_decode_rejects_eviction_record(self, tmp_path, stream):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append_chunk(stream[:4], np.zeros(4, np.int64), np.zeros(4, np.uint8))
        (record,) = list(WriteAheadLog.iter_records(path))
        with pytest.raises(TraceFormatError, match="not an ingest record"):
            decode_ingest_record(record)

    def test_record_size_is_header_plus_raw_arrays(self, tmp_path, stream):
        """8 bytes a packet (16 with byte lengths) plus a 13-byte header
        per chunk, exactly, whatever the chunk sizes."""
        path = tmp_path / "ingest.wal"
        sizes = [(1000, False), (1, True), (0, False), (777, True), (4096, False)]
        with WriteAheadLog(path) as wal:
            for seq, (n, weighted) in enumerate(sizes):
                lengths = np.full(n, 64, np.int64) if weighted else None
                append_ingest_chunk(wal, seq, stream[:n], lengths)
        expected = len(WAL_MAGIC) + sum(13 + n * (16 if w else 8) for n, w in sizes)
        assert path.stat().st_size == expected
        decoded = [decode_ingest_record(r) for r in WriteAheadLog.iter_records(path)]
        assert [(seq, len(p), lens is not None) for seq, p, lens in decoded] == [
            (seq, n, w) for seq, (n, w) in enumerate(sizes)
        ]

    def test_lengths_must_align_with_packets(self, tmp_path, stream):
        """Rows are counted once for both arrays: a misaligned pair
        would write a record no reader can size, so nothing is written."""
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            with pytest.raises(ValueError, match="9 lengths for 10 packets"):
                append_ingest_chunk(wal, 0, stream[:10], np.ones(9, np.int64))
        assert path.stat().st_size == len(WAL_MAGIC)

    @pytest.mark.parametrize("cut_into", ["ids", "lengths"])
    def test_torn_ingest_record_is_cut_silently(self, tmp_path, stream, cut_into):
        """A crash inside a record's ids or its lengths leaves a prefix
        that reads cleanly; reopening the log cuts the torn bytes, so
        the next append lands right after the last complete record."""
        path = tmp_path / "ingest.wal"
        lengths = np.arange(100, dtype=np.int64) + 40
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 0, stream[:50], None)
        intact = path.stat().st_size
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 1, stream[:100], lengths)
        keep = 13 + (30 * 8 if cut_into == "ids" else 100 * 8 + 30 * 8)
        path.write_bytes(path.read_bytes()[: intact + keep])
        assert [r.seq for r in WriteAheadLog.iter_records(path)] == [0]
        with WriteAheadLog(path) as wal:
            assert path.stat().st_size == intact
            assert wal.next_seq == 1
            append_ingest_chunk(wal, 1, stream[:100], lengths)
        seq, pkts, lens = decode_ingest_record(list(WriteAheadLog.iter_records(path))[1])
        assert seq == 1
        np.testing.assert_array_equal(pkts, stream[:100])
        np.testing.assert_array_equal(lens, lengths)

    def test_crc_mismatch_on_complete_ingest_record_raises(self, tmp_path, stream):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 0, stream[:20], np.full(20, 99, np.int64))
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x10  # inside the lengths
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="CRC"):
            list(WriteAheadLog.iter_records(path))
        with pytest.raises(TraceFormatError, match="CRC"):
            WriteAheadLog.truncate_torn_tail(path)

    def test_unknown_record_type_raises(self, tmp_path, stream):
        """The type sizes the payload, so an unknown one cannot be
        skipped or cut as a torn tail: both readers refuse the log."""
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 0, stream[:20], None)
        with open(path, "ab") as fh:
            fh.write(struct.pack("<BIII", 9, 1, 2, 0) + bytes(16))
        with pytest.raises(TraceFormatError, match="unknown type 9"):
            list(WriteAheadLog.iter_records(path))
        with pytest.raises(TraceFormatError, match="unknown type 9"):
            WriteAheadLog.truncate_torn_tail(path)

    def test_recover_rejects_ingest_wal(self, tmp_path, stream):
        """The eviction WAL's recover() must not drain packet ids as if
        they were evicted flows."""
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            append_ingest_chunk(wal, 0, stream[:20], None)
        with pytest.raises(TraceFormatError, match="ingest WAL"):
            recover(Caesar(make_config()).checkpoint(), path)


@pytest.mark.parametrize("engine", ["batched", "scalar"])
class TestBitIdentity:
    def test_runtime_matches_offline(self, tmp_path, stream, flows, engine):
        config = make_config(engine)
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(config, 2, state_dir=tmp_path) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            result = rt.drain()
            assert result.num_packets == len(stream)
            assert result.restarts == 0
            assert_matches_offline(result, rt, base, flows)


@pytest.mark.parametrize("workers", [1, 2])
def test_int32_lengths_match_offline(tmp_path, stream, byte_lengths, flows, workers):
    """Byte lengths of a narrower dtype travel as the int64 lengths the
    ring record declares, so the workers count the caller's bytes."""
    config = weighted_config(make_config())
    base = offline_baseline(config, workers, stream, byte_lengths)
    with StreamingRuntime(config, workers, state_dir=tmp_path) as rt:
        rt.ingest_stream(stream, lengths=byte_lengths.astype(np.int32), chunk_packets=1500)
        assert_matches_offline(rt.drain(), rt, base, flows)


class TestRecovery:
    @pytest.mark.parametrize("weighted", [False, True], ids=["packets", "bytes"])
    def test_sigkill_mid_stream_recovers_bit_identically(
        self, tmp_path, stream, byte_lengths, flows, weighted
    ):
        config = weighted_config(make_config()) if weighted else make_config()
        lengths = byte_lengths if weighted else None
        base = offline_baseline(config, 2, stream, lengths)
        chunks = np.array_split(stream, 12)
        chunk_lengths = np.array_split(byte_lengths, 12) if weighted else [None] * 12
        with StreamingRuntime(config, 2, state_dir=tmp_path, checkpoint_every=2) as rt:
            for i, (chunk, lens) in enumerate(zip(chunks, chunk_lengths)):
                if i == 7:
                    rt.kill_worker(1)
                rt.ingest(chunk, lens)
            result = rt.drain()
            assert result.restarts == 1
            assert result.num_packets == len(stream)
            assert_matches_offline(result, rt, base, flows)

    @pytest.mark.parametrize("weighted", [False, True], ids=["packets", "bytes"])
    def test_recovery_without_checkpoints_replays_wal(
        self, tmp_path, stream, byte_lengths, flows, weighted
    ):
        """checkpoint_every=0: the restarted worker rebuilds purely from
        ingest-WAL replay plus supervisor re-feed."""
        config = weighted_config(make_config()) if weighted else make_config()
        lengths = byte_lengths if weighted else None
        base = offline_baseline(config, 2, stream, lengths)
        chunks = np.array_split(stream, 8)
        chunk_lengths = np.array_split(byte_lengths, 8) if weighted else [None] * 8
        with StreamingRuntime(config, 2, state_dir=tmp_path, checkpoint_every=0) as rt:
            for i, (chunk, lens) in enumerate(zip(chunks, chunk_lengths)):
                if i == 5:
                    rt.kill_worker(0)
                rt.ingest(chunk, lens)
            result = rt.drain()
            assert result.restarts == 1
            assert_matches_offline(result, rt, base, flows)

    def test_pending_query_survives_worker_death(self, tmp_path, stream, flows):
        """A query outstanding when its worker dies is re-sent to the
        restarted worker and still answered."""
        config = make_config()
        with StreamingRuntime(config, 1, state_dir=tmp_path) as rt:
            rt.ingest(stream[:4000])
            rt.supervisor.ask(0, 999, flows[:4], "csm")
            rt.kill_worker(0)
            est = rt.supervisor.collect_reply(0, 999, timeout=60)
            assert est.shape == (4,)
            assert rt.restarts == 1

    def test_restart_budget_exhaustion_raises(self, tmp_path, stream):
        config = make_config()
        with StreamingRuntime(config, 1, state_dir=tmp_path, max_restarts=0) as rt:
            rt.ingest(stream[:2000])
            rt.kill_worker(0)

            def poke() -> bool:
                # Each ingest pumps the supervisor; the pump that
                # notices the death raises (budget is zero). Deadline-
                # polled: kill delivery latency varies with load.
                rt.ingest(stream[:500])
                return False

            with pytest.raises(IngestError, match="max_restarts"):
                wait_until(poke, desc="restart-budget exhaustion")


class TestBackpressure:
    def _stalled_runtime(self, tmp_path, policy, registry=None):
        rt = StreamingRuntime(
            make_config(),
            1,
            state_dir=tmp_path,
            ring_bytes=TINY_RING_BYTES,
            backpressure=policy,
            registry=registry,
        ).start()
        # Freeze the consumer: the ring must now fill.
        rt.kill_worker(0, signal.SIGSTOP)
        return rt

    def test_shed_drops_and_counts(self, tmp_path, stream):
        registry = MetricsRegistry()
        rt = self._stalled_runtime(tmp_path, "shed", registry)
        try:
            accepted = sum(rt.ingest(stream[:100]) for _ in range(10))
            assert accepted < 10 * 100
            assert registry.counter("runtime.backpressure.shed_chunks").value > 0
            rt.kill_worker(0, signal.SIGCONT)
            result = rt.drain()
            # Exactly the accepted packets were measured — sheds are real drops.
            assert result.num_packets == accepted
        finally:
            rt.kill_worker(0, signal.SIGCONT)
            rt.shutdown()

    def test_error_policy_raises_on_full_channel(self, tmp_path, stream):
        rt = self._stalled_runtime(tmp_path, "error")
        try:
            with pytest.raises(IngestError, match="is full"):
                for _ in range(10):
                    rt.ingest(stream[:100])
        finally:
            rt.kill_worker(0, signal.SIGCONT)
            rt.shutdown()

    def test_block_policy_records_stalls(self, tmp_path, stream):
        registry = MetricsRegistry()
        rt = StreamingRuntime(
            make_config(),
            1,
            state_dir=tmp_path,
            ring_bytes=TINY_RING_BYTES,
            backpressure="block",
            registry=registry,
        ).start()
        import threading

        ingested = threading.Event()

        def unfreeze() -> None:
            # Unfreeze the instant the producer actually stalls (no
            # fixed sleep: too short misses the stall, too long wastes
            # wall clock); bail out if all sends somehow fit.
            wait_until(
                lambda: ingested.is_set()
                or registry.counter("runtime.backpressure.stalls").value > 0,
                desc="first backpressure stall",
            )
            rt.kill_worker(0, signal.SIGCONT)

        try:
            rt.kill_worker(0, signal.SIGSTOP)
            resumer = threading.Thread(target=unfreeze, daemon=True)
            resumer.start()
            for _ in range(8):
                assert rt.ingest(stream[:100]) == 100
            ingested.set()
            resumer.join(timeout=30)
            result = rt.drain()
            assert result.num_packets == 8 * 100
            assert registry.counter("runtime.backpressure.stalls").value > 0
        finally:
            rt.shutdown()

    def test_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(ConfigError):
            StreamingRuntime(make_config(), 1, state_dir=tmp_path, backpressure="bogus")


class TestShmRing:
    """Unit tests of the SPSC ring itself — no processes involved."""

    def _ring_pair(self, capacity=512):
        buf = memoryview(bytearray(CTRL_BYTES + capacity))
        return RingProducer(buf, capacity), RingConsumer(buf, capacity)

    def test_roundtrip_one_record(self):
        prod, cons = self._ring_pair()
        payload = bytes(range(48))
        assert prod.try_write(KIND_CHUNK, 0, 7, 6, [payload], len(payload))
        kind, flags, seq, n, out = cons.try_read()
        assert (kind, flags, seq, n) == (KIND_CHUNK, 0, 7, 6)
        assert bytes(out) == payload
        assert cons.try_read() is None

    def test_wraparound_preserves_payloads(self):
        """Many records through a small ring: every byte survives the
        wrap filler machinery, in order."""
        prod, cons = self._ring_pair(capacity=512)
        rng = np.random.default_rng(3)
        for seq in range(200):
            payload = rng.integers(0, 256, size=int(rng.integers(1, 150))).astype(
                np.uint8
            )
            # Drain-as-needed: mimics producer waiting on the consumer.
            while not prod.try_write(
                KIND_CHUNK, 0, seq, len(payload), [payload], payload.nbytes
            ):
                rec = cons.try_read()
                assert rec is not None
            rec = cons.try_read()
            assert rec is not None
            kind, _flags, got_seq, n, out = rec
            assert kind == KIND_CHUNK and got_seq == seq and n == len(payload)
            np.testing.assert_array_equal(
                np.frombuffer(out, dtype=np.uint8), payload
            )
            assert prod.used() == 0  # fully drained, counters keep running

    def test_full_ring_rejects_write(self):
        prod, cons = self._ring_pair(capacity=128)
        payload = bytes(64)
        assert prod.try_write(KIND_CHUNK, 0, 0, 0, [payload], 64)
        assert not prod.try_write(KIND_CHUNK, 0, 1, 0, [payload], 64)
        assert cons.try_read() is not None
        assert prod.try_write(KIND_CHUNK, 0, 1, 0, [payload], 64)


class TestShmTransport:
    """Shared-memory specifics: fragmentation, segment lifecycle, sizing."""

    def test_oversized_chunk_fragments_bit_identically(self, tmp_path, stream, flows):
        """A chunk far larger than the whole ring streams through as
        FLAG_MORE fragments and the result stays bit-identical."""
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(config, 2, state_dir=tmp_path, ring_bytes=4096) as rt:
            rt.ingest(stream)  # one 12k-packet chunk ≈ 96 KiB >> 4 KiB ring
            result = rt.drain()
            assert result.num_packets == len(stream)
            assert_matches_offline(result, rt, base, flows)

    def test_oversized_chunk_shed_drops_outright(self, tmp_path, stream):
        registry = MetricsRegistry()
        with StreamingRuntime(
            make_config(),
            1,
            state_dir=tmp_path,
            ring_bytes=2048,
            backpressure="shed",
            registry=registry,
        ) as rt:
            assert rt.ingest(stream[:4000]) == 0  # can never fit atomically
            assert registry.counter("runtime.backpressure.shed_packets").value == 4000
            assert rt.drain().num_packets == 0

    def test_oversized_chunk_error_raises(self, tmp_path, stream):
        with StreamingRuntime(
            make_config(),
            1,
            state_dir=tmp_path,
            ring_bytes=2048,
            backpressure="error",
        ) as rt:
            with pytest.raises(IngestError, match="record cap"):
                rt.ingest(stream[:4000])

    def test_segments_unlinked_after_shutdown(self, tmp_path, stream):
        from multiprocessing import shared_memory

        with StreamingRuntime(make_config(), 2, state_dir=tmp_path) as rt:
            rt.ingest(stream[:2000])
            names = [h.channel.segment_name for h in rt.supervisor.handles]
            assert all(names)
            rt.drain()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_crash_restart_swaps_and_unlinks_segment(self, tmp_path, stream):
        from multiprocessing import shared_memory

        with StreamingRuntime(make_config(), 1, state_dir=tmp_path) as rt:
            rt.ingest(stream[:2000])
            old = rt.supervisor.handles[0].channel.segment_name
            rt.kill_worker(0)

            def restarted() -> bool:
                rt.ingest(stream[:100])
                return rt.restarts > 0

            wait_until(restarted, desc="worker restart", interval=0.0)
            assert rt.restarts == 1
            new = rt.supervisor.handles[0].channel.segment_name
            assert new != old
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=old)

    def test_batched_acks_empty_retention_after_drain(self, tmp_path, stream):
        """With batching, retention may lag ack_every chunks mid-run but
        the drain-time ack flush must empty it on every shard."""
        with StreamingRuntime(
            make_config(),
            2,
            state_dir=tmp_path,
            ack_every=5,
            checkpoint_every=0,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=700)
            rt.drain()
            rt.supervisor.pump()
            assert all(not h.retained for h in rt.supervisor.handles)

    def test_ring_bytes_must_be_sane(self, tmp_path):
        with pytest.raises(IngestError, match="ring_bytes"):
            StreamingRuntime(make_config(), 1, state_dir=tmp_path, ring_bytes=16)


class TestChannelAcrossRestarts:
    def test_recv_on_abandoned_channel_returns_none(self):
        channel = ShardChannel(
            0, ring_bytes=2048, ctx=mp.get_context(), registry=MetricsRegistry()
        )
        channel.open()
        channel.abandon()
        assert channel.poll() == []
        assert channel.recv(0.01) is None
        channel.close()

    def test_marker_blocked_across_a_restart_is_delivered_once(self):
        """A drain stalled on a full channel whose worker is restarted
        from the stall hook must not be sent again on the fresh channel:
        the restart re-sends pending markers itself (as the supervisor's
        restart does), and a second drain makes the worker finalize and
        write its final checkpoint twice."""
        fresh = []

        def restart_once() -> None:
            if not fresh:
                channel.abandon()
                fresh.append(channel.open())
                channel.send_drain()

        channel = ShardChannel(
            0,
            ring_bytes=2048,
            ctx=mp.get_context(),
            policy="block",
            registry=MetricsRegistry(),
            stall_hook=restart_once,
        )
        channel.open()
        packets = np.arange(100, dtype=np.uint64)
        seq = 0
        for n in (100, 0):  # empty chunks top off the last ring bytes
            while channel._offer_chunk(seq, packets[:n], None, 0.0):
                seq += 1
        channel.send_drain(timeout=5.0)
        (endpoint,) = fresh
        endpoint._attach()  # the data plane only; no control listener
        try:
            received = []
            while (item := endpoint.recv_data(0.2)) is not None:
                received.append(item)
            assert received == [("drain",)]
        finally:
            endpoint.close()
            channel.close()


class TestWakeOnArrival:
    """Control messages wake the worker loop; nothing waits out a poll."""

    def test_idle_worker_wakes_for_queries_and_stop(
        self, tmp_path, stream, flows, monkeypatch
    ):
        """With the idle data wait stretched to 30 s, a query before
        ingest, one after drain, and the stop at shutdown are all
        answered at once rather than after the poll runs out."""
        # Set before start(): the forked workers inherit it.
        monkeypatch.setattr("repro.runtime.worker.POLL_SECONDS", 30.0)
        rt = StreamingRuntime(make_config(), 2, state_dir=tmp_path, hang_timeout=None)
        rt.start()
        processes = [h.process for h in rt.supervisor.handles]
        try:
            assert not rt.query(flows, deadline=5.0, detail=True).degraded
            rt.ingest(stream)
            rt.drain()
            assert not rt.query(flows, deadline=5.0, detail=True).degraded
        finally:
            t0 = time.monotonic()
            rt.shutdown()
            elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        # Exit code 0 is the worker's own stop path, not the kill fallback.
        assert [p.exitcode for p in processes] == [0, 0]


class TestLiveQueries:
    def test_queries_mid_ingest_then_exact_after_drain(self, tmp_path, stream, flows):
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(config, 2, state_dir=tmp_path) as rt:
            rt.ingest(stream[:6000])
            live = rt.query(flows[:32])
            assert live.shape == (32,)
            assert np.all(np.isfinite(live))
            rt.ingest(stream[6000:])
            rt.drain()
            np.testing.assert_array_equal(
                rt.query(flows), base.estimate(flows, "csm", clip_negative=True)
            )


class TestLifecycle:
    def test_ingest_before_start_raises(self, tmp_path, stream):
        rt = StreamingRuntime(make_config(), 1, state_dir=tmp_path)
        with pytest.raises(IngestError, match="not started"):
            rt.ingest(stream[:10])

    def test_ingest_after_drain_raises(self, tmp_path, stream):
        with StreamingRuntime(make_config(), 1, state_dir=tmp_path) as rt:
            rt.ingest(stream[:1000])
            rt.drain()
            with pytest.raises(IngestError, match="drained"):
                rt.ingest(stream[:10])

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misaligned_lengths_rejected_before_any_send(self, tmp_path, stream, extra):
        with StreamingRuntime(make_config(), 2, state_dir=tmp_path) as rt:
            sent = []
            send_chunk = rt.supervisor.send_chunk
            rt.supervisor.send_chunk = lambda *args: sent.append(args) or send_chunk(*args)
            with pytest.raises(ConfigError, match="align"):
                rt.ingest(stream[:1000], np.ones(1000 + extra, dtype=np.int64))
            assert sent == []
            assert rt.drain().num_packets == 0

    def test_drain_is_idempotent(self, tmp_path, stream):
        with StreamingRuntime(make_config(), 1, state_dir=tmp_path) as rt:
            rt.ingest(stream[:1000])
            assert rt.drain() is rt.drain()


class TestMeasureIntegration:
    """api.measure(stream=..., workers=...) rides the runtime."""

    def test_measure_stream_workers(self, stream, flows):
        import repro

        result = repro.measure(
            stream=stream,
            workers=2,
            sram_kb=4,
            cache_kb=2,
            chunk_packets=2000,
        )
        assert isinstance(result, repro.StreamMeasurementResult)
        assert result.num_packets == len(stream)
        assert result.runtime.restarts == 0
        assert len(result.top_flows(5)) == 5
        est = result.estimate(flows)
        assert est.shape == flows.shape and np.all(est >= 0)

    def test_measure_rejects_both_inputs(self, stream):
        import repro

        with pytest.raises(ConfigError):
            repro.measure(stream[:10], stream=stream[:10], sram_kb=1, cache_kb=1)

    def test_measure_iterable_requires_expected_sizes(self, stream):
        import repro

        with pytest.raises(ConfigError, match="expected_packets"):
            repro.measure(stream=iter([stream]), sram_kb=1, cache_kb=1)
