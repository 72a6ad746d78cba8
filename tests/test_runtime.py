"""Streaming runtime tests: bit-identity, crash recovery, backpressure.

The contract under test (docs/runtime.md): a ``StreamingRuntime`` run —
chunked ingest through a pluggable transport into ``W`` worker
processes, with any number of workers SIGKILLed along the way —
finishes with per-shard states (estimates *and* checkpoint digests)
bit-identical to a single-process ``ShardedCaesar.process`` of the same
stream, on every construction engine and every transport. Transport-
sensitive suites run twice: once over bounded pickled queues, once over
the zero-copy shared-memory rings.
"""

import multiprocessing as mp
import signal
import time

import numpy as np
import pytest

from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, IngestError, TraceFormatError
from repro.obs.registry import MetricsRegistry
from repro.resilience.wal import WriteAheadLog
from repro.runtime import StreamPartitioner, chunk_stream
from repro.runtime.client import StreamingRuntime
from repro.runtime.queues import QueueTransport
from repro.runtime.shm import (
    CTRL_BYTES,
    KIND_CHUNK,
    RingConsumer,
    RingProducer,
    SharedMemoryRingTransport,
)
from repro.runtime.transport import resolve_transport
from repro.runtime.worker import (
    WorkerSpec,
    append_ingest_chunk,
    boot_shard,
    decode_ingest_record,
)
from tests.conftest import wait_until

TRANSPORTS = ["queue", "shm"]


def make_config(engine="batched", seed=5):
    return CaesarConfig(
        cache_entries=64,
        entry_capacity=16,
        k=3,
        bank_size=512,
        seed=seed,
        engine=engine,
    )


def tiny_transport(name):
    """A transport whose data plane fills after ~2 hundred-packet chunks
    (the backpressure tests freeze the consumer and need a fast fill)."""
    if name == "queue":
        return QueueTransport(queue_depth=1)
    return SharedMemoryRingTransport(ring_bytes=2048)


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(11)
    return rng.zipf(1.25, 12_000).astype(np.uint64) % 2048


@pytest.fixture(scope="module")
def flows(stream):
    return np.unique(stream)


def offline_baseline(config, num_shards, packets):
    base = ShardedCaesar(config, num_shards)
    base.process(packets)
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

    def test_decode_rejects_headerless_record(self, tmp_path, stream):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append_chunk(
                stream[:4],
                np.zeros(4, np.int64),
                np.zeros(4, np.uint8),  # reason 0 != CHUNK_HEADER_REASON
            )
        (record,) = list(WriteAheadLog.iter_records(path))
        with pytest.raises(TraceFormatError):
            decode_ingest_record(record)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("engine", ["batched", "scalar"])
class TestBitIdentity:
    def test_runtime_matches_offline(self, tmp_path, stream, flows, engine, transport):
        config = make_config(engine)
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(config, 2, state_dir=tmp_path, transport=transport) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            result = rt.drain()
            assert result.num_packets == len(stream)
            assert result.restarts == 0
            assert_matches_offline(result, rt, base, flows)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestRecovery:
    def test_sigkill_mid_stream_recovers_bit_identically(
        self, tmp_path, stream, flows, transport
    ):
        config = make_config()
        base = offline_baseline(config, 2, stream)
        chunks = np.array_split(stream, 12)
        with StreamingRuntime(
            config, 2, state_dir=tmp_path, transport=transport, checkpoint_every=2
        ) as rt:
            for i, chunk in enumerate(chunks):
                if i == 7:
                    rt.kill_worker(1)
                rt.ingest(chunk)
            result = rt.drain()
            assert result.restarts == 1
            assert result.num_packets == len(stream)
            assert_matches_offline(result, rt, base, flows)

    def test_recovery_without_checkpoints_replays_wal(
        self, tmp_path, stream, flows, transport
    ):
        """checkpoint_every=0: the restarted worker rebuilds purely from
        ingest-WAL replay plus supervisor re-feed."""
        config = make_config()
        base = offline_baseline(config, 2, stream)
        chunks = np.array_split(stream, 8)
        with StreamingRuntime(
            config, 2, state_dir=tmp_path, transport=transport, checkpoint_every=0
        ) as rt:
            for i, chunk in enumerate(chunks):
                if i == 5:
                    rt.kill_worker(0)
                rt.ingest(chunk)
            result = rt.drain()
            assert result.restarts == 1
            assert_matches_offline(result, rt, base, flows)

    def test_pending_query_survives_worker_death(
        self, tmp_path, stream, flows, transport
    ):
        """A query outstanding when its worker dies is re-sent to the
        restarted worker and still answered."""
        config = make_config()
        with StreamingRuntime(config, 1, state_dir=tmp_path, transport=transport) as rt:
            rt.ingest(stream[:4000])
            rt.supervisor.ask(0, 999, flows[:4], "csm")
            rt.kill_worker(0)
            est = rt.supervisor.collect_reply(0, 999, timeout=60)
            assert est.shape == (4,)
            assert rt.restarts == 1

    def test_restart_budget_exhaustion_raises(self, tmp_path, stream, transport):
        config = make_config()
        with StreamingRuntime(
            config, 1, state_dir=tmp_path, transport=transport, max_restarts=0
        ) as rt:
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


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestBackpressure:
    def _stalled_runtime(self, tmp_path, transport, policy, registry=None):
        rt = StreamingRuntime(
            make_config(),
            1,
            state_dir=tmp_path,
            transport=tiny_transport(transport),
            backpressure=policy,
            registry=registry,
        ).start()
        # Freeze the consumer: the bounded data plane must now fill.
        rt.kill_worker(0, signal.SIGSTOP)
        return rt

    def test_shed_drops_and_counts(self, tmp_path, stream, transport):
        registry = MetricsRegistry()
        rt = self._stalled_runtime(tmp_path, transport, "shed", registry)
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

    def test_error_policy_raises_on_full_channel(self, tmp_path, stream, transport):
        rt = self._stalled_runtime(tmp_path, transport, "error")
        try:
            with pytest.raises(IngestError, match="is full"):
                for _ in range(10):
                    rt.ingest(stream[:100])
        finally:
            rt.kill_worker(0, signal.SIGCONT)
            rt.shutdown()

    def test_block_policy_records_stalls(self, tmp_path, stream, transport):
        registry = MetricsRegistry()
        rt = StreamingRuntime(
            make_config(),
            1,
            state_dir=tmp_path,
            transport=tiny_transport(transport),
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

    def test_rejects_unknown_policy(self, tmp_path, transport):
        with pytest.raises(ConfigError):
            StreamingRuntime(
                make_config(),
                1,
                state_dir=tmp_path,
                transport=transport,
                backpressure="bogus",
            )


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
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            transport=SharedMemoryRingTransport(ring_bytes=4096),
        ) as rt:
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
            transport=SharedMemoryRingTransport(ring_bytes=2048),
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
            transport=SharedMemoryRingTransport(ring_bytes=2048),
            backpressure="error",
        ) as rt:
            with pytest.raises(IngestError, match="record cap"):
                rt.ingest(stream[:4000])

    def test_segments_unlinked_after_shutdown(self, tmp_path, stream):
        from multiprocessing import shared_memory

        with StreamingRuntime(
            make_config(), 2, state_dir=tmp_path, transport="shm"
        ) as rt:
            rt.ingest(stream[:2000])
            names = [h.channel.segment_name for h in rt.supervisor.handles]
            assert all(names)
            rt.drain()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_crash_restart_swaps_and_unlinks_segment(self, tmp_path, stream):
        from multiprocessing import shared_memory

        with StreamingRuntime(
            make_config(), 1, state_dir=tmp_path, transport="shm"
        ) as rt:
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
            transport="shm",
            ack_every=5,
            checkpoint_every=0,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=700)
            rt.drain()
            rt.supervisor.pump()
            assert all(not h.retained for h in rt.supervisor.handles)


class TestTransportSelection:
    def test_rejects_unknown_transport(self, tmp_path):
        with pytest.raises(ConfigError, match="transport"):
            StreamingRuntime(make_config(), 1, state_dir=tmp_path, transport="bogus")

    def test_resolve_passes_instances_through(self):
        t = QueueTransport(queue_depth=3)
        assert resolve_transport(t) is t

    def test_queue_depth_must_be_positive(self):
        with pytest.raises(IngestError, match="queue_depth"):
            QueueTransport(queue_depth=0)

    def test_ring_bytes_must_be_sane(self):
        with pytest.raises(IngestError, match="ring_bytes"):
            SharedMemoryRingTransport(ring_bytes=16)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestChannelAcrossRestarts:
    def test_recv_on_abandoned_channel_returns_none(self, transport):
        channel = resolve_transport(transport).channel(
            0, ctx=mp.get_context(), policy="block", registry=MetricsRegistry()
        )
        channel.open()
        channel.abandon()
        assert channel.poll() == []
        assert channel.recv(0.01) is None
        channel.close()

    def test_marker_blocked_across_a_restart_is_delivered_once(self, transport):
        """A drain stalled on a full channel whose worker is restarted
        from the stall hook must not be sent again on the fresh channel:
        the restart re-sends pending markers itself (as the supervisor's
        restart does), and a second drain makes the worker finalize and
        write its final checkpoint twice."""
        if transport == "queue":
            factory = QueueTransport(queue_depth=2)
        else:
            factory = SharedMemoryRingTransport(ring_bytes=2048)
        fresh = []

        def restart_once() -> None:
            if not fresh:
                channel.abandon()
                fresh.append(channel.open())
                channel.send_drain()

        channel = factory.channel(
            0,
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


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestWakeOnArrival:
    """Control messages wake the worker loop; nothing waits out a poll."""

    def test_idle_worker_wakes_for_queries_and_stop(
        self, tmp_path, stream, flows, transport, monkeypatch
    ):
        """With the idle data wait stretched to 30 s, a query before
        ingest, one after drain, and the stop at shutdown are all
        answered at once rather than after the poll runs out."""
        # Set before start(): the forked workers inherit it.
        monkeypatch.setattr("repro.runtime.worker.POLL_SECONDS", 30.0)
        rt = StreamingRuntime(
            make_config(), 2, state_dir=tmp_path, transport=transport, hang_timeout=None
        )
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


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestLiveQueries:
    def test_queries_mid_ingest_then_exact_after_drain(
        self, tmp_path, stream, flows, transport
    ):
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(config, 2, state_dir=tmp_path, transport=transport) as rt:
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

    def test_drain_is_idempotent(self, tmp_path, stream):
        with StreamingRuntime(make_config(), 1, state_dir=tmp_path) as rt:
            rt.ingest(stream[:1000])
            assert rt.drain() is rt.drain()


class TestMeasureIntegration:
    """api.measure(stream=..., workers=...) rides the runtime."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_measure_stream_workers(self, stream, flows, transport):
        import repro

        result = repro.measure(
            stream=stream,
            workers=2,
            transport=transport,
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

    def test_measure_transport_requires_workers(self, stream):
        import repro

        with pytest.raises(ConfigError, match="workers"):
            repro.measure(stream=stream, transport="shm", sram_kb=1, cache_kb=1)

    def test_measure_transport_requires_stream(self, stream):
        import repro

        with pytest.raises(ConfigError, match="stream="):
            repro.measure(stream[:100], transport="shm", sram_kb=1, cache_kb=1)
