"""Resilience subsystem tests: checkpoint/restore, WAL, health signals.

The contract under test (docs/resilience.md): killing a run at any
packet boundary and resuming from the last checkpoint is
**bit-identical** to never having crashed — counters, cache stats,
estimates, and the set of flows seen all match exactly, on both
engines and both replacement policies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.errors import TraceFormatError
from repro.hashing.tabulation import TabulationIndexer
from repro.resilience import (
    Checkpoint,
    FaultPlan,
    WriteAheadLog,
    health_of,
    observe_health,
    recover,
)
from repro.resilience.wal import EPOCH_RECORD


def make_config(engine="batched", replacement="lru", seed=5, bank=512):
    return CaesarConfig(
        cache_entries=64,
        entry_capacity=16,
        k=3,
        bank_size=bank,
        seed=seed,
        engine=engine,
        replacement=replacement,
    )


def assert_bit_identical(a: Caesar, b: Caesar, flow_ids: np.ndarray) -> None:
    """Full bit-identity: SRAM words, cache stats, estimates, flows."""
    np.testing.assert_array_equal(a.counters.values, b.counters.values)
    assert a.cache.stats == b.cache.stats
    assert a.recorded_mass == b.recorded_mass
    np.testing.assert_array_equal(np.sort(a.flows_seen()), np.sort(b.flows_seen()))
    for method in ("csm", "mlm"):
        np.testing.assert_array_equal(
            a.estimate(flow_ids, method), b.estimate(flow_ids, method)
        )


@pytest.mark.parametrize("engine", ["batched", "scalar"])
@pytest.mark.parametrize("replacement", ["lru", "random"])
class TestKillResume:
    def test_resume_matches_uninterrupted(self, tiny_trace, engine, replacement):
        """Kill at an arbitrary packet boundary, resume, finish: the
        resumed run is indistinguishable from one that never stopped."""
        packets = tiny_trace.packets
        cut = len(packets) // 3

        straight = Caesar(make_config(engine, replacement))
        straight.process(packets)
        straight.finalize()

        crashed = Caesar(make_config(engine, replacement))
        crashed.process(packets[:cut])
        ckpt = crashed.checkpoint()
        del crashed  # the process died here

        resumed = Caesar.resume(ckpt)
        resumed.process(packets[cut:])
        resumed.finalize()

        assert_bit_identical(straight, resumed, tiny_trace.flows.ids)

    def test_checkpoint_roundtrips_through_disk(
        self, tiny_trace, tmp_path, engine, replacement
    ):
        packets = tiny_trace.packets
        cut = len(packets) // 2
        straight = Caesar(make_config(engine, replacement))
        straight.process(packets)
        straight.finalize()

        crashed = Caesar(make_config(engine, replacement))
        crashed.process(packets[:cut])
        path = crashed.save_checkpoint(tmp_path / "ck.npz")

        resumed = Caesar.resume(path)
        resumed.process(packets[cut:])
        resumed.finalize()
        assert_bit_identical(straight, resumed, tiny_trace.flows.ids)


class TestCheckpointState:
    def test_pending_buffer_survives(self, tiny_trace):
        """A checkpoint taken with evictions still buffered must carry
        them across the restore.

        ``process()`` flushes at every API boundary, so stage the
        pending rows directly — the capture path must still round-trip
        them for any caller checkpointing mid-chunk.
        """
        packets = tiny_trace.packets
        caesar = Caesar(make_config("batched"), buffer_capacity=64)
        caesar.process(packets[: len(packets) // 2])
        caesar._buffer.append(424242, 17, 0)
        caesar._buffer.append(424243, 5, 1)
        ckpt = caesar.checkpoint()
        assert int(ckpt.arrays["pending_ids"].shape[0]) == 2
        resumed = Caesar.resume(ckpt)
        assert resumed._buffer.length == 2
        np.testing.assert_array_equal(
            resumed._buffer.ids[:2], np.array([424242, 424243], dtype=np.uint64)
        )
        caesar.finalize()
        resumed.finalize()
        np.testing.assert_array_equal(caesar.counters.values, resumed.counters.values)
        assert caesar.counters.total_mass == resumed.counters.total_mass

    def test_tabulation_indexer_resumes(self, tiny_trace):
        packets = tiny_trace.packets
        cut = len(packets) // 2
        straight = Caesar(make_config())
        straight.indexer = TabulationIndexer(3, 512, seed=11)
        straight.process(packets)
        straight.finalize()

        crashed = Caesar(make_config())
        crashed.indexer = TabulationIndexer(3, 512, seed=11)
        crashed.process(packets[:cut])
        resumed = Caesar.resume(crashed.checkpoint())
        assert isinstance(resumed.indexer, TabulationIndexer)
        resumed.process(packets[cut:])
        resumed.finalize()
        assert_bit_identical(straight, resumed, tiny_trace.flows.ids)

    def test_checkpoint_lag_tracks_mass_since_checkpoint(self, tiny_trace):
        packets = tiny_trace.packets
        caesar = Caesar(make_config())
        caesar.process(packets[:1000])
        assert caesar.checkpoint_lag == caesar.recorded_mass
        caesar.checkpoint()
        assert caesar.checkpoint_lag == 0
        caesar.process(packets[1000:2000])
        assert caesar.checkpoint_lag == 1000

    def test_fault_state_rides_along(self, tiny_trace):
        """Checkpoints under an active fault plan restore the injector
        RNG and accounting: the resumed process is bit-identical to the
        crashed process continuing.

        (Fault draws are per *drained chunk*, and chunk boundaries
        follow the ``process()`` call pattern — so the reference here is
        the crashed instance kept alive, not a differently-chunked
        uninterrupted run; see docs/resilience.md.)
        """
        packets = tiny_trace.packets
        cut = len(packets) // 2
        plan = FaultPlan(drop_chunk=0.3, seed=77)
        crashed = Caesar(make_config(), buffer_capacity=64, fault_plan=plan)
        crashed.process(packets[:cut])
        resumed = Caesar.resume(crashed.checkpoint())

        # Continue both in lockstep: they must never diverge.
        crashed.process(packets[cut:])
        crashed.finalize()
        resumed.process(packets[cut:])
        resumed.finalize()
        np.testing.assert_array_equal(crashed.counters.values, resumed.counters.values)
        assert crashed._injector.lost_mass == resumed._injector.lost_mass
        assert crashed.effective_mass == resumed.effective_mass
        assert crashed._injector.dropped_chunks == resumed._injector.dropped_chunks


class TestCheckpointIntegrity:
    def _checkpoint_file(self, tiny_trace, tmp_path):
        caesar = Caesar(make_config())
        caesar.process(tiny_trace.packets[:2000])
        return caesar.save_checkpoint(tmp_path / "ck.npz")

    def test_truncation_rejected(self, tiny_trace, tmp_path):
        path = self._checkpoint_file(tiny_trace, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            Checkpoint.load(path)

    def test_digest_tamper_rejected(self, tiny_trace, tmp_path):
        path = self._checkpoint_file(tiny_trace, tmp_path)
        with np.load(path, allow_pickle=False) as z:
            members = {k: z[k].copy() for k in z.files}
        members["counter_values"][0] += 1
        np.savez_compressed(path, **members)
        with pytest.raises(TraceFormatError):
            Checkpoint.load(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(TraceFormatError):
            Checkpoint.load(path)

    def test_missing_member_rejected(self, tiny_trace, tmp_path):
        path = self._checkpoint_file(tiny_trace, tmp_path)
        with np.load(path, allow_pickle=False) as z:
            members = {k: z[k].copy() for k in z.files}
        del members["cache_ids"]
        np.savez_compressed(path, **members)
        with pytest.raises(TraceFormatError):
            Checkpoint.load(path)


class TestWal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "w.wal"
        ids = np.array([1, 2, 3], dtype=np.uint64)
        vals = np.array([10, 20, 30], dtype=np.int64)
        reasons = np.array([0, 1, 2], dtype=np.uint8)
        with WriteAheadLog(path) as wal:
            wal.append_chunk(ids, vals, reasons)
            wal.append_event(9, 7, 1)
        records = list(WriteAheadLog.iter_records(path))
        assert len(records) == 2
        np.testing.assert_array_equal(records[0].ids, ids)
        np.testing.assert_array_equal(records[0].values, vals)
        assert records[0].mass == 60
        assert records[1].ids[0] == 9 and records[1].values[0] == 7

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "w.wal"
        ids = np.array([1], dtype=np.uint64)
        vals = np.array([1], dtype=np.int64)
        rs = np.array([0], dtype=np.uint8)
        with WriteAheadLog(path) as wal:
            first = wal.append_chunk(ids, vals, rs)
        with WriteAheadLog(path) as wal:
            second = wal.append_chunk(ids, vals, rs)
        assert second == first + 1
        assert [r.seq for r in WriteAheadLog.iter_records(path)] == [first, second]

    def test_epoch_marker(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            wal.begin_epoch(4)
        (record,) = WriteAheadLog.iter_records(path)
        assert record.kind == EPOCH_RECORD

    def test_torn_tail_is_silent_stop(self, tmp_path):
        """A write cut mid-record (the crash case) truncates cleanly:
        the intact prefix is returned, no exception."""
        path = tmp_path / "w.wal"
        ids = np.array([1, 2], dtype=np.uint64)
        vals = np.array([5, 6], dtype=np.int64)
        rs = np.array([0, 0], dtype=np.uint8)
        with WriteAheadLog(path) as wal:
            wal.append_chunk(ids, vals, rs)
            wal.append_chunk(ids, vals, rs)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        records = list(WriteAheadLog.iter_records(path))
        assert len(records) == 1

    def test_corrupt_payload_rejected(self, tmp_path):
        """Bit-rot *inside* a record (CRC mismatch) must fail loudly."""
        path = tmp_path / "w.wal"
        ids = np.array([1, 2], dtype=np.uint64)
        vals = np.array([5, 6], dtype=np.int64)
        rs = np.array([0, 0], dtype=np.uint8)
        with WriteAheadLog(path) as wal:
            wal.append_chunk(ids, vals, rs)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            list(WriteAheadLog.iter_records(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_bytes(b"NOTAWAL0")
        with pytest.raises(TraceFormatError):
            list(WriteAheadLog.iter_records(path))

    def test_recover_replays_to_precrash_state(self, tiny_trace, tmp_path):
        """checkpoint + WAL tail == the crashed instance's SRAM: every
        chunk drained after the checkpoint is replayed bit-identically."""
        packets = tiny_trace.packets
        wal_path = tmp_path / "w.wal"
        ck_path = tmp_path / "ck.npz"
        caesar = Caesar(
            make_config(), buffer_capacity=64, wal=WriteAheadLog(wal_path)
        )
        caesar.process(packets[:2000])
        caesar.save_checkpoint(ck_path)
        caesar.process(packets[2000:5000])
        caesar._wal.flush()  # the crash point: buffer lost, WAL durable

        result = recover(ck_path, wal_path)
        assert result.chunks_replayed > 0
        np.testing.assert_array_equal(
            result.caesar.counters.values, caesar.counters.values
        )
        # A crash loses the cache residents; what recovery restores is
        # exactly the mass that durably landed in the SRAM.
        assert result.caesar.recorded_mass == result.caesar.counters.total_mass
        assert result.caesar.recorded_mass < caesar.recorded_mass


class TestHealth:
    def test_healthy_run_is_ok(self, tiny_trace):
        caesar = Caesar(make_config())
        caesar.process(tiny_trace.packets)
        caesar.finalize()
        snap = health_of(caesar)
        assert snap.status == "ok" and snap.healthy
        assert snap.lost_eviction_mass == 0
        assert snap.recorded_mass == tiny_trace.num_packets

    def test_lost_mass_goes_critical(self, tiny_trace):
        caesar = Caesar(
            make_config(),
            buffer_capacity=64,
            fault_plan=FaultPlan(drop_chunk=0.5, seed=3),
        )
        caesar.process(tiny_trace.packets)
        caesar.finalize()
        snap = health_of(caesar)
        assert snap.lost_eviction_mass > 0
        assert snap.status == "critical"
        assert not snap.healthy
        assert snap.effective_mass == caesar.effective_mass

    def test_mild_faults_degrade(self, tiny_trace):
        caesar = Caesar(
            make_config(),
            buffer_capacity=64,
            fault_plan=FaultPlan(duplicate_chunk=0.05, seed=3),
        )
        caesar.process(tiny_trace.packets)
        caesar.finalize()
        assert health_of(caesar).status in ("degraded", "critical")

    def test_observe_health_publishes_gauges(self, tiny_trace):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        caesar = Caesar(make_config(), registry=registry)
        caesar.process(tiny_trace.packets)
        caesar.finalize()  # calls observe_health internally
        gauges = registry.snapshot()["gauges"]
        assert gauges["caesar.health.status_level"] == 0.0
        assert gauges["caesar.health.effective_mass"] == tiny_trace.num_packets
        assert gauges["caesar.health.lost_eviction_mass"] == 0.0

    def test_observe_health_disabled_registry_is_noop(self, tiny_trace):
        from repro.obs.registry import NULL_REGISTRY

        caesar = Caesar(make_config())
        caesar.process(tiny_trace.packets)
        caesar.finalize()
        assert observe_health(NULL_REGISTRY, caesar) is None


class TestEstimatorCompensation:
    def test_compensation_subtracts_lost_mass(self, tiny_trace):
        """CSM's noise term is n/L; with mass dropped, the compensated
        estimate uses effective n and sits above the raw one."""
        caesar = Caesar(
            make_config(),
            buffer_capacity=64,
            fault_plan=FaultPlan(drop_chunk=0.3, seed=9),
        )
        caesar.process(tiny_trace.packets)
        caesar.finalize()
        assert caesar.effective_mass < caesar.recorded_mass
        ids = tiny_trace.flows.ids
        comp = caesar.estimate(ids, clip_negative=False)
        raw = caesar.estimate(ids, compensate=False, clip_negative=False)
        assert comp.mean() > raw.mean()

    def test_no_injector_compensation_is_identity(self, tiny_trace):
        caesar = Caesar(make_config())
        caesar.process(tiny_trace.packets)
        caesar.finalize()
        assert caesar.effective_mass == caesar.recorded_mass
        ids = tiny_trace.flows.ids
        np.testing.assert_array_equal(
            caesar.estimate(ids), caesar.estimate(ids, compensate=False)
        )


class TestMeasureApi:
    def test_measure_checkpoint_then_resume(self, tiny_trace, tmp_path):
        from repro.api import measure

        ck = tmp_path / "ck.npz"
        full = measure(
            tiny_trace.packets,
            sram_kb=2,
            cache_kb=1,
            checkpoint_every=3000,
            checkpoint_path=ck,
        )
        resumed = measure(tiny_trace.packets, resume_from=ck)
        assert resumed.num_packets == full.num_packets
        np.testing.assert_array_equal(
            full.caesar.counters.values, resumed.caesar.counters.values
        )

    def test_measure_checkpoint_every_requires_path(self, tiny_trace):
        from repro.api import measure
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            measure(tiny_trace.packets, sram_kb=2, cache_kb=1, checkpoint_every=1000)

    def test_measure_fault_plan(self, tiny_trace):
        from repro.api import measure

        result = measure(
            tiny_trace.packets, sram_kb=2, cache_kb=1, fault_plan=FaultPlan(drop_chunk=0.1)
        )
        assert result.caesar._injector is not None


class TestResumeErrors:
    def test_resume_bad_version_rejected(self, tiny_trace, tmp_path):
        caesar = Caesar(make_config())
        caesar.process(tiny_trace.packets[:500])
        ckpt = caesar.checkpoint()
        ckpt.meta["format_version"] = 999
        with pytest.raises(TraceFormatError):
            ckpt.restore()


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cut_frac=st.floats(min_value=0.05, max_value=0.95),
    engine=st.sampled_from(["batched", "scalar"]),
)
@settings(max_examples=12, deadline=None)
def test_property_kill_resume_bit_identity(tiny_trace_packets, seed, cut_frac, engine):
    """Any seed, any cut point, either engine: resume == uninterrupted."""
    packets = tiny_trace_packets
    cut = max(1, int(len(packets) * cut_frac))
    cfg = make_config(engine=engine, seed=seed)

    straight = Caesar(cfg)
    straight.process(packets)
    straight.finalize()

    crashed = Caesar(cfg)
    crashed.process(packets[:cut])
    resumed = Caesar.resume(crashed.checkpoint())
    resumed.process(packets[cut:])
    resumed.finalize()

    np.testing.assert_array_equal(straight.counters.values, resumed.counters.values)
    assert straight.cache.stats == resumed.cache.stats


@pytest.mark.slow
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    cut_frac=st.floats(min_value=0.01, max_value=0.99),
    engine=st.sampled_from(["batched", "scalar"]),
    replacement=st.sampled_from(["lru", "random"]),
)
@settings(max_examples=150, deadline=None)
def test_property_kill_resume_sweep(
    tiny_trace_packets, seed, cut_frac, engine, replacement
):
    """The long version of the sweep: both policies, wide seed range."""
    packets = tiny_trace_packets
    cut = max(1, int(len(packets) * cut_frac))
    cfg = make_config(engine=engine, replacement=replacement, seed=seed)

    straight = Caesar(cfg)
    straight.process(packets)
    straight.finalize()

    crashed = Caesar(cfg)
    crashed.process(packets[:cut])
    resumed = Caesar.resume(crashed.checkpoint())
    resumed.process(packets[cut:])
    resumed.finalize()

    np.testing.assert_array_equal(straight.counters.values, resumed.counters.values)
    assert straight.cache.stats == resumed.cache.stats


@pytest.fixture(scope="module")
def tiny_trace_packets():
    """A module-scoped packet array for the hypothesis sweeps (function
    fixtures don't mix with @given)."""
    from repro.traffic.distributions import calibrate_zipf_to_mean
    from repro.traffic.flows import FlowSet
    from repro.traffic.packets import uniform_stream

    flows = FlowSet.generate(200, calibrate_zipf_to_mean(27.32, 600), seed=13)
    return uniform_stream(flows, seed=14)
