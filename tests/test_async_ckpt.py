"""Async + incremental checkpointing tests.

The contracts under test (docs/resilience.md "Asynchronous and
incremental checkpoints"):

* a delta chain composed by ``load_checkpoint`` equals a full
  checkpoint of the same state bit for bit, on every engine;
* the background writer keeps at most one write in flight, propagates
  write failures to the producer, and joins cleanly;
* the runtime stays bit-identical to the offline ShardedCaesar under
  ``checkpoint_mode="async"`` and ``"delta"`` — including with workers
  SIGKILLed *during* a background write (``slow_ckpt_write`` fault) on
  both transports;
* broken chains (missing base, digest mismatch, loops) are rejected as
  ``TraceFormatError`` exactly like torn full checkpoints.
"""

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, TraceFormatError
from repro.obs.registry import MetricsRegistry
from repro.resilience.async_ckpt import (
    CheckpointWriter,
    ShardCheckpointer,
    load_checkpoint,
    save_delta,
)
from repro.resilience.checkpoint import Checkpoint, write_npz
from repro.resilience.faults import FaultPlan, parse_fault_spec
from repro.runtime.client import StreamingRuntime
from repro.runtime.worker import WorkerSpec, _prune_checkpoints
from repro.sram.counterarray import BankedCounterArray

TRANSPORTS = ["queue", "shm"]


def make_config(engine="batched", seed=5, bank_size=512):
    return CaesarConfig(
        cache_entries=64,
        entry_capacity=16,
        k=3,
        bank_size=bank_size,
        seed=seed,
        engine=engine,
    )


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(17)
    return rng.zipf(1.25, 12_000).astype(np.uint64) % 2048


@pytest.fixture(scope="module")
def flows(stream):
    return np.unique(stream)


def offline_baseline(config, num_shards, packets):
    base = ShardedCaesar(config, num_shards)
    base.process(packets)
    base.finalize()
    return base


# -- dirty-stripe tracking ----------------------------------------------------


class TestDirtyTracking:
    def test_fresh_array_is_all_dirty(self):
        arr = BankedCounterArray(2, 1024, 100)
        assert arr.dirty_fraction() == 1.0
        assert len(arr.dirty_stripes()) == arr.num_stripes

    def test_scatter_add_marks_only_touched_stripes(self):
        arr = BankedCounterArray(2, 1024, 100)
        arr.clear_dirty()
        assert arr.dirty_fraction() == 0.0
        arr.add_at(np.array([0, 1, 700], dtype=np.int64), 1)
        np.testing.assert_array_equal(arr.dirty_stripes(), [0, 2])

    def test_add_one_and_flip_bit_mark(self):
        arr = BankedCounterArray(1, 1024, 100)
        arr.clear_dirty()
        arr.add_one(300)
        arr.flip_bit(900, 0)
        np.testing.assert_array_equal(arr.dirty_stripes(), [1, 3])

    def test_stick_marks(self):
        arr = BankedCounterArray(1, 1024, 100)
        arr.clear_dirty()
        arr.stick(np.array([512], dtype=np.int64), 7)
        np.testing.assert_array_equal(arr.dirty_stripes(), [2])

    def test_restore_and_reset_invalidate(self):
        arr = BankedCounterArray(1, 1024, 100)
        state = arr.export_state()
        arr.clear_dirty()
        arr.restore_state(state)
        assert arr.dirty_fraction() == 1.0
        arr.clear_dirty()
        arr.reset()
        assert arr.dirty_fraction() == 1.0

    def test_last_partial_stripe_is_coverable(self):
        # total_counters not a multiple of the stripe size: the final
        # stripe is short but must still round-trip through a delta.
        arr = BankedCounterArray(1, 300, 100)
        assert arr.num_stripes == 2
        arr.clear_dirty()
        arr.add_one(299)
        np.testing.assert_array_equal(arr.dirty_stripes(), [1])


# -- compression level --------------------------------------------------------


class TestCompressionLevel:
    @pytest.mark.parametrize("level", [0, 1, 6])
    def test_save_load_roundtrip(self, tmp_path, level):
        caesar = Caesar(make_config())
        caesar.process(np.arange(2000, dtype=np.uint64) % 256)
        ckpt = caesar.checkpoint()
        path = ckpt.save(tmp_path / f"ck{level}.npz", level=level)
        loaded = Checkpoint.load(path)
        assert loaded.digest == ckpt.digest

    def test_bad_level_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_npz(tmp_path / "x.npz", {"a": np.zeros(4)}, level=10)

    def test_store_only_is_bigger_but_equal(self, tmp_path):
        caesar = Caesar(make_config())
        caesar.process(np.arange(4000, dtype=np.uint64) % 512)
        ckpt = caesar.checkpoint()
        stored = ckpt.save(tmp_path / "stored.npz", level=0)
        packed = ckpt.save(tmp_path / "packed.npz", level=1)
        assert stored.stat().st_size > packed.stat().st_size
        assert Checkpoint.load(stored).digest == Checkpoint.load(packed).digest


# -- delta format -------------------------------------------------------------


def _build_chain(caesar, chunks, root):
    """Process chunks, writing a full then a chain of deltas; returns the
    paths in order plus the final full-state reference checkpoint."""
    paths = []
    prev_name = prev_digest = None
    ckpt = None
    for i, chunk in enumerate(chunks):
        caesar.process(chunk)
        ckpt = caesar.checkpoint()
        counters = caesar.counters
        if i == 0:
            path = Path(ckpt.save(root / f"ck_{i:010d}.npz"))
        else:
            path = save_delta(
                ckpt,
                root / f"ck_{i:010d}_delta.npz",
                prev_name=prev_name,
                prev_digest=prev_digest,
                stripe_ids=counters.dirty_stripes(),
                stripe_size=counters.stripe_size,
            )
        counters.clear_dirty()
        prev_name, prev_digest = path.name, ckpt.digest
        paths.append(path)
    return paths, ckpt


class TestDeltaFormat:
    def test_chain_composes_bit_identically(self, tmp_path, stream):
        caesar = Caesar(make_config())
        paths, ckpt = _build_chain(caesar, np.array_split(stream, 5), tmp_path)
        composed = load_checkpoint(paths[-1])
        assert composed.digest == ckpt.digest
        np.testing.assert_array_equal(
            composed.arrays["counter_values"], ckpt.arrays["counter_values"]
        )
        resumed = Caesar.resume(composed)
        np.testing.assert_array_equal(
            resumed.counters.values, caesar.counters.values
        )

    def test_missing_base_raises(self, tmp_path, stream):
        caesar = Caesar(make_config())
        paths, _ = _build_chain(caesar, np.array_split(stream, 3), tmp_path)
        paths[0].unlink()
        with pytest.raises(TraceFormatError):
            load_checkpoint(paths[-1])

    def test_wrong_prev_digest_raises(self, tmp_path, stream):
        caesar = Caesar(make_config())
        caesar.process(stream[:4000])
        base = caesar.checkpoint()
        base_path = base.save(tmp_path / "ck_0000000000.npz")
        caesar.counters.clear_dirty()
        caesar.process(stream[4000:8000])
        delta = caesar.checkpoint()
        path = save_delta(
            delta,
            tmp_path / "ck_0000000001_delta.npz",
            prev_name=base_path.name,
            prev_digest="0" * 64,  # lies about the base
            stripe_ids=caesar.counters.dirty_stripes(),
            stripe_size=caesar.counters.stripe_size,
        )
        with pytest.raises(TraceFormatError):
            load_checkpoint(path)

    def test_self_referencing_chain_is_bounded(self, tmp_path, stream):
        caesar = Caesar(make_config())
        caesar.process(stream[:2000])
        ckpt = caesar.checkpoint()
        caesar.counters.clear_dirty()
        caesar.process(stream[2000:4000])
        delta = caesar.checkpoint()
        path = save_delta(
            delta,
            tmp_path / "ck_0000000001_delta.npz",
            prev_name="ck_0000000001_delta.npz",  # itself: a loop
            prev_digest=ckpt.digest,
            stripe_ids=caesar.counters.dirty_stripes(),
            stripe_size=caesar.counters.stripe_size,
        )
        with pytest.raises(TraceFormatError):
            load_checkpoint(path)

    def test_full_file_loads_unchanged(self, tmp_path, stream):
        caesar = Caesar(make_config())
        caesar.process(stream[:3000])
        ckpt = caesar.checkpoint()
        path = ckpt.save(tmp_path / "ck.npz")
        assert load_checkpoint(path).digest == ckpt.digest


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_cuts=st.integers(min_value=2, max_value=5),
    engine=st.sampled_from(["batched", "scalar"]),
)
@settings(max_examples=10, deadline=None)
def test_property_delta_chain_equals_full(tiny_packets, seed, n_cuts, engine):
    """Any seed, any chain length, every engine: composing the delta
    chain recovers the exact state a full checkpoint would."""
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        caesar = Caesar(make_config(engine=engine, seed=seed))
        chunks = np.array_split(tiny_packets, n_cuts)
        paths, ckpt = _build_chain(caesar, chunks, root)
        full = ckpt.save(root / "reference.npz")
        composed = load_checkpoint(paths[-1])
        reference = Checkpoint.load(full)
        assert composed.digest == reference.digest
        for name in composed.arrays:
            np.testing.assert_array_equal(
                composed.arrays[name], reference.arrays[name]
            )


@pytest.fixture(scope="module")
def tiny_packets():
    rng = np.random.default_rng(23)
    return rng.zipf(1.3, 4_000).astype(np.uint64) % 512


# -- the background writer ----------------------------------------------------


class TestCheckpointWriter:
    def test_rejects_overlapping_submits(self):
        w = CheckpointWriter()
        release = []

        def job():
            while not release:
                time.sleep(0.005)

        w.submit(job)
        with pytest.raises(RuntimeError):
            w.submit(lambda: None)
        release.append(True)
        w.close()

    def test_propagates_job_failure(self):
        w = CheckpointWriter()

        def boom():
            raise OSError("disk gone")

        w.submit(boom)
        with pytest.raises(OSError, match="disk gone"):
            w.wait()
        w.close()

    def test_wait_ticks_while_blocked(self):
        w = CheckpointWriter()
        ticks = []
        w.submit(lambda: time.sleep(0.2) or "done")
        results = w.wait(tick=lambda: ticks.append(1), poll_interval=0.02)
        assert results == ["done"]
        assert ticks  # at least one heartbeat fired during the wait
        w.close()

    def test_close_finishes_inflight_write(self, tmp_path):
        w = CheckpointWriter()
        target = tmp_path / "out.txt"

        def job():
            time.sleep(0.1)
            target.write_text("landed")
            return "ok"

        w.submit(job)
        results = w.close()
        assert results == ["ok"]
        assert target.read_text() == "landed"


class TestShardCheckpointer:
    def test_first_capture_is_full_then_delta(self, tmp_path, stream):
        # A small flow universe against large banks keeps the dirty
        # fraction well under the full_above threshold, so the policy
        # must actually emit deltas after the first full.
        caesar = Caesar(make_config(bank_size=65536))
        ckptr = ShardCheckpointer("delta")
        chunks = np.array_split(stream[:6000] % 64, 3)
        kinds = []
        for i, chunk in enumerate(chunks):
            caesar.process(chunk)
            done, _stall = ckptr.wait_idle()
            kinds.extend(d.kind for d in done)
            ckptr.capture(
                caesar,
                i,
                full=tmp_path / f"ck_{i:010d}.npz",
                delta=tmp_path / f"ck_{i:010d}_delta.npz",
            )
        kinds.extend(d.kind for d in ckptr.close())
        assert kinds[0] == "full"
        assert "delta" in kinds[1:]
        # Every file recovers to a verified checkpoint, and each delta
        # serialized a small fraction of the counter space (the format's
        # size win; raw bytes are unreliable here because zero-heavy
        # full banks compress to almost nothing anyway).
        total = caesar.counters.total_counters
        for f in sorted(tmp_path.glob("ck_*.npz")):
            load_checkpoint(f)
            if f.name.endswith("_delta.npz"):
                with np.load(f) as data:
                    assert len(data["delta_payload"]) < total / 2, f.name

    def test_dense_updates_fall_back_to_full(self, tmp_path):
        # Tiny bank: every chunk dirties most stripes, so the delta
        # policy must keep writing fulls.
        caesar = Caesar(make_config(bank_size=512))
        rng = np.random.default_rng(3)
        ckptr = ShardCheckpointer("delta")
        for i in range(3):
            caesar.process(rng.integers(0, 2**40, 3000).astype(np.uint64))
            ckptr.wait_idle()
            ckptr.capture(
                caesar,
                i,
                full=tmp_path / f"ck_{i:010d}.npz",
                delta=tmp_path / f"ck_{i:010d}_delta.npz",
            )
        done = ckptr.close()
        assert not list(tmp_path.glob("*_delta.npz"))
        assert all(d.kind == "full" for d in done)


# -- pruning ------------------------------------------------------------------


class TestChainAwarePrune:
    def test_keeps_every_surviving_deltas_chain(self, tmp_path):
        names = [
            "ck_0000000001.npz",
            "ck_0000000003_delta.npz",
            "ck_0000000005.npz",
            "ck_0000000007_delta.npz",
            "ck_0000000009.npz",
            "ck_0000000011_delta.npz",
        ]
        for n in names:
            (tmp_path / n).touch()
        _prune_checkpoints(tmp_path, keep=2)
        left = sorted(p.name for p in tmp_path.glob("ck_*.npz"))
        # Cutoff is the 2nd-newest full (seq 5): everything at or past
        # it survives, including the deltas chained onto those fulls.
        assert left == names[2:]

    def test_no_prune_below_keep(self, tmp_path):
        for n in ("ck_0000000001.npz", "ck_0000000003_delta.npz"):
            (tmp_path / n).touch()
        _prune_checkpoints(tmp_path, keep=2)
        assert len(list(tmp_path.glob("ck_*.npz"))) == 2


# -- fault plumbing -----------------------------------------------------------


class TestSlowCkptFault:
    def test_parse_alias(self):
        plan = parse_fault_spec("slow_ckpt=0.25")
        assert plan.slow_ckpt_write == 0.25
        # Not a chunk-path fault: the checkpointer consumes it directly.
        assert not plan.runtime_enabled
        assert not plan.enabled

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(slow_ckpt_write=-0.1)


# -- runtime integration ------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("mode", ["async", "delta"])
class TestRuntimeModes:
    def test_drain_matches_offline(self, tmp_path, stream, flows, mode, transport):
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            transport=transport,
            checkpoint_every=2,
            checkpoint_mode=mode,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            result = rt.drain()
            assert result.shard_digests == tuple(
                s.checkpoint().digest for s in base.shards
            )
            np.testing.assert_array_equal(
                rt.query(flows), base.estimate(flows, "csm", clip_negative=True)
            )

    def test_sigkill_during_background_write(
        self, tmp_path, stream, flows, mode, transport
    ):
        """Kill a worker while its writer thread is mid-write (the
        slow_ckpt_write fault holds the .tmp_ stage open): recovery must
        still be bit-identical, and the torn temp swept."""
        config = make_config()
        base = offline_baseline(config, 2, stream)
        chunks = np.array_split(stream, 12)
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            transport=transport,
            checkpoint_every=2,
            checkpoint_mode=mode,
            worker_faults={1: FaultPlan(slow_ckpt_write=0.6)},
        ) as rt:
            for i, chunk in enumerate(chunks):
                rt.ingest(chunk)
                if i == 5:
                    # seq 5 just triggered a capture; give the worker a
                    # beat to enter the (slowed) background write, then
                    # kill it mid-write.
                    time.sleep(0.25)
                    rt.kill_worker(1)
            result = rt.drain()
            assert result.restarts == 1
            assert result.num_packets == len(stream)
            assert result.shard_digests == tuple(
                s.checkpoint().digest for s in base.shards
            )
        # The sweeps collected any torn async write.
        assert not list(Path(tmp_path).glob("shard*/.tmp_*"))


class TestRuntimeObservability:
    def test_delta_metrics_and_ages_exported(self, tmp_path, stream):
        # Large banks + few flows => low dirty fraction => real deltas.
        config = make_config(bank_size=65536)
        registry = MetricsRegistry()
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            transport="queue",
            checkpoint_every=2,
            checkpoint_mode="delta",
            registry=registry,
        ) as rt:
            watch = np.arange(8, dtype=np.uint64)
            rt.ingest_stream(stream % 64, chunk_packets=1000)
            rt.query(watch)
            result = rt.drain()
            rt.query(watch)
            rt.query(watch, detail=True)
            ages = rt.checkpoint_ages()
        assert result.restarts == 0
        snap = registry.snapshot()
        assert snap["timers"]["runtime.query"]["calls"] == 3
        counters = snap["counters"]
        assert counters.get("checkpoint.writes", 0) > 0
        assert counters.get("checkpoint.deltas", 0) > 0
        assert counters.get("checkpoint.bytes", 0) > 0
        assert ages and all(age >= 0.0 for age in ages.values())
        gauges = snap["gauges"]
        assert "runtime.shard0.last_checkpoint_seq" in gauges
        assert "runtime.shard0.checkpoint_age_seconds" in gauges

    def test_worker_spec_defaults_async(self):
        spec = WorkerSpec(shard_id=0, config=make_config(), state_dir="x")
        assert spec.checkpoint_mode == "async"
        assert spec.checkpoint_level == 1

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            StreamingRuntime(
                make_config(), 1, state_dir=tmp_path, checkpoint_mode="fancy"
            )
