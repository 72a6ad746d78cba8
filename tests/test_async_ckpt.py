"""Asynchronous checkpointing tests.

The contracts under test (docs/resilience.md "Asynchronous
checkpoints"):

* the background writer keeps at most one write in flight, propagates
  write failures to the producer, and joins cleanly;
* every capture lands as an ordinary full checkpoint of the state at
  capture time;
* the runtime stays bit-identical to the offline ShardedCaesar —
  including with workers SIGKILLed *during* a background write
  (``slow_ckpt_write`` fault).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.resilience import checkpoint as checkpoint_mod
from repro.resilience.async_ckpt import CheckpointWriter, ShardCheckpointer
from repro.resilience.checkpoint import Checkpoint, write_npz
from repro.resilience.faults import FaultPlan, parse_fault_spec
from repro.runtime.client import StreamingRuntime
from repro.runtime.worker import (
    WorkerSpec,
    _prune_checkpoints,
    _save_checkpoint_atomic,
)

def make_config():
    return CaesarConfig(
        cache_entries=64, entry_capacity=16, k=3, bank_size=512, seed=5
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
    def test_each_capture_lands_as_a_full_checkpoint(self, tmp_path, stream):
        caesar = Caesar(make_config())
        ckptr = ShardCheckpointer()
        digests, done = [], []
        for i, chunk in enumerate(np.array_split(stream, 3)):
            caesar.process(chunk)
            done.extend(ckptr.wait_idle()[0])
            digests.append(caesar.checkpoint().digest)
            ckptr.capture(caesar, i, tmp_path / f"ck_{i:010d}.npz")
        done.extend(ckptr.close())
        assert [d.seq for d in done] == [0, 1, 2]
        for d, digest in zip(done, digests):
            assert d.digest == digest
            assert Checkpoint.load(d.path).digest == digest
            assert d.info["bytes"] == d.path.stat().st_size
        assert not list(tmp_path.glob(".tmp_*"))


class TestDigestOncePerWrite:
    """Each checkpoint write hashes its state once: the writer reports
    the digest and ``save`` stores it, both from one computation."""

    @pytest.fixture
    def digest_calls(self, monkeypatch):
        calls = []
        real = checkpoint_mod._digest

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoint_mod, "_digest", counting)
        return calls

    @staticmethod
    def _scheme(stream):
        caesar = Caesar(make_config())
        caesar.process(stream[:4000])
        return caesar

    def test_background_writer(self, tmp_path, stream, digest_calls):
        caesar = self._scheme(stream)
        ckptr = ShardCheckpointer()
        ckptr.capture(caesar, 0, tmp_path / "ck_0000000000.npz")
        (done,) = ckptr.close()
        assert len(digest_calls) == 1
        assert Checkpoint.load(done.path).digest == done.digest

    def test_atomic_save(self, tmp_path, stream, digest_calls):
        caesar = self._scheme(stream)
        target = tmp_path / "ck_0000000000.npz"
        digest = _save_checkpoint_atomic(caesar, target)
        assert len(digest_calls) == 1
        assert Checkpoint.load(target).digest == digest


# -- pruning ------------------------------------------------------------------


class TestPrune:
    def test_keeps_two_newest(self, tmp_path):
        names = [
            "ck_0000000001.npz",
            "ck_0000000003.npz",
            "ck_0000000005.npz",
            "ck_0000000005_final.npz",
        ]
        for n in names:
            (tmp_path / n).touch()
        _prune_checkpoints(tmp_path, keep=2)
        assert sorted(p.name for p in tmp_path.glob("ck_*.npz")) == names[2:]

    def test_no_prune_below_keep(self, tmp_path):
        for n in ("ck_0000000001.npz", "ck_0000000003.npz"):
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


class TestRuntimeCheckpoints:
    def test_drain_matches_offline(self, tmp_path, stream, flows):
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            checkpoint_every=2,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            result = rt.drain()
            assert result.shard_digests == tuple(
                s.checkpoint().digest for s in base.shards
            )
            np.testing.assert_array_equal(
                rt.query(flows), base.estimate(flows, "csm", clip_negative=True)
            )

    def test_sigkill_during_background_write(self, tmp_path, stream):
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
            checkpoint_every=2,
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
    def test_checkpoint_metrics_and_ages_exported(self, tmp_path, stream):
        registry = MetricsRegistry()
        with StreamingRuntime(
            make_config(),
            2,
            state_dir=tmp_path,
            checkpoint_every=2,
            registry=registry,
        ) as rt:
            watch = np.arange(8, dtype=np.uint64)
            rt.ingest_stream(stream, chunk_packets=1000)
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
        assert counters.get("checkpoint.bytes", 0) > 0
        assert ages and all(age >= 0.0 for age in ages.values())
        gauges = snap["gauges"]
        assert "runtime.shard0.last_checkpoint_seq" in gauges
        assert "runtime.shard0.checkpoint_age_seconds" in gauges
        assert "checkpoint.write_seconds" in gauges

    def test_worker_spec_defaults(self):
        spec = WorkerSpec(shard_id=0, config=make_config(), state_dir="x")
        assert spec.checkpoint_every == 4
        assert spec.checkpoint_level == 1

    def test_negative_cadence_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="checkpoint_every"):
            StreamingRuntime(
                make_config(), 1, state_dir=tmp_path, checkpoint_every=-1
            )
