"""Watchdog, backoff, and graceful degradation (repro.runtime.watchdog).

The fail-slow half of the runtime's fault model: SIGSTOPped (hung)
workers are detected by heartbeat silence and escalated
nudge → SIGTERM → SIGKILL into the ordinary crash-recovery path;
repeated crashes attributed to one chunk quarantine it to a CRC'd
side WAL while ingest continues; queries degrade (skip, NaN-fill,
report coverage) instead of hanging. Throughout, the no-fault contract
is untouched: a drained runtime is bit-identical to the offline
single-process run — and a *degraded* run is bit-identical to an
offline run over the same surviving input (offline_twin_excluding).
"""

import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import FaultPlan, parse_fault_spec
from repro.runtime.client import StreamingRuntime
from repro.runtime.partitioner import ShardMap
from repro.runtime.watchdog import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    PartialEstimate,
    RestartBudget,
    ShardQueryStatus,
    WatchdogConfig,
    backoff_delay,
    load_quarantine,
    offline_twin_excluding,
    quarantine_chunk,
    sweep_stale_tmp,
)
from tests.conftest import wait_until

def make_config(seed=5):
    return CaesarConfig(
        cache_entries=64,
        entry_capacity=16,
        k=3,
        bank_size=512,
        seed=seed,
        engine="batched",
    )


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


# -- restart discipline (pure units) ------------------------------------------


class TestRestartBudget:
    def test_capacity_then_exhaustion(self):
        budget = RestartBudget(2)
        assert budget.take(now=0.0)
        assert budget.take(now=0.0)
        assert not budget.take(now=1000.0)  # refill 0: never comes back
        assert budget.wait_for_token(now=1000.0) is None

    def test_refill_turns_death_into_throttling(self):
        budget = RestartBudget(1, refill_per_s=0.5)
        assert budget.take(now=0.0)
        assert not budget.take(now=0.1)
        # Needs ~2s per token at 0.5/s; wait_for_token reports the gap.
        wait = budget.wait_for_token(now=0.1)
        assert wait is not None and 1.5 < wait <= 2.0
        assert budget.take(now=2.5)

    def test_refill_clamps_at_capacity(self):
        budget = RestartBudget(2, refill_per_s=100.0)
        assert budget.take(now=0.0)
        assert budget.take(now=1000.0)
        assert budget.take(now=1000.0)  # clamp: at most 2 accrued
        assert not budget.take(now=1000.0)


class TestBackoffDelay:
    def test_first_failure_is_immediate(self):
        assert backoff_delay(1, seed=7, shard=0) == 0.0
        assert backoff_delay(0, seed=7, shard=0) == 0.0

    def test_deterministic_and_growing(self):
        delays = [backoff_delay(n, base=0.25, seed=9, shard=3) for n in range(2, 8)]
        again = [backoff_delay(n, base=0.25, seed=9, shard=3) for n in range(2, 8)]
        assert delays == again  # seeded jitter: bit-reproducible
        bases = [d - d % 0.25 for d in delays]
        assert bases == sorted(bases)
        # The n-th failure waits base * 2**(n-2) plus jitter in [0, base).
        assert 0.25 <= delays[1] < 0.75

    def test_distinct_shards_get_distinct_jitter(self):
        assert backoff_delay(3, seed=9, shard=0) != backoff_delay(3, seed=9, shard=1)

    def test_cap(self):
        d = backoff_delay(40, base=0.25, max_delay=5.0, seed=1, shard=0)
        assert 5.0 <= d < 5.25


class TestCircuitBreaker:
    def test_lifecycle(self):
        breaker = CircuitBreaker()
        assert breaker.state == BREAKER_CLOSED and breaker.level == 0
        delay = breaker.record_failure(10.0, base=0.25, max_delay=30.0, seed=1, shard=0)
        assert breaker.state == BREAKER_OPEN and breaker.level == 1
        assert delay == 0.0 and breaker.next_attempt == 10.0  # first: immediate
        breaker.record_probation()
        assert breaker.state == BREAKER_HALF_OPEN and breaker.level == 2
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED and breaker.consecutive == 0

    def test_consecutive_failures_back_off(self):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0, base=0.25, max_delay=30.0, seed=1, shard=0)
        breaker.record_probation()
        delay = breaker.record_failure(1.0, base=0.25, max_delay=30.0, seed=1, shard=0)
        assert delay > 0.0 and breaker.next_attempt == 1.0 + delay


class TestWatchdogConfig:
    def test_for_timeout_derives_proportionate_graces(self):
        cfg = WatchdogConfig.for_timeout(0.8)
        assert cfg.hang_timeout == 0.8
        assert cfg.term_grace == cfg.kill_grace == pytest.approx(0.2)
        big = WatchdogConfig.for_timeout(30.0)
        assert big.term_grace == big.kill_grace == 2.0  # clamped


# -- fault-spec parsing -------------------------------------------------------


class TestRuntimeFaultSpec:
    def test_parse_runtime_keys(self):
        plan = parse_fault_spec("hang=6,slow=0.05,crash=5,crash_limit=2")
        assert plan.hang_at_chunk == 6
        assert plan.slow_apply == pytest.approx(0.05)
        assert plan.crash_on_seq == 5 and plan.crash_limit == 2
        assert plan.runtime_enabled

    def test_runtime_enabled_is_orthogonal_to_eviction_faults(self):
        assert not FaultPlan().runtime_enabled
        assert not parse_fault_spec("drop=0.1").runtime_enabled
        assert FaultPlan(slow_apply=0.01).runtime_enabled
        assert FaultPlan(hang_at_chunk=0).runtime_enabled
        assert FaultPlan(crash_on_seq=0).runtime_enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(slow_apply=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(hang_at_chunk=-2)
        with pytest.raises(ConfigError):
            FaultPlan(crash_limit=-1)


# -- quarantine store (pure units) --------------------------------------------


class TestQuarantineStore:
    def test_roundtrip_with_evidence(self, tmp_path):
        pkts = np.arange(50, dtype=np.uint64)
        lens = np.full(50, 7, dtype=np.int64)
        quarantine_chunk(tmp_path, 1, 4, pkts, lens, crashes=3, reason="boom")
        quarantine_chunk(
            tmp_path, 1, 9, pkts[:10], None, crashes=2, reason="again"
        )
        records = load_quarantine(tmp_path)
        assert [(r.shard, r.seq, r.n_packets, r.crashes) for r in records] == [
            (1, 4, 50, 3),
            (1, 9, 10, 2),
        ]
        np.testing.assert_array_equal(records[0].packets, pkts)
        np.testing.assert_array_equal(records[0].lengths, lens)
        assert records[1].lengths is None
        assert records[0].reason == "boom"

    def test_load_scans_shard_subdirs(self, tmp_path):
        pkts = np.arange(5, dtype=np.uint64)
        quarantine_chunk(tmp_path / "shard0", 0, 2, pkts, None, crashes=1, reason="x")
        quarantine_chunk(tmp_path / "shard3", 3, 0, pkts, None, crashes=1, reason="y")
        records = load_quarantine(tmp_path)
        assert sorted((r.shard, r.seq) for r in records) == [(0, 2), (3, 0)]

    @pytest.mark.parametrize("torn_rows", [200, 20])
    def test_quarantine_after_torn_tail_keeps_every_record(self, tmp_path, torn_rows):
        """A crash mid-append leaves a torn record in quarantine.wal;
        the next quarantine must cut it, not append after it. Appended
        after a torn header claiming 200 rows, the next record vanished
        into the torn payload; after one claiming 20 rows, the garbage
        failed its CRC and no record in the file loaded."""
        pkts = np.arange(50, dtype=np.uint64)
        quarantine_chunk(tmp_path, 0, 3, pkts, None, crashes=3, reason="a")
        with open(tmp_path / "quarantine.wal", "ab") as fh:
            fh.write(struct.pack("<BIII", 2, 1, torn_rows, 0) + bytes(100))
        quarantine_chunk(tmp_path, 0, 7, pkts + 100, None, crashes=3, reason="b")
        records = load_quarantine(tmp_path)
        assert [r.seq for r in records] == [3, 7]
        np.testing.assert_array_equal(records[0].packets, pkts)
        np.testing.assert_array_equal(records[1].packets, pkts + 100)

    def test_reason_is_truncated(self, tmp_path):
        quarantine_chunk(
            tmp_path,
            0,
            0,
            np.arange(3, dtype=np.uint64),
            None,
            crashes=1,
            reason="x" * 10_000,
        )
        (line,) = (tmp_path / "quarantine.json").read_text().splitlines()
        assert len(json.loads(line)["reason"]) == 2000


class TestStaleTmpSweep:
    def test_sweeps_only_tmp_files(self, tmp_path):
        (tmp_path / ".tmp_ck_000007.npz").write_bytes(b"torn")
        (tmp_path / ".tmp_ck_000009_final.npz").write_bytes(b"torn")
        (tmp_path / "ck_000007.npz").write_bytes(b"keep")
        assert sweep_stale_tmp(tmp_path) == 2
        assert (tmp_path / "ck_000007.npz").exists()
        assert not list(tmp_path.glob(".tmp_*"))

    def test_missing_dir_is_zero(self, tmp_path):
        assert sweep_stale_tmp(tmp_path / "nope") == 0


# -- partial answers (pure units) ---------------------------------------------


class TestPartialEstimate:
    def test_array_protocol(self):
        est = np.array([1.0, np.nan, 3.0])
        pe = PartialEstimate(
            estimates=est,
            degraded=True,
            coverage=0.5,
            shards=(ShardQueryStatus(0, "ok", 1.0), ShardQueryStatus(1, "skipped", 1.0)),
        )
        assert len(pe) == 3
        np.testing.assert_array_equal(np.asarray(pe), est)
        assert np.asarray(pe, dtype=np.float32).dtype == np.float32


# -- hang detection + recovery (process-level chaos) --------------------------


class TestHangRecovery:
    def test_sigstop_worker_is_detected_killed_and_recovered(self, tmp_path, stream, flows):
        """SIGSTOP (a hang the process-liveness poll cannot see) on one
        worker mid-ingest: the watchdog walks nudge → SIGTERM → SIGKILL,
        the ordinary recovery path repairs the shard, and the drained
        runtime is still bit-identical to the offline run."""
        config = make_config()
        base = offline_baseline(config, 2, stream)
        registry = MetricsRegistry()
        chunks = np.array_split(stream, 12)
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            registry=registry,
            hang_timeout=0.8,
            max_restarts=5,
            restart_refill_per_s=5.0,
            checkpoint_every=2,
        ) as rt:
            for i, chunk in enumerate(chunks):
                if i == 4:
                    rt.kill_worker(0, signal.SIGSTOP)
                rt.ingest(chunk)
            # The escalation runs off pump(): poll it until the SIGKILL
            # lands and the shard restarts, not a fixed sleep.
            wait_until(
                lambda: bool(rt.supervisor.pump() or rt.restarts >= 1),
                timeout=30.0,
                desc="watchdog SIGKILL + restart of the stopped worker",
            )
            result = rt.drain()
            assert result.restarts >= 1
            assert registry.counter("runtime.watchdog.hangs").value >= 1
            assert registry.counter("runtime.watchdog.nudges").value >= 1
            assert registry.counter("runtime.watchdog.sigkills").value >= 1
            assert result.num_packets == len(stream)
            assert not result.degraded
            base_digests = tuple(s.checkpoint().digest for s in base.shards)
            assert result.shard_digests == base_digests
            np.testing.assert_array_equal(
                rt.query(flows), base.estimate(flows, "csm", clip_negative=True)
            )

    def test_sigstop_at_drain_time_is_recovered(self, tmp_path, stream, flows):
        """A worker stopped just before drain: the watchdog must stay
        armed through the drain wait, or wait_finalized spins out."""
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            hang_timeout=0.8,
            max_restarts=5,
            restart_refill_per_s=5.0,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            rt.kill_worker(1, signal.SIGSTOP)
            result = rt.drain(timeout=60.0)
            assert result.restarts >= 1
            base_digests = tuple(s.checkpoint().digest for s in base.shards)
            assert result.shard_digests == base_digests


# -- poison chunks -------------------------------------------------------------


class TestPoisonChunk:
    def test_quarantine_keeps_ingesting_and_accounts_mass(self, tmp_path, stream, flows):
        """A chunk that crashes its worker on every attempt is blamed,
        quarantined after N attributed crashes, and the runtime keeps
        ingesting; queries report reduced coverage and the drained state
        is bit-identical to an offline run that skips exactly that
        chunk."""
        config = make_config()
        registry = MetricsRegistry()
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            registry=registry,
            worker_faults={0: FaultPlan(crash_on_seq=2, crash_limit=0)},
            quarantine_after=2,
            restart_refill_per_s=50.0,
            max_restarts=3,
            hang_timeout=30.0,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            # The crash → restart → re-crash → quarantine cycle is driven
            # by pump(); poll it rather than ingesting filler packets
            # (extra input would break the offline-twin comparison).
            wait_until(
                lambda: bool(
                    rt.supervisor.pump()
                    or registry.counter("runtime.quarantine.chunks").value >= 1
                ),
                timeout=30.0,
                desc="poison chunk quarantined",
            )
            live = rt.query(flows[:8], detail=True)
            assert isinstance(live, PartialEstimate)
            assert live.degraded
            assert any(s.coverage < 1.0 for s in live.shards)
            result = rt.drain()
            final = rt.query(flows)

        assert result.degraded
        assert len(result.quarantined) == 1
        shard, seq, n_packets = result.quarantined[0]
        assert (shard, seq) == (0, 2) and n_packets > 0
        assert result.quarantined_packets == n_packets
        # Mass accounting: the workers applied everything except the
        # quarantined chunk, and the spilled evidence matches.
        assert result.num_packets == len(stream) - n_packets
        (record,) = load_quarantine(tmp_path)
        assert (record.shard, record.seq, record.n_packets) == (0, 2, n_packets)
        assert record.crashes >= 2
        assert record.packets is not None and len(record.packets) == n_packets
        assert "injected crash" in record.reason
        # Degraded bit-identity: equal to an offline run over the same
        # surviving input (same chunking, same skipped (shard, seq)).
        offline = offline_twin_excluding(
            config,
            result.shard_map,
            stream,
            chunk_packets=1500,
            quarantined={(s, q) for s, q, _ in result.quarantined},
        )
        np.testing.assert_array_equal(
            final, offline.estimate(flows, "csm", clip_negative=True)
        )
        offline_digests = tuple(s.checkpoint().digest for s in offline.shards)
        assert result.shard_digests == offline_digests

    @pytest.mark.parametrize("donors", [(), (1,)], ids=["unsplit", "split"])
    def test_empty_exclusion_is_the_plain_twin(self, stream, flows, donors):
        """Excluding nothing, the chunked twin equals a plain
        ShardedCaesar over the same map, split or not, so one function
        can build every ``serve --verify-offline`` twin."""
        config = make_config()
        shard_map = ShardMap(num_base=2)
        for donor in donors:
            shard_map = shard_map.split(donor)
        twin = offline_twin_excluding(
            config, shard_map, stream, chunk_packets=1500, quarantined=set()
        )
        plain = ShardedCaesar(config, shard_map=shard_map)
        plain.process(stream)
        plain.finalize()
        assert twin.num_shards == 2 + len(donors)
        assert tuple(s.checkpoint().digest for s in twin.shards) == tuple(
            s.checkpoint().digest for s in plain.shards
        )
        np.testing.assert_array_equal(
            twin.estimate(flows, "csm", clip_negative=True),
            plain.estimate(flows, "csm", clip_negative=True),
        )

    def test_crash_limit_bounds_the_fault(self, tmp_path, stream, flows):
        """crash_limit=1: one injected crash, ordinary recovery, nothing
        quarantined — the no-fault contract still holds end to end."""
        config = make_config()
        base = offline_baseline(config, 2, stream)
        with StreamingRuntime(
            config,
            2,
            state_dir=tmp_path,
            worker_faults={0: FaultPlan(crash_on_seq=1, crash_limit=1)},
            quarantine_after=3,
            max_restarts=5,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            result = rt.drain()
            assert result.restarts >= 1
            assert result.quarantined == ()
            assert not result.degraded
            assert result.num_packets == len(stream)
            base_digests = tuple(s.checkpoint().digest for s in base.shards)
            assert result.shard_digests == base_digests
            np.testing.assert_array_equal(
                rt.query(flows), base.estimate(flows, "csm", clip_negative=True)
            )


# -- degraded query plane ------------------------------------------------------


class TestPartialQueries:
    def test_dead_shard_is_skipped_with_nan_fill(self, tmp_path, stream, flows):
        """With the restart budget empty but refilling, a killed shard
        stays down (breaker open) while queries keep answering: its
        flows come back NaN with status 'skipped', and detail=True
        reports degraded coverage."""
        with StreamingRuntime(
            make_config(),
            2,
            state_dir=tmp_path,
            max_restarts=0,
            restart_refill_per_s=0.02,  # 50s/token: down for the test
            query_deadline=5.0,
        ) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            rt.kill_worker(0)
            wait_until(
                lambda: not rt.supervisor.handles[0].process.is_alive(),
                desc="worker 0 death",
            )
            detail = rt.query(flows, detail=True)
            assert isinstance(detail, PartialEstimate)
            assert detail.degraded
            assert detail.coverage < 1.0
            statuses = {s.shard: s.status for s in detail.shards}
            assert statuses[0] == "skipped" and statuses[1] == "ok"
            owners = rt.partitioner.shard_of(flows)
            assert np.isnan(detail.estimates[owners == 0]).all()
            assert not np.isnan(detail.estimates[owners == 1]).any()
            # Default (detail=False) shape: the same NaN-holed ndarray.
            plain = rt.query(flows)
            assert isinstance(plain, np.ndarray)
            assert np.isnan(plain[owners == 0]).all()

    def test_clean_runtime_reports_full_coverage(self, tmp_path, stream, flows):
        with StreamingRuntime(make_config(), 2, state_dir=tmp_path) as rt:
            rt.ingest_stream(stream, chunk_packets=1500)
            detail = rt.query(flows[:16], detail=True)
            assert not detail.degraded
            assert detail.coverage == 1.0
            assert all(s.status == "ok" for s in detail.shards)


# -- stale-artifact sweeping ---------------------------------------------------


class TestOrphanSweeping:
    def test_restart_and_drain_sweep_planted_artifacts(self, tmp_path, stream):
        """Plant a stale checkpoint temp file and an orphaned ring
        segment under the shard's namespace: both the restart path and
        the post-drain sweep must reclaim them."""
        with StreamingRuntime(make_config(), 2, state_dir=tmp_path, max_restarts=3) as rt:
            rt.ingest_stream(stream[:4000], chunk_packets=1000)
            shard_dir = tmp_path / "shard0"
            planted_tmp = shard_dir / ".tmp_ck_000001.npz"
            planted_tmp.write_bytes(b"torn checkpoint write")
            channel = rt.supervisor.handles[0].channel
            planted_shm = Path("/dev/shm") / f"{channel.segment_prefix}planted"
            has_dev_shm = planted_shm.parent.is_dir()
            if has_dev_shm:
                planted_shm.write_bytes(b"leaked segment")
            rt.kill_worker(0)
            wait_until(
                lambda: bool(rt.supervisor.pump() or rt.restarts >= 1),
                desc="restart after SIGKILL",
            )
            assert not planted_tmp.exists()
            if has_dev_shm:
                assert not planted_shm.exists()
            # And again on the drain path.
            planted_tmp.write_bytes(b"torn again")
            result = rt.drain()
            assert not planted_tmp.exists()
            assert result.restarts >= 1

    def test_shm_channel_namespaces_are_disjoint(self, tmp_path):
        """Two runtimes over the same shard ids must never sweep each
        other's segments: the per-channel namespace prefix is unique."""
        import multiprocessing as mp

        from repro.runtime.transport import DEFAULT_RING_BYTES, ShardChannel

        reg = MetricsRegistry()
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        c1, c2 = (
            ShardChannel(0, ring_bytes=DEFAULT_RING_BYTES, ctx=ctx, registry=reg)
            for _ in range(2)
        )
        assert c1.segment_prefix != c2.segment_prefix
        c1.close()
        c2.close()


# -- serve CLI: graceful signals ----------------------------------------------


def _serve_cmd(trace_path, *extra):
    return [
        sys.executable,
        "-u",
        "-m",
        "repro",
        "serve",
        "--trace",
        str(trace_path),
        "--workers",
        "2",
        "--sram-kb",
        "2",
        "--cache-kb",
        "1",
        "--chunk-packets",
        "512",
        *extra,
    ]


@pytest.fixture(scope="module")
def cli_trace_path(tmp_path_factory):
    from repro.cli import main

    path = str(tmp_path_factory.mktemp("serve-trace") / "t.npz")
    assert main(["trace", "--scale", "0.003", "--seed", "2", "--out", path]) == 0
    return path


def _spawn_serve(cli_trace_path, *extra):
    env = dict(os.environ)
    root = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        _serve_cmd(cli_trace_path, *extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()  # "serving t.npz over 2 shard workers ..."
    assert "serving" in banner
    return proc


@pytest.mark.slow
class TestServeSignals:
    def test_sigterm_drains_and_reports(self, cli_trace_path):
        # slow-apply on both workers keeps the stream in flight long
        # enough for the signal to land mid-ingest.
        proc = _spawn_serve(
            cli_trace_path,
            "--inject-worker",
            "0:slow=0.05",
            "--inject-worker",
            "1:slow=0.05",
        )
        time.sleep(0.3)  # into the ingest loop (banner already read)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert "draining and reporting" in out
        assert "ingested" in out and "final digest" in out

    def test_second_signal_force_exits_2(self, cli_trace_path):
        proc = _spawn_serve(
            cli_trace_path,
            "--inject-worker",
            "0:slow=0.05",
            "--inject-worker",
            "1:slow=0.05",
        )
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        proc.send_signal(signal.SIGINT)  # second signal: force exit
        proc.communicate(timeout=120)
        assert proc.returncode == 2

    def test_interrupted_run_skips_offline_verification(self, cli_trace_path):
        proc = _spawn_serve(
            cli_trace_path,
            "--inject-worker",
            "0:slow=0.05",
            "--inject-worker",
            "1:slow=0.05",
            "--verify-offline",
        )
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert "offline verification skipped" in out


@pytest.mark.slow
class TestServeFaultInjection:
    def test_hang_and_poison_end_to_end(self, cli_trace_path):
        """The CI watchdog-smoke scenario: one shard hangs (watchdog
        SIGKILL + recovery), another carries a poison chunk (quarantine),
        live queries report degraded=True, and --verify-offline proves
        the degraded run bit-identical to the exclusion twin."""
        env = dict(os.environ)
        root = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            _serve_cmd(
                cli_trace_path,
                "--inject-worker",
                "1:hang=6",
                "--inject-worker",
                "0:crash=5",
                "--hang-timeout",
                "1.0",
                "--quarantine-after",
                "2",
                "--restart-refill",
                "2.0",
                "--query-every",
                "4",
                "--verify-offline",
            ),
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "degraded=True" in out.stdout
        assert "quarantined" in out.stdout
        assert "offline verification: bit-identical" in out.stdout

    def test_inject_worker_bad_spec_exits_2(self, cli_trace_path):
        from repro.cli import main

        base = ["serve", "--trace", cli_trace_path, "--sram-kb", "2", "--cache-kb", "1"]
        assert main([*base, "--inject-worker", "nope"]) == 2
        assert main([*base, "--inject-worker", "9:hang=1"]) == 2


# -- measure() surfaces degradation -------------------------------------------


class TestMeasureDegradation:
    def test_clean_measure_is_not_degraded(self, tmp_path, stream):
        from repro.api import measure

        result = measure(
            stream=stream,
            workers=2,
            sram_kb=2,
            cache_kb=1,
            state_dir=str(tmp_path),
            chunk_packets=1500,
        )
        assert result.degraded is False
        assert result.quarantined_packets == 0
        assert result.runtime.quarantined == ()
