"""Micro-benchmarks of the hot operations.

These are the operations the paper's FPGA prices in hardware; here they
gauge the *simulator's* throughput (packets/second of pure-Python,
vectorized, or compiled paths), which bounds how large a REPRO_SCALE is
practical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rcs import RCS, RCSConfig
from repro.cachesim.cache import FlowCache
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.csm import csm_estimate
from repro.core.mlm import mlm_estimate
from repro.core.split import split_batch, split_values_batch
from repro.hashing.family import BankedIndexer
from repro.hashing.mix import splitmix64_array


@pytest.fixture(scope="module")
def packet_batch(setup):
    return setup.trace.packets[:200_000]


@pytest.fixture(scope="module")
def runtime_packet_batch(setup):
    # The runtime benches need a longer stream than the other micros:
    # worker scaling is a per-packet locality effect competing against
    # fixed per-worker costs (fork, WAL, checkpoint file), so a short
    # batch prices the overhead and a long one prices the steady state.
    return setup.trace.packets[:1_000_000]


def bench_hash_throughput(benchmark):
    ids = np.random.default_rng(0).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    benchmark(splitmix64_array, ids)


def bench_banked_indexing(benchmark):
    idx = BankedIndexer(3, 12_500, seed=1)
    ids = np.random.default_rng(0).integers(0, 2**64, size=200_000, dtype=np.uint64)
    benchmark(idx.indices, ids)


def bench_cache_per_packet_loop(benchmark, packet_batch):
    def run():
        cache = FlowCache(8192, 54, policy="lru")
        cache.process(packet_batch, lambda fid, v, r: None)

    benchmark.pedantic(run, rounds=3, iterations=1)


# -- compiled cache kernel vs the scalar reference ---------------------------
#
# Three arrival orders over the same Zipf-skewed flow set:
# - "zipf"    — bursty arrival (burst 32, a TCP-train-sized burst) over the
#               paper-calibrated Zipf flow sizes; the realistic case;
# - "bursty"  — long bursts (256), where nearly every packet is a hit;
# - "uniform" — globally shuffled (runs ~ 1), the arrival order of the
#               end-to-end benchmark's runtime-uniform workload.
#
# Each stream is benched twice: the compiled kernel (`process_into`, the
# batched engine's cache loop, no-op drain) and the scalar reference
# (`process` with a no-op sink, the oracle the kernel is bit-identical
# to). docs/performance.md reads the speedup as the ratio of the paired
# medians; drain/sink cost is excluded from both by design.


@pytest.fixture(scope="module")
def _cache_streams():
    from repro.traffic.distributions import calibrate_zipf_to_mean
    from repro.traffic.flows import FlowSet
    from repro.traffic.packets import bursty_stream, uniform_stream

    flows = FlowSet.generate(8000, calibrate_zipf_to_mean(27.32, 20_000), seed=13)
    return {
        "zipf": bursty_stream(flows, burst_length=32, seed=13),
        "bursty": bursty_stream(flows, burst_length=256, seed=13),
        "uniform": uniform_stream(flows, seed=13),
    }


def _cache_kernel(packets):
    from repro.cachesim.buffer import EvictionBuffer

    cache = FlowCache(8192, 54, policy="lru")
    buffer = EvictionBuffer()
    drain = lambda i, v, r: None  # noqa: E731 - drain cost excluded by design
    cache.process_into(packets, buffer, drain)
    cache.dump_into(buffer, drain)


def _cache_scalar(packets):
    cache = FlowCache(8192, 54, policy="lru")
    sink = lambda f, v, r: None  # noqa: E731 - sink cost excluded by design
    cache.process(packets, sink)
    cache.dump(sink)


def _bench_kernel(benchmark, packets, label):
    import time

    t0 = time.perf_counter()
    _cache_scalar(packets)
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _cache_kernel(packets)
    kernel_s = time.perf_counter() - t0
    print(
        f"\n[{label}] scalar {scalar_s:.3f}s, kernel {kernel_s:.4f}s "
        f"-> {scalar_s / kernel_s:.1f}x on {len(packets)} packets"
    )
    benchmark.pedantic(
        lambda: _cache_kernel(packets), rounds=20, iterations=1, warmup_rounds=1
    )


def _bench_scalar(benchmark, packets):
    benchmark.pedantic(lambda: _cache_scalar(packets), rounds=3, iterations=1)


def bench_cache_kernel_zipf(benchmark, _cache_streams):
    """Compiled kernel on Zipf flow sizes with bursty (burst 32) arrival."""
    _bench_kernel(benchmark, _cache_streams["zipf"], "kernel/zipf")


def bench_cache_scalar_zipf(benchmark, _cache_streams):
    """Scalar reference for the zipf stream (speedup numerator)."""
    _bench_scalar(benchmark, _cache_streams["zipf"])


def bench_cache_kernel_bursty(benchmark, _cache_streams):
    """Compiled kernel on long bursts (burst 256)."""
    _bench_kernel(benchmark, _cache_streams["bursty"], "kernel/bursty")


def bench_cache_scalar_bursty(benchmark, _cache_streams):
    """Scalar reference for the bursty stream (speedup numerator)."""
    _bench_scalar(benchmark, _cache_streams["bursty"])


def bench_cache_kernel_uniform(benchmark, _cache_streams):
    """Compiled kernel on a globally shuffled stream (runs ~ 1)."""
    _bench_kernel(benchmark, _cache_streams["uniform"], "kernel/uniform")


def bench_cache_scalar_uniform(benchmark, _cache_streams):
    """Scalar reference for the uniform stream (speedup numerator)."""
    _bench_scalar(benchmark, _cache_streams["uniform"])


# -- batched drain: index, split, scatter-add ----------------------------------
#
# The hand-off after the cache: each stream's eviction rows are recorded
# once (the kernel's DEFAULT_BUFFER_CAPACITY chunks), then replayed
# through `Caesar._drain` on a fresh instance per round. That prices the
# index memo, the splitter and the scatter-add together, with no cache
# loop (the `bench_cache_kernel_*` benches price that half). The cache
# holds 1024 of the 8000 flows, so replacements dominate the uniform
# stream's evictions the way they do in the runtime's shard workers.


@pytest.fixture(scope="module")
def _eviction_chunks(_cache_streams):
    from repro.cachesim.buffer import EvictionBuffer

    recorded = {}
    for name, packets in _cache_streams.items():
        chunks = []

        def record(ids, values, reasons):
            chunks.append((ids.copy(), values.copy(), reasons.copy()))

        cache = FlowCache(1024, 54, policy="lru")
        buffer = EvictionBuffer()
        cache.process_into(packets, buffer, record)
        cache.dump_into(buffer, record)
        recorded[name] = chunks
    return recorded


def _bench_drain(benchmark, chunks):
    config = CaesarConfig(cache_entries=1024, entry_capacity=54, k=3, bank_size=4096)

    def run(caesar):
        for ids, values, reasons in chunks:
            caesar._drain(ids, values, reasons)

    benchmark.pedantic(
        run,
        setup=lambda: ((Caesar(config),), {}),
        rounds=20,
        iterations=1,
        warmup_rounds=1,
    )


def bench_caesar_drain_zipf(benchmark, _eviction_chunks):
    """Drain of the zipf stream's evictions (burst-32 arrival)."""
    _bench_drain(benchmark, _eviction_chunks["zipf"])


def bench_caesar_drain_bursty(benchmark, _eviction_chunks):
    """Drain of the bursty stream's evictions (burst 256)."""
    _bench_drain(benchmark, _eviction_chunks["bursty"])


def bench_caesar_drain_uniform(benchmark, _eviction_chunks):
    """Drain of the uniform stream's evictions (globally shuffled)."""
    _bench_drain(benchmark, _eviction_chunks["uniform"])


def _construct(packet_batch, engine: str, registry=None) -> Caesar:
    caesar = Caesar(
        CaesarConfig(
            cache_entries=8192, entry_capacity=54, k=3, bank_size=4096, engine=engine
        ),
        registry=registry,
    )
    caesar.process(packet_batch)
    caesar.finalize()
    return caesar


def bench_caesar_construction_scalar(benchmark, packet_batch):
    """Reference per-eviction path (`engine="scalar"`)."""
    benchmark.pedantic(lambda: _construct(packet_batch, "scalar"), rounds=3, iterations=1)


def bench_caesar_construction_batched(benchmark, packet_batch):
    """Array-native eviction pipeline (`engine="batched"`, the default).

    The acceptance bar for the batched engine is >= 3x the scalar
    mean on this workload; compare the two bench means in
    BENCH_micro.json (also printed by this bench)."""
    import time

    t0 = time.perf_counter()
    _construct(packet_batch, "scalar")
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _construct(packet_batch, "batched")
    batched_s = time.perf_counter() - t0
    print(
        f"\n[engines] scalar {scalar_s:.3f}s, batched {batched_s:.3f}s "
        f"-> {scalar_s / batched_s:.2f}x on {len(packet_batch)} packets"
    )
    benchmark.pedantic(lambda: _construct(packet_batch, "batched"), rounds=3, iterations=1)


def bench_caesar_construction_metrics_enabled(benchmark, packet_batch):
    """Construction with a live :class:`MetricsRegistry` attached.

    The observability contract is that the disabled path (registry=None,
    i.e. `bench_caesar_construction_batched`) pays nothing, and the
    enabled path stays within noise of it — instrumentation is
    chunk-granular, never per-packet. Compare the two means (also
    printed here)."""
    import time

    from repro.obs.registry import MetricsRegistry

    t0 = time.perf_counter()
    _construct(packet_batch, "batched")
    off_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _construct(packet_batch, "batched", registry=MetricsRegistry())
    on_s = time.perf_counter() - t0
    print(
        f"\n[metrics] disabled {off_s:.3f}s, enabled {on_s:.3f}s "
        f"-> {on_s / off_s:.2f}x on {len(packet_batch)} packets"
    )
    benchmark.pedantic(
        lambda: _construct(packet_batch, "batched", registry=MetricsRegistry()),
        rounds=3,
        iterations=1,
    )


# -- streaming runtime ingest throughput -------------------------------------
#
# Steady-state cost of the deployment-shaped path (docs/runtime.md):
# partition -> shared-memory ring -> W worker processes -> drain.
# Measured at 1/2/4 workers over the same packet batch, so both the
# worker scaling and the data-plane tax (the 1w run vs plain
# construction) are readable straight from the artifact.
#
# The timed section is ingest + drain only. Each round gets a fresh,
# already-started runtime from pedantic's untimed setup hook: process
# startup (fork, ring and queue plumbing, counter-bank prefault) is a
# once-per-deployment cost that scales with W and would otherwise
# drown the per-packet signal the curve is meant to show. A fresh
# state dir per round means no run recovers its predecessor's state.
# Checkpointing is off so the number prices the steady-state pipe,
# not the durability cadence; drain still includes the final
# checkpoint each worker writes at finalize.


def _bench_runtime(benchmark, runtime_packet_batch, tmp_path_factory, workers):
    from repro.runtime.client import StreamingRuntime

    # Paper-shaped sizing: a small SRAM cache in front of DRAM-scale
    # counter banks (3 x 1M counters = 24 MiB at W=1). Sharding then
    # buys locality as well as parallelism — each worker's quarter-size
    # banks and cache sit much closer to the cache hierarchy, which is
    # the deployment effect the worker-scaling curve is meant to price.
    config = CaesarConfig(
        cache_entries=2048, entry_capacity=54, k=3, bank_size=1_048_576
    )
    live: dict = {}

    def setup():
        # Tear down the previous round's runtime here (untimed) and
        # hand the timed body a freshly started one.
        if "rt" in live:
            live.pop("rt").shutdown()
        rt = StreamingRuntime(
            config,
            workers,
            state_dir=tmp_path_factory.mktemp(f"rt{workers}w"),
            checkpoint_every=0,
        )
        rt.start()
        live["rt"] = rt
        return (rt,), {}

    def run(rt):
        # ~2 MiB chunks: big enough that each worker sees a handful of
        # large process() calls, and big enough to exercise the shm
        # ring's fragmentation path at W=1 (chunk > half the ring).
        rt.ingest_stream(runtime_packet_batch, chunk_packets=262_144)
        rt.drain()

    try:
        benchmark.pedantic(run, setup=setup, rounds=5, iterations=1, warmup_rounds=1)
    finally:
        if "rt" in live:
            live.pop("rt").shutdown()


def bench_runtime_ingest_1w_shm(benchmark, runtime_packet_batch, tmp_path_factory):
    """Streaming runtime, one shard worker, shared-memory rings (the
    zero-copy overhead floor)."""
    _bench_runtime(benchmark, runtime_packet_batch, tmp_path_factory, 1)


def bench_runtime_ingest_2w_shm(benchmark, runtime_packet_batch, tmp_path_factory):
    """Streaming runtime, two shard workers, shared-memory rings."""
    _bench_runtime(benchmark, runtime_packet_batch, tmp_path_factory, 2)


def bench_runtime_ingest_4w_shm(benchmark, runtime_packet_batch, tmp_path_factory):
    """Streaming runtime, four shard workers, shared-memory rings."""
    _bench_runtime(benchmark, runtime_packet_batch, tmp_path_factory, 4)


# -- checkpoint cadence on the ingest path ------------------------------------
#
# Same sizing as _bench_runtime (DRAM-scale banks) at the worker's own
# checkpoint boundary: what does ingest *stop* for when durability
# fires? The timed body is exactly the worker's per-boundary code —
# sync: `_save_checkpoint_atomic` (snapshot + digest + compress +
# fsync + rename, all on the ingest path — the seal and drain writer);
# async: `wait_idle() + capture()` (drain any leftover back-pressure
# from the previous write, then the in-memory snapshot — the only stall
# the background writer ever charges to ingest). One chunk of stream is
# processed per round in pedantic's *untimed* setup, which is where the
# background write overlaps in deployment; so the async number honestly
# includes whatever back-pressure wait survives that overlap (on a
# single-core runner the writer competes with processing for the CPU,
# so the wait is nonzero — it vanishes with a spare core, but the
# snapshot-vs-full-write gap this bench prices does not depend on
# that). tests/test_bench_smoke.py asserts async's median lands
# materially under sync's at this equal cadence. The worker exports the
# same quantity live as `checkpoint.ingest_stall_us`.


def _bench_checkpoint(benchmark, runtime_packet_batch, tmp_path_factory, mode):
    from repro.resilience.async_ckpt import ShardCheckpointer
    from repro.runtime.worker import _save_checkpoint_atomic

    config = CaesarConfig(
        cache_entries=2048, entry_capacity=54, k=3, bank_size=1_048_576
    )
    state_dir = tmp_path_factory.mktemp(f"ck_{mode}")
    scheme = Caesar(config)
    chunks = np.array_split(runtime_packet_batch, 4)
    ckptr = ShardCheckpointer() if mode == "async" else None
    seq = [0]

    def setup():
        # The next chunk of ingest work — untimed; in deployment this
        # is the span the previous background write overlaps.
        scheme.process(chunks[seq[0] % len(chunks)])
        seq[0] += 1
        return (), {}

    def run():
        s = seq[0]
        if ckptr is None:
            _save_checkpoint_atomic(scheme, state_dir / f"ck_{s:010d}.npz")
        else:
            ckptr.wait_idle()
            ckptr.capture(scheme, s, state_dir / f"ck_{s:010d}.npz")

    try:
        benchmark.pedantic(run, setup=setup, rounds=6, iterations=1, warmup_rounds=2)
    finally:
        if ckptr is not None:
            ckptr.close()


def bench_checkpoint_sync(benchmark, runtime_packet_batch, tmp_path_factory):
    """Per-boundary ingest stall, synchronous writes: the full
    snapshot+compress+fsync+rename lands on the ingest path."""
    _bench_checkpoint(benchmark, runtime_packet_batch, tmp_path_factory, "sync")


def bench_checkpoint_async(benchmark, runtime_packet_batch, tmp_path_factory):
    """Per-boundary ingest stall, background writes: ingest pays the
    in-memory snapshot plus any leftover back-pressure; compression
    and fsync overlap the next chunk on the writer thread."""
    _bench_checkpoint(benchmark, runtime_packet_batch, tmp_path_factory, "async")


# -- ingest WAL ---------------------------------------------------------------
#
# The other durability write on the worker's ingest path: one ingest
# record per received chunk, appended and flushed before the chunk is
# processed (docs/runtime.md "Durability and crash recovery"). Each
# round writes 34 chunks of 32,768 random ids (~1.1M packets, the id
# shape of hash-valued flows) into a fresh WAL; creating the WAL (magic
# + fsync) is untimed setup.


def bench_ingest_wal_append(benchmark, tmp_path):
    """Ingest-WAL append + flush per 32,768-packet chunk of random ids."""
    from repro.resilience.wal import WriteAheadLog
    from repro.runtime.worker import append_ingest_chunk

    ids = np.random.default_rng(0).integers(0, 2**64, size=34 * 32_768, dtype=np.uint64)
    chunks = np.split(ids, 34)
    path = tmp_path / "ingest.wal"

    def setup():
        path.unlink(missing_ok=True)
        return (WriteAheadLog(path),), {}

    def run(wal):
        for seq, chunk in enumerate(chunks):
            append_ingest_chunk(wal, seq, chunk, None)
        wal.close()

    benchmark.pedantic(run, setup=setup, rounds=10, iterations=1, warmup_rounds=1)


# -- partition -----------------------------------------------------------------
#
# The supervisor's per-packet routing step (docs/runtime.md "Throughput"):
# `StreamPartitioner.partition` over the runtime batch in the end-to-end
# benchmark's 65,536-packet chunks, without byte lengths. One shard is
# the fabric's vantage shape (a copy, no hash); two and four shards
# price the stable-sort split.


def _bench_partition(benchmark, runtime_packet_batch, num_shards):
    from repro.runtime.partitioner import DEFAULT_CHUNK_PACKETS, StreamPartitioner

    partitioner = StreamPartitioner(num_shards)
    chunks = [
        runtime_packet_batch[i : i + DEFAULT_CHUNK_PACKETS]
        for i in range(0, len(runtime_packet_batch), DEFAULT_CHUNK_PACKETS)
    ]

    def run():
        for chunk in chunks:
            partitioner.partition(chunk)

    benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)


def bench_partition_1shards(benchmark, runtime_packet_batch):
    """Partition into one shard: a copy of each chunk."""
    _bench_partition(benchmark, runtime_packet_batch, 1)


def bench_partition_2shards(benchmark, runtime_packet_batch):
    """Partition into two shards."""
    _bench_partition(benchmark, runtime_packet_batch, 2)


def bench_partition_4shards(benchmark, runtime_packet_batch):
    """Partition into four shards."""
    _bench_partition(benchmark, runtime_packet_batch, 4)


# -- fabric router ---------------------------------------------------------------
#
# The fabric's per-chunk routing step (docs/performance.md "The fabric
# router"): `Topology.route` over the runtime batch in 65,536-packet
# chunks through PATH:6, unsampled and without byte lengths, as
# `Fabric.ingest` calls it on the end-to-end benchmark's fabric-path6
# workload. Routing only: no vantage processes the substreams.


def bench_fabric_route_path6(benchmark, runtime_packet_batch):
    """Route every chunk through PATH:6 (attachment hash, route walk)."""
    from repro.fabric import path_topology
    from repro.runtime.partitioner import DEFAULT_CHUNK_PACKETS

    topology = path_topology(6)
    chunks = [
        runtime_packet_batch[i : i + DEFAULT_CHUNK_PACKETS]
        for i in range(0, len(runtime_packet_batch), DEFAULT_CHUNK_PACKETS)
    ]

    def run():
        for chunk in chunks:
            topology.route(chunk)

    benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)


def bench_rcs_vectorized_construction(benchmark, packet_batch):
    def run():
        rcs = RCS(RCSConfig(k=3, bank_size=4096))
        rcs.process(packet_batch)

    benchmark.pedantic(run, rounds=3, iterations=1)


def bench_split_values_batch(benchmark):
    rng = np.random.default_rng(1)
    values = rng.integers(1, 55, size=100_000)
    benchmark(split_values_batch, values, 3, rng)


def bench_split_batch(benchmark):
    """The batched engine's splitter: scalar-stream-compatible."""
    rng = np.random.default_rng(1)
    values = rng.integers(1, 55, size=100_000)
    benchmark(split_batch, values, 3, rng)


def bench_csm_query(benchmark):
    rng = np.random.default_rng(2)
    w = rng.integers(0, 1000, size=(1_000_000, 3))
    benchmark(csm_estimate, w, 10_000_000, 12_500)


def bench_mlm_query(benchmark):
    rng = np.random.default_rng(2)
    w = rng.integers(0, 1000, size=(1_000_000, 3))
    benchmark(mlm_estimate, w, 10_000_000, 12_500, entry_capacity=54)


# -- fusion query path ---------------------------------------------------------
#
# Query-time cost of the multi-vantage fabric (docs/fabric.md): the
# single-box estimate is one CSM pass; the PATH:6 fused query is six
# per-vantage CSM passes plus variance-model evaluation plus the
# weighted-MLE combiner. Both sides query the same flow set over the
# same packet batch, so the pair prices fusion's query overhead factor
# (construction cost is excluded — it is the module fixture).


@pytest.fixture(scope="module")
def _fusion_setup(packet_batch):
    from repro.fabric import Fabric, path_topology

    config = CaesarConfig(
        cache_entries=8192, entry_capacity=54, k=3, bank_size=4096
    )
    single = Caesar(config)
    single.process(packet_batch)
    single.finalize()
    fabric = Fabric(config, path_topology(6))
    fabric.ingest_stream(packet_batch)
    fabric.drain()
    return single, fabric, np.unique(packet_batch)


def bench_fusion_query_single_box(benchmark, _fusion_setup):
    """Single-box CSM query over the batch's flow set (the fusion
    pair's denominator)."""
    single, _, flow_ids = _fusion_setup
    benchmark(single.estimate, flow_ids)


def bench_fusion_query_path6(benchmark, _fusion_setup):
    """6-vantage PATH fabric query with weighted-MLE fusion over the
    same flow set."""
    _, fabric, flow_ids = _fusion_setup
    benchmark(lambda: fabric.query(flow_ids, fusion="mle"))


def bench_tabulation_hashing(benchmark):
    from repro.hashing.tabulation import TabulationHash

    h = TabulationHash(seed=1)
    ids = np.random.default_rng(0).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    benchmark(h.hash_array, ids)


def bench_bitpacked_roundtrip(benchmark):
    from repro.sram.bitpacked import BitPackedArray

    values = np.random.default_rng(0).integers(0, 2**20, size=37_503).astype(np.int64)

    def run():
        BitPackedArray.pack(values, 20).unpack()

    benchmark.pedantic(run, rounds=3, iterations=1)


def bench_pcap_parse(benchmark, tmp_path_factory):
    from repro.traffic.pcap import read_pcap, write_pcap
    from repro.types import FiveTuple

    rng = np.random.default_rng(0)
    headers = [
        FiveTuple(int(a), int(b), int(p) % 65536, 443, 6)
        for a, b, p in zip(
            rng.integers(0, 2**32, 20_000),
            rng.integers(0, 2**32, 20_000),
            rng.integers(1024, 65536, 20_000),
        )
    ]
    path = tmp_path_factory.mktemp("pcap") / "bench.pcap"
    write_pcap(path, headers)
    benchmark(read_pcap, path)


def bench_braids_decode(benchmark, setup):
    from repro.baselines.counter_braids import CounterBraids, CounterBraidsConfig

    trace = setup.trace
    cb = CounterBraids(CounterBraidsConfig(d=3, bank_size=trace.num_flows))
    cb.process(trace.packets[:200_000])
    sub = np.unique(trace.packets[:200_000])

    def run():
        cb.decode(sub, iterations=10)

    benchmark.pedantic(run, rounds=3, iterations=1)
