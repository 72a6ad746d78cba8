"""Golden seed-stability tests for the fabric's router.

Every packet a :class:`~repro.fabric.Fabric` ingests is routed by its
flow's attachment pair, thinned by the per-vantage sampling hash, and
then partitioned across the vantage's shards. These goldens pin the
outcome of that whole routing step on a seeded PATH:4 fabric with some
per-node sample rates below 1: each vantage's observed packet count and
its per-shard checkpoint digests, at one and three shards per vantage
(the three-shard case also with byte lengths). A router or partitioner
change that moves one packet to another vantage or shard, or reorders a
shard's substream, shows up here as a mismatch.

Regenerate after an *intentional* numerical change with::

    PYTHONPATH=src python tests/test_golden_fabric.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.config import CaesarConfig
from repro.fabric import Fabric, path_topology

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fabric.json"

#: Workload + configuration the goldens were generated under. Fixed
#: literals on purpose (see test_golden_estimators.py).
STREAM_SEED = 23
STREAM_PACKETS = 20_000
STREAM_FLOW_SPACE = 4096
CHUNK_PACKETS = 3000
NUM_NODES = 4
SAMPLE_RATES = {1: 0.5, 3: 0.75}  # nodes 0 and 2 observe everything
CONFIG = dict(
    cache_entries=64,
    entry_capacity=16,
    k=3,
    bank_size=512,
    counter_capacity=2**20 - 1,
    seed=7,
    engine="batched",
)
#: case name -> (shards per vantage, with byte lengths)
CASES = {
    "shards1": (1, False),
    "shards3": (3, False),
    "shards3_bytes": (3, True),
}


def _stream() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(STREAM_SEED)
    packets = rng.zipf(1.25, STREAM_PACKETS).astype(np.uint64) % STREAM_FLOW_SPACE
    lengths = rng.integers(64, 1501, STREAM_PACKETS).astype(np.int64)
    return packets, lengths


def _run(shards: int, with_lengths: bool) -> dict:
    packets, lengths = _stream()
    fabric = Fabric(
        CaesarConfig(**CONFIG),
        path_topology(NUM_NODES),
        shards_per_vantage=shards,
        sample_rate=SAMPLE_RATES,
    )
    fabric.ingest_stream(
        packets,
        lengths=lengths if with_lengths else None,
        chunk_packets=CHUNK_PACKETS,
    )
    result = fabric.drain()
    return {
        "observed_packets": list(result.observed_packets),
        "shard_digests": [list(d) for d in result.shard_digests],
    }


def _compute() -> dict:
    return {
        "stream": {
            "seed": STREAM_SEED,
            "packets": STREAM_PACKETS,
            "flow_space": STREAM_FLOW_SPACE,
            "chunk_packets": CHUNK_PACKETS,
        },
        "config": dict(CONFIG),
        "topology": f"PATH:{NUM_NODES}",
        "sample_rates": {str(k): v for k, v in SAMPLE_RATES.items()},
        "cases": {
            name: _run(shards, with_lengths)
            for name, (shards, with_lengths) in CASES.items()
        },
    }


def test_fabric_routing_matches_goldens():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = _compute()
    assert current["stream"] == golden["stream"], "workload drifted"
    assert current["config"] == golden["config"], "config drifted"
    assert current["topology"] == golden["topology"], "topology drifted"
    assert current["sample_rates"] == golden["sample_rates"], "rates drifted"
    for name in CASES:
        got, want = current["cases"][name], golden["cases"][name]
        assert got["observed_packets"] == want["observed_packets"], (
            f"{name}: per-vantage observed counts drifted"
        )
        assert got["shard_digests"] == want["shard_digests"], (
            f"{name}: per-shard checkpoint digests drifted"
        )


def test_goldens_are_sane():
    """The checked-in numbers must describe a real routed fabric: every
    vantage observes some but not all packets, the shard count does not
    change what a vantage observes, and every digest is a distinct
    non-empty hash."""
    golden = json.loads(GOLDEN_PATH.read_text())
    cases = golden["cases"]
    observed = cases["shards1"]["observed_packets"]
    assert len(observed) == NUM_NODES
    assert all(0 < n < STREAM_PACKETS for n in observed)
    for name in CASES:
        assert cases[name]["observed_packets"] == observed
    for name, (shards, _) in CASES.items():
        digests = cases[name]["shard_digests"]
        assert [len(d) for d in digests] == [shards] * NUM_NODES
        flat = [h for d in digests for h in d]
        assert len(set(flat)) == len(flat)
        assert all(isinstance(h, str) and len(h) >= 32 for h in flat)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("pass --regenerate to rewrite the golden file")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_compute(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
