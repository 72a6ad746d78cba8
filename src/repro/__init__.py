"""CAESAR — Cache Assisted Randomized Sharing Counters.

A from-scratch Python reproduction of *"Cache Assisted Randomized
Sharing Counters in Network Measurement"* (Liu, Dai, Liu, Li, Wang,
Zheng — ICPP 2018): per-flow traffic measurement that fronts shared
off-chip SRAM counters with a fast on-chip cache.

Quickstart
----------
>>> import repro
>>> trace = repro.default_paper_trace(scale=0.02)
>>> cfg = repro.CaesarConfig.for_budgets(
...     sram_kb=4.0, cache_kb=2.0,
...     num_packets=trace.num_packets, num_flows=trace.num_flows)
>>> caesar = repro.Caesar(cfg)
>>> caesar.process(trace.packets)
>>> caesar.finalize()
>>> estimates = caesar.estimate(trace.flows.ids)          # CSM
>>> quality = repro.evaluate(estimates, trace.flows.sizes)
>>> print(quality.summary())

Package map
-----------
- :mod:`repro.core` — CAESAR itself (construction, CSM/MLM query, theory);
- :mod:`repro.cachesim` — the on-chip cache (LRU / random replacement);
- :mod:`repro.sram` — banked saturating shared-counter arrays;
- :mod:`repro.hashing` — hash families, flow-ID digesting;
- :mod:`repro.traffic` — heavy-tailed trace synthesis & persistence;
- :mod:`repro.baselines` — RCS, CASE, DISCO/SAC/ANLS/CEDAR/ICE-buckets,
  Counter Braids, Count-Min;
- :mod:`repro.memmodel` — the FPGA timing/loss substitute model;
- :mod:`repro.obs` — opt-in observability (metrics registry, stage
  timers, eviction-stream tracing); zero overhead when off;
- :mod:`repro.resilience` — crash-consistent checkpoint/restore,
  the ingest write-ahead log, deterministic fault injection, health
  signals;
- :mod:`repro.runtime` — streaming ingest runtime: long-lived shard
  worker processes with bounded queues, backpressure, live queries,
  and checkpointed crash recovery;
- :mod:`repro.fabric` — multi-vantage measurement fabric: PATH/TREE/
  FAT-TREE topologies, per-vantage CAESAR, query-time fusion
  (min / inverse-variance / weighted MLE);
- :mod:`repro.analysis` — error metrics and report tables;
- :mod:`repro.experiments` — one module per paper figure (3-8).
"""

from repro.analysis.metrics import evaluate
from repro.api import MeasurementResult, StreamMeasurementResult, measure
from repro.fabric import Fabric, FabricResult, FusionReport, parse_topology
from repro.runtime import recover
from repro.runtime.client import RuntimeResult, StreamingRuntime
from repro.baselines.case import Case, CaseConfig
from repro.baselines.rcs import RCS, RCSConfig
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.planner import Plan, plan
from repro.core.scheme import MeasurementScheme, run_scheme
from repro.errors import (
    CapacityError,
    ConfigError,
    QueryError,
    ReproError,
    TraceFormatError,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EvictionTrace
from repro.resilience import (
    Checkpoint,
    FaultPlan,
    HealthSnapshot,
    WriteAheadLog,
    health_of,
)
from repro.traffic.trace import Trace, default_paper_trace

__version__ = "1.0.0"

__all__ = [
    "Caesar",
    "CaesarConfig",
    "Case",
    "CaseConfig",
    "RCS",
    "RCSConfig",
    "Trace",
    "default_paper_trace",
    "evaluate",
    "measure",
    "MeasurementResult",
    "StreamMeasurementResult",
    "StreamingRuntime",
    "RuntimeResult",
    "Fabric",
    "FabricResult",
    "FusionReport",
    "parse_topology",
    "MeasurementScheme",
    "MetricsRegistry",
    "EvictionTrace",
    "Checkpoint",
    "FaultPlan",
    "HealthSnapshot",
    "WriteAheadLog",
    "health_of",
    "recover",
    "run_scheme",
    "plan",
    "Plan",
    "ReproError",
    "ConfigError",
    "CapacityError",
    "QueryError",
    "TraceFormatError",
    "__version__",
]
