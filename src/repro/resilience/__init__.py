"""Resilience subsystem: checkpoint/restore, fault injection, health.

Three cooperating layers, documented in docs/resilience.md:

- :mod:`repro.resilience.checkpoint` — crash-consistent snapshots of a
  full CAESAR instance, restorable bit-identically;
- :mod:`repro.resilience.wal` — the shard workers' ingest write-ahead
  log, covering the window between checkpoints (checkpoint + replay
  recovery is :func:`repro.runtime.worker.recover`);
- :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection on the cache → split → SRAM hot path;
- :mod:`repro.resilience.health` — degraded-mode health signals over
  the fault/saturation accounting, exported via the metrics registry.
"""

from repro.resilience.checkpoint import CHECKPOINT_FORMAT_VERSION, Checkpoint
from repro.resilience.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.resilience.health import HealthSnapshot, health_of, observe_health
from repro.resilience.wal import WalRecord, WriteAheadLog

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "FaultInjector",
    "FaultPlan",
    "HealthSnapshot",
    "WalRecord",
    "WriteAheadLog",
    "health_of",
    "observe_health",
    "parse_fault_spec",
]
