"""Random replacement policy.

Maintains a dense array of resident flow IDs plus an index map so that
victim selection, insertion, and removal are all O(1) (removal swaps
the last element into the hole). The victim draw is independent of the
stored counts — the property Section 4.2 relies on to treat eviction
values as i.i.d.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError, ConfigError


class RandomPolicy:
    """Uniform-random victim selection (paper Section 3.1, second alternative)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._slots: list[int] = []
        self._pos: dict[int, int] = {}

    def insert(self, flow_id: int) -> None:
        """Register a newly allocated entry."""
        self._pos[flow_id] = len(self._slots)
        self._slots.append(flow_id)

    def touch(self, flow_id: int) -> None:
        """Hits carry no information for random replacement."""

    def remove(self, flow_id: int) -> None:
        """Forget a freed entry (swap-with-last, O(1))."""
        idx = self._pos.pop(flow_id)
        last = self._slots.pop()
        if last != flow_id:
            self._slots[idx] = last
            self._pos[last] = idx

    def clear(self) -> None:
        """Forget every entry (the generator keeps its state)."""
        self._slots.clear()
        self._pos.clear()

    @property
    def rng(self) -> np.random.Generator:
        """The victim generator (the batched engine draws from it too)."""
        return self._rng

    def victim(self) -> int:
        """A uniformly random resident flow (does not remove it)."""
        if not self._slots:
            raise CapacityError("victim() on an empty cache")
        return self._slots[int(self._rng.integers(len(self._slots)))]

    def export_state(self) -> dict:
        """Slot array plus generator state (checkpoint capture)."""
        return {
            "kind": "random",
            "order": [int(f) for f in self._slots],
            "rng": self._rng.bit_generator.state,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (checkpoint restore)."""
        if state.get("kind") != "random":
            raise ConfigError(
                f"cannot restore {state.get('kind')!r} state into RandomPolicy"
            )
        self._slots = [int(f) for f in state["order"]]
        self._pos = {f: i for i, f in enumerate(self._slots)}
        self._rng.bit_generator.state = state["rng"]

    def __len__(self) -> int:
        return len(self._slots)
