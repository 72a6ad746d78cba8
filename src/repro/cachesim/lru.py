"""Least-recently-used replacement policy.

Backed by an :class:`collections.OrderedDict` used as a recency list:
most recent at the back, victim popped from the front. All operations
are O(1) and run in C inside the dict implementation, which keeps the
per-packet cache loop fast enough for multi-million-packet traces.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import CapacityError, ConfigError


class LRUPolicy:
    """LRU victim selection (paper Section 3.1, first alternative)."""

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def insert(self, flow_id: int) -> None:
        """Register a newly allocated entry as most recently used."""
        self._order[flow_id] = None

    def touch(self, flow_id: int) -> None:
        """Mark an entry as most recently used."""
        self._order.move_to_end(flow_id)

    def remove(self, flow_id: int) -> None:
        """Forget a freed entry."""
        del self._order[flow_id]

    def clear(self) -> None:
        """Forget every entry."""
        self._order.clear()

    def victim(self) -> int:
        """The least recently used flow (does not remove it)."""
        if not self._order:
            raise CapacityError("victim() on an empty cache")
        return next(iter(self._order))

    def export_state(self) -> dict:
        """Recency order, least recent first (checkpoint capture)."""
        return {"kind": "lru", "order": [int(f) for f in self._order]}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (checkpoint restore)."""
        if state.get("kind") != "lru":
            raise ConfigError(f"cannot restore {state.get('kind')!r} state into LRUPolicy")
        self._order = OrderedDict((int(f), None) for f in state["order"])

    def __len__(self) -> int:
        return len(self._order)
