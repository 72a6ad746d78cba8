"""Network topologies with deterministic flow routing.

A :class:`Topology` places measurement vantage points on the nodes of
a small network graph and answers one question for the fabric: *which
vantages observe which flow?* Every flow hashes to an (ingress,
egress) attachment-point pair — two members of a seeded
:class:`~repro.hashing.family.HashFamily`, so the assignment is a pure
function of ``(topology seed, flow ID)`` — and the route between that
pair is precomputed once per topology. A flow's packets are then
observed, in stream order, at every node on its route; the icarus-style
cache-network simulators use exactly this shape (per-node caches on
deterministic shortest paths).

Three builders cover the evaluation shapes:

- :func:`path_topology` — ``PATH:n``: a chain of ``n`` nodes; flows
  attach to any two nodes and traverse the contiguous segment between
  them.
- :func:`tree_topology` — ``TREE:DxB``: a complete B-ary tree of depth
  ``D``; flows attach to two leaves and route leaf → lowest common
  ancestor → leaf.
- :func:`fat_tree_topology` — ``FAT-TREE:k``: a folded-Clos with ``k``
  edge switches (two per pod), ``k`` aggregation switches, and ``k/2``
  cores; inter-pod flows take an edge → agg → core → agg → edge route
  whose agg/core picks are themselves hashed from the pair, modeling
  ECMP without making routes depend on anything but the pair.

Routes are pure data: a per-pair table of node ids (CSR, so any
topology size) for the router, and a boolean observation matrix
indexed by pair × node for queries. :meth:`Topology.route` sends a
whole chunk through the compiled kernel
(:class:`~repro.cachesim.kernel.RouteTable`): the attachment hashes,
the route walk and per-node sampling in two passes over the chunk,
with no per-packet Python. :meth:`Topology.pair_of` runs the same
attachment hash.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.cachesim.kernel import RouteTable
from repro.errors import ConfigError
from repro.hashing.family import HashFamily
from repro.types import FlowIdArray

#: Default seed for the ingress/egress attachment hashes. Distinct from
#: the shard seed: where a flow *attaches* must be independent of which
#: shard owns it inside a vantage.
DEFAULT_TOPOLOGY_SEED = 0x70B0

#: Topology kinds :func:`parse_topology` understands.
TOPOLOGY_KINDS = ("PATH", "TREE", "FAT-TREE")


class Topology:
    """A routed graph of measurement vantage points.

    ``routes`` holds one node tuple per (ingress, egress) attachment
    pair, indexed ``pair = ingress_slot * len(exit_nodes) +
    egress_slot``. The constructor precomputes the kernel's route table
    and the ``(num_pairs, num_nodes)`` boolean observation matrix the
    fabric's query path gathers from.
    """

    def __init__(
        self,
        name: str,
        num_nodes: int,
        entry_nodes: npt.NDArray[np.int64],
        exit_nodes: npt.NDArray[np.int64],
        routes: tuple[tuple[int, ...], ...],
        *,
        seed: int = DEFAULT_TOPOLOGY_SEED,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {num_nodes}")
        entry_nodes = np.asarray(entry_nodes, dtype=np.int64)
        exit_nodes = np.asarray(exit_nodes, dtype=np.int64)
        if len(entry_nodes) < 1 or len(exit_nodes) < 1:
            raise ConfigError("topologies need at least one entry and exit node")
        if len(routes) != len(entry_nodes) * len(exit_nodes):
            raise ConfigError(
                f"expected {len(entry_nodes) * len(exit_nodes)} routes "
                f"(one per attachment pair), got {len(routes)}"
            )
        self.name = name
        self.num_nodes = int(num_nodes)
        self.entry_nodes = entry_nodes
        self.exit_nodes = exit_nodes
        self.routes = routes
        self.seed = int(seed)
        obs = np.zeros((len(routes), num_nodes), dtype=bool)
        for p, route in enumerate(routes):
            if not route:
                raise ConfigError(f"pair {p} has an empty route")
            for node in route:
                if not 0 <= node < num_nodes:
                    raise ConfigError(
                        f"route node {node} out of range for {num_nodes} nodes"
                    )
                obs[p, node] = True
        self.observation_matrix = obs
        # Member 0 hashes the ingress attachment, member 1 the egress.
        entry_seed, exit_seed = HashFamily(2, seed=self.seed).seeds
        self._table = RouteTable(
            entry_seed,
            exit_seed,
            len(entry_nodes),
            len(exit_nodes),
            self.num_nodes,
            routes,
        )

    # -- flow attachment and routing -----------------------------------------

    @property
    def num_pairs(self) -> int:
        return len(self.routes)

    def pair_of(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        """Each flow's (ingress, egress) attachment-pair index.

        ``ingress = h0(flow) % len(entry_nodes)`` and ``egress =
        h1(flow) % len(exit_nodes)`` for two members of a
        :class:`~repro.hashing.family.HashFamily` seeded with the
        topology seed: a pure function of that seed and the flow ID —
        the routing analogue of the partitioner's RSS hash, and the
        reason a flow's observation set is independent of chunking and
        of every other flow.
        """
        return self._table.pairs(flow_ids)

    def route(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
        *,
        offset: int = 0,
        sampling: tuple[npt.NDArray[np.uint64], npt.NDArray[np.uint64]] | None = None,
    ) -> list[tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]]:
        """Each node's observed substream of one chunk, in stream order.

        ``offset`` is the chunk's first global packet index, which keys
        the sampling test; ``sampling`` is ``(seeds, limits)`` with one
        entry per node (see :meth:`RouteTable.route
        <repro.cachesim.kernel.RouteTable.route>`).
        """
        return self._table.route(packets, lengths, offset, sampling)

    def observed_at(
        self, pair_idx: npt.NDArray[np.int64], node: int
    ) -> npt.NDArray[np.bool_]:
        """Which of the given pairs route through ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"node {node} out of range for {self.num_nodes} nodes")
        return self.observation_matrix[pair_idx, node]

    def route_of(self, flow_ids: FlowIdArray) -> list[tuple[int, ...]]:
        """The node route each flow traverses (diagnostics/tests)."""
        return [self.routes[p] for p in self.pair_of(flow_ids)]

    def vantages_per_flow(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        """How many vantages observe each flow (its route length)."""
        lengths = np.array([len(r) for r in self.routes], dtype=np.int64)
        return lengths[self.pair_of(flow_ids)]

    def describe(self) -> str:
        """Human-readable summary (CLI/log lines)."""
        hops = [len(r) for r in self.routes]
        return (
            f"{self.name}: {self.num_nodes} vantages, "
            f"{self.num_pairs} attachment pairs, "
            f"route length {min(hops)}-{max(hops)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology({self.describe()})"


def path_topology(num_nodes: int, *, seed: int = DEFAULT_TOPOLOGY_SEED) -> Topology:
    """``PATH:n`` — a chain ``0 - 1 - ... - n-1``.

    Every node is an attachment point; the route between attachment
    nodes ``i`` and ``e`` is the contiguous segment between them, so a
    flow is observed at ``|i - e| + 1`` vantages.
    """
    if num_nodes < 1:
        raise ConfigError(f"PATH needs >= 1 node, got {num_nodes}")
    nodes = np.arange(num_nodes, dtype=np.int64)
    routes = tuple(
        tuple(range(min(i, e), max(i, e) + 1))
        for i in range(num_nodes)
        for e in range(num_nodes)
    )
    return Topology(
        f"PATH:{num_nodes}", num_nodes, nodes, nodes, routes, seed=seed
    )


def _tree_ancestors(node: int, branching: int) -> list[int]:
    """Heap-indexed chain ``node → root`` (inclusive)."""
    chain = [node]
    while node != 0:
        node = (node - 1) // branching
        chain.append(node)
    return chain


def tree_topology(
    depth: int, branching: int, *, seed: int = DEFAULT_TOPOLOGY_SEED
) -> Topology:
    """``TREE:DxB`` — a complete B-ary tree of depth ``D``.

    Nodes are heap-indexed (root 0, node ``v``'s children ``v*B+1 ..
    v*B+B``); flows attach to two leaves and route up to the lowest
    common ancestor and back down, the icarus cache-tree shape.
    """
    if depth < 1:
        raise ConfigError(f"TREE needs depth >= 1, got {depth}")
    if branching < 2:
        raise ConfigError(f"TREE needs branching >= 2, got {branching}")
    num_nodes = (branching ** (depth + 1) - 1) // (branching - 1)
    first_leaf = (branching**depth - 1) // (branching - 1)
    leaves = np.arange(first_leaf, num_nodes, dtype=np.int64)
    routes: list[tuple[int, ...]] = []
    for src in leaves:
        up = _tree_ancestors(int(src), branching)
        up_set = {n: d for d, n in enumerate(up)}
        for dst in leaves:
            down = _tree_ancestors(int(dst), branching)
            lca_depth = next(up_set[n] for n in down if n in up_set)
            lca = up[lca_depth]
            down_part = list(reversed(down[: down.index(lca)]))
            routes.append(tuple(up[: lca_depth + 1] + down_part))
    return Topology(
        f"TREE:{depth}x{branching}", num_nodes, leaves, leaves,
        tuple(routes), seed=seed,
    )


def fat_tree_topology(k: int, *, seed: int = DEFAULT_TOPOLOGY_SEED) -> Topology:
    """``FAT-TREE:k`` — a folded-Clos with ``k`` edge switches.

    ``k`` must be even: pods hold two edge and two aggregation switches
    each, with ``k/2`` cores on top. Node numbering: edges ``0..k-1``
    (edge ``j`` in pod ``j // 2``), aggs ``k..2k-1``, cores ``2k..``.
    The agg/core hop of a multi-pod route is picked by hashing the
    attachment pair — deterministic ECMP: the choice varies across
    pairs but is a pure function of the pair, never of load or order.
    """
    if k < 2 or k % 2:
        raise ConfigError(f"FAT-TREE needs an even k >= 2, got {k}")
    num_cores = k // 2
    num_nodes = 2 * k + num_cores
    edges = np.arange(k, dtype=np.int64)
    # ECMP picks come from a dedicated hash member so they can't
    # correlate with the attachment hashes.
    ecmp = HashFamily(1, seed=seed ^ 0x0FA7)
    routes: list[tuple[int, ...]] = []
    for src in range(k):
        for dst in range(k):
            if src == dst:
                routes.append((src,))
                continue
            pick = int(ecmp.hash_one(0, (src << 32) | dst))
            if src // 2 == dst // 2:  # same pod: one agg hop
                agg = k + (src // 2) * 2 + pick % 2
                routes.append((src, agg, dst))
            else:  # cross pod: up to a core and back down
                agg_up = k + (src // 2) * 2 + pick % 2
                core = 2 * k + (pick >> 1) % num_cores
                agg_down = k + (dst // 2) * 2 + (pick >> 8) % 2
                routes.append((src, agg_up, core, agg_down, dst))
    return Topology(
        f"FAT-TREE:{k}", num_nodes, edges, edges, tuple(routes), seed=seed
    )


def parse_topology(spec: str, *, seed: int = DEFAULT_TOPOLOGY_SEED) -> Topology:
    """Build a topology from a CLI spec string.

    ``PATH:6`` | ``TREE:2x3`` (depth x branching) | ``FAT-TREE:4``.
    Kind matching is case-insensitive; ``FATTREE`` is accepted too.
    """
    kind, sep, arg = spec.partition(":")
    kind = kind.strip().upper().replace("_", "-")
    if not sep or not arg:
        raise ConfigError(
            f"topology spec wants KIND:ARG (e.g. PATH:6, TREE:2x3), got {spec!r}"
        )
    try:
        if kind == "PATH":
            return path_topology(int(arg), seed=seed)
        if kind == "TREE":
            depth_s, sep2, branch_s = arg.lower().partition("x")
            if not sep2:
                raise ConfigError(
                    f"TREE spec wants TREE:DEPTHxBRANCHING, got {spec!r}"
                )
            return tree_topology(int(depth_s), int(branch_s), seed=seed)
        if kind in ("FAT-TREE", "FATTREE"):
            return fat_tree_topology(int(arg), seed=seed)
    except ValueError:
        raise ConfigError(f"non-numeric topology argument in {spec!r}") from None
    raise ConfigError(
        f"unknown topology kind {kind!r}; use one of {', '.join(TOPOLOGY_KINDS)}"
    )
