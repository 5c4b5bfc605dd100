"""Synthetic 100k+-proxy workload for the sharded event simulator.

A full :meth:`HFCFramework.build` is quadratic in the proxy count (MST
clustering over the delay matrix), so the scale benches cannot construct
a real framework at n=100k. This module builds the *columnar state
directly*: clusters laid out on a grid with a guaranteed inter-cluster
gap, members uniform inside each cluster's radius, borders picked as the
member closest to the peer cluster's centre — the same shape the real
pipeline produces, at any n, in O(n·C).

Delivery delays are coordinate distances, so the coordinate lower bound
(:func:`repro.netsim.shard.coordinate_lookahead`) is a *valid* lookahead
by the triangle inequality, and the conservative window protocol is
exact.

:class:`UniformTraffic` is the matching :class:`ShardProgram`: every
proxy issues requests on a fixed period with a hash-derived phase and a
hash-derived destination, each request walking the paper's 4-node path
(source → own border → peer border → destination). Everything is a pure
function of (seed, proxy, request index) — no RNG stream is shared
across shards — so the completed-request count is bit-identical for any
shard count and any worker count: the benches gate on that ratio being
exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.eventsim import Message, Process, Simulator
from repro.netsim.shard import ShardPlan, ShardProgram
from repro.state.columnar import ColumnarOverlayState, ColumnarShard
from repro.util.errors import StateError


def synthetic_overlay(
    n: int,
    clusters: int,
    *,
    seed: int = 0,
    spacing: float = 200.0,
    radius: float = 40.0,
    services: int = 8,
) -> ColumnarOverlayState:
    """A grid-of-clusters columnar overlay with a guaranteed cluster gap.

    Cluster centres sit on a square grid *spacing* apart; members are
    uniform in the square inscribed in the *radius* disk around their
    centre, so any two clusters are at least ``spacing - 2 * radius``
    apart and the coordinate lookahead is bounded away from zero.
    """
    if clusters < 1 or n < clusters:
        raise StateError(f"need 1 <= clusters <= n, got clusters={clusters}, n={n}")
    if spacing <= 2 * radius:
        raise StateError(
            f"spacing {spacing} must exceed twice the radius {radius} "
            "to keep clusters apart"
        )
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(clusters))
    centers = np.array(
        [(spacing * (c % side), spacing * (c // side)) for c in range(clusters)],
        dtype=float,
    )
    base, extra = divmod(n, clusters)
    sizes = np.full(clusters, base, dtype=np.int64)
    sizes[:extra] += 1
    labels = np.repeat(np.arange(clusters, dtype=np.int64), sizes)
    # uniform in the inscribed square: max offset norm == radius exactly
    half = radius / math.sqrt(2.0)
    coords = centers[labels] + rng.uniform(-half, half, size=(n, 2))
    cluster_ptr = np.zeros(clusters + 1, dtype=np.int64)
    np.cumsum(sizes, out=cluster_ptr[1:])
    border_matrix = np.full((clusters, clusters), -1, dtype=np.int64)
    for cid in range(clusters):
        lo, hi = int(cluster_ptr[cid]), int(cluster_ptr[cid + 1])
        block = coords[lo:hi]
        # member closest to each peer centre; ties break to the lowest row,
        # matching the real border-selection convention
        dists = np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2)
        nearest = lo + np.argmin(dists, axis=0)
        border_matrix[cid, :] = nearest
        border_matrix[cid, cid] = -1
    vocab = sorted(f"svc{i}" for i in range(services))
    code_of = {name: i for i, name in enumerate(vocab)}
    codes = np.array([code_of[f"svc{r % services}"] for r in range(n)], dtype=np.int64)
    state = ColumnarOverlayState(
        proxies=np.arange(n, dtype=np.int64),
        coords=coords,
        labels=labels,
        cluster_ptr=cluster_ptr,
        cluster_members=np.arange(n, dtype=np.int64),
        border_matrix=border_matrix,
        service_names=vocab,
        placement_ptr=np.arange(n + 1, dtype=np.int64),
        placement_codes=codes,
    )
    state.validate()
    return state


def _mix(a: int, b: int, c: int = 0) -> int:
    """A small deterministic integer hash (no RNG stream to interleave)."""
    h = (a * 0x9E3779B1 + b * 0x85EBCA77 + c * 0xC2B2AE3D + 0x165667B1) & 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x2C1B3C6D) & 0xFFFFFFFF
    h ^= h >> 12
    return h


#: slots of a shard's plain-int tally; a hop's slot is HOPS_INTRA or HOPS_CROSS
REQUESTS, COMPLETED, HOPS_INTRA, HOPS_CROSS = range(4)
_TALLY_NAMES = ("requests", "completed", "hops_intra", "hops_cross")


class _Relay(Process):
    """Per-proxy request issuer and hop forwarder for :class:`UniformTraffic`.

    The tally hangs off the relay, not the program: one program instance
    sets up every shard in-process, so per-shard state must live with the
    shard's processes. A request travels as a linked route
    ``(proxy, delay, tally slot, rest)`` built when it is issued; each
    relay pops one hop and forwards the rest, and ``rest=None`` marks
    the destination.
    """

    def __init__(
        self, address: Any, program: "UniformTraffic", row: int, cluster: int, tally: List[int]
    ) -> None:
        super().__init__(address)
        self.program = program
        self.row = row
        self.cluster = cluster
        self.tally = tally
        self.issued = 0

    def issue(self) -> None:
        program = self.program
        route = program._route(self.row, self.cluster, self.issued)
        self.tally[REQUESTS] += 1
        self.issued += 1
        if route is None:
            self.tally[COMPLETED] += 1
        else:
            self._forward(route)
        sim = self.simulator
        if sim.now + program.period < program.duration:  # type: ignore[union-attr]
            sim.schedule(program.period, self.issue)  # type: ignore[union-attr]

    def receive(self, message: Message) -> None:
        if message.payload is None:
            self.tally[COMPLETED] += 1
        else:
            self._forward(message.payload)

    def _forward(self, route: Tuple[int, float, int, Any]) -> None:
        proxy, delay, slot, rest = route
        self.tally[slot] += 1
        self.simulator.send(Message(self.address, proxy, "hop", rest), delay)  # type: ignore[union-attr]


class UniformTraffic(ShardProgram):
    """Deterministic periodic request traffic over a synthetic overlay.

    Each proxy issues ``duration / period`` requests; request ``k`` of
    proxy ``p`` starts at phase ``hash(seed, p) % period`` and walks
    source → border(src-cluster → dst-cluster) → border(dst → src) →
    destination, where the destination cluster and member come from
    ``hash(seed, p, k)``. Hop delays are coordinate distances.

    The first :meth:`setup` resolves the columns the handlers read into
    plain Python lists (coordinates as tuples, proxy ids, cluster members
    and pointers, borders, and each row's shard), so no handler touches
    a numpy scalar.
    """

    def __init__(
        self,
        state: ColumnarOverlayState,
        *,
        period: float = 500.0,
        duration: float = 2000.0,
        seed: int = 0,
    ) -> None:
        if period <= 0 or duration <= 0:
            raise StateError("period and duration must be positive")
        self.period = period
        self.duration = duration
        self.seed = seed
        # shared numpy columns (copy-on-write under fork, pickled once
        # per worker under spawn)
        self.state = state
        self._plan: Optional[ShardPlan] = None
        self._tallies: Dict[int, List[int]] = {}

    def _resolve(self, plan: ShardPlan) -> None:
        state = self.state
        row_shard = np.empty(state.size, dtype=np.int64)
        for view in plan.views:
            row_shard[view.member_rows] = view.shard
        self._row_shard = row_shard.tolist()
        self._coords = list(map(tuple, state.coords.tolist()))
        self._proxies = state.proxies.tolist()
        self._members = state.cluster_members.tolist()
        self._ptr = state.cluster_ptr.tolist()
        self._borders = state.border_matrix.tolist()
        self._plan = plan

    # -- ShardProgram ------------------------------------------------------------

    def setup(self, sim: Simulator, view: Optional[ColumnarShard], plan: ShardPlan) -> None:
        if view is None:
            raise StateError("UniformTraffic needs the shard's columnar view")
        if self._plan is not plan:
            self._resolve(plan)
        tally = self._tallies[view.shard] = [0, 0, 0, 0]
        rows = view.member_rows.tolist()
        labels = self.state.labels[view.member_rows].tolist()
        for row, cluster in zip(rows, labels):
            proxy = self._proxies[row]
            relay = _Relay(proxy, self, row, cluster, tally)
            sim.register(relay)
            phase = (_mix(self.seed, proxy) % 10_000) / 10_000.0 * self.period
            sim.schedule(phase, relay.issue)

    def collect(self, sim: Simulator) -> Dict[str, int]:
        """Fold the shard's tally into its ``shardload.*`` counters and return them."""
        shard = getattr(sim, "shard_id", 0)
        tally = self._tallies.get(shard, [0, 0, 0, 0])
        registry = sim.telemetry.registry
        counters = (  # in tally-slot order
            registry.counter("shardload.requests", shard=shard),
            registry.counter("shardload.completed", shard=shard),
            registry.counter("shardload.hops", shard=shard, reach="intra"),
            registry.counter("shardload.hops", shard=shard, reach="cross"),
        )
        result = {"shard": shard, "events": sim.events_processed}
        for slot, (name, counter) in enumerate(zip(_TALLY_NAMES, counters)):
            counter.inc(tally[slot])
            tally[slot] = 0
            result[name] = counter.value
        return result

    # -- workload ----------------------------------------------------------------

    def _route(self, row: int, src_cluster: int, k: int) -> Optional[Tuple[int, float, int, Any]]:
        """The linked hop route of request *k* of *row*; None if it is local."""
        ptr = self._ptr
        h = _mix(self.seed, row, k)
        dst_cluster = h % (len(ptr) - 1)
        lo, hi = ptr[dst_cluster], ptr[dst_cluster + 1]
        dst_row = self._members[lo + _mix(h, k, 1) % (hi - lo)]
        if dst_cluster != src_cluster:
            borders = self._borders
            path: Tuple[int, ...] = (
                row, borders[src_cluster][dst_cluster], borders[dst_cluster][src_cluster], dst_row
            )
        elif dst_row != row:
            path = (row, dst_row)
        else:
            return None
        coords, proxies, row_shard = self._coords, self._proxies, self._row_shard
        route = None
        for here, nxt in zip(path[-2::-1], path[:0:-1]):
            slot = HOPS_INTRA if row_shard[nxt] == row_shard[here] else HOPS_CROSS
            route = (proxies[nxt], math.dist(coords[here], coords[nxt]), slot, route)
        return route


@dataclass
class ShardLoadResult:
    """Aggregated outcome of one :class:`UniformTraffic` run."""

    proxies: int
    clusters: int
    shards: int
    workers: int
    events: int
    wall_seconds: float
    requests: int
    completed: int
    hops_intra: int
    hops_cross: int
    windows: int
    exchanged: int

    @property
    def event_rate(self) -> float:
        """Events per wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def locality(self) -> float:
        """Fraction of hop messages that stayed shard-local."""
        hops = self.hops_intra + self.hops_cross
        return self.hops_intra / hops if hops else 1.0

    @property
    def completed_ratio(self) -> float:
        """Completed / issued requests."""
        return self.completed / self.requests if self.requests else 1.0


def run_shard_load(
    state: ColumnarOverlayState,
    *,
    shards: int,
    workers: Optional[int] = None,
    period: float = 500.0,
    duration: float = 2000.0,
    drain: Optional[float] = None,
    seed: int = 0,
    lookahead: Optional[float] = None,
) -> ShardLoadResult:
    """Run :class:`UniformTraffic` over *state* and aggregate the counters.

    *drain* is the extra horizon past the last issue instant; the default
    guarantees completion — every request walks at most 3 hops, each at
    most the coordinate bounding-box diagonal.
    """
    from repro.netsim.shard import run_sharded

    if drain is None:
        span = state.coords.max(axis=0) - state.coords.min(axis=0)
        drain = 3.0 * float(np.linalg.norm(span))
    plan = ShardPlan.from_state(state, shards, lookahead=lookahead)
    program = UniformTraffic(state, period=period, duration=duration, seed=seed)
    outcome = run_sharded(
        plan, program, until=duration + drain, workers=workers
    )
    totals = {"requests": 0, "completed": 0, "hops_intra": 0, "hops_cross": 0}
    for result in outcome.results:
        for key in totals:
            totals[key] += result[key]
    return ShardLoadResult(
        proxies=state.size,
        clusters=state.cluster_count,
        shards=outcome.shards,
        workers=outcome.workers,
        events=outcome.events,
        wall_seconds=outcome.wall_seconds,
        requests=totals["requests"],
        completed=totals["completed"],
        hops_intra=totals["hops_intra"],
        hops_cross=totals["hops_cross"],
        windows=outcome.windows,
        exchanged=outcome.exchanged,
    )
