"""The four benchmark workloads: route, churn, traffic and shard.

Each workload drives the library only through public calls, as one
closed-loop caller (every call waits for the previous one). A run is a
set-up, repeated and timed on its own, followed by a timed loop of
library calls, followed by output checks that are not timed.

A workload runs in one of two passes. The *plain* pass keeps the
process's default telemetry, as users run the library, and yields the
end-to-end metrics. The *traced* pass repeats exactly the same work with
a private :class:`~repro.telemetry.Telemetry` scope and timing probes
around the public calls of each layer, and yields the per-layer metrics.
"""

from __future__ import annotations

import json
import random
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from probes import Probe, SpeedMeter, counter, digest, median, path_bytes, span_seconds, tail

from repro.coords.embedding import locate_host
from repro.core import HFCFramework
from repro.experiments.workload import random_service_graph
from repro.membership import DynamicOverlay
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.shard import ShardPlan, ShardProgram, run_sharded
from repro.persistence import load_snapshot, save_snapshot
from repro.routing.batch import query_tables
from repro.routing.cache import CachedHierarchicalRouter
from repro.routing.path import validate_path
from repro.services.request import ServiceRequest
from repro.telemetry import Telemetry
from repro.traffic.arrivals import Poisson
from repro.traffic.engine import TrafficConfig, TrafficEngine
from repro.traffic.shardload import UniformTraffic, synthetic_overlay
from repro.util.errors import MembershipError, ReproError
from repro.util.sampling import PopularitySampler

#: digests are recorded for, and compared at, this seed only
DEFAULT_SEED = 1

#: overlay size of route, churn and traffic: the largest Table-1 size
PROXIES = 1000
#: the overlays (and route's template pool) are the benchmark's fixed
#: configuration; --seed varies the inputs driven through them
BUILD_SEED = 7
#: route_many_detailed batch size (route and churn reads)
BATCH = 50
#: share of requests with a branching service graph
NONLINEAR = 0.2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "goodput": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # build stages, from the construct.* spans
    "netsim.topology.build_s": "s",
    "coords.embed_s": "s",
    "cluster.cluster_s": "s",
    "overlay.borders_s": "s",
    "state.columnar_s": "s",
    "persistence.load_s": "s",
    "persistence.snapshot_bytes": "bytes",
    # routing
    "routing.busy_s": "s",
    "routing.calls": "count",
    "routing.requests": "count",
    "routing.precompute_s": "s",
    "routing.csp_s": "s",
    "routing.dissect_s": "s",
    "routing.conquer_s": "s",
    "routing.compose_s": "s",
    "routing.csp_cache_hit_ratio": "ratio",
    "routing.repeat_share": "ratio",
    "routing.rebind_s": "s",
    # membership
    "membership.join_s": "s",
    "membership.leave_s": "s",
    "membership.events": "count",
    "membership.materialise_s": "s",
    "coords.locate_s": "s",
    # netsim.physical
    "netsim.physical.delay_s": "s",
    "netsim.physical.delay_calls": "count",
    "netsim.physical.measure_s": "s",
    # event engine (netsim.eventsim, netsim.shard)
    "netsim.events": "count",
    "netsim.events_per_s": "1/s",
    "netsim.busy_s": "s",
    "netsim.messages_sent": "count",
    "netsim.messages_dropped": "count",
    "netsim.shard.windows": "count",
    "netsim.shard.exchanged": "count",
    "netsim.shard.locality": "ratio",
    # traffic
    "traffic.flushes": "count",
    "traffic.batch_size_mean": "count",
    "traffic.in_flight_peak": "count",
    # telemetry
    "telemetry.trace_overhead": "ratio",
    # workload views, measured in wall time by the plain pass
    "machine_speed": "ratio",
    "route_rps": "1/s",
    "route_batch_p50_ms": "ms",
    "route_batch_tail_ms": "ms",
    "route_batch_tail_pct": "%",
    "churn_ops_per_s": "1/s",
    "sim_requests_per_s": "1/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_tail_ms": "ms",
    "path_delay_mean_ms": "ms",
    "failed_ratio": "ratio",
}


@dataclass
class Outcome:
    """What one pass of a workload measured and produced."""

    meter: SpeedMeter = field(default_factory=SpeedMeter)
    #: (start, end) instants of each repeated set-up
    setup_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: (start, end) instants of each timed library call (or round of calls)
    spans: List[Tuple[float, float]] = field(default_factory=list)
    #: iterations of the timed loop; the traced pass repeats as many
    steps: int = 0
    #: operations the timed calls completed
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: workload-specific numbers, reported with the per-layer set
    views: Dict[str, float] = field(default_factory=dict)
    #: per-layer numbers (traced pass only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: digest of the outputs covered by the recorded fixture
    digest: str = ""
    #: failed output checks
    problems: List[str] = field(default_factory=list)
    #: reference-speed seconds of each set-up (see finish)
    setup: List[float] = field(default_factory=list)
    #: wall and reference-speed seconds of the timed calls (see finish)
    wall: float = 0.0
    reference: float = 0.0

    def timed(self, call: Callable[[], Any], *, setup: bool = False) -> Any:
        """Run one timed call (or one set-up) between speed-meter samples."""
        self.meter.tick(force=setup or not self.spans)
        start = perf_counter()
        result = call()
        (self.setup_spans if setup else self.spans).append((start, perf_counter()))
        if setup:
            self.meter.tick(force=True)
        return result

    def finish(self) -> None:
        """Total the timed calls once the loop is over, snippets left out."""
        self.meter.tick(force=True)
        self.setup = [self.meter.measure(*span)[1] for span in self.setup_spans]
        for start, end in self.spans:
            wall, reference = self.meter.measure(start, end)
            self.wall += wall
            self.reference += reference
        self.views["machine_speed"] = self.meter.speed()

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": median(self.setup),
            "ops_per_s": self.ops / self.reference,
            "goodput": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _keep_going(outcome: Outcome, minimum: int, steps: Optional[int],
                began: float, seconds: float) -> bool:
    """Whether the timed loop makes another step.

    The plain pass runs for *seconds* and at least *minimum* steps (the
    digest covers the first ones); the traced pass repeats exactly the
    plain pass's *steps*.
    """
    if steps is not None:
        return outcome.steps < steps
    return outcome.steps < minimum or perf_counter() - began < seconds


class _OfferedServices:
    """Zipf service draws, redrawn until some proxy offers the service."""

    def __init__(self, names: List[str]) -> None:
        self.sampler = PopularitySampler(names, popularity="zipf")
        self.offered: Optional[Set[str]] = None

    def draw(self, rng: random.Random) -> str:
        name = self.sampler.draw(rng)
        while self.offered is not None and name not in self.offered:
            name = self.sampler.draw(rng)
        return name


def _request_maker(framework: HFCFramework, rng: random.Random) -> Callable[..., ServiceRequest]:
    """Paper-shaped requests: 4-10 slots, Zipf service popularity, some branching.

    Pass *offered* when churn may have removed every provider of a
    service, so that each request stays feasible.
    """
    catalog = framework.catalog
    services = _OfferedServices(list(catalog.names))

    def make(proxies: List[Any], offered: Optional[Set[str]] = None) -> ServiceRequest:
        services.offered = offered
        source, destination = rng.sample(proxies, 2)
        graph = random_service_graph(
            catalog,
            rng.randint(4, 10),
            nonlinear=rng.random() < NONLINEAR,
            sampler=services,
            seed=rng,
        )
        return ServiceRequest(source, graph, destination)

    return make


def _check_paths(result: Any, batch: List[ServiceRequest], overlay: Any, outcome: Outcome) -> int:
    """Validate every routed path; count infeasible requests as failed."""
    routed = 0
    for request, path in zip(batch, result.paths):
        outcome.attempted += 1
        if path is None:
            outcome.failed += 1
            continue
        routed += 1
        try:
            validate_path(path, request, overlay)
        except ReproError as err:
            outcome.problems.append(f"invalid path: {err}")
    return routed


def _build_layers(telemetry: Telemetry) -> Dict[str, float]:
    return {
        "netsim.topology.build_s": span_seconds(telemetry, "construct.topology"),
        "coords.embed_s": span_seconds(telemetry, "construct.embedding"),
        "cluster.cluster_s": span_seconds(telemetry, "construct.clustering"),
        "overlay.borders_s": span_seconds(telemetry, "construct.borders"),
        "state.columnar_s": span_seconds(telemetry, "construct.columnar"),
    }


def _routing_layers(telemetry: Telemetry, probe: Probe) -> Dict[str, float]:
    hits = counter(telemetry, "routing.cache.hits", cache="csp")
    misses = counter(telemetry, "routing.cache.misses", cache="csp")
    return {
        "routing.busy_s": probe.seconds("routing"),
        "routing.calls": probe.calls("routing"),
        "routing.requests": counter(telemetry, "routing.batch.requests", router="hierarchical"),
        "routing.precompute_s": span_seconds(telemetry, "route.batch.precompute"),
        "routing.csp_s": span_seconds(telemetry, "route.batch.csp"),
        "routing.dissect_s": span_seconds(telemetry, "route.batch.dissect"),
        "routing.conquer_s": span_seconds(telemetry, "route.batch.conquer"),
        "routing.compose_s": span_seconds(telemetry, "route.batch.compose"),
        "routing.csp_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def _batch_views(outcome: Outcome, batch_seconds: List[float]) -> None:
    value, pct = tail(batch_seconds)
    outcome.views["route_rps"] = BATCH * len(batch_seconds) / sum(batch_seconds)
    outcome.views["route_batch_p50_ms"] = median(batch_seconds) * 1e3
    outcome.views["route_batch_tail_ms"] = value * 1e3
    outcome.views["route_batch_tail_pct"] = pct


class Workload:
    """One named workload; a fresh instance serves both passes of a run."""

    name = ""
    why = ""
    #: set-ups timed per plain pass; setup_s is their median
    setup_repeats = 3
    #: timed steps the digest covers, so every plain pass makes at least these
    digest_steps = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def digest_key(self, seconds: int) -> str:
        return str(self.seed)

    def rng(self, purpose: str, seed: Optional[int] = None) -> random.Random:
        seed = self.seed if seed is None else seed
        return random.Random(f"perfbench.{self.name}.{purpose}.{seed}")

    def run(self, seconds: int, steps: Optional[int] = None,
            telemetry: Optional[Telemetry] = None) -> Outcome:
        raise NotImplementedError


class Route(Workload):
    name = "route"
    why = ("routing is nearly all of the timed work, and Zipf-repeated "
           "requests give the CSP cache hits to show")
    digest_steps = 20
    #: request templates; Zipf-popular, so most requests repeat an earlier one
    templates = 500

    def run(self, seconds, steps=None, telemetry=None):
        def set_up():
            framework = HFCFramework.build(PROXIES, seed=BUILD_SEED, telemetry=telemetry)
            router = framework.cached_hierarchical_router(telemetry=telemetry)
            query_tables(framework.hfc)
            # warm the code paths on a throwaway router, keeping the CSP
            # cache and the traced scope cold
            warm = _request_maker(framework, self.rng("warm"))
            framework.hierarchical_router().route_many_detailed(
                [warm(framework.overlay.proxies) for _ in range(BATCH)])
            return framework, router

        outcome = Outcome()
        for _ in range(1 if telemetry else self.setup_repeats):
            framework, router = outcome.timed(set_up, setup=True)
        proxies = list(framework.overlay.proxies)
        make = _request_maker(framework, self.rng("pool", BUILD_SEED))
        pool = [make(proxies) for _ in range(self.templates)]
        popularity = PopularitySampler(list(range(self.templates)), popularity="zipf")
        rng = self.rng("stream")
        probe = Probe()
        if telemetry:
            probe.wrap(router, "route_many_detailed", "routing")
        seen, repeats, prefix = set(), 0, []
        began = perf_counter()
        while _keep_going(outcome, self.digest_steps, steps, began, seconds):
            outcome.steps += 1
            picks = [popularity.draw(rng) for _ in range(BATCH)]
            batch = [pool[i] for i in picks]
            result = outcome.timed(lambda: router.route_many_detailed(batch))
            outcome.ops += _check_paths(result, batch, framework.overlay, outcome)
            repeats += sum(1 for i in picks if i in seen)
            seen.update(picks)
            if outcome.steps <= self.digest_steps:
                prefix.extend(result.paths)
        probe.unwrap()
        outcome.finish()

        outcome.digest = digest(b"-" if p is None else path_bytes(p) for p in prefix)
        _batch_views(outcome, [end - start for start, end in outcome.spans])
        if telemetry:
            # the paper's Fig-10 quantity, over the digest prefix (after timing)
            routed = [p for p in prefix if p is not None]
            outcome.layers["path_delay_mean_ms"] = (
                sum(p.true_delay(framework.overlay) for p in routed) / len(routed)
            )
            outcome.layers.update(_build_layers(telemetry))
            outcome.layers.update(_routing_layers(telemetry, probe))
            outcome.layers["routing.repeat_share"] = repeats / outcome.attempted
        return outcome


class Churn(Workload):
    name = "churn"
    why = ("membership writes beside reads from a warm start; every read "
           "follows a write, so per-topology caches are always cold")
    setup_repeats = 5
    digest_steps = 5
    #: join/leave writes per round; each round then routes one fresh batch
    writes = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.snapshot = workdir / "churn.npz"
        # the snapshot is written once per process, before anything is timed
        save_snapshot(HFCFramework.build(PROXIES, seed=BUILD_SEED), str(self.snapshot))

    def run(self, seconds, steps=None, telemetry=None):
        loads = []

        def set_up():
            start = perf_counter()
            snapshot = load_snapshot(str(self.snapshot))
            loads.append(perf_counter() - start)
            dyn = DynamicOverlay.from_snapshot(
                snapshot, restructure_tolerance=None, track_quality=False, telemetry=telemetry
            )
            router = CachedHierarchicalRouter(dyn.hfc, telemetry=telemetry)
            query_tables(dyn.hfc)
            return snapshot, dyn, router

        outcome = Outcome()
        for _ in range(1 if telemetry else self.setup_repeats):
            snapshot, dyn, router = outcome.timed(set_up, setup=True)
        framework = snapshot.framework
        # Joins measure their landmark delays through the library's
        # PhysicalNetwork.measure_many and locate_host, then join with
        # coords=. The meter is seeded: the network load_snapshot restores
        # draws its measurement noise from an OS-seeded stream, so a join
        # measured through it is not reproducible.
        meter = PhysicalNetwork(
            framework.physical.topology, noise=framework.physical.noise,
            seed=self.rng("noise").getrandbits(32),
        )
        landmarks = framework.embedding_report.landmark_ids
        landmark_coords = np.asarray(framework.embedding_report.landmark_coordinates)
        names = list(framework.catalog.names)
        rng = self.rng("script")
        make = _request_maker(framework, rng)
        free = [r for r in framework.physical.topology.stub_nodes if not dyn.is_member(r)]
        rng.shuffle(free)

        probe = Probe()
        locate_seconds = probe.samples["coords.locate"]

        def join(router_id, services):
            measured = meter.measure_many([router_id], landmarks, probes=3)[0]
            start = perf_counter()
            coords = locate_host(landmark_coords, measured)
            locate_seconds.append(perf_counter() - start)
            dyn.join(router_id, services, coords=coords)

        if telemetry:
            probe.wrap(router, "route_many_detailed", "routing")
            probe.wrap(meter, "measure_many", "physical.measure")
            probe.wrap(dyn, "join", "membership.join")
            probe.wrap(dyn, "leave", "membership.leave")
        phase = dict.fromkeys(("write", "materialise", "rebind"), 0.0)
        writes = rejected = 0
        batch_seconds: List[float] = []

        def draw_writes() -> List[Tuple[Any, ...]]:
            script: List[Tuple[Any, ...]] = []
            for _ in range(self.writes):
                if free and rng.random() < 0.5:
                    services = frozenset(rng.sample(names, rng.randint(4, 10)))
                    script.append(("join", free.pop(), services))
            leaves = self.writes - len(script)
            script += [("leave", victim) for victim in rng.sample(dyn.proxies, leaves)]
            rng.shuffle(script)
            return script

        def apply(script: List[Tuple[Any, ...]]) -> None:
            nonlocal rejected
            start = perf_counter()
            for kind, proxy, *services in script:
                try:
                    if kind == "join":
                        join(proxy, *services)
                    else:
                        dyn.leave(proxy)
                        free.append(proxy)
                except MembershipError:
                    rejected += 1
            written = perf_counter()
            hfc = dyn.hfc
            viewed = perf_counter()
            router.rebind(hfc)
            rebound = perf_counter()
            phase["write"] += rebound - start
            phase["materialise"] += viewed - written
            phase["rebind"] += rebound - viewed

        began = perf_counter()
        while _keep_going(outcome, self.digest_steps, steps, began, seconds):
            # inputs are drawn from the live membership between the timed calls
            outcome.steps += 1
            script = draw_writes()
            outcome.timed(lambda: apply(script))
            writes += len(script)
            offered = set().union(*dyn.overlay.placement.values())
            batch = [make(dyn.proxies, offered) for _ in range(BATCH)]
            result = outcome.timed(lambda: router.route_many_detailed(batch))
            batch_seconds.append(outcome.spans[-1][1] - outcome.spans[-1][0])
            outcome.ops += len(script) + _check_paths(result, batch, dyn.overlay, outcome)
            if outcome.steps == self.digest_steps:
                outcome.digest = _state_digest(dyn.columnar())
        probe.unwrap()
        outcome.finish()

        outcome.attempted += writes
        outcome.failed += rejected
        outcome.views["churn_ops_per_s"] = writes / phase["write"]
        _batch_views(outcome, batch_seconds)
        if telemetry:
            outcome.layers.update(_routing_layers(telemetry, probe))
            outcome.layers.update({
                "persistence.load_s": loads[0],
                "persistence.snapshot_bytes": self.snapshot.stat().st_size,
                "membership.join_s": median(probe.samples["membership.join"]),
                "membership.leave_s": median(probe.samples["membership.leave"]),
                "membership.events": sum(
                    counter(telemetry, "membership.events", kind=kind) for kind in ("join", "leave")
                ),
                "membership.materialise_s": phase["materialise"],
                "routing.rebind_s": phase["rebind"],
                "netsim.physical.measure_s": probe.seconds("physical.measure"),
                "coords.locate_s": probe.seconds("coords.locate"),
            })
        return outcome


def _state_digest(state: Any) -> str:
    arrays = (
        state.proxies, state.coords, state.labels, state.cluster_ptr,
        state.cluster_members, state.border_matrix, state.placement_ptr,
        state.placement_codes,
    )
    return digest([json.dumps(list(state.service_names)).encode()]
                  + [np.ascontiguousarray(a).tobytes() for a in arrays])


class Traffic(Workload):
    name = "traffic"
    why = ("the end-to-end experiment users run: open-loop sessions with "
           "routing, per-hop delivery and FIFO queueing, and no request repeats")
    #: Poisson session arrivals per simulated ms, below saturation
    rate = 0.12
    #: simulated ms of arrivals per second of --seconds
    sim_ms_per_second = 800.0
    drain_ms = 2000.0
    #: one timed call advances the simulation by one micro-batch interval
    slice_ms = 50.0

    def digest_key(self, seconds):
        # the simulated horizon, and so the trace, scales with --seconds
        return f"{self.seed}@{seconds}"

    def run(self, seconds, steps=None, telemetry=None):
        def set_up():
            framework = HFCFramework.build(PROXIES, seed=BUILD_SEED, telemetry=telemetry)
            query_tables(framework.hfc)
            return framework

        outcome = Outcome()
        for _ in range(1 if telemetry else self.setup_repeats):
            framework = outcome.timed(set_up, setup=True)
        duration = self.sim_ms_per_second * seconds
        config = TrafficConfig(
            arrival=Poisson(rate=self.rate), duration=duration,
            warmup=duration / 10.0, drain=self.drain_ms, delivery="hop",
        )
        sim = framework.simulator(telemetry=Telemetry() if telemetry else None)
        router = framework.cached_hierarchical_router(telemetry=telemetry)
        engine = TrafficEngine(framework, config, sim=sim, router=router, seed=self.seed)
        probe = Probe()
        if telemetry:
            probe.wrap(router, "route_many_detailed", "routing")
            probe.wrap(framework.overlay, "true_delay", "physical.delay")

        end = duration + self.drain_ms
        engine.start()
        horizons = np.arange(self.slice_ms, end + self.slice_ms, self.slice_ms).clip(max=end)
        for horizon in horizons:
            outcome.timed(lambda: sim.run_until(float(horizon)))
        report = outcome.timed(engine.finish)
        probe.unwrap()
        outcome.finish()

        records = engine.collector.records
        completed = sum(1 for r in records if r.completed_at is not None)
        infeasible = sum(1 for r in records if r.infeasible)
        lost = len(records) - completed - infeasible
        outcome.ops = completed
        outcome.attempted = len(records) + engine.collector.session_arrivals
        outcome.failed = lost + infeasible + engine.collector.session_rejections
        if report.requests_offered != (
            report.requests_completed + report.requests_lost + report.requests_infeasible
        ):
            outcome.problems.append("traffic report: offered != completed + lost + infeasible")
        issued = counter(sim.telemetry, "traffic.requests")
        settled = (counter(sim.telemetry, "traffic.completed")
                   + counter(sim.telemetry, "traffic.lost")
                   + counter(sim.telemetry, "traffic.rejected", reason="infeasible"))
        if issued != len(records) or issued != settled:
            outcome.problems.append(
                f"traffic counters: {issued} requests issued, {settled} settled")
        tallies = sim.conservation()
        if not tallies["balanced"]:
            outcome.problems.append(f"message conservation violated: {tallies}")
        if completed == 0:
            outcome.problems.append("traffic completed no request")
        if self.seed == DEFAULT_SEED:
            trace = self.workdir / "traffic.jsonl"
            engine.dump_trace(str(trace))
            outcome.digest = digest([trace.read_bytes()])
            trace.unlink()

        sojourns = [r.sojourn for r in engine.collector.window() if r.completed_at is not None]
        outcome.views.update({
            "sim_requests_per_s": completed / outcome.wall,
            "sim_latency_p50_ms": median(sojourns),
            "sim_latency_tail_ms": tail(sojourns)[0],
        })
        if telemetry:
            outcome.layers.update(_build_layers(telemetry))
            outcome.layers.update(_routing_layers(telemetry, probe))
            flushes = probe.calls("routing")
            outcome.layers.update({
                "netsim.physical.delay_s": probe.seconds("physical.delay"),
                "netsim.physical.delay_calls": probe.calls("physical.delay"),
                "netsim.events": sim.events_processed,
                "netsim.events_per_s": sim.events_processed / outcome.wall,
                "netsim.busy_s": (outcome.wall - probe.seconds("routing")
                                  - probe.seconds("physical.delay")),
                "netsim.messages_sent": tallies["sent"],
                "netsim.messages_dropped": tallies["dropped"],
                "traffic.flushes": flushes,
                "traffic.batch_size_mean": outcome.layers["routing.requests"] / flushes,
                "traffic.in_flight_peak": report.in_flight_peak,
            })
        return outcome


class _Metered(ShardProgram):
    """A shard program plus speed-meter ticks on every lane.

    A shard run is one long library call, so the machine-speed samples
    have to be taken from inside it: every lane fires a tick timer every
    ``every`` simulated ms, and the meter runs its snippet at most every
    ``SpeedMeter.GAP`` wall seconds.
    """

    def __init__(self, inner: ShardProgram, meter: SpeedMeter, every: float) -> None:
        self.inner = inner
        self.meter = meter
        self.every = every

    def setup(self, sim, view, plan):
        self.inner.setup(sim, view, plan)
        sim.schedule_every(self.every, self.meter.tick)

    def collect(self, sim):
        return self.inner.collect(sim)


class Shard(Workload):
    name = "shard"
    why = ("the only workload in netsim.shard, at n beyond the O(n^2) HFC build; "
           "no routing or construction, so an engine change shows here alone")
    setup_repeats = 5
    proxies = 20000
    clusters = 64
    shards = 2
    #: one request per proxy per period; one timed call is one run of
    #: every proxy's first request (20000 requests)
    period = 500.0
    #: simulated ms between speed-meter ticks on each lane
    tick_ms = 5.0

    def run(self, seconds, steps=None, telemetry=None):
        def set_up():
            state = synthetic_overlay(self.proxies, self.clusters, seed=BUILD_SEED)
            return state, ShardPlan.from_state(state, self.shards)

        outcome = Outcome()
        for _ in range(1 if telemetry else self.setup_repeats):
            state, plan = outcome.timed(set_up, setup=True)
        # the drain run_shard_load uses: three hops across the bounding box
        drain = 3.0 * float(np.linalg.norm(state.coords.max(axis=0) - state.coords.min(axis=0)))
        totals = dict.fromkeys(
            ("requests", "completed", "hops_intra", "hops_cross", "events",
             "windows", "exchanged", "sent", "dropped"), 0)
        began = perf_counter()
        while _keep_going(outcome, self.digest_steps, steps, began, seconds):
            outcome.steps += 1
            program = UniformTraffic(
                state, period=self.period, duration=self.period,
                seed=self.seed * 1000 + outcome.steps,
            )
            ticks = outcome.meter.ticks
            run = outcome.timed(lambda: run_sharded(
                plan, _Metered(program, outcome.meter, self.tick_ms), until=self.period + drain))
            episode = {key: sum(r[key] for r in run.results)
                       for key in ("requests", "completed", "hops_intra", "hops_cross")}
            # the lanes' tick timers are events too (the tick Outcome.timed
            # makes before the call is not); they send no messages
            episode.update(events=run.events - (outcome.meter.ticks - ticks - 1),
                           windows=run.windows, exchanged=run.exchanged)
            tallies = run.conservation
            if (tallies["sent"] + tallies["duplicated"]
                    != tallies["delivered"] + tallies["dropped"] + tallies["pending"]):
                outcome.problems.append(f"message conservation violated: {tallies}")
            if episode["completed"] != episode["requests"]:
                outcome.problems.append(
                    f"shard completed {episode['completed']} of {episode['requests']} requests")
            if outcome.steps == 1:
                outcome.digest = digest([json.dumps([episode, tallies], sort_keys=True).encode()])
            episode.update(sent=tallies["sent"], dropped=tallies["dropped"])
            for key in totals:
                totals[key] += episode[key]
        outcome.finish()

        outcome.ops = totals["completed"]
        outcome.attempted = totals["requests"]
        outcome.failed = totals["requests"] - totals["completed"]
        outcome.views["sim_requests_per_s"] = totals["completed"] / outcome.wall
        if telemetry:
            hops = totals["hops_intra"] + totals["hops_cross"]
            outcome.layers.update({
                "netsim.events": totals["events"],
                "netsim.events_per_s": totals["events"] / outcome.wall,
                "netsim.busy_s": outcome.wall,
                "netsim.messages_sent": totals["sent"],
                "netsim.messages_dropped": totals["dropped"],
                "netsim.shard.windows": totals["windows"],
                "netsim.shard.exchanged": totals["exchanged"],
                "netsim.shard.locality": totals["hops_intra"] / hops,
            })
        return outcome


WORKLOADS = {cls.name: cls for cls in (Route, Churn, Traffic, Shard)}
