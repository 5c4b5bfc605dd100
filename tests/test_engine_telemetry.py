"""The event engine's deferred delivery telemetry is exact.

The run loop keeps per-kind sent/duplicated counts, delivered bytes and
latency samples in plain containers and folds them into the registry
when it returns. These tests record every send decision and delivery
themselves, one event at a time, and check that the registry holds
exactly that after ``run_until``, ``run_all`` and ``run_sharded`` --
under fault-injected drops and duplicates, after a handler raises in the
middle of a window, and when a handler reads ``messages_delivered``.
"""

from __future__ import annotations

import random

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import Duplicate, LinkLoss
from repro.netsim import Message, Process, ShardedSimulator, ShardPlan, Simulator
from repro.netsim.eventsim import DELIVERY_LATENCY_BUCKETS
from repro.netsim.shard import ShardProgram, run_sharded
from repro.telemetry import Telemetry
from repro.telemetry.metrics import Histogram
from repro.traffic.shardload import synthetic_overlay

KINDS = ("ping", "bulk")


class Ledger:
    """Per-event reference recording of what the engine should report."""

    def __init__(self) -> None:
        self.sent = {}
        self.duplicated = {}
        self.dropped = {}
        self.delivered = {}
        self.bytes = {}
        self.latency = {}

    def watch(self, sim) -> None:
        """Wrap the simulator's interceptor to log every send decision."""
        inner = sim.interceptor

        def intercept(message, delay):
            decided = inner(message, delay) if inner is not None else None
            kind = message.kind
            self.sent[kind] = self.sent.get(kind, 0) + 1
            copies = 1 if decided is None else len(decided)
            if copies == 0:
                key = (kind, "intercepted")
                self.dropped[key] = self.dropped.get(key, 0) + 1
            elif copies > 1:
                self.duplicated[kind] = self.duplicated.get(kind, 0) + copies - 1
            return decided

        sim.interceptor = intercept

    def delivery(self, message, now) -> None:
        kind = message.kind
        self.delivered[kind] = self.delivered.get(kind, 0) + 1
        self.bytes[kind] = self.bytes.get(kind, 0) + message.size
        self.latency.setdefault(kind, []).append(now - message.payload)

    def assert_matches(self, registry) -> None:
        def counter(name, **labels):
            metric = registry.get(name, **labels)
            return None if metric is None else metric.value

        for kind, sent in self.sent.items():
            assert counter("sim.messages.sent", kind=kind) == sent
            assert counter("sim.messages.duplicated", kind=kind) == self.duplicated.get(kind, 0)
        for (kind, cause), dropped in self.dropped.items():
            assert counter("sim.messages.dropped", kind=kind, cause=cause) == dropped
        for kind, delivered in self.delivered.items():
            assert counter("sim.messages.delivered", kind=kind) == delivered
            assert counter("sim.bytes.delivered", kind=kind) == self.bytes[kind]
            reference = Histogram("reference", (), DELIVERY_LATENCY_BUCKETS)
            for sample in self.latency[kind]:
                reference.observe(sample)
            hist = registry.get("sim.delivery.latency", kind=kind)
            assert (hist.count, hist.total, hist.min, hist.max, hist.bucket_counts) == (
                reference.count, reference.total, reference.min, reference.max,
                reference.bucket_counts,
            )
        assert registry.total("sim.messages.sent") == sum(self.sent.values())
        assert registry.total("sim.messages.delivered") == sum(self.delivered.values())


class Peer(Process):
    """Sends a seeded stream of pings; the payload is the send instant."""

    def __init__(self, address, peers, ledger, *, seed, period=3.0, delay=None):
        # period=None: no timer, the test calls fire() itself
        super().__init__(address)
        self.peers = peers
        self.ledger = ledger
        self.rng = random.Random(seed)
        self.period = period
        self.delay = delay
        self.raise_on = None

    def start(self):
        if self.period is not None:
            self.simulator.schedule_every(self.period, self.fire, owner=self.address)

    def fire(self):
        sim = self.simulator
        target = self.rng.choice(self.peers)
        kind = self.rng.choice(KINDS)
        delay = self.delay(self.address, target) if self.delay else self.rng.uniform(0.5, 40.0)
        sim.send(Message(self.address, target, kind, sim.now, self.rng.randint(1, 9)), delay)

    def receive(self, message):
        self.ledger.delivery(message, self.simulator.now)
        if self.raise_on is not None and self.raise_on(message):
            raise RuntimeError("handler failure")


def _faulted_sim(ledger, *, sharded=None, period=3.0, start=50.0):
    if sharded is None:
        sim = Simulator(telemetry=Telemetry())
        names = [f"p{i}" for i in range(8)]
    else:
        sim = ShardedSimulator(sharded, telemetry=Telemetry())
        names = [proxy for view in sharded.views for proxy in view.proxy_ids()[:8]]
    for i, name in enumerate(names):
        # "ghost" is never registered: its deliveries are counted drops
        sim.register(Peer(name, names + ["ghost"], ledger, seed=i, period=period))
    plan = FaultPlan(
        seed=3,
        specs=(
            LinkLoss(start=start, end=start + 350.0, loss_rate=0.3),
            Duplicate(start=start, end=start + 450.0, probability=0.4, max_offset=20.0),
        ),
    )
    FaultInjector(plan).install(sim)
    ledger.watch(sim)
    return sim


def _unregistered_drops(sim):
    return sum(
        metric.value
        for metric in sim.telemetry.registry.collect("sim.messages.dropped")
        if dict(metric.labels)["cause"] == "unregistered"
    )


class TestSimulator:
    def test_run_until_with_faults(self):
        ledger = Ledger()
        sim = _faulted_sim(ledger)
        for horizon in (10.0, 75.0, 250.0, 600.0):
            sim.run_until(horizon)
            ledger.assert_matches(sim.telemetry.registry)
        assert ledger.dropped and ledger.duplicated
        assert _unregistered_drops(sim) > 0
        ledger_total = sum(ledger.sent.values()) + sum(ledger.duplicated.values())
        tallies = sim.conservation()
        assert tallies["sent"] + tallies["duplicated"] == ledger_total
        assert tallies["delivered"] == sim.messages_delivered
        assert sim.bytes_delivered == sum(ledger.bytes.values())

    def test_run_all_with_faults(self):
        ledger = Ledger()
        sim = _faulted_sim(ledger, period=None, start=0.0)
        sim.run_until(0.0)
        for name in ("p0", "p1", "p2", "p3"):
            for _ in range(50):
                sim.process(name).fire()
        sim.run_all()
        ledger.assert_matches(sim.telemetry.registry)
        assert ledger.dropped and ledger.duplicated
        assert sim.messages_delivered == sum(ledger.delivered.values())
        assert sim.messages_pending == 0

    def test_handler_raising_mid_window_still_folds(self):
        ledger = Ledger()
        sim = _faulted_sim(ledger)
        sim.run_until(120.0)
        victim = sim.process("p3")
        victim.raise_on = lambda message: True
        with pytest.raises(RuntimeError):
            sim.run_until(600.0)
        # everything up to and including the failing delivery is recorded
        ledger.assert_matches(sim.telemetry.registry)

    def test_messages_delivered_inside_a_handler(self):
        sim = Simulator(telemetry=Telemetry())
        seen = []

        class Reader(Process):
            def receive(self, message):
                seen.append(self.simulator.messages_delivered)

        sim.register(Reader("r"))
        for i in range(5):
            sim.send(Message("x", "r", "k", None), delay=float(i + 1))
        sim.run_all()
        assert seen == [1, 2, 3, 4, 5]


class TestSharded:
    @pytest.fixture(scope="class")
    def state(self):
        return synthetic_overlay(120, 4, seed=2)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_sharded_run_until_with_faults(self, state, shards):
        plan = ShardPlan.from_state(state, shards, lookahead=0.25)
        ledger = Ledger()
        sim = _faulted_sim(ledger, sharded=plan)
        sim.run_until(600.0)
        ledger.assert_matches(sim.telemetry.registry)
        assert sim.conservation()["balanced"]
        assert shards == 1 or sim.exchanged > 0

    def test_messages_delivered_inside_a_sharded_handler(self, state):
        plan = ShardPlan.from_state(state, 2)
        sim = ShardedSimulator(plan, telemetry=Telemetry())
        a = int(plan.views[0].proxy_ids()[0])
        b = int(plan.views[1].proxy_ids()[0])
        seen = []

        class Reader(Process):
            def receive(self, message):
                seen.append(sim.messages_delivered)

        sim.register(Reader(a))
        sim.register(Reader(b))
        far = 10 * plan.lookahead
        for i in range(3):
            sim.send(Message(a, b, "k", None), delay=far + i)
            sim.send(Message(b, a, "k", None), delay=far + i + 0.5)
        sim.run_until(far + 10.0)
        assert seen == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_run_sharded(self, state, shards):
        ledger = Ledger()
        coords = state.coords

        def delay(src, dst):
            return float(((coords[src] - coords[dst]) ** 2).sum() ** 0.5)

        class Pings(ShardProgram):
            def setup(self, sim, view, plan):
                ledger.watch(sim)
                peers = [int(p) for p in state.proxies]
                for proxy in view.proxy_ids():
                    sim.register(Peer(proxy, peers, ledger, seed=proxy, period=40.0,
                                      delay=delay))

        plan = ShardPlan.from_state(state, shards)
        result = run_sharded(plan, Pings(), until=400.0)
        ledger.assert_matches(result.telemetry.registry)
        assert result.conservation["delivered"] == sum(ledger.delivered.values())
