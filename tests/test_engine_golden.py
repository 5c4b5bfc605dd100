"""Golden fixture for the event engine: behaviour pinned by recorded digests.

The fixture (``tests/fixtures/engine_golden.json``) was recorded from the
engine before its hot loop was rewritten, and the rewrite must replay it
exactly. It holds:

* the digest of the ``(time, sender, recipient, kind)`` delivery sequence
  of a seeded gossip-protocol run, and of its telemetry registry, at
  ``shards=1`` and ``shards=2``;
* the same digests for a one-shard gossip run under loss, reordering
  and duplication faults;
* the ``dump_trace`` digest of a small hop-mode ``TrafficEngine`` run;
* the ``UniformTraffic`` counters, event/window/exchange counts and
  message ledger at ``shards`` in {1, 2, 4}.

Re-record after an intended change of engine behaviour with
``PYTHONPATH=src python tests/test_engine_golden.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import FrameworkConfig, HFCFramework
from repro.faults import FaultPlan, run_fault_scenario
from repro.faults.scenarios import loss_burst_plan, reorder_duplicate_plan
from repro.netsim import ShardedSimulator, ShardPlan
from repro.netsim.shard import run_sharded
from repro.state import protocol as protocol_module
from repro.state.protocol import StateDistributionProtocol
from repro.telemetry import Telemetry
from repro.traffic import Poisson, SessionConfig, TrafficConfig, TrafficEngine
from repro.traffic.shardload import UniformTraffic, synthetic_overlay

FIXTURE = Path(__file__).parent / "fixtures" / "engine_golden.json"


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@contextmanager
def _recording_deliveries(log):
    """Log every protocol delivery as (time, sender, recipient, kind)."""
    agent = protocol_module._ProxyAgent
    original = agent.receive

    def receive(self, message):
        log.append((self.simulator.now, message.sender, message.recipient, message.kind))
        original(self, message)

    agent.receive = receive
    try:
        yield
    finally:
        agent.receive = original


def gossip_digest(framework: HFCFramework, shards: int) -> dict:
    plan = ShardPlan.from_framework(framework, shards)
    sim = ShardedSimulator(plan, telemetry=Telemetry())
    log = []
    with _recording_deliveries(log):
        StateDistributionProtocol(framework.hfc, seed=11, sim=sim).run(
            6000.0, stop_on_convergence=False
        )
    return {
        "deliveries": len(log),
        "digest": _sha(repr(entry).encode() + b"\n" for entry in log),
        "registry": _sha([json.dumps(sim.telemetry.registry.snapshot(), sort_keys=True).encode()]),
        "ledger": sim.conservation(),
    }


def faulted_gossip_digest(framework: HFCFramework) -> dict:
    """A gossip run under loss, reordering and duplication, on one shard."""
    plan = FaultPlan(
        seed=41,
        specs=loss_burst_plan(framework.hfc).specs
        + reorder_duplicate_plan(framework.hfc).specs,
    )
    sim = ShardedSimulator(ShardPlan.from_framework(framework, 1), telemetry=Telemetry())
    log = []
    with _recording_deliveries(log):
        result = run_fault_scenario(framework, plan, sim=sim)
    return {
        "deliveries": len(log),
        "digest": _sha(repr(entry).encode() + b"\n" for entry in log),
        "registry": _sha([json.dumps(sim.telemetry.registry.snapshot(), sort_keys=True).encode()]),
        "ledger": sim.conservation(),
        "passed": result.passed,
    }


def traffic_trace_digest(tmp: Path) -> dict:
    framework = HFCFramework.build(
        proxy_count=30, config=FrameworkConfig(physical_nodes=150), seed=9
    )
    config = TrafficConfig(
        arrival=Poisson(rate=0.008),
        duration=3_000.0,
        warmup=600.0,
        session=SessionConfig(mean_lifetime=1_000.0, mean_gap=300.0),
        delivery="hop",
    )
    engine = TrafficEngine(framework, config, seed=1)
    engine.run()
    path = tmp / "golden.trace.jsonl"
    entries = engine.dump_trace(str(path))
    return {
        "entries": entries,
        "digest": _sha([path.read_bytes()]),
        "ledger": engine.sim.conservation(),
    }


def uniform_traffic(shards: int) -> dict:
    state = synthetic_overlay(600, 8, seed=4)
    plan = ShardPlan.from_state(state, shards)
    program = UniformTraffic(state, period=300.0, duration=900.0, seed=5)
    run = run_sharded(plan, program, until=900.0 + 3_000.0)
    return {
        "results": run.results,
        "events": run.events,
        "windows": run.windows,
        "exchanged": run.exchanged,
        "ledger": run.conservation,
    }


def observe(tmp: Path) -> dict:
    gossip = HFCFramework.build(proxy_count=40, seed=5)
    return {
        "gossip": {str(s): gossip_digest(gossip, s) for s in (1, 2)},
        "faulted": faulted_gossip_digest(gossip),
        "traffic": traffic_trace_digest(tmp),
        "uniform": {str(s): uniform_traffic(s) for s in (1, 2, 4)},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def gossip_framework():
    return HFCFramework.build(proxy_count=40, seed=5)


@pytest.mark.parametrize("shards", [1, 2])
def test_gossip_delivery_sequence_replays(golden, gossip_framework, shards):
    assert gossip_digest(gossip_framework, shards) == golden["gossip"][str(shards)]


def test_faulted_gossip_replays(golden, gossip_framework):
    assert faulted_gossip_digest(gossip_framework) == golden["faulted"]


def test_traffic_hop_trace_replays(golden, tmp_path):
    assert traffic_trace_digest(tmp_path) == golden["traffic"]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_uniform_traffic_counters_replay(golden, shards):
    assert uniform_traffic(shards) == golden["uniform"][str(shards)]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_engine_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        observed = observe(Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
