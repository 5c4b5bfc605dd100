"""Tests for framework persistence (JSON and binary snapshot round trips)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership import DynamicOverlay
from repro.persistence import (
    FORMAT_VERSION,
    SNAPSHOT_FORMAT_VERSION,
    framework_from_dict,
    framework_to_dict,
    load_framework,
    load_snapshot,
    save_framework,
    save_snapshot,
)
from repro.routing import HierarchicalRouter, validate_path
from repro.routing.batch import query_tables
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import ReproError
from repro.util.rng import ensure_rng


@pytest.fixture(scope="module")
def restored(tiny_framework, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "framework.json"
    save_framework(tiny_framework, str(path))
    return load_framework(str(path))


class TestRoundTrip:
    def test_structure_preserved(self, tiny_framework, restored):
        assert restored.overlay.proxies == tiny_framework.overlay.proxies
        assert restored.overlay.placement == tiny_framework.overlay.placement
        assert restored.clustering.labels == tiny_framework.clustering.labels
        assert restored.hfc.borders == tiny_framework.hfc.borders
        assert list(restored.catalog.names) == list(tiny_framework.catalog.names)

    def test_physical_graph_preserved(self, tiny_framework, restored):
        a = tiny_framework.physical.graph
        b = restored.physical.graph
        assert a.node_count == b.node_count
        assert sorted(a.edges()) == sorted(b.edges())

    def test_coordinates_preserved(self, tiny_framework, restored):
        for proxy in tiny_framework.overlay.proxies:
            assert restored.space.coordinate(proxy) == pytest.approx(
                tiny_framework.space.coordinate(proxy)
            )

    def test_embedding_report_preserved(self, tiny_framework, restored):
        assert (
            restored.embedding_report.landmark_ids
            == tiny_framework.embedding_report.landmark_ids
        )
        assert restored.embedding_report.measurement_count == (
            tiny_framework.embedding_report.measurement_count
        )

    def test_routing_identical(self, tiny_framework, restored):
        """Same overlay, same coordinates, same borders -> same paths."""
        original = HierarchicalRouter(tiny_framework.hfc)
        loaded = HierarchicalRouter(restored.hfc)
        for seed in range(8):
            request = tiny_framework.random_request(seed=seed)
            a = original.route(request)
            b = loaded.route(request)
            assert a.hops == b.hops
            validate_path(b, request, restored.overlay)

    def test_describe_matches(self, tiny_framework, restored):
        assert restored.describe() == tiny_framework.describe()

    def test_config_preserved(self, tiny_framework, restored):
        assert restored.config == tiny_framework.config


class TestFormatGuard:
    def test_wrong_version_rejected(self, tiny_framework):
        payload = framework_to_dict(tiny_framework)
        payload["format_version"] = 999
        with pytest.raises(ReproError):
            framework_from_dict(payload)

    def test_version_constant_written(self, tiny_framework):
        payload = framework_to_dict(tiny_framework)
        assert payload["format_version"] == FORMAT_VERSION

    def test_retired_config_fields_ignored(self, tiny_framework):
        """Artifacts written with since-retired config knobs still load
        (JSON and ``.npz`` loaders share the config reader)."""
        payload = framework_to_dict(tiny_framework)
        payload["config"]["base"].update(
            vectorized_construction=True, query_workers=None
        )
        assert framework_from_dict(payload).config == tiny_framework.config


# -- binary snapshots --------------------------------------------------------------


@pytest.fixture(scope="module")
def binary_snapshot(tiny_framework, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "overlay.npz"
    save_snapshot(tiny_framework, str(path))
    return load_snapshot(str(path))


class TestBinarySnapshot:
    def test_routing_matrices_bit_exact(self, tiny_framework, binary_snapshot):
        route_a, true_a = tiny_framework.hfc.routing_matrices()
        route_b, true_b = binary_snapshot.framework.hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

    def test_query_tables_bit_exact(self, tiny_framework, binary_snapshot):
        a = query_tables(tiny_framework.hfc)
        b = query_tables(binary_snapshot.framework.hfc)
        assert a.border_list == b.border_list
        assert np.array_equal(a.ext, b.ext)
        assert np.array_equal(a.d_border, b.d_border)

    def test_structure_preserved(self, tiny_framework, binary_snapshot):
        restored = binary_snapshot.framework
        assert restored.overlay.proxies == tiny_framework.overlay.proxies
        assert restored.overlay.placement == tiny_framework.overlay.placement
        assert restored.hfc.borders == tiny_framework.hfc.borders
        assert restored.describe() == tiny_framework.describe()

    def test_columnar_attached(self, binary_snapshot):
        state = binary_snapshot.framework.hfc.columnar
        assert state is binary_snapshot.columnar
        state.validate()

    def test_no_state_plane_by_default(self, binary_snapshot):
        assert binary_snapshot.state_plane is None

    def test_wrong_version_rejected(self, tiny_framework, tmp_path):
        path = tmp_path / "overlay.npz"
        save_snapshot(tiny_framework, str(path))
        with np.load(str(path), allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["meta"]))
        assert meta["format_version"] == SNAPSHOT_FORMAT_VERSION
        meta["format_version"] = 999
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ReproError):
            load_snapshot(str(path))


class TestStatePlaneRoundTrip:
    """Post-PR3 state survives a snapshot: revisions, incarnations, streams."""

    @pytest.fixture(scope="class")
    def protocol(self, tiny_framework):
        protocol = StateDistributionProtocol(
            tiny_framework.hfc, seed=11, mode="delta"
        )
        protocol.run(max_time=6000.0, stop_on_convergence=False)
        return protocol

    @pytest.fixture(scope="class")
    def plane(self, protocol):
        return protocol.snapshot_state_plane()

    def test_plane_embeds_exactly(self, tiny_framework, plane, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifacts") / "warm.npz"
        save_snapshot(tiny_framework, str(path), state_plane=plane)
        snap = load_snapshot(str(path))
        assert snap.state_plane == plane

    def test_capability_revisions_preserved(self, protocol, plane):
        for proxy, state in protocol.states.items():
            capture = plane[str(proxy)]["state"]
            assert capture["sct_p"]["revision"] == state.sct_p.revision
            assert capture["sct_c"]["revision"] == state.sct_c.revision

    def test_emitter_incarnations_captured(self, protocol, plane):
        for proxy in protocol.hfc.overlay.proxies:
            agent = protocol._agent_of[proxy]
            assert (
                plane[str(proxy)]["emitter"]["incarnation"]
                == agent.emitter.incarnation
            )

    def test_warm_restore_keeps_learned_tables(self, tiny_framework, plane):
        fresh = StateDistributionProtocol(
            tiny_framework.hfc, seed=12, mode="delta"
        )
        proxy = tiny_framework.overlay.proxies[0]
        capture = plane[str(proxy)]
        fresh.restore_state(proxy, capture)
        restored = fresh.states[proxy]
        saved_keys = {
            tuple(k["tuple"]) if isinstance(k, dict) else k
            for k, _, _ in capture["state"]["sct_c"]["entries"]
        }
        assert set(restored.sct_c._entries) == saved_keys
        # The emitter does not resume mid-stream: its incarnation advances
        # past the saved one so peers accept the post-restart streams.
        saved_incarnation = capture["emitter"]["incarnation"]
        agent = fresh._agent_of[proxy]
        assert agent.emitter.incarnation > saved_incarnation
        assert agent.emitter._seq == {}


class TestTwinOverlay:
    """Hypothesis: a churned overlay and its snapshot restore are twins."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), leaves=st.integers(1, 6))
    def test_restore_is_bit_exact(
        self, tiny_framework, tmp_path_factory, seed, leaves
    ):
        rng = ensure_rng(seed)
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        for _ in range(leaves):
            if dyn.size <= 4:
                break
            dyn.leave(rng.choice(dyn.proxies))

        path = tmp_path_factory.mktemp("twin") / f"overlay-{seed}.npz"
        save_snapshot(dyn, str(path))
        snap = load_snapshot(str(path))
        twin = DynamicOverlay.from_snapshot(
            snap, restructure_tolerance=None, track_quality=False
        )

        assert twin.version == dyn.version
        assert twin.hfc.borders == dyn.hfc.borders
        route_a, true_a = dyn.hfc.routing_matrices()
        route_b, true_b = twin.hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

        # Same topology + same seed => identical delta streams on the wire.
        report_a = StateDistributionProtocol(
            dyn.hfc, seed=21, mode="delta"
        ).run(max_time=4000.0, stop_on_convergence=False)
        report_b = StateDistributionProtocol(
            twin.hfc, seed=21, mode="delta"
        ).run(max_time=4000.0, stop_on_convergence=False)
        assert report_a.total_messages == report_b.total_messages
        assert report_a.total_size == report_b.total_size
        assert report_a.messages_by_kind == report_b.messages_by_kind
        assert report_a.converged_at == report_b.converged_at


class TestDeterministicNoise:
    """A restored network measures the same noise on every load.

    Restores used to build the `PhysicalNetwork` with an OS-seeded noise
    stream, so joins after a warm start located different coordinates on
    every run.
    """

    @staticmethod
    def _joins(snapshot, routers):
        dyn = DynamicOverlay.from_snapshot(
            snapshot, restructure_tolerance=None, track_quality=False
        )
        joined = [dyn.join(router, frozenset({"s0"})) for router in routers]
        return [dyn.space.coordinate(proxy) for proxy in joined]

    def test_two_snapshot_loads_measure_and_join_identically(
        self, tiny_framework, tmp_path
    ):
        path = tmp_path / "overlay.npz"
        save_snapshot(tiny_framework, str(path))
        first, second = load_snapshot(str(path)), load_snapshot(str(path))
        routers = [
            n for n in tiny_framework.physical.topology.graph.nodes()
            if n not in set(tiny_framework.overlay.proxies)
        ][:3]
        u, v = routers[0], tiny_framework.overlay.proxies[0]
        probes = [first.framework.physical.measure(u, v) for _ in range(5)]
        assert probes == [second.framework.physical.measure(u, v) for _ in range(5)]
        assert self._joins(first, routers) == self._joins(second, routers)

    def test_two_json_loads_measure_identically(self, tiny_framework):
        payload = framework_to_dict(tiny_framework)
        first, second = framework_from_dict(payload), framework_from_dict(payload)
        u, v = tiny_framework.overlay.proxies[:2]
        assert [first.physical.measure(u, v) for _ in range(5)] == [
            second.physical.measure(u, v) for _ in range(5)
        ]
