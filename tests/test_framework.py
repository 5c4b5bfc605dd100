"""Tests for the HFCFramework facade and FrameworkConfig."""

import pytest

from repro.core import FrameworkConfig, HFCFramework
from repro.routing import validate_path
from repro.util.errors import ReproError


class TestConfig:
    def test_defaults_are_paper_values(self):
        config = FrameworkConfig()
        assert config.landmark_count == 10
        assert config.dimension == 2
        assert config.min_services_per_proxy == 4
        assert config.max_services_per_proxy == 10
        assert config.mesh_weight == "coords"

    def test_landmarks_must_cover_dimension(self):
        with pytest.raises(ReproError):
            FrameworkConfig(landmark_count=2, dimension=5)

    def test_bad_probes(self):
        with pytest.raises(ReproError):
            FrameworkConfig(probes=0)

    def test_bad_services_bounds(self):
        with pytest.raises(ReproError):
            FrameworkConfig(min_services_per_proxy=9, max_services_per_proxy=3)
        for instances in (0, -1.0):
            with pytest.raises(ReproError):
                FrameworkConfig(instances_per_service=instances)

    def test_bad_mesh_weight(self):
        with pytest.raises(ReproError):
            FrameworkConfig(mesh_weight="psychic")

    def test_physical_size_ratio(self):
        config = FrameworkConfig()
        assert config.physical_size_for(1000) == 1200
        assert config.physical_size_for(250) == 300

    def test_physical_size_explicit_override(self):
        config = FrameworkConfig(physical_nodes=500)
        assert config.physical_size_for(10) == 500

    def test_physical_size_floor_for_tiny_overlays(self):
        config = FrameworkConfig()
        # must remain generatable: >= transit + 2 per stub domain
        assert config.physical_size_for(10) >= 84


class TestBuild:
    def test_build_pipeline_complete(self, framework):
        assert framework.overlay.size == 80
        assert framework.space.dimension == 2
        assert framework.clustering.cluster_count >= 1
        assert framework.hfc.cluster_count == framework.clustering.cluster_count
        assert len(framework.catalog) > 0

    def test_every_proxy_clustered_and_placed(self, framework):
        for proxy in framework.overlay.proxies:
            framework.clustering.cluster_of(proxy)
            assert len(framework.overlay.placement[proxy]) >= 4

    def test_describe_mentions_key_facts(self, framework):
        text = framework.describe()
        assert "80 proxies" in text
        assert "clusters" in text

    def test_too_small_rejected(self):
        with pytest.raises(ReproError):
            HFCFramework.build(proxy_count=1)

    def test_deterministic_for_seed(self):
        a = HFCFramework.build(
            proxy_count=40, config=FrameworkConfig(physical_nodes=150), seed=3
        )
        b = HFCFramework.build(
            proxy_count=40, config=FrameworkConfig(physical_nodes=150), seed=3
        )
        assert a.overlay.proxies == b.overlay.proxies
        assert a.clustering.labels == b.clustering.labels
        assert a.hfc.borders == b.hfc.borders

    def test_seeds_differ(self):
        a = HFCFramework.build(
            proxy_count=40, config=FrameworkConfig(physical_nodes=150), seed=3
        )
        b = HFCFramework.build(
            proxy_count=40, config=FrameworkConfig(physical_nodes=150), seed=4
        )
        assert a.overlay.proxies != b.overlay.proxies


class TestRouters:
    def test_all_routers_route_the_same_request(self, tiny_framework):
        request = tiny_framework.random_request(seed=5)
        overlay = tiny_framework.overlay
        routers = [
            tiny_framework.hierarchical_router(),
            tiny_framework.mesh_router(seed=1),
            tiny_framework.full_state_router(),
            tiny_framework.flat_router(),
            tiny_framework.oracle_router(),
        ]
        for router in routers:
            validate_path(router.route(request), request, overlay)

    def test_oracle_is_lower_bound(self, tiny_framework):
        """No strategy may beat true-delay optimal routing on average."""
        overlay = tiny_framework.overlay
        oracle = tiny_framework.oracle_router()
        others = [
            tiny_framework.hierarchical_router(),
            tiny_framework.mesh_router(seed=1),
            tiny_framework.full_state_router(),
        ]
        requests = [tiny_framework.random_request(seed=s) for s in range(25)]
        oracle_total = sum(
            oracle.route(r).true_delay(overlay) for r in requests
        )
        for router in others:
            total = sum(router.route(r).true_delay(overlay) for r in requests)
            assert total >= oracle_total - 1e-6


class TestRequestsAndState:
    def test_random_request_length_bounds(self, tiny_framework):
        for s in range(20):
            request = tiny_framework.random_request(
                min_length=2, max_length=5, seed=s
            )
            assert 2 <= request.length <= 5

    def test_random_request_distinct_endpoints(self, tiny_framework):
        for s in range(20):
            request = tiny_framework.random_request(seed=s)
            assert request.source_proxy != request.destination_proxy

    def test_overhead_shapes(self, framework):
        coords = framework.coordinates_overhead()
        service = framework.service_overhead()
        assert coords["flat"] == framework.overlay.size
        assert coords["hierarchical"] < coords["flat"]
        assert service["hierarchical"] < service["flat"]

    def test_run_state_protocol(self, tiny_framework):
        report = tiny_framework.run_state_protocol(seed=2)
        assert report.converged_at is not None
