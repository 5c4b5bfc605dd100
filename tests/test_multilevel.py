"""Tests for the three-level hierarchy: ``build_levels(hfc, 3)`` routed by
:class:`RecursiveRouter`."""

import numpy as np
import pytest

from repro.hierarchy import RecursiveRouter, build_levels
from repro.routing import HierarchicalRouter, validate_path
from repro.state import coordinates_node_states
from repro.util.errors import TopologyError


@pytest.fixture(scope="module")
def hierarchy(framework):
    return build_levels(framework.hfc, 3)


class TestConstruction:
    def test_every_cluster_assigned(self, framework, hierarchy):
        level = hierarchy.levels[0]
        count = framework.clustering.cluster_count
        assert len(level.parent) == count
        assert set(level.parent.tolist()) == set(range(hierarchy.top_count))
        covered = sorted(
            cid for g in range(hierarchy.top_count) for cid in level.members_of(g)
        )
        assert covered == list(range(count))

    def test_super_of_proxy_consistent(self, framework, hierarchy):
        for proxy in framework.overlay.proxies:
            gid = hierarchy.group_of(proxy)
            assert proxy in hierarchy.top_members(gid)

    def test_super_borders_inside_their_super(self, hierarchy):
        for i in range(hierarchy.top_count):
            for j in range(hierarchy.top_count):
                if i != j:
                    assert hierarchy.group_of(hierarchy.top_border(i, j)) == i

    def test_super_border_self_rejected(self, hierarchy):
        with pytest.raises(TopologyError):
            hierarchy.top_border(0, 0)

    def test_mst_method_also_valid(self, framework):
        h = build_levels(framework.hfc, 3, method="mst")
        assert h.top_count >= 1

    def test_bad_method_rejected(self, framework):
        with pytest.raises(TopologyError):
            build_levels(framework.hfc, 3, method="psychic")

    def test_explicit_super_count(self, framework):
        h = build_levels(framework.hfc, 3, group_counts=[2])
        assert h.top_count <= 2

    def test_sub_hfc_structure(self, hierarchy):
        for gid in range(hierarchy.top_count):
            sub = hierarchy.sub_hierarchy(gid).hfc
            assert sub.cluster_count == len(hierarchy.levels[0].members_of(gid))
            assert sorted(
                p for c in sub.clustering.clusters for p in c
            ) == hierarchy.top_members(gid)

    def test_sub_hfc_cached(self, hierarchy):
        assert hierarchy.sub_hierarchy(0) is hierarchy.sub_hierarchy(0)


class TestStateAccounting:
    def test_every_proxy_counted(self, framework, hierarchy):
        coords = hierarchy.coordinates_node_states()
        service = hierarchy.service_node_states()
        assert set(coords) == set(framework.overlay.proxies)
        assert set(service) == set(framework.overlay.proxies)

    def test_three_level_coordinate_state_not_larger(self, framework, hierarchy):
        """Replacing global borders with local borders + top borders can
        only shrink (or tie) the coordinate footprint on average."""
        two = np.mean(list(coordinates_node_states(framework.hfc).values()))
        three = np.mean(list(hierarchy.coordinates_node_states().values()))
        assert three <= two + 1e-9

    def test_service_state_formula(self, framework, hierarchy):
        level = hierarchy.levels[0]
        states = hierarchy.service_node_states()
        for proxy, value in states.items():
            cid = framework.hfc.cluster_of(proxy)
            gid = int(level.parent[cid])
            expected = (
                len(framework.hfc.members(cid))
                + len(level.members_of(gid))
                + hierarchy.top_count
            )
            assert value == expected


class TestThreeLevelRouting:
    def test_paths_validate(self, framework, hierarchy):
        router = RecursiveRouter(hierarchy)
        for seed in range(15):
            request = framework.random_request(seed=seed)
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_capabilities_are_super_aggregates(self, hierarchy):
        router = RecursiveRouter(hierarchy)
        for gid in range(hierarchy.top_count):
            assert router.cluster_capabilities[gid] == hierarchy.top_capability(gid)

    def test_cross_super_hops_use_super_borders(self, framework, hierarchy):
        """A direct hop between top groups must be a top-border link."""
        router = RecursiveRouter(hierarchy)
        if hierarchy.top_count < 2:
            pytest.skip("single top group")
        checked = 0
        for seed in range(20):
            request = framework.random_request(seed=seed)
            path = router.route(request)
            proxies = path.proxies()
            for u, v in zip(proxies, proxies[1:]):
                gu, gv = hierarchy.group_of(u), hierarchy.group_of(v)
                if gu != gv:
                    assert u == hierarchy.top_border(gu, gv)
                    assert v == hierarchy.top_border(gv, gu)
                    checked += 1
        assert checked > 0

    def test_path_quality_within_factor_of_two_level(self, framework, hierarchy):
        """The third level trades path quality for state; the loss must stay
        bounded (coarser info, same connectivity)."""
        two = HierarchicalRouter(framework.hfc)
        three = RecursiveRouter(hierarchy)
        overlay = framework.overlay
        t2 = t3 = 0.0
        for seed in range(20):
            request = framework.random_request(seed=seed)
            t2 += two.route(request).true_delay(overlay)
            t3 += three.route(request).true_delay(overlay)
        assert t3 <= t2 * 2.0

    def test_single_super_degenerates_to_two_level(self, framework):
        h = build_levels(framework.hfc, 3, group_counts=[1])
        assert h.top_count == 1
        router = RecursiveRouter(h)
        request = framework.random_request(seed=3)
        path = router.route(request)
        validate_path(path, request, framework.overlay)


class TestComposition:
    def test_multicast_over_three_levels(self, framework, hierarchy):
        """RecursiveRouter is a HierarchicalRouter, so the multicast tree
        builder composes with it unchanged."""
        import random

        from repro.multicast import MulticastRequest, build_service_tree
        from repro.services import ServiceRequest, linear_graph

        router = RecursiveRouter(hierarchy)
        rng = random.Random(5)
        picked = rng.sample(framework.overlay.proxies, 5)
        names = [rng.choice(list(framework.catalog.names)) for _ in range(3)]
        request = MulticastRequest(picked[0], linear_graph(names), tuple(picked[1:]))
        tree = build_service_tree(router, request)
        for destination in request.destinations:
            unicast = ServiceRequest(
                request.source_proxy, request.service_graph, destination
            )
            validate_path(tree.path_to(destination), unicast, framework.overlay)

    def test_caching_over_three_levels(self, framework, hierarchy):
        """The CSP cache layer stacks on the recursive router too."""
        from repro.routing.cache import CachedHierarchicalRouter

        class CachedThreeLevel(CachedHierarchicalRouter, RecursiveRouter):
            pass

        router = CachedThreeLevel(hierarchy)
        request = framework.random_request(seed=9)
        a = router.route(request)
        b = router.route(request)
        assert a.hops == b.hops
        assert router.stats.hits == 1
