"""The recursive hierarchy: exactness contracts at every depth.

Four contracts pin the level-generic abstraction to the code it replaces:

* depth 2 wraps the bi-level HFC untouched — routing matrices and query
  tables bit-identical to a fresh :func:`build_hfc` (hypothesis-driven
  across churned overlays);
* depth 3 replays ``tests/fixtures/hierarchy3_golden.json`` exactly —
  groups, borders, state accounting entry for entry, and the routed
  outcome of 40 seeded requests. The fixture was recorded from the
  original three-level prototype (``ThreeLevelRouter`` over
  ``build_multilevel``) on the 80-proxy ``framework`` fixture, so it pins
  the level-generic code to the behaviour it replaced. Re-record only
  after an intended change of hierarchy behaviour, with
  ``PYTHONPATH=src python tests/test_hierarchy_levels.py --record``;
* an incrementally churned level stack is bit-equal to a cold
  ``build_levels(..., assignments=...)`` rebuild under the same sticky
  assignment (hypothesis-driven, including the cluster-vanish cascade);
* snapshots round-trip the full stack and warm-started routers route
  identically.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HFCFramework
from repro.hierarchy import HierarchyLevels, RecursiveRouter, build_levels
from repro.membership import DynamicOverlay
from repro.overlay.hfc import build_hfc
from repro.persistence import load_snapshot, save_snapshot
from repro.routing.batch import query_tables
from repro.state.delta import (
    DeltaAssembler,
    DeltaEmitter,
    announce_aggregates,
    assemble_aggregates,
)
from repro.state.overhead import coordinates_node_states, service_node_states
from repro.util.errors import NoFeasiblePathError, TopologyError
from repro.util.rng import ensure_rng

GOLDEN = Path(__file__).parent / "fixtures" / "hierarchy3_golden.json"


def _join_pool(framework, count, seed):
    """Pre-measured join candidates: (router, services, coords) triples."""
    probe = DynamicOverlay(
        framework, restructure_tolerance=None, track_quality=False
    )
    rng = ensure_rng(seed)
    catalog = list(framework.catalog.names)
    free = [
        s
        for s in framework.physical.topology.stub_nodes
        if not probe.is_member(s)
    ]
    rng.shuffle(free)
    pool = []
    for router in free[:count]:
        services = frozenset(
            rng.sample(catalog, rng.randint(2, min(6, len(catalog))))
        )
        pool.append((router, services, probe.locate(router)))
    return pool


def _outcome(router, request):
    try:
        return router.route(request)
    except NoFeasiblePathError as err:
        return ("err", str(err))


def _encode_outcome(outcome):
    """JSON form of :func:`_outcome`: hop triples, or ``["err", message]``."""
    if isinstance(outcome, tuple):
        return list(outcome)
    return [
        [int(h.proxy), h.service, None if h.slot is None else int(h.slot)]
        for h in outcome.hops
    ]


def _encode_states(states):
    return sorted([int(p), int(v)] for p, v in states.items())


def _observe(framework, hierarchy):
    """The depth-3 facts the golden fixture pins, in its JSON form."""
    groups = range(hierarchy.top_count)
    router = RecursiveRouter(hierarchy)
    return {
        "members": [[int(p) for p in hierarchy.top_members(g)] for g in groups],
        "borders": [
            [i, j, int(hierarchy.top_border(i, j))]
            for i in groups
            for j in groups
            if i != j
        ],
        "coordinates_node_states": _encode_states(
            hierarchy.coordinates_node_states()
        ),
        "service_node_states": _encode_states(hierarchy.service_node_states()),
        "outcomes": [
            _encode_outcome(
                _outcome(router, framework.random_request(seed=300 + i))
            )
            for i in range(40)
        ],
    }


def _assert_levels_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.ptr, b.ptr)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.border_matrix, b.border_matrix)
        assert np.array_equal(a.centroids, b.centroids)


def _replay(dyn, pool, decisions):
    """Drive one decision sequence (joins/leaves/restructure) into *dyn*."""
    next_join = 0
    for step, choice in enumerate(decisions):
        join_ok = next_join < len(pool)
        if choice == 8:
            dyn.restructure()
        elif (choice < 4 and join_ok) or (dyn.size <= 3 and join_ok):
            router, services, coords = pool[next_join]
            next_join += 1
            dyn.join(router, services, coords=coords)
        elif dyn.size > 3:
            dyn.leave(dyn.proxies[(choice * 7 + step) % dyn.size])


@pytest.fixture(scope="module")
def pool(tiny_framework):
    return _join_pool(tiny_framework, count=24, seed=77)


@pytest.fixture(scope="module")
def hierarchy3(framework):
    return build_levels(framework.hfc, 3)


# -- depth 2: the bi-level identity ---------------------------------------------


class TestDepthTwo:
    def test_wraps_the_topology_untouched(self, framework):
        h = framework.build_hierarchy(levels=2)
        assert h.depth == 2 and not h.levels
        assert h.hfc is framework.hfc
        assert h.top_count == framework.hfc.cluster_count
        route, true = h.hfc.routing_matrices()
        fresh = build_hfc(
            framework.overlay, framework.clustering, framework.space
        )
        froute, ftrue = fresh.routing_matrices()
        assert np.array_equal(route, froute)
        assert np.array_equal(true, ftrue)
        router = framework.hierarchy_router(levels=2)
        assert type(router).__name__ == "HierarchicalRouter"

    @settings(max_examples=10, deadline=None)
    @given(decisions=st.lists(st.integers(0, 7), min_size=1, max_size=8))
    def test_hypothesis_churned_depth2_matches_build_hfc(
        self, tiny_framework, pool, decisions
    ):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        _replay(dyn, pool, decisions)
        h = build_levels(dyn.hfc, 2)
        fresh = build_hfc(dyn.overlay, dyn.clustering, dyn.space)
        route, true = h.hfc.routing_matrices()
        froute, ftrue = fresh.routing_matrices()
        assert np.array_equal(route, froute)
        assert np.array_equal(true, ftrue)
        tables, ftables = query_tables(h.hfc), query_tables(fresh)
        assert np.array_equal(tables.ext, ftables.ext)
        assert np.array_equal(tables.d_border, ftables.d_border)


# -- depth 3: the prototype identity, pinned by the golden fixture --------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed(framework, hierarchy3):
    return _observe(framework, hierarchy3)


class TestDepthThreeIdentity:
    def test_construction_matches_prototype(self, hierarchy3, observed, golden):
        assert observed["members"] == golden["members"]
        assert observed["borders"] == golden["borders"]
        assert hierarchy3.all_top_borders() == sorted(
            {proxy for _, _, proxy in golden["borders"]}
        )

    def test_routing_path_identical_to_three_level_router(self, observed, golden):
        assert observed["outcomes"] == golden["outcomes"]

    def test_state_accounting_matches_prototype(self, observed, golden):
        for key in ("coordinates_node_states", "service_node_states"):
            assert observed[key] == golden[key]

    def test_depth2_accounting_matches_overhead_module(self, framework):
        h = build_levels(framework.hfc, 2)
        assert h.coordinates_node_states() == coordinates_node_states(
            framework.hfc
        )
        assert h.service_node_states() == service_node_states(framework.hfc)

    def test_state_bytes_shrink_with_depth(self, framework, hierarchy3):
        h2 = build_levels(framework.hfc, 2)
        assert hierarchy3.mean_state_bytes() <= h2.mean_state_bytes()


# -- any depth: recursion invariants --------------------------------------------


class TestRecursion:
    def test_route_many_matches_scalar(self, framework):
        requests = [framework.random_request(seed=500 + i) for i in range(20)]
        for depth in (3, 4):
            router = RecursiveRouter(build_levels(framework.hfc, depth))
            result = router.route_many_detailed(requests)
            for request, path, error in zip(
                requests, result.paths, result.errors
            ):
                scalar = _outcome(router, request)
                if error is None:
                    assert path == scalar
                else:
                    assert path is None and ("err", str(error)) == scalar

    def test_expand_hop_spans_every_level(self, framework):
        h = build_levels(framework.hfc, 4)
        proxies = framework.overlay.proxies
        for u, v in [(proxies[0], proxies[-1]), (proxies[3], proxies[11])]:
            hops = h.expand_hop(u, v)
            assert hops[0] == u and hops[-1] == v
        assert h.expand_hop(proxies[2], proxies[2]) == [proxies[2]]

    def test_group_of_consistent_with_membership(self, framework):
        h = build_levels(framework.hfc, 3)
        for gid in range(h.top_count):
            for proxy in h.top_members(gid):
                assert h.group_of(proxy) == gid

    def test_aggregates_round_trip_and_union_upward(self, framework):
        h = build_levels(framework.hfc, 3)
        aggregates = h.aggregates()
        view = assemble_aggregates(
            DeltaAssembler(), announce_aggregates(DeltaEmitter(), aggregates)
        )
        assert view == aggregates
        for gid in range(h.top_count):
            assert aggregates[(2, gid)] == h.top_capability(gid)
            assert aggregates[(2, gid)] == frozenset().union(
                *(aggregates[(1, cid)] for cid in h.base_clusters_of(gid))
            )

    def test_invalid_shapes_rejected(self, framework):
        with pytest.raises(TopologyError):
            build_levels(framework.hfc, 1)
        with pytest.raises(TopologyError):
            RecursiveRouter(build_levels(framework.hfc, 2))
        h = build_levels(framework.hfc, 3)
        with pytest.raises(TopologyError):
            h.top_border(0, 0)


# -- columnar integration --------------------------------------------------------


class TestColumnarIntegration:
    def test_build_hierarchy_attaches_levels(self, tiny_framework):
        h = tiny_framework.build_hierarchy(3)
        state = tiny_framework.columnar
        assert state.levels and state.levels[-1] is h.levels[-1]
        view = h.top_view()
        assert view._query_tables_cache is state.level_query_tables(0)

    def test_level_tables_match_duck_typed_walk(self, tiny_framework):
        h = tiny_framework.build_hierarchy(3)
        preset = tiny_framework.columnar.level_query_tables(0)
        cold = build_levels(tiny_framework.hfc, 3)
        walked = query_tables(cold.top_view())
        assert np.array_equal(preset.ext, walked.ext)
        assert np.array_equal(preset.d_border, walked.d_border)

    def test_attach_levels_drops_cached_tables(self, tiny_framework):
        h = tiny_framework.build_hierarchy(3)
        state = tiny_framework.columnar
        before = state.level_query_tables(0)
        state.attach_levels(h.levels)
        assert state.level_query_tables(0) is not before


# -- churn: sticky assignment, patched spine ------------------------------------


class TestChurnedHierarchy:
    @settings(max_examples=10, deadline=None)
    @given(decisions=st.lists(st.integers(0, 8), min_size=1, max_size=10))
    def test_hypothesis_patched_equals_cold_rebuild(
        self, tiny_framework, pool, decisions
    ):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        dyn.attach_hierarchy(3)
        _replay(dyn, pool, decisions)
        h = dyn.hierarchy()
        assignments = [
            [list(level.members_of(g)) for g in range(level.count)]
            for level in h.levels
        ]
        cold = build_levels(dyn.hfc, h.depth, assignments=assignments)
        _assert_levels_equal(h.levels, cold.levels)

    def test_cluster_vanish_cascade(self, tiny_framework):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        dyn.attach_hierarchy(3)
        # drain the smallest cluster entirely -> unit removal + id shifts
        smallest = min(dyn.clustering.clusters, key=len)
        for proxy in list(smallest):
            dyn.leave(proxy)
        h = dyn.hierarchy()
        assignments = [
            [list(level.members_of(g)) for g in range(level.count)]
            for level in h.levels
        ]
        cold = build_levels(dyn.hfc, h.depth, assignments=assignments)
        _assert_levels_equal(h.levels, cold.levels)
        h.validate()

    def test_columnar_capture_carries_levels(self, tiny_framework):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        dyn.attach_hierarchy(3)
        state = dyn.columnar()
        assert len(state.levels) == 1
        _assert_levels_equal(state.levels, dyn.hierarchy().levels)


# -- persistence -----------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_level_stack_round_trips(self, tiny_framework):
        h = tiny_framework.build_hierarchy(4)
        path = tempfile.mktemp(suffix=".npz")
        try:
            save_snapshot(tiny_framework, path)
            snap = load_snapshot(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        _assert_levels_equal(
            snap.columnar.levels, tiny_framework.columnar.levels
        )
        warm = snap.framework.build_hierarchy(4)
        assert warm.depth == 4 and warm.columnar is snap.columnar
        cold_router = RecursiveRouter(h)
        warm_router = RecursiveRouter(warm)
        for i in range(10):
            request = tiny_framework.random_request(seed=700 + i)
            assert _outcome(cold_router, request) == _outcome(
                warm_router, request
            )

    def test_snapshot_without_levels_still_loads(self, tiny_framework):
        fresh = HFCFramework.build(proxy_count=30, physical=None, seed=123)
        path = tempfile.mktemp(suffix=".npz")
        try:
            save_snapshot(fresh, path)
            snap = load_snapshot(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        assert snap.columnar.levels == []
        h = snap.framework.build_hierarchy(2)
        assert isinstance(h, HierarchyLevels) and h.depth == 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_hierarchy_levels.py --record"
        )
    fw = HFCFramework.build(proxy_count=80, seed=7)
    observed = _observe(fw, build_levels(fw.hfc, 3))
    lines = [
        f" {json.dumps(key)}: [\n"
        + ",\n".join(f"  {json.dumps(item)}" for item in observed[key])
        + "\n ]"
        for key in sorted(observed)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {GOLDEN}")
