"""Batched query engine: equivalence, plumbing, and provider-memo tests.

``route_many`` must be observationally indistinguishable from a per-request
``route()`` loop — same paths bit-for-bit, same error types and messages
for infeasible requests, same cache statistics — for every CSP method,
checked against the scalar reference relaxation kept in ``tests/oracles``.
The property tests drive fully synthetic overlays (arbitrary coordinates, placements,
clusterings) through both code paths; the framework tests cover the
production wiring (cached router, flat routers, telemetry counters,
``resolve_requests``).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.experiments import resolve_requests
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.topology import waxman
from repro.overlay.hfc import build_hfc
from repro.overlay.network import OverlayNetwork
from repro.routing import BatchRouteResult, HierarchicalRouter
from repro.routing.cache import CachedHierarchicalRouter
from repro.routing.providers import CoordinateProvider, TrueDelayProvider
from repro.services import ServiceRequest, linear_graph
from repro.services.graph import branching_graph
from repro.telemetry import Telemetry
from repro.util.errors import NoFeasiblePathError
from tests.oracles import ReferenceCSPRouter

#: one shared physical substrate; synthetic overlays draw proxies from it
_PHYSICAL = PhysicalNetwork(waxman(40, seed=1234), noise=0.0, seed=99)

METHODS = ("backtrack", "exact", "external")


@st.composite
def batch_case(draw):
    """A synthetic overlay plus a small batch of requests.

    The batch mixes linear and branching service graphs and (sometimes)
    requests naming a service no proxy offers — the infeasible outcome
    must round-trip through the batch engine unchanged.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=4, max_value=14))
    proxies = _PHYSICAL.graph.nodes()[:n]

    coords = {
        p: (
            draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
            draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
        )
        for p in proxies
    }
    space = CoordinateSpace(coords)

    catalog = [f"s{i}" for i in range(draw(st.integers(2, 6)))]
    placement = {
        p: frozenset(rng.sample(catalog, rng.randint(1, len(catalog))))
        for p in proxies
    }
    overlay = OverlayNetwork(
        physical=_PHYSICAL, proxies=list(proxies), placement=placement, space=space
    )

    cluster_count = draw(st.integers(1, min(4, n)))
    labels = {}
    for i, p in enumerate(proxies):
        labels[p] = i if i < cluster_count else rng.randrange(cluster_count)
    clusters = [[] for _ in range(cluster_count)]
    for p in proxies:
        clusters[labels[p]].append(p)
    clustering = Clustering(clusters=[sorted(c) for c in clusters], labels=labels)
    hfc = build_hfc(overlay, clustering)

    requests = []
    for _ in range(draw(st.integers(1, 5))):
        length = rng.randint(1, 4)
        names = [rng.choice(catalog) for _ in range(length)]
        if rng.random() < 0.2:
            # a service nobody offers: the request must come back infeasible
            names[rng.randrange(length)] = "nowhere"
        if rng.random() < 0.25 and length >= 3:
            sg = branching_graph(chains=[[names[0]], [names[1]]], tail=names[2:])
        else:
            sg = linear_graph(names)
        src, dst = rng.sample(list(proxies), 2)
        requests.append(ServiceRequest(src, sg, dst))
    return hfc, requests


def _scalar_outcomes(router, requests):
    """(paths, errors) of a per-request route() loop."""
    paths, errors = [], []
    for request in requests:
        try:
            paths.append(router.route(request))
            errors.append(None)
        except NoFeasiblePathError as exc:
            paths.append(None)
            errors.append(exc)
    return paths, errors


def _assert_same_outcomes(result, expected_paths, expected_errors):
    assert list(result.paths) == list(expected_paths)
    assert len(result.errors) == len(expected_errors)
    for got, want in zip(result.errors, expected_errors):
        assert (got is None) == (want is None)
        if got is not None:
            assert type(got) is type(want)
            assert str(got) == str(want)


# -- property: batch == scalar on arbitrary structures -------------------------


@settings(max_examples=30, deadline=None)
@given(batch_case())
def test_route_many_matches_scalar_loop(case):
    """Property: route_many == a scalar reference-relaxation loop, per method."""
    hfc, requests = case
    for method in METHODS:
        scalar = ReferenceCSPRouter(hfc, method=method)
        batch = HierarchicalRouter(hfc, method=method)
        expected_paths, expected_errors = _scalar_outcomes(scalar, requests)
        result = batch.route_many_detailed(requests)
        _assert_same_outcomes(result, expected_paths, expected_errors)
        assert result.ok_count == sum(1 for p in expected_paths if p is not None)
        assert result.infeasible_count == sum(
            1 for e in expected_errors if e is not None
        )


@settings(max_examples=30, deadline=None)
@given(batch_case())
def test_vectorized_csp_matches_reference(case):
    """Property: the vectorized CSP equals the scalar reference relaxation."""
    hfc, requests = case
    for method in ("backtrack", "external"):
        vectorized = HierarchicalRouter(hfc, method=method)
        reference = ReferenceCSPRouter(hfc, method=method)
        for request in requests:
            try:
                expected = reference.cluster_level_path(request)
            except NoFeasiblePathError as exc:
                with pytest.raises(NoFeasiblePathError) as caught:
                    vectorized.cluster_level_path(request)
                assert str(caught.value) == str(exc)
                continue
            assert vectorized.cluster_level_path(request) == expected


# -- framework wiring ----------------------------------------------------------


def _workload(framework, count=25, infeasible=False):
    requests = [framework.random_request(seed=seed) for seed in range(count)]
    if infeasible:
        src, dst = framework.overlay.proxies[:2]
        requests.insert(
            3, ServiceRequest(src, linear_graph(["no-such-service"]), dst)
        )
    return requests


def test_route_many_matches_route_on_framework(framework):
    requests = _workload(framework)
    router = framework.hierarchical_router()
    expected = [framework.hierarchical_router().route(r) for r in requests]
    assert router.route_many(requests) == expected


def test_route_many_empty_batch(framework):
    router = framework.hierarchical_router()
    assert router.route_many([]) == []
    detailed = router.route_many_detailed([])
    assert len(detailed) == 0
    assert detailed.ok_count == detailed.infeasible_count == 0


def test_route_many_raises_like_route(framework):
    requests = _workload(framework, count=8, infeasible=True)
    router = framework.hierarchical_router()
    with pytest.raises(NoFeasiblePathError) as scalar_err:
        for request in requests:
            router.route(request)
    with pytest.raises(NoFeasiblePathError) as batch_err:
        router.route_many(requests)
    assert str(batch_err.value) == str(scalar_err.value)

    detailed = router.route_many_detailed(requests)
    assert detailed.infeasible_count == 1
    assert detailed.paths[3] is None  # the inserted infeasible request
    assert detailed.ok_count == len(requests) - 1
    with pytest.raises(NoFeasiblePathError):
        detailed.raise_first()


def test_cached_router_batch_reuse(framework):
    requests = _workload(framework)
    plain = framework.hierarchical_router()
    cached = framework.cached_hierarchical_router()
    first = cached.route_many(requests)
    assert first == plain.route_many(requests)
    misses = cached.stats.misses
    hits_before = cached.stats.hits
    # the second pass replays every CSP from the cache
    assert cached.route_many(requests) == first
    assert cached.stats.misses == misses
    assert cached.stats.hits > hits_before


def test_flat_route_many_matches_loop(framework):
    for router in (framework.flat_router(), framework.full_state_router()):
        requests = _workload(framework, count=15)
        expected_paths, expected_errors = _scalar_outcomes(router, requests)
        result = router.route_many_detailed(requests)
        _assert_same_outcomes(result, expected_paths, expected_errors)


def test_resolve_requests_dispatch(framework):
    requests = _workload(framework, count=10)
    batched = resolve_requests(framework.hierarchical_router(), requests)
    assert isinstance(batched, BatchRouteResult)
    assert batched.ok_count == len(requests)

    # mesh has no route_many: resolve_requests falls back to a scalar loop
    mesh = framework.mesh_router(seed=3)
    fallback = resolve_requests(mesh, requests)
    assert isinstance(fallback, BatchRouteResult)
    expected_paths, expected_errors = _scalar_outcomes(mesh, requests)
    _assert_same_outcomes(fallback, expected_paths, expected_errors)


def test_route_many_telemetry_counters(framework):
    telemetry = Telemetry()
    requests = _workload(framework, count=6, infeasible=True)
    router = HierarchicalRouter(framework.hfc, telemetry=telemetry)
    result = router.route_many_detailed(requests)
    registry = telemetry.registry
    assert registry.counter("routing.batch.batches", router="hierarchical").value == 1
    assert registry.counter(
        "routing.batch.requests", router="hierarchical"
    ).value == len(requests)
    assert registry.counter(
        "routing.requests", router="hierarchical", outcome="ok"
    ).value == result.ok_count
    assert registry.counter(
        "routing.requests", router="hierarchical", outcome="infeasible"
    ).value == result.infeasible_count == 1


# -- provider block memoization ------------------------------------------------


def test_coordinate_provider_memoizes_blocks(framework):
    provider = CoordinateProvider(framework.hfc.space)
    us = framework.overlay.proxies[:5]
    vs = framework.overlay.proxies[5:9]
    first = provider.block(us, vs)
    assert provider.block(us, vs) is first  # served from the memo

    plain = CoordinateProvider(framework.hfc.space, memoize=False)
    again = plain.block(us, vs)
    assert again is not plain.block(us, vs)
    assert np.array_equal(first, again)


def test_coordinate_provider_memo_drops_on_new_space(framework):
    provider = CoordinateProvider(framework.hfc.space)
    us = framework.overlay.proxies[:4]
    first = provider.block(us, us)
    # a replaced space object no longer matches the memo token
    provider.space = CoordinateSpace(
        {p: framework.hfc.space.coordinate(p) for p in framework.overlay.proxies}
    )
    second = provider.block(us, us)
    assert second is not first
    assert np.array_equal(first, second)


def test_true_delay_provider_memoizes_blocks(framework):
    provider = TrueDelayProvider(framework.overlay)
    us = framework.overlay.proxies[:6]
    vs = framework.overlay.proxies[2:7]
    first = provider.block(us, vs)
    assert provider.block(us, vs) is first
    assert np.array_equal(
        first, TrueDelayProvider(framework.overlay, memoize=False).block(us, vs)
    )


def test_true_delay_memo_no_thrash_with_cached_matrix(framework):
    """The overlay's cached matrix is one stable token: repeated block
    queries must be memo hits, never silent rebuild-and-replace."""
    provider = TrueDelayProvider(framework.overlay)
    us = framework.overlay.proxies[:6]
    vs = framework.overlay.proxies[6:10]
    blocks = [provider.block(us, vs) for _ in range(5)]
    assert all(b is blocks[0] for b in blocks)
    assert len(provider._memo) == 1  # one key, not five rebuilt entries


def test_true_delay_memo_drops_on_rebuilt_matrix(framework):
    provider = TrueDelayProvider(framework.overlay)
    us = framework.overlay.proxies[:4]
    first = provider.block(us, us)
    # force the overlay to re-materialise its delay matrix: a new array
    # object is a new token, so the memo must drop the old blocks
    framework.overlay._true_matrix = framework.overlay.true_delay_matrix().copy()
    second = provider.block(us, us)
    assert second is not first
    assert np.array_equal(first, second)
    assert provider.block(us, us) is second  # re-anchored on the new token


def test_block_memo_alternating_tokens_never_cross_serve():
    """A token flip clears the memo outright: entries stored under token A
    must never be served under token B, nor resurrected when A returns."""
    from repro.routing.providers import _BlockMemo

    memo = _BlockMemo(capacity=8)
    token_a, token_b = object(), object()
    key = (("u",), ("v",))
    block_a = np.arange(4.0).reshape(2, 2)
    block_b = block_a * 10.0

    assert memo.lookup(token_a, key) is None
    memo.store(key, block_a)
    assert memo.lookup(token_a, key) is block_a

    assert memo.lookup(token_b, key) is None  # token flip: cleared
    memo.store(key, block_b)
    assert memo.lookup(token_b, key) is block_b

    # flipping back to A must NOT serve block_b (or a stale block_a)
    assert memo.lookup(token_a, key) is None
    assert len(memo) == 0
