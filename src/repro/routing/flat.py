"""Single-level (flat) service routing — the [11] algorithm, generalised.

A :class:`FlatRouter` answers requests with global knowledge: it knows every
proxy's services and a distance between every proxy pair (through a
:class:`~repro.routing.providers.DistanceProvider`). Instantiations:

* **full-state coordinate routing** over the virtually fully-connected
  overlay (the paper's single-level comparison point for state overhead);
* **oracle routing** over true delays (a lower-bound reference);
* **mesh routing** and **HFC-without-aggregation routing** via a matrix
  provider plus a hop *expander* that inserts the relay proxies the matrix
  distances implicitly traverse (see :mod:`repro.routing.mesh`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import (
    CoordinateProvider,
    DistanceProvider,
    TrueDelayProvider,
)
from repro.routing.servicedag import solve_vectorised
from repro.services.request import ServiceRequest
from repro.telemetry import get_telemetry
from repro.util.errors import RoutingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch imports flat)
    from repro.routing.batch import BatchRouteResult

#: expands one overlay hop (u, v) into the relay proxy sequence [u, ..., v]
HopExpander = Callable[[ProxyId, ProxyId], Sequence[ProxyId]]


class FlatRouter:
    """Optimal service routing with a global view over a distance provider."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        provider: DistanceProvider,
        *,
        expander: Optional[HopExpander] = None,
        candidate_filter: Optional[Callable[[ProxyId], bool]] = None,
        name: str = "flat",
    ) -> None:
        """
        Args:
            overlay: the overlay network (placement + delays).
            provider: distance oracle routing optimises against.
            expander: optional relay expansion per chosen overlay hop; when
                None, hops are direct overlay links (fully-connected view).
            candidate_filter: optional predicate restricting which proxies
                may provide services (used for intra-cluster routing).
            name: label used in reports.
        """
        self.overlay = overlay
        self.provider = provider
        self.expander = expander
        self.candidate_filter = candidate_filter
        self.name = name

    def candidates_for(self, request: ServiceRequest) -> Dict[int, List[ProxyId]]:
        """Instance candidates per slot: every (allowed) provider of the slot's
        service."""
        result: Dict[int, List[ProxyId]] = {}
        for slot in request.service_graph.slots():
            service = request.service_graph.service_of(slot)
            providers = self.overlay.providers_of(service)
            if self.candidate_filter is not None:
                providers = [p for p in providers if self.candidate_filter(p)]
            result[slot] = providers
        return result

    def route(self, request: ServiceRequest) -> ServicePath:
        """Compute an optimal service path for *request*.

        Raises :class:`NoFeasiblePathError` when the request cannot be
        satisfied by the (possibly filtered) overlay.
        """
        return self.route_with_candidates(request, self.candidates_for(request))

    def route_with_candidates(
        self,
        request: ServiceRequest,
        candidates: Dict[int, List[ProxyId]],
    ) -> ServicePath:
        """Solve *request* against precomputed per-slot candidates.

        The batch engine computes candidate lists once per (cluster,
        service) pair and feeds them here; with the lists produced by
        :meth:`candidates_for` this is exactly :meth:`route`.
        """
        solution = solve_vectorised(
            request.service_graph,
            candidates,
            request.source_proxy,
            request.destination_proxy,
            self.provider.block,
        )
        return self._materialise(request, solution.assignment)

    def route_many(self, requests: Sequence[ServiceRequest]) -> List[ServicePath]:
        """Resolve a batch, sharing the provider index; raises on the first
        infeasible request (in request order), like per-request ``route``."""
        result = self.route_many_detailed(requests)
        result.raise_first()
        return [path for path in result.paths if path is not None]

    def route_many_detailed(
        self, requests: Sequence[ServiceRequest]
    ) -> "BatchRouteResult":
        """Resolve a batch, capturing per-request outcomes.

        The overlay's provider lists are scanned once per distinct service
        for the whole batch instead of once per request slot; candidate
        content and order match :meth:`candidates_for` exactly, so every
        returned path is bit-identical to the per-request call.
        """
        from repro.routing.batch import BATCH_SIZE_BUCKETS, BatchRouteResult
        from repro.util.errors import NoFeasiblePathError

        requests = list(requests)
        providers_memo: Dict[str, List[ProxyId]] = {}
        paths: List[Optional[ServicePath]] = []
        errors: List[Optional[NoFeasiblePathError]] = []
        for request in requests:
            sg = request.service_graph
            candidates: Dict[int, List[ProxyId]] = {}
            for slot in sg.slots():
                service = sg.service_of(slot)
                providers = providers_memo.get(service)
                if providers is None:
                    providers = self.overlay.providers_of(service)
                    providers_memo[service] = providers
                if self.candidate_filter is not None:
                    candidates[slot] = [
                        p for p in providers if self.candidate_filter(p)
                    ]
                else:
                    candidates[slot] = list(providers)
            try:
                paths.append(self.route_with_candidates(request, candidates))
                errors.append(None)
            except NoFeasiblePathError as err:
                paths.append(None)
                errors.append(err)
        registry = get_telemetry().registry
        registry.counter("routing.batch.batches", router=self.name).inc()
        registry.counter("routing.batch.requests", router=self.name).inc(
            len(requests)
        )
        registry.histogram(
            "routing.batch.size", buckets=BATCH_SIZE_BUCKETS, router=self.name
        ).observe(len(requests))
        return BatchRouteResult(paths=paths, errors=errors)

    def _materialise(
        self,
        request: ServiceRequest,
        assignment: Sequence[Tuple[int, ProxyId]],
    ) -> ServicePath:
        """Turn a slot→proxy assignment into a concrete path with relays."""
        return materialise_assignment(request, assignment, self.expander)


def materialise_assignment(
    request: ServiceRequest,
    assignment: Sequence[Tuple[int, ProxyId]],
    expander: Optional[HopExpander] = None,
) -> ServicePath:
    """Turn a slot→proxy assignment into a concrete path with relays.

    Module-level so the batched conquer step can materialise child
    solutions without a router object.
    """
    sg = request.service_graph
    waypoints: List[Hop] = [Hop(proxy=request.source_proxy)]
    for slot, proxy in assignment:
        waypoints.append(Hop(proxy=proxy, service=sg.service_of(slot), slot=slot))
    waypoints.append(Hop(proxy=request.destination_proxy))

    hops: List[Hop] = [waypoints[0]]
    for prev, nxt in zip(waypoints, waypoints[1:]):
        if expander is not None and prev.proxy != nxt.proxy:
            relays = list(expander(prev.proxy, nxt.proxy))
            if not relays or relays[0] != prev.proxy or relays[-1] != nxt.proxy:
                raise RoutingError(
                    f"expander returned invalid relay chain for "
                    f"({prev.proxy!r}, {nxt.proxy!r}): {relays!r}"
                )
            for relay in relays[1:-1]:
                hops.append(Hop(proxy=relay))
        hops.append(nxt)
    return ServicePath(hops=tuple(merge_consecutive_hops(hops)))


def coordinate_router(overlay: OverlayNetwork, **kwargs) -> FlatRouter:
    """Flat full-state router over coordinate estimates (paper's flat case)."""
    if overlay.space is None:
        raise RoutingError("overlay has no coordinate space attached")
    return FlatRouter(
        overlay, CoordinateProvider(overlay.space), name="flat-coords", **kwargs
    )


def oracle_router(overlay: OverlayNetwork, **kwargs) -> FlatRouter:
    """Flat router over ground-truth delays — the unbeatable reference."""
    return FlatRouter(
        overlay, TrueDelayProvider(overlay), name="flat-oracle", **kwargs
    )
