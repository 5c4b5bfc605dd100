"""Shared precomputation for batched service-path queries.

Routing resolves every request against the same slowly changing structures
— the border tables of the HFC topology, the provider lists of the overlay,
the member sets of each cluster — yet the scalar per-request path
re-derives them on every call. This module hosts the structures a *batch*
of requests shares:

* :func:`query_tables` — dense numpy tables over the cluster-level border
  structure (external link lengths, border identities, intra-cluster
  border-to-border segments). They are built from the **same scalar calls**
  the reference relaxation makes (``hfc.external_estimate``,
  ``space.distance``), so the vectorized relaxation consumes bit-identical
  floats and can promise bit-identical cluster-level paths. The tables are
  cached on the topology object itself (the convention ``_matrices`` and
  the overlay-graph cache already follow): dynamic membership materialises
  a fresh topology after every churn event, so the cache can never go
  stale.
* :class:`ConquerContext` — per-batch memo of provider lists and cluster
  member sets, so the conquer step stops paying an O(n) placement scan per
  child request.
* :class:`ChildSpec` / :func:`solve_specs` — a description of one
  intra-cluster child solve, with its candidates resolved, plus the batched
  solver that turns a batch of them into child paths.
* :class:`BatchRouteResult` — aligned per-request outcomes of a batch.

Only intra-cluster border pairs enter the ``d_border`` table: the
back-tracking cost model charges internal segments exclusively between two
borders of the *same* cluster (the entry border and the exit border), and
a destination proxy genuinely cannot estimate distances it holds no
coordinates for — the paper-example regression suite enforces this by
raising on any other distance query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.overlay.network import ProxyId
from repro.routing.flat import materialise_assignment
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.servicedag import solve_vectorised
from repro.services.graph import ServiceGraph, SlotId
from repro.services.request import ServiceRequest
from repro.util.errors import NoFeasiblePathError

ClusterId = int

#: histogram buckets for batch sizes (requests per route_many call)
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


def service_graph_signature(sg: ServiceGraph) -> Hashable:
    """A hashable identity of an SG's shape and service names."""
    return (
        tuple(sorted((slot, name) for slot, name in sg.services.items())),
        tuple(sorted(sg.edges)),
    )


# -- per-batch outcome ---------------------------------------------------------


@dataclass
class BatchRouteResult:
    """Aligned per-request outcomes of one ``route_many`` call.

    For every request index exactly one of ``paths[i]`` / ``errors[i]`` is
    set; infeasible requests carry the same error type and message the
    scalar ``route`` call raises for them.
    """

    paths: List[Optional[ServicePath]]
    errors: List[Optional[NoFeasiblePathError]]

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def ok_count(self) -> int:
        """Requests that resolved to a path."""
        return sum(1 for p in self.paths if p is not None)

    @property
    def infeasible_count(self) -> int:
        """Requests that raised :class:`NoFeasiblePathError`."""
        return sum(1 for e in self.errors if e is not None)

    def raise_first(self) -> None:
        """Re-raise the first error in request order, if any."""
        for error in self.errors:
            if error is not None:
                raise error


# -- cluster-level query tables ------------------------------------------------


@dataclass
class QueryTables:
    """Dense border-structure tables for the vectorized CSP relaxation.

    ``ext[i, j]`` is ``hfc.external_estimate(i, j)`` (0 on the diagonal);
    ``border_row[i, j]`` is the code of ``hfc.border(i, j)`` in
    ``border_list`` (-1 on the diagonal); ``d_border[a, b]`` is the
    coordinate distance between two borders *of the same cluster* and 0
    for every cross-cluster pair — the relaxation never consumes those
    entries (see the module docstring).
    """

    cluster_count: int
    ext: np.ndarray
    border_row: np.ndarray
    border_list: List[ProxyId]
    border_code: Dict[ProxyId, int]
    d_border: np.ndarray


def query_tables(hfc: Any) -> QueryTables:
    """Build (or fetch the cached) :class:`QueryTables` for *hfc*.

    Works against anything with the HFC cluster-level surface
    (``cluster_count`` / ``border`` / ``external_estimate`` / ``space``),
    including a hierarchy's top-level view and the paper-example stub. The
    result is cached as an attribute on *hfc*; topology mutations always
    materialise a new topology object, so no explicit invalidation exists.
    """
    cached = getattr(hfc, "_query_tables_cache", None)
    if cached is not None:
        return cached
    columnar = getattr(hfc, "columnar", None)
    if columnar is not None:
        # Topologies carrying a columnar overlay state (framework-built
        # hfc, snapshot-restored views) share that state's cached tables
        # instead of walking the object graph again; the columnar builder
        # makes the same scalar math.dist calls in the same order, so the
        # tables are bit-identical either way.
        tables = columnar.query_tables()
        hfc._query_tables_cache = tables
        return tables
    k = hfc.cluster_count
    ext = np.zeros((k, k), dtype=float)
    border_row = np.full((k, k), -1, dtype=np.int64)
    border_list: List[ProxyId] = []
    border_code: Dict[ProxyId, int] = {}
    cluster_codes: List[List[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            proxy = hfc.border(i, j)
            code = border_code.get(proxy)
            if code is None:
                code = len(border_list)
                border_code[proxy] = code
                border_list.append(proxy)
                cluster_codes[i].append(code)
            border_row[i, j] = code
            ext[i, j] = hfc.external_estimate(i, j)
    nb = len(border_list)
    d_border = np.zeros((nb, nb), dtype=float)
    space = hfc.space
    for codes in cluster_codes:
        for a in codes:
            for b in codes:
                if a != b:
                    d_border[a, b] = space.distance(
                        border_list[a], border_list[b]
                    )
    tables = QueryTables(
        cluster_count=k,
        ext=ext,
        border_row=border_row,
        border_list=border_list,
        border_code=border_code,
        d_border=d_border,
    )
    hfc._query_tables_cache = tables
    return tables


# -- batched conquer -----------------------------------------------------------


@dataclass(frozen=True)
class ChildSpec:
    """One intra-cluster child solve: request plus its candidates.

    ``candidates`` holds, per slot, the provider proxies of that slot's
    service inside the child's cluster — in exactly the order
    :meth:`FlatRouter.candidates_for` would produce (overlay placement
    order filtered by membership), so spec-based solving is bit-identical
    to :meth:`HierarchicalRouter.solve_child`.
    """

    cluster: ClusterId
    slots: Tuple[SlotId, ...]
    services: Tuple[str, ...]
    source_proxy: ProxyId
    destination_proxy: ProxyId
    candidates: Tuple[Tuple[SlotId, Tuple[ProxyId, ...]], ...]


class ConquerContext:
    """Per-batch memo of provider lists, member sets, and child candidates.

    ``overlay.providers_of`` scans the whole placement; the scalar conquer
    step pays that scan once per child slot. A batch inverts the placement
    once (service → providers, in proxy order — exactly the order each
    individual ``providers_of`` scan yields) and pays one membership
    filtering per distinct (cluster, service) pair.
    """

    def __init__(self, hfc: Any) -> None:
        self._hfc = hfc
        self._provider_index: Optional[Dict[str, List[ProxyId]]] = None
        self._members: Dict[ClusterId, frozenset] = {}
        self._candidates: Dict[Tuple[ClusterId, str], Tuple[ProxyId, ...]] = {}

    def providers_of(self, service: str) -> List[ProxyId]:
        """Providers of *service*, in the overlay's proxy order."""
        index = self._provider_index
        if index is None:
            index = {}
            overlay = self._hfc.overlay
            for proxy in overlay.proxies:
                for name in overlay.placement[proxy]:
                    index.setdefault(name, []).append(proxy)
            self._provider_index = index
        return index.get(service, [])

    def candidates(self, cluster: ClusterId, service: str) -> Tuple[ProxyId, ...]:
        """Providers of *service* inside *cluster*, in placement order."""
        key = (cluster, service)
        hit = self._candidates.get(key)
        if hit is None:
            providers = self.providers_of(service)
            members = self._members.get(cluster)
            if members is None:
                members = frozenset(self._hfc.members(cluster))
                self._members[cluster] = members
            hit = tuple(p for p in providers if p in members)
            self._candidates[key] = hit
        return hit

    def spec_for(self, child: Any) -> ChildSpec:
        """The :class:`ChildSpec` of one dissected child request."""
        return ChildSpec(
            cluster=child.cluster,
            slots=tuple(child.slots),
            services=tuple(child.services),
            source_proxy=child.source_proxy,
            destination_proxy=child.destination_proxy,
            candidates=tuple(
                (slot, self.candidates(child.cluster, service))
                for slot, service in zip(child.slots, child.services)
            ),
        )


def child_infeasible_error(spec: ChildSpec) -> NoFeasiblePathError:
    """The error the scalar conquer step raises for an unservable child."""
    return NoFeasiblePathError(
        f"cluster {spec.cluster} cannot serve child request "
        f"{spec.services} (stale aggregate state?)"
    )


def solve_child_spec(spec: ChildSpec, provider: Any) -> ServicePath:
    """Solve one child spec exactly as :meth:`HierarchicalRouter.solve_child`.

    Empty children degenerate to the direct link between the endpoints;
    otherwise the (pre-filtered) candidates go through the same flat
    solver and materialisation the per-request path uses.
    """
    if not spec.slots:
        hops = merge_consecutive_hops(
            [Hop(proxy=spec.source_proxy), Hop(proxy=spec.destination_proxy)]
        )
        return ServicePath(hops=tuple(hops))
    sub_sg = ServiceGraph(
        services=dict(zip(spec.slots, spec.services)),
        edges=frozenset(zip(spec.slots, spec.slots[1:])),
    )
    sub_request = ServiceRequest(
        source_proxy=spec.source_proxy,
        service_graph=sub_sg,
        destination_proxy=spec.destination_proxy,
    )
    candidates = {slot: list(cands) for slot, cands in spec.candidates}
    try:
        solution = solve_vectorised(
            sub_sg,
            candidates,
            spec.source_proxy,
            spec.destination_proxy,
            provider.block,
        )
    except NoFeasiblePathError:
        raise child_infeasible_error(spec) from None
    return materialise_assignment(sub_request, solution.assignment)


#: one child outcome: ("ok", path) or ("err", NoFeasiblePathError)
ChildOutcome = Tuple[str, Any]


def _materialise_chain(
    spec: ChildSpec, assignment: Sequence[Tuple[SlotId, ProxyId]]
) -> ServicePath:
    """Hops of a solved chain spec — :func:`materialise_assignment` without
    the expander machinery (hierarchical children never expand hops)."""
    hops: List[Hop] = [Hop(proxy=spec.source_proxy)]
    for (slot, proxy), service in zip(assignment, spec.services):
        hops.append(Hop(proxy=proxy, service=service, slot=slot))
    hops.append(Hop(proxy=spec.destination_proxy))
    return ServicePath(hops=tuple(merge_consecutive_hops(hops)))


def _solve_chain_bucket(
    specs: Sequence[ChildSpec],
    idxs: List[int],
    length: int,
    space: CoordinateSpace,
    arr_cache: Dict[Tuple[ProxyId, ...], np.ndarray],
    outcomes: List[Optional[ChildOutcome]],
) -> None:
    """Solve all chain specs of one length in padded numpy passes.

    One relaxation per chain position covers every spec in the bucket:
    distance blocks come from the same gathered coordinates and the same
    ``sqrt(einsum(diff, diff))`` element formula as
    :meth:`CoordinateProvider.block`, sums keep the solver's association
    order, and padding lanes sit *after* the real candidates carrying
    ``inf`` labels — so ``argmin``'s first-occurrence tie-break picks the
    same instance :func:`solve_vectorised` picks, bit for bit.
    """
    count = len(idxs)
    width = 0
    per_spec_arrays: List[List[np.ndarray]] = []
    for i in idxs:
        arrays = []
        for _, cands in specs[i].candidates:
            arr = arr_cache.get(cands)
            if arr is None:
                arr = space.array(cands)
                arr_cache[cands] = arr
            arrays.append(arr)
            width = max(width, len(cands))
        per_spec_arrays.append(arrays)
    if width == 0:
        for i in idxs:
            outcomes[i] = ("err", child_infeasible_error(specs[i]))
        return
    k = space.dimension
    coords = np.zeros((count, length, width, k))
    valid = np.zeros((count, length, width), dtype=bool)
    for b, arrays in enumerate(per_spec_arrays):
        for t, arr in enumerate(arrays):
            m = len(arr)
            if m:
                coords[b, t, :m] = arr
                valid[b, t, :m] = True
    src = space.array([specs[i].source_proxy for i in idxs])
    dst = space.array([specs[i].destination_proxy for i in idxs])

    diff = coords[:, 0] - src[:, None, :]
    labels = np.sqrt(np.einsum("bck,bck->bc", diff, diff))
    labels[~valid[:, 0]] = np.inf
    parents: List[np.ndarray] = []
    for t in range(1, length):
        diff = coords[:, t - 1][:, :, None, :] - coords[:, t][:, None, :, :]
        w = np.sqrt(np.einsum("bpck,bpck->bpc", diff, diff))
        via = labels[:, :, None] + w
        best_pred = np.argmin(via, axis=1)
        best = np.take_along_axis(via, best_pred[:, None, :], axis=1)[:, 0, :]
        labels = np.where(valid[:, t], best, np.inf)
        parents.append(best_pred)
    diff = coords[:, length - 1] - dst[:, None, :]
    tail = np.sqrt(np.einsum("bck,bck->bc", diff, diff))
    totals = labels + tail
    winner = np.argmin(totals, axis=1)
    final = totals[np.arange(count), winner]

    for b, i in enumerate(idxs):
        spec = specs[i]
        if not np.isfinite(final[b]):
            outcomes[i] = ("err", child_infeasible_error(spec))
            continue
        j = int(winner[b])
        assignment: List[Tuple[SlotId, ProxyId]] = []
        for t in range(length - 1, 0, -1):
            assignment.append((spec.slots[t], spec.candidates[t][1][j]))
            j = int(parents[t - 1][b, j])
        assignment.append((spec.slots[0], spec.candidates[0][1][j]))
        assignment.reverse()
        outcomes[i] = ("ok", _materialise_chain(spec, assignment))


def solve_chain_specs_vectorised(
    specs: Sequence[ChildSpec], space: CoordinateSpace
) -> List[ChildOutcome]:
    """Solve every (chain) child spec with per-length padded kernels.

    The coordinate-space branch of :func:`solve_specs`: every child a
    hierarchical dissection produces is a chain (each is a run of
    consecutive slots of the chosen configuration path), so the whole
    conquer step collapses
    into ``max_chain_length`` numpy relaxations per length bucket instead
    of one solver invocation per child. Results are bit-identical to
    per-child :func:`solve_child_spec`.
    """
    outcomes: List[Optional[ChildOutcome]] = [None] * len(specs)
    buckets: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        if not spec.slots:
            hops = merge_consecutive_hops(
                [Hop(proxy=spec.source_proxy), Hop(proxy=spec.destination_proxy)]
            )
            outcomes[i] = ("ok", ServicePath(hops=tuple(hops)))
        else:
            buckets.setdefault(len(spec.slots), []).append(i)
    arr_cache: Dict[Tuple[ProxyId, ...], np.ndarray] = {}
    for length, idxs in buckets.items():
        _solve_chain_bucket(specs, idxs, length, space, arr_cache, outcomes)
    return outcomes  # type: ignore[return-value]


def solve_specs(
    specs: Sequence[ChildSpec],
    provider: Any,
    *,
    space: Optional[CoordinateSpace] = None,
) -> List[ChildOutcome]:
    """Solve child specs in order, capturing per-child infeasibilities.

    With a coordinate *space* every chain runs through the padded kernels
    of :func:`solve_chain_specs_vectorised`; other providers (no *space*)
    solve spec by spec through their ``block`` callback.
    """
    if space is not None:
        return solve_chain_specs_vectorised(specs, space)
    outcomes: List[ChildOutcome] = []
    for spec in specs:
        try:
            outcomes.append(("ok", solve_child_spec(spec, provider)))
        except NoFeasiblePathError as err:
            outcomes.append(("err", err))
    return outcomes
