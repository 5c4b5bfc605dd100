"""Service routing: paths, service DAGs, flat/mesh/hierarchical routers."""

from repro.routing.aggregation import CentroidAggregationRouter
from repro.routing.batch import (
    BatchRouteResult,
    QueryTables,
    query_tables,
    service_graph_signature,
)
from repro.routing.cache import CachedHierarchicalRouter
from repro.routing.signaling import SetupReport, SignalingSimulator
from repro.routing.flat import (
    FlatRouter,
    coordinate_router,
    materialise_assignment,
    oracle_router,
)
from repro.routing.hierarchical import (
    ChildRequest,
    ClusterServicePath,
    HierarchicalResult,
    HierarchicalRouter,
)
from repro.routing.meshrouting import MeshRouter, hfc_full_state_router
from repro.routing.path import (
    Hop,
    ServicePath,
    merge_consecutive_hops,
    path_from_assignment,
    validate_path,
)
from repro.routing.providers import (
    CoordinateProvider,
    DistanceProvider,
    MatrixProvider,
    TrueDelayProvider,
)
from repro.routing.servicedag import (
    DagSolution,
    brute_force,
    solve_vectorised,
)

__all__ = [
    "BatchRouteResult",
    "CachedHierarchicalRouter",
    "CentroidAggregationRouter",
    "ChildRequest",
    "ClusterServicePath",
    "CoordinateProvider",
    "DagSolution",
    "DistanceProvider",
    "FlatRouter",
    "HierarchicalResult",
    "HierarchicalRouter",
    "Hop",
    "MatrixProvider",
    "MeshRouter",
    "QueryTables",
    "ServicePath",
    "SetupReport",
    "SignalingSimulator",
    "TrueDelayProvider",
    "brute_force",
    "coordinate_router",
    "hfc_full_state_router",
    "materialise_assignment",
    "merge_consecutive_hops",
    "oracle_router",
    "path_from_assignment",
    "query_tables",
    "service_graph_signature",
    "solve_vectorised",
    "validate_path",
]
