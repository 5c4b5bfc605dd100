"""From-scratch graph substrate: graphs, shortest paths, MSTs, components."""

from repro.graph.components import component_of, connected_components, is_connected
from repro.graph.graph import Graph
from repro.graph.mst import (
    UnionFind,
    euclidean_mst,
    euclidean_mst_reference,
    kruskal_mst,
    prim_mst,
)
from repro.graph.shortest_paths import (
    all_pairs_distances,
    dijkstra,
    eccentricity,
    reconstruct_path,
    shortest_path,
    single_source_distances,
)

__all__ = [
    "Graph",
    "UnionFind",
    "all_pairs_distances",
    "component_of",
    "connected_components",
    "dijkstra",
    "eccentricity",
    "euclidean_mst",
    "euclidean_mst_reference",
    "is_connected",
    "kruskal_mst",
    "prim_mst",
    "reconstruct_path",
    "shortest_path",
    "single_source_distances",
]
