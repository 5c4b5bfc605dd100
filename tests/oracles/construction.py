"""The per-host / per-pair construction loops: oracles for the vectorized
Section-3 pipeline (landmark embedding, Zahn MST clustering, closest-pair
border selection).

Each function is the plain form a kernel in ``src/`` replaced. The
equivalence suite asserts the kernels agree with them, and
``benchmarks/bench_construction.py`` times them as the denominators of the
construction speedup gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.mstcluster import (
    Clustering,
    ClusteringConfig,
    _cut_inconsistent,
)
from repro.coords.embedding import (
    EmbeddingReport,
    _relative_error,
    choose_landmarks,
    embed_landmarks,
    locate_host,
)
from repro.coords.space import CoordinateSpace
from repro.netsim.physical import PhysicalNetwork
from repro.overlay.network import ProxyId
from repro.util.errors import GraphError
from repro.util.rng import RngLike, ensure_rng


def build_coordinate_space_reference(
    physical: PhysicalNetwork,
    hosts: Sequence[int],
    *,
    landmark_count: int = 10,
    dimension: int = 2,
    probes: int = 3,
    seed: RngLike = None,
) -> Tuple[CoordinateSpace, EmbeddingReport]:
    """``build_coordinate_space`` with one ``measure`` + :func:`locate_host`
    per host instead of one measurement matrix and a batched solve.

    Consumes the RNG and the network's noise stream in the same order as
    the live builder. Host-to-landmark true delays are summed from the
    host side here, so coordinates agree to float tolerance, not bitwise.
    """
    rng = ensure_rng(seed)
    landmarks = choose_landmarks(physical, landmark_count, rng)
    m = len(landmarks)
    measured = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            value = physical.measure(landmarks[i], landmarks[j], probes=probes)
            measured[i, j] = measured[j, i] = value
    landmark_coords = embed_landmarks(measured, dimension, seed=rng)
    diff = landmark_coords[:, None, :] - landmark_coords[None, :, :]
    fit_error = _relative_error(
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), measured
    )

    landmark_index = {router: i for i, router in enumerate(landmarks)}
    coords: Dict[int, Sequence[float]] = {}
    measurement_count = probes * m * (m - 1) // 2
    for host in hosts:
        if host in landmark_index:
            coords[host] = landmark_coords[landmark_index[host]]
            continue
        to_host = [physical.measure(host, lm, probes=probes) for lm in landmarks]
        measurement_count += probes * m
        coords[host] = locate_host(landmark_coords, to_host)
    report = EmbeddingReport(
        landmark_ids=landmarks,
        landmark_coordinates=landmark_coords,
        dimension=dimension,
        measurement_count=measurement_count,
        landmark_fit_error=fit_error,
    )
    return CoordinateSpace(coords), report


def euclidean_mst_reference(points: np.ndarray) -> List[Tuple[int, int, float]]:
    """Per-round full-distance Prim (``sqrt`` over all n candidates every
    round): the form ``euclidean_mst``'s squared-distance argmin replaced."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GraphError(f"points must be 2-D (n, k), got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        return []
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=int)
    edges: List[Tuple[int, int, float]] = []
    current = 0
    in_tree[0] = True
    for _ in range(n - 1):
        delta = pts - pts[current]
        dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        closer = (~in_tree) & (dist < best_dist)
        best_dist[closer] = dist[closer]
        best_from[closer] = current
        masked = np.where(in_tree, np.inf, best_dist)
        nxt = int(np.argmin(masked))
        if not np.isfinite(masked[nxt]):
            raise GraphError("euclidean_mst: disconnected input (NaN coordinates?)")
        edges.append((int(best_from[nxt]), nxt, float(best_dist[nxt])))
        in_tree[nxt] = True
        current = nxt
    return edges


def cluster_nodes_reference(
    space: CoordinateSpace,
    nodes: Optional[Sequence[int]] = None,
    config: Optional[ClusteringConfig] = None,
) -> Clustering:
    """``cluster_nodes`` over :func:`euclidean_mst_reference`: the Zahn cut
    is shared, only the MST kernel differs."""
    node_list = list(nodes) if nodes is not None else space.nodes()
    points = space.array(node_list)
    return _cut_inconsistent(
        node_list,
        points,
        euclidean_mst_reference(points),
        config or ClusteringConfig(),
    )


def select_borders_closest_reference(
    space: CoordinateSpace, clustering: Clustering
) -> Dict[Tuple[int, int], ProxyId]:
    """The per-pair border scan: one :meth:`CoordinateSpace.closest_pair`
    call per cluster pair instead of one coordinate block per cluster."""
    borders: Dict[Tuple[int, int], ProxyId] = {}
    k = clustering.cluster_count
    for i in range(k):
        for j in range(i + 1, k):
            a, b, _ = space.closest_pair(
                clustering.members(i), clustering.members(j)
            )
            borders[(i, j)] = a
            borders[(j, i)] = b
    return borders
