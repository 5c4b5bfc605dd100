"""Persistence: save and load built overlays, in JSON or binary form.

Building a framework runs the full stochastic pipeline (topology draw,
landmark embedding, clustering). For reproducible experiment artifacts —
"the exact overlay these numbers came from" — this module serialises a
built :class:`~repro.core.framework.HFCFramework` and restores it
byte-for-byte equivalent: same topology, same coordinates, same
clustering, same borders, so every router built on top routes
identically. Two formats coexist:

* **JSON** (:func:`save_framework` / :func:`load_framework`) — the
  portable, diffable fallback: one human-readable document, float values
  round-tripped exactly by the JSON codec's shortest-repr rule.
* **Binary snapshot** (:func:`save_snapshot` / :func:`load_snapshot`) —
  one ``.npz`` archive holding the columnar overlay state
  (:class:`~repro.state.columnar.ColumnarOverlayState`) as raw float64 /
  int64 arrays plus one JSON metadata string. Arrays move between disk
  and the kernels without any per-node Python conversion, which is what
  makes warm starts an order of magnitude faster than a cold build.
  Snapshots carry the :class:`~repro.core.versioning.OverlayVersion` they
  were captured at, and optionally the state plane (SCT tables + delta
  streams, see ``StateDistributionProtocol.snapshot_state_plane``) so
  crash/restart scenarios can reload knowledge instead of re-learning it.

Delay-oracle caches are rebuilt lazily after loading. The build's
measurement-noise RNG state is *not* preserved; a restore seeds a fresh
stream from the topology, so every load of one artifact measures the same
noise (and joins after a warm start land on the same coordinates).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster.mstcluster import Clustering, ClusteringConfig
from repro.coords.embedding import EmbeddingReport
from repro.coords.space import CoordinateSpace
from repro.core.config import FrameworkConfig
from repro.core.framework import HFCFramework
from repro.core.versioning import OverlayVersion
from repro.graph.graph import Graph
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.topology import PhysicalTopology, TransitStubConfig
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import OverlayNetwork
from repro.services.catalog import ServiceCatalog
from repro.state.columnar import ColumnarOverlayState, HierarchyLevel
from repro.util.errors import ReproError

#: artifact schema version; bump on incompatible changes
FORMAT_VERSION = 1

#: binary snapshot schema version; bump on incompatible changes
SNAPSHOT_FORMAT_VERSION = 1


def framework_to_dict(framework: HFCFramework) -> Dict[str, Any]:
    """Serialise *framework* into a JSON-ready dict."""
    topo = framework.physical.topology
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "base": {
                k: v
                for k, v in dataclasses.asdict(framework.config).items()
                if k not in ("clustering", "transit_stub")
            },
            "clustering": dataclasses.asdict(framework.config.clustering),
            "transit_stub": dataclasses.asdict(framework.config.transit_stub),
        },
        "physical": {
            "noise": framework.physical.noise,
            "nodes": [
                {
                    "id": node,
                    "pos": list(topo.positions[node]),
                    "kind": topo.node_kind[node],
                    "stub_domain": topo.stub_domain.get(node, -1),
                }
                for node in topo.graph.nodes()
            ],
            "edges": [[u, v, w] for u, v, w in topo.graph.edges()],
        },
        "overlay": {
            "proxies": list(framework.overlay.proxies),
            "placement": {
                str(p): sorted(services)
                for p, services in framework.overlay.placement.items()
            },
        },
        "catalog": {
            "names": list(framework.catalog.names),
            "descriptions": dict(framework.catalog.descriptions),
        },
        "space": {
            str(p): list(framework.space.coordinate(p))
            for p in framework.space.nodes()
        },
        "embedding": {
            "landmark_ids": list(framework.embedding_report.landmark_ids),
            "landmark_coordinates": np.asarray(
                framework.embedding_report.landmark_coordinates
            ).tolist(),
            "dimension": framework.embedding_report.dimension,
            "measurement_count": framework.embedding_report.measurement_count,
            "landmark_fit_error": framework.embedding_report.landmark_fit_error,
        },
        "clustering": {
            "clusters": [list(c) for c in framework.clustering.clusters],
        },
        "borders": [
            [i, j, proxy] for (i, j), proxy in sorted(framework.hfc.borders.items())
        ],
    }


def _restored_network(
    topology: PhysicalTopology, noise: float, edges: np.ndarray
) -> PhysicalNetwork:
    """The delay oracle of a restored framework, with reproducible noise.

    Artifacts do not record the build's noise stream, so the restore seeds
    it from the stored topology itself (the ``(u, v, weight)`` rows of
    *edges* and the noise level): each load of one artifact measures the
    same noise, and artifacts written before this rule load the same way.
    """
    fingerprint = repr(noise).encode() + np.ascontiguousarray(edges).tobytes()
    seed = int.from_bytes(hashlib.sha256(fingerprint).digest()[:8], "big")
    return PhysicalNetwork(topology, noise=noise, seed=seed)


def _config_from(saved: Dict[str, Any]) -> FrameworkConfig:
    """Rebuild the :class:`FrameworkConfig` an artifact was written with.

    Base fields this version no longer has are dropped, so artifacts that
    recorded since-retired throughput knobs still load.
    """
    known = {f.name for f in dataclasses.fields(FrameworkConfig)}
    base = {k: v for k, v in saved["base"].items() if k in known}
    return FrameworkConfig(
        **base,
        clustering=ClusteringConfig(**saved["clustering"]),
        transit_stub=TransitStubConfig(**saved["transit_stub"]),
    )


def framework_from_dict(payload: Dict[str, Any]) -> HFCFramework:
    """Reconstruct a framework from :func:`framework_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(
            f"unsupported artifact format {version!r} (expected {FORMAT_VERSION})"
        )

    config = _config_from(payload["config"])

    graph = Graph()
    positions = {}
    node_kind = {}
    stub_domain = {}
    for node in payload["physical"]["nodes"]:
        node_id = node["id"]
        graph.add_node(node_id)
        positions[node_id] = tuple(node["pos"])
        node_kind[node_id] = node["kind"]
        if node["stub_domain"] >= 0:
            stub_domain[node_id] = node["stub_domain"]
    for u, v, w in payload["physical"]["edges"]:
        graph.add_edge(u, v, w)
    topology = PhysicalTopology(
        graph=graph,
        positions=positions,
        node_kind=node_kind,
        stub_domain=stub_domain,
    )
    physical = _restored_network(
        topology,
        payload["physical"]["noise"],
        np.asarray(payload["physical"]["edges"], dtype=float),
    )

    proxies = list(payload["overlay"]["proxies"])
    placement = {
        int(p): frozenset(services)
        for p, services in payload["overlay"]["placement"].items()
    }
    space = CoordinateSpace(
        {int(p): tuple(coord) for p, coord in payload["space"].items()}
    )
    overlay = OverlayNetwork(
        physical=physical, proxies=proxies, placement=placement, space=space
    )

    catalog = ServiceCatalog(
        names=payload["catalog"]["names"],
        descriptions=payload["catalog"]["descriptions"],
    )
    embedding = EmbeddingReport(
        landmark_ids=list(payload["embedding"]["landmark_ids"]),
        landmark_coordinates=np.array(
            payload["embedding"]["landmark_coordinates"], dtype=float
        ),
        dimension=payload["embedding"]["dimension"],
        measurement_count=payload["embedding"]["measurement_count"],
        landmark_fit_error=payload["embedding"]["landmark_fit_error"],
    )
    clusters = [list(c) for c in payload["clustering"]["clusters"]]
    labels = {p: cid for cid, members in enumerate(clusters) for p in members}
    clustering = Clustering(clusters=clusters, labels=labels)

    borders = {(i, j): proxy for i, j, proxy in payload["borders"]}
    hfc = HFCTopology(
        overlay=overlay, clustering=clustering, space=space, borders=borders
    )
    return HFCFramework(
        config=config,
        physical=physical,
        overlay=overlay,
        catalog=catalog,
        space=space,
        embedding_report=embedding,
        clustering=clustering,
        hfc=hfc,
    )


def save_framework(framework: HFCFramework, path: str) -> None:
    """Write *framework* to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(framework_to_dict(framework), handle)


def load_framework(path: str) -> HFCFramework:
    """Load a framework previously written by :func:`save_framework`."""
    with open(path) as handle:
        return framework_from_dict(json.load(handle))


# -- binary snapshots ------------------------------------------------------------


@dataclass
class OverlaySnapshot:
    """One restored binary snapshot: framework + columnar state + version.

    ``framework`` is fully usable (route, run protocols, wrap in a
    :class:`~repro.membership.churn.DynamicOverlay` via
    ``DynamicOverlay.from_snapshot``); its topology carries ``columnar``
    attached, so routing table construction reads the restored arrays
    directly. ``state_plane``, when the snapshot carried one, maps
    ``str(proxy)`` to the capture ``StateDistributionProtocol.
    restore_state`` accepts.
    """

    framework: HFCFramework
    columnar: ColumnarOverlayState
    version: OverlayVersion
    state_plane: Optional[Dict[str, Any]] = None


def _snapshot_parts(target: Any) -> tuple:
    """``(framework, columnar)`` of a framework or dynamic overlay.

    Both paths materialise a *fresh* columnar state rather than reusing
    the build-time attachment: the state protocol mutates
    ``overlay.placement`` in place (``wipe_state`` with a service change,
    ``update_local_services``), which the attached state — captured at
    construction — would not reflect.
    """
    framework = getattr(target, "framework", None)
    if framework is None:
        fresh = ColumnarOverlayState.from_framework(target)
        attached = getattr(target.hfc, "columnar", None)
        if attached is not None and attached.levels:
            # carry the recursive hierarchy's level stack into the capture
            fresh.attach_levels(attached.levels)
        return target, fresh
    return framework, target.columnar()


def save_snapshot(
    target: Any,
    path: str,
    *,
    state_plane: Optional[Dict[str, Any]] = None,
) -> None:
    """Write *target* to *path* as one binary ``.npz`` snapshot.

    *target* is a built :class:`HFCFramework` or a
    :class:`~repro.membership.churn.DynamicOverlay` (whose live state —
    churned membership, borders, version — is captured, not the original
    framework's). *state_plane* is an optional
    ``StateDistributionProtocol.snapshot_state_plane()`` capture to embed.
    The archive is uncompressed on purpose: coordinates are incompressible
    float noise and save/load wall-clock is the point (see
    ``benchmarks/bench_snapshot.py``).
    """
    framework, columnar = _snapshot_parts(target)
    topo = framework.physical.topology
    nodes = list(topo.graph.nodes())
    kinds: List[str] = sorted({topo.node_kind[n] for n in nodes})
    kind_code = {kind: i for i, kind in enumerate(kinds)}
    edges = list(topo.graph.edges())
    report = framework.embedding_report
    meta = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "config": {
            "base": {
                k: v
                for k, v in dataclasses.asdict(framework.config).items()
                if k not in ("clustering", "transit_stub")
            },
            "clustering": dataclasses.asdict(framework.config.clustering),
            "transit_stub": dataclasses.asdict(framework.config.transit_stub),
        },
        "noise": framework.physical.noise,
        "catalog": {
            "names": list(framework.catalog.names),
            "descriptions": dict(framework.catalog.descriptions),
        },
        "service_names": list(columnar.service_names),
        "node_kinds": kinds,
        "embedding": {
            "dimension": report.dimension,
            "measurement_count": report.measurement_count,
            "landmark_fit_error": report.landmark_fit_error,
        },
        "version": {"epoch": columnar.epoch, "step": columnar.step},
        "hierarchy_levels": len(columnar.levels),
        "state_plane": state_plane,
    }
    level_arrays: Dict[str, np.ndarray] = {}
    for k, level in enumerate(columnar.levels):
        level_arrays[f"level{k}_parent"] = level.parent
        level_arrays[f"level{k}_ptr"] = level.ptr
        level_arrays[f"level{k}_members"] = level.members
        level_arrays[f"level{k}_borders"] = level.border_matrix
        level_arrays[f"level{k}_centroids"] = level.centroids
    with open(path, "wb") as handle:
        np.savez(
            handle,
            meta=np.array(json.dumps(meta)),
            **level_arrays,
            phys_nodes=np.array(nodes, dtype=np.int64),
            phys_pos=np.array(
                [topo.positions[n] for n in nodes], dtype=float
            ),
            phys_kind=np.array(
                [kind_code[topo.node_kind[n]] for n in nodes], dtype=np.int64
            ),
            phys_stub=np.array(
                [topo.stub_domain.get(n, -1) for n in nodes], dtype=np.int64
            ),
            edge_uv=np.array(
                [[u, v] for u, v, _ in edges], dtype=np.int64
            ).reshape(len(edges), 2),
            edge_w=np.array([w for _, _, w in edges], dtype=float),
            landmark_ids=np.array(report.landmark_ids, dtype=np.int64),
            landmark_coords=np.asarray(report.landmark_coordinates, dtype=float),
            proxies=columnar.proxies,
            coords=columnar.coords,
            labels=columnar.labels,
            cluster_ptr=columnar.cluster_ptr,
            cluster_members=columnar.cluster_members,
            border_matrix=columnar.border_matrix,
            placement_ptr=columnar.placement_ptr,
            placement_codes=columnar.placement_codes,
        )


def load_snapshot(path: str) -> OverlaySnapshot:
    """Load a snapshot previously written by :func:`save_snapshot`.

    The restored framework's coordinate space is built zero-copy over the
    snapshot's coordinate array (:meth:`ColumnarOverlayState.space_view`),
    and the topology gets the columnar state attached, so post-restore
    query-table construction consumes the loaded arrays directly.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        version = meta.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ReproError(
                f"unsupported snapshot format {version!r} "
                f"(expected {SNAPSHOT_FORMAT_VERSION})"
            )
        arrays = {
            name: data[name]
            for name in (
                "phys_nodes",
                "phys_pos",
                "phys_kind",
                "phys_stub",
                "edge_uv",
                "edge_w",
                "landmark_ids",
                "landmark_coords",
                "proxies",
                "coords",
                "labels",
                "cluster_ptr",
                "cluster_members",
                "border_matrix",
                "placement_ptr",
                "placement_codes",
            )
        }
        levels = []
        for k in range(int(meta.get("hierarchy_levels", 0))):
            levels.append(
                HierarchyLevel(
                    parent=data[f"level{k}_parent"],
                    ptr=data[f"level{k}_ptr"],
                    members=data[f"level{k}_members"],
                    border_matrix=data[f"level{k}_borders"],
                    centroids=data[f"level{k}_centroids"],
                )
            )

    config = _config_from(meta["config"])
    kinds = meta["node_kinds"]
    graph = Graph()
    positions = {}
    node_kind = {}
    stub_domain = {}
    pos_rows = arrays["phys_pos"].tolist()
    for i, node in enumerate(arrays["phys_nodes"].tolist()):
        graph.add_node(node)
        positions[node] = tuple(pos_rows[i])
        node_kind[node] = kinds[int(arrays["phys_kind"][i])]
        domain = int(arrays["phys_stub"][i])
        if domain >= 0:
            stub_domain[node] = domain
    weights = arrays["edge_w"].tolist()
    for i, (u, v) in enumerate(arrays["edge_uv"].tolist()):
        graph.add_edge(u, v, weights[i])
    topology = PhysicalTopology(
        graph=graph,
        positions=positions,
        node_kind=node_kind,
        stub_domain=stub_domain,
    )
    physical = _restored_network(
        topology, meta["noise"], np.column_stack([arrays["edge_uv"], arrays["edge_w"]])
    )

    columnar = ColumnarOverlayState(
        proxies=arrays["proxies"],
        coords=arrays["coords"],
        labels=arrays["labels"],
        cluster_ptr=arrays["cluster_ptr"],
        cluster_members=arrays["cluster_members"],
        border_matrix=arrays["border_matrix"],
        service_names=list(meta["service_names"]),
        placement_ptr=arrays["placement_ptr"],
        placement_codes=arrays["placement_codes"],
        epoch=int(meta["version"]["epoch"]),
        step=int(meta["version"]["step"]),
        levels=levels,
    )
    columnar.validate()
    hfc = columnar.hfc_view(physical)

    catalog = ServiceCatalog(
        names=meta["catalog"]["names"],
        descriptions=meta["catalog"]["descriptions"],
    )
    embedding = EmbeddingReport(
        landmark_ids=[int(x) for x in arrays["landmark_ids"]],
        landmark_coordinates=arrays["landmark_coords"],
        dimension=meta["embedding"]["dimension"],
        measurement_count=meta["embedding"]["measurement_count"],
        landmark_fit_error=meta["embedding"]["landmark_fit_error"],
    )
    framework = HFCFramework(
        config=config,
        physical=physical,
        overlay=hfc.overlay,
        catalog=catalog,
        space=hfc.space,
        embedding_report=embedding,
        clustering=hfc.clustering,
        hfc=hfc,
    )
    return OverlaySnapshot(
        framework=framework,
        columnar=columnar,
        version=columnar.version,
        state_plane=meta.get("state_plane"),
    )
