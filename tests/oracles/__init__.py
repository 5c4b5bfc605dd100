"""Scalar reference solvers kept as test oracles.

The library ships one implementation per construction, churn and routing
step; these plain-Python loops and full rebuilds are the executable
specifications the fast paths are checked against (property tests) and
timed against (``benchmarks/bench_construction.py``, ``bench_churn.py``
and ``bench_query.py``).
Import them as ``tests.oracles``: ``python -m pytest`` puts the repository
root on ``sys.path``.
"""

from tests.oracles.churn import RebuildingOverlay
from tests.oracles.construction import (
    build_coordinate_space_reference,
    cluster_nodes_reference,
    euclidean_mst_reference,
    select_borders_closest_reference,
)
from tests.oracles.csp import ReferenceCSPRouter
from tests.oracles.servicedag import solve_reference

__all__ = [
    "RebuildingOverlay",
    "ReferenceCSPRouter",
    "build_coordinate_space_reference",
    "cluster_nodes_reference",
    "euclidean_mst_reference",
    "select_borders_closest_reference",
    "solve_reference",
]
