"""Plain-Python service-DAG shortest path: the oracle for ``solve_vectorised``."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.routing.servicedag import (
    DagSolution,
    Instance,
    PairFn,
    _check_inputs,
)
from repro.services.graph import ServiceGraph, SlotId
from repro.util.errors import NoFeasiblePathError


def solve_reference(
    sg: ServiceGraph,
    candidates: Dict[SlotId, Sequence[Instance]],
    source: Instance,
    destination: Instance,
    pair: PairFn,
) -> DagSolution:
    """Plain-Python service-DAG shortest path (executable specification).

    ``candidates[slot]`` lists the instances able to fill *slot*; slots
    missing from the mapping (or mapped to an empty list) are unusable and
    prune every configuration through them. Raises
    :class:`NoFeasiblePathError` if no feasible configuration survives.
    """
    _check_inputs(sg, candidates)
    dist: Dict[Tuple[SlotId, int], float] = {}
    parent: Dict[Tuple[SlotId, int], Optional[Tuple[SlotId, int]]] = {}

    source_slots = set(sg.source_slots())
    for slot in sg.topological_order():
        cands = list(candidates.get(slot, ()))
        for idx, inst in enumerate(cands):
            key = (slot, idx)
            if slot in source_slots:
                dist[key] = pair(source, inst)
                parent[key] = None
            for pred in sg.predecessors(slot):
                pred_cands = list(candidates.get(pred, ()))
                for pidx, pinst in enumerate(pred_cands):
                    pkey = (pred, pidx)
                    if pkey not in dist:
                        continue
                    cost = dist[pkey] + pair(pinst, inst)
                    if key not in dist or cost < dist[key]:
                        dist[key] = cost
                        parent[key] = pkey

    best_key: Optional[Tuple[SlotId, int]] = None
    best_cost = float("inf")
    for slot in sg.sink_slots():
        for idx, inst in enumerate(candidates.get(slot, ())):
            key = (slot, idx)
            if key not in dist:
                continue
            total = dist[key] + pair(inst, destination)
            if total < best_cost:
                best_cost = total
                best_key = key
    if best_key is None or best_cost == float("inf"):
        raise NoFeasiblePathError("no feasible configuration maps onto instances")

    assignment: List[Tuple[SlotId, Instance]] = []
    key: Optional[Tuple[SlotId, int]] = best_key
    while key is not None:
        slot, idx = key
        assignment.append((slot, list(candidates[slot])[idx]))
        key = parent[key]
    assignment.reverse()
    return DagSolution(cost=best_cost, assignment=assignment)
