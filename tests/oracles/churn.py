"""The rebuild-the-world membership path: the oracle for in-place patches."""

from __future__ import annotations

from repro.membership import DynamicOverlay
from repro.overlay.network import ProxyId


class RebuildingOverlay(DynamicOverlay):
    """A :class:`DynamicOverlay` that rebuilds instead of patching.

    After every join or leave it re-derives cluster ids, re-scans every
    border pair and re-builds an attached hierarchy from the current labels,
    which is the work the patches avoid. ``benchmarks/bench_churn.py`` times
    it as the denominator of the maintenance speedup.
    """

    def _patch_join(self, cluster_id: int, proxy: ProxyId) -> None:
        self._rebuild()

    def _patch_leave(self, cluster_id: int, proxy: ProxyId) -> None:
        self._rebuild()

    def _rebuild(self) -> None:
        self._adopt_labels(dict(self._labels))
        self._refresh_borders()
        self._rebuild_hierarchy()
