"""Multi-level hierarchy extension: recursive HFC hierarchies and routing.

:mod:`repro.hierarchy.levels` builds hierarchies of any depth and routes
over them with :class:`RecursiveRouter`.
"""

from repro.hierarchy.levels import (
    HierarchyLevels,
    RecursiveRouter,
    build_levels,
    levels_from_columnar,
)

__all__ = [
    "HierarchyLevels",
    "RecursiveRouter",
    "build_levels",
    "levels_from_columnar",
]
