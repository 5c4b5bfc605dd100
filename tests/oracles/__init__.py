"""Scalar reference solvers kept as test oracles.

The library ships one implementation per routing step; these plain-Python
loops are the executable specifications the vectorized kernels are checked
against (property tests) and timed against (``benchmarks/bench_query.py``).
Import them as ``tests.oracles``: ``python -m pytest`` puts the repository
root on ``sys.path``.
"""

from tests.oracles.csp import ReferenceCSPRouter
from tests.oracles.servicedag import solve_reference

__all__ = ["ReferenceCSPRouter", "solve_reference"]
