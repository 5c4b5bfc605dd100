"""Query bench — batched route_many vs per-request scalar routing.

The batched-query acceptance bench. One fixed workload (Table-1-style
requests, 4-10 services each) is resolved three ways on identically built
frameworks:

* **scalar** — the pre-batching configuration: per-request ``route`` calls
  through the scalar reference CSP relaxation (``tests.oracles``'
  :class:`ReferenceCSPRouter`) with a non-memoizing coordinate provider
  (every call re-derives provider lists and coordinate blocks);
* **single** — per-request ``route`` calls through the vectorized CSP
  relaxation (numpy helps little at this granularity; the number is kept
  honest, not gated);
* **batch** — one ``route_many`` call sharing the per-batch precompute
  (query tables, provider index, CSP memo, padded chain kernels).

All three must produce bit-identical paths — the speedup is a pure
like-for-like number. Every engine is timed best-of-N (the gated ratios
are steady-state throughput, robust against allocator warm-up and timer
noise); the batch engine's first, cold call — the one paying the
query-table construction — is reported alongside.

Results land in ``BENCH_query.json`` keyed by scale
(``small`` for the CI smoke entry, ``full`` for the paper-scale n=1000
entry); ``scripts/check_bench_regression.py --metric batch_throughput
--metric single_query`` gates the ratios against the committed baseline.
``REPRO_SCALE=full`` runs the acceptance workload (n=1000, 400 requests,
>=5x batch throughput over scalar).
"""

import json
import os
import time
from pathlib import Path

from repro.core import HFCFramework
from repro.experiments import WorkloadConfig, ascii_table, generate_requests
from repro.routing.providers import CoordinateProvider
from tests.oracles import ReferenceCSPRouter

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_query.json"
SEED = 7


def _workload():
    """(scale, proxies, requests) for the current scale."""
    full = os.environ.get("REPRO_SCALE", "small").strip().lower()
    if full in ("full", "1", "1.0"):
        return "full", 1000, 400
    return "small", 250, 120


class _Environment:
    """Minimal environment view for generate_requests (no client set)."""

    def __init__(self, framework):
        self.framework = framework
        self.client_proxies = []


ROUNDS = 3


def _best_of(route, requests, rounds=ROUNDS):
    """Route the workload *rounds* times; returns (paths, [seconds...]).

    The paths of every round must match — a cheap internal determinism
    check on top of the cross-engine comparison below.
    """
    paths, seconds = None, []
    for _ in range(rounds):
        start = time.perf_counter()
        result = route(requests)
        seconds.append(time.perf_counter() - start)
        assert paths is None or result == paths
        paths = result
    return paths, seconds


def _route_serial(router, requests):
    return _best_of(
        lambda batch: [router.route(request) for request in batch], requests
    )


def _route_batch(router, requests):
    return _best_of(router.route_many, requests)


def _merge_result(scale, entry):
    """Rewrite BENCH_query.json, preserving the other scales' entries."""
    existing = {}
    if RESULT_PATH.exists():
        existing = json.loads(RESULT_PATH.read_text()).get("entries", {})
    existing[scale] = entry
    snapshot = {
        "bench": "query",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "entries": existing,
    }
    RESULT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_batched_query_speedup(benchmark, emit):
    scale, proxy_count, request_count = _workload()
    framework = HFCFramework.build(proxy_count=proxy_count, seed=SEED)
    requests = generate_requests(
        _Environment(framework),
        WorkloadConfig(request_count=request_count),
        seed=SEED + 1,
    )

    # the pre-batching configuration: scalar relaxation, no block memo
    scalar_router = ReferenceCSPRouter(framework.hfc)
    scalar_router._provider = CoordinateProvider(framework.hfc.space, memoize=False)
    single_router = framework.hierarchical_router()
    batch_router = framework.hierarchical_router()

    def run():
        scalar_paths, scalar_times = _route_serial(scalar_router, requests)
        single_paths, single_times = _route_serial(single_router, requests)
        batch_paths, batch_times = _route_batch(batch_router, requests)
        return (
            scalar_paths, scalar_times,
            single_paths, single_times,
            batch_paths, batch_times,
        )

    (
        scalar_paths, scalar_times,
        single_paths, single_times,
        batch_paths, batch_times,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    # Like-for-like: every engine resolves every request to the same path.
    assert single_paths == scalar_paths
    assert batch_paths == scalar_paths

    scalar_seconds = min(scalar_times)
    single_seconds = min(single_times)
    batch_seconds = min(batch_times)
    cold_seconds = batch_times[0]
    single_ratio = scalar_seconds / single_seconds
    batch_ratio = scalar_seconds / batch_seconds
    cold_ratio = scalar_seconds / cold_seconds
    emit(
        "query_speedup",
        f"Batched query engine — n={proxy_count}, {request_count} requests, "
        f"best of {ROUNDS} (bit-identical paths)\n"
        + ascii_table(
            ["engine", "seconds", "requests/s", "vs scalar"],
            [
                [
                    "scalar per-request",
                    f"{scalar_seconds:.3f}",
                    f"{request_count / scalar_seconds:.0f}",
                    "1.0x",
                ],
                [
                    "vectorized per-request",
                    f"{single_seconds:.3f}",
                    f"{request_count / single_seconds:.0f}",
                    f"{single_ratio:.2f}x",
                ],
                [
                    "route_many",
                    f"{batch_seconds:.3f}",
                    f"{request_count / batch_seconds:.0f}",
                    f"{batch_ratio:.2f}x",
                ],
                [
                    "route_many (cold call)",
                    f"{cold_seconds:.3f}",
                    f"{request_count / cold_seconds:.0f}",
                    f"{cold_ratio:.2f}x",
                ],
            ],
        ),
    )

    entry = {
        "proxies": proxy_count,
        "requests": request_count,
        "rounds": ROUNDS,
        "scalar_seconds": round(scalar_seconds, 4),
        "single_seconds": round(single_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "batch_cold_seconds": round(cold_seconds, 4),
        "requests_per_second": round(request_count / batch_seconds, 1),
        "speedup": {
            "total": round(batch_ratio, 2),
            "batch_throughput": round(batch_ratio, 2),
            "single_query": round(single_ratio, 2),
        },
    }
    _merge_result(scale, entry)

    if scale == "full":
        # The PR's acceptance bar: >=5x batch throughput at n=1000.
        assert batch_ratio >= 5.0, (
            f"full-scale batch speedup {batch_ratio:.2f}x < 5x"
        )
    else:
        assert batch_ratio > 1.0, (
            f"batched routing slower than scalar ({batch_ratio:.2f}x)"
        )
