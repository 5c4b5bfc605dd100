"""Golden fixture for the construction pipeline: behaviour pinned by data.

The fixture (``tests/fixtures/construction_golden.json``) pins, for
``HFCFramework.build(80, seed=7)`` and ``HFCFramework.build(120, seed=11)``:

* the landmark router ids of the embedding (Section 3.1);
* the SHA-256 of the proxies' coordinate array bytes;
* the members of every Zahn MST cluster (Section 3.2);
* every closest-pair border ``(i, j, proxy)`` (Section 3.3);
* hops, true delay and coordinate estimate of ``HierarchicalRouter.route``
  for 40 seeded ``random_request`` draws (the Fig-10 paths and costs), or
  the error message when a request has no feasible path.

It was recorded before the construction twins were retired, and the one
remaining pipeline must replay it exactly. Re-record after an intended
change of construction behaviour with
``PYTHONPATH=src python tests/test_construction_golden.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import HFCFramework
from repro.util.errors import NoFeasiblePathError

FIXTURE = Path(__file__).parent / "fixtures" / "construction_golden.json"
BUILDS = {"80@7": (80, 7), "120@11": (120, 11)}
REQUESTS = 40


def _route(framework, router, seed):
    try:
        path = router.route(framework.random_request(seed=seed))
    except NoFeasiblePathError as err:
        return ["err", str(err)]
    overlay = framework.overlay
    return {
        "hops": [
            [int(h.proxy), h.service, None if h.slot is None else int(h.slot)]
            for h in path.hops
        ],
        "delay": float(path.true_delay(overlay)),
        "estimate": float(path.estimated_length(overlay)),
    }


def observe_build(proxy_count: int, seed: int) -> dict:
    """The construction facts the fixture pins for one seeded build."""
    framework = HFCFramework.build(proxy_count, seed=seed)
    hfc = framework.hfc
    coords = np.ascontiguousarray(
        framework.space.array(framework.overlay.proxies), dtype=float
    )
    router = framework.hierarchical_router()
    return {
        "landmarks": [int(r) for r in framework.embedding_report.landmark_ids],
        "coords_sha256": hashlib.sha256(coords.tobytes()).hexdigest(),
        "members": [
            [int(p) for p in hfc.members(c)] for c in range(hfc.cluster_count)
        ],
        "borders": sorted([i, j, int(p)] for (i, j), p in hfc.borders.items()),
        "routes": [_route(framework, router, seed) for seed in range(REQUESTS)],
    }


def observe() -> dict:
    return {name: observe_build(n, seed) for name, (n, seed) in BUILDS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_construction_replays(golden, build):
    observed = observe_build(*BUILDS[build])
    want = golden[build]
    assert observed["landmarks"] == want["landmarks"]
    assert observed["coords_sha256"] == want["coords_sha256"]
    assert observed["members"] == want["members"]
    assert observed["borders"] == want["borders"]
    assert observed["routes"] == want["routes"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_construction_golden.py --record"
        )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
