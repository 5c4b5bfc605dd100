#!/usr/bin/env python3
"""The repository benchmark: four workloads over the HFC service overlay.

Run from the root of a checkout (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload route --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same workload twice, untraced and then traced with
the same inputs and amount of work, and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every output check and the recorded digest check passed.
``--record`` rewrites the recorded digest for the given seed instead of
checking it. See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
NAMES = ("route", "churn", "traffic", "shard")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the output digest for this seed instead of checking it")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(command, cwd=ROOT, check=False).returncode)
    return status


def measure(args, workdir: Path):
    from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS
    from repro.telemetry import Telemetry

    workload = WORKLOADS[args.workload](args.seed, workdir)
    plain = workload.run(args.seconds)
    problems = list(plain.problems)
    digests = [plain.digest]
    if args.trace:
        traced = workload.run(args.seconds, steps=plain.steps, telemetry=Telemetry())
        problems += traced.problems
        digests.append(traced.digest)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(plain.views)
        metrics.update(traced.layers)
        metrics["failed_ratio"] = plain.failed / plain.attempted
        metrics["telemetry.trace_overhead"] = traced.reference / plain.reference
        units = PER_LAYER
    else:
        metrics = plain.end_to_end()
        units = END_TO_END

    if len(set(digests)) != 1:
        problems.append("the traced pass produced different outputs than the untraced pass")
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    key = workload.digest_key(args.seconds)
    if args.record:
        recorded.setdefault(args.workload, {})[key] = plain.digest
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED:
        expected = recorded.get(args.workload, {}).get(key)
        if expected is None:
            problems.append(f"no recorded digest for {args.workload} at {key}")
        elif expected != plain.digest:
            problems.append(f"output digest {plain.digest} != recorded {expected}")

    result = {
        "correct": not problems,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(HERE), str(SRC)]
    workdir = ROOT / f".perfbench_work-{os.getpid()}"
    workdir.mkdir()
    try:
        result, problems = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED [{args.workload}]: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:8s} {name:30s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
