"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``; the
runs are tiny (``--seconds 1``) but build the real n=1000 overlays, so
the module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from probes import tail  # noqa: E402
from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _invoke("--workload", workload, "--seed", str(DEFAULT_SEED),
                   "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done.stdout)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    recorded = json.loads(run.DIGESTS.read_text())
    key = str(DEFAULT_SEED)
    recorded["shard"][key] = "0" * 64
    perturbed = tmp_path / "digests.json"
    perturbed.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "DIGESTS", perturbed)
    status = run.main(["--workload", "shard", "--seed", key, "--seconds", "1"])
    out = capsys.readouterr().out
    assert status == 1
    assert "CHECK FAILED [shard]: output digest" in out
    assert _result(out)["correct"] is False


def test_other_seed_changes_inputs_not_metric_set(tmp_path):
    outcomes = [WORKLOADS["route"](seed, tmp_path).run(1) for seed in (DEFAULT_SEED, 2)]
    assert outcomes[0].digest != outcomes[1].digest
    assert outcomes[0].end_to_end().keys() == outcomes[1].end_to_end().keys() == END_TO_END.keys()
    assert outcomes[0].views.keys() == outcomes[1].views.keys()


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _invoke("--workload", "route", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_the_highest_sample_with_ten_above_it():
    assert tail(list(range(100))) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
