# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-full bench-query traffic examples clean lint bench-smoke fault-matrix perfbench ci coverage

# Editable install with the consolidated dev dependency list — the same
# `[project.optional-dependencies] dev` extra every CI job installs from.
install:
	$(PYTHON) -m pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Regenerate the batched-query bench (BENCH_query.json) at the active scale.
bench-query:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_query.py --benchmark-only -q

# Regenerate the sustained-traffic bench (BENCH_traffic.json) at the active
# scale: steady state, rate-sweep saturation, and load-under-faults.
traffic:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_traffic.py --benchmark-only -q

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

# Lint/typecheck exactly as the CI lint job does; skipped with a notice when
# the tools are not installed (they are not part of the runtime deps).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro benchmarks scripts tests; \
	else echo "ruff not installed; skipping (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

# The CI bench-smoke job: regenerate the small-scale construction, churn and
# query benches and gate their speedup ratios against the committed baselines.
bench-smoke:
	cp BENCH_construction.json /tmp/bench_baseline.json
	cp BENCH_churn.json /tmp/churn_baseline.json
	cp BENCH_query.json /tmp/query_baseline.json
	cp BENCH_resilience.json /tmp/resilience_baseline.json
	cp BENCH_traffic.json /tmp/traffic_baseline.json
	cp BENCH_snapshot.json /tmp/snapshot_baseline.json
	cp BENCH_hierarchy.json /tmp/hierarchy_baseline.json
	cp BENCH_shard.json /tmp/shard_baseline.json
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_construction.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_churn.py::test_incremental_churn_speedup --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_query.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_resilience.py::test_fault_matrix_recovery --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_traffic.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_snapshot.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_multilevel.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_shard.py --benchmark-only -q
	$(PYTHON) scripts/check_bench_regression.py /tmp/bench_baseline.json BENCH_construction.json --tolerance 0.25
	$(PYTHON) scripts/check_bench_regression.py /tmp/churn_baseline.json BENCH_churn.json --tolerance 0.25 --metric maintenance --metric state_bytes
	$(PYTHON) scripts/check_bench_regression.py /tmp/query_baseline.json BENCH_query.json --tolerance 0.25 --metric batch_throughput --metric single_query
	$(PYTHON) scripts/check_bench_regression.py /tmp/resilience_baseline.json BENCH_resilience.json --tolerance 0.25 --metric delivery_recovery --metric reconverge_margin
	$(PYTHON) scripts/check_bench_regression.py /tmp/traffic_baseline.json BENCH_traffic.json --tolerance 0.25 --metric steady_throughput --metric p95_latency
	$(PYTHON) scripts/check_bench_regression.py /tmp/snapshot_baseline.json BENCH_snapshot.json --tolerance 0.25 --metric warm_start
	$(PYTHON) scripts/check_bench_regression.py /tmp/hierarchy_baseline.json BENCH_hierarchy.json --tolerance 0.25 --metric state_l3 --metric delay_l3
	$(PYTHON) scripts/check_bench_regression.py /tmp/shard_baseline.json BENCH_shard.json --tolerance 0.25 --metric completed_ratio --metric locality

# Tier-1 suite under coverage, enforcing the same floor as the CI tests job
# (py3.12 leg); writes the HTML report to htmlcov/. Skipped with a notice
# when pytest-cov is not installed (it is a dev-extra tool, not a runtime dep).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PYTHON) -m pytest -x -q \
			--cov=repro --cov-report=term-missing:skip-covered \
			--cov-report=html --cov-fail-under=70; \
	else echo "pytest-cov not installed; skipping (CI runs it)"; fi

# The CI fault-matrix smoke job: three seeded fault plans (loss burst,
# partition heal, crash/restart) at small n under the convergence auditor.
fault-matrix:
	PYTHONPATH=src $(PYTHON) scripts/run_fault_matrix.py --audit-dir benchmarks/out

# The CI perfbench job: tiny (--seconds 1) runs of every benchmark workload
# with the seed-1 output digest checks, so engine event-order drift fails fast.
perfbench:
	$(PYTHON) -m pytest perfbench -q

# Mirror the full CI workflow locally: tier-1 tests, a benchmark import check
# (collect every bench module, so one importing a deleted name fails here),
# lint, fault matrix, perfbench, bench smoke + gate.
ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks --collect-only -q
	$(MAKE) lint
	$(MAKE) fault-matrix
	$(MAKE) perfbench
	$(MAKE) bench-smoke

clean:
	rm -rf build *.egg-info benchmarks/out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
