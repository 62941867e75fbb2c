# Convenience targets for the CBMA reproduction.

PY ?= python

.PHONY: install test lint loc twonc-book bench bench-quick bench-perf perf-pairs gateway-soak macro-bench macro-validate examples report clean

install:
	pip install -e .
	pip install pytest pytest-benchmark hypothesis

test:
	$(PY) -m pytest tests/ -q

lint:
	$(PY) -m repro lint src tests
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping type check (pip install mypy)"; \
	fi

# Line counts (wc -l over *.py) of src/repro, each of its packages and
# tests: the figures CHANGES.md tracks from change to change.
loc:
	@for d in src/repro $(sort $(patsubst %/,%,$(dir $(wildcard src/repro/*/__init__.py)))) tests; do \
		printf '%7d  %s\n' "$$(find $$d -name '*.py' -exec cat {} + | wc -l)" "$$d"; \
	done

# Rewrite the 2NC code book (src/repro/codes/twonc_book.json) from the
# code search; `scripts/build_twonc_book.py --check` exits 1 on drift.
twonc-book:
	$(PY) scripts/build_twonc_book.py

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_SCALE=0.25 $(PY) -m pytest benchmarks/ --benchmark-only -q

# Hot-path latency trajectory (all tiers), gated vs the committed
# baseline (docs/performance.md).  The decode farm and the gateway are
# benchmarked by perfbench (perf-pairs).
bench-perf:
	$(PY) -m repro bench --quick --output BENCH_0009.json \
		--baseline benchmarks/BENCH_0009.json

# Alternating parent/change pairs of perfbench (docs/performance.md).
# BASE is a checkout of the parent commit, e.g. `git worktree add ../base HEAD~1`.
BASE ?= ../base
PAIRS ?= 10
SEED ?= 1001
WORKLOADS ?= stream_dense stream_sparse gateway_spike
perf-pairs:
	$(PY) scripts/perf_pairs.py --base $(BASE) --change . --pairs $(PAIRS) --seed $(SEED) \
		$(foreach w,$(WORKLOADS),--workload $(w))

# The 50-stream acceptance chaos soak with a mid-soak worker drain
# (exit 1 + shrunken plan artifact on an invariant breach).
gateway-soak:
	$(PY) -m repro gateway soak --streams 50 --rounds 12 --migrate-round 5 \
		--artifact gateway-plan.json

# Fleet-scale macro tier only: engine events-per-second and surface
# lookup latency.
macro-bench:
	$(PY) -m repro bench --tier macro --quick --output BENCH_0009_macro.json \
		--baseline benchmarks/BENCH_0009.json

# Macro <-> sample-domain agreement contract (exit 1 on breach).
macro-validate:
	$(PY) -m repro macro validate --surface benchmarks/FER_SURFACE_0001.json

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/smart_home.py
	$(PY) examples/power_control_study.py
	$(PY) examples/coexistence.py
	$(PY) examples/reliable_sensor_net.py
	$(PY) examples/building_deployment.py
	$(PY) examples/code_family_tour.py

report:
	$(PY) -m repro report --output report.md --scale 0.5

clean:
	rm -rf build dist *.egg-info .pytest_cache benchmarks/results.txt report.md
	find . -name __pycache__ -type d -exec rm -rf {} +
