# Tier-1 tests and the benchmark, from the root of the checkout.

PYTHON ?= python3
BENCH_SECONDS ?= 25
WORKLOADS = certify_small select reduce_batch

.PHONY: test bench selftest

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q --continue-on-collection-errors

bench:
	for w in $(WORKLOADS); do \
		$(PYTHON) bench/run.py --workload $$w --seed 0 --seconds $(BENCH_SECONDS) || exit 1; \
	done

selftest:
	$(PYTHON) bench/selftest.py
