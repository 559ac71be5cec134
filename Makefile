# Tier-1 tests, the benchmark and the result fingerprint, from the root of the checkout.

PYTHON ?= python3
BENCH_SECONDS ?= 25
WORKLOADS = certify_small select reduce_batch

.PHONY: test bench selftest fingerprint

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q --continue-on-collection-errors

bench:
	for w in $(WORKLOADS); do \
		$(PYTHON) bench/run.py --workload $$w --seed 0 --seconds $(BENCH_SECONDS) || exit 1; \
	done

selftest:
	$(PYTHON) bench/selftest.py

# One line per reduction, cost, search and error report, with digests; diff
# the output of two checkouts to show that a change moved no result bit.
fingerprint:
	@OPENBLAS_NUM_THREADS=1 $(PYTHON) scripts/fingerprint.py
