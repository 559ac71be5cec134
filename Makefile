# Tier-1 tests, the benchmark and the result fingerprint, from the root of the checkout.

PYTHON ?= python3
BENCH_SECONDS ?= 25
PAIRS ?= 10
SEED ?= 0
WORKLOADS = certify_small select reduce_batch

.PHONY: test bench bench-pairs selftest fingerprint fingerprint-diff

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q --continue-on-collection-errors

bench:
	for w in $(WORKLOADS); do \
		$(PYTHON) bench/run.py --workload $$w --seed 0 --seconds $(BENCH_SECONDS) || exit 1; \
	done

# PAIRS alternating runs of WORKLOAD on BASE's src (a git revision) and on the
# working tree, both by the working tree's bench/; prints each end-to-end
# metric's median, quartiles and the pairs the working tree won.
bench-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs BASE=<rev> WORKLOAD=<name> [PAIRS=10] [BENCH_SECONDS=25] [SEED=0]" >&2; exit 2; }
	$(PYTHON) scripts/bench_pairs.py --base "$(BASE)" --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(BENCH_SECONDS) --seed $(SEED)

selftest:
	$(PYTHON) bench/selftest.py

# One line per reduction, cost, search and error report, with digests; diff
# the output of two checkouts to show that a change moved no result bit.
fingerprint:
	@OPENBLAS_NUM_THREADS=1 $(PYTHON) scripts/fingerprint.py

# The fingerprint of BASE's src and tests (a git revision) against that of the
# working tree, both by the working tree's script; fails on any difference.
fingerprint-diff:
	@test -n "$(BASE)" || { echo "usage: make fingerprint-diff BASE=<rev>" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive "$(BASE)" src tests | tar -x -C "$$tmp" && \
	OPENBLAS_NUM_THREADS=1 $(PYTHON) scripts/fingerprint.py "$$tmp" > "$$tmp/base.txt" && \
	OPENBLAS_NUM_THREADS=1 $(PYTHON) scripts/fingerprint.py > "$$tmp/work.txt" && \
	diff "$$tmp/base.txt" "$$tmp/work.txt" && \
	echo "fingerprint-diff: no difference from $(BASE)"
