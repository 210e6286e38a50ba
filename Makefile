.PHONY: all build test check clean examples report bench bench-quick bench-diff

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: exactly what CI runs.
check:
	dune build @all
	dune runtest

examples:
	dune build @examples/all

report:
	dune exec bin/countq_cli.exe -- report

# Domain budget for the benchmark harness (tables + sweeps share it).
JOBS ?= $(shell nproc)

# Full benchmark pass: every experiment table at paper sizes, the
# engine speedup / metrics overhead / telemetry overhead / dynamic
# overhead / churn / jobs scaling / cache warm probes
# and the bechamel micro kernels; writes BENCH_10.json (and
# per-experiment CSVs under bench/out/). Sweep points are cached under
# bench/out/cache; pass --no-cache through BENCH_FLAGS to recompute.
bench:
	dune exec bench/main.exe -- --csv bench/out --jobs $(JOBS) $(BENCH_FLAGS)

# Quick smoke: truncated sweeps, no micro kernels. Same JSON schema.
bench-quick:
	dune exec bench/main.exe -- --quick --no-micro --csv bench/out --jobs $(JOBS) $(BENCH_FLAGS)

# Perf-regression check: compare the snapshot committed at HEAD against
# the BENCH_10.json sitting in the worktree (run `make bench` or
# `make bench-quick` first). Warn-only by default; DIFF_FLAGS=--strict
# makes a past-threshold regression fail the target (the CI gate shape).
bench-diff:
	@mkdir -p bench/out; \
	if git show HEAD:BENCH_10.json > bench/out/BENCH_baseline.json 2>/dev/null; then \
	  dune exec bin/countq_cli.exe -- bench diff bench/out/BENCH_baseline.json BENCH_10.json $(DIFF_FLAGS); \
	else \
	  echo "no BENCH_10.json at HEAD to diff against"; \
	fi

clean:
	dune clean
