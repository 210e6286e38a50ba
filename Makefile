.PHONY: all build test check clean examples report report-check bench bench-compare size

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

# The two sizes the roadmap's design aim tracks: lines of the .ml and
# .mli files in lib/ and bin/, and the number of `val run*` entry points
# in lib/'s interfaces.
size:
	@echo "lines (lib/ and bin/ .ml/.mli): $$(find lib bin -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"
	@echo "val run* in lib/*.mli: $$(grep -rh '^val run' lib --include=*.mli | wc -l)"

report:
	dune exec bin/countq_cli.exe -- report

# Every E1-E32 table regenerated and diffed byte for byte against the
# committed RESULTS.md: exactly CI's "Report reproduces RESULTS.md" step.
report-check:
	dune exec bin/countq_cli.exe -- report -o report.md -j 2
	diff report.md RESULTS.md

# The repository benchmark (bench/suite, declared in BENCHMARK.json):
# every workload in fresh child processes, medians with their spread,
# results in bench/out/suite/results.json.
bench:
	dune exec --root . -- ./bench/suite/main.exe

# The regression gate: the suite on <rev> (a detached git worktree in a
# temp dir, outside dune's scan) and on this tree, then --compare. Fails
# only on a resolved `worse`, an unusable value or a changed simulated
# output. Both result files stay under bench/out/compare/. WORKLOAD=<name>
# (or several, space-separated) limits both runs to those workloads.
SUITE_WORKLOADS = $(foreach w,$(WORKLOAD),--workload $(w))

bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [WORKLOAD=<name>]"; exit 2; }
	@set -e; out=$$(pwd)/bench/out/compare; mkdir -p $$out; \
	tmp=$$(mktemp -d); base=$$tmp/base; \
	trap "git worktree remove --force $$base || true; rm -rf $$tmp" EXIT; \
	git worktree add --detach $$base $(BASE); \
	(cd $$base && dune exec --root . -- ./bench/suite/main.exe $(SUITE_WORKLOADS) --out $$out/base.json); \
	dune exec --root . -- ./bench/suite/main.exe $(SUITE_WORKLOADS) --out $$out/head.json; \
	dune exec --root . -- ./bench/suite/main.exe --compare $$out/base.json $$out/head.json

clean:
	dune clean
