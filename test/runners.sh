#!/bin/sh
# Prints the outputs of every one-shot driver surface, pinned by
# test/runners.expected: `countq observe` for each observed protocol
# under no plan, a lossy plan and a crash-restart plan (each with its
# JSONL span export), `countq trace`, `countq verify`, `countq check
# --quick` (minus its timing column and note) and every example.
# Usage: runners.sh COUNTQ_EXE EXAMPLE_EXE...
set -e
countq=$1
shift
json=runners-spans.jsonl
for p in arrow arrow+notify central-queue central-count sweep; do
  for plan in none lossy crash-restart; do
    if [ "$plan" = none ]; then plan_flag=""; else plan_flag="--plan $plan"; fi
    # shellcheck disable=SC2086
    "$countq" observe --quick -t list -n 16 --jobs 1 -P "$p" $plan_flag --json "$json"
    cat "$json"
  done
done
rm -f "$json"
"$countq" trace
"$countq" verify
# Cut the configs/s column (a wall-clock rate) and the wall-time note:
# the header fixes the column's character span, cut from every table row.
"$countq" check --quick --jobs 1 \
  | grep -v 'wall time' \
  | awk '/configs\/s/ { from = index($0, "configs/s"); to = index($0, "verdict") }
         from && NF { $0 = substr($0, 1, from - 1) substr($0, to) }
         !NF { from = 0 }
         { print }'
for ex in "$@"; do
  echo "== $(basename "$ex")"
  "$ex"
done
