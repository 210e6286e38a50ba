#!/bin/sh
# Prints the timer-sensitive outputs pinned by test/timers.expected:
# every fault plan with monitors, the churn table with monitors under
# every adversary, the Ordered / long-lived experiments, and the
# fetch-and-add table (whose central row shares the counter's machine).
# Usage: timers.sh COUNTQ_EXE
set -e
countq=$1
for plan in $("$countq" faults --list-plans | cut -d' ' -f1); do
  "$countq" faults -t list -n 16 --plan "$plan" --monitors --jobs 1
done
"$countq" churn --monitors --jobs 1
for adversary in churn t-interval rewire partition tree-attack identity; do
  "$countq" churn -a "$adversary" --monitors --jobs 1
done
"$countq" experiments E12 E13 E19 E27 E28 --quick --no-cache | grep -v '^\[E[0-9]*\] [0-9.]*s$'
