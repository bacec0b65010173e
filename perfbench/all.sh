#!/usr/bin/env bash
# Run every workload once and print its metrics; stops with a nonzero exit
# code at the first run whose checks fail.
#   bash perfbench/all.sh [seed] [seconds] [trace]
set -euo pipefail
for workload in pipeline rouge-long slow-backend; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-30}" --trace "${3:-0}"
done
