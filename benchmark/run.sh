#!/usr/bin/env bash
# Builds the benchmark into build-benchmark/ and runs it; see benchmark/run.py
# for the flags. With no --workload it runs every workload:
#
#   benchmark/run.sh [--seed N]
exec python3 "$(dirname "$0")/run.py" "$@"
