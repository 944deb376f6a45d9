#!/usr/bin/env bash
# Pins the repository benchmark's smoke results: runs every workload's
# --smoke (seed 42) through the already built
# build-benchmark/rdbs_benchmark and fails unless each result digest equals
# the pinned value below.
#
#   benchmark/run.sh --smoke && ci/check_smoke_digests.sh
#
# The digests hash every served distance vector and simulated time, so a
# host-side optimization must leave them unchanged. A change that moves the
# simulated results on purpose updates the pins here and says why.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/build-benchmark/rdbs_benchmark"
if [[ ! -x "$BIN" ]]; then
  echo "check_smoke_digests: $BIN not built (run benchmark/run.sh --smoke)" >&2
  exit 1
fi

PINNED=(
  "kron-solve 445fe1b6ff94aea5"
  "road-solve 4df6b8da28ee4163"
  "serve-zipf 65a9c629187737f8"
  "serve-storm a17702e089992d67"
)

cd "$ROOT"
failed=0
for entry in "${PINNED[@]}"; do
  read -r workload want <<< "$entry"
  # The last stdout line is the smoke's JSON summary.
  got="$("$BIN" --workload="$workload" --seed=42 --smoke | tail -n 1 |
         sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p')"
  if [[ "$got" == "$want" ]]; then
    echo "$workload: digest $got (pinned)"
  else
    echo "$workload: digest '${got}' != pinned $want" >&2
    failed=1
  fi
done
exit "$failed"
