#!/usr/bin/env bash
# Coverage gate for the protocol-bearing packages: fails if statement
# coverage of internal/core, internal/lockstore, internal/store,
# internal/history, internal/httpapi or music drops below the checked-in
# floors (set a couple of points under the measured value so incidental
# drift passes but a dropped test file does not). internal/history is gated
# because the ECF rules and the live consistency monitor are the safety net
# everything else leans on; internal/lockstore because the lock row's format
# lives only there; internal/httpapi because the REST format lives only
# there, server and client both. Writes
# the merged profile to coverage.out (first argument overrides) for the CI
# artifact upload.
set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-coverage.out}"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

# package -> floor (percent of statements)
floors="
repro/internal/core 81
repro/internal/lockstore 91
repro/internal/store 88
repro/internal/history 76
repro/internal/httpapi 86
repro/music 76
"

go test -coverprofile="$profile" -covermode=count \
    ./internal/core/ ./internal/lockstore/ ./internal/store/ ./internal/history/ \
    ./internal/httpapi/ ./music/ > "$log" 2>&1 || {
    cat "$log" >&2
    exit 1
}

fail=0
while read -r pkg floor; do
    [ -z "$pkg" ] && continue
    pct=$(grep -E "^ok[[:space:]]+$pkg[[:space:]]" "$log" |
        grep -oE '[0-9.]+% of statements' | grep -oE '^[0-9.]+' || true)
    if [ -z "$pct" ]; then
        echo "coverage: no result for $pkg" >&2
        fail=1
        continue
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage: $pkg at ${pct}% — below floor ${floor}%" >&2
        fail=1
    else
        echo "coverage: $pkg at ${pct}% (floor ${floor}%)"
    fi
done <<< "$floors"

exit $fail
