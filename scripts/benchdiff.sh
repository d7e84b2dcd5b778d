#!/usr/bin/env sh
# benchdiff.sh OLD.json NEW.json [threshold_pct]
#
# Compares two BENCH_state.json reports and fails (exit 1) when the
# committed TPS of the worst paged cell at the default budget shrank by
# more than threshold_pct percent (default 10): a paging overhead
# regression. Any other report — an epoch-bench one by name — is
# refused (exit 2).
#
# Run after regenerating the report:
#
#   cp BENCH_state.json /tmp/prev.json
#   go run ./cmd/shardsim -state-bench -bench-out BENCH_state.json
#   scripts/benchdiff.sh /tmp/prev.json BENCH_state.json
set -eu

OLD=${1:?usage: benchdiff.sh OLD.json NEW.json [threshold_pct]}
NEW=${2:?usage: benchdiff.sh OLD.json NEW.json [threshold_pct]}
THRESHOLD=${3:-10}
SCRIPT_DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)

# extract FILE: "state_tps <value>".
extract() {
    go run "$SCRIPT_DIR/benchdiff_extract.go" "$1"
}

OLD_OUT=$(extract "$OLD") || exit 2
NEW_OUT=$(extract "$NEW") || exit 2
OLD_VAL=${OLD_OUT#* }
NEW_VAL=${NEW_OUT#* }

echo "benchdiff: default-budget paged TPS (worst cell): old=${OLD_VAL} new=${NEW_VAL} (threshold -${THRESHOLD}%)"
# Fail when NEW < OLD * (1 - THRESHOLD/100).
awk -v old="$OLD_VAL" -v new="$NEW_VAL" -v thr="$THRESHOLD" 'BEGIN {
    limit = old * (1 - thr / 100)
    if (new < limit) {
        printf "benchdiff: REGRESSION: paged TPS %.0f fell below %.0f (-%s%% of %.0f)\n", new, limit, thr, old
        exit 1
    }
    printf "benchdiff: OK (floor %.0f)\n", limit
}'
