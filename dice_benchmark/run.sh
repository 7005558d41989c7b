#!/usr/bin/env bash
# Builds the benchmark and runs it; every workload runs in its own process.
#
#   run.sh                       all four workloads, untraced then traced
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                one run; the last line of output is its JSON
#   run.sh --selfcheck           two interleaved sets of runs of the same
#                                build, compared against the bounds
#   --seed <n>, --quick          apply to every form
#
# Exits non-zero when the build fails, an output is not what it must be, or
# --selfcheck finds two medians further apart than a metric's bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for this script alike, so the script never changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/dice_benchmark"

selfcheck=0
single=0
args=()
for arg in "$@"; do
    case "$arg" in
        --selfcheck) selfcheck=1 ;;
        --workload) single=1; args+=("$arg") ;;
        *) args+=("$arg") ;;
    esac
done

if [ "$selfcheck" = 1 ]; then
    exec python3 "$here/selfcheck.py" "$bin" "$here/../BENCHMARK.json" ${args[@]+"${args[@]}"}
fi
if [ "$single" = 1 ]; then
    exec "$bin" --out "$here/out" ${args[@]+"${args[@]}"}
fi
for workload in table_load live_replay explore_heavy fault_search; do
    for trace in 0 1; do
        "$bin" --out "$here/out" --workload "$workload" --trace "$trace" ${args[@]+"${args[@]}"}
    done
done
