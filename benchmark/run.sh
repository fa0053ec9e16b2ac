#!/usr/bin/env bash
# The repository's one benchmark. Run from the root of the repository.
#
#   benchmark/run.sh [--seed N] [--reps N] [--quick]    every workload, end to end and
#                                                        traced; writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                        one run of one workload; the last line
#                                                        of standard output is its result
#   benchmark/run.sh compare A.json B.json               judge B against base A by BENCHMARK.json
#
# Builds the package from source first (into CARGO_TARGET_DIR if set, else benchmark/target).
set -euo pipefail

here=$(dirname "$0")
if [ ! -f "$here/../crates/controlplane/Cargo.toml" ]; then
    echo "benchmark/run.sh: the crates under test are not beside $here" >&2
    exit 2
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/fleetbench"

case "${1:-}" in
compare)
    shift
    exec "$bin" compare --spec "$here/../BENCHMARK.json" "$@"
    ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run --out-dir "$here/out" "$@"
    fi
done
exec "$bin" suite --out-dir "$here/out" "$@"
