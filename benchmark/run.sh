#!/usr/bin/env bash
# The benchmark's one command. Builds the programs under test and the
# benchmark in release mode (offline), then hands every argument to
# `ezp-benchmark`:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one measured run (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR] [--twice]  all workloads, both passes, results.json
#   benchmark/run.sh compare A/results.json B/results.json           regression verdicts
#
# Compilation is not part of any metric; cargo's own output goes to stderr.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline -p easypap-cli 1>&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bins="${CARGO_TARGET_DIR:-target}/release"
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/ezp-benchmark"
if [ "${1:-}" = compare ]; then
  exec "$bench" "$@"
fi
exec "$bench" --bin-dir "$bins" --spec BENCHMARK.json "$@"
