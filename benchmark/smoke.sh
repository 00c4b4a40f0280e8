#!/usr/bin/env bash
# Quick profile of the benchmark: 5 s send windows, unit costs with 3
# repetitions, the four traced replays, every correctness check on.
# Under 90 s after the build. Exits non-zero if any check fails.
# For a later PR to wire into .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    all --quick --seed "${1:-1}" --out "${2:-/dev/null}"
