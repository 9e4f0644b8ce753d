#!/bin/sh
# Lints the benchmark package, runs its two generator tests and smoke-runs every
# workload against BENCHMARK.json. Run from the repository root.
set -eu
cargo fmt --manifest-path perf/Cargo.toml -- --check
cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings
cargo test --offline --quiet --manifest-path perf/Cargo.toml
python3 perf/check.py smoke
