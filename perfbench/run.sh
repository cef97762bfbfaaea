#!/usr/bin/env bash
# Build the `relcomp` server and the `perfbench` binary from source, then run
# `perfbench`. Run from the repository root (any working directory works; the
# script changes to the root):
#
#   bash perfbench/run.sh --workload cold-sparse --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload hot-rw --runs 5 --seconds 20
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); generated
# graphs and accuracy references are cached under `.bench_data`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f src/bin/relcomp.rs ]]; then
    echo "perfbench: not a relcomp checkout (no Cargo.toml / crates/serve / src/bin/relcomp.rs)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin relcomp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/relcomp" "$@"
