#!/usr/bin/env bash
# Build the release `filterscope` binary and the benchmark from source, then
# run one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both builds share CARGO_TARGET_DIR (default: target). Build output goes to
# stderr; the result is the last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin filterscope >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --program "$CARGO_TARGET_DIR/release/filterscope" "$@"
