#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it:
#   bash benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/rc-benchmark" --out "$here/out" "$@"
