#!/usr/bin/env bash
# Build the `feves` binary and the benchmark from source, then run one
# benchmark invocation. Arguments are passed through:
#   bash fevesbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/); run scratch files go to .fevesbench/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/Cargo.toml" ] || [ ! -f "$root/fevesbench/Cargo.toml" ]; then
    echo "error: run from the repository root (no Cargo.toml here)" >&2
    exit 2
fi
target=${CARGO_TARGET_DIR:-target}
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" --bin feves >&2
cargo build --offline --release --quiet --manifest-path "$root/fevesbench/Cargo.toml" >&2
exec "$target/release/fevesbench" --feves "$target/release/feves" --work "$root/.fevesbench" "$@"
