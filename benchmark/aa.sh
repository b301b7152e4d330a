#!/bin/sh
# A/A check: the same build measured twice must agree with itself within the
# benchmark's own bounds, on the seed the bounds were set with and on one they
# were not. Run from anywhere; takes about 2 x 2 x 6 x 12 s.
#
#   benchmark/aa.sh [SETS]        (default 2 sets per seed)
set -eu
cd "$(dirname "$0")/.."
cargo build --release --manifest-path benchmark/Cargo.toml
for seed in 1 2; do
    echo "# seed $seed"
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --aa "${1:-2}" --seed "$seed"
done
