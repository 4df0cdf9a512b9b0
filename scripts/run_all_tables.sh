#!/usr/bin/env bash
# Regenerates every paper table/figure and the supplementary tables at the
# given scale (default smoke) into results/<name>_<scale>.txt, plus Table IV
# averaged over two training seeds. Usage: scripts/run_all_tables.sh [smoke|paper]
set -euo pipefail
scale="${1:-smoke}"
cd "$(dirname "$0")/.."
mkdir -p results
cargo build --release --offline --bin adaptraj
# cargo honours CARGO_TARGET_DIR, so the binary it just built is there.
adaptraj="${CARGO_TARGET_DIR:-target}/release/adaptraj"
run() { # name seeds output
    echo "=== $1 --seeds $2 ($scale) ==="
    "$adaptraj" tables "$1" --scale "$scale" --seeds "$2" | tee "$3"
}
for name in table1 table2 table3 table4 table5 table6 table7 table8 fig3 fig4 social compare; do
    # compare pools the runner's per-(seed, window) scores over two
    # training seeds.
    seeds=1
    [ "$name" = compare ] && seeds=2
    run "$name" "$seeds" "results/${name}_${scale}.txt"
done
run table4 2 "results/table4_${scale}_seeds2.txt"
echo "All outputs in results/"
