#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the tier-1 test suite.
# Every step works with no network access; steps whose tools are not
# installed (fmt/clippy components) are skipped with a notice rather
# than failing the run.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

step() {
    echo
    echo "=== $* ==="
}

# The test steps run with TMPDIR set to an emptied directory: every test
# that writes under the system temp dir must remove what it wrote, so the
# directory has to be empty again when the step ends.
ci_tmp="$PWD/target/ci_tmp"
empty_tmp() {
    rm -rf "$ci_tmp"
    mkdir -p "$ci_tmp"
}
tmp_left_empty() {
    [ -z "$(ls -A "$ci_tmp")" ] || {
        echo "tests left files in TMPDIR:"; ls -A "$ci_tmp"; fail=1; }
}

step "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check || fail=1
else
    echo "skipped: rustfmt not installed"
fi

step "cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings || fail=1
else
    echo "skipped: clippy not installed"
fi

step "no unsafe outside the SIMD kernels"
# crates/tensor/src/kernels.rs holds the AVX2 intrinsics, the one place
# the workspace needs unsafe code; every other source file stays free of
# the keyword, comments included. Each hit prints as file:line.
unsafe_hits=$(git ls-files '*.rs' | grep -vx 'crates/tensor/src/kernels.rs' |
    xargs grep -nw unsafe || true)
[ -z "$unsafe_hits" ] || {
    echo "unsafe outside crates/tensor/src/kernels.rs:"
    echo "$unsafe_hits" | cut -d: -f1,2; fail=1; }

step "cargo doc -D warnings"
# Doc links to deleted or private items fail here, not in a reader's
# browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline || fail=1

step "cargo build --release"
cargo build --release --offline || fail=1

# Each test binary runs once per configuration: the root package here,
# every other workspace member in the next step.
step "cargo test (tier-1: the root package, incl. the determinism suite)"
# tests/determinism.rs exercises the batched execution path end to end
# (workers 1 vs 4 bit-identity): keyed multi-window jobs,
# batch-position-order gradient reduction, and the exec.windows_trained
# counter must all be worker-count independent.
empty_tmp
TMPDIR="$ci_tmp" cargo test -q --offline || fail=1
tmp_left_empty

step "cargo test --workspace (every other member, incl. adaptraj-check)"
# adaptraj-check: central-difference gradient checks for all 27 tape
# ops, the LSTM/MLP layers, and every backbone's full training loss; the
# op inventory (the golden micro-runs record every op kind but the
# reference-only ones); tape invariants and algebraic identities through
# the offline shrinking generator. Its kernel_equivalence suite
# property-tests that the default AVX2 microkernels produce bitwise
# identical results to the scalar fallback on random shapes (including
# k=0, m=0, single-row, and zero-dense operands).
empty_tmp
TMPDIR="$ci_tmp" cargo test -q --workspace --offline --exclude adaptraj || fail=1
tmp_left_empty

step "tables smoke (Table I through adaptraj tables)"
# table1 synthesizes the four domains and prints their statistics beside
# the paper's values; it trains nothing, so it takes well under a second.
cargo run --release --offline --bin adaptraj -- tables table1 --scale smoke \
    > target/tables_ci_table1.txt || fail=1
grep -qx '=== Table I: dataset statistics ===' target/tables_ci_table1.txt &&
    grep -q '^| Dataset | # sequences |' target/tables_ci_table1.txt || {
    echo "tables table1 did not print its header"; cat target/tables_ci_table1.txt; fail=1; }

step "plug_and_play example (AdapTraj over two backbones)"
# The one runnable example; the test steps only compile it. It wraps
# PECNet and LBEBM in one AdapTraj configuration and must print one
# ADE/FDE line per backbone (about 6 s).
cargo run --release --offline --example plug_and_play > target/plug_and_play_ci.txt || fail=1
[ "$(grep -c 'ADE/FDE' target/plug_and_play_ci.txt)" -eq 2 ] &&
    grep -q '^PECNet-AdapTraj .*ADE/FDE' target/plug_and_play_ci.txt &&
    grep -q '^LBEBM-AdapTraj .*ADE/FDE' target/plug_and_play_ci.txt || {
    echo "plug_and_play did not print one ADE/FDE line per backbone"
    cat target/plug_and_play_ci.txt; fail=1; }

step "EXPERIMENTS.md embeds results/*.txt verbatim"
# scripts/update_experiments.sh writes EXPERIMENTS.md's "Measured
# results" section from results/*.txt. Running it on a copy of its inputs
# must reproduce the committed file byte for byte, so a table rerun that
# was not copied in, or a number edited by hand on one side, fails here.
# The tree itself is left as it was. The copy runs by path, not through
# `bash`, so a script committed without its exec bit fails here too.
exp_ci="target/experiments_ci"
rm -rf "$exp_ci"
mkdir -p "$exp_ci/scripts" "$exp_ci/results"
cp scripts/update_experiments.sh "$exp_ci/scripts/"
cp EXPERIMENTS.md "$exp_ci/"
cp results/*.txt "$exp_ci/results/"
"$exp_ci/scripts/update_experiments.sh" > /dev/null &&
    diff -u EXPERIMENTS.md "$exp_ci/EXPERIMENTS.md" || {
    echo "EXPERIMENTS.md is not what scripts/update_experiments.sh makes of results/"
    fail=1; }

step "perfbench build + tests (the repository benchmark)"
# perfbench is its own workspace with path dependencies on the crates,
# so the workspace steps above never build it; a change to an API it
# calls (e.g. the Predictor trait) must fail CI here, not in the
# benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml || fail=1

step "forced-scalar pass (ADAPTRAJ_FORCE_SCALAR=1 tier-1, tape, kernel-bitwise tests + golden gate)"
# The scalar fallback is a first-class dispatch path, not dead code: the
# tier-1 suite and the golden micro-runs must pass with SIMD disabled,
# proving the committed goldens do not depend on the host's ISA. The
# tensor crate's tests (the tape's bitwise fused-op tests among them) and
# the two adaptraj-check binaries that pin results bit for bit across
# code paths run here too, so each such contract holds on both kernels.
ADAPTRAJ_FORCE_SCALAR=1 cargo test -q --offline || fail=1
ADAPTRAJ_FORCE_SCALAR=1 cargo test -q --offline -p adaptraj-tensor || fail=1
ADAPTRAJ_FORCE_SCALAR=1 cargo test -q --offline -p adaptraj-check \
    --test batch_equivalence --test decoder_hoist || fail=1
ADAPTRAJ_FORCE_SCALAR=1 cargo run --release --offline --bin adaptraj -- \
    check --golden-dir results || fail=1

step "golden regression gate (fixed-seed micro-runs)"
# Re-runs the six pinned micro-runs and compares against the committed
# results/GOLDEN_*.json: losses and each trained model's sampled futures
# for the fixed probe scene bit-for-bit, ADE/FDE within 0.1%. Any drift
# fails CI with one DRIFT line per field; intentional changes regenerate
# with
#   cargo run --release -- check --update-golden
cargo run --release --offline --bin adaptraj -- \
    check --golden-dir results || fail=1

step "perfbench smoke (three workloads correct) + doctor self-compare"
# One short run of each repository-benchmark workload: its result line
# (the last line) must say "correct":true, which perfbench only reports
# when no operation failed, the outputs repeated bit for bit and every
# metric is finite. Then doctor compares one output with itself through
# the --bench-* parse path: no timing noise can make that fail.
for workload in train_adaptraj eval_best_of_20 serve_closed_k1; do
    out="target/perfbench_ci_$workload.txt"
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > "$out" || fail=1
    tail -n 1 "$out" | grep -q '"correct":true' || {
        echo "perfbench $workload did not report \"correct\":true"; tail -n 5 "$out"; fail=1; }
done
cargo run --release --offline --bin adaptraj -- \
    doctor --bench-baseline target/perfbench_ci_train_adaptraj.txt \
    --bench-candidate target/perfbench_ci_train_adaptraj.txt || fail=1

step "health observatory smoke (clean run -> doctor exits zero)"
# Fixed-seed run with the observatory armed: per-domain gradient norms,
# pairwise cosines, and update ratios land in each epoch record of the
# run manifest; the doctor must find nothing fatal and exit zero. The
# manifest is the run's one event stream: it carries the final metrics
# registry, and no separate events file is written. A clean run writes
# nothing to stderr.
rm -rf target/health_ci_run
cargo run --quiet --release --offline --bin adaptraj -- \
    run --backbone pecnet --method adaptraj --sources eth_ucy,l_cas,syi \
    --target sdd --epochs 2 --workers 2 --seed 7 \
    --out target/health_ci_run 2> target/health_ci_run.stderr || fail=1
[ ! -s target/health_ci_run.stderr ] || {
    echo "clean run wrote to stderr:"; cat target/health_ci_run.stderr; fail=1; }
grep -q '"metrics":\[' target/health_ci_run/manifest.json || {
    echo "manifest carries no metrics array"; fail=1; }
[ ! -e target/health_ci_run/events.jsonl ] || {
    echo "run record still holds events.jsonl"; fail=1; }
cargo run --release --offline --bin adaptraj -- \
    doctor --run target/health_ci_run || fail=1
# Executor threads last one `map` call; the timeline keys lanes by
# thread name, so the trace holds the main lane and one lane per extra
# worker, not one lane per batch.
lanes=$(grep -o '"name":"thread_name"' target/health_ci_run/trace.json | wc -l)
[ "$lanes" -le 3 ] || {
    echo "trace.json holds $lanes thread_name lanes (at most 3 expected)"; fail=1; }
# Report only. Each op's profile bytes are every tensor its forward and
# backward steps allocate (there is no buffer reuse to discount), so the
# total counts all tensor traffic; `leaf` allocates only the inputs it
# wraps, so a large share there means an op's allocations are charged to
# the wrong node.
sed 's/,"phases".*//' target/health_ci_run/profile.json |
    grep -o '"kind":"[a-z_]*"[^}]*"bytes":[0-9]*' |
    awk -F'"' '{ b = substr($NF, 2); total += b; if ($4 == "leaf") leaf = b }
        END { printf "profile bytes: %.1f MB, leaf share %.3f\n", total / 1e6, leaf / total }'

step "health observatory smoke (injected NaN -> tripwire -> doctor exits nonzero)"
# Poisons every op of window 3 in epoch 0 (the worker-count-deterministic
# E:W injection form) with --halt-on-fault, once for AdapTraj and once for
# CausalMotion (the shared Trainer loop's mean and risk-variance
# reductions): training must halt, the run must exit nonzero with the
# incident and "halted":true in its manifest, and the doctor must report
# the NaN incident (with op + phase attribution) and exit nonzero too.
for method in adaptraj causalmotion; do
    run_dir="target/health_ci_bad_$method"
    rm -rf "$run_dir"
    if ADAPTRAJ_HEALTH_INJECT_NAN=0:3 cargo run --release --offline --bin adaptraj -- \
        run --backbone pecnet --method "$method" --sources eth_ucy,l_cas,syi \
        --target sdd --epochs 2 --workers 2 --seed 7 \
        --halt-on-fault --out "$run_dir"; then
        echo "expected the injected-NaN $method run to exit nonzero"; fail=1
    fi
    grep -q '"halted":true' "$run_dir/manifest.json" || {
        echo "manifest does not record the halt ($method)"; fail=1; }
    grep -q '"incidents":\[{' "$run_dir/manifest.json" || {
        echo "manifest records no incident ($method)"; fail=1; }
    doctor_out=$(cargo run --release --offline --bin adaptraj -- \
        doctor --run "$run_dir" 2>&1) && {
        echo "expected doctor to exit nonzero on the injected-NaN $method run"; fail=1; }
    echo "$doctor_out" | grep -q "first unhealthy op: '" || {
        echo "doctor did not attribute the first unhealthy op ($method)"; fail=1; }
    echo "$doctor_out" | grep -q "(nan)" || {
        echo "doctor did not report the NaN fault ($method)"; fail=1; }
done

echo
if [ "$fail" -ne 0 ]; then
    echo "CI: FAILED"
    exit 1
fi
echo "CI: OK"
