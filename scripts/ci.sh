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
cargo test -q --offline || fail=1

step "cargo test --workspace (every other member, incl. adaptraj-check)"
# adaptraj-check: central-difference gradient checks for all 27 tape
# ops, the LSTM/MLP layers, and every backbone's full training loss; the
# op inventory (the golden micro-runs record every op kind but the
# reference-only ones); tape invariants and algebraic identities through
# the offline shrinking generator. Its kernel_equivalence suite
# property-tests that the default AVX2 microkernels produce bitwise
# identical results to the scalar fallback on random shapes (including
# k=0, m=0, single-row, and zero-dense operands).
cargo test -q --workspace --offline --exclude adaptraj || fail=1

step "tables smoke (Table I through the tables binary)"
# table1 synthesizes the four domains and prints their statistics beside
# the paper's values; it trains nothing, so it takes well under a second.
cargo run --release --offline -p adaptraj-bench --bin tables -- table1 --scale smoke \
    > target/tables_ci_table1.txt || fail=1
grep -qx '=== Table I: dataset statistics ===' target/tables_ci_table1.txt &&
    grep -q '^| Dataset | # sequences |' target/tables_ci_table1.txt || {
    echo "tables table1 did not print its header"; cat target/tables_ci_table1.txt; fail=1; }

step "perfbench build + tests (the repository benchmark)"
# perfbench is its own workspace with path dependencies on the crates,
# so the workspace steps above never build it; a change to an API it
# calls (e.g. the Predictor trait) must fail CI here, not in the
# benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml || fail=1

step "forced-scalar pass (ADAPTRAJ_FORCE_SCALAR=1 tier-1 + golden gate)"
# The scalar fallback is a first-class dispatch path, not dead code: the
# tier-1 suite and the golden micro-runs must pass with SIMD disabled,
# proving the committed goldens do not depend on the host's ISA.
ADAPTRAJ_FORCE_SCALAR=1 cargo test -q --offline || fail=1
mkdir -p target/golden-scalar-ci
ADAPTRAJ_FORCE_SCALAR=1 cargo run --release --offline --bin adaptraj -- \
    check --golden-dir results --out-dir target/golden-scalar-ci || fail=1

step "golden regression gate (fixed-seed micro-runs)"
# Re-runs the six pinned micro-runs and compares against the committed
# results/GOLDEN_*.json: losses bit-for-bit, ADE/FDE within 0.1%. Any
# drift fails CI; intentional changes regenerate with
#   cargo run --release -- check --update-golden
mkdir -p target/golden-ci
cargo run --release --offline --bin adaptraj -- \
    check --golden-dir results --out-dir target/golden-ci || fail=1
# doctor must reach the same verdict from the files check just wrote
# (exercises the golden parse path end to end).
cargo run --release --offline --bin adaptraj -- \
    doctor --golden-dir results --golden-candidate target/golden-ci || fail=1

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

step "serve smoke (golden bit-exactness, /metrics /timeline /profile, 405, 503 backpressure, clean shutdown)"
# Trains a tiny fixed-seed checkpoint (the checkpoint.atps of its run
# record), serves it on an ephemeral port, and
# drives it from outside with serve_gate: the golden probe scene's served
# predictions must match the committed results/SERVE_golden.json bit for
# bit (regenerate with `serve_gate --write-golden` when the model
# legitimately changes), /metrics must expose the serve counters,
# /timeline (Chrome trace) and /profile (JSON) must be mounted on the
# predict port, GET /v1/predict must be a JSON 405, and shutdown must be
# clean. A second instance with --queue-cap 1 proves the
# bounded queue rejects a flood with structured 503s.
rm -rf target/serve_ci_run
cargo run --release --offline --bin adaptraj -- \
    run --backbone pecnet --method vanilla --sources eth_ucy --target l_cas \
    --epochs 1 --workers 2 --seed 7 --out target/serve_ci_run || fail=1
rm -f target/serve_ci.log
cargo run --release --offline --bin adaptraj -- \
    serve --addr 127.0.0.1:0 --checkpoint target/serve_ci_run/checkpoint.atps \
    --backbone pecnet --method vanilla --sources eth_ucy \
    --workers 2 > target/serve_ci.log 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr=$(grep -o 'http://[0-9.]*:[0-9]*' target/serve_ci.log | head -1 || true)
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "serve never reported a bound address"; cat target/serve_ci.log; fail=1
    kill "$serve_pid" 2>/dev/null || true
else
    cargo run --release --offline -p adaptraj-serve --bin serve_gate -- \
        --addr "${serve_addr#http://}" --golden results/SERVE_golden.json \
        --shutdown || fail=1
fi
wait "$serve_pid" || { echo "serve exited nonzero"; cat target/serve_ci.log; fail=1; }
rm -f target/serve_flood_ci.log
cargo run --release --offline --bin adaptraj -- \
    serve --addr 127.0.0.1:0 --checkpoint target/serve_ci_run/checkpoint.atps \
    --backbone pecnet --method vanilla --sources eth_ucy \
    --workers 1 --queue-cap 1 \
    > target/serve_flood_ci.log 2>&1 &
flood_pid=$!
flood_addr=""
for _ in $(seq 1 100); do
    flood_addr=$(grep -o 'http://[0-9.]*:[0-9]*' target/serve_flood_ci.log | head -1 || true)
    [ -n "$flood_addr" ] && break
    sleep 0.1
done
if [ -z "$flood_addr" ]; then
    echo "flood serve never reported a bound address"; cat target/serve_flood_ci.log; fail=1
    kill "$flood_pid" 2>/dev/null || true
else
    cargo run --release --offline -p adaptraj-serve --bin serve_gate -- \
        --addr "${flood_addr#http://}" --flood 12 --shutdown || fail=1
fi
wait "$flood_pid" || { echo "flood serve exited nonzero"; cat target/serve_flood_ci.log; fail=1; }

step "flight-recorder smoke (run --out trace.json + Chrome trace validation)"
# Tiny training run with the execution timeline enabled, then validate
# the run record's Chrome trace document: required keys (ph/ts/pid/tid/name),
# non-negative timestamps/durations, and the executor + trainer + model
# span set. Every profiled op must sit under some span (train, evaluate,
# ...): an `(unattributed)` folded stack means a job lost its
# dispatcher's span path.
rm -rf target/trace_ci_run
cargo run --release --offline --bin adaptraj -- \
    run --backbone pecnet --method vanilla --sources eth_ucy --target l_cas \
    --epochs 1 --workers 2 --out target/trace_ci_run || fail=1
cargo run --release --offline -p adaptraj-bench --bin trace_check -- \
    target/trace_ci_run/trace.json \
    --require queue_wait --require job_run --require grad_reduce \
    --require epoch --require encode || fail=1
if grep -q '^(unattributed)' target/trace_ci_run/trace.folded; then
    echo "unattributed ops in target/trace_ci_run/trace.folded:"
    grep '^(unattributed)' target/trace_ci_run/trace.folded
    fail=1
fi

step "telemetry endpoint smoke (/metrics + /healthz scrape)"
# Binds port 0, scrapes /metrics (Prometheus text incl. p999 quantiles),
# /healthz, and /profile through a real TCP round trip.
cargo test -q --offline --test telemetry serve_ || fail=1

step "health observatory smoke (clean run -> doctor exits zero)"
# Fixed-seed run with the observatory armed: per-domain gradient norms,
# pairwise cosines, and update ratios land in each epoch record of the
# run manifest; the doctor must find nothing fatal and exit zero. The
# manifest is the run's one event stream: it carries the final metrics
# registry, and no separate events file is written.
rm -rf target/health_ci_run
cargo run --release --offline --bin adaptraj -- \
    run --backbone pecnet --method adaptraj --sources eth_ucy,l_cas,syi \
    --target sdd --epochs 2 --workers 2 --seed 7 \
    --out target/health_ci_run || fail=1
grep -q '"metrics":\[' target/health_ci_run/manifest.json || {
    echo "manifest carries no metrics array"; fail=1; }
[ ! -e target/health_ci_run/events.jsonl ] || {
    echo "run record still holds events.jsonl"; fail=1; }
cargo run --release --offline --bin adaptraj -- \
    doctor --run target/health_ci_run || fail=1

step "health observatory smoke (injected NaN -> tripwire -> doctor exits nonzero)"
# Poisons every op of window 3 in epoch 0 (the worker-count-deterministic
# E:W injection form) under halt-and-dump, once for AdapTraj and once for
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
        --health-policy halt-and-dump --out "$run_dir"; then
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
