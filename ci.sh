#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run from the workspace root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# --workspace matters: the root is a facade package, so a bare
# `cargo build`/`cargo test` would only cover it, leaving the member
# crates' binaries and test suites out of the gate.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Examples are not covered by --workspace builds or `cargo test`; keep
# them compiling.
echo "==> cargo build --workspace --examples"
cargo build --workspace --examples

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# perfbench is a workspace of its own that calls the harness's public
# functions; this keeps it compiling (and its own tests passing) when
# they change.
echo "==> perfbench tests (cargo test --manifest-path perfbench/Cargo.toml)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> trace write/read round trip (emit JSONL, re-parse with bench::minijson)"
cargo run --release -q -p bench --bin trace_roundtrip

echo "==> checkpoint write/resume round trip (kill mid-run, reload, bit-identical resume)"
cargo run --release -q -p bench --bin checkpoint_roundtrip

echo "==> numeric fast-path smoke (f32 + active-set vs f64 oracle within DESIGN §12 tolerance)"
cargo run --release -q -p bench --bin numeric_smoke

echo "==> fig_fault_sweep smoke (tiny degraded grid, trace re-parse self-check)"
cargo run --release -q -p bench --bin fig_fault_sweep -- --smoke --trace artifacts/fig_fault_sweep_smoke.jsonl

echo "==> design_frontier (design-space enumeration: both CSVs and the JSONL trace)"
cargo run --release -q -p bench --bin design_frontier -- --trace artifacts/design_frontier.jsonl

echo "==> serve smoke (forced preemption, lifecycle trace re-parse, deterministic rerun, cache-hit digest equality, NaN-safe percentile, forced-shed admission gate)"
cargo run --release -q -p retrsu-serve --bin serve_smoke

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> CI green"
