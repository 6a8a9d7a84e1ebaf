#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, release build,
# and the whole test suite. CI (.github/workflows/ci.yml) runs exactly this.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "### cargo fmt --check"
cargo fmt --all -- --check

echo "### cargo clippy (deny warnings)"
# field_reassign_with_default is allowed: tests and examples configure
# PhillyParams by mutating a default, which reads better than struct-update
# syntax for one or two fields.
cargo clippy --workspace --all-targets -- -D warnings \
    -A clippy::field_reassign_with_default

echo "### cargo build --release"
cargo build --release

echo "### cargo test"
cargo test --workspace -q

echo "### shim tests"
# Cargo.toml excludes the vendored shims from the workspace, so
# `--workspace` never runs their own tests; name them explicitly.
cargo test -q -p serde -p serde_json -p serde_derive -p rand -p rand_chacha -p proptest

echo "### cargo doc (deny warnings: library crates)"
# Deny rustdoc warnings so public-API doc gaps (in the crates that carry
# #![warn(missing_docs)]) and stale intra-doc links fail the gate instead
# of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p gfair-types -p gfair-obs -p gfair-faults \
    -p gfair-sim -p gfair-core -p gfair-metrics -p gfair-policies \
    -p gfair-stride -p gfair-baselines -p gfair-workloads -p gfair-tracetool

echo "### bench smoke"
# A quick pass of the simulator throughput bench. The JSON goes under
# target/ so CI never dirties the tracked BENCH_sim.json baseline;
# regenerate that deliberately with scripts/bench.sh.
cargo run --release -p gfair-bench --bin bench_sim -- --quick \
    --out target/BENCH_sim.quick.json

echo "### policy zoo smoke (P1 faceoff, 2h horizon)"
# Runs all three AllocPolicy implementations (gfair, gavel-hetero,
# themis-ftf) end-to-end on a short horizon. Catches a policy that
# panics, deadlocks, or trips the invariant auditor without paying for
# the full 8-hour P1 run.
cargo run --release -p gfair-bench --bin exp_p1_policy_faceoff -- --horizon-hours 2

echo "### equivalence gate (5000 GPUs, gfair)"
# Runs the 5000-GPU scale twice — fully optimized (fast-forward + lazy
# settling) and fully naive (both off, every quantum stepped, every server
# re-planned) — both clean and under a fault plan, and byte-compares the
# SimReport JSON. Any divergence between the optimized loop and the naive
# one fails the gate. 5000 GPUs (not 1000) so the incremental balancer,
# sharded event queue, and lazy settling are exercised at a scale where
# they actually engage.
cargo run --release -p gfair-bench --bin bench_sim -- \
    --verify --only 5000gpu --policy gfair

echo "### equivalence gate (5000 GPUs, policy zoo)"
# The same optimized-vs-naive byte comparison for the competitor policies,
# which share gfair's PolicyScheduler driver but not its migration retry:
# the batched water-filler and the partial-selection Themis auction must be
# exactly the algorithms they replaced, under faults included.
cargo run --release -p gfair-bench --bin bench_sim -- \
    --verify --only 5000gpu --policy gavel-hetero
cargo run --release -p gfair-bench --bin bench_sim -- \
    --verify --only 5000gpu --policy themis-ftf

echo "### repo benchmark smoke (all four workloads, 1/50 size)"
# About 1/50 of each BENCHMARK.json workload, all three policies: checks
# the auditor, the accounting identities and that report digests match
# across repetitions. Runs BENCHMARK.json's own command, so CI builds the
# standalone benchmark package exactly as the benchmark pipeline does (its
# lockfile and target directory are gitignored). `--trace 1` alternates
# untraced and traced repetitions, so the per-layer path runs too and the
# traced children's report digests must equal the untraced ones. Results go
# under target/.
cargo run --release --offline --quiet \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke \
    --trace 1 --out target/benchmark/smoke.json

echo "### throughput regression gate (5000 GPUs, best of 3, all policies)"
# Re-measures the 5000-GPU scale three times per policy (gfair plus the
# zoo — 5000 GPUs is a per-policy scale), keeps each policy's fastest run,
# and fails if any per-GPU throughput (gpu_hours_per_wall_sec) fell more
# than 10% below the matching (scale, policy) row of the committed
# BENCH_sim.json baseline — the scaling work's guardrail. Best-of-three
# because single runs on shared runners jitter by more than the margin this
# gate polices; the JSON goes under target/ so the tracked baseline stays
# clean (regenerate it with scripts/bench.sh).
cargo run --release -p gfair-bench --bin bench_sim -- \
    --only 5000gpu --best-of 3 --check-against BENCH_sim.json \
    --out target/BENCH_sim.check.json

echo "### observability overhead smoke (1000 GPUs)"
# Runs the 1000-GPU scale tracing-off vs tracing-on (the default-tier JSONL
# sink) in the same process, both arms with lazy settling off (tracing
# forces eager planning, so eager/eager is the pair that isolates the
# tracing cost), and fails if traced throughput drops below 75% of
# untraced. Guards the "pay for what you observe" contract; the ratio
# budget is restated when the untraced loop gets much faster (see the
# bench_sim module docs).
cargo run --release -p gfair-bench --bin bench_sim -- --obs-overhead --only 1000gpu

echo "CI gate passed."
