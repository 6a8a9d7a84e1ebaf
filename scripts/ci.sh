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

echo "### full-fidelity trace smoke (faulted paper testbed)"
# `--trace-full` writes every event, per-gang grants and placement
# provenance included; `gfair-trace kinds` must parse every line of it.
cargo run --release --quiet --bin gfair -- simulate --cluster paper \
    --users 8 --jobs 300 --seed 3 --faults examples/faults.json \
    --trace-full target/trace-full-smoke.jsonl
cargo run --release --quiet -p gfair-tracetool --bin gfair-trace -- \
    kinds target/trace-full-smoke.jsonl

echo "### cargo test"
cargo test --workspace -q

echo "### debug-build bursty placement smoke (placement oracle)"
# Debug builds check every placement, retry and balancer target against
# the scorer's full scan of the same reachable servers. 40000 arrivals per hour on 800 servers put about
# 670 placements in each round, so the least-loaded walk skips this round's
# touched servers on nearly every pick; at 3000 per hour the walk's start
# sits mid-order and finishes beyond it must pull it back. The failed
# server moves resident loads between picks. A few seconds per policy.
# The `--trace-full` run takes the same picks while building provenance for
# every placement and retry, checked against the same oracle.
for policy in gfair themis-ftf; do
    for rate in 40000 3000; do
        cargo run --quiet --bin gfair -- simulate --cluster homogeneous:800x8 \
            --policy "$policy" --users 32 --jobs 12000 --jobs-per-hour "$rate" \
            --median-mins 8 --horizon-hours 1 --fail 3@0-1 > /dev/null
    done
done
cargo run --quiet --bin gfair -- simulate --cluster homogeneous:800x8 \
    --policy gfair --users 32 --jobs 12000 --jobs-per-hour 3000 \
    --median-mins 8 --horizon-hours 1 --fail 3@0-1 \
    --trace-full target/placement-smoke-full.jsonl > /dev/null

echo "### debug-build faulted testbed runs (engine and policy-input oracles)"
# Debug builds compare the engine's incremental run-set check
# (validate_run_sets) with the full check (check_run_sets) every round,
# and every policy-input refresh with its from-scratch oracle. These runs
# and `cargo test` are the only re-check of run sets left in place between
# plans: the auditor does not check run sets. They put both oracles under
# the fault plan's partitions, flaps, failed migrations and retries, plus
# a server failure that evicts its residents. A few seconds per policy.
for policy in gfair gavel-hetero themis-ftf; do
    cargo run --quiet --bin gfair -- simulate --cluster paper --users 8 \
        --jobs 300 --seed 3 --faults examples/faults.json --fail 1@1-3 \
        --policy "$policy" > /dev/null
done

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
# Runs the 5000-GPU scale twice — optimized (lazy settling) and naive
# (every server re-planned every round) — both clean and under a fault
# plan, and byte-compares the SimReport JSON. Any divergence between the
# optimized loop and the naive one fails the gate. 5000 GPUs (not 1000) so the incremental balancer,
# staged event queue, and lazy settling are exercised at a scale where
# they actually engage.
cargo run --release -p gfair-bench --bin bench_sim -- \
    --verify --only 5000gpu --policy gfair

echo "### equivalence gate (5000 GPUs, policy zoo)"
# The same optimized-vs-naive byte comparison for the competitor policies,
# which share gfair's PolicyScheduler driver, migration retry included:
# the batched water-filler and the partial-selection Themis auction must be
# exactly the algorithms they replaced, under faults included.
cargo run --release -p gfair-bench --bin bench_sim -- \
    --verify --only 5000gpu --policy gavel-hetero
cargo run --release -p gfair-bench --bin bench_sim -- \
    --verify --only 5000gpu --policy themis-ftf

echo "### long-horizon equivalence gate (200 GPUs, 52 h, policy zoo)"
# Lazy settling lets an uncontended server's stride state lag until
# something touches it, however many rounds that takes. The 5000-GPU gate
# covers about 280 rounds; this scale runs about 3000, clean and faulted,
# so long catch-up fast-forwards are byte-compared against per-round
# planning too. Under a second per policy.
for policy in gfair gavel-hetero themis-ftf; do
    cargo run --release -p gfair-bench --bin bench_sim -- \
        --verify --only 200gpu-long --policy "$policy"
done

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

echo "### observability overhead smoke (5000 GPUs)"
# Runs the 5000-GPU scale tracing-off vs tracing-on (the default-tier JSONL
# sink) in the same process, both arms in the default configuration (lazy
# settling on: traced and untraced runs plan on the same path), and fails
# if traced throughput drops below 75% of untraced. Guards the "pay for
# what you observe" contract; the ratio budget is restated when the
# untraced loop gets much faster (see the bench_sim module docs).
cargo run --release -p gfair-bench --bin bench_sim -- --obs-overhead --only 5000gpu

echo "### non-test Rust lines (information only, not a gate)"
bash scripts/loc.sh

echo "CI gate passed."
