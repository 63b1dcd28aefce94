#!/usr/bin/env bash
# Tier-1 CI gate: release build, tests, formatting, lints.
# The workspace vendors its external dependencies (see vendor/), so this
# runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

# Warnings are errors for the tier-1 build: rustc must come back clean
# before clippy gets its adversarial pass below.
RUSTFLAGS="-D warnings" cargo build --release --offline
cargo test -q --offline
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Resilience smoke: journaled 20-run campaign with a forced harness panic
# and a watchdog budget, killed mid-way (journal truncation) and resumed;
# the resumed outcome CSV must be byte-identical to an uninterrupted run.
# Then the shard supervisor: a subprocess shard worker is killed
# mid-campaign and must be retried/resumed to a merged CSV byte-identical
# to the unsharded reference, and a shard that exhausts its retries must
# degrade to quarantined shard-lost rows with the campaign still completing.
cargo run --release --offline -p chaser-bench --bin resilience_smoke

# Provenance smoke: inject one worker fault into matvec, require the
# provenance graph to carry it across ranks (>=1 message edge, reach >=2),
# and require the DOT/JSON exports to stay byte-identical across runs from
# launch, runs restored from a ladder rung and journal-resumed campaigns.
cargo run --release --offline -p chaser-bench --bin provenance_smoke

# Serve smoke: campaign-as-a-service end to end. Starts the daemon on a
# Unix socket, submits two concurrent tenant campaigns (thread and
# subprocess shard workers), kills one subprocess shard worker
# mid-campaign and requires supervisor recovery, then diffs both jobs'
# merged CSVs against standalone run_journaled references. A second
# daemon is drained mid-campaign (run-granular checkpoint) and restarted
# over the same state directory; the resumed job's merged output must be
# byte-identical to standalone. Also gates the warmed prepared-app pool
# (same-key campaigns must share one PreparedApp).
cargo run --release --offline -p chaser-bench --bin serve_smoke

# Hot-path smoke: prove the tb_chaining / taint_fast_path knobs
# observationally inert (outcome CSV, provenance exports, state digest
# byte-identical). Engine throughput is not timed here: the ledger's
# bounds on injection campaigns are the performance gate. Also gates
# intra-run rank parallelism: an 8-rank workload at the default quantum
# must be digest-identical serial vs rank_threads=min(4, cores) and faster
# by 1.5x (calibrated down to the host's measured raw thread-scaling
# ceiling on throttled CI containers). Records shard-scaling numbers (1 vs
# 4 thread-worker shards, record-only) for later distributed work. Writes
# BENCH_engine.json.
cargo run --release --offline -p chaser-bench --bin perf_smoke

# Statistical-mode smoke: the same matched 200-run campaign under
# trace=off and trace=full must agree on every run's terminal
# classification (trace=off classifies from termination cause + golden
# digest alone), and trace=off must sustain a host-calibrated >=2x
# injections/sec over trace=full. Merges injections_per_sec_off /
# injections_per_sec_full / statistical_speedup into BENCH_engine.json.
cargo run --release --offline -p chaser-bench --bin statistical_smoke

# Ledger smoke: the benchmark's correctness gate at 1/10 size (golden
# output == host reference, outcome CSV identical across repetitions,
# traced rows == untraced rows, no failed run) on the two halves of the
# engine loop: the rank-parallel trace=off workload (clean regime
# throughout) and the trace=taint lud workload (a third of its memory ops
# on the tainted tiers, regime flip at the injection). The third run is the
# traced half of the checkpoint ladder: on matvec4_full_cold (trace=full +
# provenance) the frozen traced driver executes every run from launch while
# `Campaign::run` restores from the ladder, and their rows must match.
# Exits non-zero on any check; the numbers it prints are not comparable
# (`--quick`).
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload clamr4_off_rankpar
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload lud1_taint_cold
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload matvec4_full_cold
