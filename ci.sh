#!/usr/bin/env bash
# Tier-1 CI gate: release build, tests, formatting, lints, then the ledger's
# correctness gate. `cargo test` is the only thing that gates behaviour and
# the ledger the only thing that times anything (DESIGN.md §15, §16). The
# paper's artefacts are pinned inside `cargo test`: chaser-bench's
# `experiments_lock_pins_every_artefact` renders every `figures` artefact
# and compares it with EXPERIMENTS.lock, so there is no separate step here.
# The workspace vendors its external dependencies (see vendor/), so this
# runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

# A CI run must leave the checkout as it found it: nothing tracked
# rewritten, nothing untracked left outside .gitignore.
tree_before=$(git status --porcelain)

# Warnings are errors for the tier-1 build: rustc must come back clean
# before clippy gets its adversarial pass below.
RUSTFLAGS="-D warnings" cargo build --release --offline

# Tests make their scratch directories under TMPDIR. Give them a fresh one
# under the ignored target/ and fail if any `chaser-*` entry is left in it:
# the clean-tree check at the end cannot see the system temp directory.
test_tmp="$PWD/target/ci-tmp"
rm -rf "$test_tmp"
mkdir -p "$test_tmp"
TMPDIR="$test_tmp" cargo test -q --offline
leftover=$(find "$test_tmp" -mindepth 1 -maxdepth 1 -name 'chaser-*')
if [ -n "$leftover" ]; then
    echo "cargo test left scratch entries in TMPDIR:" >&2
    echo "$leftover" >&2
    exit 1
fi

# The engine against its independent reference executor once more, in
# release mode: campaigns and the ledger run release code, where the
# taint-regime `debug_assert!`s that `cargo test` keeps on are compiled
# out (DESIGN.md §9, §15).
cargo test --release -q --offline -p chaser-vm --test prop_semantics
# The layered cache too: looping programs re-dispatch blocks from the jump
# cache across mid-run overlay flushes, warmed node against fresh node.
cargo test --release -q --offline -p chaser-vm --test prop_layered_cache
# The hostile-MPI property too: release builds wrap the arithmetic that
# debug builds panic on, so a corrupted argument must classify in both.
cargo test --release -q --offline -p chaser-mpi --test prop_hostile_mpi
# And the paged shadow against its byte models: in release the page-summary
# `debug_assert`s compile out and the `u32` summary arithmetic wraps instead
# of panicking, so only the model comparison catches a drifted count.
cargo test --release -q --offline -p chaser-taint --test prop_shadow

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve, so a doc comment left
# pointing at a deleted item fails here. One `-p` per `crates/*` package,
# not `--workspace`: the vendored proptest stub has an ambiguous doc link.
# Output goes under the ignored target/.
doc_pkgs=()
for manifest in crates/*/Cargo.toml; do
    doc_pkgs+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps "${doc_pkgs[@]}"

# Trace consumers outside the tests: the five examples and the README's
# chaser_cli script (`run` prints from the trace summary and the provenance
# graph, `trace` walks the graph), then the CLI's sharded path: a campaign
# over two self-exec `serve-worker` subprocesses that rebuild it from the
# journal directory's spec.json. About 150 ms together in release mode;
# the CLI removes its journal directory once the merged result is in hand.
# A panic fails the step; script mode prints a failed campaign and still
# exits 0, so the campaign's summary lines are asserted.
for example in quickstart trace_matvec clamr_study custom_injector asm_workbench; do
    cargo run --release --offline -q -p chaser --example "$example" > /dev/null
done
cli_out=$(cargo run --release --offline -q -p chaser-bench --bin chaser_cli -- \
    --script "load matvec; inject_fault matvec fadd 1 51 1; run; inject_fault matvec fadd 1 51 1; trace; load matvec; campaign 20 2 proc; quit")
for expected in "outcomes: " "shard stats: 2 shard(s), 0 retries"; do
    if ! grep -qF -- "$expected" <<< "$cli_out"; then
        echo "chaser_cli sharded campaign: no \`$expected\` line in its output:" >&2
        echo "$cli_out" >&2
        exit 1
    fi
done

# Ledger smoke: the benchmark's correctness gate at 1/10 size (golden
# output == host reference, outcome CSV identical across repetitions,
# traced rows == untraced rows, no failed run) on the two halves of the
# engine loop: the trace=off clamr workload, warm-started from the
# checkpoint ladder (fully-clean regime throughout), with its rank-parallel
# twin, and the trace=taint lud workload (regime flips at the
# injection and at tainted loads; about a third of its memory ops take the
# page-gated shadow path, with provenance pages live, but its ALU ops pay
# for shadow work only in blocks that start with a tainted register,
# DESIGN.md §9). The fourth run is the
# traced half of the checkpoint ladder: on matvec4_full_cold (trace=full +
# provenance) the frozen traced driver executes every run from launch while
# `Campaign::run` restores from the ladder, and their rows must match.
# The same run guards the page-granular message exchange (DESIGN.md §5):
# every payload's taint and provenance crosses ranks one guest page at a
# time, so its golden output and its traced rows == ladder rows check that
# exchange end to end on the one ledger workload whose messages carry taint.
# The fifth is the served path: short bfs runs, where the injector's
# trigger countdown carries most of each run's saving, submitted by two
# tenants to the daemon; its rows must equal the standalone campaign's
# CSV and every row must stream back.
# Exits non-zero on any check; the numbers it prints are not comparable
# (`--quick`).
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload clamr4_off_warm
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload clamr4_off_rankpar
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload lud1_taint_cold
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload matvec4_full_cold
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload served_bfs_2tenant

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "ci.sh changed the working tree:" >&2
    diff <(echo "$tree_before") <(git status --porcelain) >&2 || true
    exit 1
fi
