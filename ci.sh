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
cargo test -q --offline
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

# Ledger smoke: the benchmark's correctness gate at 1/10 size (golden
# output == host reference, outcome CSV identical across repetitions,
# traced rows == untraced rows, no failed run) on the two halves of the
# engine loop: the rank-parallel trace=off workload (fully-clean regime
# throughout) and the trace=taint lud workload (regime flips at the
# injection and at tainted loads; about a third of its memory ops take the
# page-gated shadow path, with provenance pages live, but its ALU ops pay
# for shadow work only in blocks that start with a tainted register,
# DESIGN.md §9). The third run is the
# traced half of the checkpoint ladder: on matvec4_full_cold (trace=full +
# provenance) the frozen traced driver executes every run from launch while
# `Campaign::run` restores from the ladder, and their rows must match.
# The same run guards the page-granular message exchange (DESIGN.md §5):
# every payload's taint and provenance crosses ranks one guest page at a
# time, so its golden output and its traced rows == ladder rows check that
# exchange end to end on the one ledger workload whose messages carry taint.
# The fourth is the served path: short bfs runs, where the injector's
# trigger countdown carries most of each run's saving, submitted by two
# tenants to the daemon; its rows must equal the standalone campaign's
# CSV and every row must stream back.
# Exits non-zero on any check; the numbers it prints are not comparable
# (`--quick`).
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload clamr4_off_rankpar
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload lud1_taint_cold
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload matvec4_full_cold
cargo run --release --offline -p chaser-bench --bin ledger -- --quick --workload served_bfs_2tenant

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "ci.sh changed the working tree:" >&2
    diff <(echo "$tree_before") <(git status --porcelain) >&2 || true
    exit 1
fi
