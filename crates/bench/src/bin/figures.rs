//! Regenerates one table or figure of the paper's evaluation, or `all` of
//! them, each at its own default `--runs` unless the flag is given:
//!
//! `figures <artefact>|all [--runs N] [--seed N] [--size N] [--ranks N] [--csv PATH]`
//!
//! `cargo run --release -p chaser-bench --bin figures -- table3_termination --runs 3000`

fn main() {
    let selected = chaser_bench::parse_command_line(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", chaser_bench::usage());
        std::process::exit(2)
    });
    for (artefact, args) in selected {
        print!("{}", (artefact.render)(&args));
    }
}
