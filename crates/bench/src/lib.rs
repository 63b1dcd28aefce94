//! # chaser-bench
//!
//! Harness binaries regenerating every table and figure of the Chaser
//! paper's evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results), the `chaser_cli`
//! terminal, and the `ledger` — the repository's one performance
//! instrument (`BENCHMARK.json`, `src/bin/ledger/README.md`).
//!
//! | Artefact | Binary |
//! |---|---|
//! | Table I (fault models) | `table1_models` |
//! | Table II (injector LoC) | `table2_loc` |
//! | Table III (Matvec termination breakdown) | `table3_termination` |
//! | Fig. 6 (outcome distribution per app) | `fig6_outcomes` |
//! | Fig. 7 (tainted bytes over time) | `fig7_tainted_bytes` |
//! | Fig. 8 (tainted-read histogram) | `fig8_taint_reads` |
//! | Fig. 9 (tainted-write histogram) | `fig9_taint_writes` |
//! | Fig. 10 (runtime overhead) | `fig10_overhead` |
//! | §IV-B CLAMR detection stats | `clamr_case_study` |
//! | Cross-rank propagation provenance (Matvec) | `fig6_propagation` |
//!
//! Every artefact binary accepts `--runs N`, `--seed N`, `--size N`,
//! `--ranks N` and `--csv PATH` so the full paper-scale campaign (thousands
//! of runs) is reproducible when given the cycles; defaults keep each
//! binary in the tens of seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chaser::AppSpec;
use chaser_workloads::{bfs, clamr, kmeans, lud, matvec};

/// Common command-line arguments for the harness binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Injection runs per campaign.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Problem-size knob (meaning is per-workload).
    pub size: usize,
    /// MPI ranks for the parallel workloads.
    pub ranks: u32,
    /// Dump per-run campaign results as CSV to this path.
    pub csv: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> HarnessArgs {
        HarnessArgs {
            runs: 200,
            seed: 0xC4A5E12,
            size: 0, // 0 = workload default
            ranks: 4,
            csv: None,
        }
    }
}

/// What the artefact binaries print (to stderr, exit status 2) on a bad
/// command line.
const USAGE: &str = "usage: [--runs N] [--seed N] [--size N] [--ranks N] [--csv PATH]";

impl HarnessArgs {
    /// Parses `--runs / --seed / --size / --ranks / --csv` from `args` (the
    /// command line without the program name), starting from the given
    /// defaults.
    ///
    /// # Errors
    ///
    /// A one-line message naming the flag that has no value, the value
    /// that is not a number, or the argument that is not a flag.
    pub fn parse_from(
        mut defaults: HarnessArgs,
        mut args: impl Iterator<Item = String>,
    ) -> Result<HarnessArgs, String> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a number, got `{value}`"))
        }
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} takes a value"));
            match flag.as_str() {
                "--runs" => defaults.runs = number(&flag, &value()?)?,
                "--seed" => defaults.seed = number(&flag, &value()?)?,
                "--size" => defaults.size = number(&flag, &value()?)?,
                "--ranks" => defaults.ranks = number(&flag, &value()?)?,
                "--csv" => defaults.csv = Some(value()?),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(defaults)
    }

    /// Parses `std::env::args` over the given defaults; a bad command line
    /// prints one usage line to stderr and exits with status 2.
    pub fn parse_with(defaults: HarnessArgs) -> HarnessArgs {
        HarnessArgs::parse_from(defaults, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses with the standard defaults.
    pub fn parse() -> HarnessArgs {
        HarnessArgs::parse_with(HarnessArgs::default())
    }
}

/// The Matvec application at `size` (matrix dimension; 0 = default 16).
pub fn matvec_app(args: &HarnessArgs) -> (AppSpec, matvec::MatvecConfig) {
    let cfg = matvec::MatvecConfig {
        n: if args.size == 0 { 16 } else { args.size },
        ranks: args.ranks,
        seed: 7,
    };
    (
        AppSpec::replicated(
            matvec::program(&cfg),
            cfg.ranks as usize,
            args.ranks as usize,
        ),
        cfg,
    )
}

/// The clamr_sim application at `size` (global cells; 0 = default 64).
pub fn clamr_app(args: &HarnessArgs) -> (AppSpec, clamr::ClamrConfig) {
    let cfg = clamr_config(args);
    (
        AppSpec::replicated(
            clamr::program(&cfg),
            cfg.ranks as usize,
            args.ranks as usize,
        ),
        cfg,
    )
}

/// The clamr_sim configuration used by the harnesses.
pub fn clamr_config(args: &HarnessArgs) -> clamr::ClamrConfig {
    let ncells = if args.size == 0 { 64 } else { args.size };
    clamr::ClamrConfig {
        ncells,
        ranks: args.ranks,
        ..clamr::ClamrConfig::default()
    }
}

/// A larger clamr_sim (more cells, more steps) for the propagation-series
/// figure, where the run must span many 100K-instruction samples.
pub fn clamr_app_long(args: &HarnessArgs) -> (AppSpec, clamr::ClamrConfig) {
    let ncells = if args.size == 0 { 128 } else { args.size };
    let cfg = clamr::ClamrConfig {
        ncells,
        ranks: args.ranks,
        steps: 160,
        ..clamr::ClamrConfig::default()
    };
    (
        AppSpec::replicated(
            clamr::program(&cfg),
            cfg.ranks as usize,
            args.ranks as usize,
        ),
        cfg,
    )
}

/// The bfs application at `size` (node count; 0 = default 128).
pub fn bfs_app(args: &HarnessArgs) -> (AppSpec, bfs::BfsConfig) {
    let cfg = bfs::BfsConfig {
        nodes: if args.size == 0 { 128 } else { args.size },
        ..bfs::BfsConfig::default()
    };
    (AppSpec::single(bfs::program(&cfg)), cfg)
}

/// The kmeans application at `size` (point count; 0 = default 64).
pub fn kmeans_app(args: &HarnessArgs) -> (AppSpec, kmeans::KmeansConfig) {
    let cfg = kmeans::KmeansConfig {
        npoints: if args.size == 0 { 64 } else { args.size },
        ..kmeans::KmeansConfig::default()
    };
    (AppSpec::single(kmeans::program(&cfg)), cfg)
}

/// The lud application at `size` (matrix dimension; 0 = default 16).
pub fn lud_app(args: &HarnessArgs) -> (AppSpec, lud::LudConfig) {
    let cfg = lud::LudConfig {
        n: if args.size == 0 { 16 } else { args.size },
        ..lud::LudConfig::default()
    };
    (AppSpec::single(lud::program(&cfg)), cfg)
}

/// Renders an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats `x` out of `total` as `"count (pp.pp%)"`.
pub fn pct(x: u64, total: u64) -> String {
    format!("{x} ({:.2}%)", 100.0 * x as f64 / total.max(1) as f64)
}

/// Writes a campaign's per-run CSV when `--csv` was given.
pub fn maybe_write_csv(args: &HarnessArgs, result: &chaser::CampaignResult) {
    if let Some(path) = &args.csv {
        std::fs::write(path, result.to_csv()).expect("write --csv file");
        println!("(per-run results written to {path})");
    }
}

/// A crude text histogram bar.
pub fn bar(count: u64, max: u64, width: usize) -> String {
    let filled = ((count as f64 / max.max(1) as f64) * width as f64).round() as usize;
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_apps_build() {
        let args = HarnessArgs::default();
        let (app, _) = matvec_app(&args);
        assert_eq!(app.nranks(), 4);
        let (app, _) = clamr_app(&args);
        assert_eq!(app.nranks(), 4);
        let (app, _) = bfs_app(&args);
        assert_eq!(app.nranks(), 1);
        let (app, _) = kmeans_app(&args);
        assert_eq!(app.nranks(), 1);
        let (app, _) = lud_app(&args);
        assert_eq!(app.nranks(), 1);

        // The daemon's registry restates these defaults; the two must
        // build the same programs until there is one registry.
        let served = |name| chaser_serve::build_app(name, 0, 4).expect("listed app");
        assert_eq!(matvec_app(&args).0.programs, served("matvec").programs);
        assert_eq!(clamr_app(&args).0.programs, served("clamr_sim").programs);
        assert_eq!(bfs_app(&args).0.programs, served("bfs").programs);
        assert_eq!(kmeans_app(&args).0.programs, served("kmeans").programs);
        assert_eq!(lud_app(&args).0.programs, served("lud").programs);
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(HarnessArgs::default(), args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_reads_every_flag() {
        let parsed = parse(&[
            "--runs", "7", "--seed", "9", "--size", "32", "--ranks", "2", "--csv", "out.csv",
        ]);
        assert_eq!(
            parsed,
            Ok(HarnessArgs {
                runs: 7,
                seed: 9,
                size: 32,
                ranks: 2,
                csv: Some("out.csv".into()),
            })
        );
        assert_eq!(parse(&[]), Ok(HarnessArgs::default()));
    }

    #[test]
    fn parse_rejects_bad_command_lines() {
        // A trailing flag used to be dropped silently: `--runs` ran 200.
        assert_eq!(
            parse(&["--seed", "1", "--runs"]).unwrap_err(),
            "--runs takes a value"
        );
        assert_eq!(
            parse(&["--runs", "many"]).unwrap_err(),
            "--runs takes a number, got `many`"
        );
        assert_eq!(parse(&["--help"]).unwrap_err(), "unknown argument `--help`");
    }

    #[test]
    fn pct_and_bar_format() {
        assert_eq!(pct(1, 4), "1 (25.00%)");
        assert_eq!(bar(5, 10, 10), "#####");
        assert_eq!(bar(0, 10, 10), "");
    }
}
