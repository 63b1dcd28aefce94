//! The metric tables: every name the ledger reports, its unit and
//! direction, the regression bound of each end-to-end metric, and — for
//! each per-layer metric — the end-to-end number it is predicted to move.
//! `BENCHMARK.json` is rendered from these tables, and a `--workload` run
//! reports exactly these names in this order.

use crate::stats::{valid_name, Value};
use crate::workloads::WORKLOADS;
use chaser::Json;

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// End-to-end metrics every workload reports with `--trace 0`.
///
/// The bounds are about twice the widest interquartile spread seen between
/// invocations on the development host (README, "Steadiness"): a bound
/// inside the noise would reject changes at random. `setup_s` takes the
/// widest, as the benchmark contract asks.
///
/// `failed_share` is also computed and printed, but it is expected to be
/// exactly 0, so it travels as the result line's `failed` / `attempted`
/// pair instead of a metric.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "injections_per_sec",
        unit: "runs/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
];

/// A per-layer metric (layer = crate name before the dot).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move, and where it is
    /// predicted flat. `ips` abbreviates `injections_per_sec`.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Per-layer metrics every workload reports with `--trace 1`. Counts
/// marked exact in the README repeat bit-for-bit for a given seed.
pub const PER_LAYER: [PerLayer; 64] = [
    pl("workloads.build_program_ms", "ms", "lower", "setup_s, all"),
    pl("isa.decode_ns", "ns", "lower", "setup_s, all (small)"),
    pl(
        "tcg.translate_ns_per_insn",
        "ns",
        "lower",
        "setup_s all; ips served_bfs_2tenant",
    ),
    pl(
        "tcg.cache_hit_ns",
        "ns",
        "lower",
        "ips cold workloads (small)",
    ),
    pl(
        "tcg.misses_per_run",
        "count",
        "lower",
        "ips cold workloads; flat clamr4_off_*",
    ),
    pl(
        "tcg.translated_insns_per_run",
        "count",
        "lower",
        "ips cold workloads; flat clamr4_off_*",
    ),
    pl(
        "tcg.base_hit_rate",
        "ratio",
        "higher",
        "ips cold workloads; flat clamr4_off_*",
    ),
    pl(
        "tcg.flushes_per_run",
        "count",
        "lower",
        "ips cold workloads; flat clamr4_off_*",
    ),
    pl(
        "tcg.superblocks_formed_per_run",
        "count",
        "higher",
        "ips clamr4_off_*, lud1_taint_cold",
    ),
    pl(
        "tcg.superblock_bailouts_per_run",
        "count",
        "lower",
        "ips clamr4_off_*, lud1_taint_cold",
    ),
    pl(
        "vm.clean_minsns_per_sec",
        "Minsn/s",
        "higher",
        "ips clamr4_off_warm, clamr4_off_rankpar; flat matvec4_full_cold",
    ),
    pl(
        "vm.taint_idle_minsns_per_sec",
        "Minsn/s",
        "higher",
        "ips lud1_taint_cold (prefix)",
    ),
    pl(
        "vm.tainted_minsns_per_sec",
        "Minsn/s",
        "higher",
        "ips lud1_taint_cold, matvec4_full_cold; flat clamr4_off_*",
    ),
    pl("vm.node_spawn_us", "us", "lower", "ips served_bfs_2tenant"),
    pl(
        "vm.chain_hit_share",
        "ratio",
        "higher",
        "ips clamr4_off_*, lud1_taint_cold",
    ),
    pl(
        "vm.slow_path_mem_share",
        "ratio",
        "lower",
        "ips lud1_taint_cold, matvec4_full_cold; 0 on trace=off",
    ),
    pl(
        "vm.campaign_minsns_per_sec",
        "Minsn/s",
        "higher",
        "derived: ips x insns per run",
    ),
    pl(
        "taint.shadow_load8_ns",
        "ns",
        "lower",
        "ips lud1_taint_cold, matvec4_full_cold; flat clamr4_off_*, served",
    ),
    pl(
        "taint.shadow_store8_ns",
        "ns",
        "lower",
        "ips lud1_taint_cold, matvec4_full_cold; flat clamr4_off_*, served",
    ),
    pl(
        "taint.prov_store8_ns",
        "ns",
        "lower",
        "ips matvec4_full_cold only",
    ),
    pl("mpi.launch_us", "us", "lower", "ips cold workloads"),
    pl("mpi.restore_us", "us", "lower", "ips clamr4_off_*"),
    pl("mpi.snapshot_us", "us", "lower", "setup_s clamr4_off_*"),
    pl("mpi.round_us_p50", "us", "lower", "ips matvec4_full_cold"),
    pl("mpi.round_us_p95", "us", "lower", "ips matvec4_full_cold"),
    pl(
        "mpi.round_us_rankpar_p50",
        "us",
        "lower",
        "ips clamr4_off_rankpar (what a persistent worker pool moves)",
    ),
    pl(
        "mpi.rounds_per_run",
        "count",
        "lower",
        "ips matvec4_full_cold",
    ),
    pl(
        "mpi.msgs_per_run",
        "count",
        "lower",
        "ips matvec4_full_cold",
    ),
    pl("mpi.bytes_per_run", "B", "lower", "ips matvec4_full_cold"),
    pl(
        "mpi.pages_cow_per_run",
        "count",
        "lower",
        "ips, peak_rss_mb clamr4_off_*",
    ),
    pl(
        "mpi.rank_imbalance",
        "ratio",
        "lower",
        "ips clamr4_off_rankpar",
    ),
    pl(
        "tainthub.publish_poll_ns",
        "ns",
        "lower",
        "ips matvec4_full_cold only",
    ),
    pl(
        "tainthub.published_per_run",
        "count",
        "lower",
        "ips matvec4_full_cold only; 0 elsewhere",
    ),
    pl(
        "tainthub.poll_hit_rate",
        "ratio",
        "higher",
        "ips matvec4_full_cold only",
    ),
    pl("core.prepare_app_ms", "ms", "lower", "setup_s, all"),
    pl("core.profile_app_ms", "ms", "lower", "setup_s, all"),
    pl(
        "core.warm_capture_ms",
        "ms",
        "lower",
        "setup_s clamr4_off_*; 0 on cold workloads",
    ),
    pl(
        "core.warm_prefix_share",
        "ratio",
        "higher",
        "ips clamr4_off_* (evidence for warm-start past arming)",
    ),
    pl("core.run_us_p50", "us", "lower", "ips, every workload"),
    pl("core.run_us_p95", "us", "lower", "ips, every workload"),
    pl(
        "core.run_fixed_us",
        "us",
        "lower",
        "ips served_bfs_2tenant, matvec4_full_cold",
    ),
    pl("core.classify_us", "us", "lower", "ips served_bfs_2tenant"),
    pl(
        "core.journal_append_us_p50",
        "us",
        "lower",
        "ips served_bfs_2tenant",
    ),
    pl(
        "core.journal_append_us_p95",
        "us",
        "lower",
        "ips served_bfs_2tenant (lands on the fsync row)",
    ),
    pl(
        "core.exec_share",
        "ratio",
        "higher",
        "share of the traced body inside core.run",
    ),
    pl(
        "core.body_self_share",
        "ratio",
        "lower",
        "ips, every workload (scheduling, sort, merge)",
    ),
    pl(
        "core.journal_read_krows_per_sec",
        "krows/s",
        "higher",
        "serve.done_lag_ms, ips served_bfs_2tenant",
    ),
    pl(
        "core.shard_merge_krows_per_sec",
        "krows/s",
        "higher",
        "serve.done_lag_ms, ips served_bfs_2tenant",
    ),
    pl(
        "core.csv_render_ms",
        "ms",
        "lower",
        "serve.done_lag_ms, ips served_bfs_2tenant",
    ),
    pl(
        "serve.frame_encode_ns",
        "ns",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "serve.frame_decode_ns",
        "ns",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "serve.spec_roundtrip_us",
        "us",
        "lower",
        "ips served_bfs_2tenant only (small)",
    ),
    pl(
        "serve.pool_hit_us",
        "us",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "serve.status_rtt_us",
        "us",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "serve.first_row_ms",
        "ms",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "serve.done_lag_ms",
        "ms",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "serve.overhead_share",
        "ratio",
        "lower",
        "ips served_bfs_2tenant only",
    ),
    pl(
        "host.spin_mops",
        "Mops/s",
        "higher",
        "noise guard, not a layer",
    ),
    pl(
        "host.spin_drift",
        "ratio",
        "lower",
        "noise guard: > 1.10 marks the run noisy",
    ),
    pl(
        "ledger.trace_overhead",
        "ratio",
        "lower",
        "cost of span recording in the traced pass",
    ),
    pl(
        "ledger.rows",
        "count",
        "higher",
        "invariant: rows of the traced prefix",
    ),
    pl(
        "ledger.skipped",
        "count",
        "lower",
        "invariant: never-fired runs of the traced prefix",
    ),
    pl(
        "ledger.golden_insns",
        "count",
        "lower",
        "invariant: golden-run instructions",
    ),
    pl(
        "ledger.golden_rounds",
        "count",
        "lower",
        "invariant: golden-run scheduler rounds",
    ),
];

/// `json` in the simulator's canonical encoding.
pub fn encode(json: &Json) -> String {
    let mut out = String::new();
    chaser::encode_json(json, &mut out);
    out
}

fn json_str(s: &str) -> String {
    encode(&Json::Str(s.to_string()))
}

/// The metrics of a result line: one value per `(name, unit)` of the table
/// the pass reports, in table order.
///
/// # Panics
///
/// Panics when the pass did not measure a metric its table promises.
pub fn report<'a>(
    table: impl Iterator<Item = (&'a str, &'a str)>,
    measured: &[(&str, f64)],
) -> Vec<Value> {
    table
        .map(|(name, unit)| {
            let (_, value) = measured
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            Value::new(name, *value, unit)
        })
        .collect()
}

/// Renders `BENCHMARK.json` from the tables above. `command` and `paths`
/// name the standalone package in this directory.
pub fn manifest(run_seconds: u64) -> String {
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "`{name}` is outside the name charset");
    }
    let dir = "crates/bench/src/bin/ledger";
    let command: Vec<String> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{dir}/Cargo.toml"),
        "--",
    ]
    .iter()
    .map(|s| json_str(s))
    .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        json_str(dir),
        run_seconds,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn committed_manifest_is_rendered_from_the_tables() {
        // Compile-time include: the manifest sits at the repository root,
        // five levels above this directory.
        let committed = include_str!("../../../../../BENCHMARK.json");
        let run_seconds = committed
            .split("\"run_seconds\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("run_seconds");
        assert_eq!(committed, manifest(run_seconds));
        assert!(committed.len() < 64 * 1024);
    }
}
