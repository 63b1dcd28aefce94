//! The five fixed campaigns, and the only place a campaign configuration is
//! built. Everything here stays inside the API surface the README freezes:
//! `chaser_workloads::<app>::{program, reference_output, <App>Config}`,
//! `AppSpec::{single, replicated}`, `CampaignConfig { ..Default::default() }`
//! and `CampaignSpec { ..Default::default() }`. Sizes are pinned here, not
//! taken from `chaser_bench::*_app` or the serve app registry defaults.

use chaser::{AppSpec, CampaignConfig, RankPool, TraceRegime};
use chaser_isa::InsnClass;
use chaser_serve::CampaignSpec;
use chaser_workloads::{bfs, clamr, lud, matvec};

/// `CampaignConfig::default().seed`, the seed the stored invariants are for.
pub const DEFAULT_SEED: u64 = 0xC4A5E12;

/// One benchmark workload: a name, the reason it exists, and its run count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on which layers it stresses (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Injection runs per campaign (per tenant for the served workload).
    pub runs: u64,
    /// Concurrent closed-loop clients; 0 = standalone `Campaign::run`.
    pub tenants: u64,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "matvec4_full_cold",
        why: "4-rank matvec, trace=full, cold: round overhead, MPI exchange, TaintHub, taint shadow and provenance dominate; the clean interpreter does little",
        runs: 2400,
        tenants: 0,
    },
    Workload {
        name: "clamr4_off_warm",
        why: "4-rank clamr_sim, trace=off, warm start, 2 campaign workers: clean-block interpreter, snapshot restore and collectives; taint layers bypassed",
        runs: 700,
        tenants: 0,
    },
    Workload {
        name: "clamr4_off_rankpar",
        why: "same clamr campaign with 1 campaign worker and rank_threads=2: isolates per-round worker management inside a run",
        runs: 160,
        tenants: 0,
    },
    Workload {
        name: "lud1_taint_cold",
        why: "single-rank FP-dense lud, trace=taint, cold: general interpreter loop, FP taint rules, shadow memory, tracer; no MPI, no TaintHub, no snapshot",
        runs: 400,
        tenants: 0,
    },
    Workload {
        name: "served_bfs_2tenant",
        why: "daemon on a Unix socket, two closed-loop tenants, short bfs runs, trace=off: per-run fixed cost, journal fsync, shard merge, frame codec, row streaming, pool hit",
        runs: 3000,
        tenants: 2,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Pinned problem sizes.
pub const MATVEC: matvec::MatvecConfig = matvec::MatvecConfig {
    n: 64,
    ranks: 4,
    seed: 7,
};
/// lud at n=48.
pub const LUD: lud::LudConfig = lud::LudConfig { n: 48, seed: 17 };
/// bfs node count; the remaining fields are the workload crate's defaults
/// because the daemon builds the served app from `(name, size)` alone.
pub const BFS_NODES: usize = 512;
/// clamr_sim global cell count.
pub const CLAMR_CELLS: usize = 256;

/// The clamr_sim configuration (4 ranks, 256 cells).
pub fn clamr_config() -> clamr::ClamrConfig {
    clamr::ClamrConfig {
        ncells: CLAMR_CELLS,
        ranks: 4,
        ..clamr::ClamrConfig::default()
    }
}

/// The bfs configuration the served workload's standalone twin uses.
pub fn bfs_config() -> bfs::BfsConfig {
    bfs::BfsConfig {
        nodes: BFS_NODES,
        ..bfs::BfsConfig::default()
    }
}

/// Assembles the workload's application.
pub fn build_app(w: &Workload) -> AppSpec {
    match w.name {
        "matvec4_full_cold" => AppSpec::replicated(matvec::program(&MATVEC), 4, 4),
        "clamr4_off_warm" | "clamr4_off_rankpar" => {
            AppSpec::replicated(clamr::program(&clamr_config()), 4, 4)
        }
        "lud1_taint_cold" => AppSpec::single(lud::program(&LUD)),
        "served_bfs_2tenant" => AppSpec::single(bfs::program(&bfs_config())),
        other => unreachable!("unknown workload `{other}`"),
    }
}

/// The host-side reference of the bytes rank 0's golden run writes to its
/// result file.
pub fn reference_output(w: &Workload) -> Vec<u8> {
    match w.name {
        "matvec4_full_cold" => matvec::reference_output(&MATVEC),
        "clamr4_off_warm" | "clamr4_off_rankpar" => clamr::reference_output(&clamr_config()),
        "lud1_taint_cold" => lud::reference_output(&LUD),
        "served_bfs_2tenant" => bfs::reference_output(&bfs_config()),
        other => unreachable!("unknown workload `{other}`"),
    }
}

/// The one function that builds a campaign configuration. `runs` is passed
/// in because `--quick` and the traced pass scale it.
pub fn campaign_config(w: &Workload, seed: u64, runs: u64) -> CampaignConfig {
    let base = CampaignConfig {
        runs,
        seed,
        parallelism: 2,
        classes: vec![InsnClass::Mov, InsnClass::FpArith],
        rank_pool: RankPool::Random,
        trace_regime: TraceRegime::Off,
        ..CampaignConfig::default()
    };
    match w.name {
        "matvec4_full_cold" => CampaignConfig {
            tracing: true,
            provenance: true,
            trace_regime: TraceRegime::Full,
            ..base
        },
        "clamr4_off_warm" => CampaignConfig {
            warm_start: true,
            ..base
        },
        "clamr4_off_rankpar" => CampaignConfig {
            warm_start: true,
            parallelism: 1,
            rank_threads: 2,
            ..base
        },
        "lud1_taint_cold" => CampaignConfig {
            trace_regime: TraceRegime::TaintOnly,
            ..base
        },
        // The standalone twin of one served tenant (same fields the daemon
        // derives from `served_spec`), used for the byte-identity check and
        // `serve.overhead_share`.
        "served_bfs_2tenant" => CampaignConfig {
            parallelism: 1,
            shards: 1,
            journal_sync_rows: 32,
            ..base
        },
        other => unreachable!("unknown workload `{other}`"),
    }
}

/// The spec each served tenant submits. Both tenants share every
/// prepare-relevant field, so the second admission hits the warmed pool.
pub fn served_spec(tenant: &str, seed: u64, runs: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: tenant.to_string(),
        app: "bfs".to_string(),
        size: BFS_NODES,
        ranks: 1,
        runs,
        seed,
        classes: vec![InsnClass::Mov, InsnClass::FpArith],
        rank_pool: RankPool::Random,
        trace_regime: TraceRegime::Off,
        parallelism: 1,
        shards: 1,
        journal_sync_rows: 32,
        ..CampaignSpec::default()
    }
}
