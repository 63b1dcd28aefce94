//! Guest applications by wire name: the repository's one app registry.
//!
//! The daemon builds campaign targets from `(name, size, ranks)` triples
//! carried in a [`crate::CampaignSpec`]; `chaser_cli` and the `figures`
//! artefacts build theirs here too (`size == 0` = workload default), so a
//! served campaign targets exactly the application a standalone run
//! would. Only the benchmark ledger keeps its own pinned copy.

use chaser::AppSpec;
use chaser_workloads::{bfs, clamr, kmeans, lud, matvec};

/// The application names [`build_app`] accepts.
pub fn app_names() -> &'static [&'static str] {
    &["matvec", "clamr_sim", "bfs", "kmeans", "lud"]
}

/// Builds the named application at `size` (0 = workload default) over
/// `ranks` MPI ranks. Single-process workloads (`bfs`, `kmeans`, `lud`)
/// ignore `ranks`. Returns `None` for unknown names.
pub fn build_app(name: &str, size: usize, ranks: u32) -> Option<AppSpec> {
    Some(match name {
        "matvec" => {
            let cfg = matvec::MatvecConfig {
                n: if size == 0 { 16 } else { size },
                ranks,
                seed: 7,
            };
            AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, ranks as usize)
        }
        "clamr" | "clamr_sim" => {
            let cfg = clamr::ClamrConfig {
                ncells: if size == 0 { 64 } else { size },
                ranks,
                ..clamr::ClamrConfig::default()
            };
            AppSpec::replicated(clamr::program(&cfg), cfg.ranks as usize, ranks as usize)
        }
        "bfs" => {
            let cfg = bfs::BfsConfig {
                nodes: if size == 0 { 128 } else { size },
                ..bfs::BfsConfig::default()
            };
            AppSpec::single(bfs::program(&cfg))
        }
        "kmeans" => {
            let cfg = kmeans::KmeansConfig {
                npoints: if size == 0 { 64 } else { size },
                ..kmeans::KmeansConfig::default()
            };
            AppSpec::single(kmeans::program(&cfg))
        }
        "lud" => {
            let cfg = lud::LudConfig {
                n: if size == 0 { 16 } else { size },
                ..lud::LudConfig::default()
            };
            AppSpec::single(lud::program(&cfg))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_app_builds() {
        for name in app_names() {
            let app = build_app(name, 0, 4).expect("listed app builds");
            assert!(app.nranks() >= 1, "{name}");
        }
        assert!(build_app("minesweeper", 0, 4).is_none());
    }
}
