//! Real shard journals for the codec and streamer tests: small bfs and
//! clamr_sim campaigns, plus a bfs campaign whose only shard runs out of
//! retries and is quarantined. Each campaign runs once per test binary.

use crate::spec::CampaignSpec;
use chaser::{shard_journal_path, ChaosKind, ShardChaos, ShardSupervision, ShardWorkers};
use chaser_isa::InsnClass;
use std::sync::OnceLock;

/// One shard journal's bytes (header line, shard-assignment line, rows).
pub(crate) struct Journal {
    /// What the campaign was.
    pub name: &'static str,
    /// The journal file, verbatim.
    pub bytes: Vec<u8>,
}

impl Journal {
    /// The row lines: every line after the header and assignment lines.
    pub fn rows(&self) -> Vec<&str> {
        std::str::from_utf8(&self.bytes)
            .expect("journals are UTF-8")
            .lines()
            .skip(2)
            .collect()
    }
}

fn run(name: &'static str, spec: CampaignSpec) -> Journal {
    let dir = std::env::temp_dir().join(format!(
        "chaser-serve-fixture-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let base = dir.join("campaign.jsonl");
    spec.campaign(ShardWorkers::Thread)
        .expect("fixture spec builds")
        .run_sharded(&base)
        .expect("fixture campaign");
    let bytes = std::fs::read(shard_journal_path(&base, 0)).expect("fixture journal");
    let _ = std::fs::remove_dir_all(&dir);
    Journal { name, bytes }
}

/// The three fixture journals: `bfs`, `clamr` and `quarantined`.
pub(crate) fn journals() -> &'static [Journal] {
    static JOURNALS: OnceLock<Vec<Journal>> = OnceLock::new();
    JOURNALS.get_or_init(|| {
        let bfs = CampaignSpec {
            app: "bfs".into(),
            runs: 6,
            classes: vec![InsnClass::Mov, InsnClass::IntAlu],
            ..CampaignSpec::default()
        };
        let clamr = CampaignSpec {
            app: "clamr_sim".into(),
            ranks: 2,
            size: 16,
            runs: 4,
            classes: vec![InsnClass::FpArith],
            ..CampaignSpec::default()
        };
        // One worker thread bails after two rows on its only attempt, and
        // no retry is allowed: the other four runs are quarantined.
        let quarantined = CampaignSpec {
            parallelism: 1,
            supervision: ShardSupervision {
                max_retries: 0,
                ..ShardSupervision::default()
            },
            chaos: vec![ShardChaos {
                shard: 0,
                after_rows: 2,
                attempts: 1,
                kind: ChaosKind::Kill,
            }],
            ..bfs.clone()
        };
        let journals = vec![
            run("bfs", bfs),
            run("clamr", clamr),
            run("quarantined", quarantined),
        ];
        let lost = journals[2]
            .rows()
            .iter()
            .filter(|r| r.contains("\"shard_lost\""))
            .count();
        assert_eq!(lost, 4, "quarantined fixture");
        journals
    })
}
