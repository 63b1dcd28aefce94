//! Campaign-level guarantees of the shared translation cache: the
//! golden-warmed base layer every campaign run starts from must not change
//! a single outcome against the translate-from-scratch reference
//! (`run_warm(.., false)`), while serving the overwhelming majority of
//! lookups.

use chaser::{run_warm, AppSpec, CacheStats, Campaign, CampaignConfig, CampaignResult, RankPool};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;

#[path = "support/contract.rs"]
mod support;
use support::contract_diff;

fn matvec_campaign(cfg: CampaignConfig) -> Campaign {
    let mv = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    Campaign::new(app, cfg)
}

fn run_campaign(cfg: CampaignConfig) -> CampaignResult {
    matvec_campaign(cfg).run()
}

#[test]
fn shared_cache_preserves_outcomes_bit_for_bit() {
    // Mov faults on the master — the paper's Table III setup. Mov targets
    // instrument a large share of the master's blocks and the crashes
    // diverge from the golden path, making this the adversarial case for
    // cache-state leaking into semantics.
    let campaign = matvec_campaign(CampaignConfig {
        runs: 50,
        seed: 0xCAFE,
        classes: vec![InsnClass::Mov],
        ..CampaignConfig::default()
    });
    let prepared = campaign.prepare();
    let (mut shared, mut cold) = (CacheStats::default(), CacheStats::default());
    for idx in 0..50 {
        let (spec, _) = campaign
            .fault_for(&prepared, idx)
            .expect("the master executes movs");
        let opts = campaign.run_options(spec);
        let with_base = run_warm(&prepared, &opts, true);
        let without = run_warm(&prepared, &opts, false);

        // Same fault, same rung — every field of the contract must match
        // (cluster result and outputs, so the classification too).
        assert_eq!(contract_diff(&with_base, &without), None, "run {idx}");
        shared.absorb(with_base.cache_stats);
        cold.absorb(without.cache_stats);
    }

    // The reference never sees a base layer; the shared path avoids most
    // of its translation work. `avoided` is the share of the reference's
    // translations that the base layer made unnecessary.
    assert_eq!(cold.base_hits, 0);
    assert!(cold.misses > 0);
    let avoided = 1.0 - shared.misses as f64 / cold.misses as f64;
    assert!(avoided > 0.85, "the base layer avoided {avoided:.3}");
    assert!(shared.misses < cold.misses / 2);
}

#[test]
fn shared_runs_serve_over_ninety_percent_from_base() {
    // FP faults on a random rank: instrumentation touches only the slaves'
    // dot-product blocks, so nearly every lookup of every run should ride
    // the golden-warmed base layer.
    let shared = run_campaign(CampaignConfig {
        runs: 50,
        seed: 0xCAFE,
        parallelism: 2,
        classes: vec![InsnClass::FpArith],
        rank_pool: RankPool::Random,
        ..CampaignConfig::default()
    });

    assert!(!shared.outcomes.is_empty());
    for run in &shared.outcomes {
        assert!(
            run.cache_stats.base_hits > 0,
            "run {} never hit the base layer",
            run.run_idx
        );
        assert!(
            run.cache_stats.base_hit_rate() > 0.9,
            "run {} base hit rate {:.3} <= 0.9",
            run.run_idx,
            run.cache_stats.base_hit_rate()
        );
    }
    assert!(shared.cache_stats.base_hit_rate() > 0.9);
}
