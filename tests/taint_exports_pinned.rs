//! Pinned trace and provenance exports. Every other identity test compares
//! one execution path of the *same* build with another, so a change to the
//! taint layer's representation that moved an export would leave them all
//! green. This one compares against FNV-64 constants committed before such
//! a change: for a handful of fixed campaign faults on lud (`trace=taint`)
//! and matvec (`trace=full`), each run restored from its ladder rung,
//!
//! * the trace-event CSV and the tainted-bytes series,
//! * the provenance graph's DOT and JSON exports (matvec),
//! * the final cluster state digest (memory, shadow and provenance pages)
//!   of the same fault executed from launch,
//! * and the whole campaign's outcome CSV.
//!
//! A PR that moves one of these on purpose re-pins it in the same diff and
//! says why.

use chaser::{
    run_warm, AppSpec, Campaign, CampaignConfig, HookRegistry, InjectionSpec, Injector,
    InjectorHandle, RankPool, TraceRegime, TracerConfig,
};
use chaser_isa::{InsnClass, Program};
use chaser_mpi::Cluster;
use chaser_vm::SharedTranslateHook;
use chaser_workloads::{lud, matvec};
use std::sync::Arc;

/// Campaign faults whose exports are pinned: one fault that never reaches
/// memory, the rest spread over the run with tens to hundreds of tainted
/// accesses each on lud, and cross-rank flows on matvec.
const INDICES: [u64; 6] = [0, 4, 5, 6, 10, 16];

/// `(export, FNV-64)` pins, in the order [`exports`] produces them.
const PINNED: &[(&str, u64)] = &[
    ("lud[0].events_csv", 0x9430efcfcbf24993),
    ("lud[0].tainted_byte_samples", 0xb8fbeac25410f760),
    ("lud[0].state_digest", 0x87215605f9a70edf),
    ("lud[4].events_csv", 0x906b0226cd49cd29),
    ("lud[4].tainted_byte_samples", 0x9ad78faf77505277),
    ("lud[4].state_digest", 0x7f545a2670097950),
    ("lud[5].events_csv", 0xfad8ca05c84fbbbc),
    ("lud[5].tainted_byte_samples", 0x37f0b5defa3fcbf3),
    ("lud[5].state_digest", 0x05c84fbd2a445cb1),
    ("lud[6].events_csv", 0x2168b770191844f8),
    ("lud[6].tainted_byte_samples", 0x4b888b4915896a43),
    ("lud[6].state_digest", 0x0335478d2345f956),
    ("lud[10].events_csv", 0xeb0d9cdc74f59f69),
    ("lud[10].tainted_byte_samples", 0x9ade19208bd6d974),
    ("lud[10].state_digest", 0x9e257681c7571556),
    ("lud[16].events_csv", 0x3a6db4026738753c),
    ("lud[16].tainted_byte_samples", 0xaabc5fe7ed5c211e),
    ("lud[16].state_digest", 0x1090eef667dbabe3),
    ("lud.outcome_csv", 0xa2f48eefbd0d7596),
    ("matvec[0].events_csv", 0xc307e673a807e124),
    ("matvec[0].tainted_byte_samples", 0x09612b07b5ecb5a5),
    ("matvec[0].prov_dot", 0x1732a92f603a3462),
    ("matvec[0].prov_json", 0x151a8f0948b23234),
    ("matvec[0].state_digest", 0x8f8244a5260bf0f2),
    ("matvec[4].events_csv", 0x25267bd86a34e01e),
    ("matvec[4].tainted_byte_samples", 0xec2a9f40e5cf8175),
    ("matvec[4].prov_dot", 0xbf12acbf84c5b5a0),
    ("matvec[4].prov_json", 0x515cfd07e006421f),
    ("matvec[4].state_digest", 0x2b983f39fdb095bf),
    ("matvec[5].events_csv", 0x0ab14ea451b0548a),
    ("matvec[5].tainted_byte_samples", 0x81609d17a6875411),
    ("matvec[5].prov_dot", 0x6d8a0ca3b38748e9),
    ("matvec[5].prov_json", 0x45fa33bbab3c1ad9),
    ("matvec[5].state_digest", 0x2a99d7250b850546),
    ("matvec[6].events_csv", 0x8dede1da70abf102),
    ("matvec[6].tainted_byte_samples", 0x7a1c0c170b71fc67),
    ("matvec[6].prov_dot", 0xfa44db27e970f6d2),
    ("matvec[6].prov_json", 0x4ad554a8389cb39c),
    ("matvec[6].state_digest", 0xb6f1c780e9e72050),
    ("matvec[10].events_csv", 0xa54d3e7923b8037a),
    ("matvec[10].tainted_byte_samples", 0x42c726371be3c076),
    ("matvec[10].prov_dot", 0xe5e3155ac49d089d),
    ("matvec[10].prov_json", 0x591de7189faa75f7),
    ("matvec[10].state_digest", 0xdf1a5dbcb1ded3ad),
    ("matvec[16].events_csv", 0x84e566d61be0f16b),
    ("matvec[16].tainted_byte_samples", 0x794765877577ca27),
    ("matvec[16].prov_dot", 0x6424d6e87b1c999c),
    ("matvec[16].prov_json", 0xa7ba52f245b9d66e),
    ("matvec[16].state_digest", 0x9aedb62414ec22cd),
    ("matvec.outcome_csv", 0xfcd5ba78455d34ed),
];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config(regime: TraceRegime) -> CampaignConfig {
    CampaignConfig {
        runs: 12,
        seed: 25,
        parallelism: 1,
        classes: vec![InsnClass::Mov, InsnClass::FpArith],
        rank_pool: RankPool::Random,
        tracing: regime == TraceRegime::Full,
        provenance: regime == TraceRegime::Full,
        trace_regime: regime,
        // A dense Fig. 7 series: the default 100 K interval would sample
        // these small runs a handful of times.
        tracer: TracerConfig {
            sample_interval: 2_000,
            ..TracerConfig::default()
        },
        ..CampaignConfig::default()
    }
}

fn apps() -> [(&'static str, AppSpec, TraceRegime); 2] {
    let mut lud = AppSpec::single(lud::program(&lud::LudConfig { n: 16, seed: 17 }));
    lud.cluster.quantum = 1_000;
    let mv = matvec::MatvecConfig::default();
    let mut matvec = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    matvec.cluster.quantum = 200;
    [
        ("lud", lud, TraceRegime::TaintOnly),
        ("matvec", matvec, TraceRegime::Full),
    ]
}

/// The final state digest of `spec` executed from launch with only the
/// injector wired in: taint and provenance shadows are maintained either
/// way, and the digest hashes both.
fn state_digest(app: &AppSpec, spec: InjectionSpec) -> u64 {
    let mut cluster = Cluster::new(app.cluster.clone());
    let injector = Injector::new(spec);
    HookRegistry::new()
        .instrument(
            Arc::clone(&injector) as SharedTranslateHook,
            InjectorHandle(injector),
        )
        .apply(&mut cluster);
    let programs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&programs).expect("launch");
    cluster.run();
    cluster.state_digest()
}

/// Every pinned export, named, hashed.
fn exports() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, app, regime) in apps() {
        let campaign = Campaign::new(app.clone(), config(regime));
        let prepared = campaign.prepare();
        for idx in INDICES {
            let (spec, _) = campaign
                .fault_for(&prepared, idx)
                .expect("the pinned faults are drawable");
            let report = run_warm(&prepared, &campaign.run_options(spec.clone()), true);
            let trace = report.trace.as_ref().expect("traced run");
            let mut put = |what: &str, bytes: &[u8]| {
                out.push((format!("{name}[{idx}].{what}"), fnv64(bytes)));
            };
            put("events_csv", trace.events_to_csv().as_bytes());
            put(
                "tainted_byte_samples",
                format!("{:?}", trace.tainted_byte_samples).as_bytes(),
            );
            if let Some(graph) = &report.provenance {
                put("prov_dot", graph.to_dot().as_bytes());
                put("prov_json", graph.to_json().as_bytes());
            }
            put("state_digest", &state_digest(&app, spec).to_le_bytes());
        }
        out.push((
            format!("{name}.outcome_csv"),
            fnv64(campaign.run().to_csv().as_bytes()),
        ));
    }
    out
}

#[test]
fn trace_and_provenance_exports_match_their_pins() {
    let got = exports();
    let rendered: Vec<String> = got
        .iter()
        .map(|(what, h)| format!("    (\"{what}\", {h:#018x}),"))
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(w, h)| (w.to_string(), h)).collect();
    assert_eq!(
        got,
        want,
        "pinned exports moved; the current values are\n{}",
        rendered.join("\n")
    );
}
