//! The ladder's equivalence contract (DESIGN §7), shared by the tests that
//! compare one execution path of a run against another: every field of a
//! [`RunReport`] two paths must agree on, rendered for comparison. The
//! work counters (`cache_stats`, `engine_stats`, `parallel`, `snapshot`)
//! and `trace.tainted_byte_samples` are outside it.

use chaser::RunReport;

/// The first contract field `got` and `want` disagree on, with both
/// renderings; `None` when the reports are equivalent.
pub fn contract_diff(got: &RunReport, want: &RunReport) -> Option<(&'static str, String, String)> {
    contract(got)
        .into_iter()
        .zip(contract(want))
        .find(|((_, g), (_, w))| g != w)
        .map(|((field, g), (_, w))| (field, g, w))
}

/// Everything the equivalence contract covers, field by field.
fn contract(report: &RunReport) -> Vec<(&'static str, String)> {
    let trace = report.trace.as_ref().map(|t| {
        let mut reads: Vec<_> = t.reads_per_proc.iter().collect();
        let mut writes: Vec<_> = t.writes_per_proc.iter().collect();
        reads.sort();
        writes.sort();
        format!(
            "{} {} {reads:?} {writes:?} {:?} {}",
            t.taint_reads, t.taint_writes, t.events, t.dropped_events
        )
    });
    let prov = report.provenance.as_ref();
    vec![
        ("cluster", format!("{:?}", report.cluster)),
        ("outputs", format!("{:?}", report.outputs)),
        ("stdouts", format!("{:?}", report.stdouts)),
        ("injections", format!("{:?}", report.injections)),
        (
            "injector_exec_count",
            report.injector_exec_count.to_string(),
        ),
        ("trace", format!("{trace:?}")),
        (
            "hub",
            format!(
                "{:?} {} {}",
                report.hub_stats, report.hub_pending, report.hub_published
            ),
        ),
        ("net", format!("{:?}", report.net)),
        ("provenance dot", format!("{:?}", prov.map(|g| g.to_dot()))),
        (
            "provenance json",
            format!("{:?}", prov.map(|g| g.to_json())),
        ),
        (
            "provenance digest",
            format!("{:?}", prov.map(|g| g.digest())),
        ),
    ]
}
