//! Order statistics, hashing, host probes and the result-line codec shared
//! by every pass. Nothing here calls into the simulator.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample — both are ledger bugs.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance check computes spreads with. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest reportable percentile for `n` samples: the largest of the
/// usual tail percentiles that still leaves at least ten samples beyond it.
/// `None` below 20 samples, where only the median is reportable.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // Per mille, in integers: 100 samples leave exactly ten beyond p90.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// The `p`-th percentile (nearest rank) of `values`, capped at
/// [`highest_percentile`]: asking for p95 of 160 samples yields p90.
/// Returns the percentile actually used with the value.
pub fn tail(values: &[f64], p: f64) -> (f64, f64) {
    let v = sorted(values);
    let p = highest_percentile(v.len()).map_or(50.0, |cap| cap.min(p));
    let rank = ((p * 10.0).round() as usize * v.len()).div_ceil(1000);
    (p, v[rank.clamp(1, v.len()) - 1])
}

/// 64-bit FNV-1a, the digest the invariants store for outcome CSVs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Metric and workload names: non-empty, `[A-Za-z0-9_.-]`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Host speed the end-to-end timings are normalised to, in the units of
/// [`host_mops`]: roughly what the probe reads on the development host once
/// it has ramped up. Only the ratio to it matters.
pub const HOST_REF_MOPS: f64 = 400.0;

/// The host-speed probe: four independent xorshift chains on the calling
/// thread for about 15 ms, in millions of steps per second. No memory
/// traffic and no repository code, so it follows what moves every workload
/// alike — clock frequency, a busy sibling hardware thread, time stolen by
/// the hypervisor — and nothing else. (A variant with a 1 MiB table of
/// scattered loads was tried: it swung by 15 % with the neighbours' cache
/// traffic while the workloads barely moved.)
///
/// The speed of a shared host moves by tens of percent over minutes, and a
/// regression bound is unreadable across that; so the timings a later
/// change is judged on are normalised by what this probe reads right before
/// and after them. It reads within 1 % of itself while the host is quiet,
/// so it costs a quiet host nothing; in the host's slow states two busy
/// threads lose more than this one thread sees, so it corrects those only
/// in part. (Probing on two threads was tried: two threads started together
/// read three quarters of their speed a quarter of the time, also on a
/// quiet host, which made the correction noisier than the thing corrected.)
pub fn host_mops() -> f64 {
    const STEPS: u64 = 6_000_000;
    let step = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
    };
    let seed = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let (mut a, mut b, mut c, mut d) = (seed, seed ^ 0xA5A5, seed.rotate_left(17), !seed);
    let t = Instant::now();
    for _ in 0..STEPS {
        step(&mut a);
        step(&mut b);
        step(&mut c);
        step(&mut d);
    }
    std::hint::black_box(a ^ b ^ c ^ d);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// The mean of `n` consecutive [`host_mops`] samples.
pub fn host_mops_mean(n: usize) -> f64 {
    (0..n).map(|_| host_mops()).sum::<f64>() / n as f64
}

/// Keeps the calling thread busy for about `seconds`. A host that has been
/// idle runs its first second of load at a fraction of its sustained
/// speed; nothing is timed before this has run.
pub fn host_warm_up(seconds: f64) {
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds {
        host_mops();
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Times `f` once, in seconds.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median of `n` calls of `sample`.
pub fn median_of(n: usize, sample: impl FnMut() -> f64) -> f64 {
    median(&std::iter::repeat_with(sample).take(n).collect::<Vec<f64>>())
}

/// Median nanoseconds per operation of `op`: `batches` batches of `per`
/// calls each, so one clock read is amortised over a batch.
pub fn ns_per_op(batches: usize, per: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut next = 0;
    median_of(batches, || {
        let t = Instant::now();
        for i in next..next + per {
            op(i);
        }
        next += per;
        t.elapsed().as_secs_f64() * 1e9 / per as f64
    })
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name (see `metrics.rs`).
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

impl Value {
    /// A metric value.
    pub fn new(name: &str, value: f64, unit: &str) -> Value {
        Value {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one `--workload` invocation reports on its last stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Injection runs attempted over the timed repetitions.
    pub attempted: u64,
    /// Runs that failed: harness faults, lost shards, missing rows, client
    /// errors.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Value>,
}

impl RunResult {
    /// The result line: one JSON object, no whitespace.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric `{}` is not finite", m.name);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parses a line produced by [`RunResult::to_line`] (the parent reads
    /// its children's results with this). Not a general JSON parser: the
    /// simulator's own codec is integer-only, and this shape is fixed.
    pub fn from_line(line: &str) -> Option<RunResult> {
        let rest = line.trim().strip_prefix("{\"correct\":")?;
        let (correct, rest) = rest.split_once(",\"attempted\":")?;
        let (attempted, rest) = rest.split_once(",\"failed\":")?;
        let (failed, rest) = rest.split_once(",\"metrics\":{")?;
        let body = rest.strip_suffix("}}")?;
        let mut metrics = Vec::new();
        for entry in body.split("},").filter(|e| !e.is_empty()) {
            let (name, rest) = entry.trim_end_matches('}').split_once(":{\"value\":")?;
            let (value, unit) = rest.split_once(",\"unit\":")?;
            metrics.push(Value {
                name: name.trim_matches('"').to_string(),
                value: value.parse().ok()?,
                unit: unit.trim_matches('"').to_string(),
            });
        }
        Some(RunResult {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
        })
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(160), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0), (95.0, 190.0));
        assert_eq!(tail(&v[..160], 95.0), (90.0, 144.0));
        assert_eq!(tail(&v[..10], 95.0), (50.0, 5.0));
    }

    #[test]
    fn names_are_restricted_to_the_contract_charset() {
        for ok in ["injections_per_sec", "tcg.cache_hit_ns", "a-b", "4x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 12_000,
            failed: 0,
            metrics: vec![
                Value {
                    name: "injections_per_sec".into(),
                    value: 1115.93725,
                    unit: "runs/s".into(),
                },
                Value {
                    name: "setup_s".into(),
                    value: 0.000_005_5,
                    unit: "s".into(),
                },
            ],
        };
        let line = r.to_line();
        assert!(!line.contains(' ') && !line.contains('\n'));
        assert_eq!(RunResult::from_line(&line), Some(r.clone()));
        assert_eq!(r.get("setup_s"), Some(0.000_005_5));
        let empty = RunResult {
            metrics: Vec::new(),
            ..r
        };
        assert_eq!(RunResult::from_line(&empty.to_line()), Some(empty));
        assert_eq!(RunResult::from_line("not a result"), None);
    }
}
