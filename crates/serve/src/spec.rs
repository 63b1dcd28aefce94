//! The `CampaignSpec` wire object: everything a tenant submits.
//!
//! A spec is campaign configuration *as data* — application, fault model,
//! budget, shard/thread policy — validated against the core `spec.rs`
//! vocabulary ([`OperandSel`], [`chaser::InjectionSpec`]'s class names,
//! [`RankPool`]) before anything executes. Its JSON rendering uses the
//! journal codec, so the same line serves as the submit frame's payload,
//! the job's on-disk `spec.json`, and the subprocess shard worker's way to
//! reconstruct an identical [`Campaign`] (the journal header check then
//! *proves* the reconstruction matched).

use crate::apps::{app_names, build_app};
use chaser::{
    class_from_name, class_name, AppSpec, Campaign, CampaignConfig, ChaosKind, Json, OperandSel,
    RankPool, ShardChaos, ShardSupervision, ShardWorkers, TraceRegime,
};
use chaser_isa::{InsnClass, Program};
use chaser_mpi::{Cluster, ClusterConfig, RunBudget};

/// Most MPI ranks a spec may ask for. Each rank of a replicated workload
/// gets a node of its own, and admission launches them all once: on a
/// 2-vCPU host, 20 000 ranks of matvec took 1.5 s and 700 MB to launch.
const MAX_RANKS: u32 = 1024;

/// Bounds on the tenant-set supervision fields, each with its reason. A
/// stalled subprocess worker holds its daemon executor until the heartbeat
/// reclaims it, and a killed one until the retry loop's backoff ends, so a
/// shard whose workers die on every attempt gives its executor back within
/// 9 heartbeats and 8 backoffs (about 53 minutes) instead of never.
#[rustfmt::skip]
const SUPERVISION_BOUNDS: [(&str, u64, &str); 4] = [
    ("heartbeat_timeout_ms", 300_000, "a stalled worker holds its executor this long"),
    ("backoff_base_ms", 60_000, "the first retry waits this long"),
    ("backoff_cap_ms", 60_000, "every later retry may wait this long"),
    ("max_retries", 8, "each retry may wait out a heartbeat and a backoff"),
];

/// A rejected campaign spec: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec field.
    pub field: String,
    /// What is wrong with it.
    pub msg: String,
}

impl SpecError {
    fn new(field: &str, msg: impl Into<String>) -> SpecError {
        SpecError {
            field: field.to_string(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid campaign spec field `{}`: {}",
            self.field, self.msg
        )
    }
}

impl std::error::Error for SpecError {}

/// One submitted campaign: application, fault model, budget, shard and
/// thread policy. The executable knobs map one-to-one onto
/// [`CampaignConfig`]; the remainder (`tenant`, `app`, `size`, `ranks`,
/// `subprocess_workers`) tell the daemon what to build and how to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Who is submitting; admission charges this tenant's run budget.
    pub tenant: String,
    /// Application name (see [`app_names`]).
    pub app: String,
    /// Problem-size knob (0 = workload default).
    pub size: usize,
    /// MPI ranks for the replicated workloads.
    pub ranks: u32,
    /// Injection runs.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Targetable instruction classes (journal names, e.g. `"Mov"`).
    pub classes: Vec<InsnClass>,
    /// Which rank receives each fault.
    pub rank_pool: RankPool,
    /// Bits flipped per fault.
    pub bits_per_fault: u32,
    /// Which operand is corrupted.
    pub operand: OperandSel,
    /// Trace fault propagation per run.
    pub tracing: bool,
    /// Record provenance graphs per run.
    pub provenance: bool,
    /// Tracing regime (`full` honors the flags above; `taint` and `off`
    /// override them — `off` is the ZOFI-style statistical mode). Joins
    /// the pool key: an `off` tenant must never share a [`PreparedApp`]
    /// with a `full` tenant.
    ///
    /// [`PreparedApp`]: chaser::PreparedApp
    pub trace_regime: TraceRegime,
    /// Inter-run worker threads per shard (0 = all cores).
    pub parallelism: usize,
    /// Intra-run scheduler threads.
    pub rank_threads: usize,
    /// Per-run instruction budget (0 = unlimited).
    pub max_insns: u64,
    /// Per-run scheduler-round budget (0 = unlimited).
    pub max_rounds: u64,
    /// Shard count (0 and 1 both mean one shard).
    pub shards: u64,
    /// Run shard workers as self-exec subprocesses instead of threads.
    pub subprocess_workers: bool,
    /// Journal durability: fsync every N rows (0 = never).
    pub journal_sync_rows: u64,
    /// Shard liveness/retry policy.
    pub supervision: ShardSupervision,
    /// Chaos directives for the shard supervisor (resilience testing).
    pub chaos: Vec<ShardChaos>,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        let base = CampaignConfig::default();
        CampaignSpec {
            tenant: "default".to_string(),
            app: "matvec".to_string(),
            size: 0,
            ranks: 4,
            runs: 8,
            seed: base.seed,
            classes: base.classes,
            rank_pool: base.rank_pool,
            bits_per_fault: base.bits_per_fault,
            operand: base.operand,
            tracing: false,
            provenance: false,
            trace_regime: TraceRegime::default(),
            parallelism: 2,
            rank_threads: base.rank_threads,
            max_insns: 0,
            max_rounds: 0,
            shards: 1,
            subprocess_workers: false,
            journal_sync_rows: base.journal_sync_rows,
            supervision: ShardSupervision::default(),
            chaos: Vec::new(),
        }
    }
}

fn chaos_kind_name(kind: ChaosKind) -> &'static str {
    match kind {
        ChaosKind::Kill => "kill",
        ChaosKind::Stall => "stall",
    }
}

fn chaos_kind_from_name(s: &str) -> Option<ChaosKind> {
    match s {
        "kill" => Some(ChaosKind::Kill),
        "stall" => Some(ChaosKind::Stall),
        _ => None,
    }
}

// Field readers with spec-shaped errors: absent fields keep the default,
// wrong-typed fields are named in the rejection.
fn get_u64(v: &Json, key: &str, default: u64) -> Result<u64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(Json::Num(n)) => {
            u64::try_from(*n).map_err(|_| SpecError::new(key, "out of u64 range"))
        }
        Some(_) => Err(SpecError::new(key, "expected a number")),
    }
}

fn get_str<'a>(v: &'a Json, key: &str, default: &'a str) -> Result<&'a str, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(SpecError::new(key, "expected a string")),
    }
}

fn get_bool(v: &Json, key: &str, default: bool) -> Result<bool, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(SpecError::new(key, "expected a boolean")),
    }
}

impl CampaignSpec {
    /// Renders the spec as a [`Json`] object (journal-codec field order).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("tenant".to_string(), Json::Str(self.tenant.clone())),
            ("app".to_string(), Json::Str(self.app.clone())),
            ("size".to_string(), Json::Num(self.size as i128)),
            ("ranks".to_string(), Json::Num(self.ranks.into())),
            ("runs".to_string(), Json::Num(self.runs.into())),
            ("seed".to_string(), Json::Num(self.seed.into())),
            (
                "classes".to_string(),
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|c| Json::Str(class_name(*c)))
                        .collect(),
                ),
            ),
            (
                "rank_pool".to_string(),
                Json::Str(self.rank_pool.name().to_string()),
            ),
            (
                "bits_per_fault".to_string(),
                Json::Num(self.bits_per_fault.into()),
            ),
            (
                "operand".to_string(),
                Json::Str(self.operand.name().to_string()),
            ),
            ("tracing".to_string(), Json::Bool(self.tracing)),
            ("provenance".to_string(), Json::Bool(self.provenance)),
            (
                "trace".to_string(),
                Json::Str(self.trace_regime.name().to_string()),
            ),
            (
                "parallelism".to_string(),
                Json::Num(self.parallelism as i128),
            ),
            (
                "rank_threads".to_string(),
                Json::Num(self.rank_threads as i128),
            ),
            ("max_insns".to_string(), Json::Num(self.max_insns.into())),
            ("max_rounds".to_string(), Json::Num(self.max_rounds.into())),
            ("shards".to_string(), Json::Num(self.shards.into())),
            (
                "workers".to_string(),
                Json::Str(
                    if self.subprocess_workers {
                        "subprocess"
                    } else {
                        "thread"
                    }
                    .to_string(),
                ),
            ),
            (
                "journal_sync_rows".to_string(),
                Json::Num(self.journal_sync_rows.into()),
            ),
            (
                "heartbeat_timeout_ms".to_string(),
                Json::Num(self.supervision.heartbeat_timeout_ms.into()),
            ),
            (
                "max_retries".to_string(),
                Json::Num(self.supervision.max_retries.into()),
            ),
            (
                "backoff_base_ms".to_string(),
                Json::Num(self.supervision.backoff_base_ms.into()),
            ),
            (
                "backoff_cap_ms".to_string(),
                Json::Num(self.supervision.backoff_cap_ms.into()),
            ),
        ];
        if !self.chaos.is_empty() {
            fields.push((
                "chaos".to_string(),
                Json::Arr(
                    self.chaos
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("shard".to_string(), Json::Num(c.shard.into())),
                                ("after_rows".to_string(), Json::Num(c.after_rows.into())),
                                ("attempts".to_string(), Json::Num(c.attempts.into())),
                                (
                                    "kind".to_string(),
                                    Json::Str(chaos_kind_name(c.kind).to_string()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Parses a spec from its [`Json`] object. Absent optional fields take
    /// their [`CampaignSpec::default`] values; `app` is required.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first malformed field.
    pub fn from_json(v: &Json) -> Result<CampaignSpec, SpecError> {
        let d = CampaignSpec::default();
        let Json::Obj(_) = v else {
            return Err(SpecError::new("spec", "expected an object"));
        };
        if v.get("app").is_none() {
            return Err(SpecError::new("app", "required"));
        }
        let classes = match v.get("classes") {
            None => d.classes.clone(),
            Some(Json::Arr(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let Json::Str(name) = item else {
                        return Err(SpecError::new("classes", "expected class-name strings"));
                    };
                    out.push(class_from_name(name).map_err(|_| {
                        SpecError::new("classes", format!("unknown class `{name}`"))
                    })?);
                }
                out
            }
            Some(_) => return Err(SpecError::new("classes", "expected an array")),
        };
        let chaos = match v.get("chaos") {
            None => Vec::new(),
            Some(Json::Arr(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let kind = get_str(item, "kind", "kill")?;
                    out.push(ShardChaos {
                        shard: get_u64(item, "shard", 0)?,
                        after_rows: get_u64(item, "after_rows", 0)?,
                        attempts: u32::try_from(get_u64(item, "attempts", 1)?)
                            .map_err(|_| SpecError::new("chaos.attempts", "out of u32 range"))?,
                        kind: chaos_kind_from_name(kind).ok_or_else(|| {
                            SpecError::new("chaos.kind", format!("unknown kind `{kind}`"))
                        })?,
                    });
                }
                out
            }
            Some(_) => return Err(SpecError::new("chaos", "expected an array")),
        };
        let rank_pool = get_str(v, "rank_pool", d.rank_pool.name())?;
        let operand = get_str(v, "operand", d.operand.name())?;
        let workers = get_str(v, "workers", "thread")?;
        if workers != "thread" && workers != "subprocess" {
            return Err(SpecError::new(
                "workers",
                format!("expected `thread` or `subprocess`, got `{workers}`"),
            ));
        }
        Ok(CampaignSpec {
            tenant: get_str(v, "tenant", &d.tenant)?.to_string(),
            app: get_str(v, "app", &d.app)?.to_string(),
            size: usize::try_from(get_u64(v, "size", d.size as u64)?)
                .map_err(|_| SpecError::new("size", "out of usize range"))?,
            ranks: u32::try_from(get_u64(v, "ranks", d.ranks.into())?)
                .map_err(|_| SpecError::new("ranks", "out of u32 range"))?,
            runs: get_u64(v, "runs", d.runs)?,
            seed: get_u64(v, "seed", d.seed)?,
            classes,
            rank_pool: RankPool::from_name(rank_pool).ok_or_else(|| {
                SpecError::new("rank_pool", format!("unknown pool `{rank_pool}`"))
            })?,
            bits_per_fault: u32::try_from(get_u64(v, "bits_per_fault", d.bits_per_fault.into())?)
                .map_err(|_| SpecError::new("bits_per_fault", "out of u32 range"))?,
            operand: OperandSel::from_name(operand)
                .ok_or_else(|| SpecError::new("operand", format!("unknown operand `{operand}`")))?,
            tracing: get_bool(v, "tracing", d.tracing)?,
            provenance: get_bool(v, "provenance", d.provenance)?,
            trace_regime: {
                let trace = get_str(v, "trace", d.trace_regime.name())?;
                TraceRegime::from_name(trace)
                    .ok_or_else(|| SpecError::new("trace", format!("unknown regime `{trace}`")))?
            },
            parallelism: usize::try_from(get_u64(v, "parallelism", d.parallelism as u64)?)
                .map_err(|_| SpecError::new("parallelism", "out of usize range"))?,
            rank_threads: usize::try_from(get_u64(v, "rank_threads", d.rank_threads as u64)?)
                .map_err(|_| SpecError::new("rank_threads", "out of usize range"))?,
            max_insns: get_u64(v, "max_insns", d.max_insns)?,
            max_rounds: get_u64(v, "max_rounds", d.max_rounds)?,
            shards: get_u64(v, "shards", d.shards)?,
            subprocess_workers: workers == "subprocess",
            journal_sync_rows: get_u64(v, "journal_sync_rows", d.journal_sync_rows)?,
            supervision: ShardSupervision {
                heartbeat_timeout_ms: get_u64(
                    v,
                    "heartbeat_timeout_ms",
                    d.supervision.heartbeat_timeout_ms,
                )?,
                max_retries: u32::try_from(get_u64(
                    v,
                    "max_retries",
                    d.supervision.max_retries.into(),
                )?)
                .map_err(|_| SpecError::new("max_retries", "out of u32 range"))?,
                backoff_base_ms: get_u64(v, "backoff_base_ms", d.supervision.backoff_base_ms)?,
                backoff_cap_ms: get_u64(v, "backoff_cap_ms", d.supervision.backoff_cap_ms)?,
            },
            chaos,
        })
    }

    /// Encodes the spec as one journal-codec JSON line (no newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        chaser::encode_json(&self.to_json(), &mut out);
        out
    }

    /// Parses a spec from one JSON line.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on malformed JSON or a malformed field.
    pub fn from_line(line: &str) -> Result<CampaignSpec, SpecError> {
        let v = chaser::parse_json(line.trim())
            .map_err(|e| SpecError::new("spec", format!("malformed JSON: {e}")))?;
        CampaignSpec::from_json(&v)
    }

    /// Validates the spec: known application, sane fault model, rank
    /// counts the workloads accept, and a program that loads into the
    /// guest (the application is built and launched once, without
    /// running).
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first rejected field.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.check_fields()?;
        self.loadable_app().map(drop)
    }

    fn check_fields(&self) -> Result<(), SpecError> {
        if self.tenant.is_empty() {
            return Err(SpecError::new("tenant", "must not be empty"));
        }
        if !app_names().contains(&self.app.as_str()) && self.app != "clamr" {
            return Err(SpecError::new(
                "app",
                format!(
                    "unknown application `{}` (known: {:?})",
                    self.app,
                    app_names()
                ),
            ));
        }
        if self.ranks > MAX_RANKS {
            return Err(SpecError::new("ranks", format!("at most {MAX_RANKS}")));
        }
        if matches!(self.app.as_str(), "matvec" | "clamr" | "clamr_sim") && self.ranks < 2 {
            return Err(SpecError::new(
                "ranks",
                format!("`{}` needs at least 2 ranks", self.app),
            ));
        }
        if matches!(self.app.as_str(), "clamr" | "clamr_sim")
            && self.size != 0
            && !self.size.is_multiple_of(self.ranks as usize)
        {
            return Err(SpecError::new(
                "size",
                "clamr_sim cell count must be divisible by ranks",
            ));
        }
        if self.runs == 0 {
            return Err(SpecError::new("runs", "must be at least 1"));
        }
        if self.classes.is_empty() {
            return Err(SpecError::new("classes", "must not be empty"));
        }
        if self.bits_per_fault == 0 || self.bits_per_fault > 64 {
            return Err(SpecError::new("bits_per_fault", "must be in 1..=64"));
        }
        let sup = &self.supervision;
        let values = [
            sup.heartbeat_timeout_ms,
            sup.backoff_base_ms,
            sup.backoff_cap_ms,
            sup.max_retries.into(),
        ];
        for ((field, max, why), value) in SUPERVISION_BOUNDS.into_iter().zip(values) {
            if value > max {
                return Err(SpecError::new(field, format!("at most {max}: {why}")));
            }
        }
        Ok(())
    }

    /// The prepared-app pool key: exactly the fields
    /// [`Campaign::prepare`] depends on — application identity, classes and
    /// the tracing/provenance regime its checkpoint ladder is captured
    /// under. Seeds, run counts, the rank pool and the per-run budget are
    /// deliberately absent (a run's budget only decides which rungs it may
    /// restore) — campaigns differing only there share one warmed
    /// [`chaser::PreparedApp`].
    pub fn pool_key(&self) -> String {
        format!(
            "{}|{}|{}|{:?}|{}|{}|{}",
            self.app,
            self.size,
            self.ranks,
            self.classes,
            self.tracing,
            self.provenance,
            self.trace_regime.name(),
        )
    }

    /// The application this spec targets, once it is known to load: a
    /// size whose data alone outgrows guest memory is rejected before
    /// anything is built, and the built programs must launch.
    fn loadable_app(&self) -> Result<AppSpec, SpecError> {
        let guest_bytes = ClusterConfig::default().phys_bytes;
        // Every workload holds at least one 8-byte word per unit of size,
        // and lud's and matvec's matrices size² of them.
        let size = self.size as u64;
        let min_words = match self.app.as_str() {
            "lud" | "matvec" => size.saturating_mul(size),
            _ => size,
        };
        let too_big = || {
            SpecError::new(
                "size",
                format!(
                    "`{}` at size {} does not fit the {} MiB guest",
                    self.app,
                    self.size,
                    guest_bytes >> 20
                ),
            )
        };
        if min_words.saturating_mul(8) > guest_bytes {
            return Err(too_big());
        }
        let app = build_app(&self.app, self.size, self.ranks)
            .ok_or_else(|| SpecError::new("app", format!("unknown application `{}`", self.app)))?;
        let programs: Vec<&Program> = app.programs.iter().collect();
        Cluster::new(app.cluster.clone())
            .launch(&programs)
            .map_err(|_| too_big())?;
        Ok(app)
    }

    /// Builds the application and the full [`CampaignConfig`] this spec
    /// describes (after [`CampaignSpec::validate`]). The daemon overrides
    /// `shard_workers` per its own worker policy.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when validation fails.
    pub fn build(&self) -> Result<(AppSpec, CampaignConfig), SpecError> {
        self.check_fields()?;
        let app = self.loadable_app()?;
        let cfg = CampaignConfig {
            runs: self.runs,
            seed: self.seed,
            parallelism: self.parallelism,
            classes: self.classes.clone(),
            rank_pool: self.rank_pool,
            bits_per_fault: self.bits_per_fault,
            operand: self.operand,
            tracing: self.tracing,
            provenance: self.provenance,
            trace_regime: self.trace_regime,
            run_budget: RunBudget {
                max_insns: self.max_insns,
                max_rounds: self.max_rounds,
            },
            rank_threads: self.rank_threads,
            shards: self.shards,
            journal_sync_rows: self.journal_sync_rows,
            shard_supervision: self.supervision,
            shard_chaos: self.chaos.clone(),
            ..CampaignConfig::default()
        };
        Ok((app, cfg))
    }

    /// Builds the runnable [`Campaign`] with the given shard worker kind.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when validation fails.
    pub fn campaign(&self, workers: ShardWorkers) -> Result<Campaign, SpecError> {
        let (app, mut cfg) = self.build()?;
        cfg.shard_workers = workers;
        Ok(Campaign::new(app, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips_through_the_wire_line() {
        let spec = CampaignSpec::default();
        let parsed = CampaignSpec::from_line(&spec.to_line()).expect("round trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn non_default_spec_round_trips() {
        let spec = CampaignSpec {
            tenant: "alice".into(),
            app: "clamr_sim".into(),
            size: 32,
            ranks: 4,
            runs: 40,
            seed: 99,
            classes: vec![InsnClass::Mov, InsnClass::FpArith],
            rank_pool: RankPool::Random,
            bits_per_fault: 2,
            operand: OperandSel::Dst,
            tracing: true,
            provenance: true,
            trace_regime: TraceRegime::TaintOnly,
            parallelism: 3,
            rank_threads: 2,
            max_insns: 9_000,
            max_rounds: 77,
            shards: 4,
            subprocess_workers: true,
            journal_sync_rows: 8,
            supervision: ShardSupervision {
                heartbeat_timeout_ms: 1_234,
                max_retries: 2,
                backoff_base_ms: 1,
                backoff_cap_ms: 10,
            },
            chaos: vec![ShardChaos {
                shard: 1,
                after_rows: 2,
                attempts: 1,
                kind: ChaosKind::Stall,
            }],
        };
        let parsed = CampaignSpec::from_line(&spec.to_line()).expect("round trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let ok = CampaignSpec::default();
        assert!(ok.validate().is_ok());
        let supervised = |f: fn(&mut ShardSupervision)| {
            let mut spec = ok.clone();
            f(&mut spec.supervision);
            spec
        };
        let cases: Vec<(CampaignSpec, &str)> = vec![
            (
                supervised(|s| s.heartbeat_timeout_ms = 300_001),
                "heartbeat_timeout_ms",
            ),
            (
                supervised(|s| s.backoff_base_ms = 60_001),
                "backoff_base_ms",
            ),
            (
                supervised(|s| s.backoff_cap_ms = u64::MAX),
                "backoff_cap_ms",
            ),
            (supervised(|s| s.max_retries = 9), "max_retries"),
            (
                CampaignSpec {
                    app: "minesweeper".into(),
                    ..ok.clone()
                },
                "app",
            ),
            (
                CampaignSpec {
                    ranks: 1,
                    ..ok.clone()
                },
                "ranks",
            ),
            (
                CampaignSpec {
                    runs: 0,
                    ..ok.clone()
                },
                "runs",
            ),
            (
                CampaignSpec {
                    classes: vec![],
                    ..ok.clone()
                },
                "classes",
            ),
            (
                CampaignSpec {
                    bits_per_fault: 65,
                    ..ok.clone()
                },
                "bits_per_fault",
            ),
            (
                CampaignSpec {
                    tenant: String::new(),
                    ..ok.clone()
                },
                "tenant",
            ),
            (
                CampaignSpec {
                    ranks: MAX_RANKS + 1,
                    ..ok.clone()
                },
                "ranks",
            ),
            (
                CampaignSpec {
                    app: "lud".into(),
                    size: 3000,
                    ..ok.clone()
                },
                "size",
            ),
            (
                CampaignSpec {
                    app: "bfs".into(),
                    size: usize::MAX,
                    ..ok.clone()
                },
                "size",
            ),
        ];
        for (spec, field) in cases {
            let err = spec.validate().expect_err(field);
            assert_eq!(err.field, field);
        }
    }

    #[test]
    fn pool_key_ignores_seed_and_runs_but_not_fault_model_shape() {
        let a = CampaignSpec::default();
        let b = CampaignSpec {
            seed: 1,
            runs: 500,
            shards: 4,
            rank_pool: RankPool::Random,
            max_insns: 9_000,
            ..a.clone()
        };
        assert_eq!(a.pool_key(), b.pool_key());
        let c = CampaignSpec {
            classes: vec![InsnClass::Mov],
            ..a.clone()
        };
        assert_ne!(a.pool_key(), c.pool_key());
        // Regimes must never share a PreparedApp: an `off` tenant's pool
        // entry carries no hook wiring expectations a `full` tenant has.
        let d = CampaignSpec {
            trace_regime: TraceRegime::Off,
            ..a.clone()
        };
        assert_ne!(a.pool_key(), d.pool_key());
    }

    #[test]
    fn a_warm_start_key_from_an_old_client_is_ignored() {
        let line = CampaignSpec::default()
            .to_line()
            .replacen('{', "{\"warm_start\":true,", 1);
        let parsed = CampaignSpec::from_line(&line).expect("old specs still parse");
        assert_eq!(parsed, CampaignSpec::default());
        assert!(!parsed.to_line().contains("warm_start"));
    }

    #[test]
    fn required_app_field_is_enforced() {
        let err = CampaignSpec::from_line("{\"runs\":5}").expect_err("app required");
        assert_eq!(err.field, "app");
        assert!(CampaignSpec::from_line("{nonsense").is_err());
    }

    #[test]
    fn build_maps_every_executable_knob() {
        let spec = CampaignSpec {
            runs: 11,
            seed: 77,
            shards: 3,
            max_insns: 4_500,
            journal_sync_rows: 4,
            ..CampaignSpec::default()
        };
        let (app, cfg) = spec.build().expect("builds");
        assert_eq!(app.nranks(), 4);
        assert_eq!(cfg.runs, 11);
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.shards, 3);
        assert_eq!(cfg.run_budget.max_insns, 4_500);
        assert_eq!(cfg.journal_sync_rows, 4);
        // Service campaigns keep the deterministic defaults for everything
        // the spec does not carry.
        assert!(cfg.panic_runs.is_empty());
    }
}
