//! Append-only shard journals: checkpoint/resume for long campaigns.
//!
//! Each shard of a campaign writes one JSONL file: a header line binding
//! the journal to its campaign (seed, config fingerprint, golden-output
//! digest), the shard's [`ShardMeta`] assignment line, then one line per
//! finished run, appended as workers complete them. A killed campaign
//! leaves at worst one truncated trailing line; running it again over its
//! journals replays the intact rows and re-executes only the missing run
//! indices — reproducing the uninterrupted [`CampaignResult`] byte for
//! byte.
//!
//! The JSON here is hand-rolled: a minimal value model plus explicit
//! encoders/decoders for exactly the types a [`RunOutcome`] contains.

use crate::campaign::RunOutcome;
use crate::injector::InjectionRecord;
use crate::outcome::{Outcome, TermCause};
use crate::session::TraceRegime;
use chaser_isa::InsnClass;
use chaser_mpi::{BudgetKind, Fnv1a, MpiErrorKind, ParallelStats};
use chaser_tcg::CacheStats;
use chaser_vm::{EngineStats, Signal};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

// ---- minimal JSON value model ----

/// A parsed JSON value. Numbers are integers only — nothing a campaign
/// journal stores is fractional.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (wide enough for both `u64` and `i64`).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so encoding is canonical.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` on any other variant.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric field `key` of an object.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] when the field is missing or non-numeric.
    pub fn num(&self, key: &str) -> Result<i128, JournalError> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(bad(format!("missing numeric field `{key}`"))),
        }
    }

    /// The numeric field `key`, narrowed to `u64`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] when the field is missing, non-numeric,
    /// or out of range.
    pub fn u64(&self, key: &str) -> Result<u64, JournalError> {
        u64::try_from(self.num(key)?).map_err(|_| bad(format!("field `{key}` out of u64 range")))
    }

    fn i64(&self, key: &str) -> Result<i64, JournalError> {
        i64::try_from(self.num(key)?).map_err(|_| bad(format!("field `{key}` out of i64 range")))
    }

    /// The string field `key` of an object.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] when the field is missing or not a
    /// string.
    pub fn str(&self, key: &str) -> Result<&str, JournalError> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(bad(format!("missing string field `{key}`"))),
        }
    }

    /// The boolean field `key`, or `default` when absent or non-boolean.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        match self.get(key) {
            Some(Json::Bool(b)) => *b,
            _ => default,
        }
    }
}

/// Encodes `value` canonically (no whitespace, object fields in insertion
/// order) onto `out` — the exact encoding journal lines use, which is what
/// makes re-encoded rows byte-comparable. Public so the serve protocol can
/// speak the same wire format.
pub fn encode(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => encode_int(*n, out),
        Json::Str(s) => encode_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_str(k, out);
                out.push(':');
                encode(v, out);
            }
            out.push('}');
        }
    }
}

/// Writes the decimal digits of `n` straight into `out` (what
/// `n.to_string()` would produce, without the temporary `String`).
fn encode_int(n: i128, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 39]; // u128::MAX has 39 digits
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    // Journal numbers fit in 64 bits; keep the wide division off that path.
    while rest > u128::from(u64::MAX) {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    let mut rest = rest as u64;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("digits are ascii"));
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8 sequences and can be copied as they are.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(char::from_digit(u32::from(b >> 4), 16).expect("hex digit"));
            out.push(char::from_digit(u32::from(b & 0xf), 16).expect("hex digit"));
        } else {
            out.push_str(esc);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse_json`] accepts. Journal rows nest
/// at most 3 levels and protocol frames 4; the bound keeps a hostile line
/// from recursing the parser off the end of its thread's stack.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn bad(msg: impl Into<String>) -> JournalError {
    JournalError::Malformed {
        path: String::new(),
        line: 0,
        msg: msg.into(),
    }
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Parser<'a> {
        Parser {
            src: line,
            bytes: line.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JournalError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(bad(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JournalError> {
        match self.peek().ok_or_else(|| bad("unexpected end of line"))? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(bad(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(bad(format!("unexpected byte `{}`", other as char))),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JournalError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(bad(format!("expected literal `{lit}`")))
        }
    }

    /// `-?[0-9]+`, accumulated digit by digit: anything outside `i128` is
    /// rejected, as `str::parse::<i128>` would.
    fn number(&mut self) -> Result<Json, JournalError> {
        self.skip_ws();
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut n: Option<i128> = Some(0);
        while let Some(&b) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            let d = i128::from(b - b'0');
            // Negative numbers accumulate downwards so `i128::MIN` fits.
            n = n.and_then(|n| n.checked_mul(10)).and_then(|n| {
                if negative {
                    n.checked_sub(d)
                } else {
                    n.checked_add(d)
                }
            });
            self.pos += 1;
        }
        match n {
            Some(n) if self.pos > digits => Ok(Json::Num(n)),
            _ => Err(bad(format!("bad number `{}`", &self.src[start..self.pos]))),
        }
    }

    fn string(&mut self) -> Result<String, JournalError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before either ends on a
            // character boundary of the (already valid UTF-8) line.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| bad("unterminated string"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| bad("dangling escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| bad("short \\u escape"))?;
                    let mut code = 0u32;
                    for &h in hex {
                        code = code * 16
                            + char::from(h)
                                .to_digit(16)
                                .ok_or_else(|| bad("bad \\u escape"))?;
                    }
                    self.pos += 4;
                    out.push(char::from_u32(code).ok_or_else(|| bad("bad \\u code point"))?);
                }
                _ => {
                    let other = self.src[self.pos - 1..].chars().next().unwrap_or('?');
                    return Err(bad(format!("unknown escape `\\{other}`")));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JournalError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(bad("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JournalError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(bad("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one complete JSON value from `line`, rejecting trailing garbage
/// and arrays/objects nested more than 32 deep.
pub fn parse_json(line: &str) -> Result<Json, JournalError> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(bad("trailing bytes after JSON value"));
    }
    Ok(v)
}

// ---- fingerprints ----

/// Digest of the golden run's per-rank output files: resuming against a
/// *different* application (or a changed golden) must be rejected, because
/// journalled SDC/benign classifications are only valid against the golden
/// outputs they were computed from.
pub fn golden_digest(outputs: &[Vec<u8>]) -> u64 {
    let mut h = Fnv1a::new();
    for out in outputs {
        h.write(&(out.len() as u64).to_le_bytes());
        h.write(out);
    }
    h.finish()
}

// ---- journal proper ----

/// Errors reading or validating a journal.
///
/// Every variant carries the offending journal's file path (and, for parse
/// failures, the 1-based line number) so a failure among K shard journals
/// names exactly which file and row broke. Errors minted deep inside the
/// codec start with an empty path / zero line; the file-level readers fill
/// them in via [`JournalError::with_path`] before surfacing them.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io {
        /// The journal file involved (empty when unknown).
        path: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A non-trailing line failed to parse, or a parsed row is missing
    /// required fields.
    Malformed {
        /// The journal file involved (empty when unknown).
        path: String,
        /// 1-based line number of the failing line (0 when unknown).
        line: u64,
        /// What was wrong with it.
        msg: String,
    },
    /// The header does not match the resuming campaign (different seed,
    /// configuration, or golden outputs).
    HeaderMismatch {
        /// The journal file involved (empty when unknown).
        path: String,
        /// What the resuming campaign computed.
        expected: JournalHeader,
        /// What the journal file recorded.
        found: JournalHeader,
    },
}

impl JournalError {
    /// Fills in the journal file path on an error that lacks one.
    pub fn with_path(mut self, p: &Path) -> JournalError {
        let (JournalError::Io { path, .. }
        | JournalError::Malformed { path, .. }
        | JournalError::HeaderMismatch { path, .. }) = &mut self;
        if path.is_empty() {
            *path = p.display().to_string();
        }
        self
    }

    /// Fills in the 1-based line number on a parse error that lacks one.
    fn with_line(mut self, l: u64) -> JournalError {
        if let JournalError::Malformed { line, .. } = &mut self {
            if *line == 0 {
                *line = l;
            }
        }
        self
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, source } if path.is_empty() => {
                write!(f, "journal I/O error: {source}")
            }
            JournalError::Io { path, source } => write!(f, "journal I/O error ({path}): {source}"),
            JournalError::Malformed { path, line, msg } => {
                write!(f, "malformed journal")?;
                if !path.is_empty() {
                    write!(f, " {path}")?;
                    if *line > 0 {
                        write!(f, ":{line}")?;
                    }
                }
                write!(f, ": {msg}")
            }
            JournalError::HeaderMismatch {
                path,
                expected,
                found,
            } => {
                write!(f, "journal")?;
                if !path.is_empty() {
                    write!(f, " {path}")?;
                }
                write!(
                    f,
                    " belongs to a different campaign (differs in: {}; expected {expected:?}, found {found:?})",
                    expected.differing_fields(found).join(", ")
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> JournalError {
        JournalError::Io {
            path: String::new(),
            source: e,
        }
    }
}

/// The journal's first line: binds the file to one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Journal format version.
    pub version: u64,
    /// The campaign's master seed.
    pub seed: u64,
    /// Number of injection runs the campaign will execute.
    pub runs: u64,
    /// Fingerprint of the outcome-relevant campaign configuration
    /// (parallelism excluded — worker count never changes outcomes).
    pub config_hash: u64,
    /// [`golden_digest`] of the golden run's outputs.
    pub golden_digest: u64,
    /// The campaign's tracing regime (v6). Also folded into
    /// `config_hash`, but carried explicitly so a mismatch error can name
    /// the field instead of pointing at an opaque fingerprint.
    pub trace_regime: TraceRegime,
}

/// Current journal format version. Version 2 added the per-run provenance
/// aggregates (`prov_rank_reach` / `prov_blast_radius` / `prov_msg_edges` /
/// `prov_digest`) to outcome rows. Version 3 added the per-run hot-path
/// engine counters (`engine_stats`) to outcome rows and folded the
/// `tb_chaining` / `taint_fast_path` knobs into the config fingerprint.
/// Version 4 added the per-run rank-parallelism counters (`parallel`) to
/// outcome rows and folded `rank_threads` into the config fingerprint.
/// Version 5 added sharded campaigns: the `shards` knob joined the config
/// fingerprint, shard journals carry a [`ShardMeta`] assignment line after
/// the header, and quarantined harness-fault rows may carry a typed
/// `cause` naming the lost shard.
/// Version 6 added the tracing regime: `trace_regime` joined both the
/// header (named field, so mismatches are diagnosable) and the config
/// fingerprint — rows journaled under the statistical `off` regime carry
/// never-armed zeros in their taint counters and must not mix with `full`
/// rows.
/// Version 7 added a block-fusion knob to the config fingerprint and three
/// fusion counters to outcome rows' `engine_stats`.
/// Version 8 removed both again, with the fusion itself (DESIGN §14).
/// Version 9 came with the checkpoint ladder (DESIGN §7): `warm_start` left
/// the config fingerprint (it stopped being a choice), and the per-row
/// `cache_stats` / `engine_stats` / `parallel` counters describe only the
/// suffix a run executed after its ladder rung, so they must not mix with
/// v8 rows that counted whole runs.
/// Version 10 removed `shared_tb_cache`, `tb_chaining` and `taint_fast_path`
/// from the config fingerprint with the campaign knobs themselves (DESIGN
/// §16): no campaign can run with them off, so a journal has nothing to
/// record.
/// Version 11 removed `chain_severs` from the rows' `engine_stats` with TB
/// chaining (the jump cache replaced it, DESIGN §9) and `asid_flushes` from
/// their `cache_stats` with `TbCache::flush_asid`; `tb_chain_hits` now
/// counts jump-cache hits.
pub const JOURNAL_VERSION: u64 = 11;

/// Line 2 of a *shard* journal: which contiguous slice of the campaign's
/// run-index range this file owns. The merge uses it to prove coverage
/// (every index in exactly one shard) and to reject rows outside their
/// shard's slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard id (0-based, dense).
    pub shard: u64,
    /// First run index this shard owns (inclusive).
    pub start: u64,
    /// One past the last run index this shard owns (exclusive).
    pub end: u64,
}

impl ShardMeta {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("chaser_shard".into(), Json::Num(self.shard as i128)),
            ("start".into(), Json::Num(self.start as i128)),
            ("end".into(), Json::Num(self.end as i128)),
        ])
    }

    fn from_json(v: &Json) -> Result<ShardMeta, JournalError> {
        Ok(ShardMeta {
            shard: v.u64("chaser_shard")?,
            start: v.u64("start")?,
            end: v.u64("end")?,
        })
    }
}

impl JournalHeader {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("chaser_journal".into(), Json::Num(self.version as i128)),
            ("seed".into(), Json::Num(self.seed as i128)),
            ("runs".into(), Json::Num(self.runs as i128)),
            ("config_hash".into(), Json::Num(self.config_hash as i128)),
            (
                "golden_digest".into(),
                Json::Num(self.golden_digest as i128),
            ),
            (
                "trace_regime".into(),
                Json::Str(self.trace_regime.name().into()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<JournalHeader, JournalError> {
        let regime = v.str("trace_regime")?;
        Ok(JournalHeader {
            version: v.u64("chaser_journal")?,
            seed: v.u64("seed")?,
            runs: v.u64("runs")?,
            config_hash: v.u64("config_hash")?,
            golden_digest: v.u64("golden_digest")?,
            trace_regime: TraceRegime::from_name(regime)
                .ok_or_else(|| bad(format!("unknown trace regime `{regime}`")))?,
        })
    }

    /// Names of the header fields on which `self` and `other` disagree —
    /// what a [`JournalError::HeaderMismatch`] reports, so "resumed under
    /// the wrong trace regime" reads as `trace_regime` rather than an
    /// opaque fingerprint difference.
    pub fn differing_fields(&self, other: &JournalHeader) -> Vec<&'static str> {
        let mut fields = Vec::new();
        if self.version != other.version {
            fields.push("version");
        }
        if self.seed != other.seed {
            fields.push("seed");
        }
        if self.runs != other.runs {
            fields.push("runs");
        }
        if self.config_hash != other.config_hash {
            fields.push("config_hash");
        }
        if self.golden_digest != other.golden_digest {
            fields.push("golden_digest");
        }
        if self.trace_regime != other.trace_regime {
            fields.push("trace_regime");
        }
        fields
    }
}

/// One replayed journal row.
#[derive(Debug, Clone)]
pub enum JournalRow {
    /// A classified (or quarantined) run.
    Outcome(Box<RunOutcome>),
    /// A run whose fault never fired; only its cache statistics matter.
    Skip {
        /// The skipped run index.
        run_idx: u64,
        /// The run's translation-cache statistics.
        cache_stats: CacheStats,
    },
}

impl JournalRow {
    /// The run index this row finishes.
    pub fn run_idx(&self) -> u64 {
        match self {
            JournalRow::Outcome(o) => o.run_idx,
            JournalRow::Skip { run_idx, .. } => *run_idx,
        }
    }

    /// The row re-encoded exactly as the journal writes it (sans newline).
    /// Two rows are *the same row* iff their canonical lines are equal —
    /// the merge uses this to tell a harmless exact duplicate from two
    /// conflicting results for one run index.
    pub fn canonical_line(&self) -> String {
        let value = match self {
            JournalRow::Outcome(o) => outcome_to_json(o),
            JournalRow::Skip {
                run_idx,
                cache_stats,
            } => Json::Obj(vec![
                ("run_idx".into(), Json::Num(*run_idx as i128)),
                ("skip".into(), Json::Bool(true)),
                ("cache_stats".into(), cache_stats_to_json(cache_stats)),
            ]),
        };
        let mut line = String::new();
        encode(&value, &mut line);
        line
    }
}

/// Default journal fsync interval, in rows (see
/// [`CampaignJournal::create_with`]).
pub const DEFAULT_SYNC_ROWS: u64 = 32;

#[derive(Debug)]
struct SyncedWriter {
    buf: BufWriter<File>,
    /// `sync_data` every this many rows; 0 = flush only, never fsync.
    sync_every: u64,
    rows_since_sync: u64,
}

/// An open, append-mode campaign journal. Thread-safe: campaign workers
/// append rows concurrently; every row is written (and flushed) as one
/// whole line under a lock, so a kill can only truncate the final line.
/// On top of the per-row flush, the file is `fsync`ed every `sync_every`
/// rows so a power loss is bounded too — a SIGKILL'd worker loses at most
/// the torn final line the reader already tolerates.
#[derive(Debug)]
pub struct CampaignJournal {
    path: String,
    writer: Mutex<SyncedWriter>,
}

impl CampaignJournal {
    /// Creates (truncating) a journal at `path` and writes the header.
    /// `sync_every` is the durability knob: `sync_data` the file every that
    /// many appended rows (0 = flush to the OS only, never fsync).
    pub fn create_with(
        path: &Path,
        header: JournalHeader,
        sync_every: u64,
    ) -> Result<CampaignJournal, JournalError> {
        let file = File::create(path).map_err(|e| JournalError::from(e).with_path(path))?;
        let journal = CampaignJournal {
            path: path.display().to_string(),
            writer: Mutex::new(SyncedWriter {
                buf: BufWriter::new(file),
                sync_every,
                rows_since_sync: 0,
            }),
        };
        journal.append_line(&header.to_json())?;
        Ok(journal)
    }

    /// Creates (truncating) a *shard* journal: header, then the shard's
    /// [`ShardMeta`] assignment line, both made durable immediately so a
    /// worker crash can never lose the preamble.
    pub fn create_shard(
        path: &Path,
        header: JournalHeader,
        meta: ShardMeta,
        sync_every: u64,
    ) -> Result<CampaignJournal, JournalError> {
        let journal = CampaignJournal::create_with(path, header, sync_every)?;
        journal.append_line(&meta.to_json())?;
        journal.sync_now()?;
        Ok(journal)
    }

    /// Reopens `path` for appending further rows (resume). A torn final
    /// line — the shape a kill mid-write leaves behind — is trimmed back to
    /// the last complete row first, so appended rows start on a fresh line.
    /// `sync_every` as for [`CampaignJournal::create_with`].
    pub fn append_to_with(path: &Path, sync_every: u64) -> Result<CampaignJournal, JournalError> {
        let ctx = |e: io::Error| JournalError::from(e).with_path(path);
        let bytes = std::fs::read(path).map_err(ctx)?;
        if !bytes.is_empty() && !bytes.ends_with(b"\n") {
            let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let file = OpenOptions::new().write(true).open(path).map_err(ctx)?;
            file.set_len(keep as u64).map_err(ctx)?;
        }
        let file = OpenOptions::new().append(true).open(path).map_err(ctx)?;
        Ok(CampaignJournal {
            path: path.display().to_string(),
            writer: Mutex::new(SyncedWriter {
                buf: BufWriter::new(file),
                sync_every,
                rows_since_sync: 0,
            }),
        })
    }

    fn io_ctx(&self, e: io::Error) -> JournalError {
        JournalError::Io {
            path: self.path.clone(),
            source: e,
        }
    }

    fn append_line(&self, value: &Json) -> Result<(), JournalError> {
        let mut line = String::new();
        encode(value, &mut line);
        line.push('\n');
        let mut w = self.writer.lock().expect("journal lock poisoned");
        w.buf
            .write_all(line.as_bytes())
            .map_err(|e| self.io_ctx(e))?;
        w.buf.flush().map_err(|e| self.io_ctx(e))?;
        w.rows_since_sync += 1;
        if w.sync_every > 0 && w.rows_since_sync >= w.sync_every {
            w.buf.get_ref().sync_data().map_err(|e| self.io_ctx(e))?;
            w.rows_since_sync = 0;
        }
        Ok(())
    }

    /// Forces the journal to stable storage now, regardless of interval.
    pub fn sync_now(&self) -> Result<(), JournalError> {
        let mut w = self.writer.lock().expect("journal lock poisoned");
        w.buf.flush().map_err(|e| self.io_ctx(e))?;
        w.buf.get_ref().sync_data().map_err(|e| self.io_ctx(e))?;
        w.rows_since_sync = 0;
        Ok(())
    }

    /// Appends one finished run.
    pub fn append_outcome(&self, outcome: &RunOutcome) -> Result<(), JournalError> {
        self.append_line(&outcome_to_json(outcome))
    }

    /// Appends a skipped (never-fired) run.
    pub fn append_skip(&self, run_idx: u64, cache_stats: CacheStats) -> Result<(), JournalError> {
        self.append_line(&Json::Obj(vec![
            ("run_idx".into(), Json::Num(run_idx as i128)),
            ("skip".into(), Json::Bool(true)),
            ("cache_stats".into(), cache_stats_to_json(&cache_stats)),
        ]))
    }

    /// Reads and validates a shard journal: the header, the shard's
    /// [`ShardMeta`] assignment, then the intact rows. A truncated *final*
    /// line (the kill signature) is tolerated and dropped; a malformed line
    /// anywhere else is an error.
    pub fn read_shard(
        path: &Path,
    ) -> Result<(JournalHeader, ShardMeta, Vec<JournalRow>), JournalError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| JournalError::from(e).with_path(path))?;
        let complete = text.ends_with('\n');
        // Keep real 1-based line numbers through the blank-line filter so
        // errors point at the exact row in the file.
        let lines: Vec<(u64, &str)> = text
            .split('\n')
            .enumerate()
            .map(|(i, l)| ((i + 1) as u64, l))
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let Some(&(header_no, header_line)) = lines.first() else {
            return Err(bad("empty journal (no header line)").with_path(path));
        };
        let header = parse_json(header_line)
            .and_then(|v| JournalHeader::from_json(&v))
            .map_err(|e| e.with_line(header_no).with_path(path))?;
        let Some(&(meta_no, meta_line)) = lines.get(1) else {
            return Err(bad("shard journal missing its shard-assignment line")
                .with_line(2)
                .with_path(path));
        };
        let meta = parse_json(meta_line)
            .and_then(|v| ShardMeta::from_json(&v))
            .map_err(|e| e.with_line(meta_no).with_path(path))?;
        let rest = &lines[2..];
        let mut rows = Vec::new();
        for (i, &(line_no, line)) in rest.iter().enumerate() {
            let parsed = parse_json(line).and_then(|v| row_from_json(&v));
            match parsed {
                Ok(row) => rows.push(row),
                // Only the final line may be damaged (the append was cut
                // mid-write); anything earlier means real corruption.
                Err(_) if i + 1 == rest.len() && !complete => break,
                Err(e) => return Err(e.with_line(line_no).with_path(path)),
            }
        }
        Ok((header, meta, rows))
    }
}

// ---- RunOutcome <-> JSON ----

fn cache_stats_to_json(c: &CacheStats) -> Json {
    Json::Obj(vec![
        ("lookups".into(), Json::Num(c.lookups as i128)),
        ("misses".into(), Json::Num(c.misses as i128)),
        ("base_hits".into(), Json::Num(c.base_hits as i128)),
        ("overlay_hits".into(), Json::Num(c.overlay_hits as i128)),
        ("flushes".into(), Json::Num(c.flushes as i128)),
        (
            "translated_insns".into(),
            Json::Num(c.translated_insns as i128),
        ),
        ("overlay_blocks".into(), Json::Num(c.overlay_blocks as i128)),
        ("base_blocks".into(), Json::Num(c.base_blocks as i128)),
    ])
}

fn cache_stats_from_json(v: &Json) -> Result<CacheStats, JournalError> {
    Ok(CacheStats {
        lookups: v.u64("lookups")?,
        misses: v.u64("misses")?,
        base_hits: v.u64("base_hits")?,
        overlay_hits: v.u64("overlay_hits")?,
        flushes: v.u64("flushes")?,
        translated_insns: v.u64("translated_insns")?,
        overlay_blocks: v.u64("overlay_blocks")?,
        base_blocks: v.u64("base_blocks")?,
    })
}

fn engine_stats_to_json(e: &EngineStats) -> Json {
    Json::Obj(vec![
        ("tb_chain_hits".into(), Json::Num(e.tb_chain_hits as i128)),
        (
            "fast_path_insns".into(),
            Json::Num(e.fast_path_insns as i128),
        ),
        (
            "slow_path_insns".into(),
            Json::Num(e.slow_path_insns as i128),
        ),
    ])
}

fn engine_stats_from_json(v: &Json) -> Result<EngineStats, JournalError> {
    Ok(EngineStats {
        tb_chain_hits: v.u64("tb_chain_hits")?,
        fast_path_insns: v.u64("fast_path_insns")?,
        slow_path_insns: v.u64("slow_path_insns")?,
        ..EngineStats::default()
    })
}

fn parallel_stats_to_json(p: &ParallelStats) -> Json {
    Json::Obj(vec![
        ("threads".into(), Json::Num(p.threads as i128)),
        ("rounds".into(), Json::Num(p.rounds as i128)),
        (
            "parallel_rounds".into(),
            Json::Num(p.parallel_rounds as i128),
        ),
        (
            "max_worker_insns".into(),
            Json::Num(p.max_worker_insns as i128),
        ),
        (
            "total_worker_insns".into(),
            Json::Num(p.total_worker_insns as i128),
        ),
    ])
}

fn parallel_stats_from_json(v: &Json) -> Result<ParallelStats, JournalError> {
    Ok(ParallelStats {
        threads: v.u64("threads")?,
        rounds: v.u64("rounds")?,
        parallel_rounds: v.u64("parallel_rounds")?,
        max_worker_insns: v.u64("max_worker_insns")?,
        total_worker_insns: v.u64("total_worker_insns")?,
    })
}

fn record_to_json(r: &InjectionRecord) -> Json {
    Json::Obj(vec![
        ("node".into(), Json::Num(r.node as i128)),
        ("pid".into(), Json::Num(r.pid as i128)),
        ("pc".into(), Json::Num(r.pc as i128)),
        ("insn".into(), Json::Str(r.insn.clone())),
        ("operand".into(), Json::Str(r.operand.clone())),
        ("old_bits".into(), Json::Num(r.old_bits as i128)),
        ("new_bits".into(), Json::Num(r.new_bits as i128)),
        ("taint_mask".into(), Json::Num(r.taint_mask as i128)),
        ("icount".into(), Json::Num(r.icount as i128)),
        ("exec_count".into(), Json::Num(r.exec_count as i128)),
    ])
}

fn record_from_json(v: &Json) -> Result<InjectionRecord, JournalError> {
    Ok(InjectionRecord {
        node: v.u64("node")? as u32,
        pid: v.u64("pid")?,
        pc: v.u64("pc")?,
        insn: v.str("insn")?.to_string(),
        operand: v.str("operand")?.to_string(),
        old_bits: v.u64("old_bits")?,
        new_bits: v.u64("new_bits")?,
        taint_mask: v.u64("taint_mask")?,
        icount: v.u64("icount")?,
        exec_count: v.u64("exec_count")?,
    })
}

fn signal_name(s: Signal) -> &'static str {
    match s {
        Signal::Segv => "segv",
        Signal::Fpe => "fpe",
        Signal::Ill => "ill",
    }
}

fn signal_from_name(s: &str) -> Result<Signal, JournalError> {
    match s {
        "segv" => Ok(Signal::Segv),
        "fpe" => Ok(Signal::Fpe),
        "ill" => Ok(Signal::Ill),
        other => Err(bad(format!("unknown signal `{other}`"))),
    }
}

fn mpi_error_name(k: MpiErrorKind) -> &'static str {
    match k {
        MpiErrorKind::NotInitialized => "not_initialized",
        MpiErrorKind::InvalidRank => "invalid_rank",
        MpiErrorKind::InvalidDatatype => "invalid_datatype",
        MpiErrorKind::InvalidCount => "invalid_count",
        MpiErrorKind::InvalidOp => "invalid_op",
        MpiErrorKind::Truncation => "truncation",
        MpiErrorKind::TypeMismatch => "type_mismatch",
        MpiErrorKind::RankDied => "rank_died",
    }
}

fn mpi_error_from_name(s: &str) -> Result<MpiErrorKind, JournalError> {
    Ok(match s {
        "not_initialized" => MpiErrorKind::NotInitialized,
        "invalid_rank" => MpiErrorKind::InvalidRank,
        "invalid_datatype" => MpiErrorKind::InvalidDatatype,
        "invalid_count" => MpiErrorKind::InvalidCount,
        "invalid_op" => MpiErrorKind::InvalidOp,
        "truncation" => MpiErrorKind::Truncation,
        "type_mismatch" => MpiErrorKind::TypeMismatch,
        "rank_died" => MpiErrorKind::RankDied,
        other => return Err(bad(format!("unknown MPI error `{other}`"))),
    })
}

/// The canonical journal name of an instruction class (its `Debug` form) —
/// the inverse of [`class_from_name`].
pub fn class_name(c: InsnClass) -> String {
    format!("{c:?}")
}

/// Parses the canonical journal name of an instruction class.
///
/// # Errors
///
/// [`JournalError::Malformed`] on an unknown name.
pub fn class_from_name(s: &str) -> Result<InsnClass, JournalError> {
    Ok(match s {
        "Mov" => InsnClass::Mov,
        "IntAlu" => InsnClass::IntAlu,
        "Cmp" => InsnClass::Cmp,
        "Fadd" => InsnClass::Fadd,
        "Fsub" => InsnClass::Fsub,
        "Fmul" => InsnClass::Fmul,
        "Fdiv" => InsnClass::Fdiv,
        "FpArith" => InsnClass::FpArith,
        "FMov" => InsnClass::FMov,
        "Fcmp" => InsnClass::Fcmp,
        "Branch" => InsnClass::Branch,
        "Any" => InsnClass::Any,
        other => return Err(bad(format!("unknown instruction class `{other}`"))),
    })
}

fn cause_to_json(cause: &TermCause) -> Json {
    let kv = |k: &str, fields: Vec<(String, Json)>| {
        let mut all = vec![("kind".to_string(), Json::Str(k.to_string()))];
        all.extend(fields);
        Json::Obj(all)
    };
    match cause {
        TermCause::BudgetExhausted(kind) => kv(
            "budget",
            vec![(
                "which".into(),
                Json::Str(
                    match kind {
                        BudgetKind::Insns => "insns",
                        BudgetKind::Rounds => "rounds",
                    }
                    .into(),
                ),
            )],
        ),
        TermCause::OsException { rank, signal } => kv(
            "os_exception",
            vec![
                ("rank".into(), Json::Num(*rank as i128)),
                ("signal".into(), Json::Str(signal_name(*signal).into())),
            ],
        ),
        TermCause::MpiError(kind) => kv(
            "mpi_error",
            vec![("which".into(), Json::Str(mpi_error_name(*kind).into()))],
        ),
        TermCause::AssertionFailure { rank, code } => kv(
            "assertion",
            vec![
                ("rank".into(), Json::Num(*rank as i128)),
                ("code".into(), Json::Num(*code as i128)),
            ],
        ),
        TermCause::AbnormalExit { rank, code } => kv(
            "abnormal_exit",
            vec![
                ("rank".into(), Json::Num(*rank as i128)),
                ("code".into(), Json::Num(*code as i128)),
            ],
        ),
        TermCause::Hang => kv("hang", vec![]),
        TermCause::ShardLost { shard } => kv(
            "shard_lost",
            vec![("shard".into(), Json::Num(*shard as i128))],
        ),
    }
}

fn cause_from_json(v: &Json) -> Result<TermCause, JournalError> {
    Ok(match v.str("kind")? {
        "budget" => TermCause::BudgetExhausted(match v.str("which")? {
            "insns" => BudgetKind::Insns,
            "rounds" => BudgetKind::Rounds,
            other => return Err(bad(format!("unknown budget kind `{other}`"))),
        }),
        "os_exception" => TermCause::OsException {
            rank: v.u64("rank")? as u32,
            signal: signal_from_name(v.str("signal")?)?,
        },
        "mpi_error" => TermCause::MpiError(mpi_error_from_name(v.str("which")?)?),
        "assertion" => TermCause::AssertionFailure {
            rank: v.u64("rank")? as u32,
            code: v.i64("code")?,
        },
        "abnormal_exit" => TermCause::AbnormalExit {
            rank: v.u64("rank")? as u32,
            code: v.i64("code")?,
        },
        "hang" => TermCause::Hang,
        "shard_lost" => TermCause::ShardLost {
            shard: v.u64("shard")?,
        },
        other => return Err(bad(format!("unknown termination cause `{other}`"))),
    })
}

fn outcome_kind_to_json(outcome: &Outcome) -> Json {
    match outcome {
        Outcome::Benign => Json::Obj(vec![("kind".into(), Json::Str("benign".into()))]),
        Outcome::Sdc => Json::Obj(vec![("kind".into(), Json::Str("sdc".into()))]),
        Outcome::Terminated(cause) => Json::Obj(vec![
            ("kind".into(), Json::Str("terminated".into())),
            ("cause".into(), cause_to_json(cause)),
        ]),
        Outcome::HarnessFault {
            run_idx,
            payload,
            cause,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("harness_fault".into())),
            ("run_idx".into(), Json::Num(*run_idx as i128)),
            ("payload".into(), Json::Str(payload.clone())),
            (
                "cause".into(),
                cause.as_ref().map_or(Json::Null, cause_to_json),
            ),
        ]),
    }
}

fn outcome_kind_from_json(v: &Json) -> Result<Outcome, JournalError> {
    Ok(match v.str("kind")? {
        "benign" => Outcome::Benign,
        "sdc" => Outcome::Sdc,
        "terminated" => Outcome::Terminated(cause_from_json(
            v.get("cause").ok_or_else(|| bad("missing `cause`"))?,
        )?),
        "harness_fault" => Outcome::HarnessFault {
            run_idx: v.u64("run_idx")?,
            payload: v.str("payload")?.to_string(),
            cause: match v.get("cause") {
                Some(Json::Null) | None => None,
                Some(c) => Some(cause_from_json(c)?),
            },
        },
        other => return Err(bad(format!("unknown outcome kind `{other}`"))),
    })
}

fn outcome_to_json(o: &RunOutcome) -> Json {
    Json::Obj(vec![
        ("run_idx".into(), Json::Num(o.run_idx as i128)),
        ("outcome".into(), outcome_kind_to_json(&o.outcome)),
        ("class".into(), Json::Str(class_name(o.class))),
        ("rank".into(), Json::Num(o.rank as i128)),
        ("trigger_n".into(), Json::Num(o.trigger_n as i128)),
        ("injected".into(), Json::Bool(o.injected)),
        ("taint_reads".into(), Json::Num(o.taint_reads as i128)),
        ("taint_writes".into(), Json::Num(o.taint_writes as i128)),
        ("cross_rank".into(), Json::Num(o.cross_rank as i128)),
        ("total_insns".into(), Json::Num(o.total_insns as i128)),
        (
            "taint_sync_lost".into(),
            Json::Num(o.taint_sync_lost as i128),
        ),
        (
            "prov_rank_reach".into(),
            Json::Num(o.prov_rank_reach as i128),
        ),
        (
            "prov_blast_radius".into(),
            Json::Num(o.prov_blast_radius as i128),
        ),
        ("prov_msg_edges".into(), Json::Num(o.prov_msg_edges as i128)),
        ("prov_digest".into(), Json::Num(o.prov_digest as i128)),
        (
            "record".into(),
            o.record.as_ref().map_or(Json::Null, record_to_json),
        ),
        ("cache_stats".into(), cache_stats_to_json(&o.cache_stats)),
        ("engine_stats".into(), engine_stats_to_json(&o.engine_stats)),
        ("parallel".into(), parallel_stats_to_json(&o.parallel)),
    ])
}

fn outcome_from_json(v: &Json) -> Result<RunOutcome, JournalError> {
    Ok(RunOutcome {
        run_idx: v.u64("run_idx")?,
        outcome: outcome_kind_from_json(v.get("outcome").ok_or_else(|| bad("missing `outcome`"))?)?,
        class: class_from_name(v.str("class")?)?,
        rank: v.u64("rank")? as u32,
        trigger_n: v.u64("trigger_n")?,
        injected: v.bool_or("injected", false),
        taint_reads: v.u64("taint_reads")?,
        taint_writes: v.u64("taint_writes")?,
        cross_rank: v.u64("cross_rank")?,
        total_insns: v.u64("total_insns")?,
        taint_sync_lost: v.u64("taint_sync_lost")?,
        prov_rank_reach: v.u64("prov_rank_reach")? as u32,
        prov_blast_radius: v.u64("prov_blast_radius")?,
        prov_msg_edges: v.u64("prov_msg_edges")?,
        prov_digest: v.u64("prov_digest")?,
        record: match v.get("record") {
            Some(Json::Null) | None => None,
            Some(rec) => Some(record_from_json(rec)?),
        },
        cache_stats: cache_stats_from_json(
            v.get("cache_stats")
                .ok_or_else(|| bad("missing `cache_stats`"))?,
        )?,
        engine_stats: engine_stats_from_json(
            v.get("engine_stats")
                .ok_or_else(|| bad("missing `engine_stats`"))?,
        )?,
        parallel: parallel_stats_from_json(
            v.get("parallel").ok_or_else(|| bad("missing `parallel`"))?,
        )?,
    })
}

fn row_from_json(v: &Json) -> Result<JournalRow, JournalError> {
    if v.bool_or("skip", false) {
        Ok(JournalRow::Skip {
            run_idx: v.u64("run_idx")?,
            cache_stats: cache_stats_from_json(
                v.get("cache_stats")
                    .ok_or_else(|| bad("missing `cache_stats`"))?,
            )?,
        })
    } else {
        Ok(JournalRow::Outcome(Box::new(outcome_from_json(v)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> RunOutcome {
        RunOutcome {
            run_idx: 7,
            outcome: Outcome::Terminated(TermCause::OsException {
                rank: 0,
                signal: Signal::Segv,
            }),
            class: InsnClass::FpArith,
            rank: 0,
            trigger_n: 1234,
            injected: true,
            taint_reads: 5,
            taint_writes: 3,
            cross_rank: 1,
            total_insns: 99_000,
            taint_sync_lost: 0,
            prov_rank_reach: 2,
            prov_blast_radius: 48,
            prov_msg_edges: 1,
            prov_digest: 0xDEAD_BEEF,
            record: Some(InjectionRecord {
                node: 0,
                pid: 1,
                pc: 0x40_0010,
                insn: "fadd f0, f1".into(),
                operand: "f0".into(),
                old_bits: 0x3ff0_0000_0000_0000,
                new_bits: 0x3ff0_0000_0000_0001,
                taint_mask: 1,
                icount: 777,
                exec_count: 1234,
            }),
            cache_stats: CacheStats {
                lookups: 10,
                misses: 2,
                ..CacheStats::default()
            },
            engine_stats: EngineStats {
                tb_chain_hits: 42,
                fast_path_insns: 800,
                slow_path_insns: 7,
                ..EngineStats::default()
            },
            parallel: ParallelStats {
                threads: 4,
                rounds: 12,
                parallel_rounds: 11,
                max_worker_insns: 30_000,
                total_worker_insns: 99_000,
            },
        }
    }

    #[test]
    fn outcome_rows_round_trip() {
        for outcome in [
            Outcome::Benign,
            Outcome::Sdc,
            Outcome::Terminated(TermCause::Hang),
            Outcome::Terminated(TermCause::BudgetExhausted(BudgetKind::Rounds)),
            Outcome::Terminated(TermCause::MpiError(MpiErrorKind::Truncation)),
            Outcome::Terminated(TermCause::AssertionFailure { rank: 2, code: -9 }),
            Outcome::HarnessFault {
                run_idx: 7,
                payload: "index out of bounds: \"quoted\"".into(),
                cause: None,
            },
            Outcome::HarnessFault {
                run_idx: 8,
                payload: "shard 3 lost".into(),
                cause: Some(TermCause::ShardLost { shard: 3 }),
            },
        ] {
            let mut o = sample_outcome();
            o.outcome = outcome;
            let mut line = String::new();
            encode(&outcome_to_json(&o), &mut line);
            let back = outcome_from_json(&parse_json(&line).expect("parse")).expect("decode");
            assert_eq!(format!("{o:?}"), format!("{back:?}"), "round trip");
        }
    }

    #[test]
    fn strings_with_escapes_survive() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f — π".into());
        let mut line = String::new();
        encode(&v, &mut line);
        assert_eq!(parse_json(&line).expect("parse"), v);
    }

    #[test]
    fn numbers_encode_as_to_string_and_parse_back() {
        for n in [
            0,
            7,
            -1,
            10,
            -10,
            i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            i128::from(i64::MIN),
            i128::MAX,
            i128::MIN,
        ] {
            let mut line = String::new();
            encode(&Json::Num(n), &mut line);
            assert_eq!(line, n.to_string());
            assert_eq!(parse_json(&line).expect("parse"), Json::Num(n));
        }
        assert_eq!(parse_json("-0").expect("parse"), Json::Num(0));
        assert_eq!(parse_json(" 007 ").expect("parse"), Json::Num(7));
        for rejected in [
            "-",
            "--1",
            "1.5",
            "1e3",
            "+1",
            "170141183460469231731687303715884105728",
            "-170141183460469231731687303715884105729",
        ] {
            assert!(parse_json(rejected).is_err(), "{rejected}");
        }
    }

    #[test]
    fn control_characters_encode_as_lowercase_unicode_escapes() {
        let mut line = String::new();
        encode(&Json::Str("\u{0}\u{1f}\u{7f}é".into()), &mut line);
        assert_eq!(line, "\"\\u0000\\u001f\u{7f}é\"");
        assert_eq!(
            parse_json(&line).expect("parse"),
            Json::Str("\u{0}\u{1f}\u{7f}é".into())
        );
        for rejected in [
            "\"abc",
            "\"\\",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\é\"",
            "\"\\x\"",
        ] {
            assert!(parse_json(rejected).is_err(), "{rejected}");
        }
        assert_eq!(
            parse_json("\"\\/\\u00e9\"").expect("parse"),
            Json::Str("/é".into())
        );
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse_json(&nested(MAX_DEPTH, open, close)).is_ok());
            let err = parse_json(&nested(MAX_DEPTH + 1, open, close)).expect_err("too deep");
            assert!(
                matches!(&err, JournalError::Malformed { msg, .. } if msg.contains("nesting")),
                "{err}"
            );
        }
        // Deep enough to overflow any thread stack if the parser recursed.
        let hostile = "[".repeat(100_000);
        assert!(matches!(
            parse_json(&hostile),
            Err(JournalError::Malformed { .. })
        ));
    }

    const HEADER: JournalHeader = JournalHeader {
        version: JOURNAL_VERSION,
        seed: 1,
        runs: 10,
        config_hash: 2,
        golden_digest: 3,
        trace_regime: TraceRegime::Full,
    };
    const META: ShardMeta = ShardMeta {
        shard: 0,
        start: 0,
        end: 10,
    };

    #[test]
    fn truncated_final_line_is_tolerated() {
        let dir = std::env::temp_dir().join("chaser-journal-test-trunc");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("j.jsonl");
        let j = CampaignJournal::create_shard(&path, HEADER, META, 0).expect("create");
        j.append_outcome(&sample_outcome()).expect("append");
        drop(j);
        // Simulate a kill mid-append: add a half-written row.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"run_idx\":9,\"outco");
        std::fs::write(&path, &text).expect("write");
        let (h, m, rows) = CampaignJournal::read_shard(&path).expect("read back");
        assert_eq!((h, m), (HEADER, META));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].run_idx(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_before_the_final_line_is_an_error() {
        let dir = std::env::temp_dir().join("chaser-journal-test-corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("j.jsonl");
        let j = CampaignJournal::create_shard(&path, HEADER, META, 0).expect("create");
        j.append_skip(0, CacheStats::default()).expect("append");
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        // Damage the middle line, keep a valid complete line after it.
        let damaged = text.replace("\"skip\":true", "\"skip\":tr");
        let with_tail = format!("{damaged}{{\"run_idx\":1,\"skip\":true,\"cache_stats\":{{\"lookups\":0,\"misses\":0,\"base_hits\":0,\"overlay_hits\":0,\"flushes\":0,\"translated_insns\":0,\"overlay_blocks\":0,\"base_blocks\":0}}}}\n");
        std::fs::write(&path, &with_tail).expect("write");
        assert!(CampaignJournal::read_shard(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
