//! Crash-safe campaign journal and streaming report writer.
//!
//! The journal is an append-only JSONL file: one header line identifying
//! the campaign (name, job count, and an FNV-1a hash of the job matrix),
//! then one line per retired job. Records are appended as jobs complete
//! — in scheduling order, not input order — and fsync'd in batches, so a
//! killed campaign loses at most the last unsynced batch plus its
//! in-flight jobs. `hwdbg campaign --resume <journal>` replays the
//! completed records, revalidates the spec hash, and reruns only the
//! remainder; the final results section is byte-identical to an
//! uninterrupted run.
//!
//! Layout:
//!
//! ```text
//! {"journal": "hwdbg-campaign", "version": 1, "campaign": "fault-matrix", "jobs": 80, "spec_hash": "a1b2c3d4e5f60718"}
//! {"job": 3, "record": {"design": "d1", "fault": "stuck0", ... }}
//! {"job": 0, "record": { ... }}
//! ```
//!
//! A torn final line (the process died mid-write) is tolerated on load;
//! anything else malformed is a typed [`CampaignError::Journal`].
//!
//! [`StreamingReport`] reuses the same retire hook to stream the full
//! report to `--out` as jobs finish, reordering records through a small
//! buffer so the streamed file is byte-identical to
//! [`CampaignReport::to_json`](crate::CampaignReport::to_json).

use crate::job::{Campaign, Drive, Verdict};
use crate::report::{results_footer, results_header, timing_tail, CampaignReport, JobRecord};
use crate::CampaignError;
use hwdbg_obs::{json_escape, SimCounters};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Journal format version; bumped on any layout change.
pub const JOURNAL_VERSION: u64 = 1;

/// How many appended records share one fsync. A crash loses at most
/// this many synced-but-buffered records (they are rerun on resume).
const SYNC_BATCH: u32 = 16;

// ---------------------------------------------------------------------
// Spec hash
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 over the campaign's job matrix: name, job count, and each
/// job's labels + drive shape. Resume refuses a journal whose hash does
/// not match the freshly built campaign — the spec changed underneath it
/// and the completed records describe different jobs.
pub fn spec_hash(campaign: &Campaign) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv(h, campaign.name.as_bytes());
    h = fnv(h, &[0]);
    h = fnv(h, campaign.jobs.len().to_string().as_bytes());
    for job in &campaign.jobs {
        h = fnv(h, &[0]);
        h = fnv(h, job.design.as_bytes());
        h = fnv(h, &[0]);
        h = fnv(h, job.fault.as_bytes());
        h = fnv(h, &[0]);
        h = fnv(h, job.seed.as_bytes());
        h = fnv(h, &[0]);
        match &job.drive {
            Drive::Workload(id) => h = fnv(h, format!("w:{id}").as_bytes()),
            Drive::FreeRun { clock, cycles, .. } => {
                h = fnv(h, format!("f:{clock}:{cycles}").as_bytes());
            }
        }
    }
    h
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-only journal writer with batched fsync.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    dirty: u32,
    flushes: u64,
}

impl JournalWriter {
    /// Creates (truncates) a journal for `campaign` and writes + syncs
    /// the header line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create(path: &Path, campaign: &Campaign) -> std::io::Result<Self> {
        let mut w = JournalWriter {
            file: BufWriter::new(File::create(path)?),
            dirty: 0,
            flushes: 0,
        };
        writeln!(
            w.file,
            "{{\"journal\": \"hwdbg-campaign\", \"version\": {JOURNAL_VERSION}, \"campaign\": \"{}\", \"jobs\": {}, \"spec_hash\": \"{:016x}\"}}",
            json_escape(&campaign.name),
            campaign.jobs.len(),
            spec_hash(campaign),
        )?;
        w.sync()?;
        Ok(w)
    }

    /// Reopens an existing journal for appending (resume). The caller is
    /// expected to have validated it with [`load`] + [`validate`] first.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn resume(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter {
            file: BufWriter::new(file),
            dirty: 0,
            flushes: 0,
        })
    }

    /// Appends one retired job record; syncs every 16 appends (the
    /// private `SYNC_BATCH`).
    ///
    /// # Errors
    ///
    /// Any I/O error writing or syncing.
    pub fn append(&mut self, job: usize, record: &JobRecord) -> std::io::Result<()> {
        writeln!(self.file, "{{\"job\": {job}, \"record\": {}}}", record.json())?;
        self.dirty += 1;
        if self.dirty >= SYNC_BATCH {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered lines and fsyncs the file.
    ///
    /// # Errors
    ///
    /// Any I/O error flushing or syncing.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.dirty = 0;
        self.flushes += 1;
        Ok(())
    }

    /// How many fsync batches this writer has issued (telemetry).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

// ---------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------

/// A journal replayed from disk.
#[derive(Debug)]
pub struct JournalState {
    /// Campaign name from the header.
    pub name: String,
    /// Total job count from the header.
    pub jobs: usize,
    /// Spec hash from the header.
    pub spec_hash: u64,
    /// Completed records by job index (duplicates: last write wins).
    pub completed: BTreeMap<usize, JobRecord>,
    /// True when the final line was torn (the writer died mid-append);
    /// the torn record is simply rerun.
    pub torn_tail: bool,
}

/// Loads and parses a journal file.
///
/// # Errors
///
/// [`CampaignError::Journal`] on I/O failure, a malformed header, or a
/// malformed record anywhere but the final line (a torn tail is
/// expected crash damage and tolerated).
pub fn load(path: &Path) -> Result<JournalState, CampaignError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CampaignError::Journal(format!("cannot read journal {path:?}: {e}")))?;
    let mut lines = text.lines().enumerate().peekable();
    let (_, header) = lines
        .next()
        .ok_or_else(|| CampaignError::Journal("journal is empty".into()))?;
    let header = parse_json(header)
        .map_err(|e| CampaignError::Journal(format!("malformed journal header: {e}")))?;
    if header.get("journal").and_then(Json::as_str) != Some("hwdbg-campaign") {
        return Err(CampaignError::Journal(
            "not an hwdbg campaign journal (missing magic)".into(),
        ));
    }
    match header.get("version").and_then(Json::as_u64) {
        Some(JOURNAL_VERSION) => {}
        v => {
            return Err(CampaignError::Journal(format!(
                "unsupported journal version {v:?} (this build reads {JOURNAL_VERSION})"
            )))
        }
    }
    let name = header
        .get("campaign")
        .and_then(Json::as_str)
        .ok_or_else(|| CampaignError::Journal("journal header lacks campaign name".into()))?
        .to_string();
    let jobs = header
        .get("jobs")
        .and_then(Json::as_u64)
        .ok_or_else(|| CampaignError::Journal("journal header lacks job count".into()))?
        as usize;
    let hash_hex = header
        .get("spec_hash")
        .and_then(Json::as_str)
        .ok_or_else(|| CampaignError::Journal("journal header lacks spec hash".into()))?;
    let spec_hash = u64::from_str_radix(hash_hex, 16)
        .map_err(|_| CampaignError::Journal(format!("bad spec hash `{hash_hex}`")))?;

    let mut completed = BTreeMap::new();
    let mut torn_tail = false;
    while let Some((lineno, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let last = lines.peek().is_none();
        match parse_record_line(line) {
            Ok((idx, record)) => {
                completed.insert(idx, record);
            }
            Err(_) if last => {
                // The writer died mid-append; the torn record reruns.
                torn_tail = true;
            }
            Err(e) => {
                return Err(CampaignError::Journal(format!(
                    "journal line {}: {e}",
                    lineno + 1
                )))
            }
        }
    }
    Ok(JournalState {
        name,
        jobs,
        spec_hash,
        completed,
        torn_tail,
    })
}

/// Checks a loaded journal against a freshly built campaign.
///
/// # Errors
///
/// [`CampaignError::Journal`] when the name, job count, or spec hash
/// disagree — resuming would splice records from a different job matrix.
pub fn validate(state: &JournalState, campaign: &Campaign) -> Result<(), CampaignError> {
    if state.name != campaign.name {
        return Err(CampaignError::Journal(format!(
            "journal is for campaign `{}`, not `{}`",
            state.name, campaign.name
        )));
    }
    if state.jobs != campaign.jobs.len() {
        return Err(CampaignError::Journal(format!(
            "journal expects {} jobs, campaign has {}",
            state.jobs,
            campaign.jobs.len()
        )));
    }
    let want = spec_hash(campaign);
    if state.spec_hash != want {
        return Err(CampaignError::Journal(format!(
            "journal spec hash {:016x} does not match campaign {want:016x} — the job matrix changed",
            state.spec_hash
        )));
    }
    Ok(())
}

fn parse_record_line(line: &str) -> Result<(usize, JobRecord), String> {
    let v = parse_json(line)?;
    let idx = v
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "record line lacks job index".to_string())? as usize;
    let rec = v
        .get("record")
        .ok_or_else(|| "record line lacks record object".to_string())?;
    Ok((idx, parse_job_record(rec)?))
}

fn parse_job_record(v: &Json) -> Result<JobRecord, String> {
    let field_str = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("record lacks string field `{name}`"))
    };
    let field_u64 = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record lacks numeric field `{name}`"))
    };
    let verdict_name = field_str("verdict")?;
    let verdict = Verdict::from_name(&verdict_name)
        .ok_or_else(|| format!("unknown verdict `{verdict_name}`"))?;
    let mut counters = SimCounters::default();
    let Some(Json::Obj(pairs)) = v.get("counters") else {
        return Err("record lacks counters object".to_string());
    };
    for (name, val) in pairs {
        let n = val
            .as_u64()
            .ok_or_else(|| format!("counter `{name}` is not a u64"))?;
        if !counters.set(name, n) {
            return Err(format!("unknown counter `{name}` (schema drift?)"));
        }
    }
    Ok(JobRecord {
        design: field_str("design")?,
        fault: field_str("fault")?,
        seed: field_str("seed")?,
        verdict,
        detail: field_str("detail")?,
        cycles: field_u64("cycles")?,
        counters,
        retries: field_u64("retries")? as u32,
    })
}

// ---------------------------------------------------------------------
// Streaming report writer
// ---------------------------------------------------------------------

/// Streams a full campaign report to a file as jobs retire, producing
/// bytes identical to [`CampaignReport::to_json`]. Records arrive in
/// scheduling order; a reorder buffer holds them until their input-order
/// slot comes up, so the deterministic layout is preserved while the
/// file fills during the run instead of materializing at the end.
#[derive(Debug)]
pub struct StreamingReport {
    file: BufWriter<File>,
    jobs: usize,
    emitted: usize,
    pending: BTreeMap<usize, String>,
}

impl StreamingReport {
    /// Creates the output file and writes the report prefix.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create(path: &Path, name: &str, jobs: usize) -> std::io::Result<Self> {
        let mut file = BufWriter::new(File::create(path)?);
        write!(file, "{{\"results\": {}", results_header(name, jobs))?;
        file.flush()?;
        Ok(StreamingReport {
            file,
            jobs,
            emitted: 0,
            pending: BTreeMap::new(),
        })
    }

    /// Offers one retired record; contiguous records are written through
    /// immediately, out-of-order ones wait in the reorder buffer.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the file.
    pub fn push(&mut self, index: usize, record: &JobRecord) -> std::io::Result<()> {
        self.pending.insert(index, record.json());
        self.drain()
    }

    fn drain(&mut self) -> std::io::Result<()> {
        while let Some(line) = self.pending.remove(&self.emitted) {
            let sep = if self.emitted + 1 < self.jobs { ",\n" } else { "\n" };
            write!(self.file, "  {line}{sep}")?;
            self.emitted += 1;
        }
        self.file.flush()
    }

    /// Writes the merged-counter footer and the timing tail from the
    /// finished report, backfilling any records that were never pushed
    /// (defensive: the layout stays valid even if a retire hook was
    /// skipped).
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn finish(mut self, report: &CampaignReport) -> std::io::Result<()> {
        for (i, r) in report.records.iter().enumerate() {
            if i >= self.emitted && !self.pending.contains_key(&i) {
                self.pending.insert(i, r.json());
            }
        }
        self.drain()?;
        write!(self.file, "{}", results_footer(&report.merged))?;
        write!(
            self.file,
            "{}",
            timing_tail(
                report.workers,
                report.wall,
                report.jobs_per_sec(),
                report.steals,
                report.worker_deaths,
                report.journal_flushes,
                &report.job_wall,
            )
        )?;
        self.file.flush()
    }
}

// ---------------------------------------------------------------------
// Mini JSON parser (std-only; just enough for journals and baselines)
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw token so exact u64s
/// round-trip without a float detour.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String (unescaped).
    Str(String),
    /// Number, raw token text.
    Num(String),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one complete JSON value from `text` (trailing garbage is an
/// error — journal lines are exactly one value each).
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at offset {pos}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("empty number at offset {start}"));
    }
    let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    Ok(Json::Num(raw.to_string()))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged; the input came from a &str).
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| "non-utf8 string content".to_string())?;
                let ch = rest
                    .chars()
                    .next()
                    .ok_or_else(|| "empty tail".to_string())?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // {
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        pairs.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_a_record_line() {
        let rec = JobRecord {
            design: "d1".into(),
            fault: "stuck\"quote".into(),
            seed: "7".into(),
            verdict: Verdict::TimedOut,
            detail: "line1\nline2\ttab".into(),
            cycles: u64::MAX,
            counters: {
                let mut c = SimCounters::default();
                assert!(c.set("steps", u64::MAX));
                assert!(c.set("jobs_timed_out", 1));
                c
            },
            retries: 3,
        };
        let line = format!("{{\"job\": 42, \"record\": {}}}", rec.json());
        let (idx, back) = parse_record_line(&line).unwrap();
        assert_eq!(idx, 42);
        assert_eq!(back.design, rec.design);
        assert_eq!(back.fault, rec.fault);
        assert_eq!(back.verdict, Verdict::TimedOut);
        assert_eq!(back.detail, rec.detail);
        assert_eq!(back.cycles, u64::MAX);
        assert_eq!(back.retries, 3);
        assert_eq!(back.counters, rec.counters);
        // Re-rendering the parsed record reproduces the original bytes —
        // the byte-identity contract resume depends on.
        assert_eq!(back.json(), rec.json());
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse_json("{\"a\": 1} extra").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("tru").is_err());
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(
            parse_json("[1, \"x\", true]").unwrap(),
            Json::Arr(vec![
                Json::Num("1".into()),
                Json::Str("x".into()),
                Json::Bool(true)
            ])
        );
    }

    #[test]
    fn unicode_escapes_unescape() {
        let v = parse_json("\"caf\\u00e9 \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("café A"));
    }
}
