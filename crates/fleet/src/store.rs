//! The persistent, queryable telemetry store.
//!
//! A store directory holds one campaign's telemetry in two layers:
//!
//! * `wal.jsonl` — the live append-only JSONL feed. One self-contained
//!   JSON object per interval (the controller's telemetry record plus
//!   the per-link utilization vector), flushed per line so a crash
//!   loses at most the line being written.
//! * `seg-NNNNNN.ffts` — sealed segments. Every
//!   [`StoreWriter::segment_intervals`] records, the WAL graduates into
//!   a compact columnar segment: one block per column of
//!   [`ffc_ctrl::telemetry::columns`] (counters as zigzag-delta
//!   varints, floats as raw little-endian bits, codes and flags as
//!   bytes) plus the utilization matrix, a footer block index, and the
//!   seal of [`ffc_ctrl::durable`]. Segments are written to a temp
//!   file and atomically renamed, then the WAL is truncated.
//! * `links.txt` — the directed-link names, one per line, giving
//!   utilization columns their labels.
//!
//! [`TelemetryStore::open`] reads segments first and then replays any
//! WAL rows past the last sealed interval, so every crash point
//! recovers: a torn WAL line or a truncated tail segment is skipped
//! with a note in [`TelemetryStore::recovery_notes`], never a panic.
//! Schema versions are embedded in both layers; a reader fed records
//! from a different schema reports *where* (file, line or offset) and
//! *what* instead of misinterpreting bytes.
//!
//! Everything is deterministic: the same run produces bit-identical
//! segments, and [`TelemetryStore::fingerprint`] — an FNV-1a digest of
//! the deterministic telemetry subset plus utilization bits — is the
//! store-level analogue of the controller's per-interval fingerprint.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ffc_ctrl::durable::{
    fnv_step, io_err, list_numbered, put_u32, put_u64, put_varint, seal, unseal, unzigzag,
    write_atomic, zigzag, Cursor, SealError, FNV_OFFSET,
};
use ffc_ctrl::telemetry::{columns, finite, json_member, Kind};
use ffc_ctrl::{IntervalSink, IntervalTelemetry, TELEMETRY_SCHEMA_VERSION};

/// Version of the segment container format.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Records per sealed segment (one simulated day of 5-minute
/// intervals) unless the writer is configured otherwise.
pub const DEFAULT_SEGMENT_INTERVALS: usize = 288;

const SEG_MAGIC: &[u8; 8] = b"FFTSEG1\n";
const SEG_END: &[u8; 8] = b"FFTEND1\n";
const WAL_FILE: &str = "wal.jsonl";
const LINKS_FILE: &str = "links.txt";
/// The one column that is the store's own: the utilization matrix,
/// `"util"` in a WAL line.
const UTIL_COLUMN: &str = "link_util";

/// One stored interval: the controller's record plus the data plane's
/// per-link utilization (load / capacity, indexed like the topology's
/// links).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// The controller's interval record.
    pub telemetry: IntervalTelemetry,
    /// Per-directed-link utilization.
    pub link_util: Vec<f64>,
}

// Primitive encoding (FNV, varints, cursors, sealing, atomic writes)
// lives in `ffc_ctrl::durable`, shared with the controller's crash
// checkpoints; which columns a record has, and how each is read and
// set, in `ffc_ctrl::telemetry`.

/// Block encodings, as the footer index names them.
const KIND_U64_DELTA: u8 = 0;
const KIND_F64_RAW: u8 = 1;
const KIND_U8: u8 = 2;

/// The block encoding a column's words are stored in.
fn block_kind(kind: Kind) -> u8 {
    match kind {
        Kind::U64 => KIND_U64_DELTA,
        Kind::F64 => KIND_F64_RAW,
        Kind::Code | Kind::Flag => KIND_U8,
    }
}

// ---------------------------------------------------------------------
// Segment writing
// ---------------------------------------------------------------------

/// Encodes `records` into a segment byte image: header, one block per
/// telemetry column, the utilization block, the footer index, the seal.
fn encode_segment(records: &[StoreRecord], n_links: usize) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(SEG_MAGIC);
    put_u32(&mut body, STORE_SCHEMA_VERSION);
    put_u32(&mut body, TELEMETRY_SCHEMA_VERSION);
    put_u32(&mut body, n_links as u32);
    put_u32(&mut body, records.len() as u32);

    let mut index: Vec<(&str, u8, usize, usize)> = Vec::new();
    for column in columns() {
        let (off, kind, mut prev) = (body.len(), block_kind(column.kind), 0i64);
        for word in records.iter().map(|r| column.word(&r.telemetry)) {
            match kind {
                KIND_U64_DELTA => {
                    put_varint(&mut body, zigzag((word as i64).wrapping_sub(prev)));
                    prev = word as i64;
                }
                KIND_F64_RAW => put_u64(&mut body, word),
                _ => body.push(word as u8),
            }
        }
        index.push((column.name, kind, off, body.len() - off));
    }
    // Row-major utilization matrix: record-i's links are contiguous.
    let off = body.len();
    for u in records.iter().flat_map(|r| &r.link_util) {
        put_u64(&mut body, u.to_bits());
    }
    index.push((UTIL_COLUMN, KIND_F64_RAW, off, body.len() - off));

    let footer_off = body.len() as u64;
    put_u32(&mut body, index.len() as u32);
    for (name, kind, off, len) in index {
        put_u32(&mut body, name.len() as u32);
        body.extend_from_slice(name.as_bytes());
        body.push(kind);
        put_u64(&mut body, off as u64);
        put_u64(&mut body, len as u64);
    }
    put_u64(&mut body, footer_off);
    seal(&mut body, SEG_END);
    body
}

// ---------------------------------------------------------------------
// Segment reading
// ---------------------------------------------------------------------

/// Reads a segment file back. [`SealError::Torn`] failures (truncation,
/// checksum, garbled structure, a value its column cannot hold) are
/// crash artifacts and recoverable when they hit the tail segment;
/// [`SealError::Mismatch`] means the bytes are from a different format
/// version and must never be silently skipped.
fn decode_segment(path: &Path) -> Result<Vec<StoreRecord>, SealError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    let file = path.file_name().and_then(|n| n.to_str());
    let file = file.unwrap_or("segment");
    let torn = |offset: usize, what: String| SealError::torn(file, offset, what);
    let body = unseal(&bytes, file, SEG_MAGIC, SEG_END)?;

    let mut cur = Cursor::at(body, SEG_MAGIC.len(), file);
    cur.schema_version("segment", STORE_SCHEMA_VERSION)?;
    cur.schema_version("telemetry", TELEMETRY_SCHEMA_VERSION)?;
    let n_links = cur.u32("link count")? as usize;
    let n_records = cur.u32("record count")? as usize;
    // The checksum only proves the writer sealed these bytes, not that
    // its counts are sane: bound them by the bytes present before any
    // allocation is sized from them. Every record costs at least one
    // byte per varint / u8 column and eight per f64 column and link.
    let columns = columns();
    let row_min = columns
        .iter()
        .map(|c| if c.kind == Kind::F64 { 8 } else { 1 })
        .fold(n_links.saturating_mul(8), usize::saturating_add);
    if n_records
        .checked_mul(row_min)
        .is_none_or(|need| need > body.len())
    {
        let what = format!(
            "link count {n_links} x record count {n_records} needs more than the {} bytes present",
            bytes.len()
        );
        return Err(torn(16, what));
    }

    // Footer: where each named block lies. A column is looked up in it
    // once per segment.
    let footer_off = Cursor::at(body, body.len().saturating_sub(8), file).u64("footer offset")?;
    let footer_off = footer_off.min(body.len() as u64) as usize;
    let mut fcur = Cursor::at(body, footer_off, file);
    let mut index: Vec<(&[u8], u8, usize, usize)> = Vec::new();
    for _ in 0..fcur.u32("column count")? {
        let name_len = fcur.u32("column name length")? as usize;
        let name = fcur.take(name_len, "column name")?;
        let kind = fcur.take(1, "column kind")?[0];
        let (at, off, len) = (fcur.pos(), fcur.u64("offset")?, fcur.u64("length")?);
        let end = off.checked_add(len).filter(|&end| end <= body.len() as u64);
        let Some(end) = end else {
            let what = format!(
                "column `{}` offset {off} + length {len} lies beyond the file ({} bytes)",
                String::from_utf8_lossy(name),
                bytes.len()
            );
            return Err(torn(at, what));
        };
        index.push((name, kind, off as usize, end as usize));
    }
    let block_of = |name: &str, kind: u8| {
        let entry = index
            .iter()
            .find(|(n, k, ..)| *n == name.as_bytes() && *k == kind);
        entry
            .map(|&(.., off, end)| Cursor::at(&body[..end], off, file))
            .ok_or_else(|| torn(footer_off, format!("no column `{name}` of kind {kind}")))
    };

    // Fill the records column by column, every word through its gate.
    let mut out: Vec<StoreRecord> = (0..n_records)
        .map(|_| StoreRecord {
            telemetry: IntervalTelemetry::default(),
            link_util: Vec::with_capacity(n_links),
        })
        .collect();
    for column in columns {
        let (kind, what) = (
            block_kind(column.kind),
            &format!("column `{}`", column.name),
        );
        let (mut cur, mut prev) = (block_of(column.name, kind)?, 0i64);
        for r in &mut out {
            let at = cur.pos();
            let word = match kind {
                KIND_U64_DELTA => {
                    prev = prev.wrapping_add(unzigzag(cur.varint(what)?));
                    prev as u64
                }
                KIND_F64_RAW => cur.u64(what)?,
                _ => cur.take(1, what)?[0] as u64,
            };
            let put = column.put(&mut r.telemetry, word);
            put.map_err(|e| torn(at, format!("{what}: {e}")))?;
        }
    }
    let (mut cur, what) = (block_of(UTIL_COLUMN, KIND_F64_RAW)?, "column `link_util`");
    for r in &mut out {
        for _ in 0..n_links {
            let (at, u) = (cur.pos(), cur.f64(what)?);
            let u = finite(u).map_err(|e| torn(at, format!("{what}: {e}")))?;
            r.link_util.push(u);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// WAL (JSONL) encoding
// ---------------------------------------------------------------------

/// Appends one WAL line to `out`: the telemetry JSON object with the
/// utilization vector as one more member. Floats use
/// shortest-roundtrip `Display`, so parsing the line back is bit-exact
/// (except `solve_ms`, which the JSON renders rounded — it is not part
/// of any fingerprint).
fn wal_line(out: &mut String, telemetry: &IntervalTelemetry, link_util: &[f64]) {
    telemetry.open_json(out);
    out.push_str(", \"util\": [");
    for (i, u) in link_util.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{u}");
    }
    out.push_str("]}");
}

fn parse_wal_line(line: &str, n_links: usize) -> Result<StoreRecord, String> {
    let telemetry = IntervalTelemetry::from_json(line)?;
    let link_util = json_member(line, "util")?
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            let v = part.parse().map_err(|e| format!("field `util`: {e}"))?;
            finite(v).map_err(|e| format!("field `util`: {e}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if link_util.len() != n_links {
        return Err(format!(
            "field `util`: {} entries, topology has {n_links} links",
            link_util.len()
        ));
    }
    Ok(StoreRecord {
        telemetry,
        link_util,
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends one campaign's telemetry to a store directory: JSONL WAL
/// per interval, sealed into columnar segments every
/// [`StoreWriter::segment_intervals`] records.
///
/// As an [`IntervalSink`] the writer is infallible by contract — the
/// first I/O failure is latched and every later record is dropped;
/// [`StoreWriter::finish`] surfaces the latched error. A run's
/// telemetry fingerprint never depends on whether (or how far) the
/// store kept up.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    link_names: Vec<String>,
    /// Records per sealed segment.
    pub segment_intervals: usize,
    pending: Vec<StoreRecord>,
    /// The WAL line being rendered (one buffer, reused).
    line: String,
    next_segment: usize,
    wal: Option<fs::File>,
    error: Option<String>,
}

fn segment_name(index: usize) -> String {
    format!("seg-{index:06}.ffts")
}

/// Lists a directory's segment files in index order.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    list_numbered(dir, "seg-", ".ffts")
}

impl StoreWriter {
    /// Creates a fresh store in `dir` (created if missing). Refuses to
    /// write into a directory that already holds a store — overwriting
    /// a campaign's telemetry must be an explicit `rm`, not a default.
    pub fn create(dir: &Path, link_names: Vec<String>) -> Result<StoreWriter, String> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create dir", e))?;
        if !list_segments(dir)?.is_empty() || dir.join(WAL_FILE).exists() {
            return Err(format!(
                "{}: refusing to overwrite an existing telemetry store",
                dir.display()
            ));
        }
        let mut text = String::new();
        for name in &link_names {
            text.push_str(name);
            text.push('\n');
        }
        write_atomic(&dir.join(LINKS_FILE), text.as_bytes())?;
        let wal = fs::File::create(dir.join(WAL_FILE))
            .map_err(|e| io_err(&dir.join(WAL_FILE), "create", e))?;
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            link_names,
            segment_intervals: DEFAULT_SEGMENT_INTERVALS,
            pending: Vec::new(),
            line: String::new(),
            next_segment: 0,
            wal: Some(wal),
            error: None,
        })
    }

    /// Records one interval; seals a segment when the WAL is full.
    pub fn record_interval(
        &mut self,
        telemetry: &IntervalTelemetry,
        link_util: &[f64],
    ) -> Result<(), String> {
        if link_util.len() != self.link_names.len() {
            return Err(format!(
                "interval {}: {} utilization entries, store has {} links",
                telemetry.interval,
                link_util.len(),
                self.link_names.len()
            ));
        }
        if let Some(wal) = self.wal.as_mut() {
            self.line.clear();
            wal_line(&mut self.line, telemetry, link_util);
            self.line.push('\n');
            wal.write_all(self.line.as_bytes())
                .and_then(|_| wal.flush())
                .map_err(|e| io_err(&self.dir.join(WAL_FILE), "append", e))?;
        }
        self.pending.push(StoreRecord {
            telemetry: telemetry.clone(),
            link_util: link_util.to_vec(),
        });
        if self.pending.len() >= self.segment_intervals {
            self.seal()?;
        }
        Ok(())
    }

    /// Seals the pending records into the next segment and truncates
    /// the WAL.
    fn seal(&mut self) -> Result<(), String> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let path = self.dir.join(segment_name(self.next_segment));
        write_atomic(&path, &encode_segment(&self.pending, self.link_names.len()))?;
        self.next_segment += 1;
        self.pending.clear();
        // Recreate rather than truncate-in-place: if this crashes, the
        // reader dedups WAL rows against sealed intervals anyway.
        let wal_path = self.dir.join(WAL_FILE);
        self.wal = Some(fs::File::create(&wal_path).map_err(|e| io_err(&wal_path, "create", e))?);
        Ok(())
    }

    /// The latched I/O error, if sink-mode recording failed.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Seals any pending records and closes the store. Returns the
    /// number of segments written, or the first error the writer hit
    /// (including a latched sink-mode error).
    pub fn finish(mut self) -> Result<usize, String> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.seal()?;
        self.wal = None;
        let wal_path = self.dir.join(WAL_FILE);
        fs::remove_file(&wal_path).map_err(|e| io_err(&wal_path, "remove", e))?;
        Ok(self.next_segment)
    }
}

impl IntervalSink for StoreWriter {
    fn record(&mut self, telemetry: &IntervalTelemetry, link_util: &[f64]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.record_interval(telemetry, link_util) {
            self.error = Some(e);
        }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A store directory read back into memory: sealed segments first,
/// then any WAL rows past the last sealed interval.
#[derive(Debug)]
pub struct TelemetryStore {
    /// Directed-link names (utilization column labels).
    pub link_names: Vec<String>,
    /// What recovery skipped, in file order: torn WAL lines, a
    /// truncated tail segment. Empty for a cleanly finished store.
    pub recovery_notes: Vec<String>,
    /// Sealed segments read.
    pub segments: usize,
    /// Records recovered from the WAL (0 for a finished store).
    pub wal_records: usize,
    records: Vec<StoreRecord>,
}

impl TelemetryStore {
    /// Opens a store directory.
    pub fn open(dir: &Path) -> Result<TelemetryStore, String> {
        let links_path = dir.join(LINKS_FILE);
        let links_text =
            fs::read_to_string(&links_path).map_err(|e| io_err(&links_path, "read", e))?;
        let link_names: Vec<String> = links_text.lines().map(|l| l.to_string()).collect();

        let mut recovery_notes = Vec::new();
        let mut records: Vec<StoreRecord> = Vec::new();
        let segs = list_segments(dir)?;
        let mut segments = 0usize;
        for (i, (_, seg)) in segs.iter().enumerate() {
            match decode_segment(seg) {
                Ok(mut recs) => {
                    segments += 1;
                    records.append(&mut recs);
                }
                Err(SealError::Torn(e)) if i + 1 == segs.len() => {
                    // A torn tail segment is a crash artifact: recover
                    // past it (its rows may still be in the WAL).
                    recovery_notes.push(format!("skipped torn tail segment: {e}"));
                }
                Err(e) => return Err(e.into_message()),
            }
        }

        let last_sealed: Option<usize> = records.last().map(|r| r.telemetry.interval);
        let mut wal_records = 0usize;
        let wal_path = dir.join(WAL_FILE);
        if let Ok(text) = fs::read_to_string(&wal_path) {
            for (idx, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_wal_line(line, link_names.len()) {
                    Ok(rec) => {
                        // Rows already sealed into a segment are the
                        // crash window between seal and truncate.
                        if last_sealed.is_none_or(|s| rec.telemetry.interval > s) {
                            wal_records += 1;
                            records.push(rec);
                        }
                    }
                    Err(e) => {
                        recovery_notes
                            .push(format!("wal.jsonl line {}: {e}; stopped there", idx + 1));
                        break;
                    }
                }
            }
        }
        records.sort_by_key(|r| r.telemetry.interval);
        Ok(TelemetryStore {
            link_names,
            recovery_notes,
            segments,
            wal_records,
            records,
        })
    }

    /// All records in interval order.
    pub fn records(&self) -> &[StoreRecord] {
        &self.records
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records with `start <= interval < end` (binary-searched; the
    /// store is interval-ordered).
    pub fn query_range(&self, start: usize, end: usize) -> &[StoreRecord] {
        let lo = self
            .records
            .partition_point(|r| r.telemetry.interval < start);
        let hi = self.records.partition_point(|r| r.telemetry.interval < end);
        &self.records[lo..hi]
    }

    /// The store-level deterministic fingerprint: FNV-1a over every
    /// record's telemetry fingerprint (which excludes wall-clock
    /// fields) and utilization bits. Two runs of the same seeded
    /// campaign produce equal fingerprints.
    pub fn fingerprint(&self) -> String {
        store_fingerprint(&self.records)
    }

    /// Mean utilization per directed link across the whole store —
    /// the "heat" vector coverage-guided chaos biases toward.
    pub fn link_heat(&self) -> Vec<f64> {
        let n = self.link_names.len();
        let mut heat = vec![0.0; n];
        if self.records.is_empty() {
            return heat;
        }
        for r in &self.records {
            for (h, u) in heat.iter_mut().zip(&r.link_util) {
                *h += u;
            }
        }
        let count = self.records.len() as f64;
        for h in &mut heat {
            *h /= count;
        }
        heat
    }
}

/// [`TelemetryStore::fingerprint`] over an in-memory record slice.
pub fn store_fingerprint(records: &[StoreRecord]) -> String {
    let mut h = FNV_OFFSET;
    for r in records {
        for b in r.telemetry.fingerprint().bytes() {
            h = fnv_step(h, b);
        }
        h = fnv_step(h, 0x1f);
        for u in &r.link_util {
            for b in u.to_bits().to_le_bytes() {
                h = fnv_step(h, b);
            }
        }
        h = fnv_step(h, 0x1e);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_ctrl::durable::fnv64;
    use ffc_ctrl::SolvePath;

    fn sample(interval: usize, n_links: usize) -> StoreRecord {
        StoreRecord {
            telemetry: IntervalTelemetry {
                interval,
                events_applied: interval % 3,
                protection: (1, 1, 0),
                path: if interval.is_multiple_of(2) {
                    SolvePath::WarmDual
                } else {
                    SolvePath::Cold
                },
                degraded: interval.is_multiple_of(5),
                rolled_back: false,
                certificate: "certified",
                iterations: 10 + interval,
                dual_iterations: interval,
                dual_bound_flips: 0,
                solve_ms: 1.5 + interval as f64,
                model_patched: true,
                config_version: interval as u64 + 1,
                rollout_steps_planned: 2,
                rollout_steps_completed: 2,
                congestion_free_plan: true,
                stale_switches: 0,
                update_retries: 0,
                last_good_version: interval as u64,
                rollout_secs: 0.25,
                overloaded_links: 0,
                max_oversubscription: 0.0,
                delivered: 100.0 + 0.1 * interval as f64,
                lost_congestion: 0.0,
                lost_blackhole: 0.0,
            },
            link_util: (0..n_links)
                .map(|l| ((interval * 7 + l * 13) % 100) as f64 / 100.0)
                .collect(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffts-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn write_store(dir: &Path, n: usize, n_links: usize, seg: usize) -> Vec<StoreRecord> {
        let names: Vec<String> = (0..n_links).map(|l| format!("l{l}")).collect();
        let mut w = StoreWriter::create(dir, names).expect("create");
        w.segment_intervals = seg;
        let recs: Vec<StoreRecord> = (0..n).map(|i| sample(i, n_links)).collect();
        for r in &recs {
            w.record_interval(&r.telemetry, &r.link_util).expect("rec");
        }
        w.finish().expect("finish");
        recs
    }

    #[test]
    fn segment_roundtrip_is_bit_exact() {
        let dir = tmpdir("roundtrip");
        let recs = write_store(&dir, 10, 4, 4);
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.records(), &recs[..]);
        assert_eq!(store.segments, 3); // 4 + 4 + 2
        assert_eq!(store.wal_records, 0);
        assert!(store.recovery_notes.is_empty());
        assert_eq!(store.fingerprint(), store_fingerprint(&recs));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Recorded at commit aaade72 (column tables, hand-spliced WAL line)
    /// by running this test with empty expectations; the codec driven
    /// by `ffc_ctrl::telemetry::FIELDS` must reproduce both.
    #[test]
    fn golden_wal_line_and_segment_image() {
        let (mut line, rec) = (String::new(), sample(4, 3));
        wal_line(&mut line, &rec.telemetry, &rec.link_util);
        assert_eq!(
            line,
            r#"{"interval": 4, "events_applied": 1, "protection": [1, 1, 0], "path": "warm_dual", "degraded": false, "rolled_back": false, "certificate": "certified", "iterations": 14, "dual_iterations": 4, "dual_bound_flips": 0, "config_version": 5, "last_good_version": 4, "rollout_steps_planned": 2, "rollout_steps_completed": 2, "congestion_free_plan": true, "stale_switches": 0, "update_retries": 0, "rollout_secs": 0.25, "overloaded_links": 0, "max_oversubscription": 0, "delivered": 100.4, "lost_congestion": 0, "lost_blackhole": 0, "schema": 1, "solve_ms": 5.500, "model_patched": true, "util": [0.28, 0.41, 0.54]}"#
        );
        let recs: Vec<StoreRecord> = (0..3).map(|i| sample(i, 3)).collect();
        let image = encode_segment(&recs, 3);
        assert_eq!((image.len(), fnv64(&image)), (1261, 18273443822857061186));
    }

    #[test]
    fn unfinished_store_recovers_from_wal() {
        let dir = tmpdir("wal");
        let names: Vec<String> = (0..3).map(|l| format!("l{l}")).collect();
        let mut w = StoreWriter::create(&dir, names).expect("create");
        w.segment_intervals = 4;
        let recs: Vec<StoreRecord> = (0..6).map(|i| sample(i, 3)).collect();
        for r in &recs {
            w.record_interval(&r.telemetry, &r.link_util).expect("rec");
        }
        drop(w); // no finish(): intervals 4..6 live only in the WAL
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.len(), 6);
        assert_eq!(store.segments, 1);
        assert_eq!(store.wal_records, 2);
        assert_eq!(store.fingerprint(), store_fingerprint(&recs));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_line_is_skipped_with_a_note() {
        let dir = tmpdir("torn-wal");
        let names: Vec<String> = (0..2).map(|l| format!("l{l}")).collect();
        let mut w = StoreWriter::create(&dir, names).expect("create");
        w.segment_intervals = 100;
        for i in 0..3 {
            let r = sample(i, 2);
            w.record_interval(&r.telemetry, &r.link_util).expect("rec");
        }
        drop(w);
        // Tear the last line mid-float.
        let wal = dir.join(WAL_FILE);
        let text = fs::read_to_string(&wal).expect("read");
        let cut = text.len() - 20;
        fs::write(&wal, &text[..cut]).expect("tear");
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery_notes.len(), 1);
        assert!(
            store.recovery_notes[0].contains("line 3"),
            "{:?}",
            store.recovery_notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_segment_is_skipped_with_a_note() {
        let dir = tmpdir("torn-seg");
        write_store(&dir, 8, 2, 4); // two full segments
        let seg1 = dir.join(segment_name(1));
        let bytes = fs::read(&seg1).expect("read");
        fs::write(&seg1, &bytes[..bytes.len() / 2]).expect("truncate");
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.len(), 4); // first segment only
        assert_eq!(store.segments, 1);
        assert_eq!(store.recovery_notes.len(), 1);
        assert!(
            store.recovery_notes[0].contains("seg-000001"),
            "{:?}",
            store.recovery_notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_segment_is_a_hard_error() {
        let dir = tmpdir("corrupt-mid");
        write_store(&dir, 8, 2, 4);
        let seg0 = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg0).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&seg0, &bytes).expect("corrupt");
        let err = TelemetryStore::open(&dir).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains("seg-000000"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_version_is_rejected_with_offset() {
        let dir = tmpdir("schema");
        write_store(&dir, 2, 2, 4);
        let seg0 = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg0).expect("read");
        // Bump the store schema version field (offset 8) and re-seal
        // the checksum so only the version check can fire.
        bytes[8] = 99;
        rechecksum(&mut bytes);
        fs::write(&seg0, &bytes).expect("rewrite");
        let err = TelemetryStore::open(&dir).unwrap_err();
        assert!(err.contains("schema v99 not supported"), "{err}");
        assert!(err.contains("offset 8"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Re-seals a hand-edited segment image so only the structural
    /// checks behind the checksum can fire.
    fn rechecksum(bytes: &mut [u8]) {
        let len = bytes.len();
        let ck = fnv64(&bytes[..len - 16]);
        bytes[len - 16..len - 8].copy_from_slice(&ck.to_le_bytes());
    }

    #[test]
    fn absurd_header_counts_are_rejected_before_allocating() {
        let dir = tmpdir("huge-counts");
        write_store(&dir, 8, 2, 4);
        let seg0 = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg0).expect("read");
        // n_links (offset 16) and n_records (offset 20) = u32::MAX: an
        // unchecked `Vec::with_capacity` would ask for 32 GiB and abort.
        bytes[16..24].fill(0xff);
        rechecksum(&mut bytes);
        fs::write(&seg0, &bytes).expect("rewrite");
        let err = TelemetryStore::open(&dir).unwrap_err();
        assert!(err.contains("seg-000000"), "{err}");
        assert!(err.contains("record count 4294967295"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overflowing_column_span_is_rejected_and_recoverable_at_the_tail() {
        let dir = tmpdir("col-span");
        write_store(&dir, 8, 2, 4);
        let seg1 = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg1).expect("read");
        // Footer: column count u32, then per column name_len u32, name,
        // kind u8 and the `off` / `len` pair under test (first column).
        let footer = Cursor::at(&bytes, bytes.len() - 24, "t")
            .u64("footer offset")
            .expect("footer offset") as usize;
        let mut cur = Cursor::at(&bytes, footer + 4, "t");
        let name_len = cur.u32("name length").expect("name length") as usize;
        let off_at = cur.pos() + name_len + 1;
        bytes[off_at..off_at + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        bytes[off_at + 8..off_at + 16].copy_from_slice(&16u64.to_le_bytes());
        rechecksum(&mut bytes);
        fs::write(&seg1, &bytes).expect("rewrite");
        // `off + len` wraps: must be an error, not a debug-build panic.
        let store = TelemetryStore::open(&dir).expect("tail segment is recoverable");
        assert_eq!(store.len(), 4);
        assert_eq!(store.recovery_notes.len(), 1);
        let note = &store.recovery_notes[0];
        assert!(note.contains("seg-000001"), "{note}");
        assert!(note.contains("column `interval` offset"), "{note}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Byte range of block `name` in a segment image, from its footer.
    fn block_span(bytes: &[u8], name: &str) -> std::ops::Range<usize> {
        let footer = Cursor::at(bytes, bytes.len() - 24, "t")
            .u64("footer offset")
            .expect("footer offset") as usize;
        let mut cur = Cursor::at(bytes, footer, "t");
        for _ in 0..cur.u32("columns").expect("columns") {
            let name_len = cur.u32("name length").expect("name length") as usize;
            let found = cur.take(name_len + 1, "name, kind").expect("name")[..name_len].to_vec();
            let off = cur.u64("offset").expect("offset") as usize;
            let len = cur.u64("length").expect("length") as usize;
            if found == name.as_bytes() {
                return off..off + len;
            }
        }
        panic!("no block `{name}`");
    }

    /// A sealed float that is not finite used to reach `percentile`'s
    /// `expect("finite samples")` in `build_report`: it is a torn
    /// segment — a note at the tail, a located hard error in the middle.
    #[test]
    fn non_finite_floats_in_a_segment_are_torn() {
        for column in [UTIL_COLUMN, "delivered"] {
            let dir = tmpdir(&format!("nan-{column}"));
            write_store(&dir, 8, 2, 4);
            let poison = |index: usize| {
                let seg = dir.join(segment_name(index));
                let mut bytes = fs::read(&seg).expect("read");
                let at = block_span(&bytes, column).start + 8; // second value
                bytes[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
                rechecksum(&mut bytes);
                fs::write(&seg, &bytes).expect("rewrite");
                format!(
                    "{}: offset {at}: column `{column}`: non-finite",
                    segment_name(index)
                )
            };
            let located = poison(1);
            let store = TelemetryStore::open(&dir).expect("tail segment is recoverable");
            assert_eq!(store.len(), 4);
            assert_eq!(store.recovery_notes.len(), 1);
            let note = &store.recovery_notes[0];
            assert!(note.contains(&located), "{note}");

            let located = poison(0);
            let err = TelemetryStore::open(&dir).unwrap_err();
            assert!(err.contains(&located), "{err}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn non_finite_utilization_in_the_wal_stops_recovery_at_its_line() {
        let dir = tmpdir("wal-nan");
        let names: Vec<String> = (0..2).map(|l| format!("l{l}")).collect();
        let mut w = StoreWriter::create(&dir, names).expect("create");
        w.segment_intervals = 100;
        for i in 0..3 {
            let r = sample(i, 2);
            w.record_interval(&r.telemetry, &r.link_util).expect("rec");
        }
        drop(w);
        let wal = dir.join(WAL_FILE);
        let text = fs::read_to_string(&wal).expect("read");
        // Interval 1 carries `"util": [0.07, 0.2]`.
        let poisoned = text.replace("[0.07, ", "[NaN, ");
        assert_ne!(poisoned, text);
        fs::write(&wal, poisoned).expect("rewrite");
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.recovery_notes,
            ["wal.jsonl line 2: field `util`: non-finite value; stopped there"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_schema_mismatch_reports_line() {
        let dir = tmpdir("wal-schema");
        let names = vec!["l0".to_string()];
        let mut w = StoreWriter::create(&dir, names).expect("create");
        w.segment_intervals = 100;
        let r = sample(0, 1);
        w.record_interval(&r.telemetry, &r.link_util).expect("rec");
        drop(w);
        let wal = dir.join(WAL_FILE);
        let text = fs::read_to_string(&wal).expect("read");
        fs::write(&wal, text.replace("\"schema\": 1", "\"schema\": 9")).expect("rewrite");
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.len(), 0);
        assert!(
            store.recovery_notes[0].contains("schema v9 not supported")
                && store.recovery_notes[0].contains("line 1"),
            "{:?}",
            store.recovery_notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let dir = tmpdir("overwrite");
        write_store(&dir, 2, 1, 4);
        let err = StoreWriter::create(&dir, vec!["l0".into()]).unwrap_err();
        assert!(err.contains("refusing to overwrite"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_range_and_heat() {
        let dir = tmpdir("query");
        let recs = write_store(&dir, 10, 2, 4);
        let store = TelemetryStore::open(&dir).expect("open");
        let mid = store.query_range(3, 7);
        assert_eq!(mid.len(), 4);
        assert_eq!(mid[0].telemetry.interval, 3);
        let heat = store.link_heat();
        assert_eq!(heat.len(), 2);
        let expect: f64 = recs.iter().map(|r| r.link_util[0]).sum::<f64>() / 10.0;
        assert!((heat[0] - expect).abs() < 1e-12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            127,
            -128,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            put_varint(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf, "test");
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(cur.varint("v").expect("varint"), v);
        }
        assert_eq!(cur.pos(), buf.len());
    }
}
