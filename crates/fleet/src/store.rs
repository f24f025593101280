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
//!   a compact columnar segment: counters as zigzag-delta varints,
//!   floats as raw little-endian bits, flags as bytes, with a footer
//!   block index and an FNV-64 checksum. Segments are written to a
//!   temp file and atomically renamed, then the WAL is truncated.
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

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ffc_ctrl::durable::{
    fnv64, fnv_step, io_err, put_u32, put_u64, put_varint, unzigzag, write_atomic, zigzag, Cursor,
    FNV_OFFSET,
};
use ffc_ctrl::{IntervalSink, IntervalTelemetry, SolvePath, TELEMETRY_SCHEMA_VERSION};

/// Version of the segment container format.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Records per sealed segment (one simulated day of 5-minute
/// intervals) unless the writer is configured otherwise.
pub const DEFAULT_SEGMENT_INTERVALS: usize = 288;

const SEG_MAGIC: &[u8; 8] = b"FFTSEG1\n";
const SEG_END: &[u8; 8] = b"FFTEND1\n";
const WAL_FILE: &str = "wal.jsonl";
const LINKS_FILE: &str = "links.txt";

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

// Primitive encoding (FNV, varints, cursors, atomic writes) lives in
// `ffc_ctrl::durable`, shared with the controller's crash checkpoints.

// ---------------------------------------------------------------------
// Column schema
// ---------------------------------------------------------------------

fn path_code(p: SolvePath) -> u8 {
    match p {
        SolvePath::WarmDual => 0,
        SolvePath::WarmPrimal => 1,
        SolvePath::Cold => 2,
        SolvePath::Infeasible => 3,
        SolvePath::LimitExceeded => 4,
        SolvePath::RescaleOnly => 5,
    }
}

fn path_decode(code: u8) -> Result<SolvePath, String> {
    Ok(match code {
        0 => SolvePath::WarmDual,
        1 => SolvePath::WarmPrimal,
        2 => SolvePath::Cold,
        3 => SolvePath::Infeasible,
        4 => SolvePath::LimitExceeded,
        5 => SolvePath::RescaleOnly,
        other => return Err(format!("unknown solve-path code {other}")),
    })
}

fn cert_code(s: &str) -> u8 {
    match s {
        "n/a" => 0,
        "certified" => 1,
        "certified-sampled" => 2,
        "rejected" => 3,
        _ => 4,
    }
}

fn cert_decode(code: u8) -> &'static str {
    match code {
        0 => "n/a",
        1 => "certified",
        2 => "certified-sampled",
        3 => "rejected",
        _ => "unknown",
    }
}

type U64Get = fn(&IntervalTelemetry) -> u64;
type F64Get = fn(&IntervalTelemetry) -> f64;
type U8Get = fn(&IntervalTelemetry) -> u8;

const U64_COLS: &[(&str, U64Get)] = &[
    ("interval", |t| t.interval as u64),
    ("events_applied", |t| t.events_applied as u64),
    ("kc", |t| t.protection.0 as u64),
    ("ke", |t| t.protection.1 as u64),
    ("kv", |t| t.protection.2 as u64),
    ("iterations", |t| t.iterations as u64),
    ("dual_iterations", |t| t.dual_iterations as u64),
    ("dual_bound_flips", |t| t.dual_bound_flips as u64),
    ("config_version", |t| t.config_version),
    ("last_good_version", |t| t.last_good_version),
    ("rollout_steps_planned", |t| t.rollout_steps_planned as u64),
    ("rollout_steps_completed", |t| {
        t.rollout_steps_completed as u64
    }),
    ("stale_switches", |t| t.stale_switches as u64),
    ("update_retries", |t| t.update_retries as u64),
    ("overloaded_links", |t| t.overloaded_links as u64),
];

const F64_COLS: &[(&str, F64Get)] = &[
    ("solve_ms", |t| t.solve_ms),
    ("rollout_secs", |t| t.rollout_secs),
    ("max_oversubscription", |t| t.max_oversubscription),
    ("delivered", |t| t.delivered),
    ("lost_congestion", |t| t.lost_congestion),
    ("lost_blackhole", |t| t.lost_blackhole),
];

const U8_COLS: &[(&str, U8Get)] = &[
    ("path", |t| path_code(t.path)),
    ("certificate", |t| cert_code(t.certificate)),
    ("degraded", |t| t.degraded as u8),
    ("rolled_back", |t| t.rolled_back as u8),
    ("congestion_free_plan", |t| t.congestion_free_plan as u8),
    ("model_patched", |t| t.model_patched as u8),
];

const KIND_U64_DELTA: u8 = 0;
const KIND_F64_RAW: u8 = 1;
const KIND_U8: u8 = 2;

// ---------------------------------------------------------------------
// Segment writing
// ---------------------------------------------------------------------

/// Encodes `records` into a segment byte image.
fn encode_segment(records: &[StoreRecord], n_links: usize) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(SEG_MAGIC);
    put_u32(&mut body, STORE_SCHEMA_VERSION);
    put_u32(&mut body, TELEMETRY_SCHEMA_VERSION);
    put_u32(&mut body, n_links as u32);
    put_u32(&mut body, records.len() as u32);

    let mut index: Vec<(String, u8, u64, u64)> = Vec::new();
    let mut push_block = |body: &mut Vec<u8>, name: &str, kind: u8, block: Vec<u8>| {
        let off = body.len() as u64;
        body.extend_from_slice(&block);
        index.push((name.to_string(), kind, off, block.len() as u64));
    };

    for (name, get) in U64_COLS {
        let mut block = Vec::new();
        let mut prev = 0i64;
        for r in records {
            let v = get(&r.telemetry) as i64;
            put_varint(&mut block, zigzag(v.wrapping_sub(prev)));
            prev = v;
        }
        push_block(&mut body, name, KIND_U64_DELTA, block);
    }
    for (name, get) in F64_COLS {
        let mut block = Vec::with_capacity(records.len() * 8);
        for r in records {
            block.extend_from_slice(&get(&r.telemetry).to_bits().to_le_bytes());
        }
        push_block(&mut body, name, KIND_F64_RAW, block);
    }
    for (name, get) in U8_COLS {
        let block: Vec<u8> = records.iter().map(|r| get(&r.telemetry)).collect();
        push_block(&mut body, name, KIND_U8, block);
    }
    // Row-major utilization matrix: record-i's links are contiguous.
    let mut util = Vec::with_capacity(records.len() * n_links * 8);
    for r in records {
        for u in &r.link_util {
            util.extend_from_slice(&u.to_bits().to_le_bytes());
        }
    }
    push_block(&mut body, "link_util", KIND_F64_RAW, util);

    let footer_off = body.len() as u64;
    put_u32(&mut body, index.len() as u32);
    for (name, kind, off, len) in &index {
        put_u32(&mut body, name.len() as u32);
        body.extend_from_slice(name.as_bytes());
        body.push(*kind);
        put_u64(&mut body, *off);
        put_u64(&mut body, *len);
    }
    put_u64(&mut body, footer_off);
    let checksum = fnv64(&body);
    put_u64(&mut body, checksum);
    body.extend_from_slice(SEG_END);
    body
}

/// Writes a segment atomically (temp file + rename).
fn write_segment(path: &Path, records: &[StoreRecord], n_links: usize) -> Result<(), String> {
    write_atomic(path, &encode_segment(records, n_links))
}

// ---------------------------------------------------------------------
// Segment reading
// ---------------------------------------------------------------------

enum Col {
    U64(Vec<u64>),
    F64(Vec<f64>),
    U8(Vec<u8>),
}

/// A segment read failure. `Torn` failures (truncation, checksum,
/// garbled structure) are crash artifacts and recoverable when they
/// hit the tail segment; `Schema` failures mean the bytes are from a
/// different format version and must never be silently skipped.
enum SegError {
    Torn(String),
    Schema(String),
}

impl SegError {
    fn msg(self) -> String {
        match self {
            SegError::Torn(m) | SegError::Schema(m) => m,
        }
    }
}

fn decode_segment(path: &Path) -> Result<Vec<StoreRecord>, SegError> {
    decode_segment_inner(path).map_err(|e| {
        if e.contains("not supported") {
            SegError::Schema(e)
        } else {
            SegError::Torn(e)
        }
    })
}

fn decode_segment_inner(path: &Path) -> Result<Vec<StoreRecord>, String> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("segment")
        .to_string();
    let min = SEG_MAGIC.len() + 16 + SEG_END.len() + 16;
    if bytes.len() < min {
        return Err(format!(
            "{file}: truncated segment ({} bytes, header+footer need {min})",
            bytes.len()
        ));
    }
    if &bytes[..8] != SEG_MAGIC {
        return Err(format!("{file}: bad magic at offset 0 (not a segment)"));
    }
    if &bytes[bytes.len() - 8..] != SEG_END {
        return Err(format!(
            "{file}: missing end marker at offset {} (torn write?)",
            bytes.len() - 8
        ));
    }
    let checked = &bytes[..bytes.len() - 16];
    let stored = {
        let mut a = [0u8; 8];
        a.copy_from_slice(&bytes[bytes.len() - 16..bytes.len() - 8]);
        u64::from_le_bytes(a)
    };
    let actual = fnv64(checked);
    if stored != actual {
        return Err(format!(
            "{file}: checksum mismatch at offset {} (stored {stored:016x}, computed {actual:016x})",
            bytes.len() - 16
        ));
    }

    let mut cur = Cursor::at(&bytes, 8, &file);
    let version = cur.u32("store schema version")?;
    if version != STORE_SCHEMA_VERSION {
        return Err(format!(
            "{file}: offset 8: segment schema v{version} not supported \
             (this reader reads v{STORE_SCHEMA_VERSION}); re-run the campaign with a matching build"
        ));
    }
    let tel_version = cur.u32("telemetry schema version")?;
    if tel_version != TELEMETRY_SCHEMA_VERSION {
        return Err(format!(
            "{file}: offset 12: telemetry schema v{tel_version} not supported \
             (this reader reads v{TELEMETRY_SCHEMA_VERSION})"
        ));
    }
    let n_links = cur.u32("link count")? as usize;
    let n_records = cur.u32("record count")? as usize;
    // The checksum only proves the writer sealed these bytes, not that
    // its counts are sane: bound them by the bytes present before any
    // allocation is sized from them. Every record costs at least one
    // byte per varint / u8 column and eight per f64 column and link.
    let row_min = n_links
        .saturating_mul(8)
        .saturating_add(U64_COLS.len() + U8_COLS.len() + 8 * F64_COLS.len());
    if n_records
        .checked_mul(row_min)
        .is_none_or(|need| need > bytes.len())
    {
        return Err(format!(
            "{file}: offset 16: link count {n_links} x record count {n_records} \
             needs more than the {} bytes present",
            bytes.len()
        ));
    }

    // Footer.
    let footer_off = {
        let mut a = [0u8; 8];
        a.copy_from_slice(&bytes[bytes.len() - 24..bytes.len() - 16]);
        u64::from_le_bytes(a) as usize
    };
    if footer_off >= bytes.len() {
        return Err(format!("{file}: footer offset {footer_off} out of range"));
    }
    let mut fcur = Cursor::at(&bytes, footer_off, &file);
    let n_cols = fcur.u32("column count")? as usize;
    let mut cols: BTreeMap<String, Col> = BTreeMap::new();
    for _ in 0..n_cols {
        let name_len = fcur.u32("column name length")? as usize;
        if name_len > 256 {
            return Err(format!(
                "{file}: offset {}: implausible column name length {name_len}",
                fcur.pos()
            ));
        }
        let name = String::from_utf8(fcur.take(name_len, "column name")?.to_vec())
            .map_err(|_| format!("{file}: non-UTF-8 column name"))?;
        let kind = fcur.take(1, "column kind")?[0];
        let off = fcur.u64("column offset")?;
        let len = fcur.u64("column length")?;
        let end = off
            .checked_add(len)
            .filter(|&end| end <= bytes.len() as u64)
            .ok_or_else(|| {
                format!(
                    "{file}: column `{name}` offset {off} + length {len} \
                     lies beyond the file ({} bytes)",
                    bytes.len()
                )
            })?;
        let (off, len, end) = (off as usize, len as usize, end as usize);
        // Cannot overflow: `n_records * 8 * n_links` fits the file.
        let count = if name == "link_util" {
            n_records * n_links
        } else {
            n_records
        };
        let mut ccur = Cursor::at(&bytes[..end], off, &file);
        let col = match kind {
            KIND_U64_DELTA => {
                if count > len {
                    return Err(format!(
                        "{file}: column `{name}` holds {len} bytes, too few for {count} varints"
                    ));
                }
                let mut vals = Vec::with_capacity(count);
                let mut prev = 0i64;
                for _ in 0..count {
                    let d = unzigzag(ccur.varint(&format!("column `{name}`"))?);
                    prev = prev.wrapping_add(d);
                    vals.push(prev as u64);
                }
                Col::U64(vals)
            }
            KIND_F64_RAW => {
                if len != count * 8 {
                    return Err(format!(
                        "{file}: column `{name}` holds {len} bytes, expected {}",
                        count * 8
                    ));
                }
                let mut vals = Vec::with_capacity(count);
                for _ in 0..count {
                    vals.push(f64::from_bits(ccur.u64(&format!("column `{name}`"))?));
                }
                Col::F64(vals)
            }
            KIND_U8 => {
                let b = ccur.take(count, &format!("column `{name}`"))?;
                Col::U8(b.to_vec())
            }
            other => return Err(format!("{file}: column `{name}` has unknown kind {other}")),
        };
        cols.insert(name, col);
    }

    // Reassemble records.
    let g_u64 = |name: &str, i: usize| -> Result<u64, String> {
        match cols.get(name) {
            Some(Col::U64(v)) if i < v.len() => Ok(v[i]),
            _ => Err(format!("{file}: missing or short column `{name}`")),
        }
    };
    let g_f64 = |name: &str, i: usize| -> Result<f64, String> {
        match cols.get(name) {
            Some(Col::F64(v)) if i < v.len() => Ok(v[i]),
            _ => Err(format!("{file}: missing or short column `{name}`")),
        }
    };
    let g_u8 = |name: &str, i: usize| -> Result<u8, String> {
        match cols.get(name) {
            Some(Col::U8(v)) if i < v.len() => Ok(v[i]),
            _ => Err(format!("{file}: missing or short column `{name}`")),
        }
    };
    let mut out = Vec::with_capacity(n_records);
    for i in 0..n_records {
        let telemetry = IntervalTelemetry {
            interval: g_u64("interval", i)? as usize,
            events_applied: g_u64("events_applied", i)? as usize,
            protection: (
                g_u64("kc", i)? as usize,
                g_u64("ke", i)? as usize,
                g_u64("kv", i)? as usize,
            ),
            path: path_decode(g_u8("path", i)?).map_err(|e| format!("{file}: {e}"))?,
            degraded: g_u8("degraded", i)? != 0,
            rolled_back: g_u8("rolled_back", i)? != 0,
            certificate: cert_decode(g_u8("certificate", i)?),
            iterations: g_u64("iterations", i)? as usize,
            dual_iterations: g_u64("dual_iterations", i)? as usize,
            dual_bound_flips: g_u64("dual_bound_flips", i)? as usize,
            solve_ms: g_f64("solve_ms", i)?,
            model_patched: g_u8("model_patched", i)? != 0,
            config_version: g_u64("config_version", i)?,
            rollout_steps_planned: g_u64("rollout_steps_planned", i)? as usize,
            rollout_steps_completed: g_u64("rollout_steps_completed", i)? as usize,
            congestion_free_plan: g_u8("congestion_free_plan", i)? != 0,
            stale_switches: g_u64("stale_switches", i)? as usize,
            update_retries: g_u64("update_retries", i)? as usize,
            last_good_version: g_u64("last_good_version", i)?,
            rollout_secs: g_f64("rollout_secs", i)?,
            overloaded_links: g_u64("overloaded_links", i)? as usize,
            max_oversubscription: g_f64("max_oversubscription", i)?,
            delivered: g_f64("delivered", i)?,
            lost_congestion: g_f64("lost_congestion", i)?,
            lost_blackhole: g_f64("lost_blackhole", i)?,
        };
        let mut link_util = Vec::with_capacity(n_links);
        for l in 0..n_links {
            link_util.push(g_f64("link_util", i * n_links + l)?);
        }
        out.push(StoreRecord {
            telemetry,
            link_util,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// WAL (JSONL) encoding
// ---------------------------------------------------------------------

/// Renders one WAL line: the telemetry JSON with the utilization
/// vector spliced in. Floats use shortest-roundtrip `Display`, so
/// parsing the line back is bit-exact (except `solve_ms`, which the
/// JSON renders rounded — it is not part of any fingerprint).
fn wal_line(rec: &StoreRecord) -> String {
    let j = rec.telemetry.to_json();
    let mut util = String::new();
    for (i, u) in rec.link_util.iter().enumerate() {
        if i > 0 {
            util.push_str(", ");
        }
        let _ = write!(util, "{u}");
    }
    format!("{}, \"util\": [{}]}}", &j[..j.len() - 1], util)
}

/// Finds the raw text of `"key": <value>` in one of our own JSON
/// lines. Values are numbers, booleans, quoted strings, or flat
/// arrays — never nested objects.
fn json_raw<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let pos = line
        .find(&pat)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    let rest = line[pos + pat.len()..].trim_start();
    if let Some(inner) = rest.strip_prefix('[') {
        let close = inner
            .find(']')
            .ok_or_else(|| format!("unterminated array in `{key}`"))?;
        return Ok(&inner[..close]);
    }
    if let Some(inner) = rest.strip_prefix('"') {
        let close = inner
            .find('"')
            .ok_or_else(|| format!("unterminated string in `{key}`"))?;
        return Ok(&inner[..close]);
    }
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated value in `{key}`"))?;
    Ok(rest[..end].trim())
}

fn json_u64(line: &str, key: &str) -> Result<u64, String> {
    json_raw(line, key)?
        .parse()
        .map_err(|e| format!("field `{key}`: {e}"))
}

fn json_f64(line: &str, key: &str) -> Result<f64, String> {
    let v: f64 = json_raw(line, key)?
        .parse()
        .map_err(|e| format!("field `{key}`: {e}"))?;
    if !v.is_finite() {
        return Err(format!("field `{key}`: non-finite value"));
    }
    Ok(v)
}

fn json_bool(line: &str, key: &str) -> Result<bool, String> {
    match json_raw(line, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("field `{key}`: `{other}` is not a boolean")),
    }
}

fn parse_wal_line(line: &str, n_links: usize) -> Result<StoreRecord, String> {
    let schema = json_u64(line, "schema")?;
    if schema != TELEMETRY_SCHEMA_VERSION as u64 {
        return Err(format!(
            "telemetry schema v{schema} not supported (this reader reads \
             v{TELEMETRY_SCHEMA_VERSION})"
        ));
    }
    let prot = json_raw(line, "protection")?;
    let mut prot_it = prot.split(',').map(|s| s.trim().parse::<usize>());
    let mut next_prot = || -> Result<usize, String> {
        prot_it
            .next()
            .ok_or("field `protection`: wants 3 entries")?
            .map_err(|e| format!("field `protection`: {e}"))
    };
    let protection = (next_prot()?, next_prot()?, next_prot()?);
    let path_str = json_raw(line, "path")?;
    let path = [
        SolvePath::WarmDual,
        SolvePath::WarmPrimal,
        SolvePath::Cold,
        SolvePath::Infeasible,
        SolvePath::LimitExceeded,
        SolvePath::RescaleOnly,
    ]
    .into_iter()
    .find(|p| p.as_str() == path_str)
    .ok_or_else(|| format!("field `path`: unknown solve path `{path_str}`"))?;
    let certificate = cert_decode(cert_code(json_raw(line, "certificate")?));
    let util_raw = json_raw(line, "util")?;
    let mut link_util = Vec::new();
    for part in util_raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let v: f64 = part.parse().map_err(|e| format!("field `util`: {e}"))?;
        link_util.push(v);
    }
    if link_util.len() != n_links {
        return Err(format!(
            "field `util`: {} entries, topology has {n_links} links",
            link_util.len()
        ));
    }
    Ok(StoreRecord {
        telemetry: IntervalTelemetry {
            interval: json_u64(line, "interval")? as usize,
            events_applied: json_u64(line, "events_applied")? as usize,
            protection,
            path,
            degraded: json_bool(line, "degraded")?,
            rolled_back: json_bool(line, "rolled_back")?,
            certificate,
            iterations: json_u64(line, "iterations")? as usize,
            dual_iterations: json_u64(line, "dual_iterations")? as usize,
            dual_bound_flips: json_u64(line, "dual_bound_flips")? as usize,
            solve_ms: json_f64(line, "solve_ms")?,
            model_patched: json_bool(line, "model_patched")?,
            config_version: json_u64(line, "config_version")?,
            rollout_steps_planned: json_u64(line, "rollout_steps_planned")? as usize,
            rollout_steps_completed: json_u64(line, "rollout_steps_completed")? as usize,
            congestion_free_plan: json_bool(line, "congestion_free_plan")?,
            stale_switches: json_u64(line, "stale_switches")? as usize,
            update_retries: json_u64(line, "update_retries")? as usize,
            last_good_version: json_u64(line, "last_good_version")?,
            rollout_secs: json_f64(line, "rollout_secs")?,
            overloaded_links: json_u64(line, "overloaded_links")? as usize,
            max_oversubscription: json_f64(line, "max_oversubscription")?,
            delivered: json_f64(line, "delivered")?,
            lost_congestion: json_f64(line, "lost_congestion")?,
            lost_blackhole: json_f64(line, "lost_blackhole")?,
        },
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
    next_segment: usize,
    wal: Option<fs::File>,
    error: Option<String>,
}

fn segment_name(index: usize) -> String {
    format!("seg-{index:06}.ffts")
}

/// Lists a directory's segment files in index order.
fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut segs = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, "read dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "read dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("seg-") && name.ends_with(".ffts") {
            segs.push(entry.path());
        }
    }
    segs.sort();
    Ok(segs)
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
        let links_tmp = dir.join("links.txt.tmp");
        let mut text = String::new();
        for name in &link_names {
            text.push_str(name);
            text.push('\n');
        }
        fs::write(&links_tmp, text).map_err(|e| io_err(&links_tmp, "write", e))?;
        fs::rename(&links_tmp, dir.join(LINKS_FILE))
            .map_err(|e| io_err(&dir.join(LINKS_FILE), "rename", e))?;
        let wal = fs::File::create(dir.join(WAL_FILE))
            .map_err(|e| io_err(&dir.join(WAL_FILE), "create", e))?;
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            link_names,
            segment_intervals: DEFAULT_SEGMENT_INTERVALS,
            pending: Vec::new(),
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
        let rec = StoreRecord {
            telemetry: telemetry.clone(),
            link_util: link_util.to_vec(),
        };
        let wal_path = self.dir.join(WAL_FILE);
        if let Some(wal) = self.wal.as_mut() {
            let line = wal_line(&rec) + "\n";
            wal.write_all(line.as_bytes())
                .and_then(|_| wal.flush())
                .map_err(|e| io_err(&wal_path, "append", e))?;
        }
        self.pending.push(rec);
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
        write_segment(&path, &self.pending, self.link_names.len())?;
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
        for (i, seg) in segs.iter().enumerate() {
            match decode_segment(seg) {
                Ok(mut recs) => {
                    segments += 1;
                    records.append(&mut recs);
                }
                Err(SegError::Torn(e)) if i + 1 == segs.len() => {
                    // A torn tail segment is a crash artifact: recover
                    // past it (its rows may still be in the WAL).
                    recovery_notes.push(format!("skipped torn tail segment: {e}"));
                }
                Err(e) => return Err(e.msg()),
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
