//! Per-interval structured telemetry, and the one place that knows how
//! a record is laid out.
//!
//! Every interval produces one [`IntervalTelemetry`] record: what the
//! planner did (path, iterations, wall time, protection level), what
//! the executor did (steps, stale switches, rollout time), and what the
//! data plane saw (loss, overloaded links). The private `FIELDS` table
//! lists the record's fields once, in order, with each field's kind and
//! accessors; everything that renders or reads a record is a loop over
//! it. [`IntervalTelemetry::to_json`] renders one JSON object per line
//! and [`IntervalTelemetry::from_json`] reads it back;
//! [`IntervalTelemetry::fingerprint`] renders the *deterministic*
//! subset — everything except wall-clock measurements — which is what
//! replays must reproduce bit-for-bit; [`columns`] is the same table as
//! the scalar columns `ffc-fleet`'s segments store.

use std::fmt::Write as _;

use crate::planner::SolvePath;

/// Version of the per-interval telemetry record schema. Bumped whenever
/// a field is added, removed, or changes meaning; persisted alongside
/// every serialized record (the `"schema"` JSONL field, the telemetry
/// store's segment headers) so readers can reject records they would
/// otherwise misinterpret.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// One TE interval's controller record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalTelemetry {
    /// Zero-based interval index.
    pub interval: usize,
    /// Input events applied at the interval's start.
    pub events_applied: usize,
    /// Protection level the planner solved with `(kc, ke, kv)`.
    pub protection: (usize, usize, usize),
    /// Solve path taken.
    pub path: SolvePath,
    /// Whether the degradation ladder was below the requested level.
    pub degraded: bool,
    /// Whether this interval fell back to the last-known-good config.
    pub rolled_back: bool,
    /// Independent certification status of the configuration this
    /// interval tried to roll out: `certified`, `certified-sampled`,
    /// `rejected` (refused, interval rolled back), or `n/a` when no
    /// new configuration was produced (hold / infeasible intervals).
    pub certificate: &'static str,
    /// Simplex iterations (phase 1 + phase 2 + dual), when a solve ran.
    pub iterations: usize,
    /// Dual simplex iterations within that.
    pub dual_iterations: usize,
    /// Dual bound flips within that.
    pub dual_bound_flips: usize,
    /// Solve wall time in milliseconds (not part of the fingerprint).
    pub solve_ms: f64,
    /// Whether the planner *patched* its standing model this interval
    /// instead of building one. Observability only — a patched model is
    /// bit-identical to a fresh build, so this is excluded from the
    /// fingerprint (incremental on/off must replay identically).
    pub model_patched: bool,
    /// Installed config version after the interval.
    pub config_version: u64,
    /// Steps in the congestion-free rollout plan.
    pub rollout_steps_planned: usize,
    /// Steps the rollout actually completed.
    pub rollout_steps_completed: usize,
    /// Whether a congestion-free chain existed within the step budget.
    pub congestion_free_plan: bool,
    /// Switches stale at the end of the rollout.
    pub stale_switches: usize,
    /// Update retries issued after ack timeouts during the rollout.
    pub update_retries: usize,
    /// Version of the last-known-good config after the interval (what a
    /// rollback would land on).
    pub last_good_version: u64,
    /// Modeled rollout duration in seconds (deterministic: it is summed
    /// from recorded/sampled switch delays, not measured).
    pub rollout_secs: f64,
    /// Links over capacity after ingress rescaling.
    pub overloaded_links: usize,
    /// Peak link oversubscription ratio.
    pub max_oversubscription: f64,
    /// Volume delivered this interval (all priorities).
    pub delivered: f64,
    /// Congestion loss volume.
    pub lost_congestion: f64,
    /// Blackhole loss volume.
    pub lost_blackhole: f64,
}

/// The certificate labels in stored-code order: a label's position is
/// its code in a segment's `certificate` column. A record carrying any
/// other string is stored, and rendered, as `unknown`.
pub const CERTIFICATES: [&str; 5] = [
    "n/a",
    "certified",
    "certified-sampled",
    "rejected",
    "unknown",
];

/// What a column holds. Every value travels between the record, a JSON
/// line and a segment block as one `u64` *word*, and the kind says what
/// the word means. Declaration order is segment block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A counter; the word is the count. JSON integer; segment block of
    /// zigzag-delta varints.
    U64,
    /// A measurement; the word is the `f64`'s bits. JSON float —
    /// shortest round-trip `Display` when fingerprinted, so equality is
    /// bit-equality, and milliseconds to three decimals for the
    /// wall-clock extras; segment block of raw little-endian bits.
    F64,
    /// One of a closed label set; the word is the label's code. JSON
    /// string; segment block of code bytes.
    Code,
    /// A yes/no; the word is 0 or 1. JSON `true` / `false`; segment
    /// block of bytes.
    Flag,
}

/// Where a column sits in the JSON object: a member under its own
/// name, or element `i` of the `n` of the array member `key`.
#[derive(Clone, Copy)]
enum Json {
    Member,
    Element(&'static str, usize, usize),
}

/// One row of the record schema: a scalar column of the record.
pub struct Column {
    /// Segment column name; JSON key too, unless an array element.
    pub name: &'static str,
    /// What the column's words mean.
    pub kind: Kind,
    get: fn(&IntervalTelemetry) -> u64,
    set: fn(&mut IntervalTelemetry, u64),
    /// Whether [`IntervalTelemetry::fingerprint`] carries the column.
    /// The rest are observability extras, rendered after `"schema"`.
    fingerprinted: bool,
    json: Json,
    /// The label of a code, `None` past the last ([`Kind::Code`] only).
    label: fn(u64) -> Option<&'static str>,
}

/// A plain row: `col!("iterations", true, U64, iterations)` stores
/// `t.iterations`, fingerprinted, as a counter under that name.
macro_rules! col {
    ($name:literal, $fp:literal, U64, $($f:tt).+) => {
        col!($name, $fp, U64, |t| t.$($f).+ as u64, |t, w| t.$($f).+ = w as _)
    };
    ($name:literal, $fp:literal, F64, $f:ident) => {
        col!($name, $fp, F64, |t| t.$f.to_bits(), |t, w| t.$f = f64::from_bits(w))
    };
    ($name:literal, $fp:literal, Flag, $f:ident) => {
        col!($name, $fp, Flag, |t| t.$f as u64, |t, w| t.$f = w != 0)
    };
    ($name:literal, $fp:literal, $kind:ident, $get:expr, $set:expr) => {
        Column {
            name: $name,
            kind: Kind::$kind,
            get: $get,
            set: $set,
            fingerprinted: $fp,
            json: Json::Member,
            label: |_| None,
        }
    };
}

/// The record schema: every column once, in the one order all formats
/// derive from. JSON renders the fingerprinted rows in this order, then
/// `"schema"`, then the extras; segments store the same rows kind-major
/// ([`columns`]). `protection` is the one field that is not one row: a
/// JSON array of three columns. Adding a field to the record takes two
/// edits in library code — the struct and one row here — plus the
/// controller's construction site (and a schema version bump).
const FIELDS: [Column; 27] = [
    col!("interval", true, U64, interval),
    col!("events_applied", true, U64, events_applied),
    Column {
        json: Json::Element("protection", 0, 3),
        ..col!("kc", true, U64, protection.0)
    },
    Column {
        json: Json::Element("protection", 1, 3),
        ..col!("ke", true, U64, protection.1)
    },
    Column {
        json: Json::Element("protection", 2, 3),
        ..col!("kv", true, U64, protection.2)
    },
    Column {
        label: |w| SolvePath::ALL.get(w as usize).map(SolvePath::as_str),
        ..col!("path", true, Code, |t| t.path as u64, |t, w| {
            t.path = SolvePath::ALL.get(w as usize).copied().unwrap_or_default()
        })
    },
    col!("degraded", true, Flag, degraded),
    col!("rolled_back", true, Flag, rolled_back),
    Column {
        label: |w| CERTIFICATES.get(w as usize).copied(),
        ..col!(
            "certificate",
            true,
            Code,
            |t| {
                let known = CERTIFICATES.iter().position(|l| *l == t.certificate);
                known.unwrap_or(CERTIFICATES.len() - 1) as u64
            },
            |t, w| t.certificate = CERTIFICATES.get(w as usize).copied().unwrap_or_default()
        )
    },
    col!("iterations", true, U64, iterations),
    col!("dual_iterations", true, U64, dual_iterations),
    col!("dual_bound_flips", true, U64, dual_bound_flips),
    col!("config_version", true, U64, config_version),
    col!("last_good_version", true, U64, last_good_version),
    col!("rollout_steps_planned", true, U64, rollout_steps_planned),
    col!(
        "rollout_steps_completed",
        true,
        U64,
        rollout_steps_completed
    ),
    col!("congestion_free_plan", true, Flag, congestion_free_plan),
    col!("stale_switches", true, U64, stale_switches),
    col!("update_retries", true, U64, update_retries),
    col!("solve_ms", false, F64, solve_ms),
    col!("rollout_secs", true, F64, rollout_secs),
    col!("overloaded_links", true, U64, overloaded_links),
    col!("max_oversubscription", true, F64, max_oversubscription),
    col!("delivered", true, F64, delivered),
    col!("lost_congestion", true, F64, lost_congestion),
    col!("lost_blackhole", true, F64, lost_blackhole),
    col!("model_patched", false, Flag, model_patched),
];

/// The schema's columns in segment block order: kind-major, table
/// order within a kind.
pub fn columns() -> Vec<&'static Column> {
    let mut columns: Vec<&Column> = FIELDS.iter().collect();
    columns.sort_by_key(|c| c.kind);
    columns
}

/// The gate every stored float passes on its way back in, from a WAL
/// line or a segment block alike: reports and percentiles downstream
/// assume finite samples.
pub fn finite(v: f64) -> Result<f64, String> {
    let finite = v.is_finite().then_some(v);
    finite.ok_or_else(|| "non-finite value".to_string())
}

/// Finds the raw text of `"key": <value>` in one of our own JSON
/// lines. Values are numbers, booleans, quoted strings, or flat
/// arrays — never nested objects. Strings and arrays come back without
/// their delimiters.
pub fn json_member<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let (_, rest) = line
        .split_once(&pat)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    let rest = rest.trim_start();
    let (inner, what, close): (_, _, fn(char) -> bool) = if let Some(inner) = rest.strip_prefix('[')
    {
        (inner, "array", |c| c == ']')
    } else if let Some(inner) = rest.strip_prefix('"') {
        (inner, "string", |c| c == '"')
    } else {
        (rest, "value", |c| c == ',' || c == '}')
    };
    let (raw, _) = inner
        .split_once(close)
        .ok_or_else(|| format!("unterminated {what} in `{key}`"))?;
    Ok(raw.trim())
}

impl Column {
    /// The column's word of a record.
    pub fn word(&self, t: &IntervalTelemetry) -> u64 {
        (self.get)(t)
    }

    /// Stores `word` in a record, if it is a value the column can hold:
    /// the one gate between stored bytes — a WAL line's or a segment
    /// block's — and a record. Floats are [`finite`], codes name a label.
    pub fn put(&self, t: &mut IntervalTelemetry, word: u64) -> Result<(), String> {
        if self.kind == Kind::F64 {
            finite(f64::from_bits(word))?;
        } else if self.kind == Kind::Code && (self.label)(word).is_none() {
            return Err(format!("unknown code {word}"));
        }
        (self.set)(t, word);
        Ok(())
    }

    /// Renders a word as the column's JSON value.
    fn render(&self, out: &mut String, word: u64) {
        let _ = match self.kind {
            Kind::U64 => write!(out, "{word}"),
            Kind::F64 if self.fingerprinted => write!(out, "{}", f64::from_bits(word)),
            Kind::F64 => write!(out, "{:.3}", f64::from_bits(word)),
            Kind::Code => write!(out, "\"{}\"", (self.label)(word).unwrap_or_default()),
            Kind::Flag => write!(out, "{}", word != 0),
        };
    }

    /// Parses the column's JSON value into a word.
    fn parse(&self, raw: &str) -> Result<u64, String> {
        match (self.kind, raw) {
            (Kind::U64, _) => raw.parse::<u64>().map_err(|e| e.to_string()),
            (Kind::F64, _) => raw.parse().map(f64::to_bits).map_err(|e| e.to_string()),
            (Kind::Code, _) => (0..)
                .map_while(|w| (self.label)(w))
                .position(|label| label == raw)
                .map(|w| w as u64)
                .ok_or_else(|| format!("unknown label `{raw}`")),
            (Kind::Flag, "true") => Ok(1),
            (Kind::Flag, "false") => Ok(0),
            (Kind::Flag, _) => Err(format!("`{raw}` is not a boolean")),
        }
    }
}

impl IntervalTelemetry {
    /// Appends `, `-separated `"name": value` members for the rows with
    /// the given `fingerprinted` flag.
    fn write_members(&self, out: &mut String, fingerprinted: bool) {
        for c in FIELDS.iter().filter(|c| c.fingerprinted == fingerprinted) {
            if !out.ends_with('{') {
                out.push_str(", ");
            }
            let _ = match c.json {
                Json::Member => write!(out, "\"{}\": ", c.name),
                Json::Element(key, 0, _) => write!(out, "\"{key}\": ["),
                Json::Element(..) => Ok(()),
            };
            c.render(out, c.word(self));
            if matches!(c.json, Json::Element(_, i, n) if i + 1 == n) {
                out.push(']');
            }
        }
    }

    /// The deterministic subset of the record: equal across a live run
    /// and its replay. Floats use shortest-roundtrip `Display`, so
    /// equality is bit-equality.
    pub fn fingerprint(&self) -> String {
        // One allocation: a record renders to some 600 bytes.
        let mut out = String::with_capacity(768);
        out.push('{');
        self.write_members(&mut out, true);
        out.push('}');
        out
    }

    /// Appends an opening brace and every member of the JSON object
    /// [`IntervalTelemetry::to_json`] renders, leaving the object open
    /// so that a caller can add members of its own (the store's WAL
    /// adds `"util"`) before closing it.
    pub fn open_json(&self, out: &mut String) {
        out.push('{');
        self.write_members(out, true);
        let _ = write!(out, ", \"schema\": {TELEMETRY_SCHEMA_VERSION}");
        self.write_members(out, false);
    }

    /// One JSON object per line: the fingerprint fields plus the
    /// non-deterministic extras (wall-clock timing, patch-vs-build) and
    /// the schema version. The version is an envelope property, not a
    /// run property, so it stays out of the fingerprint — replays of
    /// old traces emit records in *this* build's schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(768);
        self.open_json(&mut out);
        out.push('}');
        out
    }

    /// Reads back a line [`IntervalTelemetry::to_json`] rendered; members
    /// it does not know are ignored. Bit-exact for every fingerprinted
    /// field (`solve_ms` comes back as rendered, rounded). A line of
    /// another schema version, a missing or malformed member, a label
    /// outside its set and a non-finite float are errors naming the
    /// field.
    pub fn from_json(line: &str) -> Result<IntervalTelemetry, String> {
        let schema = json_member(line, "schema")?;
        if schema.parse() != Ok(TELEMETRY_SCHEMA_VERSION) {
            return Err(format!(
                "telemetry schema v{schema} not supported (this reader reads \
                 v{TELEMETRY_SCHEMA_VERSION})"
            ));
        }
        let mut t = IntervalTelemetry::default();
        for c in &FIELDS {
            let raw = match c.json {
                Json::Member => json_member(line, c.name)?,
                Json::Element(key, i, n) => {
                    let parts = json_member(line, key)?.split(',');
                    let raw = parts.clone().nth(i).filter(|_| parts.count() == n);
                    raw.ok_or_else(|| format!("field `{key}`: wants {n} entries"))?
                }
            };
            let put = c.parse(raw.trim()).and_then(|word| c.put(&mut t, word));
            put.map_err(|e| format!("field `{}`: {e}", c.name))?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IntervalTelemetry {
        IntervalTelemetry {
            interval: 4,
            events_applied: 2,
            protection: (0, 1, 0),
            path: SolvePath::WarmDual,
            degraded: false,
            rolled_back: false,
            certificate: "certified",
            iterations: 17,
            dual_iterations: 11,
            dual_bound_flips: 3,
            solve_ms: 12.75,
            model_patched: true,
            config_version: 5,
            rollout_steps_planned: 2,
            rollout_steps_completed: 2,
            congestion_free_plan: true,
            stale_switches: 0,
            update_retries: 1,
            last_good_version: 4,
            rollout_secs: 0.125,
            overloaded_links: 0,
            max_oversubscription: 0.0,
            delivered: 1234.5,
            lost_congestion: 0.0,
            lost_blackhole: 0.25,
        }
    }

    /// What the hand-written format strings of commit aaade72 rendered
    /// for `sample()`, recorded by running this test against them with
    /// empty expectations and pasting what the failure printed. The
    /// table-driven writer has to reproduce it byte for byte.
    const GOLDEN_FINGERPRINT: &str = r#"{"interval": 4, "events_applied": 2, "protection": [0, 1, 0], "path": "warm_dual", "degraded": false, "rolled_back": false, "certificate": "certified", "iterations": 17, "dual_iterations": 11, "dual_bound_flips": 3, "config_version": 5, "last_good_version": 4, "rollout_steps_planned": 2, "rollout_steps_completed": 2, "congestion_free_plan": true, "stale_switches": 0, "update_retries": 1, "rollout_secs": 0.125, "overloaded_links": 0, "max_oversubscription": 0, "delivered": 1234.5, "lost_congestion": 0, "lost_blackhole": 0.25}"#;
    const GOLDEN_JSON: &str = r#"{"interval": 4, "events_applied": 2, "protection": [0, 1, 0], "path": "warm_dual", "degraded": false, "rolled_back": false, "certificate": "certified", "iterations": 17, "dual_iterations": 11, "dual_bound_flips": 3, "config_version": 5, "last_good_version": 4, "rollout_steps_planned": 2, "rollout_steps_completed": 2, "congestion_free_plan": true, "stale_switches": 0, "update_retries": 1, "rollout_secs": 0.125, "overloaded_links": 0, "max_oversubscription": 0, "delivered": 1234.5, "lost_congestion": 0, "lost_blackhole": 0.25, "schema": 1, "solve_ms": 12.750, "model_patched": true}"#;

    #[test]
    fn golden_fingerprint_and_json_of_the_sample_record() {
        assert_eq!(sample().fingerprint(), GOLDEN_FINGERPRINT);
        assert_eq!(sample().to_json(), GOLDEN_JSON);
    }

    #[test]
    fn json_round_trip_is_the_identity_on_the_sample_record() {
        let back = IntervalTelemetry::from_json(GOLDEN_JSON).expect("parse");
        assert_eq!(back, sample());
        assert_eq!(back.to_json(), GOLDEN_JSON);
    }

    #[test]
    fn table_names_are_unique_and_the_fingerprint_carries_its_rows() {
        let mut names: Vec<&str> = FIELDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIELDS.len());
        assert_eq!(columns().len(), FIELDS.len());

        let fp = sample().fingerprint();
        for c in &FIELDS {
            let key = match c.json {
                Json::Member => format!("\"{}\": ", c.name),
                Json::Element(key, ..) => format!("\"{key}\": ["),
            };
            assert_eq!(fp.contains(&key), c.fingerprinted, "{}", c.name);
            assert!(GOLDEN_JSON.contains(&key), "{}", c.name);
        }
    }

    /// The stored codes: `ALL` lists the paths by discriminant, and no
    /// label or code may ever move (segments on disk carry them).
    #[test]
    fn stored_codes_and_labels_are_pinned() {
        let paths: Vec<(u64, &str)> = SolvePath::ALL
            .iter()
            .map(|p| (*p as u64, p.as_str()))
            .collect();
        assert_eq!(
            paths,
            [
                (0, "warm_dual"),
                (1, "warm_primal"),
                (2, "cold"),
                (3, "infeasible"),
                (4, "limit_exceeded"),
                (5, "rescale_only"),
            ]
        );
        assert_eq!(
            CERTIFICATES,
            [
                "n/a",
                "certified",
                "certified-sampled",
                "rejected",
                "unknown"
            ]
        );
    }

    #[test]
    fn labels_outside_their_set_and_non_finite_floats_are_refused() {
        for (from, to, needle) in [
            (
                "\"warm_dual\"",
                "\"lukewarm\"",
                "field `path`: unknown label `lukewarm`",
            ),
            ("\"certified\"", "\"blessed\"", "field `certificate`"),
            ("1234.5", "NaN", "field `delivered`: non-finite"),
            ("0.125", "1e999", "field `rollout_secs`: non-finite"),
            ("[0, 1, 0]", "[0, 1]", "field `protection`: wants 3 entries"),
            (
                "[0, 1, 0]",
                "[0, 1, 0, 2]",
                "field `protection`: wants 3 entries",
            ),
            (
                "\"iterations\": 17",
                "\"iterations\": -1",
                "field `iterations`",
            ),
            ("\"degraded\": false, ", "", "missing field `degraded`"),
            ("\"schema\": 1", "\"schema\": 2", "schema v2 not supported"),
        ] {
            let line = GOLDEN_JSON.replacen(from, to, 1);
            assert_ne!(line, GOLDEN_JSON, "{from}");
            let err = IntervalTelemetry::from_json(&line).expect_err(to);
            assert!(err.contains(needle), "{to}: {err}");
        }
        // A certificate the set does not name is stored as `unknown`.
        let mut t = sample();
        t.certificate = "blessed";
        let back = IntervalTelemetry::from_json(&t.to_json()).expect("parse");
        assert_eq!(back.certificate, "unknown");
    }

    #[test]
    fn fingerprint_excludes_wall_time() {
        let a = sample();
        let mut b = sample();
        b.solve_ms = 9999.0;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_line_is_wellformed() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"path\": \"warm_dual\""));
        assert!(j.contains("\"solve_ms\": 12.750"));
        assert!(!j.contains('\n'));
        // Balanced braces and quotes.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('"').count() % 2, 0);
    }
}
