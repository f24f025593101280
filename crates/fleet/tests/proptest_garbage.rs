//! Garbage in, located error out: whatever one corrupted token does to
//! a WAL line, or one flipped bit to a sealed segment, opening the
//! store and rendering its report never panics, and every hard error
//! and every recovery note names the file and a line or a byte offset
//! that exists. The valid inputs are the records of the committed
//! `fixtures/parent-store` (see `format_goldens.rs`). Likewise one
//! corruption of the committed `mini.fleet.toml`: [`FleetSpec::parse`]
//! refuses it at a line that exists, or what it lets through compiles
//! into a topology, a workload and an event stream without a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ffc_ctrl::durable::fnv64;
use ffc_fleet::{
    build_report, build_topology, build_workload, demand_events, FleetSpec, ReportOptions,
    StoreRecord, StoreWriter, TelemetryStore,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ffts-garbage-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Writes the fixture's three records into `dir`, sealing a segment
/// every `segment_intervals`, and finishes the store or — a crash —
/// leaves the WAL behind.
fn write_fixture(dir: &Path, segment_intervals: usize, finish: bool) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-store");
    let parent = TelemetryStore::open(&fixture).expect("open fixture");
    let records: &[StoreRecord] = parent.records();
    let mut w = StoreWriter::create(dir, parent.link_names.clone()).expect("create");
    w.segment_intervals = segment_intervals;
    for r in records {
        w.record_interval(&r.telemetry, &r.link_util)
            .expect("record");
    }
    if finish {
        w.finish().expect("finish");
    }
}

/// Opens the store and, if it opens, renders its report; returns every
/// message the reader produced.
fn open_and_report(dir: &Path) -> (Option<TelemetryStore>, Vec<String>) {
    match TelemetryStore::open(dir) {
        Ok(store) => {
            let opts = ReportOptions::default();
            let text = build_report(&store, &opts).to_text(&opts);
            assert!(text.contains("fleet report"));
            let notes = store.recovery_notes.clone();
            (Some(store), notes)
        }
        Err(e) => (None, vec![e]),
    }
}

/// One way to damage member `member` of a WAL line's JSON object.
#[derive(Debug, Clone)]
enum Damage {
    Drop,
    Duplicate,
    Value(&'static str),
    /// Drops an array's last entry, or (`true`) its closing bracket.
    TruncateArray(bool),
}

fn damage() -> impl Strategy<Value = Damage> {
    const ALL: [Damage; 10] = [
        Damage::Drop,
        Damage::Duplicate,
        Damage::Value("NaN"),
        Damage::Value("inf"),
        Damage::Value("-1"),
        Damage::Value("1e999"),
        Damage::Value("\"lukewarm\""),
        Damage::Value(""),
        Damage::TruncateArray(false),
        Damage::TruncateArray(true),
    ];
    (0..ALL.len()).prop_map(|i| ALL[i].clone())
}

/// Applies `damage` to the `member`-th `"key": value` of `line`.
fn corrupt(line: &str, member: usize, damage: &Damage) -> String {
    // No value of ours contains `, "`, so that splits the members.
    let inner = line.trim_start_matches('{').trim_end_matches('}');
    let mut members: Vec<String> = inner.split(", \"").map(str::to_string).collect();
    let at = member % members.len();
    let (key, value) = members[at].split_once(": ").expect("key: value");
    let (key, value) = (key.to_string(), value.to_string());
    match damage {
        Damage::Drop => drop(members.remove(at)),
        Damage::Duplicate => members.insert(at, members[at].clone()),
        Damage::Value(token) => members[at] = format!("{key}: {token}"),
        Damage::TruncateArray(unterminated) => {
            let cut = match (unterminated, value.rsplit_once(", ")) {
                (true, _) => value.trim_end_matches(']').to_string(),
                (false, Some((head, _))) if value.starts_with('[') => format!("{head}]"),
                // Not an array: cut the value's last character instead.
                _ => value[..value.len() - 1].to_string(),
            };
            members[at] = format!("{key}: {cut}");
        }
    }
    format!("{{{}}}", members.join(", \""))
}

/// The byte offset a segment message names.
fn named_offset(message: &str) -> Option<usize> {
    let (_, tail) = message.split_once("offset ")?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

const MINI_SPEC: &str = include_str!("../../../examples/data/mini.fleet.toml");

/// What a corrupted spec value becomes; one past the end stands for a
/// random printable string.
const TOKENS: &[&str] = &["NaN", "inf", "-1", "0", "1e999", "18446744073709551615", ""];

/// `MINI_SPEC` with one corruption of the given `kind` applied: a
/// `key = value` line or table header dropped, duplicated or swapped
/// with another, one value replaced, or the file cut short.
fn corrupt_spec(kind: usize, a: usize, b: usize, with: &str) -> String {
    let mut lines: Vec<String> = MINI_SPEC.lines().map(String::from).collect();
    // Everything but blank lines and comments, 0-based.
    let content: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].is_empty() && !lines[i].starts_with('#'))
        .collect();
    let pick = |n: usize| content[n % content.len()];
    match kind {
        0 => drop(lines.remove(pick(a))),
        1 => lines.insert(pick(a), lines[pick(a)].clone()),
        2 => lines.swap(pick(a), pick(b)),
        3 => {
            let assignments: Vec<usize> = content
                .iter()
                .copied()
                .filter(|&i| lines[i].contains(" = "))
                .collect();
            let at = assignments[a % assignments.len()];
            let (key, _) = lines[at].split_once(" = ").expect("key = value");
            lines[at] = format!("{key} = {with}");
        }
        _ => {
            let cut = a % (MINI_SPEC.len() + 1);
            return String::from_utf8_lossy(&MINI_SPEC.as_bytes()[..cut]).into_owned();
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_corruption_of_the_mini_spec_is_a_located_error_or_compiles(
        kind in 0..5usize,
        a in 0..4096usize,
        b in 0..4096usize,
        with in 0..=TOKENS.len(),
        junk in prop::collection::vec(0x21u8..0x7f, 1..12),
    ) {
        let junk = String::from_utf8(junk).expect("printable ASCII");
        let with = TOKENS.get(with).copied().unwrap_or(&junk);
        let text = corrupt_spec(kind, a, b, with);
        match FleetSpec::parse(&text) {
            Err(e) => {
                let line: Option<usize> = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split_once(':'))
                    .and_then(|(n, _)| n.parse().ok());
                let lines = text.lines().count();
                prop_assert!(
                    line.is_some_and(|n| (1..=lines).contains(&n)),
                    "error not at a line in 1..={}: {}\n{}", lines, e, text
                );
            }
            Ok(mut spec) => {
                // Compile errors (a site count that no longer matches,
                // a fault past the capped horizon) are fine; panics are not.
                spec.intervals = spec.intervals.min(8);
                let net = build_topology(&spec);
                if let Ok(wl) = build_workload(&spec, &net) {
                    if let Ok(events) = demand_events(&spec, &wl, &net) {
                        prop_assert!(events.iter().all(|te| te.interval < spec.intervals));
                    }
                }
            }
        }
    }

    #[test]
    fn one_damaged_wal_member_is_at_worst_a_note_naming_its_line(
        line in 0usize..3,
        member in 0usize..64,
        damage in damage(),
    ) {
        let dir = tmpdir("wal");
        write_fixture(&dir, 100, false);
        let wal = dir.join("wal.jsonl");
        let text = fs::read_to_string(&wal).expect("read wal");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        prop_assert_eq!(lines.len(), 3);
        lines[line] = corrupt(&lines[line], member, &damage);
        fs::write(&wal, lines.join("\n") + "\n").expect("write wal");

        // A bad WAL line is never a hard error: recovery stops there.
        let (store, notes) = open_and_report(&dir);
        let store = store.expect("a damaged WAL still opens");
        match notes.as_slice() {
            [] => prop_assert_eq!(store.len(), 3),
            [note] => {
                let located = format!("wal.jsonl line {}: ", line + 1);
                prop_assert!(note.starts_with(&located), "{}", note);
                prop_assert_eq!(store.len(), line);
            }
            more => prop_assert!(false, "{:?}", more),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_flipped_segment_bit_is_at_worst_a_located_error(
        tail in any::<bool>(),
        at in 0.0..1.0f64,
        bit in 0u32..8,
    ) {
        let dir = tmpdir("seg");
        write_fixture(&dir, 2, true); // seg 0: intervals 0-1, seg 1: interval 2
        let name = format!("seg-00000{}.ffts", tail as usize);
        let path = dir.join(&name);
        let mut bytes = fs::read(&path).expect("read segment");
        // Flip one bit of the checksummed part and re-seal, so that the
        // flip reaches the parser behind the checksum.
        let sealed = bytes.len() - 16;
        let flipped = (at * sealed as f64) as usize;
        bytes[flipped] ^= 1 << bit;
        let checksum = fnv64(&bytes[..sealed]);
        bytes[sealed..sealed + 8].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).expect("write segment");

        let (store, messages) = open_and_report(&dir);
        prop_assert!(messages.len() <= 1, "{:?}", messages);
        for message in &messages {
            prop_assert!(message.contains(&name), "{}", message);
            let offset = named_offset(message);
            prop_assert!(offset.is_some_and(|o| o <= bytes.len()), "{}", message);
        }
        match store {
            // A flip the formats cannot see (a float's mantissa, a
            // counter) still yields every record; a torn tail is skipped.
            Some(store) if messages.is_empty() => prop_assert!(store.len() <= 3),
            Some(store) => {
                prop_assert!(tail, "a torn middle segment must not be skipped");
                prop_assert!(messages[0].starts_with("skipped torn tail segment: "));
                prop_assert_eq!(store.len(), 2);
            }
            // Hard errors: anything in the middle, a schema mismatch anywhere.
            None => prop_assert!(!tail || messages[0].contains("not supported"), "{:?}", messages),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
