//! On-disk format goldens: a store directory written by the build
//! *before* the telemetry codec became a loop over one field table,
//! which the table-driven reader and writer have to agree with byte for
//! byte. (The literal goldens of one record — fingerprint, JSON, WAL
//! line, segment and checkpoint image digests — sit beside the code
//! they pin, in `ffc_ctrl::telemetry`, `ffc_ctrl::checkpoint` and
//! `ffc_fleet::store`; each says how it was recorded.)
//!
//! `fixtures/parent-store/` and `fixtures/parent-store.stdout.jsonl`
//! were recorded with the release binary of commit aaade72:
//!
//! ```text
//! ffc ctrl run --topo examples/data/small.topo --traffic examples/data/small.tm \
//!     --ke 1 --intervals 3 --seed 11 --store crates/fleet/tests/fixtures/parent-store \
//!     > crates/fleet/tests/fixtures/parent-store.stdout.jsonl
//! ffc report --store crates/fleet/tests/fixtures/parent-store --fingerprint
//! ```
//!
//! the second command printing [`PARENT_FINGERPRINT`]. Two runs differ
//! in the segment's `solve_ms` column whatever the build, so the
//! fixture is never re-recorded to make a test pass: a change of format
//! is a schema version bump and a new fixture beside this one.

use std::fs;
use std::path::{Path, PathBuf};

use ffc_fleet::{StoreWriter, TelemetryStore};

const PARENT_FINGERPRINT: &str = "f521d82545408940";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn parent_written_store_opens_to_its_recorded_fingerprint() {
    let store = TelemetryStore::open(&fixture("parent-store")).expect("open");
    assert_eq!(store.fingerprint(), PARENT_FINGERPRINT);
    assert_eq!((store.len(), store.segments, store.wal_records), (3, 1, 0));
    assert_eq!(store.link_names.len(), 14);
    assert!(
        store.recovery_notes.is_empty(),
        "{:?}",
        store.recovery_notes
    );

    // The segment keeps `solve_ms` exactly, so each record renders the
    // very line the parent printed for it (the run's own fingerprint
    // line follows them).
    let printed = fs::read_to_string(fixture("parent-store.stdout.jsonl")).expect("stdout");
    let rendered: Vec<String> = store
        .records()
        .iter()
        .map(|r| r.telemetry.to_json())
        .collect();
    assert_eq!(rendered, printed.lines().take(3).collect::<Vec<_>>());
}

#[test]
fn rewriting_the_parent_store_reproduces_its_files_byte_for_byte() {
    let parent = fixture("parent-store");
    let store = TelemetryStore::open(&parent).expect("open");
    let dir = std::env::temp_dir().join(format!("ffts-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut w = StoreWriter::create(&dir, store.link_names.clone()).expect("create");
    for r in store.records() {
        w.record_interval(&r.telemetry, &r.link_util)
            .expect("record");
    }
    assert_eq!(w.finish().expect("finish"), 1);
    for file in ["links.txt", "seg-000000.ffts"] {
        let (ours, theirs) = (fs::read(dir.join(file)), fs::read(parent.join(file)));
        assert_eq!(ours.expect("ours"), theirs.expect("theirs"), "{file}");
    }
    assert_eq!(fs::read_dir(&dir).expect("dir").count(), 2);
    let _ = fs::remove_dir_all(&dir);
}
