//! Property tests for the crash-checkpoint format: whatever controller
//! state is externalized, `state → encode → decode` and the full
//! file-level `write → recover` path must hand back the identical
//! state, and no damaged input — truncated at an arbitrary offset, or
//! arbitrary garbage — may ever panic the decoder. The plain tests at
//! the end hold the body reader to the same contract for the planner's
//! standing mice set, past the frame: re-sealed images whose checksum is
//! right and whose field is not.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ffc_core::{FfcConfig, TeConfig, TeProblem};
use ffc_ctrl::checkpoint::{decode_checkpoint, encode_checkpoint};
use ffc_ctrl::durable::{fnv64, SealError};
use ffc_ctrl::state::{StoreSnapshot, VersionedConfig};
use ffc_ctrl::{
    recover_latest, CheckpointState, Checkpointer, ConfigStore, Event, InflightRollout, Planner,
    PlannerConfig, PlannerSnapshot, TimedEvent,
};
use ffc_lp::{BasisStatuses, ColStatus};
use ffc_net::prelude::*;
use proptest::prelude::*;

mod common;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ffck-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn finite() -> std::ops::Range<f64> {
    -1.0e12..1.0e12
}

/// `Option` combinator: the vendored proptest has no `prop::option`.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn te_config() -> impl Strategy<Value = TeConfig> {
    (
        prop::collection::vec(finite(), 0..5),
        prop::collection::vec(prop::collection::vec(finite(), 0..4), 0..4),
    )
        .prop_map(|(rate, alloc)| TeConfig { rate, alloc })
}

fn versioned() -> impl Strategy<Value = VersionedConfig> {
    (0u64..u64::MAX, te_config()).prop_map(|(version, config)| VersionedConfig { version, config })
}

fn basis() -> impl Strategy<Value = BasisStatuses> {
    prop::collection::vec(0u8..4, 0..12).prop_map(|codes| {
        BasisStatuses(
            codes
                .into_iter()
                .map(|c| match c {
                    0 => ColStatus::Basic,
                    1 => ColStatus::Lower,
                    2 => ColStatus::Upper,
                    _ => ColStatus::Free,
                })
                .collect(),
        )
    })
}

fn store_snapshot() -> impl Strategy<Value = StoreSnapshot> {
    (
        versioned(),
        versioned(),
        opt(versioned()),
        0u64..1_000_000,
        opt((basis(), (0usize..4, 0usize..4, 0usize..2, 0usize..64))),
    )
        .prop_map(
            |(installed, last_good, staged, next_version, hint)| StoreSnapshot {
                installed,
                last_good,
                staged,
                next_version,
                hint,
            },
        )
}

/// The standing mice set is generated at an arbitrary length;
/// [`checkpoint_state`] fits it to the demands, one flag per flow, as
/// the planner keeps it.
fn planner_snapshot() -> impl Strategy<Value = PlannerSnapshot> {
    (
        (0usize..4, 0usize..4, 0usize..2),
        (0usize..4, 0usize..4, 0usize..2),
        any::<bool>(),
        0usize..100,
        opt(prop::collection::vec(any::<bool>(), 0..12)),
    )
        .prop_map(
            |(requested, current, rescale_only, intervals_since_probe, mice)| PlannerSnapshot {
                requested,
                current,
                rescale_only,
                intervals_since_probe,
                mice,
            },
        )
}

/// One of eight event variants, driven by a small discriminant; the
/// vendored proptest has no `prop_oneof`.
fn event() -> impl Strategy<Value = Event> {
    (0u8..8, 0usize..64, 0usize..16, 0.0..1.0e6f64).prop_map(|(kind, a, b, x)| match kind {
        0 => Event::DemandScale(x),
        1 => Event::DemandSet { flow: a, demand: x },
        2 => Event::LinkDown(LinkId(a)),
        3 => Event::LinkUp(LinkId(a)),
        4 => Event::SwitchDown(NodeId(a % 32)),
        5 => Event::SwitchUp(NodeId(a % 32)),
        6 => Event::SetProtection {
            kc: a % 4,
            ke: b % 4,
            kv: b % 2,
        },
        _ => Event::UpdateAck {
            switch: NodeId(a % 32),
            step: b,
            delay: x,
        },
    })
}

fn timed_events(max: usize) -> impl Strategy<Value = Vec<TimedEvent>> {
    prop::collection::vec(
        (0usize..64, event()).prop_map(|(interval, event)| TimedEvent { interval, event }),
        0..max,
    )
}

fn inflight() -> impl Strategy<Value = InflightRollout> {
    (
        0usize..64,
        0usize..16,
        0usize..16,
        prop::collection::vec(0u64..u64::MAX, 4),
        timed_events(6),
    )
        .prop_map(
            |(interval, stage_reached, steps_planned, rng, outcomes)| InflightRollout {
                interval,
                stage_reached,
                steps_planned,
                rng_after: [rng[0], rng[1], rng[2], rng[3]],
                outcomes,
            },
        )
}

fn fingerprints() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::collection::vec(32u8..127, 0..40)
            .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii")),
        0..6,
    )
}

fn checkpoint_state() -> impl Strategy<Value = CheckpointState> {
    (
        (
            0usize..1000,
            prop::collection::vec(0.0..1.0e9f64, 0..12),
            store_snapshot(),
            planner_snapshot(),
            prop::collection::vec(0usize..128, 0..8),
            prop::collection::vec(0usize..64, 0..4),
        ),
        (
            prop::collection::vec(0u64..u64::MAX, 4),
            prop::collection::vec(0.0..1.0e9f64, 9),
            fingerprints(),
            timed_events(10),
            opt(inflight()),
        ),
    )
        .prop_map(
            |(
                (next_interval, demands, store, mut planner, failed_links, failed_switches),
                (rng, totals, fingerprints, recorded, inflight),
            )| {
                if let Some(mice) = &mut planner.mice {
                    mice.resize(demands.len(), false);
                }
                CheckpointState {
                    next_interval,
                    demands,
                    store,
                    planner,
                    failed_links,
                    failed_switches,
                    rng: [rng[0], rng[1], rng[2], rng[3]],
                    totals: [
                        [totals[0], totals[1], totals[2]],
                        [totals[3], totals[4], totals[5]],
                        [totals[6], totals[7], totals[8]],
                    ],
                    fingerprints,
                    recorded,
                    inflight,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → decode is the identity, whatever state is captured.
    #[test]
    fn encode_decode_is_identity(state in checkpoint_state(), digest in 0u64..u64::MAX) {
        let bytes = encode_checkpoint(&state, digest);
        let back = decode_checkpoint(&bytes, "prop.ffck", digest)
            .expect("a freshly encoded checkpoint must decode");
        prop_assert_eq!(back, state);
    }

    /// The file-level path is the identity too: `Checkpointer::write`
    /// then `recover_latest` returns the exact state (atomic write,
    /// checksum, and digest check included).
    #[test]
    fn write_recover_is_identity(state in checkpoint_state(), digest in 0u64..u64::MAX) {
        let dir = tmpdir("wr");
        let mut ck = Checkpointer::create(&dir, digest).expect("create");
        ck.write(&state);
        prop_assert!(ck.error().is_none(), "{:?}", ck.error());
        let rec = recover_latest(&dir, digest).expect("recover");
        prop_assert!(rec.notes.is_empty(), "{:?}", rec.notes);
        let got = rec.checkpoint.expect("a checkpoint was written");
        prop_assert_eq!(got.state, state);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint truncated at an arbitrary offset is rejected as
    /// Invalid — never a panic, never a silent partial decode — and
    /// file-level recovery skips it with a note instead of failing.
    #[test]
    fn truncation_at_any_offset_is_invalid_and_skipped(
        state in checkpoint_state(),
        digest in 0u64..u64::MAX,
        cut_frac in 0.0..1.0f64,
    ) {
        let bytes = encode_checkpoint(&state, digest);
        let cut = (cut_frac * (bytes.len() - 1) as f64) as usize;
        match decode_checkpoint(&bytes[..cut], "torn.ffck", digest) {
            Err(SealError::Torn(_)) => {}
            other => prop_assert!(false, "truncated decode returned {:?}", other),
        }

        let dir = tmpdir("trunc");
        let mut ck = Checkpointer::create(&dir, digest).expect("create");
        ck.write(&state);
        let file = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|x| x == "ffck"))
            .expect("checkpoint file");
        let on_disk = fs::read(&file).expect("read");
        fs::write(&file, &on_disk[..cut.min(on_disk.len() - 1)]).expect("truncate");
        let rec = recover_latest(&dir, digest).expect("recovery survives a torn file");
        prop_assert!(rec.checkpoint.is_none());
        prop_assert_eq!(rec.notes.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = decode_checkpoint(&bytes, "garbage.ffck", 7);
    }
}

/// The three-flow ring instance the mice-field tests decode against
/// (`ke = 1` sorting networks, so the restored set shapes the model).
fn ring() -> (Topology, TrafficMatrix, TunnelTable) {
    let (topo, tm, tunnels, _) = common::mice_swap();
    (topo, tm, tunnels)
}

/// A boundary state of the ring instance whose planner holds `mice`.
fn ring_state(
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    mice: Option<Vec<bool>>,
) -> CheckpointState {
    let store = ConfigStore::new(TeConfig::zero(tunnels));
    let mut planner = Planner::new(PlannerConfig::new(FfcConfig::new(0, 1, 0))).snapshot();
    planner.mice = mice;
    CheckpointState {
        next_interval: 1,
        demands: tm.iter().map(|(_, f)| f.demand).collect(),
        store: store.snapshot(),
        planner,
        failed_links: vec![],
        failed_switches: vec![],
        rng: [1, 2, 3, 4],
        totals: [[0.0; 3]; 3],
        fingerprints: vec![],
        recorded: vec![],
        inflight: None,
    }
}

/// Re-seals an edited image: the checksum is right again, so only the
/// body reader stands between the edit and the planner.
fn reseal(mut body: Vec<u8>, good: &[u8]) -> Vec<u8> {
    body.extend_from_slice(&fnv64(&body).to_le_bytes());
    body.extend_from_slice(&good[good.len() - 8..]);
    body
}

/// The byte range of the mice field in `with`: it starts where the
/// image parts from the same state's image without a set (the flag
/// byte) and is as long as the two images differ in length, plus the
/// flag.
fn mice_field(with: &[u8], without: &[u8]) -> std::ops::Range<usize> {
    let start = with
        .iter()
        .zip(without)
        .position(|(a, b)| a != b)
        .expect("the images differ");
    start..start + 1 + with.len() - without.len()
}

const DIGEST: u64 = 7;

/// Restores a decoded planner snapshot and plans one interval with it:
/// what a resume does first.
fn restore_and_plan(state: &CheckpointState) {
    let (topo, tm, tunnels) = ring();
    let mut planner = Planner::new(PlannerConfig::new(FfcConfig::new(0, 1, 0)));
    planner.restore(&state.planner);
    let mut store = ConfigStore::new(TeConfig::zero(&tunnels));
    let old = store.installed().clone();
    let outcome = planner.plan(
        TeProblem::new(&topo, &tm, &tunnels),
        &old,
        &FaultScenario::none(),
        &mut store,
    );
    assert!(outcome.target.is_some());
}

#[test]
fn a_mouse_beyond_the_demands_is_refused_at_its_offset() {
    let (_, tm, tunnels) = ring();
    // Four flags for three demands: the encoder writes member 3 as told.
    let bad = ring_state(&tm, &tunnels, Some(vec![true, false, false, true]));
    let bytes = encode_checkpoint(&bad, DIGEST);
    let err = match decode_checkpoint(&bytes, "m.ffck", DIGEST) {
        Err(SealError::Torn(e)) => e,
        other => panic!("expected a torn body, got {other:?}"),
    };
    assert!(
        err.ends_with("mouse flow 3 out of range (3 demands)"),
        "{err}"
    );
    let at: usize = err
        .strip_prefix("m.ffck: offset ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no offset in {err:?}"));
    assert_eq!(bytes[at], 3, "the offset is the refused member's");
}

#[test]
fn a_mice_count_beyond_the_demands_is_refused_before_it_is_believed() {
    let (_, tm, tunnels) = ring();
    let with = encode_checkpoint(&ring_state(&tm, &tunnels, Some(vec![true; 3])), DIGEST);
    let without = encode_checkpoint(&ring_state(&tm, &tunnels, None), DIGEST);
    let field = mice_field(&with, &without);
    assert_eq!(with[field.clone()], [1, 3, 0, 1, 2], "flag, count, members");
    // The count byte becomes the varint of u64::MAX.
    let mut body = with[..field.start + 1].to_vec();
    body.extend_from_slice(&[0xff; 9]);
    body.push(0x01);
    body.extend_from_slice(&with[field.start + 2..with.len() - 16]);
    let err = decode_checkpoint(&reseal(body, &with), "m.ffck", DIGEST)
        .expect_err("a count no set of three flows can have");
    let want = format!(
        "m.ffck: offset {}: {} mice among 3 demands",
        field.start + 1,
        u64::MAX
    );
    assert_eq!(err, SealError::Torn(want));
}

#[test]
fn a_damaged_mice_field_is_an_error_or_a_state_that_restores() {
    let (_, tm, tunnels) = ring();
    let with = encode_checkpoint(
        &ring_state(&tm, &tunnels, Some(vec![true, false, true])),
        DIGEST,
    );
    let without = encode_checkpoint(&ring_state(&tm, &tunnels, None), DIGEST);
    let field = mice_field(&with, &without);
    let sealed = with.len() - 16;
    let mut survivors = 0;
    let mut check = |body: Vec<u8>| {
        if let Ok(state) = decode_checkpoint(&reseal(body, &with), "m.ffck", DIGEST) {
            restore_and_plan(&state);
            survivors += 1;
        }
    };
    // Every bit of every byte of the field, flipped.
    for at in field.clone() {
        for bit in 0..8 {
            let mut body = with[..sealed].to_vec();
            body[at] ^= 1 << bit;
            check(body);
        }
    }
    // The field cut short by 1..=all of its bytes.
    for cut in 1..=field.len() {
        let mut body = with[..field.end - cut].to_vec();
        body.extend_from_slice(&with[field.end..sealed]);
        check(body);
    }
    assert!(survivors > 0, "some flips only rename a member");
}

#[test]
fn a_schema_1_checkpoint_is_refused_as_a_mismatch() {
    let (_, tm, tunnels) = ring();
    let good = encode_checkpoint(&ring_state(&tm, &tunnels, None), DIGEST);
    let mut body = good[..good.len() - 16].to_vec();
    body[8..12].copy_from_slice(&1u32.to_le_bytes());
    match decode_checkpoint(&reseal(body, &good), "old.ffck", DIGEST) {
        Err(SealError::Mismatch(e)) => assert_eq!(
            e,
            "old.ffck: offset 8: checkpoint schema v1 not supported (this reader reads v2)"
        ),
        other => panic!("expected Mismatch, got {other:?}"),
    }
}
