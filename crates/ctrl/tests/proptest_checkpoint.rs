//! Property tests for the crash-checkpoint format: whatever controller
//! state is externalized, `state → encode → decode` and the full
//! file-level `write → recover` path must hand back the identical
//! state — through one `Checkpointer` as the histories grow and fall
//! back, the file it wrote being `encode_checkpoint`'s image byte for
//! byte — and no damaged input — truncated at an arbitrary offset, or
//! arbitrary garbage — may ever panic the decoder. The plain tests after
//! them hold the body reader to the same contract past the frame —
//! re-sealed images whose checksum is right and whose fields are not:
//! an error at an offset, or a state a resume accepts — and the history
//! log's reader to it at every offset of the log.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ffc_core::{FfcConfig, TeConfig, TeProblem};
use ffc_ctrl::checkpoint::{decode_checkpoint, encode_checkpoint, encode_history, HISTORY_LOG};
use ffc_ctrl::durable::{fnv64, put_varint, SealError};
use ffc_ctrl::state::{StoreSnapshot, VersionedConfig};
use ffc_ctrl::{
    config_digest, recover_latest, ChaosHooks, CheckpointState, Checkpointer, ConfigStore,
    Controller, ControllerConfig, Event, InflightRollout, Planner, PlannerConfig, PlannerSnapshot,
    TimedEvent,
};
use ffc_lp::{BasisStatuses, ColStatus};
use ffc_net::prelude::*;
use ffc_sim::SwitchModel;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// The newest `ckpt-*.ffck` in `dir`.
fn newest_checkpoint(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ffck"))
        .collect();
    files.sort();
    files.pop().expect("a checkpoint file")
}

/// Writes `state` through `ck` and holds the result to the contract:
/// no error, the file is `encode_checkpoint`'s image byte for byte (so
/// the reference the checkpointer carries from write to write is the
/// one folded from scratch), and recovery hands the state back.
fn write_and_recover(
    ck: &mut Checkpointer,
    state: &CheckpointState,
    digest: u64,
) -> Result<(), TestCaseError> {
    ck.write(state);
    prop_assert!(ck.error().is_none(), "{:?}", ck.error());
    let on_disk = fs::read(newest_checkpoint(ck.dir())).expect("read");
    prop_assert!(
        on_disk == encode_checkpoint(state, digest),
        "file != encode_checkpoint"
    );
    let rec = recover_latest(ck.dir(), digest).expect("recover");
    prop_assert!(rec.notes.is_empty(), "{:?}", rec.notes);
    let got = rec.checkpoint.expect("a checkpoint was written");
    prop_assert_eq!(&got.state, state);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → decode is the identity, whatever state is captured.
    #[test]
    fn encode_decode_is_identity(state in checkpoint_state(), digest in 0u64..u64::MAX) {
        let bytes = encode_checkpoint(&state, digest);
        let log = encode_history(&state, digest);
        let back = decode_checkpoint(&bytes, "prop.ffck", digest, &log)
            .expect("a freshly encoded checkpoint must decode");
        prop_assert_eq!(back, state);
    }

    /// The file-level path is the identity too: `Checkpointer::write`
    /// then `recover_latest` returns the exact state (atomic write,
    /// checksum, digest check and the history log included) — for a
    /// first state, for a longer one after it (only the new entries are
    /// appended), for the first again (the log is cut back to it, not
    /// rewritten), for an arbitrary shorter one, and for a fresh
    /// checkpointer handed an unrelated state in the used directory.
    #[test]
    fn write_recover_is_identity(
        state in checkpoint_state(),
        more in (fingerprints(), timed_events(10)),
        cut in (0usize..6, 0usize..10),
        other in checkpoint_state(),
        digest in 0u64..u64::MAX,
    ) {
        let dir = tmpdir("wr");
        let log_len = || fs::metadata(dir.join(HISTORY_LOG)).expect("log").len() as usize;
        let mut ck = Checkpointer::create(&dir, digest).expect("create");
        write_and_recover(&mut ck, &state, digest)?;
        let first_log = fs::read(dir.join(HISTORY_LOG)).expect("log");
        prop_assert_eq!(first_log.len(), encode_history(&state, digest).len());

        let mut longer = state.clone();
        longer.fingerprints.extend(more.0);
        longer.recorded.extend(more.1);
        write_and_recover(&mut ck, &longer, digest)?;
        prop_assert_eq!(log_len(), encode_history(&longer, digest).len());

        write_and_recover(&mut ck, &state, digest)?;
        prop_assert!(fs::read(dir.join(HISTORY_LOG)).expect("log") == first_log, "cut, not rewritten");

        let mut shorter = state.clone();
        shorter.fingerprints.truncate(cut.0);
        shorter.recorded.truncate(cut.1);
        write_and_recover(&mut ck, &shorter, digest)?;
        prop_assert_eq!(log_len(), encode_history(&shorter, digest).len());
        prop_assert_eq!(ck.writes(), 4);

        let mut fresh = Checkpointer::create(&dir, digest).expect("reopen");
        write_and_recover(&mut fresh, &other, digest)?;
        prop_assert_eq!(log_len(), encode_history(&other, digest).len());
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
        let log = encode_history(&state, digest);
        let cut = (cut_frac * (bytes.len() - 1) as f64) as usize;
        match decode_checkpoint(&bytes[..cut], "torn.ffck", digest, &log) {
            Err(SealError::Torn(_)) => {}
            other => prop_assert!(false, "truncated decode returned {:?}", other),
        }

        let dir = tmpdir("trunc");
        let mut ck = Checkpointer::create(&dir, digest).expect("create");
        ck.write(&state);
        let file = newest_checkpoint(&dir);
        let on_disk = fs::read(&file).expect("read");
        fs::write(&file, &on_disk[..cut.min(on_disk.len() - 1)]).expect("truncate");
        let rec = recover_latest(&dir, digest).expect("recovery survives a torn file");
        prop_assert!(rec.checkpoint.is_none());
        prop_assert_eq!(rec.notes.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary garbage never panics the decoder, as the checkpoint or
    /// as the log under a good one.
    #[test]
    fn garbage_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = decode_checkpoint(&bytes, "garbage.ffck", 7, &bytes);
        let (_, tm, tunnels) = ring();
        let good = encode_checkpoint(&ring_state(&tm, &tunnels, None), 7);
        match decode_checkpoint(&good, "good.ffck", 7, &bytes) {
            Err(SealError::Torn(e)) => prop_assert!(e.starts_with("good.ffck: history.ffhl: "), "{}", e),
            other => prop_assert!(false, "garbage for a log returned {:?}", other),
        }
    }
}

/// The three-flow ring instance the field tests decode against
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

/// Decodes an image of a [`ring_state`], whose histories are empty: the
/// log beside it is its 16-byte header.
fn decode_ring(bytes: &[u8], file: &str) -> Result<CheckpointState, SealError> {
    let log = [*b"FFHLOG1\n", DIGEST.to_le_bytes()].concat();
    decode_checkpoint(bytes, file, DIGEST, &log)
}

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

/// The offset a located error message names, and whether it is one
/// into the history log (`[ckpt: ]history.ffhl: … offset N …`) or into
/// the checkpoint (`ckpt: … offset N …`).
fn located(err: &str) -> (bool, usize) {
    let at = err.split("offset ").nth(1).and_then(|rest| {
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    });
    let at = at.unwrap_or_else(|| panic!("no offset in {err:?}"));
    (err.contains("history.ffhl: "), at)
}

#[test]
fn a_mouse_beyond_the_demands_is_refused_at_its_offset() {
    let (_, tm, tunnels) = ring();
    // Four flags for three demands: the encoder writes member 3 as told.
    let bad = ring_state(&tm, &tunnels, Some(vec![true, false, false, true]));
    let bytes = encode_checkpoint(&bad, DIGEST);
    let err = match decode_ring(&bytes, "m.ffck") {
        Err(SealError::Torn(e)) => e,
        other => panic!("expected a torn body, got {other:?}"),
    };
    assert!(
        err.ends_with("mouse flow 3 out of range (3 demands)"),
        "{err}"
    );
    let (_, at) = located(&err);
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
    let err = decode_ring(&reseal(body, &with), "m.ffck")
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
        if let Ok(state) = decode_ring(&reseal(body, &with), "m.ffck") {
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
    // Schema 2 (inline histories) is refused the same way.
    for old in [1u32, 2] {
        let mut body = good[..good.len() - 16].to_vec();
        body[8..12].copy_from_slice(&old.to_le_bytes());
        match decode_ring(&reseal(body, &good), "old.ffck") {
            Err(SealError::Mismatch(e)) => assert_eq!(
                e,
                format!(
                    "old.ffck: offset 8: checkpoint schema v{old} not supported \
                     (this reader reads v3)"
                )
            ),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }
}

/// A real mid-run image to damage: the ring campaign with a link down,
/// killed after the first rollout stage of interval 2 — a chained basis
/// hint, a standing mice set, an active fault, an in-flight rollout
/// with its outcome log, and two intervals of history in the log.
struct Victim {
    topo: Topology,
    tm: TrafficMatrix,
    tunnels: TunnelTable,
    events: Vec<TimedEvent>,
    cfg: ControllerConfig,
    digest: u64,
    /// The newest checkpoint, the log beside it, and what they decode to.
    image: Vec<u8>,
    log: Vec<u8>,
    state: CheckpointState,
}

const VICTIM_INTERVALS: usize = 4;

fn victim() -> Victim {
    let (topo, tm, tunnels, mut events) = common::mice_swap();
    events.push(TimedEvent {
        interval: 1,
        event: Event::LinkDown(LinkId(0)),
    });
    let cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic);
    let digest = config_digest(&cfg, &topo, &tunnels, &tm);
    let dir = tmpdir("victim");
    let mut ck = Checkpointer::create(&dir, digest).expect("create");
    let mut armed = cfg.clone();
    armed.chaos = ChaosHooks {
        crash_mid_rollout: Some((2, 1)),
        ..ChaosHooks::default()
    };
    let mut ctrl = Controller::new(&topo, &tunnels, armed);
    quietly(|| {
        ctrl.run_with_recovery(
            &tm,
            &events,
            VICTIM_INTERVALS,
            false,
            None,
            Some(&mut ck),
            None,
        )
    })
    .expect_err("the armed crash point fires");
    let image = fs::read(newest_checkpoint(&dir)).expect("image");
    let log = fs::read(dir.join(HISTORY_LOG)).expect("log");
    let state = decode_checkpoint(&image, "v.ffck", digest, &log).expect("decode");
    assert!(state.inflight.is_some() && state.store.hint.is_some());
    assert_eq!(
        (state.fingerprints.len(), &state.failed_links[..]),
        (2, &[0][..])
    );
    let _ = fs::remove_dir_all(&dir);
    Victim {
        topo,
        tm,
        tunnels,
        events,
        cfg,
        digest,
        image,
        log,
        state,
    }
}

/// Runs `f` with the panic hook muted; `Err` carries the message.
fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    out.map_err(|p| {
        let text = p.downcast_ref::<String>().cloned();
        text.or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// How a damaged image may end.
#[derive(Debug, Default)]
struct Fates {
    refused: usize,
    resumed: usize,
    guarded: usize,
}

impl Victim {
    /// Holds one re-sealed body to the contract: the decoder refuses it
    /// at an offset inside the image, or hands back a state the loop
    /// restores, plans from and runs to the end — or that trips the
    /// loop's own exactly-once guard (`resume diverged …`, the refusal
    /// to double-push a rollout whose plan no longer matches its log).
    /// Anything else — another panic, an unlocated error — fails.
    fn hold(&self, body: Vec<u8>, what: &str, fates: &mut Fates) {
        let image = reseal(body, &self.image);
        match decode_checkpoint(&image, "v.ffck", self.digest, &self.log) {
            Err(SealError::Torn(e)) => {
                assert!(e.starts_with("v.ffck: "), "{what}: {e}");
                let (in_log, at) = located(&e);
                let end = if in_log { self.log.len() } else { image.len() };
                assert!(at <= end, "{what}: {e}");
                fates.refused += 1;
            }
            Err(SealError::Mismatch(e)) => panic!("{what}: a body edit is not a mismatch: {e}"),
            Ok(state) => match self.resume(state) {
                Ok(()) => fates.resumed += 1,
                Err(p) if p.starts_with("resume diverged from the checkpointed rollout") => {
                    fates.guarded += 1
                }
                Err(p) => panic!("{what}: resume panicked: {p}"),
            },
        }
    }

    /// What `ffc ctrl resume` does with a recovered state.
    fn resume(&self, state: CheckpointState) -> Result<(), String> {
        quietly(|| {
            let mut ctrl = Controller::new(&self.topo, &self.tunnels, self.cfg.clone());
            ctrl.run_with_recovery(
                &self.tm,
                &self.events,
                VICTIM_INTERVALS,
                false,
                None,
                None,
                Some(state),
            );
        })
    }

    /// The image's checksummed part, past which edits are frame damage.
    fn body(&self) -> &[u8] {
        &self.image[..self.image.len() - 16]
    }
}

/// Past magic, schema version and digest, every bit of every body byte
/// flipped and re-sealed, and the body cut short at every offset.
#[test]
fn a_damaged_body_is_an_error_at_an_offset_or_a_state_that_resumes() {
    let v = victim();
    v.resume(v.state.clone())
        .expect("the undamaged state resumes");
    let mut fates = Fates::default();
    for at in 20..v.body().len() {
        for bit in 0..8 {
            let mut body = v.body().to_vec();
            body[at] ^= 1 << bit;
            v.hold(body, &format!("bit {bit} of byte {at}"), &mut fates);
        }
    }
    for cut in 20..v.body().len() {
        v.hold(
            v.body()[..cut].to_vec(),
            &format!("cut at {cut}"),
            &mut fates,
        );
    }
    assert!(fates.refused > 0 && fates.resumed > 0, "{fates:?}");
}

/// Fields a single flip does not reach: counts no image can hold (capped
/// before anything is allocated for them), and values that read fine but
/// disagree with the rest of the state or with the instance.
#[test]
fn inconsistent_fields_are_refused_or_resumed_never_a_panic() {
    let v = victim();
    let mut fates = Fates::default();

    // Every single-byte count of the body becomes the varint of u64::MAX:
    // read as a count it can only run off the end of the image.
    let huge = {
        let mut b = Vec::new();
        put_varint(&mut b, u64::MAX);
        b
    };
    for at in 20..v.body().len() {
        let mut body = v.body()[..at].to_vec();
        body.extend_from_slice(&huge);
        body.extend_from_slice(&v.body()[at + 1..]);
        v.hold(body, &format!("u64::MAX spliced at {at}"), &mut fates);
    }

    type Edit = fn(&mut CheckpointState);
    let edits: [(&str, Edit); 14] = [
        ("hint shorter than its shape", |s| {
            s.store.hint.as_mut().expect("hint").0 .0.truncate(5)
        }),
        ("hint longer than its shape", |s| {
            let basis = &mut s.store.hint.as_mut().expect("hint").0 .0;
            basis.extend([ColStatus::Basic; 40]);
        }),
        ("hint with no basic column", |s| {
            let basis = &mut s.store.hint.as_mut().expect("hint").0 .0;
            basis.fill(ColStatus::Lower);
        }),
        ("hint of another protection level", |s| {
            s.store.hint.as_mut().expect("hint").1 = (usize::MAX, 1, 0, 3)
        }),
        ("failed link out of range", |s| s.failed_links.push(99)),
        ("failed switch out of range", |s| {
            s.failed_switches.push(usize::MAX)
        }),
        ("staged version below installed", |s| {
            s.store.staged = Some(VersionedConfig {
                version: 0,
                config: s.store.installed.config.clone(),
            })
        }),
        ("version counter behind", |s| s.store.next_version = 0),
        ("version counter at the top", |s| {
            s.store.next_version = u64::MAX
        }),
        ("a demand too few", |s| {
            s.demands.pop();
            s.planner.mice = None;
        }),
        ("a demand too many", |s| {
            s.demands.push(1.0);
            s.planner.mice = None;
        }),
        ("protection beyond any instance", |s| {
            s.planner.current = (usize::MAX, usize::MAX, usize::MAX);
            s.planner.requested = s.planner.current;
        }),
        ("non-finite installed rates", |s| {
            s.store.installed.config.rate.fill(f64::NAN);
            s.store.last_good.config.rate.fill(f64::INFINITY);
        }),
        ("an interval long past", |s| s.next_interval = usize::MAX),
    ];
    for (what, edit) in edits {
        let mut state = v.state.clone();
        edit(&mut state);
        let image = encode_checkpoint(&state, v.digest);
        v.hold(image[..image.len() - 16].to_vec(), what, &mut fates);
    }

    // What `set_demand` would assert on is refused where it is read.
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        let mut state = v.state.clone();
        state.demands[1] = bad;
        let image = encode_checkpoint(&state, v.digest);
        let err = decode_checkpoint(&image, "v.ffck", v.digest, &v.log).expect_err("bad demand");
        let SealError::Torn(e) = err else {
            panic!("{err:?}")
        };
        let (_, at) = located(&e);
        assert_eq!(image[at..at + 8], bad.to_le_bytes(), "{e}");
    }
    assert!(fates.refused > 0 && fates.resumed > 0, "{fates:?}");
}

/// Three checkpoints over one log, as a run leaves them: each state
/// extends the one before, so each refers to a longer prefix.
struct Logged {
    dir: PathBuf,
    states: Vec<CheckpointState>,
    /// The log, and the length of the prefix each state refers to.
    log: Vec<u8>,
    prefix: Vec<usize>,
}

fn logged(tag: &str) -> Logged {
    let (_, tm, tunnels) = ring();
    let dir = tmpdir(tag);
    let mut ck = Checkpointer::create(&dir, DIGEST).expect("create");
    let mut state = ring_state(&tm, &tunnels, None);
    state.recorded = vec![TimedEvent {
        interval: 1,
        event: Event::DemandScale(0.5),
    }];
    let (mut states, mut prefix) = (Vec::new(), Vec::new());
    for i in 0..3 {
        state.next_interval = i + 1;
        state.fingerprints.push(format!("interval {i} fingerprint"));
        state.recorded.push(TimedEvent {
            interval: i,
            event: Event::UpdateAck {
                switch: NodeId(i),
                step: 0,
                delay: 0.25,
            },
        });
        ck.write(&state);
        prefix.push(fs::metadata(dir.join(HISTORY_LOG)).expect("log").len() as usize);
        states.push(state.clone());
    }
    assert!(ck.error().is_none(), "{:?}", ck.error());
    let log = fs::read(dir.join(HISTORY_LOG)).expect("log");
    assert_eq!(log.len(), encode_history(&state, DIGEST).len());
    Logged {
        dir,
        states,
        log,
        prefix,
    }
}

impl Logged {
    /// Recovers over `damaged` in place of the log: what comes back is
    /// the newest state whose prefix lies wholly before `first_bad` (the
    /// first damaged offset) — never a history that was not written —
    /// every newer checkpoint is skipped with a note naming the log and
    /// an offset inside it, and nothing panics.
    fn recovers_the_newest_whole_prefix(&self, damaged: &[u8], first_bad: usize, what: &str) {
        fs::write(self.dir.join(HISTORY_LOG), damaged).expect("write log");
        let rec = recover_latest(&self.dir, DIGEST).unwrap_or_else(|e| panic!("{what}: {e}"));
        let whole = self.prefix.iter().rposition(|&end| end <= first_bad);
        assert_eq!(
            rec.checkpoint.as_ref().map(|c| &c.state),
            whole.map(|i| &self.states[i]),
            "{what}"
        );
        let skipped = self.states.len() - whole.map_or(0, |i| i + 1);
        assert_eq!(rec.notes.len(), skipped, "{what}: {:?}", rec.notes);
        for note in &rec.notes {
            let named = note.starts_with("skipped ckpt-") && note.contains(".ffck: history.ffhl: ");
            assert!(named, "{what}: note {note:?} does not name the log");
            assert!(located(note).1 <= damaged.len(), "{what}: {note}");
        }
    }
}

#[test]
fn a_log_truncated_at_any_offset_yields_the_newest_whole_prefix() {
    let l = logged("log-cut");
    for cut in 0..=l.log.len() {
        l.recovers_the_newest_whole_prefix(&l.log[..cut], cut, &format!("cut at {cut}"));
    }
    // No log at all is an empty one.
    fs::remove_file(l.dir.join(HISTORY_LOG)).expect("rm");
    let rec = recover_latest(&l.dir, DIGEST).expect("recover");
    assert!(
        rec.checkpoint.is_none() && rec.notes.len() == 3,
        "{:?}",
        rec.notes
    );
    let _ = fs::remove_dir_all(&l.dir);
}

#[test]
fn a_log_byte_flipped_at_any_offset_yields_the_newest_whole_prefix() {
    let l = logged("log-flip");
    for at in 0..l.log.len() {
        for mask in [0x01, 0x40, 0xff] {
            let mut damaged = l.log.clone();
            damaged[at] ^= mask;
            l.recovers_the_newest_whole_prefix(&damaged, at, &format!("byte {at} ^ {mask:#x}"));
        }
    }
    let _ = fs::remove_dir_all(&l.dir);
}

#[test]
fn a_log_that_disagrees_with_the_reference_is_torn_at_an_offset_that_exists() {
    let l = logged("log-ref");
    let newest = &l.states[2];
    let image = encode_checkpoint(newest, DIGEST);
    let torn = |log: &[u8], what: &str| -> (usize, String) {
        match decode_checkpoint(&image, "c.ffck", DIGEST, log) {
            Err(SealError::Torn(e)) => {
                assert!(e.starts_with("c.ffck: history.ffhl: "), "{what}: {e}");
                let (_, at) = located(&e);
                assert!(at <= log.len(), "{what}: {e}");
                (at, e)
            }
            other => panic!("{what}: expected Torn, got {other:?}"),
        }
    };
    let first_entry = 16;

    // An unknown tag, at its offset.
    let mut log = l.log.clone();
    log[first_entry] = b'?';
    let (at, e) = torn(&log, "unknown tag");
    assert!(
        at == first_entry && e.contains("unknown entry tag 0x3f"),
        "{e}"
    );

    // A length prefix past the end of the log.
    let mut log = l.log[..first_entry + 1].to_vec();
    put_varint(&mut log, u64::MAX);
    log.extend_from_slice(&l.log[first_entry + 2..]);
    torn(&log, "length past the end");

    // Another run's log (its digest), whole otherwise.
    let (at, e) = torn(&encode_history(newest, DIGEST + 1), "foreign digest");
    assert!(at == 8 && e.contains("different run"), "{e}");

    // References the log cannot back: an older state's log is too short
    // for the counts; a count one too many at the right length; a byte
    // length that lands inside the last entry.
    torn(
        &encode_history(&l.states[1], DIGEST),
        "counts exceed the log",
    );
    let mut other = newest.clone();
    other.fingerprints.push(String::new());
    let mut log = encode_history(&other, DIGEST);
    torn(&log[..l.log.len()], "byte length mid-entry of a longer log");
    log.truncate(l.log.len() - 1);
    torn(&log, "log one byte short of the reference");
    let mut swapped = newest.clone();
    swapped.fingerprints.swap(0, 1);
    let (at, e) = torn(
        &encode_history(&swapped, DIGEST),
        "same lengths, another order",
    );
    assert!(
        at == l.log.len() && e.contains("the checkpoint names"),
        "{e}"
    );
    let _ = fs::remove_dir_all(&l.dir);
}
