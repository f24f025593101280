//! Durable crash checkpoints of the controller loop.
//!
//! A checkpoint externalizes **everything** the controller needs to
//! continue a run bit-identically after a crash: the versioned config
//! store (installed / last-known-good / staged, plus the chained
//! warm-basis hint), the planner's degradation-ladder position and
//! standing §6 mice set, the active fault scenario, the live-sampling
//! RNG state, the mutated traffic matrix, aggregate totals, the
//! fingerprint lines of every completed interval, the recorded event
//! stream, and — when a rollout was in flight — the interval's complete
//! sampled outcome log plus the post-sampling RNG state.
//!
//! On disk that is two kinds of file, split by what changes and what
//! only grows. A checkpoint, `ckpt-<seq>.ffck`, is a sealed file
//! ([`crate::durable::seal`], the framing `ffc-fleet`'s segments
//! share): magic, a schema version, a run-configuration digest, a
//! binary body, then the checksum and end marker. Its body holds every
//! field but the two histories — the fingerprint lines and the recorded
//! events — and in their place a *history reference*: the entry count
//! and running FNV-1a chain of each, and a byte length. The entries
//! themselves are in one append-only log beside the checkpoints,
//! [`HISTORY_LOG`] (magic and run digest, then `tag | varint length |
//! line` entries), whose first that-many bytes hold exactly the history
//! the reference names. So a checkpoint's size does not grow with the
//! run, and a write costs what the interval added: its new entries are
//! appended to the log first, then the checkpoint is written with temp
//! file + rename. A crash between the two leaves entries past every
//! checkpoint's reference — a tail no reader looks at and the next
//! [`Checkpointer`] cuts off.
//!
//! Recovery scans checkpoints newest-to-oldest, skipping torn or
//! corrupt ones (with a note) until one is valid *and* the log still
//! holds the prefix it names — the same torn-tail tolerance the
//! telemetry store has. There is one copy of the history, not one per
//! checkpoint: damage inside the log's oldest surviving prefix loses
//! every checkpoint at once, and the run restarts from interval 0.
//!
//! Exactly-once rollout across a crash: because the executor samples
//! *all* switch outcomes before issuing the first step, a mid-rollout
//! checkpoint already carries the interval's full outcome log. A
//! resume replans the interval deterministically from the boundary
//! state and feeds the log back through
//! [`OutcomeSource::Recorded`](crate::executor::OutcomeSource) — acked
//! stages are consumed from the durable log, never re-pushed, and the
//! remaining stages complete (or the commit falls back to
//! last-known-good) exactly as the crashed run would have.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ffc_core::TeConfig;
use ffc_lp::{BasisStatuses, ColStatus};
use ffc_net::{Topology, TrafficMatrix, TunnelTable};

use crate::durable::{
    fnv64, fnv_step, io_err, list_numbered, put_bytes, put_f64, put_u32, put_u64, put_varint, seal,
    unseal, write_atomic, Cursor, SealError, FNV_OFFSET,
};
use crate::event::TimedEvent;
use crate::planner::PlannerSnapshot;
use crate::state::{HintShape, StoreSnapshot, VersionedConfig};
use crate::ControllerConfig;

/// First line of every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FFCKPT1\n";
/// Trailing end marker (after the checksum).
pub const CHECKPOINT_END: &[u8; 8] = b"FFCKEND\n";
/// Bumped on any incompatible change to the checkpoint body layout
/// (2: the planner's standing mice set follows its ladder position;
/// 3: a reference into [`HISTORY_LOG`] where the two histories were).
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;
/// How many checkpoint files [`Checkpointer`] retains: the newest may
/// be torn by a crash mid-rename-window or corrupted on disk, so
/// recovery needs older fallbacks.
pub const CHECKPOINT_KEEP: usize = 3;
/// The append-only log of both histories, beside the checkpoints that
/// refer into it.
pub const HISTORY_LOG: &str = "history.ffhl";
/// First line of the history log; the run-configuration digest follows.
pub const HISTORY_MAGIC: &[u8; 8] = b"FFHLOG1\n";
/// Tag of a fingerprint-line entry of the history log.
const TAG_FINGERPRINT: u8 = b'F';
/// Tag of a recorded-event entry of the history log.
const TAG_EVENT: u8 = b'E';

/// A rollout that was in flight when the checkpoint was written: the
/// stage the controller had issued, the interval's complete sampled
/// outcome log, and the RNG state after outcome sampling. Everything
/// else about the interval (the plan, the schedule) is re-derived
/// deterministically from the boundary state on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightRollout {
    /// The interval whose rollout was in flight.
    pub interval: usize,
    /// Rollout steps fully issued when the checkpoint was written —
    /// these are *acked* and must never be re-pushed.
    pub stage_reached: usize,
    /// Steps in the congestion-free plan (sanity cross-check).
    pub steps_planned: usize,
    /// RNG state after the interval's outcome sampling; the state a
    /// resume continues later intervals from.
    pub rng_after: [u64; 4],
    /// The complete sampled outcome log (acks + timeouts) for the
    /// interval — the executor samples everything up front, so this is
    /// total even when the crash hit the first stage.
    pub outcomes: Vec<TimedEvent>,
}

/// The complete externalized controller state at a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The next interval the loop would run (== intervals completed).
    pub next_interval: usize,
    /// Current per-flow demands (the traffic matrix as mutated by the
    /// event stream so far), in `FlowId` order.
    pub demands: Vec<f64>,
    /// The versioned config store, including the chained basis hint.
    pub store: StoreSnapshot,
    /// The planner's degradation-ladder position and standing mice set
    /// (one flag per entry of `demands`).
    pub planner: PlannerSnapshot,
    /// Failed-link indices of the active fault scenario.
    pub failed_links: Vec<usize>,
    /// Failed-switch indices of the active fault scenario.
    pub failed_switches: Vec<usize>,
    /// Live-sampling RNG state at the interval boundary.
    pub rng: [u64; 4],
    /// Aggregate `[delivered, lost_congestion, lost_blackhole]`, each
    /// per priority class.
    pub totals: [[f64; 3]; 3],
    /// Fingerprint line of every completed interval, in order — what
    /// makes a resumed run's report fingerprint bit-identical to an
    /// uninterrupted run's.
    pub fingerprints: Vec<String>,
    /// The recorded event stream so far (inputs + sampled outcomes).
    pub recorded: Vec<TimedEvent>,
    /// The in-flight rollout, if the checkpoint was written at a
    /// rollout-stage boundary rather than an interval boundary.
    pub inflight: Option<InflightRollout>,
}

/// Digest of everything that must be identical between the run that
/// wrote a checkpoint and the run resuming from it: the controller
/// configuration knobs that shape planning/rollout/sampling, and the
/// identity of the topology, tunnel layout, and base traffic matrix.
/// Two runs with equal digests re-derive identical per-interval
/// behaviour from a restored state.
pub fn config_digest(
    cfg: &ControllerConfig,
    topo: &Topology,
    tunnels: &TunnelTable,
    base_tm: &TrafficMatrix,
) -> u64 {
    let mut buf = Vec::with_capacity(256);
    put_u64(&mut buf, cfg.seed);
    put_varint(&mut buf, cfg.ffc.kc as u64);
    put_varint(&mut buf, cfg.ffc.ke as u64);
    put_varint(&mut buf, cfg.ffc.kv as u64);
    put_f64(&mut buf, cfg.interval_secs);
    put_f64(&mut buf, cfg.retry_timeout_secs);
    put_varint(&mut buf, cfg.max_retries as u64);
    put_varint(&mut buf, cfg.max_update_steps as u64);
    put_varint(&mut buf, cfg.rules_per_update as u64);
    put_varint(&mut buf, cfg.recovery_probe as u64);
    put_bytes(&mut buf, format!("{:?}", cfg.switch_model).as_bytes());
    put_varint(&mut buf, topo.num_nodes() as u64);
    put_varint(&mut buf, topo.num_links() as u64);
    for e in topo.links() {
        put_f64(&mut buf, topo.capacity(e));
    }
    put_varint(&mut buf, base_tm.len() as u64);
    for (_, f) in base_tm.iter() {
        put_varint(&mut buf, f.src.index() as u64);
        put_varint(&mut buf, f.dst.index() as u64);
        put_f64(&mut buf, f.demand);
        put_bytes(&mut buf, format!("{:?}", f.priority).as_bytes());
    }
    put_varint(&mut buf, tunnels.num_flows() as u64);
    put_varint(&mut buf, tunnels.total_tunnels() as u64);
    fnv64(&buf)
}

fn put_te_config(buf: &mut Vec<u8>, c: &TeConfig) {
    put_varint(buf, c.rate.len() as u64);
    for &r in &c.rate {
        put_f64(buf, r);
    }
    put_varint(buf, c.alloc.len() as u64);
    for row in &c.alloc {
        put_varint(buf, row.len() as u64);
        for &a in row {
            put_f64(buf, a);
        }
    }
}

fn read_te_config(cur: &mut Cursor<'_>) -> Result<TeConfig, String> {
    let n = cur.varint("rate len")? as usize;
    let mut rate = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        rate.push(cur.f64("rate")?);
    }
    let m = cur.varint("alloc len")? as usize;
    let mut alloc = Vec::with_capacity(m.min(1 << 20));
    for _ in 0..m {
        let k = cur.varint("alloc row len")? as usize;
        let mut row = Vec::with_capacity(k.min(1 << 20));
        for _ in 0..k {
            row.push(cur.f64("alloc")?);
        }
        alloc.push(row);
    }
    Ok(TeConfig { rate, alloc })
}

fn put_versioned(buf: &mut Vec<u8>, v: &VersionedConfig) {
    put_varint(buf, v.version);
    put_te_config(buf, &v.config);
}

fn read_versioned(cur: &mut Cursor<'_>) -> Result<VersionedConfig, String> {
    Ok(VersionedConfig {
        version: cur.varint("config version")?,
        config: read_te_config(cur)?,
    })
}

fn status_code(s: ColStatus) -> u8 {
    match s {
        ColStatus::Basic => 0,
        ColStatus::Lower => 1,
        ColStatus::Upper => 2,
        ColStatus::Free => 3,
    }
}

fn status_from_code(b: u8) -> Result<ColStatus, String> {
    Ok(match b {
        0 => ColStatus::Basic,
        1 => ColStatus::Lower,
        2 => ColStatus::Upper,
        3 => ColStatus::Free,
        _ => return Err(format!("unknown basis status code {b}")),
    })
}

/// The planner's standing mice set as the indices of its members.
fn put_mice(buf: &mut Vec<u8>, mice: Option<&[bool]>) {
    let Some(flags) = mice else {
        buf.push(0);
        return;
    };
    buf.push(1);
    let members = flags.iter().enumerate().filter(|(_, &mouse)| mouse);
    put_varint(buf, members.clone().count() as u64);
    for (flow, _) in members {
        put_varint(buf, flow as u64);
    }
}

/// Reads [`put_mice`]'s image back into one flag per flow. A count or
/// a member beyond the `flows` demands read before it is refused here,
/// at its offset, so no out-of-range index reaches the planner.
fn read_mice(cur: &mut Cursor<'_>, flows: usize) -> Result<Option<Vec<bool>>, String> {
    if cur.take(1, "mice flag")?[0] == 0 {
        return Ok(None);
    }
    let (at, members) = (cur.pos(), cur.varint("mice count")? as usize);
    if members > flows {
        return Err(cur.error_at(at, format!("{members} mice among {flows} demands")));
    }
    let mut flags = vec![false; flows];
    for _ in 0..members {
        let (at, flow) = (cur.pos(), cur.varint("mouse flow")? as usize);
        match flags.get_mut(flow) {
            Some(flag) => *flag = true,
            None => {
                let what = format!("mouse flow {flow} out of range ({flows} demands)");
                return Err(cur.error_at(at, what));
            }
        }
    }
    Ok(Some(flags))
}

fn put_events(buf: &mut Vec<u8>, events: &[TimedEvent]) {
    put_varint(buf, events.len() as u64);
    for te in events {
        put_bytes(buf, te.to_line().as_bytes());
    }
}

fn read_events(cur: &mut Cursor<'_>, what: &str) -> Result<Vec<TimedEvent>, String> {
    let n = cur.varint(what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let (at, line) = (cur.pos(), cur.string(what)?);
        out.push(TimedEvent::parse_line(&line).map_err(|e| cur.error_at(at, e))?);
    }
    Ok(out)
}

/// Where one of the two histories stands: how many entries, and the
/// FNV-1a of their log frames chained in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamRef {
    count: u64,
    chain: u64,
}

/// What a checkpoint says of the histories instead of holding them: the
/// first `bytes` bytes of [`HISTORY_LOG`] hold exactly `fingerprints`
/// and `events`. A pure function of the two vectors — per-stream chains
/// and a byte total do not depend on how the streams interleave in the
/// file — so [`encode_checkpoint`] folds it from a state alone and a
/// [`Checkpointer`] carries the same fold from write to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HistoryRef {
    fingerprints: StreamRef,
    events: StreamRef,
    bytes: u64,
}

impl HistoryRef {
    /// The reference to no history: the log's header alone.
    const EMPTY: HistoryRef = {
        let none = StreamRef {
            count: 0,
            chain: FNV_OFFSET,
        };
        HistoryRef {
            fingerprints: none,
            events: none,
            bytes: (HISTORY_MAGIC.len() + 8) as u64,
        }
    };

    /// Whether `state`'s histories are at least as long as this
    /// reference's, so that what it lacks is a suffix of theirs.
    fn within(&self, state: &CheckpointState) -> bool {
        self.fingerprints.count <= state.fingerprints.len() as u64
            && self.events.count <= state.recorded.len() as u64
    }

    /// Advances the reference over the entries of `state` past it,
    /// appending their log frames to `frames`.
    fn extend(&mut self, state: &CheckpointState, frames: &mut Vec<u8>) {
        let logged = self.fingerprints.count as usize;
        for line in state.fingerprints.iter().skip(logged) {
            self.push(TAG_FINGERPRINT, line.as_bytes(), frames);
        }
        let logged = self.events.count as usize;
        for te in state.recorded.iter().skip(logged) {
            self.push(TAG_EVENT, te.to_line().as_bytes(), frames);
        }
    }

    /// One entry: `tag | varint length | line`.
    fn push(&mut self, tag: u8, line: &[u8], frames: &mut Vec<u8>) {
        let start = frames.len();
        frames.push(tag);
        put_bytes(frames, line);
        self.count(tag, frames.iter().skip(start));
    }

    /// Counts one entry of stream `tag` whose frame is `frame`.
    fn count<'a>(&mut self, tag: u8, frame: impl Iterator<Item = &'a u8>) {
        let stream = match tag {
            TAG_FINGERPRINT => &mut self.fingerprints,
            _ => &mut self.events,
        };
        stream.count += 1;
        for &byte in frame {
            stream.chain = fnv_step(stream.chain, byte);
            self.bytes += 1;
        }
    }

    /// The reference to all of `state`'s histories, folded from scratch.
    fn of(state: &CheckpointState) -> HistoryRef {
        let mut whole = HistoryRef::EMPTY;
        whole.extend(state, &mut Vec::new());
        whole
    }

    fn put(&self, buf: &mut Vec<u8>) {
        for stream in [&self.fingerprints, &self.events] {
            put_varint(buf, stream.count);
            put_u64(buf, stream.chain);
        }
        put_varint(buf, self.bytes);
    }

    fn read(cur: &mut Cursor<'_>) -> Result<HistoryRef, String> {
        let mut stream = |count: &str, chain: &str| -> Result<StreamRef, String> {
            Ok(StreamRef {
                count: cur.varint(count)?,
                chain: cur.u64(chain)?,
            })
        };
        Ok(HistoryRef {
            fingerprints: stream("fingerprint count", "fingerprint chain")?,
            events: stream("recorded event count", "recorded event chain")?,
            bytes: cur.varint("history log length")?,
        })
    }
}

impl std::fmt::Display for HistoryRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (lines, events) = (&self.fingerprints, &self.events);
        write!(
            f,
            "{} fingerprint lines (chain {:016x}) and {} events (chain {:016x})",
            lines.count, lines.chain, events.count, events.chain
        )
    }
}

/// The history log a run holding exactly `state`'s histories leaves:
/// the header, then every fingerprint line and every recorded event.
/// (A [`Checkpointer`] writes the same entries, interleaved interval by
/// interval as the run produced them.)
pub fn encode_history(state: &CheckpointState, digest: u64) -> Vec<u8> {
    let mut log = history_header(digest);
    let mut whole = HistoryRef::EMPTY;
    whole.extend(state, &mut log);
    log
}

/// The log's first 16 bytes: magic, then the run-configuration digest.
fn history_header(digest: u64) -> Vec<u8> {
    let mut header = HISTORY_MAGIC.to_vec();
    put_u64(&mut header, digest);
    header
}

/// Reads the histories `href` names back out of `log`, the bytes of
/// [`HISTORY_LOG`]: the header must be this run's and the first
/// `href.bytes` bytes must hold whole entries, as many of each stream
/// as the reference counts, chaining to its two checksums. Whatever
/// follows that prefix — entries of a later checkpoint, or of none — is
/// not looked at. Any failure is [`SealError::Torn`] naming the log and
/// an offset inside it.
fn read_history(
    log: &[u8],
    digest: u64,
    href: &HistoryRef,
) -> Result<(Vec<String>, Vec<TimedEvent>), SealError> {
    let torn = |at: usize, what: String| SealError::torn(HISTORY_LOG, at, what);
    let header = HistoryRef::EMPTY.bytes as usize;
    if log.len() < header {
        let what = format!("truncated ({} bytes, the header needs {header})", log.len());
        return Err(torn(log.len(), what));
    }
    if !log.starts_with(HISTORY_MAGIC) {
        return Err(torn(0, "bad magic (not a history log)".to_string()));
    }
    let mut cur = Cursor::at(log, HISTORY_MAGIC.len(), HISTORY_LOG);
    let (at, owner) = (cur.pos(), cur.u64("log digest")?);
    if owner != digest {
        let what = format!(
            "log belongs to a different run configuration \
             (digest {owner:#018x}, this run {digest:#018x})"
        );
        return Err(torn(at, what));
    }
    let prefix = usize::try_from(href.bytes)
        .ok()
        .and_then(|end| log.get(..end))
        .filter(|prefix| prefix.len() >= header);
    let Some(prefix) = prefix else {
        let what = format!(
            "checkpoint refers to the first {} bytes of a {}-byte log",
            href.bytes,
            log.len()
        );
        return Err(torn(log.len(), what));
    };

    let mut cur = Cursor::at(prefix, header, HISTORY_LOG);
    let mut found = HistoryRef::EMPTY;
    let (mut fingerprints, mut recorded) = (Vec::new(), Vec::new());
    while cur.pos() < prefix.len() {
        let at = cur.pos();
        let tag = cur.take(1, "entry tag")?[0];
        let line = cur.string("history entry")?;
        match tag {
            TAG_FINGERPRINT => fingerprints.push(line),
            TAG_EVENT => recorded.push(TimedEvent::parse_line(&line).map_err(|e| torn(at, e))?),
            _ => return Err(torn(at, format!("unknown entry tag {tag:#04x}"))),
        }
        found.count(tag, prefix.iter().take(cur.pos()).skip(at));
    }
    if found != *href {
        let what = format!(
            "the log's first {} bytes hold {found}; the checkpoint names {href}",
            href.bytes
        );
        return Err(torn(prefix.len(), what));
    }
    Ok((fingerprints, recorded))
}

/// Serializes a checkpoint, checksum footer included: every field of
/// `state` but the two histories, which it refers to — as they stand
/// in [`HISTORY_LOG`] once a [`Checkpointer`] has logged them, or in
/// [`encode_history`]'s image — by count, chain and byte length.
pub fn encode_checkpoint(state: &CheckpointState, digest: u64) -> Vec<u8> {
    encode_referring(state, digest, &HistoryRef::of(state))
}

fn encode_referring(state: &CheckpointState, digest: u64, history: &HistoryRef) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(CHECKPOINT_MAGIC);
    put_u32(&mut buf, CHECKPOINT_SCHEMA_VERSION);
    put_u64(&mut buf, digest);

    put_varint(&mut buf, state.next_interval as u64);
    put_varint(&mut buf, state.demands.len() as u64);
    for &d in &state.demands {
        put_f64(&mut buf, d);
    }

    put_versioned(&mut buf, &state.store.installed);
    put_versioned(&mut buf, &state.store.last_good);
    match &state.store.staged {
        Some(v) => {
            buf.push(1);
            put_versioned(&mut buf, v);
        }
        None => buf.push(0),
    }
    put_varint(&mut buf, state.store.next_version);
    match &state.store.hint {
        Some((basis, shape)) => {
            buf.push(1);
            put_varint(&mut buf, basis.0.len() as u64);
            for &s in &basis.0 {
                buf.push(status_code(s));
            }
            for &k in &[shape.0, shape.1, shape.2, shape.3] {
                put_varint(&mut buf, k as u64);
            }
        }
        None => buf.push(0),
    }

    for &k in &[
        state.planner.requested.0,
        state.planner.requested.1,
        state.planner.requested.2,
        state.planner.current.0,
        state.planner.current.1,
        state.planner.current.2,
    ] {
        put_varint(&mut buf, k as u64);
    }
    buf.push(state.planner.rescale_only as u8);
    put_varint(&mut buf, state.planner.intervals_since_probe as u64);
    put_mice(&mut buf, state.planner.mice.as_deref());

    put_varint(&mut buf, state.failed_links.len() as u64);
    for &l in &state.failed_links {
        put_varint(&mut buf, l as u64);
    }
    put_varint(&mut buf, state.failed_switches.len() as u64);
    for &v in &state.failed_switches {
        put_varint(&mut buf, v as u64);
    }

    for &w in &state.rng {
        put_u64(&mut buf, w);
    }
    for row in &state.totals {
        for &x in row {
            put_f64(&mut buf, x);
        }
    }

    history.put(&mut buf);

    match &state.inflight {
        Some(f) => {
            buf.push(1);
            put_varint(&mut buf, f.interval as u64);
            put_varint(&mut buf, f.stage_reached as u64);
            put_varint(&mut buf, f.steps_planned as u64);
            for &w in &f.rng_after {
                put_u64(&mut buf, w);
            }
            put_events(&mut buf, &f.outcomes);
        }
        None => buf.push(0),
    }

    seal(&mut buf, CHECKPOINT_END);
    buf
}

/// Reads the body: the state less its two histories, and the reference
/// that stands for them.
fn read_body(cur: &mut Cursor<'_>) -> Result<(CheckpointState, HistoryRef), String> {
    let next_interval = cur.varint("next interval")? as usize;
    let n = cur.varint("demand count")? as usize;
    let mut demands = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let (at, d) = (cur.pos(), cur.f64("demand")?);
        // What `TrafficMatrix::set_demand` asserts of its caller.
        if !(d.is_finite() && d >= 0.0) {
            return Err(cur.error_at(at, format!("demand {d} is not a finite rate ≥ 0")));
        }
        demands.push(d);
    }

    let installed = read_versioned(cur)?;
    let last_good = read_versioned(cur)?;
    let staged = match cur.take(1, "staged flag")?[0] {
        0 => None,
        _ => Some(read_versioned(cur)?),
    };
    let next_version = cur.varint("next version")?;
    let hint = match cur.take(1, "hint flag")?[0] {
        0 => None,
        _ => {
            let k = cur.varint("basis len")? as usize;
            let (at, raw) = (cur.pos(), cur.take(k, "basis statuses")?);
            let mut statuses = Vec::with_capacity(k);
            for (i, &b) in raw.iter().enumerate() {
                statuses.push(status_from_code(b).map_err(|e| cur.error_at(at + i, e))?);
            }
            let shape: HintShape = (
                cur.varint("shape kc")? as usize,
                cur.varint("shape ke")? as usize,
                cur.varint("shape kv")? as usize,
                cur.varint("shape flows")? as usize,
            );
            Some((BasisStatuses(statuses), shape))
        }
    };
    let store = StoreSnapshot {
        installed,
        last_good,
        staged,
        next_version,
        hint,
    };

    let planner = PlannerSnapshot {
        requested: (
            cur.varint("req kc")? as usize,
            cur.varint("req ke")? as usize,
            cur.varint("req kv")? as usize,
        ),
        current: (
            cur.varint("cur kc")? as usize,
            cur.varint("cur ke")? as usize,
            cur.varint("cur kv")? as usize,
        ),
        rescale_only: cur.take(1, "rescale flag")?[0] != 0,
        intervals_since_probe: cur.varint("probe counter")? as usize,
        mice: read_mice(cur, demands.len())?,
    };

    let nl = cur.varint("failed link count")? as usize;
    let mut failed_links = Vec::with_capacity(nl.min(1 << 20));
    for _ in 0..nl {
        failed_links.push(cur.varint("failed link")? as usize);
    }
    let ns = cur.varint("failed switch count")? as usize;
    let mut failed_switches = Vec::with_capacity(ns.min(1 << 20));
    for _ in 0..ns {
        failed_switches.push(cur.varint("failed switch")? as usize);
    }

    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = cur.u64("rng word")?;
    }
    let mut totals = [[0.0f64; 3]; 3];
    for row in &mut totals {
        for x in row.iter_mut() {
            *x = cur.f64("totals")?;
        }
    }

    let history = HistoryRef::read(cur)?;

    let inflight = match cur.take(1, "inflight flag")?[0] {
        0 => None,
        _ => {
            let interval = cur.varint("inflight interval")? as usize;
            let stage_reached = cur.varint("stage reached")? as usize;
            let steps_planned = cur.varint("steps planned")? as usize;
            let mut rng_after = [0u64; 4];
            for w in &mut rng_after {
                *w = cur.u64("inflight rng word")?;
            }
            let outcomes = read_events(cur, "inflight outcome")?;
            Some(InflightRollout {
                interval,
                stage_reached,
                steps_planned,
                rng_after,
                outcomes,
            })
        }
    };

    let state = CheckpointState {
        next_interval,
        demands,
        store,
        planner,
        failed_links,
        failed_switches,
        rng,
        totals,
        fingerprints: Vec::new(),
        recorded: Vec::new(),
        inflight,
    };
    Ok((state, history))
}

/// Deserializes and validates a checkpoint file against `log`, the
/// bytes of the [`HISTORY_LOG`] beside it: the seal, the schema
/// version, and the run-configuration digest all have to check out
/// before the body is trusted, and the log has to hold the histories
/// the body refers to. [`SealError::Torn`] (either file truncated or
/// corrupt) lets recovery fall back to an older checkpoint, whose
/// shorter prefix of the log may still be whole; [`SealError::Mismatch`]
/// (another schema or run configuration — resuming from it would
/// silently diverge) is a hard error.
pub fn decode_checkpoint(
    bytes: &[u8],
    file: &str,
    expect_digest: u64,
    log: &[u8],
) -> Result<CheckpointState, SealError> {
    let body = unseal(bytes, file, CHECKPOINT_MAGIC, CHECKPOINT_END)?;
    let mut cur = Cursor::at(body, CHECKPOINT_MAGIC.len(), file);
    cur.schema_version("checkpoint", CHECKPOINT_SCHEMA_VERSION)?;
    let (at, digest) = (cur.pos(), cur.u64("config digest")?);
    if digest != expect_digest {
        let what = format!(
            "checkpoint belongs to a different run configuration \
             (digest {digest:#018x}, this run {expect_digest:#018x})"
        );
        return Err(SealError::mismatch(file, at, what));
    }
    let (mut state, history) = read_body(&mut cur)?;
    (state.fingerprints, state.recorded) = read_history(log, expect_digest, &history)
        .map_err(|e| SealError::Torn(format!("{file}: {}", e.into_message())))?;
    Ok(state)
}

/// Writes checkpoints into a directory as `ckpt-<seq>.ffck`, atomically
/// (temp + rename), keeping the newest [`CHECKPOINT_KEEP`], over one
/// append-only [`HISTORY_LOG`] that each write extends by the entries
/// its state has and the log lacks. One checkpointer serves one run:
/// the histories of the states it is handed only grow, or fall back to
/// a prefix.
///
/// A write failure latches: checkpointing degrades to a no-op and the
/// first error is reported via [`Checkpointer::error`] — a full disk
/// must not kill the controller, it just loses crash coverage.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    digest: u64,
    next_seq: u64,
    /// The log, open for appending, and the reference to all it holds;
    /// `None` until the first write positions it.
    log: Option<(File, HistoryRef)>,
    writes: u64,
    bytes_written: u64,
    error: Option<String>,
}

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory. Sequence
    /// numbers continue after any checkpoints already present, so a
    /// resumed run never overwrites the files it recovered from; more
    /// than [`CHECKPOINT_KEEP`] of them (a run killed between a write
    /// and its prune) are trimmed to the newest. The history log is not
    /// touched before the first write.
    pub fn create(dir: &Path, digest: u64) -> Result<Checkpointer, String> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create checkpoint dir", e))?;
        let files = list_checkpoints(dir)?;
        let next_seq = files.last().map_or(0, |&(seq, _)| seq + 1);
        for (_, path) in files.iter().rev().skip(CHECKPOINT_KEEP) {
            // Best effort: a stale extra checkpoint is harmless.
            let _ = fs::remove_file(path);
        }
        Ok(Checkpointer {
            dir: dir.to_path_buf(),
            digest,
            next_seq,
            log: None,
            writes: 0,
            bytes_written: 0,
            error: None,
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one checkpoint; errors latch instead of propagating.
    pub fn write(&mut self, state: &CheckpointState) {
        if self.error.is_none() {
            self.error = self.try_write(state).err();
        }
    }

    /// Append, then rename: the entries a checkpoint refers to are in
    /// the log before the checkpoint can be found.
    fn try_write(&mut self, state: &CheckpointState) -> Result<(), String> {
        let (history, appended) = self.log_history(state)?;
        debug_assert_eq!(
            history,
            HistoryRef::of(state),
            "one checkpointer, one run: histories only grow"
        );
        let image = encode_referring(state, self.digest, &history);
        write_atomic(&self.dir.join(checkpoint_name(self.next_seq)), &image)?;
        self.writes += 1;
        self.bytes_written += (appended + image.len()) as u64;
        // Sequence numbers are dense, so one file at most is now past
        // the keep limit, and its name is known.
        if let Some(stale) = self.next_seq.checked_sub(CHECKPOINT_KEEP as u64) {
            // Best effort: a stale extra checkpoint is harmless.
            let _ = fs::remove_file(self.dir.join(checkpoint_name(stale)));
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Brings the log up to `state`'s histories; returns the reference
    /// to them and the bytes it appended.
    ///
    /// While the histories grow that is the frames of their new
    /// entries. The first write, and any write of a state *shorter*
    /// than what is logged, instead positions the log from scratch,
    /// trusting nothing it did not check: the log is kept, cut to the
    /// prefix that is `state`'s history, if it holds exactly that there
    /// (a resumed run — the cut drops what the crashed run appended
    /// after its last durable checkpoint), and started afresh otherwise
    /// (a new run, or another run's log in the directory).
    fn log_history(&mut self, state: &CheckpointState) -> Result<(HistoryRef, usize), String> {
        let path = self.dir.join(HISTORY_LOG);
        let (open, mut history) = match self.log.take() {
            Some((file, logged)) if logged.within(state) => (Some(file), logged),
            _ => (None, HistoryRef::EMPTY),
        };
        let mut frames = Vec::new();
        history.extend(state, &mut frames);
        let mut file = match open {
            Some(file) => file,
            None => {
                let holds = |log: Vec<u8>| read_history(&log, self.digest, &history).is_ok();
                if fs::read(&path).is_ok_and(holds) {
                    frames.clear();
                    let file = OpenOptions::new().append(true).open(&path);
                    let file = file.map_err(|e| io_err(&path, "open", e))?;
                    file.set_len(history.bytes)
                        .map_err(|e| io_err(&path, "truncate", e))?;
                    file
                } else {
                    frames.splice(..0, history_header(self.digest));
                    File::create(&path).map_err(|e| io_err(&path, "create", e))?
                }
            }
        };
        if !frames.is_empty() {
            file.write_all(&frames)
                .map_err(|e| io_err(&path, "append", e))?;
        }
        self.log = Some((file, history));
        Ok((history, frames.len()))
    }

    /// The first write error, if checkpointing has failed and latched.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Checkpoints written.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes written so far: every checkpoint file plus every append to
    /// the history log.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:08}.ffck")
}

/// Checkpoint files in `dir`, sorted by ascending sequence number.
fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    list_numbered(dir, "ckpt-", ".ffck")
}

/// A successfully recovered checkpoint.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// The restored state.
    pub state: CheckpointState,
    /// Sequence number of the file it came from.
    pub seq: u64,
    /// File name it came from.
    pub file: String,
}

/// The result of scanning a checkpoint directory.
#[derive(Debug)]
pub struct Recovery {
    /// The newest valid checkpoint, if any file survived validation.
    pub checkpoint: Option<RecoveredCheckpoint>,
    /// One note per newer file that was skipped as torn or corrupt —
    /// surfaced in reports, mirroring the telemetry store's
    /// `recovery_notes`.
    pub notes: Vec<String>,
}

/// Scans `dir` newest-to-oldest for a valid checkpoint matching this
/// run's configuration digest. Torn or corrupt files are skipped with
/// a note (crash-tolerant fallback); a checkpoint from a *different*
/// configuration is a hard error — resuming from it would silently
/// diverge.
pub fn recover_latest(dir: &Path, digest: u64) -> Result<Recovery, String> {
    let files = list_checkpoints(dir)?;
    // Read once for every candidate; a missing log is an empty one, torn
    // at offset 0.
    let log = fs::read(dir.join(HISTORY_LOG)).unwrap_or_default();
    let mut notes = Vec::new();
    for (seq, path) in files.iter().rev() {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                notes.push(format!("skipped {}", io_err(path, "read", e)));
                continue;
            }
        };
        match decode_checkpoint(&bytes, &file, digest, &log) {
            Ok(state) => {
                return Ok(Recovery {
                    checkpoint: Some(RecoveredCheckpoint {
                        state,
                        seq: *seq,
                        file,
                    }),
                    notes,
                })
            }
            Err(SealError::Torn(e)) => notes.push(format!("skipped {e}")),
            Err(SealError::Mismatch(e)) => return Err(e),
        }
    }
    Ok(Recovery {
        checkpoint: None,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use ffc_net::NodeId;

    fn te(rate: f64) -> TeConfig {
        TeConfig {
            rate: vec![rate, rate * 0.5],
            alloc: vec![vec![rate, 0.0], vec![0.25, rate]],
        }
    }

    fn sample_state() -> CheckpointState {
        CheckpointState {
            next_interval: 7,
            demands: vec![8.0, 0.125, 3.5],
            store: StoreSnapshot {
                installed: VersionedConfig {
                    version: 9,
                    config: te(2.0),
                },
                last_good: VersionedConfig {
                    version: 8,
                    config: te(1.5),
                },
                staged: Some(VersionedConfig {
                    version: 10,
                    config: te(3.0),
                }),
                next_version: 11,
                hint: Some((
                    BasisStatuses(vec![
                        ColStatus::Basic,
                        ColStatus::Lower,
                        ColStatus::Upper,
                        ColStatus::Free,
                    ]),
                    (2, 1, 0, 3),
                )),
            },
            planner: PlannerSnapshot {
                requested: (2, 1, 0),
                current: (1, 1, 0),
                rescale_only: false,
                intervals_since_probe: 2,
                mice: Some(vec![false, true, false]),
            },
            failed_links: vec![0, 5],
            failed_switches: vec![3],
            rng: [1, 2, 3, u64::MAX],
            totals: [[10.0, 0.5, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 1.0]],
            fingerprints: vec!["i0 ok".into(), "i1 ok".into()],
            recorded: vec![
                TimedEvent {
                    interval: 1,
                    event: Event::DemandScale(1.25),
                },
                TimedEvent {
                    interval: 2,
                    event: Event::UpdateAck {
                        switch: NodeId(0),
                        step: 1,
                        delay: 0.5,
                    },
                },
            ],
            inflight: Some(InflightRollout {
                interval: 7,
                stage_reached: 2,
                steps_planned: 3,
                rng_after: [5, 6, 7, 8],
                outcomes: vec![TimedEvent {
                    interval: 7,
                    event: Event::UpdateTimeout {
                        switch: NodeId(2),
                        step: 0,
                    },
                }],
            }),
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn encode_decode_round_trip_is_identity() {
        let state = sample_state();
        let bytes = encode_checkpoint(&state, 0xdead_beef);
        let log = encode_history(&state, 0xdead_beef);
        let back = decode_checkpoint(&bytes, "t", 0xdead_beef, &log).expect("decode");
        assert_eq!(back, state);

        // Minimal state (no staged, no hint, no inflight) too.
        let mut min = sample_state();
        min.store.staged = None;
        min.store.hint = None;
        min.planner.mice = None;
        min.inflight = None;
        min.recorded.clear();
        min.fingerprints.clear();
        let bytes = encode_checkpoint(&min, 1);
        let log = encode_history(&min, 1);
        assert_eq!(log.len(), 16, "no history: the header alone");
        assert_eq!(
            decode_checkpoint(&bytes, "t", 1, &log).expect("decode"),
            min
        );
    }

    /// The schema-1 image of the sample state was recorded at commit
    /// aaade72 (449 bytes, before the framing moved into
    /// `durable::seal`); schema 2 was that image with the version bumped
    /// and the mice field — flag, count, member 1 — after the planner's
    /// probe counter (452 bytes). Schema 3 is the schema-2 image with the
    /// version bumped and the history reference where the two inline
    /// histories were: putting them back must give the recorded schema-2
    /// image, and taking the mice field out of that the schema-1 one, so
    /// nothing else moved.
    #[test]
    fn golden_checkpoint_image_of_the_sample_state() {
        let state = sample_state();
        let bytes = encode_checkpoint(&state, 7);
        assert_eq!((bytes.len(), fnv64(&bytes)), (423, 5393573755572124572));

        let mut reference = Vec::new();
        HistoryRef::of(&state).put(&mut reference);
        let field = bytes
            .windows(reference.len())
            .position(|w| w == reference)
            .expect("the reference is in the image");
        let mut v2 = bytes[..field].to_vec();
        put_varint(&mut v2, state.fingerprints.len() as u64);
        for line in &state.fingerprints {
            put_bytes(&mut v2, line.as_bytes());
        }
        put_events(&mut v2, &state.recorded);
        v2.extend_from_slice(&bytes[field + reference.len()..bytes.len() - 16]);
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        seal(&mut v2, CHECKPOINT_END);
        assert_eq!((v2.len(), fnv64(&v2)), (452, 6205727008863894943));

        let mut no_mice = sample_state();
        no_mice.planner.mice = None;
        let without = encode_checkpoint(&no_mice, 7);
        let field = bytes
            .iter()
            .zip(&without)
            .position(|(a, b)| a != b)
            .expect("the flag byte differs");
        assert_eq!(v2[field..field + 3], [1, 1, 1]);
        let mut v1 = v2[..field].to_vec();
        v1.extend_from_slice(&v2[field + 3..v2.len() - 16]);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        seal(&mut v1, CHECKPOINT_END);
        assert_eq!((v1.len(), fnv64(&v1)), (449, 12741876513052809226));
    }

    /// The log's image of the sample state: header, the two fingerprint
    /// lines, the two events, each `tag | length | line`.
    #[test]
    fn golden_history_log_of_the_sample_state() {
        let log = encode_history(&sample_state(), 7);
        let mut want = b"FFHLOG1\n".to_vec();
        want.extend_from_slice(&7u64.to_le_bytes());
        for (tag, line) in [
            (b'F', "i0 ok"),
            (b'F', "i1 ok"),
            (b'E', "1 demand-scale 1.25"),
            (b'E', "2 ack 0 1 0.5"),
        ] {
            want.push(tag);
            want.push(line.len() as u8);
            want.extend_from_slice(line.as_bytes());
        }
        assert_eq!(log, want);
    }

    #[test]
    fn truncation_at_every_offset_is_invalid_never_a_panic() {
        let bytes = encode_checkpoint(&sample_state(), 42);
        let log = encode_history(&sample_state(), 42);
        for cut in 0..bytes.len() {
            match decode_checkpoint(&bytes[..cut], "t", 42, &log) {
                Err(SealError::Torn(_)) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_in_the_body_is_detected() {
        let good = encode_checkpoint(&sample_state(), 42);
        let log = encode_history(&sample_state(), 42);
        // Flipping any body byte must trip the checksum (or the magic);
        // a flip inside the footer trips the checksum comparison or the
        // end marker. Nothing may decode successfully or panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_checkpoint(&bad, "t", 42, &log).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn digest_and_schema_mismatches_are_hard_errors() {
        let bytes = encode_checkpoint(&sample_state(), 42);
        let log = encode_history(&sample_state(), 42);
        match decode_checkpoint(&bytes, "t", 43, &log) {
            Err(SealError::Mismatch(e)) => {
                assert!(e.contains("different run"), "{e}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Another schema version, re-sealed so only that check can fire.
        let mut other = bytes.clone();
        let sealed = other.len() - 16;
        other[8] = 99;
        let checksum = fnv64(&other[..sealed]);
        other[sealed..sealed + 8].copy_from_slice(&checksum.to_le_bytes());
        match decode_checkpoint(&other, "t", 42, &log) {
            Err(SealError::Mismatch(e)) => {
                assert!(e.contains("t: offset 8: checkpoint schema v99"), "{e}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpointer_prunes_and_recovers_the_newest() {
        let dir = scratch_dir("prune");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        for i in 0..5 {
            let mut st = sample_state();
            st.next_interval = i;
            ck.write(&st);
        }
        assert!(ck.error().is_none());
        let files = list_checkpoints(&dir).expect("list");
        assert_eq!(files.len(), CHECKPOINT_KEEP, "pruned to the keep limit");
        assert_eq!(files.last().map(|&(s, _)| s), Some(4));

        let rec = recover_latest(&dir, 7).expect("recover");
        let got = rec.checkpoint.expect("newest");
        assert_eq!(got.state.next_interval, 4);
        assert_eq!(got.seq, 4);
        assert!(rec.notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Sequence numbers are dense, so a write removes the one file that
    /// fell out of the keep window, by name, and never lists the
    /// directory; `create`, which lists it anyway, trims what a run
    /// killed between a write and its prune left over.
    #[test]
    fn a_write_prunes_by_name_and_create_trims_an_inherited_directory() {
        let dir = scratch_dir("prune-by-name");
        let seqs = |dir: &Path| -> Vec<u64> {
            let files = list_checkpoints(dir).expect("list");
            files.iter().map(|&(seq, _)| seq).collect()
        };
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        for _ in 0..5 {
            ck.write(&sample_state());
        }
        assert_eq!(seqs(&dir), [2, 3, 4]);
        // A file outside the window is not this write's to look for.
        fs::copy(dir.join(checkpoint_name(4)), dir.join(checkpoint_name(0))).expect("plant");
        ck.write(&sample_state());
        assert_eq!(seqs(&dir), [0, 3, 4, 5], "5 displaced 2 and nothing else");
        assert!(ck.error().is_none());
        drop(ck);

        fs::copy(dir.join(checkpoint_name(5)), dir.join(checkpoint_name(6))).expect("plant");
        let ck = Checkpointer::create(&dir, 7).expect("reopen");
        assert_eq!(seqs(&dir), [4, 5, 6], "trimmed to the newest three on open");
        assert_eq!(ck.next_seq, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_falls_back_past_corrupt_and_torn_files_with_notes() {
        let dir = scratch_dir("fallback");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        for i in 0..3 {
            let mut st = sample_state();
            st.next_interval = i;
            ck.write(&st);
        }
        // Corrupt the newest (bit flip) and tear the middle one.
        let files = list_checkpoints(&dir).expect("list");
        let newest = &files[2].1;
        let mut bytes = fs::read(newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(newest, &bytes).expect("write");
        let middle = &files[1].1;
        let bytes = fs::read(middle).expect("read");
        fs::write(middle, &bytes[..bytes.len() / 3]).expect("write");

        let rec = recover_latest(&dir, 7).expect("recover");
        let got = rec.checkpoint.expect("oldest survives");
        assert_eq!(got.state.next_interval, 0, "fell back to the valid one");
        assert_eq!(
            rec.notes.len(),
            2,
            "one note per skipped file: {:?}",
            rec.notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_of_a_foreign_run_is_a_hard_error() {
        let dir = scratch_dir("foreign");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        ck.write(&sample_state());
        let err = recover_latest(&dir, 8).expect_err("digest mismatch");
        assert!(err.contains("different run"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = scratch_dir("empty");
        let rec = recover_latest(&dir, 7).expect("recover");
        assert!(rec.checkpoint.is_none());
        assert!(rec.notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_numbers_continue_after_reopen() {
        let dir = scratch_dir("reopen");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        ck.write(&sample_state());
        drop(ck);
        let mut ck = Checkpointer::create(&dir, 7).expect("reopen");
        ck.write(&sample_state());
        let files = list_checkpoints(&dir).expect("list");
        assert_eq!(
            files.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
