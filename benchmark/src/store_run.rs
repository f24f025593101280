//! The telemetry store as a client sees it: write a campaign's records,
//! then read them back the way `ffc report` does.
//!
//! `store_quarter` runs this on 90 days of synthetic records and nothing
//! else; the controller workloads run the read-back half on the store
//! their own run wrote. The harness is the store's only client here, so
//! its spans are client-side timestamps around each call and are taken
//! the same way in both trace modes. The host is sampled between chunks
//! of appends and after every read phase ([`crate::hostref`]), outside
//! every span, and each span is settled with the slowdown around it.

use std::path::Path;
use std::time::Instant;

use ffc_ctrl::{IntervalTelemetry, SolvePath};
use ffc_fleet::{
    build_report, store_fingerprint, ReportOptions, StoreRecord, StoreWriter, TelemetryStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hostref::HostRef;
use crate::trace::Trace;

/// Link columns of the synthetic store: L-Net's directed-link count.
pub const SYNTHETIC_LINKS: usize = 352;
/// `query_range` windows one read-back issues.
pub const QUERIES: usize = 1000;
/// Intervals per simulated day.
const DAY: usize = 288;
/// Appends between two samples of the host (about 0.1 s of them).
const APPEND_CHUNK: usize = 2048;

/// `n` seeded records shaped like a healthy campaign's: warm re-solves,
/// one-step rollouts, a diurnal utilization swing with per-link noise,
/// and a trickle of congestion loss.
pub fn synthetic_records(seed: u64, n: usize) -> Vec<StoreRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<f64> = (0..SYNTHETIC_LINKS)
        .map(|_| 0.15 + 0.6 * rng.gen::<f64>())
        .collect();
    (0..n)
        .map(|i| {
            let phase = (i % DAY) as f64 / DAY as f64 * std::f64::consts::TAU;
            let swing = 1.0 + 0.3 * phase.sin();
            let link_util: Vec<f64> = base
                .iter()
                .map(|b| b * swing * (0.95 + 0.1 * rng.gen::<f64>()))
                .collect();
            let iterations = rng.gen_range(0..200usize);
            let offered = 36_000.0 * swing;
            let lost = if rng.gen::<f64>() < 0.01 {
                offered * 0.002 * rng.gen::<f64>()
            } else {
                0.0
            };
            let telemetry = IntervalTelemetry {
                interval: i,
                events_applied: 86,
                protection: (1, 1, 0),
                path: if i == 0 {
                    SolvePath::Cold
                } else if iterations == 0 {
                    SolvePath::WarmPrimal
                } else {
                    SolvePath::WarmDual
                },
                degraded: false,
                rolled_back: false,
                certificate: "certified",
                iterations,
                dual_iterations: iterations,
                dual_bound_flips: iterations / 7,
                solve_ms: 1.0 + 4.0 * rng.gen::<f64>(),
                model_patched: i > 0,
                config_version: i as u64 + 1,
                rollout_steps_planned: 1,
                rollout_steps_completed: 1,
                congestion_free_plan: true,
                stale_switches: 0,
                update_retries: 0,
                last_good_version: i as u64 + 1,
                rollout_secs: 1.0 + 3.0 * rng.gen::<f64>(),
                overloaded_links: usize::from(lost > 0.0),
                max_oversubscription: 0.6 + 0.35 * rng.gen::<f64>(),
                delivered: offered - lost,
                lost_congestion: lost,
                lost_blackhole: 0.0,
            };
            StoreRecord {
                telemetry,
                link_util,
            }
        })
        .collect()
}

/// Runs `f`, which records spans into `tr`, as one stretch of work: the
/// host is sampled after it and the spans settled with the slowdown.
fn stretch<T>(tr: &mut Trace, host: &mut HostRef, f: impl FnOnce(&mut Trace) -> T) -> T {
    let first_span = tr.spans.len();
    let t0 = Instant::now();
    let out = f(tr);
    tr.settle(first_span, host.around(t0.elapsed().as_secs_f64()));
    out
}

/// Streams `records` into a fresh store under `dir` and seals it; one
/// `fleet.store.append` (or `fleet.store.seal`) span per record.
pub fn write_store(
    dir: &Path,
    link_names: Vec<String>,
    records: &[StoreRecord],
    tr: &mut Trace,
    host: &mut HostRef,
) -> Result<(), String> {
    host.mark();
    let mut writer = stretch(tr, host, |tr| {
        tr.span("fleet.store.create", None, 0, || {
            StoreWriter::create(dir, link_names)
        })
    })?;
    for (chunk, batch) in records.chunks(APPEND_CHUNK).enumerate() {
        stretch(tr, host, |tr| {
            for (i, r) in batch.iter().enumerate() {
                let name = append_span(&writer, chunk * APPEND_CHUNK + i);
                tr.span(name, None, r.telemetry.interval, || {
                    writer.record_interval(&r.telemetry, &r.link_util)
                })?;
            }
            Ok::<(), String>(())
        })?;
    }
    stretch(tr, host, |tr| {
        tr.span("fleet.store.finish", None, records.len(), || {
            writer.finish()
        })
    })?;
    Ok(())
}

/// Span name of the `i`-th append to `writer`: the append that fills the
/// WAL also seals a segment and is named for it.
pub fn append_span(writer: &StoreWriter, i: usize) -> &'static str {
    if (i + 1).is_multiple_of(writer.segment_intervals) {
        "fleet.store.seal"
    } else {
        "fleet.store.append"
    }
}

/// What reading a store back found.
pub struct ReadBack {
    /// Operations attempted (open, fingerprint, each query, heat, report).
    pub attempted: usize,
    /// Operations that failed or returned something else than what was
    /// written, one line each.
    pub failures: Vec<String>,
    /// Σ delivered ÷ (Σ delivered + Σ lost) as the report states them.
    pub throughput_share: f64,
    /// The reopened store's fingerprint.
    pub fingerprint: String,
}

/// Opens the store in `dir`, checks it against `expected` (what the
/// writer was handed), and does a report's worth of reads: [`QUERIES`]
/// seeded `query_range` windows, `link_heat`, `build_report`, and both
/// renderings. Spans: `fleet.store.open`, `fleet.store.query`,
/// `fleet.store.heat`, `fleet.report.build`, `fleet.report.render`.
pub fn read_back(
    dir: &Path,
    expected: &[StoreRecord],
    seed: u64,
    tr: &mut Trace,
    host: &mut HostRef,
) -> Result<ReadBack, String> {
    let n = expected.len();
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };

    host.mark();
    let store = stretch(tr, host, |tr| {
        tr.span("fleet.store.open", None, 0, || TelemetryStore::open(dir))
    })?;
    check(
        store.len() == n && store.recovery_notes.is_empty(),
        format!("store holds {} of {n} records", store.len()),
    );
    let fingerprint = store.fingerprint();
    check(
        fingerprint == store_fingerprint(expected),
        "reopened store's fingerprint differs from what was written".into(),
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157);
    host.mark();
    stretch(tr, host, |tr| {
        for q in 0..QUERIES {
            let start = rng.gen_range(0..n);
            let end = (start + rng.gen_range(1..=7 * DAY)).min(n);
            let got = tr.span("fleet.store.query", None, q, || {
                std::hint::black_box(store.query_range(start, end))
            });
            let first = got.first().map(|r| r.telemetry.interval);
            check(
                got.len() == end - start && first == Some(expected[start].telemetry.interval),
                format!("query [{start}, {end}) returned {} records", got.len()),
            );
        }
    });

    let heat = stretch(tr, host, |tr| {
        tr.span("fleet.store.heat", None, 0, || store.link_heat())
    });
    check(
        heat.len() == store.link_names.len() && heat.iter().all(|h| h.is_finite()),
        "link_heat is not one finite mean per link".into(),
    );

    let opts = ReportOptions::default();
    let report = stretch(tr, host, |tr| {
        tr.span("fleet.report.build", None, 0, || {
            build_report(&store, &opts)
        })
    });
    let (text, html) = stretch(tr, host, |tr| {
        tr.span("fleet.report.render", None, 0, || {
            (report.to_text(&opts), report.to_html(&opts))
        })
    });
    check(
        report.intervals == n
            && text.contains(&format!("{n} intervals"))
            && html.contains("</html>"),
        "report does not cover every interval".into(),
    );
    let delivered: f64 = expected.iter().map(|r| r.telemetry.delivered).sum();
    check(
        report.delivered == delivered,
        format!("report delivered {} of {delivered}", report.delivered),
    );

    Ok(ReadBack {
        attempted: 4 + QUERIES,
        failures,
        throughput_share: report.delivered / (report.delivered + report.lost),
        fingerprint,
    })
}

/// Bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}
