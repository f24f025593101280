//! One benchmark run: set up a workload from its seed, execute it, check
//! its outputs, and turn what was measured into named metrics.
//!
//! A run is a closed loop with one client: the next interval (or store
//! call) is issued when the previous one returns, on one thread, and
//! nothing else runs beside it. Its size is fixed by `--seconds` through
//! a per-workload rate measured on the 2-core reference host, not by a
//! stopwatch, so that for a given workload, seed and `--seconds` the
//! inputs — and with them every counter and fingerprint — repeat exactly.
//!
//! Every time a run reports is host-normalised: the raw duration of a
//! set-up, an interval or a store call over the host's slowdown measured
//! around it ([`crate::hostref`]). Raw figures go to the run's facts.

use std::path::PathBuf;
use std::time::Instant;

use ffc_ctrl::durable::fnv64;
use ffc_ctrl::SolvePath;
use ffc_fleet::{store_fingerprint, StoreRecord};

use crate::ctrl_run::{run_mirror, run_production, Counters, CtrlRun};
use crate::hostref::HostRef;
use crate::inputs::{self, CtrlInputs, Durable, SetupTimes};
use crate::store_run::{
    dir_bytes, read_back, synthetic_records, write_store, ReadBack, SYNTHETIC_LINKS,
};
use crate::trace::{Span, Trace};

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["snet_day", "snet_storm", "lnet_drift", "store_quarter"];

/// Set-ups per round: at least the first number, then more until the
/// second number of seconds is spent or the third number is reached. A
/// run sets up in two rounds, one before the measured work (whose last
/// result the work uses) and one after it, so that the two see the host
/// some ten seconds apart. `setup_s` is the fastest of all of them, not
/// their median: a set-up repeats exactly, so what differs between its
/// repeats is the host — its disk, mostly: creating directories and
/// files is a third of `snet_day`'s millisecond and varied fivefold
/// within a run — and work moved into set-up raises the minimum just
/// the same.
const SETUP_REPEATS: (usize, f64, usize) = (3, 0.3, 60);

/// The set-ups of one run.
#[derive(Default)]
struct Setups {
    /// Host-normalised duration of every set-up, seconds.
    secs: Vec<f64>,
    /// Raw duration of the fastest one (by normalised duration), seconds.
    fastest_raw_s: f64,
    /// Host slowdown around the latest set-up.
    last_slowdown: f64,
}

impl Setups {
    /// `setup_s` with its sample count: the fastest set-up, normalised.
    fn fastest_s(&self) -> (f64, usize) {
        let fastest = self.secs.iter().copied().fold(f64::INFINITY, f64::min);
        (fastest, self.secs.len())
    }

    /// One round: calls `setup` [`SETUP_REPEATS`] times with the index of
    /// the set-up; returns what the last call built. What the calls before
    /// it built is dropped and then handed, by index, to `discard`, off the
    /// clock: left to pile up, a hundred set-ups' directories made each
    /// new one cost up to ten times the first.
    ///
    /// The round's set-ups share one slowdown, the smallest sampled around
    /// any of them. `setup_s` is a minimum, so it is a set-up from the
    /// round's fastest moment, and that is the moment its slowdown has to
    /// come from; dividing each set-up by its own sample instead would let
    /// the minimum pick whichever sample happened to read slowest (a
    /// millisecond's set-up has only a few passes beside it).
    fn round<T>(
        &mut self,
        host: &mut HostRef,
        mut setup: impl FnMut(usize) -> Result<T, String>,
        mut discard: impl FnMut(usize),
    ) -> Result<T, String> {
        let (least, budget_s, most) = SETUP_REPEATS;
        let began = Instant::now();
        let mut raw_s = Vec::new();
        let mut slowdowns = Vec::new();
        host.mark();
        let built = loop {
            let k = self.secs.len() + raw_s.len();
            let t0 = Instant::now();
            let built = setup(k)?;
            raw_s.push(t0.elapsed().as_secs_f64());
            slowdowns.push(host.around(raw_s[raw_s.len() - 1]));
            let enough = raw_s.len() >= least && began.elapsed().as_secs_f64() >= budget_s;
            if enough || raw_s.len() >= most {
                break built;
            }
            drop(built);
            discard(k);
        };
        self.last_slowdown = slowdowns[slowdowns.len() - 1];
        let fastest_moment = slowdowns.iter().copied().fold(f64::INFINITY, f64::min);
        for raw in raw_s {
            if raw / fastest_moment < self.fastest_s().0 {
                self.fastest_raw_s = raw;
            }
            self.secs.push(raw / fastest_moment);
        }
        Ok(built)
    }
}

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Target length of the measured part, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Smallest sizes that still reach every check and span.
    pub quick: bool,
    /// Scratch directory; the run creates and removes it.
    pub scratch: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Samples behind a percentile or median, where there are several.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// A metric taken from `samples` values (their median or minimum).
fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        samples: Some(samples),
        ..metric(name, value, unit)
    }
}

/// The end-to-end metrics, which every workload reports alike.
/// `mean_ms` and `p50_ms` come with their sample counts.
fn end_to_end(
    setup_s: (f64, usize),
    mean_ms: (f64, usize),
    p50_ms: (f64, usize),
    throughput_share: f64,
    store_bytes: u64,
) -> Vec<Metric> {
    vec![
        sampled("setup_s", setup_s.0, "s", setup_s.1),
        sampled("interval_mean_ms", mean_ms.0, "ms", mean_ms.1),
        sampled("interval_p50_ms", p50_ms.0, "ms", p50_ms.1),
        metric("throughput_share", throughput_share, "ratio"),
        metric("store_mb", store_bytes as f64 / 1e6, "MB"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted: TE intervals, or store calls.
    pub attempted: usize,
    /// Operations that failed: intervals rolled back, infeasible, over a
    /// limit, refused by the certifier or degraded; store calls that
    /// erred or returned something else than what was written.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Output checks that did not pass, one line each.
    pub check_failures: Vec<String>,
    /// Run facts that are not metrics (sizes, fingerprints), for the
    /// result file's envelope.
    pub facts: Vec<(&'static str, String)>,
    /// The span log of a traced run.
    pub trace: Option<Trace>,
}

/// TE intervals (records per pass, for `store_quarter`) a run covers.
/// The rates are intervals per second on the reference host, quiet.
pub fn size(workload: &str, seconds: f64, quick: bool) -> usize {
    let scaled = |rate: f64, floor: usize| ((rate * seconds).round() as usize).max(floor);
    match (workload, quick) {
        ("snet_day", true) => 8,
        ("snet_day", false) => scaled(6.4, 16),
        ("snet_storm", true) => 4,
        // Whole flap cycles plus the cold interval.
        ("snet_storm", false) => 1 + inputs::STORM_PERIOD * scaled(0.47, 1),
        ("lnet_drift", true) => 4,
        ("lnet_drift", false) => scaled(1.5, 4),
        (_, true) => 2_880,
        (_, false) => 25_920,
    }
}

/// Write-and-read-back passes of `store_quarter` (one takes about 5 s).
fn store_passes(seconds: f64, quick: bool) -> usize {
    if quick {
        1
    } else {
        ((seconds / 5.0).round() as usize).max(1)
    }
}

/// Mean of `values`.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a of a fingerprint text, so result files carry 16 hex digits
/// instead of one line per interval.
fn digest(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// Runs one workload once.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&args.scratch);
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    let out = match args.workload.as_str() {
        "store_quarter" => run_store(args),
        "snet_day" | "snet_storm" | "lnet_drift" => run_ctrl(args),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    out
}

fn ctrl_inputs(args: &RunArgs, intervals: usize) -> Result<CtrlInputs, String> {
    match args.workload.as_str() {
        "snet_day" => inputs::snet_day(args.seed, intervals),
        "snet_storm" => Ok(inputs::snet_storm(args.seed, intervals)),
        _ => Ok(inputs::lnet_drift(args.seed, intervals)),
    }
}

/// Intervals of a run that count as failed operations.
fn failed_intervals(run: &CtrlRun) -> usize {
    run.report
        .telemetry
        .iter()
        .filter(|t| {
            t.rolled_back
                || t.degraded
                || t.certificate == "rejected"
                || matches!(t.path, SolvePath::Infeasible | SolvePath::LimitExceeded)
        })
        .count()
}

/// Host-normalised latency of every interval of `run`, ms.
fn normalised(run: &CtrlRun) -> Vec<f64> {
    run.interval_ms
        .iter()
        .zip(&run.slowdown)
        .map(|(ms, s)| ms / s)
        .collect()
}

fn run_ctrl(args: &RunArgs) -> Result<Outcome, String> {
    let intervals = size(&args.workload, args.seconds, args.quick);
    let mut host = HostRef::new();

    // Set-up: everything before the first interval, several times over.
    let mut setups = Setups::default();
    let setup_dir = |k: usize| args.scratch.join(format!("setup{k}"));
    let mut set_up = |k: usize| {
        let inp = ctrl_inputs(args, intervals)?;
        let durable = inputs::durable(&inp, &setup_dir(k))?;
        Ok::<(CtrlInputs, Durable), String>((inp, durable))
    };
    let discard = |k: usize| {
        let _ = std::fs::remove_dir_all(setup_dir(k));
    };
    let (inp, durable) = setups.round(&mut host, &mut set_up, discard)?;
    let setup_slowdown = setups.last_slowdown;

    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };

    // The traced run goes first, so the production run after it is never
    // the one paying for cold caches.
    let mut tr = Trace::new();
    let traced = if args.trace {
        let mirror_durable = inputs::durable(&inp, &args.scratch.join("mirror"))?;
        Some(run_mirror(&inp, mirror_durable, &mut tr, &mut host)?)
    } else {
        None
    };
    let store_dir = durable.store_dir.clone();
    let prod = run_production(&inp, durable, &mut host)?;
    setups.round(&mut host, &mut set_up, discard)?;

    // Output checks on the production run.
    let deadline_ms = inp.cfg.solve_deadline.as_secs_f64() * 1e3;
    for t in &prod.report.telemetry {
        check(
            t.certificate != "rejected",
            format!("interval {}: certificate rejected", t.interval),
        );
        check(
            t.solve_ms <= deadline_ms / 2.0,
            format!(
                "interval {}: solve took {:.0} ms, over half the {deadline_ms:.0} ms deadline — \
                 the degradation ladder has become wall-clock-dependent",
                t.interval, t.solve_ms
            ),
        );
    }
    check(
        prod.report.telemetry.len() == intervals && prod.records.len() == intervals,
        format!(
            "ran {} of {intervals} intervals",
            prod.report.telemetry.len()
        ),
    );
    check(
        prod.durable_error.is_none(),
        format!("durable write failed: {:?}", prod.durable_error),
    );
    check(
        !inp.checkpoints || prod.checkpoints > intervals,
        format!("{} checkpoints for {intervals} intervals", prod.checkpoints),
    );
    let back = read_back(&store_dir, &prod.records, args.seed, &mut tr, &mut host)?;
    let ReadBack {
        failures: store_failures,
        fingerprint: store_fp,
        ..
    } = back;
    for f in store_failures {
        check(false, f);
    }
    let run_fp = digest(&prod.report.fingerprint());

    // Interval 0 builds the model and solves it cold, once per controller
    // start; the interval metrics are of the intervals after it.
    let norm_ms = normalised(&prod);
    let (warm_ms, warm_raw_ms) = (&norm_ms[1..], &prod.interval_ms[1..]);
    let totals = &prod.report.totals;
    let delivered = totals.total_delivered();
    let mut facts = vec![
        ("intervals", intervals.to_string()),
        ("run_fingerprint", run_fp.clone()),
        ("store_fingerprint", store_fp.clone()),
        ("checkpoints", prod.checkpoints.to_string()),
        ("raw_setup_s", format!("{:.6}", setups.fastest_raw_s)),
        ("raw_interval_mean_ms", format!("{:.3}", mean(warm_raw_ms))),
        ("raw_interval_p50_ms", format!("{:.3}", median(warm_raw_ms))),
        (
            "raw_cold_interval_ms",
            format!("{:.3}", prod.interval_ms[0]),
        ),
        (
            "host_slowdown",
            format!("{:.4}", mean(warm_raw_ms) / mean(warm_ms)),
        ),
    ];

    let metrics = if let Some((mirror, counters)) = &traced {
        check(
            digest(&mirror.report.fingerprint()) == run_fp,
            "traced mirror's fingerprint differs from the production run's".into(),
        );
        check(
            mirror.checkpoints == prod.checkpoints,
            format!(
                "traced mirror wrote {} checkpoints, production {}",
                mirror.checkpoints, prod.checkpoints
            ),
        );
        check(
            store_fingerprint(&mirror.records) == store_fp,
            "traced mirror's store fingerprint differs from the production run's".into(),
        );
        let traced_raw_ms: f64 = mirror.interval_ms.iter().sum();
        facts.push(("raw_traced_wall_s", format!("{:.6}", traced_raw_ms / 1e3)));
        facts.push((
            "raw_untraced_wall_s",
            format!("{:.6}", prod.interval_ms.iter().sum::<f64>() / 1e3),
        ));
        let setup = SetupTimes {
            layout_ms: inp.times.layout_ms / setup_slowdown,
            calibrate_ms: inp.times.calibrate_ms / setup_slowdown,
            events_ms: inp.times.events_ms / setup_slowdown,
        };
        layer_metrics(
            &tr,
            counters,
            setup,
            warm_ms.iter().sum(),
            traced_raw_ms / normalised(mirror).iter().sum::<f64>(),
        )
    } else {
        end_to_end(
            setups.fastest_s(),
            (mean(warm_ms), warm_ms.len()),
            (median(warm_ms), warm_ms.len()),
            delivered / (delivered + totals.total_lost()),
            dir_bytes(&store_dir),
        )
    };

    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: intervals,
        failed: failed_intervals(&prod),
        metrics,
        check_failures: failures,
        facts,
        trace: args.trace.then_some(tr),
    })
}

fn run_store(args: &RunArgs) -> Result<Outcome, String> {
    let n = size(&args.workload, args.seconds, args.quick);
    let passes = store_passes(args.seconds, args.quick);
    let link_names = |links: usize| (0..links).map(|l| format!("l{l}")).collect::<Vec<_>>();
    let mut host = HostRef::new();

    // Set-up: generate the records and lay out an empty store directory.
    let mut setups = Setups::default();
    let setup_dir = |k: usize| args.scratch.join(format!("setup{k}"));
    let mut set_up = |k: usize| {
        let records = synthetic_records(args.seed, n);
        std::fs::create_dir_all(setup_dir(k))
            .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
        Ok::<Vec<StoreRecord>, String>(records)
    };
    let discard = |k: usize| {
        let _ = std::fs::remove_dir_all(setup_dir(k));
    };
    let records = setups.round(&mut host, &mut set_up, discard)?;

    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut pass_ms = Vec::with_capacity(passes);
    let mut pass_raw_ms = Vec::with_capacity(passes);
    let mut append_p50_ms = Vec::with_capacity(passes);
    let mut store_bytes = 0;
    let mut throughput_share = 0.0;
    let mut store_fp = String::new();
    let mut last_trace = Trace::new();
    for pass in 0..passes {
        let dir: PathBuf = args.scratch.join(format!("pass{pass}"));
        let mut tr = Trace::new();
        write_store(
            &dir,
            link_names(SYNTHETIC_LINKS),
            &records,
            &mut tr,
            &mut host,
        )?;
        store_bytes = dir_bytes(&dir);
        let back = read_back(&dir, &records, args.seed, &mut tr, &mut host)?;
        attempted += n + back.attempted;
        failures.extend(back.failures);
        throughput_share = back.throughput_share;
        store_fp = back.fingerprint;
        // Every span of this trace is one timed store call.
        pass_ms.push(tr.spans.iter().map(Span::ms).sum::<f64>());
        pass_raw_ms.push(tr.spans.iter().map(Span::raw_ms).sum::<f64>());
        append_p50_ms.push(median(&tr.durations_ms("fleet.store.append")));
        let _ = std::fs::remove_dir_all(&dir);
        last_trace = tr;
    }
    setups.round(&mut host, &mut set_up, discard)?;

    let metrics = if args.trace {
        let last = passes - 1;
        layer_metrics(
            &last_trace,
            &Counters::default(),
            SetupTimes::default(),
            0.0,
            pass_raw_ms[last] / pass_ms[last],
        )
    } else {
        end_to_end(
            setups.fastest_s(),
            (median(&pass_ms) / n as f64, passes),
            (median(&append_p50_ms), passes * n),
            throughput_share,
            store_bytes,
        )
    };
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len(),
        metrics,
        check_failures: failures,
        facts: vec![
            ("records", n.to_string()),
            ("passes", passes.to_string()),
            ("store_fingerprint", store_fp),
            ("raw_setup_s", format!("{:.6}", setups.fastest_raw_s)),
            (
                "raw_interval_mean_ms",
                format!("{:.6}", median(&pass_raw_ms) / n as f64),
            ),
            (
                "host_slowdown",
                format!("{:.4}", mean(&pass_raw_ms) / mean(&pass_ms)),
            ),
        ],
        trace: args.trace.then_some(last_trace),
    })
}

/// Spans of the store layer → its metrics; every workload has them.
fn store_layer_metrics(tr: &Trace, out: &mut Vec<Metric>) {
    // An append that fills the WAL also seals a segment.
    let seals = tr.durations_ms("fleet.store.seal");
    let mut appends = tr.durations_ms("fleet.store.append");
    appends.extend(&seals);
    let queries = tr.durations_ms("fleet.store.query");
    let finish_ms = tr.total_ms("fleet.store.finish");
    out.extend([
        sampled(
            "fleet.store.append_us_p50",
            median(&appends) * 1e3,
            "us",
            appends.len(),
        ),
        metric("fleet.store.append_ms", appends.iter().sum(), "ms"),
        metric(
            "fleet.store.seal_ms",
            seals.iter().sum::<f64>() + finish_ms,
            "ms",
        ),
        metric("fleet.store.records", appends.len() as f64, "count"),
        metric("fleet.store.open_ms", tr.total_ms("fleet.store.open"), "ms"),
        sampled(
            "fleet.store.query_us_p50",
            median(&queries) * 1e3,
            "us",
            queries.len(),
        ),
        metric("fleet.store.heat_ms", tr.total_ms("fleet.store.heat"), "ms"),
        metric(
            "fleet.report.build_ms",
            tr.total_ms("fleet.report.build"),
            "ms",
        ),
        metric(
            "fleet.report.render_ms",
            tr.total_ms("fleet.report.render"),
            "ms",
        ),
    ]);
}

/// Spans and counters of a traced run → per-layer metrics; every time
/// host-normalised. Layers a workload does not run (every controller
/// layer, on `store_quarter`) have no spans and no counts and so read
/// zero. `untraced_warm_ms` is the production run's time in the intervals
/// after the cold one, and `host_slowdown` the traced stretch's raw time
/// over its normalised time.
fn layer_metrics(
    tr: &Trace,
    c: &Counters,
    setup: SetupTimes,
    untraced_warm_ms: f64,
    host_slowdown: f64,
) -> Vec<Metric> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Interval time as the untraced run would spend it: shadow calls redo
    // work the production path does once.
    let interval_ms = tr.total_ms("interval") - tr.shadow_ms();
    let plan_ms = tr.total_ms("ctrl.planner.plan");
    let update_ms = tr.total_ms("core.update.plan");
    let rollout_ms = tr.total_ms("ctrl.executor.rollout");
    let certify_ms = tr.total_ms("audit.certify");
    let [cold, warm_dual, warm_primal, infeasible, limit_exceeded, rescale_only] = c.paths;
    let solves = cold + warm_dual + warm_primal + infeasible + limit_exceeded;
    let count = |name, n: usize| metric(name, n as f64, "count");

    let cold_ms = tr.durations_ms("interval").first().copied().unwrap_or(0.0);
    // The mirror's time in the intervals after the cold one, as the
    // untraced run would spend it. The cold interval stays out of the
    // comparison: it is also the process's first, and the mirror runs
    // before the production run.
    let traced_warm_ms: f64 = tr
        .spans
        .iter()
        .filter(|s| s.interval > 0 && (s.name == "interval" || s.shadow))
        .map(|s| if s.shadow { -s.ms() } else { s.ms() })
        .sum();
    let mut out = vec![
        metric("host.slowdown", host_slowdown, "ratio"),
        metric(
            "trace_overhead_share",
            ratio(traced_warm_ms - untraced_warm_ms, untraced_warm_ms),
            "ratio",
        ),
        metric(
            "ctrl.loop.unaccounted_share",
            ratio(
                tr.total_ms("interval") - tr.children_ms("interval"),
                interval_ms,
            ),
            "ratio",
        ),
        metric("ctrl.loop.interval_ms", interval_ms, "ms"),
        metric("ctrl.loop.cold_interval_ms", cold_ms, "ms"),
        count("ctrl.loop.intervals", tr.count("interval")),
        metric("core.update.plan_ms", update_ms, "ms"),
        count("core.update.steps_planned", c.steps_planned),
        count("core.update.atomic_fallbacks", c.atomic_fallbacks),
        metric("lp.simplex.solve_ms", c.solve_ms, "ms"),
        count("lp.simplex.iterations", c.iterations),
        count("lp.simplex.phase1_iterations", c.phase1_iterations),
        count("lp.simplex.dual_iterations", c.dual_iterations),
        count("lp.simplex.dual_bound_flips", c.dual_bound_flips),
        count("lp.simplex.degenerate_pivots", c.degenerate_pivots),
        count("lp.simplex.refactorizations", c.refactorizations),
        count("lp.simplex.pricing_passes", c.pricing_passes),
        metric(
            "lp.simplex.us_per_iteration",
            ratio(c.solve_ms * 1e3, c.iterations as f64),
            "us",
        ),
        metric("ctrl.planner.plan_ms", plan_ms, "ms"),
        metric("ctrl.planner.self_ms", plan_ms - c.plan_wall_ms, "ms"),
        count("ctrl.planner.path_cold", cold),
        count("ctrl.planner.path_warm_dual", warm_dual),
        count("ctrl.planner.path_warm_primal", warm_primal),
        count("ctrl.planner.path_infeasible", infeasible),
        count("ctrl.planner.path_limit_exceeded", limit_exceeded),
        count("ctrl.planner.path_rescale_only", rescale_only),
        metric(
            "ctrl.planner.warm_share",
            ratio((warm_dual + warm_primal) as f64, solves as f64),
            "ratio",
        ),
        count("ctrl.planner.degraded_intervals", c.degraded_intervals),
        metric(
            "core.model.build_patch_ms",
            c.plan_wall_ms - c.solve_ms,
            "ms",
        ),
        count("core.model.patches", c.patches),
        count("core.model.rebuilds", c.rebuilds),
        metric(
            "ctrl.checkpoint.write_ms",
            tr.total_ms("ctrl.checkpoint.write"),
            "ms",
        ),
        metric(
            "ctrl.checkpoint.encode_ms",
            tr.total_ms("ctrl.checkpoint.encode"),
            "ms",
        ),
        count("ctrl.checkpoint.writes", c.ckpt_writes),
        count("ctrl.checkpoint.bytes", c.ckpt_bytes),
        count("ctrl.checkpoint.bytes_last", c.ckpt_bytes_last),
        metric("ctrl.executor.rollout_ms", rollout_ms, "ms"),
        // The rollout's own work: its span less the checkpoint writes
        // (and their shadow encodes) under it, less update planning.
        metric(
            "ctrl.executor.self_ms",
            rollout_ms - tr.children_ms("ctrl.executor.rollout") - update_ms,
            "ms",
        ),
        count("ctrl.executor.retries", c.retries),
        count("ctrl.executor.stale_switches", c.stale_switches),
        metric("audit.certify_ms", certify_ms, "ms"),
        count("audit.scenarios_checked", c.scenarios_checked),
        metric(
            "audit.scenarios_per_ms",
            ratio(c.scenarios_checked as f64, certify_ms),
            "1/ms",
        ),
        count("audit.rejections", c.rejections),
        metric("sim.advance_ms", tr.total_ms("sim.advance"), "ms"),
        metric(
            "ctrl.state.commit_ms",
            tr.total_ms("ctrl.state.commit"),
            "ms",
        ),
        metric(
            "ctrl.apply_events_us",
            tr.total_ms("ctrl.apply_events") * 1e3,
            "us",
        ),
        count("ctrl.events_applied", c.events_applied),
        metric("net.layout_ms", setup.layout_ms, "ms"),
        metric("topo.calibrate_ms", setup.calibrate_ms, "ms"),
        metric("fleet.workload.events_ms", setup.events_ms, "ms"),
    ];
    store_layer_metrics(tr, &mut out);
    out
}
