//! Campaign reports: a [`TelemetryStore`] summarized as top-N text or
//! a standalone HTML page.
//!
//! The report answers the operator questions a week of telemetry
//! exists for: which links ran hot (utilization percentiles), when
//! protection degraded and for how long (episodes, not raw flags),
//! how often the certification gate refused a config or the
//! controller fell back to last-known-good, and what solves cost
//! (iteration and wall-time distributions). Everything except the
//! wall-time section is deterministic for a seeded campaign;
//! [`ReportOptions::include_timing`] turns the nondeterministic
//! section off so snapshot tests can pin the rest byte-for-byte.

use std::fmt::Write as _;

use ffc_sim::{percentile_sorted, sort_samples};

use crate::store::TelemetryStore;

/// Report shape knobs.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Links listed in the utilization table.
    pub top_links: usize,
    /// Include wall-clock solver timing (nondeterministic across
    /// runs; snapshot tests turn it off).
    pub include_timing: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            top_links: 10,
            include_timing: true,
        }
    }
}

/// One link's utilization summary.
#[derive(Debug, Clone)]
pub struct LinkSummary {
    /// Directed-link name.
    pub name: String,
    /// Mean utilization.
    pub mean: f64,
    /// Median utilization.
    pub p50: f64,
    /// 99th-percentile utilization.
    pub p99: f64,
    /// Peak utilization.
    pub max: f64,
    /// Intervals at or above 90% utilization.
    pub hot_intervals: usize,
}

/// A maximal run of consecutive intervals with degraded protection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// First degraded interval.
    pub start: usize,
    /// Length in intervals.
    pub length: usize,
}

/// The computed report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Intervals summarized.
    pub intervals: usize,
    /// Top-N links by 99th-percentile utilization.
    pub links: Vec<LinkSummary>,
    /// Protection-degradation episodes.
    pub degradation_episodes: Vec<Episode>,
    /// Intervals with degraded protection.
    pub degraded_intervals: usize,
    /// Intervals whose config the certifier rejected.
    pub certificate_rejections: usize,
    /// Intervals that fell back to last-known-good.
    pub rollbacks: usize,
    /// Intervals with congestion loss.
    pub congested_intervals: usize,
    /// Total volume delivered.
    pub delivered: f64,
    /// Total congestion + blackhole loss volume.
    pub lost: f64,
    /// Simplex iterations per interval: (p50, p99, max).
    pub iterations: (f64, f64, f64),
    /// Solve wall milliseconds per interval: (p50, p99, max) — only
    /// meaningful within one run.
    pub solve_ms: (f64, f64, f64),
    /// The store's deterministic fingerprint.
    pub fingerprint: String,
    /// Recovery notes the reader emitted (torn WAL/segment tails).
    pub recovery_notes: Vec<String>,
}

/// Builds a [`Report`] from an opened store.
pub fn build_report(store: &TelemetryStore, opts: &ReportOptions) -> Report {
    let records = store.records();
    let n = records.len();
    let n_links = store.link_names.len();

    let mut links = Vec::with_capacity(n_links);
    if n > 0 {
        let mut series = vec![0.0f64; n];
        for (l, name) in store.link_names.iter().enumerate() {
            for (i, r) in records.iter().enumerate() {
                series[i] = r.link_util.get(l).copied().unwrap_or(0.0);
            }
            // The mean sums in record order, before the one sort.
            let mean = series.iter().sum::<f64>() / n as f64;
            let hot_intervals = series.iter().filter(|&&u| u >= 0.9).count();
            sort_samples(&mut series);
            links.push(LinkSummary {
                name: name.clone(),
                mean,
                p50: percentile_sorted(&series, 0.50),
                p99: percentile_sorted(&series, 0.99),
                max: percentile_sorted(&series, 1.0),
                hot_intervals,
            });
        }
        links.sort_by(|a, b| {
            b.p99
                .partial_cmp(&a.p99)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        links.truncate(opts.top_links);
    }

    let mut episodes = Vec::new();
    let mut run_start: Option<usize> = None;
    let mut prev_interval = 0usize;
    for r in records {
        let t = r.telemetry.interval;
        if r.telemetry.degraded {
            if run_start.is_none() {
                run_start = Some(t);
            } else if t != prev_interval + 1 {
                // Gap in stored intervals: close and reopen.
                if let Some(s) = run_start {
                    episodes.push(Episode {
                        start: s,
                        length: prev_interval - s + 1,
                    });
                }
                run_start = Some(t);
            }
            prev_interval = t;
        } else if let Some(s) = run_start.take() {
            episodes.push(Episode {
                start: s,
                length: prev_interval - s + 1,
            });
        }
    }
    if let Some(s) = run_start {
        episodes.push(Episode {
            start: s,
            length: prev_interval - s + 1,
        });
    }

    let dist = |mut vals: Vec<f64>| -> (f64, f64, f64) {
        if vals.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            sort_samples(&mut vals);
            (
                percentile_sorted(&vals, 0.50),
                percentile_sorted(&vals, 0.99),
                percentile_sorted(&vals, 1.0),
            )
        }
    };

    Report {
        intervals: n,
        links,
        degraded_intervals: records.iter().filter(|r| r.telemetry.degraded).count(),
        degradation_episodes: episodes,
        certificate_rejections: records
            .iter()
            .filter(|r| r.telemetry.certificate == "rejected")
            .count(),
        rollbacks: records.iter().filter(|r| r.telemetry.rolled_back).count(),
        congested_intervals: records
            .iter()
            .filter(|r| r.telemetry.lost_congestion > 0.0)
            .count(),
        delivered: records.iter().map(|r| r.telemetry.delivered).sum(),
        lost: records
            .iter()
            .map(|r| r.telemetry.lost_congestion + r.telemetry.lost_blackhole)
            .sum(),
        iterations: dist(
            records
                .iter()
                .map(|r| r.telemetry.iterations as f64)
                .collect(),
        ),
        solve_ms: dist(records.iter().map(|r| r.telemetry.solve_ms).collect()),
        fingerprint: store.fingerprint(),
        recovery_notes: store.recovery_notes.clone(),
    }
}

fn rate(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl Report {
    /// Plain-text rendering. Deterministic for a seeded campaign when
    /// `include_timing` is off.
    pub fn to_text(&self, opts: &ReportOptions) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "fleet report: {} intervals", self.intervals);
        let _ = writeln!(s, "fingerprint:  {}", self.fingerprint);
        for note in &self.recovery_notes {
            let _ = writeln!(s, "recovery:     {note}");
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "top {} links by p99 utilization", self.links.len());
        let _ = writeln!(
            s,
            "  {:<16} {:>7} {:>7} {:>7} {:>7} {:>6}",
            "link", "mean", "p50", "p99", "max", ">=90%"
        );
        for l in &self.links {
            let _ = writeln!(
                s,
                "  {:<16} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>6}",
                l.name, l.mean, l.p50, l.p99, l.max, l.hot_intervals
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "protection: {} degraded intervals ({:.2}%) in {} episodes",
            self.degraded_intervals,
            rate(self.degraded_intervals, self.intervals),
            self.degradation_episodes.len()
        );
        for e in self.degradation_episodes.iter().take(10) {
            let _ = writeln!(
                s,
                "  episode: intervals {}..{} ({} long)",
                e.start,
                e.start + e.length - 1,
                e.length
            );
        }
        if self.degradation_episodes.len() > 10 {
            let _ = writeln!(
                s,
                "  … {} more episodes",
                self.degradation_episodes.len() - 10
            );
        }
        let _ = writeln!(
            s,
            "certification: {} rejections ({:.2}%), {} rollbacks ({:.2}%)",
            self.certificate_rejections,
            rate(self.certificate_rejections, self.intervals),
            self.rollbacks,
            rate(self.rollbacks, self.intervals)
        );
        let _ = writeln!(
            s,
            "loss: {} congested intervals; delivered {:.3}, lost {:.3}",
            self.congested_intervals, self.delivered, self.lost
        );
        let _ = writeln!(
            s,
            "solver iterations: p50 {:.0}, p99 {:.0}, max {:.0}",
            self.iterations.0, self.iterations.1, self.iterations.2
        );
        if opts.include_timing {
            let _ = writeln!(
                s,
                "solve wall time (ms, this run): p50 {:.2}, p99 {:.2}, max {:.2}",
                self.solve_ms.0, self.solve_ms.1, self.solve_ms.2
            );
        }
        s
    }

    /// Standalone HTML rendering (no external assets).
    pub fn to_html(&self, opts: &ReportOptions) -> String {
        fn esc(s: &str) -> String {
            s.replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
        }
        let mut b = String::new();
        b.push_str(
            "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
             <title>fleet report</title>\n<style>\n\
             body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; }\n\
             table { border-collapse: collapse; margin: 1rem 0; }\n\
             th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: right; }\n\
             th:first-child, td:first-child { text-align: left; }\n\
             .hot { background: #fdd; }\n\
             </style></head><body>\n",
        );
        let _ = writeln!(b, "<h1>Fleet report</h1>");
        let _ = writeln!(
            b,
            "<p>{} intervals · fingerprint <code>{}</code></p>",
            self.intervals,
            esc(&self.fingerprint)
        );
        for note in &self.recovery_notes {
            let _ = writeln!(b, "<p><strong>recovery:</strong> {}</p>", esc(note));
        }
        let _ = writeln!(b, "<h2>Top links by p99 utilization</h2>");
        b.push_str(
            "<table><tr><th>link</th><th>mean</th><th>p50</th>\
             <th>p99</th><th>max</th><th>&ge;90% intervals</th></tr>\n",
        );
        for l in &self.links {
            let cls = if l.p99 >= 0.9 { " class=\"hot\"" } else { "" };
            let _ = writeln!(
                b,
                "<tr{cls}><td>{}</td><td>{:.3}</td><td>{:.3}</td>\
                 <td>{:.3}</td><td>{:.3}</td><td>{}</td></tr>",
                esc(&l.name),
                l.mean,
                l.p50,
                l.p99,
                l.max,
                l.hot_intervals
            );
        }
        b.push_str("</table>\n");
        let _ = writeln!(b, "<h2>Protection &amp; certification</h2>");
        let _ = writeln!(
            b,
            "<p>{} degraded intervals ({:.2}%) in {} episodes; \
             {} certificate rejections ({:.2}%); {} rollbacks ({:.2}%).</p>",
            self.degraded_intervals,
            rate(self.degraded_intervals, self.intervals),
            self.degradation_episodes.len(),
            self.certificate_rejections,
            rate(self.certificate_rejections, self.intervals),
            self.rollbacks,
            rate(self.rollbacks, self.intervals)
        );
        if !self.degradation_episodes.is_empty() {
            b.push_str("<table><tr><th>episode start</th><th>length</th></tr>\n");
            for e in &self.degradation_episodes {
                let _ = writeln!(b, "<tr><td>{}</td><td>{}</td></tr>", e.start, e.length);
            }
            b.push_str("</table>\n");
        }
        let _ = writeln!(b, "<h2>Loss &amp; solver</h2>");
        let _ = writeln!(
            b,
            "<p>{} congested intervals; delivered {:.3}; lost {:.3}. \
             Iterations p50/p99/max: {:.0}/{:.0}/{:.0}.</p>",
            self.congested_intervals,
            self.delivered,
            self.lost,
            self.iterations.0,
            self.iterations.1,
            self.iterations.2
        );
        if opts.include_timing {
            let _ = writeln!(
                b,
                "<p>Solve wall time (ms, this run) p50/p99/max: \
                 {:.2}/{:.2}/{:.2}.</p>",
                self.solve_ms.0, self.solve_ms.1, self.solve_ms.2
            );
        }
        b.push_str("</body></html>\n");
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreRecord, StoreWriter, TelemetryStore};
    use ffc_ctrl::{IntervalTelemetry, SolvePath};
    use std::path::PathBuf;

    fn rec(interval: usize, degraded: bool, rejected: bool, util: Vec<f64>) -> StoreRecord {
        StoreRecord {
            telemetry: IntervalTelemetry {
                interval,
                events_applied: 1,
                protection: (1, 1, 0),
                path: SolvePath::WarmDual,
                degraded,
                rolled_back: rejected,
                certificate: if rejected { "rejected" } else { "certified" },
                iterations: 10 * (interval + 1),
                dual_iterations: 5,
                dual_bound_flips: 0,
                solve_ms: 2.0,
                model_patched: true,
                config_version: interval as u64,
                rollout_steps_planned: 1,
                rollout_steps_completed: 1,
                congestion_free_plan: true,
                stale_switches: 0,
                update_retries: 0,
                last_good_version: interval as u64,
                rollout_secs: 0.1,
                overloaded_links: 0,
                max_oversubscription: 0.0,
                delivered: 10.0,
                lost_congestion: if degraded { 0.5 } else { 0.0 },
                lost_blackhole: 0.0,
            },
            link_util: util,
        }
    }

    fn store_with(records: &[StoreRecord], n_links: usize, tag: &str) -> TelemetryStore {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("ffts-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<String> = (0..n_links).map(|l| format!("l{l}")).collect();
        let mut w = StoreWriter::create(&dir, names).expect("create");
        for r in records {
            w.record_interval(&r.telemetry, &r.link_util).expect("rec");
        }
        w.finish().expect("finish");
        let store = TelemetryStore::open(&dir).expect("open");
        let _ = std::fs::remove_dir_all(&dir);
        store
    }

    #[test]
    fn episodes_and_rates() {
        let records: Vec<StoreRecord> = (0..10)
            .map(|i| rec(i, (2..=3).contains(&i) || i == 7, i == 5, vec![0.5, 0.95]))
            .collect();
        let store = store_with(&records, 2, "episodes");
        let report = build_report(&store, &ReportOptions::default());
        assert_eq!(report.intervals, 10);
        assert_eq!(
            report.degradation_episodes,
            vec![
                Episode {
                    start: 2,
                    length: 2
                },
                Episode {
                    start: 7,
                    length: 1
                }
            ]
        );
        assert_eq!(report.degraded_intervals, 3);
        assert_eq!(report.certificate_rejections, 1);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.congested_intervals, 3);
        // l1 runs at 0.95 every interval → sorted first, 10 hot.
        assert_eq!(report.links[0].name, "l1");
        assert_eq!(report.links[0].hot_intervals, 10);
    }

    #[test]
    fn text_omits_timing_when_asked() {
        let records = vec![rec(0, false, false, vec![0.1])];
        let store = store_with(&records, 1, "timing");
        let report = build_report(&store, &ReportOptions::default());
        let with = report.to_text(&ReportOptions::default());
        let without = report.to_text(&ReportOptions {
            include_timing: false,
            ..ReportOptions::default()
        });
        assert!(with.contains("wall time"));
        assert!(!without.contains("wall time"));
    }

    #[test]
    fn html_is_standalone_and_escaped() {
        let records = vec![rec(0, true, false, vec![0.99])];
        let store = store_with(&records, 1, "html");
        let report = build_report(&store, &ReportOptions::default());
        let html = report.to_html(&ReportOptions::default());
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("class=\"hot\""));
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn empty_store_reports_cleanly() {
        let store = store_with(&[], 0, "empty");
        let report = build_report(&store, &ReportOptions::default());
        assert_eq!(report.intervals, 0);
        let text = report.to_text(&ReportOptions::default());
        assert!(text.contains("0 intervals"));
    }
}
