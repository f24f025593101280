//! Decision digests: what a campaign decided, and what deciding it
//! cost, as a deterministic text that can be diffed across binaries.
//!
//! A digest has two halves.
//!
//! * The **answer half** is what an operator sees. Per interval: the
//!   certificate verdict, whether protection was degraded, whether the
//!   controller rolled back, whether the transition fell back to an
//!   atomic switch (`congestion_free_plan = false`), and the delivered
//!   and lost volumes. Per run: their tallies, `failed` (intervals that
//!   rolled back, found no feasible or in-budget solve, were rejected or
//!   degraded), the delivered and lost totals, and `throughput_share =
//!   delivered / (delivered + lost)`.
//! * The **work half** is what the solver spent: per interval the solve
//!   path and the iteration, dual iteration and dual bound flip counts,
//!   and per run their sums and a tally of paths.
//!
//! No wall-clock field enters. Volumes are written with `f64`'s
//! shortest round-trip `Display`, so equal text is equal bits.
//!
//! [`diff`] puts a change against its parent in one of three classes:
//! [`Class::BitEqual`]; [`Class::Equivalent`], when every verdict is
//! `certified`, nothing failed, degradations and atomic fall-backs are
//! no more than the parent's, and `throughput_share` and the delivered
//! total are within [`BAND`] of the parent's; [`Class::Changed`]
//! otherwise. Per-interval answers are counted, not gated: at kc > 0 the
//! next LP reads the installed config, so another optimal vertex
//! legitimately moves later intervals. An interval's answer counts as
//! differing when a verdict or flag differs or a volume moves by more
//! than [`BAND`] of the parent's; one whose volumes differ only within
//! the band is counted apart, as an exact-bits difference.

use std::fmt::Write as _;

use ffc_ctrl::telemetry::CERTIFICATES;
use ffc_ctrl::SolvePath;

use crate::store::StoreRecord;

/// The first line of every digest.
const MAGIC: &str = "ffc decision digest v1";

/// The per-interval row header (a comment to the parser).
const ROW_HEADER: &str = "# interval certificate degraded rolled_back atomic delivered lost \
                          | path iterations dual_iterations dual_bound_flips";

/// How far `throughput_share` (absolute) and the delivered total
/// (relative to the parent's) may move in an [`Class::Equivalent`]
/// change. Ten times tighter than the benchmark's 0.001 bound on
/// `throughput_share`.
pub const BAND: f64 = 1e-4;

/// One interval of a digest.
#[derive(Debug, Clone)]
pub struct IntervalDigest {
    /// Zero-based interval index.
    pub interval: usize,
    /// Certificate verdict (one of [`CERTIFICATES`]).
    pub certificate: &'static str,
    /// Whether protection was below the requested level.
    pub degraded: bool,
    /// Whether the interval fell back to the last-known-good config.
    pub rolled_back: bool,
    /// Whether no congestion-free chain existed: an atomic transition.
    pub atomic: bool,
    /// Volume delivered.
    pub delivered: f64,
    /// Volume lost (congestion + blackhole).
    pub lost: f64,
    /// Solve path taken.
    pub path: SolvePath,
    /// Simplex iterations.
    pub iterations: usize,
    /// Dual simplex iterations within that.
    pub dual_iterations: usize,
    /// Dual bound flips.
    pub dual_bound_flips: usize,
}

impl IntervalDigest {
    /// Whether the interval rolled back, found no feasible or in-budget
    /// solve, was rejected or ran degraded.
    pub fn failed(&self) -> bool {
        self.rolled_back
            || self.degraded
            || self.certificate == "rejected"
            || matches!(self.path, SolvePath::Infeasible | SolvePath::LimitExceeded)
    }

    /// The answer half without its volumes.
    fn verdicts(&self) -> (usize, &'static str, bool, bool, bool) {
        (
            self.interval,
            self.certificate,
            self.degraded,
            self.rolled_back,
            self.atomic,
        )
    }

    /// Whether `other`'s answer half differs from this parent row's
    /// beyond [`BAND`]: a verdict or flag, or a volume moved by more
    /// than the band relative to this row's.
    fn answer_moved(&self, other: &IntervalDigest) -> bool {
        let moved = |p: f64, c: f64| (c - p).abs() > BAND * p.abs();
        self.verdicts() != other.verdicts()
            || moved(self.delivered, other.delivered)
            || moved(self.lost, other.lost)
    }

    /// The answer half's volumes, as bits.
    fn volume_bits(&self) -> (u64, u64) {
        (self.delivered.to_bits(), self.lost.to_bits())
    }

    /// The work half.
    fn work(&self) -> (usize, SolvePath, usize, usize, usize) {
        (
            self.interval,
            self.path,
            self.iterations,
            self.dual_iterations,
            self.dual_bound_flips,
        )
    }
}

/// A campaign's decision digest: one row per stored interval, in store
/// order. Every per-run figure is derived from the rows.
#[derive(Debug, Clone)]
pub struct Digest {
    /// The intervals.
    pub rows: Vec<IntervalDigest>,
}

impl Digest {
    /// The digest of a store's records.
    pub fn of(records: &[StoreRecord]) -> Digest {
        let rows = records
            .iter()
            .map(|r| {
                let t = &r.telemetry;
                IntervalDigest {
                    interval: t.interval,
                    certificate: t.certificate,
                    degraded: t.degraded,
                    rolled_back: t.rolled_back,
                    atomic: !t.congestion_free_plan,
                    delivered: t.delivered,
                    lost: t.lost_congestion + t.lost_blackhole,
                    path: t.path,
                    iterations: t.iterations,
                    dual_iterations: t.dual_iterations,
                    dual_bound_flips: t.dual_bound_flips,
                }
            })
            .collect();
        Digest { rows }
    }

    /// Intervals that failed (see [`IntervalDigest::failed`]).
    pub fn failed(&self) -> usize {
        self.count(IntervalDigest::failed)
    }

    /// Intervals with degraded protection.
    pub fn degraded(&self) -> usize {
        self.count(|r| r.degraded)
    }

    /// Atomic transitions.
    pub fn atomic(&self) -> usize {
        self.count(|r| r.atomic)
    }

    /// Total delivered volume, summed in row order.
    pub fn delivered(&self) -> f64 {
        self.rows.iter().map(|r| r.delivered).sum()
    }

    /// Total lost volume, summed in row order.
    pub fn lost(&self) -> f64 {
        self.rows.iter().map(|r| r.lost).sum()
    }

    /// `delivered / (delivered + lost)`; 1 when nothing was offered.
    pub fn throughput_share(&self) -> f64 {
        let (d, l) = (self.delivered(), self.lost());
        if d + l > 0.0 {
            d / (d + l)
        } else {
            1.0
        }
    }

    fn count(&self, f: impl Fn(&IntervalDigest) -> bool) -> usize {
        self.rows.iter().filter(|r| f(r)).count()
    }

    /// The digest as text: the per-run summary, then one row per
    /// interval.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let sum = |f: fn(&IntervalDigest) -> usize| self.rows.iter().map(f).sum::<usize>();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "intervals {}", self.rows.len());
        let _ = writeln!(out, "answer failed {}", self.failed());
        let _ = writeln!(
            out,
            "answer certificates{}",
            tally(CERTIFICATES.map(|c| (c, self.count(|r| r.certificate == c))))
        );
        let _ = writeln!(out, "answer degraded {}", self.degraded());
        let _ = writeln!(out, "answer atomic {}", self.atomic());
        let _ = writeln!(out, "answer throughput_share {}", self.throughput_share());
        let _ = writeln!(out, "answer delivered {}", self.delivered());
        let _ = writeln!(out, "answer lost {}", self.lost());
        let _ = writeln!(
            out,
            "work paths{}",
            tally(SolvePath::ALL.map(|p| (p.as_str(), self.count(|r| r.path == p))))
        );
        let _ = writeln!(out, "work iterations {}", sum(|r| r.iterations));
        let _ = writeln!(out, "work dual_iterations {}", sum(|r| r.dual_iterations));
        let _ = writeln!(out, "work dual_bound_flips {}", sum(|r| r.dual_bound_flips));
        let _ = writeln!(out, "{ROW_HEADER}");
        let flag = |b: bool| u8::from(b);
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{} {} {} {} {} {} {} | {} {} {} {}",
                r.interval,
                r.certificate,
                flag(r.degraded),
                flag(r.rolled_back),
                flag(r.atomic),
                r.delivered,
                r.lost,
                r.path.as_str(),
                r.iterations,
                r.dual_iterations,
                r.dual_bound_flips,
            );
        }
        out
    }

    /// Reads a digest back from [`Digest::to_text`]'s output. The rows
    /// are the digest; the summary lines must be the ones the rows give,
    /// so a digest whose summary was edited by hand is refused.
    pub fn parse(text: &str) -> Result<Digest, String> {
        if text.lines().next() != Some(MAGIC) {
            return Err(format!(
                "not a decision digest (first line is not '{MAGIC}')"
            ));
        }
        let mut rows = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let starts_row = line.bytes().next().is_some_and(|b| b.is_ascii_digit());
            if starts_row {
                rows.push(parse_row(line).map_err(|e| format!("line {}: {e}", no + 1))?);
            }
        }
        let digest = Digest { rows };
        if digest.to_text() != text {
            return Err("the summary lines do not match the interval rows".into());
        }
        Ok(digest)
    }
}

/// ` label=count` per label.
fn tally<const N: usize>(counts: [(&str, usize); N]) -> String {
    counts.map(|(label, n)| format!(" {label}={n}")).concat()
}

/// One `interval … | path …` row.
fn parse_row(line: &str) -> Result<IntervalDigest, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [interval, certificate, degraded, rolled_back, atomic, delivered, lost, "|", path, iterations, dual_iterations, dual_bound_flips] =
        fields[..]
    else {
        return Err("expected 12 fields: '… lost | path …'".into());
    };
    let int = |s: &str| s.parse::<usize>().map_err(|_| format!("bad count '{s}'"));
    let vol = |s: &str| s.parse::<f64>().map_err(|_| format!("bad volume '{s}'"));
    let flag = |s: &str| match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad flag '{s}'")),
    };
    Ok(IntervalDigest {
        interval: int(interval)?,
        certificate: CERTIFICATES
            .iter()
            .find(|&&c| c == certificate)
            .copied()
            .ok_or_else(|| format!("unknown certificate '{certificate}'"))?,
        degraded: flag(degraded)?,
        rolled_back: flag(rolled_back)?,
        atomic: flag(atomic)?,
        delivered: vol(delivered)?,
        lost: vol(lost)?,
        path: SolvePath::ALL
            .iter()
            .find(|p| p.as_str() == path)
            .copied()
            .ok_or_else(|| format!("unknown path '{path}'"))?,
        iterations: int(iterations)?,
        dual_iterations: int(dual_iterations)?,
        dual_bound_flips: int(dual_bound_flips)?,
    })
}

/// How a change's digest stands against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every row equal, bit for bit.
    BitEqual,
    /// The answers an operator gates on held (see the module docs).
    Equivalent,
    /// Anything else.
    Changed,
}

impl Class {
    /// The class's printed name.
    pub const fn as_str(&self) -> &'static str {
        match self {
            Class::BitEqual => "bit-equal",
            Class::Equivalent => "equivalent",
            Class::Changed => "changed",
        }
    }
}

/// A parent → change comparison.
#[derive(Debug, Clone)]
pub struct DigestDiff {
    /// The verdict.
    pub class: Class,
    /// Intervals in the longer of the two digests.
    pub intervals: usize,
    /// Intervals whose answer half differs beyond [`BAND`] (a missing
    /// row differs).
    pub answer_differs: usize,
    /// Intervals whose answer half differs in its volumes' bits only,
    /// within [`BAND`].
    pub answer_bits_differ: usize,
    /// Intervals whose work half differs.
    pub work_differs: usize,
    /// The parent's and the change's `throughput_share`.
    pub share: (f64, f64),
    /// The parent's and the change's delivered totals.
    pub delivered: (f64, f64),
    /// The parent's and the change's failed, degraded and atomic counts.
    pub tallies: [(usize, usize); 3],
}

/// Classifies `change` against `parent`.
pub fn diff(parent: &Digest, change: &Digest) -> DigestDiff {
    let intervals = parent.rows.len().max(change.rows.len());
    let unpaired = intervals - parent.rows.len().min(change.rows.len());
    let paired = |half: fn(&IntervalDigest, &IntervalDigest) -> bool| {
        let rows = parent.rows.iter().zip(&change.rows);
        rows.filter(|(p, c)| half(p, c)).count()
    };
    let answer_differs = paired(IntervalDigest::answer_moved) + unpaired;
    let answer_bits_differ =
        paired(|p, c| !p.answer_moved(c) && p.volume_bits() != c.volume_bits());
    let work_differs = paired(|p, c| p.work() != c.work()) + unpaired;
    let share = (parent.throughput_share(), change.throughput_share());
    let delivered = (parent.delivered(), change.delivered());
    let tallies = [
        (parent.failed(), change.failed()),
        (parent.degraded(), change.degraded()),
        (parent.atomic(), change.atomic()),
    ];
    let class = if answer_differs == 0 && answer_bits_differ == 0 && work_differs == 0 {
        Class::BitEqual
    } else if parent.rows.len() == change.rows.len()
        && change.rows.iter().all(|r| r.certificate == "certified")
        && change.failed() == 0
        && tallies[1].1 <= tallies[1].0
        && tallies[2].1 <= tallies[2].0
        && (share.1 - share.0).abs() <= BAND
        && (delivered.1 - delivered.0).abs() <= BAND * delivered.0.abs()
    {
        Class::Equivalent
    } else {
        Class::Changed
    };
    DigestDiff {
        class,
        intervals,
        answer_differs,
        answer_bits_differ,
        work_differs,
        share,
        delivered,
        tallies,
    }
}

impl DigestDiff {
    /// The comparison as text; the last line is the class.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let n = self.intervals;
        let _ = writeln!(
            out,
            "answer half: {} of {n} intervals differ beyond the band",
            self.answer_differs
        );
        let _ = writeln!(
            out,
            "answer half: {} of {n} intervals differ in exact bits only",
            self.answer_bits_differ
        );
        let _ = writeln!(
            out,
            "work half: {} of {n} intervals differ",
            self.work_differs
        );
        let [failed, degraded, atomic] = self.tallies;
        let _ = writeln!(
            out,
            "failed {} -> {}, degraded {} -> {}, atomic {} -> {}",
            failed.0, failed.1, degraded.0, degraded.1, atomic.0, atomic.1
        );
        let _ = writeln!(
            out,
            "throughput_share {} -> {}, delivered {} -> {} (band {BAND})",
            self.share.0, self.share.1, self.delivered.0, self.delivered.1
        );
        let _ = writeln!(out, "{}", self.class.as_str());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four intervals, every one certified, one with a little loss.
    fn sample() -> Digest {
        let row = |interval: usize, delivered: f64, lost: f64, path: SolvePath, iterations| {
            IntervalDigest {
                interval,
                certificate: "certified",
                degraded: false,
                rolled_back: false,
                atomic: interval == 2,
                delivered,
                lost,
                path,
                iterations,
                dual_iterations: 0,
                dual_bound_flips: 0,
            }
        };
        Digest {
            rows: vec![
                row(0, 100.25, 0.0, SolvePath::Cold, 690),
                row(1, 101.5, 0.125, SolvePath::WarmPrimal, 0),
                row(2, 0.1 + 0.2, 0.0, SolvePath::WarmPrimal, 3),
                row(3, 99.0, 0.0, SolvePath::Cold, 1190),
            ],
        }
    }

    #[test]
    fn text_round_trips_bit_for_bit() {
        let d = sample();
        let text = d.to_text();
        let back = Digest::parse(&text).expect("own output parses");
        assert_eq!(back.to_text(), text);
        assert_eq!(back.rows[2].delivered.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(diff(&d, &back).class, Class::BitEqual);
        assert!(text.contains("answer atomic 1\n"), "{text}");
        assert!(text.contains(" cold=2 "), "{text}");
    }

    #[test]
    fn an_edited_summary_is_refused() {
        let text = sample()
            .to_text()
            .replace("answer atomic 1", "answer atomic 0");
        assert!(Digest::parse(&text).is_err());
        assert!(Digest::parse("not a digest\n").is_err());
    }

    #[test]
    fn work_alone_is_equivalent() {
        let parent = sample();
        let mut change = sample();
        change.rows[3].iterations = 690;
        let d = diff(&parent, &change);
        assert_eq!(d.class, Class::Equivalent);
        assert_eq!((d.answer_differs, d.work_differs), (0, 1));
        assert!(d.to_text().ends_with("equivalent\n"));
    }

    #[test]
    fn a_one_ulp_volume_is_equivalent() {
        let parent = sample();
        let mut change = sample();
        let d1 = &mut change.rows[1].delivered;
        *d1 = f64::from_bits(d1.to_bits() - 1);
        let d = diff(&parent, &change);
        assert_eq!(d.class, Class::Equivalent);
        let counts = (d.answer_differs, d.answer_bits_differ, d.work_differs);
        assert_eq!(counts, (0, 1, 0));
        let text = d.to_text();
        assert!(text.contains("1 of 4 intervals differ in exact bits only"));
    }

    #[test]
    fn a_perturbed_delivered_volume_is_changed() {
        let parent = sample();
        let mut change = sample();
        change.rows[1].delivered *= 0.5;
        let d = diff(&parent, &change);
        assert_eq!(d.class, Class::Changed);
        assert_eq!((d.answer_differs, d.work_differs), (1, 0));
    }

    #[test]
    fn a_verdict_or_a_degradation_is_changed() {
        let parent = sample();
        let mut rejected = sample();
        rejected.rows[0].certificate = "rejected";
        assert_eq!(diff(&parent, &rejected).class, Class::Changed);
        let mut degraded = sample();
        degraded.rows[3].degraded = true;
        assert_eq!(diff(&parent, &degraded).class, Class::Changed);
        let mut shorter = sample();
        shorter.rows.pop();
        let d = diff(&parent, &shorter);
        assert_eq!((d.class, d.answer_differs), (Class::Changed, 1));
    }
}
