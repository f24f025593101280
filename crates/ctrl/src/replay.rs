//! Event-trace serialization: any controller run is reproducible.
//!
//! A trace file is self-contained: a header with every controller
//! parameter, the topology and base traffic matrix embedded as opaque
//! text sections (the controller does not interpret them — the CLI's
//! parsers do), and the timed event list. A *live* run appends the
//! rollout outcomes it sampled ([`crate::event::Event::UpdateAck`] /
//! `UpdateTimeout`); replaying the trace consumes those instead of
//! re-sampling, so replayed telemetry fingerprints are bit-identical.
//!
//! Format (line-oriented, `#` comments allowed outside sections):
//!
//! ```text
//! ffc-trace v1
//! intervals 6
//! interval-secs 300
//! protection 0 1 0
//! tunnels-per-flow 6
//! switch-model optimistic
//! seed 42
//! max-update-steps 3
//! solve-deadline-ms 30000
//! [topo]
//! node nyc
//! …
//! [traffic]
//! flow nyc lon 4.0 high
//! …
//! [events]
//! 0 demand-scale 1.02
//! 1 link-down 4
//! …
//! ```

use ffc_net::Topology;
use ffc_sim::{FaultModel, FaultProcess, SwitchModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{Event, TimedEvent};

/// Every parameter a replay needs to reproduce a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Number of TE intervals.
    pub intervals: usize,
    /// Interval length in seconds.
    pub interval_secs: f64,
    /// Protection level `(kc, ke, kv)`.
    pub kc: usize,
    /// Link protection.
    pub ke: usize,
    /// Switch protection.
    pub kv: usize,
    /// Tunnels laid out per flow.
    pub tunnels_per_flow: usize,
    /// Switch latency/failure model.
    pub switch_model: SwitchModel,
    /// RNG seed of the live run.
    pub seed: u64,
    /// Rollout step budget.
    pub max_update_steps: usize,
    /// Planner solve deadline in milliseconds.
    pub solve_deadline_ms: u64,
}

impl Default for TraceHeader {
    fn default() -> Self {
        TraceHeader {
            intervals: 5,
            interval_secs: 300.0,
            kc: 0,
            ke: 1,
            kv: 0,
            tunnels_per_flow: 6,
            switch_model: SwitchModel::Optimistic,
            seed: 42,
            max_update_steps: 3,
            solve_deadline_ms: 30_000,
        }
    }
}

/// A complete, self-contained controller run description.
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    /// Run parameters.
    pub header: TraceHeader,
    /// Topology in the CLI text format (opaque to this crate).
    pub topo_text: String,
    /// Base traffic matrix in the CLI text format (opaque).
    pub traffic_text: String,
    /// Timed events, inputs and recorded outcomes alike.
    pub events: Vec<TimedEvent>,
}

impl EventTrace {
    /// Serializes the trace to its text format.
    pub fn to_text(&self) -> String {
        let h = &self.header;
        let model = match h.switch_model {
            SwitchModel::Realistic => "realistic",
            SwitchModel::Optimistic => "optimistic",
        };
        let mut out = String::new();
        out.push_str("ffc-trace v1\n");
        out.push_str(&format!("intervals {}\n", h.intervals));
        out.push_str(&format!("interval-secs {}\n", h.interval_secs));
        out.push_str(&format!("protection {} {} {}\n", h.kc, h.ke, h.kv));
        out.push_str(&format!("tunnels-per-flow {}\n", h.tunnels_per_flow));
        out.push_str(&format!("switch-model {model}\n"));
        out.push_str(&format!("seed {}\n", h.seed));
        out.push_str(&format!("max-update-steps {}\n", h.max_update_steps));
        out.push_str(&format!("solve-deadline-ms {}\n", h.solve_deadline_ms));
        out.push_str("[topo]\n");
        out.push_str(self.topo_text.trim_end());
        out.push_str("\n[traffic]\n");
        out.push_str(self.traffic_text.trim_end());
        out.push_str("\n[events]\n");
        for e in &self.events {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses the format produced by [`EventTrace::to_text`].
    ///
    /// Errors carry the 1-based line number of the offending line, so a
    /// corrupted trace points straight at the corruption.
    pub fn parse(text: &str) -> Result<EventTrace, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, magic)) if magic.trim() == "ffc-trace v1" => {}
            // A well-formed trace from a different schema generation:
            // reject with the version, not a generic magic complaint.
            Some((_, magic)) if magic.trim().starts_with("ffc-trace v") => {
                let version = magic.trim()["ffc-trace v".len()..].to_string();
                return Err(format!(
                    "line 1: trace schema v{version} not supported (this reader reads v1); \
                     re-record the trace with a matching build"
                ));
            }
            other => return Err(format!("line 1: bad trace magic: {:?}", other.map(|o| o.1))),
        }
        let mut header = TraceHeader::default();
        let mut topo_text = String::new();
        let mut traffic_text = String::new();
        let mut events = Vec::new();
        #[derive(PartialEq)]
        enum Section {
            Header,
            Topo,
            Traffic,
            Events,
        }
        let mut section = Section::Header;
        for (idx, line) in lines {
            let lineno = idx + 1; // enumerate is 0-based
            let at = |e: String| format!("line {lineno}: {e}");
            let trimmed = line.trim();
            match trimmed {
                "[topo]" => {
                    section = Section::Topo;
                    continue;
                }
                "[traffic]" => {
                    section = Section::Traffic;
                    continue;
                }
                "[events]" => {
                    section = Section::Events;
                    continue;
                }
                _ => {}
            }
            match section {
                Section::Header => {
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    let mut it = trimmed.split_whitespace();
                    let Some(key) = it.next() else { continue };
                    let vals: Vec<&str> = it.collect();
                    let one = || -> Result<&str, String> {
                        vals.first()
                            .copied()
                            .ok_or_else(|| format!("header `{key}`: missing value"))
                    };
                    (|| -> Result<(), String> {
                        match key {
                            "intervals" => header.intervals = parse(one()?)?,
                            "interval-secs" => {
                                let secs: f64 = parse(one()?)?;
                                if !(secs.is_finite() && secs > 0.0) {
                                    return Err(format!(
                                        "header `{key}`: must be finite and positive, got `{secs}`"
                                    ));
                                }
                                header.interval_secs = secs;
                            }
                            "protection" => {
                                if vals.len() != 3 {
                                    return Err("protection wants `kc ke kv`".into());
                                }
                                header.kc = parse(vals[0])?;
                                header.ke = parse(vals[1])?;
                                header.kv = parse(vals[2])?;
                            }
                            "tunnels-per-flow" => header.tunnels_per_flow = parse(one()?)?,
                            "switch-model" => {
                                header.switch_model = match one()? {
                                    "realistic" => SwitchModel::Realistic,
                                    "optimistic" => SwitchModel::Optimistic,
                                    m => return Err(format!("unknown switch-model `{m}`")),
                                }
                            }
                            "seed" => header.seed = parse(one()?)?,
                            "max-update-steps" => {
                                header.max_update_steps = parse(one()?)?;
                                if header.max_update_steps == 0 {
                                    return Err(format!("header `{key}`: must be at least 1"));
                                }
                            }
                            "solve-deadline-ms" => header.solve_deadline_ms = parse(one()?)?,
                            other => return Err(format!("unknown header key `{other}`")),
                        }
                        Ok(())
                    })()
                    .map_err(at)?;
                }
                Section::Topo => {
                    topo_text.push_str(line);
                    topo_text.push('\n');
                }
                Section::Traffic => {
                    traffic_text.push_str(line);
                    traffic_text.push('\n');
                }
                Section::Events => {
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    events.push(TimedEvent::parse_line(trimmed).map_err(at)?);
                }
            }
        }
        if topo_text.is_empty() || traffic_text.is_empty() {
            let last = text.lines().count();
            return Err(format!(
                "line {last}: trace missing [topo] or [traffic] section"
            ));
        }
        Ok(EventTrace {
            header,
            topo_text,
            traffic_text,
            events,
        })
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value `{s}`: {e}"))
}

/// Generates a Poisson fault/demand event stream for a live run: link
/// and switch failures from [`FaultProcess`] (both directions of a
/// physical cut), matching repairs, and a per-interval demand scale
/// drawn uniformly from `1 ± demand_jitter`. Deterministic in `seed`.
pub fn generate_poisson_events(
    topo: &Topology,
    model: &FaultModel,
    seed: u64,
    intervals: usize,
    interval_secs: f64,
    demand_jitter: f64,
) -> Vec<TimedEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut process = FaultProcess::new();
    let mut prev = process.scenario();
    let mut events = Vec::new();
    for interval in 0..intervals {
        if demand_jitter > 0.0 {
            let factor = 1.0 - demand_jitter + 2.0 * demand_jitter * rng.gen::<f64>();
            events.push(TimedEvent {
                interval,
                event: Event::DemandScale(factor),
            });
        }
        process.step(&mut rng, topo, model, interval_secs);
        let now = process.scenario();
        for &l in now.failed_links.difference(&prev.failed_links) {
            events.push(TimedEvent {
                interval,
                event: Event::LinkDown(l),
            });
        }
        for &l in prev.failed_links.difference(&now.failed_links) {
            events.push(TimedEvent {
                interval,
                event: Event::LinkUp(l),
            });
        }
        for &v in now.failed_switches.difference(&prev.failed_switches) {
            events.push(TimedEvent {
                interval,
                event: Event::SwitchDown(v),
            });
        }
        for &v in prev.failed_switches.difference(&now.failed_switches) {
            events.push(TimedEvent {
                interval,
                event: Event::SwitchUp(v),
            });
        }
        prev = now;
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::LinkId;

    fn sample_trace() -> EventTrace {
        EventTrace {
            header: TraceHeader::default(),
            topo_text: "node a\nnode b\nbidi a b 10\n".into(),
            traffic_text: "flow a b 4.0 high\n".into(),
            events: vec![
                TimedEvent {
                    interval: 0,
                    event: Event::DemandScale(1.03),
                },
                TimedEvent {
                    interval: 2,
                    event: Event::LinkDown(LinkId(1)),
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let t = sample_trace();
        let back = EventTrace::parse(&t.to_text()).expect("parse");
        assert_eq!(t, back);
        // And a second roundtrip is a fixed point.
        assert_eq!(
            back.to_text(),
            EventTrace::parse(&back.to_text()).unwrap().to_text()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(EventTrace::parse("not a trace").is_err());
        assert!(
            EventTrace::parse("ffc-trace v1\nintervals nope\n[topo]\nx\n[traffic]\ny\n").is_err()
        );
        assert!(EventTrace::parse("ffc-trace v1\nintervals 3\n").is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_line() {
        // Corrupt a serialized trace at a known line and check the error
        // points at exactly that line.
        let text = sample_trace().to_text();
        let lines: Vec<&str> = text.lines().collect();
        let event_line = lines
            .iter()
            .position(|l| *l == "[events]")
            .expect("events section")
            + 2; // 1-based index of the first event line
        let corrupted = text.replace("0 demand-scale 1.03", "0 demand-scale NaN");
        let err = EventTrace::parse(&corrupted).unwrap_err();
        assert!(
            err.contains(&format!("line {event_line}:")) && err.contains("non-finite"),
            "error should carry line number and cause: {err}"
        );

        let bad_header = text.replace("intervals 5", "intervals many");
        let err = EventTrace::parse(&bad_header).unwrap_err();
        assert!(
            err.contains("line 2:") && err.contains("bad value `many`"),
            "header error should name line 2: {err}"
        );

        // The interval length divides and scales every volume the run
        // reports: it must be a positive finite number. And a rollout
        // needs at least one step to plan.
        for bad in ["NaN", "inf", "-5", "0"] {
            let text = text.replace("interval-secs 300", &format!("interval-secs {bad}"));
            let err = EventTrace::parse(&text).unwrap_err();
            assert!(
                err.starts_with("line 3: header `interval-secs`:"),
                "interval-secs {bad}: {err}"
            );
        }

        let text = text.replace("max-update-steps 3", "max-update-steps 0");
        let err = EventTrace::parse(&text).unwrap_err();
        assert!(
            err.starts_with("line 8: header `max-update-steps`:"),
            "{err}"
        );

        // A trace cut off before its sections is located too: at its
        // last line.
        let err = EventTrace::parse("ffc-trace v1\nintervals 3\n").unwrap_err();
        assert!(err.starts_with("line 2: trace missing"), "{err}");
    }

    #[test]
    fn poisson_events_are_deterministic_and_paired() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.add_bidi(a, b, 10.0);
        topo.add_bidi(b, c, 10.0);
        topo.add_bidi(a, c, 10.0);
        let model = FaultModel {
            link_failures_per_interval: 1.0,
            switch_failures_per_interval: 0.1,
            mean_repair_intervals: 2.0,
        };
        let e1 = generate_poisson_events(&topo, &model, 7, 20, 300.0, 0.1);
        let e2 = generate_poisson_events(&topo, &model, 7, 20, 300.0, 0.1);
        assert_eq!(e1, e2, "same seed must give the same stream");
        assert!(e1.iter().any(|e| matches!(e.event, Event::LinkDown(_))));
        // Every up has a preceding down for the same link.
        for (i, e) in e1.iter().enumerate() {
            if let Event::LinkUp(l) = e.event {
                assert!(
                    e1[..i]
                        .iter()
                        .any(|p| matches!(p.event, Event::LinkDown(x) if x == l)),
                    "repair of never-failed link {l:?}"
                );
            }
        }
        // Demand scales stay within the jitter band.
        for e in &e1 {
            if let Event::DemandScale(f) = e.event {
                assert!((0.9..=1.1).contains(&f), "scale {f} outside band");
            }
        }
    }
}
