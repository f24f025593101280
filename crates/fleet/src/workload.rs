//! The population-driven workload engine.
//!
//! A [`FleetSpec`] describes *users*, not demands: per-site populations
//! with growth trends, a shared diurnal/weekly cycle staggered by each
//! site's UTC offset, and scheduled flash crowds. This module turns
//! that description into the controller's native input — a base
//! gravity-model [`TrafficMatrix`] plus a stream of per-interval
//! [`Event::DemandSet`] updates and scheduled fault events — entirely
//! deterministically from the spec's seed.
//!
//! The demand model: site `i`'s *activity* at interval `t` is
//!
//! ```text
//! a_i(t) = growth_i(t) · cycle_i(t) · crowd_i(t) · noise_i(t)
//! ```
//!
//! and the demand of a site pair scales the base gravity entry by the
//! geometric mean `sqrt(a_i · a_j)` — a pair's traffic grows when
//! either endpoint is busy, without the quadratic blow-up a plain
//! product would give when every site peaks at once.
//!
//! The [`DemandShape`] half of this module is the reusable core shared
//! with `ffc-chaos`: pure shape → multiplier arithmetic over flow
//! groups, with no site/population machinery attached.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ffc_ctrl::{Event, TimedEvent};
use ffc_net::{LinkId, NodeId, TrafficMatrix};
use ffc_topo::rng::log_normal;
use ffc_topo::{gravity_matrices, SiteNetwork};

use crate::spec::{CycleSpec, FleetEvent, FleetSpec, SiteSpec};

/// Seconds per simulated day / week.
const DAY_SECS: f64 = 86_400.0;
const WEEK_SECS: f64 = 7.0 * DAY_SECS;

/// splitmix64, the workspace's one seed-stream mixer: per-(site,
/// interval) noise draws here are independent of the order anything
/// iterates in, and the chaos harness derives unrelated campaign
/// streams from one master seed with it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A workload compiled from a [`FleetSpec`] against a concrete
/// topology: the base matrix, the site behind each flow endpoint, and
/// the resolved per-site populations.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Base (mean-activity) traffic matrix. Flow indices here are the
    /// indices the emitted `DemandSet` events refer to.
    pub base_tm: TrafficMatrix,
    /// `(src_site, dst_site)` of each flow, parallel to the matrix.
    pub flow_sites: Vec<(usize, usize)>,
    /// Base demand of each flow, parallel to the matrix.
    pub base_demand: Vec<f64>,
    /// Resolved sites (synthesized when the spec listed none).
    pub sites: Vec<SiteSpec>,
}

/// Compiles the spec's population model into a [`Workload`] over `net`.
///
/// When the spec lists sites explicitly their count must match the
/// topology; when it lists none, log-normal populations are
/// synthesized from the seed and UTC offsets are derived from each
/// site's longitude (15° ≈ one hour).
pub fn build_workload(spec: &FleetSpec, net: &SiteNetwork) -> Result<Workload, String> {
    let n = net.num_sites();
    let sites: Vec<SiteSpec> = if spec.sites.is_empty() {
        let mut rng = StdRng::seed_from_u64(splitmix64(spec.seed ^ 0x5153));
        (0..n)
            .map(|s| SiteSpec {
                name: format!("site{s}"),
                population: log_normal(&mut rng, (1.0e6f64).ln(), 1.0),
                growth_per_week: 0.0,
                utc_offset_hours: net.coords[s].1 / 15.0,
            })
            .collect()
    } else {
        if spec.sites.len() != n {
            return Err(format!(
                "spec lists {} sites but topology `{:?}` has {n}",
                spec.sites.len(),
                spec.topology
            ));
        }
        spec.sites.clone()
    };

    // Gravity base matrix: weights are the populations themselves.
    let w: Vec<f64> = sites.iter().map(|s| s.population).collect();
    let (mut matrices, flow_sites) = gravity_matrices(
        net,
        &w,
        spec.mean_total,
        spec.keep_fraction,
        spec.priority_split,
        1,
        || 1.0,
    );
    let base_tm = matrices.swap_remove(0);
    let base_demand = base_tm.iter().map(|(_, f)| f.demand).collect();
    Ok(Workload {
        base_tm,
        flow_sites,
        base_demand,
        sites,
    })
}

/// The diurnal × weekly cycle multiplier for one site at an absolute
/// simulated time (mean ≈ 1 over a week when the amplitude is small).
fn cycle_multiplier(cycles: &CycleSpec, utc_offset_hours: f64, t_secs: f64) -> f64 {
    let local_hour = ((t_secs / 3600.0 + utc_offset_hours) % 24.0 + 24.0) % 24.0;
    let phase = (local_hour - cycles.peak_hour) / 24.0 * std::f64::consts::TAU;
    let diurnal = 1.0 + cycles.diurnal_amplitude * phase.cos();
    // Days 5 and 6 of the simulated week are the weekend.
    let day = ((t_secs / DAY_SECS).floor() as i64).rem_euclid(7);
    let weekly = if day >= 5 {
        1.0 - cycles.weekly_weekend_dip
    } else {
        1.0
    };
    diurnal * weekly
}

/// The flash-crowd multiplier for one site at one interval: a
/// triangular ramp to `magnitude` at the event's midpoint. Overlapping
/// crowds multiply.
fn crowd_multiplier(events: &[FleetEvent], site: usize, interval: usize) -> f64 {
    let mut m = 1.0;
    for ev in events {
        if let FleetEvent::FlashCrowd {
            site: s,
            start,
            duration,
            magnitude,
        } = ev
        {
            if *s != site || interval < *start || interval - start >= *duration {
                continue;
            }
            let half = *duration as f64 / 2.0;
            let into = (interval - start) as f64 + 0.5;
            let frac = if into <= half {
                into / half
            } else {
                (*duration as f64 - into) / half
            };
            m *= 1.0 + (magnitude - 1.0) * frac.clamp(0.0, 1.0);
        }
    }
    m
}

/// Site `site`'s activity at interval `t` (growth × cycle × crowd ×
/// noise), deterministic in the spec seed.
pub fn site_activity(spec: &FleetSpec, sites: &[SiteSpec], site: usize, t: usize) -> f64 {
    let s = &sites[site];
    let t_secs = t as f64 * spec.interval_secs;
    let growth = (1.0 + s.growth_per_week).powf(t_secs / WEEK_SECS);
    let cycle = cycle_multiplier(&spec.cycles, s.utc_offset_hours, t_secs);
    let crowd = crowd_multiplier(&spec.events, site, t);
    let noise = if spec.cycles.noise_sigma > 0.0 {
        let stream = splitmix64(spec.seed ^ splitmix64((site as u64) << 32 | t as u64));
        log_normal(
            &mut StdRng::seed_from_u64(stream),
            0.0,
            spec.cycles.noise_sigma,
        )
    } else {
        1.0
    };
    growth * cycle * crowd * noise
}

/// Compiles the full event stream for a campaign: one `DemandSet` per
/// flow per interval (the population model sampled on the TE clock)
/// plus the spec's scheduled fault events, sorted by interval with
/// faults after the demand updates of the same interval.
pub fn demand_events(
    spec: &FleetSpec,
    wl: &Workload,
    net: &SiteNetwork,
) -> Result<Vec<TimedEvent>, String> {
    let n_links = net.topo.num_links();
    let n_nodes = net.topo.num_nodes();
    // `intervals` comes from the spec file: size the stream from it
    // only if the product exists and the allocator agrees.
    let mut out = Vec::new();
    spec.intervals
        .checked_mul(wl.base_demand.len())
        .and_then(|n| n.checked_add(spec.events.len()))
        .and_then(|n| out.try_reserve_exact(n).ok())
        .ok_or_else(|| {
            format!(
                "campaign too large: the demand events of {} intervals x {} flows do not fit in memory",
                spec.intervals,
                wl.base_demand.len()
            )
        })?;
    for t in 0..spec.intervals {
        let acts: Vec<f64> = (0..wl.sites.len())
            .map(|s| site_activity(spec, &wl.sites, s, t))
            .collect();
        for (f, &(i, j)) in wl.flow_sites.iter().enumerate() {
            let demand = wl.base_demand[f] * (acts[i] * acts[j]).sqrt();
            out.push(TimedEvent {
                interval: t,
                event: Event::DemandSet { flow: f, demand },
            });
        }
        for ev in &spec.events {
            let (interval, event) = match *ev {
                FleetEvent::FlashCrowd { .. } => continue, // demand-side, handled above
                FleetEvent::LinkDown { link, at } => (at, Event::LinkDown(LinkId(link))),
                FleetEvent::LinkUp { link, at } => (at, Event::LinkUp(LinkId(link))),
                FleetEvent::SwitchDown { switch, at } => (at, Event::SwitchDown(NodeId(switch))),
                FleetEvent::SwitchUp { switch, at } => (at, Event::SwitchUp(NodeId(switch))),
            };
            if interval != t {
                continue;
            }
            match event {
                Event::LinkDown(l) | Event::LinkUp(l) if l.index() >= n_links => {
                    return Err(format!(
                        "event at interval {t}: link {} out of range (topology has {n_links})",
                        l.index()
                    ))
                }
                Event::SwitchDown(v) | Event::SwitchUp(v) if v.index() >= n_nodes => {
                    return Err(format!(
                        "event at interval {t}: switch {} out of range (topology has {n_nodes})",
                        v.index()
                    ))
                }
                _ => {}
            }
            if interval >= spec.intervals {
                return Err(format!(
                    "event scheduled at interval {interval} but the campaign has {}",
                    spec.intervals
                ));
            }
            out.push(TimedEvent { interval, event });
        }
    }
    // Faults scheduled beyond the horizon never matched the loop above;
    // reject them explicitly rather than silently dropping.
    for ev in &spec.events {
        let at = match *ev {
            FleetEvent::FlashCrowd { .. } => continue,
            FleetEvent::LinkDown { at, .. }
            | FleetEvent::LinkUp { at, .. }
            | FleetEvent::SwitchDown { at, .. }
            | FleetEvent::SwitchUp { at, .. } => at,
        };
        if at >= spec.intervals {
            return Err(format!(
                "event scheduled at interval {at} but the campaign has {}",
                spec.intervals
            ));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Reusable demand shapes (shared with ffc-chaos)
// ---------------------------------------------------------------------

/// A pure demand shape over abstract *flow groups* (a group is
/// whatever the caller keys flows by — fleet uses source sites, the
/// chaos harness uses source switches). Shapes compose by
/// multiplication.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandShape {
    /// A sinusoidal ramp over every flow: peak `1 + amplitude` at
    /// interval `peak`, trough `1 - amplitude`, period
    /// `period_intervals`.
    Diurnal {
        /// Peak-to-mean swing (0 ≤ amplitude < 1).
        amplitude: f64,
        /// Interval of the first peak.
        peak: f64,
        /// Cycle length in intervals.
        period_intervals: f64,
    },
    /// A triangular flash crowd on one group: ramps to `magnitude` at
    /// the midpoint of `[start, start + duration)`.
    FlashCrowd {
        /// Affected flow group.
        group: usize,
        /// First affected interval.
        start: usize,
        /// Length in intervals.
        duration: usize,
        /// Peak multiplier.
        magnitude: f64,
    },
    /// A static per-group skew: flows in `group` carry `factor ×`
    /// demand for the whole campaign.
    SiteSkew {
        /// Affected flow group.
        group: usize,
        /// Constant multiplier.
        factor: f64,
    },
}

impl DemandShape {
    /// The multiplier this shape applies to flows of `group` at
    /// interval `t`.
    pub fn multiplier(&self, group: usize, t: usize) -> f64 {
        match *self {
            DemandShape::Diurnal {
                amplitude,
                peak,
                period_intervals,
            } => {
                if period_intervals <= 0.0 {
                    return 1.0;
                }
                let phase = (t as f64 - peak) / period_intervals * std::f64::consts::TAU;
                1.0 + amplitude * phase.cos()
            }
            DemandShape::FlashCrowd {
                group: g,
                start,
                duration,
                magnitude,
            } => {
                if g != group || t < start || t >= start + duration || duration == 0 {
                    return 1.0;
                }
                let half = duration as f64 / 2.0;
                let into = (t - start) as f64 + 0.5;
                let frac = if into <= half {
                    into / half
                } else {
                    (duration as f64 - into) / half
                };
                1.0 + (magnitude - 1.0) * frac.clamp(0.0, 1.0)
            }
            DemandShape::SiteSkew { group: g, factor } => {
                if g == group {
                    factor
                } else {
                    1.0
                }
            }
        }
    }
}

/// The combined multiplier of a shape set for one flow group at one
/// interval, clamped to a sane band so a stack of shapes cannot drive
/// demand negative or astronomically high.
pub fn combined_multiplier(shapes: &[DemandShape], group: usize, t: usize) -> f64 {
    let m: f64 = shapes.iter().map(|s| s.multiplier(group, t)).product();
    m.clamp(0.05, 20.0)
}

/// Compiles a shape set into per-interval `DemandSet` events over a
/// base matrix. `flow_group[f]` keys flow `f` into the shapes'
/// group space. Intervals where every multiplier is exactly 1 emit
/// nothing, so an empty shape set yields an empty stream.
pub fn shape_demand_events(
    base: &TrafficMatrix,
    flow_group: &[usize],
    shapes: &[DemandShape],
    intervals: usize,
) -> Vec<TimedEvent> {
    assert_eq!(base.len(), flow_group.len());
    let mut out = Vec::new();
    for t in 0..intervals {
        for (idx, (id, flow)) in base.iter().enumerate() {
            let m = combined_multiplier(shapes, flow_group[idx], t);
            // (Ordered compares, not `!=`: the source lint bans float
            // equality against literals outside tests.)
            #[allow(clippy::double_comparisons)]
            if m < 1.0 || m > 1.0 {
                out.push(TimedEvent {
                    interval: t,
                    event: Event::DemandSet {
                        flow: id.index(),
                        demand: flow.demand * m,
                    },
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use ffc_net::Priority;
    use ffc_topo::{lnet, LNetConfig};

    fn net4() -> SiteNetwork {
        lnet(&LNetConfig {
            sites: 4,
            ..LNetConfig::default()
        })
    }

    fn spec4() -> FleetSpec {
        FleetSpec {
            topology: TopologySpec::Lnet(4),
            intervals: 24,
            keep_fraction: 1.0,
            sites: (0..4)
                .map(|s| SiteSpec {
                    name: format!("s{s}"),
                    population: 1.0e6 * (s + 1) as f64,
                    growth_per_week: 0.0,
                    utc_offset_hours: 0.0,
                })
                .collect(),
            ..FleetSpec::default()
        }
    }

    #[test]
    fn base_matrix_hits_mean_total() {
        let net = net4();
        let wl = build_workload(&spec4(), &net).expect("build");
        let total = wl.base_tm.total_demand();
        assert!((total - 100.0).abs() < 1e-6, "total {total}");
        assert_eq!(wl.base_tm.len(), wl.flow_sites.len());
        assert_eq!(wl.base_tm.len(), 12); // 4×3 ordered pairs, keep=1
    }

    #[test]
    fn site_count_mismatch_is_an_error() {
        let net = net4();
        let mut spec = spec4();
        spec.sites.pop();
        assert!(build_workload(&spec, &net).is_err());
    }

    #[test]
    fn synthesized_sites_are_deterministic() {
        let net = net4();
        let spec = FleetSpec {
            topology: TopologySpec::Lnet(4),
            sites: Vec::new(),
            ..FleetSpec::default()
        };
        let a = build_workload(&spec, &net).expect("a");
        let b = build_workload(&spec, &net).expect("b");
        assert_eq!(a.sites, b.sites);
        assert!(a.sites.iter().all(|s| s.population > 0.0));
    }

    #[test]
    fn events_are_deterministic_and_cover_every_interval() {
        let net = net4();
        let spec = spec4();
        let wl = build_workload(&spec, &net).expect("build");
        let a = demand_events(&spec, &wl, &net).expect("a");
        let b = demand_events(&spec, &wl, &net).expect("b");
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.intervals * wl.base_tm.len());
        assert!(a.iter().all(|te| te.interval < spec.intervals));
    }

    #[test]
    fn diurnal_cycle_peaks_at_peak_hour() {
        let mut spec = spec4();
        spec.cycles.noise_sigma = 0.0;
        spec.cycles.diurnal_amplitude = 0.5;
        spec.cycles.peak_hour = 12.0;
        let sites = spec.sites.clone();
        // interval_secs = 300 → 12 intervals/hour; hour 12 = t 144.
        let peak = site_activity(&spec, &sites, 0, 144);
        let trough = site_activity(&spec, &sites, 0, 0);
        assert!(peak > 1.4, "peak {peak}");
        assert!(trough < 0.6, "trough {trough}");
    }

    #[test]
    fn weekend_dip_applies() {
        let mut spec = spec4();
        spec.cycles.noise_sigma = 0.0;
        spec.cycles.diurnal_amplitude = 0.0;
        spec.cycles.weekly_weekend_dip = 0.25;
        spec.intervals = 2016;
        let sites = spec.sites.clone();
        let weekday = site_activity(&spec, &sites, 0, 0);
        let weekend = site_activity(&spec, &sites, 0, 5 * 288); // day 5
        assert!((weekday - 1.0).abs() < 1e-9, "weekday {weekday}");
        assert!((weekend - 0.75).abs() < 1e-9, "weekend {weekend}");
    }

    #[test]
    fn flash_crowd_ramps_and_subsides() {
        let mut spec = spec4();
        spec.cycles.noise_sigma = 0.0;
        spec.cycles.diurnal_amplitude = 0.0;
        spec.events.push(FleetEvent::FlashCrowd {
            site: 2,
            start: 4,
            duration: 8,
            magnitude: 3.0,
        });
        let sites = spec.sites.clone();
        let before = site_activity(&spec, &sites, 2, 3);
        let mid = site_activity(&spec, &sites, 2, 8); // midpoint-ish
        let after = site_activity(&spec, &sites, 2, 12);
        let other = site_activity(&spec, &sites, 1, 8);
        assert!((before - 1.0).abs() < 1e-9);
        assert!(mid > 2.5, "mid {mid}");
        assert!((after - 1.0).abs() < 1e-9);
        assert!((other - 1.0).abs() < 1e-9, "unaffected site moved");
    }

    #[test]
    fn growth_compounds_weekly() {
        let mut spec = spec4();
        spec.cycles.noise_sigma = 0.0;
        spec.cycles.diurnal_amplitude = 0.0;
        spec.sites[0].growth_per_week = 0.10;
        spec.intervals = 2 * 2016;
        let sites = spec.sites.clone();
        let w0 = site_activity(&spec, &sites, 0, 0);
        let w1 = site_activity(&spec, &sites, 0, 2016);
        assert!((w1 / w0 - 1.10).abs() < 1e-6, "ratio {}", w1 / w0);
    }

    #[test]
    fn fault_events_emitted_and_bounds_checked() {
        let net = net4();
        let mut spec = spec4();
        spec.events.push(FleetEvent::LinkDown { link: 0, at: 5 });
        spec.events.push(FleetEvent::LinkUp { link: 0, at: 9 });
        let wl = build_workload(&spec, &net).expect("build");
        let evs = demand_events(&spec, &wl, &net).expect("events");
        let faults: Vec<_> = evs
            .iter()
            .filter(|te| matches!(te.event, Event::LinkDown(_) | Event::LinkUp(_)))
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].interval, 5);

        spec.events.push(FleetEvent::SwitchDown {
            switch: 9999,
            at: 1,
        });
        let err = demand_events(&spec, &wl, &net).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// An interval count no event stream fits in is a message, not an
    /// aborted allocation (`intervals = 99999999999999` in a spec file).
    #[test]
    fn an_absurd_horizon_is_refused_not_allocated() {
        let net = net4();
        let mut spec = spec4();
        let wl = build_workload(&spec, &net).expect("build");
        for intervals in [99_999_999_999_999, usize::MAX] {
            spec.intervals = intervals;
            let err = demand_events(&spec, &wl, &net).unwrap_err();
            assert!(err.starts_with("campaign too large"), "{err}");
        }
    }

    #[test]
    fn out_of_horizon_fault_is_rejected() {
        let net = net4();
        let mut spec = spec4();
        spec.events.push(FleetEvent::LinkDown { link: 0, at: 999 });
        let wl = build_workload(&spec, &net).expect("build");
        let err = demand_events(&spec, &wl, &net).unwrap_err();
        assert!(err.contains("interval 999"), "{err}");
    }

    #[test]
    fn shapes_compose_and_clamp() {
        let d = DemandShape::Diurnal {
            amplitude: 0.4,
            peak: 0.0,
            period_intervals: 288.0,
        };
        assert!((d.multiplier(0, 0) - 1.4).abs() < 1e-12);
        assert!((d.multiplier(7, 144) - 0.6).abs() < 1e-12);
        let skew = DemandShape::SiteSkew {
            group: 3,
            factor: 2.0,
        };
        assert_eq!(skew.multiplier(3, 10), 2.0);
        assert_eq!(skew.multiplier(4, 10), 1.0);
        let big = DemandShape::SiteSkew {
            group: 0,
            factor: 1000.0,
        };
        assert_eq!(combined_multiplier(&[big], 0, 0), 20.0);
    }

    #[test]
    fn shape_events_skip_identity_intervals() {
        let mut tm = TrafficMatrix::new();
        tm.add_flow(NodeId(0), NodeId(1), 5.0, Priority::High);
        tm.add_flow(NodeId(1), NodeId(0), 3.0, Priority::High);
        let crowd = DemandShape::FlashCrowd {
            group: 0,
            start: 2,
            duration: 2,
            magnitude: 2.0,
        };
        let evs = shape_demand_events(&tm, &[0, 1], &[crowd], 6);
        // Only flow 0 (group 0) during intervals 2..4 is shaped.
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|te| te.interval == 2 || te.interval == 3));
        assert!(shape_demand_events(&tm, &[0, 1], &[], 6).is_empty());
    }
}
