//! Traffic demand generation (§8.1): gravity-model inter-site demands
//! with log-normal site weights, a TE interval every 5 minutes,
//! interval-to-interval variation, and a 3-priority split (interactive /
//! deadline / background, following SWAN).

use rand::rngs::StdRng;
use rand::SeedableRng;

use ffc_net::{Priority, TrafficMatrix};

use crate::rng::log_normal;
use crate::sites::SiteNetwork;

/// Parameters for the gravity traffic generator.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Mean total network demand, in the same units as link capacities.
    /// (The absolute level is later calibrated via
    /// [`crate::calibrate::calibrate_scale`].)
    pub mean_total: f64,
    /// σ of the log-normal site weights (skew of the gravity model).
    pub site_sigma: f64,
    /// Keep only the largest demands covering this fraction of traffic
    /// (sparsifies the matrix like real WAN matrices, where most bytes
    /// sit on a minority of site pairs). `1.0` keeps every pair.
    pub keep_fraction: f64,
    /// Fraction of each demand classified (high, medium) — the rest is
    /// low priority. SWAN-ish defaults: (0.1, 0.3).
    pub priority_split: (f64, f64),
    /// Relative interval-to-interval demand jitter (log-normal σ).
    pub interval_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            mean_total: 100.0,
            site_sigma: 1.0,
            keep_fraction: 0.9,
            priority_split: (0.1, 0.3),
            interval_sigma: 0.15,
            seed: 43,
        }
    }
}

/// A sequence of per-interval traffic matrices over a site network.
#[derive(Debug, Clone)]
pub struct TrafficTrace {
    /// One matrix per 5-minute TE interval. All intervals share the same
    /// flow set (same indices), with varying demands.
    pub intervals: Vec<TrafficMatrix>,
}

impl TrafficTrace {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Applies a uniform scale to every interval (the paper's
    /// traffic-scale knob: 0.5 / 1 / 2).
    pub fn scale(&self, factor: f64) -> TrafficTrace {
        TrafficTrace {
            intervals: self.intervals.iter().map(|tm| tm.scale(factor)).collect(),
        }
    }
}

/// The gravity model over the sites of `net`: `num_intervals` matrices
/// over one flow set, plus the `(src_site, dst_site)` of each flow.
///
/// The ordered site pair `(i, j)` gets the base demand `mean_total ·
/// wᵢ·wⱼ / Σ_{a≠b} w_a·w_b`; the largest pairs covering `keep_fraction`
/// of the total are kept (exact ties in `(i, j)` order: the sort is
/// stable). Flows run between the *head switches* of a kept pair, the
/// concrete switch alternating by pair parity so both switches of a site
/// carry traffic. Per interval, each pair's base demand is multiplied by
/// one `jitter()` draw, in kept order, and split into up to three
/// priority flows per `priority_split` = (high, medium) fractions, the
/// rest low.
pub fn gravity_matrices(
    net: &SiteNetwork,
    weights: &[f64],
    mean_total: f64,
    keep_fraction: f64,
    priority_split: (f64, f64),
    num_intervals: usize,
    mut jitter: impl FnMut() -> f64,
) -> (Vec<TrafficMatrix>, Vec<(usize, usize)>) {
    let wsum: f64 = weights.iter().sum();
    // Normalizer over off-diagonal pairs so totals hit `mean_total`.
    let denom = wsum * wsum - weights.iter().map(|x| x * x).sum::<f64>();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for (i, wi) in weights.iter().enumerate() {
        for (j, wj) in weights.iter().enumerate() {
            if i != j {
                pairs.push((i, j, mean_total * wi * wj / denom));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
    let total: f64 = pairs.iter().map(|p| p.2).sum();
    let mut kept = Vec::new();
    let mut acc = 0.0;
    for p in pairs {
        if acc >= keep_fraction * total && !kept.is_empty() {
            break;
        }
        acc += p.2;
        kept.push(p);
    }

    let (hi, med) = priority_split;
    let mut flow_sites = Vec::new();
    let mut intervals = Vec::with_capacity(num_intervals);
    for t in 0..num_intervals {
        let mut tm = TrafficMatrix::new();
        for &(i, j, base) in &kept {
            let d = base * jitter();
            let src = net.switches[i][(i + j) % net.switches[i].len()];
            let dst = net.switches[j][(i + j) % net.switches[j].len()];
            let plan = [
                (Priority::High, d * hi),
                (Priority::Medium, d * med),
                (Priority::Low, d * (1.0 - hi - med)),
            ];
            for (p, dd) in plan {
                if dd > 0.0 {
                    tm.add_flow(src, dst, dd, p);
                    if t == 0 {
                        flow_sites.push((i, j));
                    }
                }
            }
        }
        intervals.push(tm);
    }
    (intervals, flow_sites)
}

/// Generates a gravity-model traffic trace over the sites of `net`:
/// [`gravity_matrices`] with seeded log-normal site weights and
/// log-normal interval-to-interval jitter.
pub fn gravity_trace(net: &SiteNetwork, cfg: &TrafficConfig, num_intervals: usize) -> TrafficTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = net.num_sites();
    assert!(n >= 2);
    let (hi, med) = cfg.priority_split;
    assert!(hi >= 0.0 && med >= 0.0 && hi + med <= 1.0);
    let w: Vec<f64> = (0..n)
        .map(|_| log_normal(&mut rng, 0.0, cfg.site_sigma))
        .collect();
    let (intervals, _) = gravity_matrices(
        net,
        &w,
        cfg.mean_total,
        cfg.keep_fraction,
        cfg.priority_split,
        num_intervals,
        || log_normal(&mut rng, 0.0, cfg.interval_sigma),
    );
    TrafficTrace { intervals }
}

/// Generates a single-priority trace (all flows [`Priority::High`]).
pub fn gravity_trace_single_priority(
    net: &SiteNetwork,
    cfg: &TrafficConfig,
    num_intervals: usize,
) -> TrafficTrace {
    let cfg = TrafficConfig {
        priority_split: (1.0, 0.0),
        ..cfg.clone()
    };
    gravity_trace(net, &cfg, num_intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lnet::{lnet, LNetConfig};

    fn small_net() -> SiteNetwork {
        lnet(&LNetConfig {
            sites: 6,
            ..LNetConfig::default()
        })
    }

    #[test]
    fn trace_shape_and_determinism() {
        let net = small_net();
        let cfg = TrafficConfig::default();
        let a = gravity_trace(&net, &cfg, 4);
        let b = gravity_trace(&net, &cfg, 4);
        assert_eq!(a.len(), 4);
        for (x, y) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(x.len(), y.len());
            assert!((x.total_demand() - y.total_demand()).abs() < 1e-12);
        }
    }

    #[test]
    fn intervals_share_flow_set() {
        let net = small_net();
        let trace = gravity_trace(&net, &TrafficConfig::default(), 3);
        let n0 = trace.intervals[0].len();
        for tm in &trace.intervals {
            assert_eq!(tm.len(), n0);
            for (i, f) in tm.iter() {
                let f0 = trace.intervals[0].flow(i);
                assert_eq!((f.src, f.dst, f.priority), (f0.src, f0.dst, f0.priority));
            }
        }
    }

    #[test]
    fn total_demand_near_mean() {
        let net = small_net();
        let cfg = TrafficConfig {
            mean_total: 50.0,
            keep_fraction: 1.0,
            interval_sigma: 0.0,
            ..TrafficConfig::default()
        };
        let trace = gravity_trace(&net, &cfg, 1);
        let total = trace.intervals[0].total_demand();
        assert!((total - 50.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn priority_split_fractions() {
        let net = small_net();
        let cfg = TrafficConfig {
            priority_split: (0.2, 0.3),
            interval_sigma: 0.0,
            keep_fraction: 1.0,
            ..TrafficConfig::default()
        };
        let trace = gravity_trace(&net, &cfg, 1);
        let tm = &trace.intervals[0];
        let total = tm.total_demand();
        assert!((tm.demand_of(Priority::High) / total - 0.2).abs() < 1e-9);
        assert!((tm.demand_of(Priority::Medium) / total - 0.3).abs() < 1e-9);
        assert!((tm.demand_of(Priority::Low) / total - 0.5).abs() < 1e-9);
    }

    #[test]
    fn keep_fraction_sparsifies() {
        let net = small_net();
        let dense = gravity_trace(
            &net,
            &TrafficConfig {
                keep_fraction: 1.0,
                ..TrafficConfig::default()
            },
            1,
        );
        let sparse = gravity_trace(
            &net,
            &TrafficConfig {
                keep_fraction: 0.5,
                ..TrafficConfig::default()
            },
            1,
        );
        assert!(sparse.intervals[0].len() < dense.intervals[0].len());
    }

    #[test]
    fn scale_trace() {
        let net = small_net();
        let trace = gravity_trace(&net, &TrafficConfig::default(), 2);
        let doubled = trace.scale(2.0);
        assert!(
            (doubled.intervals[0].total_demand() - 2.0 * trace.intervals[0].total_demand()).abs()
                < 1e-9
        );
    }

    #[test]
    fn single_priority_trace() {
        let net = small_net();
        let trace = gravity_trace_single_priority(&net, &TrafficConfig::default(), 1);
        let tm = &trace.intervals[0];
        assert!((tm.demand_of(Priority::High) - tm.total_demand()).abs() < 1e-9);
    }
}
