//! Execution of congestion-free multi-step updates (§8.5, Figure 16).
//!
//! A multi-step plan `A⁰ → … → Aᵐ` is pushed step by step. Without FFC,
//! step `i+1` may only start once **every** switch has applied step `i`
//! — a failed or slow switch stalls the whole update. With FFC (plan
//! computed per §5.2 with tolerance `kc`), the controller may advance as
//! soon as at most `kc` switches are still behind, because the plan is
//! congestion-free with up to `kc` switches stuck at *any* earlier
//! configuration.
//!
//! The execution model: switch `s` applies its steps sequentially —
//! `c_s(i) = max(c_s(i−1), A_{i−1}) + d_{s,i}` where `A_{i−1}` is when
//! the controller issued step `i` and `d` a sampled update delay. A
//! configuration failure is sampled **once per switch per update** (a
//! broken switch stays broken for the whole window — failures are
//! switch-state, not per-message coin flips) and makes every `d_{s,·}`
//! infinite; at the 0.1–1% rates of §1, ~50 participating switches give
//! the paper's ≈40% chance that some switch blocks. The controller
//! advances at
//!
//! * non-FFC: `A_i = max_s c_s(i)`
//! * FFC:     `A_i = (n − kc)-th smallest c_s(i)`
//!
//! Completion times are capped at the TE interval (300 s), matching the
//! paper's "40% of updates do not finish within 300 seconds".

use rand::Rng;

use crate::switch_model::SwitchModel;

/// Parameters of one multi-step update execution.
#[derive(Debug, Clone)]
pub struct UpdateExecConfig {
    /// Number of switches that must apply each step (the paper's
    /// networks update ~50 switches per TE change).
    pub num_switches: usize,
    /// Number of plan steps `m`.
    pub num_steps: usize,
    /// Cumulative failures tolerated (0 = non-FFC).
    pub kc: usize,
    /// Rule changes per switch per step.
    pub rules_per_step: usize,
    /// Wall-clock cap (the TE interval, 300 s).
    pub cap_secs: f64,
}

impl Default for UpdateExecConfig {
    fn default() -> Self {
        Self {
            num_switches: 50,
            num_steps: 3,
            kc: 0,
            rules_per_step: 35,
            cap_secs: 300.0,
        }
    }
}

/// Simulates one multi-step update; returns the completion time in
/// seconds, capped at `cap_secs` (a capped result means "did not
/// finish", as in Fig 16).
pub fn simulate_update<R: Rng + ?Sized>(
    rng: &mut R,
    model: SwitchModel,
    cfg: &UpdateExecConfig,
) -> f64 {
    let n = cfg.num_switches;
    assert!(n >= 1);
    // One failure draw per switch per update window.
    let broken: Vec<bool> = (0..n)
        .map(|_| rng.gen::<f64>() < model.config_failure_rate())
        .collect();
    // Per-switch completion time of the *previous* step.
    let mut c: Vec<f64> = vec![0.0; n];
    let mut issue = 0.0f64; // A_{i-1}

    for _step in 0..cfg.num_steps {
        for (s, cs) in c.iter_mut().enumerate() {
            let d = if broken[s] {
                f64::INFINITY
            } else {
                model.sample_update_delay(rng, cfg.rules_per_step)
            };
            *cs = (cs.max(issue)) + d;
        }
        // Advance time.
        issue = if cfg.kc == 0 {
            c.iter().cloned().fold(0.0, f64::max)
        } else {
            // (n - kc)-th smallest completion.
            let mut sorted = c.clone();
            sorted.sort_by(f64::total_cmp);
            let idx = n.saturating_sub(cfg.kc + 1).min(n - 1);
            sorted[idx]
        };
        if issue >= cfg.cap_secs {
            return cfg.cap_secs;
        }
    }
    issue.min(cfg.cap_secs)
}

/// Runs many independent update executions and returns the completion
/// times (for CDF construction).
pub fn update_time_samples<R: Rng + ?Sized>(
    rng: &mut R,
    model: SwitchModel,
    cfg: &UpdateExecConfig,
    trials: usize,
) -> Vec<f64> {
    (0..trials)
        .map(|_| simulate_update(rng, model, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::percentile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ffc_is_never_slower() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = UpdateExecConfig::default();
        let non = update_time_samples(&mut rng, SwitchModel::Optimistic, &base, 300);
        let mut rng = StdRng::seed_from_u64(1);
        let ffc_cfg = UpdateExecConfig { kc: 2, ..base };
        let ffc = update_time_samples(&mut rng, SwitchModel::Optimistic, &ffc_cfg, 300);
        // Same seed -> same delay samples: FFC's order statistic is
        // dominated by the max.
        for (f, n) in ffc.iter().zip(&non) {
            assert!(f <= n, "ffc {f} > non {n}");
        }
    }

    /// §8.5 with the Realistic model: a large fraction of non-FFC
    /// updates never finish (any of ~50 switches failing in any of the
    /// steps stalls forever), while FFC (kc=2) nearly always finishes.
    #[test]
    fn realistic_non_ffc_often_stalls() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = UpdateExecConfig::default();
        let non = update_time_samples(&mut rng, SwitchModel::Realistic, &base, 400);
        let stalled = non.iter().filter(|&&t| t >= base.cap_secs).count() as f64 / 400.0;
        // 1 - 0.99^(50*3) ≈ 78%; no retries here: expect
        // a large stall fraction (the paper reports 40% for its mix).
        assert!(stalled > 0.3, "stalled fraction {stalled}");

        let mut rng = StdRng::seed_from_u64(2);
        let ffc_cfg = UpdateExecConfig { kc: 2, ..base };
        let ffc = update_time_samples(&mut rng, SwitchModel::Realistic, &ffc_cfg, 400);
        let ffc_stalled = ffc.iter().filter(|&&t| t >= base.cap_secs).count() as f64 / 400.0;
        assert!(
            ffc_stalled < stalled / 2.0,
            "ffc stalled {ffc_stalled} vs non {stalled}"
        );
    }

    /// §8.5 Optimistic: no failures, but FFC skips stragglers — the
    /// paper reports a ~3x median speedup.
    #[test]
    fn optimistic_ffc_speedup() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = UpdateExecConfig::default();
        let non = update_time_samples(&mut rng, SwitchModel::Optimistic, &base, 500);
        let ffc_cfg = UpdateExecConfig { kc: 2, ..base };
        let ffc = update_time_samples(&mut rng, SwitchModel::Optimistic, &ffc_cfg, 500);
        let speedup = percentile(&non, 0.5) / percentile(&ffc, 0.5);
        assert!(
            speedup > 1.2 && speedup < 10.0,
            "median speedup {speedup} out of plausible range"
        );
    }

    #[test]
    fn more_steps_take_longer() {
        let mut rng = StdRng::seed_from_u64(4);
        let short = UpdateExecConfig {
            num_steps: 1,
            ..UpdateExecConfig::default()
        };
        let long = UpdateExecConfig {
            num_steps: 5,
            ..UpdateExecConfig::default()
        };
        let a: f64 = update_time_samples(&mut rng, SwitchModel::Optimistic, &short, 200)
            .iter()
            .sum();
        let mut rng = StdRng::seed_from_u64(4);
        let b: f64 = update_time_samples(&mut rng, SwitchModel::Optimistic, &long, 200)
            .iter()
            .sum();
        assert!(b > a);
    }

    #[test]
    fn single_switch_edge_case() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = UpdateExecConfig {
            num_switches: 1,
            kc: 2,
            ..UpdateExecConfig::default()
        };
        let t = simulate_update(&mut rng, SwitchModel::Optimistic, &cfg);
        assert!(t > 0.0 && t < cfg.cap_secs);
    }
}
