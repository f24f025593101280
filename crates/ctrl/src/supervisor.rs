//! Supervised controller execution: a restart budget with exponential
//! backoff around a crash-prone run attempt.
//!
//! The supervisor is deliberately dumb — it knows nothing about
//! checkpoints. Each attempt closure decides for itself how to start
//! (fresh, or resumed from the newest valid checkpoint), which is what
//! makes the same supervisor serve both `ffc ctrl run --supervise` and
//! the chaos harness's kill–resume campaigns. A panic inside the
//! attempt is caught, the supervisor backs off (exponentially, capped),
//! and the next attempt runs; when the restart budget is exhausted the
//! last panic is reported instead of resuming a crash loop forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use ffc_core::panic_message;

/// Restart policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Restarts allowed after the initial attempt (so `max_restarts =
    /// 2` permits three attempts total).
    pub max_restarts: usize,
    /// Backoff before the first restart; doubles per restart.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(10),
        }
    }
}

/// The wait before restart number `restart` (0-based): `base * 2^n`,
/// capped. Pure so the policy is testable without sleeping.
pub fn restart_backoff(cfg: &SupervisorConfig, restart: usize) -> Duration {
    let factor = 1u32.checked_shl(restart.min(31) as u32).unwrap_or(u32::MAX);
    cfg.backoff_base.saturating_mul(factor).min(cfg.backoff_cap)
}

/// How a supervised run ended.
#[derive(Debug)]
pub enum SupervisedOutcome<T> {
    /// An attempt ran to completion.
    Completed(T),
    /// Every attempt crashed; the budget is spent.
    BudgetExhausted {
        /// Message of the final panic.
        last_panic: String,
    },
}

/// What the supervisor did.
#[derive(Debug)]
pub struct Supervised<T> {
    /// Completion or exhaustion.
    pub outcome: SupervisedOutcome<T>,
    /// Restarts performed (0 if the first attempt completed).
    pub restarts: usize,
    /// Panic message of each crashed attempt, in order.
    pub crashes: Vec<String>,
    /// Backoff applied before each restart.
    pub backoffs: Vec<Duration>,
}

impl<T> Supervised<T> {
    /// The completed result, if any attempt finished.
    pub fn into_result(self) -> Result<T, String> {
        match self.outcome {
            SupervisedOutcome::Completed(v) => Ok(v),
            SupervisedOutcome::BudgetExhausted { last_panic } => Err(format!(
                "restart budget exhausted after {} crashes; last: {last_panic}",
                self.crashes.len()
            )),
        }
    }
}

/// Runs `attempt` under the restart policy. The closure receives the
/// 0-based attempt number; attempts after the first should resume from
/// durable state rather than starting over.
pub fn run_supervised<T>(
    cfg: &SupervisorConfig,
    mut attempt: impl FnMut(usize) -> T,
) -> Supervised<T> {
    let mut crashes = Vec::new();
    let mut backoffs = Vec::new();
    for attempt_no in 0..=cfg.max_restarts {
        match catch_unwind(AssertUnwindSafe(|| attempt(attempt_no))) {
            Ok(v) => {
                return Supervised {
                    outcome: SupervisedOutcome::Completed(v),
                    restarts: attempt_no,
                    crashes,
                    backoffs,
                }
            }
            Err(p) => {
                crashes.push(panic_message(p.as_ref()));
                if attempt_no < cfg.max_restarts {
                    let wait = restart_backoff(cfg, attempt_no);
                    backoffs.push(wait);
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
            }
        }
    }
    let last_panic = crashes.last().cloned().unwrap_or_default();
    Supervised {
        outcome: SupervisedOutcome::BudgetExhausted { last_panic },
        restarts: cfg.max_restarts,
        crashes,
        backoffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(max_restarts: usize) -> SupervisorConfig {
        SupervisorConfig {
            max_restarts,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    #[test]
    fn first_attempt_success_needs_no_restart() {
        let sup = run_supervised(&fast(3), |n| n * 10);
        assert_eq!(sup.restarts, 0);
        assert!(sup.crashes.is_empty());
        assert_eq!(sup.into_result().expect("completed"), 0);
    }

    #[test]
    fn crashes_are_retried_until_an_attempt_completes() {
        let sup = run_supervised(&fast(3), |n| {
            if n < 2 {
                panic!("boom {n}");
            }
            n
        });
        assert_eq!(sup.restarts, 2);
        assert_eq!(
            sup.crashes,
            vec!["boom 0".to_string(), "boom 1".to_string()]
        );
        assert_eq!(sup.into_result().expect("third attempt"), 2);
    }

    #[test]
    fn budget_exhaustion_reports_the_last_panic() {
        let sup = run_supervised(&fast(2), |n| -> usize { panic!("crash {n}") });
        assert_eq!(sup.restarts, 2);
        assert_eq!(sup.crashes.len(), 3, "initial attempt + 2 restarts");
        let err = sup.into_result().expect_err("exhausted");
        assert!(err.contains("crash 2"), "{err}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SupervisorConfig {
            max_restarts: 10,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(350),
        };
        assert_eq!(restart_backoff(&cfg, 0), Duration::from_millis(100));
        assert_eq!(restart_backoff(&cfg, 1), Duration::from_millis(200));
        assert_eq!(restart_backoff(&cfg, 2), Duration::from_millis(350));
        assert_eq!(restart_backoff(&cfg, 3), Duration::from_millis(350));
        // Huge restart counts saturate instead of overflowing.
        assert_eq!(restart_backoff(&cfg, 500), Duration::from_millis(350));
    }

    #[test]
    fn string_and_str_panic_payloads_both_surface() {
        let sup = run_supervised(&fast(0), |_| -> usize {
            panic!("{}", String::from("owned"))
        });
        assert!(sup.crashes[0].contains("owned"));
        let sup = run_supervised(&fast(0), |_| -> usize { panic!("literal") });
        assert_eq!(sup.crashes[0], "literal");
    }
}
