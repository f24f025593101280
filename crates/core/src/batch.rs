//! Parallel fan-out over independent TE/FFC solves.
//!
//! The repro harness and the tradeoff sweeps all share the same shape:
//! many *independent* LP solves — one per protection level `k`, one per
//! fault scenario, one per traffic-matrix interval. Each solve is
//! single-threaded, so the natural speedup is to fan the solves out
//! across OS threads. This module provides that fan-out on plain
//! `std::thread::scope` (no external crates):
//!
//! * [`par_map`] — an order-preserving parallel map over a slice, used
//!   by everything below.
//! * [`solve_te_batch`] — solve a batch of plain TE problems.
//! * [`solve_ffc_batch`] — solve FFC instances that differ in their
//!   protection configuration (the `k = 0..K` sweeps of Figures 9–12).
//! * [`solve_ffc_scenarios`] — verify one FFC configuration against a
//!   list of fault scenarios, chaining **warm starts** within each
//!   worker: consecutive scenarios differ only in which `a_{f,t}`
//!   variables are pinned to zero, so the optimal basis of one scenario
//!   is an excellent starting basis for the next.
//!
//! Every solve returns a [`BatchOutcome`] carrying the extracted
//! [`TeConfig`] together with the solver's [`SolveStats`], so harnesses
//! can aggregate iteration counts and wall time per scenario.

use crate::combined::{build_ffc_model, FfcConfig};
use crate::te::{TeConfig, TeModelBuilder, TeProblem};
use ffc_lp::{LpError, SimplexOptions, SolveStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Renders a panic payload as a message (string payloads pass through;
/// anything else gets a placeholder). Every crate that catches panics
/// renders them with this one.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The result of one solve in a batch: the extracted configuration plus
/// the solver's performance counters.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The optimal TE configuration.
    pub config: TeConfig,
    /// Iteration counts, refactorizations, pricing passes, wall time.
    pub stats: SolveStats,
}

/// Order-preserving parallel map over a slice.
///
/// Spawns up to `available_parallelism()` scoped threads that pull work
/// items off a shared atomic counter (dynamic load balancing — LP solve
/// times vary wildly between scenarios), and reassembles the results in
/// input order. Falls back to a serial loop for 0 or 1 items.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, std::thread::Result<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Catch per item so one panicking item cannot
                        // take down the worker (and with it every other
                        // item the worker would have pulled).
                        mine.push((i, catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    // Panics were deferred so sibling items could finish; re-raise the
    // first one (in input order) now that every item has run. Callers
    // that want panics as per-item errors use [`par_try_map`].
    tagged
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
        .collect()
}

/// [`par_map`] for fallible items, with **panic isolation**: a panic in
/// one item becomes that item's [`LpError::WorkerPanic`] while every
/// other item still completes and reports its own result. This is the
/// entry point the batch solvers below use, so one malformed scenario
/// (a shape-mismatched old config, a poisoned model) can no longer
/// abort a whole sweep.
pub fn par_try_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, LpError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, LpError> + Sync,
{
    par_map(items, |i, t| {
        catch_unwind(AssertUnwindSafe(|| f(i, t)))
            .unwrap_or_else(|p| Err(LpError::WorkerPanic(panic_message(p.as_ref()))))
    })
}

/// Solves a batch of independent TE problems in parallel.
///
/// Each problem is built and solved from scratch on a worker thread;
/// results come back in input order.
pub fn solve_te_batch(
    problems: &[TeProblem<'_>],
    opts: &SimplexOptions,
) -> Vec<Result<BatchOutcome, LpError>> {
    par_try_map(problems, |_, problem| {
        let builder = TeModelBuilder::new(*problem);
        let (config, sol) = builder.solve_with(opts, None)?;
        Ok(BatchOutcome {
            config,
            stats: sol.stats,
        })
    })
}

/// One FFC solve request: a problem instance plus the protection
/// configuration to solve it under.
#[derive(Debug, Clone)]
pub struct FfcJob<'a> {
    /// The TE problem instance.
    pub problem: TeProblem<'a>,
    /// The previous configuration (for update-consistency constraints).
    pub old: &'a TeConfig,
    /// The FFC protection levels and encoding.
    pub cfg: FfcConfig,
}

/// Solves a batch of independent FFC instances in parallel.
pub fn solve_ffc_batch(
    jobs: &[FfcJob<'_>],
    opts: &SimplexOptions,
) -> Vec<Result<BatchOutcome, LpError>> {
    par_try_map(jobs, |_, job| {
        let builder = build_ffc_model(job.problem, job.old, &job.cfg);
        let (config, sol) = builder.solve_with(opts, None)?;
        if job.problem.reserved.is_none() {
            crate::verify::debug_certify(
                job.problem.topo,
                job.problem.tm,
                job.problem.tunnels,
                &config,
                (job.cfg.kc > 0).then_some(job.old),
                &job.cfg,
                "solve_ffc_batch",
            );
        }
        Ok(BatchOutcome {
            config,
            stats: sol.stats,
        })
    })
}

/// Verifies one FFC configuration against many fault scenarios in
/// parallel, chaining warm starts within each worker.
///
/// The base model (no faults) is built and solved **once**. Each
/// worker then walks a contiguous chunk of scenarios: it clones the
/// base model, pins the `a_{f,t}` variables of tunnels killed by the
/// scenario to zero (bounds `[0, 0]` — the model *shape* never
/// changes), and re-solves from the most recent successful basis in its
/// chain.
///
/// Pinning bounds never touches the objective, so the previous optimal
/// basis stays **dual**-feasible: each re-solve restarts directly in the
/// dual simplex instead of repairing primal feasibility through phase 1.
///
/// The outer `Result` is the base solve; the inner per-scenario results
/// come back in input order.
pub fn solve_ffc_scenarios(
    problem: TeProblem<'_>,
    old: &TeConfig,
    cfg: &FfcConfig,
    scenarios: &[ffc_net::FaultScenario],
    opts: &SimplexOptions,
) -> Result<Vec<Result<BatchOutcome, LpError>>, LpError> {
    let builder = build_ffc_model(problem, old, cfg);
    let base_sol = builder.model.solve_with(opts, None)?;
    if problem.reserved.is_none() {
        crate::verify::debug_certify(
            problem.topo,
            problem.tm,
            problem.tunnels,
            &builder.extract(&base_sol),
            (cfg.kc > 0).then_some(old),
            cfg,
            "solve_ffc_scenarios(base)",
        );
    }

    let n = scenarios.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    let chunk = n.div_ceil(workers.max(1)).max(1);

    let solve_chunk = |slice: &[ffc_net::FaultScenario]| {
        let mut hint = base_sol.basis.clone();
        let mut out = Vec::with_capacity(slice.len());
        for scenario in slice {
            let result = if scenario.data_plane_clean() {
                // No tunnels die: the base solution is already optimal.
                Ok(BatchOutcome {
                    config: builder.extract(&base_sol),
                    stats: base_sol.stats,
                })
            } else {
                // Catch per scenario: one poisoned scenario yields its
                // own `Err` while the rest of the chunk (and its warm
                // chain) keeps going.
                let hint_ref = &hint;
                let attempt = catch_unwind(AssertUnwindSafe(
                    || -> Result<(BatchOutcome, ffc_lp::BasisStatuses), LpError> {
                        let mut model = builder.model.clone();
                        for (f, ti, tunnel) in builder.problem.tunnels.iter_all() {
                            if scenario.kills_tunnel(problem.topo, tunnel) {
                                model.set_bounds(builder.a[f.index()][ti], 0.0, 0.0);
                            }
                        }
                        let sol = model.solve_with(opts, Some(hint_ref))?;
                        let outcome = BatchOutcome {
                            config: builder.extract(&sol),
                            stats: sol.stats,
                        };
                        if problem.reserved.is_none() {
                            // Under pinned-dead tunnels only the
                            // fault-free checks are meaningful here.
                            crate::verify::debug_certify(
                                problem.topo,
                                problem.tm,
                                problem.tunnels,
                                &outcome.config,
                                None,
                                &FfcConfig::none(),
                                "solve_ffc_scenarios",
                            );
                        }
                        Ok((outcome, sol.basis))
                    },
                ));
                match attempt {
                    Ok(Ok((outcome, basis))) => {
                        hint = basis;
                        Ok(outcome)
                    }
                    Ok(Err(e)) => Err(e),
                    Err(p) => Err(LpError::WorkerPanic(panic_message(p.as_ref()))),
                }
            };
            out.push(result);
        }
        out
    };

    // One item per contiguous chunk, so each worker walks its own warm
    // chain; a chunk that panics outside its per-scenario catch yields
    // one `WorkerPanic` per scenario.
    let chunks: Vec<&[ffc_net::FaultScenario]> = scenarios.chunks(chunk).collect();
    let results = par_try_map(&chunks, |_, slice| Ok(solve_chunk(slice)));
    Ok(chunks
        .iter()
        .zip(results)
        .flat_map(|(slice, r)| r.unwrap_or_else(|e| vec![Err(e); slice.len()]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::te::solve_te;
    use ffc_net::prelude::*;

    /// A 5-node ring with chords (same shape as the combined-FFC tests).
    fn fixture() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut t = Topology::new();
        let ns = t.add_nodes(5, "r");
        for i in 0..5 {
            t.add_bidi(ns[i], ns[(i + 1) % 5], 10.0);
        }
        t.add_bidi(ns[0], ns[2], 10.0);
        t.add_bidi(ns[1], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 6.0, Priority::High);
        tm.add_flow(ns[1], ns[4], 6.0, Priority::High);
        tm.add_flow(ns[2], ns[0], 6.0, Priority::High);
        let tunnels = layout_tunnels(
            &t,
            &tm,
            &LayoutConfig {
                tunnels_per_flow: 3,
                p: 1,
                q: 3,
                reuse_penalty: 0.5,
            },
        );
        (t, tm, tunnels)
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn panic_message_renders_every_payload_kind() {
        let render = |f: fn()| panic_message(catch_unwind(f).expect_err("panics").as_ref());
        assert_eq!(render(|| panic!("static str")), "static str");
        assert_eq!(render(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            render(|| std::panic::panic_any(7u32)),
            "non-string panic payload"
        );
    }

    #[test]
    fn par_try_map_isolates_a_panicking_item() {
        let items: Vec<usize> = (0..8).collect();
        let results = par_try_map(&items, |_, &x| {
            if x == 3 {
                panic!("deliberate chaos at item {x}");
            }
            Ok(x * 10)
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                match r {
                    Err(LpError::WorkerPanic(msg)) => {
                        assert!(msg.contains("deliberate chaos"), "payload lost: {msg}")
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i * 10));
            }
        }
    }

    #[test]
    fn panicking_job_in_ffc_batch_yields_one_err_seven_ok() {
        let (topo, tm, tunnels) = fixture();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let old = TeConfig::zero(&tunnels);
        // A control-FFC job whose `old` config has the wrong shape trips
        // the shape assert inside `apply_control_ffc` — a real panic in
        // the middle of model construction on a worker thread.
        let bad_old = TeConfig {
            rate: vec![1.0],
            alloc: vec![vec![1.0]],
        };
        let jobs: Vec<FfcJob<'_>> = (0..8)
            .map(|i| FfcJob {
                problem,
                old: if i == 5 { &bad_old } else { &old },
                cfg: if i == 5 {
                    FfcConfig::new(1, 0, 0)
                } else {
                    FfcConfig::new(0, 1, 0)
                },
            })
            .collect();
        let batch = solve_ffc_batch(&jobs, &SimplexOptions::default());
        assert_eq!(batch.len(), 8);
        let ok = batch.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 7, "exactly the panicking job must fail: {batch:?}");
        match &batch[5] {
            Err(LpError::WorkerPanic(msg)) => {
                assert!(msg.contains("old config"), "unexpected payload: {msg}")
            }
            other => panic!("job 5 should report WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn batch_matches_serial_te() {
        let (topo, tm, tunnels) = fixture();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let problems = vec![problem; 4];
        let serial = solve_te(problem).unwrap();
        let batch = solve_te_batch(&problems, &SimplexOptions::default());
        assert_eq!(batch.len(), 4);
        for outcome in batch {
            let outcome = outcome.unwrap();
            assert!(
                (outcome.config.throughput() - serial.throughput()).abs() < 1e-6,
                "batch solve diverged from serial"
            );
            assert!(outcome.stats.iterations() > 0);
        }
    }

    #[test]
    fn ksweep_throughput_is_monotone_in_protection() {
        let (topo, tm, tunnels) = fixture();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let old = TeConfig::zero(&tunnels);
        let jobs: Vec<FfcJob<'_>> = (0..=2)
            .map(|k| FfcJob {
                problem,
                old: &old,
                cfg: FfcConfig::new(0, k, 0),
            })
            .collect();
        let outcomes = solve_ffc_batch(&jobs, &SimplexOptions::default());
        let tputs: Vec<f64> = outcomes
            .into_iter()
            .map(|o| o.unwrap().config.throughput())
            .collect();
        for w in tputs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-7,
                "more protection must not increase throughput: {tputs:?}"
            );
        }
    }

    #[test]
    fn scenario_sweep_matches_serial_fault_solves() {
        let (topo, tm, tunnels) = fixture();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let old = TeConfig::zero(&tunnels);
        let cfg = FfcConfig::new(0, 1, 0);

        let links: Vec<LinkId> = topo.links().collect();
        let mut scenarios = vec![FaultScenario::none()];
        scenarios.extend(links.iter().map(|&l| FaultScenario::links([l])));

        let batch =
            solve_ffc_scenarios(problem, &old, &cfg, &scenarios, &SimplexOptions::default())
                .unwrap();
        assert_eq!(batch.len(), scenarios.len());
        for (scenario, outcome) in scenarios.iter().zip(&batch) {
            let outcome = outcome.as_ref().unwrap();
            let serial =
                crate::combined::solve_ffc_with_faults(problem, &old, &cfg, scenario).unwrap();
            assert!(
                (outcome.config.throughput() - serial.throughput()).abs() < 1e-6,
                "scenario {scenario:?}: warm {} vs cold {}",
                outcome.config.throughput(),
                serial.throughput()
            );
        }
    }

    #[test]
    fn scenario_sweep_engages_the_dual_and_matches_cold_solves() {
        let (topo, tm, tunnels) = fixture();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let old = TeConfig::zero(&tunnels);
        let cfg = FfcConfig::new(0, 1, 0);
        let links: Vec<LinkId> = topo.links().collect();
        let scenarios: Vec<FaultScenario> =
            links.iter().map(|&l| FaultScenario::links([l])).collect();

        let warm = solve_ffc_scenarios(problem, &old, &cfg, &scenarios, &SimplexOptions::default())
            .unwrap();
        let mut dual_iters = 0;
        let mut dual_flips = 0;
        for (scenario, w) in scenarios.iter().zip(&warm) {
            let w = w.as_ref().unwrap();
            let cold =
                crate::combined::solve_ffc_with_faults(problem, &old, &cfg, scenario).unwrap();
            assert!(
                (w.config.throughput() - cold.throughput()).abs() < 1e-6,
                "scenario {scenario:?}: warm chain {} vs cold {}",
                w.config.throughput(),
                cold.throughput()
            );
            dual_iters += w.stats.dual_iterations;
            dual_flips += w.stats.dual_bound_flips;
        }
        assert!(
            dual_iters > 0 || dual_flips > 0,
            "the warm chain never engaged the dual simplex"
        );
    }

    #[test]
    fn ffc_batch_matches_individual_solves() {
        let (topo, tm, tunnels) = fixture();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let old = TeConfig::zero(&tunnels);
        let jobs: Vec<FfcJob<'_>> = (0..=1)
            .map(|k| FfcJob {
                problem,
                old: &old,
                cfg: FfcConfig::new(0, k, 0),
            })
            .collect();
        let batch = solve_ffc_batch(&jobs, &SimplexOptions::default());
        for (job, outcome) in jobs.iter().zip(batch) {
            let serial = crate::combined::solve_ffc(job.problem, job.old, &job.cfg).unwrap();
            assert!((outcome.unwrap().config.throughput() - serial.throughput()).abs() < 1e-6);
        }
    }
}
