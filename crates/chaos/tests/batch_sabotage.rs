//! Chaos coverage for the independent-jobs batch driver
//! [`ffc_core::solve_ffc_batch`] under deterministically injected
//! solver sabotage. Unlike the scenario sweep (which shares
//! warm-start state inside worker chunks), every batch job is a cold
//! solve on its own worker — so the invariants are sharper:
//!
//! * **Panic isolation**: an `inject_panic_after` hit inside one job
//!   becomes that job's own `LpError::WorkerPanic`; the batch call
//!   itself never unwinds.
//! * **Blast-radius zero**: jobs that survive a sabotaged campaign
//!   return *bit-identical* configurations to the clean run — sabotage
//!   of a neighbor must not perturb an independent solve.
//! * **Certified outcomes only**: every surviving `Ok` passes the
//!   independent `ffc-audit` certifier at its own protection level.
//!
//! Campaign injection points are derived from the chaos injector's
//! seeded splitmix stream, so the set is reproducible but not
//! hand-picked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ffc_chaos::injector::{campaign_seed, splitmix64};
use ffc_core::{solve_ffc_batch, FfcConfig, FfcJob, TeConfig, TeProblem};
use ffc_lp::{LpError, SimplexOptions};
use ffc_net::prelude::*;

/// 5-node ring with chords: multi-tunnel flows so each protection
/// level does real pivoting, and higher levels do strictly more of it.
fn ring() -> (Topology, TrafficMatrix, TunnelTable, TeConfig) {
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
    let old = ffc_core::solve_te(TeProblem::new(&t, &tm, &tunnels)).unwrap();
    (t, tm, tunnels, old)
}

/// A batch of jobs at graduated protection levels, sharing one problem
/// instance — distinct models, distinct iteration counts.
fn job_configs() -> Vec<FfcConfig> {
    vec![
        FfcConfig::new(0, 0, 0).exact(),
        FfcConfig::new(0, 1, 0).exact(),
        FfcConfig::new(1, 1, 0).exact(),
        FfcConfig::new(0, 2, 0).exact(),
        FfcConfig::new(0, 1, 1).exact(),
    ]
}

fn make_jobs<'a>(problem: TeProblem<'a>, old: &'a TeConfig, cfgs: &[FfcConfig]) -> Vec<FfcJob<'a>> {
    cfgs.iter()
        .map(|cfg| FfcJob {
            problem,
            old,
            cfg: cfg.clone(),
        })
        .collect()
}

fn assert_certified(
    t: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    old: &TeConfig,
    cfg: &FfcConfig,
    config: &TeConfig,
    ctx: &str,
) {
    let cert = ffc_core::certify_config(t, tm, tunnels, config, Some(old), cfg);
    assert!(
        cert.ok(),
        "{ctx}: cfg=({},{},{}) uncertified: {}",
        cfg.kc,
        cfg.ke,
        cfg.kv,
        cert.status_str()
    );
}

#[test]
fn batch_panic_campaigns_isolate_jobs_and_certify_survivors() {
    let (t, tm, tunnels, old) = ring();
    let problem = TeProblem::new(&t, &tm, &tunnels);
    let cfgs = job_configs();
    let jobs = make_jobs(problem, &old, &cfgs);

    // Clean batch: every job solves, certifies, and reports its own
    // iteration count — the spread is what lets a fixed injection point
    // hit some jobs and miss others.
    let clean = solve_ffc_batch(&jobs, &SimplexOptions::default());
    assert_eq!(clean.len(), jobs.len());
    let mut iters = Vec::new();
    for (cfg, outcome) in cfgs.iter().zip(&clean) {
        let o = outcome.as_ref().expect("clean batch must solve every job");
        assert_certified(&t, &tm, &tunnels, &old, cfg, &o.config, "clean batch");
        iters.push(o.stats.iterations());
    }
    let min_it = *iters.iter().min().unwrap();
    let max_it = *iters.iter().max().unwrap();
    assert!(
        min_it < max_it,
        "graduated protection levels must spread iteration counts ({iters:?})"
    );

    // Mid-spread panic injection: jobs whose solve reaches the point
    // die as their own WorkerPanic; the others finish bit-identical to
    // the clean run and still certify.
    let point = min_it + 1;
    let sab = SimplexOptions {
        inject_panic_after: point,
        ..SimplexOptions::default()
    };
    let outcomes = catch_unwind(AssertUnwindSafe(|| solve_ffc_batch(&jobs, &sab)))
        .expect("a worker panic escaped solve_ffc_batch");
    assert_eq!(outcomes.len(), jobs.len());
    let mut panics = 0usize;
    let mut oks = 0usize;
    for (i, (cfg, outcome)) in cfgs.iter().zip(&outcomes).enumerate() {
        match outcome {
            Ok(o) => {
                oks += 1;
                assert!(
                    iters[i] < point,
                    "job {i} reached the injection point yet survived"
                );
                assert_certified(&t, &tm, &tunnels, &old, cfg, &o.config, "panic campaign");
                let clean_cfg = &clean[i].as_ref().unwrap().config;
                assert_eq!(
                    o.config.rate, clean_cfg.rate,
                    "job {i}: neighbor sabotage perturbed an independent solve"
                );
                assert_eq!(o.config.alloc, clean_cfg.alloc, "job {i}: alloc drifted");
            }
            Err(LpError::WorkerPanic(msg)) => {
                assert!(
                    iters[i] >= point,
                    "job {i} panicked below the injection point"
                );
                assert!(msg.contains("injected solver panic"), "payload lost: {msg}");
                panics += 1;
            }
            Err(other) => panic!("job {i}: expected WorkerPanic, got {other:?}"),
        }
    }
    assert!(panics > 0, "injection at {point} never fired");
    assert!(oks > 0, "no job survived — isolation not witnessed");
}

#[test]
fn batch_singular_campaigns_recover_or_fail_in_isolation() {
    let (t, tm, tunnels, old) = ring();
    let problem = TeProblem::new(&t, &tm, &tunnels);
    let cfgs = job_configs();
    let jobs = make_jobs(problem, &old, &cfgs);
    let clean = solve_ffc_batch(&jobs, &SimplexOptions::default());
    let iters: Vec<usize> = clean
        .iter()
        .map(|o| o.as_ref().unwrap().stats.iterations())
        .collect();
    let max_it = *iters.iter().max().unwrap();

    // Seeded singular-refactorization campaigns across the whole
    // iteration spread. A hit job either recovers through the solver's
    // retry ladder (then it must certify at its own protection level)
    // or errs alone; a panic is never acceptable for a singular fault.
    let mut hits = 0usize;
    for i in 0..6 {
        let point = 1 + (splitmix64(campaign_seed(0xBA7C_5EED, i)) % max_it as u64) as usize;
        let sab = SimplexOptions {
            inject_singular_after: point,
            ..SimplexOptions::default()
        };
        let outcomes = catch_unwind(AssertUnwindSafe(|| solve_ffc_batch(&jobs, &sab)))
            .expect("singular injection must never unwind solve_ffc_batch");
        for (j, (cfg, outcome)) in cfgs.iter().zip(&outcomes).enumerate() {
            match outcome {
                Ok(o) => {
                    assert_certified(&t, &tm, &tunnels, &old, cfg, &o.config, "singular campaign");
                    if o.stats.iterations() != iters[j] {
                        // Recovered through the retry ladder.
                        hits += 1;
                    }
                }
                Err(LpError::WorkerPanic(msg)) => {
                    panic!("job {j}: singular fault escalated to a panic: {msg}")
                }
                Err(_) => {
                    assert!(
                        iters[j] >= point,
                        "job {j} failed below the injection point"
                    );
                    hits += 1;
                }
            }
        }
    }
    assert!(hits > 0, "no seeded singular campaign ever hit a job");
}
