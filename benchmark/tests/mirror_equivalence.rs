//! Guards on the benchmark itself.
//!
//! The traced run is a mirror of `Controller::run_with_recovery` written
//! with the controller's public calls. If the loop in `ffc-ctrl` drifts,
//! the mirror must break loudly here — equal run fingerprints, equal
//! checkpoint counts, equal store fingerprints — instead of skewing the
//! per-layer numbers. The last test runs `--quick` on every workload in
//! both trace modes and holds the output against `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use ffc_benchmark::ctrl_run::{run_mirror, run_production, CtrlRun};
use ffc_benchmark::hostref::HostRef;
use ffc_benchmark::inputs::{durable, fleet_campaign, CtrlInputs, SetupTimes};
use ffc_benchmark::run::{run, RunArgs, WORKLOADS};
use ffc_benchmark::trace::Trace;
use ffc_cli::formats::{parse_topology, parse_traffic};
use ffc_core::FfcConfig;
use ffc_ctrl::{generate_poisson_events, ControllerConfig};
use ffc_fleet::{store_fingerprint, TelemetryStore};
use ffc_net::{layout_tunnels, LayoutConfig};
use ffc_sim::{FaultModel, SwitchModel};

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffc-benchmark-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `inp` on both paths and asserts they cannot be told apart.
fn assert_mirror_matches(inp: &CtrlInputs, tag: &str) {
    let dir = scratch(tag);
    let mut host = HostRef::new();
    let prod_durable = durable(inp, &dir.join("prod")).expect("durable");
    let prod_store = prod_durable.store_dir.clone();
    let prod: CtrlRun = run_production(inp, prod_durable, &mut host).expect("production run");

    let mirror_durable = durable(inp, &dir.join("mirror")).expect("durable");
    let mirror_store = mirror_durable.store_dir.clone();
    let mut tr = Trace::new();
    let (mirror, counters) =
        run_mirror(inp, mirror_durable, &mut tr, &mut host).expect("mirror run");

    assert_eq!(prod.report.fingerprint(), mirror.report.fingerprint());
    assert_eq!(prod.report.recorded_events, mirror.report.recorded_events);
    assert!(prod.checkpoints > inp.intervals, "{}", prod.checkpoints);
    assert_eq!(prod.checkpoints, mirror.checkpoints);
    assert_eq!(prod.checkpoints, counters.ckpt_writes);
    assert_eq!(prod.durable_error, None);
    assert_eq!(mirror.durable_error, None);

    let on_disk = |d: &Path| TelemetryStore::open(d).expect("open").fingerprint();
    assert_eq!(on_disk(&prod_store), on_disk(&mirror_store));
    assert_eq!(on_disk(&prod_store), store_fingerprint(&prod.records));
    assert_eq!(tr.count("interval"), inp.intervals);
    // Every interval, on both paths, came with a sample of the host.
    for run in [&prod, &mirror] {
        assert_eq!(run.slowdown.len(), inp.intervals);
        assert!(run.slowdown.iter().all(|s| s.is_finite() && *s > 0.0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mirror_matches_production_on_the_mini_fleet() {
    let inp =
        fleet_campaign(&repo_file("examples/data/mini.fleet.toml"), 7, 0, 12).expect("inputs");
    assert!(inp.checkpoints);
    assert_mirror_matches(&inp, "mini");
}

#[test]
fn mirror_matches_production_on_the_small_wan_under_faults() {
    let topo = parse_topology(&repo_file("examples/data/small.topo")).expect("topology");
    let base_tm = parse_traffic(&repo_file("examples/data/small.tm"), &topo).expect("traffic");
    let layout = LayoutConfig {
        tunnels_per_flow: 3,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&topo, &base_tm, &layout);
    let mut cfg = ControllerConfig::new(FfcConfig::new(1, 1, 0), SwitchModel::Realistic);
    cfg.seed = 11;
    let intervals = 16;
    let faults = FaultModel {
        link_failures_per_interval: 0.5,
        ..FaultModel::default()
    };
    let events = generate_poisson_events(&topo, &faults, 11, intervals, cfg.interval_secs, 0.1);
    let inp = CtrlInputs {
        topo,
        base_tm,
        tunnels,
        events,
        cfg,
        intervals,
        checkpoints: true,
        times: SetupTimes::default(),
    };
    assert_mirror_matches(&inp, "small");
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = repo_file("BENCHMARK.json");
    let from = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[from..];
    let body = &body[..body.find(']').expect("list end")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn quick_runs_pass_their_checks_and_print_what_benchmark_json_declares() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&RunArgs {
                workload: workload.to_string(),
                seed: 3,
                seconds: 15.0,
                trace,
                quick: true,
                scratch: scratch(&format!("quick-{workload}-{trace}")),
            })
            .unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
            assert!(
                outcome.correct,
                "{workload} trace {trace}: {:?}",
                outcome.check_failures
            );
            assert_eq!(outcome.failed, 0, "{workload} trace {trace}");
            assert!(outcome.attempted > 0);
            let mut printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let mut expected = declared(section);
            printed.sort();
            expected.sort();
            assert_eq!(printed, expected, "{workload} trace {trace}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: an end-to-end metric is zero"
                );
            }
        }
    }
}
