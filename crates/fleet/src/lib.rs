//! # ffc-fleet — fleet-scale digital twin and telemetry store
//!
//! The other crates answer "is one interval safe?"; this crate
//! answers "how does the whole system behave over a week?". It has
//! two halves:
//!
//! * A **workload engine** ([`spec`], [`workload`]): a deterministic,
//!   seeded gravity-model demand generator driven by per-site user
//!   populations — diurnal and weekly cycles staggered by time zone,
//!   flash crowds, regional growth trends — compiled into the
//!   controller's native [`ffc_ctrl::Event`] stream from a
//!   [`FleetSpec`] campaign file.
//! * A **telemetry store** ([`store`], [`report`]): per-interval JSONL
//!   that graduates into compact, checksummed, crash-recoverable
//!   columnar segments behind the [`TelemetryStore`] API, with
//!   [`build_report`] turning a week of records into top-N text/HTML
//!   summaries in well under a second, and a [`Digest`] of what the
//!   campaign decided and what deciding it cost, which `ffc digest diff`
//!   compares across binaries.
//!
//! [`run_fleet`] wires the halves together: spec → topology + tunnels
//! → controller run with a [`StoreWriter`] sink → sealed store. The
//! whole pipeline is deterministic — the same spec produces a
//! bit-identical store fingerprint on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod report;
pub mod spec;
pub mod store;
pub mod workload;

pub use digest::{Class, Digest, DigestDiff};
pub use report::{build_report, Report, ReportOptions};
pub use spec::{CycleSpec, FleetEvent, FleetSpec, SiteSpec, TopologySpec};
pub use store::{
    store_fingerprint, StoreRecord, StoreWriter, TelemetryStore, DEFAULT_SEGMENT_INTERVALS,
    STORE_SCHEMA_VERSION,
};
pub use workload::{
    build_workload, demand_events, shape_demand_events, site_activity, splitmix64, DemandShape,
    Workload,
};

use std::path::Path;

use ffc_core::FfcConfig;
use ffc_ctrl::{Controller, ControllerConfig};
use ffc_net::{layout_tunnels, LayoutConfig, Topology};
use ffc_sim::SwitchModel;
use ffc_topo::{lnet, snet, LNetConfig, SiteNetwork};

/// Builds the topology a spec names.
pub fn build_topology(spec: &FleetSpec) -> SiteNetwork {
    match spec.topology {
        TopologySpec::Snet => snet(),
        TopologySpec::Lnet(sites) => lnet(&LNetConfig {
            sites,
            ..LNetConfig::default()
        }),
    }
}

/// Directed-link display names (`src->dst`, `#n`-suffixed for
/// parallel links), indexed like the topology's links.
pub fn link_names(topo: &Topology) -> Vec<String> {
    let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    topo.links()
        .map(|e| {
            let l = topo.link(e);
            let base = format!("{}->{}", topo.node_name(l.src), topo.node_name(l.dst));
            let n = seen.entry(base.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                base
            } else {
                format!("{base}#{n}")
            }
        })
        .collect()
}

/// What [`run_fleet`] hands back after a campaign completes.
#[derive(Debug, Clone)]
pub struct FleetRunSummary {
    /// Intervals simulated.
    pub intervals: usize,
    /// Flows in the compiled workload.
    pub flows: usize,
    /// Events compiled from the spec (demand updates + faults).
    pub events: usize,
    /// Sealed store segments.
    pub segments: usize,
    /// The store's deterministic fingerprint (read back from disk, so
    /// it also certifies the round trip).
    pub fingerprint: String,
    /// Total volume the data plane delivered.
    pub delivered: f64,
    /// Total volume lost (congestion + blackhole).
    pub lost: f64,
    /// Intervals with degraded protection.
    pub degraded_intervals: usize,
}

/// Runs a full campaign: compiles the spec's workload, drives the
/// controller + [`ffc_sim::DrivenSim`] over it with a store sink, and
/// seals the store in `out_dir`.
pub fn run_fleet(spec: &FleetSpec, out_dir: &Path) -> Result<FleetRunSummary, String> {
    let net = build_topology(spec);
    let wl = build_workload(spec, &net)?;
    let events = demand_events(spec, &wl, &net)?;

    let layout = LayoutConfig {
        tunnels_per_flow: spec.tunnels_per_flow,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&net.topo, &wl.base_tm, &layout);

    let (kc, ke, kv) = spec.protection;
    let mut cfg = ControllerConfig::new(FfcConfig::new(kc, ke, kv), SwitchModel::Realistic);
    cfg.seed = spec.seed;
    cfg.interval_secs = spec.interval_secs;

    let mut writer = StoreWriter::create(out_dir, link_names(&net.topo))?;
    let mut ctrl = Controller::new(&net.topo, &tunnels, cfg);
    let report = ctrl.run_with_sink(
        &wl.base_tm,
        &events,
        spec.intervals,
        false,
        Some(&mut writer),
    );
    let segments = writer.finish()?;

    let store = TelemetryStore::open(out_dir)?;
    Ok(FleetRunSummary {
        intervals: spec.intervals,
        flows: wl.base_tm.len(),
        events: events.len(),
        segments,
        fingerprint: store.fingerprint(),
        delivered: report.telemetry.iter().map(|t| t.delivered).sum(),
        lost: report
            .telemetry
            .iter()
            .map(|t| t.lost_congestion + t.lost_blackhole)
            .sum(),
        degraded_intervals: report.telemetry.iter().filter(|t| t.degraded).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffc-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mini_spec() -> FleetSpec {
        FleetSpec {
            topology: TopologySpec::Lnet(4),
            intervals: 6,
            mean_total: 40.0,
            keep_fraction: 0.8,
            tunnels_per_flow: 2,
            protection: (0, 1, 0),
            ..FleetSpec::default()
        }
    }

    #[test]
    fn link_names_disambiguate_parallel_links() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.add_link(a, b, 1.0);
        topo.add_link(a, b, 1.0);
        topo.add_link(b, a, 1.0);
        let names = link_names(&topo);
        assert_eq!(names, vec!["a->b", "a->b#2", "b->a"]);
    }

    #[test]
    fn run_fleet_is_deterministic_end_to_end() {
        let spec = mini_spec();
        let d1 = tmpdir("run1");
        let d2 = tmpdir("run2");
        let a = run_fleet(&spec, &d1).expect("run 1");
        let b = run_fleet(&spec, &d2).expect("run 2");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.intervals, 6);
        assert_eq!(a.segments, 1);
        assert!(a.flows > 0 && a.events > 0);
        assert!(a.delivered > 0.0);

        // The stored records agree field-for-field up to wall-clock
        // solve time (raw f64 bits in segments; excluded, like the
        // fingerprint excludes it, because it varies run to run).
        let r1 = TelemetryStore::open(&d1).expect("open 1");
        let r2 = TelemetryStore::open(&d2).expect("open 2");
        for (x, y) in r1.records().iter().zip(r2.records()) {
            let mut t = y.telemetry.clone();
            t.solve_ms = x.telemetry.solve_ms;
            assert_eq!(x.telemetry, t);
            assert_eq!(x.link_util, y.link_util);
        }

        // A different seed produces a different fingerprint.
        let d3 = tmpdir("run3");
        let c = run_fleet(
            &FleetSpec {
                seed: 43,
                ..mini_spec()
            },
            &d3,
        )
        .expect("run 3");
        assert_ne!(a.fingerprint, c.fingerprint);

        for d in [d1, d2, d3] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn report_renders_from_a_real_run() {
        let spec = mini_spec();
        let dir = tmpdir("report");
        run_fleet(&spec, &dir).expect("run");
        let store = TelemetryStore::open(&dir).expect("open");
        assert_eq!(store.len(), 6);
        assert!(store.recovery_notes.is_empty());
        let report = build_report(
            &store,
            &ReportOptions {
                top_links: 5,
                include_timing: false,
            },
        );
        let text = report.to_text(&ReportOptions {
            top_links: 5,
            include_timing: false,
        });
        assert!(text.contains("6 intervals"), "{text}");
        assert!(report.links.len() <= 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
