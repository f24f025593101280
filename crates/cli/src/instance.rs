//! The instance loader: the one place text becomes a topology, a traffic
//! matrix and a tunnel layout, whatever the text came from.

use ffc_ctrl::{ControllerConfig, EventTrace, TimedEvent};
use ffc_net::{layout_tunnels, LayoutConfig, Topology, TrafficMatrix, TunnelTable};

use ffc_cli::formats::{parse_topology, parse_traffic, write_topology, write_traffic};

use crate::args::Args;
use crate::{ctx, read_file, Fail};

/// A network to work on, with the text it was parsed from (traces and
/// checkpoint directories embed that text so they are self-contained).
pub(crate) struct Instance {
    pub topo: Topology,
    pub tm: TrafficMatrix,
    pub tunnels: TunnelTable,
    pub topo_text: String,
    pub traffic_text: String,
}

/// Everything a controller run is a function of: what a trace file
/// records, and what `ctrl run` builds from its flags.
pub(crate) struct RunInputs {
    pub inst: Instance,
    pub cfg: ControllerConfig,
    pub intervals: usize,
    pub events: Vec<TimedEvent>,
}

impl Instance {
    /// Parses both texts and lays out `tunnels_per_flow` tunnels per
    /// flow (0: none wanted); `*_name` is what a parse error is
    /// reported against.
    fn from_text(
        (topo_name, topo_text): (&str, String),
        (traffic_name, traffic_text): (&str, String),
        tunnels_per_flow: usize,
    ) -> Result<Self, Fail> {
        let topo = parse_topology(&topo_text).map_err(ctx(topo_name))?;
        let tm = parse_traffic(&traffic_text, &topo).map_err(ctx(traffic_name))?;
        let layout = LayoutConfig {
            tunnels_per_flow,
            ..LayoutConfig::default()
        };
        let tunnels = layout_tunnels(&topo, &tm, &layout);
        Ok(Instance {
            topo,
            tm,
            tunnels,
            topo_text,
            traffic_text,
        })
    }

    /// `--topo FILE [--traffic FILE]`; no traffic file is no flows.
    pub(crate) fn from_files(
        topo: &str,
        traffic: Option<&str>,
        tunnels_per_flow: usize,
    ) -> Result<Self, Fail> {
        let traffic_text = traffic.map(read_file).transpose()?.unwrap_or_default();
        Self::from_text(
            (topo, read_file(topo)?),
            (traffic.unwrap_or_default(), traffic_text),
            tunnels_per_flow,
        )
    }

    /// A trace file (or a checkpoint directory's `run.trace`): the
    /// instance it embeds, laid out as its header says, and the
    /// controller configuration that header pins.
    pub(crate) fn from_trace(path: &str) -> Result<RunInputs, Fail> {
        let trace = EventTrace::parse(&read_file(path)?).map_err(ctx(path))?;
        let inst = Self::from_text(
            (&format!("{path} [topo]"), trace.topo_text),
            (&format!("{path} [traffic]"), trace.traffic_text),
            trace.header.tunnels_per_flow,
        )?;
        Ok(RunInputs {
            inst,
            cfg: ControllerConfig::from_header(&trace.header),
            intervals: trace.header.intervals,
            events: trace.events,
        })
    }

    pub(crate) fn from_workload(w: &Workload, tunnels_per_flow: usize) -> Result<Self, Fail> {
        match w {
            Some((t, d)) => Self::from_files(t, Some(d), tunnels_per_flow),
            None => Self::builtin_snet(tunnels_per_flow),
        }
    }

    /// The built-in S-Net topology with gravity-model traffic, taken
    /// through the text formats like any other input, so the instance
    /// run is exactly the one an emitted trace embeds.
    fn builtin_snet(tunnels_per_flow: usize) -> Result<Self, Fail> {
        let net = ffc_topo::snet();
        let tm =
            ffc_topo::gravity_trace_single_priority(&net, &ffc_topo::TrafficConfig::default(), 1)
                .intervals
                .remove(0);
        Self::from_text(
            ("built-in S-Net", write_topology(&net.topo)),
            ("built-in traffic", write_traffic(&tm, &net.topo)),
            tunnels_per_flow,
        )
    }
}

/// The workload flags of `chaos` and `audit model`: `--topo FILE
/// --traffic FILE`, or neither for the built-in S-Net instance.
pub(crate) type Workload = Option<(String, String)>;

pub(crate) fn workload_flags(a: &mut Args) -> Result<Workload, Fail> {
    match (a.value("--topo")?, a.value("--traffic")?) {
        (Some(t), Some(d)) => Ok(Some((t, d))),
        (None, None) => Ok(None),
        _ => a.usage("needs both --topo and --traffic (or neither for built-in S-Net)"),
    }
}
