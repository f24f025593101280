//! The instance `crash_recovery.rs` and `incremental_replay.rs` share:
//! a campaign whose demand events make two small flows trade places, so
//! the greedy §6 mice set changes identity while the standing one still
//! qualifies.

use ffc_ctrl::{Event, TimedEvent};
use ffc_net::prelude::*;

/// The interval whose events swap the two smallest flows.
pub const SWAP_AT: usize = 2;

/// Three 3-tunnel flows on a 5-node ring with chords; at `ke = 1` each
/// has τ = 2, so the §6 mice branch is live. Flow 0 is the one mouse —
/// the next flow would overshoot the 1 % share — until the events of
/// [`SWAP_AT`] trade the two small flows' places: the greedy set becomes
/// {1}, the standing set {0} still qualifies and stays. Six intervals
/// of events.
pub fn mice_swap() -> (Topology, TrafficMatrix, TunnelTable, Vec<TimedEvent>) {
    let mut topo = Topology::new();
    let ns = topo.add_nodes(5, "r");
    for i in 0..5 {
        topo.add_bidi(ns[i], ns[(i + 1) % 5], 10.0);
    }
    topo.add_bidi(ns[0], ns[2], 10.0);
    topo.add_bidi(ns[1], ns[3], 10.0);
    let mut tm = TrafficMatrix::new();
    tm.add_flow(ns[0], ns[3], 0.05, Priority::High);
    tm.add_flow(ns[1], ns[4], 0.055, Priority::High);
    tm.add_flow(ns[2], ns[0], 8.0, Priority::High);
    let layout = LayoutConfig {
        tunnels_per_flow: 3,
        p: 1,
        q: 3,
        reuse_penalty: 0.5,
    };
    let tunnels = layout_tunnels(&topo, &tm, &layout);
    let set = |interval, flow, demand| TimedEvent {
        interval,
        event: Event::DemandSet { flow, demand },
    };
    let events = vec![
        set(1, 2, 8.2),
        set(SWAP_AT, 0, 0.056),
        set(SWAP_AT, 1, 0.05),
        set(3, 2, 7.9),
        set(4, 0, 0.057),
        set(5, 2, 8.1),
    ];
    (topo, tm, tunnels, events)
}
