//! Plain-text file formats for the `ffc` CLI.
//!
//! All formats are whitespace-separated lines; `#` starts a comment.
//!
//! **Topology** (`--topo`):
//! ```text
//! node  ny
//! node  london
//! link  ny london 100          # directed, capacity 100
//! bidi  ny paris  40           # both directions, capacity 40 each
//! ```
//!
//! **Traffic** (`--traffic`):
//! ```text
//! flow  ny london 12.5 high    # priority: high | medium | low (default high)
//! ```
//!
//! **Configuration** (`--out` / `--old`): emitted by `ffc solve`;
//! self-describing and re-parsable:
//! ```text
//! tunnel 0 0 ny paris london   # flow-index tunnel-index hop nodes...
//! rate   0 12.5
//! alloc  0 0 7.5
//! ```

use std::fmt::Write as _;

use ffc_core::TeConfig;
use ffc_net::{NodeId, Path, Priority, Topology, TrafficMatrix, Tunnel, TunnelTable};

/// A parse failure with its line number.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

/// Strips comments and splits a file into `(line_no, tokens)`.
fn tokens(text: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    text.lines().enumerate().filter_map(|(i, l)| {
        let l = l.split('#').next().unwrap_or("").trim();
        if l.is_empty() {
            None
        } else {
            Some((i + 1, l.split_whitespace().collect()))
        }
    })
}

/// Parses a topology file.
pub fn parse_topology(text: &str) -> Result<Topology, ParseError> {
    let mut topo = Topology::new();
    let lookup = |topo: &Topology, name: &str, line: usize| {
        topo.node_by_name(name).ok_or_else(|| {
            err(
                line,
                format!("unknown node '{name}' (declare it with `node`)"),
            )
        })
    };
    for (line, t) in tokens(text) {
        match t.as_slice() {
            ["node", name] => {
                if topo.node_by_name(name).is_some() {
                    return Err(err(line, format!("duplicate node '{name}'")));
                }
                topo.add_node(*name);
            }
            ["link", a, b, cap] | ["bidi", a, b, cap] => {
                let na = lookup(&topo, a, line)?;
                let nb = lookup(&topo, b, line)?;
                let c: f64 = cap
                    .parse()
                    .map_err(|_| err(line, format!("bad capacity '{cap}'")))?;
                if !(c.is_finite() && c > 0.0) {
                    return Err(err(line, "capacity must be positive"));
                }
                if na == nb {
                    return Err(err(line, "link endpoints must differ"));
                }
                if t[0] == "bidi" {
                    topo.add_bidi(na, nb, c);
                } else {
                    topo.add_link(na, nb, c);
                }
            }
            _ => return Err(err(line, format!("unrecognized directive '{}'", t[0]))),
        }
    }
    Ok(topo)
}

/// Parses a traffic file against a topology.
pub fn parse_traffic(text: &str, topo: &Topology) -> Result<TrafficMatrix, ParseError> {
    let mut tm = TrafficMatrix::new();
    for (line, t) in tokens(text) {
        match t.as_slice() {
            ["flow", a, b, d, rest @ ..] => {
                let na = topo
                    .node_by_name(a)
                    .ok_or_else(|| err(line, format!("unknown node '{a}'")))?;
                let nb = topo
                    .node_by_name(b)
                    .ok_or_else(|| err(line, format!("unknown node '{b}'")))?;
                let demand: f64 = d
                    .parse()
                    .map_err(|_| err(line, format!("bad demand '{d}'")))?;
                if !(demand.is_finite() && demand >= 0.0) {
                    return Err(err(line, "demand must be non-negative"));
                }
                let prio = match rest {
                    [] | ["high"] => Priority::High,
                    ["medium"] => Priority::Medium,
                    ["low"] => Priority::Low,
                    other => return Err(err(line, format!("bad priority '{}'", other.join(" ")))),
                };
                if na == nb {
                    return Err(err(line, "flow endpoints must differ"));
                }
                tm.add_flow(na, nb, demand, prio);
            }
            _ => return Err(err(line, format!("unrecognized directive '{}'", t[0]))),
        }
    }
    Ok(tm)
}

/// Serializes a topology to text such that [`parse_topology`] rebuilds
/// it with identical `NodeId`s *and* `LinkId`s: all nodes first, then
/// one directed `link` line per link in id order. Id stability matters
/// because event traces reference links by index.
pub fn write_topology(topo: &Topology) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ffc topology: {} nodes, {} links",
        topo.num_nodes(),
        topo.num_links()
    );
    for v in topo.nodes() {
        let _ = writeln!(out, "node {}", topo.node_name(v));
    }
    for l in topo.links() {
        let link = topo.link(l);
        let _ = writeln!(
            out,
            "link {} {} {}",
            topo.node_name(link.src),
            topo.node_name(link.dst),
            link.capacity
        );
    }
    out
}

/// Serializes a traffic matrix to text re-parsable by [`parse_traffic`]
/// with identical `FlowId`s (flows are emitted in id order).
pub fn write_traffic(tm: &TrafficMatrix, topo: &Topology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ffc traffic: {} flows", tm.len());
    for (_, f) in tm.iter() {
        let prio = match f.priority {
            Priority::High => "high",
            Priority::Medium => "medium",
            Priority::Low => "low",
        };
        let _ = writeln!(
            out,
            "flow {} {} {} {}",
            topo.node_name(f.src),
            topo.node_name(f.dst),
            f.demand,
            prio
        );
    }
    out
}

/// Serializes a configuration (with its tunnels) to text.
pub fn write_config(topo: &Topology, tunnels: &TunnelTable, cfg: &TeConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ffc configuration: tunnels, rates, allocations");
    for (f, ti, tunnel) in tunnels.iter_all() {
        let hops: Vec<&str> = tunnel.nodes.iter().map(|&v| topo.node_name(v)).collect();
        let _ = writeln!(out, "tunnel {} {} {}", f.index(), ti, hops.join(" "));
    }
    for (fi, r) in cfg.rate.iter().enumerate() {
        let _ = writeln!(out, "rate {fi} {r:.6}");
    }
    for (fi, row) in cfg.alloc.iter().enumerate() {
        for (ti, a) in row.iter().enumerate() {
            let _ = writeln!(out, "alloc {fi} {ti} {a:.6}");
        }
    }
    out
}

/// Parses a configuration file (as emitted by [`write_config`]),
/// returning its tunnel table and configuration.
pub fn parse_config(
    text: &str,
    topo: &Topology,
    num_flows: usize,
) -> Result<(TunnelTable, TeConfig), ParseError> {
    let mut per_flow_tunnels: Vec<Vec<Tunnel>> = vec![Vec::new(); num_flows];
    let mut rates: Vec<f64> = vec![0.0; num_flows];
    let mut allocs: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); num_flows];
    // Same rule as capacities and demands: a NaN or negative value would
    // sail through the certifier's comparisons, so it stops here.
    let amount = |tok: &str, what: &str, line: usize| match tok.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        Ok(_) => Err(err(line, format!("{what} must be non-negative"))),
        Err(_) => Err(err(line, format!("bad {what} '{tok}'"))),
    };

    for (line, t) in tokens(text) {
        match t.as_slice() {
            ["tunnel", f, ti, hops @ ..] => {
                let fi: usize = f
                    .parse()
                    .map_err(|_| err(line, format!("bad flow index '{f}'")))?;
                let tidx: usize = ti
                    .parse()
                    .map_err(|_| err(line, format!("bad tunnel index '{ti}'")))?;
                if fi >= num_flows {
                    return Err(err(line, format!("flow index {fi} out of range")));
                }
                if hops.len() < 2 {
                    return Err(err(line, "tunnel needs at least two hops"));
                }
                let nodes: Result<Vec<NodeId>, ParseError> = hops
                    .iter()
                    .map(|h| {
                        topo.node_by_name(h)
                            .ok_or_else(|| err(line, format!("unknown node '{h}'")))
                    })
                    .collect();
                let nodes = nodes?;
                if let Some(i) = (1..nodes.len()).find(|&i| nodes[..i].contains(&nodes[i])) {
                    return Err(err(line, format!("tunnel revisits node '{}'", hops[i])));
                }
                let links: Result<Vec<_>, ParseError> = nodes
                    .windows(2)
                    .map(|w| {
                        topo.find_link(w[0], w[1]).ok_or_else(|| {
                            err(
                                line,
                                format!(
                                    "no link {} -> {}",
                                    topo.node_name(w[0]),
                                    topo.node_name(w[1])
                                ),
                            )
                        })
                    })
                    .collect();
                if tidx != per_flow_tunnels[fi].len() {
                    return Err(err(
                        line,
                        format!(
                            "tunnel indices for flow {fi} must be dense and in order (expected {}, got {tidx})",
                            per_flow_tunnels[fi].len()
                        ),
                    ));
                }
                per_flow_tunnels[fi].push(Tunnel::from_path(topo, Path { links: links? }));
            }
            ["rate", f, r] => {
                let fi: usize = f
                    .parse()
                    .map_err(|_| err(line, format!("bad flow index '{f}'")))?;
                if fi >= num_flows {
                    return Err(err(line, format!("flow index {fi} out of range")));
                }
                rates[fi] = amount(r, "rate", line)?;
            }
            ["alloc", f, ti, a] => {
                let fi: usize = f
                    .parse()
                    .map_err(|_| err(line, format!("bad flow index '{f}'")))?;
                if fi >= num_flows {
                    return Err(err(line, format!("flow index {fi} out of range")));
                }
                let tidx: usize = ti
                    .parse()
                    .map_err(|_| err(line, format!("bad tunnel index '{ti}'")))?;
                allocs[fi].push((line, tidx, amount(a, "allocation", line)?));
            }
            _ => return Err(err(line, format!("unrecognized directive '{}'", t[0]))),
        }
    }

    let mut alloc = Vec::with_capacity(num_flows);
    for (fi, pairs) in allocs.iter().enumerate() {
        let nt = per_flow_tunnels[fi].len();
        let mut row = vec![0.0; nt];
        for &(line, ti, v) in pairs {
            if ti >= nt {
                return Err(err(
                    line,
                    format!("alloc tunnel index {ti} out of range for flow {fi}"),
                ));
            }
            row[ti] = v;
        }
        alloc.push(row);
    }
    Ok((
        TunnelTable::from_lists(per_flow_tunnels),
        TeConfig { rate: rates, alloc },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPO: &str = "\
# three cities
node ny
node london
node paris
bidi ny london 100
bidi ny paris 40
bidi paris london 40
";

    #[test]
    fn topology_roundtrip() {
        let topo = parse_topology(TOPO).unwrap();
        assert_eq!(topo.num_nodes(), 3);
        assert_eq!(topo.num_links(), 6);
        let ny = topo.node_by_name("ny").unwrap();
        let ld = topo.node_by_name("london").unwrap();
        assert!(topo.find_link(ny, ld).is_some());
        assert_eq!(topo.capacity(topo.find_link(ny, ld).unwrap()), 100.0);
    }

    #[test]
    fn topology_errors_are_located() {
        let e = parse_topology("node a\nlink a b 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown node 'b'"));
        let e = parse_topology("node a\nnode a\n").unwrap_err();
        assert!(e.to_string().contains("duplicate"));
        let e = parse_topology("node a\nnode b\nlink a b -1\n").unwrap_err();
        assert!(e.to_string().contains("positive"));
        let e = parse_topology("frobnicate\n").unwrap_err();
        assert!(e.to_string().contains("unrecognized"));
        // A self-loop used to reach an assertion in `Topology::add_link`.
        let e = parse_topology("node a\nbidi a a 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("endpoints must differ"));
    }

    #[test]
    fn topology_write_roundtrip_preserves_ids() {
        let topo = parse_topology(TOPO).unwrap();
        let text = write_topology(&topo);
        let topo2 = parse_topology(&text).unwrap();
        assert_eq!(topo2.num_nodes(), topo.num_nodes());
        assert_eq!(topo2.num_links(), topo.num_links());
        for v in topo.nodes() {
            assert_eq!(topo.node_name(v), topo2.node_name(v));
        }
        for l in topo.links() {
            assert_eq!(topo.link(l).src, topo2.link(l).src);
            assert_eq!(topo.link(l).dst, topo2.link(l).dst);
            assert_eq!(topo.capacity(l), topo2.capacity(l));
        }
        // Idempotent: writing the reparsed topology gives the same text.
        assert_eq!(text, write_topology(&topo2));
    }

    #[test]
    fn traffic_write_roundtrip_preserves_ids() {
        let topo = parse_topology(TOPO).unwrap();
        let tm =
            parse_traffic("flow ny london 10.25 low\nflow paris ny 5 medium\n", &topo).unwrap();
        let text = write_traffic(&tm, &topo);
        let tm2 = parse_traffic(&text, &topo).unwrap();
        assert_eq!(tm2.len(), tm.len());
        for (id, f) in tm.iter() {
            let g = tm2.flow(id);
            assert_eq!(f.src, g.src);
            assert_eq!(f.dst, g.dst);
            assert_eq!(f.demand, g.demand);
            assert_eq!(f.priority, g.priority);
        }
    }

    #[test]
    fn traffic_parsing() {
        let topo = parse_topology(TOPO).unwrap();
        let tm = parse_traffic("flow ny london 10\nflow paris ny 5 low\n", &topo).unwrap();
        assert_eq!(tm.len(), 2);
        assert_eq!(tm.flow(ffc_net::FlowId(1)).priority, Priority::Low);
        assert!(parse_traffic("flow ny ny 1\n", &topo).is_err());
        assert!(parse_traffic("flow ny london nan\n", &topo).is_err());
    }

    #[test]
    fn config_roundtrip() {
        let topo = parse_topology(TOPO).unwrap();
        let tm = parse_traffic("flow ny london 10\n", &topo).unwrap();
        let tunnels = ffc_net::layout_tunnels(
            &topo,
            &tm,
            &ffc_net::LayoutConfig {
                tunnels_per_flow: 2,
                p: 1,
                q: 3,
                reuse_penalty: 0.5,
            },
        );
        let cfg = ffc_core::solve_te(ffc_core::TeProblem::new(&topo, &tm, &tunnels)).unwrap();
        let text = write_config(&topo, &tunnels, &cfg);
        let (tunnels2, cfg2) = parse_config(&text, &topo, tm.len()).unwrap();
        assert_eq!(tunnels2.total_tunnels(), tunnels.total_tunnels());
        for (a, b) in cfg.rate.iter().zip(&cfg2.rate) {
            assert!((a - b).abs() < 1e-5);
        }
        for (ra, rb) in cfg.alloc.iter().zip(&cfg2.alloc) {
            for (a, b) in ra.iter().zip(rb) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn config_rejects_gaps_and_bad_links() {
        let topo = parse_topology(TOPO).unwrap();
        // Out-of-order tunnel index.
        let e = parse_config("tunnel 0 1 ny london\n", &topo, 1).unwrap_err();
        assert!(e.to_string().contains("dense"));
        // A hop repeated in place.
        let e = parse_config("tunnel 0 0 ny ny\n", &topo, 1).unwrap_err();
        assert!(e.to_string().contains("revisits node 'ny'"), "{e}");
        // A loop over links that do exist used to reach an assertion in
        // `Tunnel::from_path` and abort the process.
        let e = parse_config("rate 0 1\ntunnel 0 0 ny london ny paris\n", &topo, 1).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("revisits node 'ny'"), "{e}");
        // Nonexistent hop link.
        let topo2 = parse_topology("node a\nnode b\nnode c\nlink a b 1\n").unwrap();
        let e = parse_config("tunnel 0 0 a b c\n", &topo2, 1).unwrap_err();
        assert!(e.to_string().contains("no link b -> c"), "{e}");
    }

    #[test]
    fn config_rejects_non_finite_and_negative_amounts_with_their_line() {
        let topo = parse_topology(TOPO).unwrap();
        let head = "tunnel 0 0 ny london\n";
        for bad in ["NaN", "nan", "inf", "-inf", "-1", "-0.5"] {
            let e = parse_config(&format!("{head}rate 0 {bad}\n"), &topo, 1).unwrap_err();
            assert_eq!(e.line, 2, "rate {bad}");
            assert!(e.to_string().contains("rate must be non-negative"), "{e}");
            let e =
                parse_config(&format!("{head}rate 0 1\nalloc 0 0 {bad}\n"), &topo, 1).unwrap_err();
            assert_eq!(e.line, 3, "alloc {bad}");
            assert!(
                e.to_string().contains("allocation must be non-negative"),
                "{e}"
            );
        }
        let e = parse_config(&format!("{head}rate 0 x\n"), &topo, 1).unwrap_err();
        assert!(e.to_string().contains("bad rate 'x'"), "{e}");
        // -0 is zero, not negative.
        assert!(parse_config(&format!("{head}rate 0 -0\nalloc 0 0 0\n"), &topo, 1).is_ok());
    }

    #[test]
    fn config_alloc_tunnel_index_out_of_range_names_its_line() {
        let topo = parse_topology(TOPO).unwrap();
        // The alloc may precede the tunnel lines, so the range check
        // waits for the end of the file — and still knows the line.
        let text = "# header\nalloc 0 1 2.5\ntunnel 0 0 ny london\n";
        let e = parse_config(text, &topo, 1).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("tunnel index 1 out of range"), "{e}");
    }
}
