//! Garbage in, located error out, for the event-trace file (ROADMAP
//! 7d): one corruption of the committed `small.trace` — a header line
//! or section marker dropped, duplicated or moved, one header or event
//! token replaced, or the file cut short — never panics
//! [`EventTrace::parse`], and every `Err` starts with `line N:` for a
//! line that exists in the input. What the parser lets through must not
//! panic the controller either: the header becomes a
//! [`ControllerConfig`] and the events are replayed over a toy instance
//! (the trace's own topology is text only the CLI can read).

use ffc_ctrl::{Controller, ControllerConfig, EventTrace};
use proptest::prelude::*;

const SMALL_TRACE: &str = include_str!("../../../examples/data/small.trace");

/// What a corrupted token becomes; one past the end stands for a
/// random printable string.
const TOKENS: &[&str] = &["NaN", "inf", "-1", "0", "1e999", "18446744073709551615", ""];

/// `SMALL_TRACE` with one corruption of the given `kind` applied.
fn corrupt(kind: usize, a: usize, b: usize, with: &str) -> String {
    let mut lines: Vec<String> = SMALL_TRACE.lines().map(String::from).collect();
    let marker = |m: &str| lines.iter().position(|l| l == m).expect("marker");
    let (topo, traffic, events) = (marker("[topo]"), marker("[traffic]"), marker("[events]"));
    // Header lines and the three section markers, 0-based.
    let structural: Vec<usize> = (1..=topo).chain([traffic, events]).collect();
    let pick = |n: usize| structural[n % structural.len()];
    match kind {
        0 => drop(lines.remove(pick(a))),
        1 => lines.insert(pick(a), lines[pick(a)].clone()),
        2 => lines.swap(pick(a), pick(b)),
        3 => {
            // One token of a header line or an event line.
            let targets: Vec<usize> = (1..topo).chain(events + 1..lines.len()).collect();
            let at = targets[a % targets.len()];
            let mut toks: Vec<&str> = lines[at].split_whitespace().collect();
            let nth = b % toks.len();
            toks[nth] = with;
            lines[at] = toks.join(" ");
        }
        _ => {
            let mut cut = a % (SMALL_TRACE.len() + 1);
            while !SMALL_TRACE.is_char_boundary(cut) {
                cut -= 1;
            }
            return SMALL_TRACE[..cut].to_string();
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_corruption_of_the_committed_trace_is_a_located_error_or_a_clean_run(
        kind in 0..5usize,
        a in 0..4096usize,
        b in 0..4096usize,
        with in 0..=TOKENS.len(),
        junk in prop::collection::vec(0x21u8..0x7f, 1..12),
    ) {
        let junk = String::from_utf8(junk).expect("printable ASCII");
        let with = TOKENS.get(with).copied().unwrap_or(&junk);
        let text = corrupt(kind, a, b, with);
        match EventTrace::parse(&text) {
            Err(e) => {
                let line: Option<usize> = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split_once(':'))
                    .and_then(|(n, _)| n.parse().ok());
                // An empty file is missing its line 1.
                let lines = text.lines().count().max(1);
                prop_assert!(
                    line.is_some_and(|n| (1..=lines).contains(&n)),
                    "error not at a line in 1..={}: {}\n{}", lines, e, text
                );
            }
            Ok(trace) => {
                let toy = ffc_topo::toy::fig3_scenario();
                let cfg = ControllerConfig::from_header(&trace.header);
                let intervals = trace.header.intervals.min(8);
                let report = Controller::new(&toy.topo, &toy.tunnels, cfg)
                    .run(&toy.tm, &trace.events, intervals, true);
                prop_assert_eq!(report.telemetry.len(), intervals);
            }
        }
    }
}
