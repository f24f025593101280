//! Garbage in, located error out: the three CLI text formats —
//! topology, traffic, configuration — never panic, and every `Err`
//! carries a 1-based line that exists in the input (ROADMAP 6d).
//!
//! Two generators: token soup — short lines over a vocabulary of
//! directives, fixture node names, numbers good and bad and comment
//! marks, short enough that directives often get their arity — and
//! single-token corruptions of the committed `small` fixtures (and of
//! the configuration solved from them), where the error may not point
//! *before* the corrupted line either — everything above it still
//! parses.

use ffc_cli::formats::{parse_config, parse_topology, parse_traffic, write_config, ParseError};
use ffc_core::{solve_te, TeProblem};
use ffc_net::{layout_tunnels, LayoutConfig, Topology};
use proptest::prelude::*;

const SMALL_TOPO: &str = include_str!("../../examples/data/small.topo");
const SMALL_TM: &str = include_str!("../../examples/data/small.tm");

#[rustfmt::skip]
const VOCAB: &[&str] = &[
    "\n", "#", "node", "link", "bidi", "flow", "tunnel", "rate", "alloc",
    "seattle", "chicago", "newyork", "dallas", "atlanta", "nowhere", "high", "medium", "low",
    "0", "1", "2", "3", "7", "40", "55.5", "1e3", "-1", "-0", "1e999", "NaN", "inf", "-inf",
    "18446744073709551616", "0x10", "", "é", "\u{0}", "\t", "node#", "->",
];

/// Holds one parser's verdict on `text` to the property; `from` is the
/// first line an error may name.
fn located<T>(what: &str, text: &str, from: usize, r: Result<T, ParseError>) -> Result<(), String> {
    let Err(e) = r else { return Ok(()) };
    let lines = text.lines().count();
    if (from..=lines).contains(&e.line) {
        Ok(())
    } else {
        Err(format!(
            "{what}: error at line {} outside {from}..={lines}: {e}\n{text}",
            e.line
        ))
    }
}

/// Runs all three parsers over one text (the last two against `topo`).
fn all_located(text: &str, topo: &Topology, from: usize) -> Result<(), String> {
    located("topology", text, from, parse_topology(text))?;
    located("traffic", text, from, parse_traffic(text, topo))?;
    located("config", text, from, parse_config(text, topo, 4))
}

/// `text` with its `nth` token (counted across lines, comments
/// included) replaced; returns the 1-based line it sat on.
fn corrupt(text: &str, nth: usize, with: &str) -> (String, usize) {
    let total = text.split_whitespace().count();
    let (mut seen, mut hit) = (0, 0);
    let lines: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let toks: Vec<&str> = l
                .split_whitespace()
                .map(|t| {
                    seen += 1;
                    if seen - 1 == nth % total {
                        hit = i + 1;
                        with
                    } else {
                        t
                    }
                })
                .collect();
            toks.join(" ")
        })
        .collect();
    (lines.join("\n"), hit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn token_soup_never_panics_and_errors_are_located(
        soup in prop::collection::vec(prop::collection::vec(0..VOCAB.len(), 0..6), 0..24),
    ) {
        let small = parse_topology(SMALL_TOPO).expect("fixture parses");
        let lines: Vec<String> = soup
            .iter()
            .map(|l| l.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" "))
            .collect();
        let text = lines.join("\n");
        let checked = all_located(&text, &small, 1);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        // Whatever topology the soup itself describes is as good a
        // reference for the other two as the fixture.
        if let Ok(own) = parse_topology(&text) {
            let checked = all_located(&text, &own, 1);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn one_corrupted_token_in_a_fixture_is_an_error_at_or_after_its_line(
        nth in 0..4096usize,
        with in 0..VOCAB.len(),
    ) {
        let topo = parse_topology(SMALL_TOPO).expect("fixture parses");
        let tm = parse_traffic(SMALL_TM, &topo).expect("fixture parses");
        let tunnels = layout_tunnels(&topo, &tm, &LayoutConfig::default());
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("fixture solves");
        let config = write_config(&topo, &tunnels, &cfg);
        prop_assert!(parse_config(&config, &topo, tm.len()).is_ok());

        let with = VOCAB[with];
        let (text, line) = corrupt(SMALL_TOPO, nth, with);
        let checked = located("topology", &text, line, parse_topology(&text));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        let (text, line) = corrupt(SMALL_TM, nth, with);
        let checked = located("traffic", &text, line, parse_traffic(&text, &topo));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        let (text, line) = corrupt(&config, nth, with);
        let checked = located("config", &text, line, parse_config(&text, &topo, tm.len()));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
