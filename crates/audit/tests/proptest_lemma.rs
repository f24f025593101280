//! Soundness oracle for the certifier's proof by Lemma 1: over random
//! rings (`ring/mod.rs`), every configuration `certify` accepts by
//! [`CertMethod::Lemma`] is also accepted by the exhaustive enumeration
//! walk, with a `max_oversubscription` bound at least as large as the
//! one it observes, and every configuration the proof hands on gets
//! `certify_enumerated`'s certificate field for field.
//!
//! Each instance is checked as drawn and with rates and allocations
//! shrunk together by a random factor, so the proof decides a good
//! share of them and the tolerance edges of both phases are crossed.
//! A release build runs many more cases than a debug one.

mod ring;

use ffc_audit::certify::{
    certify, certify_enumerated, CertInput, CertMethod, Certificate, Protection,
};
use ffc_net::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ring::{build, inst_strategy, Inst};

/// Proptest cases: 64 under the debug test pass, 2 048 in release.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 2048 };

/// Holds `certify`'s certificate on `input` to the enumerating walk.
fn check(input: &CertInput<'_>) -> Result<(), TestCaseError> {
    let got = certify(input);
    match got.method {
        CertMethod::Lemma => {
            prop_assert!(got.ok() && got.exhaustive, "{}", got.to_json());
            prop_assert_eq!(got.scenarios_checked, 0);
            let mut everything = CertInput { ..*input };
            everything.max_scenarios = usize::MAX;
            let want = certify_enumerated(&everything);
            prop_assert!(
                want.ok(),
                "lemma certified what enumeration rejects: {:?}",
                want.violations
            );
            prop_assert!(
                got.max_oversubscription >= want.max_oversubscription,
                "bound {} under the observed {}",
                got.max_oversubscription,
                want.max_oversubscription
            );
        }
        CertMethod::Enumeration => {
            let want = certify_enumerated(input);
            same(&got, &want)?;
        }
    }
    Ok(())
}

fn same(got: &Certificate, want: &Certificate) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.status, want.status);
    prop_assert_eq!(got.method, want.method);
    prop_assert_eq!(got.scenarios_checked, want.scenarios_checked);
    prop_assert_eq!(got.exhaustive, want.exhaustive);
    prop_assert_eq!(got.num_violations, want.num_violations);
    prop_assert_eq!(&got.violations, &want.violations);
    prop_assert_eq!(
        got.max_oversubscription.to_bits(),
        want.max_oversubscription.to_bits()
    );
    prop_assert_eq!(got.to_json(), want.to_json());
    Ok(())
}

fn certify_instance(inst: &Inst, shrink: f64) -> Result<(), TestCaseError> {
    let (t, tm, tunnels, rate, alloc, old) = build(inst);
    let hatch = [LinkId(0)];
    let scaled = |v: &[f64]| v.iter().map(|x| x * shrink).collect::<Vec<_>>();
    let lean_rate = scaled(&rate);
    let lean_alloc: Vec<Vec<f64>> = alloc.iter().map(|a| scaled(a)).collect();
    let lean_old: Option<Vec<Vec<f64>>> =
        old.as_ref().map(|o| o.iter().map(|a| scaled(a)).collect());
    for (rate, alloc, old) in [(&rate, &alloc, &old), (&lean_rate, &lean_alloc, &lean_old)] {
        let mut input = CertInput::new(
            &t,
            &tm,
            &tunnels,
            rate,
            alloc,
            Protection::new(inst.kc, inst.ke, inst.kv),
        );
        input.old_alloc = old.as_deref();
        if inst.capped {
            input.max_scenarios = inst.budget;
        }
        if inst.unprotect_first {
            input.unprotected_links = &hatch;
        }
        check(&input)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn lemma_is_sound_and_hands_the_rest_to_enumeration(
        inst in inst_strategy(),
        shrink in 0.02..1.0f64,
    ) {
        certify_instance(&inst, shrink)?;
    }
}
