//! Differential oracle: the batched SoA kernels must be *bit-identical*
//! to the scalar certifier — same verdict, same scenario count and
//! exhaustiveness, the same recorded violation strings in the same
//! order, and the same bit pattern of `max_oversubscription` — over
//! randomized topologies, splitting weights, and joint
//! kc stale-ingress × ke link × kv switch fault combinations, under
//! scenario budgets, unprotected links, and varying worker counts.
//!
//! Demand-side fuzzing rides along (satellite 3): correlated multi-flow
//! surges, zeroed flows, and permuted ingress assignments all flow
//! through both kernel paths here.

mod ring;

use ffc_audit::certify::{certify_batched, certify_scalar, CertInput, Protection};
use ffc_net::prelude::*;
use proptest::prelude::*;
use ring::{build, inst_strategy, Inst};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_certify_is_bit_identical_to_scalar(inst in inst_strategy()) {
        let (t, tm, tunnels, rate, alloc, old) = build(&inst);
        let mut input = CertInput::new(
            &t,
            &tm,
            &tunnels,
            &rate,
            &alloc,
            Protection::new(inst.kc, inst.ke, inst.kv),
        );
        input.old_alloc = old.as_deref();
        if inst.capped {
            input.max_scenarios = inst.budget;
        }
        let hatch = [LinkId(0)];
        if inst.unprotect_first {
            input.unprotected_links = &hatch;
        }

        let want = certify_scalar(&input);
        for workers in [1usize, 3] {
            let got = certify_batched(&input, workers);
            prop_assert_eq!(got.status, want.status, "status @ workers={}", workers);
            prop_assert_eq!(
                got.scenarios_checked, want.scenarios_checked,
                "scenarios_checked @ workers={}", workers
            );
            prop_assert_eq!(got.exhaustive, want.exhaustive, "exhaustive @ workers={}", workers);
            prop_assert_eq!(
                got.num_violations, want.num_violations,
                "num_violations @ workers={}", workers
            );
            prop_assert_eq!(
                got.max_oversubscription.to_bits(),
                want.max_oversubscription.to_bits(),
                "max_oversubscription bits: batched {} vs scalar {} @ workers={}",
                got.max_oversubscription, want.max_oversubscription, workers
            );
            prop_assert_eq!(&got.violations, &want.violations, "violations @ workers={}", workers);
            prop_assert_eq!(got.to_json(), want.to_json(), "json @ workers={}", workers);
        }
    }

    /// The kc × ke × kv joint space specifically: force every
    /// dimension on at once and keep the instance well-formed, so the
    /// deep scenario enumeration (not early rejection) is what's being
    /// compared.
    #[test]
    fn joint_fault_combos_agree_on_well_formed_configs(
        seed_caps in prop::collection::vec(8.0..24.0f64, 4),
        surge in 0.2..1.0f64,
        workers in 1..5usize,
    ) {
        let inst = Inst {
            nodes: 5,
            chords: vec![true, true, false],
            caps: seed_caps,
            flows: vec![(0, 1, 6.0), (2, 0, 4.0), (4, 2, 5.0)],
            surge,
            zero_stride: 3,
            ingress_rot: 1,
            rate_frac: vec![0.5, 0.8, 0.4],
            alloc_pool: vec![2.0, 1.0, 3.0, 0.0, 1.5, 2.5, 0.5, 1.0],
            old_pool: Some(vec![1.0, 2.0, 0.5, 3.0, 0.0, 1.5, 2.0, 1.0]),
            kc: 2,
            ke: 1,
            kv: 1,
            capped: false,
            budget: 0,
            unprotect_first: false,
        };
        let (t, tm, tunnels, rate, alloc, old) = build(&inst);
        let mut input = CertInput::new(
            &t, &tm, &tunnels, &rate, &alloc,
            Protection::new(inst.kc, inst.ke, inst.kv),
        );
        input.old_alloc = old.as_deref();

        let want = certify_scalar(&input);
        // Joint enumeration really covers all three dimensions (and
        // several lane blocks).
        prop_assert!(want.scenarios_checked > 64, "only {} scenarios", want.scenarios_checked);
        let got = certify_batched(&input, workers);
        prop_assert_eq!(got.status, want.status);
        prop_assert_eq!(got.scenarios_checked, want.scenarios_checked);
        prop_assert_eq!(got.exhaustive, want.exhaustive);
        prop_assert_eq!(got.num_violations, want.num_violations);
        prop_assert_eq!(
            got.max_oversubscription.to_bits(),
            want.max_oversubscription.to_bits()
        );
        prop_assert_eq!(&got.violations, &want.violations);
    }
}
