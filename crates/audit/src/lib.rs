//! # ffc-audit — solver-independent verification for the FFC workspace
//!
//! FFC's value proposition is a *guarantee* — congestion-freedom under
//! any ≤k faults — yet without this crate the only thing standing
//! between a solver bug and a bogus "guaranteed" configuration is the
//! simplex implementation checking itself. `ffc-audit` adds four
//! passes that don't trust the solver:
//!
//! | pass | module | when |
//! |---|---|---|
//! | static model auditor | [`model_audit`] | before solve |
//! | independent solution certifier | [`mod@certify`] | after solve |
//! | source lint rules | [`lint`] over [`analysis`]'s front end | in CI (`ffc audit lint`) |
//! | determinism & panic analyzer | [`analysis`] | in CI (`ffc audit analyze`) |
//!
//! The model auditor checks every constructed [`ffc_lp::Model`] for
//! generic LP hygiene (finite coefficients, consistent bounds, no
//! empty/duplicate rows, no orphan columns, deterministically merged
//! duplicate entries) plus FFC-specific structural invariants (sorting
//! network comparator wiring and counts per Algs 1–2, capacity and
//! coverage row shapes).
//!
//! The certifier re-derives the congestion-free property of a solved
//! configuration by direct arithmetic over the tunnel layout — tunnel
//! rescaling, stale-ingress weights, per-scenario link loads — with no
//! simplex code anywhere on the path, and returns a machine-readable
//! [`certify::Certificate`].
//!
//! There is one source checker, dependency-free (no `syn`): the
//! [`analysis`] front end — a lossless tokenizer and an item extractor
//! that also owns test scope and the `audit:allow` suppression grammar.
//! The [`lint`] rules (the determinism and panic-discipline rules the
//! controller and chaos harness silently depend on, zero tolerance)
//! are matches over its token stream; the interprocedural layer adds a
//! workspace call graph and two passes — determinism taint
//! (nondeterminism sources reaching replay-critical sinks, with full
//! call chains) and panic reachability from hot-loop roots — plus a
//! committed findings baseline that CI ratchets downward.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod certify;
mod kernels;
pub mod lint;
pub mod model_audit;

pub use analysis::{analyze_path, AnalysisConfig, AnalysisReport};
pub use certify::{
    certify, certify_batched, certify_scalar, kernel_workers, verify_lp_certificate, CertInput,
    CertStatus, Certificate, LpCertificate, Protection,
};
pub use lint::{lint_workspace, LintConfig, LintReport, LintViolation};
pub use model_audit::{audit_model, AuditConfig, AuditReport, Finding, Severity};
