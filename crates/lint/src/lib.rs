//! # simcov-lint — static diagnostics for validation models
//!
//! The paper's methodology (Gupta, Malik & Ashar, DAC 1997) hinges on
//! preconditions that are *checkable before any simulation runs*: the
//! test model must be a deterministic, complete, strongly connected FSM
//! whose reachable states are ∀k-distinguishable (Theorem 1), the
//! five Requirements of Section 4 must hold, and the abstraction map
//! from the design to the test model must preserve transitions without
//! collapsing outputs (Sections 6.1–6.3). This crate turns each of
//! those preconditions into a *coded lint* in the style of compiler
//! diagnostics:
//!
//! * every check has a stable code (`SC001`, …) and kebab-case name,
//!   registered once in [`codes`];
//! * findings carry a [`Location`] in model vocabulary (state,
//!   transition, latch, abstract class) and concrete witnesses;
//! * severities (`deny` / `warn` / `allow`) resolve per code through a
//!   [`LintConfig`], so CI can tighten or relax policy without code
//!   changes;
//! * reports render as human-readable text or deterministic JSON.
//!
//! Three lint families cover the three artifact kinds. Each family is one
//! function ([`lint_model`], [`lint_netlist`], [`lint_quotient`]) that
//! runs its checks in code order and sorts the findings deny-first. A
//! model or netlist check is a private function that emits exactly one
//! code; the quotient checks share one quotient build, so they run
//! inline. [`lint_build_error`] and [`lint_blif_error`] map construction
//! and import failures onto `SC003` and `SC028`–`SC030`.
//!
//! | family | codes | target |
//! |---|---|---|
//! | [`model`] | `SC001`–`SC008` | explicit Mealy machines |
//! | [`netlist`] | `SC020`–`SC030` | sequential circuits |
//! | [`abstraction`] | `SC040`–`SC042` | quotient maps |
//!
//! ```
//! use simcov_fsm::MealyBuilder;
//! use simcov_lint::{lint_model, LintConfig, ModelTarget};
//!
//! let mut b = MealyBuilder::new();
//! let s0 = b.add_state("s0");
//! let dead = b.add_state("dead");
//! let i = b.add_input("i");
//! let o = b.add_output("o");
//! b.add_transition(s0, i, s0, o);
//! b.add_transition(dead, i, s0, o);
//! let m = b.build(s0).unwrap();
//!
//! let report = lint_model(&ModelTarget::new(&m), &LintConfig::new());
//! assert!(report.has_code("SC001")); // `dead` is unreachable
//! assert!(!report.has_denials());    // ... but that is only a warning
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod codes;
pub mod diag;
pub mod model;
pub mod netlist;

pub use abstraction::{lint_quotient, QuotientTarget};
pub use codes::{all_codes, find_code};
pub use diag::{Diagnostic, Diagnostics, LintCode, LintConfig, Location, Severity};
pub use model::{lint_build_error, lint_model, ModelTarget};
pub use netlist::{lint_blif_error, lint_netlist};

use simcov_obs::Telemetry;

/// Records a finished lint family's findings into a telemetry sink: the
/// `lint.findings` / `lint.denials` / `lint.warnings` / `lint.suppressed`
/// counters (pure functions of the linted artifact, so traces stay
/// deterministic).
fn record_diags(telemetry: &Telemetry, d: &Diagnostics) {
    telemetry.counter_add("lint.findings", d.items().len() as u64);
    telemetry.counter_add("lint.denials", d.deny_count() as u64);
    telemetry.counter_add("lint.warnings", d.warn_count() as u64);
    telemetry.counter_add("lint.suppressed", d.suppressed() as u64);
}

/// [`lint_netlist`] with telemetry: a `lint/netlist` span around the
/// family plus the `lint.*` counters.
pub fn lint_netlist_traced(
    n: &simcov_netlist::Netlist,
    config: &LintConfig,
    telemetry: &Telemetry,
) -> Diagnostics {
    let d = {
        let root = telemetry.span("lint");
        let _s = root.child("netlist");
        lint_netlist(n, config)
    };
    record_diags(telemetry, &d);
    d
}

/// [`lint_model`] with telemetry: a `lint/model` span around the
/// family plus the `lint.*` counters (accumulated on top of any earlier
/// family's, mirroring [`Diagnostics::merge`]).
pub fn lint_model_traced(
    target: &ModelTarget<'_>,
    config: &LintConfig,
    telemetry: &Telemetry,
) -> Diagnostics {
    let d = {
        let root = telemetry.span("lint");
        let _s = root.child("model");
        lint_model(target, config)
    };
    record_diags(telemetry, &d);
    d
}

#[cfg(test)]
mod traced_tests {
    use super::*;
    use simcov_fsm::MealyBuilder;

    #[test]
    fn traced_lint_matches_untraced_and_records_counters() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let dead = b.add_state("dead");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s0, o);
        b.add_transition(dead, i, s0, o);
        let m = b.build(s0).unwrap();
        let config = LintConfig::new();
        let tel = Telemetry::new();
        let traced = lint_model_traced(&ModelTarget::new(&m), &config, &tel);
        let plain = lint_model(&ModelTarget::new(&m), &config);
        assert_eq!(traced.items().len(), plain.items().len());
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("lint.findings"),
            Some(plain.items().len() as u64)
        );
        assert_eq!(
            snap.counter("lint.denials"),
            Some(plain.deny_count() as u64)
        );
        assert_eq!(
            snap.counter("lint.warnings"),
            Some(plain.warn_count() as u64)
        );
        assert_eq!(snap.span("lint/model").unwrap().count, 1);
    }
}
