//! # simcov-analyze — static fault-collapsing analysis
//!
//! A fault campaign over the paper's error model (output and transfer
//! errors, Definitions 1–4) simulates one mutant per fault. Much of that
//! work is provably redundant *before any simulation runs*: faults on
//! unreachable states can never be excited; every effective output error
//! at one `(state, input)` cell is detected at the cell's first
//! traversal, whatever the wrong label; and two transfer errors at the
//! same cell are indistinguishable whenever their post-excitation joint
//! behaviours are bisimilar. This crate computes those equivalences
//! whole-model and packages them as a
//! [`simcov_core::CollapseCertificate`] that
//! [`simcov_core::ResilientCampaign`] consumes (`campaign --collapse
//! on|off|verify` in the CLI):
//!
//! * [`analyze_collapse`] — the analysis: reachability fixpoint,
//!   per-cell output/ineffective grouping, transfer-fault equivalence
//!   decided pair by pair (Hopcroft and Karp's union-find check over the
//!   fault-patched joint walks, stopping at the first distinguishing
//!   letter), and class dominance edges;
//! * [`lint_analysis`] — the `SC05x` lint family: one function per code
//!   ([`passes`]) surfacing collapse-blocking ambiguities and degenerate
//!   (never-detectable) classes through the `simcov-lint` diagnostic
//!   pipeline.
//!
//! The soundness argument — why class members have *identical*
//! [`simcov_core::FaultOutcome`]s under every test set in the fault
//! domain — is spelled out in DESIGN.md §13 and audited end-to-end by
//! `--collapse verify` plus this crate's property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collapse;
pub mod passes;

pub use collapse::{
    analyze_collapse, AnalyzeError, AnalyzeOptions, AnalyzeStats, CollapseAnalysis,
};
pub use passes::{lint_analysis, AnalyzeTarget};
