//! The simulation-coverage validation methodology of Gupta, Malik & Ashar
//! (DAC 1997), as an executable library.
//!
//! The paper's central result (Theorem 3): **a transition tour of a test
//! model is a complete test set** — it exposes *every* output and transfer
//! error of the implementation with respect to the specification —
//! provided the test model satisfies five requirements:
//!
//! 1. all output errors are *uniform* (the abstraction kept enough state);
//! 2. processing of each input completes within `k` transitions;
//! 3. each unique input produces a unique output (data selection);
//! 4. transfer errors are not masked;
//! 5. the state mediating interactions between successive inputs is
//!    observable.
//!
//! Module map:
//!
//! * [`error_model`] — Definitions 1–4: output errors, transfer errors,
//!   fault injection, detection, excitation and masking analysis;
//! * [`distinguish`] — Definition 5: ∀k-distinguishability with witness
//!   extraction (the hypothesis of Theorem 1);
//! * [`requirements`] — executable checkers for Requirements 1–5;
//! * [`theorems`] — Theorems 1–3 as certificate-producing procedures;
//! * [`faults`] — fault campaigns that *empirically* validate the
//!   certificates: every injected fault must be caught by a transition
//!   tour on a compliant model;
//! * [`differential`] — the differential fault-simulation engine:
//!   golden-trace memoization, excitation indexing and zero-clone suffix
//!   replay, bit-identical to the naive engine but asymptotically
//!   cheaper;
//! * [`packed`] — the bit-parallel engine: the differential engine's
//!   suffix replays advanced 64 lanes at a time over word-packed
//!   struct-of-arrays tables, bit-identical to both scalar engines;
//! * [`engine`] — the one dispatch point over the explicit engines:
//!   prepare the shared artefacts once per campaign, then simulate shard
//!   by shard;
//! * [`symbolic`] — the implicit campaign over BDDs (`--engine
//!   symbolic`): single-bit-flip fault families judged by Theorem 1's
//!   `k`-step detection, at any model width;
//! * [`resilient`] — the campaign runner: sharded simulation with panic
//!   isolation, deadlines/step budgets, durable checkpoint/resume and
//!   deterministic chaos injection;
//! * [`adaptive`] — coverage-directed closure: the iterative campaign
//!   driver that feeds surviving faults and cold cells back into the
//!   `simcov-tour` generators until every fault is detected or a budget
//!   expires;
//! * [`collapse`] — fault-collapsing certificates: statically proven
//!   fault-equivalence partitions that campaigns consume to simulate
//!   only class representatives (and can audit with `verify`);
//! * [`harness`] — the checkpointed co-simulation harness of Figure 1
//!   (specification vs implementation, compared at instruction
//!   completion);
//! * [`expand`] — test-set expansion from abstract test-model inputs to
//!   concrete simulation vectors (Section 6.5's "appropriate input values
//!   must be filled in").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod collapse;
pub mod differential;
pub mod distinguish;
pub mod engine;
pub mod error_model;
pub mod expand;
pub mod faults;
pub mod fingerprint;
pub mod harness;
pub mod models;
pub mod packed;
pub mod parallel;
pub mod requirements;
pub mod resilient;
pub mod symbolic;
pub mod testutil;
pub mod theorems;

pub use adaptive::{ClosureConfig, ClosureDriver, ClosureRun, RoundRecord};
pub use collapse::{
    same_observable_outcome, CertificateError, ClassKind, CollapseCertificate, CollapseMode,
    CollapseSummary, CollapseViolation,
};
pub use differential::{simulate_fault_differential, DiffStats, Engine, GoldenTrace};
pub use distinguish::{
    forall_k_distinguishable, DistinguishError, DistinguishLevels, Distinguishability, PairWitness,
};
pub use engine::{EngineStats, PreparedEngine};
pub use error_model::{detects, excited_at, is_detectable, is_masked_on, Fault, FaultKind};
pub use faults::{
    enumerate_single_faults, extend_cyclically, run_campaign, sample_faults, simulate_fault,
    CampaignReport, FaultOutcome, FaultSpace,
};
pub use harness::{validate, MachineTrace, Mismatch, TraceSource};
pub use packed::{simulate_shard_packed, PackedStats, ReplayScript};
pub use parallel::{default_jobs, default_shard_size, run_sharded, CampaignStats};
pub use requirements::{
    check_req1_uniform_outputs, check_req2_bounded_processing, check_req3_unique_outputs,
    check_req5_observable, Req1Violation, StallBound,
};
pub use symbolic::{run_implicit_campaign, ImplicitConfig, ImplicitReport, SymbolicEngineStats};

pub use resilient::{
    CampaignError, CoverageBounds, ResilientCampaign, ResilientRun, ShardFailure, StopReason,
};
pub use theorems::{certify_completeness, CompletenessCertificate, CompletenessViolation};
