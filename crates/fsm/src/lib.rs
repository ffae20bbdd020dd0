//! Explicit and symbolic Mealy machines.
//!
//! The paper treats both the design implementation and the derived test
//! model as Mealy machines. This crate provides:
//!
//! * [`ExplicitMealy`] — a dense, enumerated machine used by the tour
//!   algorithms, the error model, and as a brute-force oracle in tests.
//!   Its [`bfs`](ExplicitMealy::bfs) is the workspace's one breadth-first
//!   search over a state graph: reachability, every tour's shortest
//!   paths and the access paths of the UIO and W-method suites;
//! * [`SymbolicFsm`] — a machine represented by BDD next-state and output
//!   functions built from a [`simcov_netlist::Netlist`], with implicit
//!   reachability analysis and exact state/transition counting in the style
//!   of Touati et al. (ICCAD 1990) — the machinery behind Section 7.2's
//!   statistics;
//! * [`lower_netlist`] — the one lowering of a netlist's gates into BDDs,
//!   under a caller-chosen variable layout; the symbolic machine, the
//!   pair machine and the input classes are built on it, and the
//!   implicit campaign in `simcov-core` reaches it only through the pair
//!   machine ([`PairFsm`]);
//! * [`enumerate`] — extraction of an [`ExplicitMealy`] from a netlist by
//!   forward enumeration of the reachable state graph under a declared set
//!   of valid input vectors (the paper's input don't-cares);
//! * [`PackedMealy`] — word-packed transition tables (fused 64-bit
//!   records, a narrow 32-bit mirror when the id ranges allow one, and a
//!   definedness bitset) with [`LanePatch`] one-cell overlays: the tables
//!   the bit-parallel engine's lane replay gathers from, up to [`LANES`]
//!   faulty machines per round.
//!
//! # Example
//!
//! ```
//! use simcov_fsm::MealyBuilder;
//!
//! let mut b = MealyBuilder::new();
//! let s0 = b.add_state("idle");
//! let s1 = b.add_state("busy");
//! let go = b.add_input("go");
//! let stay = b.add_input("stay");
//! let none = b.add_output("none");
//! let ack = b.add_output("ack");
//! b.add_transition(s0, go, s1, ack);
//! b.add_transition(s0, stay, s0, none);
//! b.add_transition(s1, go, s1, none);
//! b.add_transition(s1, stay, s0, none);
//! let m = b.build(s0).unwrap();
//! assert!(m.is_complete());
//! assert_eq!(m.num_transitions(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
mod explicit;
mod image;
mod input_classes;
mod lower;
mod minimize;
mod packed;
mod product;
pub mod refine;
mod symbolic;

pub use enumerate::{enumerate_netlist, EnumerateError, EnumerateOptions};
pub use explicit::{
    BfsTree, BuildError, ExplicitMealy, InputSym, MealyBuilder, OutputSym, PatchedMealy, StateId,
    Transition,
};
pub use input_classes::{input_equivalence_classes, InputClasses};
pub use lower::{lower_netlist, NetlistBdds};
pub use minimize::{minimize, Minimized};
pub use packed::{LanePatch, PackedMealy, LANES, UNDEFINED_NARROW, UNDEFINED_RECORD};
pub use product::{PairAnalysisResult, PairFsm, TransferDetectPrep};
pub use refine::{partition_by_rows, refine_partition, Partition};
pub use symbolic::{CoverageAccumulator, ReachResult, SymbolicFsm};
