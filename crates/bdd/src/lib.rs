//! Reduced Ordered Binary Decision Diagrams (ROBDDs) for implicit
//! state-space traversal.
//!
//! This crate is the symbolic substrate of the `simcov` workspace. It
//! implements the classic ROBDD package of Bryant (IEEE ToC 1986) with the
//! operations needed for implicit FSM enumeration in the style of Touati et
//! al. (ICCAD 1990), which is the machinery the DAC'97 paper runs inside SIS:
//!
//! * hash-consed node storage with a unique table ([`BddManager`]),
//! * the `ITE` operator and derived Boolean connectives,
//! * existential/universal quantification and the combined
//!   *relational product* (`and_exists`) used by image computation,
//! * simultaneous substitution ([`BddManager::substitute`], with
//!   [`BddManager::compose`] and [`BddManager::restrict`] as its
//!   one-variable and constant cases) and renaming
//!   ([`BddManager::rename`]),
//! * node reclamation from explicit roots
//!   ([`BddManager::reclaim_since`]) and copying a function between
//!   managers over one order ([`BddManager::copy_from`]),
//! * exact satisfying-assignment counting over the variables counted
//!   ([`BddManager::count_over`]),
//! * cube extraction ([`BddManager::pick_cube`]) and minterm iteration
//!   ([`BddManager::cubes`]),
//! * don't-care minimization by the generalized cofactor
//!   ([`BddManager::constrain`]).
//!
//! # Example
//!
//! ```
//! use simcov_bdd::BddManager;
//!
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let f = m.and(a, b);
//! let g = m.or(f, c);
//! // (a & b) | c has 5 satisfying assignments over 3 variables.
//! let vars = [simcov_bdd::Var(0), simcov_bdd::Var(1), simcov_bdd::Var(2)];
//! assert_eq!(m.count_over(g, &vars), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod cube;
mod dontcare;
mod manager;
mod ops;
mod util;

pub use cube::{Assignment, Cube, CubeIter};
pub use manager::{Bdd, BddManager, BddRuntimeStats, Var};
