//! Transition- and state-tour generation.
//!
//! The test sets of the DAC'97 methodology are *transition tours*: input
//! sequences that traverse every transition of the test model at least
//! once (Section 6.5). The paper notes that minimum-cost transition tours
//! correspond to the **Chinese postman problem**, solvable in polynomial
//! time (Aho, Dahbura, Lee & Uyar 1991); the authors' own implementation
//! generated a *non-optimal* tour with a greedy implicit traversal.
//!
//! This crate provides both, plus the baselines the evaluation compares
//! against:
//!
//! * [`transition_tour`] — optimal (Chinese postman): Eulerian
//!   augmentation by one successive-shortest-path min-cost flow on the
//!   machine graph, then Hierholzer's circuit algorithm;
//! * [`greedy_transition_tour`] — the nearest-uncovered-transition
//!   heuristic (what the paper actually ran inside SIS): the walk of
//!   [`targeted_tour`] aimed at every reachable transition, then the
//!   shortest path home to reset;
//! * [`state_tour`] — covers every *state* at least once (the weaker
//!   coverage measure of Iwashita et al. that Section 1 contrasts with);
//! * [`random_test_set`] — random-walk functional vectors, the
//!   conventional-simulation baseline;
//! * [`targeted_tour`] / [`biased_random_test_set`] — bias-aware
//!   generators aimed at a caller-supplied set of `(state, input)`
//!   cells, the stimulus half of the coverage-directed closure loop in
//!   `simcov-core`;
//! * [`coverage`] — transition/state coverage measurement for any input
//!   sequence.
//!
//! The crate keeps no graph of its own: every generator walks the
//! [`ExplicitMealy`] directly, and every shortest path it takes is a tree
//! path of the machine's one search,
//! [`ExplicitMealy::bfs`](simcov_fsm::ExplicitMealy::bfs).
//!
//! # Example
//!
//! ```
//! use simcov_fsm::MealyBuilder;
//! use simcov_tour::{transition_tour, coverage};
//!
//! let mut b = MealyBuilder::new();
//! let s0 = b.add_state("s0");
//! let s1 = b.add_state("s1");
//! let a = b.add_input("a");
//! let o = b.add_output("o");
//! b.add_transition(s0, a, s1, o);
//! b.add_transition(s1, a, s0, o);
//! let m = b.build(s0).unwrap();
//!
//! let tour = transition_tour(&m).unwrap();
//! let report = coverage(&m, &tour.inputs);
//! assert!(report.all_transitions_covered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bias;
mod greedy;
mod postman;
mod random;
mod uio;
mod verify;
mod wmethod;

pub use bias::{biased_random_test_set, targeted_tour};
pub use greedy::{greedy_transition_tour, state_tour};
pub use postman::{transition_tour, Tour, TourError};
pub use random::{random_test_set, TestSet};
pub use uio::{uio_sequence, uio_test_set, UioError};
pub use verify::{coverage, coverage_set, CoverageReport};
pub use wmethod::{characterization_set, w_method_test_set, WMethodError};

use simcov_fsm::ExplicitMealy;
use simcov_obs::Telemetry;

/// Which tour algorithm to run: the selector behind the CLI's
/// `--greedy`/`--state` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TourKind {
    /// Optimal transition tour (Chinese postman) — [`transition_tour`].
    Postman,
    /// Greedy nearest-uncovered heuristic — [`greedy_transition_tour`].
    Greedy,
    /// State tour (every state at least once) — [`state_tour`].
    State,
}

impl TourKind {
    /// The CLI spelling of this kind (also the telemetry span suffix).
    pub fn name(self) -> &'static str {
        match self {
            TourKind::Postman => "postman",
            TourKind::Greedy => "greedy",
            TourKind::State => "state",
        }
    }
}

impl std::str::FromStr for TourKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "postman" => Ok(TourKind::Postman),
            "greedy" => Ok(TourKind::Greedy),
            "state" => Ok(TourKind::State),
            other => Err(format!("unknown tour kind `{other}`")),
        }
    }
}

/// Generates a tour of the given kind with telemetry: a `tour/<kind>`
/// span around the generation, plus the `tour.length` and
/// `tour.duplicates` counters on success. The recorded data is a pure
/// function of the machine and the kind, so traces stay deterministic.
pub fn generate_tour_traced(
    m: &ExplicitMealy,
    kind: TourKind,
    telemetry: &Telemetry,
) -> Result<Tour, TourError> {
    let tour = {
        let root = telemetry.span("tour");
        let _s = root.child(kind.name());
        match kind {
            TourKind::Postman => transition_tour(m),
            TourKind::Greedy => greedy_transition_tour(m),
            TourKind::State => state_tour(m),
        }?
    };
    telemetry.counter_add("tour.length", tour.len() as u64);
    telemetry.counter_add("tour.duplicates", tour.duplicates as u64);
    Ok(tour)
}

#[cfg(test)]
mod traced_tests {
    use super::*;
    use simcov_fsm::MealyBuilder;

    #[test]
    fn traced_generation_matches_untraced_and_records() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s0, o);
        let m = b.build(s0).unwrap();
        for kind in [TourKind::Postman, TourKind::Greedy, TourKind::State] {
            let tel = Telemetry::new();
            let tour = generate_tour_traced(&m, kind, &tel).unwrap();
            let snap = tel.snapshot();
            assert_eq!(snap.counter("tour.length"), Some(tour.len() as u64));
            assert_eq!(
                snap.span(&format!("tour/{}", kind.name())).unwrap().count,
                1
            );
            assert_eq!(kind.name().parse::<TourKind>().unwrap(), kind);
        }
        assert!("zigzag".parse::<TourKind>().is_err());
    }
}
