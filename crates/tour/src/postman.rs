//! Optimal transition tours via the Chinese postman problem.
//!
//! A transition tour visiting every edge of the state transition graph at
//! least once, of minimum total length, is a directed Chinese postman
//! tour: duplicate a minimum-cost set of edges to make the graph Eulerian
//! (every vertex balanced), then extract an Euler circuit. Duplication is
//! one min-cost flow on the machine graph itself, from surplus vertices
//! (in-degree > out-degree) to deficit vertices, solved with successive
//! shortest paths — optimal because all arc costs are non-negative (one
//! edge = one step).
//!
//! States are indexed by `StateId` and cells by state × input. Each
//! distinct `(state, successor)` pair is one uncapacitated unit-cost arc,
//! carried by its smallest input, so the flow on an arc is the number of
//! extra traversals of that cell.

use simcov_fsm::{ExplicitMealy, InputSym, StateId};
use std::collections::VecDeque;
use std::fmt;

/// A generated tour: an input sequence to apply from the reset state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tour {
    /// The input sequence, applied from the machine's reset state.
    pub inputs: Vec<InputSym>,
    /// Number of edge *re-traversals* beyond one visit per transition
    /// (`inputs.len() == num_transitions_on_reachable + duplicates`).
    pub duplicates: usize,
}

impl Tour {
    /// Total length of the tour (number of transitions taken).
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` if the tour is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

impl fmt::Display for Tour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tour of length {} ({} duplicates)",
            self.len(),
            self.duplicates
        )
    }
}

/// Errors from tour generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TourError {
    /// The reachable sub-graph is not strongly connected, so no single
    /// input sequence can traverse every transition. (Use a resettable
    /// test *set* instead — see the paper's note that a test set consists
    /// of test vector *sequences*.)
    NotStronglyConnected,
    /// The machine has no transitions from the reset state.
    NoTransitions,
    /// State-tour generation got trapped: the walk entered a region from
    /// which no unvisited state is reachable (the reachable graph has
    /// diverging one-way branches, e.g. two sink components). `visited`
    /// of `total` reachable states were covered before the trap.
    Trapped {
        /// States visited before the trap.
        visited: usize,
        /// Total reachable states.
        total: usize,
    },
}

impl fmt::Display for TourError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TourError::NotStronglyConnected => {
                write!(f, "reachable state graph is not strongly connected")
            }
            TourError::NoTransitions => write!(f, "no transitions reachable from reset"),
            TourError::Trapped { visited, total } => write!(
                f,
                "state tour trapped in a one-way branch after visiting {visited} of {total} \
                 reachable states"
            ),
        }
    }
}

impl std::error::Error for TourError {}

/// Computes a minimum-length transition tour of the reachable part of `m`
/// (the directed Chinese postman tour), starting and ending at the reset
/// state.
///
/// # Errors
///
/// * [`TourError::NotStronglyConnected`] if some reachable transition
///   cannot be followed by a return to the rest of the graph;
/// * [`TourError::NoTransitions`] for a machine with no edges.
pub fn transition_tour(m: &ExplicitMealy) -> Result<Tour, TourError> {
    let reach = m.reachable_states();
    let ni = m.num_inputs();
    // `uses[s * ni + i]`: how often the tour takes cell `(s, i)`; once for
    // every reachable defined cell before duplication.
    let mut uses = vec![0u64; m.num_states() * ni];
    // Vertex balance: positive = needs extra outgoing duplicates.
    let mut balance = vec![0i64; m.num_states()];
    let mut edges = 0usize;
    for &s in &reach {
        for i in m.inputs() {
            if let Some((n, _)) = m.step(s, i) {
                uses[s.index() * ni + i.index()] = 1;
                balance[s.index()] -= 1;
                balance[n.index()] += 1;
                edges += 1;
            }
        }
    }
    if edges == 0 {
        return Err(TourError::NoTransitions);
    }
    if !m.is_strongly_connected() {
        return Err(TourError::NotStronglyConnected);
    }
    let duplicates = solve_flow(m, &reach, &balance, &mut uses);
    let inputs = hierholzer(m, uses);
    debug_assert_eq!(inputs.len(), edges + duplicates as usize);
    Ok(Tour {
        inputs,
        duplicates: duplicates as usize,
    })
}

/// Minimum-cost flow on the machine graph: route `balance > 0` supply to
/// `balance < 0` demand along transitions (cost 1 each), adding the
/// duplicated traversals to `uses`. Returns the total duplicated edge
/// count.
///
/// Node `s` is state `s`; a source feeds every surplus state and every
/// deficit state drains into a sink. Arcs are added in `reach` order —
/// each state's successor arcs by input, then its source or sink arc —
/// which fixes the instance and so its tie-breaks.
fn solve_flow(m: &ExplicitMealy, reach: &[StateId], balance: &[i64], uses: &mut [u64]) -> u64 {
    let n = m.num_states();
    let ni = m.num_inputs();
    let (src, snk) = (n, n + 1);
    let mut mcmf = Mcmf::new(n + 2);
    // `(arc, cell)` for every state-graph arc; `last_from[t] == s + 1`
    // once `s -> t` has its arc.
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    let mut last_from = vec![0usize; n];
    for &s in reach {
        let s = s.index();
        for i in m.inputs() {
            if let Some((t, _)) = m.step(StateId(s as u32), i) {
                if last_from[t.index()] != s + 1 {
                    last_from[t.index()] = s + 1;
                    arcs.push((mcmf.add_edge(s, t.index(), u64::MAX, 1), s * ni + i.index()));
                }
            }
        }
        match balance[s] {
            b if b > 0 => _ = mcmf.add_edge(src, s, b as u64, 0),
            b if b < 0 => _ = mcmf.add_edge(s, snk, b.unsigned_abs(), 0),
            _ => {}
        }
    }
    let total = mcmf.run(src, snk);
    for (e, cell) in arcs {
        uses[cell] += mcmf.flow(e);
    }
    total
}

/// Minimal successive-shortest-path min-cost max-flow (SPFA variant,
/// correct with the negative-cost residual arcs the augmentations create).
struct Mcmf {
    // Edge arrays: to, cap, cost; edge i and i^1 are a residual pair.
    to: Vec<usize>,
    cap: Vec<u64>,
    cost: Vec<i64>,
    head: Vec<Vec<usize>>,
}

impl Mcmf {
    fn new(n: usize) -> Self {
        Mcmf {
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Adds the arc `u -> v` and its residual twin; returns the arc.
    fn add_edge(&mut self, u: usize, v: usize, cap: u64, cost: i64) -> usize {
        let e = self.to.len();
        self.to.push(v);
        self.cap.push(cap);
        self.cost.push(cost);
        self.head[u].push(e);
        self.to.push(u);
        self.cap.push(0);
        self.cost.push(-cost);
        self.head[v].push(e + 1);
        e
    }

    /// Runs max-flow at min cost; returns total cost.
    fn run(&mut self, src: usize, snk: usize) -> u64 {
        let n = self.head.len();
        let mut total_cost = 0i64;
        loop {
            // SPFA shortest path in residual network.
            let mut dist = vec![i64::MAX; n];
            let mut in_q = vec![false; n];
            let mut pre: Vec<Option<usize>> = vec![None; n];
            dist[src] = 0;
            let mut q = VecDeque::from([src]);
            in_q[src] = true;
            while let Some(u) = q.pop_front() {
                in_q[u] = false;
                for &e in &self.head[u] {
                    if self.cap[e] > 0 && dist[u] + self.cost[e] < dist[self.to[e]] {
                        let v = self.to[e];
                        dist[v] = dist[u] + self.cost[e];
                        pre[v] = Some(e);
                        if !in_q[v] {
                            in_q[v] = true;
                            q.push_back(v);
                        }
                    }
                }
            }
            if dist[snk] == i64::MAX {
                break;
            }
            // Bottleneck along the path.
            let mut bottleneck = u64::MAX;
            let mut v = snk;
            while let Some(e) = pre[v] {
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = snk;
            while let Some(e) = pre[v] {
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                v = self.to[e ^ 1];
            }
            total_cost += dist[snk] * bottleneck as i64;
        }
        total_cost as u64
    }

    /// Flow sent on arc `e`: what its residual twin has gained.
    fn flow(&self, e: usize) -> u64 {
        self.cap[e ^ 1]
    }
}

/// Hierholzer's algorithm: the Euler circuit from reset of the balanced,
/// connected multigraph that takes each cell `(s, i)` `uses[s * ni + i]`
/// times, as its sequence of inputs. A state's cells are left in input
/// order, each as often as it is used before the next.
fn hierholzer(m: &ExplicitMealy, mut uses: Vec<u64>) -> Vec<InputSym> {
    let ni = m.num_inputs();
    // The next input of each state that may still have uses left.
    let mut next_input = vec![0usize; m.num_states()];
    // Iterative Hierholzer producing edges in reverse.
    let mut stack: Vec<StateId> = vec![m.reset()];
    let mut edge_stack: Vec<InputSym> = Vec::new();
    let mut circuit: Vec<InputSym> = Vec::new();
    while let Some(&u) = stack.last() {
        let base = u.index() * ni;
        let next = &mut next_input[u.index()];
        while *next < ni && uses[base + *next] == 0 {
            *next += 1;
        }
        if *next < ni {
            uses[base + *next] -= 1;
            let inp = InputSym(*next as u32);
            stack.push(m.step(u, inp).expect("used cells are defined").0);
            edge_stack.push(inp);
        } else {
            stack.pop();
            if let Some(inp) = edge_stack.pop() {
                circuit.push(inp);
            }
        }
    }
    circuit.reverse();
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::coverage;
    use simcov_fsm::MealyBuilder;

    fn two_state() -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s0, c, s0, o);
        b.add_transition(s1, a, s0, o);
        b.add_transition(s1, c, s1, o);
        b.build(s0).unwrap()
    }

    #[test]
    fn eulerian_graph_needs_no_duplicates() {
        let m = two_state();
        let tour = transition_tour(&m).unwrap();
        assert_eq!(tour.duplicates, 0);
        assert_eq!(tour.len(), 4);
        assert!(coverage(&m, &tour.inputs).all_transitions_covered());
    }

    #[test]
    fn unbalanced_graph_duplicates_minimally() {
        // s0 -a-> s1, s0 -b-> s1, s1 -a-> s0 : s0 has out 2 / in 1.
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let bb = b.add_input("b");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s0, bb, s1, o);
        b.add_transition(s1, a, s0, o);
        let m = b.build(s0).unwrap();
        let tour = transition_tour(&m).unwrap();
        // Must retraverse s1->s0 once: 3 edges + 1 duplicate.
        assert_eq!(tour.duplicates, 1);
        assert_eq!(tour.len(), 4);
        assert!(coverage(&m, &tour.inputs).all_transitions_covered());
    }

    #[test]
    fn tour_returns_to_reset() {
        let m = two_state();
        let tour = transition_tour(&m).unwrap();
        let (states, _) = m.run(m.reset(), &tour.inputs);
        assert_eq!(*states.last().unwrap(), m.reset());
    }

    #[test]
    fn rejects_non_strongly_connected() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let sink = b.add_state("sink");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, sink, o);
        b.add_transition(sink, a, sink, o);
        let m = b.build(s0).unwrap();
        assert_eq!(
            transition_tour(&m).unwrap_err(),
            TourError::NotStronglyConnected
        );
    }

    #[test]
    fn larger_ring_with_chords() {
        // 6-state ring with chord edges; verify full coverage and
        // optimality sanity (tour length ≥ edge count).
        let mut b = MealyBuilder::new();
        let states: Vec<_> = (0..6).map(|i| b.add_state(format!("s{i}"))).collect();
        let step = b.add_input("step");
        let jump = b.add_input("jump");
        let o = b.add_output("o");
        for i in 0..6 {
            b.add_transition(states[i], step, states[(i + 1) % 6], o);
            b.add_transition(states[i], jump, states[(i + 3) % 6], o);
        }
        let m = b.build(states[0]).unwrap();
        let tour = transition_tour(&m).unwrap();
        assert!(coverage(&m, &tour.inputs).all_transitions_covered());
        assert_eq!(tour.len(), m.num_transitions() + tour.duplicates);
        // This graph is Eulerian (every vertex has out=2, in=2).
        assert_eq!(tour.duplicates, 0);
    }

    #[test]
    fn unreachable_states_ignored() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let dead = b.add_state("dead");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s0, o);
        b.add_transition(dead, a, s0, o);
        let m = b.build(s0).unwrap();
        let tour = transition_tour(&m).unwrap();
        assert_eq!(tour.len(), 2);
    }

    #[test]
    fn single_state_self_loops() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o = b.add_output("o");
        b.add_transition(s0, a, s0, o);
        b.add_transition(s0, c, s0, o);
        let m = b.build(s0).unwrap();
        let tour = transition_tour(&m).unwrap();
        assert_eq!(tour.len(), 2);
        assert_eq!(tour.duplicates, 0);
    }
}
