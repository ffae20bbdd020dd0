//! Property-based tests for tour generation on random strongly connected
//! machines, on the workspace's hermetic `forall` driver.

use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_fsm::{ExplicitMealy, MealyBuilder, StateId};
use simcov_tour::{coverage, greedy_transition_tour, random_test_set, state_tour, transition_tour};

/// A random machine guaranteed strongly connected: a base ring on input 0
/// plus arbitrary extra edges on the remaining inputs.
#[derive(Debug, Clone)]
struct MachineRecipe {
    n: usize,
    extra: Vec<(u16, u16, u16)>, // (state, input>=1, dest)
    num_inputs: usize,
}

fn machine_recipe(g: &mut Gen) -> MachineRecipe {
    let n = g.int_in(2..12usize);
    let num_inputs = g.int_in(1..4usize);
    let extra = (0..g.int_in(0..20usize))
        .map(|_| (g.u16(), g.u16(), g.u16()))
        .collect();
    MachineRecipe {
        n,
        extra,
        num_inputs,
    }
}

fn build(r: &MachineRecipe) -> ExplicitMealy {
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..r.n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..r.num_inputs + 1)
        .map(|i| b.add_input(format!("i{i}")))
        .collect();
    let outs: Vec<_> = (0..r.n).map(|i| b.add_output(format!("o{i}"))).collect();
    for i in 0..r.n {
        b.add_transition(states[i], inputs[0], states[(i + 1) % r.n], outs[i]);
    }
    let mut used = std::collections::HashSet::new();
    for &(s, inp, d) in &r.extra {
        let s = s as usize % r.n;
        let inp = 1 + (inp as usize % r.num_inputs);
        let d = d as usize % r.n;
        if used.insert((s, inp)) {
            b.add_transition(states[s], inputs[inp], states[d], outs[d]);
        }
    }
    b.build(states[0])
        .expect("recipe machines are deterministic")
}

/// The Chinese-postman tour covers every transition and has the promised
/// length (edges + duplicates) — the certificate invariant of Theorem 3's
/// test-set construction: `tour.len() == num_transitions + duplicates`.
#[test]
fn postman_tour_covers_everything() {
    forall_cfg(
        "postman_tour_covers_everything",
        Config::with_cases(96),
        |g| {
            let m = build(&machine_recipe(g));
            let tour = transition_tour(&m).expect("ring base makes it strongly connected");
            let report = coverage(&m, &tour.inputs);
            assert!(report.all_transitions_covered());
            assert!(report.all_states_covered());
            assert_eq!(tour.len(), m.num_transitions() + tour.duplicates);
            // The tour is a circuit: it ends where it started.
            let (states, _) = m.run(m.reset(), &tour.inputs);
            assert_eq!(*states.last().unwrap(), m.reset());
        },
    );
}

/// The postman tour duplicates as few edges as possible. The brute force
/// splits every surplus and deficit state into unit copies and tries
/// every assignment of surplus units to deficit units, a pair costing the
/// shortest-path distance ([`ExplicitMealy::bfs`]) between its states.
/// The ring is balanced, so at most seven extra edges keep it to at most
/// seven units a side.
#[test]
fn postman_duplicates_are_minimal() {
    forall_cfg(
        "postman_duplicates_are_minimal",
        Config::with_cases(256),
        |g| {
            let mut r = machine_recipe(g);
            r.extra.truncate(7);
            let m = build(&r);
            let tour = transition_tour(&m).expect("ring base makes it strongly connected");
            // In-degree minus out-degree of every state.
            let mut balance = vec![0i64; m.num_states()];
            for s in (0..m.num_states()).map(|s| StateId(s as u32)) {
                for i in m.inputs() {
                    if let Some((t, _)) = m.step(s, i) {
                        balance[s.index()] -= 1;
                        balance[t.index()] += 1;
                    }
                }
            }
            let (mut surplus, mut deficit) = (Vec::new(), Vec::new());
            for (s, &b) in balance.iter().enumerate() {
                let units = if b > 0 { &mut surplus } else { &mut deficit };
                units.extend(std::iter::repeat_n(
                    StateId(s as u32),
                    b.unsigned_abs() as usize,
                ));
            }
            assert!(surplus.len() <= 7 && surplus.len() == deficit.len());
            let dist: Vec<Vec<usize>> = surplus
                .iter()
                .map(|&s| {
                    let tree = m.bfs(s, |_| false);
                    deficit
                        .iter()
                        .map(|&d| tree.depth(d).expect("strongly connected"))
                        .collect()
                })
                .collect();
            assert_eq!(tour.duplicates, min_assignment(&dist, 0), "{r:?}");
        },
    );
}

/// The cheapest assignment of the surplus units from row
/// `used.count_ones()` on to the deficit units not in `used`.
fn min_assignment(dist: &[Vec<usize>], used: u32) -> usize {
    let row = used.count_ones() as usize;
    if row == dist.len() {
        return 0;
    }
    (0..dist.len())
        .filter(|&j| used & (1 << j) == 0)
        .map(|j| dist[row][j] + min_assignment(dist, used | (1 << j)))
        .min()
        .expect("a free deficit unit for every surplus unit")
}

/// The greedy tour also covers everything and is never shorter than
/// the optimum.
#[test]
fn greedy_tour_covers_and_bounds() {
    forall_cfg(
        "greedy_tour_covers_and_bounds",
        Config::with_cases(96),
        |g| {
            let m = build(&machine_recipe(g));
            let opt = transition_tour(&m).expect("strongly connected");
            let greedy = greedy_transition_tour(&m).expect("strongly connected");
            assert!(coverage(&m, &greedy.inputs).all_transitions_covered());
            assert!(greedy.len() >= opt.len());
            // And the optimum is at least the edge count.
            assert!(opt.len() >= m.num_transitions());
        },
    );
}

/// State tours visit every state, never more vectors than a
/// transition tour needs.
#[test]
fn state_tour_covers_states() {
    forall_cfg("state_tour_covers_states", Config::with_cases(96), |g| {
        let m = build(&machine_recipe(g));
        let st = state_tour(&m).expect("has transitions");
        let report = coverage(&m, &st.inputs);
        assert!(report.all_states_covered());
        let tt = transition_tour(&m).expect("strongly connected");
        assert!(st.len() <= tt.len());
    });
}

/// Random test sets are reproducible and respect their budget.
#[test]
fn random_sets_deterministic() {
    forall_cfg("random_sets_deterministic", Config::with_cases(96), |g| {
        let m = build(&machine_recipe(g));
        let seed = g.u64();
        let t1 = random_test_set(&m, 3, 20, seed);
        let t2 = random_test_set(&m, 3, 20, seed);
        assert_eq!(&t1, &t2);
        assert!(t1.total_vectors() <= 60);
        // Coverage of a random set never exceeds full coverage and the
        // report's fraction is within [0, 1].
        let seqs: Vec<&[_]> = t1.sequences.iter().map(Vec::as_slice).collect();
        let rep = simcov_tour::coverage_set(&m, seqs);
        assert!(rep.transition_fraction() <= 1.0);
        assert!(rep.state_fraction() <= 1.0);
    });
}

/// Tours on machines with unreachable states ignore them.
#[test]
fn unreachable_states_do_not_affect_tours() {
    forall_cfg(
        "unreachable_states_do_not_affect_tours",
        Config::with_cases(96),
        |g| {
            let m = build(&machine_recipe(g));
            // Append unreachable states by rebuilding with extras.
            let mut b = MealyBuilder::new();
            for s in m.states() {
                b.add_state(m.state_label(s));
            }
            let dead = b.add_state("dead");
            for i in m.inputs() {
                b.add_input(m.input_label(i));
            }
            for o in 0..m.num_outputs() {
                b.add_output(format!("o{o}"));
            }
            for t in m.transitions() {
                b.add_transition(t.state, t.input, t.next, t.output);
            }
            b.add_transition(
                dead,
                simcov_fsm::InputSym(0),
                StateId(0),
                simcov_fsm::OutputSym(0),
            );
            let m2 = b.build(m.reset()).expect("extended machine builds");
            let t1 = transition_tour(&m).expect("sc");
            let t2 = transition_tour(&m2).expect("sc");
            assert_eq!(t1.len(), t2.len());
        },
    );
}

/// Every generated tour honours its certificate: the tour traverses each
/// transition at least once with exactly `duplicates` re-traversals in
/// total.
#[test]
fn tour_certificate_and_parallel_coverage_agree() {
    forall_cfg(
        "tour_certificate_and_parallel_coverage_agree",
        Config::with_cases(96),
        |g| {
            let m = build(&machine_recipe(g));
            let tour = transition_tour(&m).expect("sc");
            let seq: &[_] = &tour.inputs;
            let serial = simcov_tour::coverage_set(&m, [seq]);
            assert_eq!(serial.transitions_covered, m.num_transitions());
            assert_eq!(serial.applied_length, m.num_transitions() + tour.duplicates);
        },
    );
}
