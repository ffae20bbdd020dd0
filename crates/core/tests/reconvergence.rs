//! The reconvergence jump (DESIGN.md §11, Lemma 4) on machines built to
//! trigger it. A masked transfer error (the paper's Def 4) diverges from
//! the golden run and rejoins it unobserved; from then on both replay
//! engines jump to the next golden traversal of the faulted cell, or end
//! the sequence when it has none. Each case below pins one edge of that
//! jump: the outcome must equal the naive engine's, the differential and
//! packed engines must account identical effort, and
//! `reconverged_steps_skipped` must equal the hand-derived count.

use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{
    enumerate_single_faults, simulate_fault, DiffStats, Engine, EngineStats, Fault, FaultKind,
    FaultOutcome, FaultSpace, PreparedEngine,
};
use simcov_fsm::{ExplicitMealy, InputSym, MealyBuilder};
use simcov_tour::TestSet;
use std::cell::Cell;

/// Runs `faults` through the naive, differential and packed engines,
/// asserts identical outcomes and identical differential effort, and
/// returns the outcomes and that effort.
fn three_way(
    m: &ExplicitMealy,
    faults: &[Fault],
    tests: &TestSet,
) -> (Vec<FaultOutcome>, DiffStats) {
    let naive: Vec<FaultOutcome> = faults.iter().map(|f| simulate_fault(m, f, tests)).collect();
    let mut effort = Vec::new();
    for engine in [Engine::Differential, Engine::Packed] {
        let prepared = PreparedEngine::new(engine, m, tests, None).expect("explicit engine");
        let mut stats = EngineStats::default();
        let got = prepared.simulate(faults, &mut stats);
        assert_eq!(got, naive, "{engine} vs naive");
        effort.push(stats.diff);
    }
    assert_eq!(effort[0], effort[1], "differential and packed effort");
    (naive, effort[0])
}

/// States `A B C D`, inputs `x y z`. The fault redirects `(A, x)` from
/// `B` to `C`. Input `x` takes both `B` and `C` back to `A`, and `z`
/// takes both to `D`, each with the golden output, so the faulty run
/// rejoins the golden one unobserved after one step. Input `y` tells them
/// apart: `B` emits `o0`, `C` emits `o1`.
fn rejoining_machine() -> (ExplicitMealy, Fault, [InputSym; 3]) {
    let mut b = MealyBuilder::new();
    let [sa, sb, sc, sd] = ["A", "B", "C", "D"].map(|s| b.add_state(s));
    let [x, y, z] = ["x", "y", "z"].map(|i| b.add_input(i));
    let o0 = b.add_output("o0");
    let o1 = b.add_output("o1");
    for (from, x_to, y_to, y_out) in [
        (sa, sb, sa, o0),
        (sb, sa, sd, o0),
        (sc, sa, sd, o1),
        (sd, sd, sa, o0),
    ] {
        b.add_transition(from, x, x_to, o0);
        b.add_transition(from, y, y_to, y_out);
        b.add_transition(from, z, sd, o0);
    }
    let m = b.build(sa).unwrap();
    let fault = Fault {
        state: sa,
        input: x,
        kind: FaultKind::Transfer { new_next: sc },
    };
    (m, fault, [x, y, z])
}

fn outcome(m: &ExplicitMealy, fault: Fault, tests: &TestSet) -> (FaultOutcome, usize) {
    let (mut outcomes, diff) = three_way(m, &[fault], tests);
    (outcomes.remove(0), diff.reconverged_steps_skipped)
}

#[test]
fn masked_excursion_then_detection_on_a_later_excitation() {
    // (a) Golden: A B D A A A B D. The fault diverges at 0, rejoins in D
    // at 2 unobserved, and the jump lands on the next excitation at 5 (3
    // steps skipped) in the golden state A there, not in D. The
    // re-excitation is exposed by `y` at 6.
    let (m, fault, [x, y, z]) = rejoining_machine();
    let tests = TestSet::single(vec![x, z, y, y, y, x, y]);
    let (o, skipped) = outcome(&m, fault, &tests);
    assert_eq!(o.detected, Some((0, 6)));
    assert!(o.excited && !o.masked_somewhere);
    assert_eq!(skipped, 3);
}

#[test]
fn reconvergence_exactly_on_an_excitation_jumps_zero_steps() {
    // (b) Golden: A B A B D. The faulty run rejoins at 2, which is itself
    // a traversal of (A, x): the jump must take it (0 steps), not skip
    // past it, or the detection at 3 is lost.
    let (m, fault, [x, y, _]) = rejoining_machine();
    let tests = TestSet::single(vec![x, x, x, y]);
    let (o, skipped) = outcome(&m, fault, &tests);
    assert_eq!(o.detected, Some((0, 3)));
    assert_eq!(skipped, 0);
    // Golden: A B A B A. Rejoins at 2 on an excitation, diverges again,
    // and rejoins at 4 at the end of the sequence: masked, 0 skipped.
    let tests = TestSet::single(vec![x, x, x, x]);
    let (o, skipped) = outcome(&m, fault, &tests);
    assert_eq!(o.detected, None);
    assert!(o.excited && o.masked_somewhere);
    assert_eq!(skipped, 0);
}

#[test]
fn reconvergence_without_a_later_excitation_ends_the_sequence() {
    // (c) Sequence 0 (golden A B A A A A A) rejoins at 2 and never
    // traverses (A, x) again: it ends masked, its last 6 − 2 = 4 steps
    // skipped. Sequence 1 excites the fault afresh and detects it at 1.
    let (m, fault, [x, y, _]) = rejoining_machine();
    let tests = TestSet {
        sequences: vec![vec![x, x, y, y, y, y], vec![x, y]],
    };
    let (o, skipped) = outcome(&m, fault, &tests);
    assert_eq!(o.detected, Some((1, 1)));
    assert!(o.excited && o.masked_somewhere, "sequence 0 masked");
    assert_eq!(skipped, 4);
}

#[test]
fn reconvergence_before_a_golden_truncation() {
    // (d) A partial machine: (E, y) is undefined, so the golden run of
    // x x x x y x truncates after 4 outputs. The fault redirects (A, x)
    // from B to C; both reach E on `x`, rejoining at 2. Nothing traverses
    // (A, x) again, so the sequence ends masked with gl − p = 2 skipped:
    // both runs truncate at the same length, and nothing is detected.
    let mut b = MealyBuilder::new();
    let [sa, sb, sc, se] = ["A", "B", "C", "E"].map(|s| b.add_state(s));
    let x = b.add_input("x");
    let y = b.add_input("y");
    let o0 = b.add_output("o0");
    b.add_transition(sa, x, sb, o0);
    b.add_transition(sb, x, se, o0);
    b.add_transition(sc, x, se, o0);
    b.add_transition(se, x, se, o0);
    let m = b.build(sa).unwrap();
    let fault = Fault {
        state: sa,
        input: x,
        kind: FaultKind::Transfer { new_next: sc },
    };
    let tests = TestSet::single(vec![x, x, x, x, y, x]);
    let (o, skipped) = outcome(&m, fault, &tests);
    assert_eq!(o.detected, None);
    assert!(o.excited && o.masked_somewhere);
    assert_eq!(skipped, 2);
}

/// A random machine on which every excursion can rejoin the golden run:
/// input 0 sends every state to one fixed state with one fixed output, a
/// synchronising input that no output can tell apart. Input 1 is a ring,
/// so every state is reachable; the other inputs, if any, are random and
/// possibly undefined.
fn rejoining_random_machine(g: &mut Gen) -> ExplicitMealy {
    let n = g.int_in(2..10usize);
    let ni = g.int_in(2..5usize);
    let no = g.int_in(1..4usize);
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let outs: Vec<_> = (0..no).map(|i| b.add_output(format!("o{i}"))).collect();
    let sync = states[g.int_in(0..n)];
    for (si, &s) in states.iter().enumerate() {
        b.add_transition(s, inputs[0], sync, outs[0]);
        b.add_transition(s, inputs[1], states[(si + 1) % n], outs[g.int_in(0..no)]);
        for &i in &inputs[2..] {
            if g.int_in(0..5u32) > 0 {
                b.add_transition(s, i, states[g.int_in(0..n)], outs[g.int_in(0..no)]);
            }
        }
    }
    b.build(states[0]).unwrap()
}

#[test]
fn random_rejoining_machines_match_naive() {
    let skipped = Cell::new(0usize);
    forall_cfg(
        "reconvergence_jump_equivalence",
        Config::with_cases(64),
        |g: &mut Gen| {
            let m = rejoining_random_machine(g);
            let faults = enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: 300,
                    seed: g.u64(),
                    ..FaultSpace::default()
                },
            );
            let ni = m.num_inputs();
            let tests = TestSet {
                sequences: (0..g.int_in(1..5usize))
                    .map(|_| {
                        (0..g.int_in(0..40usize))
                            .map(|_| InputSym(g.int_in(0..ni) as u32))
                            .collect()
                    })
                    .collect(),
            };
            let (_, diff) = three_way(&m, &faults, &tests);
            skipped.set(skipped.get() + diff.reconverged_steps_skipped);
        },
    );
    assert!(skipped.get() > 0, "the property exercised the jump");
}
