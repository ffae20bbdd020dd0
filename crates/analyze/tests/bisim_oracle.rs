//! The pairwise transfer-fault check against an independent oracle: per
//! cell, the union graph of every target's joint configs, with three
//! absorbing truncation sinks, refined to its coarsest congruence by
//! `simcov_fsm::refine_partition`. On random partial machines the class
//! map must agree with it, and so must the ambiguous cells for every node
//! budget in `0..=64`. A 40-state ring, on which the refinement takes
//! minutes, pins its class counts.

use simcov_analyze::{analyze_collapse, AnalyzeOptions, CollapseAnalysis};
use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{ClassKind, Fault, FaultKind};
use simcov_fsm::{
    partition_by_rows, refine_partition, ExplicitMealy, InputSym, MealyBuilder, OutputSym, StateId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A random partial machine: 2–9 states, 1–4 inputs, 1–4 outputs, ~15%
/// undefined cells.
fn random_machine(g: &mut Gen) -> ExplicitMealy {
    let ns = g.int_in(2..10usize);
    let ni = g.int_in(1..5usize);
    let no = g.int_in(1..5usize);
    let mut b = MealyBuilder::new();
    let states: Vec<StateId> = (0..ns).map(|k| b.add_state(format!("s{k}"))).collect();
    let inputs: Vec<InputSym> = (0..ni).map(|k| b.add_input(format!("i{k}"))).collect();
    let outputs: Vec<OutputSym> = (0..no).map(|k| b.add_output(format!("o{k}"))).collect();
    for &s in &states {
        for &i in &inputs {
            if g.int_in(0..20u32) < 3 {
                continue;
            }
            b.add_transition(s, i, states[g.int_in(0..ns)], outputs[g.int_in(0..no)]);
        }
    }
    b.build(states[0]).unwrap()
}

/// Every transfer fault (every target, the golden one included) at every
/// defined cell of a reachable state, shuffled when `g` is given.
fn all_transfer_faults(m: &ExplicitMealy, g: Option<&mut Gen>) -> Vec<Fault> {
    let mut faults = Vec::new();
    for s in m.reachable_states() {
        for i in m.inputs().filter(|&i| m.step(s, i).is_some()) {
            for t in m.states() {
                faults.push(Fault {
                    state: s,
                    input: i,
                    kind: FaultKind::Transfer { new_next: t },
                });
            }
        }
    }
    if let Some(g) = g {
        for k in (1..faults.len()).rev() {
            faults.swap(k, g.int_in(0..k + 1));
        }
    }
    faults
}

/// Per cell (in cell order), its distinct effective targets in fault
/// order.
fn cell_targets(m: &ExplicitMealy, faults: &[Fault]) -> Vec<((StateId, InputSym), Vec<StateId>)> {
    let mut cells: Vec<((StateId, InputSym), Vec<StateId>)> = Vec::new();
    for f in faults.iter().filter(|f| f.is_effective(m)) {
        let FaultKind::Transfer { new_next } = f.kind else {
            continue;
        };
        let cell = (f.state, f.input);
        let at = match cells.iter().position(|(c, _)| *c == cell) {
            Some(at) => at,
            None => {
                cells.push((cell, Vec::new()));
                cells.len() - 1
            }
        };
        if !cells[at].1.contains(&new_next) {
            cells[at].1.push(new_next);
        }
    }
    cells.sort_by_key(|&((s, i), _)| (s, i));
    cells
}

/// The oracle for one cell: the canonical class of each target (first
/// appearance in target order) and the union graph's node count.
fn union_graph_classes(
    m: &ExplicitMealy,
    (s, i): (StateId, InputSym),
    targets: &[StateId],
) -> (Vec<u32>, usize) {
    const SINKS: usize = 3; // 0 faulty truncates, 1 golden, 2 both.
    let ni = m.num_inputs();
    let (golden_next, cell_out) = m.step(s, i).unwrap();
    let mut ids: HashMap<(usize, StateId, StateId), usize> = HashMap::new();
    let mut nodes: Vec<(usize, StateId, StateId)> = Vec::new();
    let mut intern = |key, nodes: &mut Vec<_>| {
        *ids.entry(key).or_insert_with(|| {
            nodes.push(key);
            SINKS + nodes.len() - 1
        })
    };
    let starts: Vec<usize> = (0..targets.len())
        .map(|ti| intern((ti, targets[ti], golden_next), &mut nodes))
        .collect();
    // Per node: a label row (p == q, then one letter per input) and one
    // successor per input.
    let mut rows: Vec<u32> = Vec::new();
    let mut succ: Vec<u32> = Vec::new();
    for sink in 0..SINKS as u32 {
        rows.push(2 + sink);
        rows.extend(std::iter::repeat_n(9, ni));
        succ.extend(std::iter::repeat_n(sink, ni));
    }
    let mut cursor = 0;
    while cursor < nodes.len() {
        let (ti, p, q) = nodes[cursor];
        cursor += 1;
        rows.push(u32::from(p == q));
        for x in m.inputs() {
            let fstep = if (p, x) == (s, i) {
                Some((targets[ti], cell_out))
            } else {
                m.step(p, x)
            };
            let (letter, next) = match (fstep, m.step(q, x)) {
                (None, Some(_)) => (0, 0),
                (Some(_), None) => (1, 1),
                (None, None) => (2, 2),
                (Some((fp, fo)), Some((gq, go))) => {
                    (3 + u32::from(fo != go), intern((ti, fp, gq), &mut nodes))
                }
            };
            rows.push(letter);
            succ.push(next as u32);
        }
    }
    let initial = partition_by_rows(&rows, ni + 1);
    let part = refine_partition(&initial.class_of, ni, &succ);
    let raw: Vec<u32> = starts.iter().map(|&n| part.class_of[n]).collect();
    (canonical(&raw), nodes.len())
}

/// Renumbers classes by first appearance.
fn canonical(raw: &[u32]) -> Vec<u32> {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    raw.iter()
        .map(|&c| {
            let next = seen.len() as u32;
            *seen.entry(c).or_insert(next)
        })
        .collect()
}

/// The analysis's classes of one cell's targets, renumbered by first
/// appearance, with the kind they share.
fn analyzed_classes(
    faults: &[Fault],
    r: &CollapseAnalysis,
    cell: (StateId, InputSym),
    targets: &[StateId],
) -> (Vec<u32>, ClassKind) {
    let class_of = r.certificate.class_of();
    let raw: Vec<u32> = targets
        .iter()
        .map(|&t| {
            let idx = faults
                .iter()
                .position(|f| {
                    (f.state, f.input) == cell && f.kind == FaultKind::Transfer { new_next: t }
                })
                .unwrap();
            class_of[idx]
        })
        .collect();
    let kind = r.certificate.kinds()[raw[0] as usize];
    (canonical(&raw), kind)
}

fn analyze(m: &ExplicitMealy, faults: &[Fault], budget: usize) -> CollapseAnalysis {
    let opts = AnalyzeOptions {
        max_nodes_per_cell: budget,
    };
    analyze_collapse(m, faults, &opts).expect("valid fault universe")
}

#[test]
fn pairwise_classes_match_the_refined_union_graph() {
    // Cells where some targets merge: the property is not vacuous.
    let merging = AtomicUsize::new(0);
    forall_cfg("pairwise_vs_union_graph", Config::with_cases(96), |g| {
        let m = random_machine(g);
        let faults = all_transfer_faults(&m, Some(g));
        let oracle: Vec<_> = cell_targets(&m, &faults)
            .into_iter()
            .map(|(cell, targets)| {
                let (classes, nodes) = union_graph_classes(&m, cell, &targets);
                (cell, targets, classes, nodes)
            })
            .collect();

        let r = analyze(&m, &faults, AnalyzeOptions::default().max_nodes_per_cell);
        assert!(r.ambiguous_cells.is_empty());
        for (cell, targets, classes, _) in &oracle {
            let (got, kind) = analyzed_classes(&faults, &r, *cell, targets);
            assert_eq!(&got, classes, "cell {cell:?}, targets {targets:?}");
            assert_eq!(kind, ClassKind::Transfer);
            if classes.iter().max().map_or(0, |&c| c as usize + 1) < targets.len() {
                merging.fetch_add(1, Ordering::Relaxed);
            }
        }

        // A cell with two or more targets is ambiguous iff its union
        // graph exceeds the budget; its targets then stay apart.
        for budget in 0..=64 {
            let r = analyze(&m, &faults, budget);
            let ambiguous: Vec<(StateId, InputSym)> = oracle
                .iter()
                .filter(|(_, targets, _, nodes)| targets.len() > 1 && *nodes > budget)
                .map(|(cell, ..)| *cell)
                .collect();
            assert_eq!(r.ambiguous_cells, ambiguous, "budget {budget}");
            for (cell, targets, classes, _) in &oracle {
                let (got, kind) = analyzed_classes(&faults, &r, *cell, targets);
                if ambiguous.contains(cell) {
                    assert_eq!(got, (0..targets.len() as u32).collect::<Vec<_>>());
                    assert_eq!(kind, ClassKind::Singleton);
                } else {
                    assert_eq!(&got, classes, "budget {budget}, cell {cell:?}");
                }
            }
        }
    });
    assert!(merging.into_inner() >= 20, "too few merging cells");
}

/// A 40-state ring over `ni` inputs: `step` advances, `back` (from two
/// inputs) retreats and `hold` (from three) stays. Outputs mark every
/// fourth state, so golden states four apart are bisimilar; as transfer
/// targets they still differ, in when the faulty walk re-converges.
fn ring(ni: usize) -> ExplicitMealy {
    const N: usize = 40;
    let mut b = MealyBuilder::new();
    let states: Vec<StateId> = (0..N).map(|k| b.add_state(format!("r{k}"))).collect();
    let mark = [b.add_output("o0"), b.add_output("o1")];
    let moves: [(&str, usize); 3] = [("step", 1), ("back", N - 1), ("hold", 0)];
    for &(name, delta) in &moves[..ni] {
        let x = b.add_input(name);
        for k in 0..N {
            let next = (k + delta) % N;
            b.add_transition(states[k], x, states[next], mark[usize::from(k % 4 == 0)]);
        }
    }
    b.build(states[0]).unwrap()
}

/// Every effective target at every cell is a class of its own, and each
/// cell's golden target is its ineffective class. The counts agree with
/// the refinement oracle above, which needs 4–10 s a cell (union graphs
/// of 18,040 configs with one input, 36,080 with two or three) in a
/// release build: minutes a ring.
#[test]
fn ring_class_counts_are_pinned() {
    // (inputs, classes, transfer classes, ineffective classes).
    for (ni, classes, transfer, ineffective) in [
        (1, 1600, 1560, 40),
        (2, 3200, 3120, 80),
        (3, 4800, 4680, 120),
    ] {
        let m = ring(ni);
        let faults = all_transfer_faults(&m, None);
        let r = analyze(&m, &faults, AnalyzeOptions::default().max_nodes_per_cell);
        assert!(r.ambiguous_cells.is_empty());
        assert_eq!(
            (
                r.stats.classes,
                r.stats.transfer_classes,
                r.stats.ineffective_classes
            ),
            (classes, transfer, ineffective),
            "{ni}-input ring"
        );
    }
}
