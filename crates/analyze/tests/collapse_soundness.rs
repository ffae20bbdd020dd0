//! Collapse soundness, property-tested end to end: on random machines,
//! every certificate the analysis produces must be *invisible* to the
//! campaign — `--collapse on` reproduces the uncollapsed report bit for
//! bit, `--collapse verify` finds zero violations, and every class
//! member's outcome equals its representative's — under all three
//! engines at 1, 2 and 8 workers. Plus tamper detection: a certificate
//! must reject foreign machines and fault lists, and a forged partition
//! must be caught by the verify audit.

use simcov_analyze::{analyze_collapse, AnalyzeOptions};
use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{
    enumerate_single_faults, CampaignError, CollapseCertificate, CollapseMode, Engine, Fault,
    FaultKind, FaultSpace, ResilientCampaign,
};
use simcov_fsm::{ExplicitMealy, InputSym, MealyBuilder, OutputSym, StateId};
use simcov_tour::TestSet;

/// A random (possibly partial, possibly not strongly connected) machine:
/// 2–7 states, 1–3 inputs, 1–4 outputs, ~10% undefined cells.
fn random_machine(g: &mut Gen) -> ExplicitMealy {
    let ns = g.int_in(2..8usize);
    let ni = g.int_in(1..4usize);
    let no = g.int_in(1..5usize);
    let mut b = MealyBuilder::new();
    let states: Vec<StateId> = (0..ns).map(|k| b.add_state(format!("s{k}"))).collect();
    let inputs: Vec<InputSym> = (0..ni).map(|k| b.add_input(format!("i{k}"))).collect();
    let outputs: Vec<OutputSym> = (0..no).map(|k| b.add_output(format!("o{k}"))).collect();
    for &s in &states {
        for &i in &inputs {
            if g.int_in(0..10u32) == 0 {
                continue;
            }
            let t = states[g.int_in(0..ns)];
            let o = outputs[g.int_in(0..no)];
            b.add_transition(s, i, t, o);
        }
    }
    b.build(states[0]).unwrap()
}

/// The enumerated fault universe plus hand-made faults on unreachable
/// states (enumeration only covers reachable ones, and the global
/// unreachable class deserves coverage too).
fn random_faults(g: &mut Gen, m: &ExplicitMealy) -> Vec<Fault> {
    let mut faults = enumerate_single_faults(
        m,
        &FaultSpace {
            transfer: true,
            output: true,
            max_faults: 120,
            seed: g.u64(),
        },
    );
    let mut reachable = vec![false; m.num_states()];
    for s in m.reachable_states() {
        reachable[s.index()] = true;
    }
    for s in m.states().filter(|s| !reachable[s.index()]) {
        if let Some(i) = m.inputs().find(|&i| m.step(s, i).is_some()) {
            let t = StateId(g.int_in(0..m.num_states() as u32));
            faults.push(Fault {
                state: s,
                input: i,
                kind: FaultKind::Transfer { new_next: t },
            });
        }
    }
    faults
}

fn random_tests(g: &mut Gen, m: &ExplicitMealy) -> TestSet {
    let ni = m.num_inputs() as u32;
    let sequences = g.vec_of(1..5, |g| {
        g.vec_of(0..12, |g| InputSym(g.int_in(0..ni)))
            .into_iter()
            .collect()
    });
    TestSet { sequences }
}

#[test]
fn collapse_is_invisible_under_every_engine_and_worker_count() {
    forall_cfg(
        "collapse_invisible_random_machines",
        Config::with_cases(48),
        |g| {
            let m = random_machine(g);
            let faults = random_faults(g, &m);
            let tests = random_tests(g, &m);
            let analysis =
                analyze_collapse(&m, &faults, &AnalyzeOptions::default()).expect("valid universe");
            let cert = &analysis.certificate;
            cert.check(&m, &faults).expect("fresh certificate binds");

            for engine in [Engine::Naive, Engine::Differential, Engine::Packed] {
                for jobs in [1usize, 2, 8] {
                    let off = ResilientCampaign::new(&m, &faults, &tests)
                        .engine(engine)
                        .jobs(jobs)
                        .run()
                        .unwrap();
                    // Member outcomes equal their representative's.
                    assert!(
                        cert.violations(&off.report.outcomes).is_empty(),
                        "{engine:?}/jobs={jobs}: member diverged from representative"
                    );
                    // Pruned simulation expands to the identical report.
                    let on = ResilientCampaign::new(&m, &faults, &tests)
                        .engine(engine)
                        .jobs(jobs)
                        .collapse(cert, CollapseMode::On)
                        .run()
                        .unwrap();
                    assert_eq!(
                        on.report.outcomes, off.report.outcomes,
                        "{engine:?}/jobs={jobs}: collapse on must be invisible"
                    );
                    assert_eq!(on.stats, off.stats, "{engine:?}/jobs={jobs}");
                    // The built-in audit agrees.
                    let verify = ResilientCampaign::new(&m, &faults, &tests)
                        .engine(engine)
                        .jobs(jobs)
                        .collapse(cert, CollapseMode::Verify)
                        .run()
                        .unwrap();
                    let summary = verify.collapse.expect("verify carries a summary");
                    assert!(
                        summary.violations.is_empty(),
                        "{engine:?}/jobs={jobs}: {:?}",
                        summary.violations
                    );
                }
            }
        },
    );
}

/// Exhaustive short test set for the deterministic tamper checks: every
/// input word of length 1..=3.
fn exhaustive_tests(m: &ExplicitMealy, max_len: usize) -> TestSet {
    let mut sequences: Vec<Vec<InputSym>> = vec![Vec::new()];
    let mut all = Vec::new();
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &sequences {
            for i in m.inputs() {
                let mut s = seq.clone();
                s.push(i);
                next.push(s);
            }
        }
        all.extend(next.iter().cloned());
        sequences = next;
    }
    TestSet { sequences: all }
}

#[test]
fn certificate_rejects_foreign_machine_and_fault_list() {
    let (m, seeded_fault) = simcov_core::testutil::figure2();
    let faults = enumerate_single_faults(&m, &FaultSpace::default());
    let analysis = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
    let cert = analysis.certificate;
    assert!(cert.check(&m, &faults).is_ok());
    let mutated = seeded_fault.inject(&m);
    assert!(cert.check(&mutated, &faults).is_err(), "foreign machine");
    let mut reordered = faults.clone();
    reordered.swap(0, 1);
    assert!(cert.check(&m, &reordered).is_err(), "foreign fault list");
}

#[test]
fn campaign_refuses_a_stale_certificate() {
    let (m, seeded_fault) = simcov_core::testutil::figure2();
    let faults = enumerate_single_faults(&m, &FaultSpace::default());
    let analysis = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
    let mutated = seeded_fault.inject(&m);
    let tests = exhaustive_tests(&mutated, 2);
    let err = ResilientCampaign::new(&mutated, &faults, &tests)
        .collapse(&analysis.certificate, CollapseMode::On)
        .run()
        .unwrap_err();
    assert!(matches!(err, CampaignError::Certificate { .. }), "{err}");
}

#[test]
fn forged_partition_is_caught_by_verify() {
    let (m, _) = simcov_core::testutil::figure2();
    let faults = enumerate_single_faults(&m, &FaultSpace::default());
    let tests = exhaustive_tests(&m, 3);
    // Forge "every fault is equivalent": structurally valid, semantically
    // wrong.
    let forged = CollapseCertificate::new(
        &m,
        &faults,
        vec![0; faults.len()],
        vec![simcov_core::ClassKind::Singleton],
        Vec::new(),
    )
    .unwrap();
    let run = ResilientCampaign::new(&m, &faults, &tests)
        .collapse(&forged, CollapseMode::Verify)
        .run()
        .unwrap();
    let summary = run.collapse.expect("verify carries a summary");
    assert!(
        !summary.violations.is_empty(),
        "a one-class partition over figure2's fault universe cannot be sound"
    );
}
