//! Property-based tests for the error model, distinguishability analysis
//! and fault campaigns, on the workspace's hermetic `forall` driver.

use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{
    certify_completeness, detects, enumerate_single_faults, extend_cyclically,
    forall_k_distinguishable, run_campaign, Engine, Fault, FaultKind, FaultSpace,
    ResilientCampaign,
};
use simcov_fsm::{ExplicitMealy, InputSym, MealyBuilder, OutputSym, StateId};
use simcov_tour::{transition_tour, TestSet};

/// Random complete machines over a ring backbone (strongly connected).
#[derive(Debug, Clone)]
struct Recipe {
    n: usize,
    ni: usize,
    dests: Vec<u16>,
    outs: Vec<u16>,
    distinct_outputs: bool,
}

fn recipe(g: &mut Gen) -> Recipe {
    let n = g.int_in(2..8usize);
    let ni = g.int_in(1..4usize);
    let distinct_outputs = g.bool();
    let cells = n * ni;
    let dests = (0..cells).map(|_| g.u16()).collect();
    let outs = (0..cells).map(|_| g.u16()).collect();
    Recipe {
        n,
        ni,
        dests,
        outs,
        distinct_outputs,
    }
}

fn build(r: &Recipe) -> ExplicitMealy {
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..r.n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..r.ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let num_outs = if r.distinct_outputs { r.n * r.ni } else { 2 };
    let outs: Vec<_> = (0..num_outs)
        .map(|i| b.add_output(format!("o{i}")))
        .collect();
    for s in 0..r.n {
        #[allow(clippy::needless_range_loop)]
        for i in 0..r.ni {
            let cell = s * r.ni + i;
            // Input 0 forms the connectivity ring; others are random.
            let dest = if i == 0 {
                (s + 1) % r.n
            } else {
                r.dests[cell] as usize % r.n
            };
            let out = if r.distinct_outputs {
                cell
            } else {
                r.outs[cell] as usize % 2
            };
            b.add_transition(states[s], inputs[i], states[dest], outs[out]);
        }
    }
    b.build(states[0]).expect("complete machine")
}

/// An ineffective fault (same destination / same output) is never
/// detected; an effective output fault is detected by any sequence
/// traversing it.
#[test]
fn fault_injection_sanity() {
    forall_cfg("fault_injection_sanity", Config::with_cases(64), |g| {
        let r = recipe(g);
        let m = build(&r);
        let s = StateId(g.u16() as u32 % m.num_states() as u32);
        let i = InputSym(g.u16() as u32 % m.num_inputs() as u32);
        let (next, out) = m.step(s, i).expect("complete");
        let noop = Fault {
            state: s,
            input: i,
            kind: FaultKind::Transfer { new_next: next },
        };
        assert!(!noop.is_effective(&m));
        let tour = transition_tour(&m).expect("sc");
        assert_eq!(detects(&m, &noop.inject(&m), &tour.inputs), None);
        // Output fault with a different symbol is caught by the tour
        // (tours traverse every transition, and output errors on explicit
        // machines are uniform by construction).
        let other = OutputSym((out.0 + 1) % m.num_outputs() as u32);
        if other != out {
            let of = Fault {
                state: s,
                input: i,
                kind: FaultKind::Output { new_output: other },
            };
            assert!(detects(&m, &of.inject(&m), &tour.inputs).is_some());
        }
    });
}

/// ∀k-distinguishability is monotone in k, and with per-transition
/// distinct outputs it always holds at k = 1.
#[test]
fn distinguishability_monotone() {
    forall_cfg("distinguishability_monotone", Config::with_cases(64), |g| {
        let r = recipe(g);
        let m = build(&r);
        let mut prev = usize::MAX;
        for k in 1..=4 {
            let d = forall_k_distinguishable(&m, k, 0).expect("complete");
            assert!(d.violations.len() <= prev, "k={k}");
            prev = d.violations.len();
        }
        if r.distinct_outputs {
            let d = forall_k_distinguishable(&m, 1, 0).expect("complete");
            assert!(d.holds());
        }
    });
}

/// Theorem 3, universally: whenever a certificate is issued, the
/// extended transition tour detects every effective single fault.
#[test]
fn certificates_imply_complete_campaigns() {
    forall_cfg(
        "certificates_imply_complete_campaigns",
        Config::with_cases(64),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            for k in 1..=3 {
                if let Ok(cert) = certify_completeness(&m, k, None) {
                    let tour = transition_tour(&m).expect("sc");
                    let faults = enumerate_single_faults(
                        &m,
                        &FaultSpace {
                            max_faults: 400,
                            ..FaultSpace::default()
                        },
                    );
                    let tests = TestSet::single(extend_cyclically(&tour.inputs, cert.k));
                    let report = run_campaign(&m, &faults, &tests);
                    assert!(
                        report.complete(),
                        "certified at k={k} but campaign reported {report}"
                    );
                    break;
                }
            }
        },
    );
}

/// Campaign bookkeeping: detected ⇒ excited for transfer faults run
/// on a tour (covering every transition necessarily excites every
/// reachable single fault).
#[test]
fn tours_excite_all_faults() {
    forall_cfg("tours_excite_all_faults", Config::with_cases(64), |g| {
        let r = recipe(g);
        let m = build(&r);
        let tour = transition_tour(&m).expect("sc");
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: 200,
                ..FaultSpace::default()
            },
        );
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
        let report = run_campaign(&m, &faults, &tests);
        assert_eq!(report.num_excited(), faults.len());
        for o in &report.outcomes {
            if o.detected.is_some() {
                assert!(o.excited);
            }
        }
    });
}

/// The differential engine is a pure optimization: on random machines
/// and random test sets it produces the same per-fault outcomes and the
/// same merged stats as the naive clone-and-replay engine, at any job
/// count.
#[test]
fn differential_engine_matches_naive_engine() {
    forall_cfg(
        "differential_engine_matches_naive_engine",
        Config::with_cases(48),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let faults = enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: 150,
                    seed: g.u16() as u64,
                    ..FaultSpace::default()
                },
            );
            // Random multi-sequence test sets: some short sequences that
            // leave many faults unexcited (exercising the index skip),
            // plus one tour-like long sequence.
            let nseq = g.int_in(1..4usize);
            let mut sequences = Vec::with_capacity(nseq);
            for _ in 0..nseq {
                let len = g.int_in(0..12usize);
                sequences.push(
                    (0..len)
                        .map(|_| simcov_fsm::InputSym(g.u16() as u32 % m.num_inputs() as u32))
                        .collect(),
                );
            }
            let tests = TestSet { sequences };
            let naive = ResilientCampaign::new(&m, &faults, &tests)
                .engine(Engine::Naive)
                .jobs(1)
                .run()
                .unwrap();
            for jobs in [1, 2, 8] {
                let diff = ResilientCampaign::new(&m, &faults, &tests)
                    .engine(Engine::Differential)
                    .jobs(jobs)
                    .run()
                    .unwrap();
                assert_eq!(
                    diff.report.outcomes, naive.report.outcomes,
                    "outcomes must be engine-independent at jobs={jobs}"
                );
                assert_eq!(
                    diff.stats, naive.stats,
                    "stats must be engine-independent at jobs={jobs}"
                );
                let packed = ResilientCampaign::new(&m, &faults, &tests)
                    .engine(Engine::Packed)
                    .jobs(jobs)
                    .run()
                    .unwrap();
                assert_eq!(
                    packed.report.outcomes, naive.report.outcomes,
                    "packed outcomes must be engine-independent at jobs={jobs}"
                );
                assert_eq!(
                    packed.stats, naive.stats,
                    "packed stats must be engine-independent at jobs={jobs}"
                );
                assert_eq!(
                    packed.diff, diff.diff,
                    "packed replays must save exactly the differential effort at jobs={jobs}"
                );
            }
        },
    );
}

/// Witness soundness: every reported indistinguishable pair's witness
/// sequence really produces equal outputs from both states.
#[test]
fn witnesses_sound() {
    forall_cfg("witnesses_sound", Config::with_cases(64), |g| {
        let r = recipe(g);
        let k = g.int_in(1..4usize);
        let m = build(&r);
        let d = forall_k_distinguishable(&m, k, 32).expect("complete");
        for v in d.violations.iter().filter(|v| !v.witness.is_empty()) {
            let (_, o1) = m.run(v.s1, &v.witness);
            let (_, o2) = m.run(v.s2, &v.witness);
            assert_eq!(o1, o2);
        }
    });
}
