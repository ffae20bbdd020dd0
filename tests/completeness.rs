//! Integration test for the paper's central claim (Theorem 3): on a test
//! model satisfying the requirements, a transition tour extended by `k`
//! vectors detects **every** single output/transfer error — and on models
//! violating the requirements, escaping faults exist.

use simcov::core::models::figure2;
use simcov::core::{
    certify_completeness, enumerate_single_faults, extend_cyclically, run_campaign,
    CompletenessViolation, FaultSpace, ResilientCampaign,
};
use simcov::dlx::testmodel::{
    reduced_control_netlist, reduced_control_netlist_observable, reduced_valid_inputs,
};
use simcov::fsm::enumerate_netlist;
use simcov::tour::{greedy_transition_tour, state_tour, transition_tour, TestSet};

fn all_faults(m: &simcov::fsm::ExplicitMealy) -> Vec<simcov::core::Fault> {
    enumerate_single_faults(
        m,
        &FaultSpace {
            max_faults: usize::MAX,
            ..FaultSpace::default()
        },
    )
}

/// Theorem 3, empirically: certified model + extended transition tour =
/// 100% fault detection, for both the optimal and the greedy tour.
#[test]
fn certified_model_tour_catches_every_fault() {
    let n = reduced_control_netlist_observable();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    let cert = certify_completeness(&m, 1, None).expect("certifiable");
    let faults = all_faults(&m);
    assert!(
        faults.len() > 10_000,
        "exhaustive fault space: {}",
        faults.len()
    );

    for tour in [
        transition_tour(&m).expect("postman tour"),
        greedy_transition_tour(&m).expect("greedy tour"),
    ] {
        let tests = TestSet::single(extend_cyclically(&tour.inputs, cert.k));
        // Drive the parallel engine explicitly (jobs = all cores) so the
        // paper's flagship campaign also exercises the sharded path.
        let run = ResilientCampaign::new(&m, &faults, &tests).run().unwrap();
        assert!(
            run.report.complete(),
            "tour of length {} must detect all faults, got {}",
            tour.len(),
            run.report
        );
        assert_eq!(run.stats.faults_simulated, faults.len());
        assert_eq!(run.stats.detected, faults.len());
        assert_eq!(run.stats.escapes, 0);
    }
}

/// The weaker baselines are *not* complete: a state tour misses faults on
/// transitions it never takes.
#[test]
fn state_tour_is_incomplete() {
    let n = reduced_control_netlist_observable();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    let faults = all_faults(&m);
    let st = state_tour(&m).expect("state tour");
    let tests = TestSet::single(extend_cyclically(&st.inputs, 1));
    let report = run_campaign(&m, &faults, &tests);
    assert!(
        !report.complete(),
        "a state tour covering {} vectors should miss some of {} faults",
        st.len(),
        faults.len()
    );
    // But it still catches something — it is a coverage measure, just a
    // far weaker one (≈6% here vs 100% for the transition tour).
    assert!(
        report.detection_rate() > 0.02,
        "rate {}",
        report.detection_rate()
    );
    assert!(
        report.detection_rate() < 0.50,
        "rate {}",
        report.detection_rate()
    );
}

/// On the non-certifiable base model (interaction state hidden), some
/// fault escapes even a full transition tour — the Figure 2 phenomenon at
/// system scale.
#[test]
fn uncertified_model_has_escaping_faults() {
    let n = reduced_control_netlist();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    assert!(matches!(
        certify_completeness(&m, 4, None),
        Err(CompletenessViolation::NotDistinguishable(_))
    ));
    let faults = all_faults(&m);
    let tour = transition_tour(&m).expect("tour exists");
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 4));
    let report = run_campaign(&m, &faults, &tests);
    assert!(
        !report.complete(),
        "hidden interaction state must let some fault escape: {report}"
    );
    // Escapes are excited-but-undetected, as in Figure 2.
    assert!(report.escapes().count() > 0);
}

/// Figure 2 exactly: the canonical transfer fault escapes a `c`-path tour
/// and is caught by a `b`-path sequence; the certification pinpoints the
/// culprit pair (3, 3').
#[test]
fn figure2_certification_names_the_culprit() {
    let (m, fault) = figure2();
    let err = certify_completeness(&m, 1, None).expect_err("must fail");
    let CompletenessViolation::NotDistinguishable(violations) = err else {
        panic!("wrong violation kind");
    };
    let s3 = m.state_by_label("3").unwrap();
    let s3p = m.state_by_label("3'").unwrap();
    assert!(
        violations
            .iter()
            .any(|v| (v.s1 == s3 && v.s2 == s3p) || (v.s1 == s3p && v.s2 == s3)),
        "the pair (3, 3') must be reported"
    );
    // The reported fault is exactly a transfer into the lookalike state.
    let faulty = fault.inject(&m);
    let a = m.input_by_label("a").unwrap();
    let c = m.input_by_label("c").unwrap();
    assert_eq!(simcov::core::detects(&m, &faulty, &[a, a, c, a, a]), None);
}

/// The UIO transition-checking method (Aho et al., the paper's cited
/// formulation): complete on the observable model, *inapplicable* on the
/// hidden model because output-equivalent states have no UIO — the same
/// root cause as the ∀k failure, seen from the ∃ side.
#[test]
fn uio_method_complete_when_applicable() {
    use simcov::tour::{uio_test_set, UioError};
    let n = reduced_control_netlist_observable();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    let ts = uio_test_set(&m, 4).expect("observable model has UIOs");
    let faults = all_faults(&m);
    let report = run_campaign(&m, &faults, &ts);
    assert!(report.complete(), "UIO checking must be complete: {report}");
    // Hidden model: no UIOs for the output-equivalent states.
    let n = reduced_control_netlist();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    assert!(matches!(uio_test_set(&m, 8), Err(UioError::NoUio(_))));
}

/// Chow's W-method: complete on the observable (reduced) model,
/// inapplicable on the hidden one — the characterization set does not
/// exist for an unreduced machine.
#[test]
fn w_method_complete_when_applicable() {
    use simcov::tour::{w_method_test_set, WMethodError};
    let n = reduced_control_netlist_observable();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    let ts = w_method_test_set(&m).expect("reduced machine has a W set");
    let faults = all_faults(&m);
    let report = run_campaign(&m, &faults, &ts);
    assert!(report.complete(), "W-method must be complete: {report}");
    let n = reduced_control_netlist();
    let m = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    assert!(matches!(
        w_method_test_set(&m),
        Err(WMethodError::NotReduced(_))
    ));
}

/// State minimization diagnoses the hidden model: its 18 reachable
/// states collapse (output-equivalent groups exist), while the observable
/// model is already reduced. Unreduced ⇔ no UIOs ⇔ ∀k fails forever —
/// three views of the same missing observability.
#[test]
fn minimization_diagnoses_missing_observability() {
    use simcov::fsm::minimize;
    let n = reduced_control_netlist();
    let hidden = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    let r = minimize(&hidden);
    assert!(!r.was_reduced(), "hidden model must have equivalent states");
    assert!(r.machine.num_states() < r.original_states);
    assert!(!r.merged_groups().is_empty());
    let n = reduced_control_netlist_observable();
    let obs = enumerate_netlist(&n, &reduced_valid_inputs(&n)).expect("enumerates");
    let r = minimize(&obs);
    assert!(r.was_reduced(), "observable model must already be reduced");
}

/// Masked transfer errors (Definition 4): a fault pair where the second
/// error corrects the first is invisible to any test set; Requirement 4
/// excludes them by assumption. We verify the masking detector sees the
/// double-fault excursion.
#[test]
fn masked_double_fault_detected_as_masked() {
    use simcov::core::{is_masked_on, Fault, FaultKind};
    let (m, f1) = figure2();
    // Second transfer error: from 3' on c, go where 3 would have gone —
    // already the same (both to 5). Construct a sharper example: fault 1
    // diverts 2-a->3'; fault 2 diverts 3'-b->4' to 4, i.e. the second
    // error "corrects" the path.
    let s3p = m.state_by_label("3'").unwrap();
    let s4 = m.state_by_label("4").unwrap();
    let b = m.input_by_label("b").unwrap();
    let f2 = Fault {
        state: s3p,
        input: b,
        kind: FaultKind::Transfer { new_next: s4 },
    };
    let double = f2.inject(&f1.inject(&m));
    let a = m.input_by_label("a").unwrap();
    // Path a,a,(b): diverges at 3', second fault rejoins at 4 — but the
    // output of 3'-b differs (ob3p vs ob3), so this particular pair is
    // exposed by the output, not masked.
    let seq = [a, a, b, a];
    assert!(simcov::core::detects(&m, &double, &seq).is_some());
    // Whereas along c the excursion is masked (no output difference).
    let c = m.input_by_label("c").unwrap();
    let seq = [a, a, c, a];
    assert!(is_masked_on(&m, &double, &seq));
}
