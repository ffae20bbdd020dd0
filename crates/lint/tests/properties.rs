//! Property tests for the lint crate on the workspace's hermetic
//! `forall` driver: the SC0xx verdicts must agree with the underlying
//! requirement checkers (`check_req1`..`check_req5`,
//! `forall_k_distinguishable`) on random machines, and the rendered
//! reports must stay byte-stable (golden tests for CI diffing).

use simcov_abstraction::Quotient;
use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{
    check_req2_bounded_processing, check_req3_unique_outputs, check_req5_observable,
    forall_k_distinguishable,
};
use simcov_fsm::{ExplicitMealy, MealyBuilder, OutputSym};
use simcov_lint::{
    all_codes, find_code, lint_model, lint_netlist, lint_quotient, Diagnostics, LintConfig,
    ModelTarget, QuotientTarget, Severity,
};

/// Random machines over a ring backbone with a twist: a slice of the
/// transition cells is randomised freely, so the generator covers clean
/// machines, unreachable tails, sinks, shared outputs and
/// indistinguishable pairs in one recipe.
struct Recipe {
    n: usize,
    ni: usize,
    ring: bool,
    dests: Vec<u16>,
    outs: Vec<u16>,
    num_outs: usize,
}

fn recipe(g: &mut Gen) -> Recipe {
    let n = g.int_in(2..7usize);
    let ni = g.int_in(1..4usize);
    let ring = g.bool();
    let cells = n * ni;
    Recipe {
        n,
        ni,
        ring,
        dests: (0..cells).map(|_| g.u16()).collect(),
        outs: (0..cells).map(|_| g.u16()).collect(),
        // Small output alphabets force collisions; large ones avoid them.
        num_outs: g.int_in(2..(2 * cells + 1)),
    }
}

fn build(r: &Recipe) -> ExplicitMealy {
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..r.n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..r.ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let outs: Vec<_> = (0..r.num_outs)
        .map(|i| b.add_output(format!("o{i}")))
        .collect();
    for s in 0..r.n {
        #[allow(clippy::needless_range_loop)]
        for i in 0..r.ni {
            let cell = s * r.ni + i;
            let dest = if r.ring && i == 0 {
                (s + 1) % r.n
            } else {
                r.dests[cell] as usize % r.n
            };
            b.add_transition(
                states[s],
                inputs[i],
                states[dest],
                outs[r.outs[cell] as usize % r.num_outs],
            );
        }
    }
    b.build(states[0]).expect("complete machine")
}

/// Every model-lint verdict agrees with the checker it wraps, in both
/// directions: a code fires iff the corresponding `check_req*` /
/// structural predicate fails.
#[test]
fn lint_verdicts_agree_with_requirement_checkers() {
    forall_cfg(
        "lint_verdicts_agree_with_requirement_checkers",
        Config::with_cases(96),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            // Mark output o0 as a stalled transition for Requirement 2.
            let target = ModelTarget::new(&m).with_stall_output_labels(&["o0"]);
            let d = lint_model(&target, &LintConfig::new());

            let reachable = m.reachable_states().len();
            assert_eq!(d.has_code("SC001"), reachable < m.num_states());
            assert!(!d.has_code("SC002"), "generator builds complete machines");
            assert_eq!(d.has_code("SC004"), !m.is_strongly_connected());
            assert_eq!(
                d.has_code("SC005"),
                check_req2_bounded_processing(&m, |o| o == OutputSym(0)).is_err()
            );
            assert_eq!(d.has_code("SC006"), check_req3_unique_outputs(&m).is_err());
            let dist = forall_k_distinguishable(&m, 1, 1).expect("complete");
            assert_eq!(d.has_code("SC008"), !dist.holds());
        },
    );
}

/// A machine the lints pass clean satisfies the paper's requirements:
/// Req 1 under the identity quotient, Req 2 under any stall labelling the
/// lint saw, Req 3, Req 5 for the declared names, and
/// ∀1-distinguishability (Theorem 1's hypothesis).
#[test]
fn lint_clean_machines_satisfy_req1_to_req5() {
    let clean = std::cell::Cell::new(0usize);
    forall_cfg(
        "lint_clean_machines_satisfy_req1_to_req5",
        Config::with_cases(96),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let mut target = ModelTarget::new(&m).with_stall_output_labels(&["o0"]);
            target.interaction_state = vec!["s0".into()];
            target.observable = vec!["s0".into(), "s1".into()];
            let d = lint_model(&target, &LintConfig::new());
            if !d.items().is_empty() {
                return; // property is conditional on lint-clean
            }
            clean.set(clean.get() + 1);
            let q = Quotient::identity(&m);
            assert!(
                simcov_core::check_req1_uniform_outputs(&m, &q).is_ok(),
                "identity quotient of a deterministic machine is uniform"
            );
            assert!(check_req2_bounded_processing(&m, |o| o == OutputSym(0)).is_ok());
            assert!(check_req3_unique_outputs(&m).is_ok());
            assert!(check_req5_observable(&["s0"], &["s0", "s1"]).is_ok());
            let dist = forall_k_distinguishable(&m, 1, 1).expect("complete");
            assert!(dist.holds(), "clean machines are forall-1-distinguishable");
            assert!(
                lint_quotient(
                    &QuotientTarget {
                        concrete: &m,
                        quotient: &q
                    },
                    &LintConfig::new()
                )
                .items()
                .is_empty(),
                "identity quotient lints clean"
            );
        },
    );
    assert!(
        clean.get() > 0,
        "generator never produced a lint-clean machine"
    );
}

/// Allowing every registered code suppresses every finding, and the
/// suppressed count equals the default-policy finding count.
#[test]
fn allow_all_policy_suppresses_everything() {
    forall_cfg(
        "allow_all_policy_suppresses_everything",
        Config::with_cases(64),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let target = ModelTarget::new(&m).with_stall_output_labels(&["o0"]);
            let defaults = lint_model(&target, &LintConfig::new());
            let mut cfg = LintConfig::new();
            for c in all_codes() {
                cfg.set(c.code, Severity::Allow);
            }
            let allowed = lint_model(&target, &cfg);
            assert!(allowed.items().is_empty());
            assert_eq!(allowed.suppressed(), defaults.items().len());
        },
    );
}

/// Severity overrides never change *which* codes fire, only how they are
/// classified: deny-everything and the default policy report the same
/// code multiset.
#[test]
fn overrides_preserve_finding_set() {
    forall_cfg(
        "overrides_preserve_finding_set",
        Config::with_cases(64),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let target = ModelTarget::new(&m).with_stall_output_labels(&["o0"]);
            let defaults = lint_model(&target, &LintConfig::new());
            let mut cfg = LintConfig::new();
            for c in all_codes() {
                cfg.set(c.code, Severity::Deny);
            }
            let denied = lint_model(&target, &cfg);
            let codes = |d: &simcov_lint::Diagnostics| {
                let mut v: Vec<&str> = d.items().iter().map(|x| x.code.code).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(codes(&defaults), codes(&denied));
            assert_eq!(denied.deny_count(), denied.items().len());
        },
    );
}

/// Asserts that every finding in `d` carries the registered static of
/// its code, and that the code lies in `lo..=hi` (its family's range).
fn assert_family_codes(d: &Diagnostics, lo: &str, hi: &str) {
    for f in d.items() {
        let code = f.code.code;
        assert!(
            find_code(code).is_some_and(|r| std::ptr::eq(r, f.code)),
            "{code} is not the registered static"
        );
        assert!((lo..=hi).contains(&code), "{code} lies outside {lo}-{hi}");
    }
}

/// Every model finding on random machines carries a registered code
/// from the model family (`SC001`–`SC008`).
#[test]
fn model_findings_carry_registered_model_codes() {
    let findings = std::cell::Cell::new(0usize);
    forall_cfg(
        "model_findings_carry_registered_model_codes",
        Config::with_cases(96),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let mut target = ModelTarget::new(&m).with_stall_output_labels(&["o0"]);
            target.interaction_state = vec!["s0".into(), "ex.dest".into()];
            target.observable = vec!["s0".into()];
            let d = lint_model(&target, &LintConfig::new());
            assert_family_codes(&d, "SC001", "SC008");
            findings.set(findings.get() + d.items().len());
        },
    );
    assert!(findings.get() > 0, "no machine fired a model lint");
}

/// Every netlist finding on the DLX case-study netlists carries a
/// registered code from the netlist family (`SC020`–`SC030`).
#[test]
fn dlx_netlist_findings_carry_registered_netlist_codes() {
    use simcov_dlx::testmodel;
    let netlists = [
        simcov_dlx::control::initial_control_netlist(),
        testmodel::derive_test_model().0,
        testmodel::reduced_control_netlist(),
        testmodel::reduced_control_netlist_observable(),
    ];
    let mut findings = 0;
    for n in &netlists {
        let d = lint_netlist(n, &LintConfig::new());
        assert_family_codes(&d, "SC020", "SC030");
        findings += d.items().len();
    }
    assert!(findings > 0, "no DLX netlist fired a netlist lint");
}

/// One unreachable state, nothing else wrong: the JSON report is
/// byte-for-byte stable.
#[test]
fn golden_json_single_warning() {
    let mut b = MealyBuilder::new();
    let s0 = b.add_state("s0");
    let dead = b.add_state("dead");
    let i = b.add_input("i");
    let o = b.add_output("o");
    let o2 = b.add_output("o2");
    b.add_transition(s0, i, s0, o);
    b.add_transition(dead, i, s0, o2);
    let m = b.build(s0).unwrap();
    let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
    assert_eq!(
        d.render_json(),
        concat!(
            "{\"tool\":\"simcov-lint\",\"deny\":0,\"warn\":1,\"allowed\":0,",
            "\"diagnostics\":[{\"code\":\"SC001\",\"name\":\"unreachable-state\",",
            "\"severity\":\"warn\",\"location\":{\"kind\":\"state\",\"id\":1,",
            "\"label\":\"dead\"},\"message\":\"state can never be reached from ",
            "reset; a tour will not exercise it\"}]}"
        )
    );
}

/// A denial with notes: deny-first ordering, the notes array, and the
/// escaped message all render deterministically.
#[test]
fn golden_json_denial_with_notes() {
    // Two states, one input, identical outputs: the pair is
    // forall-1-indistinguishable (SC008, deny, with a note).
    let mut b = MealyBuilder::new();
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    let i = b.add_input("i");
    let o = b.add_output("o");
    b.add_transition(s0, i, s1, o);
    b.add_transition(s1, i, s0, o);
    let m = b.build(s0).unwrap();
    let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
    assert_eq!(
        d.render_json(),
        concat!(
            "{\"tool\":\"simcov-lint\",\"deny\":1,\"warn\":0,\"allowed\":0,",
            "\"diagnostics\":[{\"code\":\"SC008\",\"name\":\"forall-k-indistinguishable\",",
            "\"severity\":\"deny\",\"location\":{\"kind\":\"state-pair\",",
            "\"s1\":\"s0\",\"s2\":\"s1\"},\"message\":\"pair is not ",
            "forall-1-distinguishable: inputs [i] keep all outputs equal\",",
            "\"notes\":[\"1 violating pair in total; a transfer error landing ",
            "in either state can escape the tour (Theorem 1 hypothesis broken)\"]}]}"
        )
    );
}

/// The text renderer's golden twin of the JSON tests.
#[test]
fn golden_text_report() {
    let mut b = MealyBuilder::new();
    let s0 = b.add_state("s0");
    let dead = b.add_state("dead");
    let i = b.add_input("i");
    let o = b.add_output("o");
    let o2 = b.add_output("o2");
    b.add_transition(s0, i, s0, o);
    b.add_transition(dead, i, s0, o2);
    let m = b.build(s0).unwrap();
    let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
    assert_eq!(
        d.render_text(),
        "warn[SC001] unreachable-state: state `dead` (id 1): state can never \
         be reached from reset; a tour will not exercise it\n\
         summary: 1 finding (0 deny, 1 warn)\n"
    );
}
