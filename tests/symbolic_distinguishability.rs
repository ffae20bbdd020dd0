//! Symbolic ∀k-distinguishability on the full-size 22-latch DLX test
//! model — an experiment *beyond* the paper: the authors argue Theorem 2
//! informally; the BDD pair analysis verifies its conclusion mechanically
//! at the case study's real scale.

use simcov::dlx::testmodel::{
    derive_test_model, derive_test_model_observable, pair_valid_inputs_bdd,
};
use simcov::fsm::PairFsm;
use simcov::netlist::Netlist;

fn pair_with_valid(n: &Netlist) -> PairFsm {
    let mut pf = PairFsm::from_netlist(n);
    let valid = pair_valid_inputs_bdd(&mut pf);
    pf.set_valid_inputs(valid);
    pf
}

/// The bare 4-output model is NOT ∀1-distinguishable: tens of thousands
/// of reachable state pairs look alike through stall/squash/br_sel/rf_wen
/// alone.
#[test]
fn bare_full_model_fails_forall_1() {
    let (fin, _) = derive_test_model();
    let init = fin.initial_state();
    let mut pf = pair_with_valid(&fin);
    let r = pf.forall_k(&init, 1, true);
    assert!(!r.holds);
    assert!(
        r.violating_pairs > 100_000,
        "expected massive violation count, got {}",
        r.violating_pairs
    );
    assert_eq!(r.reachable_states, 1552);
}

/// With Requirement 5 applied (all interaction state observable), the
/// full model is ∀1-distinguishable — Theorem 2's conclusion, proven
/// symbolically over all 1552² reachable pairs.
#[test]
fn observable_full_model_certified_at_k1() {
    let fin = derive_test_model_observable();
    let init = fin.initial_state();
    let mut pf = pair_with_valid(&fin);
    let r = pf.forall_k(&init, 1, true);
    assert!(r.holds, "{} violating pairs", r.violating_pairs);
    assert_eq!(r.reachable_states, 1552);
}

/// The symbolic and explicit analyses agree on the reduced models (the
/// cross-validation anchoring the full-scale result).
#[test]
fn symbolic_agrees_with_explicit_on_reduced_models() {
    use simcov::core::forall_k_distinguishable;
    use simcov::dlx::testmodel::{
        reduced_control_netlist, reduced_control_netlist_observable, reduced_valid_inputs,
    };
    use simcov::fsm::enumerate_netlist;
    for (name, n) in [
        ("hidden", reduced_control_netlist()),
        ("observable", reduced_control_netlist_observable()),
    ] {
        let opts = reduced_valid_inputs(&n);
        let m = enumerate_netlist(&n, &opts).expect("enumerates");
        // Symbolic valid constraint mirroring the explicit alphabet.
        let mut pf = PairFsm::from_netlist(&n);
        let mut valid = simcov::bdd::Bdd::FALSE;
        for v in &opts.inputs {
            let mut cube = simcov::bdd::Bdd::TRUE;
            for (k, &bit) in v.iter().enumerate() {
                let var = pf.input_var(k);
                let x = pf.mgr().var(var.0);
                let lit = if bit { x } else { pf.mgr().not(x) };
                cube = pf.mgr().and(cube, lit);
            }
            valid = pf.mgr().or(valid, cube);
        }
        pf.set_valid_inputs(valid);
        for k in 1..=3 {
            let explicit = forall_k_distinguishable(&m, k, 0).expect("complete");
            let sym = pf.forall_k(&n.initial_state(), k, true);
            assert_eq!(
                sym.violating_pairs,
                explicit.violations.len() as u128,
                "{name} k={k}"
            );
            assert_eq!(sym.holds, explicit.holds(), "{name} k={k}");
        }
    }
}
