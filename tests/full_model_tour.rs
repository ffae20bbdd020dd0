//! The full-model transition tour (Section 7.2's headline artifact),
//! generated via input don't-care classes: 184,832 valid vectors of the
//! 22-latch, 25-input final model collapse to 332 classes, and the
//! class-quotient machine's optimal tour is pinned by length, duplicate
//! count and an FNV-64 of its inputs.

use simcov::dlx::testmodel::full_model_class_machine;
use simcov::obs::fnv::Fnv64;
use simcov::tour::{coverage, transition_tour};

#[test]
fn full_model_tour_covers_every_class_transition() {
    let (machine, classes) = full_model_class_machine();
    assert_eq!(machine.num_states(), 1552);
    assert_eq!(classes.len(), 332);
    assert_eq!(classes.total_valid(), 184_832);
    assert!(machine.is_strongly_connected());
    assert_eq!(machine.num_transitions(), 1552 * 332);
    let tour = transition_tour(&machine).expect("full model tours");
    assert!(coverage(&machine, &tour.inputs).all_transitions_covered());
    assert_eq!(tour.len(), 1_304_476);
    assert_eq!(tour.duplicates, 789_212);
    let mut h = Fnv64::new();
    for i in &tour.inputs {
        h.u64(u64::from(i.0));
    }
    assert_eq!(h.finish(), 0x0611_b280_d993_e999);
}
