//! `report` — regenerates every table and figure of the paper's
//! evaluation in one run (no benchmarking noise; use `cargo bench` for
//! timings).
//!
//! ```text
//! report [fig2|fig3a|fig3b|sec72|completeness|coverage|overabstraction|tour|all]
//! ```

use simcov_abstraction::{build_quotient, Quotient};
use simcov_bench::{reduced_dlx_machine, reduced_dlx_machine_hidden, ring_with_chords};
use simcov_core::models::figure2;
use simcov_core::{
    certify_completeness, check_req1_uniform_outputs, detects, enumerate_single_faults, excited_at,
    extend_cyclically, forall_k_distinguishable, run_campaign, FaultSpace, ResilientCampaign,
};
use simcov_dlx::control::initial_control_netlist;
use simcov_dlx::testmodel::{
    derive_test_model, derive_test_model_observable, fig3b_pipeline, pair_valid_inputs_bdd,
    valid_inputs_bdd,
};
use simcov_fsm::{PairFsm, SymbolicFsm};
use simcov_tour::{
    coverage_set, greedy_transition_tour, random_test_set, state_tour, transition_tour,
    uio_test_set, w_method_test_set, TestSet,
};

fn fig2() {
    println!("================ E1 / Figure 2: limitations of transition tours ================");
    let (m, fault) = figure2();
    let faulty = fault.inject(&m);
    let a = m.input_by_label("a").unwrap();
    let b = m.input_by_label("b").unwrap();
    let c = m.input_by_label("c").unwrap();
    println!("fault: {fault}");
    for (name, seq) in [("<a,a,c>", vec![a, a, c]), ("<a,a,b>", vec![a, a, b])] {
        println!(
            "  {name}: excited at {:?}, exposed at {:?}",
            excited_at(&faulty, &fault, &seq),
            detects(&m, &faulty, &seq)
        );
    }
    let d = forall_k_distinguishable(&m, 1, 16).unwrap();
    println!("  forall-1 violations: {}", d.violations.len());
    for v in d.violations.iter().take(3) {
        println!(
            "    ({}, {}) witness {:?}",
            m.state_label(v.s1),
            m.state_label(v.s2),
            v.witness
                .iter()
                .map(|&i| m.input_label(i))
                .collect::<Vec<_>>()
        );
    }
    println!("  paper: the error is exposed only via <a,b>; tours choosing <a,c> miss it\n");
}

fn fig3a() {
    println!("================ E3 / Figure 3(a): initial abstract test model ================");
    let n = initial_control_netlist();
    println!("  {}   (paper: 160 latches, 41 PIs, 32 POs)", n.stats());
    println!("  {:<12} {:>7}", "module", "latches");
    for m in n.module_names() {
        println!("  {:<12} {:>7}", m, n.module_latches(&m).len());
    }
    println!();
}

fn fig3b() {
    println!("================ E4 / Figure 3(b): abstraction sequence ================");
    let initial = initial_control_netlist();
    let (_, reports) = fig3b_pipeline().run(&initial);
    println!(
        "  {:<46} {:>7} {:>5} {:>4}   paper",
        "step", "latches", "PIs", "POs"
    );
    println!(
        "  {:<46} {:>7} {:>5} {:>4}   160",
        "(initial)",
        initial.stats().latches,
        initial.stats().inputs,
        initial.stats().outputs
    );
    for (r, paper) in reports.iter().zip([118usize, 110, 86, 54, 46, 22]) {
        println!(
            "  {:<46} {:>7} {:>5} {:>4}   {}",
            r.label, r.stats.latches, r.stats.inputs, r.stats.outputs, paper
        );
    }
    println!();
}

fn sec72() {
    println!("================ E5 / Section 7.2: experimental results ================");
    let (fin, _) = derive_test_model();
    println!(
        "  final model: {}   (paper: 22 latches, 25 PIs, 4 POs)",
        fin.stats()
    );
    let mut fsm = SymbolicFsm::from_netlist(&fin);
    let valid = valid_inputs_bdd(&mut fsm);
    fsm.set_valid_inputs(valid);
    let t0 = std::time::Instant::now();
    let tr = fsm.transition_relation();
    let dt = t0.elapsed();
    println!(
        "  transition relation: built in {dt:?}, {} BDD nodes   (paper: ~10 s, 1997 UltraSparc)",
        fsm.mgr_ref().size(tr)
    );
    println!(
        "  valid input combinations: {:>12} of 2^25 = {}   (paper: 8228)",
        fsm.count_valid_inputs(),
        1u64 << 25
    );
    let t0 = std::time::Instant::now();
    let r = fsm.reachable();
    println!(
        "  reachable states:         {:>12} of 2^22 = {} in {} iterations, {:?}   (paper: 13720)",
        fsm.count_states(r.reached),
        1u64 << 22,
        r.iterations,
        t0.elapsed()
    );
    println!(
        "  transitions to cover:     {:>12}   (paper: 123,000,000; tour length 1,069,000,000)",
        fsm.count_transitions(r.reached)
    );
    // The full-model tour, via input don't-care classes (Section 7.2's
    // "taking input don't-cares into account").
    let t0 = std::time::Instant::now();
    let (class_machine, classes) = simcov_dlx::testmodel::full_model_class_machine();
    println!(
        "  input classes: {} (collapsing {} valid vectors) in {:?}",
        classes.len(),
        classes.total_valid(),
        t0.elapsed()
    );
    println!(
        "  class-quotient machine: {} states x {} classes = {} class-transitions",
        class_machine.num_states(),
        classes.len(),
        class_machine.num_transitions()
    );
    let t0 = std::time::Instant::now();
    match transition_tour(&class_machine) {
        Ok(tour) => {
            println!(
                "  FULL-MODEL transition tour: {} vectors ({} duplicates) in {:?}",
                tour.len(),
                tour.duplicates,
                t0.elapsed()
            );
            println!("  (covers every behaviourally distinct transition; the paper's 1069M tour");
            println!("   enumerated concrete vectors — scale by the class sizes for that view)");
        }
        Err(e) => println!("  full-model tour unavailable: {e}"),
    }
    println!();
}

fn completeness() {
    println!("================ E2 / Theorems 1-3: completeness ================");
    for (name, m, k) in [
        ("observable (Req 5 ok)", reduced_dlx_machine(), 1usize),
        ("hidden (Req 5 violated)", reduced_dlx_machine_hidden(), 4),
    ] {
        let cert = certify_completeness(&m, k, None);
        let tour = transition_tour(&m).unwrap();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        let tests = TestSet::single(extend_cyclically(&tour.inputs, k));
        let run = ResilientCampaign::new(&m, &faults, &tests).run().unwrap();
        println!(
            "  {:<26} certificate: {:<8} tour: {:>5} vectors   campaign: {}",
            name,
            if cert.is_ok() { "ISSUED" } else { "REJECTED" },
            tour.len() + k,
            run.report,
        );
        println!(
            "  {:<26} stats: {}   ({:.1} ms on {} worker thread(s))",
            "",
            run.stats,
            run.wall.as_secs_f64() * 1e3,
            run.jobs,
        );
    }
    println!("  (Theorem 3: certified => 100% detection; violated => escapes exist)\n");
}

fn coverage_table() {
    println!("================ E6: error coverage, tour vs baselines ================");
    let m = reduced_dlx_machine();
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: usize::MAX,
            ..FaultSpace::default()
        },
    );
    println!("  model {m:?}; {} faults", faults.len());
    let tt = transition_tour(&m).unwrap();
    let st = state_tour(&m).unwrap();
    let budget = tt.len() + 1;
    let suites: Vec<(String, TestSet)> = vec![
        (
            "transition tour + k".into(),
            TestSet::single(extend_cyclically(&tt.inputs, 1)),
        ),
        (
            "state tour + k".into(),
            TestSet::single(extend_cyclically(&st.inputs, 1)),
        ),
        (
            "random (equal budget)".into(),
            random_test_set(&m, 1, budget, 2024),
        ),
        (
            "random (10x budget)".into(),
            random_test_set(&m, 10, budget, 2024),
        ),
        (
            "random (100x budget)".into(),
            random_test_set(&m, 100, budget, 2024),
        ),
        (
            "UIO transition checking".into(),
            uio_test_set(&m, 4).expect("observable model has UIOs"),
        ),
        (
            "W-method (Chow)".into(),
            w_method_test_set(&m).expect("observable model is reduced"),
        ),
    ];
    println!(
        "  {:<28} {:>8} {:>10} {:>10} {:>8}",
        "test set", "vectors", "trans cov", "detection", "escapes"
    );
    for (name, tests) in &suites {
        let seqs: Vec<&[_]> = tests.sequences.iter().map(Vec::as_slice).collect();
        let cov = coverage_set(&m, seqs.iter().copied());
        let rep = run_campaign(&m, &faults, tests);
        println!(
            "  {:<28} {:>8} {:>9.1}% {:>9.1}% {:>8}",
            name,
            tests.total_vectors(),
            100.0 * cov.transition_fraction(),
            100.0 * rep.detection_rate(),
            rep.escapes().count()
        );
    }
    // The UIO method needs a *reduced* machine: on the hidden model 14 of
    // 18 states are output-equivalent and have no UIO at all.
    let hidden = reduced_dlx_machine_hidden();
    match uio_test_set(&hidden, 8) {
        Ok(_) => println!("  hidden model: UIOs unexpectedly exist"),
        Err(e) => println!("  hidden model (Req 5 violated): UIO method inapplicable — {e}"),
    }
    println!();
}

fn overabstraction() {
    println!("================ E7 / Section 6.3: abstracting too much ================");
    let n = simcov_dlx::testmodel::reduced_control_netlist_observable();
    let m = reduced_dlx_machine();
    println!(
        "  {:<16} {:>12} {:>16} {:>8}",
        "dropped state", "abs. states", "output conflicts", "Req 1"
    );
    for latch in [
        "ex.writes",
        "ex.is_load",
        "ex.is_branch",
        "ex.valid",
        "id.stallflag",
    ] {
        let bit = n.latch_by_name(latch).unwrap().index();
        let q = Quotient::by_state_key(&m, |s| {
            let label = m.state_label(s);
            let mut chars: Vec<char> = label.chars().collect();
            let pos = chars.len() - 1 - bit;
            chars[pos] = '_';
            chars.into_iter().collect::<String>()
        });
        let r = build_quotient(&m, &q).unwrap();
        let req1 = check_req1_uniform_outputs(&m, &q);
        println!(
            "  {:<16} {:>12} {:>16} {:>8}",
            latch,
            r.machine.num_states(),
            r.output_conflicts.len(),
            if req1.is_ok() { "ok" } else { "VIOLATED" }
        );
    }
    println!("  (paper: dropping the destination register makes interlock errors non-uniform)\n");
}

fn tour_quality() {
    println!("================ E8 / Section 6.5: tour quality ================");
    println!(
        "  {:<24} {:>6} {:>8} {:>8} {:>8} {:>7}",
        "model", "states", "edges", "postman", "greedy", "ratio"
    );
    for (name, m) in [
        ("ring16".to_string(), ring_with_chords(16)),
        ("ring64".to_string(), ring_with_chords(64)),
        ("ring256".to_string(), ring_with_chords(256)),
        ("ring1024".to_string(), ring_with_chords(1024)),
        ("reduced DLX control".to_string(), reduced_dlx_machine()),
    ] {
        let opt = transition_tour(&m).unwrap();
        let greedy = greedy_transition_tour(&m).unwrap();
        println!(
            "  {:<24} {:>6} {:>8} {:>8} {:>8} {:>7.2}",
            name,
            m.num_states(),
            m.num_transitions(),
            opt.len(),
            greedy.len(),
            greedy.len() as f64 / opt.len() as f64
        );
    }
    println!("  (paper's SIS tour: 1069M over 123M edges = ratio 8.69, \"not an optimal tour\")\n");
}

fn distinguishability() {
    println!("================ E9 (beyond the paper): symbolic forall-k on the full model ================");
    let make_pair = |n: &simcov_netlist::Netlist| -> PairFsm {
        let mut pf = PairFsm::from_netlist(n);
        let valid = pair_valid_inputs_bdd(&mut pf);
        pf.set_valid_inputs(valid);
        pf
    };
    let (bare, _) = derive_test_model();
    let mut pf = make_pair(&bare);
    for k in 1..=4 {
        let t0 = std::time::Instant::now();
        let r = pf.forall_k(&bare.initial_state(), k, true);
        println!(
            "  bare model (4 outputs)        k={k}: {:>7} violating pairs of {} states{} ({:?})",
            r.violating_pairs,
            r.reachable_states,
            if r.fixed_point { "  [fixed point]" } else { "" },
            t0.elapsed()
        );
        if r.fixed_point {
            break;
        }
    }
    let obs = derive_test_model_observable();
    let mut pf = make_pair(&obs);
    let t0 = std::time::Instant::now();
    let r = pf.forall_k(&obs.initial_state(), 1, true);
    println!(
        "  observable model (Req 5)      k=1: {:>7} violating pairs of {} states — holds={} ({:?})",
        r.violating_pairs,
        r.reachable_states,
        r.holds,
        t0.elapsed()
    );
    println!("  (Theorem 2's conclusion, verified mechanically at the case study's full scale)\n");
}

fn full_scale_coverage() {
    println!(
        "================ E10 (beyond the paper): random coverage at full scale ================"
    );
    let (fin, _) = derive_test_model();
    let mut fsm = SymbolicFsm::from_netlist(&fin);
    let valid = valid_inputs_bdd(&mut fsm);
    fsm.set_valid_inputs(valid);
    let r = fsm.reachable();
    let total = fsm.count_transitions(r.reached);
    let in_vars: Vec<simcov_bdd::Var> = (0..fsm.num_inputs()).map(|k| fsm.input_var(k)).collect();
    // Constrained-random simulation: inputs sampled uniformly from the
    // valid-input BDD; transition coverage accumulated symbolically.
    let mut acc = simcov_fsm::CoverageAccumulator::new();
    let mut state = fin.initial_state();
    let mut rng_state: u128 = 0x2545F4914F6CDD1D;
    let mut states_seen = std::collections::HashSet::new();
    states_seen.insert(state.clone());
    let budget = 50_000usize;
    let t0 = std::time::Instant::now();
    for _ in 0..budget {
        let mt = fsm
            .mgr_ref()
            .sample_minterm(fsm.valid_inputs(), &in_vars, |bound| {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state % bound
            })
            .expect("valid inputs are satisfiable");
        let assignment = mt.to_assignment((2 * fsm.num_latches() + fsm.num_inputs()) as u32);
        let inputs: Vec<bool> = (0..fsm.num_inputs())
            .map(|k| assignment[fsm.input_var(k).0 as usize])
            .collect();
        fsm.record_visit(&mut acc, &state, &inputs);
        let (next, _) = fin.step(&state, &inputs);
        states_seen.insert(next.clone());
        state = next;
    }
    let covered = fsm.coverage_count(&acc);
    println!(
        "  constrained-random simulation: {budget} cycles in {:?}",
        t0.elapsed()
    );
    println!(
        "  states visited: {} of {} reachable ({:.1}%)",
        states_seen.len(),
        fsm.count_states(r.reached),
        100.0 * states_seen.len() as f64 / fsm.count_states(r.reached) as f64
    );
    println!(
        "  transitions covered: {covered} of {total} ({:.5}%)",
        100.0 * covered as f64 / total as f64
    );
    println!("  (the motivating gap: random simulation cannot approach transition");
    println!("   coverage at this scale — the tour-based methodology guarantees it)\n");
}

fn full_scale_theorem3() {
    println!("================ E11 (beyond the paper): Theorem 3 at full scale ================");
    // The observable full model (Requirement 5 applied), collapsed over
    // its input don't-care classes, certified, toured, and attacked.
    let t0 = std::time::Instant::now();
    let (m, classes) = simcov_dlx::testmodel::full_model_class_machine_observable();
    println!(
        "  observable class machine: {} states x {} classes ({} transitions) in {:?}",
        m.num_states(),
        classes.len(),
        m.num_transitions(),
        t0.elapsed()
    );
    let t0 = std::time::Instant::now();
    let cert = certify_completeness(&m, 1, None);
    println!(
        "  completeness certificate at k=1: {} ({:?})",
        if cert.is_ok() { "ISSUED" } else { "REJECTED" },
        t0.elapsed()
    );
    let t0 = std::time::Instant::now();
    let tour = transition_tour(&m).expect("full model tours");
    println!(
        "  transition tour: {} vectors ({:?})",
        tour.len(),
        t0.elapsed()
    );
    let k = cert.as_ref().map(|c| c.k).unwrap_or(1);
    let faults = simcov_core::sample_faults(&m, 200, 42);
    let tests = TestSet::single(extend_cyclically(&tour.inputs, k));
    let t0 = std::time::Instant::now();
    let rep = run_campaign(&m, &faults, &tests);
    println!(
        "  sampled-fault campaign (200 faults): {rep} ({:?})",
        t0.elapsed()
    );
    // The bare model for contrast: escapes exist.
    let t0 = std::time::Instant::now();
    let (mb, _) = simcov_dlx::testmodel::full_model_class_machine();
    let tour_b = transition_tour(&mb).expect("bare model tours");
    let faults_b = simcov_core::sample_faults(&mb, 200, 42);
    let tests_b = TestSet::single(extend_cyclically(&tour_b.inputs, 4));
    let rep_b = run_campaign(&mb, &faults_b, &tests_b);
    println!(
        "  bare model (Req 5 violated), same budget: {rep_b} ({:?})",
        t0.elapsed()
    );
    println!("  (Theorem 3 at the case study's full scale: the observable model is");
    println!("   CERTIFIED — every fault is provably caught. The bare model usually");
    println!("   catches random samples too, but E9's 63k indistinguishable pairs mean");
    println!("   escaping faults exist and no certificate can be issued.)\n");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "fig2" => fig2(),
        "fig3a" => fig3a(),
        "fig3b" => fig3b(),
        "sec72" => sec72(),
        "completeness" => completeness(),
        "coverage" => coverage_table(),
        "overabstraction" => overabstraction(),
        "tour" => tour_quality(),
        "distinguish" => distinguishability(),
        "fullcov" => full_scale_coverage(),
        "fullscale" => full_scale_theorem3(),
        "all" => {
            fig2();
            completeness();
            fig3a();
            fig3b();
            sec72();
            coverage_table();
            overabstraction();
            tour_quality();
            full_scale_coverage();
            distinguishability();
            full_scale_theorem3();
        }
        other => {
            eprintln!("unknown report `{other}`");
            eprintln!(
                "usage: report [fig2|fig3a|fig3b|sec72|completeness|coverage|overabstraction|tour|distinguish|fullcov|fullscale|all]"
            );
            std::process::exit(2);
        }
    }
}
