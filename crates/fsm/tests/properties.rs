//! Property-based tests: explicit/symbolic agreement on random netlists,
//! minimization invariants, and machine-level invariants — all on the
//! workspace's hermetic `forall` driver.

use simcov_bdd::{Bdd, BddManager, Var};
use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{run_implicit_campaign, ImplicitConfig};
use simcov_fsm::{
    enumerate_netlist, input_equivalence_classes, lower_netlist, minimize, EnumerateOptions,
    ExplicitMealy, InputSym, MealyBuilder, PairFsm, StateId, SymbolicFsm,
};
use simcov_netlist::{Netlist, SignalId};

/// A recipe for a random well-formed netlist (operands resolved modulo
/// the signal pool).
#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    latch_inits: Vec<bool>,
    gates: Vec<(u8, u16, u16, u16)>,
    latch_next_picks: Vec<u16>,
    output_picks: Vec<u16>,
}

fn recipe(g: &mut Gen) -> Recipe {
    recipe_sized(g, 2, 4)
}

/// A recipe with 1..=`max_inputs` inputs and 1..=`max_latches` latches.
fn recipe_sized(g: &mut Gen, max_inputs: usize, max_latches: usize) -> Recipe {
    let num_inputs = g.int_in(1..max_inputs + 1);
    let latch_inits: Vec<bool> = (0..g.int_in(1..max_latches + 1))
        .map(|_| g.bool())
        .collect();
    let gates = (0..g.int_in(0..16usize))
        .map(|_| (g.int_in(0..5u8), g.u16(), g.u16(), g.u16()))
        .collect();
    let latch_next_picks = (0..latch_inits.len()).map(|_| g.u16()).collect();
    let output_picks = (0..g.int_in(1..3usize)).map(|_| g.u16()).collect();
    Recipe {
        num_inputs,
        latch_inits,
        gates,
        latch_next_picks,
        output_picks,
    }
}

fn build(r: &Recipe) -> Netlist {
    let mut n = Netlist::new();
    let mut pool: Vec<SignalId> = Vec::new();
    for i in 0..r.num_inputs {
        pool.push(n.add_input(format!("i{i}")));
    }
    let latches: Vec<_> = r
        .latch_inits
        .iter()
        .enumerate()
        .map(|(i, &init)| n.add_latch(format!("q{i}"), init))
        .collect();
    for &l in &latches {
        pool.push(n.latch_output(l));
    }
    for &(op, a, b, c) in &r.gates {
        let pick = |x: u16| pool[x as usize % pool.len()];
        let (sa, sb, sc) = (pick(a), pick(b), pick(c));
        let g = match op {
            0 => n.and(sa, sb),
            1 => n.or(sa, sb),
            2 => n.xor(sa, sb),
            3 => n.not(sa),
            _ => n.mux(sa, sb, sc),
        };
        pool.push(g);
    }
    for (i, &pick) in r.latch_next_picks.iter().enumerate() {
        let s = pool[pick as usize % pool.len()];
        n.set_latch_next(latches[i], s);
    }
    for (i, &pick) in r.output_picks.iter().enumerate() {
        let s = pool[pick as usize % pool.len()];
        n.add_output(format!("o{i}"), s);
    }
    n
}

/// A random complete Mealy machine over a ring backbone, for
/// minimization properties.
fn random_mealy(g: &mut Gen) -> ExplicitMealy {
    let n = g.int_in(2..10usize);
    let ni = g.int_in(1..4usize);
    let no = g.int_in(1..4usize);
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let outs: Vec<_> = (0..no).map(|i| b.add_output(format!("o{i}"))).collect();
    for s in 0..n {
        #[allow(clippy::needless_range_loop)]
        for i in 0..ni {
            let dest = if i == 0 { (s + 1) % n } else { g.int_in(0..n) };
            let out = g.int_in(0..no);
            b.add_transition(states[s], inputs[i], states[dest], outs[out]);
        }
    }
    b.build(states[0]).expect("complete machine")
}

/// Explicit enumeration and symbolic reachability agree on state and
/// transition counts.
#[test]
fn explicit_symbolic_agree() {
    forall_cfg("explicit_symbolic_agree", Config::with_cases(48), |g| {
        let n = build(&recipe(g));
        let m = enumerate_netlist(&n, &EnumerateOptions::exhaustive(&n)).expect("enumerates");
        let mut fsm = SymbolicFsm::from_netlist(&n);
        let reach = fsm.reachable();
        assert_eq!(fsm.count_states(reach.reached), m.num_states() as u128);
        assert_eq!(
            fsm.count_transitions(reach.reached),
            m.num_transitions() as u128
        );
    });
}

/// The symbolic pair analysis agrees with a brute-force pair check.
#[test]
fn pair_analysis_agrees_with_bruteforce() {
    forall_cfg(
        "pair_analysis_agrees_with_bruteforce",
        Config::with_cases(48),
        |g| {
            let n = build(&recipe(g));
            let k = g.int_in(1..3usize);
            let m = enumerate_netlist(&n, &EnumerateOptions::exhaustive(&n)).expect("enumerates");
            // Brute force E_k over the explicit machine.
            let reach = m.reachable_states();
            let nn = reach.len();
            let ni = m.num_inputs();
            let mut idx = vec![usize::MAX; m.num_states()];
            for (i, &s) in reach.iter().enumerate() {
                idx[s.index()] = i;
            }
            let pair = |a: usize, b: usize| if a <= b { a * nn + b } else { b * nn + a };
            let mut e = vec![true; nn * nn];
            for _ in 0..k {
                let mut next = vec![false; nn * nn];
                for a in 0..nn {
                    next[pair(a, a)] = true;
                    for b in (a + 1)..nn {
                        for i in 0..ni {
                            let (na, oa) = m.step(reach[a], InputSym(i as u32)).expect("complete");
                            let (nb, ob) = m.step(reach[b], InputSym(i as u32)).expect("complete");
                            if oa == ob && e[pair(idx[na.index()], idx[nb.index()])] {
                                next[pair(a, b)] = true;
                                break;
                            }
                        }
                    }
                }
                e = next;
            }
            let mut brute = 0u128;
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if e[pair(a, b)] {
                        brute += 1;
                    }
                }
            }
            let mut pf = PairFsm::from_netlist(&n);
            let sym = pf.forall_k(&n.initial_state(), k, true);
            assert_eq!(sym.violating_pairs, brute);
            assert_eq!(sym.reachable_states, nn as u128);
        },
    );
}

/// The BDD lowering computes the evaluator's functions. Under a random
/// variable layout, with each input either a variable or fixed to a
/// constant (the campaign engine's layout), every next-state and output
/// BDD evaluates at random `(state, input)` points to the value
/// [`Netlist::eval_all`] computes for its signal.
#[test]
fn lowering_agrees_with_eval_all() {
    forall_cfg(
        "lowering_agrees_with_eval_all",
        Config::with_cases(64),
        |g| {
            let n = build(&recipe(g));
            let (nl, ni) = (n.num_latches(), n.num_inputs());
            // Leaf j (latches first, then inputs) sits at level `levels[j]`.
            let mut levels: Vec<u32> = (0..(nl + ni) as u32).collect();
            g.rng().shuffle(&mut levels);
            let fixed: Vec<Option<bool>> = (0..ni).map(|_| g.bool().then(|| g.bool())).collect();
            let mut mgr = BddManager::new((nl + ni) as u32);
            let bdds = lower_netlist(
                &mut mgr,
                &n,
                |m, i| match fixed[i.index()] {
                    Some(v) => m.constant(v),
                    None => m.var(levels[nl + i.index()]),
                },
                |m, l| m.var(levels[l.index()]),
            );
            assert_eq!(bdds.next.len(), nl);
            assert_eq!(bdds.outputs.len(), n.num_outputs());
            for _ in 0..8 {
                let state: Vec<bool> = (0..nl).map(|_| g.bool()).collect();
                let inputs: Vec<bool> = (0..ni)
                    .map(|i| fixed[i].unwrap_or_else(|| g.bool()))
                    .collect();
                let mut assignment = vec![false; nl + ni];
                for (j, &v) in state.iter().chain(&inputs).enumerate() {
                    assignment[levels[j] as usize] = v;
                }
                let vals = n.eval_all(&state, &inputs);
                for (l, &f) in n.latches().iter().zip(&bdds.next) {
                    let sig = l.next.expect("built netlists are complete");
                    assert_eq!(
                        mgr.eval(f, &assignment),
                        vals[sig.index()],
                        "latch {}",
                        l.name
                    );
                }
                for ((name, sig), &f) in n.outputs().iter().zip(&bdds.outputs) {
                    assert_eq!(mgr.eval(f, &assignment), vals[sig.index()], "output {name}");
                }
            }
        },
    );
}

/// `v`'s low `width` bits, bit `j` first.
fn bits(v: usize, width: usize) -> Vec<bool> {
    (0..width).map(|j| (v >> j) & 1 == 1).collect()
}

/// The inverse of [`bits`].
fn pack(bits: &[bool]) -> usize {
    bits.iter().rev().fold(0, |acc, &b| (acc << 1) | b as usize)
}

/// A brute force over all `2^L` states of a netlist under a list of
/// valid input vectors, at horizon `k`.
struct BruteForce {
    /// The states reachable from reset.
    reach: Vec<usize>,
    /// `e[a * 2^L + b]`: `E_k(a, b)`, some valid `k`-long continuation
    /// keeps the outputs of `a` and `b` equal.
    e: Vec<bool>,
    /// Whether `E` reached its fixed point within `k` rounds.
    fixed_point: bool,
    /// Per latch `j`, the reachable cells whose flip of `j` is detected:
    /// the golden successor `y` and the flipped one `y ⊕ e_j` are outside
    /// `E_k` (Theorem 1's guarantee).
    detected: Vec<u128>,
}

fn brute_force(n: &Netlist, valid: &[Vec<bool>], k: usize) -> BruteForce {
    let nl = n.num_latches();
    // step[s][v] = (successor state, outputs) of state `s` under valid
    // input `v`.
    let step: Vec<Vec<(usize, Vec<bool>)>> = (0..1usize << nl)
        .map(|s| {
            valid
                .iter()
                .map(|inp| {
                    let (next, outs) = n.step(&bits(s, nl), inp);
                    (pack(&next), outs)
                })
                .collect()
        })
        .collect();
    let init = pack(&n.initial_state());
    let mut reached = vec![false; 1 << nl];
    reached[init] = true;
    let mut frontier = vec![init];
    while let Some(s) = frontier.pop() {
        for &(t, _) in &step[s] {
            if !std::mem::replace(&mut reached[t], true) {
                frontier.push(t);
            }
        }
    }
    let reach: Vec<usize> = (0..1 << nl).filter(|&s| reached[s]).collect();
    let ns = 1usize << nl;
    let mut e = vec![true; ns * ns];
    let mut fixed_point = false;
    for _ in 0..k {
        let next: Vec<bool> = (0..ns * ns)
            .map(|ab| {
                let (a, b) = (ab / ns, ab % ns);
                step[a]
                    .iter()
                    .zip(&step[b])
                    .any(|((na, oa), (nb, ob))| oa == ob && e[na * ns + nb])
            })
            .collect();
        fixed_point |= next == e;
        e = next;
    }
    // The flipped successor may be unreachable; `e` covers every state.
    let mut detected = vec![0u128; nl];
    for &s in &reach {
        for &(y, _) in &step[s] {
            for (j, d) in detected.iter_mut().enumerate() {
                if !e[y * ns + (y ^ (1 << j))] {
                    *d += 1;
                }
            }
        }
    }
    BruteForce {
        reach,
        e,
        fixed_point,
        detected,
    }
}

/// The implicit campaign agrees with [`brute_force`]: reachable states
/// and cells, valid inputs, and the transfer flips detected within `k`.
/// The same `E_k` checks `forall_k` with and without the reachability
/// restriction, and the prep's node reclamation: the constraint made
/// before it still counts the same, and a second prep on the same
/// manager agrees.
#[test]
fn implicit_campaign_matches_bruteforce() {
    forall_cfg(
        "implicit_campaign_matches_bruteforce",
        Config::with_cases(48),
        |g| {
            let n = build(&recipe_sized(g, 3, 5));
            let k = g.int_in(1..4usize);
            let jobs = g.int_in(1..3usize);
            let (nl, ni) = (n.num_latches(), n.num_inputs());
            // Every input vector, then a random subset of them, possibly
            // empty. A subset that is no cube makes the generalized
            // cofactor map invalid vectors to nearby valid ones, where a
            // cube would only cofactor inputs away.
            let all: Vec<Vec<bool>> = (0..1usize << ni).map(|v| bits(v, ni)).collect();
            let subset = all.iter().filter(|_| g.bool()).cloned().collect();
            for valid in [all, subset] {
                let BruteForce {
                    reach,
                    e,
                    fixed_point,
                    detected,
                } = brute_force(&n, &valid, k);
                let ns = 1usize << nl;

                // The OR of the valid vectors' minterms.
                let constraint = |pf: &mut PairFsm| {
                    let mut c = Bdd::FALSE;
                    for v in &valid {
                        let mut minterm = Bdd::TRUE;
                        for (i, &b) in v.iter().enumerate() {
                            let level = pf.input_var(i).0;
                            let x = if b {
                                pf.mgr().var(level)
                            } else {
                                pf.mgr().nvar(level)
                            };
                            minterm = pf.mgr().and(minterm, x);
                        }
                        c = pf.mgr().or(c, minterm);
                    }
                    c
                };
                let report = run_implicit_campaign(&n, constraint, &ImplicitConfig { k, jobs });
                let what = format!("k={k} jobs={jobs} valid={valid:?}");
                assert_eq!(report.valid_inputs, valid.len() as u128, "{what}");
                assert_eq!(report.reachable_states, reach.len() as u128, "{what}");
                assert_eq!(
                    report.reachable_cells,
                    (reach.len() * valid.len()) as u128,
                    "{what}"
                );
                assert_eq!(
                    report.transfer_detected,
                    detected.iter().sum::<u128>(),
                    "{what}"
                );
                assert_eq!(report.fixed_point, fixed_point, "{what}");
                // The total could hide two flips' counts trading places:
                // check each latch's query too.
                let mut pf = PairFsm::from_netlist(&n);
                let v = constraint(&mut pf);
                pf.set_valid_inputs(v);
                let in_vars: Vec<Var> = (0..ni).map(|i| pf.input_var(i)).collect();
                let valid_count = pf.mgr_ref().count_over(v, &in_vars);
                let init = n.initial_state();
                let prep = pf.transfer_detect_prep(&init, k);
                assert_eq!(pf.mgr_ref().count_over(v, &in_vars), valid_count, "{what}");
                for (j, &d) in detected.iter().enumerate() {
                    assert_eq!(pf.transfer_flip_detectable(&prep, j), d, "{what} flip {j}");
                }
                let again = pf.transfer_detect_prep(&init, k);
                assert_eq!(
                    (
                        again.reachable_states,
                        again.reachable_cells,
                        again.fixed_point
                    ),
                    (
                        prep.reachable_states,
                        prep.reachable_cells,
                        prep.fixed_point
                    ),
                    "{what} second prep"
                );
                for (j, &d) in detected.iter().enumerate() {
                    let got = pf.transfer_flip_detectable(&again, j);
                    assert_eq!(got, d, "{what} second prep flip {j}");
                }
                // forall_k: unordered pairs of distinct states in E_k, over
                // the reachable states or over all of them.
                for restrict in [true, false] {
                    let states: Vec<usize> = if restrict {
                        reach.clone()
                    } else {
                        (0..ns).collect()
                    };
                    let mut violating = 0u128;
                    for (x, &a) in states.iter().enumerate() {
                        violating +=
                            states[x + 1..].iter().filter(|&&b| e[a * ns + b]).count() as u128;
                    }
                    let r = pf.forall_k(&init, k, restrict);
                    let what = format!("{what} restrict={restrict}");
                    assert_eq!(r.reachable_states, states.len() as u128, "{what}");
                    assert_eq!(r.violating_pairs, violating, "{what}");
                    assert_eq!(r.holds, violating == 0, "{what}");
                    assert_eq!(r.fixed_point, fixed_point, "{what}");
                }
            }
        },
    );
}

/// The input classes agree with a brute force: two valid vectors share a
/// class exactly when they give every state in scope (the reachable
/// states, or all `2^L`) the same successor and outputs. The valid set is
/// every vector, then a random non-empty subset given as an OR of
/// minterms, which the care-set rule cofactors by.
#[test]
fn input_classes_match_bruteforce() {
    forall_cfg(
        "input_classes_match_bruteforce",
        Config::with_cases(96),
        |g| {
            let n = build(&recipe_sized(g, 4, 4));
            let (nl, ni) = (n.num_latches(), n.num_inputs());
            let all: Vec<Vec<bool>> = (0..1usize << ni).map(|v| bits(v, ni)).collect();
            let mut subset: Vec<Vec<bool>> = all.iter().filter(|_| g.bool()).cloned().collect();
            if subset.is_empty() {
                subset.push(all[g.int_in(0..all.len())].clone());
            }
            for valid in [all, subset] {
                let reach = brute_force(&n, &valid, 0).reach;
                for restrict in [true, false] {
                    let states: Vec<usize> = if restrict {
                        reach.clone()
                    } else {
                        (0..1 << nl).collect()
                    };
                    // The group of each valid vector: its (successor, outputs)
                    // row over the states in scope.
                    let row = |v: &[bool]| -> Vec<(Vec<bool>, Vec<bool>)> {
                        states.iter().map(|&s| n.step(&bits(s, nl), v)).collect()
                    };
                    let mut groups: std::collections::HashMap<_, u128> = Default::default();
                    for v in &valid {
                        *groups.entry(row(v)).or_default() += 1;
                    }
                    let classes = input_equivalence_classes(
                        &n,
                        |mgr, lookup| {
                            let mut c = Bdd::FALSE;
                            for v in &valid {
                                let mut minterm = Bdd::TRUE;
                                for (i, &b) in v.iter().enumerate() {
                                    let level = lookup(&format!("i{i}")).0;
                                    let x = if b { mgr.var(level) } else { mgr.nvar(level) };
                                    minterm = mgr.and(minterm, x);
                                }
                                c = mgr.or(c, minterm);
                            }
                            c
                        },
                        restrict,
                        usize::MAX,
                    )
                    .expect("no class bound");
                    let what = format!("restrict={restrict} valid={valid:?}");
                    assert_eq!(classes.len(), groups.len(), "{what}");
                    assert_eq!(classes.total_valid(), valid.len() as u128, "{what}");
                    let mut seen = std::collections::HashSet::new();
                    for (rep, &size) in classes.representatives.iter().zip(&classes.class_sizes) {
                        assert!(valid.contains(rep), "{what}: {rep:?} is not valid");
                        let r = row(rep);
                        assert_eq!(groups[&r], size, "{what}: class of {rep:?}");
                        assert!(seen.insert(r), "{what}: {rep:?} shares a group");
                    }
                }
            }
        },
    );
}

/// `simcov campaign --dlx reduced|reduced-obs --engine symbolic` runs
/// the implicit campaign with every input valid; it agrees with
/// [`brute_force`] at k = 1, 2, 3 and jobs 1, 2 and 8, with the same
/// `bdd.*` effort counters at every job count. Both models have 18
/// reachable states and 576 cells over 32 inputs. On `reduced` the
/// detected transfer flips grow to their fixed point at k = 3; on
/// `reduced-obs`, whose state is observable, every flip is detected at
/// every k (Theorem 3).
#[test]
fn implicit_campaign_matches_bruteforce_on_reduced_dlx() {
    use simcov_dlx::testmodel::{reduced_control_netlist, reduced_control_netlist_observable};
    for (name, n, pinned) in [
        ("reduced", reduced_control_netlist(), [1136u128, 1708, 1708]),
        (
            "reduced-obs",
            reduced_control_netlist_observable(),
            [4608; 3],
        ),
    ] {
        let (nl, ni) = (n.num_latches(), n.num_inputs());
        let all: Vec<Vec<bool>> = (0..1usize << ni).map(|v| bits(v, ni)).collect();
        for (k, &pinned) in (1..=3).zip(&pinned) {
            let bf = brute_force(&n, &all, k);
            let detected: u128 = bf.detected.iter().sum();
            assert_eq!(detected, pinned, "{name} k={k}");
            assert_eq!(bf.reach.len(), 18, "{name}");
            let mut sym = None;
            for jobs in [1, 2, 8] {
                let report = run_implicit_campaign(&n, |_| Bdd::TRUE, &ImplicitConfig { k, jobs });
                let what = format!("{name} k={k} jobs={jobs}");
                assert_eq!(*sym.get_or_insert(report.sym), report.sym, "{what}");
                assert_eq!(report.valid_inputs, all.len() as u128, "{what}");
                assert_eq!(report.reachable_states, bf.reach.len() as u128, "{what}");
                let cells = (bf.reach.len() * all.len()) as u128;
                assert_eq!(report.reachable_cells, cells, "{what}");
                assert_eq!(report.transfer_faults, cells * nl as u128, "{what}");
                assert_eq!(report.transfer_detected, detected, "{what}");
                assert_eq!(report.fixed_point, bf.fixed_point, "{what}");
            }
        }
    }
}

/// Machine mutations are involutive where expected: redirecting a
/// transition back restores the original machine.
#[test]
fn mutation_roundtrip() {
    forall_cfg("mutation_roundtrip", Config::with_cases(48), |g| {
        let n = build(&recipe(g));
        let m = enumerate_netlist(&n, &EnumerateOptions::exhaustive(&n)).expect("enumerates");
        let s = StateId(g.u16() as u32 % m.num_states() as u32);
        let i = InputSym(g.u16() as u32 % m.num_inputs() as u32);
        let (orig_next, _) = m.step(s, i).expect("complete");
        let other = StateId((orig_next.0 + 1) % m.num_states() as u32);
        let mutated = m.with_redirected_transition(s, i, other);
        let restored = mutated.with_redirected_transition(s, i, orig_next);
        assert_eq!(&restored, &m);
    });
}

/// DOT export is syntactically coherent (every reachable state and
/// transition appears).
#[test]
fn dot_mentions_everything() {
    forall_cfg("dot_mentions_everything", Config::with_cases(48), |g| {
        let n = build(&recipe(g));
        let m = enumerate_netlist(&n, &EnumerateOptions::exhaustive(&n)).expect("enumerates");
        let dot = m.to_dot();
        for s in m.reachable_states() {
            let label = format!("s{}", s.0);
            assert!(dot.contains(&label));
        }
        assert!(dot.contains("init ->"));
    });
}

/// Minimization preserves the machine's language: on random input words
/// the minimized machine produces exactly the golden output trace, and
/// every original state agrees with its equivalence-class representative.
#[test]
fn minimize_preserves_language() {
    forall_cfg("minimize_preserves_language", Config::with_cases(48), |g| {
        let m = random_mealy(g);
        let min = minimize(&m);
        assert!(min.machine.num_states() <= m.num_states());
        // Random words from reset: identical output traces.
        for _ in 0..8 {
            let word: Vec<InputSym> =
                g.vec_of(0..24usize, |g| InputSym(g.int_in(0..m.num_inputs() as u32)));
            let (_, golden) = m.run(m.reset(), &word);
            let (_, reduced) = min.machine.run(min.machine.reset(), &word);
            assert_eq!(
                golden, reduced,
                "word {word:?} distinguishes machine from its quotient"
            );
        }
        // Classwise: every reachable original state behaves like its class.
        for s in m.reachable_states() {
            let class = min.class_of[s.index()].expect("reachable states have a class");
            let word: Vec<InputSym> =
                g.vec_of(0..12usize, |g| InputSym(g.int_in(0..m.num_inputs() as u32)));
            let (_, from_orig) = m.run(s, &word);
            let (_, from_class) = min.machine.run(StateId(class), &word);
            assert_eq!(
                from_orig, from_class,
                "state s{} deviates from its class",
                s.0
            );
        }
    });
}

/// A random *partial* Mealy machine with unreachable states: each cell is
/// defined with probability 3/5 and leads into the first `live` states,
/// so states `live..n` are never entered, and the live ones only where
/// the random edges happen to reach them.
fn random_partial_mealy(g: &mut Gen) -> ExplicitMealy {
    let n = g.int_in(1..12usize);
    let live = g.int_in(1..n + 1);
    let ni = g.int_in(1..4usize);
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let out = b.add_output("o");
    for &s in &states {
        for &i in &inputs {
            if g.int_in(0..5u32) < 3 {
                b.add_transition(s, i, states[g.int_in(0..live)], out);
            }
        }
    }
    b.build(states[0]).expect("one transition per cell")
}

/// The one explicit search against brute force on random partial
/// machines, from a random start state (reachable from reset or not):
/// every depth is the shortest distance found by relaxing every
/// transition to a fixpoint, every tree path is a walk of exactly that
/// length to its state, an unstopped search reaches exactly the states at
/// finite distance in non-decreasing depth, and a stopped search ends at
/// the first accepted state of the unstopped order.
#[test]
fn bfs_matches_bruteforce_distances() {
    forall_cfg(
        "bfs_matches_bruteforce_distances",
        Config::with_cases(256),
        |g| {
            let m = random_partial_mealy(g);
            let from = StateId(g.int_in(0..m.num_states() as u32));
            let mut dist = vec![usize::MAX; m.num_states()];
            dist[from.index()] = 0;
            let mut changed = true;
            while changed {
                changed = false;
                for t in m.transitions() {
                    let d = dist[t.state.index()];
                    if d != usize::MAX && d + 1 < dist[t.next.index()] {
                        dist[t.next.index()] = d + 1;
                        changed = true;
                    }
                }
            }
            let tree = m.bfs(from, |_| false);
            assert_eq!(tree.found(), None);
            let order = tree.order();
            assert_eq!(order[0], from);
            let mut reached: Vec<StateId> = order.to_vec();
            reached.sort_unstable();
            reached.dedup();
            assert_eq!(reached.len(), order.len(), "each state reached once");
            let finite: Vec<StateId> = m
                .states()
                .filter(|s| dist[s.index()] != usize::MAX)
                .collect();
            assert_eq!(
                reached, finite,
                "reaches exactly the states at finite distance"
            );
            assert!(
                order
                    .windows(2)
                    .all(|w| tree.depth(w[0]) <= tree.depth(w[1])),
                "non-decreasing depth along {order:?}"
            );
            for s in m.states() {
                let want = (dist[s.index()] != usize::MAX).then_some(dist[s.index()]);
                assert_eq!(tree.depth(s), want, "depth of {s:?}");
                match tree.path(s) {
                    None => assert_eq!(want, None, "{s:?} reached without a path"),
                    Some(path) => {
                        assert_eq!(Some(path.len()), want, "path length to {s:?}");
                        let (walk, _) = m.run(from, &path);
                        assert_eq!(
                            walk.len(),
                            path.len() + 1,
                            "path to {s:?} leaves the machine"
                        );
                        assert_eq!(walk.last(), Some(&s), "path to {s:?} ends elsewhere");
                    }
                }
            }
            // The tree's tie-breaks: a state's parent is the earliest state in
            // `order` with a transition to it, over its smallest such input,
            // and `order` lists states by (parent's position, input).
            let pos = |s: StateId| order.iter().position(|&t| t == s);
            let mut keys = Vec::new();
            for &v in &order[1..] {
                let path = tree.path(v).expect("reached");
                let u = m.run(from, &path).0[path.len() - 1];
                let first = order
                    .iter()
                    .copied()
                    .find(|&t| m.inputs().any(|i| m.step(t, i).map(|(n, _)| n) == Some(v)));
                assert_eq!(Some(u), first, "parent of {v:?}");
                let smallest = m
                    .inputs()
                    .find(|&i| m.step(u, i).map(|(n, _)| n) == Some(v));
                assert_eq!(path.last().copied(), smallest, "input into {v:?}");
                keys.push((pos(u), smallest));
            }
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "order by (parent, input)"
            );
            // A stop: accept a random subset of the states.
            let accept: Vec<bool> = m.states().map(|_| g.int_in(0..3u32) == 0).collect();
            let stopped = m.bfs(from, |s| accept[s.index()]);
            let first = order.iter().position(|s| accept[s.index()]);
            assert_eq!(stopped.found(), first.map(|k| order[k]));
            let prefix = first.map_or(order.len(), |k| k + 1);
            assert_eq!(
                stopped.order(),
                &order[..prefix],
                "stopped order is a prefix"
            );
            for &s in stopped.order() {
                assert_eq!(stopped.path(s), tree.path(s), "stopped tree path to {s:?}");
            }
            // Reachability is the unstopped search from reset.
            let from_reset = m.bfs(m.reset(), |_| false);
            assert_eq!(m.reachable_states(), from_reset.order());
            let cells = m.reachable_cells();
            for s in m.states() {
                for i in m.inputs() {
                    let defined = m.step(s, i).is_some();
                    let reachable = from_reset.depth(s).is_some();
                    assert_eq!(
                        cells[s.index() * m.num_inputs() + i.index()],
                        defined && reachable
                    );
                }
            }
        },
    );
}
