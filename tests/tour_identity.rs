//! Pins the exact output of every explicit test-set generator.
//!
//! The tour properties check coverage and length only, so a generator
//! whose output changed but still covered everything would pass them.
//! This test hashes (FNV-64) each generator's exact output, or the error
//! it returns, on a fixed set of machines: the reduced DLX test models
//! under both input alphabets, the paper's examples and three seeded
//! random machines, one of them partial with unreachable states. A
//! change to a search or a walk that moves a single input shows here.
//! Update a pin only for an intended change of output.

use simcov::core::models::{figure2, traffic_light};
use simcov::dlx::testmodel::{
    reduced_control_netlist, reduced_control_netlist_observable, reduced_valid_inputs,
};
use simcov::fsm::{
    enumerate_netlist, EnumerateOptions, ExplicitMealy, InputSym, MealyBuilder, StateId,
};
use simcov::obs::fnv::Fnv64;
use simcov::prng::Prng;
use simcov::tour::{
    biased_random_test_set, coverage, coverage_set, greedy_transition_tour, state_tour,
    targeted_tour, transition_tour, uio_test_set, w_method_test_set, CoverageReport, TestSet, Tour,
};

/// The pinned outputs, in the order of each row of [`PINS`].
const GENERATORS: [&str; 9] = [
    "reachable_states",
    "transition_tour",
    "greedy_transition_tour",
    "state_tour",
    "uio_test_set",
    "w_method_test_set",
    "targeted_tour",
    "biased_random_test_set",
    "coverage",
];

/// One row per machine of [`machines`]: the FNV-64 of each generator's
/// output, in [`GENERATORS`] order.
const PINS: [(&str, [u64; 9]); 10] = [
    (
        "reduced/valid",
        [
            0x2ede69b413ecfe24, // reachable_states
            0xe879a52dae5f2b49, // transition_tour
            0xea57901214ee6f83, // greedy_transition_tour
            0xd6a7401f79406a54, // state_tour
            0x6ffdaa4773c3f277, // uio_test_set
            0x4e8c9c34a3cad586, // w_method_test_set
            0xd91c257578a831f9, // targeted_tour
            0xd35f369e2d191f50, // biased_random_test_set
            0xe724a6f5378a59d2, // coverage
        ],
    ),
    (
        "reduced/exhaustive",
        [
            0x2ede69b413ecfe24, // reachable_states
            0x8c41424fea9be859, // transition_tour
            0xe38f0cc3fb39330b, // greedy_transition_tour
            0xc75bb8cdc20608e2, // state_tour
            0x6ffdaa4773c3f277, // uio_test_set
            0x4e8c9c34a3cad586, // w_method_test_set
            0x21e735e181b294d3, // targeted_tour
            0x1d0808e830367a12, // biased_random_test_set
            0x4ff5171155a2f4e8, // coverage
        ],
    ),
    (
        "reduced-obs/valid",
        [
            0x2ede69b413ecfe24, // reachable_states
            0xe879a52dae5f2b49, // transition_tour
            0xea57901214ee6f83, // greedy_transition_tour
            0xd6a7401f79406a54, // state_tour
            0x15fdb5a6ed5d7148, // uio_test_set
            0x15fdb5a6ed5d7148, // w_method_test_set
            0xd91c257578a831f9, // targeted_tour
            0xd35f369e2d191f50, // biased_random_test_set
            0x6ac8ad28c4592386, // coverage
        ],
    ),
    (
        "reduced-obs/exhaustive",
        [
            0x2ede69b413ecfe24, // reachable_states
            0x8c41424fea9be859, // transition_tour
            0xe38f0cc3fb39330b, // greedy_transition_tour
            0xc75bb8cdc20608e2, // state_tour
            0xf8c155b90c0a2545, // uio_test_set
            0xf8c155b90c0a2545, // w_method_test_set
            0x21e735e181b294d3, // targeted_tour
            0x1d0808e830367a12, // biased_random_test_set
            0x6fd08c6a54a002ac, // coverage
        ],
    ),
    (
        "figure2",
        [
            0x09006fd87ae84ae2, // reachable_states
            0x3b80c4598c9dd4ba, // transition_tour
            0xe55991380ae113fa, // greedy_transition_tour
            0x0027753221e33205, // state_tour
            0x7cf24852d42a5a20, // uio_test_set
            0xb765b735c0655d02, // w_method_test_set
            0xd5b391ce558f4a8e, // targeted_tour
            0x73dc4c1e5e2516fd, // biased_random_test_set
            0x17eb8d1769bd6a16, // coverage
        ],
    ),
    (
        "traffic_light/exposed",
        [
            0xdfe8298ec6cf7d85, // reachable_states
            0x87add30145822b3f, // transition_tour
            0x75fb3e098aaa9bff, // greedy_transition_tour
            0x19c10f93da421aa5, // state_tour
            0x44aa35062ee357df, // uio_test_set
            0x44aa35062ee357df, // w_method_test_set
            0xa016bdcb0feba50b, // targeted_tour
            0x9126ae7ffd00b49e, // biased_random_test_set
            0x4a2dc86c1b53d62e, // coverage
        ],
    ),
    (
        "traffic_light/hidden",
        [
            0xdfe8298ec6cf7d85, // reachable_states
            0x87add30145822b3f, // transition_tour
            0x75fb3e098aaa9bff, // greedy_transition_tour
            0x19c10f93da421aa5, // state_tour
            0x7cf24852d42a5a20, // uio_test_set
            0x0ee6e606f81c109f, // w_method_test_set
            0xa016bdcb0feba50b, // targeted_tour
            0x9126ae7ffd00b49e, // biased_random_test_set
            0x0f00b8e0e322f2ac, // coverage
        ],
    ),
    (
        "random/12x3",
        [
            0xec4dca5a9c4c1705, // reachable_states
            0xd7b2529e63477daa, // transition_tour
            0xb5ad3ae1c7e0bb30, // greedy_transition_tour
            0x717661ed35466664, // state_tour
            0x297f1ac0739714ae, // uio_test_set
            0x4549abac24e65cfb, // w_method_test_set
            0x7cfcc800de5ae6f4, // targeted_tour
            0x909972f917cf92fc, // biased_random_test_set
            0xe3c17873c4ac6049, // coverage
        ],
    ),
    (
        "random/40x4",
        [
            0x902fa889505b5ee5, // reachable_states
            0xbf3ebef70fa5cc0d, // transition_tour
            0x443fa3511f93fdee, // greedy_transition_tour
            0xea33d3b817299cc8, // state_tour
            0x97af6b678e2fa780, // uio_test_set
            0x198cd41807485b2a, // w_method_test_set
            0xca35dec9198d2225, // targeted_tour
            0x6a92c051e7fef99f, // biased_random_test_set
            0xc9799fdd8e6f26f0, // coverage
        ],
    ),
    (
        "random/partial-30x3",
        [
            0x26536cd9a3627a65, // reachable_states
            0xc71535c9e2e365f3, // transition_tour
            0x37cd75ca8b66b46e, // greedy_transition_tour
            0x35071025462882f8, // state_tour
            0x3ee7c1ab8e82e47b, // uio_test_set
            0x006c92309f4acc09, // w_method_test_set
            0xdc7e27017f7a1546, // targeted_tour
            0x93f0dab48927b4bc, // biased_random_test_set
            0xeb60e94d6055a57e, // coverage
        ],
    ),
];

/// A seeded random machine over `n` states and `ni` inputs. The first
/// `live` states carry a ring on input 0, so they are reachable and
/// strongly connected; every other input of theirs is defined with
/// probability `p` and leads back into them. States `live..n` lead into
/// the ring but nothing leads to them, so they are unreachable.
fn random_machine(seed: u64, n: usize, ni: usize, live: usize, p: f64) -> ExplicitMealy {
    let mut rng = Prng::seed_from_u64(seed);
    let mut b = MealyBuilder::new();
    let states: Vec<StateId> = (0..n).map(|s| b.add_state(format!("s{s}"))).collect();
    let inputs: Vec<InputSym> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let outputs: Vec<_> = (0..4).map(|o| b.add_output(format!("o{o}"))).collect();
    for s in 0..n {
        for (i, &input) in inputs.iter().enumerate() {
            let next = if s < live && i == 0 {
                (s + 1) % live
            } else if rng.gen_bool(p) {
                rng.gen_range(0..live)
            } else {
                continue;
            };
            let out = outputs[rng.gen_range(0..outputs.len())];
            b.add_transition(states[s], input, states[next], out);
        }
    }
    b.build(states[0])
        .expect("random machines are deterministic")
}

fn machines() -> Vec<(&'static str, ExplicitMealy)> {
    let reduced = reduced_control_netlist();
    let observable = reduced_control_netlist_observable();
    let enumerate = |n, opts| enumerate_netlist(n, &opts).expect("reduced models enumerate");
    vec![
        (
            "reduced/valid",
            enumerate(&reduced, reduced_valid_inputs(&reduced)),
        ),
        (
            "reduced/exhaustive",
            enumerate(&reduced, EnumerateOptions::exhaustive(&reduced)),
        ),
        (
            "reduced-obs/valid",
            enumerate(&observable, reduced_valid_inputs(&observable)),
        ),
        (
            "reduced-obs/exhaustive",
            enumerate(&observable, EnumerateOptions::exhaustive(&observable)),
        ),
        ("figure2", figure2().0),
        ("traffic_light/exposed", traffic_light(true)),
        ("traffic_light/hidden", traffic_light(false)),
        ("random/12x3", random_machine(611, 12, 3, 12, 1.0)),
        ("random/40x4", random_machine(612, 40, 4, 40, 1.0)),
        ("random/partial-30x3", random_machine(613, 30, 3, 24, 0.6)),
    ]
}

fn hash_inputs(h: &mut Fnv64, seq: &[InputSym]) {
    h.u64(seq.len() as u64);
    for i in seq {
        h.u64(u64::from(i.0));
    }
}

fn hash_set(h: &mut Fnv64, ts: &TestSet) {
    h.u64(ts.sequences.len() as u64);
    for seq in &ts.sequences {
        hash_inputs(h, seq);
    }
}

fn hash_coverage(h: &mut Fnv64, r: &CoverageReport) {
    for x in [
        r.transitions_covered,
        r.transitions_total,
        r.states_covered,
        r.states_total,
        r.applied_length,
    ] {
        h.u64(x as u64);
    }
}

/// Hashes an `Ok` with `ok`, an error by its `Debug` rendering.
fn hash_result<T, E: std::fmt::Debug>(result: &Result<T, E>, ok: impl Fn(&mut Fnv64, &T)) -> u64 {
    let mut h = Fnv64::new();
    match result {
        Ok(t) => {
            h.bytes(b"ok");
            ok(&mut h, t);
        }
        Err(e) => h.bytes(format!("err {e:?}").as_bytes()),
    }
    h.finish()
}

fn hash_tour(h: &mut Fnv64, t: &Tour) {
    hash_inputs(h, &t.inputs);
    h.u64(t.duplicates as u64);
}

/// Every cell `(s, i)` of the machine, defined or not, reachable or not,
/// with `(7s + 3i) mod 5 = 0`.
fn targets(m: &ExplicitMealy) -> Vec<(StateId, InputSym)> {
    m.states()
        .flat_map(|s| m.inputs().map(move |i| (s, i)))
        .filter(|&(s, i)| (7 * s.0 + 3 * i.0) % 5 == 0)
        .collect()
}

/// The FNV-64 of each generator's output on `m`, in [`GENERATORS`] order.
fn fingerprints(m: &ExplicitMealy) -> [u64; 9] {
    let mut reach = Fnv64::new();
    for s in m.reachable_states() {
        reach.u64(u64::from(s.0));
    }
    let postman = transition_tour(m);
    let greedy = greedy_transition_tour(m);
    let state = state_tour(m);
    let uio = uio_test_set(m, 4);
    let wmethod = w_method_test_set(m);
    let targets = targets(m);
    let targeted = targeted_tour(m, &targets, 2, 17);
    let biased = biased_random_test_set(m, &targets, 3, 24, 4, 29);

    let mut cov = Fnv64::new();
    for tour in [&postman, &greedy, &state] {
        let inputs = tour.as_ref().map(|t| t.inputs.as_slice()).unwrap_or(&[]);
        hash_coverage(&mut cov, &coverage(m, inputs));
    }
    for ts in [
        uio.as_ref().ok(),
        wmethod.as_ref().ok(),
        Some(&targeted),
        Some(&biased),
    ] {
        let seqs = ts.map(|ts| ts.sequences.as_slice()).unwrap_or(&[]);
        hash_coverage(&mut cov, &coverage_set(m, seqs.iter().map(Vec::as_slice)));
    }

    let mut targeted_h = Fnv64::new();
    hash_set(&mut targeted_h, &targeted);
    let mut biased_h = Fnv64::new();
    hash_set(&mut biased_h, &biased);
    [
        reach.finish(),
        hash_result(&postman, hash_tour),
        hash_result(&greedy, hash_tour),
        hash_result(&state, hash_tour),
        hash_result(&uio, hash_set),
        hash_result(&wmethod, hash_set),
        targeted_h.finish(),
        biased_h.finish(),
        cov.finish(),
    ]
}

#[test]
fn generators_match_their_pins() {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for ((name, m), (pin_name, pins)) in machines().iter().zip(PINS) {
        assert_eq!(*name, pin_name, "PINS rows follow machines()");
        let got = fingerprints(m);
        table.push_str(&format!("    (\"{name}\", [\n"));
        for (g, (&h, &pin)) in GENERATORS.iter().zip(got.iter().zip(pins.iter())) {
            table.push_str(&format!("        {h:#018x}, // {g}\n"));
            if h != pin {
                mismatches.push(format!("{name}: {g} is {h:#018x}, pinned {pin:#018x}"));
            }
        }
        table.push_str("    ]),\n");
    }
    assert!(
        mismatches.is_empty(),
        "generator output changed:\n{}\ncurrent table:\n{table}",
        mismatches.join("\n")
    );
}
