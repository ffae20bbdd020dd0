//! Three-way engine equivalence: the bit-parallel (word-packed) engine
//! must produce bit-identical `FaultOutcome` vectors, merged
//! `CampaignStats` *and* differential effort counters to both scalar
//! engines — on seeded random machines and on the reduced DLX control
//! model, at every job count, and at fault counts chosen to pin the
//! partial-word tail (1, 63, 64, 65 effective lanes and a multi-word
//! 1000-fault campaign). The integration-level counterpart of the
//! per-fault property tests in `crates/core/src/packed.rs` and of the CI
//! three-engine equivalence gate.

use simcov::core::{
    enumerate_single_faults, extend_cyclically, sample_faults, Engine, FaultSpace, PackedStats,
    ResilientCampaign,
};
use simcov::dlx::testmodel::{reduced_control_netlist_observable, reduced_valid_inputs};
use simcov::fsm::{enumerate_netlist, ExplicitMealy, InputSym, MealyBuilder};
use simcov::prng::Prng;
use simcov::tour::{transition_tour, TestSet};

fn dlx_fixture() -> (ExplicitMealy, Vec<simcov::core::Fault>, TestSet) {
    let n = reduced_control_netlist_observable();
    let opts = reduced_valid_inputs(&n);
    let m = enumerate_netlist(&n, &opts).expect("reduced model enumerates");
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: 1_500,
            seed: 7,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).expect("DLX model is strongly connected");
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
    (m, faults, tests)
}

/// Seeded random machine: a ring on input 0 (so every state is
/// reachable) plus random transitions on the other inputs.
fn random_machine(seed: u64) -> ExplicitMealy {
    let mut rng = Prng::seed_from_u64(seed);
    let n = 4 + (rng.gen_range(0..12u32) as usize);
    let ni = 2 + (rng.gen_range(0..3u32) as usize);
    let no = 2 + (rng.gen_range(0..3u32) as usize);
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let outs: Vec<_> = (0..no).map(|i| b.add_output(format!("o{i}"))).collect();
    for (si, &s) in states.iter().enumerate() {
        for (ii, &i) in inputs.iter().enumerate() {
            if ii == 0 {
                let o = outs[rng.gen_range(0..no as u32) as usize];
                b.add_transition(s, i, states[(si + 1) % n], o);
            } else if rng.gen_bool(0.8) {
                let t = states[rng.gen_range(0..n as u32) as usize];
                let o = outs[rng.gen_range(0..no as u32) as usize];
                b.add_transition(s, i, t, o);
            }
        }
    }
    b.build(states[0]).unwrap()
}

fn random_tests(seed: u64, m: &ExplicitMealy) -> TestSet {
    let mut rng = Prng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let ni = m.num_inputs() as u32;
    TestSet {
        sequences: (0..4)
            .map(|_| {
                let len = rng.gen_range(0..40u32) as usize;
                (0..len).map(|_| InputSym(rng.gen_range(0..ni))).collect()
            })
            .collect(),
    }
}

/// Runs all three engines on the same campaign and asserts bit-identity
/// of outcomes and stats — and that packed replays account exactly the
/// differential engine's effort.
fn assert_three_way(
    m: &ExplicitMealy,
    faults: &[simcov::core::Fault],
    tests: &TestSet,
    jobs: usize,
    ctx: &str,
) {
    let naive = ResilientCampaign::new(m, faults, tests)
        .engine(Engine::Naive)
        .jobs(jobs)
        .run()
        .unwrap();
    assert_eq!(
        naive.packed,
        PackedStats::default(),
        "{ctx}: naive packs nothing"
    );
    let differential = ResilientCampaign::new(m, faults, tests)
        .engine(Engine::Differential)
        .jobs(jobs)
        .run()
        .unwrap();
    let packed = ResilientCampaign::new(m, faults, tests)
        .engine(Engine::Packed)
        .jobs(jobs)
        .run()
        .unwrap();
    assert_eq!(
        packed.report.outcomes, naive.report.outcomes,
        "{ctx}: packed vs naive outcomes"
    );
    assert_eq!(
        differential.report.outcomes, naive.report.outcomes,
        "{ctx}: differential vs naive outcomes"
    );
    assert_eq!(packed.stats, naive.stats, "{ctx}: merged stats");
    assert_eq!(
        packed.diff, differential.diff,
        "{ctx}: packed replays must save exactly the differential effort"
    );
}

#[test]
fn dlx_campaign_is_identical_across_all_three_engines_at_any_job_count() {
    let (m, faults, tests) = dlx_fixture();
    for jobs in [1, 2, 8] {
        assert_three_way(&m, &faults, &tests, jobs, &format!("dlx jobs={jobs}"));
    }
}

#[test]
fn word_tail_fault_counts_are_engine_independent() {
    // 1, 63, 64, 65 pin the partial-word tail around one full word;
    // 1000 exercises multi-word batching across multiple shards.
    for (mi, seed) in [11u64, 29, 47].into_iter().enumerate() {
        let m = random_machine(seed);
        let tests = random_tests(seed, &m);
        for count in [1usize, 63, 64, 65, 1000] {
            let faults = sample_faults(&m, count, seed.wrapping_mul(0x5851_f42d));
            assert_eq!(faults.len(), count, "sampler fills the request");
            for jobs in [1, 2, 8] {
                assert_three_way(
                    &m,
                    &faults,
                    &tests,
                    jobs,
                    &format!("machine {mi}, {count} faults, jobs={jobs}"),
                );
            }
        }
    }
}

#[test]
fn single_shard_word_boundaries_pin_tail_masking() {
    // Force the whole fault list into ONE shard so the packed engine
    // forms exactly ceil(transfers/64) words — the 63/64/65 boundary is
    // then a word-tail boundary, not a shard boundary.
    let m = random_machine(5);
    let tests = random_tests(5, &m);
    let transfers: Vec<simcov::core::Fault> = enumerate_single_faults(
        &m,
        &FaultSpace {
            output: false,
            max_faults: usize::MAX,
            ..FaultSpace::default()
        },
    );
    assert!(!transfers.is_empty());
    let naive_all = |faults: &[simcov::core::Fault]| {
        ResilientCampaign::new(&m, faults, &tests)
            .engine(Engine::Naive)
            .shard_size(faults.len())
            .jobs(1)
            .run()
            .unwrap()
    };
    for count in [1usize, 63, 64, 65, 130] {
        let faults: Vec<simcov::core::Fault> =
            (0..count).map(|i| transfers[i % transfers.len()]).collect();
        let naive = naive_all(&faults);
        let packed = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Packed)
            .shard_size(faults.len())
            .jobs(1)
            .run()
            .unwrap();
        assert_eq!(packed.report, naive.report, "{count} transfer faults");
        assert_eq!(packed.stats, naive.stats, "{count} transfer faults");
        // Every excited effective transfer occupies a lane; words are
        // ceil(lanes/64) because the shard is not split.
        assert_eq!(
            packed.packed.packed_words,
            packed.packed.lanes_active.div_ceil(64),
            "{count} transfer faults in one shard"
        );
    }
}

#[test]
fn dlx_supervised_campaign_is_identical_across_all_three_engines() {
    let (m, faults, tests) = dlx_fixture();
    let naive = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(2)
        .run()
        .expect("no checkpoint: supervision cannot fail");
    let packed = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Packed)
        .jobs(2)
        .run()
        .expect("no checkpoint: supervision cannot fail");
    assert!(naive.is_complete && packed.is_complete);
    assert_eq!(packed.report, naive.report);
    assert_eq!(packed.stats, naive.stats);
    assert!(
        packed.packed.packed_words > 0,
        "DLX has effective transfers"
    );
}
