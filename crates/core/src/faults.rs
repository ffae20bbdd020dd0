//! Fault campaigns: empirical validation of the completeness theorems.
//!
//! A campaign injects single output/transfer errors into a golden machine,
//! simulates a test set on the faulty and golden machines side by side,
//! and records which faults are *detected* (outputs diverge), which are
//! merely *excited* (the faulty transition is traversed but no output
//! difference follows — the Figure 2 escape), and which excursions were
//! *masked* (state divergence that reconverges unobserved).
//!
//! On a test model holding a [`crate::theorems::CompletenessCertificate`],
//! a transition tour extended by `k` vectors must detect **every**
//! effective fault — the testable content of Theorem 3.

use crate::error_model::{detects, excited_at, is_masked_on, Fault, FaultKind};
use simcov_fsm::{ExplicitMealy, InputSym, OutputSym};
use simcov_prng::Prng;
use simcov_tour::TestSet;

/// Which faults to enumerate, and how many.
#[derive(Debug, Clone)]
pub struct FaultSpace {
    /// Inject transfer errors (each redirects one transition).
    pub transfer: bool,
    /// Inject output errors (each relabels one transition's output).
    pub output: bool,
    /// Cap on the number of faults generated (sampled uniformly with
    /// `seed` when the exhaustive space is larger).
    pub max_faults: usize,
    /// RNG seed for sampling (campaigns are deterministic per seed).
    pub seed: u64,
}

impl Default for FaultSpace {
    fn default() -> Self {
        FaultSpace {
            transfer: true,
            output: true,
            max_faults: 10_000,
            seed: 0,
        }
    }
}

/// Enumerates effective single faults of `m` (reachable transitions only).
///
/// Every fault redirects a reachable transition to a *different* reachable
/// state, or relabels it with a *different* existing output symbol. If the
/// exhaustive space exceeds `space.max_faults`, a uniform sample of that
/// size is drawn (deterministically from `space.seed`).
pub fn enumerate_single_faults(m: &ExplicitMealy, space: &FaultSpace) -> Vec<Fault> {
    let reach = m.reachable_states();
    let mut faults = Vec::new();
    let no = m.num_outputs() as u32;
    for &s in &reach {
        for i in m.inputs() {
            let Some((next, out)) = m.step(s, i) else {
                continue;
            };
            if space.transfer {
                for &t in &reach {
                    if t != next {
                        faults.push(Fault {
                            state: s,
                            input: i,
                            kind: FaultKind::Transfer { new_next: t },
                        });
                    }
                }
            }
            if space.output {
                for o in 0..no {
                    if o != out.0 {
                        faults.push(Fault {
                            state: s,
                            input: i,
                            kind: FaultKind::Output {
                                new_output: OutputSym(o),
                            },
                        });
                    }
                }
            }
        }
    }
    if faults.len() > space.max_faults {
        let mut rng = Prng::seed_from_u64(space.seed);
        rng.shuffle(&mut faults);
        faults.truncate(space.max_faults);
    }
    faults
}

/// Samples `count` random effective faults (for quick campaigns on larger
/// models, without materialising the exhaustive space).
pub fn sample_faults(m: &ExplicitMealy, count: usize, seed: u64) -> Vec<Fault> {
    let reach = m.reachable_states();
    let mut rng = Prng::seed_from_u64(seed);
    let mut faults = Vec::with_capacity(count);
    let mut guard = 0;
    while faults.len() < count && guard < count * 100 {
        guard += 1;
        let s = reach[rng.gen_range(0..reach.len())];
        let i = InputSym(rng.gen_range(0..m.num_inputs() as u32));
        let Some((next, out)) = m.step(s, i) else {
            continue;
        };
        let kind = if rng.gen_bool(0.5) {
            let t = reach[rng.gen_range(0..reach.len())];
            if t == next {
                continue;
            }
            FaultKind::Transfer { new_next: t }
        } else {
            if m.num_outputs() < 2 {
                continue;
            }
            let o = OutputSym(rng.gen_range(0..m.num_outputs() as u32));
            if o == out {
                continue;
            }
            FaultKind::Output { new_output: o }
        };
        faults.push(Fault {
            state: s,
            input: i,
            kind,
        });
    }
    faults
}

/// Outcome of one injected fault under one test set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: Fault,
    /// `Some((sequence index, vector index))` of the first detection.
    pub detected: Option<(usize, usize)>,
    /// `true` if some sequence traversed the faulty transition.
    pub excited: bool,
    /// `true` if some sequence showed a masked excursion (diverge /
    /// reconverge with no output difference) — the Definition 4 symptom.
    pub masked_somewhere: bool,
}

/// Aggregate results of a fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-fault outcomes.
    pub outcomes: Vec<FaultOutcome>,
}

impl CampaignReport {
    /// Number of detected faults.
    pub fn num_detected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.detected.is_some())
            .count()
    }

    /// Number of faults excited by the test set (detected or not).
    pub fn num_excited(&self) -> usize {
        self.outcomes.iter().filter(|o| o.excited).count()
    }

    /// Faults excited but never detected — the escapes that motivate the
    /// paper's requirements.
    pub fn escapes(&self) -> impl Iterator<Item = &FaultOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.excited && o.detected.is_none())
    }

    /// Fraction of faults detected in `[0, 1]`.
    pub fn detection_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.num_detected() as f64 / self.outcomes.len() as f64
        }
    }

    /// `true` if every fault was detected — what Theorem 3 promises for a
    /// certified test model under an extended transition tour.
    pub fn complete(&self) -> bool {
        self.outcomes.iter().all(|o| o.detected.is_some())
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} faults detected ({:.1}%), {} excited, {} escapes",
            self.num_detected(),
            self.outcomes.len(),
            100.0 * self.detection_rate(),
            self.num_excited(),
            self.escapes().count()
        )
    }
}

/// Simulates one injected fault against the whole test set — the unit of
/// work the parallel campaign engine shards over. Purely deterministic:
/// the outcome depends only on `(golden, fault, tests)`.
pub fn simulate_fault(golden: &ExplicitMealy, fault: &Fault, tests: &TestSet) -> FaultOutcome {
    let fault = *fault;
    let faulty = fault.inject(golden);
    let mut detected = None;
    let mut excited = false;
    let mut masked_somewhere = false;
    for (si, seq) in tests.sequences.iter().enumerate() {
        if excited_at(&faulty, &fault, seq).is_some() {
            excited = true;
        }
        if detected.is_none() {
            if let Some(vi) = detects(golden, &faulty, seq) {
                detected = Some((si, vi));
            }
        }
        if detected.is_none() && is_masked_on(golden, &faulty, seq) {
            masked_somewhere = true;
        }
    }
    FaultOutcome {
        fault,
        detected,
        excited,
        masked_somewhere,
    }
}

/// Runs a fault campaign: every fault is injected in turn and the whole
/// test set is simulated against the golden machine.
///
/// Runs [`ResilientCampaign`](crate::ResilientCampaign) with the default
/// engine and an automatic job count; results are bit-identical to a
/// serial run (see the module docs of [`crate::parallel`]). Use
/// [`ResilientCampaign`](crate::ResilientCampaign) directly to choose the
/// engine or worker count, or to read the per-campaign counters.
///
/// # Panics
///
/// Panics if a shard panics on every retry.
pub fn run_campaign(golden: &ExplicitMealy, faults: &[Fault], tests: &TestSet) -> CampaignReport {
    crate::ResilientCampaign::new(golden, faults, tests)
        .run_complete()
        .report
}

/// Extends a tour cyclically by `k` vectors: a transition tour is a
/// circuit back to the reset state, so replaying its inputs from the start
/// is a valid continuation — giving every error excited near the end of
/// the tour its `k`-step exposure window (Theorem 1's "the simulator must
/// also know how long to simulate").
///
/// The extension *wraps*: with `k` greater than the tour length the tour
/// is replayed as many whole times as needed (`extend_cyclically(&[a, b],
/// 5)` is `[a, b, a, b, a, b, a]`), so large exposure windows — e.g. a
/// certificate's `k` on a very short tour — are honoured rather than
/// silently capped at one extra lap. An empty tour stays empty for any
/// `k` (there is nothing to replay).
pub fn extend_cyclically(tour: &[InputSym], k: usize) -> Vec<InputSym> {
    let mut v = tour.to_vec();
    v.extend(tour.iter().cycle().take(k).copied());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure2;
    use simcov_tour::{transition_tour, TestSet};

    #[test]
    fn enumerate_counts() {
        let (m, _) = figure2();
        let space = FaultSpace {
            transfer: true,
            output: false,
            max_faults: usize::MAX,
            seed: 0,
        };
        let faults = enumerate_single_faults(&m, &space);
        // Each of the 21 transitions × 6 wrong destinations.
        assert_eq!(faults.len(), 21 * 6);
        let space = FaultSpace {
            transfer: false,
            output: true,
            max_faults: usize::MAX,
            seed: 0,
        };
        let faults = enumerate_single_faults(&m, &space);
        // Each transition × 5 wrong outputs (6 output symbols total).
        assert_eq!(faults.len(), 21 * 5);
    }

    #[test]
    fn sampling_cap_and_determinism() {
        let (m, _) = figure2();
        let space = FaultSpace {
            transfer: true,
            output: true,
            max_faults: 10,
            seed: 7,
        };
        let f1 = enumerate_single_faults(&m, &space);
        let f2 = enumerate_single_faults(&m, &space);
        assert_eq!(f1.len(), 10);
        assert_eq!(f1, f2);
        let s1 = sample_faults(&m, 5, 3);
        let s2 = sample_faults(&m, 5, 3);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 5);
        for f in &s1 {
            assert!(f.is_effective(&m));
        }
    }

    #[test]
    fn campaign_on_figure2_tour_may_miss_transfer_error() {
        // The point of Figure 2: a transition tour exists that excites the
        // 2 -a-> 3' transfer error but does not expose it. Conversely some
        // tours do expose it. We simply check the campaign machinery
        // reports excitation/detection coherently for the canonical fault.
        let (m, fault) = figure2();
        let tour = transition_tour(&m).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 3));
        let report = run_campaign(&m, &[fault], &tests);
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].excited);
        // Whether detected depends on the tour's path choice; both are
        // legal. If undetected, it must be a masked escape.
        if report.outcomes[0].detected.is_none() {
            assert!(report.outcomes[0].masked_somewhere);
        }
    }

    #[test]
    fn detection_rate_and_display() {
        let (m, fault) = figure2();
        let a = m.input_by_label("a").unwrap();
        let b = m.input_by_label("b").unwrap();
        // Sequence <a,a,b> definitely detects the canonical fault.
        let tests = TestSet::single(vec![a, a, b]);
        let report = run_campaign(&m, &[fault], &tests);
        assert!(report.complete());
        assert_eq!(report.num_detected(), 1);
        assert!((report.detection_rate() - 1.0).abs() < 1e-12);
        assert!(report.to_string().contains("1/1"));
        assert_eq!(report.escapes().count(), 0);
    }

    #[test]
    fn extend_cyclically_wraps() {
        let (m, _) = figure2();
        let a = m.input_by_label("a").unwrap();
        let b = m.input_by_label("b").unwrap();
        let ext = extend_cyclically(&[a, b], 1);
        assert_eq!(ext, vec![a, b, a]);
        let ext = extend_cyclically(&[a, b], 2);
        assert_eq!(ext, vec![a, b, a, b]);
    }

    #[test]
    fn extend_cyclically_handles_k_at_or_beyond_tour_length() {
        // Regression: `take(k)` used to cap the extension at one lap, so
        // k > len under-extended the exposure window.
        let (m, _) = figure2();
        let a = m.input_by_label("a").unwrap();
        let b = m.input_by_label("b").unwrap();
        let ext = extend_cyclically(&[a, b], 5);
        assert_eq!(ext, vec![a, b, a, b, a, b, a]);
        // k exactly equal to the tour length replays it once in full.
        let ext = extend_cyclically(&[a, b], 2);
        assert_eq!(ext, vec![a, b, a, b]);
        // Single-input tours wrap too.
        let ext = extend_cyclically(&[b], 3);
        assert_eq!(ext, vec![b, b, b, b]);
        // An empty tour has nothing to replay.
        assert!(extend_cyclically(&[], 4).is_empty());
    }
}
