//! Differential fault simulation: golden-trace memoization, excitation
//! indexing, and suffix-only replay.
//!
//! The naive engine ([`simulate_fault`](crate::faults::simulate_fault))
//! clones the whole transition table per fault and replays the golden and
//! faulty machines side by side over every sequence. But a *single* fault
//! changes exactly one transition, so the faulty trajectory coincides with
//! the golden one **strictly until the faulted transition is first
//! traversed** — the fault-domain observation behind classic conformance
//! testing engines. This module exploits that structure in three layers:
//!
//! 1. [`GoldenTrace`] memoizes one golden simulation of the whole test
//!    set — per-sequence state/output trajectories plus an **excitation
//!    index** mapping each `(state, input)` cell to the positions where
//!    the golden run traverses it. Built once per campaign and shared
//!    read-only across all shards.
//! 2. [`simulate_fault_differential`] classifies each fault against the
//!    memo: a fault whose cell never appears in the index is provably not
//!    excited, not detected and not masked — tallied in O(1) with zero
//!    simulation. An effective output error is classified entirely from
//!    the index (it never perturbs the state trajectory). Only effective
//!    transfer errors are simulated, and only from their first divergence
//!    point, comparing against the memoized golden outputs. The packed
//!    engine ([`crate::packed`]) shares this trace and this classification
//!    and differs only in how it runs those replays.
//! 3. Replay uses the zero-clone overlay
//!    [`Fault::patch`](crate::error_model::Fault::patch) builds instead
//!    of [`Fault::inject`](crate::error_model::Fault::inject)'s full
//!    table clone.
//! 4. A replay replays only the excursion. Once the faulty run rejoins
//!    the golden state trajectory (a masked transfer error, the paper's
//!    Def 4), the two runs coincide until the next golden traversal of
//!    the faulted cell, so the replay jumps straight there, or ends the
//!    sequence masked when it has none. Both replay loops find that
//!    traversal with one cursor helper over the excitation index,
//!    `next_excitation`.
//!
//! The result is **bit-identical** to the naive engine — same
//! [`FaultOutcome`]s, hence same merged
//! [`CampaignStats`](crate::parallel::CampaignStats) — which DESIGN.md
//! §11 proves and the property tests plus the CI equivalence gate
//! enforce. [`DiffStats`] counts the work the short-cuts avoided and is
//! surfaced through the `campaign.faults_skipped_by_index`,
//! `campaign.prefix_steps_saved`, `campaign.divergence_replays` and
//! `campaign.reconverged_steps_skipped` telemetry counters (see
//! [`simcov_obs::names`]).

use crate::error_model::{Fault, FaultKind};
use crate::faults::FaultOutcome;
use simcov_fsm::{ExplicitMealy, InputSym, OutputSym, StateId};
use simcov_tour::TestSet;

/// Which fault-simulation engine a campaign runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The clone-and-replay reference implementation
    /// ([`simulate_fault`](crate::faults::simulate_fault)): every fault
    /// clones the machine and replays golden + faulty over the full test
    /// set. Kept as the differential engine's cross-check oracle.
    Naive,
    /// Golden-trace memoization with excitation indexing and zero-clone
    /// suffix replay ([`simulate_fault_differential`]). Produces
    /// bit-identical outcomes to [`Engine::Naive`].
    #[default]
    Differential,
    /// Bit-parallel word packing over the differential engine's replay
    /// structure ([`crate::packed::simulate_shard_packed`]): up to 64
    /// effective transfer faults per shard share one lane-parallel suffix
    /// replay over struct-of-arrays tables
    /// ([`simcov_fsm::PackedMealy`]). Produces bit-identical outcomes to
    /// both scalar engines.
    Packed,
    /// The implicit campaign over BDDs
    /// ([`crate::symbolic::run_implicit_campaign`]), at every model
    /// width: no fault list and no test set, but the single-bit-flip
    /// fault families of every reachable cell, with transfer flips judged
    /// by Theorem 1's `k`-step detection. Its report is not the explicit
    /// engines' report; [`crate::ResilientCampaign`] refuses it with
    /// [`crate::CampaignError::ImplicitEngine`].
    Symbolic,
}

impl Engine {
    /// Stable lower-case name (`naive` / `differential` / `packed` /
    /// `symbolic`), used by the CLI `--engine` flag and its output.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Differential => "differential",
            Engine::Packed => "packed",
            Engine::Symbolic => "symbolic",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    /// Parses an [`Engine::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            Engine::Naive,
            Engine::Differential,
            Engine::Packed,
            Engine::Symbolic,
        ]
        .into_iter()
        .find(|e| e.name() == s)
        .ok_or_else(|| format!("unknown engine `{s}` (naive|differential|packed|symbolic)"))
    }
}

/// Deterministic counters for the work the differential engine avoided.
///
/// Kept separate from [`CampaignStats`](crate::parallel::CampaignStats)
/// (whose layout is part of the checkpoint-journal and trace surface):
/// these describe the *engine's effort*, not the campaign's findings, and
/// are all zero under [`Engine::Naive`]. Each counter is a pure function
/// of `(golden, faults, tests)`, so merged totals are identical across
/// thread counts and shard schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Faults classified with zero simulation because their transition
    /// never appears in the excitation index (not excited, not detected,
    /// not masked — see DESIGN.md §11, Lemma 1).
    pub faults_skipped_by_index: usize,
    /// Golden-trace vectors whose faulty-machine execution was skipped:
    /// the shared prefix before each first divergence, whole sequences
    /// that never excite the fault, and the entire test set for faults
    /// classified purely from the index.
    pub prefix_steps_saved: usize,
    /// Suffix replays performed — one per `(fault, sequence)` pair that
    /// was actually re-simulated from its first divergence point.
    pub divergence_replays: usize,
    /// Golden-trace vectors a replay skipped after reconverging with the
    /// golden run (DESIGN.md §11, Lemma 4): `q − p` for a reconvergence at
    /// `p` that jumps to the next excitation `q`, and `gl − p` for one
    /// that ends its sequence because no excitation follows.
    pub reconverged_steps_skipped: usize,
}

impl DiffStats {
    /// Component-wise sum: commutative and associative, so any merge
    /// tree over the same shard set yields the same totals.
    pub fn merge(&mut self, other: &DiffStats) {
        self.faults_skipped_by_index += other.faults_skipped_by_index;
        self.prefix_steps_saved += other.prefix_steps_saved;
        self.divergence_replays += other.divergence_replays;
        self.reconverged_steps_skipped += other.reconverged_steps_skipped;
    }
}

/// One golden simulation of a whole test set, memoized: per-sequence
/// state/output trajectories plus the excitation index. Built once per
/// campaign ([`GoldenTrace::build`]) and shared read-only across shards.
///
/// ```
/// use simcov_core::differential::GoldenTrace;
/// use simcov_core::models::figure2;
/// use simcov_tour::TestSet;
///
/// let (m, fault) = figure2();
/// let a = m.input_by_label("a").unwrap();
/// let tests = TestSet::single(vec![a, a, a]);
/// let trace = GoldenTrace::build(&m, &tests);
/// // The canonical Figure 2 fault sits on (state 2, input a), first
/// // traversed at position 1 of the only sequence.
/// assert_eq!(trace.excitations(fault.state, fault.input), &[(0, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    /// Per-sequence visited states (`len + 1` entries each, truncated at
    /// the first undefined transition) — mirrors [`ExplicitMealy::run`].
    states: Vec<Vec<StateId>>,
    /// Per-sequence emitted outputs (`len` entries each, truncated).
    outputs: Vec<Vec<OutputSym>>,
    /// CSR excitation index: cell `c = s * num_inputs + i` owns
    /// `index_entries[index_offsets[c]..index_offsets[c + 1]]`, the
    /// positions `(sequence, vector)` where the golden run traverses the
    /// transition `(s, i)`, in ascending `(sequence, vector)` order. Two
    /// flat arrays instead of one `Vec` per cell: a 10^4-state machine
    /// has ~10^4·|I| cells, and per-cell vectors cost one heap
    /// allocation per *touched* cell — the dominant cost of trace
    /// construction on large machines.
    index_offsets: Vec<u32>,
    index_entries: Vec<(u32, u32)>,
    /// Input-alphabet size of the machine the index is keyed by.
    num_inputs: usize,
    /// Total golden vectors simulated (sum of output lengths).
    total_steps: usize,
}

/// Builds the CSR excitation index by stable counting sort. `cells`
/// holds the traversed cell of every golden step in ascending
/// `(sequence, vector)` order; each sequence contributed exactly
/// `outputs[si].len()` entries (one per emitted output).
fn csr_index(
    ncells: usize,
    outputs: &[Vec<OutputSym>],
    cells: &[u32],
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut offsets = vec![0u32; ncells + 1];
    for &c in cells {
        offsets[c as usize + 1] += 1;
    }
    for i in 0..ncells {
        offsets[i + 1] += offsets[i];
    }
    // Scatter with a per-cell cursor; the ascending input order makes
    // the sort stable, so each cell's entries stay ascending too.
    let mut cursor: Vec<u32> = offsets[..ncells].to_vec();
    let mut entries = vec![(0u32, 0u32); cells.len()];
    let mut k = 0usize;
    for (si, out) in outputs.iter().enumerate() {
        for vi in 0..out.len() {
            let c = cells[k] as usize;
            k += 1;
            entries[cursor[c] as usize] = (si as u32, vi as u32);
            cursor[c] += 1;
        }
    }
    debug_assert_eq!(k, cells.len());
    (offsets, entries)
}

impl GoldenTrace {
    /// Simulates `golden` once over every sequence of `tests`, recording
    /// trajectories and the excitation index.
    pub fn build(golden: &ExplicitMealy, tests: &TestSet) -> GoldenTrace {
        let ni = golden.num_inputs();
        let mut states = Vec::with_capacity(tests.sequences.len());
        let mut outputs = Vec::with_capacity(tests.sequences.len());
        let mut cells: Vec<u32> = Vec::new();
        let mut total_steps = 0usize;
        for seq in &tests.sequences {
            let mut st = Vec::with_capacity(seq.len() + 1);
            let mut out = Vec::with_capacity(seq.len());
            let mut cur = golden.reset();
            st.push(cur);
            for &i in seq.iter() {
                let Some((n, o)) = golden.step(cur, i) else {
                    break;
                };
                cells.push((cur.index() * ni + i.index()) as u32);
                st.push(n);
                out.push(o);
                cur = n;
            }
            total_steps += out.len();
            states.push(st);
            outputs.push(out);
        }
        let (index_offsets, index_entries) = csr_index(golden.num_states() * ni, &outputs, &cells);
        GoldenTrace {
            states,
            outputs,
            index_offsets,
            index_entries,
            num_inputs: ni,
            total_steps,
        }
    }

    /// Positions `(sequence, vector)` where the golden run traverses the
    /// transition `(state, input)`, ascending. Empty iff no sequence ever
    /// excites a fault on that transition.
    pub fn excitations(&self, state: StateId, input: InputSym) -> &[(u32, u32)] {
        let c = state.index() * self.num_inputs + input.index();
        &self.index_entries[self.index_offsets[c] as usize..self.index_offsets[c + 1] as usize]
    }

    /// Number of memoized sequences (= the test set's sequence count).
    pub fn num_sequences(&self) -> usize {
        self.states.len()
    }

    /// Memoized golden state trajectory of sequence `si`: `len + 1`
    /// entries starting at reset, truncated at the first undefined
    /// transition — mirrors [`ExplicitMealy::run`].
    pub fn seq_states(&self, si: usize) -> &[StateId] {
        &self.states[si]
    }

    /// Memoized golden outputs of sequence `si` (`len` entries,
    /// truncated).
    pub fn seq_outputs(&self, si: usize) -> &[OutputSym] {
        &self.outputs[si]
    }

    /// Total golden vectors simulated across the test set.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }
}

/// What the excitation index alone decides about one fault.
pub(crate) enum Classified<'t> {
    /// The outcome needs no simulation: the fault is never excited, is an
    /// output error, or is a transfer that leaves the machine unchanged.
    Final(FaultOutcome),
    /// An effective transfer error, to be replayed from its first
    /// excitation in each sequence.
    Replay {
        /// Ascending `(sequence, vector)` excitations; never empty.
        entries: &'t [(u32, u32)],
        /// The redirected next state.
        new_next: StateId,
        /// The golden output of the faulted transition, which the faulty
        /// machine still emits there.
        out: OutputSym,
    },
}

/// The index fast paths of DESIGN.md §11 (Lemmas 1–2), shared by the
/// differential and packed engines: decides `fault` from the excitation
/// index when it can, adding the avoided work to `stats`, and otherwise
/// returns what its replay needs. Only effective transfer errors reach a
/// replay in either engine.
///
/// # Panics
///
/// Panics if the fault's transition is undefined in `golden`.
#[inline]
pub(crate) fn classify<'t>(
    golden: &ExplicitMealy,
    trace: &'t GoldenTrace,
    fault: &Fault,
    stats: &mut DiffStats,
) -> Classified<'t> {
    let fault = *fault;
    let (orig_next, orig_out) = golden
        .step(fault.state, fault.input)
        .expect("transition must be defined to be faulted");
    let entries = trace.excitations(fault.state, fault.input);
    let decided = |detected: Option<(usize, usize)>, excited: bool| {
        Classified::Final(FaultOutcome {
            fault,
            detected,
            excited,
            masked_somewhere: false,
        })
    };
    // Lemma 1: the faulty trajectory coincides with the golden one until
    // the faulted transition is first traversed, and the first traversal
    // position of the faulty machine equals the first golden-trace
    // traversal of the same cell. An empty index therefore proves the
    // fault is never excited, so golden and faulty runs are identical on
    // every sequence: not detected (equal outputs, equal truncation) and
    // not masked (states never diverge).
    if entries.is_empty() {
        stats.faults_skipped_by_index += 1;
        return decided(None, false);
    }
    match fault.kind {
        // An output error never perturbs the state trajectory, so the
        // faulty run visits exactly the golden states and differs only in
        // the output emitted at each indexed traversal. Detection is the
        // globally first traversal iff the relabeling is effective; the
        // states never diverge, so masking is impossible (Lemma 2).
        FaultKind::Output { new_output } => {
            stats.prefix_steps_saved += trace.total_steps;
            let first = (entries[0].0 as usize, entries[0].1 as usize);
            decided((new_output != orig_out).then_some(first), true)
        }
        // An ineffective redirection leaves the machine unchanged:
        // excited (the cell is traversed) but nothing to observe.
        FaultKind::Transfer { new_next } if new_next == orig_next => {
            stats.prefix_steps_saved += trace.total_steps;
            decided(None, true)
        }
        FaultKind::Transfer { new_next } => Classified::Replay {
            entries,
            new_next,
            out: orig_out,
        },
    }
}

/// The next golden traversal of a fault's cell at or after vector `p` of
/// sequence `si`. `entries` is the cell's ascending excitation index and
/// `ei` a cursor into it: the cursor moves past every entry before
/// `(si, p)` and never backwards, so all of one fault's lookups scan its
/// entries once in total. `p = 0` finds a sequence's first excitation.
#[inline]
pub(crate) fn next_excitation(
    entries: &[(u32, u32)],
    ei: &mut usize,
    si: usize,
    p: usize,
) -> Option<usize> {
    let at = (si as u32, p as u32);
    while *ei < entries.len() && entries[*ei] < at {
        *ei += 1;
    }
    match entries.get(*ei) {
        Some(&(s, q)) if s as usize == si => Some(q as usize),
        _ => None,
    }
}

/// Classifies one fault against a [`GoldenTrace`], producing the same
/// [`FaultOutcome`] as [`simulate_fault`](crate::faults::simulate_fault)
/// — bit for bit — while skipping all work the single-fault structure
/// makes redundant. `stats` accumulates the [`DiffStats`] counters.
///
/// # Panics
///
/// Panics if the fault's transition is undefined in `golden` (matching
/// [`Fault::inject`](crate::error_model::Fault::inject)'s contract), or
/// if `trace` was built for a different `(golden, tests)` pair.
pub fn simulate_fault_differential(
    golden: &ExplicitMealy,
    trace: &GoldenTrace,
    fault: &Fault,
    tests: &TestSet,
    stats: &mut DiffStats,
) -> FaultOutcome {
    assert_eq!(
        trace.states.len(),
        tests.sequences.len(),
        "golden trace must memoize exactly this test set"
    );
    let (entries, new_next, out) = match classify(golden, trace, fault, stats) {
        Classified::Final(outcome) => return outcome,
        Classified::Replay {
            entries,
            new_next,
            out,
        } => (entries, new_next, out),
    };
    let patched = golden.patched(fault.state, fault.input, new_next, out);
    let mut detected = None;
    let mut masked_somewhere = false;
    // `entries` is ascending in (sequence, vector); one forward cursor
    // finds each sequence's first excitation and every later one.
    let mut ei = 0usize;
    for (si, seq) in tests.sequences.iter().enumerate() {
        let go = &trace.outputs[si];
        let gs = &trace.states[si];
        let gl = go.len();
        let Some(e) = next_excitation(entries, &mut ei, si, 0) else {
            // No excitation on this sequence: the faulty run is the
            // golden run — nothing detected, nothing masked.
            stats.prefix_steps_saved += gl;
            continue;
        };
        // Replay only the suffix. Up to and including position e the
        // trajectories agree (the transfer emits the golden output at e);
        // the faulty machine then sits in `new_next` at position e + 1
        // while the golden trace has gs[e + 1], a different state: the
        // replay starts diverged.
        stats.prefix_steps_saved += e + 1;
        stats.divergence_replays += 1;
        let mut f_cur = new_next;
        let mut seq_detect = None;
        let mut seq_masked = false;
        let mut p = e + 1;
        debug_assert_ne!(gs[p], f_cur, "an effective transfer diverges");
        // Loop invariant: the faulty machine has emitted p outputs (all
        // equal to go[..p]) and sits in f_cur, with p <= gl (we break the
        // moment the faulty run outlives the golden one).
        loop {
            // Masking state-comparison at position p, mirroring
            // `is_masked_on`'s diverge-then-reconverge scan: the replay
            // starts diverged, so equal states mean it reconverged. The
            // output comparisons that scan interleaves are redundant
            // here: the masked flag is only consulted when the sequence
            // detects nothing, i.e. when no output difference exists at
            // all (§11, Lemma 3).
            if gs[p] == f_cur {
                seq_masked = true;
                // Lemma 4: the runs now coincide until the golden run
                // next traverses the faulted cell. Jump there, or end the
                // sequence undetected if it never does.
                let Some(q) = next_excitation(entries, &mut ei, si, p) else {
                    stats.reconverged_steps_skipped += gl - p;
                    break;
                };
                stats.reconverged_steps_skipped += q - p;
                p = q;
                f_cur = gs[q];
            }
            if p >= seq.len() {
                break; // Both runs consumed the whole sequence.
            }
            match patched.step_patched(f_cur, seq[p]) {
                None => {
                    // Faulty truncates with p outputs. Truncation
                    // asymmetry detects at the common length.
                    if gl > p {
                        seq_detect = Some(p);
                    }
                    break;
                }
                Some((nxt, out)) => {
                    if p >= gl {
                        // Golden truncated at gl = p but the faulty
                        // machine stepped on: asymmetry detects at the
                        // common length gl.
                        seq_detect = Some(p);
                        break;
                    }
                    if out != go[p] {
                        seq_detect = Some(p);
                        break;
                    }
                    f_cur = nxt;
                    p += 1;
                }
            }
        }
        if let Some(vi) = seq_detect {
            // First detecting sequence: later sequences can no longer
            // change any field of the outcome (excitation is already
            // known from the index, and the naive engine neither
            // re-detects nor masks past this point).
            detected = Some((si, vi));
            break;
        }
        masked_somewhere |= seq_masked;
    }
    FaultOutcome {
        fault: *fault,
        detected,
        excited: true,
        masked_somewhere,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_single_faults, extend_cyclically, simulate_fault, FaultSpace};
    use crate::testutil::figure2;
    use simcov_fsm::MealyBuilder;
    use simcov_tour::transition_tour;

    fn assert_equivalent(golden: &ExplicitMealy, faults: &[Fault], tests: &TestSet) {
        let trace = GoldenTrace::build(golden, tests);
        let mut diff = DiffStats::default();
        for f in faults {
            let naive = simulate_fault(golden, f, tests);
            let differential = simulate_fault_differential(golden, &trace, f, tests, &mut diff);
            assert_eq!(differential, naive, "fault {f} under {tests:?}");
        }
    }

    #[test]
    fn figure2_all_faults_all_tours_bit_identical() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        let tour = transition_tour(&m).unwrap();
        for k in [0, 1, 3, 7] {
            let tests = TestSet::single(extend_cyclically(&tour.inputs, k));
            assert_equivalent(&m, &faults, &tests);
        }
    }

    #[test]
    fn multi_sequence_sets_bit_identical() {
        let (m, _) = figure2();
        let a = m.input_by_label("a").unwrap();
        let b = m.input_by_label("b").unwrap();
        let c = m.input_by_label("c").unwrap();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        // Short sequences exercise cross-sequence detection ordering,
        // per-sequence excitation skips, and empty sequences.
        let tests = TestSet {
            sequences: vec![
                vec![c, c],
                vec![],
                vec![a, a, c],
                vec![a, a, b],
                vec![b, a, b, c, a],
            ],
        };
        assert_equivalent(&m, &faults, &tests);
    }

    #[test]
    fn partial_machines_bit_identical() {
        // A partial machine exercises golden truncation, faulty-only
        // truncation (a transfer redirects into a state where the next
        // input is undefined) and truncation-asymmetry detection.
        let mut bld = MealyBuilder::new();
        let s: Vec<_> = (0..4).map(|i| bld.add_state(format!("s{i}"))).collect();
        let x = bld.add_input("x");
        let y = bld.add_input("y");
        let o0 = bld.add_output("o0");
        let o1 = bld.add_output("o1");
        bld.add_transition(s[0], x, s[1], o0);
        bld.add_transition(s[0], y, s[2], o1);
        bld.add_transition(s[1], x, s[2], o0);
        bld.add_transition(s[1], y, s[0], o0);
        bld.add_transition(s[2], x, s[3], o1);
        // (s2, y), (s3, x), (s3, y) undefined.
        let m = bld.build(s[0]).unwrap();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        assert!(!faults.is_empty());
        let tests = TestSet {
            sequences: vec![
                vec![x, x, x, x],
                vec![x, y, x, y, x],
                vec![y, x, x],
                vec![x, y, y, x],
            ],
        };
        assert_equivalent(&m, &faults, &tests);
    }

    #[test]
    fn ineffective_faults_bit_identical() {
        let (m, fault) = figure2();
        let (next, out) = m.step(fault.state, fault.input).unwrap();
        let tour = transition_tour(&m).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
        let noop_transfer = Fault {
            kind: FaultKind::Transfer { new_next: next },
            ..fault
        };
        let noop_output = Fault {
            kind: FaultKind::Output { new_output: out },
            ..fault
        };
        assert_equivalent(&m, &[noop_transfer, noop_output], &tests);
        // Both are excited (the tour traverses every transition) but
        // observationally silent.
        let trace = GoldenTrace::build(&m, &tests);
        let mut diff = DiffStats::default();
        let o = simulate_fault_differential(&m, &trace, &noop_transfer, &tests, &mut diff);
        assert!(o.excited && o.detected.is_none() && !o.masked_somewhere);
    }

    #[test]
    fn unexcited_faults_skip_with_zero_simulation() {
        let (m, fault) = figure2();
        let a = m.input_by_label("a").unwrap();
        // A 1-vector test set cannot reach state 2, so the canonical
        // fault is never excited.
        let tests = TestSet::single(vec![a]);
        let trace = GoldenTrace::build(&m, &tests);
        let mut diff = DiffStats::default();
        let o = simulate_fault_differential(&m, &trace, &fault, &tests, &mut diff);
        assert_eq!(o, simulate_fault(&m, &fault, &tests));
        assert!(!o.excited);
        assert_eq!(diff.faults_skipped_by_index, 1);
        assert_eq!(diff.divergence_replays, 0);
        assert_eq!(diff.prefix_steps_saved, 0);
    }

    #[test]
    fn diff_stats_account_for_the_avoided_work() {
        let (m, fault) = figure2();
        let tour = transition_tour(&m).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 3));
        let trace = GoldenTrace::build(&m, &tests);
        let mut diff = DiffStats::default();
        let _ = simulate_fault_differential(&m, &trace, &fault, &tests, &mut diff);
        // The canonical transfer fault is excited by the tour: exactly
        // one suffix replay, with the shared prefix skipped.
        assert_eq!(diff.divergence_replays, 1);
        assert!(diff.prefix_steps_saved > 0);
        assert_eq!(diff.faults_skipped_by_index, 0);
        // Output faults are classified purely from the index: the whole
        // golden trace is "saved" and no replay happens.
        let of = Fault {
            kind: FaultKind::Output {
                new_output: OutputSym(0),
            },
            ..fault
        };
        let mut diff = DiffStats::default();
        let _ = simulate_fault_differential(&m, &trace, &of, &tests, &mut diff);
        assert_eq!(diff.divergence_replays, 0);
        assert_eq!(diff.prefix_steps_saved, trace.total_steps());
    }

    #[test]
    fn diff_stats_merge_is_commutative() {
        let a = DiffStats {
            faults_skipped_by_index: 3,
            prefix_steps_saved: 100,
            divergence_replays: 7,
            reconverged_steps_skipped: 40,
        };
        let b = DiffStats {
            faults_skipped_by_index: 1,
            prefix_steps_saved: 9,
            divergence_replays: 2,
            reconverged_steps_skipped: 5,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.faults_skipped_by_index, 4);
        assert_eq!(ab.prefix_steps_saved, 109);
        assert_eq!(ab.divergence_replays, 9);
        assert_eq!(ab.reconverged_steps_skipped, 45);
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(Engine::Naive.name(), "naive");
        assert_eq!(Engine::Differential.to_string(), "differential");
        assert_eq!(Engine::Packed.name(), "packed");
        assert_eq!(Engine::default(), Engine::Differential);
    }

    #[test]
    fn engine_names_parse_back() {
        for e in [
            Engine::Naive,
            Engine::Differential,
            Engine::Packed,
            Engine::Symbolic,
        ] {
            assert_eq!(e.name().parse(), Ok(e));
        }
        let err = "warp".parse::<Engine>().unwrap_err();
        assert!(err.contains("unknown engine `warp`"), "{err}");
    }
}
