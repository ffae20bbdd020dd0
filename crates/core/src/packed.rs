//! Bit-parallel (word-packed) fault simulation: up to 64 suffix replays
//! advanced lane-parallel over word-packed transition tables.
//!
//! The packed engine shares everything with the differential engine
//! ([`crate::differential`]) except the replays: the same
//! [`GoldenTrace`], built by [`GoldenTrace::build`], and the same index
//! fast paths (unexcited skip, index-only output classification,
//! ineffective transfer), run in fault order. What remains is each
//! effective transfer fault's divergence replay, a *serial pointer
//! chase*: every table lookup depends on the state the previous lookup
//! produced, so on a model whose table outgrows L1 a scalar replay is
//! latency-bound, not compute-bound. This module lowers only those
//! replays:
//!
//! 1. Effective transfer faults enter the `LanePool` in fault order; it
//!    keeps up to [`LANES`] of them in flight.
//! 2. The pool replays its live lanes together, one micro-step per lane
//!    per round, over the [`PackedMealy`] tables (through its narrow
//!    32-bit records when the machine's id ranges allow them), against
//!    a [`ReplayScript`] of the golden run, and refills a slot the moment
//!    its lane retires. Each lane carries its own [`LanePatch`] (the
//!    packed `PatchedMealy`), its own excitation cursor and its own
//!    masking scan, so the 64 mutants stay fully independent — but their
//!    table loads are issued back-to-back with no data dependency,
//!    letting the memory system overlap the cache misses a scalar replay
//!    would serialise.
//!
//! Per lane, the replay mirrors [`crate::simulate_fault_differential`]'s loop
//! **exactly** — same masking comparison at each position, same
//! truncation-asymmetry detection, same first-detecting-sequence cut-off,
//! same [`DiffStats`] accounting — so outcomes and effort counters are
//! bit-identical to both scalar engines (DESIGN.md §12 gives the
//! argument; the three-way equivalence tests and the CI gate enforce it).
//! That includes the scalar loop's reconvergence jump: a lane whose
//! faulty state rejoins the golden run leaves the fast tier, and the
//! exception tier moves it to the next golden traversal of its faulted
//! cell, or ends its sequence so the slot refills (DESIGN.md §11,
//! Lemma 4).
//! [`PackedStats`] additionally counts the words formed and the lanes
//! they carried, surfaced as the `campaign.packed_words` and
//! `campaign.lanes_active` telemetry counters.

use crate::differential::{classify, next_excitation, Classified, DiffStats, GoldenTrace};
use crate::error_model::Fault;
use crate::faults::FaultOutcome;
use simcov_fsm::{
    ExplicitMealy, LanePatch, PackedMealy, LANES, UNDEFINED_NARROW, UNDEFINED_RECORD,
};
use simcov_tour::TestSet;

/// A replay's view of the gather table: `load` returns the wide fused
/// record for a cell. The narrow view gathers half the bytes per
/// lane-step and widens in registers — same values, fewer random cache
/// lines — so the replay loop is written once against this trait and
/// monomorphised per table width.
trait GatherTable: Copy {
    fn load(&self, cell: usize) -> u64;
}

#[derive(Clone, Copy)]
struct WideGather<'a>(&'a PackedMealy);

impl GatherTable for WideGather<'_> {
    #[inline]
    fn load(&self, cell: usize) -> u64 {
        self.0.raw_record(cell)
    }
}

#[derive(Clone, Copy)]
struct NarrowGather<'a> {
    table: &'a [u32],
    shift: u32,
    mask: u32,
}

impl GatherTable for NarrowGather<'_> {
    #[inline]
    fn load(&self, cell: usize) -> u64 {
        let v = self.table[cell];
        if v == UNDEFINED_NARROW {
            UNDEFINED_RECORD
        } else {
            u64::from(v >> self.shift) << 32 | u64::from(v & self.mask)
        }
    }
}

/// Deterministic counters for the packed engine's batching effort: how
/// many words were formed and how many lanes they carried. Like
/// [`DiffStats`], a pure function of `(golden, faults, tests, shard
/// partition)`, so merged totals are identical across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedStats {
    /// Fault words replayed (each covers up to [`LANES`] faults).
    pub packed_words: usize,
    /// Lanes occupied across all words (= effective transfer faults that
    /// went through a packed replay). `lanes_active / packed_words` is
    /// the mean word occupancy.
    pub lanes_active: usize,
}

impl PackedStats {
    /// Component-wise sum: commutative and associative, so any merge
    /// tree over the same shard set yields the same totals.
    pub fn merge(&mut self, other: &PackedStats) {
        self.packed_words += other.packed_words;
        self.lanes_active += other.lanes_active;
    }
}

/// One position of a [`ReplayScript`]: the golden state *before* step
/// `p`, the input applied at `p` and the golden output of step `p`,
/// fused into a single 12-byte record. A replaying lane reads exactly
/// one sequential stream besides its transition-table gathers — instead
/// of three parallel streams (states, inputs, outputs) per lane, which
/// at 64 lanes overwhelms the hardware stream prefetchers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ScriptCell {
    gs: u32,
    inp: u32,
    go: u32,
}

/// The golden run lowered for lane replay: per test sequence, a dense
/// `ScriptCell` array over the golden run's positions `0..=gl` (where
/// `gl` is the golden output count — shorter than the sequence when the
/// golden run truncates on an undefined transition). The terminator
/// cell at `gl` carries the final golden state plus the input at `gl`
/// when the sequence goes on (the faulty run may step where the golden
/// run truncated); its `go` field is unused. A pure re-encoding of
/// ([`GoldenTrace`], [`TestSet`]), built once per campaign and shared
/// read-only across shards.
pub struct ReplayScript {
    per_seq: Vec<Vec<ScriptCell>>,
    seq_lens: Vec<u32>,
}

impl ReplayScript {
    /// Lowers the memoized golden run for packed replay. `trace` must
    /// have been built for exactly `tests`.
    pub fn build(trace: &GoldenTrace, tests: &TestSet) -> ReplayScript {
        let per_seq = (0..tests.sequences.len())
            .map(|si| {
                let gs = trace.seq_states(si);
                let go = trace.seq_outputs(si);
                let seq = &tests.sequences[si];
                let gl = go.len();
                (0..=gl)
                    .map(|p| ScriptCell {
                        gs: gs[p].0,
                        inp: seq.get(p).map_or(0, |i| i.0),
                        go: go.get(p).map_or(0, |o| o.0),
                    })
                    .collect()
            })
            .collect();
        let seq_lens = tests.sequences.iter().map(|s| s.len() as u32).collect();
        ReplayScript { per_seq, seq_lens }
    }
}

/// The suffix a lane replays next: position `p` in sequence `si`, the
/// redirected state to start from, and the sequence's script slice,
/// resolved once per sequence so the round loops never touch the
/// `Vec<Vec<_>>` indirection per lane-step.
struct Suffix<'t> {
    p: usize,
    state: u32,
    script: &'t [ScriptCell],
    seq_len: u32,
}

/// One lane of a fault word: an effective transfer fault mid-replay.
///
/// Only the *cold* per-lane state lives here — identity, excitation
/// cursor and the accumulated outcome, touched when a lane crosses a
/// sequence boundary, reconverges, detects, or retires. The hot per-step
/// state (position, faulty state, cached slices, masking flag) lives in
/// [`LanePool::replay`]'s struct-of-arrays locals so a round touches a
/// few dense arrays instead of 64 scattered structs.
struct Lane<'t> {
    /// Index into the shard's outcome vector.
    slot: usize,
    fault: Fault,
    patch: LanePatch,
    /// Ascending `(sequence, vector)` excitation entries for this cell.
    entries: &'t [(u32, u32)],
    /// Cursor into `entries` (see [`next_excitation`]).
    ei: usize,
    /// Current sequence index.
    si: usize,
    masked_somewhere: bool,
    detected: Option<(usize, usize)>,
}

impl<'t> Lane<'t> {
    /// Advances `si` to the next sequence that excites this fault and
    /// returns the replay suffix to run, accounting skipped work exactly
    /// as the scalar loop does. `None` when no sequence remains (the
    /// lane's outcome is final).
    fn start_next_replay(
        &mut self,
        script: &'t ReplayScript,
        diff: &mut DiffStats,
    ) -> Option<Suffix<'t>> {
        while self.si < script.per_seq.len() {
            // The script holds gl + 1 cells (golden output count plus a
            // terminator).
            let gl = script.per_seq[self.si].len() - 1;
            if let Some(e) = next_excitation(self.entries, &mut self.ei, self.si, 0) {
                // First excitation of this sequence: replay from e + 1 in
                // the redirected state, exactly like the scalar engine.
                diff.prefix_steps_saved += e + 1;
                diff.divergence_replays += 1;
                return Some(Suffix {
                    p: e + 1,
                    state: self.patch.next,
                    script: &script.per_seq[self.si],
                    seq_len: script.seq_lens[self.si],
                });
            }
            // No excitation on this sequence: the faulty run is the
            // golden run — nothing detected, nothing masked.
            diff.prefix_steps_saved += gl;
            self.si += 1;
        }
        None
    }

    /// Ends the current sequence without a detection and moves on,
    /// folding in whether the finished sequence masked.
    fn finish_sequence(
        &mut self,
        seq_masked: bool,
        script: &'t ReplayScript,
        diff: &mut DiffStats,
    ) -> Option<Suffix<'t>> {
        self.masked_somewhere |= seq_masked;
        self.si += 1;
        self.start_next_replay(script, diff)
    }
}

/// The shard's effective transfer faults, replayed through a pool of
/// [`LANES`] lane slots. Build with [`LanePool::push`]; replay with
/// [`LanePool::replay`], which drains the pool.
///
/// Unlike a fixed batch that drains to empty, the pool *refills*: the
/// moment a lane retires, its slot is handed the next pending fault, so
/// the number of in-flight independent table loads stays pinned at
/// [`LANES`] until the shard runs out of faults. Without refill the
/// longest-lived lane in each batch finishes nearly alone — at full
/// serial miss latency — and the tail rounds dominate the run time.
struct LanePool<'t> {
    lanes: Vec<Lane<'t>>,
}

impl<'t> LanePool<'t> {
    fn new() -> Self {
        LanePool { lanes: Vec::new() }
    }

    fn push(&mut self, slot: usize, fault: Fault, patch: LanePatch, entries: &'t [(u32, u32)]) {
        self.lanes.push(Lane {
            slot,
            fault,
            patch,
            entries,
            ei: 0,
            si: 0,
            masked_somewhere: false,
            detected: None,
        });
    }

    /// Replays every lane to completion and writes each outcome into its
    /// slot. One round advances every live lane one micro-step, and is
    /// software-pipelined so the table loads actually overlap: each lane
    /// visit first *resolves* the table gather it issued on its
    /// *previous* visit, then *stages* the next one, so a load issued in
    /// round `k` is consumed in round `k + 1`, a full round of other
    /// lanes' work later — every live lane keeps one table miss in
    /// flight while the bookkeeping of the rest of the word executes
    /// under it.
    ///
    /// The round body is two-tiered. The fast tier runs one speculative,
    /// branch-light visit per live lane: the resolve of the previous
    /// gather, the masking scan one position ahead, and the next gather
    /// are all computed unconditionally into locals (speculative indices
    /// clamped in-bounds), every exceptional condition — unstaged slot,
    /// patched cell, [`UNDEFINED_RECORD`], end of sequence or golden
    /// trace, output mismatch — is OR-folded into one `bad` flag, and a
    /// single rarely-taken branch either commits the step or defers the
    /// lane. The exception tier then replays the deferred lanes through
    /// the scalar loop's exact detection/truncation/end-of-sequence case
    /// analysis and refills freed slots from the pending pool.
    ///
    /// The hot per-step state lives in struct-of-arrays locals rather
    /// than the [`Lane`] structs (flags as independent bytes, not shared
    /// bit-mask registers, to keep lanes' updates dependency-free), and
    /// the gather is monomorphised over [`GatherTable`]: machines whose
    /// ids fit the narrow 32-bit records gather half the bytes per step.
    fn replay(
        self,
        packed: &PackedMealy,
        script: &'t ReplayScript,
        outcomes: &mut [Option<FaultOutcome>],
        diff: &mut DiffStats,
        stats: &mut PackedStats,
    ) {
        // Gather through the narrow (32-bit) table when the machine's id
        // ranges permit one — half the bytes per lane-step — widening in
        // registers to the exact wide records the logic below expects.
        match packed.narrow_table() {
            Some((table, shift)) => {
                let mask = (1u32 << shift).wrapping_sub(1);
                self.replay_with(
                    NarrowGather { table, shift, mask },
                    packed,
                    script,
                    outcomes,
                    diff,
                    stats,
                )
            }
            None => self.replay_with(WideGather(packed), packed, script, outcomes, diff, stats),
        }
    }

    fn replay_with<G: GatherTable>(
        mut self,
        g: G,
        packed: &PackedMealy,
        script: &'t ReplayScript,
        outcomes: &mut [Option<FaultOutcome>],
        diff: &mut DiffStats,
        stats: &mut PackedStats,
    ) {
        if self.lanes.is_empty() {
            return;
        }
        // `packed_words` counts 64-lane batches worth of replayed faults:
        // with refill the batches interleave in time, but the totals are
        // the same pure function of the shard's effective transfer count
        // as with fixed words, so merged stats stay engine-deterministic.
        stats.packed_words += self.lanes.len().div_ceil(LANES);
        stats.lanes_active += self.lanes.len();
        // Hot per-lane replay state, struct-of-arrays, indexed by slot.
        let mut state = [0u32; LANES];
        let mut pos = [0u32; LANES];
        let mut scr: [&'t [ScriptCell]; LANES] = [&[]; LANES];
        // Sequence length (`pi` reaching it ends the sequence) and golden
        // output count (`pi` reaching it with the faulty machine still
        // stepping is a truncation-asymmetry detection).
        let mut lens = [0u32; LANES];
        let mut gls = [0u32; LANES];
        let mut patch_cell = [usize::MAX; LANES];
        let mut patch_rec = [0u64; LANES];
        let mut slot_lane = [usize::MAX; LANES];
        // Per-lane flags as independent bytes, NOT word-wide bit-masks: a
        // shared mask register would make every lane's flag update a
        // read-modify-write of the same register, chaining the otherwise
        // independent lanes through it and capping instruction-level
        // parallelism at the chain latency. No `diverged` flag: a replay
        // starts diverged (the redirected state differs from the golden
        // successor), so every later state match is a reconvergence.
        let mut seq_masked = [false; LANES];
        let mut alive = [false; LANES];
        let mut live_count = 0usize;
        // Next pending lane to feed into a freed slot.
        let mut pending = 0usize;
        // Starts slot `l` on a fresh suffix, not yet masked.
        macro_rules! install {
            ($l:expr, $s:expr) => {{
                let s = $s;
                state[$l] = s.state;
                pos[$l] = s.p as u32;
                scr[$l] = s.script;
                lens[$l] = s.seq_len;
                gls[$l] = (s.script.len() - 1) as u32;
                seq_masked[$l] = false;
            }};
        }
        // Hands slot `l` the next pending lane that actually has a suffix
        // to replay (a lane whose replay starts empty is already final),
        // or marks the slot dead when the pool is exhausted.
        macro_rules! refill {
            ($l:expr) => {{
                if alive[$l] {
                    alive[$l] = false;
                    live_count -= 1;
                }
                while pending < self.lanes.len() {
                    let li = pending;
                    pending += 1;
                    let lane = &mut self.lanes[li];
                    if let Some(s) = lane.start_next_replay(script, diff) {
                        slot_lane[$l] = li;
                        patch_cell[$l] = lane.patch.cell;
                        patch_rec[$l] =
                            u64::from(lane.patch.out) << 32 | u64::from(lane.patch.next);
                        install!($l, s);
                        alive[$l] = true;
                        live_count += 1;
                        break;
                    }
                }
            }};
        }
        // Ends slot `l`'s sequence undetected, masked or not, and starts
        // the lane's next replay there, or refills the slot when the lane
        // is final.
        macro_rules! end_sequence {
            ($l:expr, $masked:expr) => {{
                match self.lanes[slot_lane[$l]].finish_sequence($masked, script, diff) {
                    Some(s) => install!($l, s),
                    None => refill!($l),
                }
            }};
        }
        for l in 0..LANES {
            refill!(l);
        }
        let mut cells = [0usize; LANES];
        let mut recs = [0u64; LANES];
        let mut go_stage = [0u32; LANES];
        // Slots whose gather from the previous round is still unresolved.
        let mut staged = [false; LANES];
        let ni = packed.num_inputs();
        let ncells = packed.num_states() * ni;
        while live_count > 0 {
            // Fast tier: one speculative, branch-light visit per live
            // lane. Everything the common case needs — resolve of the
            // previous gather, the masking scan one position ahead, and
            // the next gather — is computed unconditionally into locals,
            // all exceptional conditions are OR-folded into one `bad`
            // flag, and a single rarely-taken branch either commits the
            // step or defers the lane untouched to the exception tier.
            // A reconvergence is one of those conditions, so a committed
            // step never changes the masking flag. The two speculative
            // indexings are clamped (`pi1.min(gl)`, `min(ncells - 1)`)
            // so a deferred lane's garbage values stay in bounds; nothing
            // is committed for such a lane.
            let mut exc = 0u64;
            for l in 0..LANES {
                if !alive[l] {
                    continue;
                }
                let pi = pos[l] as usize;
                let hit = cells[l] == patch_cell[l];
                let rec = if hit { patch_rec[l] } else { recs[l] };
                let gl = gls[l] as usize;
                let st = rec as u32;
                let pi1 = pi + 1;
                let c = scr[l][pi1.min(gl)];
                let bad = !staged[l]
                    | hit
                    | (rec == UNDEFINED_RECORD)
                    | (pi >= gl)
                    | ((rec >> 32) as u32 != go_stage[l])
                    | (c.gs == st)
                    | (pi1 >= lens[l] as usize);
                let cell = (st as usize * ni + c.inp as usize).min(ncells - 1);
                let r2 = g.load(cell);
                if bad {
                    exc |= 1u64 << l;
                    continue;
                }
                state[l] = st;
                pos[l] = pi1 as u32;
                cells[l] = cell;
                recs[l] = r2;
                go_stage[l] = c.go;
            }
            // Exception tier: the scalar loop's exact case analysis for
            // the deferred lanes — detection, truncation, patch overlay,
            // reconvergence jumps, sequence turnover and first-visit
            // staging. A lane leaves this tier either dead or staged with
            // a fresh gather.
            while exc != 0 {
                let l = exc.trailing_zeros() as usize;
                exc &= exc - 1;
                if staged[l] {
                    // Resolve the gather this slot issued on its previous
                    // visit: the common case — defined record, output
                    // matches, golden not truncated, no patch overlay —
                    // advances behind one predictable branch.
                    staged[l] = false;
                    let pi = pos[l] as usize;
                    let hit = cells[l] == patch_cell[l];
                    let rec = if hit { patch_rec[l] } else { recs[l] };
                    let cold = hit
                        | (rec == UNDEFINED_RECORD)
                        | (pi >= gls[l] as usize)
                        | ((rec >> 32) as u32 != go_stage[l]);
                    if !cold {
                        state[l] = rec as u32;
                        pos[l] = pi as u32 + 1;
                    } else if !hit && rec == UNDEFINED_RECORD && !packed.is_defined(cells[l]) {
                        // Sentinel pre-filter: any other record value
                        // proves the cell defined without touching the
                        // definedness bitmap; the bitmap stays
                        // authoritative for the (cold) case of a defined
                        // record that happens to encode as the sentinel.
                        // Faulty truncates with p outputs; truncation
                        // asymmetry detects at the common length.
                        if gls[l] as usize > pi {
                            let lane = &mut self.lanes[slot_lane[l]];
                            lane.detected = Some((lane.si, pi));
                            refill!(l);
                        } else {
                            end_sequence!(l, seq_masked[l]);
                        }
                    } else if pi >= gls[l] as usize {
                        // Golden truncated at gl = p but the faulty
                        // machine stepped on: asymmetry detects at the
                        // common length.
                        let lane = &mut self.lanes[slot_lane[l]];
                        lane.detected = Some((lane.si, pi));
                        refill!(l);
                    } else if (rec >> 32) as u32 != go_stage[l] {
                        let lane = &mut self.lanes[slot_lane[l]];
                        lane.detected = Some((lane.si, pi));
                        refill!(l);
                    } else {
                        state[l] = rec as u32;
                        pos[l] = pi as u32 + 1;
                    }
                }
                // Stage: masking scan at the (possibly just-advanced)
                // position, reconvergence jump, end-of-sequence
                // bookkeeping, and the next gather. The loop re-stages
                // immediately when a sequence ends or a fresh lane lands
                // in the slot, so every visit leaves a live slot with
                // exactly one gather in flight. One fused script load per
                // visit covers the golden state, the input and the golden
                // output at `pi`.
                while alive[l] && !staged[l] {
                    let pi = pos[l] as usize;
                    let mut c = scr[l][pi];
                    // Masking state-comparison at position p, mirroring
                    // the scalar loop: the replay starts diverged, so
                    // equal states mean it reconverged.
                    if c.gs == state[l] {
                        seq_masked[l] = true;
                        // Lemma 4: jump to the golden run's next traversal
                        // of the faulted cell, or end the sequence
                        // undetected when none follows.
                        let lane = &mut self.lanes[slot_lane[l]];
                        let Some(q) = next_excitation(lane.entries, &mut lane.ei, lane.si, pi)
                        else {
                            diff.reconverged_steps_skipped += gls[l] as usize - pi;
                            end_sequence!(l, true);
                            continue;
                        };
                        diff.reconverged_steps_skipped += q - pi;
                        c = scr[l][q];
                        state[l] = c.gs;
                        pos[l] = q as u32;
                    } else if pi >= lens[l] as usize {
                        // Both runs consumed the whole sequence: no
                        // detection.
                        end_sequence!(l, seq_masked[l]);
                        continue;
                    }
                    cells[l] = state[l] as usize * ni + c.inp as usize;
                    recs[l] = g.load(cells[l]);
                    go_stage[l] = c.go;
                    staged[l] = true;
                }
            }
        }
        for lane in self.lanes {
            outcomes[lane.slot] = Some(FaultOutcome {
                fault: lane.fault,
                detected: lane.detected,
                // Every lane came through the excitation index non-empty.
                excited: true,
                masked_somewhere: lane.masked_somewhere,
            });
        }
    }
}

/// Simulates one shard under the packed engine, bit-identical to mapping
/// [`crate::simulate_fault_differential`] (and hence
/// [`simulate_fault`](crate::faults::simulate_fault)) over the shard.
///
/// Faults are classified in fault order by the differential engine's
/// index fast paths; effective transfer faults enter the `LanePool` in
/// that same order and are replayed lane-parallel
/// (up to [`LANES`] in flight, slots refilled as lanes retire), with
/// outcomes written back by position — so the returned vector is in
/// fault order regardless of scheduling. `diff` accumulates the same
/// per-fault [`DiffStats`] the differential engine would, `stats` the
/// word-formation counters. `script` is the replay lowering of
/// `(trace, tests)` from [`ReplayScript::build`], built once per
/// campaign and shared across shards.
///
/// # Panics
///
/// Panics if a fault's transition is undefined in `golden`, or if
/// `trace` / `packed` / `script` were built for a different
/// `(golden, tests)` pair.
#[allow(clippy::too_many_arguments)] // mirrors the scalar shard signature plus the packed lowerings
pub fn simulate_shard_packed<'t>(
    golden: &ExplicitMealy,
    packed: &PackedMealy,
    trace: &'t GoldenTrace,
    script: &'t ReplayScript,
    shard: &[Fault],
    tests: &'t TestSet,
    diff: &mut DiffStats,
    stats: &mut PackedStats,
) -> Vec<FaultOutcome> {
    assert_eq!(
        trace.num_sequences(),
        tests.sequences.len(),
        "golden trace must memoize exactly this test set"
    );
    assert_eq!(
        script.per_seq.len(),
        tests.sequences.len(),
        "replay script must lower exactly this test set"
    );
    let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; shard.len()];
    let mut pool = LanePool::new();
    for (slot, fault) in shard.iter().enumerate() {
        match classify(golden, trace, fault, diff) {
            Classified::Final(outcome) => outcomes[slot] = Some(outcome),
            Classified::Replay {
                entries,
                new_next,
                out,
            } => {
                let patch = packed.lane_patch(fault.state, fault.input, new_next, out);
                pool.push(slot, *fault, patch, entries);
            }
        }
    }
    pool.replay(packed, script, &mut outcomes, diff, stats);
    outcomes
        .into_iter()
        .map(|o| o.expect("every slot classified or replayed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::simulate_fault_differential;
    use crate::error_model::FaultKind;
    use crate::faults::{enumerate_single_faults, extend_cyclically, simulate_fault, FaultSpace};
    use crate::testutil::figure2;
    use simcov_fsm::{InputSym, MealyBuilder, OutputSym};
    use simcov_prng::{forall_cfg, Config, Gen};
    use simcov_tour::transition_tour;

    /// Asserts the packed shard simulation is bit-identical to both
    /// scalar engines on the whole fault list as ONE shard, and that the
    /// DiffStats totals match the differential engine's exactly.
    fn assert_three_way(m: &ExplicitMealy, faults: &[Fault], tests: &TestSet) {
        let trace = GoldenTrace::build(m, tests);
        let packed = PackedMealy::from_explicit(m);
        let mut diff_p = DiffStats::default();
        let mut pstats = PackedStats::default();
        let script = ReplayScript::build(&trace, tests);
        let got = simulate_shard_packed(
            m,
            &packed,
            &trace,
            &script,
            faults,
            tests,
            &mut diff_p,
            &mut pstats,
        );
        let mut diff_d = DiffStats::default();
        for (f, o) in faults.iter().zip(&got) {
            let differential = simulate_fault_differential(m, &trace, f, tests, &mut diff_d);
            assert_eq!(*o, differential, "fault {f} (vs differential)");
            assert_eq!(*o, simulate_fault(m, f, tests), "fault {f} (vs naive)");
        }
        assert_eq!(diff_p, diff_d, "effort accounting must match");
        let effective_transfers = faults
            .iter()
            .filter(|f| match f.kind {
                FaultKind::Transfer { new_next } => {
                    !trace.excitations(f.state, f.input).is_empty()
                        && m.step(f.state, f.input).unwrap().0 != new_next
                }
                FaultKind::Output { .. } => false,
            })
            .count();
        assert_eq!(pstats.lanes_active, effective_transfers);
        assert_eq!(pstats.packed_words, effective_transfers.div_ceil(LANES));
    }

    /// Random strongly-connected-ish machine, as in the cross-engine
    /// property suite: input 0 forms a ring so every state is reachable.
    fn random_machine(g: &mut Gen) -> ExplicitMealy {
        let n = g.int_in(2..10usize);
        let ni = g.int_in(1..4usize);
        let no = g.int_in(1..4usize);
        let mut b = MealyBuilder::new();
        let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
        let inputs: Vec<_> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
        let outs: Vec<_> = (0..no).map(|i| b.add_output(format!("o{i}"))).collect();
        for (si, &s) in states.iter().enumerate() {
            for (ii, &i) in inputs.iter().enumerate() {
                if ii == 0 {
                    b.add_transition(s, i, states[(si + 1) % n], outs[g.int_in(0..no)]);
                } else if g.bool() {
                    b.add_transition(s, i, states[g.int_in(0..n)], outs[g.int_in(0..no)]);
                }
            }
        }
        b.build(states[0]).unwrap()
    }

    fn random_tests(g: &mut Gen, m: &ExplicitMealy) -> TestSet {
        let nseq = g.int_in(1..6usize);
        let ni = m.num_inputs();
        TestSet {
            sequences: (0..nseq)
                .map(|_| {
                    let len = g.int_in(0..30usize);
                    (0..len).map(|_| InputSym(g.int_in(0..ni) as u32)).collect()
                })
                .collect(),
        }
    }

    #[test]
    fn figure2_exhaustive_faults_bit_identical_three_ways() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        let tour = transition_tour(&m).unwrap();
        for k in [0, 1, 3] {
            let tests = TestSet::single(extend_cyclically(&tour.inputs, k));
            assert_three_way(&m, &faults, &tests);
        }
    }

    #[test]
    fn random_machines_bit_identical_three_ways() {
        forall_cfg(
            "packed_equivalence",
            Config::with_cases(40),
            |g: &mut Gen| {
                let m = random_machine(g);
                let faults = enumerate_single_faults(
                    &m,
                    &FaultSpace {
                        max_faults: 200,
                        seed: g.u64(),
                        ..FaultSpace::default()
                    },
                );
                let tests = random_tests(g, &m);
                assert_three_way(&m, &faults, &tests);
            },
        );
    }

    #[test]
    fn word_boundaries_pin_tail_masking() {
        // Exactly 1, 63, 64 and 65 effective transfer faults: the word
        // tail (partial last word) must behave like any other lane.
        let (m, _) = figure2();
        let tour = transition_tour(&m).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
        // All-transfer fault list cycled to the wanted length.
        let transfers: Vec<Fault> = enumerate_single_faults(
            &m,
            &FaultSpace {
                output: false,
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        assert!(!transfers.is_empty());
        for count in [1usize, 63, 64, 65, 130] {
            let faults: Vec<Fault> = (0..count).map(|i| transfers[i % transfers.len()]).collect();
            assert_three_way(&m, &faults, &tests);
        }
    }

    #[test]
    fn partial_machine_truncation_bit_identical() {
        // Transfer redirections into states with undefined continuations
        // exercise the undefined-lane path of the word replay.
        let mut b = MealyBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_state(format!("s{i}"))).collect();
        let x = b.add_input("x");
        let y = b.add_input("y");
        let o0 = b.add_output("o0");
        let o1 = b.add_output("o1");
        b.add_transition(s[0], x, s[1], o0);
        b.add_transition(s[0], y, s[2], o1);
        b.add_transition(s[1], x, s[2], o0);
        b.add_transition(s[1], y, s[0], o0);
        b.add_transition(s[2], x, s[3], o1);
        let m = b.build(s[0]).unwrap();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        let tests = TestSet {
            sequences: vec![
                vec![x, x, x, x],
                vec![x, y, x, y, x],
                vec![y, x, x],
                vec![x, y, y, x],
            ],
        };
        assert_three_way(&m, &faults, &tests);
    }

    #[test]
    fn packed_stats_merge_is_commutative() {
        let a = PackedStats {
            packed_words: 3,
            lanes_active: 130,
        };
        let b = PackedStats {
            packed_words: 1,
            lanes_active: 7,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.packed_words, 4);
        assert_eq!(ab.lanes_active, 137);
    }

    #[test]
    fn output_faults_never_occupy_lanes() {
        let (m, fault) = figure2();
        let tour = transition_tour(&m).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 1));
        let trace = GoldenTrace::build(&m, &tests);
        let packed = PackedMealy::from_explicit(&m);
        let of = Fault {
            kind: FaultKind::Output {
                new_output: OutputSym(0),
            },
            ..fault
        };
        let mut diff = DiffStats::default();
        let mut stats = PackedStats::default();
        let script = ReplayScript::build(&trace, &tests);
        let _ = simulate_shard_packed(
            &m,
            &packed,
            &trace,
            &script,
            &[of],
            &tests,
            &mut diff,
            &mut stats,
        );
        assert_eq!(stats, PackedStats::default());
    }
}
