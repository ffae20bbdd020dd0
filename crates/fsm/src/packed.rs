//! Word-packed transition tables for lane-parallel fault simulation.
//!
//! A scalar replay over [`ExplicitMealy::step`] is latency-bound: every
//! table lookup depends on the state produced by the previous one, so a
//! long replay is a serial pointer chase through a table that rarely fits
//! in L1. The classic fix — bit-parallel fault simulation — advances up
//! to [`LANES`] (= 64) *independent* faulty machines one step per round:
//! the per-lane lookups of a round carry no data dependency on each
//! other, so the memory system overlaps their cache misses instead of
//! serialising them.
//!
//! [`PackedMealy`] is the packed-table mirror of the dense
//! [`ExplicitMealy`] table — one fused `(next, out)` word per cell plus
//! a definedness bitset — so a lane-step costs exactly one random cache
//! line, where the array-of-`Option` layout costs more bytes and the
//! naive two-array split would cost two lines. [`LanePatch`] is the packed
//! counterpart of [`PatchedMealy`](crate::PatchedMealy): a one-cell
//! overlay applied to exactly one lane, which is how a fault word
//! simulates 64 *different* single-fault mutants against one shared
//! table.
//!
//! This module owns only the tables; the lane replay loop that gathers
//! from them lives in `simcov-core`'s packed engine, whose three-way
//! equivalence tests pin every lane to the scalar engines' outcomes. The
//! property tests below pin the tables themselves to the scalar table.

use crate::explicit::{ExplicitMealy, InputSym, OutputSym, StateId};

/// Number of lanes in a packed word: one fault per bit of a `u64` mask.
pub const LANES: usize = 64;

/// Sentinel filling undefined cells of [`PackedMealy`]'s fused table.
///
/// `raw_record(cell) != UNDEFINED_RECORD` proves the cell defined
/// without touching the definedness bitset; on equality the caller must
/// fall back to [`PackedMealy::is_defined`], because a genuinely defined
/// transition to state `u32::MAX` with output `u32::MAX` would encode
/// the same bits (it would need 2^32 states *and* 2^32 outputs, but the
/// bitset, not the sentinel, is the source of truth).
pub const UNDEFINED_RECORD: u64 = u64::MAX;

/// Sentinel filling undefined cells of the *narrow* (32-bit) table.
///
/// Narrow records are only built when every defined encoding fits in 31
/// bits (see [`PackedMealy::narrow_table`]), so — unlike the wide
/// sentinel — this value can never collide with a defined record.
pub const UNDEFINED_NARROW: u32 = u32::MAX;

/// A one-cell transition overlay for a single lane — the packed
/// counterpart of [`PatchedMealy`](crate::PatchedMealy).
///
/// `cell` is a dense-table index (`state * num_inputs + input`); a lane
/// stepping through its patched cell takes `(next, out)` instead of the
/// base table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePatch {
    /// Dense-table cell index of the overlaid transition.
    pub cell: usize,
    /// Replacement next state (raw id) for that cell.
    pub next: u32,
    /// Replacement output symbol (raw id) for that cell.
    pub out: u32,
}

/// Packed transition tables of an [`ExplicitMealy`].
///
/// Built once per campaign with [`from_explicit`](Self::from_explicit)
/// and shared read-only across shards, like the golden trace. The dense
/// cell layout (`state * num_inputs + input`) is identical to the scalar
/// table's, so cell indices are interchangeable between the two.
///
/// ```
/// use simcov_fsm::{MealyBuilder, PackedMealy};
///
/// let mut b = MealyBuilder::new();
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let i = b.add_input("i");
/// let o = b.add_output("o");
/// b.add_transition(s0, i, s1, o);
/// let m = b.build(s0).unwrap();
/// let packed = PackedMealy::from_explicit(&m);
/// // (s0, i) -> (s1, o): next-state id low, output id high.
/// let cell = packed.cell_index(s0, i);
/// assert!(packed.is_defined(cell));
/// assert_eq!(packed.raw_record(cell), u64::from(o.0) << 32 | u64::from(s1.0));
/// // (s1, i) is undefined; a fault on (s0, i) redirects one lane to s0.
/// assert!(!packed.is_defined(packed.cell_index(s1, i)));
/// let patch = packed.lane_patch(s0, i, s0, o);
/// assert_eq!((patch.cell, patch.next), (cell, s0.0));
/// ```
#[derive(Debug, Clone)]
pub struct PackedMealy {
    /// Fused per-cell records, dense by cell: next-state id in the low
    /// 32 bits, output id in the high 32. One record is one aligned
    /// `u64`, so a lane-step's random table access touches exactly one
    /// cache line. Undefined cells hold [`UNDEFINED_RECORD`] — a cheap
    /// *pre-filter* for definedness that spares the hot path a second
    /// random load of the `defined` bitset (which stays authoritative:
    /// a defined transition could in principle encode the same bits).
    table: Vec<u64>,
    /// Narrow mirror of `table` — `(out << narrow_shift) | next` per
    /// cell, [`UNDEFINED_NARROW`] where undefined — built whenever the
    /// machine's state and output id ranges together fit in 31 bits.
    /// Half the bytes per lane-step means half the random cache lines
    /// and half the TLB reach for a replay over the same cells; on
    /// L2-dwarfing tables that is the difference between streaming at
    /// the miss-overlap ceiling and stalling on page walks.
    narrow: Option<Vec<u32>>,
    /// Bit position of the output field in a narrow record.
    narrow_shift: u32,
    /// Definedness bitset: cell `c` is defined iff bit `c % 64` of word
    /// `c / 64` is set.
    defined: Vec<u64>,
    num_states: usize,
    num_inputs: usize,
}

impl PackedMealy {
    /// Transposes the dense scalar table into fused packed form — one
    /// sequential pass over the scalar table, no per-cell `step` calls,
    /// so building the tables costs a small fraction of one golden walk
    /// even on 10^4-state machines.
    pub fn from_explicit(m: &ExplicitMealy) -> PackedMealy {
        let ns = m.num_states();
        let ni = m.num_inputs();
        let cells = ns * ni;
        let mut table = vec![UNDEFINED_RECORD; cells];
        let mut defined = vec![0u64; cells.div_ceil(64).max(1)];
        let mut max_out = 0u32;
        for (cell, entry) in m.dense_table().iter().enumerate() {
            if let Some((n, o)) = entry {
                table[cell] = u64::from(o.0) << 32 | u64::from(n.0);
                defined[cell >> 6] |= 1u64 << (cell & 63);
                max_out = max_out.max(o.0);
            }
        }
        // Narrow mirror: next-state ids need `shift` bits, the widest
        // output id used needs `out_bits`; if both fields fit in 31 bits
        // every defined encoding stays below `UNDEFINED_NARROW`.
        let shift = 32 - (ns.saturating_sub(1) as u32).leading_zeros();
        let out_bits = 32 - max_out.leading_zeros();
        let narrow = (shift + out_bits <= 31).then(|| {
            table
                .iter()
                .map(|&rec| {
                    if rec == UNDEFINED_RECORD {
                        UNDEFINED_NARROW
                    } else {
                        ((rec >> 32) as u32) << shift | rec as u32
                    }
                })
                .collect()
        });
        PackedMealy {
            table,
            narrow,
            narrow_shift: shift,
            defined,
            num_states: ns,
            num_inputs: ni,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of input symbols.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Dense-table cell index of `(state, input)` — identical to the
    /// scalar table's layout, so patches built here overlay the same
    /// transition [`ExplicitMealy::patched`] would.
    pub fn cell_index(&self, state: StateId, input: InputSym) -> usize {
        state.index() * self.num_inputs + input.index()
    }

    /// `true` iff the transition at `cell` is defined.
    #[inline]
    pub fn is_defined(&self, cell: usize) -> bool {
        (self.defined[cell >> 6] >> (cell & 63)) & 1 == 1
    }

    /// The raw fused record at `cell`: next-state id in the low 32 bits,
    /// output id in the high 32 — garbage where the cell is undefined,
    /// so callers must consult [`is_defined`](Self::is_defined) (and
    /// their [`LanePatch`], which overrides both) before trusting it.
    ///
    /// This is the single random-memory access of a lane-step, exposed
    /// raw so a replay round can be software-pipelined: one tight gather
    /// pass issuing every lane's independent table load back-to-back
    /// (maximal memory-level parallelism), then a bookkeeping pass over
    /// the L1-resident rest.
    #[inline]
    pub fn raw_record(&self, cell: usize) -> u64 {
        self.table[cell]
    }

    /// The narrow (32-bit) record table and its output-field shift, when
    /// the machine's id ranges permit one (see the field docs).
    ///
    /// For every cell, `(v >> shift)` is the output id and
    /// `v & ((1 << shift) - 1)` the next-state id of the same record
    /// [`raw_record`](Self::raw_record) returns, with
    /// [`UNDEFINED_NARROW`] standing in for [`UNDEFINED_RECORD`] — so a
    /// replay loop can gather half the bytes per lane-step and widen in
    /// registers.
    pub fn narrow_table(&self) -> Option<(&[u32], u32)> {
        self.narrow.as_deref().map(|t| (t, self.narrow_shift))
    }

    /// Builds a [`LanePatch`] overlaying `(state, input)` with
    /// `(next, output)`, panicking if the transition is undefined —
    /// mirroring [`ExplicitMealy::patched`]'s contract.
    pub fn lane_patch(
        &self,
        state: StateId,
        input: InputSym,
        next: StateId,
        output: OutputSym,
    ) -> LanePatch {
        let cell = self.cell_index(state, input);
        assert!(
            self.is_defined(cell),
            "transition must be defined to be patched"
        );
        LanePatch {
            cell,
            next: next.0,
            out: output.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::MealyBuilder;
    use simcov_prng::{forall_cfg, Config, Gen};

    /// Random (possibly partial) machine: `n` states, `ni` inputs, with a
    /// connectivity ring on input 0 and random definedness elsewhere.
    fn random_machine(g: &mut Gen, max_states: usize) -> ExplicitMealy {
        let n = g.int_in(2..max_states);
        let ni = g.int_in(1..4usize);
        let no = g.int_in(1..4usize);
        let mut b = MealyBuilder::new();
        let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
        let inputs: Vec<InputSym> = (0..ni).map(|i| b.add_input(format!("i{i}"))).collect();
        let outs: Vec<OutputSym> = (0..no).map(|i| b.add_output(format!("o{i}"))).collect();
        for (si, &s) in states.iter().enumerate() {
            for (ii, &i) in inputs.iter().enumerate() {
                if ii == 0 {
                    // Ring keeps every state reachable.
                    let next = states[(si + 1) % n];
                    b.add_transition(s, i, next, outs[g.int_in(0..no)]);
                } else if g.bool() {
                    let next = states[g.int_in(0..n)];
                    b.add_transition(s, i, next, outs[g.int_in(0..no)]);
                }
            }
        }
        b.build(states[0]).unwrap()
    }

    #[test]
    fn packed_tables_mirror_the_scalar_table() {
        forall_cfg("packed_mirror", Config::with_cases(48), |g: &mut Gen| {
            let m = random_machine(g, 20);
            let p = PackedMealy::from_explicit(&m);
            assert_eq!(p.num_states(), m.num_states());
            assert_eq!(p.num_inputs(), m.num_inputs());
            for s in m.states() {
                for i in m.inputs() {
                    let cell = p.cell_index(s, i);
                    let rec = p.raw_record(cell);
                    let packed = p
                        .is_defined(cell)
                        .then_some((StateId(rec as u32), OutputSym((rec >> 32) as u32)));
                    assert_eq!(packed, m.step(s, i), "cell ({s:?}, {i:?})");
                    // The sentinel pre-filter agrees with the bitset on
                    // these small machines.
                    assert_eq!(rec == UNDEFINED_RECORD, packed.is_none());
                }
            }
        });
    }

    #[test]
    fn narrow_records_decode_to_wide_records() {
        // Small random machines always qualify for the narrow table; its
        // widened view must be bit-identical to the wide table on every
        // cell, undefined cells included.
        forall_cfg("packed_narrow", Config::with_cases(48), |g: &mut Gen| {
            let m = random_machine(g, 20);
            let p = PackedMealy::from_explicit(&m);
            let (narrow, shift) = p.narrow_table().expect("small ranges fit 31 bits");
            let mask = (1u64 << shift) - 1;
            assert_eq!(narrow.len(), m.num_states() * m.num_inputs());
            for (cell, &v) in narrow.iter().enumerate() {
                let widened = if v == UNDEFINED_NARROW {
                    UNDEFINED_RECORD
                } else {
                    u64::from(v >> shift) << 32 | (u64::from(v) & mask)
                };
                assert_eq!(widened, p.raw_record(cell), "cell {cell}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "transition must be defined")]
    fn lane_patch_panics_on_undefined_transition() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        let m = b.build(s0).unwrap();
        let p = PackedMealy::from_explicit(&m);
        let _ = p.lane_patch(s1, i, s0, o);
    }
}
