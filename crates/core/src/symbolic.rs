//! Implicit (BDD-based) fault enumeration and simulation — the symbolic
//! campaign engine.
//!
//! The explicit engines ([`crate::faults`], [`crate::differential`],
//! [`crate::packed`]) walk one faulty machine at a time (or 64 per word).
//! This module instead encodes an entire *shard* of faults as a cofactor
//! cube of a shared fault-id variable space and classifies every fault in
//! the shard with one relational-product walk per test sequence:
//!
//! * **Fault-id variables** `z_0..z_{nz-1}` (topmost levels) select one
//!   fault of the shard; the set of live ids is the constraint `validz`.
//!   Sharding a campaign over contiguous fault-id ranges is exactly a
//!   cofactoring of the global fault-id space into disjoint cubes, so a
//!   sharded symbolic campaign is a *partitioned* BDD traversal: each
//!   shard owns an independent manager and the serial shard-ordered merge
//!   reassembles the same outcome vector at any `--jobs`.
//! * **State variables** `x_j` (current) and `y_j` (next) interleave below
//!   the id block; primary inputs never get variables — test vectors are
//!   concrete, so the netlist is re-traversed per distinct input symbol
//!   with inputs folded to constants, which keeps the transition relation
//!   a function of `(z, x)` only.
//! * The faulty next-state and output functions are **patched
//!   symbolically**: `F_j = ite(TransHit, TransTarget_j, delta_j)` flips
//!   the transfer-faulted cells of next-state bit `j`, and
//!   `G_m = ite(OutHit, OutTarget_m, omega_m)` the output-faulted cells of
//!   output bit `m` — the relational form of
//!   [`Fault::inject`](crate::error_model) over all faults at once.
//!
//! Per test sequence the engine advances the faulty-state relation
//! `R(z, x)` (one concrete state per live id, since the machines are
//! deterministic and complete) and accumulates detection, excitation and
//! masking as fault-id *sets*, replicating the per-fault semantics of
//! [`simulate_fault`](crate::faults::simulate_fault) bit for bit —
//! detection at the first differing output vector, excitation whenever the
//! faulty walk sits on the faulted cell, masking at an
//! unobserved diverge/reconverge excursion of a still-undetected fault.
//!
//! [`run_implicit_campaign`] is the fully implicit counterpart for
//! netlists too wide to enumerate: it never materializes faults at all,
//! counting the single-bit-flip instantiation of the paper's Definitions
//! 1–4 (one next-state bit or one output bit flipped at one reachable
//! cell) with product-machine reachability on [`PairFsm`].

use crate::error_model::{Fault, FaultKind};
use crate::faults::FaultOutcome;
use simcov_bdd::{Bdd, BddManager, Var};
use simcov_fsm::{lower_netlist, ExplicitMealy, PairFsm, StateId};
use simcov_netlist::Netlist;
use simcov_tour::TestSet;
use std::collections::HashMap;

/// Aggregated BDD-package effort counters for a symbolic campaign.
///
/// Each shard runs its own [`BddManager`] through a deterministic
/// operation sequence, so these sums are byte-identical across `--jobs`
/// for the same campaign — they are emitted as the `bdd.*` telemetry
/// counters (see `simcov_obs::names`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolicEngineStats {
    /// Hash-consed nodes, summed over managers: each shard manager's
    /// final node count. For an implicit campaign, the base manager's
    /// nodes live after [`PairFsm::transfer_detect_prep`] reclaims its
    /// dead ones, plus the nodes each flip shard adds to its clone.
    pub unique_nodes: u64,
    /// Operation-cache hits, summed over shard managers.
    pub ite_cache_hits: u64,
    /// Operation-cache misses (real recursions), summed over shard
    /// managers.
    pub ite_cache_misses: u64,
    /// Cache-eviction garbage collections, summed over shard managers.
    pub gc_collections: u64,
    /// BDD managers instantiated (one per shard, plus the base manager
    /// for implicit campaigns).
    pub shard_managers: u64,
}

impl SymbolicEngineStats {
    /// Commutative, associative merge (shards are merged in shard order
    /// anyway, so the traces stay byte-identical).
    pub fn merge(&mut self, other: &SymbolicEngineStats) {
        self.unique_nodes += other.unique_nodes;
        self.ite_cache_hits += other.ite_cache_hits;
        self.ite_cache_misses += other.ite_cache_misses;
        self.gc_collections += other.gc_collections;
        self.shard_managers += other.shard_managers;
    }
}

/// Why a [`SymbolicContext`] could not be built from a netlist/machine
/// pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicContextError {
    /// The netlist failed its own structural check.
    MalformedNetlist(String),
    /// The machine is not complete (some state lacks a transition on some
    /// declared input), so golden replays would truncate.
    IncompleteMachine,
    /// The machine's input-symbol count disagrees with the supplied input
    /// vectors.
    InputCountMismatch {
        /// Input symbols in the machine.
        machine: usize,
        /// Vectors supplied.
        vectors: usize,
    },
    /// An input vector's width disagrees with the netlist's input count.
    InputWidthMismatch {
        /// Index of the offending input symbol.
        input: usize,
        /// Its vector's width.
        width: usize,
        /// The netlist's primary-input count.
        expected: usize,
    },
    /// A state label is not an `L`-bit binary string (the machine was not
    /// produced by `enumerate_netlist` on this netlist).
    BadStateLabel(String),
    /// An output label is not an `M`-bit binary string.
    BadOutputLabel(String),
    /// A sampled `(state, input)` cell stepped differently on the netlist
    /// than in the machine — the two models disagree.
    StepMismatch {
        /// The state label of the disagreeing cell.
        state: String,
        /// The input symbol index of the disagreeing cell.
        input: usize,
    },
}

impl std::fmt::Display for SymbolicContextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymbolicContextError::MalformedNetlist(p) => write!(f, "malformed netlist: {p}"),
            SymbolicContextError::IncompleteMachine => {
                write!(
                    f,
                    "machine is incomplete; symbolic replay needs total transitions"
                )
            }
            SymbolicContextError::InputCountMismatch { machine, vectors } => write!(
                f,
                "machine has {machine} input symbols but {vectors} input vectors were supplied"
            ),
            SymbolicContextError::InputWidthMismatch {
                input,
                width,
                expected,
            } => write!(
                f,
                "input symbol {input} has a {width}-bit vector; netlist has {expected} inputs"
            ),
            SymbolicContextError::BadStateLabel(l) => {
                write!(f, "state label {l:?} is not a netlist state-bit string")
            }
            SymbolicContextError::BadOutputLabel(l) => {
                write!(f, "output label {l:?} is not a netlist output-bit string")
            }
            SymbolicContextError::StepMismatch { state, input } => write!(
                f,
                "netlist and machine disagree stepping state {state:?} on input {input}"
            ),
        }
    }
}

impl std::error::Error for SymbolicContextError {}

/// Cap on the number of `(state, input)` cells cross-checked between the
/// netlist and the machine at [`SymbolicContext::new`] time. Small spaces
/// are checked exhaustively; larger ones on an evenly strided sample.
const CROSS_CHECK_LIMIT: usize = 4096;

/// The bridge between an enumerated [`ExplicitMealy`] and the netlist it
/// was extracted from: per-symbol bit vectors for states, inputs and
/// outputs, validated against both models at construction time.
///
/// The symbolic engine needs this because faults and outcomes speak the
/// machine's symbol vocabulary (`StateId`, `InputSym`, `OutputSym`) while
/// the BDD transition relation speaks netlist bits.
#[derive(Debug, Clone)]
pub struct SymbolicContext<'a> {
    netlist: &'a Netlist,
    state_bits: Vec<Vec<bool>>,
    input_bits: Vec<Vec<bool>>,
    output_bits: Vec<Vec<bool>>,
}

fn parse_bits(label: &str, width: usize) -> Option<Vec<bool>> {
    if label.len() != width {
        return None;
    }
    // `enumerate_netlist` renders bit 0 as the rightmost character.
    let mut bits = vec![false; width];
    for (pos, ch) in label.chars().enumerate() {
        match ch {
            '0' => {}
            '1' => bits[width - 1 - pos] = true,
            _ => return None,
        }
    }
    Some(bits)
}

impl<'a> SymbolicContext<'a> {
    /// Builds and validates a context from a netlist, the machine
    /// [`enumerate_netlist`](simcov_fsm::enumerate_netlist) extracted
    /// from it, and the input vectors the enumeration declared (the same
    /// `EnumerateOptions::inputs`, indexed by `InputSym`).
    ///
    /// State and output labels must be the enumerator's bit strings;
    /// input labels may be anything (the vectors carry the bits). A
    /// strided sample of up to `CROSS_CHECK_LIMIT` `(state, input)`
    /// cells is stepped on both models to catch mismatched pairings.
    pub fn new(
        netlist: &'a Netlist,
        machine: &ExplicitMealy,
        inputs: &[Vec<bool>],
    ) -> Result<Self, SymbolicContextError> {
        let problems = netlist.check();
        if !problems.is_empty() {
            return Err(SymbolicContextError::MalformedNetlist(problems.join("; ")));
        }
        if !machine.is_complete() {
            return Err(SymbolicContextError::IncompleteMachine);
        }
        if machine.num_inputs() != inputs.len() {
            return Err(SymbolicContextError::InputCountMismatch {
                machine: machine.num_inputs(),
                vectors: inputs.len(),
            });
        }
        let nl = netlist.num_latches();
        for (k, v) in inputs.iter().enumerate() {
            if v.len() != netlist.num_inputs() {
                return Err(SymbolicContextError::InputWidthMismatch {
                    input: k,
                    width: v.len(),
                    expected: netlist.num_inputs(),
                });
            }
        }
        let state_bits: Vec<Vec<bool>> = (0..machine.num_states())
            .map(|s| {
                let label = machine.state_label(StateId(s as u32));
                parse_bits(label, nl)
                    .ok_or_else(|| SymbolicContextError::BadStateLabel(label.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let no = netlist.num_outputs();
        let output_bits: Vec<Vec<bool>> = (0..machine.num_outputs())
            .map(|o| {
                let label = machine.output_label(simcov_fsm::OutputSym(o as u32));
                parse_bits(label, no)
                    .ok_or_else(|| SymbolicContextError::BadOutputLabel(label.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let ctx = SymbolicContext {
            netlist,
            state_bits,
            input_bits: inputs.to_vec(),
            output_bits,
        };
        ctx.cross_check(machine)?;
        Ok(ctx)
    }

    /// Convenience constructor for machines whose *input* labels are also
    /// the enumerator's bit strings (i.e. enumerated without custom
    /// `input_labels`).
    pub fn from_labels(
        netlist: &'a Netlist,
        machine: &ExplicitMealy,
    ) -> Result<Self, SymbolicContextError> {
        let ni = netlist.num_inputs();
        let inputs: Vec<Vec<bool>> = (0..machine.num_inputs())
            .map(|k| {
                let label = machine.input_label(simcov_fsm::InputSym(k as u32));
                parse_bits(label, ni).ok_or(SymbolicContextError::InputWidthMismatch {
                    input: k,
                    width: label.len(),
                    expected: ni,
                })
            })
            .collect::<Result<_, _>>()?;
        SymbolicContext::new(netlist, machine, &inputs)
    }

    fn cross_check(&self, machine: &ExplicitMealy) -> Result<(), SymbolicContextError> {
        let s = machine.num_states();
        let i = machine.num_inputs();
        let cells = s.saturating_mul(i);
        let stride = cells.div_ceil(CROSS_CHECK_LIMIT).max(1);
        let mut cell = 0usize;
        while cell < cells {
            let (si, ii) = (cell / i, cell % i);
            let state = StateId(si as u32);
            let input = simcov_fsm::InputSym(ii as u32);
            let (next, out) = machine
                .step(state, input)
                .expect("machine checked complete");
            let (nbits, obits) = self
                .netlist
                .step(&self.state_bits[si], &self.input_bits[ii]);
            if nbits != self.state_bits[next.index()] || obits != self.output_bits[out.index()] {
                return Err(SymbolicContextError::StepMismatch {
                    state: machine.state_label(state).to_string(),
                    input: ii,
                });
            }
            cell += stride;
        }
        Ok(())
    }

    /// The netlist this context was built over.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// State-bit vector of a machine state (indexed by latch).
    pub fn state_bits(&self, s: StateId) -> &[bool] {
        &self.state_bits[s.index()]
    }

    /// Input-bit vector of a machine input symbol.
    pub fn input_bits(&self, i: simcov_fsm::InputSym) -> &[bool] {
        &self.input_bits[i.index()]
    }

    /// Output-bit vector of a machine output symbol.
    pub fn output_bits(&self, o: simcov_fsm::OutputSym) -> &[bool] {
        &self.output_bits[o.index()]
    }
}

/// Transition relation, patched cones and quantification schedule for one
/// concrete input symbol (built lazily: test sets usually exercise a
/// small fraction of the alphabet).
struct InputData {
    /// `iff(y_j, F_j)` per latch.
    parts: Vec<Bdd>,
    /// `x` variables no `F_j` depends on — quantified before the chain.
    pre_cube: Bdd,
    /// `x` variables whose last use is `parts[j]` — quantified at step
    /// `j` of the `and_exists` chain.
    step_cubes: Vec<Bdd>,
    /// Patched output cones `G_m(z, x)`.
    gout: Vec<Bdd>,
    /// Union of this input's faulted cells (`z`-cube ∧ state cube), for
    /// excitation.
    cell_any: Bdd,
    /// Output-difference predicates, memoized per golden `OutputSym`.
    outdiff: HashMap<u32, Bdd>,
}

/// One shard's symbolic simulation state.
struct ShardEngine<'c, 'n, 's> {
    mgr: BddManager,
    ctx: &'c SymbolicContext<'n>,
    shard: &'s [Fault],
    nz: u32,
    num_latches: usize,
    /// Fault-id cube per shard-local id.
    zcubes: Vec<Bdd>,
    /// Disjunction of all live fault-id cubes.
    validz: Bdd,
    full_x_cube: Bdd,
    y_to_x: Vec<(Var, Var)>,
    per_input: Vec<Option<InputData>>,
}

impl<'c, 'n, 's> ShardEngine<'c, 'n, 's> {
    fn x_level(&self, j: usize) -> u32 {
        self.nz + 2 * j as u32
    }

    fn y_level(&self, j: usize) -> u32 {
        self.nz + 2 * j as u32 + 1
    }

    fn new(ctx: &'c SymbolicContext<'n>, shard: &'s [Fault]) -> Self {
        let b = shard.len();
        let nz = if b <= 1 {
            0
        } else {
            usize::BITS - (b - 1).leading_zeros()
        };
        let nl = ctx.netlist.num_latches();
        let total = nz + 2 * nl as u32;
        let mut eng = ShardEngine {
            mgr: BddManager::new(total.max(1)),
            ctx,
            shard,
            nz,
            num_latches: nl,
            zcubes: Vec::with_capacity(b),
            validz: Bdd::FALSE,
            full_x_cube: Bdd::TRUE,
            y_to_x: (0..nl)
                .map(|j| (Var(nz + 2 * j as u32 + 1), Var(nz + 2 * j as u32)))
                .collect(),
            per_input: (0..ctx.input_bits.len()).map(|_| None).collect(),
        };
        for id in 0..b {
            let mut cube = Bdd::TRUE;
            for t in (0..nz).rev() {
                let lit = if (id >> t) & 1 == 1 {
                    eng.mgr.var(t)
                } else {
                    eng.mgr.nvar(t)
                };
                cube = eng.mgr.and(cube, lit);
            }
            eng.zcubes.push(cube);
            eng.validz = eng.mgr.or(eng.validz, cube);
        }
        let xvars: Vec<Var> = (0..nl).map(|j| Var(eng.x_level(j))).collect();
        eng.full_x_cube = eng.mgr.cube_from_vars(&xvars);
        eng
    }

    /// Cube asserting the current state equals `bits` over the `x`
    /// variables.
    fn xcube(&mut self, bits: &[bool]) -> Bdd {
        let mut cube = Bdd::TRUE;
        for j in (0..self.num_latches).rev() {
            let level = self.x_level(j);
            let lit = if bits[j] {
                self.mgr.var(level)
            } else {
                self.mgr.nvar(level)
            };
            cube = self.mgr.and(cube, lit);
        }
        cube
    }

    /// Golden next-state and output cones over the `x` variables with the
    /// primary inputs folded to the concrete vector `in_bits`.
    fn golden_cones(&mut self, in_bits: &[bool]) -> (Vec<Bdd>, Vec<Bdd>) {
        let nz = self.nz;
        let cones = lower_netlist(
            &mut self.mgr,
            self.ctx.netlist,
            |m, i| m.constant(in_bits[i.index()]),
            |m, l| m.var(nz + 2 * l.index() as u32),
        );
        (cones.next, cones.outputs)
    }

    /// Builds the patched relation for input symbol `i` if not yet built.
    fn ensure_input(&mut self, i: usize) {
        if self.per_input[i].is_some() {
            return;
        }
        let in_bits = self.ctx.input_bits[i].clone();
        let (delta, omega) = self.golden_cones(&in_bits);
        let nl = self.num_latches;
        let no = omega.len();
        // Group this input's faults into hit sets and per-bit targets.
        let mut cell_any = Bdd::FALSE;
        let mut trans_hit = Bdd::FALSE;
        let mut trans_target = vec![Bdd::FALSE; nl];
        let mut out_hit = Bdd::FALSE;
        let mut out_target = vec![Bdd::FALSE; no];
        for (id, f) in self.shard.iter().enumerate() {
            if f.input.index() != i {
                continue;
            }
            let sbits = self.ctx.state_bits[f.state.index()].clone();
            let scube = self.xcube(&sbits);
            let cell = self.mgr.and(self.zcubes[id], scube);
            cell_any = self.mgr.or(cell_any, cell);
            match f.kind {
                FaultKind::Transfer { new_next } => {
                    trans_hit = self.mgr.or(trans_hit, cell);
                    let tbits = &self.ctx.state_bits[new_next.index()];
                    for (j, tgt) in trans_target.iter_mut().enumerate() {
                        if tbits[j] {
                            *tgt = self.mgr.or(*tgt, cell);
                        }
                    }
                }
                FaultKind::Output { new_output } => {
                    out_hit = self.mgr.or(out_hit, cell);
                    let obits = &self.ctx.output_bits[new_output.index()];
                    for (m, tgt) in out_target.iter_mut().enumerate() {
                        if obits[m] {
                            *tgt = self.mgr.or(*tgt, cell);
                        }
                    }
                }
            }
        }
        let mut f_next = delta.clone();
        if !trans_hit.is_false() {
            for j in 0..nl {
                f_next[j] = self.mgr.ite(trans_hit, trans_target[j], delta[j]);
            }
        }
        let mut gout = omega.clone();
        if !out_hit.is_false() {
            for m in 0..no {
                gout[m] = self.mgr.ite(out_hit, out_target[m], omega[m]);
            }
        }
        // Conjunction parts and the last-use quantification schedule over
        // the x variables (z variables are never quantified mid-chain).
        let mut parts = Vec::with_capacity(nl);
        let mut last_use: Vec<Option<usize>> = vec![None; nl];
        for (j, &f) in f_next.iter().enumerate() {
            for v in self.mgr.support(f) {
                let lvl = v.level();
                if lvl >= self.nz && (lvl - self.nz).is_multiple_of(2) {
                    last_use[((lvl - self.nz) / 2) as usize] = Some(j);
                }
            }
            let y = self.mgr.var(self.y_level(j));
            parts.push(self.mgr.iff(y, f));
        }
        let mut step_vars: Vec<Vec<Var>> = vec![Vec::new(); nl];
        let mut pre_vars: Vec<Var> = Vec::new();
        for (xj, lu) in last_use.iter().enumerate() {
            let var = Var(self.x_level(xj));
            match lu {
                Some(j) => step_vars[*j].push(var),
                None => pre_vars.push(var),
            }
        }
        let pre_cube = self.mgr.cube_from_vars(&pre_vars);
        let step_cubes = step_vars
            .iter()
            .map(|vs| self.mgr.cube_from_vars(vs))
            .collect();
        self.per_input[i] = Some(InputData {
            parts,
            pre_cube,
            step_cubes,
            gout,
            cell_any,
            outdiff: HashMap::new(),
        });
    }

    /// The `z`-set of faults excitable at input `i` from state set `r`.
    fn excite(&mut self, i: usize, r: Bdd) -> Bdd {
        self.ensure_input(i);
        let cell_any = self.per_input[i].as_ref().expect("built").cell_any;
        self.mgr.and_exists(r, cell_any, self.full_x_cube)
    }

    /// Output-difference predicate over `(z, x)` against the golden
    /// output symbol `gout_sym` at input `i` (memoized).
    fn outdiff(&mut self, i: usize, gout_sym: simcov_fsm::OutputSym) -> Bdd {
        self.ensure_input(i);
        let key = gout_sym.0;
        if let Some(&d) = self.per_input[i].as_ref().expect("built").outdiff.get(&key) {
            return d;
        }
        let gout = self.per_input[i].as_ref().expect("built").gout.clone();
        let gbits = self.ctx.output_bits[gout_sym.index()].clone();
        let mut diff = Bdd::FALSE;
        for (m, &g) in gout.iter().enumerate() {
            let wrong = if gbits[m] { self.mgr.not(g) } else { g };
            diff = self.mgr.or(diff, wrong);
        }
        self.per_input[i]
            .as_mut()
            .expect("built")
            .outdiff
            .insert(key, diff);
        diff
    }

    /// One image step: `R'(z, y) = ∃x (R ∧ ∧_j parts_j)`, renamed back to
    /// the `x` variables.
    fn image_step(&mut self, i: usize, r: Bdd) -> Bdd {
        self.ensure_input(i);
        let d = self.per_input[i].as_ref().expect("built");
        let (parts, pre, steps) = (d.parts.clone(), d.pre_cube, d.step_cubes.clone());
        let mut cur = self.mgr.exists(r, pre);
        for (j, &p) in parts.iter().enumerate() {
            cur = self.mgr.and_exists(cur, p, steps[j]);
        }
        self.mgr.rename(cur, &self.y_to_x.clone())
    }

    /// Shard-local fault ids contained in the `z`-set `f`.
    fn ids_in(&self, f: Bdd, scratch: &mut [bool]) -> Vec<usize> {
        let mut ids = Vec::new();
        if f.is_false() {
            return ids;
        }
        for id in 0..self.shard.len() {
            for t in 0..self.nz {
                scratch[t as usize] = (id >> t) & 1 == 1;
            }
            if self.mgr.eval(f, scratch) {
                ids.push(id);
            }
        }
        ids
    }
}

/// Classifies every fault of `shard` against `tests` symbolically,
/// returning outcomes bit-identical to
/// [`simulate_fault`](crate::faults::simulate_fault) applied fault by
/// fault, in shard order.
///
/// `golden` must be the machine `ctx` was validated against; each shard
/// gets a private [`BddManager`] whose effort is accumulated into
/// `stats`.
pub fn simulate_shard_symbolic(
    ctx: &SymbolicContext<'_>,
    golden: &ExplicitMealy,
    shard: &[Fault],
    tests: &TestSet,
    stats: &mut SymbolicEngineStats,
) -> Vec<FaultOutcome> {
    if shard.is_empty() {
        return Vec::new();
    }
    let mut eng = ShardEngine::new(ctx, shard);
    let reset_bits = ctx.state_bits[golden.reset().index()].clone();
    let init_x = eng.xcube(&reset_bits);
    let b = shard.len();
    let num_vars = (eng.nz as usize) + 2 * eng.num_latches;
    let mut scratch = vec![false; num_vars.max(1)];

    // Accumulated z-sets across sequences.
    let mut det_global = Bdd::FALSE;
    let mut excited_z = Bdd::FALSE;
    let mut masked_z = Bdd::FALSE;
    let mut detected_at: Vec<Option<(usize, usize)>> = vec![None; b];

    for (si, seq) in tests.sequences.iter().enumerate() {
        let (gstates, gouts) = golden.run(golden.reset(), seq);
        assert_eq!(
            gstates.len(),
            seq.len() + 1,
            "complete machine cannot truncate a run"
        );
        let n = seq.len();
        // R(z, x): the faulty machines' current states (validz ∧ reset).
        let mut r = eng.mgr.and(eng.validz, init_x);
        // Faults with no output difference so far in this sequence.
        let mut clean = eng.validz;
        // Faults whose faulty walk diverged at a strictly earlier index.
        let mut div = Bdd::FALSE;
        let mut masked_seq = Bdd::FALSE;
        let mut det_seq = det_global;
        for idx in 0..=n {
            if idx < n {
                let i = seq[idx].index();
                // Detection: first index with a differing output vector.
                let pred = eng.outdiff(i, gouts[idx]);
                let outdiff_z = eng.mgr.and_exists(r, pred, eng.full_x_cube);
                let not_det = eng.mgr.not(det_seq);
                let newdet = eng.mgr.and(outdiff_z, not_det);
                if !newdet.is_false() {
                    for id in eng.ids_in(newdet, &mut scratch) {
                        detected_at[id] = Some((si, idx));
                    }
                    det_seq = eng.mgr.or(det_seq, newdet);
                }
                let no_diff = eng.mgr.not(outdiff_z);
                clean = eng.mgr.and(clean, no_diff);
                // Excitation: the faulty walk sits on the faulted cell.
                let exc = eng.excite(i, r);
                excited_z = eng.mgr.or(excited_z, exc);
            }
            // Masking: reconvergence (faulty state equals golden state)
            // of an excursion that diverged earlier and stayed clean.
            let gcube = {
                let gbits = ctx.state_bits[gstates[idx].index()].clone();
                eng.xcube(&gbits)
            };
            let eq_z = eng.mgr.and_exists(r, gcube, eng.full_x_cube);
            let ce = eng.mgr.and(clean, eq_z);
            let mnow = eng.mgr.and(ce, div);
            masked_seq = eng.mgr.or(masked_seq, mnow);
            let neq = eng.mgr.not(eq_z);
            let vneq = eng.mgr.and(eng.validz, neq);
            div = eng.mgr.or(div, vneq);
            if idx < n {
                r = eng.image_step(seq[idx].index(), r);
            }
        }
        det_global = det_seq;
        // `simulate_fault` only probes masking while the fault is still
        // undetected after this sequence's detection attempt.
        let not_det = eng.mgr.not(det_global);
        let commit = eng.mgr.and(masked_seq, not_det);
        masked_z = eng.mgr.or(masked_z, commit);
        eng.mgr.maybe_gc();
    }

    let excited_ids = eng.ids_in(excited_z, &mut scratch);
    let masked_ids = eng.ids_in(masked_z, &mut scratch);
    let mut excited = vec![false; b];
    let mut masked = vec![false; b];
    for id in excited_ids {
        excited[id] = true;
    }
    for id in masked_ids {
        masked[id] = true;
    }

    let rs = eng.mgr.runtime_stats();
    stats.unique_nodes += eng.mgr.num_nodes() as u64;
    stats.ite_cache_hits += rs.ite_cache_hits;
    stats.ite_cache_misses += rs.ite_cache_misses;
    stats.gc_collections += rs.gc_collections;
    stats.shard_managers += 1;

    shard
        .iter()
        .enumerate()
        .map(|(id, &f)| FaultOutcome {
            fault: f,
            detected: detected_at[id],
            excited: excited[id],
            masked_somewhere: masked[id],
        })
        .collect()
}

/// Configuration of a fully implicit campaign.
#[derive(Debug, Clone, Copy)]
pub struct ImplicitConfig {
    /// Distinguishability horizon for transfer flips (steps of the
    /// product machine).
    pub k: usize,
    /// Worker threads for the per-flip shards.
    pub jobs: usize,
}

/// Result of [`run_implicit_campaign`]: coverage statistics of the
/// single-bit-flip fault families over a netlist too wide to enumerate.
///
/// All counts saturate at `u128::MAX` (flagged by
/// [`counts_saturate`](ImplicitReport::counts_saturate)) rather than
/// overflowing.
#[derive(Debug, Clone)]
pub struct ImplicitReport {
    /// Latches in the netlist.
    pub num_latches: usize,
    /// Primary outputs in the netlist.
    pub num_outputs: usize,
    /// Reachable states under the valid-input constraint.
    pub reachable_states: u128,
    /// Reachable `(state, valid input)` cells — the paper's transition
    /// count.
    pub reachable_cells: u128,
    /// Valid input vectors.
    pub valid_inputs: u128,
    /// Output-flip faults: one per reachable cell and output bit.
    pub output_faults: u128,
    /// Output flips detectable (all of them: a flipped observed bit
    /// differs the moment its cell is exercised).
    pub output_detected: u128,
    /// Transfer-flip faults: one per reachable cell and next-state bit.
    pub transfer_faults: u128,
    /// Transfer flips whose wrong next state is distinguishable from the
    /// correct one within `k` steps.
    pub transfer_detected: u128,
    /// Transfer flips not detectable within `k` — the escapes.
    pub escapes: u128,
    /// Whether the `k`-step distinguishability recursion reached its
    /// fixed point (making `transfer_detected` horizon-independent).
    pub fixed_point: bool,
    /// The horizon used.
    pub k: usize,
    /// True when any count hit the `u128` ceiling.
    pub counts_saturate: bool,
    /// BDD effort over the base manager and all shard clones.
    pub sym: SymbolicEngineStats,
}

impl std::fmt::Display for ImplicitReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "implicit campaign: {} latches, {} outputs, k={}{}",
            self.num_latches,
            self.num_outputs,
            self.k,
            if self.fixed_point {
                " (fixed point)"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "  reachable states {} / cells {} / valid inputs {}",
            self.reachable_states, self.reachable_cells, self.valid_inputs
        )?;
        writeln!(
            f,
            "  output flips   {} detected of {}",
            self.output_detected, self.output_faults
        )?;
        write!(
            f,
            "  transfer flips {} detected of {} ({} escapes)",
            self.transfer_detected, self.transfer_faults, self.escapes
        )
    }
}

fn sat_mul(a: u128, b: u128) -> u128 {
    a.saturating_mul(b)
}

/// Runs a fully implicit fault campaign over a netlist: no fault list, no
/// test set, no state enumeration — the single-bit-flip instantiation of
/// the paper's fault families (Definitions 1–4) is counted directly on
/// BDDs.
///
/// `valid` builds the valid-input constraint over the product machine's
/// input variables (return [`Bdd::TRUE`] for an unconstrained alphabet).
/// Transfer flips are judged by `k`-step distinguishability of the wrong
/// next state (the same product-machine recursion as
/// [`PairFsm::forall_k`]); the per-flip work is sharded over
/// `cfg.jobs` threads with one cloned manager per shard and merged in
/// shard order, so the report is identical at any job count.
pub fn run_implicit_campaign(
    netlist: &Netlist,
    valid: impl FnOnce(&mut PairFsm) -> Bdd,
    cfg: &ImplicitConfig,
) -> ImplicitReport {
    let mut pf = PairFsm::from_netlist(netlist);
    let v = valid(&mut pf);
    pf.set_valid_inputs(v);
    let nl = netlist.num_latches();
    let ni = netlist.num_inputs();
    let no = netlist.num_outputs();
    let init = netlist.initial_state();
    let prep = pf.transfer_detect_prep(&init, cfg.k);

    let total_vars = 4 * nl + ni;
    let valid_inputs = if total_vars > 127 {
        u128::MAX
    } else {
        // `v` depends only on input variables; dividing out the state
        // planes is exact.
        pf.mgr_ref().sat_count(v, total_vars as u32) >> (4 * nl)
    };

    let output_faults = sat_mul(prep.reachable_cells, no as u128);
    let transfer_faults = sat_mul(prep.reachable_cells, nl as u128);

    let base_nodes = pf.mgr_ref().num_nodes() as u64;
    let base_rs = pf.mgr_ref().runtime_stats();
    let flips: Vec<usize> = (0..nl).collect();
    let shard_size = crate::parallel::default_shard_size(flips.len());
    let shard_results = crate::parallel::run_sharded(&flips, shard_size, cfg.jobs, |_, shard| {
        let mut local = pf.clone();
        let mut det = 0u128;
        for &flip in shard {
            det = det.saturating_add(local.transfer_flip_detectable(&prep, flip));
        }
        let rs = local.mgr_ref().runtime_stats().since(&base_rs);
        (det, rs, local.mgr_ref().num_nodes() as u64 - base_nodes)
    });

    let mut sym = SymbolicEngineStats {
        unique_nodes: base_nodes,
        ite_cache_hits: base_rs.ite_cache_hits,
        ite_cache_misses: base_rs.ite_cache_misses,
        gc_collections: base_rs.gc_collections,
        shard_managers: 1,
    };
    let mut transfer_detected = 0u128;
    for (det, rs, nodes) in &shard_results {
        transfer_detected = transfer_detected.saturating_add(*det);
        sym.merge(&SymbolicEngineStats {
            unique_nodes: *nodes,
            ite_cache_hits: rs.ite_cache_hits,
            ite_cache_misses: rs.ite_cache_misses,
            gc_collections: rs.gc_collections,
            shard_managers: 1,
        });
    }

    let counts_saturate = total_vars > 127
        || prep.reachable_states == u128::MAX
        || prep.reachable_cells == u128::MAX
        || output_faults == u128::MAX
        || transfer_faults == u128::MAX;

    ImplicitReport {
        num_latches: nl,
        num_outputs: no,
        reachable_states: prep.reachable_states,
        reachable_cells: prep.reachable_cells,
        valid_inputs,
        output_faults,
        output_detected: output_faults,
        transfer_faults,
        transfer_detected,
        escapes: transfer_faults.saturating_sub(transfer_detected),
        fixed_point: prep.fixed_point,
        k: cfg.k,
        counts_saturate,
        sym,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_single_faults, simulate_fault, FaultSpace};
    use simcov_fsm::{enumerate_netlist, EnumerateOptions, InputSym};
    use simcov_prng::Prng;

    /// A 3-latch circular shifter with injectable bit and an observable
    /// mix output — small enough for brute force, rich enough to excite
    /// every outcome field.
    fn shifter() -> Netlist {
        let mut n = Netlist::new();
        let inj = n.add_input("inj");
        let sel = n.add_input("sel");
        let q0 = n.add_latch("q0", false);
        let q1 = n.add_latch("q1", false);
        let q2 = n.add_latch("q2", true);
        let (o0, o1, o2) = (n.latch_output(q0), n.latch_output(q1), n.latch_output(q2));
        let fed = n.xor(o2, inj);
        n.set_latch_next(q0, fed);
        let mixed = n.mux(sel, o0, fed);
        n.set_latch_next(q1, mixed);
        n.set_latch_next(q2, o1);
        let obs = n.and(o1, o2);
        n.add_output("obs", obs);
        n.add_output("tap", o2);
        n
    }

    fn random_tests(seed: u64, ni: usize) -> TestSet {
        let mut rng = Prng::seed_from_u64(seed);
        TestSet {
            sequences: (0..5)
                .map(|_| {
                    let len = rng.gen_range(0..12u32) as usize;
                    (0..len)
                        .map(|_| InputSym(rng.gen_range(0..ni as u32)))
                        .collect()
                })
                .collect(),
        }
    }

    fn assert_outcomes_match(n: &Netlist, tests: &TestSet) {
        let opts = EnumerateOptions::exhaustive(n);
        let m = enumerate_netlist(n, &opts).expect("enumerates");
        let ctx = SymbolicContext::new(n, &m, &opts.inputs).expect("context validates");
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        assert!(!faults.is_empty());
        let mut stats = SymbolicEngineStats::default();
        // Whole space as one shard, and again split into small shards.
        let sym: Vec<_> = simulate_shard_symbolic(&ctx, &m, &faults, tests, &mut stats);
        for (f, s) in faults.iter().zip(&sym) {
            let naive = simulate_fault(&m, f, tests);
            assert_eq!(&naive, s, "fault {f}");
        }
        let mut sharded = Vec::new();
        for shard in faults.chunks(3) {
            sharded.extend(simulate_shard_symbolic(&ctx, &m, shard, tests, &mut stats));
        }
        assert_eq!(sym, sharded, "shard partition must not change outcomes");
        assert!(stats.shard_managers > 1);
        assert!(stats.unique_nodes > 0);
    }

    #[test]
    fn symbolic_outcomes_match_naive_on_the_shifter() {
        let n = shifter();
        assert_outcomes_match(&n, &random_tests(11, 4));
    }

    #[test]
    fn symbolic_outcomes_match_naive_on_random_netlists() {
        for seed in 0..6u64 {
            let mut rng = Prng::seed_from_u64(seed);
            let mut n = Netlist::new();
            let inputs: Vec<_> = (0..2).map(|i| n.add_input(format!("i{i}"))).collect();
            let latches: Vec<_> = (0..4)
                .map(|i| n.add_latch(format!("q{i}"), rng.gen_bool(0.5)))
                .collect();
            let louts: Vec<_> = latches.iter().map(|&l| n.latch_output(l)).collect();
            let mut pool: Vec<_> = inputs.iter().chain(louts.iter()).copied().collect();
            for _ in 0..12 {
                let a = pool[rng.gen_range(0..pool.len() as u32) as usize];
                let b = pool[rng.gen_range(0..pool.len() as u32) as usize];
                let g = match rng.gen_range(0..4u32) {
                    0 => n.and(a, b),
                    1 => n.or(a, b),
                    2 => n.xor(a, b),
                    _ => n.not(a),
                };
                pool.push(g);
            }
            for &l in &latches {
                let s = pool[rng.gen_range(0..pool.len() as u32) as usize];
                n.set_latch_next(l, s);
            }
            let o = pool[rng.gen_range(0..pool.len() as u32) as usize];
            n.add_output("o", o);
            let n = simcov_netlist::transform::sweep(&n);
            if n.num_latches() == 0 || n.num_inputs() == 0 {
                continue;
            }
            assert_outcomes_match(&n, &random_tests(seed ^ 0xABCD, 1 << n.num_inputs()));
        }
    }

    #[test]
    fn context_rejects_a_foreign_machine() {
        let n = shifter();
        let m = crate::models::traffic_light(false);
        assert!(matches!(
            SymbolicContext::from_labels(&n, &m),
            Err(SymbolicContextError::InputWidthMismatch { .. })
                | Err(SymbolicContextError::BadStateLabel(_))
        ));
    }

    #[test]
    fn context_cross_checks_the_step_function() {
        let n = shifter();
        let opts = EnumerateOptions::exhaustive(&n);
        let m = enumerate_netlist(&n, &opts).expect("enumerates");
        // Swap two input vectors: labels still parse, stepping disagrees.
        let mut swapped = opts.inputs.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            SymbolicContext::new(&n, &m, &swapped),
            Err(SymbolicContextError::StepMismatch { .. })
        ));
    }

    #[test]
    fn implicit_report_matches_explicit_counts_on_the_shifter() {
        let n = shifter();
        let opts = EnumerateOptions::exhaustive(&n);
        let m = enumerate_netlist(&n, &opts).expect("enumerates");
        for jobs in [1usize, 2, 8] {
            let report = run_implicit_campaign(&n, |_| Bdd::TRUE, &ImplicitConfig { k: 8, jobs });
            assert_eq!(report.reachable_states, m.num_states() as u128);
            assert_eq!(
                report.reachable_cells,
                (m.num_states() * m.num_inputs()) as u128
            );
            assert_eq!(report.valid_inputs, 4);
            assert_eq!(
                report.output_faults,
                report.reachable_cells * n.num_outputs() as u128
            );
            assert_eq!(report.output_detected, report.output_faults);
            assert_eq!(
                report.transfer_faults,
                report.reachable_cells * n.num_latches() as u128
            );
            assert_eq!(
                report.transfer_detected + report.escapes,
                report.transfer_faults
            );
            assert!(!report.counts_saturate);
            assert!(report.sym.shard_managers >= 2);
        }
        // Job counts must not change any reported number.
        let a = run_implicit_campaign(&n, |_| Bdd::TRUE, &ImplicitConfig { k: 8, jobs: 1 });
        let b = run_implicit_campaign(&n, |_| Bdd::TRUE, &ImplicitConfig { k: 8, jobs: 8 });
        assert_eq!(format!("{a}"), format!("{b}"));
        assert_eq!(a.sym, b.sym);
    }
}
