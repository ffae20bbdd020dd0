//! The whole-model collapse analysis: from `(machine, fault list)` to a
//! validated [`CollapseCertificate`].
//!
//! Equivalence is only ever claimed between faults at the *same*
//! `(state, input)` cell (plus one global class for faults on unreachable
//! states): a fault's excitation time on any sequence is determined by
//! the cell alone — the faulty walk equals the golden walk until the
//! cell's first traversal — so faults at different cells can be told
//! apart by a test set that traverses one cell and not the other.
//! Within a cell, four facts drive the partition (DESIGN.md §13):
//!
//! 1. **Unreachable** — a fault on a state unreachable from reset is
//!    never excited (patching a state's outgoing edge cannot make the
//!    state reachable), so its outcome is `{not detected, not excited,
//!    not masked}` under every test set: one global class.
//! 2. **Ineffective** — a no-op fault (original destination or original
//!    output) patches the machine into itself; only excitation is
//!    observable, and that is cell-determined: one class per cell,
//!    covering both kinds.
//! 3. **Output** — every effective output fault at a cell is detected at
//!    the cell's first traversal inside the compared output prefix,
//!    whatever the wrong label; the state walk never diverges, so
//!    masking is impossible: one class per cell.
//! 4. **Transfer** — two effective transfer faults at a cell are
//!    equivalent iff their post-excitation *joint* walks (faulty state
//!    `p` stepped under the patch, golden state `q`) are bisimilar with
//!    respect to the labels the simulator observes: per-step output
//!    difference, per-side truncation, and state re-convergence
//!    (`p == q`, which is what [`simcov_core::is_masked_on`] reads).
//!    Decided pair by pair: each target is checked against each
//!    earlier class's representative by one Hopcroft–Karp run with
//!    union-find, which stops at the first distinguishing letter. Cells
//!    whose union graph over every target would exceed the node budget
//!    degrade soundly to singletons and are reported as ambiguous
//!    (`SC050`).
//!
//! Dominance: detecting an effective transfer fault at a cell requires
//! the faulty walk to diverge, which requires the cell to be traversed
//! inside the compared output prefix — exactly the condition under which
//! every effective output fault at that cell is detected. Hence every
//! effective transfer class *dominates* its cell's output class: any
//! test set detecting the former detects the latter.

use simcov_core::error_model::{Fault, FaultKind};
use simcov_core::{ClassKind, CollapseCertificate};
use simcov_fsm::{ExplicitMealy, InputSym, OutputSym, StateId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Tuning knobs for [`analyze_collapse`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Per-cell cap on the transfer-fault bisimulation's union graph: the
    /// joint configs `(target, p, q)` reachable from every target's start
    /// `(target, golden next)`, at most `targets × states²` of them. A
    /// cell with two or more effective targets whose union graph exceeds
    /// the cap keeps its faults as singletons — sound, just not
    /// collapsed — and is reported as ambiguous.
    pub max_nodes_per_cell: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            max_nodes_per_cell: 1 << 16,
        }
    }
}

/// A fault list the analysis (and any campaign) cannot process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeError {
    /// A fault sits on an undefined or out-of-range `(state, input)`
    /// cell — [`Fault::inject`] would panic on it, so no campaign could
    /// simulate it either.
    UndefinedFaultCell {
        /// Index of the offending fault.
        fault: usize,
    },
    /// A transfer fault's destination or an output fault's label is
    /// outside the machine's alphabets.
    InvalidFaultTarget {
        /// Index of the offending fault.
        fault: usize,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::UndefinedFaultCell { fault } => {
                write!(f, "fault {fault} sits on an undefined (state, input) cell")
            }
            AnalyzeError::InvalidFaultTarget { fault } => {
                write!(
                    f,
                    "fault {fault} targets a state or output outside the machine"
                )
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Aggregate accounting of one analysis run (rendered by `simcov
/// analyze` and fed to telemetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Faults analysed.
    pub faults: usize,
    /// Equivalence classes produced.
    pub classes: usize,
    /// Faults a `--collapse on` campaign skips (`faults - classes`).
    pub collapsed_faults: usize,
    /// Faults on unreachable states (all in the one global class).
    pub unreachable_faults: usize,
    /// No-op faults (grouped per cell).
    pub ineffective_faults: usize,
    /// Classes of kind [`ClassKind::Output`].
    pub output_classes: usize,
    /// Classes of kind [`ClassKind::Transfer`].
    pub transfer_classes: usize,
    /// Classes of kind [`ClassKind::Ineffective`].
    pub ineffective_classes: usize,
    /// Classes of kind [`ClassKind::Singleton`] (budget-exceeded cells).
    pub singleton_classes: usize,
    /// Dominance edges (transfer class over same-cell output class).
    pub dominance_edges: usize,
    /// Cells whose bisimulation exceeded the node budget.
    pub ambiguous_cells: usize,
}

/// The full analysis result: the certificate plus everything the lint
/// passes and reports surface about how it was obtained.
#[derive(Debug, Clone)]
pub struct CollapseAnalysis {
    /// The validated, campaign-consumable partition.
    pub certificate: CollapseCertificate,
    /// Cells whose transfer bisimulation exceeded the node budget (their
    /// faults stay singletons; surfaced as `SC050`).
    pub ambiguous_cells: Vec<(StateId, InputSym)>,
    /// Aggregate accounting.
    pub stats: AnalyzeStats,
}

/// Distinguishes the class-key variants when assigning canonical IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Unreachable,
    Ineffective(usize),
    Output(usize),
    Transfer(usize, u32),
    Ambiguous(usize, u32),
}

/// Computes the fault-equivalence partition of `faults` over `m` and
/// packages it as a bound [`CollapseCertificate`].
///
/// Classes are numbered canonically (first appearance in fault order),
/// each class's representative is its first member, and the certificate
/// carries the dominance edges described in the module docs. The
/// analysis is deterministic: same machine, fault list and options ⇒
/// bit-identical certificate (and fingerprint).
///
/// # Errors
///
/// [`AnalyzeError`] if any fault references an undefined cell or an
/// out-of-range target — such a fault cannot be simulated at all
/// ([`Fault::inject`] panics), so there is no outcome to collapse.
pub fn analyze_collapse(
    m: &ExplicitMealy,
    faults: &[Fault],
    opts: &AnalyzeOptions,
) -> Result<CollapseAnalysis, AnalyzeError> {
    let ns = m.num_states();
    let ni = m.num_inputs();
    let no = m.num_outputs() as u32;
    for (idx, f) in faults.iter().enumerate() {
        if f.state.index() >= ns || f.input.index() >= ni || m.step(f.state, f.input).is_none() {
            return Err(AnalyzeError::UndefinedFaultCell { fault: idx });
        }
        match f.kind {
            FaultKind::Transfer { new_next } if new_next.index() >= ns => {
                return Err(AnalyzeError::InvalidFaultTarget { fault: idx });
            }
            FaultKind::Output { new_output } if new_output.0 >= no => {
                return Err(AnalyzeError::InvalidFaultTarget { fault: idx });
            }
            _ => {}
        }
    }

    let mut reachable = vec![false; ns];
    for s in m.reachable_states() {
        reachable[s.index()] = true;
    }

    // Distinct effective transfer targets per cell, in fault order
    // (BTreeMap so the per-cell work is iterated deterministically).
    let mut transfer_targets: BTreeMap<usize, Vec<StateId>> = BTreeMap::new();
    for f in faults {
        if !reachable[f.state.index()] || !f.is_effective(m) {
            continue;
        }
        if let FaultKind::Transfer { new_next } = f.kind {
            let cell = f.state.index() * ni + f.input.index();
            let targets = transfer_targets.entry(cell).or_default();
            if !targets.contains(&new_next) {
                targets.push(new_next);
            }
        }
    }

    // Per-cell bisimulation classes of the targets (None = budget hit).
    let mut search = PairSearch::default();
    let mut cell_classes: HashMap<usize, Option<HashMap<u32, u32>>> = HashMap::new();
    let mut ambiguous_cells = Vec::new();
    for (&cell, targets) in &transfer_targets {
        let s = StateId((cell / ni) as u32);
        let i = InputSym((cell % ni) as u32);
        let classes = bisim_classes(
            &mut search,
            &Cell::new(m, s, i),
            targets,
            opts.max_nodes_per_cell,
        );
        if classes.is_none() {
            ambiguous_cells.push((s, i));
        }
        cell_classes.insert(cell, classes);
    }

    // Canonical class assignment: IDs by first appearance in fault order.
    let mut class_ids: HashMap<Key, u32> = HashMap::new();
    let mut class_of: Vec<u32> = Vec::with_capacity(faults.len());
    let mut kinds: Vec<ClassKind> = Vec::new();
    // For dominance: the cell of each class and whether it holds
    // effective transfer faults.
    let mut class_cell: Vec<Option<(usize, bool)>> = Vec::new();
    let mut unreachable_faults = 0usize;
    let mut ineffective_faults = 0usize;
    for f in faults {
        let cell = f.state.index() * ni + f.input.index();
        let (key, kind, cell_info) = if !reachable[f.state.index()] {
            unreachable_faults += 1;
            (Key::Unreachable, ClassKind::Unreachable, None)
        } else if !f.is_effective(m) {
            ineffective_faults += 1;
            (Key::Ineffective(cell), ClassKind::Ineffective, None)
        } else {
            match f.kind {
                FaultKind::Output { .. } => {
                    (Key::Output(cell), ClassKind::Output, Some((cell, false)))
                }
                FaultKind::Transfer { new_next } => match &cell_classes[&cell] {
                    Some(by_target) => (
                        Key::Transfer(cell, by_target[&new_next.0]),
                        ClassKind::Transfer,
                        Some((cell, true)),
                    ),
                    // Budget exceeded: identical faults still share a
                    // class (trivial equivalence); distinct targets don't.
                    None => (
                        Key::Ambiguous(cell, new_next.0),
                        ClassKind::Singleton,
                        Some((cell, true)),
                    ),
                },
            }
        };
        let fresh = kinds.len() as u32;
        let c = *class_ids.entry(key).or_insert_with(|| {
            kinds.push(kind);
            class_cell.push(cell_info);
            fresh
        });
        class_of.push(c);
    }

    // Dominance: every effective transfer class over its cell's output
    // class, ascending by dominating class ID.
    let mut output_at_cell: HashMap<usize, u32> = HashMap::new();
    for (c, info) in class_cell.iter().enumerate() {
        if let Some((cell, false)) = info {
            output_at_cell.insert(*cell, c as u32);
        }
    }
    let mut dominance: Vec<(u32, u32)> = Vec::new();
    for (c, info) in class_cell.iter().enumerate() {
        if let Some((cell, true)) = info {
            if let Some(&oc) = output_at_cell.get(cell) {
                dominance.push((c as u32, oc));
            }
        }
    }

    let certificate = CollapseCertificate::new(m, faults, class_of, kinds, dominance)
        .expect("analysis emits canonical classes by construction");
    let count = |k: ClassKind| certificate.kinds().iter().filter(|&&x| x == k).count();
    let stats = AnalyzeStats {
        faults: faults.len(),
        classes: certificate.num_classes(),
        collapsed_faults: certificate.collapsed_faults(),
        unreachable_faults,
        ineffective_faults,
        output_classes: count(ClassKind::Output),
        transfer_classes: count(ClassKind::Transfer),
        ineffective_classes: count(ClassKind::Ineffective),
        singleton_classes: count(ClassKind::Singleton),
        dominance_edges: certificate.dominance().len(),
        ambiguous_cells: ambiguous_cells.len(),
    };
    Ok(CollapseAnalysis {
        certificate,
        ambiguous_cells,
        stats,
    })
}

/// Bisimulation classes of the transfer `targets` at `cell`: `target.0
/// -> class` with classes numbered by first appearance in target order,
/// or `None` when the cell's union graph exceeds `max_nodes`.
///
/// A joint config `(p, q)` pairs the faulty state `p`, stepped under the
/// patch (the cell's destination replaced by the target), with the golden
/// state `q`; each target's walk starts at `(target, golden next)`. What
/// the simulator observes of a config in one step is state re-convergence
/// `p == q` plus, per input, one letter: which side truncates (0 faulty,
/// 1 golden, 2 both) or, when both step, output agreement (3) or
/// difference (4). Two targets are bisimilar iff every input word yields
/// the same letters from their starts, and then their `detects` /
/// `is_masked_on` results agree on every sequence. Bisimilarity is an
/// equivalence, so each target is checked against one representative per
/// earlier class, in class order, and the first match gives its class.
fn bisim_classes(
    search: &mut PairSearch,
    cell: &Cell,
    targets: &[StateId],
    max_nodes: usize,
) -> Option<HashMap<u32, u32>> {
    if targets.len() == 1 {
        return Some(HashMap::from([(targets[0].0, 0u32)]));
    }
    if search.union_graph_exceeds(cell, targets, max_nodes) {
        return None;
    }
    let mut reps: Vec<StateId> = Vec::new();
    let mut out = HashMap::with_capacity(targets.len());
    for &t in targets {
        let class = match reps.iter().position(|&r| search.bisimilar(cell, r, t)) {
            Some(c) => c,
            None => {
                reps.push(t);
                reps.len() - 1
            }
        };
        out.insert(t.0, class as u32);
    }
    Some(out)
}

/// One faulted cell `(s, i)` of `m`, with its golden step.
struct Cell<'m> {
    m: &'m ExplicitMealy,
    s: StateId,
    i: usize,
    /// The golden destination, where every target's golden walk starts.
    next: StateId,
    /// The cell's output, which every transfer fault keeps.
    out: OutputSym,
}

impl<'m> Cell<'m> {
    fn new(m: &'m ExplicitMealy, s: StateId, i: InputSym) -> Self {
        let (next, out) = m.step(s, i).expect("caller validated the cell");
        Cell {
            m,
            s,
            i: i.index(),
            next,
            out,
        }
    }

    /// `step`, the golden step of `p` on input `x`, as the faulty machine
    /// whose cell leads to `target` takes it.
    fn patch(
        &self,
        target: StateId,
        p: StateId,
        x: usize,
        step: Option<(StateId, OutputSym)>,
    ) -> Option<(StateId, OutputSym)> {
        if p == self.s && x == self.i {
            Some((target, self.out))
        } else {
            step
        }
    }

    /// The map key of side `side`'s config `(p, q)`. `2 · states²` fits a
    /// `u64` for any machine whose state labels fit in memory.
    fn key(&self, side: u64, p: StateId, q: StateId) -> u64 {
        let ns = self.m.num_states() as u64;
        (side * ns + u64::from(p.0)) * ns + u64::from(q.0)
    }
}

/// Multiplicative hashing for the packed config keys: one multiply, then
/// the high half folded into the low half, which picks the bucket. The
/// keys are indices below `2 · states²` that the analysis computes, not
/// values read from outside, so SipHash's collision resistance would
/// only cost time here.
#[derive(Default)]
struct MulHash(u64);

impl Hasher for MulHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the config map hashes only u64 keys")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ h >> 32
    }
}

/// Scratch reused by every check of an analysis: one config map, the
/// union-find over its node ids, and the pending state triples.
#[derive(Default)]
struct PairSearch {
    ids: HashMap<u64, u32, BuildHasherDefault<MulHash>>,
    parent: Vec<u32>,
    work: Vec<(StateId, StateId, StateId)>,
}

impl PairSearch {
    fn clear(&mut self) {
        self.ids.clear();
        self.parent.clear();
        self.work.clear();
    }

    /// The node id of `key`, and whether it is new.
    fn intern(&mut self, key: u64) -> (u32, bool) {
        let fresh = self.parent.len() as u32;
        let id = *self.ids.entry(key).or_insert(fresh);
        if id == fresh {
            self.parent.push(fresh);
        }
        (id, id == fresh)
    }

    /// The union-find root of `key`'s node (path halving).
    fn find(&mut self, key: u64) -> u32 {
        let mut x = self.intern(key).0;
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    /// Whether the union graph, Σ over targets of the configs reachable
    /// from `(target, golden next)`, has more than `budget` nodes. Only
    /// when `targets × states²` exceeds the budget can it, so only then is
    /// it counted, by a search that stops one node past the budget.
    fn union_graph_exceeds(&mut self, cell: &Cell, targets: &[StateId], budget: usize) -> bool {
        let ns = cell.m.num_states();
        if targets.len().saturating_mul(ns).saturating_mul(ns) <= budget {
            return false;
        }
        let mut counted = 0;
        for &t in targets {
            self.clear();
            self.intern(cell.key(0, t, cell.next));
            self.work.push((t, t, cell.next));
            while let Some((t, p, q)) = self.work.pop() {
                if counted + self.parent.len() > budget {
                    return true;
                }
                let rows = cell.m.row(p).iter().zip(cell.m.row(q));
                for (x, (&f, &g)) in rows.enumerate() {
                    if let (Some((np, _)), Some((nq, _))) = (cell.patch(t, p, x, f), g) {
                        if self.intern(cell.key(0, np, nq)).1 {
                            self.work.push((t, np, nq));
                        }
                    }
                }
            }
            counted += self.parent.len();
        }
        counted > budget
    }

    /// Whether targets `a` and `b` are bisimilar at `cell`, by Hopcroft
    /// and Karp's check: union-find joins the configs assumed equivalent.
    /// Each triple `(p_a, p_b, q)` shares the golden state `q`, since both
    /// sides read the same word. Taken in breadth-first order, it compares
    /// both sides' observations and queues a successor triple only when
    /// its two configs were not yet joined. The first difference answers
    /// no.
    fn bisimilar(&mut self, cell: &Cell, a: StateId, b: StateId) -> bool {
        self.clear();
        let ra = self.intern(cell.key(0, a, cell.next)).0;
        let rb = self.intern(cell.key(1, b, cell.next)).0;
        self.parent[rb as usize] = ra;
        self.work.push((a, b, cell.next));
        let mut cursor = 0;
        while let Some(&(pa, pb, q)) = self.work.get(cursor) {
            cursor += 1;
            if (pa == q) != (pb == q) {
                return false;
            }
            let rows = cell.m.row(pa).iter().zip(cell.m.row(pb)).zip(cell.m.row(q));
            for (x, ((&fa, &fb), &g)) in rows.enumerate() {
                match (cell.patch(a, pa, x, fa), cell.patch(b, pb, x, fb), g) {
                    (Some((na, oa)), Some((nb, ob)), Some((nq, oq))) => {
                        if (oa == oq) != (ob == oq) {
                            return false;
                        }
                        let ra = self.find(cell.key(0, na, nq));
                        let rb = self.find(cell.key(1, nb, nq));
                        if ra != rb {
                            self.parent[rb as usize] = ra;
                            self.work.push((na, nb, nq));
                        }
                    }
                    // A truncation letter ends the branch: both sides
                    // read the same one iff both step or neither does.
                    (fa, fb, _) => {
                        if fa.is_some() != fb.is_some() {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::testutil::figure2;
    use simcov_core::{enumerate_single_faults, FaultSpace};
    use simcov_fsm::{MealyBuilder, OutputSym};

    /// A machine with two bisimilar-but-distinct states `d1` / `d2` and
    /// a behaviourally different state `a`, all valid transfer targets
    /// for the cell `(a, x)` (golden next `b`).
    fn twin_targets() -> (ExplicitMealy, StateId, InputSym) {
        let mut b = MealyBuilder::new();
        let a = b.add_state("a");
        let bb = b.add_state("b");
        let d1 = b.add_state("d1");
        let d2 = b.add_state("d2");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let o0 = b.add_output("o0");
        let o1 = b.add_output("o1");
        b.add_transition(a, x, bb, o0);
        b.add_transition(a, y, a, o0);
        b.add_transition(bb, x, a, o1);
        b.add_transition(bb, y, bb, o0);
        b.add_transition(d1, x, a, o0);
        b.add_transition(d1, y, d1, o1);
        b.add_transition(d2, x, a, o0);
        b.add_transition(d2, y, d2, o1);
        let m = b.build(a).unwrap();
        (m, a, x)
    }

    fn transfer(s: StateId, i: InputSym, t: StateId) -> Fault {
        Fault {
            state: s,
            input: i,
            kind: FaultKind::Transfer { new_next: t },
        }
    }

    fn output(s: StateId, i: InputSym, o: u32) -> Fault {
        Fault {
            state: s,
            input: i,
            kind: FaultKind::Output {
                new_output: OutputSym(o),
            },
        }
    }

    #[test]
    fn bisimilar_transfer_targets_share_a_class() {
        let (m, a, x) = twin_targets();
        let faults = vec![
            transfer(a, x, StateId(2)), // -> d1
            transfer(a, x, StateId(3)), // -> d2
            transfer(a, x, a),          // -> a (behaviourally different)
        ];
        let r = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        let c = r.certificate.class_of();
        assert_eq!(c[0], c[1], "d1 and d2 are bisimilar targets");
        assert_ne!(c[0], c[2], "a is observably different");
        assert_eq!(r.certificate.num_classes(), 2);
        assert_eq!(r.certificate.kinds(), &[ClassKind::Transfer; 2]);
        assert!(r.ambiguous_cells.is_empty());
        assert_eq!(r.stats.collapsed_faults, 1);
    }

    #[test]
    fn output_faults_at_one_cell_collapse() {
        let (m, a, x) = twin_targets();
        // Three effective relabellings of (a, x) plus the no-op one.
        let faults = vec![
            output(a, x, 1),
            output(a, x, 0),            // golden output: ineffective
            transfer(a, x, StateId(1)), // golden next: ineffective
        ];
        let r = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        let c = r.certificate.class_of();
        assert_eq!(
            c[1], c[2],
            "no-op faults of both kinds share the cell's ineffective class"
        );
        assert_ne!(c[0], c[1]);
        assert_eq!(
            r.certificate.kinds(),
            &[ClassKind::Output, ClassKind::Ineffective]
        );
        assert_eq!(r.stats.ineffective_faults, 2);
    }

    #[test]
    fn unreachable_faults_form_one_global_class() {
        // d1/d2 are unreachable in twin_targets (nothing reaches them).
        let (m, a, x) = twin_targets();
        let y = InputSym(1);
        let faults = vec![
            transfer(StateId(2), x, a), // on unreachable d1
            output(StateId(3), y, 0),   // on unreachable d2
            output(a, x, 1),            // reachable, for contrast
        ];
        let r = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        let c = r.certificate.class_of();
        assert_eq!(
            c[0], c[1],
            "unreachable faults merge across cells and kinds"
        );
        assert_ne!(c[0], c[2]);
        assert_eq!(r.certificate.kinds()[0], ClassKind::Unreachable);
        assert_eq!(r.stats.unreachable_faults, 2);
    }

    #[test]
    fn budget_exceeded_degrades_to_singletons() {
        let (m, a, x) = twin_targets();
        let faults = vec![
            transfer(a, x, StateId(2)),
            transfer(a, x, StateId(3)),
            transfer(a, x, StateId(2)), // duplicate of fault 0
        ];
        let opts = AnalyzeOptions {
            max_nodes_per_cell: 1,
        };
        let r = analyze_collapse(&m, &faults, &opts).unwrap();
        let c = r.certificate.class_of();
        assert_ne!(c[0], c[1], "distinct targets stay apart under budget");
        assert_eq!(c[0], c[2], "identical faults still share trivially");
        assert_eq!(r.ambiguous_cells, vec![(a, x)]);
        assert_eq!(r.certificate.kinds(), &[ClassKind::Singleton; 2]);
        assert_eq!(r.stats.singleton_classes, 2);
    }

    #[test]
    fn dominance_edges_point_at_the_cells_output_class() {
        let (m, a, x) = twin_targets();
        let faults = vec![
            output(a, x, 1),            // class 0: output
            transfer(a, x, StateId(2)), // class 1: transfer
            transfer(a, x, a),          // class 2: transfer
        ];
        let r = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        assert_eq!(r.certificate.dominance(), &[(1, 0), (2, 0)]);
        assert_eq!(r.stats.dominance_edges, 2);
    }

    #[test]
    fn rejects_undefined_cells_and_bad_targets() {
        // A partial machine: (s0, j) has no transition.
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let i = b.add_input("i");
        let j = b.add_input("j");
        let o = b.add_output("o");
        b.add_transition(s0, i, s0, o);
        let m = b.build(s0).unwrap();
        let err =
            analyze_collapse(&m, &[transfer(s0, j, s0)], &AnalyzeOptions::default()).unwrap_err();
        assert_eq!(err, AnalyzeError::UndefinedFaultCell { fault: 0 });

        let (m2, a, x) = twin_targets();
        let err = analyze_collapse(
            &m2,
            &[transfer(a, x, StateId(99))],
            &AnalyzeOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, AnalyzeError::InvalidFaultTarget { fault: 0 });
        let err =
            analyze_collapse(&m2, &[output(a, x, 99)], &AnalyzeOptions::default()).unwrap_err();
        assert_eq!(err, AnalyzeError::InvalidFaultTarget { fault: 0 });
    }

    #[test]
    fn analysis_is_deterministic_and_binds_the_campaign() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let a = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        let b = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        assert_eq!(a.certificate, b.certificate);
        assert_eq!(a.certificate.fingerprint(), b.certificate.fingerprint());
        assert!(a.certificate.check(&m, &faults).is_ok());
        assert!(
            a.stats.collapsed_faults > 0,
            "figure2's enumerated fault space must collapse somewhere"
        );
    }
}
