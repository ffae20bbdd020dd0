//! The core netlist data structure: gates, latches, inputs, outputs,
//! modules, and cycle-accurate simulation.

use std::collections::HashMap;
use std::fmt;

/// Handle to a combinational signal (a node in the gate DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index (stable for the lifetime of the netlist).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a latch (state element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LatchId(pub(crate) u32);

impl LatchId {
    /// Raw index into the latch table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a primary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputId(pub(crate) u32);

impl InputId {
    /// Raw index into the input table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A gate of the combinational DAG, generic over its operands: the node
/// table stores [`NodeKind`]s (operands are [`SignalId`]s), and
/// [`Netlist::fold`] hands its closure `Gate`s whose operands are the
/// closure's own results for those signals.
///
/// The node set is minimal but complete (`Mux` is included because control
/// logic is mux-heavy and it keeps cones readable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate<S> {
    /// Constant 0 or 1.
    Const(bool),
    /// Primary input.
    Input(InputId),
    /// Output of a latch (current-state bit).
    LatchOut(LatchId),
    /// Negation.
    Not(S),
    /// Conjunction.
    And(S, S),
    /// Disjunction.
    Or(S, S),
    /// Exclusive or.
    Xor(S, S),
    /// `Mux(sel, t, e)` = `sel ? t : e`.
    Mux(S, S, S),
}

/// A node of the netlist's gate DAG.
pub type NodeKind = Gate<SignalId>;

/// A state element: a D-latch clocked by the single global clock.
#[derive(Debug, Clone)]
pub struct Latch {
    /// Hierarchical name, e.g. `"ex.dest[1]"`.
    pub name: String,
    /// Power-on value.
    pub init: bool,
    /// Next-state function (must be set before simulation; see
    /// [`Netlist::set_latch_next`]).
    pub next: Option<SignalId>,
    /// Owning module (the unit of structural abstraction), e.g. `"fetch"`.
    pub module: String,
}

/// Summary statistics of a netlist (the numbers reported in Fig 3(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Number of latches (state elements).
    pub latches: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of gate nodes (including constants/input/latch-out nodes).
    pub nodes: usize,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} latches, {} PIs, {} POs, {} nodes",
            self.latches, self.inputs, self.outputs, self.nodes
        )
    }
}

/// A synchronous bit-level netlist.
///
/// Gates are hash-consed, so structurally identical expressions share
/// nodes. Latches, inputs and outputs are named; latches additionally carry
/// a `module` tag that the abstraction passes use as the unit of removal.
#[derive(Clone, Default)]
pub struct Netlist {
    pub(crate) nodes: Vec<NodeKind>,
    dedup: HashMap<NodeKind, SignalId>,
    pub(crate) inputs: Vec<String>,
    pub(crate) latches: Vec<Latch>,
    pub(crate) outputs: Vec<(String, SignalId)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    fn intern(&mut self, kind: NodeKind) -> SignalId {
        if let Some(&id) = self.dedup.get(&kind) {
            return id;
        }
        let id = SignalId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.dedup.insert(kind, id);
        id
    }

    /// The constant-`value` signal.
    pub fn constant(&mut self, value: bool) -> SignalId {
        self.intern(NodeKind::Const(value))
    }

    /// Declares a new primary input and returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let id = InputId(self.inputs.len() as u32);
        self.inputs.push(name.into());
        self.intern(NodeKind::Input(id))
    }

    /// Declares a new latch in module `""` with the given init value.
    ///
    /// The next-state function must be assigned with
    /// [`Netlist::set_latch_next`] before simulation.
    pub fn add_latch(&mut self, name: impl Into<String>, init: bool) -> LatchId {
        self.add_latch_in(name, init, "")
    }

    /// Declares a new latch inside the named module.
    pub fn add_latch_in(
        &mut self,
        name: impl Into<String>,
        init: bool,
        module: impl Into<String>,
    ) -> LatchId {
        let id = LatchId(self.latches.len() as u32);
        self.latches.push(Latch {
            name: name.into(),
            init,
            next: None,
            module: module.into(),
        });
        id
    }

    /// The current-state output signal of a latch.
    pub fn latch_output(&mut self, latch: LatchId) -> SignalId {
        self.intern(NodeKind::LatchOut(latch))
    }

    /// Assigns the next-state function of a latch.
    ///
    /// # Panics
    ///
    /// Panics if the latch id is out of range.
    pub fn set_latch_next(&mut self, latch: LatchId, next: SignalId) {
        self.latches[latch.index()].next = Some(next);
    }

    /// Declares a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, sig: SignalId) {
        self.outputs.push((name.into(), sig));
    }

    /// Negation gate.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        match self.nodes[a.index()] {
            NodeKind::Const(v) => self.constant(!v),
            NodeKind::Not(inner) => inner,
            _ => self.intern(NodeKind::Not(a)),
        }
    }

    /// Conjunction gate (with constant folding and commutativity
    /// normalisation).
    pub fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        match (self.nodes[a.index()], self.nodes[b.index()]) {
            (NodeKind::Const(false), _) | (_, NodeKind::Const(false)) => self.constant(false),
            (NodeKind::Const(true), _) => b,
            (_, NodeKind::Const(true)) => a,
            _ if a == b => a,
            _ => {
                let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                self.intern(NodeKind::And(x, y))
            }
        }
    }

    /// Disjunction gate.
    pub fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        match (self.nodes[a.index()], self.nodes[b.index()]) {
            (NodeKind::Const(true), _) | (_, NodeKind::Const(true)) => self.constant(true),
            (NodeKind::Const(false), _) => b,
            (_, NodeKind::Const(false)) => a,
            _ if a == b => a,
            _ => {
                let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                self.intern(NodeKind::Or(x, y))
            }
        }
    }

    /// Exclusive-or gate.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        match (self.nodes[a.index()], self.nodes[b.index()]) {
            (NodeKind::Const(false), _) => b,
            (_, NodeKind::Const(false)) => a,
            (NodeKind::Const(true), _) => self.not(b),
            (_, NodeKind::Const(true)) => self.not(a),
            _ if a == b => self.constant(false),
            _ => {
                let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                self.intern(NodeKind::Xor(x, y))
            }
        }
    }

    /// Multiplexer gate: `sel ? t : e`.
    pub fn mux(&mut self, sel: SignalId, t: SignalId, e: SignalId) -> SignalId {
        match self.nodes[sel.index()] {
            NodeKind::Const(true) => return t,
            NodeKind::Const(false) => return e,
            _ => {}
        }
        if t == e {
            return t;
        }
        self.intern(NodeKind::Mux(sel, t, e))
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Input names, in declaration order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().map(String::as_str)
    }

    /// Index of the input with the given name.
    pub fn input_by_name(&self, name: &str) -> Option<InputId> {
        self.inputs
            .iter()
            .position(|n| n == name)
            .map(|i| InputId(i as u32))
    }

    /// The latch table.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// All latch ids.
    pub fn latch_ids(&self) -> impl Iterator<Item = LatchId> {
        (0..self.latches.len() as u32).map(LatchId)
    }

    /// The latch with the given name.
    pub fn latch_by_name(&self, name: &str) -> Option<LatchId> {
        self.latches
            .iter()
            .position(|l| l.name == name)
            .map(|i| LatchId(i as u32))
    }

    /// Latches belonging to the given module.
    pub fn module_latches(&self, module: &str) -> Vec<LatchId> {
        self.latches
            .iter()
            .enumerate()
            .filter(|(_, l)| l.module == module)
            .map(|(i, _)| LatchId(i as u32))
            .collect()
    }

    /// The distinct module names present, in first-seen order.
    pub fn module_names(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for l in &self.latches {
            if !seen.contains(&l.module) {
                seen.push(l.module.clone());
            }
        }
        seen
    }

    /// The primary outputs (name, signal).
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// The gate kind of a signal.
    pub fn node(&self, sig: SignalId) -> NodeKind {
        self.nodes[sig.index()]
    }

    /// Number of gate nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The gate at index `idx`, if in range. Nodes are stored in
    /// topological order (operands precede users), so iterating
    /// `0..num_nodes()` visits every cone bottom-up.
    pub fn node_at(&self, idx: usize) -> Option<NodeKind> {
        self.nodes.get(idx).copied()
    }

    /// The [`SignalId`] for node index `idx`, if in range — the inverse of
    /// [`SignalId::index`], for read-only traversals (e.g. lints) that
    /// enumerate the node table.
    pub fn signal_at(&self, idx: usize) -> Option<SignalId> {
        (idx < self.nodes.len()).then_some(SignalId(idx as u32))
    }

    /// Summary statistics (the numbers reported per abstraction step in
    /// Fig 3(b)).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats {
            latches: self.latches.len(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            nodes: self.nodes.len(),
        }
    }

    /// The power-on state vector.
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches.iter().map(|l| l.init).collect()
    }

    /// One forward pass over the node table: hands each node to `f` with
    /// its operands replaced by `f`'s results for them, and returns every
    /// node's result (indexable by [`SignalId::index`]). Nodes are stored
    /// in topological order (operands precede users), so each operand is
    /// ready before its users and `f` sees the nodes in index order.
    pub fn fold<T: Copy>(&self, mut f: impl FnMut(Gate<T>) -> T) -> Vec<T> {
        let mut vals: Vec<T> = Vec::with_capacity(self.nodes.len());
        for &kind in &self.nodes {
            let val = |s: SignalId| vals[s.index()];
            // `f` is called in every arm rather than once on a mapped gate:
            // each inlined copy then matches a known variant, which keeps
            // `eval_all` at the speed of a hand-written loop.
            let v = match kind {
                Gate::Const(c) => f(Gate::Const(c)),
                Gate::Input(i) => f(Gate::Input(i)),
                Gate::LatchOut(l) => f(Gate::LatchOut(l)),
                Gate::Not(a) => f(Gate::Not(val(a))),
                Gate::And(a, b) => f(Gate::And(val(a), val(b))),
                Gate::Or(a, b) => f(Gate::Or(val(a), val(b))),
                Gate::Xor(a, b) => f(Gate::Xor(val(a), val(b))),
                Gate::Mux(s, t, e) => f(Gate::Mux(val(s), val(t), val(e))),
            };
            vals.push(v);
        }
        vals
    }

    /// The operands of `sig`'s gate, in operand order, for backward cone
    /// walks. Constants, inputs and latch outputs have none: a cone stops
    /// at a latch boundary.
    pub fn fanin(&self, sig: SignalId) -> impl Iterator<Item = SignalId> {
        let (ops, len) = match self.node(sig) {
            NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::LatchOut(_) => ([sig; 3], 0),
            NodeKind::Not(a) => ([a; 3], 1),
            NodeKind::And(a, b) | NodeKind::Or(a, b) | NodeKind::Xor(a, b) => ([a, b, b], 2),
            NodeKind::Mux(s, t, e) => ([s, t, e], 3),
        };
        ops.into_iter().take(len)
    }

    /// Evaluates every node under the given state and input vectors,
    /// returning the full value table (indexable by [`SignalId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `state` or `inputs` have the wrong length.
    pub fn eval_all(&self, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        assert_eq!(state.len(), self.latches.len(), "state width mismatch");
        assert_eq!(inputs.len(), self.inputs.len(), "input width mismatch");
        self.fold(|g: Gate<bool>| match g {
            Gate::Const(v) => v,
            Gate::Input(id) => inputs[id.index()],
            Gate::LatchOut(id) => state[id.index()],
            Gate::Not(a) => !a,
            Gate::And(a, b) => a && b,
            Gate::Or(a, b) => a || b,
            Gate::Xor(a, b) => a ^ b,
            Gate::Mux(s, t, e) => {
                if s {
                    t
                } else {
                    e
                }
            }
        })
    }

    /// Advances the circuit one clock cycle: returns `(next_state,
    /// outputs)` for the given current state and inputs.
    ///
    /// # Panics
    ///
    /// Panics if any latch has no next-state function assigned, or on
    /// width mismatch.
    pub fn step(&self, state: &[bool], inputs: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let vals = self.eval_all(state, inputs);
        let next = self
            .latches
            .iter()
            .map(|l| vals[l.next.expect("latch has no next-state function").index()])
            .collect();
        let outs = self.outputs.iter().map(|&(_, s)| vals[s.index()]).collect();
        (next, outs)
    }

    /// Validates structural invariants: every latch has a next function and
    /// all signal references are in range. Returns a list of problems
    /// (empty when well-formed).
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, l) in self.latches.iter().enumerate() {
            if l.next.is_none() {
                problems.push(format!(
                    "latch #{i} `{}` has no next-state function",
                    l.name
                ));
            }
        }
        let n = self.nodes.len() as u32;
        for (name, s) in &self.outputs {
            if s.0 >= n {
                problems.push(format!("output `{name}`: dangling signal {}", s.0));
            }
        }
        for l in &self.latches {
            if let Some(nx) = l.next.filter(|nx| nx.0 >= n) {
                problems.push(format!("latch `{}` next: dangling signal {}", l.name, nx.0));
            }
        }
        problems
    }
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Netlist({})", self.stats())
    }
}

/// A running simulation of a netlist: owns the current state vector.
///
/// # Example
///
/// ```
/// use simcov_netlist::{Netlist, SimState};
///
/// let mut n = Netlist::new();
/// let d = n.add_input("d");
/// let q = n.add_latch("q", false);
/// n.set_latch_next(q, d);
/// let qo = n.latch_output(q);
/// n.add_output("q", qo);
///
/// let mut sim = SimState::new(&n);
/// let out = sim.step(&n, &[true]);
/// assert_eq!(out, vec![false]); // outputs are pre-clock
/// let out = sim.step(&n, &[false]);
/// assert_eq!(out, vec![true]); // the 1 arrived after one cycle
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    state: Vec<bool>,
    cycle: u64,
}

impl SimState {
    /// Starts a simulation from the power-on state of `n`.
    pub fn new(n: &Netlist) -> Self {
        SimState {
            state: n.initial_state(),
            cycle: 0,
        }
    }

    /// The current state vector (one bool per latch).
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Applies one input vector, returning the outputs sampled *before*
    /// the clock edge, then advances the state.
    pub fn step(&mut self, n: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let (next, outs) = n.step(&self.state, inputs);
        self.state = next;
        self.cycle += 1;
        outs
    }

    /// Resets to the power-on state.
    pub fn reset(&mut self, n: &Netlist) {
        self.state = n.initial_state();
        self.cycle = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.and(a, b);
        let y = n.and(b, a); // commuted, must share
        assert_eq!(x, y);
    }

    #[test]
    fn constant_folding() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let t = n.constant(true);
        let f = n.constant(false);
        assert_eq!(n.and(a, t), a);
        assert_eq!(n.and(a, f), f);
        assert_eq!(n.or(a, f), a);
        assert_eq!(n.or(a, t), t);
        assert_eq!(n.xor(a, f), a);
        let na = n.not(a);
        assert_eq!(n.xor(a, t), na);
        assert_eq!(n.not(na), a);
        assert_eq!(n.mux(t, a, na), a);
        assert_eq!(n.mux(f, a, na), na);
        assert_eq!(n.mux(na, a, a), a);
    }

    #[test]
    fn xor_self_is_false() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        assert_eq!(n.xor(a, a), n.constant(false));
    }

    #[test]
    fn step_toggling_counter() {
        // 2-bit counter built from xor/and.
        let mut n = Netlist::new();
        let b0 = n.add_latch("b0", false);
        let b1 = n.add_latch("b1", false);
        let b0o = n.latch_output(b0);
        let b1o = n.latch_output(b1);
        let nb0 = n.not(b0o);
        let carry = b0o;
        let nb1 = n.xor(b1o, carry);
        n.set_latch_next(b0, nb0);
        n.set_latch_next(b1, nb1);
        n.add_output("b0", b0o);
        n.add_output("b1", b1o);
        let mut sim = SimState::new(&n);
        let mut seen = Vec::new();
        for _ in 0..5 {
            let o = sim.step(&n, &[]);
            seen.push((o[1], o[0]));
        }
        assert_eq!(
            seen,
            vec![
                (false, false),
                (false, true),
                (true, false),
                (true, true),
                (false, false)
            ]
        );
    }

    #[test]
    fn check_reports_unassigned_latch() {
        let mut n = Netlist::new();
        let _ = n.add_latch("q", false);
        let problems = n.check();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("no next-state"));
    }

    #[test]
    fn module_queries() {
        let mut n = Netlist::new();
        let a = n.add_latch_in("x", false, "fetch");
        let b = n.add_latch_in("y", true, "decode");
        let c = n.add_latch_in("z", false, "fetch");
        let t = n.constant(false);
        for l in [a, b, c] {
            n.set_latch_next(l, t);
        }
        assert_eq!(n.module_latches("fetch"), vec![a, c]);
        assert_eq!(
            n.module_names(),
            vec!["fetch".to_string(), "decode".to_string()]
        );
        assert_eq!(n.latch_by_name("y"), Some(b));
        assert_eq!(n.latch_by_name("nope"), None);
    }

    #[test]
    fn stats_and_names() {
        let mut n = Netlist::new();
        let a = n.add_input("in0");
        let q = n.add_latch("q", true);
        n.set_latch_next(q, a);
        let qo = n.latch_output(q);
        n.add_output("o", qo);
        let s = n.stats();
        assert_eq!(s.latches, 1);
        assert_eq!(s.inputs, 1);
        assert_eq!(s.outputs, 1);
        assert_eq!(n.input_by_name("in0"), Some(InputId(0)));
        assert_eq!(n.input_by_name("zzz"), None);
        assert_eq!(n.initial_state(), vec![true]);
        assert_eq!(format!("{s}"), "1 latches, 1 PIs, 1 POs, 2 nodes");
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn eval_wrong_width_panics() {
        let mut n = Netlist::new();
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        n.set_latch_next(q, qo);
        n.eval_all(&[], &[]);
    }
}
