//! Structural abstraction operators.
//!
//! These are the topological operations Section 6.1 of the paper describes:
//! *"an abstraction over state variables can be implemented by removing
//! certain state elements from the concrete model, and all of the logic
//! associated with only that part — this is a simple topological operation.
//! Any communication signals between the abstract model and the parts
//! abstracted out are now considered as input/output signals for the
//! abstract model."*
//!
//! Every transform is functional (takes `&Netlist`, returns a fresh
//! [`Netlist`]) and finishes with a [`sweep`] so dead logic, unread latches
//! and unused primary inputs disappear from the statistics — the latch
//! counts of Fig 3(b) are exactly `result.stats().latches`.

use crate::circuit::{Gate, LatchId, Netlist, NodeKind, SignalId};
use std::collections::HashSet;

/// How the rewriter treats each source latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Copy the latch into the destination.
    Keep,
    /// Remove the latch; nothing reachable from the outputs reads it
    /// (the sweep's plan for dead state).
    Drop,
    /// Remove the latch; its output becomes a fresh primary input
    /// (the paper's cut-signals-become-inputs semantics).
    CutToInput,
    /// Remove the latch; uses of its output are replaced by its
    /// next-state function (used for synchronizing output latches, which
    /// only delay a signal by one cycle).
    Bypass,
    /// Remove the latch; uses of its output are replaced by a constant.
    Constant(bool),
    /// Member of a one-hot group being re-encoded: uses of its output are
    /// replaced by a decode of the group's new binary register.
    OneHotMember,
}

/// How the rewriter treats each source primary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputPlan {
    /// Copy the input into the destination.
    Keep,
    /// Remove the input; nothing reachable from the outputs reads it.
    Drop,
    /// Remove the input; its uses read a constant instead.
    Constant(bool),
}

/// A one-hot latch group scheduled for binary re-encoding.
struct OneHotGroup {
    members: Vec<LatchId>,
    new_name: String,
    module: String,
    init_index: u64,
}

/// Error produced by [`reencode_onehot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReencodeError {
    /// The group is empty or has a single member.
    GroupTooSmall,
    /// Not exactly one member latch initialises to 1.
    BadInit {
        /// Number of members whose power-on value is 1.
        hot_count: usize,
    },
    /// A latch id occurs twice in the group.
    DuplicateMember(LatchId),
}

impl std::fmt::Display for ReencodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReencodeError::GroupTooSmall => {
                write!(f, "one-hot group must have at least two members")
            }
            ReencodeError::BadInit { hot_count } => write!(
                f,
                "one-hot group must initialise with exactly one hot bit, found {hot_count}"
            ),
            ReencodeError::DuplicateMember(l) => {
                write!(f, "latch {:?} listed twice in one-hot group", l)
            }
        }
    }
}

impl std::error::Error for ReencodeError {}

/// Copies a netlist under per-input and per-latch plans: every transform
/// in this module is one plan set. Cones are mapped on demand, depth
/// first in operand order, so the destination's node order is a function
/// of the source and the plans alone.
struct Rewriter<'a> {
    src: &'a Netlist,
    dst: Netlist,
    plans: Vec<Plan>,
    memo: Vec<Option<SignalId>>,
    /// Destination signal of each source input (`None` when dropped).
    input_sigs: Vec<Option<SignalId>>,
    /// Destination signal standing for each kept, cut or one-hot member
    /// latch's output.
    latch_sigs: Vec<Option<SignalId>>,
    /// `(source latch, destination latch)` for each kept latch.
    kept: Vec<(usize, LatchId)>,
    group_handles: Vec<crate::build::RegisterHandle>,
    bypass_stack: HashSet<usize>,
}

impl<'a> Rewriter<'a> {
    fn new(
        src: &'a Netlist,
        inputs: &[InputPlan],
        plans: Vec<Plan>,
        groups: &[OneHotGroup],
    ) -> Self {
        assert_eq!(inputs.len(), src.num_inputs());
        assert_eq!(plans.len(), src.num_latches());
        let mut dst = Netlist::new();
        // Inputs first, preserving order and names.
        let input_sigs = src
            .input_names()
            .zip(inputs)
            .map(|(name, plan)| match *plan {
                InputPlan::Keep => Some(dst.add_input(name.to_string())),
                InputPlan::Drop => None,
                InputPlan::Constant(v) => Some(dst.constant(v)),
            })
            .collect();
        // Kept latches next, preserving order, names, modules and inits.
        let mut latch_sigs = vec![None; src.num_latches()];
        let mut kept = Vec::new();
        for (i, l) in src.latches().iter().enumerate() {
            if plans[i] == Plan::Keep {
                let nl = dst.add_latch_in(l.name.clone(), l.init, l.module.clone());
                latch_sigs[i] = Some(dst.latch_output(nl));
                kept.push((i, nl));
            }
        }
        // Fresh inputs for cut latches (named after the latch).
        for (i, l) in src.latches().iter().enumerate() {
            if plans[i] == Plan::CutToInput {
                latch_sigs[i] = Some(dst.add_input(format!("cut:{}", l.name)));
            }
        }
        // Binary registers for one-hot groups, plus per-member decodes.
        let mut group_handles = Vec::new();
        for g in groups {
            let width = bits_for(g.members.len() as u64);
            let (word, handle) =
                crate::build::Word::register(&mut dst, &g.new_name, width, g.init_index, &g.module);
            for (idx, &m) in g.members.iter().enumerate() {
                latch_sigs[m.index()] = Some(word.eq_const(&mut dst, idx as u64));
            }
            // Handles are kept so the binary next functions can be wired
            // after the member next-state cones have been mapped.
            group_handles.push(handle);
        }
        Rewriter {
            src,
            dst,
            plans,
            memo: vec![None; src.num_nodes()],
            input_sigs,
            latch_sigs,
            kept,
            group_handles,
            bypass_stack: HashSet::new(),
        }
    }

    fn map(&mut self, sig: SignalId) -> SignalId {
        if let Some(m) = self.memo[sig.index()] {
            return m;
        }
        let mapped = match self.src.node(sig) {
            NodeKind::Const(v) => self.dst.constant(v),
            NodeKind::Input(i) => self.input_sigs[i.index()].expect("a dropped input is unread"),
            NodeKind::LatchOut(l) => match self.plans[l.index()] {
                Plan::Constant(v) => self.dst.constant(v),
                Plan::Bypass => {
                    let latch = &self.src.latches()[l.index()];
                    assert!(
                        self.bypass_stack.insert(l.index()),
                        "bypass cycle through latch `{}`",
                        latch.name
                    );
                    let next = latch.next.expect("bypassed latch has no next function");
                    let r = self.map(next);
                    self.bypass_stack.remove(&l.index());
                    r
                }
                _ => self.latch_sigs[l.index()].expect("a dropped latch is unread"),
            },
            NodeKind::Not(a) => {
                let a = self.map(a);
                self.dst.not(a)
            }
            NodeKind::And(a, b) => {
                let (a, b) = (self.map(a), self.map(b));
                self.dst.and(a, b)
            }
            NodeKind::Or(a, b) => {
                let (a, b) = (self.map(a), self.map(b));
                self.dst.or(a, b)
            }
            NodeKind::Xor(a, b) => {
                let (a, b) = (self.map(a), self.map(b));
                self.dst.xor(a, b)
            }
            NodeKind::Mux(s, t, e) => {
                let (s, t, e) = (self.map(s), self.map(t), self.map(e));
                self.dst.mux(s, t, e)
            }
        };
        self.memo[sig.index()] = Some(mapped);
        mapped
    }

    fn finish(mut self, groups: &[OneHotGroup], keep_output: impl Fn(&str) -> bool) -> Netlist {
        // Wire kept latches' next functions.
        for (i, dst_latch) in std::mem::take(&mut self.kept) {
            let next = self.src.latches()[i]
                .next
                .expect("kept latch has no next function");
            let mapped = self.map(next);
            self.dst.set_latch_next(dst_latch, mapped);
        }
        // Wire one-hot groups: binary bit j next = OR of mapped old nexts
        // whose member index has bit j set.
        let handles = std::mem::take(&mut self.group_handles);
        for (g, handle) in groups.iter().zip(handles) {
            let width = bits_for(g.members.len() as u64);
            let member_nexts: Vec<SignalId> = g
                .members
                .iter()
                .map(|&m| {
                    let next = self.src.latches()[m.index()]
                        .next
                        .expect("one-hot member has no next function");
                    self.map(next)
                })
                .collect();
            let mut next_bits = Vec::with_capacity(width);
            for j in 0..width {
                let mut acc = self.dst.constant(false);
                for (idx, &nx) in member_nexts.iter().enumerate() {
                    if (idx >> j) & 1 == 1 {
                        acc = self.dst.or(acc, nx);
                    }
                }
                next_bits.push(acc);
            }
            handle.set_next(&mut self.dst, &crate::build::Word::from_bits(next_bits));
        }
        // Outputs.
        for (name, sig) in self.src.outputs() {
            if keep_output(name) {
                let mapped = self.map(*sig);
                self.dst.add_output(name.clone(), mapped);
            }
        }
        self.dst
    }
}

fn bits_for(n: u64) -> usize {
    (64 - (n - 1).leading_zeros()) as usize
}

/// Rewrites `src` under the given plans, keeping the outputs `keep_output`
/// accepts.
fn rewrite(
    src: &Netlist,
    inputs: &[InputPlan],
    plans: Vec<Plan>,
    groups: &[OneHotGroup],
    keep_output: impl Fn(&str) -> bool,
) -> Netlist {
    Rewriter::new(src, inputs, plans, groups).finish(groups, keep_output)
}

/// Removes logic, latches and primary inputs that cannot influence any
/// primary output (directly or through state). Order and names of the
/// survivors are preserved.
pub fn sweep(src: &Netlist) -> Netlist {
    // Mark the inputs and latches transitively read from outputs.
    let mut live_inputs = vec![false; src.num_inputs()];
    let mut live_latches = vec![false; src.num_latches()];
    let mut visited = vec![false; src.num_nodes()];
    let mut stack: Vec<SignalId> = src.outputs().iter().map(|&(_, s)| s).collect();
    while let Some(sig) = stack.pop() {
        if std::mem::replace(&mut visited[sig.index()], true) {
            continue;
        }
        match src.node(sig) {
            NodeKind::Input(i) => live_inputs[i.index()] = true,
            NodeKind::LatchOut(l) => {
                live_latches[l.index()] = true;
                stack.extend(src.latches()[l.index()].next);
            }
            _ => stack.extend(src.fanin(sig)),
        }
    }
    let inputs: Vec<InputPlan> = live_inputs
        .iter()
        .map(|&live| {
            if live {
                InputPlan::Keep
            } else {
                InputPlan::Drop
            }
        })
        .collect();
    let plans = live_latches
        .iter()
        .map(|&live| if live { Plan::Keep } else { Plan::Drop })
        .collect();
    rewrite(src, &inputs, plans, &[], |_| true)
}

fn apply_plans(
    src: &Netlist,
    plans: Vec<Plan>,
    groups: &[OneHotGroup],
    keep_output: impl Fn(&str) -> bool,
) -> Netlist {
    let inputs = vec![InputPlan::Keep; src.num_inputs()];
    sweep(&rewrite(src, &inputs, plans, groups, keep_output))
}

/// Removes the latches selected by `pred`; their outputs become fresh
/// primary inputs named `cut:<latch name>` (the paper's semantics for
/// signals crossing the abstraction boundary), then sweeps.
pub fn abstract_latches(
    src: &Netlist,
    pred: impl Fn(LatchId, &crate::circuit::Latch) -> bool,
) -> Netlist {
    let plans = src
        .latches()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if pred(LatchId(i as u32), l) {
                Plan::CutToInput
            } else {
                Plan::Keep
            }
        })
        .collect();
    apply_plans(src, plans, &[], |_| true)
}

/// Removes an entire module: all its latches are cut to inputs, then the
/// netlist is swept. This is Fig 3(b)'s *"fetch controller removed"* step.
pub fn remove_module(src: &Netlist, module: &str) -> Netlist {
    abstract_latches(src, |_, l| l.module == module)
}

/// Bypasses the latches selected by `pred`: every use of the latch output
/// is replaced by the latch's next-state function (a one-cycle retiming).
/// This is Fig 3(b)'s *"no synchronizing latches for outputs"* step —
/// synchronizing latches only delay already-computed control signals.
///
/// # Panics
///
/// Panics if a bypassed latch's next function depends (combinationally,
/// through other bypassed latches) on itself.
pub fn bypass_latches(
    src: &Netlist,
    pred: impl Fn(LatchId, &crate::circuit::Latch) -> bool,
) -> Netlist {
    let plans = src
        .latches()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if pred(LatchId(i as u32), l) {
                Plan::Bypass
            } else {
                Plan::Keep
            }
        })
        .collect();
    apply_plans(src, plans, &[], |_| true)
}

/// Replaces the latches selected by `pred` with constants (their init
/// values), then sweeps. Used when an abstraction step proves a flag
/// redundant (e.g. the r0/link special-case flags once the register file
/// shrinks to 4 registers).
pub fn constant_fold_latches(
    src: &Netlist,
    pred: impl Fn(LatchId, &crate::circuit::Latch) -> bool,
) -> Netlist {
    let plans = src
        .latches()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if pred(LatchId(i as u32), l) {
                Plan::Constant(l.init)
            } else {
                Plan::Keep
            }
        })
        .collect();
    apply_plans(src, plans, &[], |_| true)
}

/// Drops every primary output for which `keep` returns `false`, then
/// sweeps — Fig 3(b)'s *"remove outputs not affecting control logic"*:
/// observation-only state feeding those outputs disappears with them.
pub fn remove_outputs(src: &Netlist, keep: impl Fn(&str) -> bool) -> Netlist {
    let plans = vec![Plan::Keep; src.num_latches()];
    apply_plans(src, plans, &[], keep)
}

/// Ties the named primary inputs to constant `value`, then sweeps. This
/// models input-space abstractions such as *"4 registers instead of 32"*:
/// under the restricted input format the upper register-address bits are
/// identically zero, so tying them is exact on the restricted space, and
/// latches whose cones collapse to constants fall away (combine with
/// [`fold_constant_latches`]).
///
/// Unknown names are ignored (tying an already-removed input is a no-op).
pub fn tie_inputs(src: &Netlist, names: &[&str], value: bool) -> Netlist {
    let tied: HashSet<&str> = names.iter().copied().collect();
    let inputs: Vec<InputPlan> = src
        .input_names()
        .map(|name| {
            if tied.contains(name) {
                InputPlan::Constant(value)
            } else {
                InputPlan::Keep
            }
        })
        .collect();
    let plans = vec![Plan::Keep; src.num_latches()];
    sweep(&rewrite(src, &inputs, plans, &[], |_| true))
}

/// Sequential constant sweeping: finds the *greatest* set of latches
/// provably stuck at their initial values and replaces them with
/// constants.
///
/// The analysis is co-inductive: start by assuming every latch stuck at
/// its init value, then repeatedly discard latches whose next-state cone
/// does not constant-propagate to the init value under that assumption
/// (inputs are unknown). The surviving set is sound by induction on time:
/// all members hold their init value at reset, and if they all hold it at
/// cycle `t` they all hold it at `t + 1`. This catches self-holding
/// registers (`next = mux(c, self, 0)`) and mutually-holding groups, not
/// just syntactically-constant next functions. Each round propagates once
/// over the whole netlist; since propagation is monotone in the assumed
/// set, the rounds descend to the unique greatest fixpoint.
pub fn fold_constant_latches(src: &Netlist) -> Netlist {
    // assumed[l] = Some(init) while latch l is still assumed stuck.
    let mut assumed: Vec<Option<bool>> = src.latches().iter().map(|l| Some(l.init)).collect();
    loop {
        let vals = const_eval(src, &assumed);
        let mut changed = false;
        for (l, latch) in src.latches().iter().enumerate() {
            let Some(init) = assumed[l] else { continue };
            let next = latch.next.expect("latch has a next function");
            if vals[next.index()] != Some(init) {
                assumed[l] = None;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if assumed.iter().all(Option::is_none) {
        return src.clone();
    }
    constant_fold_latches(src, |id, _| assumed[id.index()].is_some())
}

/// Constant propagation over every node with some latches assumed stuck
/// at known values; `None` = value depends on inputs or non-stuck latches.
fn const_eval(src: &Netlist, assumed: &[Option<bool>]) -> Vec<Option<bool>> {
    src.fold(|g: Gate<Option<bool>>| match g {
        Gate::Const(v) => Some(v),
        Gate::Input(_) => None,
        Gate::LatchOut(l) => assumed[l.index()],
        Gate::Not(a) => a.map(|v| !v),
        Gate::And(a, b) => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Gate::Or(a, b) => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Gate::Xor(a, b) => a.zip(b).map(|(a, b)| a ^ b),
        Gate::Mux(s, t, e) => match s {
            Some(true) => t,
            Some(false) => e,
            None => t.filter(|_| t == e),
        },
    })
}

/// Re-encodes a one-hot latch group as a binary register — Fig 3(b)'s
/// *"1-hot to binary encoding"* step.
///
/// `group` lists the one-hot latches in code order (member `i` is encoded
/// as binary value `i`). The caller asserts the one-hot invariant holds in
/// all reachable states; the transform preserves behaviour exactly under
/// that invariant.
///
/// # Errors
///
/// Returns [`ReencodeError`] if the group has fewer than two members,
/// contains duplicates, or does not initialise with exactly one hot bit.
pub fn reencode_onehot(
    src: &Netlist,
    group: &[LatchId],
    new_name: &str,
) -> Result<Netlist, ReencodeError> {
    if group.len() < 2 {
        return Err(ReencodeError::GroupTooSmall);
    }
    let mut seen = HashSet::new();
    for &m in group {
        if !seen.insert(m.0) {
            return Err(ReencodeError::DuplicateMember(m));
        }
    }
    let hot: Vec<usize> = group
        .iter()
        .enumerate()
        .filter(|&(_, &m)| src.latches()[m.index()].init)
        .map(|(i, _)| i)
        .collect();
    if hot.len() != 1 {
        return Err(ReencodeError::BadInit {
            hot_count: hot.len(),
        });
    }
    let module = src.latches()[group[0].index()].module.clone();
    let groups = vec![OneHotGroup {
        members: group.to_vec(),
        new_name: new_name.to_string(),
        module,
        init_index: hot[0] as u64,
    }];
    let member_set: HashSet<u32> = group.iter().map(|m| m.0).collect();
    let plans = src
        .latches()
        .iter()
        .enumerate()
        .map(|(i, _)| {
            if member_set.contains(&(i as u32)) {
                Plan::OneHotMember
            } else {
                Plan::Keep
            }
        })
        .collect();
    Ok(apply_plans(src, plans, &groups, |_| true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SimState;
    use crate::Word;

    /// A small 2-module design: a "ctl" one-hot ring counter and an "obs"
    /// observation register fed from it.
    fn ring_design() -> Netlist {
        let mut n = Netlist::new();
        let en = n.add_input("en");
        let s0 = n.add_latch_in("s0", true, "ctl");
        let s1 = n.add_latch_in("s1", false, "ctl");
        let s2 = n.add_latch_in("s2", false, "ctl");
        let o0 = n.latch_output(s0);
        let o1 = n.latch_output(s1);
        let o2 = n.latch_output(s2);
        // Rotate when enabled, hold otherwise.
        let n0 = n.mux(en, o2, o0);
        let n1 = n.mux(en, o0, o1);
        let n2 = n.mux(en, o1, o2);
        n.set_latch_next(s0, n0);
        n.set_latch_next(s1, n1);
        n.set_latch_next(s2, n2);
        // Observation register (not feeding control).
        let obs = n.add_latch_in("obs", false, "obs");
        n.set_latch_next(obs, o2);
        let obso = n.latch_output(obs);
        n.add_output("state1", o1);
        n.add_output("watch", obso);
        n
    }

    #[test]
    fn sweep_is_identity_on_live_design() {
        let n = ring_design();
        let s = sweep(&n);
        assert_eq!(s.stats().latches, n.stats().latches);
        assert_eq!(s.stats().inputs, n.stats().inputs);
        assert_eq!(s.stats().outputs, n.stats().outputs);
    }

    #[test]
    fn remove_outputs_sweeps_observation_state() {
        let n = ring_design();
        let s = remove_outputs(&n, |name| name != "watch");
        assert_eq!(s.stats().latches, 3); // obs latch gone
        assert_eq!(s.stats().outputs, 1);
        assert!(s.latch_by_name("obs").is_none());
    }

    #[test]
    fn sweep_drops_unused_inputs() {
        let mut n = ring_design();
        let _dead = n.add_input("unused");
        let s = sweep(&n);
        assert_eq!(s.stats().inputs, 1);
        assert!(s.input_by_name("unused").is_none());
        assert!(s.input_by_name("en").is_some());
    }

    #[test]
    fn abstract_latches_cuts_to_inputs() {
        let n = ring_design();
        // Abstract the obs module away: its latch output becomes an input.
        // (The output `watch` still reads it, so the cut input survives.)
        let s = abstract_latches(&n, |_, l| l.module == "obs");
        assert_eq!(s.stats().latches, 3);
        assert!(s.input_by_name("cut:obs").is_some());
    }

    #[test]
    fn remove_module_equivalent_behaviour_on_kept_outputs() {
        let n = ring_design();
        let s = remove_module(&n, "obs");
        // Simulate both and compare the `state1` output (control behaviour
        // must be untouched). The cut input of `s` is driven arbitrarily.
        let mut sim_n = SimState::new(&n);
        let mut sim_s = SimState::new(&s);
        for cyc in 0..12 {
            let en = cyc % 2 == 0;
            let on = sim_n.step(&n, &[en]);
            let os = sim_s.step(&s, &[en, false]);
            assert_eq!(on[0], os[0], "cycle {cyc}");
        }
    }

    #[test]
    fn bypass_latches_retimes() {
        // out = latch(sig): after bypass, out == sig combinationally.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let sig = n.and(a, b);
        let sy = n.add_latch_in("sync", false, "sync_out");
        n.set_latch_next(sy, sig);
        let syo = n.latch_output(sy);
        n.add_output("o", syo);
        let s = bypass_latches(&n, |_, l| l.module == "sync_out");
        assert_eq!(s.stats().latches, 0);
        let vals = s.eval_all(&[], &[true, true]);
        let (_, osig) = s.outputs()[0].clone();
        assert!(vals[osig.index()]);
        let vals = s.eval_all(&[], &[true, false]);
        assert!(!vals[osig.index()]);
    }

    #[test]
    #[should_panic(expected = "bypass cycle")]
    fn bypass_self_loop_panics() {
        let mut n = Netlist::new();
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        let nq = n.not(qo);
        n.set_latch_next(q, nq);
        n.add_output("o", qo);
        let _ = bypass_latches(&n, |_, _| true);
    }

    #[test]
    fn constant_fold_removes_flag() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let flag = n.add_latch("flag", false);
        let f = n.constant(false);
        n.set_latch_next(flag, f);
        let fo = n.latch_output(flag);
        let gated = n.and(a, fo);
        n.add_output("o", gated);
        let s = constant_fold_latches(&n, |_, l| l.name == "flag");
        assert_eq!(s.stats().latches, 0);
        // Output folded to constant false — input `a` becomes unused too.
        assert_eq!(s.stats().inputs, 0);
    }

    #[test]
    fn reencode_onehot_preserves_behaviour() {
        let n = ring_design();
        let group: Vec<LatchId> = ["s0", "s1", "s2"]
            .iter()
            .map(|name| n.latch_by_name(name).unwrap())
            .collect();
        let s = reencode_onehot(&n, &group, "ring_bin").unwrap();
        // 3 one-hot latches -> 2 binary bits, obs kept: 3 latches total.
        assert_eq!(s.stats().latches, 3);
        let mut sim_n = SimState::new(&n);
        let mut sim_s = SimState::new(&s);
        for cyc in 0..16 {
            let en = cyc % 3 != 0;
            let on = sim_n.step(&n, &[en]);
            let os = sim_s.step(&s, &[en]);
            assert_eq!(on, os, "cycle {cyc}");
        }
    }

    #[test]
    fn tie_inputs_removes_dependent_logic() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let hi = n.add_input("addr_hi");
        let q = n.add_latch("q", false);
        let dep = n.and(a, hi);
        n.set_latch_next(q, dep);
        let qo = n.latch_output(q);
        n.add_output("o", qo);
        let t = tie_inputs(&n, &["addr_hi"], false);
        // q's next folded to const 0 == init, but tie_inputs alone keeps
        // the latch; the input is gone.
        assert_eq!(t.stats().inputs, 0); // `a` swept too (and(a,0)=0)
        let folded = fold_constant_latches(&t);
        assert_eq!(folded.stats().latches, 0);
    }

    #[test]
    fn tie_inputs_unknown_name_ignored() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.add_output("o", a);
        let t = tie_inputs(&n, &["missing"], true);
        assert_eq!(t.stats().inputs, 1);
    }

    #[test]
    fn fold_constant_latches_cascades() {
        // q1.next = const(init); q2.next = q1 (same init) -> both fold.
        let mut n = Netlist::new();
        let q1 = n.add_latch("q1", true);
        let q2 = n.add_latch("q2", true);
        let t = n.constant(true);
        n.set_latch_next(q1, t);
        let q1o = n.latch_output(q1);
        n.set_latch_next(q2, q1o);
        let q2o = n.latch_output(q2);
        n.add_output("o", q2o);
        let folded = fold_constant_latches(&n);
        assert_eq!(folded.stats().latches, 0);
        // Output is constant true.
        let vals = folded.eval_all(&[], &[]);
        let (_, sig) = folded.outputs()[0];
        assert!(vals[sig.index()]);
    }

    #[test]
    fn fold_constant_latches_catches_self_holding() {
        // next = mux(c, self, 0), init 0: stuck at 0 (co-inductive case).
        let mut n = Netlist::new();
        let c = n.add_input("c");
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        let zero = n.constant(false);
        let nx = n.mux(c, qo, zero);
        n.set_latch_next(q, nx);
        n.add_output("o", qo);
        let folded = fold_constant_latches(&n);
        assert_eq!(folded.stats().latches, 0);
    }

    #[test]
    fn fold_constant_latches_catches_mutual_holding() {
        // p.next = q, q.next = mux(c, p, q), both init 1: stuck together.
        let mut n = Netlist::new();
        let c = n.add_input("c");
        let p = n.add_latch("p", true);
        let q = n.add_latch("q", true);
        let po = n.latch_output(p);
        let qo = n.latch_output(q);
        n.set_latch_next(p, qo);
        let nx = n.mux(c, po, qo);
        n.set_latch_next(q, nx);
        n.add_output("o", po);
        let folded = fold_constant_latches(&n);
        assert_eq!(folded.stats().latches, 0);
        // Mixed inits break the group: p init 0, q init 1 -> p.next = q
        // does not hold 0.
        let mut n = Netlist::new();
        let c = n.add_input("c");
        let p = n.add_latch("p", false);
        let q = n.add_latch("q", true);
        let po = n.latch_output(p);
        let qo = n.latch_output(q);
        n.set_latch_next(p, qo);
        let nx = n.mux(c, po, qo);
        n.set_latch_next(q, nx);
        n.add_output("o", po);
        let folded = fold_constant_latches(&n);
        assert_eq!(folded.stats().latches, 2);
    }

    #[test]
    fn fold_constant_latches_keeps_toggling_latch() {
        let mut n = Netlist::new();
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        let nq = n.not(qo);
        n.set_latch_next(q, nq);
        n.add_output("o", qo);
        let folded = fold_constant_latches(&n);
        assert_eq!(folded.stats().latches, 1);
        // A latch whose next is constant but != init is NOT foldable
        // (it changes value after one cycle).
        let mut n = Netlist::new();
        let q = n.add_latch("q", false);
        let t = n.constant(true);
        n.set_latch_next(q, t);
        let qo = n.latch_output(q);
        n.add_output("o", qo);
        let folded = fold_constant_latches(&n);
        assert_eq!(folded.stats().latches, 1);
    }

    #[test]
    fn reencode_onehot_rejects_bad_groups() {
        let n = ring_design();
        let s0 = n.latch_by_name("s0").unwrap();
        let s1 = n.latch_by_name("s1").unwrap();
        assert_eq!(
            reencode_onehot(&n, &[s0], "x").unwrap_err(),
            ReencodeError::GroupTooSmall
        );
        assert_eq!(
            reencode_onehot(&n, &[s0, s0], "x").unwrap_err(),
            ReencodeError::DuplicateMember(s0)
        );
        // s1, s2 both init 0: no hot bit.
        let s2 = n.latch_by_name("s2").unwrap();
        assert_eq!(
            reencode_onehot(&n, &[s1, s2], "x").unwrap_err(),
            ReencodeError::BadInit { hot_count: 0 }
        );
    }

    #[test]
    fn reencode_larger_counter_matches() {
        // 5-state one-hot sequencer driven by a word comparator.
        let mut n = Netlist::new();
        let go = n.add_input("go");
        let mut latches = Vec::new();
        let mut outs = Vec::new();
        for i in 0..5 {
            let l = n.add_latch_in(format!("t{i}"), i == 0, "seq");
            latches.push(l);
        }
        for &l in &latches {
            outs.push(n.latch_output(l));
        }
        for i in 0..5 {
            let prev = outs[(i + 4) % 5];
            let stay = outs[i];
            let nx = n.mux(go, prev, stay);
            n.set_latch_next(latches[i], nx);
        }
        let w = Word::from_bits(vec![outs[2], outs[4]]);
        let flag = w.any(&mut n);
        n.add_output("in_2_or_4", flag);
        let s = reencode_onehot(&n, &latches, "seq_bin").unwrap();
        assert_eq!(s.stats().latches, 3); // ceil(log2 5)
        let mut a = SimState::new(&n);
        let mut b = SimState::new(&s);
        for cyc in 0..20 {
            let go_v = cyc % 4 != 1;
            assert_eq!(a.step(&n, &[go_v]), b.step(&s, &[go_v]), "cycle {cyc}");
        }
    }
}
