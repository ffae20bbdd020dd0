//! Lowering a netlist into BDDs: the one place that maps gates to BDD
//! operations. Every symbolic view of a netlist in the workspace — the
//! symbolic machine, both copies of the pair machine, the two input
//! copies of the input-class analysis and the symbolic campaign engine's
//! golden cones — is this lowering under a different variable layout.
//! The care-set rule that cofactors lowered functions by a valid-input
//! constraint ([`constrain_to_care`]) lives here too.

use simcov_bdd::{Bdd, BddManager};
use simcov_netlist::{Gate, InputId, LatchId, Netlist};

/// A netlist's next-state and output functions as BDDs.
#[derive(Debug, Clone)]
pub struct NetlistBdds {
    /// Next-state function of each latch, in latch order.
    pub next: Vec<Bdd>,
    /// Function of each primary output, in output order.
    pub outputs: Vec<Bdd>,
}

/// Lowers every node of `n` into `mgr`, in node order
/// ([`Netlist::fold`]). `input(mgr, i)` and `latch(mgr, l)` give the BDD
/// that primary input `i` and latch `l`'s current-state output stand for
/// (a variable of the caller's layout, or a constant for a fixed input);
/// each gate becomes its BDD operation (`Mux` becomes `ite`).
///
/// # Panics
///
/// Panics if the netlist fails [`Netlist::check`] (e.g. a latch without
/// a next-state function).
pub fn lower_netlist(
    mgr: &mut BddManager,
    n: &Netlist,
    mut input: impl FnMut(&mut BddManager, InputId) -> Bdd,
    mut latch: impl FnMut(&mut BddManager, LatchId) -> Bdd,
) -> NetlistBdds {
    let problems = n.check();
    assert!(problems.is_empty(), "malformed netlist: {problems:?}");
    let sig = n.fold(|g: Gate<Bdd>| match g {
        Gate::Const(v) => mgr.constant(v),
        Gate::Input(i) => input(mgr, i),
        Gate::LatchOut(l) => latch(mgr, l),
        Gate::Not(a) => mgr.not(a),
        Gate::And(a, b) => mgr.and(a, b),
        Gate::Or(a, b) => mgr.or(a, b),
        Gate::Xor(a, b) => mgr.xor(a, b),
        Gate::Mux(s, t, e) => mgr.ite(s, t, e),
    });
    NetlistBdds {
        next: n
            .latches()
            .iter()
            .map(|l| sig[l.next.expect("checked").index()])
            .collect(),
        outputs: n.outputs().iter().map(|&(_, s)| sig[s.index()]).collect(),
    }
}

/// The care-set rule: replaces each of `fns`, in order, by its
/// generalized cofactor `f ↓ care` ([`BddManager::constrain`]), which
/// equals `f` wherever `care` holds, so it is exact for a caller that
/// evaluates them only there. A constant `care` leaves them as they are:
/// `TRUE` has nothing to cofactor by, and `FALSE` (which `constrain`
/// rejects) leaves no point to evaluate them at.
pub(crate) fn constrain_to_care<'a>(
    mgr: &mut BddManager,
    fns: impl IntoIterator<Item = &'a mut Bdd>,
    care: Bdd,
) {
    if care.is_const() {
        return;
    }
    for f in fns {
        *f = mgr.constrain(*f, care);
    }
}
