//! The implicit (BDD-based) fault campaign: [`run_implicit_campaign`].
//!
//! It never materializes a fault list, a test set or a state graph. It
//! counts the single-bit-flip instantiation of the paper's fault families
//! (Definitions 1–4) directly on BDDs: one next-state bit or one output
//! bit flipped at one reachable `(state, valid input)` cell, over the
//! product machine [`PairFsm`]:
//!
//! * an output flip is detected the moment its cell is exercised, so
//!   every one counts as detected;
//! * a transfer flip of latch `j` at a cell whose golden successor is `y`
//!   is detected iff `y` and `y ⊕ e_j` are ∀k-distinguishable: every
//!   valid `k`-step continuation tells them apart (Definition 5, the
//!   hypothesis of Theorem 1). The `k`-step relation is
//!   [`PairFsm::forall_k`]'s.
//!
//! The flip-independent work (reachability, the reachable cells, the
//! `k`-step escape relation) runs once on a base manager
//! ([`PairFsm::transfer_detect_prep`]), its reachability on a clone of
//! that manager beside the escape relation. The per-latch queries are
//! sharded over cloned managers and merged in shard order, so the report
//! and its `bdd.*` effort counters are identical at any `--jobs`. The
//! campaign runs at every width; it is what `--engine symbolic` runs.

use simcov_bdd::{Bdd, Var};
use simcov_fsm::PairFsm;
use simcov_netlist::Netlist;

/// Aggregated BDD-package effort counters of an implicit campaign
/// ([`ImplicitReport::sym`]).
///
/// The base manager, the prep's reachability clone and each flip shard's
/// clone run a deterministic operation sequence, so these sums are
/// byte-identical across `--jobs` for the same campaign — they are
/// emitted as the `bdd.*` telemetry counters (see `simcov_obs::names`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolicEngineStats {
    /// Hash-consed nodes: the base manager's nodes live after
    /// [`PairFsm::transfer_detect_prep`] reclaims its dead ones, plus the
    /// nodes each flip shard adds to its clone.
    pub unique_nodes: u64,
    /// Operation-cache hits, summed over the managers.
    pub ite_cache_hits: u64,
    /// Operation-cache misses (real recursions), summed over the
    /// managers.
    pub ite_cache_misses: u64,
    /// Cache-eviction garbage collections, summed over the managers.
    /// Nothing increments it any more, so it is 0; the `bdd.gc_collections`
    /// counter still carries it.
    pub gc_collections: u64,
}

impl SymbolicEngineStats {
    /// Commutative, associative merge (shards are merged in shard order
    /// anyway, so the traces stay byte-identical).
    pub fn merge(&mut self, other: &SymbolicEngineStats) {
        self.unique_nodes += other.unique_nodes;
        self.ite_cache_hits += other.ite_cache_hits;
        self.ite_cache_misses += other.ite_cache_misses;
        self.gc_collections += other.gc_collections;
    }
}

/// Configuration of a fully implicit campaign.
#[derive(Debug, Clone, Copy)]
pub struct ImplicitConfig {
    /// Distinguishability horizon for transfer flips (steps of the
    /// product machine).
    pub k: usize,
    /// Worker threads for the per-flip shards. The prep
    /// ([`PairFsm::transfer_detect_prep`]) always runs its two halves on
    /// two threads, whatever this is, so the report and its `bdd.*`
    /// counters are the same at every value.
    pub jobs: usize,
}

/// Result of [`run_implicit_campaign`]: coverage statistics of the
/// single-bit-flip fault families over a netlist of any width.
///
/// Each count runs over the variables it counts
/// ([`BddManager::count_over`](simcov_bdd::BddManager::count_over)), and
/// each count and product is exact below 2^128 and saturates to
/// `u128::MAX` from there on rather than overflowing.
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
/// input variables (return [`Bdd::TRUE`] for an unconstrained alphabet);
/// the run panics if the constraint depends on any other variable.
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

    let in_vars: Vec<Var> = (0..ni).map(|k| pf.input_var(k)).collect();
    let valid_inputs = pf.mgr_ref().count_over(v, &in_vars);

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
    };
    let mut transfer_detected = 0u128;
    for (det, rs, nodes) in &shard_results {
        transfer_detected = transfer_detected.saturating_add(*det);
        sym.merge(&SymbolicEngineStats {
            unique_nodes: *nodes,
            ite_cache_hits: rs.ite_cache_hits,
            ite_cache_misses: rs.ite_cache_misses,
            gc_collections: rs.gc_collections,
        });
    }

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
        sym,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_fsm::{enumerate_netlist, EnumerateOptions};

    /// A 3-latch circular shifter with injectable bit and an observable
    /// mix output — small enough to enumerate.
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
        }
        // Job counts must not change any reported number.
        let a = run_implicit_campaign(&n, |_| Bdd::TRUE, &ImplicitConfig { k: 8, jobs: 1 });
        let b = run_implicit_campaign(&n, |_| Bdd::TRUE, &ImplicitConfig { k: 8, jobs: 8 });
        assert_eq!(format!("{a}"), format!("{b}"));
        assert_eq!(a.sym, b.sym);
    }
}
