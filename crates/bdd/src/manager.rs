//! Node storage, unique table and the [`BddManager`] type.

use crate::util::{DirectCache, TripleMap};
use std::fmt;

/// A BDD variable, identified by its level in the (static) variable order.
///
/// Level 0 is the topmost variable. The order is fixed at
/// [`BddManager::new`] time; callers that need a particular interleaving
/// (e.g. current-state / next-state variables for image computation) choose
/// it by assigning levels accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The level of this variable in the global order.
    pub fn level(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A handle to a BDD node owned by a [`BddManager`].
///
/// Handles are plain indices: copying them is free, and they stay valid for
/// the lifetime of the manager. The one exception is
/// [`BddManager::reclaim_since`], which drops the nodes created since a
/// mark that its roots do not reach (and renumbers the survivors above
/// the mark); handles below the mark are never touched.
///
/// The two terminal nodes are [`Bdd::FALSE`] and [`Bdd::TRUE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false terminal.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true terminal.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this is the constant-false terminal.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this is the constant-true terminal.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this is either terminal.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index of the node inside its manager (stable for the manager's
    /// lifetime). Mostly useful for debugging and external caching.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Variable level assigned to terminal nodes: below every real variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Initial slots of the unique table, of the ITE cache, and of each other
/// operation cache.
const UNIQUE_SLOTS: usize = 1 << 12;
const ITE_CACHE_SLOTS: usize = 1 << 12;
const OP_CACHE_SLOTS: usize = 1 << 10;

#[derive(Clone, Copy)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) low: u32,
    pub(crate) high: u32,
}

/// Cumulative operation counters of a [`BddManager`] — the backing store
/// of the `bdd.*` observability counters (`simcov_obs::names::BDD_*`).
///
/// All counts are pure functions of the operation sequence issued against
/// the manager, so two runs performing the same symbolic computation
/// report identical values regardless of thread count or host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddRuntimeStats {
    /// ITE calls answered from the memoization cache.
    pub ite_cache_hits: u64,
    /// ITE calls that had to recurse (and then filled the cache).
    pub ite_cache_misses: u64,
    /// Cache-eviction collections. Nothing increments it any more: no
    /// manager evicts its caches, so it stays 0. It is kept because the
    /// `bdd.gc_collections` counter and the traces that carry it read it.
    pub gc_collections: u64,
}

impl BddRuntimeStats {
    /// Component-wise difference against an earlier snapshot of the same
    /// manager (or of the manager this one was cloned from): the work done
    /// *since* that snapshot.
    pub fn since(&self, earlier: &BddRuntimeStats) -> BddRuntimeStats {
        BddRuntimeStats {
            ite_cache_hits: self.ite_cache_hits - earlier.ite_cache_hits,
            ite_cache_misses: self.ite_cache_misses - earlier.ite_cache_misses,
            gc_collections: self.gc_collections - earlier.gc_collections,
        }
    }
}

/// A manager owning a forest of hash-consed ROBDD nodes over a fixed
/// variable order.
///
/// All operations go through the manager (`C-SMART-PTR`-style: [`Bdd`]
/// handles carry no inherent methods that mutate state). Operation results
/// are memoized in internal caches.
///
/// # Example
///
/// ```
/// use simcov_bdd::{Bdd, BddManager};
///
/// let mut m = BddManager::new(2);
/// let a = m.var(0);
/// let not_a = m.not(a);
/// assert_eq!(m.or(a, not_a), Bdd::TRUE);
/// ```
#[derive(Clone)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    unique: TripleMap,
    pub(crate) ite_cache: DirectCache,
    pub(crate) quant_cache: DirectCache,
    pub(crate) and_exists_cache: DirectCache,
    num_vars: u32,
    pub(crate) stats: BddRuntimeStats,
}

impl BddManager {
    /// Creates a manager over `num_vars` variables (levels `0..num_vars`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars >= u32::MAX - 1` (needed for the terminal level
    /// sentinel).
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars < u32::MAX - 1, "too many variables");
        let mut nodes = Vec::with_capacity(1024);
        // Index 0: FALSE, index 1: TRUE.
        nodes.push(Node {
            var: TERMINAL_LEVEL,
            low: 0,
            high: 0,
        });
        nodes.push(Node {
            var: TERMINAL_LEVEL,
            low: 1,
            high: 1,
        });
        BddManager {
            nodes,
            unique: TripleMap::with_capacity_pow2(UNIQUE_SLOTS),
            ite_cache: DirectCache::with_capacity_pow2(ITE_CACHE_SLOTS),
            quant_cache: DirectCache::with_capacity_pow2(OP_CACHE_SLOTS),
            and_exists_cache: DirectCache::with_capacity_pow2(OP_CACHE_SLOTS),
            num_vars,
            stats: BddRuntimeStats::default(),
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of nodes allocated so far (including both terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Grows the variable order by `extra` fresh variables appended at the
    /// bottom, returning the first new [`Var`].
    ///
    /// Existing BDDs are unaffected (the new variables are below all
    /// existing levels, so no node changes shape).
    pub fn add_vars(&mut self, extra: u32) -> Var {
        let first = self.num_vars;
        self.num_vars += extra;
        Var(first)
    }

    /// The BDD for the single variable at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.num_vars()`.
    pub fn var(&mut self, level: u32) -> Bdd {
        assert!(level < self.num_vars, "variable level out of range");
        self.mk_node(level, Bdd::FALSE, Bdd::TRUE)
    }

    /// The BDD for the negation of the variable at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.num_vars()`.
    pub fn nvar(&mut self, level: u32) -> Bdd {
        assert!(level < self.num_vars, "variable level out of range");
        self.mk_node(level, Bdd::TRUE, Bdd::FALSE)
    }

    /// The BDD for a constant.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Hash-consed node constructor enforcing the two ROBDD invariants:
    /// no redundant tests (`low == high` collapses) and no duplicate nodes.
    pub(crate) fn mk_node(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        let nodes = &mut self.nodes;
        let idx = self.unique.get_or_insert_with(var, low.0, high.0, || {
            let idx = nodes.len() as u32;
            nodes.push(Node {
                var,
                low: low.0,
                high: high.0,
            });
            idx
        });
        Bdd(idx)
    }

    /// Top variable level of `f` together with its low/high children
    /// (children are meaningless for terminals, whose level is
    /// `TERMINAL_LEVEL`). One node load where separate `level_of` +
    /// `cofactors` calls would take two; the node array outgrows L2 on
    /// image-computation workloads, so the hot binary applies use this.
    #[inline]
    pub(crate) fn expand(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        (n.var, Bdd(n.low), Bdd(n.high))
    }

    /// Level of the top variable of `f` (`u32::MAX` for terminals).
    pub(crate) fn level_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    /// Cofactors of `f` with respect to its own top variable.
    pub(crate) fn cofactors(&self, f: Bdd, at_level: u32) -> (Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        if n.var == at_level {
            (Bdd(n.low), Bdd(n.high))
        } else {
            (f, f)
        }
    }

    /// Number of distinct nodes in the DAG rooted at `f` (counting
    /// terminals).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n as usize];
            if node.var != TERMINAL_LEVEL {
                stack.push(node.low);
                stack.push(node.high);
            }
        }
        seen.len()
    }

    /// The set of variables appearing in the DAG rooted at `f`, in level
    /// order.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n as usize];
            if node.var != TERMINAL_LEVEL {
                vars.insert(node.var);
                stack.push(node.low);
                stack.push(node.high);
            }
        }
        vars.into_iter().map(Var).collect()
    }

    /// Evaluates `f` under a total assignment (indexed by level).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than some variable level
    /// appearing in `f`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f.0;
        loop {
            let node = self.nodes[cur as usize];
            if node.var == TERMINAL_LEVEL {
                return cur == 1;
            }
            cur = if assignment[node.var as usize] {
                node.high
            } else {
                node.low
            };
        }
    }

    /// Cumulative operation counters (see [`BddRuntimeStats`]).
    pub fn runtime_stats(&self) -> BddRuntimeStats {
        self.stats
    }

    /// Drops every node created since `mark` (a [`BddManager::num_nodes`]
    /// reading) that none of `roots` reaches, and rewrites `roots` in place
    /// to their new handles.
    ///
    /// The contract:
    /// * every handle below `mark` — and so every handle taken before the
    ///   reading — keeps its index and its function;
    /// * each root keeps its function under its rewritten handle, and the
    ///   survivors keep their relative order (children still precede
    ///   parents);
    /// * every other handle at or above `mark` is invalid afterwards.
    ///
    /// The unique table is rebuilt over the survivors, so rebuilding a
    /// root's function returns the rewritten handle. The operation caches
    /// are reallocated at their initial size, not cleared: a cleared cache
    /// keeps its grown slot array, which every later clone would copy.
    /// [`BddManager::runtime_stats`] is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is below 2 (the terminals) or above
    /// [`BddManager::num_nodes`].
    pub fn reclaim_since(&mut self, mark: usize, roots: &mut [Bdd]) {
        let len = self.nodes.len();
        assert!(
            (2..=len).contains(&mark),
            "reclaim mark {mark} outside 2..={len}"
        );
        // `remap[i - mark]`: DEAD, LIVE (reached, not yet numbered), or
        // the survivor's new index (always >= mark >= 2).
        const DEAD: u32 = u32::MAX;
        const LIVE: u32 = 0;
        let above = |i: u32| i as usize >= mark;
        let mut remap = vec![DEAD; len - mark];
        let mut stack: Vec<u32> = roots.iter().map(|r| r.0).filter(|&i| above(i)).collect();
        while let Some(i) = stack.pop() {
            let slot = &mut remap[i as usize - mark];
            if *slot == LIVE {
                continue;
            }
            *slot = LIVE;
            let n = self.nodes[i as usize];
            stack.extend([n.low, n.high].into_iter().filter(|&c| above(c)));
        }
        // Children precede parents, so one forward pass sees each child's
        // new index before any parent needs it.
        let mut next = mark;
        for i in mark..len {
            if remap[i - mark] == DEAD {
                continue;
            }
            let mut n = self.nodes[i];
            for c in [&mut n.low, &mut n.high] {
                if above(*c) {
                    *c = remap[*c as usize - mark];
                }
            }
            self.nodes[next] = n;
            remap[i - mark] = next as u32;
            next += 1;
        }
        self.nodes.truncate(next);
        self.nodes.shrink_to_fit();
        for r in roots.iter_mut() {
            if above(r.0) {
                r.0 = remap[r.0 as usize - mark];
            }
        }
        self.unique = TripleMap::with_capacity_pow2((2 * next).max(UNIQUE_SLOTS));
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            self.unique.insert(n.var, n.low, n.high, i as u32);
        }
        self.ite_cache = DirectCache::with_capacity_pow2(ITE_CACHE_SLOTS);
        self.quant_cache = DirectCache::with_capacity_pow2(OP_CACHE_SLOTS);
        self.and_exists_cache = DirectCache::with_capacity_pow2(OP_CACHE_SLOTS);
    }

    /// Copies `f`, a function of `src`, into this manager and returns the
    /// handle this manager gives that function: the one building it here
    /// directly returns. `src` must order its variables as this manager
    /// does, level for level (a clone of it, say). Constants map to
    /// constants, and the copy makes its nodes in one fixed order, so
    /// node numbering stays a function of the operation sequence.
    ///
    /// The copy runs no operation of its own. Instead it adds to this
    /// manager's [`runtime_stats`](Self::runtime_stats) the work `src`
    /// did since `src_since`, an earlier reading of `src`'s counters.
    /// With the reading taken when `src` was cloned from this manager,
    /// the counters here count every operation of a computation split
    /// across the two; with `src.runtime_stats()` the copy adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `src` has more variables than this manager.
    pub fn copy_from(&mut self, src: &BddManager, f: Bdd, src_since: &BddRuntimeStats) -> Bdd {
        assert!(
            src.num_vars <= self.num_vars,
            "source manager has more variables"
        );
        let done = src.stats.since(src_since);
        self.stats.ite_cache_hits += done.ite_cache_hits;
        self.stats.ite_cache_misses += done.ite_cache_misses;
        self.stats.gc_collections += done.gc_collections;
        let mut copied = std::collections::HashMap::new();
        self.copy_rec(src, f, &mut copied)
    }

    fn copy_rec(
        &mut self,
        src: &BddManager,
        f: Bdd,
        copied: &mut std::collections::HashMap<u32, Bdd>,
    ) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = copied.get(&f.0) {
            return r;
        }
        let (var, low, high) = src.expand(f);
        let low = self.copy_rec(src, low, copied);
        let high = self.copy_rec(src, high, copied);
        let r = self.mk_node(var, low, high);
        copied.insert(f.0, r);
        r
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.num_vars)
            .field("num_nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let m = BddManager::new(4);
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_const());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn var_is_hash_consed() {
        let mut m = BddManager::new(4);
        let a1 = m.var(2);
        let a2 = m.var(2);
        assert_eq!(a1, a2);
        assert_eq!(m.num_nodes(), 3);
    }

    #[test]
    fn redundant_test_collapses() {
        let mut m = BddManager::new(4);
        let t = m.mk_node(1, Bdd::TRUE, Bdd::TRUE);
        assert_eq!(t, Bdd::TRUE);
    }

    #[test]
    #[should_panic(expected = "variable level out of range")]
    fn var_out_of_range_panics() {
        let mut m = BddManager::new(2);
        let _ = m.var(2);
    }

    #[test]
    fn eval_variable() {
        let mut m = BddManager::new(3);
        let b = m.var(1);
        assert!(m.eval(b, &[false, true, false]));
        assert!(!m.eval(b, &[true, false, true]));
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        assert_eq!(m.support(f), vec![Var(0), Var(2)]);
        // Nodes: a-node, c-node, two terminals.
        assert_eq!(m.size(f), 4);
    }

    #[test]
    fn add_vars_extends_order() {
        let mut m = BddManager::new(2);
        let first = m.add_vars(3);
        assert_eq!(first, Var(2));
        assert_eq!(m.num_vars(), 5);
        let v = m.var(4);
        assert!(!v.is_const());
    }

    #[test]
    fn runtime_stats_count_ite_traffic() {
        let mut m = BddManager::new(6);
        assert_eq!(m.runtime_stats(), BddRuntimeStats::default());
        let a = m.var(0);
        let b = m.var(3);
        let _ = m.xor(a, b);
        let after_first = m.runtime_stats();
        assert!(after_first.ite_cache_misses > 0);
        // The identical operation replays from the cache.
        let _ = m.xor(a, b);
        let after_second = m.runtime_stats();
        assert!(after_second.ite_cache_hits > after_first.ite_cache_hits);
        let delta = after_second.since(&after_first);
        assert_eq!(delta.ite_cache_misses, 0);
    }

    #[test]
    fn cloned_manager_is_independent() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(2);
        let f = m.and(a, b);
        let mut c = m.clone();
        // Same handles are valid in the clone and denote the same function.
        assert!(c.eval(f, &[true, false, true, false]));
        // New nodes in the clone do not appear in the original.
        let before = m.num_nodes();
        let g = c.or(f, a);
        assert!(!g.is_const());
        assert_eq!(m.num_nodes(), before);
    }
}
