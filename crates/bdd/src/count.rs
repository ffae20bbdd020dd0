//! Exact satisfying-assignment counting.

use crate::manager::{Bdd, BddManager, TERMINAL_LEVEL};
use crate::util::U32Map64;

impl BddManager {
    /// Counts satisfying assignments of `f` over the variable levels
    /// `0..num_vars` (i.e. minterms of an `num_vars`-ary function).
    ///
    /// This is how the paper's model statistics are computed: reachable
    /// states as `sat_count(reached)` over the state variables, and the
    /// number of transitions as `sat_count(T ∧ reached ∧ valid)` over state
    /// and input variables.
    ///
    /// # Panics
    ///
    /// Panics if `f` contains a variable at or above level `num_vars`, or if
    /// the count overflows `u128` (impossible for `num_vars < 128`).
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> u128 {
        assert!(num_vars <= 127, "sat_count supports at most 127 variables");
        // The recursion counts over the sub-order below each node; scale by
        // the gap between the root and level 0.
        let mut cache = U32Map64::new();
        // We store counts scaled to fit u64 only when possible; for safety
        // use a u128-valued recursion with a HashMap fallback when counts
        // are large. In practice (≤ 64 vars) u128 never overflows.
        let mut big: std::collections::HashMap<u32, u128> = std::collections::HashMap::new();
        let c = self.count_rec(f, num_vars, &mut cache, &mut big);
        let top = self.level_of(f);
        let gap = if top == TERMINAL_LEVEL {
            num_vars
        } else {
            top.min(num_vars)
        };
        c << gap
    }

    fn count_rec(
        &self,
        f: Bdd,
        num_vars: u32,
        cache: &mut U32Map64,
        big: &mut std::collections::HashMap<u32, u128>,
    ) -> u128 {
        if f.is_false() {
            return 0;
        }
        if f.is_true() {
            return 1;
        }
        if let Some(v) = cache.get(f.0) {
            return v as u128;
        }
        if let Some(&v) = big.get(&f.0) {
            return v;
        }
        let level = self.level_of(f);
        assert!(
            level < num_vars,
            "sat_count: variable out of declared range"
        );
        let (f0, f1) = self.cofactors(f, level);
        let c0 = self.count_rec(f0, num_vars, cache, big);
        let c1 = self.count_rec(f1, num_vars, cache, big);
        let l0 = self.level_of(f0);
        let l1 = self.level_of(f1);
        let gap0 = l0.min(num_vars) - level - 1;
        let gap1 = l1.min(num_vars) - level - 1;
        let total = (c0 << gap0) + (c1 << gap1);
        if total <= u64::MAX as u128 {
            cache.insert(f.0, total as u64);
        } else {
            big.insert(f.0, total);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Var;

    #[test]
    fn count_terminals() {
        let m = BddManager::new(4);
        assert_eq!(m.sat_count(Bdd::FALSE, 4), 0);
        assert_eq!(m.sat_count(Bdd::TRUE, 4), 16);
        assert_eq!(m.sat_count(Bdd::TRUE, 0), 1);
    }

    #[test]
    fn count_single_var() {
        let mut m = BddManager::new(4);
        let a = m.var(1);
        assert_eq!(m.sat_count(a, 4), 8);
        let na = m.not(a);
        assert_eq!(m.sat_count(na, 4), 8);
    }

    #[test]
    fn count_conjunction_and_disjunction() {
        let mut m = BddManager::new(5);
        let a = m.var(0);
        let b = m.var(3);
        let f = m.and(a, b);
        assert_eq!(m.sat_count(f, 5), 8); // 2^3 free vars
        let g = m.or(a, b);
        assert_eq!(m.sat_count(g, 5), 24); // 32 - 8 unsatisfying
    }

    #[test]
    fn count_xor_chain() {
        // Parity of n variables has exactly 2^(n-1) satisfying assignments.
        let n = 10u32;
        let mut m = BddManager::new(n);
        let mut f = Bdd::FALSE;
        for i in 0..n {
            let v = m.var(i);
            f = m.xor(f, v);
        }
        assert_eq!(m.sat_count(f, n), 1 << (n - 1));
    }

    #[test]
    fn count_complement_sums_to_space() {
        let mut m = BddManager::new(6);
        let a = m.var(0);
        let b = m.var(2);
        let c = m.var(5);
        let t = m.and(a, b);
        let f = m.or(t, c);
        let nf = m.not(f);
        assert_eq!(m.sat_count(f, 6) + m.sat_count(nf, 6), 64);
    }

    #[test]
    fn count_respects_cube() {
        let mut m = BddManager::new(8);
        let cube = m.cube_from_vars(&[Var(0), Var(3), Var(7)]);
        assert_eq!(m.sat_count(cube, 8), 1 << 5);
    }
}
