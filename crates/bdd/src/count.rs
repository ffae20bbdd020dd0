//! Exact satisfying-assignment counting.

use crate::manager::{Bdd, BddManager, Var, TERMINAL_LEVEL};
use crate::util::U32Map64;
use std::collections::HashMap;

/// Rank of a level that is not counted.
const UNCOUNTED: u32 = u32::MAX;

impl BddManager {
    /// Counts the assignments to `vars` that satisfy `f`.
    ///
    /// This is how the paper's model statistics are computed: reachable
    /// states as the count of `reached` over the state variables, valid
    /// inputs as the count of the constraint over the input variables,
    /// and transitions as the count of `reached ∧ valid` over both. The
    /// count runs over exactly the listed variables, however many others
    /// the manager has.
    ///
    /// `vars` may come in any order; a variable listed twice counts once.
    /// The result is exact below 2^128 and saturates to `u128::MAX` from
    /// there on.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable outside `vars`.
    ///
    /// # Example
    ///
    /// ```
    /// use simcov_bdd::{BddManager, Var};
    ///
    /// let mut m = BddManager::new(200);
    /// let (a, b) = (m.var(3), m.var(150));
    /// let f = m.or(a, b);
    /// assert_eq!(m.count_over(f, &[Var(150), Var(3)]), 3);
    /// assert_eq!(m.count_over(f, &[Var(3), Var(7), Var(150)]), 6);
    /// ```
    pub fn count_over(&self, f: Bdd, vars: &[Var]) -> u128 {
        let mut levels: Vec<u32> = vars.iter().map(|v| v.0).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut ranks = vec![UNCOUNTED; levels.last().map_or(0, |&l| l as usize + 1)];
        for (rank, &level) in levels.iter().enumerate() {
            ranks[level as usize] = rank as u32;
        }
        let mut counter = Counter {
            mgr: self,
            ranks,
            terminal_rank: levels.len() as u32,
            small: U32Map64::new(),
            big: HashMap::new(),
        };
        counter.count(f)
    }

    /// Counts satisfying assignments of `f` over the levels `0..num_vars`:
    /// [`BddManager::count_over`] on that list, whose counts never
    /// saturate.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 127`, or if `f` depends on a level at or
    /// above `num_vars`.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> u128 {
        assert!(num_vars <= 127, "sat_count supports at most 127 variables");
        let vars: Vec<Var> = (0..num_vars).map(Var).collect();
        self.count_over(f, &vars)
    }
}

/// The one memoized count. A node's count runs over the counted
/// variables from its own down; each edge scales its child's count by
/// the counted variables it skips.
struct Counter<'a> {
    mgr: &'a BddManager,
    /// Each level's rank among the counted variables, or `UNCOUNTED`.
    ranks: Vec<u32>,
    /// The terminals' rank: the number of counted variables.
    terminal_rank: u32,
    /// Memoized counts that fit in 64 bits, and the others.
    small: U32Map64,
    big: HashMap<u32, u128>,
}

impl Counter<'_> {
    fn rank(&self, level: u32) -> u32 {
        if level == TERMINAL_LEVEL {
            return self.terminal_rank;
        }
        match self.ranks.get(level as usize) {
            Some(&rank) if rank != UNCOUNTED => rank,
            _ => panic!("count: the function depends on v{level}, which is not counted"),
        }
    }

    fn count(&mut self, f: Bdd) -> u128 {
        let top = self.rank(self.mgr.level_of(f));
        shl_saturating(self.count_rec(f), top)
    }

    fn count_rec(&mut self, f: Bdd) -> u128 {
        if f.is_const() {
            return f.is_true().into();
        }
        if let Some(c) = self.small.get(f.0) {
            return c.into();
        }
        if let Some(&c) = self.big.get(&f.0) {
            return c;
        }
        let (level, lo, hi) = self.mgr.expand(f);
        let rank = self.rank(level);
        let mut total = 0u128;
        for child in [lo, hi] {
            let skipped = self.rank(self.mgr.level_of(child)) - rank - 1;
            let c = self.count_rec(child);
            total = total.saturating_add(shl_saturating(c, skipped));
        }
        match u64::try_from(total) {
            Ok(c) => self.small.insert(f.0, c),
            Err(_) => {
                self.big.insert(f.0, total);
            }
        }
        total
    }
}

/// `c · 2^by`, saturating to `u128::MAX`.
fn shl_saturating(c: u128, by: u32) -> u128 {
    if c == 0 {
        0
    } else if by >= 128 || c.leading_zeros() < by {
        u128::MAX
    } else {
        c << by
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
