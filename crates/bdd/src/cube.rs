//! Cube extraction and minterm iteration.

use crate::manager::{Bdd, BddManager, Var};

/// A total assignment to the variables of a manager, indexed by level.
pub type Assignment = Vec<bool>;

/// A partial assignment (cube): literals over a subset of the variables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cube {
    /// `(variable, polarity)` literals, sorted by variable level.
    pub literals: Vec<(Var, bool)>,
}

impl Cube {
    /// The polarity of `v` in this cube, if constrained.
    pub fn polarity(&self, v: Var) -> Option<bool> {
        self.literals
            .iter()
            .find(|&&(lv, _)| lv == v)
            .map(|&(_, p)| p)
    }

    /// Expands the cube to a total assignment over `num_vars` variables,
    /// filling unconstrained variables with `false`.
    pub fn to_assignment(&self, num_vars: u32) -> Assignment {
        let mut a = vec![false; num_vars as usize];
        for &(v, p) in &self.literals {
            a[v.0 as usize] = p;
        }
        a
    }
}

impl BddManager {
    /// Extracts one satisfying cube of `f`, or `None` if `f` is
    /// unsatisfiable. Unconstrained variables are omitted from the cube.
    pub fn pick_cube(&self, f: Bdd) -> Option<Cube> {
        if f.is_false() {
            return None;
        }
        let mut literals = Vec::new();
        let mut cur = f;
        while !cur.is_true() {
            let level = self.level_of(cur);
            let (lo, hi) = self.cofactors(cur, level);
            if !lo.is_false() {
                literals.push((Var(level), false));
                cur = lo;
            } else {
                literals.push((Var(level), true));
                cur = hi;
            }
        }
        Some(Cube { literals })
    }

    /// Extracts one satisfying *minterm* of `f` over the given variables:
    /// a cube constraining every variable in `vars`.
    ///
    /// Variables of `f` outside `vars` must not exist (i.e. `vars` must
    /// cover the support of `f`), otherwise the returned minterm may not
    /// satisfy `f` for all completions.
    pub fn pick_minterm(&self, f: Bdd, vars: &[Var]) -> Option<Cube> {
        let partial = self.pick_cube(f)?;
        let mut literals = partial.literals;
        let have: std::collections::HashSet<u32> = literals.iter().map(|&(v, _)| v.0).collect();
        for &v in vars {
            if !have.contains(&v.0) {
                literals.push((v, false));
            }
        }
        literals.sort_unstable_by_key(|&(v, _)| v.0);
        Some(Cube { literals })
    }

    /// Samples a satisfying minterm of `f` over `vars` *uniformly at
    /// random*, using exact solution counts to weight each branch
    /// (constrained-random stimulus generation: `f` is the constraint,
    /// the minterm is the stimulus).
    ///
    /// Randomness is supplied by `pick`, called as `pick(bound)` and
    /// expected to return a uniform value in `[0, bound)` — keeping this
    /// crate free of RNG dependencies.
    ///
    /// Returns `None` if `f` is unsatisfiable. `vars` must cover the
    /// support of `f` and be sorted by level.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable outside `vars` (debug builds),
    /// or if more than 127 variables are given.
    pub fn sample_minterm(
        &self,
        f: Bdd,
        vars: &[crate::Var],
        mut pick: impl FnMut(u128) -> u128,
    ) -> Option<Cube> {
        if f.is_false() {
            return None;
        }
        assert!(
            vars.len() <= 127,
            "sample_minterm supports at most 127 variables"
        );
        debug_assert!(
            vars.windows(2).all(|w| w[0].0 < w[1].0),
            "vars must be sorted"
        );
        let num_vars = vars.last().map(|v| v.0 + 1).unwrap_or(0);
        let mut literals = Vec::with_capacity(vars.len());
        let mut cur = f;
        for &v in vars {
            let level = self.level_of(cur);
            let (lo, hi) = if level == v.0 {
                self.cofactors(cur, level)
            } else {
                // f does not test v here: both branches identical.
                (cur, cur)
            };
            // Solutions under each branch, counted over every level
            // `0..num_vars` rather than over `vars`: the two counts share
            // one scale, so the split is exact, and the `pick` bounds stay
            // the ones every sampled stream (E10's among them) was drawn
            // with.
            let count = |g: Bdd| -> u128 {
                if g.is_false() {
                    0
                } else {
                    self.sat_count(g, num_vars)
                }
            };
            let c_lo = count(lo);
            let c_hi = count(hi);
            let total = c_lo + c_hi;
            debug_assert!(total > 0, "reached an unsatisfiable branch");
            let go_high = pick(total) >= c_lo;
            literals.push((v, go_high));
            cur = if go_high { hi } else { lo };
        }
        debug_assert!(cur.is_true(), "vars must cover the support of f");
        Some(Cube { literals })
    }

    /// Iterates all satisfying minterms of `f` over `vars` (which must
    /// cover the support of `f`). The iteration is deterministic
    /// (lexicographic in the variable order).
    ///
    /// # Example
    ///
    /// ```
    /// use simcov_bdd::BddManager;
    ///
    /// let mut m = BddManager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.or(a, b);
    /// let vars = [simcov_bdd::Var(0), simcov_bdd::Var(1)];
    /// assert_eq!(m.cubes(f, &vars).count(), 3);
    /// ```
    pub fn cubes<'a>(&'a self, f: Bdd, vars: &'a [Var]) -> CubeIter<'a> {
        CubeIter {
            mgr: self,
            vars,
            stack: if f.is_false() {
                Vec::new()
            } else {
                vec![(f, 0, Vec::new())]
            },
        }
    }
}

/// Iterator over the satisfying minterms of a BDD; see
/// [`BddManager::cubes`].
pub struct CubeIter<'a> {
    mgr: &'a BddManager,
    vars: &'a [Var],
    /// (node, index into vars, literals chosen so far)
    stack: Vec<(Bdd, usize, Vec<bool>)>,
}

impl Iterator for CubeIter<'_> {
    type Item = Cube;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, vi, lits)) = self.stack.pop() {
            if vi == self.vars.len() {
                if node.is_true() {
                    let literals = self.vars.iter().zip(&lits).map(|(&v, &p)| (v, p)).collect();
                    return Some(Cube { literals });
                }
                // Support of f not covered by vars — skip (documented
                // precondition violation degrades to missing minterms, not
                // wrong ones).
                continue;
            }
            let v = self.vars[vi];
            let level = self.mgr.level_of(node);
            let (lo, hi) = if level == v.0 {
                self.mgr.cofactors(node, level)
            } else {
                (node, node)
            };
            // Push high second so that the low branch (false literal) comes
            // out first: lexicographic order.
            if !hi.is_false() {
                let mut l1 = lits.clone();
                l1.push(true);
                self.stack.push((hi, vi + 1, l1));
            }
            if !lo.is_false() {
                let mut l0 = lits;
                l0.push(false);
                self.stack.push((lo, vi + 1, l0));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_cube_none_for_false() {
        let m = BddManager::new(2);
        assert_eq!(m.pick_cube(Bdd::FALSE), None);
    }

    #[test]
    fn pick_cube_satisfies() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(2);
        let nb = m.not(b);
        let f = m.and(a, nb);
        let cube = m.pick_cube(f).unwrap();
        let asg = cube.to_assignment(4);
        assert!(m.eval(f, &asg));
        assert_eq!(cube.polarity(Var(0)), Some(true));
        assert_eq!(cube.polarity(Var(2)), Some(false));
        assert_eq!(cube.polarity(Var(1)), None);
    }

    #[test]
    fn pick_minterm_constrains_all_vars() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let vars = [Var(0), Var(1), Var(2)];
        let mt = m.pick_minterm(a, &vars).unwrap();
        assert_eq!(mt.literals.len(), 3);
        assert!(m.eval(a, &mt.to_assignment(3)));
    }

    #[test]
    fn cubes_enumerates_all_minterms() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let vars = [Var(0), Var(1), Var(2)];
        let minterms: Vec<Cube> = m.cubes(f, &vars).collect();
        assert_eq!(minterms.len(), m.sat_count(f, 3) as usize);
        for mt in &minterms {
            assert!(m.eval(f, &mt.to_assignment(3)));
        }
        // Lexicographic and unique.
        let mut asgs: Vec<Assignment> = minterms.iter().map(|c| c.to_assignment(3)).collect();
        let sorted = {
            let mut s = asgs.clone();
            s.sort();
            s
        };
        assert_eq!(asgs, sorted);
        asgs.dedup();
        assert_eq!(asgs.len(), minterms.len());
    }

    #[test]
    fn cubes_of_true_covers_space() {
        let m = BddManager::new(2);
        let vars = [Var(0), Var(1)];
        assert_eq!(m.cubes(Bdd::TRUE, &vars).count(), 4);
        assert_eq!(m.cubes(Bdd::FALSE, &vars).count(), 0);
    }

    #[test]
    fn cube_to_assignment_default_false() {
        let c = Cube {
            literals: vec![(Var(1), true)],
        };
        assert_eq!(c.to_assignment(3), vec![false, true, false]);
    }

    #[test]
    fn sample_minterm_satisfies_constraint() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let vars = [Var(0), Var(1), Var(2), Var(3)];
        // Deterministic "random" stream.
        let mut state = 12345u128;
        for _ in 0..50 {
            let mt = m
                .sample_minterm(f, &vars, |bound| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    state % bound
                })
                .expect("satisfiable");
            assert!(m.eval(f, &mt.to_assignment(4)));
            assert_eq!(mt.literals.len(), 4);
        }
        assert!(m.sample_minterm(Bdd::FALSE, &vars, |b| b / 2).is_none());
    }

    #[test]
    fn sample_minterm_is_roughly_uniform() {
        // f = a | b over 2 vars has 3 minterms; sample many times with a
        // decent PRNG and check each minterm appears with frequency near
        // 1/3.
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let vars = [Var(0), Var(1)];
        let mut counts = [0u32; 4];
        let mut state = 0x9e3779b97f4a7c15u128;
        for _ in 0..3000 {
            let mt = m
                .sample_minterm(f, &vars, |bound| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % bound
                })
                .expect("satisfiable");
            let asg = mt.to_assignment(2);
            counts[(asg[0] as usize) | ((asg[1] as usize) << 1)] += 1;
        }
        assert_eq!(counts[0], 0, "00 does not satisfy a|b");
        for &c in &counts[1..] {
            assert!((800..1200).contains(&c), "non-uniform: {counts:?}");
        }
    }
}
