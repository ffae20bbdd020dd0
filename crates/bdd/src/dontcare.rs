//! Don't-care minimization with the generalized cofactor (`constrain`)
//! of Coudert & Madre.
//!
//! The paper leans on *input don't-cares* ("of the 2^25 possible input
//! combinations, only 8228 are valid... Taking input don't-cares into
//! account reduces the number of reachable states as well as the number
//! of transitions"). [`BddManager::constrain`] is the standard BDD
//! operator for exploiting such a care set: given a function `f` and a
//! care set `c`, the generalized cofactor `f ↓ c` agrees with `f` on `c`,
//! is (usually) smaller outside it, satisfies `(f ↓ c) ∧ c = f ∧ c` and
//! distributes over Boolean connectives.
//!
//! Its caller is `simcov_fsm::PairFsm::set_valid_inputs`: it cofactors
//! both pair-machine copies' next-state and output functions by the valid
//! inputs once, and every later query stays inside them.

use crate::manager::{Bdd, BddManager};

/// Tag value for the shared ternary cache.
const TAG_CONSTRAIN: u32 = 2;

impl BddManager {
    /// Generalized cofactor (Coudert–Madre `constrain`): a function that
    /// agrees with `f` wherever `c` holds.
    ///
    /// # Panics
    ///
    /// Panics if `c` is unsatisfiable (the care set must be non-empty).
    pub fn constrain(&mut self, f: Bdd, c: Bdd) -> Bdd {
        assert!(!c.is_false(), "care set must be satisfiable");
        self.constrain_rec(f, c)
    }

    fn constrain_rec(&mut self, f: Bdd, c: Bdd) -> Bdd {
        if c.is_true() || f.is_const() {
            return f;
        }
        if f == c {
            return Bdd::TRUE;
        }
        if let Some(r) = self.quant_cache.get(f.0, c.0, TAG_CONSTRAIN) {
            return Bdd(r);
        }
        let lf = self.level_of(f);
        let lc = self.level_of(c);
        let top = lf.min(lc);
        let (c0, c1) = self.cofactors(c, top);
        let r = if c0.is_false() {
            // The care set forces this variable to 1.
            let (_, f1) = self.cofactors(f, top);
            self.constrain_rec(f1, c1)
        } else if c1.is_false() {
            let (f0, _) = self.cofactors(f, top);
            self.constrain_rec(f0, c0)
        } else {
            let (f0, f1) = self.cofactors(f, top);
            let r0 = self.constrain_rec(f0, c0);
            let r1 = self.constrain_rec(f1, c1);
            self.mk_node(top, r0, r1)
        };
        self.quant_cache.insert(f.0, c.0, TAG_CONSTRAIN, r.0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(4)
    }

    #[test]
    fn constrain_agrees_on_care_set() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c_var = m.var(2);
        let f = {
            let t = m.and(a, b);
            m.or(t, c_var)
        };
        let care = m.or(a, b);
        let g = m.constrain(f, care);
        // f ∧ care == g ∧ care (the defining property).
        let lhs = m.and(f, care);
        let rhs = m.and(g, care);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn constrain_under_forced_variable() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        // Care set forces a = 1: constrain reduces to ¬b.
        let g = m.constrain(f, a);
        let nb = m.not(b);
        assert_eq!(g, nb);
    }

    #[test]
    fn exhaustive_defining_property() {
        // For random small functions: f∧c == constrain(f,c)∧c.
        let mut m = mgr();
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        let t0 = m.and(vars[0], vars[2]);
        let t1 = m.xor(vars[1], vars[3]);
        let f = m.or(t0, t1);
        let cares = [vars[0], m.or(vars[1], vars[3]), m.xor(vars[0], vars[1]), {
            let t = m.and(vars[2], vars[3]);
            m.or(t, vars[0])
        }];
        for &c in &cares {
            let g = m.constrain(f, c);
            let fc = m.and(f, c);
            let gc = m.and(g, c);
            assert_eq!(fc, gc);
        }
    }

    #[test]
    #[should_panic(expected = "care set must be satisfiable")]
    fn empty_care_set_rejected() {
        let mut m = mgr();
        let a = m.var(0);
        let _ = m.constrain(a, Bdd::FALSE);
    }
}
