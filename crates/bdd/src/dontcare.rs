//! Don't-care minimization: the generalized cofactor (`constrain`) and
//! sibling-substitution `restrict` operators of Coudert & Madre.
//!
//! The paper leans on *input don't-cares* ("of the 2^25 possible input
//! combinations, only 8228 are valid... Taking input don't-cares into
//! account reduces the number of reachable states as well as the number
//! of transitions"). These operators are the standard BDD machinery for
//! exploiting such care sets: given a function `f` and a care set `c`,
//! both return a function that agrees with `f` on `c` and is (usually)
//! smaller outside it:
//!
//! * [`BddManager::constrain`] — the generalized cofactor `f ↓ c`, which
//!   additionally satisfies `(f ↓ c) ∧ c = f ∧ c` and distributes over
//!   Boolean connectives;
//! * [`BddManager::restrict_dc`] — sibling substitution, which never
//!   grows the result's support beyond `f`'s.
//!
//! `constrain`'s caller is `simcov_fsm::PairFsm::set_valid_inputs`: it
//! cofactors both pair-machine copies' next-state and output functions by
//! the valid inputs once, and every later query stays inside them.
//! `restrict_dc` has no caller outside its tests.

use crate::manager::{Bdd, BddManager};

/// Tag values for the shared ternary cache.
const TAG_CONSTRAIN: u32 = 2;
const TAG_RESTRICT: u32 = 3;

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

    /// Sibling-substitution `restrict`: agrees with `f` on the care set
    /// `c` and keeps the support within `f`'s (unlike `constrain`, which
    /// can pull care-set variables into the result).
    ///
    /// # Panics
    ///
    /// Panics if `c` is unsatisfiable.
    pub fn restrict_dc(&mut self, f: Bdd, c: Bdd) -> Bdd {
        assert!(!c.is_false(), "care set must be satisfiable");
        self.restrict_rec(f, c)
    }

    fn restrict_rec(&mut self, f: Bdd, c: Bdd) -> Bdd {
        if c.is_true() || f.is_const() {
            return f;
        }
        if let Some(r) = self.quant_cache.get(f.0, c.0, TAG_RESTRICT) {
            return Bdd(r);
        }
        let lf = self.level_of(f);
        let lc = self.level_of(c);
        let r = if lc < lf {
            // Care-set variable above f's top: f does not depend on it,
            // so merge the two care branches and continue.
            let (c0, c1) = self.cofactors(c, lc);
            let merged = self.or(c0, c1);
            self.restrict_rec(f, merged)
        } else {
            let top = lf;
            let (c0, c1) = self.cofactors(c, top);
            let (f0, f1) = self.cofactors(f, top);
            if c0.is_false() {
                self.restrict_rec(f1, c1)
            } else if c1.is_false() {
                self.restrict_rec(f0, c0)
            } else {
                let r0 = self.restrict_rec(f0, c0);
                let r1 = self.restrict_rec(f1, c1);
                self.mk_node(top, r0, r1)
            }
        };
        self.quant_cache.insert(f.0, c.0, TAG_RESTRICT, r.0);
        r
    }

    /// Renders the DAG rooted at the given functions in Graphviz DOT
    /// format (solid = then-edge, dashed = else-edge). Variables can be
    /// given names via `var_name`; pass `|v| format!("v{}", v.0)` for the
    /// default.
    pub fn to_dot(&self, roots: &[(&str, Bdd)], var_name: impl Fn(crate::Var) -> String) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph bdd {\n  rankdir=TB;\n");
        let _ = writeln!(s, "  t0 [label=\"0\", shape=box];");
        let _ = writeln!(s, "  t1 [label=\"1\", shape=box];");
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<u32> = Vec::new();
        for (name, f) in roots {
            let _ = writeln!(s, "  root_{0} [label=\"{0}\", shape=plaintext];", name);
            let _ = writeln!(s, "  root_{} -> {};", name, node_id(f.0));
            stack.push(f.0);
        }
        while let Some(n) = stack.pop() {
            if !seen.insert(n) || n <= 1 {
                continue;
            }
            let node = self.nodes[n as usize];
            let _ = writeln!(
                s,
                "  {} [label=\"{}\"];",
                node_id(n),
                var_name(crate::Var(node.var))
            );
            let _ = writeln!(s, "  {} -> {};", node_id(n), node_id(node.high));
            let _ = writeln!(
                s,
                "  {} -> {} [style=dashed];",
                node_id(n),
                node_id(node.low)
            );
            stack.push(node.low);
            stack.push(node.high);
        }
        s.push_str("}\n");
        s
    }
}

fn node_id(n: u32) -> String {
    match n {
        0 => "t0".to_string(),
        1 => "t1".to_string(),
        other => format!("n{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

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
    fn restrict_keeps_support_within_f() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let d = m.var(3);
        let f = m.xor(a, b);
        // Care set over an unrelated variable: restrict must ignore it.
        let care = m.or(d, a);
        let g = m.restrict_dc(f, care);
        let support = m.support(g);
        assert!(
            support.iter().all(|v| *v == Var(0) || *v == Var(1)),
            "{support:?}"
        );
        // Still agrees on the care set.
        let lhs = m.and(f, care);
        let g_and = m.and(g, care);
        assert_eq!(lhs, g_and);
    }

    #[test]
    fn restrict_simplifies_with_dont_cares() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        // f = a∧b; care set = a. Restricting: on a=1, f = b.
        let f = m.and(a, b);
        let g = m.restrict_dc(f, a);
        assert_eq!(g, b);
        assert!(m.size(g) < m.size(f));
    }

    #[test]
    fn exhaustive_defining_property() {
        // For random small functions: f∧c == constrain(f,c)∧c and
        // f∧c == restrict(f,c)∧c.
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
            let g1 = m.constrain(f, c);
            let g2 = m.restrict_dc(f, c);
            let fc = m.and(f, c);
            let g1c = m.and(g1, c);
            let g2c = m.and(g2, c);
            assert_eq!(fc, g1c);
            assert_eq!(fc, g2c);
        }
    }

    #[test]
    #[should_panic(expected = "care set must be satisfiable")]
    fn empty_care_set_rejected() {
        let mut m = mgr();
        let a = m.var(0);
        let _ = m.constrain(a, Bdd::FALSE);
    }

    #[test]
    fn dot_export_shape() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let dot = m.to_dot(&[("f", f)], |v| format!("x{}", v.0));
        assert!(dot.starts_with("digraph bdd"));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("root_f"));
        assert!(dot.contains("style=dashed"));
    }
}
