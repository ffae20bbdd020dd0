//! Boolean operations: ITE, connectives, quantification, relational
//! product, substitution and renaming.

use crate::manager::{Bdd, BddManager, Var, TERMINAL_LEVEL};
use crate::util::U32Map64;

/// Tag values distinguishing operations that share the ternary cache.
const TAG_EXISTS: u32 = 0;
const TAG_FORALL: u32 = 1;

impl BddManager {
    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// This is the universal connective; all binary operations are derived
    /// from it (Brace/Rudell/Bryant, DAC 1990).
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if let Some(r) = self.ite_cache.get(f.0, g.0, h.0) {
            self.stats.ite_cache_hits += 1;
            return Bdd(r);
        }
        self.stats.ite_cache_misses += 1;
        let lf = self.level_of(f);
        let lg = self.level_of(g);
        let lh = self.level_of(h);
        let top = lf.min(lg).min(lh);
        debug_assert_ne!(top, TERMINAL_LEVEL);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let r0 = self.ite(f0, g0, h0);
        let r1 = self.ite(f1, g1, h1);
        let r = self.mk_node(top, r0, r1);
        self.ite_cache.insert(f.0, g.0, h.0, r.0);
        r
    }

    /// Logical negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Bdd::FALSE, Bdd::TRUE)
    }

    /// Logical conjunction.
    ///
    /// Dedicated binary apply rather than `ite(f, g, FALSE)`: conjunction
    /// is the workhorse of transition-relation construction, and the
    /// two-operand recursion (no third cofactor set) with a *commutative*
    /// cache key — operands sorted, so `f ∧ g` and `g ∧ f` share one entry
    /// — measurably cuts both per-call cost and cache misses. The cache
    /// namespace is shared with `ite(f, g, FALSE)`, whose entries mean the
    /// same thing.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g || g.is_true() {
            return f;
        }
        if f.is_true() {
            return g;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.ite_cache.get(f.0, g.0, Bdd::FALSE.0) {
            self.stats.ite_cache_hits += 1;
            return Bdd(r);
        }
        self.stats.ite_cache_misses += 1;
        let (lf, fl, fh) = self.expand(f);
        let (lg, gl, gh) = self.expand(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fl, fh) } else { (f, f) };
        let (g0, g1) = if lg == top { (gl, gh) } else { (g, g) };
        let r0 = self.and(f0, g0);
        let r1 = self.and(f1, g1);
        let r = self.mk_node(top, r0, r1);
        self.ite_cache.insert(f.0, g.0, Bdd::FALSE.0, r.0);
        r
    }

    /// Logical disjunction. Like [`BddManager::and`], a dedicated binary
    /// apply with a commutative cache key, sharing the `ite(f, TRUE, g)`
    /// cache namespace.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g || g.is_false() {
            return f;
        }
        if f.is_false() {
            return g;
        }
        if f.is_true() || g.is_true() {
            return Bdd::TRUE;
        }
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.ite_cache.get(f.0, Bdd::TRUE.0, g.0) {
            self.stats.ite_cache_hits += 1;
            return Bdd(r);
        }
        self.stats.ite_cache_misses += 1;
        let (lf, fl, fh) = self.expand(f);
        let (lg, gl, gh) = self.expand(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fl, fh) } else { (f, f) };
        let (g0, g1) = if lg == top { (gl, gh) } else { (g, g) };
        let r0 = self.or(f0, g0);
        let r1 = self.or(f1, g1);
        let r = self.mk_node(top, r0, r1);
        self.ite_cache.insert(f.0, Bdd::TRUE.0, g.0, r.0);
        r
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Logical equivalence (XNOR). The workhorse of transition-relation
    /// construction: `T = ∧_j (y_j ⇔ f_j(x, i))`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Builds the positive cube `∧ vars` used as the variable set of
    /// quantification operations.
    pub fn cube_from_vars(&mut self, vars: &[Var]) -> Bdd {
        let mut sorted: Vec<u32> = vars.iter().map(|v| v.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        // Build bottom-up so each mk_node call is O(1).
        let mut acc = Bdd::TRUE;
        for &v in sorted.iter().rev() {
            acc = self.mk_node(v, Bdd::FALSE, acc);
        }
        acc
    }

    /// Existential quantification `∃ vars . f`, with `vars` given as a
    /// positive cube (see [`BddManager::cube_from_vars`]).
    pub fn exists(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        self.quantify(f, cube, TAG_EXISTS)
    }

    /// Universal quantification `∀ vars . f`.
    pub fn forall(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        self.quantify(f, cube, TAG_FORALL)
    }

    fn quantify(&mut self, f: Bdd, cube: Bdd, tag: u32) -> Bdd {
        if f.is_const() || cube.is_true() {
            return f;
        }
        // Skip cube variables above f's top variable: they do not occur in f.
        let lf = self.level_of(f);
        let mut cube = cube;
        while !cube.is_true() && self.level_of(cube) < lf {
            let (_, hi) = {
                let l = self.level_of(cube);
                self.cofactors(cube, l)
            };
            cube = hi;
        }
        if cube.is_true() {
            return f;
        }
        // The ternary cache is shared between EXISTS and FORALL via the tag
        // packed into the third key slot's high bit-space: we instead keep
        // one cache and shift the tag into the cube key. Cube indices are
        // node indices (< 2^31 in practice), so stealing the MSB is safe.
        let key_c = cube.0 | (tag << 31);
        if let Some(r) = self.quant_cache.get(f.0, key_c, tag) {
            return Bdd(r);
        }
        let lc = self.level_of(cube);
        let (f0, f1) = self.cofactors(f, lf);
        let r = if lc == lf {
            let (_, cube_rest) = self.cofactors(cube, lc);
            let r0 = self.quantify(f0, cube_rest, tag);
            let r1 = self.quantify(f1, cube_rest, tag);
            if tag == TAG_EXISTS {
                self.or(r0, r1)
            } else {
                self.and(r0, r1)
            }
        } else {
            let r0 = self.quantify(f0, cube, tag);
            let r1 = self.quantify(f1, cube, tag);
            self.mk_node(lf, r0, r1)
        };
        self.quant_cache.insert(f.0, key_c, tag, r.0);
        r
    }

    /// Relational product `∃ vars . (f ∧ g)`, computed without building the
    /// intermediate conjunction — the core of symbolic image computation
    /// (Touati et al., ICCAD 1990).
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Bdd {
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        if f.is_true() {
            return self.exists(g, cube);
        }
        if g.is_true() {
            return self.exists(f, cube);
        }
        if let Some(r) = self.and_exists_cache.get(f.0, g.0, cube.0) {
            return Bdd(r);
        }
        let lf = self.level_of(f);
        let lg = self.level_of(g);
        let top = lf.min(lg);
        // Skip cube variables strictly above `top`.
        let mut cube_here = cube;
        while !cube_here.is_true() && self.level_of(cube_here) < top {
            let l = self.level_of(cube_here);
            let (_, hi) = self.cofactors(cube_here, l);
            cube_here = hi;
        }
        if cube_here.is_true() {
            return self.and(f, g);
        }
        let lc = self.level_of(cube_here);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let r = if lc == top {
            let (_, cube_rest) = self.cofactors(cube_here, lc);
            let r0 = self.and_exists(f0, g0, cube_rest);
            if r0.is_true() {
                Bdd::TRUE
            } else {
                let r1 = self.and_exists(f1, g1, cube_rest);
                self.or(r0, r1)
            }
        } else {
            let r0 = self.and_exists(f0, g0, cube_here);
            let r1 = self.and_exists(f1, g1, cube_here);
            self.mk_node(top, r0, r1)
        };
        self.and_exists_cache.insert(f.0, g.0, cube.0, r.0);
        r
    }

    /// Simultaneous substitution `f[v₁ := g₁, …, vₙ := gₙ]`: every listed
    /// variable is replaced at once, so a `gᵢ` may mention any `vⱼ`
    /// (its own included) and that occurrence still means the original
    /// variable. This is the vector compose of a preimage: `E(δ(x, i))`
    /// is `substitute(E, &[(x₀, δ₀), (x₁, δ₁), …])`. A variable listed
    /// twice takes its last substitute.
    ///
    /// One memoized pass over `f`: each node becomes
    /// `ite(gᵥ, high', low')` over its substituted children, and subgraphs
    /// below the deepest listed variable are returned as they are.
    pub fn substitute(&mut self, f: Bdd, subst: &[(Var, Bdd)]) -> Bdd {
        let Some(deepest) = subst.iter().map(|(v, _)| v.0).max() else {
            return f;
        };
        let mut table = vec![None; deepest as usize + 1];
        for &(v, g) in subst {
            table[v.0 as usize] = Some(g);
        }
        self.substitute_rec(f, &table, &mut U32Map64::new())
    }

    fn substitute_rec(&mut self, f: Bdd, table: &[Option<Bdd>], memo: &mut U32Map64) -> Bdd {
        let (level, low, high) = self.expand(f);
        // Terminals sit at `TERMINAL_LEVEL`, below every listed variable.
        if level as usize >= table.len() {
            return f;
        }
        if let Some(r) = memo.get(f.0) {
            return Bdd(r as u32);
        }
        let r0 = self.substitute_rec(low, table, memo);
        let r1 = self.substitute_rec(high, table, memo);
        let r = match table[level as usize] {
            Some(g) => self.ite(g, r1, r0),
            None if (r0, r1) == (low, high) => f,
            // Still ordered under `level`: no ITE needed.
            None if level < self.level_of(r0).min(self.level_of(r1)) => self.mk_node(level, r0, r1),
            None => {
                let x = self.var(level);
                self.ite(x, r1, r0)
            }
        };
        memo.insert(f.0, r.0 as u64);
        r
    }

    /// Substitutes function `g` for variable `v` in `f` (Shannon-style
    /// composition `f[v := g]`).
    pub fn compose(&mut self, f: Bdd, v: Var, g: Bdd) -> Bdd {
        self.substitute(f, &[(v, g)])
    }

    /// Renames variables of `f` according to `map` (pairs `(from, to)`).
    ///
    /// The mapping must be *monotone with respect to levels*: if
    /// `from_a < from_b` then `to_a < to_b`. This is the common case of
    /// next-state → current-state renaming with interleaved orders, and it
    /// allows a direct linear rebuild.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the mapping is not monotone, which would
    /// silently produce an unordered diagram.
    pub fn rename(&mut self, f: Bdd, map: &[(Var, Var)]) -> Bdd {
        let mut pairs: Vec<(u32, u32)> = map.iter().map(|&(a, b)| (a.0, b.0)).collect();
        pairs.sort_unstable();
        debug_assert!(
            pairs.windows(2).all(|w| w[0].1 < w[1].1),
            "rename mapping must be monotone in levels"
        );
        let mut table = vec![u32::MAX; self.num_vars() as usize];
        for &(from, to) in &pairs {
            table[from as usize] = to;
        }
        let mut cache = std::collections::HashMap::new();
        self.rename_rec(f, &table, &mut cache)
    }

    fn rename_rec(
        &mut self,
        f: Bdd,
        table: &[u32],
        cache: &mut std::collections::HashMap<u32, u32>,
    ) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = cache.get(&f.0) {
            return Bdd(r);
        }
        let lf = self.level_of(f);
        let (f0, f1) = self.cofactors(f, lf);
        let r0 = self.rename_rec(f0, table, cache);
        let r1 = self.rename_rec(f1, table, cache);
        let new_level = if table[lf as usize] == u32::MAX {
            lf
        } else {
            table[lf as usize]
        };
        let r = self.mk_node(new_level, r0, r1);
        cache.insert(f.0, r.0);
        r
    }

    /// Cofactor of `f` under the partial assignment `lits`
    /// (`(var, polarity)` pairs).
    pub fn restrict(&mut self, f: Bdd, lits: &[(Var, bool)]) -> Bdd {
        let subst: Vec<(Var, Bdd)> = lits.iter().map(|&(v, b)| (v, self.constant(b))).collect();
        self.substitute(f, &subst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(6)
    }

    #[test]
    fn basic_connectives_truth_tables() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        let and = m.and(a, b);
        let or = m.or(a, b);
        let xor = m.xor(a, b);
        let iff = m.iff(a, b);
        for (va, vb) in cases {
            let asg = [va, vb, false, false, false, false];
            assert_eq!(m.eval(and, &asg), va && vb);
            assert_eq!(m.eval(or, &asg), va || vb);
            assert_eq!(m.eval(xor, &asg), va ^ vb);
            assert_eq!(m.eval(iff, &asg), va == vb);
        }
    }

    #[test]
    fn not_is_involutive() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(3);
        let f = m.xor(a, b);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn ite_canonical() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        // ite(a, b, b) == b
        assert_eq!(m.ite(a, b, b), b);
        // ite(a, 1, 0) == a
        assert_eq!(m.ite(a, Bdd::TRUE, Bdd::FALSE), a);
    }

    #[test]
    fn exists_removes_variable() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let cube = m.cube_from_vars(&[Var(0)]);
        let ex = m.exists(f, cube);
        // ∃a. a∧b == b
        assert_eq!(ex, b);
        let fa = m.forall(f, cube);
        // ∀a. a∧b == false
        assert_eq!(fa, Bdd::FALSE);
    }

    #[test]
    fn exists_over_disjoint_var_is_identity() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let cube = m.cube_from_vars(&[Var(5)]);
        assert_eq!(m.exists(f, cube), f);
    }

    #[test]
    fn and_exists_matches_unfused() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let nb = m.not(b);
        let f = m.or(a, b);
        let g = m.or(nb, c);
        let cube = m.cube_from_vars(&[Var(1)]);
        let fused = m.and_exists(f, g, cube);
        let conj = m.and(f, g);
        let unfused = m.exists(conj, cube);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn and_exists_exhaustive_small() {
        // Exhaustively compare fused vs unfused over random functions of 4
        // variables, quantifying each subset of a 2-variable cube.
        let mut m = BddManager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        // Two deterministic "random" functions.
        let t1 = m.and(vars[0], vars[2]);
        let t2 = m.xor(vars[1], vars[3]);
        let f = m.or(t1, t2);
        let t3 = m.iff(vars[0], vars[3]);
        let g = m.and(t3, vars[1]);
        for vs in [
            vec![],
            vec![Var(0)],
            vec![Var(1), Var(2)],
            vec![Var(0), Var(3)],
        ] {
            let cube = m.cube_from_vars(&vs);
            let fused = m.and_exists(f, g, cube);
            let conj = m.and(f, g);
            let unfused = m.exists(conj, cube);
            assert_eq!(fused, unfused, "cube {vs:?}");
        }
    }

    #[test]
    fn compose_substitutes() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.xor(a, b);
        // f[b := c] = a ^ c
        let g = m.compose(f, Var(1), c);
        let expect = m.xor(a, c);
        assert_eq!(g, expect);
        // Substituting a var not in f is the identity.
        assert_eq!(m.compose(f, Var(4), c), f);
    }

    #[test]
    fn compose_with_overlapping_support() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        // f[b := ¬a] = a ∧ ¬a = false
        let na = m.not(a);
        assert_eq!(m.compose(f, Var(1), na), Bdd::FALSE);
    }

    #[test]
    fn rename_monotone() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let r = m.rename(f, &[(Var(0), Var(2)), (Var(1), Var(3))]);
        let c = m.var(2);
        let d = m.var(3);
        let expect = m.and(c, d);
        assert_eq!(r, expect);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let fa = m.restrict(f, &[(Var(0), true)]);
        let nb = m.not(b);
        assert_eq!(fa, nb);
        let fab = m.restrict(f, &[(Var(0), true), (Var(1), true)]);
        assert_eq!(fab, Bdd::FALSE);
    }

    #[test]
    fn cube_from_vars_dedups_and_sorts() {
        let mut m = mgr();
        let c1 = m.cube_from_vars(&[Var(3), Var(1), Var(3)]);
        let c2 = m.cube_from_vars(&[Var(1), Var(3)]);
        assert_eq!(c1, c2);
        assert!(m.eval(c1, &[false, true, false, true, false, false]));
        assert!(!m.eval(c1, &[false, true, false, false, false, false]));
    }

    #[test]
    fn demorgan_property() {
        let mut m = mgr();
        let a = m.var(2);
        let b = m.var(4);
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }
}
