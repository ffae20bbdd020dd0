//! Property-based tests: the BDD package against a brute-force
//! truth-table oracle, on the workspace's hermetic `forall` driver.

use simcov_bdd::{Bdd, BddManager, Var};
use simcov_core::testutil::{forall, Gen};

const NVARS: u32 = 5;

/// A random Boolean expression over `NVARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Random expression of depth at most `depth`. Branching choices are
/// ranged draws, so shrinking collapses cases toward small leaf-heavy
/// expressions.
fn gen_expr(g: &mut Gen, depth: u32) -> Expr {
    let kind = if depth == 0 {
        g.int_in(0..2u8)
    } else {
        g.int_in(0..7u8)
    };
    match kind {
        0 => Expr::Var(g.int_in(0..NVARS)),
        1 => Expr::Const(g.bool()),
        2 => Expr::Not(Box::new(gen_expr(g, depth - 1))),
        3 => Expr::And(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        4 => Expr::Or(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        5 => Expr::Xor(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        _ => Expr::Ite(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
    }
}

fn expr(g: &mut Gen) -> Expr {
    gen_expr(g, 4)
}

fn build(m: &mut BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.var(*v),
        Expr::Const(b) => m.constant(*b),
        Expr::Not(a) => {
            let a = build(m, a);
            m.not(a)
        }
        Expr::And(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.and(a, b)
        }
        Expr::Or(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.or(a, b)
        }
        Expr::Xor(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.xor(a, b)
        }
        Expr::Ite(a, b, c) => {
            let (a, b, c) = (build(m, a), build(m, b), build(m, c));
            m.ite(a, b, c)
        }
    }
}

fn eval(e: &Expr, asg: &[bool]) -> bool {
    match e {
        Expr::Var(v) => asg[*v as usize],
        Expr::Const(b) => *b,
        Expr::Not(a) => !eval(a, asg),
        Expr::And(a, b) => eval(a, asg) && eval(b, asg),
        Expr::Or(a, b) => eval(a, asg) || eval(b, asg),
        Expr::Xor(a, b) => eval(a, asg) ^ eval(b, asg),
        Expr::Ite(a, b, c) => {
            if eval(a, asg) {
                eval(b, asg)
            } else {
                eval(c, asg)
            }
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|code| (0..NVARS).map(|b| (code >> b) & 1 == 1).collect())
}

/// The BDD of an expression evaluates identically to the expression.
#[test]
fn bdd_matches_truth_table() {
    forall("bdd_matches_truth_table", |g| {
        let e = expr(g);
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        for asg in assignments() {
            assert_eq!(m.eval(f, &asg), eval(&e, &asg));
        }
    });
}

/// Canonicity: semantically equal expressions share the same node.
#[test]
fn bdd_is_canonical() {
    forall("bdd_is_canonical", |g| {
        let e = expr(g);
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        // Rebuild through double negation and De Morgan-style reshaping.
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
        // XOR with itself is false; XOR with constant false is identity.
        let z = m.xor(f, f);
        assert_eq!(z, Bdd::FALSE);
        let same = m.xor(f, Bdd::FALSE);
        assert_eq!(same, f);
    });
}

/// sat_count equals brute-force model counting.
#[test]
fn sat_count_matches_enumeration() {
    forall("sat_count_matches_enumeration", |g| {
        let e = expr(g);
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let expect = assignments().filter(|a| eval(&e, a)).count() as u128;
        assert_eq!(m.sat_count(f, NVARS), expect);
    });
}

/// `count_over` against enumeration in a manager of 140 variables: a
/// random function at random levels on both sides of 127, counted over a
/// shuffled list of at most 16 variables (one of them listed twice),
/// matches a brute-force count over that list. On `0..n` it matches
/// `sat_count`; `FALSE` counts 0; `TRUE` reads 2^127 over 127 variables
/// and saturates over 128, and so does the function itself once its
/// count reaches 2^128; a list that misses a variable of the function's
/// support panics.
#[test]
fn count_over_matches_enumeration() {
    const WIDE: u32 = 140;
    forall("count_over_matches_enumeration", |g| {
        let e = expr(g);
        let mut m = BddManager::new(WIDE);
        // Distinct levels, drawn out of a pool so that shrunk replays,
        // whose draws hug the range start, still find them.
        let mut pool: Vec<u32> = (0..WIDE).collect();
        let mut distinct = |g: &mut Gen, len: usize| -> Vec<u32> {
            (0..len)
                .map(|_| pool.swap_remove(g.int_in(0..pool.len())))
                .collect()
        };
        // Expression variable k at level `levels[k]`.
        let levels = distinct(g, NVARS as usize);
        let at_zero = build(&mut m, &e);
        let placed: Vec<(Var, Bdd)> = (0..NVARS)
            .map(|k| (Var(k), m.var(levels[k as usize])))
            .collect();
        let f = m.substitute(at_zero, &placed);

        let mut listed = levels.clone();
        let extra = g.int_in(0..12usize);
        listed.extend(distinct(g, extra));
        for i in (1..listed.len()).rev() {
            listed.swap(i, g.int_in(0..i + 1));
        }
        let mut vars: Vec<Var> = listed.iter().map(|&l| Var(l)).collect();
        vars.insert(g.int_in(0..vars.len() + 1), vars[g.int_in(0..vars.len())]);
        let mut asg = vec![false; WIDE as usize];
        let expect = (0..1u32 << listed.len())
            .filter(|code| {
                for (b, &l) in listed.iter().enumerate() {
                    asg[l as usize] = code >> b & 1 == 1;
                }
                m.eval(f, &asg)
            })
            .count() as u128;
        assert_eq!(m.count_over(f, &vars), expect);
        assert_eq!(m.count_over(Bdd::FALSE, &vars), 0);

        let top = levels.iter().max().unwrap() + 1;
        if top <= 127 {
            let n = g.int_in(top..128);
            let prefix: Vec<Var> = (0..n).map(Var).collect();
            assert_eq!(m.count_over(f, &prefix), m.sat_count(f, n));
        }

        let all: Vec<Var> = (0..WIDE).map(Var).collect();
        let everywhere = if f.is_false() { 0 } else { u128::MAX };
        assert_eq!(m.count_over(f, &all), everywhere);
        let from = g.int_in(0..WIDE - 127);
        let window: Vec<Var> = (from..from + 128).map(Var).collect();
        assert_eq!(m.count_over(Bdd::TRUE, &window), u128::MAX);
        assert_eq!(m.count_over(Bdd::TRUE, &window[1..]), 1 << 127);
        if levels.iter().all(|&l| l > from && l < from + 128) {
            let own: Vec<Var> = levels.iter().map(|&l| Var(l)).collect();
            let c = m.count_over(f, &own);
            let wide = c.checked_mul(1 << (128 - NVARS));
            assert_eq!(m.count_over(f, &window), wide.unwrap_or(u128::MAX));
            assert_eq!(m.count_over(f, &window[1..]), c << (127 - NVARS));
        }

        let support = m.support(f);
        if !support.is_empty() {
            let dropped = support[g.int_in(0..support.len())];
            let partial: Vec<Var> = vars.iter().copied().filter(|&v| v != dropped).collect();
            let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.count_over(f, &partial)
            }));
            assert!(counted.is_err(), "{dropped} is not listed");
        }
    });
}

/// Quantification agrees with expansion: ∃v.f = f[v:=0] | f[v:=1],
/// ∀v.f = f[v:=0] & f[v:=1].
#[test]
fn quantification_matches_expansion() {
    forall("quantification_matches_expansion", |g| {
        let e = expr(g);
        let v = g.int_in(0..NVARS);
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let cube = m.cube_from_vars(&[Var(v)]);
        let f0 = m.restrict(f, &[(Var(v), false)]);
        let f1 = m.restrict(f, &[(Var(v), true)]);
        let ex = m.exists(f, cube);
        let expect_ex = m.or(f0, f1);
        assert_eq!(ex, expect_ex);
        let fa = m.forall(f, cube);
        let expect_fa = m.and(f0, f1);
        assert_eq!(fa, expect_fa);
    });
}

/// The fused relational product equals quantify-after-conjoin.
#[test]
fn and_exists_is_sound() {
    forall("and_exists_is_sound", |g| {
        let a = expr(g);
        let b = expr(g);
        let vars: Vec<Var> = g.vec_of(0..3usize, |g| Var(g.int_in(0..NVARS)));
        let mut m = BddManager::new(NVARS);
        let fa = build(&mut m, &a);
        let fb = build(&mut m, &b);
        let cube = m.cube_from_vars(&vars);
        let fused = m.and_exists(fa, fb, cube);
        let conj = m.and(fa, fb);
        let unfused = m.exists(conj, cube);
        assert_eq!(fused, unfused);
    });
}

/// compose agrees with semantic substitution.
#[test]
fn compose_is_substitution() {
    forall("compose_is_substitution", |gen| {
        let e = expr(gen);
        let g = expr(gen);
        let v = gen.int_in(0..NVARS);
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let gg = build(&mut m, &g);
        let composed = m.compose(f, Var(v), gg);
        for asg in assignments() {
            let mut modified = asg.clone();
            modified[v as usize] = eval(&g, &asg);
            assert_eq!(m.eval(composed, &asg), eval(&e, &modified));
        }
    });
}

/// `e` with every `Var(v)` leaf replaced by `by[v]`, where given.
fn substitute_expr(e: &Expr, by: &[Option<&Expr>]) -> Expr {
    let sub = |a: &Expr| Box::new(substitute_expr(a, by));
    match e {
        Expr::Var(v) => by[*v as usize].map_or(Expr::Var(*v), Expr::clone),
        Expr::Const(b) => Expr::Const(*b),
        Expr::Not(a) => Expr::Not(sub(a)),
        Expr::And(a, b) => Expr::And(sub(a), sub(b)),
        Expr::Or(a, b) => Expr::Or(sub(a), sub(b)),
        Expr::Xor(a, b) => Expr::Xor(sub(a), sub(b)),
        Expr::Ite(a, b, c) => Expr::Ite(sub(a), sub(b), sub(c)),
    }
}

/// substitute is simultaneous substitution, including substitutes that
/// mention the substituted variables themselves: it evaluates as the
/// substituted expression and returns that expression's canonical node.
#[test]
fn substitute_is_simultaneous_substitution() {
    forall("substitute_is_simultaneous_substitution", |gen| {
        let e = expr(gen);
        let pairs: Vec<(u32, Expr)> = gen.vec_of(0..4usize, |g| (g.int_in(0..NVARS), expr(g)));
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let subst: Vec<(Var, Bdd)> = pairs
            .iter()
            .map(|(v, g)| (Var(*v), build(&mut m, g)))
            .collect();
        let got = m.substitute(f, &subst);
        // A variable listed twice takes its last substitute.
        let mut by = vec![None; NVARS as usize];
        for (v, g) in &pairs {
            by[*v as usize] = Some(g);
        }
        let expect = substitute_expr(&e, &by);
        for asg in assignments() {
            assert_eq!(m.eval(got, &asg), eval(&expect, &asg));
        }
        assert_eq!(got, build(&mut m, &expect));
    });
}

/// The generalized cofactor by a satisfiable care set `c` agrees with `f`
/// on `c`, is `f` itself under `TRUE`, and substituting cofactored
/// functions agrees with substituting the originals on `c`: the facts
/// that let a machine's next-state and output functions be cofactored by
/// its valid inputs.
#[test]
fn constrain_agrees_with_f_on_the_care_set() {
    forall("constrain_agrees_with_f_on_the_care_set", |gen| {
        let (f_e, h_e, c_e) = (expr(gen), expr(gen), expr(gen));
        // OR-ing in one random point keeps the care set satisfiable.
        let point: Vec<bool> = (0..NVARS).map(|_| gen.bool()).collect();
        let pairs: Vec<(u32, Expr)> = gen.vec_of(0..4usize, |g| (g.int_in(0..NVARS), expr(g)));
        let mut m = BddManager::new(NVARS);
        let (f, h) = (build(&mut m, &f_e), build(&mut m, &h_e));
        let mut c = build(&mut m, &c_e);
        let minterm = point.iter().enumerate().fold(Bdd::TRUE, |acc, (v, &b)| {
            let lit = if b { m.var(v as u32) } else { m.nvar(v as u32) };
            m.and(acc, lit)
        });
        c = m.or(c, minterm);
        let fc = m.constrain(f, c);
        let (lhs, rhs) = (m.and(fc, c), m.and(f, c));
        assert_eq!(lhs, rhs);
        assert_eq!(m.constrain(f, Bdd::TRUE), f);
        let subst: Vec<(Var, Bdd)> = pairs
            .iter()
            .map(|(v, g)| (Var(*v), build(&mut m, g)))
            .collect();
        let constrained: Vec<(Var, Bdd)> =
            subst.iter().map(|&(v, g)| (v, m.constrain(g, c))).collect();
        let plain = m.substitute(h, &subst);
        let cofactored = m.substitute(h, &constrained);
        let (lhs, rhs) = (m.and(cofactored, c), m.and(plain, c));
        assert_eq!(lhs, rhs);
    });
}

/// reclaim_since keeps every handle below the mark and every root's
/// function, rebuilding a root's function afterwards returns the
/// rewritten handle, and the operation counters are untouched.
#[test]
fn reclaim_keeps_roots_and_everything_below_the_mark() {
    forall("reclaim_keeps_roots_and_everything_below_the_mark", |g| {
        let before: Vec<Expr> = g.vec_of(0..3usize, expr);
        let after: Vec<(Expr, bool)> = g.vec_of(1..5usize, |g| (expr(g), g.bool()));
        let mut m = BddManager::new(NVARS);
        let old: Vec<Bdd> = before.iter().map(|e| build(&mut m, e)).collect();
        let mark = m.num_nodes();
        let mut roots = Vec::new();
        let mut kept = Vec::new();
        for (e, keep) in &after {
            let f = build(&mut m, e);
            if *keep {
                roots.push(f);
                kept.push(e);
            }
        }
        let stats = m.runtime_stats();
        m.reclaim_since(mark, &mut roots);
        assert_eq!(m.runtime_stats(), stats);
        let reachable: usize = roots.iter().map(|&r| m.size(r)).sum();
        assert!(m.num_nodes() >= mark && m.num_nodes() <= mark + reachable);
        if roots.is_empty() {
            assert_eq!(m.num_nodes(), mark);
        }
        let live: Vec<(Bdd, &Expr)> = old
            .iter()
            .copied()
            .zip(&before)
            .chain(roots.into_iter().zip(kept))
            .collect();
        for asg in assignments() {
            for &(h, e) in &live {
                assert_eq!(m.eval(h, &asg), eval(e, &asg));
            }
        }
        for &(h, e) in &live {
            assert_eq!(build(&mut m, e), h);
        }
    });
}

/// copy_from carries functions of manager A into a clone of A taken
/// before they were built and into an unrelated manager over the same
/// order: each copy evaluates like the original, is the handle building
/// it in the target returns, and copies to the same handle twice;
/// constants stay constants. The clone takes A's operation counters
/// since the clone once, with the first copy.
#[test]
fn copy_from_keeps_functions_and_canonical_handles() {
    forall("copy_from_keeps_functions_and_canonical_handles", |g| {
        let before: Vec<Expr> = g.vec_of(0..3usize, expr);
        let copied: Vec<Expr> = g.vec_of(1..5usize, expr);
        let other: Vec<Expr> = g.vec_of(0..4usize, expr);
        let mut a = BddManager::new(NVARS);
        for e in &before {
            build(&mut a, e);
        }
        let mut clone = a.clone();
        let since = a.runtime_stats();
        let fs: Vec<Bdd> = copied.iter().map(|e| build(&mut a, e)).collect();
        let mut unrelated = BddManager::new(NVARS);
        for e in &other {
            build(&mut unrelated, e);
        }
        let unrelated_stats = unrelated.runtime_stats();
        let mut copies = Vec::new();
        for (i, &f) in fs.iter().enumerate() {
            let from = if i == 0 { since } else { a.runtime_stats() };
            let in_clone = clone.copy_from(&a, f, &from);
            let in_unrelated = unrelated.copy_from(&a, f, &a.runtime_stats());
            copies.push([in_clone, in_unrelated]);
        }
        assert_eq!(clone.runtime_stats(), a.runtime_stats());
        assert_eq!(unrelated.runtime_stats(), unrelated_stats);
        for ((&f, e), hs) in fs.iter().zip(&copied).zip(copies) {
            for (m, h) in [&mut clone, &mut unrelated].into_iter().zip(hs) {
                if f.is_const() {
                    assert_eq!(h, f);
                }
                for asg in assignments() {
                    assert_eq!(m.eval(h, &asg), eval(e, &asg));
                }
                assert_eq!(m.copy_from(&a, f, &a.runtime_stats()), h);
                assert_eq!(build(m, e), h);
            }
        }
    });
}

/// pick_cube returns satisfying cubes; cube iteration is exact.
#[test]
fn cubes_are_satisfying_and_exhaustive() {
    forall("cubes_are_satisfying_and_exhaustive", |g| {
        let e = expr(g);
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        match m.pick_cube(f) {
            None => assert_eq!(f, Bdd::FALSE),
            Some(c) => assert!(m.eval(f, &c.to_assignment(NVARS))),
        }
        let vars: Vec<Var> = (0..NVARS).map(Var).collect();
        let count = m.cubes(f, &vars).count() as u128;
        assert_eq!(count, m.sat_count(f, NVARS));
    });
}

/// Renaming to fresh variables then back is the identity.
#[test]
fn rename_roundtrip() {
    forall("rename_roundtrip", |g| {
        let e = expr(g);
        let mut m = BddManager::new(2 * NVARS);
        let f = build(&mut m, &e);
        let fwd: Vec<(Var, Var)> = (0..NVARS).map(|i| (Var(i), Var(i + NVARS))).collect();
        let bwd: Vec<(Var, Var)> = (0..NVARS).map(|i| (Var(i + NVARS), Var(i))).collect();
        let shifted = m.rename(f, &fwd);
        let back = m.rename(shifted, &bwd);
        assert_eq!(back, f);
    });
}
