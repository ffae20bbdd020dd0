//! The image schedule: the crate's one partitioned image computation
//! with early quantification.
//!
//! A machine with next-state functions `f_j(x, i)` has the image
//!
//! ```text
//! Img(S)(x) = (∃ x, i . S(x) ∧ care(x, i) ∧ ∧_j (y_j ⇔ f_j(x, i)))[y → x]
//! ```
//!
//! computed conjunct by conjunct: a current-state or input variable is
//! quantified right after the last conjunct whose next-state function
//! mentions it, or up front if none does (early quantification, as in
//! Touati et al., ICCAD 1990). [`ImageSchedule`] holds that schedule,
//! built once per machine, and its three users run every image and
//! reachability through it: [`SymbolicFsm`](crate::SymbolicFsm) (the
//! Section 7.2 statistics), [`PairFsm`](crate::PairFsm) (copy A's
//! reachable states) and the input-class analysis (reachability over its
//! dual-input layout).

use crate::symbolic::ReachResult;
use simcov_bdd::{Bdd, BddManager, Var};

/// One machine's image step: the cube quantified up front, then each
/// `y_j ⇔ f_j` conjunct with the cube of the variables it is the last
/// to mention, then the `y → x` rename.
#[derive(Debug, Clone)]
pub(crate) struct ImageSchedule {
    pre: Bdd,
    steps: Vec<(Bdd, Bdd)>,
    rename: Vec<(Var, Var)>,
}

impl ImageSchedule {
    /// The schedule of next-state functions `next`, where latch `j` has
    /// current-state and image variables `latches[j]`, over the
    /// primary-input variables `inputs`. The current-state and input
    /// variables are the ones quantified; the schedule reads the
    /// functions' supports as they are (after any care-set cofactoring).
    ///
    /// It makes its nodes in one fixed order — the up-front cube, then
    /// each conjunct followed by its cube — so a caller's node numbering,
    /// and with it the BDD cache counters, is the same on every run.
    pub(crate) fn new(
        mgr: &mut BddManager,
        next: &[Bdd],
        latches: &[(Var, Var)],
        inputs: &[Var],
    ) -> Self {
        let mut last_use: Vec<Option<usize>> = vec![None; mgr.num_vars() as usize];
        for (j, &f) in next.iter().enumerate() {
            for v in mgr.support(f) {
                last_use[v.0 as usize] = Some(j);
            }
        }
        let mut pre = Vec::new();
        let mut per_step: Vec<Vec<Var>> = vec![Vec::new(); next.len()];
        for &v in latches.iter().map(|(x, _)| x).chain(inputs) {
            match last_use[v.0 as usize] {
                Some(j) => per_step[j].push(v),
                None => pre.push(v),
            }
        }
        let pre = mgr.cube_from_vars(&pre);
        let steps = next
            .iter()
            .zip(latches)
            .zip(&per_step)
            .map(|((&f, &(_, y)), vars)| {
                let y = mgr.var(y.0);
                let conj = mgr.iff(y, f);
                (conj, mgr.cube_from_vars(vars))
            })
            .collect();
        ImageSchedule {
            pre,
            steps,
            rename: latches.iter().map(|&(x, y)| (y, x)).collect(),
        }
    }

    /// The `y_j ⇔ f_j` conjuncts in latch order.
    pub(crate) fn conjuncts(&self) -> impl DoubleEndedIterator<Item = Bdd> + '_ {
        self.steps.iter().map(|&(conj, _)| conj)
    }

    /// `Img(from)` under the care set `care` (the valid inputs), over the
    /// current-state variables.
    pub(crate) fn image(&self, mgr: &mut BddManager, from: Bdd, care: Bdd) -> Bdd {
        let mut cur = mgr.and(from, care);
        cur = mgr.exists(cur, self.pre);
        for &(conj, cube) in &self.steps {
            cur = mgr.and_exists(cur, conj, cube);
        }
        mgr.rename(cur, &self.rename)
    }

    /// The least fixed point of [`image`](Self::image) from `init`: the
    /// states reachable under `care`, and the number of images taken,
    /// the last of them adding nothing.
    pub(crate) fn reach(&self, mgr: &mut BddManager, init: Bdd, care: Bdd) -> ReachResult {
        let mut reached = init;
        let mut frontier = init;
        let mut iterations = 0;
        loop {
            iterations += 1;
            let img = self.image(mgr, frontier, care);
            let nr = mgr.not(reached);
            let new = mgr.and(img, nr);
            if new.is_false() {
                return ReachResult {
                    reached,
                    iterations,
                };
            }
            reached = mgr.or(reached, new);
            frontier = new;
        }
    }
}
