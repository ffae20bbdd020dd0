//! Generic Moore-style partition refinement over dense successor tables,
//! the engine of Mealy minimization ([`crate::minimize`]).
//!
//! The problem: given `n` items, an initial partition by local
//! observations, and a deterministic successor function per input symbol,
//! compute the coarsest refinement of the initial partition that is a
//! *congruence* — two items land in the same final class iff no input
//! sequence ever drives them to differently-labelled classes. The loop
//! runs over dense `u32` tables, so the inner loop is a flat array walk
//! with no hashing of machine state. (The static fault-collapsing
//! analysis, `simcov-analyze`, asks only which of a few start items are
//! equivalent, and decides that pair by pair instead; its property tests
//! use this refinement as their oracle.)
//!
//! The loop is the signature-refinement formulation of Moore's algorithm:
//! each round re-keys every item by `(current class, successor classes)`;
//! because the signature embeds the current class, classes only ever
//! split, and the partition is stable exactly when the class count stops
//! growing. Worst case `O(n² · |I|)` (one split per round), typical
//! `O(r · n · |I|)` for `r` rounds — the Hopcroft-style worklist variant
//! is deliberately not used: at this repo's scales the constant factor of
//! the dense re-key loop wins, and the output is identical.

use std::collections::HashMap;

/// A partition of `n` items into classes `0..num_classes`.
///
/// Class IDs are *canonical*: classes are numbered by first appearance in
/// item order, so the same input always produces the same numbering —
/// which is what lets downstream certificates treat class IDs as stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `class_of[item]` = the item's class.
    pub class_of: Vec<u32>,
    /// Number of distinct classes (`0` only for zero items).
    pub num_classes: u32,
}

impl Partition {
    /// Renumbers an arbitrary class assignment canonically (classes by
    /// first appearance in item order) and counts the classes.
    pub fn canonicalize(raw: &[u32]) -> Partition {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(raw.len());
        for &c in raw {
            let next = remap.len() as u32;
            class_of.push(*remap.entry(c).or_insert(next));
        }
        let num_classes = remap.len() as u32;
        Partition {
            class_of,
            num_classes,
        }
    }
}

/// Partitions `n` items by their observation rows: items `a` and `b`
/// share a class iff `rows[a*width..][..width] == rows[b*width..][..width]`.
///
/// The usual way to build the *initial* partition for
/// [`refine_partition`]: pack whatever is locally observable about an
/// item (output row, label bits, edge tags) into a fixed-width `u32` row.
pub fn partition_by_rows(rows: &[u32], width: usize) -> Partition {
    assert!(width > 0, "row width must be nonzero");
    assert_eq!(rows.len() % width, 0, "rows must be a multiple of width");
    let n = rows.len() / width;
    let mut seen: HashMap<&[u32], u32> = HashMap::new();
    let mut class_of = Vec::with_capacity(n);
    for item in 0..n {
        let row = &rows[item * width..(item + 1) * width];
        let next = seen.len() as u32;
        class_of.push(*seen.entry(row).or_insert(next));
    }
    Partition {
        num_classes: seen.len() as u32,
        class_of,
    }
}

/// Refines `initial` to the coarsest congruence w.r.t. the dense
/// successor table `succ` (`succ[item * num_inputs + x]` = successor of
/// `item` on input `x`): after refinement, equivalent items have, for
/// every input, successors in equivalent classes — and, transitively, no
/// input sequence separates them.
///
/// Class IDs in the result are canonical (first appearance in item
/// order). The initial partition is honoured exactly: the result is
/// always a refinement of it, never a coarsening.
///
/// # Panics
///
/// Panics if `succ.len() != initial.len() * num_inputs` or a successor
/// index is out of range.
pub fn refine_partition(initial: &[u32], num_inputs: usize, succ: &[u32]) -> Partition {
    let n = initial.len();
    assert_eq!(
        succ.len(),
        n * num_inputs,
        "successor table must be items x inputs"
    );
    let mut part = Partition::canonicalize(initial);
    if n == 0 {
        return part;
    }
    loop {
        let before = part.num_classes;
        let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut next_class = vec![0u32; n];
        for item in 0..n {
            let mut sig = Vec::with_capacity(num_inputs + 1);
            sig.push(part.class_of[item]);
            for x in 0..num_inputs {
                let s = succ[item * num_inputs + x] as usize;
                sig.push(part.class_of[s]);
            }
            let next = seen.len() as u32;
            next_class[item] = *seen.entry(sig).or_insert(next);
        }
        let after = seen.len() as u32;
        part = Partition {
            class_of: next_class,
            num_classes: after,
        };
        if after == before {
            return part;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_renumbers_by_first_appearance() {
        let p = Partition::canonicalize(&[7, 3, 7, 9, 3]);
        assert_eq!(p.class_of, vec![0, 1, 0, 2, 1]);
        assert_eq!(p.num_classes, 3);
    }

    #[test]
    fn rows_partition_groups_identical_rows() {
        // Rows of width 2: items 0 and 2 identical.
        let rows = [1, 2, 3, 4, 1, 2];
        let p = partition_by_rows(&rows, 2);
        assert_eq!(p.class_of, vec![0, 1, 0]);
        assert_eq!(p.num_classes, 2);
    }

    #[test]
    fn refine_splits_on_successor_classes() {
        // 4 items, 1 input, ring 0->1->2->3->0; initial: {0,2} vs {1,3}
        // by label, but item 2's successor (3) and item 0's successor (1)
        // share a class, so the partition is already stable.
        let initial = [0, 1, 0, 1];
        let succ = [1, 2, 3, 0];
        let p = refine_partition(&initial, 1, &succ);
        assert_eq!(p.num_classes, 2);
        assert_eq!(p.class_of[0], p.class_of[2]);
        assert_eq!(p.class_of[1], p.class_of[3]);
    }

    #[test]
    fn refine_separates_deep_differences() {
        // Chain 0->1->2->3->3 where only item 3 is labelled differently:
        // every item is a distinct class (distance-to-3 differs).
        let initial = [0, 0, 0, 1];
        let succ = [1, 2, 3, 3];
        let p = refine_partition(&initial, 1, &succ);
        assert_eq!(p.num_classes, 4);
    }

    #[test]
    fn refinement_never_coarsens_the_initial_partition() {
        // Same dynamics, different initial labels: labels must persist.
        let initial = [0, 1, 0, 1];
        let succ = [0, 1, 2, 3]; // self-loops: nothing to split on.
        let p = refine_partition(&initial, 1, &succ);
        assert_eq!(p.num_classes, 2);
        assert_ne!(p.class_of[0], p.class_of[1]);
        assert_eq!(p.class_of[0], p.class_of[2]);
    }

    #[test]
    fn empty_and_single_item() {
        let p = refine_partition(&[], 3, &[]);
        assert_eq!(p.num_classes, 0);
        let p = refine_partition(&[5], 2, &[0, 0]);
        assert_eq!(p.num_classes, 1);
        assert_eq!(p.class_of, vec![0]);
    }

    #[test]
    fn multi_input_refinement() {
        // 2 inputs; items 0,1 same label but input 1 leads to different
        // labels -> split.
        let initial = [0, 0, 1, 2];
        let succ = [
            0, 2, // item 0
            1, 3, // item 1
            2, 2, // item 2
            3, 3, // item 3
        ];
        let p = refine_partition(&initial, 2, &succ);
        assert_ne!(p.class_of[0], p.class_of[1]);
    }
}
