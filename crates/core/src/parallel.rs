//! Deterministic sharding for fault campaigns.
//!
//! A fault campaign is embarrassingly parallel — every injected fault is
//! simulated against the golden machine independently — but the paper's
//! empirical methodology (and this repo's tests) demand *bit-identical*
//! results regardless of how the work is scheduled. The campaign runner,
//! [`ResilientCampaign`](crate::ResilientCampaign), therefore builds on
//! three primitives from this module:
//!
//! 1. **Sharding** is a pure function of the fault count
//!    ([`default_shard_size`]): the fault list is split into contiguous
//!    index ranges of a fixed size, never influenced by the thread count.
//! 2. **Scheduling** is dynamic ([`run_sharded`]): the calling thread
//!    and its `std::thread::scope` helpers drain shards from an atomic
//!    work queue, so a slow shard does not stall the rest (work stealing
//!    by construction).
//! 3. **Merging** is commutative and order-restoring: each shard yields
//!    outcomes plus a [`CampaignStats`] tally; shards are re-assembled in
//!    index order and tallies are combined with [`CampaignStats::merge`],
//!    which is a plain component-wise sum.
//!
//! Because per-fault simulation is deterministic and the shard partition
//! is thread-count independent, a campaign run with 1, 2 or 64 workers
//! produces the same [`CampaignReport`](crate::CampaignReport) and the
//! same [`CampaignStats`], byte for byte.

use crate::faults::FaultOutcome;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism (1 if it cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shard size for `len` items: contiguous ranges, at most 256 shards.
/// Purely a function of `len` so the partition — and therefore every
/// deterministic field of the result — is independent of the job count.
///
/// Public because the shard partition is part of the deterministic result
/// surface: the resilient supervisor and the checkpoint journal must
/// compute exactly this partition to restore a campaign bit-identically.
pub fn default_shard_size(len: usize) -> usize {
    len.div_ceil(256).max(1)
}

/// Runs `work` over contiguous shards of `items` on `jobs` workers and
/// returns the per-shard results **in shard order**.
///
/// `work` receives the shard index and the shard's slice. Shards are
/// handed out through an atomic queue, so workers that finish early pick
/// up the remaining shards. The calling thread is one of the workers: it
/// spawns `workers − 1` scoped threads and drains the queue beside them,
/// where `workers` is `jobs` capped at the shard count. With `jobs <= 1`
/// (or a single shard) no thread is spawned at all, which keeps
/// single-threaded callers allocation- and syscall-cheap.
pub fn run_sharded<T, R, F>(items: &[T], shard_size: usize, jobs: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(shard_size > 0, "shard_size must be nonzero");
    let shards: Vec<&[T]> = items.chunks(shard_size).collect();
    let workers = jobs.max(1).min(shards.len());
    if workers <= 1 {
        return shards.iter().enumerate().map(|(i, s)| work(i, s)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..shards.len()).map(|_| None).collect());
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(shard) = shards.get(i) else { break };
        let r = work(i, shard);
        slots.lock().expect("no worker panicked holding the lock")[i] = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(drain);
        }
        drain();
    });
    slots
        .into_inner()
        .expect("scope joined all workers")
        .into_iter()
        .map(|r| r.expect("every shard index was claimed"))
        .collect()
}

/// Deterministic campaign counters. Identical across thread counts for
/// the same (machine, faults, tests) triple; merged across shards with
/// the commutative, associative [`merge`](CampaignStats::merge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Faults simulated (= faults injected).
    pub faults_simulated: usize,
    /// Faults whose output diverged from the golden machine.
    pub detected: usize,
    /// Faults whose faulty transition was traversed by some sequence.
    pub excited: usize,
    /// Faults showing a masked excursion (diverge/reconverge unobserved).
    pub masked: usize,
    /// Excited but never detected — the paper's escapes.
    pub escapes: usize,
    /// Shards merged into this tally.
    pub shards: usize,
}

impl CampaignStats {
    /// Tallies one shard's outcomes.
    pub fn tally(outcomes: &[FaultOutcome]) -> Self {
        let mut s = CampaignStats {
            faults_simulated: outcomes.len(),
            shards: 1,
            ..Default::default()
        };
        for o in outcomes {
            if o.detected.is_some() {
                s.detected += 1;
            }
            if o.excited {
                s.excited += 1;
                if o.detected.is_none() {
                    s.escapes += 1;
                }
            }
            if o.masked_somewhere {
                s.masked += 1;
            }
        }
        s
    }

    /// Component-wise sum: commutative and associative, so any merge
    /// tree over the same shard set yields the same totals.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.faults_simulated += other.faults_simulated;
        self.detected += other.detected;
        self.excited += other.excited;
        self.masked += other.masked;
        self.escapes += other.escapes;
        self.shards += other.shards;
    }

    /// Fraction of faults detected in `[0, 1]` (1 on an empty campaign).
    pub fn detection_rate(&self) -> f64 {
        if self.faults_simulated == 0 {
            1.0
        } else {
            self.detected as f64 / self.faults_simulated as f64
        }
    }
}

impl std::fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults simulated: {} detected ({:.1}%), {} excited, {} masked, {} escapes \
             [{} shards]",
            self.faults_simulated,
            self.detected,
            100.0 * self.detection_rate(),
            self.excited,
            self.masked,
            self.escapes,
            self.shards
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sharded_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [1, 3, 8] {
            let out = run_sharded(&items, 7, jobs, |idx, shard| (idx, shard.to_vec()));
            let mut flat = Vec::new();
            for (i, (idx, shard)) in out.into_iter().enumerate() {
                assert_eq!(i, idx);
                flat.extend(shard);
            }
            assert_eq!(flat, items);
        }
    }

    #[test]
    fn run_sharded_handles_empty_and_tiny_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(run_sharded(&none, 4, 8, |_, s| s.len()).is_empty());
        let one = [42u32];
        assert_eq!(run_sharded(&one, 4, 8, |_, s| s.len()), vec![1]);
    }

    #[test]
    fn run_sharded_works_shards_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        use std::thread::{self, ThreadId};
        // Shards 0 and 1 each block until two workers hold one of them,
        // so both workers must run: two thread ids, one the caller's.
        let barrier = Barrier::new(2);
        let items: Vec<usize> = (0..8).collect();
        let ids: Vec<ThreadId> = run_sharded(&items, 1, 2, |i, _| {
            if i < 2 {
                barrier.wait();
            }
            thread::current().id()
        });
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 2, "jobs = 2 runs exactly two workers");
        assert!(
            distinct.contains(&thread::current().id()),
            "the calling thread is one of them"
        );
    }

    #[test]
    fn stats_merge_is_commutative() {
        let a = CampaignStats {
            faults_simulated: 10,
            detected: 7,
            excited: 9,
            masked: 2,
            escapes: 2,
            shards: 1,
        };
        let b = CampaignStats {
            faults_simulated: 4,
            detected: 1,
            excited: 3,
            masked: 0,
            escapes: 2,
            shards: 3,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.faults_simulated, 14);
        assert_eq!(ab.shards, 4);
        let s = ab.to_string();
        assert!(s.contains("faults simulated"), "{s}");
        assert!(s.contains("shards"), "{s}");
    }
}
