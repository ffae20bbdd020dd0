//! Interruption-equivalence property tests for the resilient campaign
//! supervisor (ISSUE 3 satellite): kill a chaos-injected campaign at a
//! random shard boundary — or emulate SIGKILL by truncating the journal
//! at a random byte — resume from the checkpoint, and assert the final
//! report is byte-identical to a clean uninterrupted run at every thread
//! count in {1, 2, 8}.
//!
//! The `chaos` feature is enabled for all test builds of `simcov-core`
//! through its self-referential dev-dependency, so these tests can drive
//! the injection layer without any cargo flags.

use simcov_core::resilient::chaos::{silence_chaos_panics, ChaosPlan};
use simcov_core::testutil::{figure2, forall_cfg, Config};
use simcov_core::{
    enumerate_single_faults, extend_cyclically, Fault, FaultSpace, ResilientCampaign,
};
use simcov_fsm::ExplicitMealy;
use simcov_tour::{transition_tour, TestSet};
use std::path::PathBuf;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> (ExplicitMealy, Vec<Fault>, TestSet) {
    let (m, _) = figure2();
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: usize::MAX,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).unwrap();
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 3));
    (m, faults, tests)
}

/// Unique scratch path per (test, case): property cases run in one
/// process, so the case tag disambiguates.
fn scratch(test: &str, tag: u64) -> Scratch {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "simcov_resilience_{test}_{}_{tag:016x}.journal",
        std::process::id()
    ));
    Scratch(p)
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The ISSUE's acceptance property: a campaign killed by injected panics
/// mid-run (retry budget 0, so every injected panic quarantines its
/// shard — progress stops at a shard boundary) resumes from its journal
/// to a report byte-identical to an uninterrupted run, at every thread
/// count.
#[test]
fn killed_campaign_resumes_byte_identical() {
    silence_chaos_panics();
    let (m, faults, tests) = fixture();
    forall_cfg(
        "killed_campaign_resumes_byte_identical",
        Config::with_cases(16),
        |g| {
            let shard_size = g.int_in(1usize..9);
            let seed = g.u64();
            let kill_jobs = *g.rng().choose(&JOB_COUNTS).unwrap();
            let clean = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(shard_size)
                .run()
                .unwrap();
            // Kill phase: panics poison shards (no retries), and some
            // checkpoint writes are dropped on top.
            let journal = scratch("kill", seed);
            let plan = ChaosPlan {
                panic_prob: 0.4,
                checkpoint_fail_prob: 0.2,
                ..ChaosPlan::new(seed)
            };
            let first = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(kill_jobs)
                .shard_size(shard_size)
                .max_retries(0)
                .checkpoint(&journal.0)
                .chaos(plan)
                .run()
                .unwrap();
            // Whatever survived is exact: stats bounds must bracket the
            // clean detection count.
            assert!(first.bounds.detected_lo <= clean.stats.detected);
            assert!(first.bounds.detected_hi >= clean.stats.detected);
            // Resume phase, once per thread count, each from its own
            // copy of the interrupted journal.
            for (i, &jobs) in JOB_COUNTS.iter().enumerate() {
                let copy = scratch("kill_copy", seed.wrapping_add(i as u64 + 1));
                std::fs::copy(&journal.0, &copy.0).unwrap();
                let resumed = ResilientCampaign::new(&m, &faults, &tests)
                    .jobs(jobs)
                    .shard_size(shard_size)
                    .checkpoint(&copy.0)
                    .resume(true)
                    .run()
                    .unwrap();
                assert!(
                    resumed.is_complete,
                    "jobs={jobs}: {:?}",
                    resumed.journal_notes
                );
                assert_eq!(resumed.stats, clean.stats, "jobs={jobs}");
                assert_eq!(resumed.report, clean.report, "jobs={jobs}");
            }
        },
    );
}

/// SIGKILL emulation: truncate the journal at a random byte past the
/// header (a torn trailing record, exactly what an abrupt kill during an
/// append leaves behind). Resume must discard the torn tail and still
/// converge to the clean report at every thread count.
#[test]
fn sigkill_truncated_journal_resumes_byte_identical() {
    let (m, faults, tests) = fixture();
    forall_cfg(
        "sigkill_truncated_journal_resumes_byte_identical",
        Config::with_cases(16),
        |g| {
            let shard_size = g.int_in(1usize..9);
            let tag = g.u64();
            let clean = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(shard_size)
                .run()
                .unwrap();
            // Full checkpointed run, then tear the file at a random byte.
            let journal = scratch("sigkill", tag);
            ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .shard_size(shard_size)
                .checkpoint(&journal.0)
                .run()
                .unwrap();
            let text = std::fs::read_to_string(&journal.0).unwrap();
            // Keep the two header lines intact (a kill that early means
            // there is nothing to resume — a different, trivial case).
            let header_end = {
                let first = text.find('\n').unwrap();
                text[first + 1..].find('\n').unwrap() + first + 2
            };
            let cut = g.int_in(header_end..text.len() + 1);
            std::fs::write(&journal.0, &text.as_bytes()[..cut]).unwrap();
            for (i, &jobs) in JOB_COUNTS.iter().enumerate() {
                let copy = scratch("sigkill_copy", tag.wrapping_add(i as u64 + 1));
                std::fs::copy(&journal.0, &copy.0).unwrap();
                let resumed = ResilientCampaign::new(&m, &faults, &tests)
                    .jobs(jobs)
                    .shard_size(shard_size)
                    .checkpoint(&copy.0)
                    .resume(true)
                    .run()
                    .unwrap();
                assert!(resumed.is_complete, "jobs={jobs} cut={cut}");
                assert_eq!(resumed.stats, clean.stats, "jobs={jobs} cut={cut}");
                assert_eq!(resumed.report, clean.report, "jobs={jobs} cut={cut}");
            }
        },
    );
}

/// Truncation accounting: under a random step budget (no chaos), the
/// completed, skipped and quarantined shards partition the fault list,
/// the partial report equals the clean run restricted to the completed
/// shards, and the coverage bounds bracket the true detection count.
#[test]
fn step_budget_truncation_accounting_is_exact() {
    let (m, faults, tests) = fixture();
    let cost = tests.total_vectors() as u64;
    forall_cfg(
        "step_budget_truncation_accounting_is_exact",
        Config::with_cases(24),
        |g| {
            let shard_size = g.int_in(1usize..9);
            let jobs = *g.rng().choose(&JOB_COUNTS).unwrap();
            let budget = g.int_in(0u64..cost * faults.len() as u64 + 1);
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(jobs)
                .shard_size(shard_size)
                .max_steps(budget)
                .run()
                .unwrap();
            assert!(run.failures.is_empty(), "no chaos, no panics");
            let skipped_faults: usize = run
                .skipped
                .iter()
                .map(|&i| faults.chunks(shard_size).nth(i).unwrap().len())
                .sum();
            assert_eq!(
                run.stats.faults_simulated + skipped_faults,
                faults.len(),
                "completed + skipped must partition the fault list"
            );
            assert_eq!(run.is_complete, run.skipped.is_empty());
            assert_eq!(run.stopped.is_none(), run.is_complete);
            // The partial report is the clean run minus the skipped
            // shards, in shard order.
            let clean = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(shard_size)
                .run()
                .unwrap();
            let expected: Vec<_> = clean
                .report
                .outcomes
                .chunks(shard_size)
                .enumerate()
                .filter(|(i, _)| !run.skipped.contains(i))
                .flat_map(|(_, c)| c.iter().cloned())
                .collect();
            assert_eq!(run.report.outcomes, expected);
            assert!(run.bounds.detected_lo <= clean.stats.detected);
            assert!(run.bounds.detected_hi >= clean.stats.detected);
            assert_eq!(
                run.bounds.detected_hi - run.bounds.detected_lo,
                skipped_faults
            );
        },
    );
}
