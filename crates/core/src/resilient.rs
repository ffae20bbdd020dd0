//! Crash-safe campaign supervision: panic isolation, deadlines, durable
//! checkpoint/resume, and deterministic chaos injection.
//!
//! [`ResilientCampaign`] is the crate's one campaign runner. It shards the
//! fault list ([`crate::parallel`]), simulates the shards on a worker pool
//! under any explicit [`Engine`] ([`PreparedEngine`]) and merges them in
//! shard order. With no deadline, step budget or checkpoint it is the plain
//! campaign. At production scale a campaign runs for hours across
//! millions of injected faults, where an unsupervised worker pool has an
//! all-or-nothing failure mode: one panicking shard (or a `SIGKILL`ed
//! process) throws the whole run away. The runner therefore layers four
//! guarantees over the sharded execution model, without giving up
//! bit-identical determinism:
//!
//! 1. **Panic isolation** — each shard runs under
//!    [`std::panic::catch_unwind`]. A panicking shard is retried up to a
//!    bounded budget and then *quarantined*: the campaign completes and
//!    reports the poisoned shards explicitly ([`ShardFailure`]) together
//!    with coverage bounds over the unsimulated faults.
//! 2. **Deadlines and step budgets** — a wall-clock deadline and a total
//!    simulation-step budget are enforced by cooperative cancellation,
//!    charged fault by fault as each shard is admitted, so a run is
//!    truncated at shard granularity and the partial report is still
//!    valid (every outcome in it is exact; the missing shards are
//!    accounted for).
//! 3. **Durable checkpoints** — completed shards are journaled to a
//!    versioned, zero-dependency text file as they finish. After a crash
//!    or kill, [`resume`](ResilientCampaign::resume) restores the
//!    journaled shards and simulates only the rest; because the shard
//!    partition is a pure function of the fault count
//!    ([`default_shard_size`]) and per-shard results are deterministic,
//!    the merged [`CampaignStats`] and [`CampaignReport`] are
//!    byte-identical to an uninterrupted run. A torn trailing record (the
//!    `SIGKILL` signature) fails its per-record checksum, is cut off
//!    before the resumed run appends, and its shard simply re-runs.
//! 4. **Deterministic chaos** *(feature `chaos`, test-only)* — injected
//!    panics, artificial delays and checkpoint-write failures, all pure
//!    functions of `(seed, shard, attempt)` via the in-repo
//!    [`simcov_prng`], so every failure scenario in the test suite is
//!    reproducible from a single seed.
//!
//! The journal (`simcov-journal v2`) is a [`simcov_obs::recordlog`]:
//! line-oriented text, one self-checking record per line.
//!
//! ```text
//! simcov-journal v2
//! campaign faults=210 shards=4 shard_size=64 fingerprint=9bb90e2c07a1f34d crc=…
//! shard 2 faults=64 detected=60 excited=62 masked=3 escapes=2;o 5 1 t 3 0:17 1 0;o 5 1 w 2 - 0 1;… crc=…
//! ```
//!
//! The `campaign` header record carries an FNV-1a fingerprint of the
//! machine, the fault list, the test set and the shard size; resuming
//! against a different campaign (or a `v1` journal) is rejected with
//! [`CampaignError::JournalMismatch`] instead of silently merging
//! incompatible results, and the file is left untouched. Each shard
//! record is checked on its own; restored shards are further verified
//! fault-by-fault against the expected fault list.

use crate::collapse::{CollapseCertificate, CollapseMode, CollapseSummary};
use crate::differential::{DiffStats, Engine, GoldenTrace};
use crate::engine::{EngineStats, PreparedEngine};
use crate::error_model::{Fault, FaultKind};
use crate::faults::{CampaignReport, FaultOutcome};
use crate::packed::PackedStats;
use crate::parallel::{default_jobs, default_shard_size, run_sharded, CampaignStats};
use simcov_fsm::{ExplicitMealy, InputSym, OutputSym, StateId};
use simcov_obs::recordlog::{self, RecordLog};
use simcov_obs::Telemetry;
use simcov_tour::TestSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Errors

/// A campaign-level failure the supervisor cannot degrade around.
///
/// Shard-level failures (panics, truncation) never surface here — they
/// are reported inside [`ResilientRun`]. Only checkpoint-journal problems
/// that would make the result *wrong* (unreadable journal, journal of a
/// different campaign), a stale collapse certificate, or an engine with
/// no fault list to simulate abort the run.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint journal could not be read or created.
    Journal {
        /// Journal path.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// The journal exists but belongs to a different campaign (different
    /// model, fault list, test set or shard size) or a different format
    /// version — resuming from it would merge incompatible results.
    JournalMismatch {
        /// Journal path.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
    /// The collapse certificate does not bind this campaign's machine and
    /// fault list (stale or tampered) — pruning with it would expand
    /// garbage.
    Certificate {
        /// What disagreed.
        detail: crate::collapse::CertificateError,
    },
    /// The campaign selected [`Engine::Symbolic`], which simulates no
    /// fault list: it is the implicit campaign,
    /// [`run_implicit_campaign`](crate::run_implicit_campaign).
    ImplicitEngine,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal { path, detail } => {
                write!(f, "checkpoint journal {}: {detail}", path.display())
            }
            CampaignError::JournalMismatch { path, detail } => write!(
                f,
                "checkpoint journal {} does not match this campaign: {detail}",
                path.display()
            ),
            CampaignError::Certificate { detail } => {
                write!(f, "collapse certificate rejected: {detail}")
            }
            CampaignError::ImplicitEngine => f.write_str(
                "engine `symbolic` simulates no fault list; \
                 run the implicit campaign (`run_implicit_campaign`) instead",
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

// ---------------------------------------------------------------------------
// FNV-1a hashing for the journal fingerprint: the workspace-wide
// implementation from `simcov_obs`, the same one the record log uses for
// its per-record checksums.
use simcov_obs::fnv::Fnv64 as Fnv;

/// Fingerprints everything the deterministic result depends on: machine
/// transition table, fault list, test set and shard partition. The
/// component encodings live in [`crate::fingerprint`] (shared with the
/// collapse certificate and the report fingerprints); the concatenation
/// order here is the journal's original one, so journal fingerprints are
/// unchanged.
fn fingerprint(m: &ExplicitMealy, faults: &[Fault], tests: &TestSet, shard_size: usize) -> u64 {
    let mut h = Fnv::new();
    crate::fingerprint::hash_machine(&mut h, m);
    crate::fingerprint::hash_faults(&mut h, faults);
    crate::fingerprint::hash_tests(&mut h, tests);
    h.u64(shard_size as u64);
    h.finish()
}

// ---------------------------------------------------------------------------
// Journal serialization

const JOURNAL_MAGIC: &str = "simcov-journal v2";

/// One `o` item of a shard record: exact, lossless text encoding of a
/// [`FaultOutcome`].
fn encode_outcome(o: &FaultOutcome) -> String {
    let (kind, arg) = match o.fault.kind {
        FaultKind::Transfer { new_next } => ('t', new_next.0),
        FaultKind::Output { new_output } => ('w', new_output.0),
    };
    let det = match o.detected {
        Some((si, vi)) => format!("{si}:{vi}"),
        None => "-".to_string(),
    };
    format!(
        "o {} {} {kind} {arg} {det} {} {}",
        o.fault.state.0,
        o.fault.input.0,
        u8::from(o.excited),
        u8::from(o.masked_somewhere),
    )
}

fn decode_outcome(line: &str) -> Option<FaultOutcome> {
    let mut it = line.split(' ');
    if it.next()? != "o" {
        return None;
    }
    let state = StateId(it.next()?.parse().ok()?);
    let input = InputSym(it.next()?.parse().ok()?);
    let kind = it.next()?;
    let arg: u32 = it.next()?.parse().ok()?;
    let kind = match kind {
        "t" => FaultKind::Transfer {
            new_next: StateId(arg),
        },
        "w" => FaultKind::Output {
            new_output: OutputSym(arg),
        },
        _ => return None,
    };
    let det = it.next()?;
    let detected = if det == "-" {
        None
    } else {
        let (si, vi) = det.split_once(':')?;
        Some((si.parse().ok()?, vi.parse().ok()?))
    };
    let excited = match it.next()? {
        "1" => true,
        "0" => false,
        _ => return None,
    };
    let masked = match it.next()? {
        "1" => true,
        "0" => false,
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some(FaultOutcome {
        fault: Fault { state, input, kind },
        detected,
        excited,
        masked_somewhere: masked,
    })
}

fn shard_header_line(shard: usize, stats: &CampaignStats) -> String {
    format!(
        "shard {shard} faults={} detected={} excited={} masked={} escapes={}",
        stats.faults_simulated, stats.detected, stats.excited, stats.masked, stats.escapes
    )
}

/// One completed shard as one record body: its header, then each
/// outcome, `;`-separated.
fn shard_record(shard: usize, outcomes: &[FaultOutcome], stats: &CampaignStats) -> String {
    let mut body = shard_header_line(shard, stats);
    for o in outcomes {
        body.push(';');
        body.push_str(&encode_outcome(o));
    }
    body
}

/// Decodes a shard record, verifying its outcomes fault by fault
/// against the expected shard and its header against their tally.
fn decode_shard(body: &str, shards: &[&[Fault]]) -> Option<(usize, RestoredShard)> {
    let mut items = body.split(';');
    let header = items.next()?;
    let (shard, _) = header.strip_prefix("shard ")?.split_once(' ')?;
    let shard: usize = shard.parse().ok()?;
    let outcomes: Vec<FaultOutcome> = items.map(decode_outcome).collect::<Option<_>>()?;
    if !outcomes
        .iter()
        .map(|o| o.fault)
        .eq(shards.get(shard)?.iter().copied())
    {
        return None;
    }
    let stats = CampaignStats::tally(&outcomes);
    (shard_header_line(shard, &stats) == header).then_some((shard, (outcomes, stats)))
}

/// Durability batch size: the journal writer fsyncs once at least this
/// many bytes have accumulated since the last sync, rather than per
/// record, and again at the end of the run. Records are still handed to
/// the OS per shard, so only a machine crash — not a process crash — can
/// lose a batch; torn or missing tails are exactly what recovery
/// discards, costing a re-run of those shards, never correctness.
/// Batching the fsyncs is what keeps checkpointing's overhead near the
/// plain campaign's wall time.
const JOURNAL_SYNC_BYTES: usize = 256 * 1024;

/// Bounded hand-off depth between simulation workers and the journal
/// writer thread. Small enough that a stalled disk backpressures the
/// workers after ~[`JOURNAL_CHANNEL_CAP`] completed shards instead of
/// buffering the whole campaign in memory; large enough that bursts of
/// small shards never stall a healthy disk.
const JOURNAL_CHANNEL_CAP: usize = 64;

/// One completed shard in flight to the writer thread.
struct JournalMsg {
    shard: usize,
    outcomes: Vec<FaultOutcome>,
    stats: CampaignStats,
}

/// Off-thread checkpoint writer: completed shards are handed over a
/// *bounded* channel to a dedicated thread that owns the journal's
/// [`RecordLog`], so record encoding, write syscalls and the batched
/// fsyncs never run on a simulation worker. Workers pay only a memcpy of
/// the shard's outcomes plus a channel send; when the channel is full
/// (slow disk) the send blocks, which is the backpressure that keeps
/// memory bounded. Journal failures degrade to notes — they are
/// collected on the writer thread and merged at
/// [`finish`](JournalHandle::finish), which joins the thread and is the
/// run's durability barrier.
struct JournalHandle {
    tx: Option<std::sync::mpsc::SyncSender<JournalMsg>>,
    thread: Option<std::thread::JoinHandle<Vec<String>>>,
}

impl JournalHandle {
    fn spawn(mut log: RecordLog, telemetry: Option<Telemetry>) -> JournalHandle {
        let (tx, rx) = std::sync::mpsc::sync_channel::<JournalMsg>(JOURNAL_CHANNEL_CAP);
        let thread = std::thread::spawn(move || {
            let mut notes = Vec::new();
            let mut unsynced = 0;
            for msg in rx {
                let body = shard_record(msg.shard, &msg.outcomes, &msg.stats);
                let written = log.append(&body).and_then(|bytes| {
                    unsynced += bytes;
                    if unsynced >= JOURNAL_SYNC_BYTES {
                        unsynced = 0;
                        log.sync()?;
                    }
                    Ok(bytes)
                });
                match written {
                    // The record size is a pure function of the shard's
                    // outcomes, so the counter stays deterministic.
                    Ok(bytes) => {
                        if let Some(tel) = &telemetry {
                            tel.counter_add("campaign.checkpoint_bytes", bytes as u64);
                        }
                    }
                    Err(e) => {
                        notes.push(format!(
                            "journal: failed to record shard {}: {e}",
                            msg.shard
                        ));
                    }
                }
            }
            if let Err(e) = log.sync() {
                notes.push(format!("journal: final sync failed: {e}"));
            }
            notes
        });
        JournalHandle {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// Hands a completed shard to the writer thread, blocking while the
    /// bounded channel is full. An error means the writer thread is gone
    /// (it never exits early unless it panicked) — the shard simply goes
    /// unjournaled, like any other degraded write.
    fn record(
        &self,
        shard: usize,
        outcomes: &[FaultOutcome],
        stats: &CampaignStats,
    ) -> Result<(), String> {
        let tx = self.tx.as_ref().expect("record() after finish()");
        tx.send(JournalMsg {
            shard,
            outcomes: outcomes.to_vec(),
            stats: stats.clone(),
        })
        .map_err(|_| "journal writer thread exited early".to_string())
    }

    /// Durability barrier: closes the channel, joins the writer thread
    /// (draining every pending record and fsyncing the tail batch) and
    /// returns the notes for writes that failed.
    fn finish(&mut self) -> Vec<String> {
        drop(self.tx.take());
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| vec!["journal: writer thread panicked".to_string()]),
            None => Vec::new(),
        }
    }
}

/// One restored shard: its outcomes plus the recomputed tally.
type RestoredShard = (Vec<FaultOutcome>, CampaignStats);

/// A journal's restored shards, by shard index, plus notes on the
/// records it discarded.
type Restored = (Vec<Option<RestoredShard>>, Vec<String>);

// ---------------------------------------------------------------------------
// Cooperative cancellation

const TRIP_LIVE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_STEPS: u8 = 2;

/// Why a run stopped before simulating every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The total simulation-step budget was exhausted.
    StepBudget,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Deadline => write!(f, "deadline expired"),
            StopReason::StepBudget => write!(f, "step budget exhausted"),
        }
    }
}

/// Shared cancellation state, charged fault by fault as shards are
/// admitted.
struct Cancel {
    deadline: Option<Instant>,
    steps: Option<AtomicU64>,
    tripped: AtomicU8,
}

impl Cancel {
    fn new(deadline: Option<Duration>, max_steps: Option<u64>) -> Self {
        // A zero deadline means "expire immediately", uniformly: trip at
        // construction instead of relying on the first `charge` observing
        // `now >= start`. This guarantees zero simulation work, and that
        // `reason()` reports `Deadline` even on paths that never charge.
        let already_expired = deadline == Some(Duration::ZERO);
        Cancel {
            deadline: deadline.map(|d| Instant::now() + d),
            steps: max_steps.map(AtomicU64::new),
            tripped: AtomicU8::new(if already_expired {
                TRIP_DEADLINE
            } else {
                TRIP_LIVE
            }),
        }
    }

    /// Charges `cost` steps; returns `false` once the run must stop.
    /// Sticky: after the first trip every later call returns `false`.
    fn charge(&self, cost: u64) -> bool {
        if self.tripped.load(Ordering::Relaxed) != TRIP_LIVE {
            return false;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                let _ = self.tripped.compare_exchange(
                    TRIP_LIVE,
                    TRIP_DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return false;
            }
        }
        if let Some(steps) = &self.steps {
            let charged = steps
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    cur.checked_sub(cost)
                })
                .is_ok();
            if !charged {
                let _ = self.tripped.compare_exchange(
                    TRIP_LIVE,
                    TRIP_STEPS,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return false;
            }
        }
        true
    }

    fn reason(&self) -> Option<StopReason> {
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_DEADLINE => Some(StopReason::Deadline),
            TRIP_STEPS => Some(StopReason::StepBudget),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos (test-only, feature `chaos`)

/// Deterministic fault injection for the supervisor itself (feature
/// `chaos`; compiled into test builds only). Every decision is a pure
/// function of `(seed, site, shard, attempt)`, so a failing scenario is
/// reproducible from its seed alone.
#[cfg(feature = "chaos")]
pub mod chaos {
    use simcov_prng::Prng;
    use std::time::Duration;

    /// The chaos schedule: independent probabilities per injection site.
    #[derive(Debug, Clone)]
    pub struct ChaosPlan {
        /// Seed all decisions derive from.
        pub seed: u64,
        /// Probability a `(shard, attempt)` panics before simulating.
        pub panic_prob: f64,
        /// Probability a `(shard, attempt)` sleeps before simulating.
        pub delay_prob: f64,
        /// Maximum injected delay.
        pub max_delay: Duration,
        /// Probability a completed shard's checkpoint write is dropped.
        pub checkpoint_fail_prob: f64,
    }

    impl ChaosPlan {
        /// A plan with every probability at zero (inject nothing).
        pub fn new(seed: u64) -> Self {
            ChaosPlan {
                seed,
                panic_prob: 0.0,
                delay_prob: 0.0,
                max_delay: Duration::from_millis(2),
                checkpoint_fail_prob: 0.0,
            }
        }

        fn rng(&self, site: u64, shard: usize, attempt: usize) -> Prng {
            // Distinct streams per site so e.g. raising the panic
            // probability does not reshuffle delay decisions.
            let mut h = super::Fnv::new();
            h.u64(self.seed);
            h.u64(site);
            h.u64(shard as u64);
            h.u64(attempt as u64);
            Prng::seed_from_u64(h.finish())
        }

        /// Deterministic: should this `(shard, attempt)` panic?
        pub fn should_panic(&self, shard: usize, attempt: usize) -> bool {
            self.panic_prob > 0.0 && self.rng(1, shard, attempt).gen_bool(self.panic_prob)
        }

        /// Deterministic: injected delay for this `(shard, attempt)`.
        pub fn delay(&self, shard: usize, attempt: usize) -> Option<Duration> {
            if self.delay_prob <= 0.0 {
                return None;
            }
            let mut rng = self.rng(2, shard, attempt);
            if !rng.gen_bool(self.delay_prob) {
                return None;
            }
            let nanos = self.max_delay.as_nanos().max(1) as u64;
            Some(Duration::from_nanos(rng.gen_range(0..nanos)))
        }

        /// Deterministic: should this shard's checkpoint write be dropped?
        pub fn should_fail_checkpoint(&self, shard: usize) -> bool {
            self.checkpoint_fail_prob > 0.0
                && self.rng(3, shard, 0).gen_bool(self.checkpoint_fail_prob)
        }
    }

    /// Installs (once) a panic hook that suppresses the default report
    /// for chaos-injected panics — their payload starts with `"chaos:"`
    /// — so chaos-heavy test runs do not spam stderr. Real panics still
    /// print through the previous hook.
    pub fn silence_chaos_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.starts_with("chaos:") {
                    prev(info);
                }
            }));
        });
    }
}

// ---------------------------------------------------------------------------
// The supervisor

/// A shard the supervisor gave up on: it panicked on every attempt within
/// the retry budget and was quarantined.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard index in fault order.
    pub shard: usize,
    /// Faults in the shard (all unsimulated).
    pub faults: usize,
    /// Attempts made (1 + retries).
    pub attempts: usize,
    /// The panic payload of the last attempt.
    pub message: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} ({} faults) poisoned after {} attempt{}: {}",
            self.shard,
            self.faults,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// Detection-rate bounds for a (possibly partial) campaign: every
/// unsimulated fault may or may not have been detected, so the true
/// full-campaign rate lies in `[rate_lo, rate_hi]`. On a complete run the
/// bounds coincide with the exact rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageBounds {
    /// Faults known detected (simulated and detected).
    pub detected_lo: usize,
    /// Upper bound: known detected + every unsimulated fault.
    pub detected_hi: usize,
    /// Total faults in the campaign (simulated or not).
    pub total_faults: usize,
}

impl CoverageBounds {
    /// Lower bound on the full-campaign detection rate.
    pub fn rate_lo(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected_lo as f64 / self.total_faults as f64
        }
    }

    /// Upper bound on the full-campaign detection rate.
    pub fn rate_hi(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected_hi as f64 / self.total_faults as f64
        }
    }
}

impl fmt::Display for CoverageBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detection rate in [{:.1}%, {:.1}%] of {} faults",
            100.0 * self.rate_lo(),
            100.0 * self.rate_hi(),
            self.total_faults
        )
    }
}

/// Result of a [`ResilientCampaign`] run: the (possibly partial) report
/// and stats over completed shards, plus explicit degradation accounting.
///
/// When [`is_complete`](Self::is_complete) is `true`, `report` is
/// byte-identical to mapping [`simulate_fault`](crate::simulate_fault)
/// over the fault list, and `stats` to its tally under the shard size —
/// regardless of which explicit engine ran (the supervisor refuses
/// [`Engine::Symbolic`]), of how many shards came from the checkpoint
/// journal versus fresh simulation, and of thread count.
#[derive(Debug)]
pub struct ResilientRun {
    /// Outcomes of completed shards, concatenated in shard order (gaps
    /// from poisoned/cancelled shards are *omitted*, not padded).
    pub report: CampaignReport,
    /// Stats merged over completed shards, in shard order.
    pub stats: CampaignStats,
    /// `true` iff every shard was simulated (or restored): no poisoned
    /// shards, no truncation.
    pub is_complete: bool,
    /// Shards quarantined after exhausting the retry budget.
    pub failures: Vec<ShardFailure>,
    /// Shards not simulated because the run was cancelled (deadline or
    /// step budget), in shard order.
    pub skipped: Vec<usize>,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopReason>,
    /// Shards restored from the checkpoint journal instead of simulated.
    pub restored_shards: usize,
    /// Non-fatal checkpoint problems (torn records discarded on load,
    /// failed shard writes); the run degrades to weaker durability.
    pub journal_notes: Vec<String>,
    /// Detection-rate bounds accounting for unsimulated faults.
    pub bounds: CoverageBounds,
    /// Total faults in the campaign (simulated or not).
    pub total_faults: usize,
    /// Total shards in the partition.
    pub total_shards: usize,
    /// Worker threads the run was configured with.
    pub jobs: usize,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Differential-engine effort counters over *freshly simulated*
    /// shards (zero under [`Engine::Naive`]; restored shards contribute
    /// nothing because no simulation happened this run). Deterministic
    /// across thread counts, but — unlike `report`/`stats` — *not*
    /// invariant under checkpoint/resume splits.
    pub diff: DiffStats,
    /// Word-packing effort counters over freshly simulated shards (zero
    /// unless the run used [`Engine::Packed`]); same caveats as `diff`.
    pub packed: PackedStats,
    /// Collapse accounting when the run consumed a certificate (`None`
    /// for plain runs and [`CollapseMode::Off`]).
    pub collapse: Option<CollapseSummary>,
}

enum ShardState {
    Done(Vec<FaultOutcome>, CampaignStats, EngineStats),
    Poisoned { attempts: usize, message: String },
    Cancelled,
}

/// A supervised fault campaign over the sharded parallel engine. See the
/// [module docs](self) for the failure model.
///
/// ```
/// use simcov_core::{enumerate_single_faults, FaultSpace, ResilientCampaign};
/// use simcov_core::models::figure2;
/// use simcov_tour::{transition_tour, TestSet};
///
/// let (m, _) = figure2();
/// let faults = enumerate_single_faults(&m, &FaultSpace::default());
/// let tour = transition_tour(&m).unwrap();
/// let tests = TestSet::single(tour.inputs);
/// let run = ResilientCampaign::new(&m, &faults, &tests).jobs(2).run().unwrap();
/// assert!(run.is_complete);
/// assert_eq!(run.stats.faults_simulated, faults.len());
/// ```
#[derive(Debug, Clone)]
pub struct ResilientCampaign<'a> {
    golden: &'a ExplicitMealy,
    faults: &'a [Fault],
    tests: &'a TestSet,
    jobs: usize,
    shard_size: usize,
    max_retries: usize,
    deadline: Option<Duration>,
    max_steps: Option<u64>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    engine: Engine,
    telemetry: Option<Telemetry>,
    collapse: Option<(&'a CollapseCertificate, CollapseMode)>,
    shared_trace: Option<Arc<GoldenTrace>>,
    #[cfg(feature = "chaos")]
    chaos: Option<chaos::ChaosPlan>,
}

impl<'a> ResilientCampaign<'a> {
    /// A supervised campaign with automatic worker count and sharding, a
    /// retry budget of 2, no deadline, no step budget and no checkpoint.
    pub fn new(golden: &'a ExplicitMealy, faults: &'a [Fault], tests: &'a TestSet) -> Self {
        ResilientCampaign {
            golden,
            faults,
            tests,
            jobs: default_jobs(),
            shard_size: default_shard_size(faults.len()),
            max_retries: 2,
            deadline: None,
            max_steps: None,
            checkpoint: None,
            resume: false,
            engine: Engine::default(),
            telemetry: None,
            collapse: None,
            shared_trace: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }

    /// Attaches a [`CollapseCertificate`]. [`CollapseMode::Off`] ignores
    /// it entirely; [`run`](Self::run) rejects a certificate that does not
    /// bind this campaign's machine and fault list with
    /// [`CampaignError::Certificate`].
    ///
    /// Under [`CollapseMode::On`] the supervisor runs over the *pruned*
    /// representative list — sharding, checkpoint journal, retries and
    /// cancellation all see pruned reality (and the journal fingerprint
    /// covers the pruned fault list, so collapsed and uncollapsed
    /// checkpoints can never be cross-resumed). On a complete run the
    /// outcomes are expanded and the merged stats recomputed over the full
    /// fault list's shard partition, so `report`/`stats` are bit-identical
    /// to an uncollapsed run (for a sound certificate); on a partial run
    /// only classes whose representative completed are expanded, and the
    /// coverage bounds account for the rest. Telemetry counters and shard
    /// events describe the pruned work actually performed.
    ///
    /// Under [`CollapseMode::Verify`] everything is simulated; the audit
    /// runs only when the campaign completes (an incomplete report cannot
    /// be audited — a journal note records the skip).
    pub fn collapse(mut self, cert: &'a CollapseCertificate, mode: CollapseMode) -> Self {
        self.collapse = Some((cert, mode));
        self
    }

    /// Selects the fault-simulation engine. The default
    /// [`Engine::Differential`] memoizes one golden trace and classifies
    /// faults against it; [`Engine::Naive`] clones and replays per fault.
    /// Outcomes and stats are bit-identical under every explicit engine
    /// (see [`crate::differential`]), so this knob only trades wall-clock
    /// for cross-checkability — and the engine is *not* part of the
    /// journal fingerprint: a campaign checkpointed under one engine
    /// resumes soundly under another. [`Engine::Symbolic`] makes
    /// [`run`](Self::run) fail with [`CampaignError::ImplicitEngine`].
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the worker count. `0` is clamped to `1` (serial execution):
    /// a zero-worker pool cannot make progress, and silently treating `0`
    /// as "automatic" would make `jobs(0)` mean something different from
    /// every other value. Use [`default_jobs`] explicitly for "all cores".
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the shard size (`0` clamps to 1: `slice::chunks` rejects
    /// zero). The partition is part of the deterministic result surface
    /// (`stats.shards`), so two runs only compare equal under the same
    /// shard size; it must also match between an interrupted and a
    /// resuming run, as it is part of the journal fingerprint.
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Retry budget per shard: a panicking shard is re-attempted up to
    /// `max_retries` more times before being quarantined.
    pub fn max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Wall-clock deadline for the whole run, enforced cooperatively: a
    /// shard is admitted fault by fault before it runs, and shards not
    /// admitted when it expires are skipped (not journaled), so
    /// truncation is exact at shard granularity.
    ///
    /// A **zero** deadline uniformly means *expire immediately*: no fault
    /// is simulated, every unrestored shard is reported as skipped, and
    /// [`ResilientRun::stopped`] is [`StopReason::Deadline`]. Combined
    /// with [`resume`](Self::resume), journal restoration still happens
    /// (it costs no simulation steps), which makes `deadline(ZERO)` a
    /// cheap way to audit what a checkpoint already contains.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Total simulation-step budget: each fault charges one step per test
    /// vector before its shard is simulated; when the budget runs out the
    /// run is cancelled cooperatively, like a deadline but deterministic
    /// in the amount of work admitted.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Journals completed shards to `path`. Without
    /// [`resume`](Self::resume), an existing file is overwritten.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// With a checkpoint path set: restore completed shards from the
    /// journal (if it exists) and simulate only the rest. The journal
    /// must fingerprint-match this campaign. A missing journal file is
    /// not an error — the run simply starts fresh and creates it.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Attaches a telemetry sink. The run records a `campaign` span with
    /// per-shard `campaign/shard` children, the campaign counters
    /// (`campaign.faults_simulated`, `campaign.faults_detected`,
    /// `campaign.shards`, …), the engine's effort counters (those of
    /// [`EngineStats`] the engine uses) and one `campaign.shard` event per
    /// completed shard, plus the supervisor's own counters:
    /// `campaign.shards_retried` (panic retries),
    /// `campaign.shards_restored` (journal hits), `campaign.shards_skipped`,
    /// `campaign.shards_poisoned` and `campaign.checkpoint_bytes` (journal
    /// bytes written).
    ///
    /// Events are emitted only from the serial shard-ordered merge loop,
    /// so the recorded event stream is byte-identical across thread
    /// counts for the same work.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Shares a pre-built golden trace instead of building one — the hook
    /// for cross-request caches (`simcov serve` keys its cache by
    /// *(machine fingerprint, test-set fingerprint)*, which is exactly the
    /// contract here: the trace must have been built from this `golden`
    /// and this test set). Safe across engines because the differential
    /// and packed engines both use the one trace [`GoldenTrace::build`]
    /// makes. Ignored by the naive engine.
    pub fn golden_trace(mut self, trace: Arc<GoldenTrace>) -> Self {
        self.shared_trace = Some(trace);
        self
    }

    /// Installs a deterministic chaos schedule (test-only).
    #[cfg(feature = "chaos")]
    pub fn chaos(mut self, plan: chaos::ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Runs the supervised campaign.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] only for unrecoverable checkpoint problems
    /// (unreadable journal, journal of a different campaign), a collapse
    /// certificate that does not bind this campaign, or
    /// [`Engine::Symbolic`] ([`CampaignError::ImplicitEngine`], before any
    /// file is touched). Everything else — panics, truncation, failed
    /// checkpoint writes — degrades into the [`ResilientRun`] accounting.
    pub fn run(&self) -> Result<ResilientRun, CampaignError> {
        if self.engine == Engine::Symbolic {
            return Err(CampaignError::ImplicitEngine);
        }
        let collapse = self.collapse.filter(|&(_, mode)| mode != CollapseMode::Off);
        let Some((cert, mode)) = collapse else {
            return self.run_inner(self.faults);
        };
        cert.check(self.golden, self.faults)
            .map_err(|detail| CampaignError::Certificate { detail })?;
        match mode {
            CollapseMode::On => {
                let pruned = cert.representative_faults(self.faults);
                let mut run = self.run_inner(&pruned)?;
                self.expand_run(&mut run, cert, &pruned);
                Ok(run)
            }
            _ => {
                let mut run = self.run_inner(self.faults)?;
                let violations = if run.is_complete {
                    cert.violations(&run.report.outcomes)
                } else {
                    run.journal_notes
                        .push("collapse: verify audit skipped (run incomplete)".to_string());
                    Vec::new()
                };
                if let Some(tel) = &self.telemetry {
                    tel.counter_add(simcov_obs::names::CAMPAIGN_COLLAPSED_FAULTS, 0);
                    tel.counter_add(
                        simcov_obs::names::CAMPAIGN_CLASSES,
                        cert.num_classes() as u64,
                    );
                    tel.counter_add(
                        simcov_obs::names::CAMPAIGN_COLLAPSE_VIOLATIONS,
                        violations.len() as u64,
                    );
                }
                run.collapse = Some(CollapseSummary {
                    mode: CollapseMode::Verify,
                    classes: cert.num_classes(),
                    collapsed_faults: 0,
                    violations,
                });
                Ok(run)
            }
        }
    }

    /// Runs a campaign whose report must cover every fault: the in-crate
    /// callers that merge outcomes by position attach no checkpoint or
    /// certificate, so only a quarantined shard can leave a gap.
    ///
    /// # Panics
    ///
    /// Panics with the [`ShardFailure`] text if a shard panicked on every
    /// attempt, rather than return a report whose outcomes no longer line
    /// up with the fault list.
    pub(crate) fn run_complete(&self) -> ResilientRun {
        let run = self.run().unwrap_or_else(|e| panic!("{e}"));
        if let Some(failure) = run.failures.first() {
            panic!("fault campaign incomplete: {failure}");
        }
        assert!(
            run.is_complete,
            "fault campaign incomplete: {:?}",
            run.stopped
        );
        run
    }

    /// Post-processes a pruned [`CollapseMode::On`] run back onto the
    /// full fault universe: expands the outcomes of every class whose
    /// representative completed, recomputes the merged stats (over the
    /// full shard partition when complete, so they are bit-identical to an
    /// uncollapsed run) and rebases the coverage bounds on the full fault
    /// count.
    fn expand_run(&self, run: &mut ResilientRun, cert: &CollapseCertificate, pruned: &[Fault]) {
        let incomplete: std::collections::HashSet<usize> = run
            .failures
            .iter()
            .map(|f| f.shard)
            .chain(run.skipped.iter().copied())
            .collect();
        // Walk the pruned shard partition; completed shards' outcomes sit
        // concatenated in `run.report` in shard order (gaps omitted).
        let mut expanded: Vec<Option<FaultOutcome>> = vec![None; self.faults.len()];
        let mut rep_outcomes = run.report.outcomes.iter();
        let mut completed_shards = 0usize;
        for (shard, chunk) in pruned.chunks(self.shard_size).enumerate() {
            let lo = shard * self.shard_size;
            if incomplete.contains(&shard) {
                continue;
            }
            completed_shards += 1;
            for class in lo..lo + chunk.len() {
                let rep = rep_outcomes
                    .next()
                    .expect("one completed outcome per representative");
                for &member in cert.members(class as u32) {
                    expanded[member as usize] = Some(FaultOutcome {
                        fault: self.faults[member as usize],
                        detected: rep.detected,
                        excited: rep.excited,
                        masked_somewhere: rep.masked_somewhere,
                    });
                }
            }
        }
        let outcomes: Vec<FaultOutcome> = expanded.into_iter().flatten().collect();
        let stats = if run.is_complete {
            // Complete: re-derive the stats from the full fault list's
            // shard partition — bit-identical to an uncollapsed run.
            let mut stats = CampaignStats::default();
            for chunk in outcomes.chunks(self.shard_size) {
                stats.merge(&CampaignStats::tally(chunk));
            }
            stats
        } else {
            // Partial: one honest tally over what the certificate lets us
            // conclude; `shards` counts the pruned shards that completed.
            let mut stats = CampaignStats::tally(&outcomes);
            stats.shards = completed_shards;
            stats
        };
        let detected_lo = stats.detected;
        let unsimulated = self.faults.len() - outcomes.len();
        run.report = CampaignReport { outcomes };
        run.stats = stats;
        run.bounds = CoverageBounds {
            detected_lo,
            detected_hi: detected_lo + unsimulated,
            total_faults: self.faults.len(),
        };
        run.total_faults = self.faults.len();
        if let Some(tel) = &self.telemetry {
            tel.counter_add(
                simcov_obs::names::CAMPAIGN_COLLAPSED_FAULTS,
                cert.collapsed_faults() as u64,
            );
            tel.counter_add(
                simcov_obs::names::CAMPAIGN_CLASSES,
                cert.num_classes() as u64,
            );
        }
        run.collapse = Some(CollapseSummary {
            mode: CollapseMode::On,
            classes: cert.num_classes(),
            collapsed_faults: cert.collapsed_faults(),
            violations: Vec::new(),
        });
    }

    /// Opens the checkpoint journal at `path`. Without a journal to
    /// resume, a fresh one is created with this campaign's header. On
    /// resume the journal is first read back without modification: its
    /// `campaign` header must match this campaign's, and each shard record
    /// is verified against the expected fault list. Torn or corrupt
    /// records are *discarded with a note* (their shards re-run); only a
    /// journal that cannot belong to this campaign is a hard error.
    fn open_journal(
        &self,
        path: &Path,
        sim_faults: &[Fault],
        shards: &[&[Fault]],
    ) -> Result<(RecordLog, Restored), CampaignError> {
        let fp = fingerprint(self.golden, sim_faults, self.tests, self.shard_size);
        let header = format!(
            "campaign faults={} shards={} shard_size={} fingerprint={fp:016x}",
            sim_faults.len(),
            shards.len(),
            self.shard_size
        );
        let mismatch = |detail: String| CampaignError::JournalMismatch {
            path: path.to_path_buf(),
            detail,
        };
        // A wrong magic line is the log's `InvalidData`: not our journal.
        let io = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::InvalidData => mismatch(e.to_string()),
            _ => CampaignError::Journal {
                path: path.to_path_buf(),
                detail: e.to_string(),
            },
        };
        let mut restored: Vec<Option<RestoredShard>> = vec![None; shards.len()];
        let mut notes = Vec::new();
        if !(self.resume && path.exists()) {
            let mut log = RecordLog::create(path, JOURNAL_MAGIC).map_err(io)?;
            log.append(&header).and_then(|_| log.sync()).map_err(io)?;
            return Ok((log, (restored, notes)));
        }
        let recovered = recordlog::recover(path, JOURNAL_MAGIC).map_err(io)?;
        let mut records = recovered.records.iter();
        match records.next() {
            Some(found) if *found == header => {}
            Some(found) if found.starts_with("campaign ") => {
                return Err(mismatch(format!("header `{found}` (expected `{header}`)")))
            }
            _ => return Err(mismatch("missing campaign header".to_string())),
        }
        if recovered.skipped > 0 {
            notes.push(format!(
                "journal: discarded {} torn or corrupt line(s) (their shards re-run)",
                recovered.skipped
            ));
        }
        for body in records {
            match decode_shard(body, shards) {
                Some((shard, record)) if restored[shard].is_none() => {
                    restored[shard] = Some(record)
                }
                Some((shard, _)) => notes.push(format!(
                    "journal: duplicate record for shard {shard} ignored"
                )),
                None => notes.push(format!(
                    "journal: discarded corrupt record `{}` (shard re-run)",
                    body.split(';').next().unwrap_or_default()
                )),
            }
        }
        // Reopened only once the header proved the journal is ours.
        Ok((RecordLog::reopen(path).map_err(io)?, (restored, notes)))
    }

    /// The supervision loop proper, over whatever fault list the collapse
    /// mode selected (`self.faults`, or the pruned representatives).
    fn run_inner(&self, sim_faults: &[Fault]) -> Result<ResilientRun, CampaignError> {
        let t0 = Instant::now();
        let shards: Vec<&[Fault]> = sim_faults.chunks(self.shard_size).collect();
        let nshards = shards.len();

        // Checkpoint setup stays synchronous (its errors are campaign-
        // fatal); everything per-shard moves to the writer thread behind
        // a bounded channel.
        let (mut journal, restored, notes) = match &self.checkpoint {
            Some(path) => {
                let (log, (restored, notes)) = self.open_journal(path, sim_faults, &shards)?;
                let handle = JournalHandle::spawn(log, self.telemetry.clone());
                (Some(handle), restored, notes)
            }
            None => (None, vec![None; nshards], Vec::new()),
        };

        let cancel = Cancel::new(self.deadline, self.max_steps);
        // One step per test vector, charged before each fault; a test set
        // with zero vectors still charges 1 so budgets always bind.
        let cost = (self.tests.total_vectors() as u64).max(1);

        let span = self.telemetry.as_ref().map(|t| t.span("campaign"));
        // The engine's shared read-only artefacts (golden trace, packed
        // lowering), built once after journal restoration and shared by
        // every worker. Building them costs no cancellation budget (no
        // *fault* is simulated).
        let engine = PreparedEngine::new(
            self.engine,
            self.golden,
            self.tests,
            self.shared_trace.as_deref(),
        )
        .ok_or(CampaignError::ImplicitEngine)?;
        let notes_mx = Mutex::new(notes);
        let states = run_sharded(sim_faults, self.shard_size, self.jobs, |i, shard| {
            if restored[i].is_some() {
                return None;
            }
            // Span timing from workers is trace-safe (commutative
            // aggregation); events are confined to the merge loop below.
            let _shard_span = span.as_ref().map(|s| s.child("shard"));
            let state = self.attempt_shard(i, shard, &engine, &cancel, cost);
            if let (ShardState::Done(outcomes, stats, _), Some(j)) = (&state, &journal) {
                #[cfg(feature = "chaos")]
                let drop_write = self
                    .chaos
                    .as_ref()
                    .is_some_and(|p| p.should_fail_checkpoint(i));
                #[cfg(not(feature = "chaos"))]
                let drop_write = false;
                if drop_write {
                    lock(&notes_mx).push(format!(
                        "journal: chaos-injected write failure for shard {i} (not journaled)"
                    ));
                } else if let Err(e) = j.record(i, outcomes, stats) {
                    lock(&notes_mx).push(format!("journal: failed to record shard {i}: {e}"));
                }
            }
            Some(state)
        });

        // Durability barrier: close the channel and join the writer
        // thread — it drains every pending record and fsyncs the tail
        // batch before this run reports its shards as journaled.
        if let Some(j) = &mut journal {
            let writer_notes = j.finish();
            if !writer_notes.is_empty() {
                lock(&notes_mx).extend(writer_notes);
            }
        }

        // Merge in shard order: restored and fresh shards interleave into
        // exactly the partition a clean run produces.
        let mut outcomes = Vec::with_capacity(sim_faults.len());
        let mut stats = CampaignStats::default();
        let mut effort = EngineStats::default();
        let mut failures = Vec::new();
        let mut skipped = Vec::new();
        let mut restored_count = 0;
        // Events only here: serial, shard-ordered, thread-count blind.
        let shard_event = |st: &CampaignStats, i: usize, restored: bool| {
            if let Some(tel) = &self.telemetry {
                tel.event(
                    "campaign.shard",
                    &[
                        ("shard", i as u64),
                        ("faults", st.faults_simulated as u64),
                        ("detected", st.detected as u64),
                        ("excited", st.excited as u64),
                        ("masked", st.masked as u64),
                        ("escapes", st.escapes as u64),
                        ("restored", u64::from(restored)),
                    ],
                );
            }
        };
        for (i, (restored_shard, state)) in restored.into_iter().zip(states).enumerate() {
            if let Some((outs, st)) = restored_shard {
                restored_count += 1;
                shard_event(&st, i, true);
                stats.merge(&st);
                outcomes.extend(outs);
                continue;
            }
            match state {
                Some(ShardState::Done(outs, st, e)) => {
                    shard_event(&st, i, false);
                    stats.merge(&st);
                    effort.merge(&e);
                    outcomes.extend(outs);
                }
                Some(ShardState::Poisoned { attempts, message }) => {
                    if let Some(tel) = &self.telemetry {
                        tel.event(
                            "campaign.shard_poisoned",
                            &[
                                ("shard", i as u64),
                                ("faults", shards[i].len() as u64),
                                ("attempts", attempts as u64),
                            ],
                        );
                    }
                    failures.push(ShardFailure {
                        shard: i,
                        faults: shards[i].len(),
                        attempts,
                        message,
                    });
                }
                Some(ShardState::Cancelled) | None => {
                    if let Some(tel) = &self.telemetry {
                        tel.event(
                            "campaign.shard_skipped",
                            &[("shard", i as u64), ("faults", shards[i].len() as u64)],
                        );
                    }
                    skipped.push(i);
                }
            }
        }
        let is_complete = failures.is_empty() && skipped.is_empty();
        if let Some(tel) = &self.telemetry {
            tel.counter_add("campaign.faults_simulated", stats.faults_simulated as u64);
            tel.counter_add("campaign.faults_detected", stats.detected as u64);
            tel.counter_add("campaign.faults_excited", stats.excited as u64);
            tel.counter_add("campaign.faults_masked", stats.masked as u64);
            tel.counter_add("campaign.escapes", stats.escapes as u64);
            tel.counter_add("campaign.shards", stats.shards as u64);
            tel.counter_add("campaign.shards_restored", restored_count as u64);
            tel.counter_add("campaign.shards_skipped", skipped.len() as u64);
            tel.counter_add("campaign.shards_poisoned", failures.len() as u64);
            // Engine effort over freshly simulated shards only (restored
            // shards did no simulation this run), merged in shard order.
            effort.emit(self.engine, tel);
        }
        drop(span);
        let detected_lo = stats.detected;
        let unsimulated = sim_faults.len() - stats.faults_simulated;
        let EngineStats { diff, packed } = effort;
        Ok(ResilientRun {
            report: CampaignReport { outcomes },
            stats,
            is_complete,
            failures,
            skipped,
            stopped: cancel.reason(),
            restored_shards: restored_count,
            journal_notes: notes_mx.into_inner().unwrap_or_else(|e| e.into_inner()),
            bounds: CoverageBounds {
                detected_lo,
                detected_hi: detected_lo + unsimulated,
                total_faults: sim_faults.len(),
            },
            total_faults: sim_faults.len(),
            total_shards: nshards,
            jobs: self.jobs,
            wall: t0.elapsed(),
            diff,
            packed,
            collapse: None,
        })
    }

    /// Attempts one shard with panic isolation and the retry budget.
    #[cfg_attr(not(feature = "chaos"), allow(unused_variables))]
    fn attempt_shard(
        &self,
        shard_idx: usize,
        shard: &[Fault],
        engine: &PreparedEngine<'_>,
        cancel: &Cancel,
        cost: u64,
    ) -> ShardState {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "chaos")]
                if let Some(plan) = &self.chaos {
                    if let Some(d) = plan.delay(shard_idx, attempts) {
                        std::thread::sleep(d);
                    }
                    if plan.should_panic(shard_idx, attempts) {
                        std::panic::panic_any(format!(
                            "chaos: injected panic in shard {shard_idx} attempt {attempts}"
                        ));
                    }
                }
                // Admit the whole shard before simulating it, charging the
                // full per-fault cost in fault order: budgets admit work
                // at identical points under every engine, so truncation
                // points (and resumes from them) stay deterministic and
                // engine-independent. A mid-shard refusal cancels the
                // whole shard (partial shards are never reported or
                // journaled).
                for _ in shard {
                    if !cancel.charge(cost) {
                        return None;
                    }
                }
                let mut effort = EngineStats::default();
                let outcomes = engine.simulate(shard, &mut effort);
                Some((outcomes, effort))
            }));
            match result {
                Ok(Some((outcomes, effort))) => {
                    let stats = CampaignStats::tally(&outcomes);
                    return ShardState::Done(outcomes, stats, effort);
                }
                Ok(None) => return ShardState::Cancelled,
                Err(payload) => {
                    if attempts > self.max_retries {
                        return ShardState::Poisoned {
                            attempts,
                            // `&*payload`: downcast the payload itself, not
                            // the `Box<dyn Any>` unsized into `dyn Any`.
                            message: panic_message(&*payload),
                        };
                    }
                    // Counter, not event: retries are observed from worker
                    // threads, and counter addition is order-blind.
                    if let Some(tel) = &self.telemetry {
                        tel.counter_add("campaign.shards_retried", 1);
                    }
                }
            }
        }
    }
}

/// Locks a mutex, recovering the data even if a holder panicked (the
/// supervisor must keep going exactly when other code is failing).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_single_faults, extend_cyclically, simulate_fault, FaultSpace};
    use crate::testutil::figure2;
    use simcov_obs::names;
    use simcov_tour::transition_tour;

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

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "simcov_resilient_{tag}_{}_{:?}.journal",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn complete_run_matches_serial_simulation() {
        let (m, faults, tests) = fixture();
        let serial = CampaignReport {
            outcomes: faults
                .iter()
                .map(|f| simulate_fault(&m, f, &tests))
                .collect(),
        };
        for jobs in [1, 2, 8] {
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(jobs)
                .run()
                .unwrap();
            assert!(run.is_complete);
            assert_eq!(run.stopped, None);
            assert_eq!(run.report, serial, "jobs={jobs}");
            assert_eq!(run.stats.faults_simulated, faults.len());
            assert_eq!(run.stats.detected, serial.num_detected());
            assert_eq!(run.stats.excited, serial.num_excited());
            assert_eq!(run.stats.escapes, serial.escapes().count());
            assert_eq!(run.bounds.detected_lo, run.bounds.detected_hi);
        }
    }

    #[test]
    fn jobs_zero_clamps_to_serial() {
        let (m, faults, tests) = fixture();
        let zero = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(0)
            .run()
            .unwrap();
        let one = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .run()
            .unwrap();
        assert_eq!(zero.jobs, 1, "jobs(0) must clamp to serial execution");
        assert_eq!(zero.stats, one.stats);
        assert_eq!(zero.report, one.report);
    }

    #[test]
    fn shard_size_zero_clamps_to_one_fault_per_shard() {
        let (m, faults, tests) = fixture();
        let run = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(0)
            .run()
            .unwrap();
        // Clamped to 1 => exactly one shard per fault, and the outcomes
        // still match the default partition's.
        assert_eq!(run.stats.shards, faults.len());
        assert_eq!(run.total_shards, faults.len());
        let baseline = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .run()
            .unwrap();
        assert_eq!(run.report, baseline.report);
    }

    #[test]
    fn engine_effort_counters_reconcile_with_the_trace() {
        let (m, faults, tests) = fixture();
        for engine in [Engine::Differential, Engine::Packed] {
            let mut efforts = Vec::new();
            let mut traces = Vec::new();
            for jobs in [1usize, 2, 8] {
                let tel = Telemetry::new();
                let run = ResilientCampaign::new(&m, &faults, &tests)
                    .engine(engine)
                    .jobs(jobs)
                    .telemetry(tel.clone())
                    .run()
                    .unwrap();
                let snap = tel.snapshot();
                assert_eq!(
                    snap.counter(names::CAMPAIGN_FAULTS_SKIPPED_BY_INDEX),
                    Some(run.diff.faults_skipped_by_index as u64)
                );
                assert_eq!(
                    snap.counter(names::CAMPAIGN_PREFIX_STEPS_SAVED),
                    Some(run.diff.prefix_steps_saved as u64)
                );
                assert_eq!(
                    snap.counter(names::CAMPAIGN_DIVERGENCE_REPLAYS),
                    Some(run.diff.divergence_replays as u64),
                    "{engine} emits the differential effort counters"
                );
                let packed_words = snap.counter(names::CAMPAIGN_PACKED_WORDS);
                if engine == Engine::Packed {
                    assert_eq!(packed_words, Some(run.packed.packed_words as u64));
                    assert_eq!(
                        snap.counter(names::CAMPAIGN_LANES_ACTIVE),
                        Some(run.packed.lanes_active as u64)
                    );
                    assert!(
                        run.packed.packed_words > 0,
                        "fixture has effective transfers"
                    );
                } else {
                    assert_eq!(packed_words, None, "only the packed engine packs");
                }
                efforts.push((run.diff, run.packed));
                traces.push(snap.to_jsonl());
            }
            // The tour-based fixture excites every fault, so nothing is
            // skipped but plenty of prefix work is saved.
            assert!(efforts[0].0.prefix_steps_saved > 0);
            assert!(
                efforts.iter().all(|e| *e == efforts[0]),
                "{engine}: effort must not depend on jobs"
            );
            assert_eq!(traces[0], traces[1], "{engine}");
            assert_eq!(traces[0], traces[2], "{engine}");
            simcov_obs::verify_trace(&traces[0]).expect("trace verifies");
        }
    }

    #[test]
    fn zero_deadline_truncates_with_accurate_accounting() {
        let (m, faults, tests) = fixture();
        let run = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .deadline(Duration::ZERO)
            .run()
            .unwrap();
        assert!(!run.is_complete);
        assert_eq!(run.stopped, Some(StopReason::Deadline));
        assert_eq!(run.stats.faults_simulated, 0);
        assert_eq!(run.skipped.len(), run.total_shards);
        assert_eq!(run.bounds.detected_lo, 0);
        assert_eq!(run.bounds.detected_hi, faults.len());
        assert!((run.bounds.rate_hi() - 1.0).abs() < 1e-12);
        assert!(run.bounds.to_string().contains("detection rate"));
    }

    #[test]
    fn zero_deadline_expires_immediately_regardless_of_jobs() {
        // Regression: a zero deadline must uniformly mean "expire
        // immediately" — zero faults simulated, every shard skipped —
        // not "whatever the first clock read decides".
        let (m, faults, tests) = fixture();
        for jobs in [1, 4] {
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(jobs)
                .deadline(Duration::ZERO)
                .run()
                .unwrap();
            assert_eq!(run.stats.faults_simulated, 0, "jobs={jobs}");
            assert_eq!(run.stopped, Some(StopReason::Deadline), "jobs={jobs}");
            assert_eq!(run.skipped.len(), run.total_shards, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_deadline_with_resume_still_restores_the_journal() {
        // Documented: journal restoration costs no simulation steps, so
        // deadline(ZERO) + resume audits a checkpoint without simulating.
        let (m, faults, tests) = fixture();
        let path = temp_path("zero_resume");
        let _c = Cleanup(path.clone());
        let full = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(5)
            .checkpoint(&path)
            .run()
            .unwrap();
        assert!(full.is_complete);
        let audit = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(5)
            .deadline(Duration::ZERO)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap();
        assert_eq!(audit.restored_shards, audit.total_shards);
        assert!(audit.is_complete, "nothing remained to simulate");
        assert_eq!(audit.stats, full.stats);
        assert_eq!(audit.stopped, Some(StopReason::Deadline));
    }

    #[test]
    fn telemetry_counters_reconcile_and_trace_is_thread_count_blind() {
        let (m, faults, tests) = fixture();
        let traces: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| {
                let path = temp_path(&format!("tel{jobs}"));
                let _c = Cleanup(path.clone());
                let tel = Telemetry::new();
                let run = ResilientCampaign::new(&m, &faults, &tests)
                    .jobs(jobs)
                    .shard_size(5)
                    .checkpoint(&path)
                    .telemetry(tel.clone())
                    .run()
                    .unwrap();
                assert!(run.is_complete);
                let snap = tel.snapshot();
                assert_eq!(
                    snap.counter("campaign.faults_simulated"),
                    Some(run.stats.faults_simulated as u64)
                );
                assert_eq!(
                    snap.counter("campaign.faults_detected"),
                    Some(run.stats.detected as u64)
                );
                assert_eq!(
                    snap.counter("campaign.checkpoint_bytes"),
                    Some(
                        std::fs::metadata(&path).unwrap().len() - {
                            // Header lines precede the first shard record.
                            let text = std::fs::read_to_string(&path).unwrap();
                            text.lines()
                                .take(2)
                                .map(|l| l.len() as u64 + 1)
                                .sum::<u64>()
                        }
                    ),
                    "checkpoint_bytes covers exactly the shard records"
                );
                assert_eq!(snap.events.len(), run.total_shards);
                snap.to_jsonl()
            })
            .collect();
        assert_eq!(traces[0], traces[1]);
        assert_eq!(traces[0], traces[2]);
    }

    #[test]
    fn step_budget_admits_partial_prefix_of_work() {
        let (m, faults, tests) = fixture();
        let cost = tests.total_vectors() as u64;
        // Budget for roughly half the faults, serial so admission order
        // is the shard order.
        let budget = cost * (faults.len() as u64 / 2);
        let run = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(7)
            .max_steps(budget)
            .run()
            .unwrap();
        assert!(!run.is_complete);
        assert_eq!(run.stopped, Some(StopReason::StepBudget));
        assert!(run.stats.faults_simulated <= faults.len() / 2 + 7);
        assert!(!run.skipped.is_empty());
        // Every simulated outcome is exact: it matches the clean run's
        // prefix for the completed shards.
        let clean = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(7)
            .run()
            .unwrap();
        assert_eq!(
            run.report.outcomes[..],
            clean.report.outcomes[..run.report.outcomes.len()]
        );
    }

    #[test]
    fn checkpoint_then_resume_is_byte_identical() {
        let (m, faults, tests) = fixture();
        let path = temp_path("resume");
        let _c = Cleanup(path.clone());
        let clean = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(5)
            .run()
            .unwrap();
        // Truncated first run: journal whatever completes.
        let cost = tests.total_vectors() as u64;
        let first = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(5)
            .max_steps(cost * 40)
            .checkpoint(&path)
            .run()
            .unwrap();
        assert!(!first.is_complete);
        // Resume: only the missing shards are simulated.
        let resumed = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(5)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap();
        assert!(resumed.is_complete, "notes: {:?}", resumed.journal_notes);
        assert!(resumed.restored_shards > 0);
        assert_eq!(resumed.stats, clean.stats);
        assert_eq!(resumed.report, clean.report);
    }

    #[test]
    fn engines_agree_under_supervision() {
        let (m, faults, tests) = fixture();
        let naive = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Naive)
            .jobs(2)
            .run()
            .unwrap();
        assert_eq!(naive.diff, DiffStats::default(), "naive does no diffing");
        for jobs in [1, 2, 8] {
            let differential = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(jobs)
                .run()
                .unwrap();
            assert_eq!(differential.report, naive.report, "jobs={jobs}");
            assert_eq!(differential.stats, naive.stats, "jobs={jobs}");
            let packed = ResilientCampaign::new(&m, &faults, &tests)
                .engine(Engine::Packed)
                .jobs(jobs)
                .run()
                .unwrap();
            assert_eq!(packed.report, naive.report, "packed, jobs={jobs}");
            assert_eq!(packed.stats, naive.stats, "packed, jobs={jobs}");
            assert_eq!(
                packed.diff, differential.diff,
                "packed saves exactly the differential effort, jobs={jobs}"
            );
        }
    }

    #[test]
    fn symbolic_engine_is_a_typed_error_before_any_file() {
        // The symbolic engine is the implicit campaign: the supervisor
        // refuses it instead of panicking, and touches no journal.
        let (m, faults, tests) = fixture();
        let path = temp_path("symbolic_refused");
        let _c = Cleanup(path.clone());
        let err = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Symbolic)
            .checkpoint(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::ImplicitEngine), "{err}");
        assert!(err.to_string().contains("run_implicit_campaign"), "{err}");
        assert!(!path.exists(), "no journal for a refused campaign");
    }

    #[test]
    fn packed_checkpoint_resumes_under_naive_bit_identically() {
        // The engine is excluded from the journal fingerprint, so a
        // campaign interrupted under the packed engine must resume
        // soundly — and bit-identically — under the naive oracle.
        let (m, faults, tests) = fixture();
        let path = temp_path("packed_to_naive");
        let _c = Cleanup(path.clone());
        let clean = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Naive)
            .jobs(2)
            .shard_size(5)
            .run()
            .unwrap();
        let cost = tests.total_vectors() as u64;
        let first = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Packed)
            .jobs(2)
            .shard_size(5)
            .max_steps(cost * 40)
            .checkpoint(&path)
            .run()
            .unwrap();
        assert!(!first.is_complete);
        let header_under_packed: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .take(2)
            .map(str::to_string)
            .collect();
        let resumed = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Naive)
            .jobs(2)
            .shard_size(5)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap();
        assert!(resumed.is_complete, "notes: {:?}", resumed.journal_notes);
        assert!(resumed.restored_shards > 0);
        assert_eq!(resumed.stats, clean.stats);
        assert_eq!(resumed.report, clean.report);
        assert_eq!(
            resumed.packed,
            PackedStats::default(),
            "naive packs nothing"
        );
        // The fingerprint header a naive run writes is byte-identical to
        // the packed run's — the engine really is outside the fingerprint.
        let path2 = temp_path("naive_header");
        let _c2 = Cleanup(path2.clone());
        ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Naive)
            .jobs(1)
            .shard_size(5)
            .max_steps(0)
            .checkpoint(&path2)
            .run()
            .unwrap();
        let header_under_naive: Vec<String> = std::fs::read_to_string(&path2)
            .unwrap()
            .lines()
            .take(2)
            .map(str::to_string)
            .collect();
        assert_eq!(header_under_packed, header_under_naive);
    }

    #[test]
    fn batched_journal_writes_survive_truncation_at_any_offset() {
        // write_shard batches fsyncs (one per JOURNAL_SYNC_BYTES, plus a
        // finish() barrier), so a crash may tear the file anywhere — not
        // just inside the last record. Any prefix must restore exactly
        // its complete records and re-run the rest.
        let (m, faults, tests) = fixture();
        let path = temp_path("any_offset");
        let _c = Cleanup(path.clone());
        let clean = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(5)
            .run()
            .unwrap();
        ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(5)
            .checkpoint(&path)
            .run()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let header_end = {
            let mut it = text.match_indices('\n');
            it.next();
            it.next().map(|(i, _)| i + 1).unwrap()
        };
        for frac in [0, 1, 2, 3, 5, 7, 8] {
            let cut = header_end + (text.len() - header_end) * frac / 8;
            std::fs::write(&path, &text[..cut]).unwrap();
            let resumed = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(5)
                .checkpoint(&path)
                .resume(true)
                .run()
                .unwrap();
            assert!(resumed.is_complete, "cut at {cut} bytes");
            assert_eq!(resumed.stats, clean.stats, "cut at {cut} bytes");
            assert_eq!(resumed.report, clean.report, "cut at {cut} bytes");
        }
    }

    #[test]
    fn cross_engine_checkpoint_resume_is_byte_identical() {
        // The engine is deliberately not part of the journal fingerprint:
        // outcomes are engine-independent, so a campaign interrupted
        // under the naive engine must resume soundly (and bit-identically)
        // under the differential one.
        let (m, faults, tests) = fixture();
        let path = temp_path("cross_engine");
        let _c = Cleanup(path.clone());
        let clean = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(2)
            .shard_size(5)
            .run()
            .unwrap();
        let cost = tests.total_vectors() as u64;
        let first = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Naive)
            .jobs(2)
            .shard_size(5)
            .max_steps(cost * 40)
            .checkpoint(&path)
            .run()
            .unwrap();
        assert!(!first.is_complete);
        let resumed = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Differential)
            .jobs(2)
            .shard_size(5)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap();
        assert!(resumed.is_complete, "notes: {:?}", resumed.journal_notes);
        assert!(resumed.restored_shards > 0);
        assert_eq!(resumed.stats, clean.stats);
        assert_eq!(resumed.report, clean.report);
        // Only the freshly simulated shards did differential work.
        assert!(resumed.diff.divergence_replays > 0);
        assert!(resumed.diff.divergence_replays < clean.diff.divergence_replays);
    }

    #[test]
    fn resume_with_missing_journal_starts_fresh() {
        let (m, faults, tests) = fixture();
        let path = temp_path("fresh");
        let _c = Cleanup(path.clone());
        assert!(!path.exists());
        let run = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap();
        assert!(run.is_complete);
        assert_eq!(run.restored_shards, 0);
        assert!(path.exists());
    }

    #[test]
    fn journal_of_different_campaign_is_rejected() {
        let (m, faults, tests) = fixture();
        let path = temp_path("mismatch");
        let _c = Cleanup(path.clone());
        ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .checkpoint(&path)
            .run()
            .unwrap();
        // Same machine, different fault list => different fingerprint.
        let fewer = &faults[..faults.len() - 1];
        let err = ResilientCampaign::new(&m, fewer, &tests)
            .jobs(1)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::JournalMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn unknown_journal_version_is_rejected() {
        let (m, faults, tests) = fixture();
        let path = temp_path("version");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, "simcov-journal v999\ncampaign x\n").unwrap();
        let err = ResilientCampaign::new(&m, &faults, &tests)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn torn_journal_tail_is_discarded_and_rerun() {
        let (m, faults, tests) = fixture();
        let path = temp_path("torn");
        let _c = Cleanup(path.clone());
        let clean = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(5)
            .run()
            .unwrap();
        ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(5)
            .checkpoint(&path)
            .run()
            .unwrap();
        // Tear the file mid-record, as a SIGKILL during a write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() * 3 / 4;
        std::fs::write(&path, &text[..cut]).unwrap();
        let resumed = ResilientCampaign::new(&m, &faults, &tests)
            .jobs(1)
            .shard_size(5)
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap();
        assert!(resumed.is_complete);
        assert_eq!(resumed.stats, clean.stats);
        assert_eq!(resumed.report, clean.report);
    }

    #[test]
    fn resume_after_a_torn_record_leaves_a_clean_journal() {
        // A kill mid-append tears shard 1's record. The resume must cut
        // the fragment off before appending, or the first new record is
        // glued onto it and that shard re-runs on every later resume.
        let (m, faults, tests) = fixture();
        let path = temp_path("torn_then_clean");
        let _c = Cleanup(path.clone());
        let campaign = || {
            ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(5)
                .checkpoint(&path)
        };
        let full = campaign().run().unwrap();
        assert_eq!(full.total_shards, 47);
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.find("\nshard 1 ").unwrap() + 20;
        std::fs::write(&path, &text[..cut]).unwrap();
        let resumed = campaign().resume(true).run().unwrap();
        assert!(resumed.is_complete, "notes: {:?}", resumed.journal_notes);
        assert_eq!(resumed.restored_shards, 1);
        let audit = campaign()
            .deadline(Duration::ZERO)
            .resume(true)
            .run()
            .unwrap();
        assert_eq!(
            audit.restored_shards, audit.total_shards,
            "notes: {:?}",
            audit.journal_notes
        );
        assert!(
            !audit.journal_notes.iter().any(|n| n.contains("discarded")),
            "{:?}",
            audit.journal_notes
        );
        assert_eq!(audit.stats, full.stats);
        assert_eq!(audit.report, full.report);
    }

    #[test]
    fn outcome_encoding_roundtrips() {
        let samples = [
            FaultOutcome {
                fault: Fault {
                    state: StateId(3),
                    input: InputSym(1),
                    kind: FaultKind::Transfer {
                        new_next: StateId(9),
                    },
                },
                detected: Some((2, 17)),
                excited: true,
                masked_somewhere: false,
            },
            FaultOutcome {
                fault: Fault {
                    state: StateId(0),
                    input: InputSym(0),
                    kind: FaultKind::Output {
                        new_output: OutputSym(4),
                    },
                },
                detected: None,
                excited: false,
                masked_somewhere: true,
            },
        ];
        for o in &samples {
            let line = encode_outcome(o);
            assert_eq!(decode_outcome(&line).as_ref(), Some(o), "{line}");
        }
        assert_eq!(decode_outcome("o 1 2 z 3 - 0 0"), None);
        assert_eq!(decode_outcome("garbage"), None);
        assert_eq!(decode_outcome("o 1 2 t 3 - 0 0 extra"), None);
    }

    #[test]
    fn empty_fault_list_is_trivially_complete() {
        let (m, _, tests) = fixture();
        let run = ResilientCampaign::new(&m, &[], &tests).run().unwrap();
        assert!(run.is_complete);
        assert_eq!(run.total_shards, 0);
        assert_eq!(run.stats, CampaignStats::default());
        assert!((run.bounds.rate_lo() - 1.0).abs() < 1e-12);
    }

    #[cfg(feature = "chaos")]
    mod chaos_tests {
        use super::*;
        use crate::resilient::chaos::{silence_chaos_panics, ChaosPlan};

        #[test]
        fn chaos_decisions_are_deterministic() {
            let plan = ChaosPlan {
                panic_prob: 0.5,
                delay_prob: 0.5,
                checkpoint_fail_prob: 0.5,
                ..ChaosPlan::new(42)
            };
            for shard in 0..32 {
                for attempt in 1..4 {
                    assert_eq!(
                        plan.should_panic(shard, attempt),
                        plan.should_panic(shard, attempt)
                    );
                    assert_eq!(plan.delay(shard, attempt), plan.delay(shard, attempt));
                }
                assert_eq!(
                    plan.should_fail_checkpoint(shard),
                    plan.should_fail_checkpoint(shard)
                );
            }
            // A 50% plan actually injects something over 32 shards.
            assert!((0..32).any(|s| plan.should_panic(s, 1)));
            assert!((0..32).any(|s| !plan.should_panic(s, 1)));
        }

        #[test]
        fn injected_panics_are_isolated_and_retried_to_success() {
            silence_chaos_panics();
            let (m, faults, tests) = fixture();
            // Panic often, but with a generous retry budget every shard
            // eventually draws a non-panicking attempt (p = 0.3^11 per
            // shard of exhausting all attempts — negligible, and the
            // chaos schedule is deterministic per seed anyway).
            let plan = ChaosPlan {
                panic_prob: 0.3,
                ..ChaosPlan::new(7)
            };
            let clean = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .shard_size(5)
                .run()
                .unwrap();
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .shard_size(5)
                .max_retries(10)
                .chaos(plan)
                .run()
                .unwrap();
            assert!(run.is_complete, "failures: {:?}", run.failures);
            assert_eq!(run.stats, clean.stats);
            assert_eq!(run.report, clean.report);
        }

        #[test]
        fn exhausted_retries_quarantine_the_shard() {
            silence_chaos_panics();
            let (m, faults, tests) = fixture();
            // Always panic: every shard poisons after 1 + max_retries.
            let plan = ChaosPlan {
                panic_prob: 1.0,
                ..ChaosPlan::new(3)
            };
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .shard_size(5)
                .max_retries(1)
                .chaos(plan)
                .run()
                .unwrap();
            assert!(!run.is_complete);
            assert_eq!(run.stopped, None, "panics are not cancellation");
            assert_eq!(run.failures.len(), run.total_shards);
            assert_eq!(run.stats.faults_simulated, 0);
            for f in &run.failures {
                assert_eq!(f.attempts, 2);
                assert!(f.message.contains("chaos"), "{f}");
                assert!(f.to_string().contains("poisoned"));
            }
            assert_eq!(run.bounds.detected_hi, faults.len());
        }

        #[test]
        #[should_panic(expected = "fault campaign incomplete: shard 0")]
        fn run_complete_refuses_a_gapped_report() {
            silence_chaos_panics();
            let (m, faults, tests) = fixture();
            let plan = ChaosPlan {
                panic_prob: 1.0,
                ..ChaosPlan::new(3)
            };
            ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .max_retries(0)
                .chaos(plan)
                .run_complete();
        }

        #[test]
        fn checkpoint_write_failures_degrade_not_corrupt() {
            silence_chaos_panics();
            let (m, faults, tests) = fixture();
            let path = temp_path("ckptfail");
            let _c = Cleanup(path.clone());
            let plan = ChaosPlan {
                checkpoint_fail_prob: 0.5,
                ..ChaosPlan::new(11)
            };
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .shard_size(5)
                .checkpoint(&path)
                .chaos(plan)
                .run()
                .unwrap();
            assert!(run.is_complete, "write failures must not fail the run");
            assert!(
                run.journal_notes.iter().any(|n| n.contains("chaos")),
                "{:?}",
                run.journal_notes
            );
            // The journal holds a subset of shards; resuming restores that
            // subset, re-runs the rest, and still matches a clean run.
            let clean = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(5)
                .run()
                .unwrap();
            let resumed = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(5)
                .checkpoint(&path)
                .resume(true)
                .run()
                .unwrap();
            assert!(resumed.is_complete);
            assert!(resumed.restored_shards < resumed.total_shards);
            assert_eq!(resumed.stats, clean.stats);
            assert_eq!(resumed.report, clean.report);
        }
    }

    mod collapse_modes {
        use super::*;
        use crate::{ClassKind, CollapseCertificate, CollapseMode};

        fn singleton_cert(m: &ExplicitMealy, faults: &[Fault]) -> CollapseCertificate {
            let class_of: Vec<u32> = (0..faults.len() as u32).collect();
            let kinds = vec![ClassKind::Singleton; faults.len()];
            CollapseCertificate::new(m, faults, class_of, kinds, Vec::new()).unwrap()
        }

        #[test]
        fn collapse_on_complete_matches_uncollapsed() {
            let (m, faults, tests) = fixture();
            let cert = singleton_cert(&m, &faults);
            let off = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(2)
                .run()
                .unwrap();
            for jobs in [1, 2, 8] {
                let on = ResilientCampaign::new(&m, &faults, &tests)
                    .jobs(jobs)
                    .collapse(&cert, CollapseMode::On)
                    .run()
                    .unwrap();
                assert!(on.is_complete);
                assert_eq!(on.report, off.report, "jobs={jobs}");
                assert_eq!(on.stats, off.stats, "jobs={jobs}");
                assert_eq!(on.bounds, off.bounds, "jobs={jobs}");
                let summary = on.collapse.expect("collapse run carries a summary");
                assert_eq!(summary.collapsed_faults, 0, "singletons prune nothing");
            }
            assert!(off.collapse.is_none());
        }

        /// One state, one input, three outputs: the two effective output
        /// faults at the single cell are genuinely equivalent (both
        /// detected at the first vector), so collapsing them is sound and
        /// actually prunes work.
        fn output_pair_fixture() -> (ExplicitMealy, Vec<Fault>, TestSet, CollapseCertificate) {
            let mut b = simcov_fsm::MealyBuilder::new();
            let s0 = b.add_state("s0");
            let i0 = b.add_input("i0");
            let o0 = b.add_output("o0");
            let o1 = b.add_output("o1");
            let o2 = b.add_output("o2");
            b.add_transition(s0, i0, s0, o0);
            let m = b.build(s0).unwrap();
            let faults: Vec<Fault> = [o1, o2]
                .into_iter()
                .map(|new_output| Fault {
                    state: s0,
                    input: i0,
                    kind: FaultKind::Output { new_output },
                })
                .collect();
            let tests = TestSet::single(vec![i0, i0]);
            let cert = CollapseCertificate::new(
                &m,
                &faults,
                vec![0, 0],
                vec![ClassKind::Output],
                Vec::new(),
            )
            .unwrap();
            assert_eq!(cert.collapsed_faults(), 1);
            (m, faults, tests, cert)
        }

        #[test]
        fn collapse_on_matches_off_and_prunes_work() {
            let (m, faults, tests, cert) = output_pair_fixture();
            let off = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .run()
                .unwrap();
            for jobs in [1, 2, 8] {
                let tel = Telemetry::new();
                let on = ResilientCampaign::new(&m, &faults, &tests)
                    .jobs(jobs)
                    .collapse(&cert, CollapseMode::On)
                    .telemetry(tel.clone())
                    .run()
                    .unwrap();
                assert_eq!(on.report, off.report, "jobs={jobs}");
                assert_eq!(on.stats, off.stats, "jobs={jobs}");
                let summary = on.collapse.expect("collapse run carries a summary");
                assert_eq!(summary.mode, CollapseMode::On);
                assert_eq!(summary.classes, 1);
                assert_eq!(summary.collapsed_faults, 1);
                assert!(summary.violations.is_empty());
                // Only the representative was simulated.
                assert_eq!(
                    tel.snapshot().counter("campaign.faults_simulated"),
                    Some(1),
                    "jobs={jobs}"
                );
            }
            assert!(off.collapse.is_none(), "plain runs carry no summary");
            // Off mode ignores the certificate entirely.
            let explicit_off = ResilientCampaign::new(&m, &faults, &tests)
                .collapse(&cert, CollapseMode::Off)
                .run()
                .unwrap();
            assert!(explicit_off.collapse.is_none());
            assert_eq!(explicit_off.report, off.report);
        }

        #[test]
        fn collapse_on_trace_is_byte_identical_across_thread_counts() {
            let (m, faults, tests) = fixture();
            let cert = singleton_cert(&m, &faults);
            let traces: Vec<String> = [1usize, 2, 8]
                .iter()
                .map(|&jobs| {
                    let tel = Telemetry::new();
                    let run = ResilientCampaign::new(&m, &faults, &tests)
                        .jobs(jobs)
                        .collapse(&cert, CollapseMode::On)
                        .telemetry(tel.clone())
                        .run()
                        .unwrap();
                    let snap = tel.snapshot();
                    let summary = run.collapse.unwrap();
                    assert_eq!(
                        snap.counter(names::CAMPAIGN_CLASSES),
                        Some(summary.classes as u64)
                    );
                    assert_eq!(
                        snap.counter(names::CAMPAIGN_COLLAPSED_FAULTS),
                        Some(summary.collapsed_faults as u64)
                    );
                    assert_eq!(snap.events.len(), run.total_shards);
                    snap.to_jsonl()
                })
                .collect();
            assert_eq!(traces[0], traces[1]);
            assert_eq!(traces[0], traces[2]);
            simcov_obs::verify_trace(&traces[0]).expect("trace verifies");
        }

        #[test]
        fn collapse_on_partial_bounds_cover_the_full_universe() {
            let (m, faults, tests) = fixture();
            let cert = singleton_cert(&m, &faults);
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .jobs(1)
                .shard_size(5)
                .deadline(Duration::ZERO)
                .collapse(&cert, CollapseMode::On)
                .run()
                .unwrap();
            assert!(!run.is_complete);
            assert_eq!(run.stopped, Some(StopReason::Deadline));
            assert!(run.report.outcomes.is_empty());
            assert_eq!(run.total_faults, faults.len());
            assert_eq!(run.bounds.total_faults, faults.len());
            assert_eq!(run.bounds.detected_hi, faults.len());
        }

        #[test]
        fn collapse_verify_audits_complete_runs() {
            let (m, faults, tests) = fixture();
            let sound = singleton_cert(&m, &faults);
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .collapse(&sound, CollapseMode::Verify)
                .run()
                .unwrap();
            assert!(run.is_complete);
            let summary = run.collapse.unwrap();
            assert!(summary.violations.is_empty());
            // A bogus one-big-class certificate is caught.
            let bogus = CollapseCertificate::new(
                &m,
                &faults,
                vec![0; faults.len()],
                vec![ClassKind::Singleton],
                Vec::new(),
            )
            .unwrap();
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .collapse(&bogus, CollapseMode::Verify)
                .run()
                .unwrap();
            assert!(!run.collapse.unwrap().violations.is_empty());
        }

        #[test]
        fn collapse_verify_skips_audit_on_incomplete_runs() {
            let (m, faults, tests) = fixture();
            let cert = singleton_cert(&m, &faults);
            let run = ResilientCampaign::new(&m, &faults, &tests)
                .deadline(Duration::ZERO)
                .collapse(&cert, CollapseMode::Verify)
                .run()
                .unwrap();
            assert!(!run.is_complete);
            let summary = run.collapse.unwrap();
            assert!(summary.violations.is_empty());
            assert!(
                run.journal_notes
                    .iter()
                    .any(|n| n.contains("verify audit skipped")),
                "{:?}",
                run.journal_notes
            );
        }

        #[test]
        fn stale_certificate_is_a_campaign_error() {
            let (m, faults, tests) = fixture();
            let cert = singleton_cert(&m, &faults[1..]);
            let err = ResilientCampaign::new(&m, &faults, &tests)
                .collapse(&cert, CollapseMode::On)
                .run()
                .unwrap_err();
            assert!(matches!(err, CampaignError::Certificate { .. }), "{err}");
        }

        #[test]
        fn collapsed_and_uncollapsed_journals_never_cross_resume() {
            let (m, faults, tests) = fixture();
            let path = temp_path("collapse_cross");
            let _cleanup = Cleanup(path.clone());
            // Journal a plain run, then try to resume it collapsed: even
            // though singleton pruning keeps the same fault list length,
            // an *actually pruning* certificate would not — and the
            // fingerprint guards both cases. Exercise it with a genuinely
            // pruned list: two faults in one class.
            let merged = CollapseCertificate::new(
                &m,
                &faults,
                std::iter::once(0u32)
                    .chain(std::iter::once(0u32))
                    .chain(1..faults.len() as u32 - 1)
                    .collect(),
                vec![ClassKind::Singleton; faults.len() - 1],
                Vec::new(),
            )
            .unwrap();
            assert_eq!(merged.collapsed_faults(), 1);
            ResilientCampaign::new(&m, &faults, &tests)
                .checkpoint(&path)
                .run()
                .unwrap();
            let err = ResilientCampaign::new(&m, &faults, &tests)
                .checkpoint(&path)
                .resume(true)
                .collapse(&merged, CollapseMode::On)
                .run()
                .unwrap_err();
            assert!(
                matches!(err, CampaignError::JournalMismatch { .. }),
                "{err}"
            );
        }
    }
}
