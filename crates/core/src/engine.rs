//! One dispatch point for the explicit fault-simulation engines.
//!
//! Every explicit campaign runs an [`Engine`] in two steps.
//! [`PreparedEngine::new`] builds the engine's read-only artefacts once
//! per campaign: the golden trace ([`GoldenTrace::build`]) for the
//! differential engine; the same trace plus the packed tables and replay
//! script, which lower only its replays, for the packed engine.
//! [`PreparedEngine::simulate`] then classifies one shard of faults
//! against them and accumulates the engine's effort into
//! [`EngineStats`]. The artefacts are shared by reference across worker
//! threads, so a campaign pays for them once whatever its `--jobs`.
//!
//! The three explicit engines (naive, differential, packed) produce
//! bit-identical [`FaultOutcome`]s for the same `(golden, faults,
//! tests)`; only their [`EngineStats`] differ. [`Engine::Symbolic`] has
//! no fault list to simulate: it is the implicit campaign,
//! [`crate::run_implicit_campaign`].

use crate::differential::{simulate_fault_differential, DiffStats, Engine, GoldenTrace};
use crate::error_model::Fault;
use crate::faults::{simulate_fault, FaultOutcome};
use crate::packed::{simulate_shard_packed, PackedStats, ReplayScript};
use simcov_fsm::{ExplicitMealy, PackedMealy};
use simcov_obs::names;
use simcov_obs::Telemetry;
use simcov_tour::TestSet;
use std::borrow::Cow;

/// Effort counters of one engine over a set of shards. Each component is
/// a pure function of `(golden, faults, tests, shard partition)`, so
/// totals merged in shard order are identical across thread counts. The
/// components an engine does not use stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Differential-engine effort; the packed engine accounts the same
    /// per-fault work.
    pub diff: DiffStats,
    /// Word-packing effort of the packed engine.
    pub packed: PackedStats,
}

impl EngineStats {
    /// Component-wise sum: commutative and associative.
    pub(crate) fn merge(&mut self, other: &EngineStats) {
        self.diff.merge(&other.diff);
        self.packed.merge(&other.packed);
    }

    /// Adds the effort counters `engine` reports to `tel`. Called once
    /// from the merged total, never per shard, so the trace stays
    /// byte-identical across thread counts. The differential and packed
    /// engines report the differential counters and the packed engine
    /// adds its word counters; the naive engine reports nothing.
    pub(crate) fn emit(&self, engine: Engine, tel: &Telemetry) {
        if matches!(engine, Engine::Differential | Engine::Packed) {
            let d = &self.diff;
            tel.counter_add(
                names::CAMPAIGN_FAULTS_SKIPPED_BY_INDEX,
                d.faults_skipped_by_index as u64,
            );
            tel.counter_add(
                names::CAMPAIGN_PREFIX_STEPS_SAVED,
                d.prefix_steps_saved as u64,
            );
            tel.counter_add(
                names::CAMPAIGN_DIVERGENCE_REPLAYS,
                d.divergence_replays as u64,
            );
            tel.counter_add(
                names::CAMPAIGN_RECONVERGED_STEPS_SKIPPED,
                d.reconverged_steps_skipped as u64,
            );
        }
        if engine == Engine::Packed {
            tel.counter_add(
                names::CAMPAIGN_PACKED_WORDS,
                self.packed.packed_words as u64,
            );
            tel.counter_add(
                names::CAMPAIGN_LANES_ACTIVE,
                self.packed.lanes_active as u64,
            );
        }
    }
}

/// The read-only artefacts each engine simulates against.
enum Artefacts<'a> {
    Naive,
    Differential(Cow<'a, GoldenTrace>),
    Packed {
        tables: PackedMealy,
        trace: Cow<'a, GoldenTrace>,
        script: ReplayScript,
    },
}

/// An [`Engine`] bound to one `(golden, tests)` pair with its read-only
/// artefacts built.
///
/// ```
/// use simcov_core::{enumerate_single_faults, Engine, EngineStats, FaultSpace, PreparedEngine};
/// use simcov_core::models::figure2;
/// use simcov_tour::{transition_tour, TestSet};
///
/// let (m, _) = figure2();
/// let faults = enumerate_single_faults(&m, &FaultSpace::default());
/// let tests = TestSet::single(transition_tour(&m).unwrap().inputs);
/// let engine = PreparedEngine::new(Engine::Packed, &m, &tests, None).unwrap();
/// let mut effort = EngineStats::default();
/// let outcomes = engine.simulate(&faults, &mut effort);
/// assert_eq!(outcomes.len(), faults.len());
/// assert!(effort.packed.packed_words > 0);
/// ```
pub struct PreparedEngine<'a> {
    golden: &'a ExplicitMealy,
    tests: &'a TestSet,
    artefacts: Artefacts<'a>,
}

impl<'a> PreparedEngine<'a> {
    /// Builds `engine`'s artefacts for `(golden, tests)`.
    ///
    /// `trace` is an already-built golden trace to share instead of
    /// building one (a cross-request cache, say); it must have been
    /// built by [`GoldenTrace::build`] from this `golden` and `tests`,
    /// and serves both engines that use a trace; the naive engine ignores
    /// it.
    ///
    /// Returns `None` for [`Engine::Symbolic`], which simulates no fault
    /// list: run [`crate::run_implicit_campaign`] instead.
    pub fn new(
        engine: Engine,
        golden: &'a ExplicitMealy,
        tests: &'a TestSet,
        trace: Option<&'a GoldenTrace>,
    ) -> Option<Self> {
        let trace = || match trace {
            Some(t) => Cow::Borrowed(t),
            None => Cow::Owned(GoldenTrace::build(golden, tests)),
        };
        let artefacts = match engine {
            Engine::Naive => Artefacts::Naive,
            Engine::Differential => Artefacts::Differential(trace()),
            Engine::Packed => {
                let trace = trace();
                let script = ReplayScript::build(&trace, tests);
                Artefacts::Packed {
                    tables: PackedMealy::from_explicit(golden),
                    trace,
                    script,
                }
            }
            Engine::Symbolic => return None,
        };
        Some(PreparedEngine {
            golden,
            tests,
            artefacts,
        })
    }

    /// Classifies every fault of `shard`, returning outcomes in shard
    /// order, bit-identical to mapping
    /// [`simulate_fault`] over it. The
    /// engine's effort is added to `stats`.
    ///
    /// # Panics
    ///
    /// Panics if a fault's transition is undefined in the golden machine.
    pub fn simulate(&self, shard: &[Fault], stats: &mut EngineStats) -> Vec<FaultOutcome> {
        let (golden, tests) = (self.golden, self.tests);
        match &self.artefacts {
            Artefacts::Naive => shard
                .iter()
                .map(|f| simulate_fault(golden, f, tests))
                .collect(),
            Artefacts::Differential(trace) => shard
                .iter()
                .map(|f| simulate_fault_differential(golden, trace, f, tests, &mut stats.diff))
                .collect(),
            Artefacts::Packed {
                tables,
                trace,
                script,
            } => simulate_shard_packed(
                golden,
                tables,
                trace,
                script,
                shard,
                tests,
                &mut stats.diff,
                &mut stats.packed,
            ),
        }
    }
}
