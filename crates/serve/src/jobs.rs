//! The job-execution layer shared by the single-shot CLI and the server.
//!
//! Every job kind the server accepts (campaign, lint, tour, analyze,
//! close) is
//! executed by [`execute`], and the CLI subcommands delegate to the very
//! same function — so a served job's report text, exit status and
//! telemetry trace are byte-identical to the single-shot `simcov` run of
//! the same options *by construction*. The server-only extras (the
//! cross-request [`TraceCache`] and the engine-degradation audit) enter
//! through [`ExecCtx`] and are disabled on the CLI path; both are
//! invisible to a job's telemetry, which is what keeps the traces
//! identical.

use crate::cache::TraceCache;
use crate::ExitStatus;
use simcov_analyze::{analyze_collapse, lint_analysis, AnalyzeOptions, AnalyzeTarget};
use simcov_core::fingerprint::machine_fingerprint;
use simcov_core::{
    default_jobs, enumerate_single_faults, extend_cyclically, run_implicit_campaign,
    simulate_fault, ClosureConfig, ClosureDriver, CollapseMode, Engine, EngineStats, Fault,
    FaultSpace, GoldenTrace, ImplicitConfig, PreparedEngine, ResilientCampaign,
};
use simcov_fsm::{enumerate_netlist, EnumerateOptions, ExplicitMealy};
use simcov_netlist::Netlist;
use simcov_obs::fnv::Fnv64;
use simcov_obs::Telemetry;
use simcov_prng::Prng;
use simcov_tour::{coverage, generate_tour_traced, TestSet, TourKind};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A job failure: message plus the exit status it maps to (usage errors
/// are the client's fault, runtime errors the model's).
#[derive(Debug)]
pub struct JobError {
    /// Human-readable message.
    pub message: String,
    /// [`ExitStatus::Usage`] or [`ExitStatus::Error`].
    pub status: ExitStatus,
}

impl JobError {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        JobError {
            message: message.into(),
            status: ExitStatus::Usage,
        }
    }

    pub(crate) fn runtime(message: impl Into<String>) -> Self {
        JobError {
            message: message.into(),
            status: ExitStatus::Error,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JobError {}

/// The model a job runs over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSource {
    /// Sequential BLIF text; `name` labels parse errors (the CLI passes
    /// the file path, the wire protocol a client-chosen label).
    Blif {
        /// Label used in error messages.
        name: String,
        /// The BLIF source itself.
        text: String,
    },
    /// A built-in case-study model by name
    /// (`fig3a|fig3b|final|reduced|reduced-obs`).
    Dlx(String),
}

impl ModelSource {
    fn netlist(&self) -> Result<Netlist, JobError> {
        match self {
            ModelSource::Blif { name, text } => simcov_netlist::from_blif(text)
                .map_err(|e| JobError::runtime(format!("cannot parse {name}: {e}"))),
            ModelSource::Dlx(which) => dlx_netlist(which),
        }
    }

    /// The DLX model name, when the source is one.
    fn dlx_name(&self) -> Option<&str> {
        match self {
            ModelSource::Dlx(which) => Some(which),
            ModelSource::Blif { .. } => None,
        }
    }
}

/// Resolves a built-in case-study model by name.
pub fn dlx_netlist(which: &str) -> Result<Netlist, JobError> {
    Ok(match which {
        "fig3a" => simcov_dlx::control::initial_control_netlist(),
        "fig3b" | "final" => simcov_dlx::testmodel::derive_test_model().0,
        "reduced" => simcov_dlx::testmodel::reduced_control_netlist(),
        "reduced-obs" => simcov_dlx::testmodel::reduced_control_netlist_observable(),
        other => {
            return Err(JobError::usage(format!(
                "unknown dlx model `{other}` (fig3a|fig3b|final|reduced|reduced-obs)"
            )))
        }
    })
}

/// Enumerates a netlist under the explicit-command guard (≤ 16 primary
/// inputs).
pub fn enumerate(n: &Netlist) -> Result<ExplicitMealy, JobError> {
    if n.num_inputs() > 16 {
        return Err(JobError::runtime(format!(
            "model has {} primary inputs; explicit commands are limited to 16 \
             (use `stats`/`distinguish`, which work symbolically)",
            n.num_inputs()
        )));
    }
    enumerate_netlist(n, &EnumerateOptions::exhaustive(n))
        .map_err(|e| JobError::runtime(format!("enumeration failed: {e}")))
}

/// Options for a campaign job (`simcov campaign`'s flags).
///
/// [`Engine::Symbolic`] runs the implicit campaign, which reads only `k`
/// and `jobs`. It rejects `deadline_ms`, `max_steps`, `checkpoint`,
/// `resume` and a `collapse` other than off as usage errors. It ignores
/// `max_faults`, `seed` and `max_retries`: a request that sets one to its
/// default looks the same as one that omits it, so none can be refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOpts {
    /// Fault-sample cap (`--max-faults`).
    pub max_faults: usize,
    /// Fault-sampling seed (`--seed`).
    pub seed: u64,
    /// Cyclic tour extension (`--k`).
    pub k: usize,
    /// Worker threads; 0 = all available cores (`--jobs`).
    pub jobs: usize,
    /// Retry budget per panicking shard (`--max-retries`).
    pub max_retries: usize,
    /// Wall-clock budget in milliseconds (`--deadline`).
    pub deadline_ms: Option<u64>,
    /// Total simulation-step budget (`--max-steps`).
    pub max_steps: Option<u64>,
    /// Checkpoint-journal path (`--checkpoint`); CLI-only — the wire
    /// protocol rejects it (the server journal owns durability).
    pub checkpoint: Option<String>,
    /// Restore journaled shards before simulating (`--resume`).
    pub resume: bool,
    /// Fault-simulation engine (`--engine`). The explicit engines
    /// produce bit-identical reports; `naive` exists as the differential
    /// engine's oracle for equivalence gates. `symbolic` runs the
    /// implicit campaign and prints its own report.
    pub engine: Engine,
    /// Static fault collapsing (`--collapse`): `off` simulates every
    /// fault, `on` prunes to class representatives (bit-identical
    /// report), `verify` audits the certificate against a full run.
    pub collapse: CollapseMode,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            max_faults: 2000,
            seed: 0,
            k: 2,
            jobs: 0,
            max_retries: 2,
            deadline_ms: None,
            max_steps: None,
            checkpoint: None,
            resume: false,
            engine: Engine::default(),
            collapse: CollapseMode::Off,
        }
    }
}

/// Options for an analyze job (`simcov analyze`'s flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOpts {
    /// Fault-sample cap (`--max-faults`), matching `campaign`'s default
    /// so the analyzed universe is the one a campaign would simulate.
    pub max_faults: usize,
    /// Fault-sampling seed (`--seed`).
    pub seed: u64,
    /// Per-cell node budget for the transfer-fault bisimulation
    /// (`--max-nodes`).
    pub max_nodes: usize,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            max_faults: 2000,
            seed: 0,
            max_nodes: AnalyzeOptions::default().max_nodes_per_cell,
        }
    }
}

/// Options for a closure job (`simcov close`'s flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloseOpts {
    /// Fault-sample cap (`--max-faults`).
    pub max_faults: usize,
    /// Seed for fault sampling *and* stimulus generation (`--seed`).
    pub seed: u64,
    /// Feedback-round budget (`--rounds`).
    pub rounds: usize,
    /// Soft test-step budget across all rounds (`--budget`).
    pub budget: Option<u64>,
    /// Worker threads; 0 = all available cores (`--jobs`). The closure
    /// schedule and report are identical for any value.
    pub jobs: usize,
    /// Fault-simulation engine for every round (`--engine`).
    pub engine: Engine,
    /// Report format: `text` or `json`.
    pub format: String,
}

impl Default for CloseOpts {
    fn default() -> Self {
        CloseOpts {
            max_faults: 2000,
            seed: 0,
            rounds: 8,
            budget: None,
            jobs: 0,
            engine: Engine::default(),
            format: "text".to_string(),
        }
    }
}

/// Severity overrides as `(code, severity)` string pairs — the
/// wire-transportable form of `--deny/--warn/--allow` flags. Validated
/// into a [`simcov_lint::LintConfig`] at execution time.
pub type SeverityOverrides = Vec<(String, String)>;

/// Builds a lint config from override pairs, rejecting unknown codes and
/// severities with the same messages the CLI flags produce.
pub fn lint_config(overrides: &SeverityOverrides) -> Result<simcov_lint::LintConfig, JobError> {
    let mut config = simcov_lint::LintConfig::new();
    for (code, severity) in overrides {
        let sev = simcov_lint::Severity::parse(severity)
            .ok_or_else(|| JobError::usage(format!("unknown severity `{severity}`")))?;
        if simcov_lint::find_code(code).is_none() {
            return Err(JobError::usage(format!("unknown lint code `{code}`")));
        }
        config.set(code, sev);
    }
    Ok(config)
}

/// Validates a report format (`text` or `json`).
pub fn report_format(format: &str) -> Result<(), JobError> {
    if format != "text" && format != "json" {
        return Err(JobError::usage(format!(
            "unknown lint format `{format}` (text|json)"
        )));
    }
    Ok(())
}

/// What a job does. Paired with a [`ModelSource`] in a [`JobSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Tour-driven fault campaign on the supervised parallel engine.
    Campaign(CampaignOpts),
    /// Static `SC0xx` diagnostics.
    Lint {
        /// Report format: `text` or `json`.
        format: String,
        /// Forall-k depth for the model lints.
        k: usize,
        /// `--deny/--warn/--allow` pairs.
        overrides: SeverityOverrides,
    },
    /// Tour generation (`postman`, `greedy` or `state`).
    Tour {
        /// The tour kind name.
        kind: String,
    },
    /// Whole-model static fault collapsing.
    Analyze {
        /// Report format: `text` or `json`.
        format: String,
        /// Analysis options.
        opts: AnalyzeOpts,
        /// `--deny/--warn/--allow` pairs.
        overrides: SeverityOverrides,
    },
    /// Coverage-directed closure: the adaptive feedback loop of
    /// `simcov_core::adaptive`.
    Close(CloseOpts),
}

impl JobKind {
    /// The wire spelling of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Campaign(_) => "campaign",
            JobKind::Lint { .. } => "lint",
            JobKind::Tour { .. } => "tour",
            JobKind::Analyze { .. } => "analyze",
            JobKind::Close(_) => "close",
        }
    }
}

/// One job: a client-chosen id, a model and what to do with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen identifier (unique per tenant by convention).
    pub id: String,
    /// The model the job runs over.
    pub model: ModelSource,
    /// What to do.
    pub kind: JobKind,
}

impl JobSpec {
    /// FNV-64 fingerprint of the spec's canonical encoding — the
    /// identity under which the server quarantines repeatedly-failing
    /// jobs and journals admissions. Two submissions of the same work
    /// (same id, model, kind, options) collide deliberately; jobs that
    /// differ anywhere do not (beyond the 2^-64 hash-collision floor,
    /// which is the same floor every fingerprint in this workspace —
    /// journal, certificate, trace — already accepts).
    pub fn fingerprint(&self) -> u64 {
        Fnv64::hash(format!("{self:?}").as_bytes())
    }
}

/// The outcome of an executed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The report text (exactly what the single-shot CLI prints).
    pub text: String,
    /// The exit status (exactly the single-shot CLI's exit code).
    pub status: ExitStatus,
    /// The engine the job actually ran with (campaign jobs only) —
    /// differs from the requested engine when the degradation ladder
    /// stepped down.
    pub engine_used: Option<Engine>,
    /// Rungs descended on the degradation ladder (0 = no degradation).
    pub degraded: u32,
    /// Whether the golden trace came from the cross-request cache
    /// (`None` when the job never consulted it).
    pub cache_hit: Option<bool>,
}

/// Server-side execution context. [`ExecCtx::default`] is the CLI path:
/// no cache, no audit — byte-for-byte the historical subcommand
/// behavior.
#[derive(Default)]
pub struct ExecCtx<'a> {
    /// Cross-request golden-trace cache.
    pub cache: Option<&'a TraceCache>,
    /// Engine-equivalence sampling audit; `Some` enables the
    /// `packed → differential → naive` degradation ladder. Symbolic jobs
    /// run the implicit campaign and are never audited.
    pub audit: Option<AuditPolicy>,
    /// Chaos hook: force an audit verdict per engine (`true` = fail the
    /// audit). `None` audits honestly.
    pub force_audit_fail: Option<&'a (dyn Fn(Engine) -> bool + Sync)>,
}

/// How the engine-equivalence audit samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditPolicy {
    /// Faults sampled per audit (clamped to the fault count).
    pub sample: usize,
    /// Sampling seed (deterministic per server).
    pub seed: u64,
}

impl Default for AuditPolicy {
    fn default() -> Self {
        AuditPolicy { sample: 8, seed: 0 }
    }
}

/// Audits `engine` against the naive oracle on a seeded fault sample;
/// `true` means every sampled outcome agreed. Runs entirely outside the
/// job's telemetry so a passed audit leaves no trace in the job's trace.
/// [`Engine::Symbolic`] simulates no fault list, so its audit fails.
///
/// `_unused` can only be `None` ([`Infallible`](std::convert::Infallible)
/// has no values). It keeps the signature that `simcov-e2e`, which calls
/// this function with `None`, builds against, and goes when that caller
/// drops the argument.
pub fn audit_engine(
    m: &ExplicitMealy,
    trace: &GoldenTrace,
    faults: &[Fault],
    tests: &TestSet,
    engine: Engine,
    policy: AuditPolicy,
    _unused: Option<std::convert::Infallible>,
) -> bool {
    if faults.is_empty() || engine == Engine::Naive {
        return true;
    }
    let Some(prepared) = PreparedEngine::new(engine, m, tests, Some(trace)) else {
        return false;
    };
    let mut rng = Prng::seed_from_u64(policy.seed);
    let sample: Vec<Fault> = rng
        .choose_multiple(faults, policy.sample.clamp(1, faults.len()))
        .into_iter()
        .copied()
        .collect();
    let expected: Vec<_> = sample.iter().map(|f| simulate_fault(m, f, tests)).collect();
    prepared.simulate(&sample, &mut EngineStats::default()) == expected
}

/// One rung down the explicit engines' degradation ladder,
/// `packed → differential → naive`. Symbolic jobs never reach it.
fn degrade(engine: Engine) -> Engine {
    match engine {
        Engine::Packed => Engine::Differential,
        _ => Engine::Naive,
    }
}

/// Executes a job. `tel` is the job's telemetry sink — the caller owns
/// trace rendering, exactly as the CLI's `--trace-out` does.
pub fn execute(spec: &JobSpec, tel: &Telemetry, ctx: &ExecCtx<'_>) -> Result<JobOutcome, JobError> {
    match &spec.kind {
        JobKind::Campaign(opts) => execute_campaign(&spec.model, opts, tel, ctx),
        JobKind::Lint {
            format,
            k,
            overrides,
        } => {
            report_format(format)?;
            let config = lint_config(overrides)?;
            execute_lint(&spec.model, format, &config, *k, tel)
        }
        JobKind::Tour { kind } => execute_tour(&spec.model, kind, tel),
        JobKind::Analyze {
            format,
            opts,
            overrides,
        } => {
            report_format(format)?;
            let config = lint_config(overrides)?;
            execute_analyze(&spec.model, format, &config, opts, tel)
        }
        JobKind::Close(opts) => execute_close(&spec.model, opts, tel),
    }
}

/// Campaign execution: the body of `simcov campaign`, plus the
/// server-side cache and degradation hooks. The report prints the engine
/// the job *actually ran with*, so a degraded job's output is
/// byte-identical to a single-shot CLI run requesting that engine.
fn execute_campaign(
    model: &ModelSource,
    opts: &CampaignOpts,
    tel: &Telemetry,
    ctx: &ExecCtx<'_>,
) -> Result<JobOutcome, JobError> {
    if opts.resume && opts.checkpoint.is_none() {
        return Err(JobError::usage("--resume requires --checkpoint <FILE>"));
    }
    if opts.engine == Engine::Symbolic {
        return execute_campaign_implicit(model, opts, tel);
    }
    let n = model.netlist()?;
    let m = enumerate(&n)?;
    let tour = generate_tour_traced(&m, TourKind::Postman, tel)
        .map_err(|e| JobError::runtime(format!("tour generation failed: {e}")))?;
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: opts.max_faults,
            seed: opts.seed,
            ..FaultSpace::default()
        },
    );
    let tests = TestSet::single(extend_cyclically(&tour.inputs, opts.k));
    tel.counter_add("campaign.faults_enumerated", faults.len() as u64);
    tel.gauge_set("campaign.test_vectors", tests.total_vectors() as u64);

    // Server-side extras, both invisible to the job's telemetry: fetch
    // the golden trace (cache or local build) once, audit the requested
    // engine on it, and descend the ladder until an engine passes.
    let mut engine = opts.engine;
    let mut degraded = 0u32;
    let needs_trace = engine != Engine::Naive && (ctx.audit.is_some() || ctx.cache.is_some());
    let (shared_trace, cache_hit) = if needs_trace {
        match ctx.cache {
            Some(cache) => {
                let (trace, hit) = cache.get_or_build(&m, &tests);
                (Some(trace), Some(hit))
            }
            None => (Some(Arc::new(GoldenTrace::build(&m, &tests))), None),
        }
    } else {
        (None, None)
    };
    if let (Some(policy), Some(trace)) = (ctx.audit, shared_trace.as_deref()) {
        while engine != Engine::Naive {
            let fail = match ctx.force_audit_fail {
                Some(force) => force(engine),
                None => !audit_engine(&m, trace, &faults, &tests, engine, policy, None),
            };
            if !fail {
                break;
            }
            engine = degrade(engine);
            degraded += 1;
        }
    }

    // Static collapsing runs the whole-model analysis up front; the
    // certificate binds exactly this (machine, fault list) pair. The
    // report's wall line counts the analysis.
    let analysis_started = Instant::now();
    let analysis = match opts.collapse {
        CollapseMode::Off => None,
        _ => Some(
            analyze_collapse(&m, &faults, &AnalyzeOptions::default())
                .map_err(|e| JobError::runtime(format!("collapse analysis failed: {e}")))?,
        ),
    };
    let analysis_wall = analysis_started.elapsed();
    // The supervisor clamps jobs(0) to serial, so the CLI's "0 = all
    // cores" convention is resolved here.
    let jobs = if opts.jobs == 0 {
        default_jobs()
    } else {
        opts.jobs
    };
    let mut campaign = ResilientCampaign::new(&m, &faults, &tests)
        .engine(engine)
        .jobs(jobs)
        .max_retries(opts.max_retries)
        .telemetry(tel.clone());
    // The naive engine ignores the trace, so a degraded job can keep it.
    if let Some(trace) = &shared_trace {
        campaign = campaign.golden_trace(Arc::clone(trace));
    }
    if let Some(a) = &analysis {
        campaign = campaign.collapse(&a.certificate, opts.collapse);
    }
    if let Some(ms) = opts.deadline_ms {
        campaign = campaign.deadline(Duration::from_millis(ms));
    }
    if let Some(steps) = opts.max_steps {
        campaign = campaign.max_steps(steps);
    }
    if let Some(path) = &opts.checkpoint {
        campaign = campaign.checkpoint(path).resume(opts.resume);
    }
    let run = campaign
        .run()
        .map_err(|e| JobError::runtime(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "model: {m:?}");
    let _ = writeln!(out, "tour: {tour} (extended by k={})", opts.k);
    let _ = writeln!(out, "engine: {engine}");
    let _ = writeln!(out, "campaign: {}", run.report);
    let _ = writeln!(out, "stats: {}", run.stats);
    if let Some(c) = &run.collapse {
        let _ = writeln!(
            out,
            "collapse: {} ({} classes, {} faults pruned, {} violations)",
            c.mode,
            c.classes,
            c.collapsed_faults,
            c.violations.len()
        );
        for v in c.violations.iter().take(8) {
            let _ = writeln!(out, "  violation: {v}");
        }
    }
    if run.is_complete {
        let _ = writeln!(out, "status: complete ({} shards)", run.total_shards);
    } else {
        let missing = run.skipped.len() + run.failures.len();
        let reason = match run.stopped {
            Some(r) => r.to_string(),
            None => "shards quarantined".to_string(),
        };
        let _ = writeln!(
            out,
            "status: partial ({reason}): {missing} of {} shards missing",
            run.total_shards
        );
        let _ = writeln!(out, "bounds: {}", run.bounds);
    }
    if run.restored_shards > 0 {
        let _ = writeln!(
            out,
            "restored: {} of {} shards from checkpoint",
            run.restored_shards, run.total_shards
        );
    }
    for note in &run.journal_notes {
        let _ = writeln!(out, "note: {note}");
    }
    for f in run.failures.iter().take(8) {
        let _ = writeln!(out, "failure: {f}");
    }
    let _ = writeln!(
        out,
        "wall: {:.1} ms on {} worker thread{}",
        (analysis_wall + run.wall).as_secs_f64() * 1e3,
        run.jobs,
        if run.jobs == 1 { "" } else { "s" }
    );
    for esc in run.report.escapes().take(8) {
        let _ = writeln!(out, "  escape: {}", esc.fault);
    }
    let audit_failed = run
        .collapse
        .as_ref()
        .is_some_and(|c| !c.violations.is_empty());
    let status = if audit_failed {
        ExitStatus::Error
    } else if run.is_complete {
        ExitStatus::Ok
    } else {
        ExitStatus::Partial
    };
    Ok(JobOutcome {
        text: out,
        status,
        engine_used: Some(engine),
        degraded,
        cache_hit,
    })
}

/// The implicit symbolic campaign, `--engine symbolic` at every model
/// width: the single-bit-flip fault families analysed over BDDs instead
/// of an explicit fault list. Full-width DLX models carry the
/// abstract-ISA valid-input constraint; anything else runs unconstrained.
///
/// It reads only `k` and `jobs`. Options that bound or checkpoint an
/// explicit run are usage errors naming the option (CLI flag and wire
/// field), raised before the model is read.
fn execute_campaign_implicit(
    model: &ModelSource,
    opts: &CampaignOpts,
    tel: &Telemetry,
) -> Result<JobOutcome, JobError> {
    let rejected = [
        (
            opts.deadline_ms.is_some(),
            "--deadline (wire field `deadline_ms`)",
        ),
        (
            opts.max_steps.is_some(),
            "--max-steps (wire field `max_steps`)",
        ),
        (
            opts.checkpoint.is_some() || opts.resume,
            "--checkpoint/--resume",
        ),
        (
            opts.collapse != CollapseMode::Off,
            "--collapse on|verify (wire field `collapse`)",
        ),
    ];
    if let Some((_, option)) = rejected.iter().find(|(set, _)| *set) {
        return Err(JobError::usage(format!(
            "{option} does not apply to --engine symbolic: the implicit campaign \
             reads only --k and --jobs"
        )));
    }
    let n = &model.netlist()?;
    let started = Instant::now();
    let constrained = matches!(model.dlx_name(), Some("fig3b") | Some("final"));
    let jobs = if opts.jobs == 0 {
        default_jobs()
    } else {
        opts.jobs
    };
    let cfg = ImplicitConfig {
        k: opts.k.max(1),
        jobs,
    };
    let report = run_implicit_campaign(
        n,
        |pf| {
            if constrained {
                simcov_dlx::testmodel::pair_valid_inputs_bdd(pf)
            } else {
                pf.mgr().constant(true)
            }
        },
        &cfg,
    );
    tel.counter_add(
        "campaign.faults_enumerated",
        u64::try_from(report.output_faults.saturating_add(report.transfer_faults))
            .unwrap_or(u64::MAX),
    );
    tel.counter_add(simcov_obs::names::BDD_UNIQUE_NODES, report.sym.unique_nodes);
    tel.counter_add(
        simcov_obs::names::BDD_ITE_CACHE_HITS,
        report.sym.ite_cache_hits,
    );
    tel.counter_add(
        simcov_obs::names::BDD_ITE_CACHE_MISSES,
        report.sym.ite_cache_misses,
    );
    tel.counter_add(
        simcov_obs::names::BDD_GC_COLLECTIONS,
        report.sym.gc_collections,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model: {} ({} inputs, {} latches, {} outputs; implicit)",
        match model {
            ModelSource::Blif { name, .. } => name.as_str(),
            ModelSource::Dlx(which) => which.as_str(),
        },
        n.num_inputs(),
        report.num_latches,
        report.num_outputs
    );
    let _ = writeln!(
        out,
        "engine: symbolic (implicit; {})",
        if constrained {
            "abstract-ISA valid inputs"
        } else {
            "all inputs valid"
        }
    );
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "status: {}",
        if report.fixed_point {
            "complete (fixed point)"
        } else {
            "complete (horizon-bounded)"
        }
    );
    let _ = writeln!(
        out,
        "wall: {:.1} ms on {} worker thread{}",
        started.elapsed().as_secs_f64() * 1e3,
        jobs,
        if jobs == 1 { "" } else { "s" }
    );
    Ok(JobOutcome {
        text: out,
        status: ExitStatus::Ok,
        engine_used: Some(Engine::Symbolic),
        degraded: 0,
        cache_hit: None,
    })
}

/// Closure execution: the body of `simcov close` — the adaptive
/// feedback loop driven to coverage closure.
///
/// The `json` report is a single line with no wall-clock field, so it is
/// byte-identical across `--jobs` values and machines — that is what the
/// CI closure gate diffs. The `text` report ends with a `wall:` line and
/// is for humans.
fn execute_close(
    model: &ModelSource,
    opts: &CloseOpts,
    tel: &Telemetry,
) -> Result<JobOutcome, JobError> {
    report_format(&opts.format)?;
    // Closure rounds are explicit campaigns over an enumerated machine.
    if opts.engine == Engine::Symbolic {
        return Err(JobError::usage(
            "close does not support the symbolic engine (naive|differential|packed)",
        ));
    }
    let n = model.netlist()?;
    let m = enumerate(&n)?;
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: opts.max_faults,
            seed: opts.seed,
            ..FaultSpace::default()
        },
    );
    tel.counter_add("campaign.faults_enumerated", faults.len() as u64);
    let config = ClosureConfig {
        max_rounds: opts.rounds,
        max_steps: opts.budget,
        seed: opts.seed,
        engine: opts.engine,
        jobs: opts.jobs,
    };
    let started = Instant::now();
    let run = ClosureDriver::new(&m, &faults, config)
        .telemetry(tel.clone())
        .try_run()
        .map_err(|e| JobError::runtime(e.to_string()))?;
    let wall = started.elapsed();

    let mut out = String::new();
    if opts.format == "json" {
        let _ = write!(
            out,
            "{{\"schema\":\"simcov-close\",\"version\":1,\
             \"fingerprint\":\"{:#018x}\",\"engine\":\"{}\",\"seed\":{},\
             \"faults\":{},\"classes\":{},\"rounds\":[",
            machine_fingerprint(&m),
            opts.engine,
            opts.seed,
            faults.len(),
            // Rounds run over every fault: one class per fault.
            faults.len(),
        );
        for (idx, r) in run.rounds.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"round\":{},\"tests_added\":{},\"steps_added\":{},\
                 \"new_detections\":{},\"detected_total\":{},\"survivors\":{},\
                 \"undetectable\":{},\"transitions_covered\":{},\
                 \"transitions_total\":{},\"cold_cells\":{}}}",
                if idx == 0 { "" } else { "," },
                r.round,
                r.tests_added,
                r.steps_added,
                r.new_detections,
                r.detected_total,
                r.survivors,
                r.undetectable,
                r.transitions_covered,
                r.transitions_total,
                r.cold_cells,
            );
        }
        let _ = writeln!(
            out,
            "],\"closed\":{},\"undetectable\":{},\"total_steps\":{},\
             \"stats\":{{\"faults_simulated\":{},\"detected\":{},\"excited\":{},\
             \"masked\":{},\"escapes\":{}}}}}",
            run.closed,
            run.undetectable,
            run.total_steps,
            run.stats.faults_simulated,
            run.stats.detected,
            run.stats.excited,
            run.stats.masked,
            run.stats.escapes,
        );
    } else {
        let _ = writeln!(out, "model: {m:?}");
        let _ = writeln!(out, "engine: {}", opts.engine);
        let _ = writeln!(out, "faults: {}", faults.len());
        for r in &run.rounds {
            let _ = writeln!(
                out,
                "round {}: +{} tests (+{} steps), detected {} (+{}), survivors {}, \
                 undetectable {}, coverage {}/{}",
                r.round,
                r.tests_added,
                r.steps_added,
                r.detected_total,
                r.new_detections,
                r.survivors,
                r.undetectable,
                r.transitions_covered,
                r.transitions_total,
            );
        }
        if run.closed {
            let _ = writeln!(
                out,
                "closure: reached after {} round{}{}",
                run.rounds.len(),
                if run.rounds.len() == 1 { "" } else { "s" },
                if run.undetectable > 0 {
                    format!(
                        " ({} provably undetectable faults excluded)",
                        run.undetectable
                    )
                } else {
                    String::new()
                }
            );
        } else {
            // With an empty round budget nothing was ever targeted, so
            // every undetected fault is a survivor.
            let survivors = run.rounds.last().map_or(
                run.stats
                    .faults_simulated
                    .saturating_sub(run.stats.detected),
                |r| r.survivors,
            );
            let _ = writeln!(
                out,
                "closure: NOT reached after {} rounds ({survivors} survivors)",
                run.rounds.len()
            );
        }
        let _ = writeln!(out, "stats: {}", run.stats);
        let _ = writeln!(out, "wall: {:.1} ms", wall.as_secs_f64() * 1e3);
    }
    Ok(JobOutcome {
        text: out,
        status: if run.closed {
            ExitStatus::Ok
        } else {
            ExitStatus::Partial
        },
        engine_used: Some(opts.engine),
        degraded: 0,
        cache_hit: None,
    })
}

/// Tour execution: the body of `simcov tour`.
fn execute_tour(model: &ModelSource, kind: &str, tel: &Telemetry) -> Result<JobOutcome, JobError> {
    let kind: TourKind = kind.parse().map_err(JobError::usage)?;
    let n = model.netlist()?;
    let m = enumerate(&n)?;
    let tour = generate_tour_traced(&m, kind, tel)
        .map_err(|e| JobError::runtime(format!("tour generation failed: {e}")))?;
    let report = coverage(&m, &tour.inputs);
    let mut out = String::new();
    let _ = writeln!(out, "# {} tour: {tour}; coverage: {report}", kind.name());
    for &i in &tour.inputs {
        let _ = writeln!(out, "{}", m.input_label(i));
    }
    Ok(JobOutcome {
        text: out,
        status: ExitStatus::Ok,
        engine_used: None,
        degraded: 0,
        cache_hit: None,
    })
}

fn lint_outcome(d: &simcov_lint::Diagnostics, format: &str) -> JobOutcome {
    let text = match format {
        "json" => {
            let mut s = d.render_json();
            s.push('\n');
            s
        }
        _ => d.render_text(),
    };
    JobOutcome {
        text,
        status: if d.has_denials() {
            ExitStatus::Error
        } else {
            ExitStatus::Ok
        },
        engine_used: None,
        degraded: 0,
        cache_hit: None,
    }
}

/// Lint execution: the body of `simcov lint`. A BLIF parse failure is
/// itself reported as a lint (`SC028`–`SC030`) rather than a hard error,
/// so `--format json` output stays machine-readable for malformed
/// inputs.
fn execute_lint(
    model: &ModelSource,
    format: &str,
    config: &simcov_lint::LintConfig,
    k: usize,
    tel: &Telemetry,
) -> Result<JobOutcome, JobError> {
    use simcov_lint::{
        lint_blif_error, lint_model_traced, lint_netlist_traced, Diagnostics, ModelTarget,
    };
    let n = match model {
        ModelSource::Blif { name: _, text } => match simcov_netlist::from_blif(text) {
            Ok(n) => n,
            Err(e) => {
                let mut d = Diagnostics::new(config.clone());
                lint_blif_error(&e, &mut d);
                d.sort_by_severity();
                return Ok(lint_outcome(&d, format));
            }
        },
        ModelSource::Dlx(which) => dlx_netlist(which)?,
    };
    let dlx_name = model.dlx_name();
    let mut diags = lint_netlist_traced(&n, config, tel);
    if n.num_inputs() <= 16 {
        let opts = match dlx_name {
            // The DLX alphabet carries input don't-cares: exhaustive
            // vectors would include invalid instructions the methodology
            // never expands, wrongly failing the forall-k lint.
            Some("reduced") | Some("reduced-obs") => {
                simcov_dlx::testmodel::reduced_valid_inputs(&n)
            }
            _ => EnumerateOptions::exhaustive(&n),
        };
        let m = enumerate_netlist(&n, &opts)
            .map_err(|e| JobError::runtime(format!("enumeration failed: {e}")))?;
        diags.set_fingerprint(machine_fingerprint(&m));
        let mut target = ModelTarget::new(&m);
        target.k = k;
        // Output labels are latch-order-reversed bit strings; map the
        // `stall` port through that convention to the stalled-output
        // predicate of Requirement 2.
        if let Some(j) = n.outputs().iter().position(|(name, _)| name == "stall") {
            target.stalled = Some(
                (0..m.num_outputs())
                    .map(|o| {
                        let label = m.output_label(simcov_fsm::OutputSym(o as u32)).as_bytes();
                        label[label.len() - 1 - j] == b'1'
                    })
                    .collect(),
            );
        }
        diags.merge(lint_model_traced(&target, config, tel));
    } else {
        // Too wide to enumerate: bind the report to the normalized
        // source instead of the machine fingerprint.
        diags.set_fingerprint(Fnv64::hash(simcov_netlist::to_blif(&n, "model").as_bytes()));
    }
    diags.sort_by_severity();
    Ok(lint_outcome(&diags, format))
}

/// Analyze execution: the body of `simcov analyze`. The text report is
/// the analysis summary above the `SC05x` lint report.
fn execute_analyze(
    model: &ModelSource,
    format: &str,
    config: &simcov_lint::LintConfig,
    opts: &AnalyzeOpts,
    tel: &Telemetry,
) -> Result<JobOutcome, JobError> {
    let n = model.netlist()?;
    let m = enumerate(&n)?;
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: opts.max_faults,
            seed: opts.seed,
            ..FaultSpace::default()
        },
    );
    let analysis = analyze_collapse(
        &m,
        &faults,
        &AnalyzeOptions {
            max_nodes_per_cell: opts.max_nodes,
        },
    )
    .map_err(|e| JobError::runtime(format!("collapse analysis failed: {e}")))?;
    let stats = &analysis.stats;
    tel.counter_add("analyze.faults", stats.faults as u64);
    tel.counter_add("analyze.classes", stats.classes as u64);
    tel.counter_add("analyze.collapsed_faults", stats.collapsed_faults as u64);
    let mut diags = lint_analysis(
        &AnalyzeTarget {
            machine: &m,
            faults: &faults,
            analysis: &analysis,
        },
        config,
    );
    diags.set_fingerprint(machine_fingerprint(&m));
    let mut outcome = lint_outcome(&diags, format);
    if format == "json" {
        return Ok(outcome);
    }
    let mut header = String::new();
    let _ = writeln!(header, "model: {m:?}");
    let _ = writeln!(header, "fingerprint: {:#018x}", machine_fingerprint(&m));
    let _ = writeln!(
        header,
        "faults: {} in {} classes ({} collapsed away)",
        stats.faults, stats.classes, stats.collapsed_faults
    );
    let _ = writeln!(
        header,
        "classes: {} output, {} transfer, {} ineffective, {} singleton{}",
        stats.output_classes,
        stats.transfer_classes,
        stats.ineffective_classes,
        stats.singleton_classes,
        if stats.unreachable_faults > 0 {
            format!(" (+1 unreachable, {} faults)", stats.unreachable_faults)
        } else {
            String::new()
        }
    );
    let _ = writeln!(header, "dominance: {} edge(s)", stats.dominance_edges);
    let _ = writeln!(
        header,
        "certificate: {:#018x}",
        analysis.certificate.fingerprint()
    );
    outcome.text.insert_str(0, &header);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_spec(seed: u64, engine: Engine) -> JobSpec {
        JobSpec {
            id: format!("c{seed}"),
            model: ModelSource::Dlx("reduced-obs".to_string()),
            kind: JobKind::Campaign(CampaignOpts {
                max_faults: 120,
                seed,
                jobs: 1,
                engine,
                ..CampaignOpts::default()
            }),
        }
    }

    #[test]
    fn execute_is_deterministic_modulo_wall_time() {
        let strip_wall = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let spec = campaign_spec(3, Engine::Packed);
        let a = execute(&spec, &Telemetry::new(), &ExecCtx::default()).unwrap();
        let b = execute(&spec, &Telemetry::new(), &ExecCtx::default()).unwrap();
        assert_eq!(strip_wall(&a.text), strip_wall(&b.text));
        assert_eq!(a.status, ExitStatus::Ok);
        assert_eq!(a.engine_used, Some(Engine::Packed));
        assert_eq!(a.degraded, 0);
    }

    #[test]
    fn cache_and_audit_leave_output_and_trace_identical() {
        let spec = campaign_spec(7, Engine::Differential);
        let plain_tel = Telemetry::new();
        let plain = execute(&spec, &plain_tel, &ExecCtx::default()).unwrap();

        let cache = TraceCache::new(4);
        let ctx = ExecCtx {
            cache: Some(&cache),
            audit: Some(AuditPolicy::default()),
            force_audit_fail: None,
        };
        let served_tel = Telemetry::new();
        let served = execute(&spec, &served_tel, &ctx).unwrap();
        let strip_wall = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_wall(&plain.text), strip_wall(&served.text));
        assert_eq!(
            plain_tel.snapshot().to_jsonl(),
            served_tel.snapshot().to_jsonl(),
            "cache and a passing audit must be invisible to the job trace"
        );
        assert_eq!(served.cache_hit, Some(false), "first request builds");
        let again = execute(&spec, &Telemetry::new(), &ctx).unwrap();
        assert_eq!(again.cache_hit, Some(true), "second request hits");
    }

    #[test]
    fn forced_audit_failure_descends_the_ladder() {
        let spec = campaign_spec(1, Engine::Packed);
        let fail_all = |_: Engine| true;
        let ctx = ExecCtx {
            cache: None,
            audit: Some(AuditPolicy::default()),
            force_audit_fail: Some(&fail_all),
        };
        let out = execute(&spec, &Telemetry::new(), &ctx).unwrap();
        assert_eq!(out.engine_used, Some(Engine::Naive));
        assert_eq!(out.degraded, 2, "packed → differential → naive");
        assert!(out.text.contains("engine: naive"), "{}", out.text);

        // The degraded job's report is byte-identical to a single-shot
        // run that *requested* the final engine.
        let naive_spec = campaign_spec(1, Engine::Naive);
        let plain = execute(&naive_spec, &Telemetry::new(), &ExecCtx::default()).unwrap();
        let strip_wall = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_wall(&out.text), strip_wall(&plain.text));
    }

    #[test]
    fn honest_audit_passes_on_real_engines() {
        let ctx = ExecCtx {
            cache: None,
            audit: Some(AuditPolicy::default()),
            force_audit_fail: None,
        };
        // Symbolic jobs run the implicit campaign and skip the audit.
        for engine in [Engine::Differential, Engine::Packed, Engine::Symbolic] {
            let out = execute(&campaign_spec(5, engine), &Telemetry::new(), &ctx).unwrap();
            assert_eq!(out.engine_used, Some(engine));
            assert_eq!(out.degraded, 0, "{engine}");
        }
    }

    fn symbolic_spec(model: &str, opts: CampaignOpts) -> JobSpec {
        JobSpec {
            id: format!("sym-{model}"),
            model: ModelSource::Dlx(model.to_string()),
            kind: JobKind::Campaign(CampaignOpts {
                engine: Engine::Symbolic,
                ..opts
            }),
        }
    }

    #[test]
    fn symbolic_runs_the_implicit_campaign_at_every_width() {
        // `reduced` has 5 inputs, so it enumerates; symbolic still runs
        // the implicit campaign over every input vector.
        let strip_wall = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let run = |jobs| {
            let opts = CampaignOpts {
                k: 2,
                jobs,
                ..CampaignOpts::default()
            };
            execute(
                &symbolic_spec("reduced", opts),
                &Telemetry::new(),
                &ExecCtx::default(),
            )
            .unwrap()
        };
        let one = run(1);
        assert_eq!(one.status, ExitStatus::Ok, "{}", one.text);
        assert_eq!(one.engine_used, Some(Engine::Symbolic));
        for line in [
            "engine: symbolic (implicit; all inputs valid)",
            "  reachable states 18 / cells 576 / valid inputs 32",
            "  transfer flips 1708 detected of 4608 (2900 escapes)",
        ] {
            assert!(one.text.contains(line), "{line}\n{}", one.text);
        }
        for jobs in [2, 8] {
            assert_eq!(strip_wall(&run(jobs).text), strip_wall(&one.text), "{jobs}");
        }
    }

    #[test]
    fn symbolic_rejects_options_the_implicit_campaign_ignores() {
        let journal = std::env::temp_dir().join(format!(
            "simcov_jobs_symbolic_{}.journal",
            std::process::id()
        ));
        let path = journal.to_string_lossy().into_owned();
        let cases = [
            (
                CampaignOpts {
                    deadline_ms: Some(1),
                    ..CampaignOpts::default()
                },
                "deadline_ms",
            ),
            (
                CampaignOpts {
                    max_steps: Some(10),
                    ..CampaignOpts::default()
                },
                "max_steps",
            ),
            (
                CampaignOpts {
                    checkpoint: Some(path.clone()),
                    ..CampaignOpts::default()
                },
                "--checkpoint",
            ),
            (
                CampaignOpts {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..CampaignOpts::default()
                },
                "--resume",
            ),
            (
                CampaignOpts {
                    collapse: CollapseMode::On,
                    ..CampaignOpts::default()
                },
                "--collapse",
            ),
            (
                CampaignOpts {
                    collapse: CollapseMode::Verify,
                    ..CampaignOpts::default()
                },
                "collapse",
            ),
        ];
        for (opts, option) in cases {
            let e = execute(
                &symbolic_spec("final", opts),
                &Telemetry::new(),
                &ExecCtx::default(),
            )
            .unwrap_err();
            assert_eq!(e.status, ExitStatus::Usage, "{option}: {e}");
            assert!(e.message.contains(option), "{option}: {e}");
        }
        assert!(!journal.exists(), "a refused job writes no journal");
    }

    fn close_spec(jobs: usize, engine: Engine, format: &str) -> JobSpec {
        JobSpec {
            id: format!("close{jobs}-{engine}"),
            model: ModelSource::Dlx("reduced-obs".to_string()),
            kind: JobKind::Close(CloseOpts {
                max_faults: 120,
                seed: 3,
                jobs,
                engine,
                format: format.to_string(),
                ..CloseOpts::default()
            }),
        }
    }

    #[test]
    fn close_reaches_closure_and_is_identical_across_jobs() {
        let tel1 = Telemetry::new();
        let a = execute(
            &close_spec(1, Engine::Differential, "json"),
            &tel1,
            &ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(a.status, ExitStatus::Ok, "{}", a.text);
        assert!(a.text.contains("\"closed\":true"), "{}", a.text);
        for jobs in [2, 8] {
            let tel = Telemetry::new();
            let b = execute(
                &close_spec(jobs, Engine::Differential, "json"),
                &tel,
                &ExecCtx::default(),
            )
            .unwrap();
            assert_eq!(a.text, b.text, "json report must be byte-identical");
            assert_eq!(
                tel1.snapshot().to_jsonl(),
                tel.snapshot().to_jsonl(),
                "trace must be byte-identical at jobs={jobs}"
            );
        }
    }

    #[test]
    fn close_engines_agree_and_text_reports_closure() {
        let base = execute(
            &close_spec(2, Engine::Naive, "json"),
            &Telemetry::new(),
            &ExecCtx::default(),
        )
        .unwrap();
        for engine in [Engine::Differential, Engine::Packed] {
            let other = execute(
                &close_spec(2, engine, "json"),
                &Telemetry::new(),
                &ExecCtx::default(),
            )
            .unwrap();
            // Engine name is part of the report header; everything after
            // it (rounds, stats) must agree.
            let strip = |s: &str| s.split("\"seed\"").nth(1).unwrap().to_string();
            assert_eq!(strip(&base.text), strip(&other.text), "{engine}");
        }
        let text = execute(
            &close_spec(2, Engine::Differential, "text"),
            &Telemetry::new(),
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(text.text.contains("closure: reached"), "{}", text.text);
        assert!(text.text.contains("round 0:"), "{}", text.text);
    }

    #[test]
    fn close_rejects_bad_format() {
        let spec = JobSpec {
            id: "close-bad".to_string(),
            model: ModelSource::Dlx("reduced-obs".to_string()),
            kind: JobKind::Close(CloseOpts {
                format: "yaml".to_string(),
                ..CloseOpts::default()
            }),
        };
        let e = execute(&spec, &Telemetry::new(), &ExecCtx::default()).unwrap_err();
        assert_eq!(e.status, ExitStatus::Usage);
    }

    #[test]
    fn spec_fingerprints_distinguish_jobs() {
        let a = campaign_spec(1, Engine::Packed);
        let b = campaign_spec(2, Engine::Packed);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            campaign_spec(1, Engine::Packed).fingerprint()
        );
    }

    #[test]
    fn usage_errors_map_to_usage_status() {
        let spec = JobSpec {
            id: "x".into(),
            model: ModelSource::Dlx("nope".into()),
            kind: JobKind::Tour {
                kind: "postman".into(),
            },
        };
        let e = execute(&spec, &Telemetry::new(), &ExecCtx::default()).unwrap_err();
        assert_eq!(e.status, ExitStatus::Usage);
    }
}
