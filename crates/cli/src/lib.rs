//! Library half of the `simcov` command-line tool: every subcommand is a
//! function from parsed arguments to a printable report, so the whole
//! surface is unit-testable without spawning processes.
//!
//! ```text
//! simcov stats <model.blif>                 netlist + symbolic statistics
//! simcov tour <model.blif> [--greedy|--state]   generate a tour
//! simcov distinguish <model.blif> --k <K>   symbolic forall-k analysis
//! simcov campaign <model.blif> [--max-faults N] [--seed S]
//! simcov dot <model.blif>                   reachable FSM as Graphviz
//! simcov normalize <model.blif>             parse + re-emit BLIF
//! simcov dlx <fig3a|fig3b|final|reduced>    export the case-study models
//! simcov lint <model.blif>|--dlx <name>     coded static diagnostics
//! simcov analyze <model.blif>|--dlx <name>  static fault collapsing
//! simcov close <model.blif>|--dlx <name>    coverage-directed closure
//! simcov serve [--addr H:P] [--workers N]   multi-tenant job server
//! simcov submit <addr> <jobs.jsonl>         submit jobs to a server
//! ```
//!
//! Models are sequential BLIF files (the SIS interchange format; see
//! [`simcov_netlist::blif`]). Explicit-machine commands (`tour`,
//! `campaign`, `dot`) enumerate the model over its full input alphabet
//! and are guarded to 16 primary inputs; `stats`, `distinguish` and
//! `campaign --engine symbolic` (the implicit campaign) work
//! symbolically and scale much further.
//!
//! The job-shaped subcommands (`campaign`, `tour`, `lint`, `analyze`,
//! `close`) delegate to [`simcov_serve::jobs`], the execution layer shared with
//! `simcov serve` — a served job and its single-shot subcommand run the
//! same function, so their reports are byte-identical by construction.
//! Exit codes follow the uniform [`ExitStatus`] contract: 0 ok, 1
//! error, 2 usage, 3 valid-but-partial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simcov_core::Engine;
use simcov_fsm::{PairFsm, SymbolicFsm};
use simcov_netlist::Netlist;
use simcov_obs::Telemetry;
use simcov_serve::jobs::{self, JobKind, JobSpec, ModelSource};
use simcov_serve::{Client, ExecCtx, JobError, Server, ServerConfig};
use simcov_tour::TourKind;
use std::fmt::Write as _;

pub use simcov_serve::jobs::{AnalyzeOpts, CampaignOpts, CloseOpts, SeverityOverrides};
pub use simcov_serve::ExitStatus;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: ExitStatus::Usage.code(),
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: ExitStatus::Error.code(),
        }
    }
}

impl From<JobError> for CliError {
    fn from(e: JobError) -> Self {
        CliError {
            message: e.message,
            code: e.status.code(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// A successful command's printable report plus its process exit code.
///
/// Most commands exit 0 on success, but `lint` follows the compiler
/// convention: the report goes to stdout (so `--format json` stays
/// machine-parseable) while denials are signalled through a non-zero
/// exit code.
#[derive(Debug)]
pub struct CmdOutput {
    /// Text to print on stdout.
    pub text: String,
    /// Process exit code (0 unless the command signals findings).
    pub code: i32,
    /// End-of-run metrics table (`--metrics`), printed on **stderr** so
    /// stdout stays machine-parseable.
    pub metrics: Option<String>,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        CmdOutput {
            text,
            code: 0,
            metrics: None,
        }
    }
}

/// Observability options shared by `campaign`, `tour` and `lint`:
/// `--trace-out <FILE>` (deterministic JSONL trace) and `--metrics`
/// (human table on stderr).
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// Write the deterministic JSONL trace here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Render the metrics table to stderr (`--metrics`).
    pub metrics: bool,
}

impl ObsOpts {
    fn parse(args: &Args) -> ObsOpts {
        ObsOpts {
            trace_out: args.value("--trace-out").map(str::to_string),
            metrics: args.has("--metrics"),
        }
    }

    /// Finalizes a command's telemetry: writes the JSONL trace and/or
    /// attaches the metrics table, per the flags.
    fn finish(&self, telemetry: &Telemetry, out: &mut CmdOutput) -> Result<(), CliError> {
        if self.trace_out.is_none() && !self.metrics {
            return Ok(());
        }
        let snap = telemetry.snapshot();
        if let Some(path) = &self.trace_out {
            snap.write_jsonl_file(path)
                .map_err(|e| CliError::runtime(format!("cannot write trace {path}: {e}")))?;
        }
        if self.metrics {
            out.metrics = Some(snap.render_table());
        }
        Ok(())
    }
}

/// The usage text.
pub const USAGE: &str = "\
simcov — validation methodology using simulation coverage (DAC'97)

USAGE:
  simcov stats <model.blif>
  simcov tour <model.blif> [--greedy | --state] [--trace-out <FILE>] [--metrics]
  simcov distinguish <model.blif> --k <K> [--all-pairs]
  simcov campaign <model.blif> [--max-faults <N>] [--seed <S>] [--k <K>] [--jobs <J>]
                  [--engine naive|differential|packed|symbolic]
                  [--collapse off|on|verify]
                  [--deadline <MS>] [--max-steps <N>] [--max-retries <R>]
                  [--checkpoint <FILE>] [--resume]
                  [--trace-out <FILE>] [--metrics]
  simcov campaign --dlx <name> [same options]
  simcov dot <model.blif>
  simcov normalize <model.blif>
  simcov dlx <fig3a | fig3b | final | reduced | reduced-obs>
  simcov lint <model.blif> [--format text|json] [--deny C]... [--warn C]... [--allow C]... [--k <K>]
              [--trace-out <FILE>] [--metrics]
  simcov lint --dlx <name> [same options]
  simcov analyze <model.blif> [--max-faults <N>] [--seed <S>] [--max-nodes <N>]
                 [--format text|json] [--deny C]... [--warn C]... [--allow C]...
                 [--trace-out <FILE>] [--metrics]
  simcov analyze --dlx <name> [same options]
  simcov close <model.blif> [--max-faults <N>] [--seed <S>] [--rounds <R>]
               [--budget <STEPS>] [--jobs <J>]
               [--engine naive|differential|packed]
               [--format text|json] [--trace-out <FILE>] [--metrics]
  simcov close --dlx <name> [same options]
  simcov serve [--addr <HOST:PORT>] [--workers <N>] [--queue <N>] [--cache <N>]
               [--max-retries <R>] [--seed <S>] [--audit-sample <N>]
               [--journal <FILE>] [--resume] [--trace-out <FILE>]
  simcov submit <addr> <jobs.jsonl> [--connections <N>] [--dump-dir <DIR>]
                [--shutdown]

OPTIONS:
  --jobs <J>    worker threads for the fault campaign (0 or omitted =
                all available cores); results are identical for every J
  --engine <E>  fault-simulation engine: differential (default; shares
                the memoized golden trace and replays only divergent
                suffixes), packed (the differential replays batched 64
                faults per machine word, lane-parallel) or naive
                (clone-and-replay oracle); their reports are bit-
                identical. symbolic runs the implicit campaign over BDDs
                at every model width: single-bit-flip fault families,
                transfer flips judged by k-step distinguishability
                (Theorem 1), every input valid except under --dlx
                fig3b|final (the abstract-ISA constraint); its report
                is not the explicit engines' report. It reads only --k and --jobs: it
                ignores --max-faults, --seed and --max-retries, and
                refuses --deadline, --max-steps, --checkpoint, --resume
                and --collapse on|verify
  --collapse <M>
                campaign: static fault collapsing: off (default)
                simulates every fault; on simulates one representative
                per equivalence class from the collapse certificate and
                expands — the report and stats are bit-identical to off,
                and the wall line includes the analysis; verify
                simulates everything and audits the certificate, failing
                the run on any divergence
  --max-nodes <N>
                analyze: per-cell node budget for the transfer-fault
                bisimulation (default 65536); cells that exceed it keep
                their faults as singletons and warn SC050
  --deadline <MS>
                wall-clock budget in milliseconds; the campaign stops
                cooperatively at the next shard boundary when it expires.
                0 uniformly means expire-immediately: nothing is
                simulated, every unrestored shard reports as skipped
                (with --resume the journal is still restored for free,
                so `--deadline 0 --resume` audits a checkpoint)
  --max-steps <N>
                total simulation-step budget (one step per test vector
                per fault); deterministic truncation, unlike --deadline
  --rounds <R>  close: feedback-round budget (default 8); the loop also
                stops at closure or after 3 rounds without progress
  --budget <STEPS>
                close: soft test-step budget across all rounds; the
                round that crosses it is the last
  --max-retries <R>
                attempts per panicking shard before it is quarantined
                (default 2)
  --checkpoint <FILE>
                journal completed shards to FILE as the campaign runs
  --resume      restore journaled shards from --checkpoint FILE and
                simulate only the rest; the merged report is byte-
                identical to an uninterrupted run
  --trace-out <FILE>
                write a deterministic JSONL telemetry trace (schema
                `simcov-trace` v1, FNV-64 fingerprint footer); byte-
                identical across --jobs for the same work
  --metrics     print an end-of-run metrics table (spans, counters,
                gauges) on stderr; stdout stays machine-parseable
  --deny/--warn/--allow <C>
                override the severity of lint code C (e.g. SC001 or
                unreachable-state); repeatable, later flags win
  --format <F>  lint report format: text (default) or json
  --addr <A>    serve: listen address (default 127.0.0.1:0; the chosen
                port is printed as `listening HOST:PORT` on startup)
  --queue <N>   serve: admission-queue capacity; a full queue rejects
                with a retry-after hint instead of growing (default 256)
  --cache <N>   serve: golden-trace cache capacity in traces, LRU
                evicted (default 8)
  --audit-sample <N>
                serve: faults sampled per engine-equivalence audit; an
                engine that disagrees with the naive oracle on the
                sample is degraded packed → differential → naive
                (0 disables auditing; default 8)
  --journal <FILE>
                serve: crash-safe server journal; admitted jobs are
                fsynced before they are acknowledged
  --resume      serve: recover admitted-but-unfinished jobs from
                --journal FILE and re-run them before accepting new work
  --connections <N>
                submit: client connections to spread the jobs over
                (default 1); results are printed in file order whatever
                the interleaving
  --dump-dir <DIR>
                submit: also write each result to DIR/<id>.out with its
                exit status in DIR/<id>.exit
  --shutdown    submit: ask the server to drain and exit afterwards

Every subcommand shares one exit-code contract: 0 complete, 1 runtime
error (including lint/analyze denials and failed collapse audits), 2
usage error, 3 valid-but-partial. Lint and analyze exit 0 when no
deny-level diagnostics fire, 1 otherwise; the report always goes to
stdout, and the JSON form carries the model's FNV-64 fingerprint so
reports are diffable across runs and cacheable by model identity.
Campaign exits 0 when every fault was simulated and 3 on a partial
(truncated or shard-quarantined) report, so scripts can tell a
valid-but-incomplete result from an error; --collapse verify
violations exit 1. Close exits 0 when it reaches closure (every
detectable fault detected) and 3 when a round/step budget or
stagnation stops it first; its round schedule and report are
byte-identical for every --jobs value and engine. Submit exits with
the worst status over its jobs.
";

fn load_model(path: &str) -> Result<Netlist, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    simcov_netlist::from_blif(&text)
        .map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))
}

/// Reads a BLIF file into the [`ModelSource`] the job layer consumes;
/// parse errors surface later, labelled with the path.
fn load_model_source(path: &str) -> Result<ModelSource, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    Ok(ModelSource::Blif {
        name: path.to_string(),
        text,
    })
}

/// Runs one job through the shared execution layer under the CLI
/// context (no cache, no audit) — exactly what `simcov serve` runs for
/// the same spec, which is what keeps the two byte-identical.
fn execute_job(model: ModelSource, kind: JobKind, obs: &ObsOpts) -> Result<CmdOutput, CliError> {
    let tel = Telemetry::new();
    let spec = JobSpec {
        id: "cli".to_string(),
        model,
        kind,
    };
    let outcome = jobs::execute(&spec, &tel, &ExecCtx::default())?;
    let mut out = CmdOutput {
        text: outcome.text,
        code: outcome.status.code(),
        metrics: None,
    };
    obs.finish(&tel, &mut out)?;
    Ok(out)
}

/// `simcov stats`: interface + symbolic reachability statistics.
pub fn cmd_stats(path: &str) -> Result<String, CliError> {
    let n = load_model(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "model: {}", n.stats());
    for m in n.module_names() {
        if !m.is_empty() {
            let _ = writeln!(
                out,
                "  module {:<12} {:>4} latches",
                m,
                n.module_latches(&m).len()
            );
        }
    }
    let mut fsm = SymbolicFsm::from_netlist(&n);
    let r = fsm.reachable();
    let _ = writeln!(
        out,
        "reachable states: {} of 2^{} ({} image iterations)",
        count_text(fsm.count_states(r.reached)),
        n.num_latches(),
        r.iterations
    );
    let _ = writeln!(
        out,
        "transitions: {}",
        count_text(fsm.count_transitions(r.reached))
    );
    Ok(out)
}

/// A symbolic count for a report. Each count runs over the variables it
/// counts and saturates at `u128::MAX` once it reaches 2^128; a saturated
/// count is marked, not printed as a number. No verdict depends on a
/// count.
fn count_text(c: u128) -> String {
    match c {
        u128::MAX => "uncounted (saturated)".to_string(),
        c => c.to_string(),
    }
}

/// `simcov tour`: generate a transition (default), greedy, or state tour.
pub fn cmd_tour(path: &str, kind: &str, obs: &ObsOpts) -> Result<CmdOutput, CliError> {
    // Validate the kind before touching the file, as the flag parser
    // always has.
    let _: TourKind = kind.parse().map_err(CliError::usage)?;
    let model = load_model_source(path)?;
    execute_job(
        model,
        JobKind::Tour {
            kind: kind.to_string(),
        },
        obs,
    )
}

/// `simcov distinguish`: symbolic ∀k-distinguishability.
pub fn cmd_distinguish(path: &str, k: usize, all_pairs: bool) -> Result<String, CliError> {
    let n = load_model(path)?;
    let init = n.initial_state();
    let mut pf = PairFsm::from_netlist(&n);
    let r = pf.forall_k(&init, k, !all_pairs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "forall-{k} distinguishability over {} {}:",
        count_text(r.reachable_states),
        if all_pairs {
            "states (entire state space)"
        } else {
            "reachable states"
        }
    );
    let _ = writeln!(
        out,
        "  violating pairs: {}{}",
        count_text(r.violating_pairs),
        if r.fixed_point {
            " (fixed point: holds for all larger k too)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "  property {}",
        if r.holds { "HOLDS" } else { "VIOLATED" }
    );
    if !r.holds && n.num_latches() <= 16 {
        let examples = pf.violating_pair_examples(&init, k, 4);
        for (a, b) in examples {
            let fmt = |v: &[bool]| -> String {
                v.iter().rev().map(|&x| if x { '1' } else { '0' }).collect()
            };
            let _ = writeln!(out, "  example pair: {} vs {}", fmt(&a), fmt(&b));
        }
    }
    Ok(out)
}

/// Exit code for a campaign that completed *validly* but not *fully*
/// (deadline/step-budget truncation or quarantined shards): distinct from
/// 0 (complete), 1 (runtime error) and 2 (usage error). The numeric face
/// of [`ExitStatus::Partial`].
pub const EXIT_PARTIAL: i32 = ExitStatus::Partial.code();

/// `simcov campaign`: tour-driven fault campaign on the supervised
/// parallel engine, or the implicit campaign under `--engine symbolic`.
///
/// The explicit engines always run under the resilient supervisor, so
/// `--deadline`, `--max-steps`, `--checkpoint` and `--resume` compose
/// freely with the plain flags; `--engine symbolic` refuses them (usage
/// error). Exits 0 for a complete report and [`EXIT_PARTIAL`] for a
/// truncated or shard-quarantined one — every line of a partial report is
/// still exact; the `status:`/`bounds:` lines account for what is
/// missing.
pub fn cmd_campaign(
    source: LintSource<'_>,
    opts: &CampaignOpts,
    obs: &ObsOpts,
) -> Result<CmdOutput, CliError> {
    // Usage errors must precede file access: `--resume` without
    // `--checkpoint` reports before a missing model does.
    if opts.resume && opts.checkpoint.is_none() {
        return Err(CliError::usage("--resume requires --checkpoint <FILE>"));
    }
    let model = source.model()?;
    execute_job(model, JobKind::Campaign(opts.clone()), obs)
}

/// `simcov dot`: the reachable FSM in Graphviz format.
pub fn cmd_dot(path: &str) -> Result<String, CliError> {
    let n = load_model(path)?;
    let m = jobs::enumerate(&n)?;
    Ok(m.to_dot())
}

/// `simcov normalize`: parse + re-emit BLIF.
pub fn cmd_normalize(path: &str) -> Result<String, CliError> {
    let n = load_model(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("model");
    Ok(simcov_netlist::to_blif(&n, name))
}

/// `simcov dlx`: export the case-study models as BLIF.
pub fn cmd_dlx(which: &str) -> Result<String, CliError> {
    let n = jobs::dlx_netlist(which)?;
    Ok(simcov_netlist::to_blif(&n, &format!("dlx_{which}")))
}

/// What `simcov lint` runs over: a BLIF file or a built-in DLX model.
#[derive(Debug, Clone, Copy)]
pub enum LintSource<'a> {
    /// A sequential BLIF file on disk.
    Path(&'a str),
    /// A case-study model by name (`--dlx`), linted with its valid-input
    /// alphabet where one is defined (`reduced`, `reduced-obs`).
    Dlx(&'a str),
}

impl LintSource<'_> {
    /// The [`ModelSource`] the job layer runs over.
    fn model(self) -> Result<ModelSource, CliError> {
        match self {
            LintSource::Path(path) => load_model_source(path),
            LintSource::Dlx(which) => Ok(ModelSource::Dlx(which.to_string())),
        }
    }
}

/// `simcov lint`: run the `SC0xx` static diagnostics over a model.
///
/// Netlist lints (`SC020`–`SC030`) always run; when the model fits the
/// explicit-enumeration guard (≤ 16 inputs), the reachable machine is
/// built and the model lints (`SC001`–`SC008`) run on it too, with the
/// stall predicate for Requirement 2 taken from the output port named
/// `stall` if one exists. A BLIF parse failure is itself reported as a
/// lint (`SC028`–`SC030`) rather than a hard error, so `--format json`
/// output stays machine-readable for malformed inputs.
pub fn cmd_lint(
    source: LintSource<'_>,
    format: &str,
    overrides: &SeverityOverrides,
    k: usize,
    obs: &ObsOpts,
) -> Result<CmdOutput, CliError> {
    let model = source.model()?;
    execute_job(
        model,
        JobKind::Lint {
            format: format.to_string(),
            k,
            overrides: overrides.clone(),
        },
        obs,
    )
}

/// `simcov analyze`: whole-model static fault collapsing.
///
/// Enumerates the fault universe a campaign with the same `--max-faults`
/// and `--seed` would simulate, computes the collapse certificate
/// (unreachable / ineffective / output / transfer classes plus dominance
/// edges) and reports the `SC05x` findings through the standard lint
/// pipeline. Exits like `lint`: 0 when no deny-level diagnostics fire,
/// 1 otherwise; the JSON report carries the machine fingerprint that
/// also binds the certificate.
pub fn cmd_analyze(
    source: LintSource<'_>,
    format: &str,
    overrides: &SeverityOverrides,
    opts: &AnalyzeOpts,
    obs: &ObsOpts,
) -> Result<CmdOutput, CliError> {
    let model = source.model()?;
    execute_job(
        model,
        JobKind::Analyze {
            format: format.to_string(),
            opts: opts.clone(),
            overrides: overrides.clone(),
        },
        obs,
    )
}

/// `simcov close`: coverage-directed closure — iterate stimulus
/// generation against fault-campaign feedback until every detectable
/// fault is detected or a budget expires.
///
/// Each round harvests the surviving faults and cold `(state, input)`
/// cells from the accumulated campaign and feeds them to the bias-aware
/// tour generators; provably-undetectable faults (observationally
/// equivalent mutants) are pruned from the closure target as they are
/// identified. Exits 0 at closure and [`EXIT_PARTIAL`] when the round
/// budget, `--budget` step cap or stagnation stopped the loop first.
/// For a fixed `--seed` the round schedule, report and telemetry trace
/// are byte-identical for every `--jobs` value and explicit engine.
pub fn cmd_close(
    source: LintSource<'_>,
    opts: &CloseOpts,
    obs: &ObsOpts,
) -> Result<CmdOutput, CliError> {
    let model = source.model()?;
    execute_job(model, JobKind::Close(opts.clone()), obs)
}

/// `simcov serve`: run the multi-tenant job server until a client sends
/// a `shutdown` request.
///
/// Prints `listening HOST:PORT` (flushed) before the accept loop blocks,
/// so scripts that bind port 0 can parse the chosen port. Exits 0 for a
/// clean run and [`EXIT_PARTIAL`] when any job was quarantined or any
/// journal record was lost. `trace_out` writes the server's own
/// telemetry trace — counters only, so it is byte-identical across
/// `--workers` for the same job stream.
pub fn cmd_serve(config: ServerConfig, trace_out: Option<&str>) -> Result<CmdOutput, CliError> {
    let server =
        Server::bind(config).map_err(|e| CliError::runtime(format!("cannot start server: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::runtime(format!("cannot resolve listen address: {e}")))?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "listening {addr}");
        let _ = stdout.flush();
    }
    let summary = server
        .serve()
        .map_err(|e| CliError::runtime(format!("serve failed: {e}")))?;
    if let Some(path) = trace_out {
        std::fs::write(path, &summary.trace)
            .map_err(|e| CliError::runtime(format!("cannot write trace {path}: {e}")))?;
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "served: {} job(s) completed, {} quarantined, {} journal failure(s)",
        summary.completed, summary.quarantined, summary.journal_failures
    );
    Ok(CmdOutput {
        text,
        code: summary.status().code(),
        metrics: None,
    })
}

/// The worse of two exit statuses, in escalation order
/// `Ok < Usage < Partial < Error`.
fn worse(a: ExitStatus, b: ExitStatus) -> ExitStatus {
    let rank = |s: ExitStatus| match s {
        ExitStatus::Ok => 0,
        ExitStatus::Usage => 1,
        ExitStatus::Partial => 2,
        ExitStatus::Error => 3,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// `simcov submit`: run a file of job requests against a server.
///
/// Each non-empty line of `file` is one wire `submit` request (a JSON
/// object carrying its own `id`). Lines are spread round-robin over
/// `connections` client connections; results are printed in file order
/// whatever the completion interleaving, so the output is deterministic.
/// With `dump_dir`, each result is also written to `<dir>/<id>.out` with
/// its exit code in `<dir>/<id>.exit`. Exits with the worst status over
/// all jobs.
pub fn cmd_submit(
    addr: &str,
    file: &str,
    connections: usize,
    dump_dir: Option<&str>,
    shutdown: bool,
) -> Result<CmdOutput, CliError> {
    use simcov_obs::json::{self, Json};
    let text = std::fs::read_to_string(file)
        .map_err(|e| CliError::runtime(format!("cannot read {file}: {e}")))?;
    let requests: Vec<(String, String)> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|line| {
            let parsed =
                json::parse(line).map_err(|e| CliError::usage(format!("bad request line: {e}")))?;
            let id = parsed
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| CliError::usage(format!("request line missing `id`: {line}")))?;
            Ok((id.to_string(), line.to_string()))
        })
        .collect::<Result<_, CliError>>()?;
    if requests.is_empty() {
        return Err(CliError::usage(format!("{file} contains no requests")));
    }
    let connections = connections.clamp(1, requests.len());
    let mut results: Vec<Option<Result<Json, String>>> =
        (0..requests.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..connections {
            let requests = &requests;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, Result<Json, String>)> = Vec::new();
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(e) => {
                        for i in (c..requests.len()).step_by(connections) {
                            out.push((i, Err(format!("cannot connect to {addr}: {e}"))));
                        }
                        return out;
                    }
                };
                for i in (c..requests.len()).step_by(connections) {
                    let (id, payload) = &requests[i];
                    out.push((i, client.run_job(payload, id).map_err(|e| e.to_string())));
                }
                out
            }));
        }
        for handle in handles {
            for (i, r) in handle.join().expect("submit worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    if let Some(dir) = dump_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::runtime(format!("cannot create {dir}: {e}")))?;
    }
    let mut text = String::new();
    let mut status = ExitStatus::Ok;
    for ((id, _), slot) in requests.iter().zip(&results) {
        match slot.as_ref().expect("every request was dispatched") {
            Ok(frame) => {
                let job_status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("error");
                let exit = frame.get("exit").and_then(Json::as_u64).unwrap_or(1) as i32;
                let output = frame.get("output").and_then(Json::as_str).unwrap_or("");
                let _ = writeln!(text, "== {id}: {job_status} (exit {exit})");
                text.push_str(output);
                if let Some(dir) = dump_dir {
                    std::fs::write(format!("{dir}/{id}.out"), output).map_err(|e| {
                        CliError::runtime(format!("cannot write {dir}/{id}.out: {e}"))
                    })?;
                    std::fs::write(format!("{dir}/{id}.exit"), format!("{exit}\n")).map_err(
                        |e| CliError::runtime(format!("cannot write {dir}/{id}.exit: {e}")),
                    )?;
                }
                status = worse(
                    status,
                    ExitStatus::from_code(exit).unwrap_or(ExitStatus::Error),
                );
            }
            Err(e) => {
                let _ = writeln!(text, "== {id}: failed ({e})");
                status = worse(status, ExitStatus::Error);
            }
        }
    }
    if shutdown {
        let mut client = Client::connect(addr)
            .map_err(|e| CliError::runtime(format!("cannot connect to {addr}: {e}")))?;
        let _ = client.request(&simcov_serve::client::shutdown());
    }
    Ok(CmdOutput {
        text,
        code: status.code(),
        metrics: None,
    })
}

/// The flags one subcommand accepts, exactly as its [`USAGE`] line
/// lists them: each name with whether it takes a value.
type FlagTable = &'static [(&'static str, bool)];

const TOUR_FLAGS: FlagTable = &[
    ("--greedy", false),
    ("--state", false),
    ("--trace-out", true),
    ("--metrics", false),
];
const DISTINGUISH_FLAGS: FlagTable = &[("--k", true), ("--all-pairs", false)];
const CAMPAIGN_FLAGS: FlagTable = &[
    ("--dlx", true),
    ("--max-faults", true),
    ("--seed", true),
    ("--k", true),
    ("--jobs", true),
    ("--engine", true),
    ("--collapse", true),
    ("--deadline", true),
    ("--max-steps", true),
    ("--max-retries", true),
    ("--checkpoint", true),
    ("--resume", false),
    ("--trace-out", true),
    ("--metrics", false),
];
const LINT_FLAGS: FlagTable = &[
    ("--dlx", true),
    ("--format", true),
    ("--deny", true),
    ("--warn", true),
    ("--allow", true),
    ("--k", true),
    ("--trace-out", true),
    ("--metrics", false),
];
const ANALYZE_FLAGS: FlagTable = &[
    ("--dlx", true),
    ("--max-faults", true),
    ("--seed", true),
    ("--max-nodes", true),
    ("--format", true),
    ("--deny", true),
    ("--warn", true),
    ("--allow", true),
    ("--trace-out", true),
    ("--metrics", false),
];
const CLOSE_FLAGS: FlagTable = &[
    ("--dlx", true),
    ("--max-faults", true),
    ("--seed", true),
    ("--rounds", true),
    ("--budget", true),
    ("--jobs", true),
    ("--engine", true),
    ("--format", true),
    ("--trace-out", true),
    ("--metrics", false),
];
const SERVE_FLAGS: FlagTable = &[
    ("--addr", true),
    ("--workers", true),
    ("--queue", true),
    ("--cache", true),
    ("--max-retries", true),
    ("--seed", true),
    ("--audit-sample", true),
    ("--journal", true),
    ("--resume", false),
    ("--trace-out", true),
];
/// `serve`'s fault-injection flags, accepted only in chaos builds.
#[cfg(feature = "chaos")]
const CHAOS_FLAGS: FlagTable = &[
    ("--chaos-seed", true),
    ("--chaos-drop", true),
    ("--chaos-slow", true),
    ("--chaos-panic", true),
    ("--chaos-audit", true),
    ("--chaos-journal-fail", true),
];
#[cfg(not(feature = "chaos"))]
const CHAOS_FLAGS: FlagTable = &[];
const SUBMIT_FLAGS: FlagTable = &[
    ("--connections", true),
    ("--dump-dir", true),
    ("--shutdown", false),
];

/// A subcommand's arguments, scanned once against its flag table.
struct Args<'a> {
    /// Every flag in command-line order, with its value; `None` for a
    /// switch, or for a value flag that ends the command line.
    flags: Vec<(&'a str, Option<&'a str>)>,
    /// The tokens that are neither flags nor flag values, in order.
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Splits `rest` into flags and positionals. A `--flag` missing from
    /// `table` is a usage error naming it; `--help` is accepted, and
    /// ignored, everywhere.
    fn scan(cmd: &str, rest: &'a [String], table: &[(&str, bool)]) -> Result<Self, CliError> {
        let mut args = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut tokens = rest.iter().map(String::as_str);
        while let Some(a) = tokens.next() {
            if !a.starts_with("--") {
                args.positionals.push(a);
                continue;
            }
            let takes_value = match table.iter().find(|(name, _)| *name == a) {
                Some(&(_, takes_value)) => takes_value,
                None if a == "--help" => false,
                None => {
                    return Err(CliError::usage(format!(
                        "unknown flag `{a}` for `{cmd}`\n\n{USAGE}"
                    )))
                }
            };
            args.flags
                .push((a, if takes_value { tokens.next() } else { None }));
        }
        Ok(args)
    }

    /// The value of the first `name` flag.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(flag, _)| *flag == name)
            .and_then(|&(_, value)| value)
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The model path of a command that takes exactly one.
    fn path(&self, cmd: &str) -> Result<&'a str, CliError> {
        self.positionals
            .first()
            .copied()
            .ok_or_else(|| CliError::usage(format!("`{cmd}` needs a model path\n\n{USAGE}")))
    }

    /// The model of a job-shaped command: `--dlx <name>`, else the path.
    fn source(&self, cmd: &str) -> Result<LintSource<'a>, CliError> {
        match self.value("--dlx") {
            Some(which) => Ok(LintSource::Dlx(which)),
            None => self
                .positionals
                .first()
                .copied()
                .map(LintSource::Path)
                .ok_or_else(|| {
                    CliError::usage(format!("`{cmd}` needs a model path or --dlx\n\n{USAGE}"))
                }),
        }
    }

    /// Parses the numeric value of flag `name`, if given.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("{name} must be a number")))
            })
            .transpose()
    }

    /// Parses repeated `--deny/--warn/--allow <code>` severity overrides
    /// (shared by `lint` and `analyze`) into the wire-transportable pair
    /// form, validating eagerly so `--deny bogus` is a usage error before
    /// any model work happens.
    fn severity_overrides(&self) -> Result<SeverityOverrides, CliError> {
        let mut overrides = SeverityOverrides::new();
        for &(flag, value) in &self.flags {
            let severity = match flag {
                "--deny" => "deny",
                "--warn" => "warn",
                "--allow" => "allow",
                _ => continue,
            };
            let code = value.ok_or_else(|| CliError::usage(format!("{flag} needs a lint code")))?;
            overrides.push((code.to_string(), severity.to_string()));
        }
        jobs::lint_config(&overrides)?;
        Ok(overrides)
    }

    /// The `--engine` value, or `default`. `accepted` is the engine list
    /// named in the error for an unknown one.
    fn engine(&self, default: Engine, accepted: &str) -> Result<Engine, CliError> {
        self.value("--engine").map_or(Ok(default), |name| {
            name.parse()
                .map_err(|_| CliError::usage(format!("unknown engine `{name}` ({accepted})")))
        })
    }
}

/// Validates a `--format` value for the report-producing commands.
fn report_format(value: Option<&str>) -> Result<&str, CliError> {
    let format = value.unwrap_or("text");
    jobs::report_format(format)?;
    Ok(format)
}

/// Parses and dispatches a full argument vector (without the program name).
pub fn run(args: &[String]) -> Result<CmdOutput, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    let cmd = cmd.as_str();
    let table = match cmd {
        "help" | "--help" | "-h" => return Ok(USAGE.to_string().into()),
        "stats" | "dot" | "normalize" | "dlx" => &[][..],
        "tour" => TOUR_FLAGS,
        "distinguish" => DISTINGUISH_FLAGS,
        "campaign" => CAMPAIGN_FLAGS,
        "lint" => LINT_FLAGS,
        "analyze" => ANALYZE_FLAGS,
        "close" => CLOSE_FLAGS,
        "serve" => &[SERVE_FLAGS, CHAOS_FLAGS].concat(),
        "submit" => SUBMIT_FLAGS,
        other => {
            return Err(CliError::usage(format!(
                "unknown command `{other}`\n\n{USAGE}"
            )))
        }
    };
    let a = Args::scan(cmd, rest, table)?;
    match cmd {
        "lint" => {
            let overrides = a.severity_overrides()?;
            let format = report_format(a.value("--format"))?;
            let k = a.num("--k")?.unwrap_or(1);
            return cmd_lint(a.source(cmd)?, format, &overrides, k, &ObsOpts::parse(&a));
        }
        "analyze" => {
            let overrides = a.severity_overrides()?;
            let format = report_format(a.value("--format"))?;
            let defaults = AnalyzeOpts::default();
            let opts = AnalyzeOpts {
                max_faults: a.num("--max-faults")?.unwrap_or(defaults.max_faults),
                seed: a.num("--seed")?.unwrap_or(defaults.seed),
                max_nodes: a.num("--max-nodes")?.unwrap_or(defaults.max_nodes),
            };
            let source = a.source(cmd)?;
            return cmd_analyze(source, format, &overrides, &opts, &ObsOpts::parse(&a));
        }
        "stats" => cmd_stats(a.path(cmd)?),
        "tour" => {
            let kind = if a.has("--greedy") {
                "greedy"
            } else if a.has("--state") {
                "state"
            } else {
                "postman"
            };
            return cmd_tour(a.path(cmd)?, kind, &ObsOpts::parse(&a));
        }
        "distinguish" => {
            let k = a
                .num("--k")?
                .ok_or_else(|| CliError::usage("distinguish requires --k <K>"))?;
            cmd_distinguish(a.path(cmd)?, k, a.has("--all-pairs"))
        }
        "campaign" => {
            let defaults = CampaignOpts::default();
            let opts = CampaignOpts {
                max_faults: a.num("--max-faults")?.unwrap_or(defaults.max_faults),
                seed: a.num("--seed")?.unwrap_or(defaults.seed),
                k: a.num("--k")?.unwrap_or(defaults.k),
                jobs: a.num("--jobs")?.unwrap_or(defaults.jobs),
                max_retries: a.num("--max-retries")?.unwrap_or(defaults.max_retries),
                deadline_ms: a.num("--deadline")?,
                max_steps: a.num("--max-steps")?,
                checkpoint: a.value("--checkpoint").map(str::to_string),
                resume: a.has("--resume"),
                engine: a.engine(defaults.engine, "naive|differential|packed|symbolic")?,
                collapse: match a.value("--collapse") {
                    None => defaults.collapse,
                    Some(mode) => mode.parse().map_err(CliError::usage)?,
                },
            };
            return cmd_campaign(a.source(cmd)?, &opts, &ObsOpts::parse(&a));
        }
        "close" => {
            let format = report_format(a.value("--format"))?;
            let defaults = CloseOpts::default();
            let opts = CloseOpts {
                max_faults: a.num("--max-faults")?.unwrap_or(defaults.max_faults),
                seed: a.num("--seed")?.unwrap_or(defaults.seed),
                rounds: a.num("--rounds")?.unwrap_or(defaults.rounds),
                budget: a.num("--budget")?,
                jobs: a.num("--jobs")?.unwrap_or(defaults.jobs),
                // `symbolic` parses, then is refused by the job layer with
                // the same message a served `close` request gets.
                engine: a.engine(defaults.engine, "naive|differential|packed")?,
                format: format.to_string(),
            };
            return cmd_close(a.source(cmd)?, &opts, &ObsOpts::parse(&a));
        }
        "serve" => {
            let defaults = ServerConfig::default();
            let mut config = ServerConfig {
                addr: a.value("--addr").unwrap_or(&defaults.addr).to_string(),
                workers: a.num("--workers")?.unwrap_or(defaults.workers),
                queue_capacity: a.num("--queue")?.unwrap_or(defaults.queue_capacity),
                cache_capacity: a.num("--cache")?.unwrap_or(defaults.cache_capacity),
                max_retries: a.num("--max-retries")?.unwrap_or(defaults.max_retries),
                seed: a.num("--seed")?.unwrap_or(defaults.seed),
                journal: a.value("--journal").map(str::to_string),
                resume: a.has("--resume"),
                ..defaults
            };
            if config.resume && config.journal.is_none() {
                return Err(CliError::usage("--resume requires --journal <FILE>"));
            }
            if let Some(sample) = a.num::<usize>("--audit-sample")? {
                config.audit = (sample > 0).then_some(jobs::AuditPolicy {
                    sample,
                    seed: config.seed,
                });
            }
            #[cfg(feature = "chaos")]
            {
                let seed = a.num("--chaos-seed")?;
                let drop = a.num("--chaos-drop")?;
                let slow = a.num("--chaos-slow")?;
                let panic = a.num("--chaos-panic")?;
                let audit = a.num("--chaos-audit")?;
                let journal_fail = a.num("--chaos-journal-fail")?;
                if seed.is_some()
                    || drop.is_some()
                    || slow.is_some()
                    || panic.is_some()
                    || audit.is_some()
                    || journal_fail.is_some()
                {
                    let mut plan = simcov_serve::chaos::ServeChaosPlan::new(seed.unwrap_or(0));
                    plan.drop_connection_prob = drop.unwrap_or(0.0);
                    plan.slow_client_prob = slow.unwrap_or(0.0);
                    plan.job_panic_prob = panic.unwrap_or(0.0);
                    plan.audit_fail_prob = audit.unwrap_or(0.0);
                    plan.journal_fail_after = journal_fail.unwrap_or(usize::MAX);
                    config.chaos = Some(plan);
                }
            }
            return cmd_serve(config, a.value("--trace-out"));
        }
        "submit" => {
            let [addr, file] = a.positionals[..] else {
                return Err(CliError::usage(format!(
                    "`submit` needs <addr> and <jobs.jsonl>\n\n{USAGE}"
                )));
            };
            return cmd_submit(
                addr,
                file,
                a.num("--connections")?.unwrap_or(1),
                a.value("--dump-dir"),
                a.has("--shutdown"),
            );
        }
        "dot" => cmd_dot(a.path(cmd)?),
        "normalize" => cmd_normalize(a.path(cmd)?),
        "dlx" => {
            let which = a
                .positionals
                .first()
                .ok_or_else(|| CliError::usage("dlx needs a model name"))?;
            cmd_dlx(which)
        }
        _ => unreachable!("every command has a flag table"),
    }
    .map(CmdOutput::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn write_reduced_blif() -> tempfile::TempPath {
        let n = simcov_dlx::testmodel::reduced_control_netlist_observable();
        let blif = simcov_netlist::to_blif(&n, "reduced");
        tempfile::path(&blif)
    }

    /// Minimal temp-file helper (std-only).
    mod tempfile {
        pub struct TempPath(pub std::path::PathBuf);
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().expect("utf-8 path")
            }
        }
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        pub fn path(contents: &str) -> TempPath {
            path_tagged("model", contents)
        }

        pub fn path_tagged(tag: &str, contents: &str) -> TempPath {
            let mut p = std::env::temp_dir();
            let unique = format!(
                "simcov_cli_test_{tag}_{}_{:?}.blif",
                std::process::id(),
                std::thread::current().id()
            );
            p.push(unique);
            std::fs::write(&p, contents).expect("write temp file");
            TempPath(p)
        }
    }

    #[test]
    fn usage_on_empty() {
        let e = run(&[]).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn unknown_command_rejected() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.text.contains("simcov stats"));
        assert!(out.text.contains("simcov lint"));
        assert_eq!(out.code, 0);
    }

    #[test]
    fn dlx_export_parses_back() {
        let out = run(&args(&["dlx", "reduced"])).unwrap();
        let n = simcov_netlist::from_blif(&out.text).unwrap();
        assert_eq!(n.stats().latches, 8);
        assert!(run(&args(&["dlx", "nope"])).is_err());
    }

    #[test]
    fn lint_flagship_dlx_model_is_deny_free() {
        // The acceptance gate: the observable reduced DLX model, linted
        // over its valid-input alphabet, has zero deny diagnostics.
        let out = run(&args(&["lint", "--dlx", "reduced-obs"])).unwrap();
        assert_eq!(out.code, 0, "deny findings:\n{}", out.text);
        assert!(!out.text.contains("deny["), "{}", out.text);
        assert!(out.text.contains("summary:"));
        let json = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "json"])).unwrap();
        assert_eq!(json.code, 0);
        // The report leads with the model fingerprint (diffable/cacheable
        // by model identity), then the counts.
        assert!(
            json.text
                .starts_with("{\"tool\":\"simcov-lint\",\"fingerprint\":\"0x"),
            "{}",
            json.text
        );
        assert!(json.text.contains("\"deny\":0,"), "{}", json.text);
    }

    #[test]
    fn lint_json_fingerprint_is_model_identity() {
        // Deterministic across runs of the same model; different models
        // fingerprint differently.
        let fp = |text: &str| -> String {
            let start = text.find("\"fingerprint\":\"").expect("fingerprint") + 15;
            text[start..start + 18].to_string()
        };
        let first = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "json"])).unwrap();
        let again = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "json"])).unwrap();
        assert_eq!(fp(&first.text), fp(&again.text));
        let other = run(&args(&["lint", "--dlx", "fig3a", "--format", "json"])).unwrap();
        assert_ne!(fp(&first.text), fp(&other.text));
    }

    #[test]
    fn lint_hidden_dlx_model_fails_forall_k() {
        // Without the Requirement 5 outputs the reduced model is not
        // forall-k-distinguishable at any depth (deny, with witnesses).
        // Note the violation is *semantic*: every latch sits in some
        // output cone (no structural SC027), yet pairs differing only in
        // interaction state still produce equal output streams.
        let out = run(&args(&["lint", "--dlx", "reduced", "--k", "3"])).unwrap();
        assert_eq!(out.code, 1);
        assert!(out.text.contains("deny[SC008]"), "{}", out.text);
        assert!(out.text.contains("forall-3"), "{}", out.text);
    }

    #[test]
    fn lint_seeded_undefined_net_mutation_flagged() {
        // Mutation: drop the cover driving the `stall` output buffer from
        // the exported flagship BLIF. The importer reports an undefined
        // net, which lint maps to SC029 in both formats, exit code 1.
        let n = simcov_dlx::testmodel::reduced_control_netlist_observable();
        let blif = simcov_netlist::to_blif(&n, "mutated");
        let mutated: String = {
            let mut lines: Vec<&str> = blif.lines().collect();
            let idx = lines
                .iter()
                .position(|l| l.starts_with(".names") && l.ends_with(" stall"))
                .expect("stall output buffer exists");
            lines.drain(idx..idx + 2); // header + its single cover row
            lines.join("\n")
        };
        let tmp = tempfile::path(&mutated);
        let text = run(&args(&["lint", tmp.as_str()])).unwrap();
        assert_eq!(text.code, 1);
        assert!(text.text.contains("deny[SC029]"), "{}", text.text);
        let json = run(&args(&["lint", tmp.as_str(), "--format", "json"])).unwrap();
        assert_eq!(json.code, 1);
        assert!(json.text.contains("\"code\":\"SC029\""), "{}", json.text);
        assert!(json.text.contains("\"severity\":\"deny\""));
    }

    #[test]
    fn lint_seeded_dead_latch_mutation_flagged() {
        // Mutation: disconnect `rf_wen` from its cone by tying it to a
        // constant. The mem latches then drive nothing observable: SC022
        // (dead latch) and SC024 (constant output) both fire as warnings.
        let n = simcov_dlx::testmodel::reduced_control_netlist();
        let blif = simcov_netlist::to_blif(&n, "mutated");
        let mutated: String = {
            let mut lines: Vec<String> = blif.lines().map(str::to_string).collect();
            let idx = lines
                .iter()
                .position(|l| l.starts_with(".names") && l.ends_with(" rf_wen"))
                .expect("rf_wen output buffer exists");
            lines[idx] = ".names rf_wen".to_string(); // constant-zero cover
            lines.remove(idx + 1); // drop the old `1 1` row
            lines.join("\n")
        };
        let tmp = tempfile::path(&mutated);
        let out = run(&args(&["lint", tmp.as_str(), "--allow", "SC008"])).unwrap();
        assert!(out.text.contains("warn[SC024]"), "{}", out.text);
        assert!(out.text.contains("warn[SC022]"), "{}", out.text);
        assert!(out.text.contains("rf_wen"));
        // Escalation: --deny SC024 flips the exit code.
        let denied = run(&args(&[
            "lint",
            tmp.as_str(),
            "--allow",
            "SC008",
            "--deny",
            "SC024",
        ]))
        .unwrap();
        assert_eq!(denied.code, 1);
    }

    #[test]
    fn lint_model_level_mutation_dropped_transition_flagged() {
        // Model-level mutation per the acceptance criteria: rebuild the
        // flagship machine minus one transition; the lint must flag the
        // hole as SC002 (incomplete-input-alphabet) with the right slot.
        use simcov_fsm::{enumerate_netlist, MealyBuilder};
        use simcov_lint::{lint_model, LintConfig, ModelTarget};
        let net = simcov_dlx::testmodel::reduced_control_netlist_observable();
        let m =
            enumerate_netlist(&net, &simcov_dlx::testmodel::reduced_valid_inputs(&net)).unwrap();
        let mut b = MealyBuilder::new();
        for s in m.states() {
            b.add_state(m.state_label(s));
        }
        for i in m.inputs() {
            b.add_input(m.input_label(i));
        }
        for o in 0..m.num_outputs() {
            b.add_output(m.output_label(simcov_fsm::OutputSym(o as u32)));
        }
        let dropped = m.transitions().next().unwrap();
        for t in m.transitions().skip(1) {
            b.add_transition(t.state, t.input, t.next, t.output);
        }
        let mutated = b.build(m.reset()).unwrap();
        let d = lint_model(&ModelTarget::new(&mutated), &LintConfig::new());
        assert!(d.has_denials());
        let f: Vec<_> = d.with_code("SC002").collect();
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("no transition defined"),
            "{}",
            d.render_text()
        );
        let json = d.render_json();
        assert!(json.contains("\"code\":\"SC002\""));
        assert!(json.contains(&format!("\"state\":\"{}\"", m.state_label(dropped.state))));
    }

    #[test]
    fn lint_flag_validation() {
        let e = run(&args(&["lint", "--dlx", "reduced-obs", "--deny", "SC999"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown lint code"));
        let e = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "xml"])).unwrap_err();
        assert!(e.message.contains("unknown lint format"));
        let e = run(&args(&["lint", "--format", "json"])).unwrap_err();
        assert!(e.message.contains("needs a model path"));
        // Severity overrides accept names as well as codes.
        let out = run(&args(&[
            "lint",
            "--dlx",
            "reduced",
            "--allow",
            "forall-k-indistinguishable",
            "--allow",
            "hidden-latch",
            "--allow",
            "non-unique-outputs",
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("allowed"));
    }

    #[test]
    fn analyze_reports_classes_and_certificate() {
        let out = run(&args(&["analyze", "--dlx", "reduced-obs"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("faults: "), "{}", out.text);
        assert!(out.text.contains("classes ("), "{}", out.text);
        assert!(out.text.contains("certificate: 0x"), "{}", out.text);
        assert!(out.text.contains("summary:"), "{}", out.text);
        // JSON: fingerprint-stamped lint-pipeline report; deterministic
        // across runs.
        let json = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(json.code, 0);
        assert!(
            json.text
                .starts_with("{\"tool\":\"simcov-lint\",\"fingerprint\":\"0x"),
            "{}",
            json.text
        );
        let again = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(json.text, again.text);
        // A severity override can escalate an SC05x finding to a denial
        // (no finding at all is also acceptable — the universe is clean).
        let out = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--deny",
            "SC051",
        ]))
        .unwrap();
        assert!(out.code == 0 || out.text.contains("deny[SC051]"));
    }

    #[test]
    fn analyze_flag_validation() {
        let e = run(&args(&["analyze", "--format", "json"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("needs a model path"));
        let e = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--format",
            "xml",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown lint format"));
        let e = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--deny",
            "SC999",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown lint code"));
        // Positional path after value-taking flags parses (file source).
        let tmp = write_reduced_blif();
        let out = run(&args(&["analyze", "--max-faults", "100", tmp.as_str()])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
    }

    #[test]
    fn stats_on_exported_model() {
        let tmp = write_reduced_blif();
        let out = cmd_stats(tmp.as_str()).unwrap();
        assert!(out.contains("8 latches"));
        assert!(out.contains("reachable states: 18"));
    }

    #[test]
    fn tour_covers_and_prints_vectors() {
        let tmp = write_reduced_blif();
        let out = cmd_tour(tmp.as_str(), "postman", &ObsOpts::default())
            .unwrap()
            .text;
        assert!(out.contains("transitions"));
        // One vector per line after the header; the model has 5 inputs.
        let vectors: Vec<&str> = out
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert!(vectors.len() > 100);
        assert!(vectors.iter().all(|v| v.len() == 5));
        // Greedy and state tours also work.
        assert!(cmd_tour(tmp.as_str(), "greedy", &ObsOpts::default()).is_ok());
        assert!(cmd_tour(tmp.as_str(), "state", &ObsOpts::default()).is_ok());
        assert!(cmd_tour(tmp.as_str(), "zigzag", &ObsOpts::default()).is_err());
    }

    #[test]
    fn distinguish_reports_verdicts() {
        let tmp = write_reduced_blif();
        let out = cmd_distinguish(tmp.as_str(), 1, false).unwrap();
        // Exhaustive alphabet (not the valid-input subset) still leaves
        // the observable model distinguishable at k=1.
        assert!(out.contains("HOLDS") || out.contains("VIOLATED"));
        // Hidden model violates.
        let n = simcov_dlx::testmodel::reduced_control_netlist();
        let blif = simcov_netlist::to_blif(&n, "hidden");
        let tmp2 = tempfile::path(&blif);
        let out = cmd_distinguish(tmp2.as_str(), 3, false).unwrap();
        assert!(out.contains("VIOLATED"));
        assert!(out.contains("example pair"));
    }

    /// A bank of latches, each loading its own input and exported as an
    /// output. Each count runs over the variables it counts, so 32
    /// latches (a 160-variable pair machine) count their 2^32 states,
    /// while the 2^128 states of 128 latches saturate and are marked. The
    /// verdict is HOLDS either way.
    #[test]
    fn distinguish_marks_saturated_counts() {
        let bank = |width: usize| {
            let mut n = simcov_netlist::Netlist::new();
            for j in 0..width {
                let i = n.add_input(format!("i{j}"));
                let q = n.add_latch(format!("q{j}"), false);
                n.set_latch_next(q, i);
                let qo = n.latch_output(q);
                n.add_output(format!("o{j}"), qo);
            }
            tempfile::path(&simcov_netlist::to_blif(&n, "bank"))
        };
        let tmp = bank(32);
        let out = cmd_distinguish(tmp.as_str(), 1, false).unwrap();
        assert_eq!(
            out,
            "forall-1 distinguishability over 4294967296 reachable states:\n  \
             violating pairs: 0\n  property HOLDS\n"
        );
        let tmp = bank(128);
        let out = cmd_distinguish(tmp.as_str(), 1, false).unwrap();
        assert_eq!(
            out,
            "forall-1 distinguishability over uncounted (saturated) reachable states:\n  \
             violating pairs: 0\n  property HOLDS\n"
        );
        let out = cmd_distinguish(tmp.as_str(), 1, true).unwrap();
        assert!(out.starts_with("forall-1 distinguishability over uncounted (saturated) states"));
        assert!(out.contains("property HOLDS"));
    }

    /// 130 latches, each loading its own input: the states count runs
    /// over 130 variables and the transitions count over 260, so both
    /// saturate and are marked rather than printed as `u128::MAX`.
    #[test]
    fn stats_marks_saturated_counts() {
        let mut n = simcov_netlist::Netlist::new();
        for j in 0..130 {
            let i = n.add_input(format!("i{j}"));
            let q = n.add_latch(format!("q{j}"), false);
            n.set_latch_next(q, i);
        }
        let tmp = tempfile::path(&simcov_netlist::to_blif(&n, "bank"));
        let out = cmd_stats(tmp.as_str()).unwrap();
        assert!(
            out.contains("\nreachable states: uncounted (saturated) of 2^130 ("),
            "{out}"
        );
        assert!(
            out.ends_with("\ntransitions: uncounted (saturated)\n"),
            "{out}"
        );
    }

    fn campaign_opts(max_faults: usize, seed: u64, k: usize, jobs: usize) -> CampaignOpts {
        CampaignOpts {
            max_faults,
            seed,
            k,
            jobs,
            ..CampaignOpts::default()
        }
    }

    #[test]
    fn campaign_runs_and_reports() {
        let tmp = write_reduced_blif();
        let out = cmd_campaign(
            LintSource::Path(tmp.as_str()),
            &campaign_opts(300, 7, 1, 2),
            &ObsOpts::default(),
        )
        .unwrap();
        assert_eq!(out.code, 0);
        assert!(out.text.contains("campaign:"));
        assert!(out.text.contains("faults detected"));
        assert!(out.text.contains("stats:"));
        assert!(out.text.contains("status: complete"));
        assert!(out.text.contains("worker thread"));
    }

    #[test]
    fn campaign_jobs_flag_does_not_change_results() {
        let tmp = write_reduced_blif();
        let strip_wall = |s: String| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = strip_wall(
            cmd_campaign(
                LintSource::Path(tmp.as_str()),
                &campaign_opts(200, 3, 1, 1),
                &ObsOpts::default(),
            )
            .unwrap()
            .text,
        );
        let four = strip_wall(
            cmd_campaign(
                LintSource::Path(tmp.as_str()),
                &campaign_opts(200, 3, 1, 4),
                &ObsOpts::default(),
            )
            .unwrap()
            .text,
        );
        assert_eq!(one, four);
    }

    #[test]
    fn campaign_engine_flag_is_parsed_and_engine_independent() {
        let tmp = write_reduced_blif();
        let campaign_lines = |text: &str| -> String {
            text.lines()
                .filter(|l| l.starts_with("campaign:") || l.starts_with("stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = &[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--seed",
            "3",
        ];
        let with_engine = |e: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--engine", e]);
            run(&args(&argv)).unwrap()
        };
        let naive = with_engine("naive");
        let differential = with_engine("differential");
        let packed = with_engine("packed");
        assert!(naive.text.contains("engine: naive"), "{}", naive.text);
        assert!(
            differential.text.contains("engine: differential"),
            "{}",
            differential.text
        );
        assert!(packed.text.contains("engine: packed"), "{}", packed.text);
        assert_eq!(
            campaign_lines(&naive.text),
            campaign_lines(&differential.text),
            "reports must be engine-independent"
        );
        assert_eq!(
            campaign_lines(&naive.text),
            campaign_lines(&packed.text),
            "packed reports must match the scalar engines"
        );
        // Omitting the flag selects the differential default.
        let default = run(&args(base)).unwrap();
        assert!(default.text.contains("engine: differential"));
        let err = run(&args(&["campaign", tmp.as_str(), "--engine", "magic"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown engine"));
    }

    #[test]
    fn campaign_collapse_modes_are_invisible_and_audited() {
        let tmp = write_reduced_blif();
        let campaign_lines = |text: &str| -> String {
            text.lines()
                .filter(|l| l.starts_with("campaign:") || l.starts_with("stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = [
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--seed",
            "3",
        ];
        let with_mode = |mode: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--collapse", mode]);
            run(&args(&argv)).unwrap()
        };
        let off = with_mode("off");
        let on = with_mode("on");
        let verify = with_mode("verify");
        assert_eq!(off.code, 0);
        assert_eq!(on.code, 0);
        assert_eq!(verify.code, 0, "{}", verify.text);
        // Pruned simulation is invisible in the report and stats...
        assert_eq!(campaign_lines(&off.text), campaign_lines(&on.text));
        // ...but accounted for in the collapse line.
        assert!(!off.text.contains("collapse:"), "{}", off.text);
        assert!(on.text.contains("collapse: on ("), "{}", on.text);
        assert!(on.text.contains("faults pruned"), "{}", on.text);
        assert!(
            verify.text.contains("collapse: verify ("),
            "{}",
            verify.text
        );
        assert!(verify.text.contains("0 violations"), "{}", verify.text);
        let err = run(&args(&["campaign", tmp.as_str(), "--collapse", "maybe"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown collapse mode"));
    }

    #[test]
    fn campaign_zero_deadline_is_partial_with_exit_code() {
        let tmp = write_reduced_blif();
        let out = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--deadline",
            "0",
        ]))
        .unwrap();
        assert_eq!(out.code, EXIT_PARTIAL);
        assert!(
            out.text.contains("status: partial (deadline expired)"),
            "{}",
            out.text
        );
        assert!(
            out.text.contains("bounds: detection rate in"),
            "{}",
            out.text
        );
    }

    #[test]
    fn close_reaches_closure_on_the_flagship_model() {
        // The acceptance gate: coverage-directed feedback drives the
        // observable reduced DLX model to closure within the default
        // round budget, from a BLIF path as well as --dlx.
        let out = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--max-faults",
            "120",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("round 0:"), "{}", out.text);
        assert!(out.text.contains("closure: reached"), "{}", out.text);
        let tmp = write_reduced_blif();
        let from_path = run(&args(&[
            "close",
            tmp.as_str(),
            "--max-faults",
            "120",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!(from_path.code, 0, "{}", from_path.text);
        assert!(from_path.text.contains("closure: reached"));
    }

    #[test]
    fn close_json_is_byte_identical_across_jobs_and_engines() {
        let with = |jobs: &str, engine: &str| {
            run(&args(&[
                "close",
                "--dlx",
                "reduced-obs",
                "--max-faults",
                "120",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--engine",
                engine,
                "--format",
                "json",
            ]))
            .unwrap()
        };
        let one = with("1", "differential");
        let two = with("2", "differential");
        let eight = with("8", "differential");
        assert_eq!(one.text, two.text);
        assert_eq!(one.text, eight.text);
        assert!(one.text.contains("\"closed\":true"), "{}", one.text);
        assert!(
            one.text.starts_with("{\"schema\":\"simcov-close\""),
            "{}",
            one.text
        );
        // The engines agree on everything but the engine label itself.
        let strip_engine = |t: &str| {
            t.replacen("\"engine\":\"naive\"", "", 1)
                .replacen("\"engine\":\"differential\"", "", 1)
        };
        let naive = with("2", "naive");
        assert_eq!(strip_engine(&one.text), strip_engine(&naive.text));
    }

    #[test]
    fn close_zero_round_budget_is_partial_with_exit_code() {
        let out = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--max-faults",
            "120",
            "--rounds",
            "0",
        ]))
        .unwrap();
        assert_eq!(out.code, EXIT_PARTIAL, "{}", out.text);
        assert!(out.text.contains("closure: NOT reached"), "{}", out.text);
    }

    #[test]
    fn close_flag_validation() {
        let e = run(&args(&["close", "--format", "xml", "--dlx", "reduced-obs"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown lint format"));
        let e = run(&args(&["close"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("needs a model path or --dlx"));
        let e = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--engine",
            "warp",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown engine"));
        // Symbolic closure is a usage error, not a panic (exit 2).
        let e = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--engine",
            "symbolic",
            "--rounds",
            "1",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("symbolic engine"), "{}", e.message);
        let e = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--rounds",
            "many",
        ]))
        .unwrap_err();
        assert!(e.message.contains("--rounds must be a number"));
    }

    #[test]
    fn campaign_checkpoint_resume_matches_single_shot() {
        let tmp = write_reduced_blif();
        let journal = tempfile::path_tagged("journal", "");
        let campaign_lines = |text: &str| -> String {
            text.lines()
                .filter(|l| l.starts_with("campaign:") || l.starts_with("stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let single = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert_eq!(single.code, 0);
        // Truncated run journals a prefix of the shards...
        let partial = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--jobs",
            "2",
            "--max-steps",
            "60000",
            "--checkpoint",
            journal.as_str(),
        ]))
        .unwrap();
        assert_eq!(partial.code, EXIT_PARTIAL, "{}", partial.text);
        // ...and the resumed run completes to a byte-identical report.
        let resumed = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--jobs",
            "2",
            "--checkpoint",
            journal.as_str(),
            "--resume",
        ]))
        .unwrap();
        assert_eq!(resumed.code, 0, "{}", resumed.text);
        assert!(resumed.text.contains("restored:"), "{}", resumed.text);
        assert_eq!(campaign_lines(&resumed.text), campaign_lines(&single.text));
    }

    #[test]
    fn campaign_resume_requires_checkpoint() {
        let e = run(&args(&["campaign", "x.blif", "--resume"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--checkpoint"));
    }

    #[test]
    fn positional_path_after_flag_values() {
        let tmp = write_reduced_blif();
        // The path follows a value-taking flag: must not be mistaken for
        // the flag's value.
        let out = run(&args(&[
            "campaign",
            "--max-faults",
            "100",
            "--seed",
            "3",
            tmp.as_str(),
        ]))
        .unwrap();
        assert_eq!(out.code, 0);
        assert!(out.text.contains("status: complete"));
    }

    #[test]
    fn normalize_roundtrips() {
        let tmp = write_reduced_blif();
        let out = cmd_normalize(tmp.as_str()).unwrap();
        let n = simcov_netlist::from_blif(&out).unwrap();
        assert_eq!(n.stats().latches, 8);
    }

    #[test]
    fn dot_output() {
        let tmp = write_reduced_blif();
        let out = cmd_dot(tmp.as_str()).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn missing_file_is_runtime_error() {
        let e = cmd_stats("/nonexistent/path.blif").unwrap_err();
        assert_eq!(e.code, 1);
    }

    #[test]
    fn flag_parsing() {
        let e = run(&args(&["distinguish", "x.blif"])).unwrap_err();
        assert!(e.message.contains("--k"));
        let e = run(&args(&["campaign", "x.blif", "--max-faults", "abc"])).unwrap_err();
        assert_eq!(e.code, 2);
    }

    /// Asserts `argv` is refused as a usage error naming `flag`.
    fn assert_unknown_flag(argv: &[&str], flag: &str) {
        let e = run(&args(argv)).unwrap_err();
        assert_eq!(e.code, 2, "{}", e.message);
        assert!(
            e.message.contains(&format!("unknown flag `{flag}`")),
            "{}",
            e.message
        );
    }

    #[test]
    fn misspelled_campaign_engine_flag_is_refused() {
        // Would otherwise run the default differential engine and exit 0.
        assert_unknown_flag(
            &[
                "campaign",
                "--dlx",
                "reduced-obs",
                "--max-faults",
                "100",
                "--egnine",
                "packed",
            ],
            "--egnine",
        );
    }

    #[test]
    fn close_refuses_the_removed_collapse_flag() {
        // Closure rounds simulate every fault; `--collapse` belongs to
        // `campaign` only.
        assert_unknown_flag(
            &[
                "close",
                "--dlx",
                "reduced-obs",
                "--max-faults",
                "50",
                "--rounds",
                "1",
                "--collapse",
                "on",
            ],
            "--collapse",
        );
    }

    #[test]
    fn misspelled_flag_is_refused_before_its_value_is_read_as_a_path() {
        // Would otherwise read `packed` as the model path and fail with
        // "cannot read packed" (exit 1).
        assert_unknown_flag(&["campaign", "--engin", "packed", "dlx.blif"], "--engin");
    }

    #[test]
    fn flags_are_checked_per_subcommand() {
        // `--help` passes everywhere; a flag another subcommand lists
        // does not.
        let e = run(&args(&["campaign", "--help"])).unwrap_err();
        assert!(
            e.message.contains("needs a model path or --dlx"),
            "{}",
            e.message
        );
        assert_unknown_flag(&["serve", "--metrics"], "--metrics");
    }
}
