//! The traced per-layer pass.
//!
//! Each job is decomposed into the public calls `jobs::execute` makes,
//! in the order it makes them, and every call is wrapped in a bench-side
//! span ([`crate::spans`]). A decomposed job only counts if it reproduces
//! what `execute` prints for the same spec — otherwise the layer numbers
//! would describe a different program — so every job also runs once
//! through `execute`, which doubles as the untraced twin for
//! `trace.overhead`.
//!
//! Calls that `execute` makes *inside* another call, or that only the
//! server makes, are timed as probes: root spans beside the job rather
//! than inside it (`core.packed_prep`, `serve.*`, `lint.run`).

use crate::oracle::{Oracle, View, DLX_FULL_COUNTS};
use crate::report::Metric;
use crate::spans::{self, SpanRec, Tracer};
use crate::workloads::{
    campaign_batch, closure_batch, dlx_full_batch, execute_cli, seed_cycle, serve_batch, wire_spec,
    JobResult, ScratchDir, ServeRig, Workload, CYCLE,
};
use simcov_analyze::{analyze_collapse, AnalyzeOptions};
use simcov_core::fingerprint::machine_fingerprint;
use simcov_core::{
    default_shard_size, enumerate_single_faults, extend_cyclically, run_sharded, ClosureConfig,
    ClosureDriver, CollapseMode, Engine, Fault, FaultSpace, GoldenTrace, ReplayScript,
    ResilientCampaign, ResilientRun,
};
use simcov_fsm::{ExplicitMealy, PackedMealy, PairFsm};
use simcov_obs::json::Json;
use simcov_obs::{names, Telemetry};
use simcov_serve::client;
use simcov_serve::jobs::{
    self, AuditPolicy, CampaignOpts, CloseOpts, ExecCtx, JobKind, JobSpec, ModelSource,
};
use simcov_serve::journal::ServerJournal;
use simcov_serve::TraceCache;
use simcov_tour::{generate_tour_traced, TestSet, TourKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Outcome of the traced pass over all four workloads.
#[derive(Debug)]
pub struct LayerRun {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Decomposed and served jobs attempted.
    pub attempted: usize,
    /// Jobs that failed, missed the oracle or did not reproduce
    /// `execute`.
    pub failed: usize,
}

/// Per-pass state: the span recorder plus per-job samples of values that
/// are not span durations.
struct Pass {
    tr: Tracer,
    next_job: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: usize,
    failed: usize,
    /// Batch wall times, traced (decomposed) and untraced (`execute`).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            tr: Tracer::default(),
            next_job: 0,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
        }
    }

    fn job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    fn sample(&mut self, metric: &'static str, v: f64) {
        self.samples.entry(metric).or_default().push(v);
    }

    /// Counts one job; `ok` is false for an error, an oracle miss or a
    /// decomposition that did not reproduce `execute`.
    fn judge(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!(
                "simcov-e2e: trace: {what} failed, missed the oracle or diverged from execute"
            );
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs_to_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One decomposed job: its root span, under which layer calls nest.
struct Job<'a> {
    tr: &'a Tracer,
    job: u64,
    root: u64,
}

impl Job<'_> {
    /// Times one layer call as a child of the job's root span.
    fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tr.span(Some(self.root), self.job, name, |_| f())
    }
}

fn dlx_name(model: &ModelSource) -> Result<&str, String> {
    match model {
        ModelSource::Dlx(which) => Ok(which),
        ModelSource::Blif { .. } => Err("benchmark jobs use built-in models".to_string()),
    }
}

/// The artefacts of a decomposed explicit job that probes reuse.
struct Explicit {
    machine: ExplicitMealy,
    faults: Vec<Fault>,
    tests: TestSet,
    trace: Arc<GoldenTrace>,
}

/// What a decomposed explicit campaign leaves behind for the pass.
struct CampaignJob {
    text: String,
    run: ResilientRun,
    artefacts: Explicit,
    tel: Telemetry,
    class_ratio: Option<f64>,
}

/// Runs `execute_campaign`'s explicit path call by call.
fn campaign_decomposed(
    tr: &Tracer,
    job: u64,
    model: &ModelSource,
    opts: &CampaignOpts,
) -> Result<CampaignJob, String> {
    let which = dlx_name(model)?;
    tr.span(None, job, "job", |root| {
        let j = Job { tr, job, root };
        let n = j
            .call("dlx.model", || jobs::dlx_netlist(which))
            .map_err(|e| e.message)?;
        let m = j
            .call("fsm.enumerate", || jobs::enumerate(&n))
            .map_err(|e| e.message)?;
        let tel = Telemetry::new();
        let tour = j
            .call("tour.postman", || {
                generate_tour_traced(&m, TourKind::Postman, &tel)
            })
            .map_err(|e| e.to_string())?;
        let faults = j.call("core.faults", || {
            enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: opts.max_faults,
                    seed: opts.seed,
                    ..FaultSpace::default()
                },
            )
        });
        let tests = TestSet::single(extend_cyclically(&tour.inputs, opts.k));
        tel.counter_add("campaign.faults_enumerated", faults.len() as u64);
        tel.gauge_set("campaign.test_vectors", tests.total_vectors() as u64);
        let trace = j.call("core.golden_trace", || {
            Arc::new(GoldenTrace::build(&m, &tests))
        });
        let analysis = match opts.collapse {
            CollapseMode::Off => None,
            _ => Some(
                j.call("analyze.collapse", || {
                    analyze_collapse(&m, &faults, &AnalyzeOptions::default())
                })
                .map_err(|e| format!("collapse analysis failed: {e}"))?,
            ),
        };
        let layer = match (&analysis, opts.engine) {
            (Some(_), _) => "core.collapse_campaign",
            (None, Engine::Packed) => "core.simulate_packed",
            (None, _) => "core.simulate_differential",
        };
        let run = j
            .call(layer, || {
                let mut c = ResilientCampaign::new(&m, &faults, &tests)
                    .engine(opts.engine)
                    .jobs(opts.jobs)
                    .max_retries(opts.max_retries)
                    .telemetry(tel.clone())
                    .golden_trace(Arc::clone(&trace));
                if let Some(a) = &analysis {
                    c = c.collapse(&a.certificate, opts.collapse);
                }
                c.run()
            })
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        let _ = writeln!(out, "model: {m:?}");
        let _ = writeln!(out, "tour: {tour} (extended by k={})", opts.k);
        let _ = writeln!(out, "engine: {}", opts.engine);
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
        }
        if run.is_complete {
            let _ = writeln!(out, "status: complete ({} shards)", run.total_shards);
        } else {
            let _ = writeln!(out, "status: partial");
        }
        let _ = writeln!(
            out,
            "wall: {:.1} ms on {} worker threads",
            run.wall.as_secs_f64() * 1e3,
            run.jobs
        );
        for esc in run.report.escapes().take(8) {
            let _ = writeln!(out, "  escape: {}", esc.fault);
        }
        let class_ratio = analysis
            .as_ref()
            .map(|a| a.stats.classes as f64 / a.stats.faults.max(1) as f64);
        Ok(CampaignJob {
            text: out,
            run,
            artefacts: Explicit {
                machine: m,
                faults,
                tests,
                trace,
            },
            tel,
            class_ratio,
        })
    })
}

/// Runs `execute_close` call by call (no collapse), rendering the JSON
/// report. Returns the report, the rounds run and the steps added.
fn close_decomposed(
    tr: &Tracer,
    job: u64,
    model: &ModelSource,
    opts: &CloseOpts,
) -> Result<(String, usize, u64), String> {
    let which = dlx_name(model)?;
    tr.span(None, job, "job", |root| {
        let j = Job { tr, job, root };
        let n = j
            .call("dlx.model", || jobs::dlx_netlist(which))
            .map_err(|e| e.message)?;
        let m = j
            .call("fsm.enumerate", || jobs::enumerate(&n))
            .map_err(|e| e.message)?;
        let faults = j.call("core.faults", || {
            enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: opts.max_faults,
                    seed: opts.seed,
                    ..FaultSpace::default()
                },
            )
        });
        let tel = Telemetry::new();
        tel.counter_add("campaign.faults_enumerated", faults.len() as u64);
        let config = ClosureConfig {
            max_rounds: opts.rounds,
            max_steps: opts.budget,
            seed: opts.seed,
            engine: opts.engine,
            jobs: opts.jobs,
            ..ClosureConfig::default()
        };
        let run = j.call("core.closure", || {
            ClosureDriver::new(&m, &faults, config)
                .telemetry(tel.clone())
                .run()
        });
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"simcov-close\",\"version\":1,\
             \"fingerprint\":\"{:#018x}\",\"engine\":\"{}\",\"seed\":{},\
             \"faults\":{},\"classes\":{},\"rounds\":[",
            machine_fingerprint(&m),
            opts.engine,
            opts.seed,
            faults.len(),
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
        Ok((out, run.rounds.len(), run.total_steps))
    })
}

/// BDD effort of an implicit campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BddEffort {
    unique_nodes: u64,
    ite_cache_hits: u64,
    ite_cache_misses: u64,
    gc_collections: u64,
}

/// Runs `run_implicit_campaign` call by call, sharding the per-flip work
/// exactly as it does, and renders the count lines of its report.
fn implicit_decomposed(
    tr: &Tracer,
    job: u64,
    model: &ModelSource,
    opts: &CampaignOpts,
) -> Result<(String, BddEffort), String> {
    let which = dlx_name(model)?;
    tr.span(None, job, "job", |root| {
        let j = Job { tr, job, root };
        let n = j
            .call("dlx.model", || jobs::dlx_netlist(which))
            .map_err(|e| e.message)?;
        let names: Vec<String> = n.input_names().map(str::to_string).collect();
        let (mut pf, v) = j.call("fsm.pair_build", || {
            let mut pf = PairFsm::from_netlist(&n);
            let vars: Vec<_> = names
                .iter()
                .map(|nm| pf.input_var_by_name(nm).expect("netlist input present"))
                .collect();
            let v = simcov_dlx::testmodel::valid_inputs_constraint(pf.mgr(), &|name| {
                vars[names
                    .iter()
                    .position(|nm| nm == name)
                    .expect("constraint names a model input")]
            });
            pf.set_valid_inputs(v);
            (pf, v)
        });
        let prep = j.call("fsm.pair_reach", || {
            pf.transfer_detect_prep(&n.initial_state(), opts.k.max(1))
        });
        let (nl, ni, no) = (n.num_latches(), n.num_inputs(), n.num_outputs());
        let total_vars = 4 * nl + ni;
        let valid_inputs = if total_vars > 127 {
            u128::MAX
        } else {
            pf.mgr_ref().sat_count(v, total_vars as u32) >> (4 * nl)
        };
        let output_faults = prep.reachable_cells.saturating_mul(no as u128);
        let transfer_faults = prep.reachable_cells.saturating_mul(nl as u128);
        let base_nodes = pf.mgr_ref().num_nodes() as u64;
        let base_rs = pf.mgr_ref().runtime_stats();
        let flips: Vec<usize> = (0..nl).collect();
        let shards = tr.span(Some(root), job, "fsm.flips", |flips_span| {
            run_sharded(
                &flips,
                default_shard_size(flips.len()),
                opts.jobs,
                |_, shard| {
                    tr.span(Some(flips_span), job, "fsm.flip", |_| {
                        let mut local = pf.clone();
                        let det = shard.iter().fold(0u128, |d, &flip| {
                            d.saturating_add(local.transfer_flip_detectable(&prep, flip))
                        });
                        let rs = local.mgr_ref().runtime_stats().since(&base_rs);
                        (det, rs, local.mgr_ref().num_nodes() as u64 - base_nodes)
                    })
                },
            )
        });
        let mut effort = BddEffort {
            unique_nodes: base_nodes,
            ite_cache_hits: base_rs.ite_cache_hits,
            ite_cache_misses: base_rs.ite_cache_misses,
            gc_collections: base_rs.gc_collections,
        };
        let mut transfer_detected = 0u128;
        for (det, rs, nodes) in &shards {
            transfer_detected = transfer_detected.saturating_add(*det);
            effort.unique_nodes += nodes;
            effort.ite_cache_hits += rs.ite_cache_hits;
            effort.ite_cache_misses += rs.ite_cache_misses;
            effort.gc_collections += rs.gc_collections;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  reachable states {} / cells {} / valid inputs {valid_inputs}",
            prep.reachable_states, prep.reachable_cells
        );
        let _ = writeln!(
            out,
            "  output flips   {output_faults} detected of {output_faults}"
        );
        let _ = writeln!(
            out,
            "  transfer flips {transfer_detected} detected of {transfer_faults} ({} escapes)",
            transfer_faults.saturating_sub(transfer_detected)
        );
        Ok((out, effort))
    })
}

/// Runs the campaign workload's batches decomposed, each job beside its
/// `execute` twin.
fn campaign_pass(p: &mut Pass, oracle: &Oracle, cycle: &[u64; CYCLE], budget: f64) {
    let t0 = Instant::now();
    let mut b = 0;
    while b == 0 || t0.elapsed().as_secs_f64() < budget {
        let (mut traced, mut untraced) = (0.0, 0.0);
        for (j, spec) in campaign_batch(cycle[b % CYCLE]).iter().enumerate() {
            let JobKind::Campaign(opts) = &spec.kind else {
                unreachable!("campaign batches hold campaign jobs")
            };
            let t = Instant::now();
            let exec = execute_cli(spec);
            untraced += secs_to_ms(t);
            let job = p.job();
            let t = Instant::now();
            let got = campaign_decomposed(&p.tr, job, &spec.model, opts);
            traced += secs_to_ms(t);
            let ok = match got {
                Ok(c) => {
                    let (run, x) = (&c.run, &c.artefacts);
                    if opts.engine == Engine::Packed {
                        p.tr.span(None, job, "core.packed_prep", |_| {
                            let tables = PackedMealy::from_explicit(&x.machine);
                            let script = ReplayScript::build(&x.trace, &x.tests);
                            std::hint::black_box((tables, script));
                        });
                        let lanes = 64.0 * run.packed.packed_words.max(1) as f64;
                        p.sample(
                            "core.lane_occupancy",
                            run.packed.lanes_active as f64 / lanes,
                        );
                    }
                    let busy = c
                        .tel
                        .snapshot()
                        .span("campaign/shard")
                        .map_or(0.0, |s| s.total.as_secs_f64());
                    let capacity = run.wall.as_secs_f64() * run.jobs.max(1) as f64;
                    p.sample("core.worker_utilization", busy / capacity.max(1e-9));
                    p.sample(
                        "core.replays_per_fault",
                        run.diff.divergence_replays as f64 / x.faults.len().max(1) as f64,
                    );
                    same(&exec, &c.text) && oracle.batch(b)[j].check(&exec)
                }
                Err(_) => false,
            };
            p.judge(ok, &spec.id);
        }
        p.traced_ms.push(traced);
        p.untraced_ms.push(untraced);
        b += 1;
    }
}

/// Whether a decomposed report reproduces `execute`'s (modulo `wall:`).
fn same(exec: &JobResult, decomposed: &str) -> bool {
    matches!(exec, Ok((_, text)) if View::NoWall.apply(text) == View::NoWall.apply(decomposed))
}

fn closure_pass(p: &mut Pass, oracle: &Oracle, cycle: &[u64; CYCLE], budget: f64) {
    let t0 = Instant::now();
    let mut b = 0;
    while b == 0 || t0.elapsed().as_secs_f64() < budget {
        for (j, spec) in closure_batch(cycle[b % CYCLE]).iter().enumerate() {
            let exec = execute_cli(spec);
            let job = p.job();
            let ok = match &spec.kind {
                JobKind::Close(opts) => match close_decomposed(&p.tr, job, &spec.model, opts) {
                    Ok((text, rounds, steps)) => {
                        p.sample("core.closure_rounds", rounds as f64);
                        p.sample("core.closure_steps", steps as f64);
                        same(&exec, &text)
                    }
                    Err(_) => false,
                },
                JobKind::Campaign(opts) => match campaign_decomposed(&p.tr, job, &spec.model, opts)
                {
                    Ok(c) => {
                        if let Some(r) = c.class_ratio {
                            p.sample("analyze.class_ratio", r);
                        }
                        same(&exec, &c.text)
                    }
                    Err(_) => false,
                },
                _ => false,
            };
            p.judge(ok && oracle.batch(b)[j].check(&exec), &spec.id);
        }
        b += 1;
    }
}

fn dlx_pass(p: &mut Pass, oracle: &Oracle, budget: f64) {
    let t0 = Instant::now();
    let mut b = 0;
    while b == 0 || t0.elapsed().as_secs_f64() < budget {
        for (j, spec) in dlx_full_batch().iter().enumerate() {
            let JobKind::Campaign(opts) = &spec.kind else {
                unreachable!("the dlx-full batch is one campaign")
            };
            let tel = Telemetry::new();
            let exec: JobResult = jobs::execute(spec, &tel, &ExecCtx::default())
                .map(|o| (o.status.code(), o.text))
                .map_err(|e| e.message);
            let job = p.job();
            let ok = match implicit_decomposed(&p.tr, job, &spec.model, opts) {
                Ok((text, effort)) => {
                    let snap = tel.snapshot();
                    let counted = BddEffort {
                        unique_nodes: snap.counter(names::BDD_UNIQUE_NODES).unwrap_or(0),
                        ite_cache_hits: snap.counter(names::BDD_ITE_CACHE_HITS).unwrap_or(0),
                        ite_cache_misses: snap.counter(names::BDD_ITE_CACHE_MISSES).unwrap_or(0),
                        gc_collections: snap.counter(names::BDD_GC_COLLECTIONS).unwrap_or(0),
                    };
                    let lookups = effort.ite_cache_hits + effort.ite_cache_misses;
                    p.sample(
                        "bdd.ite_cache_hit_ratio",
                        effort.ite_cache_hits as f64 / lookups.max(1) as f64,
                    );
                    p.sample("bdd.unique_nodes", effort.unique_nodes as f64);
                    p.sample("bdd.gc_collections", effort.gc_collections as f64);
                    text == DLX_FULL_COUNTS
                        && counted == effort
                        && matches!(&exec, Ok((_, t)) if View::ImplicitCounts.apply(t) == text)
                }
                Err(_) => false,
            };
            p.judge(ok && oracle.batch(b)[j].check(&exec), &spec.id);
        }
        b += 1;
    }
}

/// The pieces of a campaign job the server's audit consumes, built
/// untraced (the traced campaign pass already times them).
fn audit_inputs(spec: &JobSpec) -> Result<Explicit, String> {
    let JobKind::Campaign(opts) = &spec.kind else {
        return Err("audits apply to campaigns".to_string());
    };
    Ok(campaign_decomposed(&Tracer::default(), 0, &spec.model, opts)?.artefacts)
}

fn serve_pass(
    p: &mut Pass,
    oracle: &Oracle,
    cycle: &[u64; CYCLE],
    budget: f64,
    scratch: &ScratchDir,
) -> Result<f64, String> {
    let mut rig =
        ServeRig::start(&scratch.file("trace-serve.journal")).map_err(|e| e.to_string())?;
    let probe_journal =
        ServerJournal::create(scratch.file("trace-probe.journal")).map_err(|e| e.to_string())?;
    // The server-side context `process_job` builds: cache plus audit.
    let cache = TraceCache::new(8);
    let ctx = ExecCtx {
        cache: Some(&cache),
        audit: Some(AuditPolicy::default()),
        force_audit_fail: None,
    };
    let t0 = Instant::now();
    let mut b = 0;
    while b == 0 || t0.elapsed().as_secs_f64() < budget {
        let requests = serve_batch(cycle[b % CYCLE], &format!("trace-b{b}"));
        for (i, (id, payload)) in requests.iter().enumerate() {
            let job = p.job();
            let spec = wire_spec(payload)?;
            let served = p.tr.span(None, job, "serve.round_trip", |_| {
                rig.client(i % 2).run_job(payload, id)
            });
            let served: JobResult = served.map_err(|e| e.to_string()).and_then(|f| {
                match (
                    f.get("exit").and_then(Json::as_u64),
                    f.get("output").and_then(Json::as_str),
                ) {
                    (Some(exit), Some(out)) => Ok((exit as i32, out.to_string())),
                    _ => Err("malformed result frame".to_string()),
                }
            });
            let exec: JobResult = p.tr.span(None, job, "serve.execute", |_| {
                jobs::execute(&spec, &Telemetry::new(), &ctx)
                    .map(|o| (o.status.code(), o.text))
                    .map_err(|e| e.message)
            });
            p.tr.span(None, job, "serve.journal_admit", |_| {
                probe_journal.admit(spec.fingerprint(), payload)
            })
            .map_err(|e| e.to_string())?;
            match &spec.kind {
                JobKind::Campaign(opts) => {
                    let x = audit_inputs(&spec)?;
                    let passed = p.tr.span(None, job, "serve.audit", |_| {
                        jobs::audit_engine(
                            &x.machine,
                            &x.trace,
                            &x.faults,
                            &x.tests,
                            opts.engine,
                            AuditPolicy::default(),
                            None,
                        )
                    });
                    if !passed {
                        p.judge(false, &format!("{id} (audit)"));
                    }
                }
                JobKind::Lint { .. } => {
                    let linted = p.tr.span(None, job, "lint.run", |_| execute_cli(&spec));
                    if !same(&served, linted.as_ref().map_or("", |(_, t)| t.as_str())) {
                        p.judge(false, &format!("{id} (lint)"));
                    }
                }
                _ => {}
            }
            let agree = matches!((&served, &exec), (Ok(a), Ok(b)) if a.0 == b.0
                && View::NoWall.apply(&a.1) == View::NoWall.apply(&b.1));
            p.judge(agree && oracle.batch(b)[i].check(&served), id);
        }
        let job = p.job();
        p.tr.span(None, job, "serve.stats_rtt", |_| {
            rig.client(0).request(&client::stats())
        })
        .map_err(|e| e.to_string())?;
        b += 1;
    }
    let stats = rig
        .client(0)
        .request(&client::stats())
        .map_err(|e| e.to_string())?;
    let counter = |name| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let (hits, misses) = (
        counter(names::SERVE_CACHE_HITS),
        counter(names::SERVE_CACHE_MISSES),
    );
    rig.stop()?;
    Ok(hits / (hits + misses).max(1.0))
}

/// Groups spans by job.
fn by_job(spans: &[SpanRec]) -> BTreeMap<u64, Vec<&SpanRec>> {
    let mut jobs: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        jobs.entry(s.job).or_default().push(s);
    }
    jobs
}

/// Per-job total duration (ms) of every span called `name`, over the
/// jobs that have one.
fn per_job_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    by_job(spans)
        .values()
        .filter_map(|ss| {
            let durs: Vec<u64> = ss
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns())
                .collect();
            (!durs.is_empty()).then(|| ms(durs.iter().sum()))
        })
        .collect()
}

/// Span-derived samples of one pass, keyed by metric name.
fn span_samples(w: Workload, spans: &[SpanRec]) -> Vec<(&'static str, Vec<f64>)> {
    let direct: &[(&'static str, &str)] = match w {
        Workload::Campaign => &[
            ("fsm.enumerate_ms", "fsm.enumerate"),
            ("tour.postman_ms", "tour.postman"),
            ("core.faults_ms", "core.faults"),
            ("core.golden_trace_ms", "core.golden_trace"),
            ("core.packed_prep_ms", "core.packed_prep"),
            (
                "core.simulate_differential_ms",
                "core.simulate_differential",
            ),
            ("core.simulate_packed_ms", "core.simulate_packed"),
        ],
        Workload::Closure => &[
            ("core.closure_ms", "core.closure"),
            ("core.collapse_campaign_ms", "core.collapse_campaign"),
            ("analyze.collapse_ms", "analyze.collapse"),
        ],
        Workload::DlxFull => &[
            ("dlx.model_ms", "dlx.model"),
            ("fsm.pair_build_ms", "fsm.pair_build"),
            ("fsm.pair_reach_ms", "fsm.pair_reach"),
            ("fsm.flip_sum_ms", "fsm.flip"),
        ],
        Workload::Serve => &[
            ("serve.round_trip_ms", "serve.round_trip"),
            ("serve.execute_ms", "serve.execute"),
            ("serve.stats_rtt_ms", "serve.stats_rtt"),
            ("serve.audit_ms", "serve.audit"),
            ("serve.journal_admit_ms", "serve.journal_admit"),
            ("lint.run_ms", "lint.run"),
        ],
    };
    let mut out: Vec<(&'static str, Vec<f64>)> = direct
        .iter()
        .map(|&(metric, span)| (metric, per_job_ms(spans, span)))
        .collect();
    let jobs = by_job(spans);
    match w {
        Workload::Campaign => out.push((
            "jobs.other_ms",
            spans
                .iter()
                .filter(|s| s.name == "job")
                .map(|s| ms(spans::self_time_ns(s, spans)))
                .collect(),
        )),
        Workload::DlxFull => {
            let flips: Vec<Vec<f64>> = jobs
                .values()
                .map(|ss| {
                    ss.iter()
                        .filter(|s| s.name == "fsm.flip")
                        .map(|s| ms(s.dur_ns()))
                        .collect::<Vec<_>>()
                })
                .filter(|v| !v.is_empty())
                .collect();
            let max = |v: &Vec<f64>| v.iter().copied().fold(0.0, f64::max);
            let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
            out.push(("fsm.flip_max_ms", flips.iter().map(max).collect()));
            out.push((
                "fsm.flip_imbalance",
                flips.iter().map(|v| max(v) / mean(v).max(1e-9)).collect(),
            ));
        }
        Workload::Serve => out.push((
            "serve.wire_ms",
            jobs.values()
                .filter_map(|ss| {
                    let dur = |n| ss.iter().find(|s| s.name == n).map(|s| ms(s.dur_ns()));
                    Some(dur("serve.round_trip")? - dur("serve.execute")?)
                })
                .collect(),
        )),
        Workload::Closure => {}
    }
    out
}

/// Runs the traced pass: each workload for a quarter of `seconds` (at
/// least one batch), writing `TRACE_<workload>.jsonl` into `out_dir`.
pub fn run(seed: u64, seconds: f64, out_dir: &Path, tamper: bool) -> Result<LayerRun, String> {
    let cycle = seed_cycle(seed);
    let scratch = ScratchDir::new(out_dir).map_err(|e| e.to_string())?;
    let budget = seconds / Workload::ALL.len() as f64;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in Workload::ALL {
        let mut oracle = Oracle::build(w, seed)?;
        if tamper {
            oracle.tamper();
        }
        let mut p = Pass::new();
        match w {
            Workload::Campaign => campaign_pass(&mut p, &oracle, &cycle, budget),
            Workload::Closure => closure_pass(&mut p, &oracle, &cycle, budget),
            Workload::DlxFull => dlx_pass(&mut p, &oracle, budget),
            Workload::Serve => {
                let ratio = serve_pass(&mut p, &oracle, &cycle, budget, &scratch)?;
                p.sample("serve.cache_hit_ratio", ratio);
            }
        }
        let spans = p.tr.spans();
        std::fs::write(
            out_dir.join(format!("TRACE_{}.jsonl", w.name())),
            spans::to_jsonl(&spans),
        )
        .map_err(|e| format!("cannot write the {} trace: {e}", w.name()))?;
        for (metric, v) in span_samples(w, &spans) {
            samples.entry(metric).or_default().extend(v);
        }
        if w == Workload::Campaign {
            let overhead = match (
                crate::stats::median(&p.traced_ms),
                crate::stats::median(&p.untraced_ms),
            ) {
                (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
                _ => f64::NAN,
            };
            samples.entry("trace.overhead").or_default().push(overhead);
        }
        for (metric, v) in p.samples {
            samples.entry(metric).or_default().extend(v);
        }
        attempted += p.attempted;
        failed += p.failed;
    }
    let metrics = samples
        .into_iter()
        .filter_map(|(name, v)| {
            Some(Metric {
                name: name.to_string(),
                value: crate::stats::median(&v)?,
                unit: String::new(),
                samples: v.len(),
            })
        })
        .collect();
    Ok(LayerRun {
        metrics,
        attempted,
        failed,
    })
}
