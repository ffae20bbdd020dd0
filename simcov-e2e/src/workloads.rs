//! The four workloads: the job specs each batch submits, and the closed
//! loop that runs batches through the entry points users hit.
//!
//! * `campaign`, `closure` and `dlx-full` call
//!   [`simcov_serve::jobs::execute`] with [`ExecCtx::default`] — exactly
//!   what the `simcov campaign` / `close` subcommands do.
//! * `serve` drives an in-process [`Server`] over loopback with two
//!   [`Client`] connections, as `simcov serve` + `simcov submit
//!   --connections 2` do.
//!
//! Every job pins `jobs` to 2 rather than "all cores", so a run means
//! the same thing on any host.

use simcov_core::{CollapseMode, Engine};
use simcov_obs::json::{self, Json};
use simcov_obs::Telemetry;
use simcov_prng::SplitMix64;
use simcov_serve::client::{self, Client};
use simcov_serve::jobs::{self, CampaignOpts, CloseOpts, ExecCtx, JobKind, JobSpec, ModelSource};
use simcov_serve::protocol::{parse_request, Request};
use simcov_serve::server::ServeSummary;
use simcov_serve::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Worker threads every job runs with.
pub const JOBS: usize = 2;
/// Batch seeds per run; batch `b` uses `cycle[b % CYCLE]`. Batch times
/// cluster by seed, so with few seeds the median batch of a run depends
/// on which seeds it drew; 32 keep that below the host's own noise.
pub const CYCLE: usize = 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four everyday `simcov campaign` jobs per batch.
    Campaign,
    /// A full-universe `close` plus a `--collapse on` campaign.
    Closure,
    /// The implicit symbolic campaign on the full-width DLX.
    DlxFull,
    /// Four wire jobs through a loopback server.
    Serve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Closure,
        Workload::DlxFull,
        Workload::Serve,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Closure => "closure",
            Workload::DlxFull => "dlx-full",
            Workload::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The batch seeds of a run: a SplitMix64 stream from the run seed,
/// truncated to 32 bits so they survive the wire protocol's JSON numbers
/// (parsed as `f64`) exactly.
pub fn seed_cycle(seed: u64) -> [u64; CYCLE] {
    let mut rng = SplitMix64::new(seed);
    std::array::from_fn(|_| rng.next_u64() >> 32)
}

fn dlx(which: &str) -> ModelSource {
    ModelSource::Dlx(which.to_string())
}

fn campaign(id: String, model: &str, opts: CampaignOpts) -> JobSpec {
    JobSpec {
        id,
        model: dlx(model),
        kind: JobKind::Campaign(opts),
    }
}

/// The `campaign` batch: {reduced-obs, reduced} × {differential, packed}
/// at the CLI defaults (2000 faults, k=2, collapse off).
pub fn campaign_batch(seed: u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for model in ["reduced-obs", "reduced"] {
        for engine in [Engine::Differential, Engine::Packed] {
            specs.push(campaign(
                format!("{model}-{engine}"),
                model,
                CampaignOpts {
                    seed,
                    jobs: JOBS,
                    engine,
                    ..CampaignOpts::default()
                },
            ));
        }
    }
    specs
}

/// The `closure` batch: `close` over all 12,672 faults of the hidden
/// reduced model, and a `--collapse on` campaign on reduced-obs.
pub fn closure_batch(seed: u64) -> Vec<JobSpec> {
    vec![
        JobSpec {
            id: "close-reduced".to_string(),
            model: dlx("reduced"),
            kind: JobKind::Close(CloseOpts {
                max_faults: 1 << 20,
                seed,
                rounds: 8,
                jobs: JOBS,
                engine: Engine::Differential,
                format: "json".to_string(),
                ..CloseOpts::default()
            }),
        },
        campaign(
            "collapse-reduced-obs".to_string(),
            "reduced-obs",
            CampaignOpts {
                seed,
                jobs: JOBS,
                collapse: CollapseMode::On,
                ..CampaignOpts::default()
            },
        ),
    ]
}

/// The `dlx-full` batch: the symbolic campaign on the full-width DLX test
/// model, which `execute` runs as the implicit campaign. It takes no
/// seed: the implicit campaign covers every single-bit-flip fault.
pub fn dlx_full_batch() -> Vec<JobSpec> {
    vec![campaign(
        "fig3b-symbolic".to_string(),
        "fig3b",
        CampaignOpts {
            k: 2,
            jobs: JOBS,
            engine: Engine::Symbolic,
            ..CampaignOpts::default()
        },
    )]
}

/// The `serve` batch as wire requests `(id, payload)`. `tag` makes the
/// ids unique per batch; the workers already run two jobs at once, so
/// each job runs single-threaded.
pub fn serve_batch(seed: u64, tag: &str) -> Vec<(String, String)> {
    let model = |m: &str| format!(r#""model":{{"dlx":"{m}"}}"#);
    let jobs = [
        (
            "campaign",
            format!(
                r#"{},"engine":"differential","k":2,"seed":{seed},"jobs":1"#,
                model("reduced-obs")
            ),
        ),
        (
            "campaign",
            format!(
                r#"{},"engine":"packed","k":2,"seed":{seed},"jobs":1"#,
                model("reduced")
            ),
        ),
        (
            "close",
            format!(
                r#"{},"format":"json","seed":{seed},"jobs":1"#,
                model("reduced")
            ),
        ),
        ("lint", model("reduced-obs")),
    ];
    jobs.iter()
        .enumerate()
        .map(|(i, (ty, body))| {
            let id = format!("{tag}-{i}");
            (
                id.clone(),
                format!(r#"{{"type":"{ty}","id":"{id}",{body}}}"#),
            )
        })
        .collect()
}

/// Parses a wire request into the spec the server would run.
pub fn wire_spec(payload: &str) -> Result<JobSpec, String> {
    let req = json::parse(payload).map_err(|e| e.to_string())?;
    match parse_request(&req)? {
        Request::Submit { spec, .. } => Ok(spec),
        _ => Err("not a job request".to_string()),
    }
}

/// The specs of one batch for a local workload.
pub fn local_batch(w: Workload, seed: u64) -> Vec<JobSpec> {
    match w {
        Workload::Campaign => campaign_batch(seed),
        Workload::Closure => closure_batch(seed),
        Workload::DlxFull => dlx_full_batch(),
        Workload::Serve => serve_batch(seed, "oracle")
            .iter()
            .map(|(_, p)| wire_spec(p).expect("generated requests parse"))
            .collect(),
    }
}

/// What a job produced: exit code and report text, or why it failed.
pub type JobResult = Result<(i32, String), String>;

/// Runs one spec on the CLI path.
pub fn execute_cli(spec: &JobSpec) -> JobResult {
    jobs::execute(spec, &Telemetry::new(), &ExecCtx::default())
        .map(|o| (o.status.code(), o.text))
        .map_err(|e| e.message)
}

fn frame_result(frame: Result<Json, client::ClientError>) -> JobResult {
    let frame = frame.map_err(|e| e.to_string())?;
    let exit = frame
        .get("exit")
        .and_then(Json::as_u64)
        .ok_or("result frame without `exit`")?;
    let output = frame
        .get("output")
        .and_then(Json::as_str)
        .ok_or("result frame without `output`")?;
    Ok((exit as i32, output.to_string()))
}

/// A loopback server with two client connections.
pub struct ServeRig {
    addr: String,
    clients: Vec<Client>,
    server: Option<JoinHandle<std::io::Result<ServeSummary>>>,
}

impl ServeRig {
    /// Binds a server with two workers, the default audit and cache and
    /// a journal at `journal`, and connects two clients.
    pub fn start(journal: &Path) -> std::io::Result<ServeRig> {
        let server = Server::bind(ServerConfig {
            workers: 2,
            journal: Some(journal.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let handle = std::thread::spawn(move || server.serve());
        let mut rig = ServeRig {
            addr,
            clients: Vec::new(),
            server: Some(handle),
        };
        for _ in 0..2 {
            rig.clients.push(Client::connect(&rig.addr)?);
        }
        Ok(rig)
    }

    /// Runs one batch: job `i` on connection `i % 2`, both connections
    /// concurrently, results in job order.
    pub fn batch(&mut self, requests: &[(String, String)]) -> Vec<JobResult> {
        let n = self.clients.len();
        let mut results: Vec<Option<JobResult>> = (0..requests.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        (c..requests.len())
                            .step_by(n)
                            .map(|i| {
                                let (id, payload) = &requests[i];
                                (i, frame_result(client.run_job(payload, id)))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("client thread does not panic") {
                    results[i] = Some(r);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every request was dispatched"))
            .collect()
    }

    /// The `i`-th client connection.
    pub fn client(&mut self, i: usize) -> &mut Client {
        &mut self.clients[i]
    }

    /// Asks the server to drain and waits for it to stop.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.server.take() else {
            return Ok(());
        };
        let asked = Client::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.request(&client::shutdown()).map_err(|e| e.to_string()));
        self.clients.clear();
        let served = handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        asked?;
        served.map(|_| ()).map_err(|e| e.to_string())
    }
}

impl Drop for ServeRig {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A private scratch directory under the output directory, removed on
/// drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<base>/tmp-<pid>`.
    pub fn new(base: &Path) -> std::io::Result<ScratchDir> {
        let dir = base.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs batches of one workload: the local ones through `execute`, the
/// served one through a [`ServeRig`].
pub enum Runner {
    /// CLI-path execution of pre-generated specs, one `Vec` per seed.
    Local(Vec<Vec<JobSpec>>),
    /// Wire execution; `tag` keeps job ids unique across set-ups.
    Serve {
        /// The server and its clients.
        rig: ServeRig,
        /// The batch seeds.
        cycle: Vec<u64>,
        /// Distinguishes this set-up's job ids.
        tag: usize,
    },
}

impl Runner {
    /// Sets a workload up: generates its specs or starts its server.
    pub fn setup(
        w: Workload,
        cycle: &[u64; CYCLE],
        scratch: &ScratchDir,
        tag: usize,
    ) -> std::io::Result<Runner> {
        Ok(match w {
            Workload::Serve => Runner::Serve {
                rig: ServeRig::start(&scratch.file(&format!("serve-{tag}.journal")))?,
                cycle: cycle.to_vec(),
                tag,
            },
            _ => Runner::Local(cycle.iter().map(|&s| local_batch(w, s)).collect()),
        })
    }

    /// Runs batch `b` and returns its jobs' results in job order.
    pub fn batch(&mut self, b: usize) -> Vec<JobResult> {
        match self {
            Runner::Local(specs) => specs[b % CYCLE].iter().map(execute_cli).collect(),
            Runner::Serve { rig, cycle, tag } => {
                rig.batch(&serve_batch(cycle[b % CYCLE], &format!("s{tag}-b{b}")))
            }
        }
    }

    /// Tears the workload down (stops the server).
    pub fn stop(self) -> Result<(), String> {
        match self {
            Runner::Local(_) => Ok(()),
            Runner::Serve { rig, .. } => rig.stop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_cycle_is_a_pure_function_of_the_seed() {
        assert_eq!(seed_cycle(1), seed_cycle(1));
        assert_ne!(seed_cycle(1), seed_cycle(2));
        assert!(seed_cycle(7).iter().all(|&s| s < 1 << 32));
    }

    #[test]
    fn serve_requests_parse_to_the_intended_specs() {
        let reqs = serve_batch(99, "t");
        let specs: Vec<JobSpec> = reqs.iter().map(|(_, p)| wire_spec(p).unwrap()).collect();
        assert_eq!(specs[0].id, "t-0");
        match &specs[1].kind {
            JobKind::Campaign(o) => {
                assert_eq!((o.seed, o.k, o.jobs, o.engine), (99, 2, 1, Engine::Packed));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(&specs[2].kind, JobKind::Close(o) if o.format == "json"));
        assert!(matches!(&specs[3].kind, JobKind::Lint { .. }));
    }
}
