//! The output oracle behind `error_rate`.
//!
//! Before the set-up clock starts, every distinct job of the seed cycle
//! gets an expected digest from an independent source:
//!
//! * explicit `campaign` and `close` jobs: the same spec under
//!   [`Engine::Naive`], with the `engine`/`wall:` fields stripped;
//! * `collapse: on` campaigns: the `collapse: off` run under the naive
//!   engine, compared on the `campaign:`/`stats:` lines;
//! * served jobs: the in-process CLI-path `execute` of the same spec;
//! * `dlx-full`: the counts committed below.
//!
//! A measured job passes when the digest of its exit code and normalised
//! output matches.

use crate::workloads::{execute_cli, local_batch, seed_cycle, JobResult, Workload, CYCLE};
use simcov_core::{CollapseMode, Engine};
use simcov_obs::fnv::Fnv64;
use simcov_serve::jobs::{JobKind, JobSpec};

/// The implicit campaign's counts on the full-width DLX at k=2, as
/// measured when the symbolic engine landed (unvalidated against the
/// paper's Sec 7.2 figures of 13,720 states and 8,228 valid inputs).
pub const DLX_FULL_COUNTS: &str =
    "  reachable states 1552 / cells 286859264 / valid inputs 184832\n  \
output flips   1147437056 detected of 1147437056\n  \
transfer flips 1771924544 detected of 6310903808 (4538979264 escapes)\n";

/// Which part of a report a check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Everything but the `wall:` line.
    NoWall,
    /// Everything but the `engine:` and `wall:` lines (and the JSON
    /// `engine` field of a closure report).
    NoEngine,
    /// Only the `campaign:` and `stats:` lines.
    Stats,
    /// Only the implicit campaign's count lines.
    ImplicitCounts,
}

impl View {
    /// Normalises a report for comparison.
    pub fn apply(self, text: &str) -> String {
        let keep = |pred: &dyn Fn(&str) -> bool| -> String {
            text.lines()
                .filter(|l| pred(l))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        match self {
            View::NoWall => keep(&|l| !l.starts_with("wall:")),
            View::NoEngine => {
                let s = keep(&|l| !l.starts_with("wall:") && !l.starts_with("engine:"));
                strip_json_engine(&s)
            }
            View::Stats => keep(&|l| l.starts_with("campaign:") || l.starts_with("stats:")),
            View::ImplicitCounts => keep(&|l| {
                ["  reachable ", "  output flips", "  transfer flips"]
                    .iter()
                    .any(|p| l.starts_with(p))
            }),
        }
    }
}

/// Drops a closure report's `"engine":"…",` member.
fn strip_json_engine(s: &str) -> String {
    match s.find("\"engine\":\"") {
        Some(at) => match s[at..].find("\",") {
            Some(end) => format!("{}{}", &s[..at], &s[at + end + 2..]),
            None => s.to_string(),
        },
        None => s.to_string(),
    }
}

/// Digest of an exit code and a normalised report.
pub fn digest(view: View, exit: i32, text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.u64(exit as u64);
    h.bytes(view.apply(text).as_bytes());
    h.finish()
}

/// One job's expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// The comparison view.
    pub view: View,
    /// The expected digest.
    pub digest: u64,
}

impl Expect {
    /// Whether a measured result matches.
    pub fn check(&self, got: &JobResult) -> bool {
        matches!(got, Ok((exit, text)) if digest(self.view, *exit, text) == self.digest)
    }
}

/// The expectations of every job of a run's seed cycle, indexed
/// `[batch % CYCLE][job]`.
#[derive(Debug, Clone)]
pub struct Oracle {
    slots: Vec<Vec<Expect>>,
}

fn oracle_spec(spec: &JobSpec) -> (JobSpec, View) {
    let mut spec = spec.clone();
    let view = match &mut spec.kind {
        JobKind::Campaign(o) if o.collapse != CollapseMode::Off => {
            o.collapse = CollapseMode::Off;
            o.engine = Engine::Naive;
            View::Stats
        }
        JobKind::Campaign(o) => {
            o.engine = Engine::Naive;
            View::NoEngine
        }
        JobKind::Close(o) => {
            o.engine = Engine::Naive;
            View::NoEngine
        }
        _ => View::NoWall,
    };
    (spec, view)
}

fn expect_from(view: View, r: JobResult) -> Result<Expect, String> {
    let (exit, text) = r?;
    Ok(Expect {
        view,
        digest: digest(view, exit, &text),
    })
}

impl Oracle {
    /// Computes the expectations for workload `w` under run seed `seed`.
    pub fn build(w: Workload, seed: u64) -> Result<Oracle, String> {
        if w == Workload::DlxFull {
            let e = Expect {
                view: View::ImplicitCounts,
                digest: digest(View::ImplicitCounts, 0, DLX_FULL_COUNTS),
            };
            return Ok(Oracle {
                slots: vec![vec![e]; CYCLE],
            });
        }
        let slots = seed_cycle(seed)
            .iter()
            .map(|&s| {
                local_batch(w, s)
                    .iter()
                    .map(|spec| {
                        if w == Workload::Serve {
                            expect_from(View::NoWall, execute_cli(spec))
                        } else {
                            let (spec, view) = oracle_spec(spec);
                            expect_from(view, execute_cli(&spec))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(Oracle { slots })
    }

    /// The expectations of batch `b`.
    pub fn batch(&self, b: usize) -> &[Expect] {
        &self.slots[b % CYCLE]
    }

    /// Corrupts one digest: a self-test that the gate catches a wrong
    /// output.
    pub fn tamper(&mut self) {
        self.slots[0][0].digest ^= 1;
    }

    /// Counts the results of batch `b` that do not match.
    pub fn failures(&self, b: usize, results: &[JobResult]) -> usize {
        let expect = self.batch(b);
        if expect.len() != results.len() {
            return results.len().max(1);
        }
        expect
            .iter()
            .zip(results)
            .filter(|(e, r)| !e.check(r))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_strip_what_legitimately_differs() {
        let a = "model: m\nengine: packed\ncampaign: 5/5\nstats: s\nwall: 1.0 ms\n";
        let b = "model: m\nengine: naive\ncampaign: 5/5\nstats: s\nwall: 9.9 ms\n";
        assert_eq!(View::NoEngine.apply(a), View::NoEngine.apply(b));
        assert_ne!(View::NoWall.apply(a), View::NoWall.apply(b));
        assert_eq!(View::Stats.apply(a), "campaign: 5/5\nstats: s\n");
        let ja = r#"{"schema":"simcov-close","engine":"differential","seed":3}"#;
        let jb = r#"{"schema":"simcov-close","engine":"naive","seed":3}"#;
        assert_eq!(View::NoEngine.apply(ja), View::NoEngine.apply(jb));
        assert_eq!(
            View::ImplicitCounts.apply(&format!("model: x\n{DLX_FULL_COUNTS}status: ok\n")),
            DLX_FULL_COUNTS
        );
    }

    #[test]
    fn digests_cover_exit_code_and_text() {
        let d = digest(View::NoWall, 0, "x\n");
        assert_ne!(d, digest(View::NoWall, 3, "x\n"));
        assert_ne!(d, digest(View::NoWall, 0, "y\n"));
        assert_eq!(d, digest(View::NoWall, 0, "x\nwall: 2 ms\n"));
    }

    #[test]
    fn tampered_oracle_fails_the_matching_job() {
        let mut o = Oracle::build(Workload::DlxFull, 0).unwrap();
        let good: Vec<JobResult> = vec![Ok((0, DLX_FULL_COUNTS.to_string()))];
        assert_eq!(o.failures(0, &good), 0);
        assert_eq!(o.failures(0, &[Err("boom".into())]), 1);
        o.tamper();
        assert_eq!(o.failures(0, &good), 1);
    }
}
