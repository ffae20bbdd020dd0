//! The crash-safe server journal (`simcov-serve-journal v1`).
//!
//! The durability contract: a job is acknowledged as *admitted* only
//! after its `admit` record has reached disk (fsync), and a finished
//! job's result is recorded with a `done` record. On `serve --resume`,
//! jobs with an `admit` but no matching `done` are re-queued and re-run
//! — and because every job is a pure function of its spec, the re-run's
//! result is byte-identical to what the crashed server would have
//! produced. Completed results are *restored*, not re-run, so a client
//! polling `query` after a server restart sees exactly the bytes the
//! first execution produced.
//!
//! The format is a [`simcov_obs::recordlog`], the append-only log the
//! campaign checkpoint journal also uses: one self-checking line per
//! record, the FNV-64 of the record body after `crc=`. For example:
//!
//! ```text
//! simcov-serve-journal v1
//! admit 0000000000004f1c "{\"type\":\"tour\",\"id\":\"a\"}" crc=645ce6712f413fb0
//! done 0000000000004f1c "{\"type\":\"result\",\"id\":\"a\",\"exit\":0}" crc=eda506fe16e035e2
//! ```
//!
//! `admit` stores the original *request frame payload*, not a re-encoded
//! spec: resume re-parses it through the same [`crate::protocol`] path a
//! live request takes, so a journaled job cannot drift from its wire
//! meaning. Torn or corrupt lines are skipped and every intact record
//! around them is kept; reopening cuts a torn tail off before the next
//! record is appended.

use simcov_obs::json::{self, Json};
use simcov_obs::recordlog::{self, RecordLog};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &str = "simcov-serve-journal v1";

fn parse_record(body: &str) -> Option<Entry> {
    let (kind, rest) = body.split_once(' ')?;
    let (fp, quoted) = rest.split_once(' ')?;
    let fingerprint = u64::from_str_radix(fp, 16).ok()?;
    // The payload is a JSON string literal; the shared parser unescapes it.
    let Json::Str(payload) = json::parse(quoted).ok()? else {
        return None;
    };
    match kind {
        "admit" => Some(Entry::Admit {
            fingerprint,
            request: payload,
        }),
        "done" => Some(Entry::Done {
            fingerprint,
            result: payload,
        }),
        _ => None,
    }
}

/// One recovered journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// An admitted job: the original request frame payload.
    Admit {
        /// The job-spec fingerprint the admission was keyed by.
        fingerprint: u64,
        /// The request JSON exactly as the client sent it.
        request: String,
    },
    /// A finished job: the result frame payload.
    Done {
        /// The job-spec fingerprint.
        fingerprint: u64,
        /// The result JSON exactly as the server sent it.
        result: String,
    },
}

/// The append-only server journal. Writes are serialized by an internal
/// mutex; `admit` records are fsynced before returning (the ack barrier),
/// `done` records are flushed but ride the next sync.
pub struct ServerJournal {
    path: PathBuf,
    log: Mutex<RecordLog>,
    /// Chaos hook: when set, every write reports failure after `n` more
    /// successful records (deterministic injection for the journal-fault
    /// tests). `usize::MAX` disables.
    #[cfg(feature = "chaos")]
    fail_after: std::sync::atomic::AtomicUsize,
}

impl ServerJournal {
    fn with_log(path: PathBuf, log: RecordLog) -> ServerJournal {
        ServerJournal {
            path,
            log: Mutex::new(log),
            #[cfg(feature = "chaos")]
            fail_after: std::sync::atomic::AtomicUsize::new(usize::MAX),
        }
    }

    /// Creates (or truncates) a journal at `path` and writes the header.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<ServerJournal> {
        let path = path.as_ref().to_path_buf();
        let log = RecordLog::create(&path, MAGIC)?;
        log.sync()?;
        Ok(ServerJournal::with_log(path, log))
    }

    /// Opens an existing journal for appending (after [`ServerJournal::recover`]),
    /// cutting off any torn tail first.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<ServerJournal> {
        let path = path.as_ref().to_path_buf();
        let log = RecordLog::reopen(&path)?;
        Ok(ServerJournal::with_log(path, log))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arms the deterministic write-failure injection: the next `n`
    /// records succeed, every later one fails.
    #[cfg(feature = "chaos")]
    pub fn chaos_fail_after(&self, n: usize) {
        self.fail_after
            .store(n, std::sync::atomic::Ordering::SeqCst);
    }

    fn write_record(
        &self,
        kind: &str,
        fingerprint: u64,
        payload: &str,
        sync: bool,
    ) -> std::io::Result<()> {
        #[cfg(feature = "chaos")]
        {
            use std::sync::atomic::Ordering;
            let remaining = self.fail_after.load(Ordering::SeqCst);
            if remaining != usize::MAX {
                if remaining == 0 {
                    return Err(std::io::Error::other("chaos: journal write failed"));
                }
                self.fail_after.store(remaining - 1, Ordering::SeqCst);
            }
        }
        let body = format!("{kind} {fingerprint:016x} \"{}\"", json::escape(payload));
        let mut log = self
            .log
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        log.append(&body)?;
        if sync {
            log.sync()?;
        }
        Ok(())
    }

    /// Records an admission (fsynced — the ack barrier).
    pub fn admit(&self, fingerprint: u64, request: &str) -> std::io::Result<()> {
        self.write_record("admit", fingerprint, request, true)
    }

    /// Records a finished job's result (flushed, synced opportunistically
    /// with the next admit).
    pub fn done(&self, fingerprint: u64, result: &str) -> std::io::Result<()> {
        self.write_record("done", fingerprint, result, false)
    }

    /// Reads a journal back, skipping torn or corrupt records. Returns
    /// the intact entries in write order; the caller pairs `admit`s with
    /// `done`s.
    pub fn recover(path: impl AsRef<Path>) -> std::io::Result<Vec<Entry>> {
        let recovered = recordlog::recover(path.as_ref(), MAGIC)?;
        Ok(recovered
            .records
            .iter()
            .filter_map(|body| parse_record(body))
            .collect())
    }
}

/// A recovered record: the request fingerprint plus its payload (a
/// completed result or an unfinished request frame).
pub type Recovered = Vec<(u64, String)>;

/// Splits recovered entries into (completed results, unfinished request
/// payloads), both in first-write order and deduplicated by fingerprint.
pub fn unfinished(entries: &[Entry]) -> (Recovered, Recovered) {
    let mut done_fps = std::collections::HashSet::new();
    let mut completed = Vec::new();
    for e in entries {
        if let Entry::Done {
            fingerprint,
            result,
        } = e
        {
            if done_fps.insert(*fingerprint) {
                completed.push((*fingerprint, result.clone()));
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    let mut pending = Vec::new();
    for e in entries {
        if let Entry::Admit {
            fingerprint,
            request,
        } = e
        {
            if !done_fps.contains(fingerprint) && seen.insert(*fingerprint) {
                pending.push((*fingerprint, request.clone()));
            }
        }
    }
    (completed, pending)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "simcov-serve-journal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn roundtrips_admit_and_done() {
        let path = tempfile("roundtrip");
        let j = ServerJournal::create(&path).unwrap();
        j.admit(
            0xabc,
            r#"{"type":"stats","note":"with \"quotes\" and
newline"}"#,
        )
        .unwrap();
        j.done(0xabc, r#"{"type":"result"}"#).unwrap();
        j.admit(0xdef, r#"{"type":"tour"}"#).unwrap();
        drop(j);
        let entries = ServerJournal::recover(&path).unwrap();
        assert_eq!(entries.len(), 3);
        let (completed, pending) = unfinished(&entries);
        assert_eq!(completed, vec![(0xabc, r#"{"type":"result"}"#.to_string())]);
        assert_eq!(pending, vec![(0xdef, r#"{"type":"tour"}"#.to_string())]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_bytes_are_pinned() {
        // The module-doc example, byte for byte: journals written before
        // the shared record log recover unchanged, and new ones match.
        let expected = concat!(
            "simcov-serve-journal v1\n",
            r#"admit 0000000000004f1c "{\"type\":\"tour\",\"id\":\"a\"}" crc=645ce6712f413fb0"#,
            "\n",
            r#"done 0000000000004f1c "{\"type\":\"result\",\"id\":\"a\",\"exit\":0}" crc=eda506fe16e035e2"#,
            "\n",
        );
        let request = r#"{"type":"tour","id":"a"}"#;
        let result = r#"{"type":"result","id":"a","exit":0}"#;
        let path = tempfile("pinned");
        let j = ServerJournal::create(&path).unwrap();
        j.admit(0x4f1c, request).unwrap();
        j.done(0x4f1c, result).unwrap();
        drop(j);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        std::fs::write(&path, expected).unwrap();
        assert_eq!(
            ServerJournal::recover(&path).unwrap(),
            vec![
                Entry::Admit {
                    fingerprint: 0x4f1c,
                    request: request.to_string(),
                },
                Entry::Done {
                    fingerprint: 0x4f1c,
                    result: result.to_string(),
                },
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_after_a_torn_admit_survive_resume() {
        // A kill mid-append leaves an `admit` fragment with no newline.
        // Reopening must cut it off, so the next records start on a
        // clean line and survive the following recovery.
        let path = tempfile("torn_resume");
        let j = ServerJournal::create(&path).unwrap();
        j.admit(1, r#"{"type":"tour","id":"a"}"#).unwrap();
        j.admit(2, r#"{"type":"tour","id":"b"}"#).unwrap();
        drop(j);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let entries = ServerJournal::recover(&path).unwrap();
        assert_eq!(entries.len(), 1, "the torn admit is not recovered");
        let j = ServerJournal::append(&path).unwrap();
        j.admit(3, r#"{"type":"tour","id":"c"}"#).unwrap();
        j.done(1, r#"{"type":"result","id":"a"}"#).unwrap();
        drop(j);
        let entries = ServerJournal::recover(&path).unwrap();
        assert!(
            entries.contains(&Entry::Admit {
                fingerprint: 3,
                request: r#"{"type":"tour","id":"c"}"#.to_string(),
            }),
            "{entries:?}"
        );
        assert!(
            entries.contains(&Entry::Done {
                fingerprint: 1,
                result: r#"{"type":"result","id":"a"}"#.to_string(),
            }),
            "{entries:?}"
        );
        let (completed, pending) = unfinished(&entries);
        assert_eq!(completed.len(), 1);
        assert_eq!(
            pending,
            vec![(3, r#"{"type":"tour","id":"c"}"#.to_string())]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_admits_resume_once() {
        let path = tempfile("dedup");
        let j = ServerJournal::create(&path).unwrap();
        j.admit(9, "{}").unwrap();
        j.admit(9, "{}").unwrap();
        drop(j);
        let (completed, pending) = unfinished(&ServerJournal::recover(&path).unwrap());
        assert!(completed.is_empty());
        assert_eq!(pending.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
