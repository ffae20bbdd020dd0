//! The workspace's one append-only record log: the on-disk format under
//! both the campaign checkpoint journal (`simcov_core::resilient`) and
//! the server journal (`simcov_serve::journal`).
//!
//! A log is line-oriented text: a magic line naming the format and its
//! version, then one self-checking record per line, the [`fnv`] hash of
//! the record body in 16 hex digits:
//!
//! ```text
//! simcov-serve-journal v1
//! <body> crc=<FNV-64 of body>
//! <body> crc=<FNV-64 of body>
//! ```
//!
//! Bodies are the caller's text and must not contain a newline.
//! Durability is the caller's policy: [`RecordLog::append`] hands each
//! record to the OS in one write (it survives a process kill), and
//! [`RecordLog::sync`] makes everything appended so far survive a
//! machine crash. [`RecordLog::create`] syncs the parent directory once,
//! so the new file's name survives a crash too.
//!
//! Recovery follows two rules, so a crash mid-append costs at most the
//! record being written:
//!
//! * [`recover`] checks every line on its own. A line that is not
//!   newline-terminated or fails its checksum (a torn tail, a flipped
//!   byte) is counted and skipped; the records around it are kept.
//! * [`RecordLog::reopen`] truncates the file to its last `\n` before
//!   appending, so a torn fragment never glues onto the next record.
//!
//! ```
//! use simcov_obs::recordlog::{self, RecordLog};
//! let path = std::env::temp_dir().join(format!("recordlog-doc-{}", std::process::id()));
//! let mut log = RecordLog::create(&path, "demo v1").unwrap();
//! log.append("first").unwrap();
//! log.sync().unwrap();
//! drop(log);
//! let mut log = RecordLog::reopen(&path).unwrap();
//! log.append("second").unwrap();
//! let recovered = recordlog::recover(&path, "demo v1").unwrap();
//! assert_eq!(recovered.records, ["first", "second"]);
//! assert_eq!(recovered.skipped, 0);
//! # std::fs::remove_file(&path).unwrap();
//! ```
//!
//! [`fnv`]: crate::fnv

use crate::fnv::Fnv64;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// An open log, positioned for appending.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
}

impl RecordLog {
    /// Creates (or truncates) the log at `path`, writes the magic line
    /// and `fsync`s the parent directory, so the file itself cannot be
    /// lost in a crash once the caller has synced records into it. The
    /// magic line is not synced: call [`sync`](Self::sync) once the
    /// header records the caller needs are appended.
    pub fn create(path: &Path, magic: &str) -> io::Result<RecordLog> {
        let mut file = File::create(path)?;
        file.write_all(format!("{magic}\n").as_bytes())?;
        File::open(parent_dir(path))?.sync_all()?;
        Ok(RecordLog { file })
    }

    /// Opens an existing log for appending, first truncating it to its
    /// last `\n` so the next record starts on a clean line. Call it only
    /// after [`recover`] accepted the file.
    pub fn reopen(path: &Path) -> io::Result<RecordLog> {
        let keep = std::fs::read(path)?
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(keep as u64)?;
        Ok(RecordLog { file })
    }

    /// Appends one record in a single write and returns its length in
    /// bytes, framing included. A body containing a newline is refused.
    pub fn append(&mut self, body: &str) -> io::Result<usize> {
        if body.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record body contains a newline",
            ));
        }
        let line = format!("{body} crc={:016x}\n", Fnv64::hash(body.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        Ok(line.len())
    }

    /// Durability barrier: `fsync`s everything appended so far.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// The directory holding `path`'s entry: its parent, or `.` for a bare
/// file name (whose parent is the empty path).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// What [`recover`] read back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The body of every intact record, in file order.
    pub records: Vec<String>,
    /// Lines skipped because they were torn or failed their checksum.
    pub skipped: usize,
}

/// Reads the log at `path` without modifying it. A first line other
/// than `magic` is an [`io::ErrorKind::InvalidData`] error naming the
/// line found; every later line is checked on its own (see the [module
/// docs](self)).
pub fn recover(path: &Path, magic: &str) -> io::Result<Recovery> {
    let bytes = std::fs::read(path)?;
    let Some(rest) = bytes
        .strip_prefix(magic.as_bytes())
        .and_then(|r| r.strip_prefix(b"\n"))
    else {
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "unknown journal version `{}` (expected `{magic}`)",
                String::from_utf8_lossy(first)
            ),
        ));
    };
    let mut recovery = Recovery::default();
    for line in rest.split_inclusive(|&b| b == b'\n') {
        match line.strip_suffix(b"\n").and_then(checked_body) {
            Some(body) => recovery.records.push(body.to_string()),
            None => recovery.skipped += 1,
        }
    }
    Ok(recovery)
}

/// The body of a `<body> crc=<16 hex digits>` line whose checksum
/// matches, byte for byte as [`RecordLog::append`] writes it.
fn checked_body(line: &[u8]) -> Option<&str> {
    let (body, crc) = std::str::from_utf8(line).ok()?.rsplit_once(" crc=")?;
    (crc == format!("{:016x}", Fnv64::hash(body.as_bytes()))).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const MAGIC: &str = "simcov-test-log v1";

    struct Temp(PathBuf);
    impl Temp {
        fn new(name: &str) -> Temp {
            let path = std::env::temp_dir()
                .join(format!("simcov-recordlog-{}-{name}", std::process::id()));
            let _ = std::fs::remove_file(&path);
            Temp(path)
        }
    }
    impl Drop for Temp {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_log(path: &Path, bodies: &[&str]) {
        let mut log = RecordLog::create(path, MAGIC).unwrap();
        for body in bodies {
            log.append(body).unwrap();
        }
        log.sync().unwrap();
    }

    #[test]
    fn records_roundtrip_with_their_lengths() {
        let t = Temp::new("roundtrip");
        let mut log = RecordLog::create(&t.0, MAGIC).unwrap();
        let len = log.append("admit 1 \"x\"").unwrap();
        drop(log);
        let text = std::fs::read_to_string(&t.0).unwrap();
        assert_eq!(len, text.len() - MAGIC.len() - 1);
        assert_eq!(
            text,
            format!(
                "{MAGIC}\nadmit 1 \"x\" crc={:016x}\n",
                Fnv64::hash(b"admit 1 \"x\"")
            )
        );
        let r = recover(&t.0, MAGIC).unwrap();
        assert_eq!(r.records, ["admit 1 \"x\""]);
        assert_eq!(r.skipped, 0);
    }

    #[test]
    fn truncation_at_every_offset_keeps_exactly_the_terminated_records() {
        let t = Temp::new("every_offset");
        let bodies = ["alpha", "a body with crc= inside", "", "omega"];
        write_log(&t.0, &bodies);
        let full = std::fs::read(&t.0).unwrap();
        for cut in MAGIC.len() + 1..=full.len() {
            std::fs::write(&t.0, &full[..cut]).unwrap();
            let r = recover(&t.0, MAGIC).unwrap();
            let complete = full[MAGIC.len() + 1..cut]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            assert_eq!(r.records, bodies[..complete], "cut at {cut}");
            let torn = usize::from(full[cut - 1] != b'\n');
            assert_eq!(r.skipped, torn, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_middle_line_is_skipped_and_later_records_kept() {
        let t = Temp::new("middle");
        write_log(&t.0, &["one", "two", "three"]);
        let text = std::fs::read_to_string(&t.0).unwrap();
        std::fs::write(&t.0, text.replacen("two", "tw0", 1)).unwrap();
        let r = recover(&t.0, MAGIC).unwrap();
        assert_eq!(r.records, ["one", "three"]);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn torn_tail_is_dropped() {
        // The last record's checksum is corrupted but newline-terminated.
        let t = Temp::new("torn");
        write_log(&t.0, &["first", "second"]);
        let mut text = std::fs::read_to_string(&t.0).unwrap();
        text.truncate(text.len() - 3);
        text.push_str("0\n");
        std::fs::write(&t.0, text).unwrap();
        let r = recover(&t.0, MAGIC).unwrap();
        assert_eq!(r.records, ["first"], "torn tail record dropped");
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn reopen_after_torn_tail_recovers_every_record() {
        let t = Temp::new("reopen");
        write_log(&t.0, &["one", "two"]);
        let text = std::fs::read_to_string(&t.0).unwrap();
        std::fs::write(&t.0, &text[..text.len() - 5]).unwrap();
        assert_eq!(recover(&t.0, MAGIC).unwrap().records, ["one"]);
        let mut log = RecordLog::reopen(&t.0).unwrap();
        log.append("three").unwrap();
        log.append("four").unwrap();
        drop(log);
        let r = recover(&t.0, MAGIC).unwrap();
        assert_eq!(r.records, ["one", "three", "four"]);
        assert_eq!(r.skipped, 0, "the torn fragment was cut off");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let t = Temp::new("magic");
        std::fs::write(&t.0, "simcov-test-log v999\n").unwrap();
        let err = recover(&t.0, MAGIC).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("`simcov-test-log v999`"), "{err}");
        for text in ["", MAGIC] {
            std::fs::write(&t.0, text).unwrap();
            let err = recover(&t.0, MAGIC).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
        }
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("serve.journal")), Path::new("."));
        assert_eq!(parent_dir(Path::new("out/serve.journal")), Path::new("out"));
        assert_eq!(parent_dir(Path::new("/serve.journal")), Path::new("/"));
        assert_eq!(parent_dir(Path::new("")), Path::new("."));
    }

    #[test]
    fn bodies_with_newlines_are_refused() {
        let t = Temp::new("newline");
        let mut log = RecordLog::create(&t.0, MAGIC).unwrap();
        let err = log.append("two\nlines").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(log);
        assert_eq!(recover(&t.0, MAGIC).unwrap(), Recovery::default());
    }
}
