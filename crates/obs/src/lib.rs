//! # simcov-obs — zero-dependency observability
//!
//! Long fault campaigns over the DLX test model are opaque without
//! per-phase timing and coverage feedback: the parallel engine, the
//! resilient supervisor, tour generation and the lint engine all do
//! substantial work with no way to ask *where the time went* or *how
//! much was done*. This crate is the workspace's telemetry layer —
//! hermetic, `std`-only, and **global-free**: a [`Telemetry`] handle is
//! created by the caller and threaded explicitly through whatever
//! should be observed. No `static`, no ambient registry, no feature
//! flags.
//!
//! Three instrument families:
//!
//! * **Spans** — hierarchical wall-clock timers ([`Telemetry::span`],
//!   [`Span::child`]) aggregated per path (`campaign/shard`), backed by
//!   [`Instant`], so they are monotonic and immune to clock steps.
//! * **Counters and gauges** — named `u64`s: counters accumulate
//!   ([`Telemetry::counter_add`]: faults simulated, shards retried,
//!   checkpoint bytes, tour length, …), gauges hold a last-written
//!   value ([`Telemetry::gauge_set`]: BDD nodes, reachable states, …).
//! * **Events** — an ordered log of named records with integer fields
//!   ([`Telemetry::event`]), e.g. one record per merged campaign shard.
//!
//! Beside them live the workspace's shared on-disk formats: [`fnv`]
//! hashing, a minimal [`json`] parser, and [`recordlog`], the one
//! append-only record log under both the campaign checkpoint journal
//! and the server journal.
//!
//! ## Determinism contract
//!
//! A [`Snapshot`] renders two ways, with different guarantees:
//!
//! * [`Snapshot::render_table`] — a human metrics table including span
//!   *durations*; inherently non-deterministic, intended for stderr.
//! * [`Snapshot::to_jsonl`] — a versioned JSONL trace that is
//!   **byte-stable**: it contains only deterministic data (event log,
//!   counters, gauges, span paths and counts — *no durations, no
//!   thread counts, no timestamps*), with maps sorted by key and a
//!   trailing FNV-64 fingerprint line (the same checksum discipline as
//!   the journals' [`recordlog`], see [`fnv`]). Two runs that do the same
//!   work — regardless of `--jobs` — produce identical traces, which
//!   is what makes traces diffable in CI.
//!
//! Callers keep the contract by only calling [`Telemetry::event`] from
//! deterministic (serial, or order-restored) code paths; counters,
//! gauges and spans may be touched from worker threads freely because
//! they aggregate commutatively.
//!
//! ```
//! use simcov_obs::Telemetry;
//!
//! let tel = Telemetry::new();
//! {
//!     let campaign = tel.span("campaign");
//!     for shard in 0..4u64 {
//!         let _s = campaign.child("shard");
//!         tel.counter_add("campaign.faults_simulated", 100);
//!         tel.event("campaign.shard", &[("shard", shard), ("faults", 100)]);
//!     }
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("campaign.faults_simulated"), Some(400));
//! assert!(snap.to_jsonl().starts_with("{\"schema\":\"simcov-trace\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod json;
pub mod names;
pub mod recordlog;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema identifier of the JSONL trace format.
pub const TRACE_SCHEMA: &str = "simcov-trace";
/// Version of the JSONL trace format. Bump on any byte-level change.
pub const TRACE_VERSION: u64 = 1;

/// Aggregated wall-clock statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed activations of this path.
    pub count: u64,
    /// Total wall time across activations.
    pub total: Duration,
}

impl SpanStats {
    /// Mean wall time per activation (zero for an unentered span).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// One record of the ordered event log: a name plus integer fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name (dotted, e.g. `campaign.shard`).
    pub name: String,
    /// Integer fields, as passed (serialized sorted by key).
    pub fields: Vec<(String, u64)>,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    events: Mutex<Vec<Event>>,
}

/// A cloneable, thread-safe telemetry handle (see the [module
/// docs](self)). Clones share one underlying sink, so a handle can be
/// passed down through engine layers and worker threads freely.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Telemetry")
            .field("counters", &snap.counters.len())
            .field("gauges", &snap.gauges.len())
            .field("spans", &snap.spans.len())
            .field("events", &snap.events.len())
            .finish()
    }
}

/// Locks a mutex, recovering the data if a panicking holder poisoned it
/// (telemetry must keep working exactly when other code is failing).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Telemetry {
    /// A fresh, empty telemetry sink.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Adds `delta` to the named monotonic counter (creating it at 0).
    /// Safe from any thread; totals are order-independent.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut c = lock(&self.inner.counters);
        match c.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                c.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: u64) {
        lock(&self.inner.gauges).insert(name.to_string(), value);
    }

    /// Opens a root span. The span records itself when dropped; nest
    /// with [`Span::child`].
    pub fn span(&self, name: &str) -> Span {
        Span {
            telemetry: self.clone(),
            path: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Appends one record to the ordered event log.
    ///
    /// Only call this from deterministic code paths (serial sections,
    /// or loops that restore a canonical order): the log is serialized
    /// in insertion order, and the byte-stability of the JSONL trace is
    /// exactly as good as the determinism of this call sequence.
    pub fn event(&self, name: &str, fields: &[(&str, u64)]) {
        lock(&self.inner.events).push(Event {
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: lock(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            spans: lock(&self.inner.spans)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            events: lock(&self.inner.events).clone(),
        }
    }
}

/// An open span: records `(path, elapsed)` into its [`Telemetry`] when
/// dropped. Create children while the parent is open to build the
/// hierarchy (`campaign` → `campaign/shard`).
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    path: String,
    start: Instant,
}

impl Span {
    /// Opens a child span, its path extending this span's by `/name`.
    pub fn child(&self, name: &str) -> Span {
        Span {
            telemetry: self.telemetry.clone(),
            path: format!("{}/{name}", self.path),
            start: Instant::now(),
        }
    }

    /// The full `/`-separated path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let mut spans = lock(&self.telemetry.inner.spans);
        let stat = spans.entry(std::mem::take(&mut self.path)).or_default();
        stat.count += 1;
        stat.total += elapsed;
    }
}

/// An immutable snapshot of a [`Telemetry`] sink: sorted counter,
/// gauge and span maps plus the ordered event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Span statistics, sorted by path.
    pub spans: Vec<(String, SpanStats)>,
    /// Event log, in insertion order.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// The value of a counter, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The statistics of a span path, if it was ever entered.
    pub fn span(&self, path: &str) -> Option<SpanStats> {
        self.spans.iter().find(|(k, _)| k == path).map(|(_, v)| *v)
    }

    /// Renders the human metrics table (for stderr): spans **with**
    /// wall-clock durations, counters, gauges and the event count.
    /// Non-deterministic by design; never diff this output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== metrics ==");
        if !self.spans.is_empty() {
            let _ = writeln!(out, "spans (wall clock):");
            for (path, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {path:<42} {:>8}x {:>12.2?} total {:>12.2?} mean",
                    s.count,
                    s.total,
                    s.mean()
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<42} {v:>12}");
            }
        }
        let _ = writeln!(out, "events: {} recorded", self.events.len());
        out
    }

    /// Serializes the deterministic trace as JSONL (see the [module
    /// docs](self) for the schema). Byte-stable: identical recorded
    /// data yields identical bytes, regardless of thread interleaving.
    ///
    /// Line order: header, events (log order, fields sorted by key),
    /// counters, gauges, spans (each sorted by name; spans carry counts
    /// but **no durations**), then an `end` line whose `fingerprint` is
    /// the FNV-64 of every preceding byte.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_VERSION}}}"
        );
        for (seq, e) in self.events.iter().enumerate() {
            let mut fields: Vec<(&str, u64)> =
                e.fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            fields.sort();
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", json::escape(k)))
                .collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"event\",\"seq\":{seq},\"name\":\"{}\",\"fields\":{{{}}}}}",
                json::escape(&e.name),
                body.join(",")
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                json::escape(name)
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}",
                json::escape(name)
            );
        }
        for (path, s) in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"path\":\"{}\",\"count\":{}}}",
                json::escape(path),
                s.count
            );
        }
        let fingerprint = fnv::Fnv64::hash(out.as_bytes());
        let _ = writeln!(
            out,
            "{{\"type\":\"end\",\"events\":{},\"counters\":{},\"gauges\":{},\"spans\":{},\
             \"fingerprint\":\"{fingerprint:016x}\"}}",
            self.events.len(),
            self.counters.len(),
            self.gauges.len(),
            self.spans.len(),
        );
        out
    }

    /// Writes [`to_jsonl`](Self::to_jsonl) to a file.
    pub fn write_jsonl_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Verifies a JSONL trace: parses every line, checks the header schema
/// and version, and recomputes the `end` fingerprint over the preceding
/// bytes. Returns the parsed lines on success.
///
/// This is the consumer-side half of the byte-stability contract: any
/// truncation or edit of a trace file flips the fingerprint.
pub fn verify_trace(text: &str) -> Result<Vec<json::Json>, String> {
    let mut lines = Vec::new();
    let mut consumed = 0usize;
    let mut end_seen = false;
    for line in text.lines() {
        if end_seen {
            return Err("trailing data after the end line".to_string());
        }
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let ty = v.get("type").and_then(|t| t.as_str());
        if lines.is_empty() {
            if v.get("schema").and_then(|s| s.as_str()) != Some(TRACE_SCHEMA) {
                return Err("missing or wrong schema header".to_string());
            }
            if v.get("version").and_then(|n| n.as_u64()) != Some(TRACE_VERSION) {
                return Err("unsupported trace version".to_string());
            }
        } else if ty == Some("end") {
            let want = v
                .get("fingerprint")
                .and_then(|f| f.as_str())
                .and_then(|f| u64::from_str_radix(f, 16).ok())
                .ok_or("end line missing fingerprint")?;
            let got = fnv::Fnv64::hash(&text.as_bytes()[..consumed]);
            if want != got {
                return Err(format!(
                    "fingerprint mismatch: trace says {want:016x}, bytes hash to {got:016x}"
                ));
            }
            end_seen = true;
        }
        consumed += line.len() + 1;
        lines.push(v);
    }
    if !end_seen {
        return Err("trace has no end line (torn file?)".to_string());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let t = Telemetry::new();
        t.counter_add("a", 2);
        t.counter_add("a", 3);
        t.counter_add("b", 1);
        t.gauge_set("g", 10);
        t.gauge_set("g", 7);
        let s = t.snapshot();
        assert_eq!(s.counter("a"), Some(5));
        assert_eq!(s.counter("b"), Some(1));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("g"), Some(7));
    }

    #[test]
    fn spans_aggregate_hierarchically() {
        let t = Telemetry::new();
        {
            let root = t.span("campaign");
            for _ in 0..3 {
                let _child = root.child("shard");
            }
            assert_eq!(root.path(), "campaign");
        }
        let s = t.snapshot();
        assert_eq!(s.span("campaign").unwrap().count, 1);
        assert_eq!(s.span("campaign/shard").unwrap().count, 3);
        assert!(s.span("campaign").unwrap().total >= s.span("campaign/shard").unwrap().mean());
    }

    #[test]
    fn jsonl_is_byte_stable_across_recording_interleavings() {
        // Same recorded data, different thread interleavings of the
        // counter/span calls: identical bytes.
        let traces: Vec<String> = (0..2)
            .map(|rev| {
                let t = Telemetry::new();
                let order: Vec<u64> = if rev == 0 {
                    (0..8).collect()
                } else {
                    (0..8).rev().collect()
                };
                std::thread::scope(|scope| {
                    for &i in &order {
                        let t = t.clone();
                        scope.spawn(move || {
                            let _s = t.span("work").child("shard");
                            t.counter_add("faults", i);
                        });
                    }
                });
                // Events only from the (serial) merge path.
                for i in 0..8 {
                    t.event("shard", &[("idx", i)]);
                }
                t.snapshot().to_jsonl()
            })
            .collect();
        assert_eq!(traces[0], traces[1]);
        assert!(!traces[0].contains("total"), "no durations in the trace");
    }

    #[test]
    fn trace_verifies_and_detects_tampering() {
        let t = Telemetry::new();
        t.counter_add("campaign.faults_simulated", 2000);
        t.event("campaign.shard", &[("shard", 0), ("faults", 2000)]);
        let trace = t.snapshot().to_jsonl();
        let lines = verify_trace(&trace).unwrap();
        assert_eq!(lines.len(), 4); // header + event + counter + end
        assert_eq!(
            lines.len(),
            trace.lines().count(),
            "every line parses and is returned"
        );
        // Any byte edit flips the fingerprint.
        let tampered = trace.replace("2000", "2001");
        assert!(verify_trace(&tampered).unwrap_err().contains("fingerprint"));
        // Truncation is detected.
        let torn: String = trace.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(verify_trace(&torn).unwrap_err().contains("end line"));
    }

    #[test]
    fn event_fields_serialize_sorted() {
        let t = Telemetry::new();
        t.event("e", &[("z", 1), ("a", 2)]);
        let trace = t.snapshot().to_jsonl();
        let line = trace.lines().nth(1).unwrap();
        assert!(line.contains("{\"a\":2,\"z\":1}"), "{line}");
    }

    #[test]
    fn render_table_mentions_everything() {
        let t = Telemetry::new();
        let _ = t.span("tour");
        t.counter_add("tour.length", 44);
        t.gauge_set("bdd.nodes", 9);
        t.event("x", &[]);
        let table = t.snapshot().render_table();
        assert!(table.contains("tour.length"));
        assert!(table.contains("bdd.nodes"));
        assert!(table.contains("spans (wall clock):"));
        assert!(table.contains("events: 1 recorded"));
    }

    #[test]
    fn snapshot_accessors_on_empty_sink() {
        let s = Telemetry::new().snapshot();
        assert_eq!(s.counter("x"), None);
        assert_eq!(s.gauge("x"), None);
        assert_eq!(s.span("x"), None);
        assert_eq!(SpanStats::default().mean(), Duration::ZERO);
        // An empty trace still verifies (header + end line only).
        assert_eq!(verify_trace(&s.to_jsonl()).unwrap().len(), 2);
    }
}
