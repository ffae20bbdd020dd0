//! The diagnostic engine: severities, stable codes, source locations,
//! and the [`Diagnostics`] sink with per-code severity overrides.
//!
//! The design mirrors compiler diagnostics rather than ad-hoc `Result`
//! types: every finding carries a *stable code* (`SC001`, …) so policies
//! (`--deny`/`--allow`), documentation and CI gates can refer to checks
//! by name across releases, and every finding carries a *location* in the
//! model vocabulary (state, transition, latch, signal, abstraction class)
//! rather than a file/line pair.

use simcov_obs::json;
use std::fmt;

/// How a diagnostic affects the lint verdict.
///
/// Ordered: `Allow < Warn < Deny`, so `max` folds a batch of diagnostics
/// into an exit decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed: the finding is dropped from the report.
    Allow,
    /// Reported, but does not fail the lint run.
    Warn,
    /// Reported and fails the lint run (non-zero exit).
    Deny,
}

impl Severity {
    /// Lower-case name, as used in rendered output and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses `"allow"` / `"warn"` / `"deny"`.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A registered lint: stable code, human name, default severity, and the
/// paper definition/requirement it enforces.
///
/// All instances live in [`crate::codes`]; checks reference them by
/// `&'static` identity.
#[derive(Debug)]
pub struct LintCode {
    /// Stable identifier (`"SC001"`); never reused once published.
    pub code: &'static str,
    /// Kebab-case human name (`"unreachable-state"`).
    pub name: &'static str,
    /// Severity when no override is configured.
    pub default_severity: Severity,
    /// One-line description of what the lint checks.
    pub summary: &'static str,
    /// The paper definition / requirement / section this lint enforces.
    pub paper_ref: &'static str,
}

/// Where in a model / netlist / abstraction map a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The model as a whole.
    Model,
    /// A single state of an explicit machine.
    State {
        /// Raw state id.
        id: u32,
        /// State label.
        label: String,
    },
    /// A `(state, input)` transition slot of an explicit machine.
    Transition {
        /// Source-state label.
        state: String,
        /// Input-symbol label.
        input: String,
    },
    /// An unordered pair of states (distinguishability findings).
    StatePair {
        /// First state label.
        s1: String,
        /// Second state label.
        s2: String,
    },
    /// A netlist latch, by name.
    Latch {
        /// Latch name.
        name: String,
    },
    /// A netlist primary input, by name.
    InputPort {
        /// Input name.
        name: String,
    },
    /// A netlist primary output, by name.
    OutputPort {
        /// Output name.
        name: String,
    },
    /// An internal netlist signal (by net name or index rendering).
    Signal {
        /// Net name.
        name: String,
    },
    /// An abstract state class of a quotient map.
    AbstractClass {
        /// Dense class index.
        class: u32,
    },
}

impl Location {
    fn render_text(&self) -> String {
        match self {
            Location::Model => "model".to_string(),
            Location::State { id, label } => format!("state `{label}` (id {id})"),
            Location::Transition { state, input } => {
                format!("transition `{state}` --{input}-->")
            }
            Location::StatePair { s1, s2 } => format!("states `{s1}` / `{s2}`"),
            Location::Latch { name } => format!("latch `{name}`"),
            Location::InputPort { name } => format!("input `{name}`"),
            Location::OutputPort { name } => format!("output `{name}`"),
            Location::Signal { name } => format!("signal `{name}`"),
            Location::AbstractClass { class } => format!("abstract class A{class}"),
        }
    }

    fn render_json(&self, out: &mut String) {
        let kv = |out: &mut String, k: &str, v: &str| {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":\"");
            out.push_str(&json::escape(v));
            out.push('"');
        };
        out.push_str("{\"kind\":\"");
        match self {
            Location::Model => out.push_str("model\""),
            Location::State { id, label } => {
                out.push_str("state\"");
                out.push_str(&format!(",\"id\":{id}"));
                kv(out, "label", label);
            }
            Location::Transition { state, input } => {
                out.push_str("transition\"");
                kv(out, "state", state);
                kv(out, "input", input);
            }
            Location::StatePair { s1, s2 } => {
                out.push_str("state-pair\"");
                kv(out, "s1", s1);
                kv(out, "s2", s2);
            }
            Location::Latch { name } => {
                out.push_str("latch\"");
                kv(out, "name", name);
            }
            Location::InputPort { name } => {
                out.push_str("input\"");
                kv(out, "name", name);
            }
            Location::OutputPort { name } => {
                out.push_str("output\"");
                kv(out, "name", name);
            }
            Location::Signal { name } => {
                out.push_str("signal\"");
                kv(out, "name", name);
            }
            Location::AbstractClass { class } => {
                out.push_str("class\"");
                out.push_str(&format!(",\"id\":{class}"));
            }
        }
        out.push('}');
    }
}

/// One finding: a code, its resolved severity, a location and a message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The registered lint that fired.
    pub code: &'static LintCode,
    /// Severity after applying configuration overrides.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable explanation with concrete witnesses.
    pub message: String,
    /// Supplementary notes (rendered indented under the message).
    pub notes: Vec<String>,
}

/// Per-code severity policy: each code starts at its registered default
/// and can be overridden to `deny`, `warn` or `allow`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: Vec<(String, Severity)>,
}

impl LintConfig {
    /// A configuration with no overrides (registry defaults apply).
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Overrides the severity of `code` (later calls win).
    pub fn set(&mut self, code: &str, severity: Severity) -> &mut Self {
        self.overrides.push((code.to_string(), severity));
        self
    }

    /// Builder-style [`LintConfig::set`] to `Deny`.
    pub fn deny(mut self, code: &str) -> Self {
        self.set(code, Severity::Deny);
        self
    }

    /// Builder-style [`LintConfig::set`] to `Warn`.
    pub fn warn(mut self, code: &str) -> Self {
        self.set(code, Severity::Warn);
        self
    }

    /// Builder-style [`LintConfig::set`] to `Allow`.
    pub fn allow(mut self, code: &str) -> Self {
        self.set(code, Severity::Allow);
        self
    }

    /// The effective severity of a code under this configuration.
    pub fn severity_of(&self, code: &LintCode) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(c, _)| c == code.code || c == code.name)
            .map(|&(_, s)| s)
            .unwrap_or(code.default_severity)
    }
}

/// The sink checks emit into: applies the severity policy at emission
/// time (so `Allow`ed findings cost nothing downstream) and renders the
/// final report in text or JSON form.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    config: LintConfig,
    items: Vec<Diagnostic>,
    suppressed: usize,
    fingerprint: Option<u64>,
}

impl Diagnostics {
    /// An empty sink under the given policy.
    pub fn new(config: LintConfig) -> Self {
        Diagnostics {
            config,
            items: Vec::new(),
            suppressed: 0,
            fingerprint: None,
        }
    }

    /// An empty sink under registry-default severities.
    pub fn with_defaults() -> Self {
        Diagnostics::new(LintConfig::new())
    }

    /// Emits a finding for `code` (dropped silently if the policy says
    /// `Allow`).
    pub fn emit(
        &mut self,
        code: &'static LintCode,
        location: Location,
        message: impl Into<String>,
    ) {
        self.emit_with_notes(code, location, message, Vec::new());
    }

    /// [`Diagnostics::emit`] with supplementary notes.
    pub fn emit_with_notes(
        &mut self,
        code: &'static LintCode,
        location: Location,
        message: impl Into<String>,
        notes: Vec<String>,
    ) {
        let severity = self.config.severity_of(code);
        if severity == Severity::Allow {
            self.suppressed += 1;
            return;
        }
        self.items.push(Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
            notes,
        });
    }

    /// All retained findings, in emission order until [`sorted`]
    /// (deny-first) is called.
    ///
    /// [`sorted`]: Diagnostics::sort_by_severity
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Findings suppressed by `Allow` policy.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Number of `Deny` findings.
    pub fn deny_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of `Warn` findings.
    pub fn warn_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` when at least one finding denies (lint run should fail).
    pub fn has_denials(&self) -> bool {
        self.deny_count() > 0
    }

    /// `true` when a finding with the given code is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.items.iter().any(|d| d.code.code == code)
    }

    /// Findings with the given code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.items.iter().filter(move |d| d.code.code == code)
    }

    /// Stable deny-first ordering (then by code, then emission order) —
    /// the order both renderers use.
    pub fn sort_by_severity(&mut self) {
        self.items.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.code.cmp(b.code.code))
        });
    }

    /// Binds the report to the linted artifact's FNV-64 fingerprint (the
    /// machine fingerprint for enumerable models, the normalized-source
    /// hash otherwise). Rendered by [`Diagnostics::render_json`] so two
    /// reports are diffable — and cacheable — exactly when they describe
    /// the same model under the same policy.
    pub fn set_fingerprint(&mut self, fingerprint: u64) {
        self.fingerprint = Some(fingerprint);
    }

    /// The bound artifact fingerprint, if one was set.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Merges another sink's findings into this one (used to combine the
    /// netlist, model and abstraction lint families into one report).
    /// A fingerprint set on either side survives; `self`'s wins if both
    /// are set.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
        self.suppressed += other.suppressed;
        self.fingerprint = self.fingerprint.or(other.fingerprint);
    }

    /// Renders the human-readable report, one finding per line, notes
    /// indented, with a trailing summary line.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for d in &self.items {
            s.push_str(&format!(
                "{}[{}] {}: {}: {}\n",
                d.severity,
                d.code.code,
                d.code.name,
                d.location.render_text(),
                d.message
            ));
            for note in &d.notes {
                s.push_str(&format!("  = note: {note}\n"));
            }
        }
        let denies = self.deny_count();
        let warns = self.warn_count();
        s.push_str(&format!(
            "summary: {} finding{} ({} deny, {} warn",
            self.items.len(),
            if self.items.len() == 1 { "" } else { "s" },
            denies,
            warns
        ));
        if self.suppressed > 0 {
            s.push_str(&format!(", {} allowed", self.suppressed));
        }
        s.push_str(")\n");
        s
    }

    /// Renders the machine-readable report: a single JSON object with
    /// deterministic field order (stable for golden tests and CI diffing).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"tool\":\"simcov-lint\",");
        if let Some(fp) = self.fingerprint {
            s.push_str(&format!("\"fingerprint\":\"{fp:#018x}\","));
        }
        s.push_str(&format!(
            "\"deny\":{},\"warn\":{},\"allowed\":{},\"diagnostics\":[",
            self.deny_count(),
            self.warn_count(),
            self.suppressed
        ));
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"location\":",
                d.code.code, d.code.name, d.severity
            ));
            d.location.render_json(&mut s);
            s.push_str(&format!(",\"message\":\"{}\"", json::escape(&d.message)));
            if !d.notes.is_empty() {
                s.push_str(",\"notes\":[");
                for (j, n) in d.notes.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    s.push('"');
                    s.push_str(&json::escape(n));
                    s.push('"');
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_CODE: LintCode = LintCode {
        code: "SC999",
        name: "test-lint",
        default_severity: Severity::Warn,
        summary: "a lint for tests",
        paper_ref: "none",
    };

    #[test]
    fn severity_ordering_and_parsing() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Allow);
        assert_eq!(Severity::parse("deny"), Some(Severity::Deny));
        assert_eq!(Severity::parse("nope"), None);
        assert_eq!(Severity::Warn.to_string(), "warn");
    }

    #[test]
    fn config_overrides_by_code_and_name() {
        let cfg = LintConfig::new().deny("SC999");
        assert_eq!(cfg.severity_of(&TEST_CODE), Severity::Deny);
        let cfg = LintConfig::new().allow("test-lint");
        assert_eq!(cfg.severity_of(&TEST_CODE), Severity::Allow);
        // Later overrides win.
        let cfg = LintConfig::new().deny("SC999").allow("SC999");
        assert_eq!(cfg.severity_of(&TEST_CODE), Severity::Allow);
        assert_eq!(LintConfig::new().severity_of(&TEST_CODE), Severity::Warn);
    }

    #[test]
    fn allow_suppresses_at_emission() {
        let mut d = Diagnostics::new(LintConfig::new().allow("SC999"));
        d.emit(&TEST_CODE, Location::Model, "dropped");
        assert!(d.items().is_empty());
        assert_eq!(d.suppressed(), 1);
        assert!(!d.has_denials());
    }

    #[test]
    fn counts_and_rendering() {
        let mut d = Diagnostics::new(LintConfig::new().deny("SC999"));
        d.emit_with_notes(
            &TEST_CODE,
            Location::State {
                id: 3,
                label: "s3".into(),
            },
            "something broke",
            vec!["context".into()],
        );
        assert_eq!(d.deny_count(), 1);
        assert!(d.has_denials());
        assert!(d.has_code("SC999"));
        let text = d.render_text();
        assert!(text.contains("deny[SC999] test-lint: state `s3` (id 3): something broke"));
        assert!(text.contains("  = note: context"));
        assert!(text.contains("summary: 1 finding (1 deny, 0 warn)"));
        let json = d.render_json();
        assert!(json.contains("\"code\":\"SC999\""));
        assert!(json.contains("\"severity\":\"deny\""));
        assert!(json.contains("\"notes\":[\"context\"]"));
    }

    #[test]
    fn fingerprint_renders_in_json_and_survives_merge() {
        let mut d = Diagnostics::with_defaults();
        assert_eq!(d.fingerprint(), None);
        assert!(d
            .render_json()
            .starts_with("{\"tool\":\"simcov-lint\",\"deny\":"));
        d.set_fingerprint(0xDEAD_BEEF);
        assert!(d
            .render_json()
            .starts_with("{\"tool\":\"simcov-lint\",\"fingerprint\":\"0x00000000deadbeef\","));
        // Merge: an unset side adopts the set side's fingerprint.
        let mut plain = Diagnostics::with_defaults();
        let mut stamped = Diagnostics::with_defaults();
        stamped.set_fingerprint(7);
        plain.merge(stamped);
        assert_eq!(plain.fingerprint(), Some(7));
        // ...and a set fingerprint is not overwritten.
        let mut other = Diagnostics::with_defaults();
        other.set_fingerprint(9);
        plain.merge(other);
        assert_eq!(plain.fingerprint(), Some(7));
    }

    #[test]
    fn sort_puts_denials_first() {
        static DENY_CODE: LintCode = LintCode {
            code: "SC998",
            name: "deny-lint",
            default_severity: Severity::Deny,
            summary: "",
            paper_ref: "",
        };
        let mut d = Diagnostics::with_defaults();
        d.emit(&TEST_CODE, Location::Model, "warns");
        d.emit(&DENY_CODE, Location::Model, "denies");
        d.sort_by_severity();
        assert_eq!(d.items()[0].code.code, "SC998");
    }
}
