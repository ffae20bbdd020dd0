//! Collapse certificates: machine-checkable fault-equivalence partitions.
//!
//! Classic fault collapsing partitions the fault universe *before any
//! simulation runs*: faults proven to have identical outcomes under
//! **every** test set in the domain land in one class, a campaign
//! simulates only one representative per class, and the remaining
//! outcomes are expanded deterministically. This module defines the
//! artifact that carries such a partition — the [`CollapseCertificate`] —
//! together with the campaign-side machinery that consumes it: pruning to
//! representatives and the `verify` check that re-simulates everything
//! and fails on any member whose outcome diverges from its
//! representative's.
//!
//! The *analysis* that computes a certificate lives in the
//! `simcov-analyze` crate (it layers on top of this one); the certificate
//! type lives here so [`crate::ResilientCampaign`] can consume it without
//! a dependency cycle. A certificate is bound to its `(machine, fault
//! list)` pair by an FNV-1a fingerprint (same hash discipline as the
//! checkpoint journal and the telemetry traces, via
//! [`crate::fingerprint`]); using a certificate against a different
//! machine or fault list is rejected by [`CollapseCertificate::check`]
//! instead of silently expanding garbage.
//!
//! Soundness is *not* re-established here — it is the analysis's theorem
//! (equivalence of the label streams that drive `detects` /
//! `excited_at` / `is_masked_on`, see DESIGN.md §13) — but it is
//! *auditable* here: `--collapse verify` simulates every fault and calls
//! [`CollapseCertificate::violations`], making the certificate checker a
//! fourth leg of the CI engine-equivalence gate.

use crate::error_model::Fault;
use crate::faults::FaultOutcome;
use simcov_fsm::ExplicitMealy;
use simcov_obs::fnv::Fnv64;
use std::fmt;
use std::str::FromStr;

/// How a campaign consumes a [`CollapseCertificate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollapseMode {
    /// Ignore the certificate: simulate every fault (the baseline).
    #[default]
    Off,
    /// Simulate only class representatives and expand per-class outcomes
    /// deterministically. Merged stats and the per-fault report are
    /// bit-identical to [`Off`](Self::Off) for a sound certificate.
    On,
    /// Simulate every fault (as `Off`) *and* check every class member's
    /// outcome against its representative's, reporting violations — the
    /// certificate audit.
    Verify,
}

impl CollapseMode {
    /// Stable lower-case name (CLI value and report token).
    pub fn name(self) -> &'static str {
        match self {
            CollapseMode::Off => "off",
            CollapseMode::On => "on",
            CollapseMode::Verify => "verify",
        }
    }
}

impl fmt::Display for CollapseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CollapseMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(CollapseMode::Off),
            "on" => Ok(CollapseMode::On),
            "verify" => Ok(CollapseMode::Verify),
            other => Err(format!(
                "unknown collapse mode `{other}` (expected off|on|verify)"
            )),
        }
    }
}

/// Why a class's members are equivalent — the analysis that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    /// Faults at states unreachable from reset: never excited, never
    /// detected, never masked, under any test set (one global class).
    Unreachable,
    /// Effective output faults sharing one `(state, input)` cell: all are
    /// detected at the cell's first traversal, whatever the relabelling.
    Output,
    /// Ineffective (no-op) faults sharing one cell: the patched machine
    /// *is* the golden machine, so only excitation is observable.
    Ineffective,
    /// Effective transfer faults sharing one cell whose post-excitation
    /// joint label streams are bisimilar (a pairwise Hopcroft–Karp check
    /// over the fault-patched joint walks).
    Transfer,
    /// A fault provably equivalent to nothing else (or whose cell
    /// exceeded the analysis budget): simulated as-is.
    Singleton,
}

impl ClassKind {
    /// Stable lower-case name (report token).
    pub fn name(self) -> &'static str {
        match self {
            ClassKind::Unreachable => "unreachable",
            ClassKind::Output => "output",
            ClassKind::Ineffective => "ineffective",
            ClassKind::Transfer => "transfer",
            ClassKind::Singleton => "singleton",
        }
    }

    fn tag(self) -> u64 {
        match self {
            ClassKind::Unreachable => 1,
            ClassKind::Output => 2,
            ClassKind::Ineffective => 3,
            ClassKind::Transfer => 4,
            ClassKind::Singleton => 5,
        }
    }
}

/// A structural or binding problem that makes a certificate unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// `class_of` does not cover the fault list one-to-one.
    LengthMismatch {
        /// Faults in the list the certificate was offered for.
        faults: usize,
        /// Entries in the certificate's class assignment.
        classes_of: usize,
    },
    /// Class IDs are not canonical (`0..num_classes` in order of first
    /// appearance) — stable IDs are part of the certificate contract.
    NonCanonicalClasses {
        /// First offending fault index.
        fault: usize,
    },
    /// A `kinds` entry is missing or superfluous.
    KindCountMismatch {
        /// Classes implied by the assignment.
        classes: usize,
        /// Kind tags provided.
        kinds: usize,
    },
    /// A dominance edge references a class that does not exist or itself.
    BadDominanceEdge {
        /// The offending `(dominating, dominated)` pair.
        edge: (u32, u32),
    },
    /// The certificate was computed for a different machine or fault
    /// list (FNV binding fingerprint disagrees).
    BindingMismatch {
        /// Fingerprint the certificate carries.
        expected: u64,
        /// Fingerprint of the `(machine, faults)` it was offered for.
        found: u64,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::LengthMismatch { faults, classes_of } => write!(
                f,
                "certificate covers {classes_of} faults but the campaign has {faults}"
            ),
            CertificateError::NonCanonicalClasses { fault } => write!(
                f,
                "certificate class IDs are not canonical (first violation at fault {fault})"
            ),
            CertificateError::KindCountMismatch { classes, kinds } => {
                write!(f, "certificate has {classes} classes but {kinds} kind tags")
            }
            CertificateError::BadDominanceEdge { edge } => write!(
                f,
                "certificate dominance edge ({}, {}) is out of range or a self-loop",
                edge.0, edge.1
            ),
            CertificateError::BindingMismatch { expected, found } => write!(
                f,
                "certificate binds fingerprint {expected:016x} but this campaign is \
                 {found:016x} (different machine or fault list)"
            ),
        }
    }
}

impl std::error::Error for CertificateError {}

/// A class member whose simulated outcome diverged from its
/// representative's — produced by [`CollapseMode::Verify`]; a sound
/// certificate yields none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapseViolation {
    /// The class in which the divergence occurred.
    pub class: u32,
    /// Fault index (into the campaign's fault list) of the representative.
    pub representative: u32,
    /// Fault index of the diverging member.
    pub member: u32,
}

impl fmt::Display for CollapseViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "class {}: member fault {} diverged from representative fault {}",
            self.class, self.member, self.representative
        )
    }
}

/// `true` when two outcomes agree on everything a test set can observe
/// (the injected fault itself is of course allowed to differ).
pub fn same_observable_outcome(a: &FaultOutcome, b: &FaultOutcome) -> bool {
    a.detected == b.detected && a.excited == b.excited && a.masked_somewhere == b.masked_somewhere
}

/// A fault-equivalence partition bound to one `(machine, fault list)`
/// pair, with stable class IDs, a representative per class and class
/// dominance edges.
///
/// Invariants (established by [`new`](Self::new), relied on everywhere):
///
/// * `class_of.len()` = the fault-list length; class IDs are canonical
///   (`0..num_classes`, numbered by first appearance in fault order);
/// * every class is non-empty; its representative is its smallest member
///   (= first in fault order), so representatives ascend with class ID;
/// * `kinds[c]` tags class `c`; `dominance` holds `(dominating,
///   dominated)` class pairs (detecting any member of the dominating
///   class implies detecting every member of the dominated class, for
///   every test set in the domain);
/// * `fingerprint()` commits to the binding (machine + fault list) *and*
///   the partition content, so any tampering — or offering the
///   certificate to a different campaign — is detected by
///   [`check`](Self::check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseCertificate {
    class_of: Vec<u32>,
    kinds: Vec<ClassKind>,
    representative: Vec<u32>,
    members: Vec<Vec<u32>>,
    dominance: Vec<(u32, u32)>,
    binding: u64,
    fingerprint: u64,
}

fn binding_fingerprint(m: &ExplicitMealy, faults: &[Fault]) -> u64 {
    let mut h = Fnv64::new();
    crate::fingerprint::hash_machine(&mut h, m);
    crate::fingerprint::hash_faults(&mut h, faults);
    h.finish()
}

impl CollapseCertificate {
    /// Builds a certificate from a class assignment over `faults`,
    /// validating the structural invariants and computing the binding and
    /// content fingerprints. `kinds[c]` tags class `c`; `dominance` lists
    /// `(dominating, dominated)` class pairs.
    ///
    /// This constructor checks *structure*, not *soundness*: a
    /// structurally valid but semantically wrong partition passes `new`
    /// and [`check`](Self::check) — and is then caught by
    /// [`CollapseMode::Verify`]. Soundness is the producing analysis's
    /// obligation.
    pub fn new(
        m: &ExplicitMealy,
        faults: &[Fault],
        class_of: Vec<u32>,
        kinds: Vec<ClassKind>,
        dominance: Vec<(u32, u32)>,
    ) -> Result<Self, CertificateError> {
        if class_of.len() != faults.len() {
            return Err(CertificateError::LengthMismatch {
                faults: faults.len(),
                classes_of: class_of.len(),
            });
        }
        // Canonical numbering: class c must first appear only after every
        // class < c has appeared.
        let mut next_fresh = 0u32;
        let mut members: Vec<Vec<u32>> = Vec::new();
        for (idx, &c) in class_of.iter().enumerate() {
            if c > next_fresh {
                return Err(CertificateError::NonCanonicalClasses { fault: idx });
            }
            if c == next_fresh {
                next_fresh += 1;
                members.push(Vec::new());
            }
            members[c as usize].push(idx as u32);
        }
        let num_classes = members.len();
        if kinds.len() != num_classes {
            return Err(CertificateError::KindCountMismatch {
                classes: num_classes,
                kinds: kinds.len(),
            });
        }
        for &(a, b) in &dominance {
            if a as usize >= num_classes || b as usize >= num_classes || a == b {
                return Err(CertificateError::BadDominanceEdge { edge: (a, b) });
            }
        }
        let representative: Vec<u32> = members.iter().map(|ms| ms[0]).collect();
        let binding = binding_fingerprint(m, faults);
        let mut h = Fnv64::new();
        h.u64(binding);
        h.u64(class_of.len() as u64);
        for &c in &class_of {
            h.u64(u64::from(c));
        }
        h.u64(kinds.len() as u64);
        for k in &kinds {
            h.u64(k.tag());
        }
        h.u64(dominance.len() as u64);
        for &(a, b) in &dominance {
            h.u64(u64::from(a));
            h.u64(u64::from(b));
        }
        let fingerprint = h.finish();
        Ok(CollapseCertificate {
            class_of,
            kinds,
            representative,
            members,
            dominance,
            binding,
            fingerprint,
        })
    }

    /// Verifies this certificate binds exactly the `(machine, faults)`
    /// pair it is about to be used with.
    ///
    /// # Errors
    ///
    /// [`CertificateError::BindingMismatch`] (stale certificate) or
    /// [`CertificateError::LengthMismatch`].
    pub fn check(&self, m: &ExplicitMealy, faults: &[Fault]) -> Result<(), CertificateError> {
        if self.class_of.len() != faults.len() {
            return Err(CertificateError::LengthMismatch {
                faults: faults.len(),
                classes_of: self.class_of.len(),
            });
        }
        let found = binding_fingerprint(m, faults);
        if found != self.binding {
            return Err(CertificateError::BindingMismatch {
                expected: self.binding,
                found,
            });
        }
        Ok(())
    }

    /// Number of faults the certificate covers.
    pub fn num_faults(&self) -> usize {
        self.class_of.len()
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.representative.len()
    }

    /// Faults a [`CollapseMode::On`] campaign skips: members minus
    /// representatives.
    pub fn collapsed_faults(&self) -> usize {
        self.num_faults() - self.num_classes()
    }

    /// Class of each fault, in fault order.
    pub fn class_of(&self) -> &[u32] {
        &self.class_of
    }

    /// Kind tag of each class.
    pub fn kinds(&self) -> &[ClassKind] {
        &self.kinds
    }

    /// Representative fault index per class (ascending — class IDs are
    /// numbered by first appearance in fault order).
    pub fn representatives(&self) -> &[u32] {
        &self.representative
    }

    /// Member fault indices of class `c`, ascending.
    pub fn members(&self, c: u32) -> &[u32] {
        &self.members[c as usize]
    }

    /// Dominance edges `(dominating class, dominated class)`.
    pub fn dominance(&self) -> &[(u32, u32)] {
        &self.dominance
    }

    /// Content fingerprint: commits to the binding and the full partition.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The pruned fault list a [`CollapseMode::On`] campaign simulates:
    /// one representative per class, in fault order.
    pub fn representative_faults(&self, faults: &[Fault]) -> Vec<Fault> {
        self.representative
            .iter()
            .map(|&idx| faults[idx as usize])
            .collect()
    }

    /// Audits a full (uncollapsed) campaign's outcomes against the
    /// partition: every member must observably equal its representative.
    /// Returns the divergences in `(class, member)` order — empty for a
    /// sound certificate.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len() != self.num_faults()`.
    pub fn violations(&self, outcomes: &[FaultOutcome]) -> Vec<CollapseViolation> {
        assert_eq!(
            outcomes.len(),
            self.num_faults(),
            "one outcome per fault, in fault order"
        );
        let mut found = Vec::new();
        for (c, ms) in self.members.iter().enumerate() {
            let rep_idx = ms[0];
            let rep = &outcomes[rep_idx as usize];
            for &m in &ms[1..] {
                if !same_observable_outcome(rep, &outcomes[m as usize]) {
                    found.push(CollapseViolation {
                        class: c as u32,
                        representative: rep_idx,
                        member: m,
                    });
                }
            }
        }
        found
    }
}

/// Per-run collapse accounting attached to campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseSummary {
    /// The mode the run used ([`CollapseMode::Off`] runs carry no
    /// summary).
    pub mode: CollapseMode,
    /// Classes in the certificate.
    pub classes: usize,
    /// Faults skipped by pruning (0 under [`CollapseMode::Verify`]).
    pub collapsed_faults: usize,
    /// Divergences found by [`CollapseMode::Verify`] (always empty under
    /// [`CollapseMode::On`], which simulates representatives only).
    pub violations: Vec<CollapseViolation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_single_faults, FaultSpace};
    use crate::testutil::figure2;

    fn trivial_cert(m: &ExplicitMealy, faults: &[Fault]) -> CollapseCertificate {
        // Every fault a singleton: always sound.
        let class_of: Vec<u32> = (0..faults.len() as u32).collect();
        let kinds = vec![ClassKind::Singleton; faults.len()];
        CollapseCertificate::new(m, faults, class_of, kinds, Vec::new()).unwrap()
    }

    #[test]
    fn canonical_numbering_enforced() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let mut class_of: Vec<u32> = vec![0; faults.len()];
        class_of[1] = 2; // skips class 1
        let err = CollapseCertificate::new(
            &m,
            &faults,
            class_of,
            vec![ClassKind::Singleton; 2],
            Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err, CertificateError::NonCanonicalClasses { fault: 1 });
    }

    #[test]
    fn binding_rejects_other_machine_and_other_faults() {
        let (m, fault) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let cert = trivial_cert(&m, &faults);
        assert!(cert.check(&m, &faults).is_ok());
        // Different machine.
        let mutated = fault.inject(&m);
        assert!(matches!(
            cert.check(&mutated, &faults),
            Err(CertificateError::BindingMismatch { .. })
        ));
        // Same machine, reordered fault list.
        let mut rev = faults.clone();
        rev.reverse();
        assert!(matches!(
            cert.check(&m, &rev),
            Err(CertificateError::BindingMismatch { .. })
        ));
        // Different length.
        assert!(matches!(
            cert.check(&m, &faults[1..]),
            Err(CertificateError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_commits_to_partition_content() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let singles = trivial_cert(&m, &faults);
        let merged = CollapseCertificate::new(
            &m,
            &faults,
            vec![0; faults.len()],
            vec![ClassKind::Singleton],
            Vec::new(),
        )
        .unwrap();
        assert_ne!(singles.fingerprint(), merged.fingerprint());
    }

    #[test]
    fn violations_catch_divergent_members() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let cert = CollapseCertificate::new(
            &m,
            &faults,
            vec![0; faults.len()],
            vec![ClassKind::Singleton],
            Vec::new(),
        )
        .unwrap();
        let mut outcomes: Vec<FaultOutcome> = faults
            .iter()
            .map(|&f| FaultOutcome {
                fault: f,
                detected: None,
                excited: false,
                masked_somewhere: false,
            })
            .collect();
        assert!(cert.violations(&outcomes).is_empty());
        outcomes[2].detected = Some((1, 1));
        let v = cert.violations(&outcomes);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].member, 2);
        assert_eq!(v[0].representative, 0);
    }

    #[test]
    fn mode_parses_and_displays() {
        for (s, mode) in [
            ("off", CollapseMode::Off),
            ("on", CollapseMode::On),
            ("verify", CollapseMode::Verify),
        ] {
            assert_eq!(s.parse::<CollapseMode>().unwrap(), mode);
            assert_eq!(mode.name(), s);
        }
        assert!("ON".parse::<CollapseMode>().is_err());
    }
}
