//! The lint registry: every stable `SC0xx` code, its default severity and
//! the paper definition it enforces.
//!
//! Numbering convention:
//!
//! * `SC001`–`SC019` — **model lints** over explicit Mealy machines;
//! * `SC020`–`SC039` — **netlist lints** over sequential circuits;
//! * `SC040`–`SC049` — **abstraction lints** over quotient maps;
//! * `SC050`–`SC059` — **collapse-analysis lints** over fault-equivalence
//!   partitions (the checks live in `simcov-analyze`; the codes are
//!   registered here so policy and documentation stay in one registry).
//!
//! Codes are never renumbered or reused once published; retired checks
//! leave a hole.

use crate::diag::{LintCode, Severity};

/// SC001 — a state is unreachable from reset.
pub static SC001_UNREACHABLE_STATE: LintCode = LintCode {
    code: "SC001",
    name: "unreachable-state",
    default_severity: Severity::Warn,
    summary: "state is unreachable from the reset state",
    paper_ref: "Sec 5 (tours cover the reachable transition graph)",
};

/// SC002 — a reachable `(state, input)` pair has no transition.
pub static SC002_INCOMPLETE_ALPHABET: LintCode = LintCode {
    code: "SC002",
    name: "incomplete-input-alphabet",
    default_severity: Severity::Deny,
    summary: "reachable state is missing a transition for a valid input",
    paper_ref: "Def 5 (forall-k quantifies over all valid input sequences)",
};

/// SC003 — the machine definition itself is malformed (nondeterministic
/// transition table, empty machine, or dangling reset state).
pub static SC003_MALFORMED_MACHINE: LintCode = LintCode {
    code: "SC003",
    name: "malformed-machine",
    default_severity: Severity::Deny,
    summary: "nondeterministic, empty, or reset-less machine definition",
    paper_ref: "Sec 3 (specification and implementation are deterministic FSMs)",
};

/// SC004 — the reachable sub-graph is not strongly connected.
pub static SC004_NOT_STRONGLY_CONNECTED: LintCode = LintCode {
    code: "SC004",
    name: "not-strongly-connected",
    default_severity: Severity::Deny,
    summary: "reachable sub-graph is not strongly connected; no single transition tour exists",
    paper_ref: "Sec 5 (a transition tour requires strong connectivity)",
};

/// SC005 — Requirement 2 violated: a cycle of stalled transitions.
pub static SC005_INFINITE_STALL: LintCode = LintCode {
    code: "SC005",
    name: "unbounded-processing",
    default_severity: Severity::Deny,
    summary: "a stall cycle exists, so input processing is not bounded by any k",
    paper_ref: "Requirement 2 (processing completes in at most k transitions)",
};

/// SC006 — Requirement 3 violated: two inputs share an output at a state.
pub static SC006_NON_UNIQUE_OUTPUTS: LintCode = LintCode {
    code: "SC006",
    name: "non-unique-outputs",
    default_severity: Severity::Warn,
    summary: "distinct inputs produce identical outputs from the same state",
    paper_ref: "Requirement 3 (unique input implies unique output; achieved by data selection)",
};

/// SC007 — Requirement 5 violated: interaction state not observable.
pub static SC007_UNOBSERVABLE_INTERACTION: LintCode = LintCode {
    code: "SC007",
    name: "unobservable-interaction-state",
    default_severity: Severity::Deny,
    summary: "declared interaction-state variable is not among the observable signals",
    paper_ref: "Requirement 5 (interaction state is made observable)",
};

/// SC008 — ∀k-distinguishability fails for a reachable state pair.
pub static SC008_FORALL_K_FAILURE: LintCode = LintCode {
    code: "SC008",
    name: "forall-k-indistinguishable",
    default_severity: Severity::Deny,
    summary: "a reachable state pair is not forall-k-distinguishable",
    paper_ref: "Def 5 / Theorem 1 (tour completeness needs forall-k-distinguishability)",
};

/// SC020 — a latch has no next-state function.
pub static SC020_LATCH_NO_NEXT: LintCode = LintCode {
    code: "SC020",
    name: "latch-without-next",
    default_severity: Severity::Deny,
    summary: "latch has no next-state function assigned",
    paper_ref: "Sec 2 (the implementation is a closed sequential circuit)",
};

/// SC021 — an output or latch references a signal outside the node table.
pub static SC021_DANGLING_SIGNAL: LintCode = LintCode {
    code: "SC021",
    name: "dangling-signal",
    default_severity: Severity::Deny,
    summary: "output or latch next-state references a signal not in the netlist",
    paper_ref: "Sec 2 (well-formed circuit graph)",
};

/// SC022 — a latch drives nothing (transitively) observable.
pub static SC022_DEAD_LATCH: LintCode = LintCode {
    code: "SC022",
    name: "dead-latch",
    default_severity: Severity::Warn,
    summary: "latch feeds neither a primary output nor any live latch",
    paper_ref: "Sec 6 (abstraction should have removed functionally dead state)",
};

/// SC023 — a primary input drives nothing.
pub static SC023_FLOATING_INPUT: LintCode = LintCode {
    code: "SC023",
    name: "floating-input",
    default_severity: Severity::Warn,
    summary: "primary input feeds no gate, output or latch",
    paper_ref: "Sec 6.5 (inputs must constrain the expanded test vectors)",
};

/// SC024 — a primary output is a constant.
pub static SC024_CONSTANT_OUTPUT: LintCode = LintCode {
    code: "SC024",
    name: "constant-output",
    default_severity: Severity::Warn,
    summary: "primary output is driven by a constant",
    paper_ref: "Requirement 3 (constant outputs cannot distinguish inputs)",
};

/// SC025 — duplicate port or latch names.
pub static SC025_DUPLICATE_NAME: LintCode = LintCode {
    code: "SC025",
    name: "duplicate-name",
    default_severity: Severity::Warn,
    summary: "two inputs, outputs or latches share a name",
    paper_ref: "Requirement 5 (observability checks are by name)",
};

/// SC026 — a `name[i]` bit family has gaps or duplicate indices.
pub static SC026_WORD_WIDTH_GAP: LintCode = LintCode {
    code: "SC026",
    name: "word-width-gap",
    default_severity: Severity::Warn,
    summary: "bit indices of a `name[i]` family are not contiguous from 0",
    paper_ref: "Sec 6.5 (word-level fields must be fully wired)",
};

/// SC027 — a live latch is invisible at every primary output.
pub static SC027_HIDDEN_LATCH: LintCode = LintCode {
    code: "SC027",
    name: "hidden-latch",
    default_severity: Severity::Warn,
    summary: "latch affects no primary output cone (structurally unobservable state)",
    paper_ref: "Requirement 5 (interaction state is made observable)",
};

/// SC028 — combinational cycle (reported while importing BLIF).
pub static SC028_COMBINATIONAL_CYCLE: LintCode = LintCode {
    code: "SC028",
    name: "combinational-cycle",
    default_severity: Severity::Deny,
    summary: "combinational logic forms a cycle not broken by a latch",
    paper_ref: "Sec 2 (synchronous circuit model)",
};

/// SC029 — a net is referenced but never defined (BLIF import).
pub static SC029_UNDEFINED_NET: LintCode = LintCode {
    code: "SC029",
    name: "undefined-net",
    default_severity: Severity::Deny,
    summary: "net is referenced but has no driver",
    paper_ref: "Sec 2 (well-formed circuit graph)",
};

/// SC030 — the model file is syntactically malformed or unsupported.
pub static SC030_MALFORMED_MODEL_FILE: LintCode = LintCode {
    code: "SC030",
    name: "malformed-model-file",
    default_severity: Severity::Deny,
    summary: "model file fails to parse (syntax error or unsupported construct)",
    paper_ref: "Sec 7 (models interchange via SIS/BLIF)",
};

/// SC040 — quotient class vectors do not match the machine dimensions.
pub static SC040_QUOTIENT_WIDTH_MISMATCH: LintCode = LintCode {
    code: "SC040",
    name: "quotient-width-mismatch",
    default_severity: Severity::Deny,
    summary: "abstraction map's class vector lengths do not match the machine",
    paper_ref: "Sec 6.1 (the abstraction maps every state, input and output)",
};

/// SC041 — the abstraction map is not transition-preserving.
pub static SC041_NON_HOMOMORPHIC_MAP: LintCode = LintCode {
    code: "SC041",
    name: "non-homomorphic-map",
    default_severity: Severity::Deny,
    summary: "two concrete transitions map to conflicting abstract next states",
    paper_ref: "Sec 6.1/6.2 (abstraction must preserve the transition relation)",
};

/// SC042 — over-abstraction: Requirement 1 breaks under the quotient.
pub static SC042_OVER_ABSTRACTION: LintCode = LintCode {
    code: "SC042",
    name: "over-abstraction",
    default_severity: Severity::Warn,
    summary: "abstract outputs are nondeterministic, so output errors may be non-uniform",
    paper_ref: "Requirement 1 / Sec 6.3 (the measure of having abstracted too much)",
};

/// SC050 — a transfer-fault cell's union graph exceeded the node budget.
pub static SC050_COLLAPSE_AMBIGUITY: LintCode = LintCode {
    code: "SC050",
    name: "collapse-ambiguity",
    default_severity: Severity::Warn,
    summary:
        "transfer-fault bisimulation exceeded the node budget; the cell's faults stay singletons",
    paper_ref: "Defs 1-4 (static equivalence over the output/transfer error model)",
};

/// SC051 — a class of ineffective (no-op) faults.
pub static SC051_INEFFECTIVE_FAULT_CLASS: LintCode = LintCode {
    code: "SC051",
    name: "ineffective-fault-class",
    default_severity: Severity::Warn,
    summary: "fault class is a no-op (patched machine equals the golden machine); never detectable",
    paper_ref: "Defs 1/3 (an error must change an output or a destination)",
};

/// SC052 — faults targeting unreachable states.
pub static SC052_UNREACHABLE_FAULT_CLASS: LintCode = LintCode {
    code: "SC052",
    name: "unreachable-fault-class",
    default_severity: Severity::Warn,
    summary: "faults on unreachable states can never be excited, detected or masked",
    paper_ref: "Sec 5 (tours exercise only the reachable transition graph)",
};

/// Every registered code, in numeric order.
pub fn all_codes() -> &'static [&'static LintCode] {
    static ALL: [&LintCode; 25] = [
        &SC001_UNREACHABLE_STATE,
        &SC002_INCOMPLETE_ALPHABET,
        &SC003_MALFORMED_MACHINE,
        &SC004_NOT_STRONGLY_CONNECTED,
        &SC005_INFINITE_STALL,
        &SC006_NON_UNIQUE_OUTPUTS,
        &SC007_UNOBSERVABLE_INTERACTION,
        &SC008_FORALL_K_FAILURE,
        &SC020_LATCH_NO_NEXT,
        &SC021_DANGLING_SIGNAL,
        &SC022_DEAD_LATCH,
        &SC023_FLOATING_INPUT,
        &SC024_CONSTANT_OUTPUT,
        &SC025_DUPLICATE_NAME,
        &SC026_WORD_WIDTH_GAP,
        &SC027_HIDDEN_LATCH,
        &SC028_COMBINATIONAL_CYCLE,
        &SC029_UNDEFINED_NET,
        &SC030_MALFORMED_MODEL_FILE,
        &SC040_QUOTIENT_WIDTH_MISMATCH,
        &SC041_NON_HOMOMORPHIC_MAP,
        &SC042_OVER_ABSTRACTION,
        &SC050_COLLAPSE_AMBIGUITY,
        &SC051_INEFFECTIVE_FAULT_CLASS,
        &SC052_UNREACHABLE_FAULT_CLASS,
    ];
    &ALL
}

/// Looks a code up by its `SC0xx` identifier or kebab-case name.
pub fn find_code(key: &str) -> Option<&'static LintCode> {
    all_codes()
        .iter()
        .copied()
        .find(|c| c.code == key || c.name == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut codes = HashSet::new();
        let mut names = HashSet::new();
        for c in all_codes() {
            assert!(codes.insert(c.code), "duplicate code {}", c.code);
            assert!(names.insert(c.name), "duplicate name {}", c.name);
            assert!(c.code.starts_with("SC") && c.code.len() == 5, "{}", c.code);
            assert!(!c.summary.is_empty());
            assert!(!c.paper_ref.is_empty());
            assert!(
                c.name
                    .chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch == '-'),
                "{} is not kebab-case",
                c.name
            );
        }
    }

    #[test]
    fn registry_is_numerically_sorted() {
        let nums: Vec<&str> = all_codes().iter().map(|c| c.code).collect();
        let mut sorted = nums.clone();
        sorted.sort();
        assert_eq!(nums, sorted);
    }

    #[test]
    fn lookup_by_code_and_name() {
        assert_eq!(find_code("SC001").unwrap().name, "unreachable-state");
        assert_eq!(find_code("over-abstraction").unwrap().code, "SC042");
        assert!(find_code("SC999").is_none());
    }
}
