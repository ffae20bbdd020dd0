//! Test-model derivation: the abstraction sequence of Fig 3(b), the
//! abstract input format, the valid-input constraint, and reduced models
//! for explicit end-to-end experiments.
//!
//! The paper's sequence (numbers are latch counts after each step):
//!
//! ```text
//! 160 ──no synchronizing latches for outputs──▶ 118
//!     ──4 registers instead of 32────────────▶ 110
//!     ──fetch controller removed─────────────▶  86
//!     ──remove outputs not affecting control─▶  54
//!     ──1-hot to binary encoding─────────────▶  46
//!     ──remove interlock registers───────────▶  22
//! ```
//!
//! The final model has 22 latches, 25 primary inputs (the 18-bit abstract
//! instruction format + 7 status signals) and 4 primary outputs.

use crate::control;
use simcov_abstraction::{Pipeline, Step, StepReport};
use simcov_bdd::{Bdd, BddManager, Var};
use simcov_fsm::{EnumerateOptions, PairFsm, SymbolicFsm};
use simcov_netlist::{transform, Netlist, Word};

/// The latch counts of Fig 3(b), including the initial model.
pub const FIG3B_LATCH_SEQUENCE: [usize; 7] = [160, 118, 110, 86, 54, 46, 22];

/// The six abstraction-step labels of Fig 3(b), in application order.
pub const FIG3B_LABELS: [&str; 6] = [
    "no synchronizing latches for outputs",
    "4 registers instead of 32",
    "fetch controller removed",
    "remove outputs not affecting control logic",
    "1-hot to binary encoding",
    "remove interlock registers",
];

/// Builds the Fig 3(b) abstraction pipeline.
pub fn fig3b_pipeline() -> Pipeline {
    let mut p = Pipeline::new();
    p.push(
        FIG3B_LABELS[0],
        Step::Bypass(Box::new(|_, l| l.module == "sync_out")),
    );
    p.push(
        FIG3B_LABELS[1],
        Step::Custom(Box::new(|n| {
            let names = control::upper_addr_bit_names();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let tied = transform::tie_inputs(n, &refs, false);
            transform::fold_constant_latches(&tied)
        })),
    );
    p.push(
        FIG3B_LABELS[2],
        Step::ConstantFold(Box::new(|_, l| l.module == "fetch")),
    );
    p.push(
        FIG3B_LABELS[3],
        Step::KeepOutputs(Box::new(|name| control::FINAL_OUTPUTS.contains(&name))),
    );
    p.push(
        FIG3B_LABELS[4],
        Step::Custom(Box::new(|n| {
            let ex_group: Vec<_> = control::ex_class_names()
                .iter()
                .map(|nm| n.latch_by_name(nm).expect("ex class latch present"))
                .collect();
            let n = transform::reencode_onehot(n, &ex_group, "ex.class_bin")
                .expect("ex class group is one-hot");
            let mem_group: Vec<_> = control::mem_class_names()
                .iter()
                .map(|nm| n.latch_by_name(nm).expect("mem class latch present"))
                .collect();
            transform::reencode_onehot(&n, &mem_group, "mem.class_bin")
                .expect("mem class group is one-hot")
        })),
    );
    p.push(
        FIG3B_LABELS[5],
        Step::ConstantFold(Box::new(|_, l| l.module == "interlock")),
    );
    p
}

/// Runs the full derivation: initial model → six abstraction steps.
/// Returns the final 22-latch test model and the per-step reports.
pub fn derive_test_model() -> (Netlist, Vec<StepReport>) {
    let initial = control::initial_control_netlist();
    fig3b_pipeline().run(&initial)
}

/// The final test model with every latch exported as an `obs:` output —
/// Requirement 5 applied at full scale. On this variant the symbolic pair
/// analysis proves ∀1-distinguishability of all reachable state pairs
/// (Theorem 2's conclusion, verified mechanically), whereas the bare
/// 4-output model has tens of thousands of indistinguishable pairs.
pub fn derive_test_model_observable() -> Netlist {
    let (mut fin, _) = derive_test_model();
    for l in fin.latch_ids().collect::<Vec<_>>() {
        let name = fin.latches()[l.index()].name.clone();
        let o = fin.latch_output(l);
        fin.add_output(format!("obs:{name}"), o);
    }
    fin
}

/// Builds the valid-input constraint of the final test model (the input
/// don't-cares of Section 7.2) as a BDD over the model's input variables.
///
/// Encodes the 18-bit abstract instruction format: 6-bit opcode, 6-bit
/// func (zero except for R-type, where only the 16 defined functions are
/// legal), and three 2-bit register fields with per-format canonical-zero
/// constraints. The 7 status inputs are unconstrained.
pub fn valid_inputs_bdd(fsm: &mut SymbolicFsm) -> Bdd {
    let names = fsm.input_names_owned();
    let vars: Vec<Var> = (0..names.len()).map(|k| fsm.input_var(k)).collect();
    constraint_by_name(fsm.mgr(), &names, &vars)
}

/// The pair-machine twin of [`valid_inputs_bdd`]: the same constraint
/// over a [`PairFsm`]'s shared inputs, for [`PairFsm::set_valid_inputs`].
pub fn pair_valid_inputs_bdd(pf: &mut PairFsm) -> Bdd {
    let names = pf.input_names_owned();
    let vars: Vec<Var> = (0..names.len()).map(|k| pf.input_var(k)).collect();
    constraint_by_name(pf.mgr(), &names, &vars)
}

/// [`valid_inputs_constraint`] with input `names[k]` at `vars[k]`.
fn constraint_by_name(mgr: &mut BddManager, names: &[String], vars: &[Var]) -> Bdd {
    valid_inputs_constraint(mgr, &|name| {
        let k = names.iter().position(|n| n == name);
        vars[k.unwrap_or_else(|| panic!("final model lost input `{name}`"))]
    })
}

/// The same constraint, parameterised over the variable assignment — used
/// by [`valid_inputs_bdd`], [`pair_valid_inputs_bdd`] and the input-class
/// analysis, which lay out variables differently.
pub fn valid_inputs_constraint(
    mgr: &mut simcov_bdd::BddManager,
    input_var: &dyn Fn(&str) -> simcov_bdd::Var,
) -> Bdd {
    use crate::isa::opcode::*;
    fn bit(mgr: &mut simcov_bdd::BddManager, v: simcov_bdd::Var) -> Bdd {
        mgr.var(v.0)
    }
    let field = |mgr: &mut simcov_bdd::BddManager, lo: usize, width: usize| -> Vec<Bdd> {
        (0..width)
            .map(|i| {
                let v = input_var(&format!("instr[{}]", lo + i));
                bit(mgr, v)
            })
            .collect()
    };
    fn eq_const(mgr: &mut simcov_bdd::BddManager, bits: &[Bdd], val: u64) -> Bdd {
        let mut acc = Bdd::TRUE;
        for (i, &b) in bits.iter().enumerate() {
            let lit = if (val >> i) & 1 == 1 { b } else { mgr.not(b) };
            acc = mgr.and(acc, lit);
        }
        acc
    }
    let op = field(mgr, control::fields::OP.0, 6);
    let func = field(mgr, control::fields::FUNC.0, 6);
    let rs1 = field(mgr, control::fields::RS1.0, 2);
    let rfield = field(mgr, control::fields::RFIELD.0, 2);
    let rd_r = field(mgr, control::fields::RD_R.0, 2);

    let func_zero = eq_const(mgr, &func, 0);
    let func_legal = {
        // func < 16: top two bits zero.
        let n4 = mgr.not(func[4]);
        let n5 = mgr.not(func[5]);
        mgr.and(n4, n5)
    };
    let rs1_zero = eq_const(mgr, &rs1, 0);
    let rf_zero = eq_const(mgr, &rfield, 0);
    let rf_link = eq_const(mgr, &rfield, 3);
    let rd_zero = eq_const(mgr, &rd_r, 0);

    let mut valid = Bdd::FALSE;
    let add_case =
        |mgr: &mut simcov_bdd::BddManager, valid: &mut Bdd, opc: u32, constraint: Bdd| {
            let this_op = eq_const(mgr, &op, opc as u64);
            let case = mgr.and(this_op, constraint);
            *valid = mgr.or(*valid, case);
        };
    // R-type: 16 legal funcs, all register fields free.
    add_case(mgr, &mut valid, OP_RTYPE, func_legal);
    // I-type ALU + LHI + loads + stores: func zero, R-type rd field zero.
    let itype = mgr.and(func_zero, rd_zero);
    for opc in [
        OP_ADDI, OP_ADDUI, OP_SUBI, OP_SUBUI, OP_ANDI, OP_ORI, OP_XORI, OP_LHI, OP_SLLI, OP_SRLI,
        OP_SRAI, OP_SEQI, OP_SNEI, OP_SLTI, OP_SGTI, OP_SLEI, OP_SGEI, OP_LB, OP_LH, OP_LW, OP_LBU,
        OP_LHU, OP_SB, OP_SH, OP_SW,
    ] {
        add_case(mgr, &mut valid, opc, itype);
    }
    // Branches: rd fields zero, rs1 free.
    let branch_c = mgr.and(itype, rf_zero);
    for opc in [OP_BEQZ, OP_BNEZ] {
        add_case(mgr, &mut valid, opc, branch_c);
    }
    // J / NOP / HALT: every field zero. JAL: link register in rd field.
    let all_zero = mgr.and(branch_c, rs1_zero);
    add_case(mgr, &mut valid, OP_J, all_zero);
    let jal_c = {
        let t = mgr.and(itype, rf_link);
        mgr.and(t, rs1_zero)
    };
    add_case(mgr, &mut valid, OP_JAL, jal_c);
    // JR: rs1 free, rest zero. JALR: rs1 free, link in rd field.
    add_case(mgr, &mut valid, OP_JR, branch_c);
    let jalr_c = mgr.and(itype, rf_link);
    add_case(mgr, &mut valid, OP_JALR, jalr_c);
    add_case(mgr, &mut valid, OP_NOP, all_zero);
    add_case(mgr, &mut valid, OP_HALT, all_zero);
    valid
}

/// Collapses the final model's valid input space to its behavioural
/// equivalence classes (two vectors are equivalent when they drive every
/// reachable state to the same successor with the same outputs) and
/// enumerates the resulting *class-quotient machine* explicitly.
///
/// This is what makes the paper's Section 7.2 tour tractable here: the
/// 184,832 valid vectors collapse to 332 classes, turning the
/// 287-million-transition model into an explicitly tourable machine of
/// 515,264 class-transitions. It takes about 2 s in a release build on
/// a 2-vCPU host.
pub fn full_model_class_machine() -> (simcov_fsm::ExplicitMealy, simcov_fsm::InputClasses) {
    class_machine(&derive_test_model().0)
}

/// The class-quotient machine of the *observable* full model
/// (Requirement 5 applied): same input-class analysis as
/// [`full_model_class_machine`], over the netlist whose 22 latches are
/// exported as outputs. This is the machine on which Theorem 3 is
/// exercised at full scale: certifiable at k = 1, tourable, and
/// attackable with fault campaigns.
pub fn full_model_class_machine_observable() -> (simcov_fsm::ExplicitMealy, simcov_fsm::InputClasses)
{
    class_machine(&derive_test_model_observable())
}

/// The input classes of a full-width model under the abstract-ISA
/// valid-input constraint, and its machine enumerated over one
/// representative per class (input labels `c0`, `c1`, ...).
fn class_machine(fin: &Netlist) -> (simcov_fsm::ExplicitMealy, simcov_fsm::InputClasses) {
    let classes = simcov_fsm::input_equivalence_classes(
        fin,
        |mgr, lookup| valid_inputs_constraint(mgr, &|name| lookup(name)),
        true,
        1_000_000,
    )
    .expect("class count is far below the bound");
    let opts = EnumerateOptions {
        inputs: classes.representatives.clone(),
        input_labels: Some(
            (0..classes.representatives.len())
                .map(|i| format!("c{i}"))
                .collect(),
        ),
        max_states: 1 << 20,
    };
    let m = simcov_fsm::enumerate_netlist(fin, &opts).expect("class-quotient machine enumerates");
    (m, classes)
}

/// A reduced pipeline-control model, small enough for explicit
/// enumeration, tour generation and exhaustive fault campaigns: 2-bit
/// opcode (`nop`/`alu`/`load`/`branch`), two architectural registers (1
/// destination bit), one-deep interlock and squash logic.
///
/// Inputs: `op[0..2]`, `rs1`, `rd`, `zero_flag` (5 bits).
/// Outputs: `stall`, `squash`, `rf_wen`.
pub fn reduced_control_netlist() -> Netlist {
    reduced_control(false)
}

/// The reduced control model with its interaction state made observable —
/// the paper's Requirement 5 construction (*"the state associated with
/// interactions between processing of subsequent inputs is made
/// observable"*).
///
/// Every latch is exported as an `obs:<name>` output. Without these
/// outputs the reduced model is **not** ∀k-distinguishable for any `k`
/// (pairs differing only in interaction state produce identical output
/// streams along some input sequences); with them it is
/// ∀1-distinguishable and [`simcov_core::certify_completeness`] issues a
/// certificate.
pub fn reduced_control_netlist_observable() -> Netlist {
    let mut n = reduced_control_netlist();
    for l in n.latch_ids().collect::<Vec<_>>() {
        let name = n.latches()[l.index()].name.clone();
        let o = n.latch_output(l);
        n.add_output(format!("obs:{name}"), o);
    }
    n
}

/// The reduced control model extended with a memory-wait path: a
/// `mem_ready` input and `stall = load_stall | mem_stall` (the exact
/// structure the paper's Figure 1 snippet shows). Used for the
/// Requirement 2 experiment: with `mem_ready` free, the model has an
/// infinite-stall cycle (processing time unbounded — Requirement 2
/// violated); constraining `mem_ready = 1` (the perfect-memory
/// environment assumption) restores a finite bound.
pub fn reduced_control_netlist_with_memory() -> Netlist {
    reduced_control(true)
}

/// The reduced control model, with the memory-wait path when `memory`
/// holds: the `mem_ready` input, a `mem.is_load` latch, a memory stall
/// in `stall`, and MEM latches that hold while it lasts.
fn reduced_control(memory: bool) -> Netlist {
    let mut n = Netlist::new();
    let op = Word::inputs(&mut n, "op", 2);
    let rs1 = n.add_input("rs1");
    let rd = n.add_input("rd");
    let zero_flag = n.add_input("zero_flag");
    let mem_ready = memory.then(|| n.add_input("mem_ready"));

    let is_alu = op.eq_const(&mut n, 1);
    let is_load = op.eq_const(&mut n, 2);
    let is_branch = op.eq_const(&mut n, 3);
    let uses_rs1 = {
        let t = n.or(is_alu, is_load);
        n.or(t, is_branch)
    };
    let writes = {
        let t = n.or(is_alu, is_load);
        n.and(t, rd) // writes only when rd = r1 (r0 is discarded)
    };

    // State.
    let id_stallflag = n.add_latch_in("id.stallflag", false, "id");
    let id_stallflag_o = n.latch_output(id_stallflag);
    let ex_valid = n.add_latch_in("ex.valid", false, "ex");
    let ex_valid_o = n.latch_output(ex_valid);
    let ex_is_load = n.add_latch_in("ex.is_load", false, "ex");
    let ex_is_load_o = n.latch_output(ex_is_load);
    let ex_is_branch = n.add_latch_in("ex.is_branch", false, "ex");
    let ex_is_branch_o = n.latch_output(ex_is_branch);
    let ex_writes = n.add_latch_in("ex.writes", false, "ex");
    let ex_writes_o = n.latch_output(ex_writes);
    let mem_is_load = memory.then(|| {
        let l = n.add_latch_in("mem.is_load", false, "mem");
        (l, n.latch_output(l))
    });
    let mem_valid = n.add_latch_in("mem.valid", false, "mem");
    let mem_valid_o = n.latch_output(mem_valid);
    let mem_writes = n.add_latch_in("mem.writes", false, "mem");
    let mem_writes_o = n.latch_output(mem_writes);
    let br_squash = n.add_latch_in("branch.squash", false, "branch");
    let br_squash_o = n.latch_output(br_squash);

    // Control equations (one-destination-register design: a hazard exists
    // when the EX instruction writes r1 and the incoming one reads r1).
    let mut load_stall = n.and(ex_is_load_o, ex_valid_o);
    load_stall = n.and(load_stall, ex_writes_o);
    let reads_r1 = n.and(uses_rs1, rs1);
    load_stall = n.and(load_stall, reads_r1);
    let nsf = n.not(id_stallflag_o);
    load_stall = n.and(load_stall, nsf);
    // With memory, the paper's own structure: stall = load_stall |
    // mem_stall.
    let mem_stall = mem_ready.zip(mem_is_load).map(|(ready, (_, is_load_o))| {
        let nready = n.not(ready);
        let t = n.and(is_load_o, mem_valid_o);
        n.and(t, nready)
    });
    let stall = match mem_stall {
        Some(mem_stall) => n.or(load_stall, mem_stall),
        None => load_stall,
    };

    let taken = {
        let t = n.and(ex_is_branch_o, ex_valid_o);
        n.and(t, zero_flag)
    };
    let squash = n.or(taken, br_squash_o);

    let not_stall = n.not(stall);
    let not_squash = n.not(squash);
    let issue = n.and(not_stall, not_squash);

    // Next state.
    n.set_latch_next(id_stallflag, stall);
    n.set_latch_next(ex_valid, issue);
    let ldn = n.and(is_load, issue);
    n.set_latch_next(ex_is_load, ldn);
    let brn = n.and(is_branch, issue);
    n.set_latch_next(ex_is_branch, brn);
    let wrn = n.and(writes, issue);
    n.set_latch_next(ex_writes, wrn);
    // MEM holds while waiting for memory.
    let hold = |n: &mut Netlist, held, next| match mem_stall {
        Some(mem_stall) => n.mux(mem_stall, held, next),
        None => next,
    };
    if let Some((l, is_load_o)) = mem_is_load {
        let to_mem_load = n.and(ex_is_load_o, ex_valid_o);
        let mln = hold(&mut n, is_load_o, to_mem_load);
        n.set_latch_next(l, mln);
    }
    let mvn = hold(&mut n, mem_valid_o, ex_valid_o);
    n.set_latch_next(mem_valid, mvn);
    let to_mem_writes = n.and(ex_writes_o, ex_valid_o);
    let mwn = hold(&mut n, mem_writes_o, to_mem_writes);
    n.set_latch_next(mem_writes, mwn);
    n.set_latch_next(br_squash, taken);

    // Outputs.
    n.add_output("stall", stall);
    n.add_output("squash", squash);
    let rf_wen = n.and(mem_valid_o, mem_writes_o);
    n.add_output("rf_wen", rf_wen);

    debug_assert!(n.check().is_empty());
    n
}

/// Valid input vectors of the memory variant: the reduced-model rules
/// plus a policy for `mem_ready` (`None` = free, `Some(v)` = tied).
pub fn reduced_memory_valid_inputs(n: &Netlist, mem_ready: Option<bool>) -> EnumerateOptions {
    EnumerateOptions::filtered(n, move |v| {
        reduced_instruction_ok(v) && mem_ready.is_none_or(|want| v[5] == want)
    })
}

/// Valid input vectors of the reduced model: `nop` carries zero register
/// fields; `branch` carries no destination.
pub fn reduced_valid_inputs(n: &Netlist) -> EnumerateOptions {
    EnumerateOptions::filtered(n, reduced_instruction_ok)
}

/// The reduced models' instruction rule over `op[0..2]`, `rs1`, `rd`
/// (the first four inputs).
fn reduced_instruction_ok(v: &[bool]) -> bool {
    let op = (v[0] as u8) | ((v[1] as u8) << 1);
    let rs1 = v[2];
    let rd = v[3];
    match op {
        0 => !rs1 && !rd, // nop
        1 | 2 => true,    // alu / load
        3 => !rd,         // branch
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_fsm::enumerate_netlist;

    #[test]
    fn fig3b_latch_sequence_matches_paper() {
        let initial = control::initial_control_netlist();
        assert_eq!(initial.stats().latches, FIG3B_LATCH_SEQUENCE[0]);
        let (_, reports) = fig3b_pipeline().run(&initial);
        let measured: Vec<usize> = reports.iter().map(|r| r.stats.latches).collect();
        assert_eq!(measured, FIG3B_LATCH_SEQUENCE[1..].to_vec());
    }

    #[test]
    fn final_model_interface_matches_paper() {
        let (fin, _) = derive_test_model();
        let s = fin.stats();
        assert_eq!(s.latches, 22, "final test model: 22 latches");
        assert_eq!(s.inputs, 25, "final test model: 25 primary inputs");
        assert_eq!(s.outputs, 4, "final test model: 4 primary outputs");
    }

    #[test]
    fn final_model_has_18_bit_instruction_format() {
        let (fin, _) = derive_test_model();
        let instr_bits = fin
            .input_names()
            .filter(|n| n.starts_with("instr["))
            .count();
        assert_eq!(instr_bits, 18, "18-bit abstract instruction format");
        let status_bits = fin
            .input_names()
            .filter(|n| !n.starts_with("instr["))
            .count();
        assert_eq!(status_bits, 7);
    }

    #[test]
    fn valid_input_count_is_small_fraction() {
        let (fin, _) = derive_test_model();
        let mut fsm = SymbolicFsm::from_netlist(&fin);
        let valid = valid_inputs_bdd(&mut fsm);
        fsm.set_valid_inputs(valid);
        let count = fsm.count_valid_inputs();
        // 1444 legal instruction encodings × 2^7 free status bits.
        assert_eq!(count, 1444 * 128);
        // A small fraction of the 2^25 input space, as in the paper
        // (8228 of 2^25 there).
        assert!(count < (1u128 << 25) / 100);
    }

    #[test]
    fn reduced_model_enumerates() {
        let n = reduced_control_netlist();
        assert_eq!(n.stats().latches, 8);
        let opts = reduced_valid_inputs(&n);
        assert_eq!(opts.inputs.len(), 22); // (1 + 4 + 4 + 2) × 2
        let m = enumerate_netlist(&n, &opts).unwrap();
        assert!(m.num_states() >= 8, "{} states", m.num_states());
        assert!(m.is_complete());
        assert!(m.is_strongly_connected());
    }

    #[test]
    fn requirement5_gates_distinguishability() {
        use simcov_core::forall_k_distinguishable;
        // Without observable interaction state: stuck indistinguishable
        // pairs at every depth (the violation Requirement 5 repairs).
        let base = reduced_control_netlist();
        let mb = enumerate_netlist(&base, &reduced_valid_inputs(&base)).unwrap();
        let d = forall_k_distinguishable(&mb, 4, 0).unwrap();
        assert!(!d.holds(), "base reduced model must violate forall-k");
        // With it: forall-1-distinguishable.
        let obs = reduced_control_netlist_observable();
        let mo = enumerate_netlist(&obs, &reduced_valid_inputs(&obs)).unwrap();
        let d = forall_k_distinguishable(&mo, 1, 0).unwrap();
        assert!(
            d.holds(),
            "observable model must be forall-1-distinguishable"
        );
    }

    #[test]
    fn reduced_model_stalls_on_load_use() {
        use simcov_netlist::SimState;
        let n = reduced_control_netlist();
        let mut sim = SimState::new(&n);
        // load r1; alu reading r1 -> stall.
        let load_rd1 = [false, true, false, true, false]; // op=2, rd=1
        let alu_rs1 = [true, false, true, true, false]; // op=1, rs1=1
        let nop = [false, false, false, false, false];
        sim.step(&n, &load_rd1);
        let o = sim.step(&n, &alu_rs1);
        assert!(o[0], "stall must assert during load-use");
        let o = sim.step(&n, &nop);
        assert!(!o[0]);
    }

    #[test]
    fn reduced_model_squashes_on_taken_branch() {
        use simcov_netlist::SimState;
        let n = reduced_control_netlist();
        let mut sim = SimState::new(&n);
        let branch = [true, true, false, false, true]; // op=3, zero_flag=1
        let nop = [false, false, false, false, false];
        sim.step(&n, &branch);
        let o = sim.step(&n, &[false, false, false, false, true]); // zf still 1
        assert!(o[1], "squash during branch resolve");
        let o = sim.step(&n, &nop);
        assert!(o[1], "squash extends one cycle via br_squash");
        let o = sim.step(&n, &nop);
        assert!(!o[1]);
    }
}
