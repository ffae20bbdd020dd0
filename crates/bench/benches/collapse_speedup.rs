//! Static fault collapsing: campaign cost with `--collapse on` vs off,
//! and the analysis that builds the certificate (`<case>_analyze`), which
//! a collapse-on run pays on top of its campaign.
//! Equivalence is asserted unconditionally before timing (a sound
//! certificate makes pruning invisible: bit-identical outcomes and
//! stats), and the `verify` audit must find zero violations. The >=2x
//! median-speedup bar applies to the collapse-rich wide-output fixture
//! under the naive engine, where simulation cost is proportional to the
//! fault count and the certificate folds each cell's `outputs - 1`
//! output faults into one representative. Both modes run at jobs=1 so
//! the ratio measures the pruning, not the thread pool.

use simcov_analyze::{analyze_collapse, AnalyzeOptions};
use simcov_bench::timing::BenchReport;
use simcov_bench::{reduced_dlx_machine, wide_output_ring};
use simcov_core::{
    enumerate_single_faults, extend_cyclically, CollapseMode, Engine, Fault, FaultSpace,
    ResilientCampaign,
};
use simcov_fsm::ExplicitMealy;
use simcov_tour::{transition_tour, TestSet};

/// Tour-driven test set (the methodology's own workload shape).
fn tour_tests(m: &ExplicitMealy, laps: usize) -> TestSet {
    let tour = transition_tour(m).expect("fixture is strongly connected");
    TestSet::single(extend_cyclically(&tour.inputs, tour.inputs.len() * laps))
}

/// Analyzes, asserts collapse invisibility plus a clean audit, times the
/// analysis and an uncollapsed vs a pruned campaign at jobs=1, and
/// returns the off/on median ratio of the campaigns.
fn compare(
    rep: &mut BenchReport,
    case: &str,
    m: &ExplicitMealy,
    faults: &[Fault],
    tests: &TestSet,
    engine: Engine,
) -> f64 {
    let analysis =
        analyze_collapse(m, faults, &AnalyzeOptions::default()).expect("valid fault universe");
    let cert = &analysis.certificate;
    eprintln!(
        "  case {case}: {} states, {} faults in {} classes ({} collapsed), {} test vectors",
        m.num_states(),
        faults.len(),
        cert.num_classes(),
        cert.collapsed_faults(),
        tests.total_vectors()
    );
    let run_with = |mode: CollapseMode| {
        ResilientCampaign::new(m, faults, tests)
            .engine(engine)
            .jobs(1)
            .collapse(cert, mode)
            .run()
            .unwrap()
    };
    let off = run_with(CollapseMode::Off);
    let on = run_with(CollapseMode::On);
    assert_eq!(
        on.report.outcomes, off.report.outcomes,
        "{case}: collapse on must be invisible in the per-fault report"
    );
    assert_eq!(
        on.stats, off.stats,
        "{case}: collapse on must be invisible in the merged stats"
    );
    let verify = run_with(CollapseMode::Verify);
    let summary = verify.collapse.expect("verify carries a summary");
    assert!(
        summary.violations.is_empty(),
        "{case}: the certificate audit must be clean: {:?}",
        summary.violations
    );

    rep.bench(&format!("collapse_speedup/{case}_analyze"), || {
        analyze_collapse(m, faults, &AnalyzeOptions::default())
    });
    let toff = rep.bench(&format!("collapse_speedup/{case}_off"), || {
        run_with(CollapseMode::Off)
    });
    let ton = rep.bench(&format!("collapse_speedup/{case}_on"), || {
        run_with(CollapseMode::On)
    });
    let speedup = toff.as_secs_f64() / ton.as_secs_f64().max(f64::EPSILON);
    eprintln!("  {case}: {speedup:.2}x median speedup ({toff:.2?} off vs {ton:.2?} on)");

    rep.counter(
        &format!("collapse_speedup/{case}_faults"),
        faults.len() as u64,
    );
    rep.counter(
        &format!("collapse_speedup/{case}_classes"),
        cert.num_classes() as u64,
    );
    rep.counter(
        &format!("collapse_speedup/{case}_collapsed_faults"),
        cert.collapsed_faults() as u64,
    );
    rep.counter(
        &format!("collapse_speedup/{case}_speedup_x100"),
        (speedup * 100.0) as u64,
    );
    speedup
}

fn main() {
    eprintln!("== Static fault-collapsing speedup ==");
    let mut rep = BenchReport::new("collapse_speedup");

    // Gated case: 24 wrong output labels per cell, all equivalent, under
    // the engine whose cost is proportional to the fault count. The
    // certificate prunes ~96% of the campaign.
    let wide = wide_output_ring(192, 25);
    let wide_faults = enumerate_single_faults(
        &wide,
        &FaultSpace {
            transfer: false,
            output: true,
            max_faults: usize::MAX,
            seed: 0,
        },
    );
    let wide_speedup = compare(
        &mut rep,
        "wide",
        &wide,
        &wide_faults,
        &tour_tests(&wide, 1),
        Engine::Naive,
    );

    // Informative case: the flagship DLX campaign over its default mixed
    // transfer/output fault space — collapse-poor by comparison (most
    // faults are transfer faults with distinct behaviours), so no bar:
    // under the differential engine the analysis plus expansion can even
    // cost more than the pruning saves. The equivalence and audit
    // assertions above still apply.
    let dlx = reduced_dlx_machine();
    let dlx_faults = enumerate_single_faults(
        &dlx,
        &FaultSpace {
            max_faults: 2_000,
            seed: 7,
            ..FaultSpace::default()
        },
    );
    compare(
        &mut rep,
        "dlx",
        &dlx,
        &dlx_faults,
        &tour_tests(&dlx, 2),
        Engine::Differential,
    );

    rep.write().expect("write bench report");

    assert!(
        wide_speedup >= 2.0,
        "expected >=2x median campaign speedup from collapsing on the \
         wide-output fixture, measured {wide_speedup:.2}x"
    );
}
