//! E2 / Theorems 1-3: completeness of transition tours on a compliant
//! test model, validated by exhaustive single-fault injection.

use simcov_bench::timing::BenchReport;
use simcov_bench::{reduced_dlx_machine, reduced_dlx_machine_hidden};
use simcov_core::{
    certify_completeness, enumerate_single_faults, extend_cyclically, FaultSpace, ResilientCampaign,
};
use simcov_tour::{transition_tour, TestSet};

fn report() {
    eprintln!("== Completeness (Theorem 3) ==");
    for (name, m, k) in [
        (
            "observable (Req 5 satisfied)",
            reduced_dlx_machine(),
            1usize,
        ),
        ("hidden (Req 5 violated)", reduced_dlx_machine_hidden(), 4),
    ] {
        let cert = certify_completeness(&m, k, None);
        let tour = transition_tour(&m).unwrap();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        let tests = TestSet::single(extend_cyclically(&tour.inputs, k));
        let run = ResilientCampaign::new(&m, &faults, &tests).run().unwrap();
        eprintln!(
            "  {name}: certificate={}, tour len {}, campaign {}",
            if cert.is_ok() { "ISSUED" } else { "REJECTED" },
            tour.len(),
            run.report,
        );
        eprintln!("    stats: {}", run.stats);
    }
    eprintln!("  (paper: certified model => complete test set; violated => escapes)");
}

fn main() {
    report();
    let mut rep = BenchReport::new("completeness");
    let m = reduced_dlx_machine();
    rep.bench("completeness/certify_k1", || {
        certify_completeness(&m, 1, None).unwrap()
    });
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: 500,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).unwrap();
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 1));
    rep.bench("completeness/campaign_500_faults", || {
        ResilientCampaign::new(&m, &faults, &tests).run().unwrap()
    });
    // One telemetry-instrumented run snapshots the campaign counters
    // into the report, so perf numbers carry their workload context.
    let tel = simcov_obs::Telemetry::new();
    let _ = ResilientCampaign::new(&m, &faults, &tests)
        .telemetry(tel.clone())
        .run()
        .unwrap();
    rep.counters_from(&tel.snapshot());
    rep.write().expect("write bench report");
}
