//! Symbolic-scale fault campaigns: the implicit (BDD fault-family)
//! campaign on the full-width 22-latch / 25-input DLX test model — the
//! workload no explicit engine can enumerate. Gated by the CI perf job
//! through the committed baseline like every other entry.

use simcov_bench::timing::BenchReport;
use simcov_core::{run_implicit_campaign, ImplicitConfig, ImplicitReport};
use simcov_dlx::testmodel::{derive_test_model, pair_valid_inputs_bdd};

/// The implicit campaign on the full-width DLX under the abstract-ISA
/// valid-input constraint, its flips serial (`jobs: 1`); the prep's two
/// halves still take two threads.
fn implicit_full_dlx(k: usize) -> ImplicitReport {
    let (fin, _) = derive_test_model();
    run_implicit_campaign(&fin, pair_valid_inputs_bdd, &ImplicitConfig { k, jobs: 1 })
}

fn main() {
    let mut rep = BenchReport::new("symbolic_scale");

    let r = implicit_full_dlx(1);
    eprintln!("== symbolic scale: full-width DLX (implicit) ==");
    eprintln!("{r}");
    rep.counter(
        "symbolic/full_dlx_reachable_states",
        u64::try_from(r.reachable_states).unwrap_or(u64::MAX),
    );
    rep.counter(
        "symbolic/full_dlx_reachable_cells",
        u64::try_from(r.reachable_cells).unwrap_or(u64::MAX),
    );
    rep.counter(
        "symbolic/full_dlx_valid_inputs",
        u64::try_from(r.valid_inputs).unwrap_or(u64::MAX),
    );
    rep.bench("symbolic/implicit_full_dlx", || implicit_full_dlx(1));

    rep.write().expect("write bench report");
}
