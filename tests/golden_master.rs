//! Golden-master regression: the simulator's model output is pinned
//! byte-for-byte.
//!
//! The fixture under `tests/fixtures/` is a quick-scale `algo_curve` CSV for
//! phytium2000p × {SENSE, STOUR, DIS} on the canonical seed schedule,
//! rendered with Rust's default (shortest round-trip) `f64` formatting. Any
//! engine or topology change that shifts a single bit of any overhead value
//! changes a byte here and fails the test — performance refactors must
//! reproduce the model's output exactly, not approximately.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_master
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use std::sync::Arc;

use armbar_core::prelude::AlgorithmId;
use armbar_experiments::{
    runner::{algo_curve_on, topo},
    Scale,
};
use armbar_sweep::SweepPool;
use armbar_topology::{Platform, RmwCosts, Topology};

const ALGOS: [AlgorithmId; 3] =
    [AlgorithmId::Sense, AlgorithmId::Stour, AlgorithmId::Dissemination];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Renders the golden curves for one topology. Serial pool — the
/// sweep-determinism suite already proves parallel pools produce
/// identical bytes.
fn render_golden_csv_for(t: &Arc<Topology>) -> String {
    let scale = Scale::quick();
    let pool = SweepPool::new(1);
    let mut csv = String::from("algorithm,threads,overhead_ns\n");
    for id in ALGOS {
        for (p, ns) in algo_curve_on(&pool, t, id, &scale) {
            writeln!(csv, "{},{},{}", id.label(), p, ns).unwrap();
        }
    }
    csv
}

fn render_golden_csv(platform: Platform) -> String {
    render_golden_csv_for(&topo(platform))
}

fn check_fixture(platform: Platform, name: &str) {
    let path = fixture_path(name);
    let fresh = render_golden_csv(platform);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &fresh).expect("failed to write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with GOLDEN_REGEN=1", path.display())
    });
    assert_eq!(
        fresh, committed,
        "simulator output diverged from the golden master; if the model \
         change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn model_output_matches_committed_fixture_byte_for_byte() {
    check_fixture(Platform::Phytium2000Plus, "golden_algo_curve_phytium_quick.csv");
}

/// Kunpeng 920 fixture generated by the single-heap engine and never
/// regenerated: it pins the scheduler's processing order on a machine with
/// three latency layers and 128-byte lines.
#[test]
fn sharded_scheduler_reproduces_pre_shard_kunpeng_fixture() {
    check_fixture(Platform::Kunpeng920, "golden_algo_curve_kunpeng_quick.csv");
}

/// Same provenance as the Kunpeng fixture, for the two-socket ThunderX2.
#[test]
fn sharded_scheduler_reproduces_pre_shard_thunderx2_fixture() {
    check_fixture(Platform::ThunderX2, "golden_algo_curve_thunderx2_quick.csv");
}

/// Equal-costs identity (DESIGN.md §17): the `presplit_*` fixtures are
/// byte copies of the ARM golden masters as generated by the engine
/// *before* the per-op-kind RMW cost split, when every platform charged
/// the single legacy surcharge `ε + 0.5·transfer`. Re-running the same
/// curves on the split engine with a uniform legacy table must reproduce
/// those bytes exactly — `1.0·ε + 0.5·transfer` is the same IEEE-754
/// expression, so the refactor may not move a single bit. These fixtures
/// are frozen: there is deliberately no `GOLDEN_REGEN` path here.
#[test]
fn legacy_rmw_costs_reproduce_presplit_fixtures_byte_for_byte() {
    for (platform, name) in [
        (Platform::Phytium2000Plus, "presplit_algo_curve_phytium_quick.csv"),
        (Platform::ThunderX2, "presplit_algo_curve_thunderx2_quick.csv"),
        (Platform::Kunpeng920, "presplit_algo_curve_kunpeng_quick.csv"),
    ] {
        let t = Arc::new(Topology::preset(platform).with_rmw_costs(RmwCosts::legacy()));
        let fresh = render_golden_csv_for(&t);
        let committed = std::fs::read_to_string(fixture_path(name))
            .unwrap_or_else(|e| panic!("missing frozen fixture {name} ({e})"));
        assert_eq!(
            fresh, committed,
            "{platform:?}: the split engine under uniform legacy RMW costs \
             must be byte-identical to the pre-split engine"
        );
    }
}
