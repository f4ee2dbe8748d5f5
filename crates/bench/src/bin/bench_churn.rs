//! Machine-readable phaser churn trajectory: `BENCH_churn.json`.
//!
//! Measures wall-clock episode throughput (simulated episodes per second
//! through the rendezvous scheduler) of both phasers at P = 64 on the
//! paper's Kunpeng preset, in two regimes: a steady team and a 10%-churn
//! team (one slot flaps — orderly leave, one epoch out, rejoin — every ten
//! epochs). The workload is byte-for-byte the churn experiment's worker
//! (`armbar_experiments::figs::churn::churn_run_ns`), so the bench prices
//! exactly what the `churn` CSV sweep prices, just in wall seconds.
//!
//! ```text
//! bench_churn [--out PATH] [--summary PATH]
//! ```
//!
//! Unlike `bench_sim`, this file is *informational* — CI publishes it in
//! the non-blocking bench summary and never gates on it: churn throughput
//! tracks boundary-commit cost, which the blocking `engine_ops_per_sec_*`
//! gate already covers upstream. If the output file already exists, its
//! `baseline` section is carried forward (new keys seeded from the fresh
//! run) so the pre-phaser reference stays next to the current numbers.

use std::sync::Arc;
use std::time::Instant;

use armbar_core::registry::AlgorithmId;
use armbar_experiments::figs::churn::churn_run_ns;
use armbar_sweep::bench_json::{
    append_summary, deltas, print_deltas, render_doc, summary_markdown, Point,
};
use armbar_topology::{Platform, Topology};

/// Episodes per run: long enough for a period-10 flap to complete several
/// full cycles, short enough that one attempt stays O(100 ms) at P = 64.
const EPISODES: u32 = 40;
/// Independently seeded runs per timed attempt.
const REPS: u64 = 4;
/// Timed attempts; best is reported (shared-VM wall clocks are noisy, the
/// maximum over attempts estimates capability — same policy as bench_sim).
const ATTEMPTS: u32 = 5;

/// One measured point: simulated episodes completed per wall-second.
fn churn_point(id: AlgorithmId, p: usize, period: Option<u32>) -> Point {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let one_rep = |rep: u64| churn_run_ns(&topo, p, id, period, EPISODES, 0x5EED ^ rep);
    one_rep(u64::from(EPISODES)); // untimed warm-up (spawns the sim team)
    let mut best = 0.0f64;
    for _ in 0..ATTEMPTS {
        let t0 = Instant::now();
        for rep in 0..REPS {
            one_rep(rep);
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max((REPS * u64::from(EPISODES)) as f64 / secs);
    }
    let regime = match period {
        None => "steady".to_string(),
        Some(per) => format!("churn{}", 100 / per),
    };
    let key = format!("episodes_per_sec_{}_p{}_{}", id.label().to_ascii_lowercase(), p, regime);
    Point::new(&key, best)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned());
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_churn.json".to_string());
    let summary_path = flag_value("--summary");

    let mut points = Vec::new();
    for id in AlgorithmId::PHASERS {
        for period in [None, Some(10u32)] {
            let pt = churn_point(id, 64, period);
            eprintln!("churn {:>38}: {:>10.0} episodes/s", pt.key, pt.value);
            points.push(pt);
        }
    }

    // Delta of this run against the committed `benches` section
    // (informational only — there is no gate flag on purpose).
    let previous = std::fs::read_to_string(&out).ok();
    let rows = previous.as_deref().map(|p| deltas(&points, p)).unwrap_or_default();
    print_deltas(&out, &rows);
    if let Some(path) = &summary_path {
        append_summary(
            path,
            &summary_markdown("Phaser churn bench (non-blocking)", &points, &rows),
        );
    }
    std::fs::write(&out, render_doc(&points, &[], previous.as_deref()))
        .expect("failed to write BENCH_churn.json");
    eprintln!("wrote {out}");
}
