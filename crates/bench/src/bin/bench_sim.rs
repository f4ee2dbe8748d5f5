//! Machine-readable simulator performance trajectory: `BENCH_sim.json`.
//!
//! Measures engine throughput (operations per wall-second through the
//! rendezvous scheduler) for a SENSE and a STOUR barrier microbench at
//! P ∈ {16, 64} on the paper's 64-core Phytium preset and at
//! P ∈ {256, 1024} on the hierarchical MemPool presets, plus the wall-clock
//! of a quick-scale regeneration of every experiment suite, and writes the
//! numbers as JSON to the repo root (through `armbar_sweep::bench_json`).
//!
//! ```text
//! bench_sim [--out PATH] [--skip-experiments] [--gate-drop-pct N] [--summary PATH]
//! ```
//!
//! `--gate-drop-pct N` turns the run into a perf gate: after writing the
//! JSON, the process exits nonzero if any `engine_ops_per_sec_*` key
//! dropped more than N% against the committed file (wall-clock keys are
//! reported but never gated — they measure the runner, not the engine).
//! `--summary PATH` appends a markdown delta table (GitHub step-summary
//! format) to the given file.
//!
//! If the output file already exists, its `benches` section is treated as
//! the committed baseline: the tool prints the delta of the fresh run
//! against it, and carries the existing `baseline` section forward — keys
//! new to this run are seeded with the fresh value — so the file always
//! records the pre-overhaul reference next to the current numbers. CI runs
//! this as a *blocking* perf gate: the `bench-sim` job fails on a >20% drop
//! of any `engine_ops_per_sec_*` key against the committed file.

use std::sync::Arc;
use std::time::Instant;

use armbar_core::env::Barrier;
use armbar_core::registry::AlgorithmId;
use armbar_experiments::{figs, Scale};
use armbar_simcoh::{Arena, OpKind, SimBuilder};
use armbar_sweep::bench_json::{
    append_summary, deltas, first_number, print_deltas, render_doc, summary_markdown, Point,
};
use armbar_topology::{Platform, Topology};

/// The wall-clock key: reported with two decimals, never gated.
const QUICK_KEY: &str = "all_experiments_quick_secs";

/// Measurement effort for one engine point. The paper-scale points (P ≤ 64)
/// keep the historical 30×12×6 schedule so the trajectory stays comparable
/// across commits; the kilocore points shrink every knob — one episode at
/// P = 1024 already pushes two orders of magnitude more ops through the
/// engine than a P = 16 episode, so far fewer draws reach the same
/// statistical weight inside the CI budget.
struct Effort {
    /// Episodes per simulation run; sized so one point takes O(100 ms).
    episodes: u32,
    /// Independently seeded runs per point (amortizes thread spawn noise —
    /// and, post-overhaul, exercises episode reuse).
    reps: u64,
    /// Timed attempts per point; the best is reported. The host is a shared
    /// single-core VM whose wall clocks swing ±40% with neighbor load, so
    /// the maximum over a few attempts estimates engine capability far more
    /// stably than any single draw (switch-bound workloads barely benefit:
    /// the context-switch floor is the same in every attempt).
    attempts: u32,
}

impl Effort {
    fn for_threads(p: usize) -> Effort {
        if p <= 64 {
            Effort { episodes: 30, reps: 12, attempts: 6 }
        } else {
            Effort { episodes: 8, reps: 3, attempts: 3 }
        }
    }
}

/// One measured point: engine operations per wall-clock second.
fn engine_point(platform: Platform, p: usize, id: AlgorithmId) -> Point {
    let topo = Arc::new(Topology::preset(platform));
    let effort = Effort::for_threads(p);
    let episodes = effort.episodes;
    let one_rep = |rep: u64| -> u64 {
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, p, &topo));
        let stats = SimBuilder::new(Arc::clone(&topo), p)
            .seed(0x5EED ^ rep)
            .run(move |ctx| {
                for _ in 0..episodes {
                    ctx.compute_ns(100.0);
                    barrier.wait(ctx);
                }
            })
            .expect("benchmark barrier must complete");
        stats.total_mem_ops() + stats.ops(OpKind::Compute)
    };
    one_rep(u64::from(episodes)); // untimed warm-up (spawns the sim team)
    let mut best = 0.0f64;
    for _ in 0..effort.attempts {
        let mut total_ops = 0u64;
        let t0 = Instant::now();
        for rep in 0..effort.reps {
            total_ops += one_rep(rep);
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(total_ops as f64 / secs);
    }
    let key = format!("engine_ops_per_sec_{}_p{}", id.label().to_ascii_lowercase(), p);
    let pt = Point::new(&key, best);
    eprintln!("engine {:>34}: {:>12.0} ops/s", pt.key, pt.value);
    pt
}

/// Wall-clock seconds of a quick-scale regeneration of every suite
/// (`all_experiments --quick`, minus the CSV writing).
fn quick_experiments_secs() -> f64 {
    let scale = Scale::quick();
    let t0 = Instant::now();
    let suites = [
        figs::tables_1_2_3::run(&scale),
        figs::fig05::run(&scale),
        figs::fig06::run(&scale),
        figs::fig07::run(&scale),
        figs::fig11::run(&scale),
        figs::fig12::run(&scale),
        figs::fig13::run(&scale),
        figs::table4::run(&scale),
        figs::model_report::run(&scale),
        figs::ablations::run(&scale),
        figs::phase_breakdown::run(&scale),
        figs::hotspot::run(&scale),
        figs::kilocore::run(&scale),
        figs::crossover::run(&scale),
    ];
    let reports: usize = suites.iter().map(Vec::len).sum();
    assert!(reports > 0, "experiment suites produced nothing");
    t0.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned());
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let skip_experiments = args.iter().any(|a| a == "--skip-experiments");
    let gate_drop_pct: Option<f64> = flag_value("--gate-drop-pct").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: bad --gate-drop-pct value {s:?}");
            std::process::exit(2);
        })
    });
    let summary_path = flag_value("--summary");

    let mut points = Vec::new();
    for id in [AlgorithmId::Sense, AlgorithmId::Stour] {
        for p in [16usize, 64] {
            points.push(engine_point(Platform::Phytium2000Plus, p, id));
        }
        // Kilocore points: the hierarchical MemPool presets at their full
        // core counts, where the scheduler heap and waiter table are largest.
        for (platform, p) in [(Platform::MemPool256, 256usize), (Platform::MemPool1024, 1024)] {
            points.push(engine_point(platform, p, id));
        }
    }
    // Contender points: the lock-guarded counters are the engine's worst
    // case for RMW traffic (CAS storms and spin wake-ups on one line), so
    // their throughput is tracked at paper scale only.
    for id in [AlgorithmId::ShyCtr, AlgorithmId::ShyProxy] {
        for p in [16usize, 64] {
            points.push(engine_point(Platform::Phytium2000Plus, p, id));
        }
    }
    let quick_secs = if skip_experiments {
        None
    } else {
        let q = quick_experiments_secs();
        eprintln!("all_experiments --quick: {q:.2} s");
        Some(q)
    };

    // Delta of this run against the committed `benches` section: engine
    // keys are gateable, the wall-clock key is informational only.
    let previous = std::fs::read_to_string(&out).ok();
    let rows = previous.as_deref().map(|p| deltas(&points, p)).unwrap_or_default();
    print_deltas(&out, &rows);
    if let (Some(q), Some(old)) =
        (quick_secs, previous.as_deref().and_then(|p| first_number(p, QUICK_KEY)))
    {
        eprintln!("{QUICK_KEY:>40}: {:+.1}% ({old:.2} s -> {q:.2} s)", (q / old - 1.0) * 100.0);
    }
    if let Some(path) = &summary_path {
        append_summary(path, &summary_markdown("Simulator perf gate", &points, &rows));
    }

    let mut fresh = points;
    let unmeasured: &[(&str, usize)] = match quick_secs {
        Some(q) => {
            fresh.push(Point::new(QUICK_KEY, q).with_decimals(2));
            &[]
        }
        None => &[(QUICK_KEY, 2)],
    };
    std::fs::write(&out, render_doc(&fresh, unmeasured, previous.as_deref()))
        .expect("failed to write BENCH_sim.json");
    eprintln!("wrote {out}");

    if let Some(limit) = gate_drop_pct {
        let failures: Vec<&(String, f64, f64)> =
            rows.iter().filter(|(_, old, new)| (1.0 - new / old) * 100.0 > limit).collect();
        for (key, old, new) in &failures {
            eprintln!(
                "PERF GATE FAIL {key}: {new:.0} ops/s is {:.1}% below committed {old:.0}",
                (1.0 - new / old) * 100.0
            );
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!("perf gate: all {} engine keys within {limit}% of committed", rows.len());
    }
}
