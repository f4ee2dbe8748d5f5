//! The `explore` workload: the conformance search over the 16 barriers on
//! the three ARM presets, under sequential consistency (reorder budget 0)
//! and under the bounded weak-memory mode, plus the phaser churn matrix.
//!
//! Each (mode, platform, algorithm[, scenario]) cell is one call of
//! `conform_matrix_on` / `phaser_conform_matrix_on` restricted to that
//! cell, run as one job of the benchmark's own 2-worker pool, so the trace
//! sees every cell; nested pool runs execute inline on the worker.

use armbar_conformance::{
    conform_matrix_on, phaser_conform_matrix_on, ConformConfig, ExplorerConfig, PhaserConformConfig,
};
use armbar_core::registry::AlgorithmId;
use armbar_sweep::{Job, SweepPool};
use armbar_topology::Platform;

use crate::stats::{item_seed, median_span_sum, Digest};
use crate::trace::Tracer;
use crate::{run_passes, timed_setup, Opts, Outcome, WORKERS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sc,
    Weak,
    Phaser,
}

impl Mode {
    fn span(self) -> &'static str {
        match self {
            Mode::Sc => "conformance.sc_cell",
            Mode::Weak => "conformance.weak_cell",
            Mode::Phaser => "conformance.phaser_cell",
        }
    }
}

pub struct Spec {
    pub platforms: Vec<Platform>,
    pub algorithms: Vec<AlgorithmId>,
    /// Seeded schedules per cell, per mode.
    pub sc_seeds: u32,
    pub weak_seeds: u32,
    pub phaser_seeds: u32,
    pub op_budget: u64,
}

impl Spec {
    pub fn standard() -> Self {
        Self {
            platforms: Platform::ARM.to_vec(),
            algorithms: AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS).collect(),
            sc_seeds: 40,
            weak_seeds: 40,
            phaser_seeds: 2,
            op_budget: ConformConfig::default().op_budget,
        }
    }
}

/// One cell's configuration: a single-cell barrier or phaser matrix.
enum CellCfg {
    Barrier(ConformConfig),
    Phaser(PhaserConformConfig),
}

struct Cell {
    mode: Mode,
    cfg: CellCfg,
}

/// What the benchmark keeps of one searched cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellOut {
    trials: u32,
    distinct: usize,
    violations: usize,
    episodes: u32,
}

/// Phaser cells first: they are the longest jobs, and starting them first
/// keeps the pool's tail short and steady.
fn cells(spec: &Spec, seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    let base = PhaserConformConfig::default();
    for &platform in &spec.platforms {
        for algo in AlgorithmId::PHASERS {
            for &scenario in &base.scenarios {
                let cfg = PhaserConformConfig {
                    platforms: vec![platform],
                    algorithms: vec![algo],
                    scenarios: vec![scenario],
                    seeds: spec.phaser_seeds,
                    base_seed: item_seed(seed, Mode::Phaser as u64),
                    op_budget: spec.op_budget,
                    ..base.clone()
                };
                out.push(Cell { mode: Mode::Phaser, cfg: CellCfg::Phaser(cfg) });
            }
        }
    }
    let weak =
        ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }.with_reorder_budget(64);
    for (mode, seeds, explorer) in
        [(Mode::Sc, spec.sc_seeds, ExplorerConfig::default()), (Mode::Weak, spec.weak_seeds, weak)]
    {
        for &platform in &spec.platforms {
            for &algo in &spec.algorithms {
                let cfg = ConformConfig {
                    platforms: vec![platform],
                    algorithms: vec![algo],
                    seeds,
                    base_seed: item_seed(seed, mode as u64),
                    explorer,
                    op_budget: spec.op_budget,
                    ..ConformConfig::default()
                };
                out.push(Cell { mode, cfg: CellCfg::Barrier(cfg) });
            }
        }
    }
    out
}

fn search(cell: &Cell) -> CellOut {
    let serial = SweepPool::new(1);
    let (trials, distinct, violations, episodes) = match &cell.cfg {
        CellCfg::Barrier(cfg) => {
            let c = &conform_matrix_on(&serial, cfg)[0];
            (c.trials, c.distinct_schedules, c.violations.len(), cfg.episodes)
        }
        CellCfg::Phaser(cfg) => {
            let c = &phaser_conform_matrix_on(&serial, cfg)[0];
            (c.trials, c.distinct_schedules, c.violations.len(), cfg.episodes)
        }
    };
    CellOut { trials, distinct, violations, episodes }
}

fn pass(cells: &[Cell], pool: &SweepPool, tracer: &Tracer, root: u64) -> Vec<CellOut> {
    let sweep = tracer.span("sweep.run", root);
    let sid = sweep.id();
    let jobs = cells
        .iter()
        .map(|cell| {
            Job::parallel(move || {
                let job = tracer.span("sweep.job", sid);
                let _s = tracer.span(cell.mode.span(), job.id());
                search(cell)
            })
        })
        .collect();
    pool.run(jobs)
}

fn digest(outs: &[CellOut]) -> u64 {
    let mut d = Digest::new();
    for c in outs {
        d.add(u64::from(c.trials));
        d.add(c.distinct as u64);
        d.add(c.violations as u64);
    }
    d.value()
}

pub fn run(spec: &Spec, opts: &Opts, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    // Set-up: the cell list plus a first one-seed search of each mode,
    // which allocates the calling thread's fiber stacks.
    let (setup_s, (cells, first)) = timed_setup(tracer, |t, root| {
        let cells = cells(spec, opts.seed);
        let mut violations = 0;
        for mode in [Mode::Sc, Mode::Weak, Mode::Phaser] {
            let cell = cells.iter().find(|c| c.mode == mode).expect("every mode has cells");
            let one = Cell {
                mode,
                cfg: match &cell.cfg {
                    CellCfg::Barrier(c) => {
                        CellCfg::Barrier(ConformConfig { seeds: 1, ..c.clone() })
                    }
                    CellCfg::Phaser(c) => {
                        CellCfg::Phaser(PhaserConformConfig { seeds: 1, ..c.clone() })
                    }
                },
            };
            let _s = t.span("conformance.first_cell", root);
            violations += search(&one).violations;
        }
        (cells, violations)
    });
    o.setup_s = setup_s;
    o.check("first search finds no violation", first == 0);

    let pool = SweepPool::new(WORKERS);
    let passes = run_passes(opts, tracer, || (), |(), t, root| pass(&cells, &pool, t, root));
    let serial = pass(&cells, &SweepPool::new(1), &Tracer::new(false), 0);
    let all: Vec<&Vec<CellOut>> = passes.all().chain(std::iter::once(&serial)).collect();
    for p in &all {
        o.attempted += p.iter().map(|c| u64::from(c.trials)).sum::<u64>();
        o.failed += p.iter().map(|c| c.violations as u64).sum::<u64>();
    }
    let d = digest(all[0]);
    o.check("no violation at the shipped fences", o.failed == 0);
    o.check("digest repeats across passes", all.iter().all(|p| digest(p) == d));
    o.check("digest equal at pool widths 1 and 2", digest(&serial) == d);
    o.note(format!("search digest {d:016x} over {} cells per pass", cells.len()));

    let first_pass = all[0];
    let trials = |mode: Mode| -> u64 {
        cells
            .iter()
            .zip(first_pass)
            .filter(|(c, _)| c.mode == mode)
            .map(|(_, r)| u64::from(r.trials))
            .sum()
    };
    let total_trials: u64 = first_pass.iter().map(|c| u64::from(c.trials)).sum();
    o.episodes_per_pass = first_pass.iter().map(|c| u64::from(c.trials * c.episodes)).sum();
    o.set_timing(&passes);
    o.metric("trials_per_s", total_trials as f64 / crate::stats::median(&o.walls), "1/s");
    o.note(format!(
        "trials per pass: {} SC, {} weak, {} phaser",
        trials(Mode::Sc),
        trials(Mode::Weak),
        trials(Mode::Phaser)
    ));

    if tracer.on() {
        let spans = tracer.spans();
        for (mode, name) in [
            (Mode::Sc, "conformance.sc_trial_us"),
            (Mode::Weak, "conformance.weak_trial_us"),
            (Mode::Phaser, "conformance.phaser_trial_us"),
        ] {
            let secs = median_span_sum(&spans, "bench.pass", mode.span());
            o.layer(name, secs * 1e6 / trials(mode).max(1) as f64);
        }
        let distinct: usize = first_pass.iter().map(|c| c.distinct).sum();
        o.layer("conformance.distinct_frac", distinct as f64 / total_trials.max(1) as f64);
        o.layer("conformance.violations", first_pass.iter().map(|c| c.violations as f64).sum());
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(op_budget: u64) -> Spec {
        Spec {
            platforms: vec![Platform::ThunderX2],
            algorithms: vec![AlgorithmId::Optimized],
            sc_seeds: 2,
            weak_seeds: 2,
            phaser_seeds: 1,
            op_budget,
        }
    }

    fn opts() -> Opts {
        Opts { seed: 5, seconds: 0.0, trace: false }
    }

    #[test]
    fn the_shipped_barriers_pass_a_small_search() {
        let o = run(&tiny(ConformConfig::default().op_budget), &opts(), &Tracer::new(false));
        assert!(o.attempted > 0);
        assert_eq!(o.failed, 0);
        assert!(o.checks.iter().all(|c| c.1), "{:?}", o.checks);
    }

    #[test]
    fn an_op_budget_too_small_to_finish_counts_violations() {
        let o = run(&tiny(50), &opts(), &Tracer::new(false));
        assert!(o.failed > 0 && o.failed <= o.attempted, "{} of {}", o.failed, o.attempted);
        assert!(o.checks.iter().any(|c| !c.1));
    }
}
