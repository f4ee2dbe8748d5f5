//! The simulator workloads, `paper` and `kilocore`.
//!
//! Each point is one seeded EPCC overhead measurement: `warmup` unmeasured
//! episodes (so the modelled caches start warm), then `episodes` measured
//! ones of `compute(100 ns); barrier()`, bracketed by marks. The loop is
//! the one in `armbar_epcc::sim_overhead_of`, written out here because the
//! benchmark needs each run's `RunStats`; a setup check pins the two to
//! the same overhead.

use std::sync::Arc;
use std::time::Instant;

use armbar_core::env::Barrier;
use armbar_core::registry::AlgorithmId;
use armbar_epcc::{phase_breakdown, OverheadConfig, PhaseBreakdown};
use armbar_model::crossover;
use armbar_simcoh::{Arena, OpKind, RunStats, SimBuilder};
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

use crate::stats::{geomean, item_seed, median, median_span_sum, Digest};
use crate::trace::{Span, Tracer};
use crate::{run_passes, timed_setup, Opts, Outcome, WORKERS};

const DELAY_NS: f64 = 100.0;
const MARK_WARM: u32 = 1;
const MARK_END: u32 = 2;
/// Warm-up episodes of each `phase_breakdown` call.
const PHASE_WARMUP: u32 = 3;

/// The paper's thread sweep (`Scale::full` of the experiments crate)
/// without P=1, where there is no barrier to measure.
const PAPER_SWEEP: [usize; 18] = [2, 3, 4, 5, 6, 8, 9, 12, 16, 17, 20, 24, 32, 33, 40, 48, 56, 64];

/// Table IV's ranges for OPT's speed-up over the GCC (SENSE) and LLVM
/// barriers, as pinned in `tests/paper_shapes.rs`.
const TABLE4_GCC: (f64, f64) = (8.0, 23.0);
const TABLE4_LLVM: (f64, f64) = (2.5, 9.0);

#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub platform: Platform,
    pub algo: AlgorithmId,
    pub p: usize,
}

/// A fixed set of simulator points and how each is measured.
pub struct Spec {
    pub points: Vec<Point>,
    pub warmup: u32,
    pub episodes: u32,
    pub op_budget: u64,
    /// Compare the model crate's closed forms against the simulated points.
    pub model: bool,
}

/// All 16 barriers on the three ARM presets over the paper's sweep.
pub fn paper() -> Spec {
    let algos: Vec<AlgorithmId> =
        AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS).collect();
    let points = Platform::ARM
        .iter()
        .flat_map(|&platform| {
            let algos = &algos;
            PAPER_SWEEP
                .iter()
                .flat_map(move |&p| algos.iter().map(move |&algo| Point { platform, algo, p }))
        })
        .collect();
    Spec { points, warmup: 4, episodes: 10, op_budget: 200_000_000, model: true }
}

/// The 14 `ALL` barriers at P=256 on MemPool-256 and P=1024 on
/// MemPool-1024; the contenders only at P=256, as in `figs::kilocore`.
pub fn kilocore() -> Spec {
    let mut points: Vec<Point> = AlgorithmId::ALL
        .into_iter()
        .chain(AlgorithmId::CONTENDERS)
        .map(|algo| Point { platform: Platform::MemPool256, algo, p: 256 })
        .collect();
    points.extend(AlgorithmId::ALL.map(|algo| Point {
        platform: Platform::MemPool1024,
        algo,
        p: 1024,
    }));
    Spec { points, warmup: 2, episodes: 4, op_budget: 200_000_000, model: false }
}

/// The simulated statistics of one run that the benchmark keeps.
#[derive(Debug, Clone, Copy)]
pub struct SimOut {
    pub overhead_ns: f64,
    pub ops: [u64; 6],
    pub schedule_hash: u64,
    pub max_time_ns: f64,
    pub rfo_invalidations: u64,
    pub reader_contention_events: u64,
    pub write_stall_ns: f64,
    pub read_stall_ns: f64,
    pub hottest_line_writes: u64,
    pub writes: u64,
}

impl SimOut {
    fn of(st: &RunStats, episodes: u32) -> Self {
        let overhead_ns = match (st.last_mark_time(MARK_WARM), st.last_mark_time(MARK_END)) {
            (Some(t0), Some(t1)) => (t1 - t0) / f64::from(episodes) - DELAY_NS,
            _ => f64::NAN,
        };
        let c = st.coherence().total();
        Self {
            overhead_ns,
            ops: OpKind::ALL.map(|k| st.ops(k)),
            schedule_hash: st.schedule_hash(),
            max_time_ns: st.max_time_ns(),
            rfo_invalidations: c.rfo_invalidations,
            reader_contention_events: c.reader_contention_events,
            write_stall_ns: c.write_stall_ns,
            read_stall_ns: c.read_stall_ns,
            hottest_line_writes: st.hottest_lines(1).first().map_or(0, |(_, t)| t.writes),
            writes: st.line_traffic().values().map(|t| t.writes).sum(),
        }
    }

    /// Simulated operations: memory operations plus compute steps.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// A run's output is usable when its overhead is finite and positive.
    pub fn valid(&self) -> bool {
        self.overhead_ns.is_finite() && self.overhead_ns > 0.0
    }
}

/// One `SimBuilder::run`: its host time and simulated result.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub host_s: f64,
    pub res: Result<SimOut, String>,
}

impl RunOut {
    pub fn ok(&self) -> Option<&SimOut> {
        self.res.as_ref().ok().filter(|o| o.valid())
    }
}

/// Topologies and barriers built once in setup; barrier state lives in
/// simulated memory, which every run starts zeroed, so one instance
/// serves every pass.
pub struct Prepared {
    topos: Vec<(Platform, Arc<Topology>)>,
    barriers: Vec<Arc<dyn Barrier>>,
}

impl Prepared {
    fn topo(&self, platform: Platform) -> &Arc<Topology> {
        &self.topos.iter().find(|(p, _)| *p == platform).expect("topology built in setup").1
    }
}

pub struct PassOut {
    pub runs: Vec<RunOut>,
    pub phases: Vec<(Platform, Option<PhaseBreakdown>)>,
    /// `(point index, model ns)` for every point the model prices.
    pub model: Vec<(usize, f64)>,
}

impl PassOut {
    /// Fingerprint of every run's schedule hash, op counts, makespan and
    /// overhead, in point order, and of the phase splits.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for (_, b) in &self.phases {
            d.add(b.map_or(u64::MAX, |b| b.arrival_ns.to_bits() ^ b.notification_ns.to_bits()));
        }
        for r in &self.runs {
            match &r.res {
                Ok(o) => {
                    d.add(o.schedule_hash);
                    o.ops.iter().for_each(|&n| d.add(n));
                    d.add(o.max_time_ns.to_bits());
                    d.add(o.overhead_ns.to_bits());
                }
                Err(_) => d.add(u64::MAX),
            }
        }
        d.value()
    }
}

/// Runs one EPCC measurement of `barrier` with `p` threads.
fn run_point(
    spec: &Spec,
    topo: &Arc<Topology>,
    barrier: &Arc<dyn Barrier>,
    p: usize,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> RunOut {
    let (warmup, episodes) = (spec.warmup, spec.episodes);
    let barrier = Arc::clone(barrier);
    let builder = SimBuilder::new(Arc::clone(topo), p).seed(seed).op_budget(spec.op_budget);
    let span = tracer.span("simcoh.run", parent);
    let t0 = Instant::now();
    let res = builder.run(move |ctx| {
        for _ in 0..warmup {
            ctx.compute_ns(DELAY_NS);
            barrier.wait(ctx);
        }
        ctx.mark(MARK_WARM);
        for _ in 0..episodes {
            ctx.compute_ns(DELAY_NS);
            barrier.wait(ctx);
        }
        ctx.mark(MARK_END);
    });
    let host_s = t0.elapsed().as_secs_f64();
    drop(span);
    RunOut { host_s, res: res.map(|st| SimOut::of(&st, episodes)).map_err(|e| e.to_string()) }
}

/// Index of OPT at the largest P measured on `platform`.
fn headline(spec: &Spec, platform: Platform) -> usize {
    let best = |i: &usize| spec.points[*i].p;
    (0..spec.points.len())
        .filter(|&i| {
            spec.points[i].platform == platform && spec.points[i].algo == AlgorithmId::Optimized
        })
        .max_by_key(best)
        .expect("every platform measures OPT")
}

fn platforms(spec: &Spec) -> Vec<Platform> {
    let mut v: Vec<Platform> = Vec::new();
    for pt in &spec.points {
        if !v.contains(&pt.platform) {
            v.push(pt.platform);
        }
    }
    v
}

/// Builds topologies and barriers, then makes the first (untimed) run,
/// which allocates the fiber stacks of the calling thread.
fn prepare(spec: &Spec, seed: u64, tracer: &Tracer, root: u64) -> (Prepared, RunOut) {
    let topos: Vec<(Platform, Arc<Topology>)> = platforms(spec)
        .into_iter()
        .map(|pl| {
            let _s = tracer.span("topology.build", root);
            (pl, Arc::new(Topology::preset(pl)))
        })
        .collect();
    let mut prep = Prepared { topos, barriers: Vec::with_capacity(spec.points.len()) };
    for pt in &spec.points {
        let _s = tracer.span("core.build", root);
        let mut arena = Arena::new();
        let b: Arc<dyn Barrier> =
            Arc::from(pt.algo.build(&mut arena, pt.p, prep.topo(pt.platform)));
        prep.barriers.push(b);
    }
    let first = headline(spec, spec.points[0].platform);
    let pt = spec.points[first];
    let s = tracer.span("simcoh.first_run", root);
    let out = run_point(
        spec,
        prep.topo(pt.platform),
        &prep.barriers[first],
        pt.p,
        item_seed(seed, first as u64),
        tracer,
        s.id(),
    );
    drop(s);
    (prep, out)
}

fn pass(
    spec: &Spec,
    prep: &Prepared,
    pool: &SweepPool,
    seed: u64,
    tracer: &Tracer,
    root: u64,
) -> PassOut {
    let runs = {
        let sweep = tracer.span("sweep.run", root);
        let sid = sweep.id();
        let jobs = spec
            .points
            .iter()
            .enumerate()
            .map(|(i, pt)| {
                let topo = prep.topo(pt.platform);
                let barrier = &prep.barriers[i];
                Job::parallel(move || {
                    let job = tracer.span("sweep.job", sid);
                    run_point(
                        spec,
                        topo,
                        barrier,
                        pt.p,
                        item_seed(seed, i as u64),
                        tracer,
                        job.id(),
                    )
                })
            })
            .collect();
        pool.run(jobs)
    };
    let phases = platforms(spec)
        .into_iter()
        .map(|pl| {
            let h = headline(spec, pl);
            let _s = tracer.span("epcc.phase_breakdown", root);
            let b = Arc::clone(&prep.barriers[h]);
            (pl, phase_breakdown(prep.topo(pl), spec.points[h].p, b, PHASE_WARMUP).ok().flatten())
        })
        .collect();
    let model = if spec.model {
        let _s = tracer.span("model.eval", root);
        spec.points
            .iter()
            .enumerate()
            .filter_map(|(i, pt)| {
                let f = model_fn(pt.algo)?;
                Some((i, f(prep.topo(pt.platform), pt.p)))
            })
            .collect()
    } else {
        Vec::new()
    };
    PassOut { runs, phases, model }
}

type ModelFn = fn(&Topology, usize) -> f64;

/// The model crate's closed-form per-episode cost of `algo`, if it has one.
fn model_fn(algo: AlgorithmId) -> Option<ModelFn> {
    Some(match algo {
        AlgorithmId::Sense => crossover::sense_episode_ns,
        AlgorithmId::Stour => crossover::stour_episode_ns,
        AlgorithmId::ShyCtr => crossover::shy_ctr_episode_ns,
        AlgorithmId::ShyProxy => crossover::shy_proxy_episode_ns,
        _ => return None,
    })
}

fn plat_key(p: Platform) -> &'static str {
    match p {
        Platform::Phytium2000Plus => "phytium",
        Platform::ThunderX2 => "thunderx2",
        Platform::Kunpeng920 => "kunpeng920",
        Platform::XeonGold => "xeon",
        Platform::MemPool256 => "mempool256",
        Platform::MemPool1024 => "mempool1024",
    }
}

/// Runs a simulator workload end to end.
pub fn run(spec: &Spec, opts: &Opts, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    let (setup_s, (prep, first)) = timed_setup(tracer, |t, root| prepare(spec, opts.seed, t, root));
    o.setup_s = setup_s;
    o.check("first run completes", first.ok().is_some());

    // The benchmark's EPCC loop must agree with the harness's own.
    let h = headline(spec, spec.points[0].platform);
    let pt = spec.points[h];
    let cfg = OverheadConfig {
        warmup: spec.warmup,
        episodes: spec.episodes,
        delay_ns: DELAY_NS,
        seed: item_seed(opts.seed, h as u64),
    };
    let harness = armbar_epcc::sim_overhead_ns(prep.topo(pt.platform), pt.p, pt.algo, cfg);
    let ours = first.ok().map(|r| r.overhead_ns);
    o.check("overhead equals epcc::sim_overhead_ns", harness.ok() == ours);

    let pool = SweepPool::new(WORKERS);
    let passes =
        run_passes(opts, tracer, || (), |(), t, root| pass(spec, &prep, &pool, opts.seed, t, root));
    let serial = pass(spec, &prep, &SweepPool::new(1), opts.seed, &Tracer::new(false), 0);

    let all: Vec<&PassOut> = passes.all().chain(std::iter::once(&serial)).collect();
    for p in &all {
        o.attempted += p.runs.len() as u64;
        o.failed += p.runs.iter().filter(|r| r.ok().is_none()).count() as u64;
    }
    let digest = all[0].digest();
    o.check("phase split reported on every platform", all[0].phases.iter().all(|p| p.1.is_some()));
    o.check("digest repeats across passes", all.iter().all(|p| p.digest() == digest));
    o.check("digest equal at pool widths 1 and 2", serial.digest() == digest);
    o.note(format!("sim digest {digest:016x} over {} runs per pass", spec.points.len()));
    o.episodes_per_pass = spec.points.len() as u64 * u64::from(spec.warmup + spec.episodes);
    o.set_timing(&passes);

    let first_pass = all[0];
    report(spec, first_pass, &passes.untraced.iter().map(|p| &p.1).collect::<Vec<_>>(), &mut o);
    if tracer.on() {
        let traced: Vec<&PassOut> = passes.traced.iter().map(|p| &p.1).collect();
        layers(spec, first_pass, &traced, &tracer.spans(), &mut o);
    }
    o
}

/// OPT's per-episode overhead at each platform's largest P.
fn headline_overheads(spec: &Spec, p: &PassOut) -> Vec<(Platform, f64)> {
    platforms(spec)
        .into_iter()
        .map(|pl| (pl, p.runs[headline(spec, pl)].ok().map_or(f64::NAN, |r| r.overhead_ns)))
        .collect()
}

/// |model − sim| / sim in percent for every modelled point.
fn model_errors(spec: &Spec, p: &PassOut) -> Vec<(Point, f64)> {
    p.model
        .iter()
        .filter_map(|&(i, model_ns)| {
            let sim = p.runs[i].ok()?.overhead_ns;
            Some((spec.points[i], (model_ns - sim).abs() / sim * 100.0))
        })
        .collect()
}

fn overhead_of(spec: &Spec, p: &PassOut, pl: Platform, algo: AlgorithmId, threads: usize) -> f64 {
    spec.points
        .iter()
        .position(|q| q.platform == pl && q.algo == algo && q.p == threads)
        .and_then(|i| p.runs[i].ok())
        .map_or(f64::NAN, |r| r.overhead_ns)
}

fn report(spec: &Spec, first: &PassOut, untraced: &[&PassOut], o: &mut Outcome) {
    let heads = headline_overheads(spec, first);
    let overhead = geomean(&heads.iter().map(|h| h.1).collect::<Vec<_>>());
    o.metric("barrier_overhead_ns", overhead, "ns");
    for (pl, ns) in &heads {
        o.note(format!("OPT overhead on {}: {ns:.3} ns (simulated)", pl.label()));
    }
    let (mut ops, mut host) = (0u64, 0.0f64);
    for p in untraced {
        for r in &p.runs {
            if let Some(s) = r.ok() {
                ops += s.total_ops();
                host += r.host_s;
            }
        }
    }
    if host > 0.0 {
        o.metric("sim_ops_per_s", ops as f64 / host, "1/s");
    }
    if spec.model {
        let errs: Vec<f64> = model_errors(spec, first).iter().map(|e| e.1).collect();
        let err = median(&errs);
        o.metric("model_err_pct", err, "%");
        for pl in Platform::ARM {
            let opt = overhead_of(spec, first, pl, AlgorithmId::Optimized, 64);
            let gcc = overhead_of(spec, first, pl, AlgorithmId::Sense, 64) / opt;
            let llvm = overhead_of(spec, first, pl, AlgorithmId::LlvmHyper, 64) / opt;
            o.note(format!(
                "OPT speed-up at P=64 on {}: {gcc:.2}x over SENSE/GCC (Table IV: {}x-{}x), \
                 {llvm:.2}x over LLVM (Table IV: {}x-{}x); model_err_pct {err:.2}%",
                pl.label(),
                TABLE4_GCC.0,
                TABLE4_GCC.1,
                TABLE4_LLVM.0,
                TABLE4_LLVM.1
            ));
        }
        o.note("calibration anchors of the presets are listed in EXPERIMENTS.md".into());
    }
}

fn layers(spec: &Spec, first: &PassOut, traced: &[&PassOut], spans: &[Span], o: &mut Outcome) {
    o.layer("topology.build_s", median_span_sum(spans, "bench.setup", "topology.build"));
    o.layer("core.build_s", median_span_sum(spans, "bench.setup", "core.build"));
    o.layer("simcoh.first_run_s", median_span_sum(spans, "bench.setup", "simcoh.first_run"));
    o.layer("simcoh.run_s", median_span_sum(spans, "bench.pass", "simcoh.run"));
    for threads in [16, 64, 256, 1024] {
        let (mut ops, mut host) = (0u64, 0.0);
        for p in traced {
            for (r, pt) in p.runs.iter().zip(&spec.points) {
                if let (true, Some(s)) = (pt.p == threads, r.ok()) {
                    ops += s.total_ops();
                    host += r.host_s;
                }
            }
        }
        if ops > 0 {
            o.layer(format!("simcoh.ns_per_op.p{threads}"), host * 1e9 / ops as f64);
        }
    }
    let ok: Vec<&SimOut> = first.runs.iter().filter_map(RunOut::ok).collect();
    let names =
        ["local_read", "remote_read", "local_write", "remote_write", "spin_wakeup", "compute"];
    for (k, name) in names.iter().enumerate() {
        let n: u64 = ok.iter().map(|s| s.ops[k]).sum();
        o.layer(format!("simcoh.ops.{name}"), n as f64);
    }
    let sum = |f: fn(&SimOut) -> f64| ok.iter().map(|s| f(s)).sum::<f64>();
    o.layer("simcoh.rfo_invalidations", sum(|s| s.rfo_invalidations as f64));
    o.layer("simcoh.reader_contention_events", sum(|s| s.reader_contention_events as f64));
    o.layer(
        "simcoh.hot_line_share",
        sum(|s| s.hottest_line_writes as f64) / sum(|s| s.writes as f64),
    );
    o.layer("simcoh.write_stall_ns", sum(|s| s.write_stall_ns));
    o.layer("simcoh.read_stall_ns", sum(|s| s.read_stall_ns));
    o.layer("simcoh.wakeups_per_op", sum(|s| s.ops[4] as f64) / sum(|s| s.total_ops() as f64));
    for (pl, b) in &first.phases {
        if let Some(b) = b {
            o.layer(format!("epcc.arrival_ns.{}", plat_key(*pl)), b.arrival_ns);
            o.layer(format!("epcc.notification_ns.{}", plat_key(*pl)), b.notification_ns);
        }
    }
    if spec.model {
        let errs = model_errors(spec, first);
        for pl in Platform::ARM {
            let v: Vec<f64> = errs.iter().filter(|e| e.0.platform == pl).map(|e| e.1).collect();
            o.layer(format!("model.err_pct.{}", plat_key(pl)), median(&v));
        }
        for algo in AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS) {
            if model_fn(algo).is_some() {
                let v: Vec<f64> = errs.iter().filter(|e| e.0.algo == algo).map(|e| e.1).collect();
                let key = algo.label().to_ascii_lowercase();
                o.layer(format!("model.err_pct.{key}"), median(&v));
            }
        }
        o.layer("model.max_err_pct", errs.iter().map(|e| e.1).fold(0.0, f64::max));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(op_budget: u64) -> Spec {
        let points = [AlgorithmId::Sense, AlgorithmId::Optimized]
            .map(|algo| Point { platform: Platform::ThunderX2, algo, p: 8 })
            .to_vec();
        Spec { points, warmup: 1, episodes: 2, op_budget, model: true }
    }

    fn opts() -> Opts {
        Opts { seed: 7, seconds: 0.0, trace: false }
    }

    #[test]
    fn a_healthy_spec_fails_nothing() {
        let o = run(&tiny(200_000_000), &opts(), &Tracer::new(false));
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
        assert!(o.checks.iter().all(|c| c.1), "{:?}", o.checks);
    }

    #[test]
    fn an_op_budget_too_small_to_finish_raises_failed_frac() {
        let o = run(&tiny(50), &opts(), &Tracer::new(false));
        assert!(o.failed > 0 && o.failed <= o.attempted, "{} of {}", o.failed, o.attempted);
        assert!(o.checks.iter().any(|c| !c.1), "a failing run must fail a check");
    }
}
