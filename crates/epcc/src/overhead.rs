//! EPCC-style barrier overhead measurement.
//!
//! The EPCC synchronization micro-benchmark measures the cost of a
//! construct as *(time of a work+construct loop − time of the work-only
//! reference loop) / iterations*. Here the "work" is a fixed spin
//! (`compute_ns`), so the reference time is known exactly and the barrier
//! overhead of one episode is
//!
//! ```text
//! overhead = (t_last_warm_end → t_end) / episodes − delay
//! ```
//!
//! measured on the simulator's virtual clock (or the host monotonic clock).
//!
//! Simulator rep loops ([`repeat_sim`] / [`repeat_sim_of`]) are hot: a
//! 1000-rep curve point used to spawn 1000×P OS threads. Each rep now
//! runs as fibers on its sweep worker's thread, or, on the OS-thread
//! transport, on the worker's ambient `armbar_simcoh::SimTeam`, which
//! spawns the P simulated-thread workers once and reuses them across
//! episodes (no call-site changes here — `SimBuilder::run` picks the
//! transport).

use std::sync::Arc;

use armbar_core::env::{Barrier, MemCtx};
use armbar_core::host::HostMem;
use armbar_core::registry::AlgorithmId;
use armbar_simcoh::{Arena, SimBuilder, SimError};
use armbar_sweep::{Job, SweepPool};
use armbar_topology::Topology;

use crate::summary::Summary;

/// Mark labels used to bracket the measured region.
const MARK_WARM: u32 = 1;
const MARK_END: u32 = 2;

/// Seed stride between consecutive repetitions of one measurement: the
/// 32-bit golden-ratio constant. Every repeated-measurement path in the
/// workspace — registry algorithms ([`repeat_sim`]) and custom barrier
/// configurations ([`repeat_sim_of`]) alike — derives rep `r`'s seed as
/// `base + r * SEED_STRIDE`, so curves measured through different paths
/// are seed-matched point for point.
pub const SEED_STRIDE: u64 = 0x9E37_79B9;

/// Measurement parameters.
#[derive(Debug, Clone, Copy)]
pub struct OverheadConfig {
    /// Unmeasured warm-up episodes (cold misses, tree line placement).
    pub warmup: u32,
    /// Measured episodes.
    pub episodes: u32,
    /// Per-episode out-of-barrier work, ns.
    pub delay_ns: f64,
    /// Simulator jitter seed.
    pub seed: u64,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        Self { warmup: 4, episodes: 40, delay_ns: 100.0, seed: 0x5EED }
    }
}

impl OverheadConfig {
    /// The configuration for repetition `r` of this measurement: same
    /// parameters, seed advanced by the shared [`SEED_STRIDE`] schedule.
    pub fn rep(self, r: u64) -> Self {
        Self { seed: self.seed.wrapping_add(r.wrapping_mul(SEED_STRIDE)), ..self }
    }
}

/// Measures the per-episode overhead (ns) of `algorithm` with `p` threads
/// on the simulated `topo`.
pub fn sim_overhead_ns(
    topo: &Arc<Topology>,
    p: usize,
    algorithm: AlgorithmId,
    cfg: OverheadConfig,
) -> Result<f64, SimError> {
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> = Arc::from(algorithm.build(&mut arena, p, topo));
    sim_overhead_of(topo, p, barrier, cfg)
}

/// Measures the per-episode overhead (ns) of an already-built barrier.
/// Useful for custom configurations (wake-up sweeps, fan-in sweeps).
pub fn sim_overhead_of(
    topo: &Arc<Topology>,
    p: usize,
    barrier: Arc<dyn Barrier>,
    cfg: OverheadConfig,
) -> Result<f64, SimError> {
    assert!(cfg.episodes >= 1);
    let stats = SimBuilder::new(Arc::clone(topo), p).seed(cfg.seed).run(move |ctx| {
        for _ in 0..cfg.warmup {
            ctx.compute_ns(cfg.delay_ns);
            barrier.wait(ctx);
        }
        ctx.mark(MARK_WARM);
        for _ in 0..cfg.episodes {
            ctx.compute_ns(cfg.delay_ns);
            barrier.wait(ctx);
        }
        ctx.mark(MARK_END);
    })?;
    let t0 = stats.last_mark_time(MARK_WARM).expect("warm mark missing");
    let t1 = stats.last_mark_time(MARK_END).expect("end mark missing");
    let per_episode = (t1 - t0) / cfg.episodes as f64;
    Ok((per_episode - cfg.delay_ns).max(0.0))
}

/// The paper's protocol: `reps` independently seeded runs, averaged
/// (the paper runs each benchmark 20 times and reports the mean).
/// Repetitions fan out over the ambient [`SweepPool`]; each one is an
/// independent simulation, so worker count cannot change the summary.
pub fn repeat_sim(
    topo: &Arc<Topology>,
    p: usize,
    algorithm: AlgorithmId,
    cfg: OverheadConfig,
    reps: u64,
) -> Result<Summary, SimError> {
    repeat_sim_on(&SweepPool::ambient(), topo, p, algorithm, cfg, reps)
}

/// [`repeat_sim`] on an explicit pool (tests pin the worker count).
pub fn repeat_sim_on(
    pool: &SweepPool,
    topo: &Arc<Topology>,
    p: usize,
    algorithm: AlgorithmId,
    cfg: OverheadConfig,
    reps: u64,
) -> Result<Summary, SimError> {
    repeat_sim_of_on(
        pool,
        topo,
        p,
        move |arena| Arc::from(algorithm.build(arena, p, topo)),
        cfg,
        reps,
    )
}

/// Repeated measurement of a *custom* barrier: `build` constructs a fresh
/// instance from a fresh arena for every repetition (so per-rep runs stay
/// independent), and the seed schedule is the same [`SEED_STRIDE`] walk
/// used by [`repeat_sim`] — the two paths are directly comparable.
pub fn repeat_sim_of(
    topo: &Arc<Topology>,
    p: usize,
    build: impl Fn(&mut Arena) -> Arc<dyn Barrier> + Sync,
    cfg: OverheadConfig,
    reps: u64,
) -> Result<Summary, SimError> {
    repeat_sim_of_on(&SweepPool::ambient(), topo, p, build, cfg, reps)
}

/// [`repeat_sim_of`] on an explicit pool.
pub fn repeat_sim_of_on(
    pool: &SweepPool,
    topo: &Arc<Topology>,
    p: usize,
    build: impl Fn(&mut Arena) -> Arc<dyn Barrier> + Sync,
    cfg: OverheadConfig,
    reps: u64,
) -> Result<Summary, SimError> {
    assert!(reps >= 1);
    let build = &build;
    let jobs: Vec<Job<'_, Result<f64, SimError>>> = (0..reps)
        .map(|r| {
            Job::parallel(move || {
                let mut arena = Arena::new();
                let barrier = build(&mut arena);
                sim_overhead_of(topo, p, barrier, cfg.rep(r))
            })
        })
        .collect();
    let samples: Vec<f64> = pool.run(jobs).into_iter().collect::<Result<_, _>>()?;
    Ok(Summary::of(&samples))
}

/// Host-backend overhead of `algorithm` with `p` real threads, in ns per
/// episode. Subject to real scheduler noise; intended for laptop-scale
/// sanity checks and the examples, not for reproducing the paper's
/// figures (that is the simulator's job).
///
/// Follows the same EPCC protocol as [`sim_overhead_of`]: each measured
/// episode is `work(delay_ns); barrier()`, and the cost of the work term
/// is removed by timing the work-only reference loop and subtracting it —
/// so host and simulator numbers answer the same question. Host-backend
/// measurements are wall-clock-sensitive and must never share the machine
/// with a busy sweep pool; callers embedding this in a sweep use
/// `armbar_sweep::Job::serial`.
pub fn host_overhead_ns(p: usize, algorithm: AlgorithmId, cfg: OverheadConfig) -> f64 {
    let topo = Topology::preset(armbar_topology::Platform::Phytium2000Plus);
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> = Arc::from(algorithm.build(&mut arena, p, &topo));
    let mem = HostMem::new(&arena);

    let start_gate = std::sync::Barrier::new(p);
    let mut overhead_ns = vec![0.0f64; p];

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|tid| {
                let mem = Arc::clone(&mem);
                let barrier = Arc::clone(&barrier);
                let gate = &start_gate;
                s.spawn(move || {
                    let ctx = mem.ctx(tid, p);
                    gate.wait();
                    for _ in 0..cfg.warmup {
                        ctx.compute_ns(cfg.delay_ns);
                        barrier.wait(&ctx);
                    }
                    let t0 = std::time::Instant::now();
                    for _ in 0..cfg.episodes {
                        ctx.compute_ns(cfg.delay_ns);
                        barrier.wait(&ctx);
                    }
                    let combined = t0.elapsed();
                    // EPCC reference loop: the same work without the
                    // construct under test.
                    let t1 = std::time::Instant::now();
                    for _ in 0..cfg.episodes {
                        ctx.compute_ns(cfg.delay_ns);
                    }
                    let reference = t1.elapsed();
                    combined.saturating_sub(reference).as_nanos() as f64 / cfg.episodes as f64
                })
            })
            .collect();
        for (tid, h) in handles.into_iter().enumerate() {
            overhead_ns[tid] = h.join().expect("worker panicked");
        }
    });

    overhead_ns.iter().copied().sum::<f64>() / p as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_topology::Platform;

    fn topo(p: Platform) -> Arc<Topology> {
        Arc::new(Topology::preset(p))
    }

    #[test]
    fn overhead_is_positive_and_grows_with_threads() {
        let t = topo(Platform::ThunderX2);
        let cfg = OverheadConfig::default();
        let o8 = sim_overhead_ns(&t, 8, AlgorithmId::Sense, cfg).unwrap();
        let o32 = sim_overhead_ns(&t, 32, AlgorithmId::Sense, cfg).unwrap();
        assert!(o8 > 0.0);
        assert!(o32 > o8, "SENSE must scale poorly: {o8} vs {o32}");
    }

    #[test]
    fn single_thread_overhead_is_tiny() {
        let t = topo(Platform::Phytium2000Plus);
        let o = sim_overhead_ns(&t, 1, AlgorithmId::Stour, OverheadConfig::default()).unwrap();
        assert!(o < 50.0, "P=1 should be near-free, got {o}");
    }

    #[test]
    fn overhead_is_independent_of_delay() {
        // The reference subtraction must cancel the work term.
        let t = topo(Platform::Kunpeng920);
        let base = OverheadConfig::default();
        let a = sim_overhead_ns(&t, 16, AlgorithmId::Tournament, base).unwrap();
        let b = sim_overhead_ns(
            &t,
            16,
            AlgorithmId::Tournament,
            OverheadConfig { delay_ns: 1000.0, ..base },
        )
        .unwrap();
        let rel = (a - b).abs() / a.max(b);
        assert!(rel < 0.35, "delay must mostly cancel: {a} vs {b}");
    }

    #[test]
    fn repeat_sim_summarizes() {
        let t = topo(Platform::Kunpeng920);
        let s = repeat_sim(&t, 16, AlgorithmId::Stour, OverheadConfig::default(), 5).unwrap();
        assert_eq!(s.n, 5);
        assert!(s.min <= s.mean && s.mean <= s.max);
        // Kunpeng 920 is configured jittery: expect visible spread.
        assert!(s.std > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_overhead() {
        let t = topo(Platform::Phytium2000Plus);
        let cfg = OverheadConfig::default();
        let a = sim_overhead_ns(&t, 24, AlgorithmId::Mcs, cfg).unwrap();
        let b = sim_overhead_ns(&t, 24, AlgorithmId::Mcs, cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn host_overhead_runs_small() {
        let o = host_overhead_ns(
            2,
            AlgorithmId::Optimized,
            OverheadConfig { warmup: 2, episodes: 20, ..Default::default() },
        );
        assert!(o > 0.0);
    }

    #[test]
    fn host_overhead_runs_the_work_term_and_subtracts_it() {
        // p = 1 keeps the measurement clean even on a single-core runner
        // (no oversubscription): the compute delay must actually execute
        // (lower-bounds the wall time) and the reference subtraction must
        // cancel it (the reported overhead is the barrier cost alone, far
        // below one delay).
        let delay_ns = 500_000.0; // 0.5 ms dwarfs a 1-thread barrier
        let cfg = OverheadConfig { warmup: 2, episodes: 10, delay_ns, ..Default::default() };
        let t0 = std::time::Instant::now();
        let o = host_overhead_ns(1, AlgorithmId::Optimized, cfg);
        let elapsed = t0.elapsed();
        // warmup + measured + reference loops each run the delay.
        let work_floor = std::time::Duration::from_nanos(
            ((cfg.warmup + 2 * cfg.episodes) as f64 * delay_ns) as u64,
        );
        assert!(elapsed >= work_floor, "work term skipped: {elapsed:?} < {work_floor:?}");
        assert!(o >= 0.0);
        assert!(o < delay_ns, "work term leaked into the overhead: {o}");
    }

    #[test]
    fn rep_seed_schedule_uses_the_shared_stride() {
        let base = OverheadConfig::default();
        assert_eq!(base.rep(0).seed, base.seed);
        assert_eq!(base.rep(3).seed, base.seed.wrapping_add(3 * SEED_STRIDE));
        assert_eq!(base.rep(1).episodes, base.episodes);
    }

    #[test]
    fn repeat_sim_matches_repeat_sim_of_for_registry_barriers() {
        // The two repeated-measurement paths (registry id vs. custom
        // builder) must be seed-matched: same barrier, same summary.
        let t = topo(Platform::ThunderX2);
        let cfg = OverheadConfig { episodes: 10, ..Default::default() };
        let a = repeat_sim(&t, 16, AlgorithmId::Stour, cfg, 3).unwrap();
        let b = repeat_sim_of(
            &t,
            16,
            |arena| Arc::from(AlgorithmId::Stour.build(arena, 16, &t)),
            cfg,
            3,
        )
        .unwrap();
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn repeat_sim_is_independent_of_worker_count() {
        let t = topo(Platform::Kunpeng920);
        let cfg = OverheadConfig { episodes: 10, ..Default::default() };
        let serial =
            repeat_sim_on(&SweepPool::new(1), &t, 16, AlgorithmId::Optimized, cfg, 4).unwrap();
        let parallel =
            repeat_sim_on(&SweepPool::new(4), &t, 16, AlgorithmId::Optimized, cfg, 4).unwrap();
        assert_eq!(serial.mean, parallel.mean);
        assert_eq!(serial.std, parallel.std);
    }
}
