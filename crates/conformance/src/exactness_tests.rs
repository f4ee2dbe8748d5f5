//! Exactness of the engine's conformance fast paths: the settled-policy
//! handoff and engine-side bounded polls must leave every simulated byte
//! of a search unchanged.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use armbar_core::{AlgorithmId, Barrier, MemCtx, RobustBarrier, RobustConfig, RobustPhaser};
use armbar_faults::{build_phaser, churn_thread, ChurnPlan, Scenario};
use armbar_simcoh::schedule::{
    MinTimePolicy, ReadyOp, ScheduleDecision, SchedulePolicy, WeakDecision, WeakOp,
};
use armbar_simcoh::stats::{OpKind, RunStats};
use armbar_simcoh::{Addr, Arena, SimBuilder, SimError, SimTeam, SimThread};
use armbar_topology::{Platform, Topology};

use crate::checker::{run_trial_with, simulate_trial, trial_seed, ConformConfig};
use crate::explorer::{ExplorerConfig, ExplorerPolicy};
use crate::phaser::{run_phaser_trial_with, simulate_phaser_trial, PhaserConformConfig};

/// Everything a run leaves behind, as one comparable string: the order
/// fingerprint, thread-time bits, op counts, per-thread coherence
/// counters, marks and engine counters — or the error, diagnostics
/// included.
fn record(result: &Result<RunStats, SimError>) -> String {
    match result {
        Ok(s) => format!(
            "hash {:#x} times {:?} ops {:?} coherence {:?} marks {:?} engine {:?}",
            s.schedule_hash(),
            s.per_thread_time_ns().iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            OpKind::ALL.map(|k| s.ops(k)),
            s.coherence().per_thread(),
            s.marks(),
            s.engine(),
        ),
        Err(e) => format!("error {e:?}"),
    }
}

fn weak_explorer() -> ExplorerConfig {
    ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }.with_reorder_budget(64)
}

// ---------------------------------------------------------------------
// Pinned search fingerprint.

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

#[test]
fn search_fingerprint_is_pinned() {
    // Per-trial schedule hashes of a fixed search matrix on Kunpeng920:
    // the 16 barriers under SC and under the weak search (4 seeds each),
    // and both phasers under the 4 churn scenarios (2 seeds each). A
    // change to any simulated interleaving or cost moves this value.
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let cfg = ConformConfig::default();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for explorer in [cfg.explorer, weak_explorer()] {
        for &algorithm in &cfg.algorithms {
            for i in 0..4 {
                let seed = trial_seed(cfg.base_seed, i);
                let hash = run_trial_with(
                    &topo,
                    &|arena, p, t| algorithm.build(arena, p, t),
                    cfg.threads,
                    cfg.episodes,
                    seed,
                    explorer,
                    cfg.op_budget,
                )
                .unwrap_or_else(|e| panic!("{algorithm:?} seed {seed:#x}: {e:?}"));
                h = fold(h, hash);
            }
        }
    }
    let pcfg = PhaserConformConfig::default();
    for algorithm in AlgorithmId::PHASERS {
        for scenario in Scenario::CHURN {
            for i in 0..2 {
                let seed = trial_seed(pcfg.base_seed, i);
                let hash = run_phaser_trial_with(
                    &topo,
                    &|arena, cap, initial, t| {
                        build_phaser(algorithm, arena, cap, initial, t).expect("a phaser")
                    },
                    scenario,
                    &pcfg,
                    pcfg.episodes,
                    seed,
                    pcfg.explorer,
                )
                .unwrap_or_else(|e| panic!("{algorithm:?} {scenario:?} seed {seed:#x}: {e:?}"));
                h = fold(h, hash);
            }
        }
    }
    assert_eq!(h, 0x57d0_a49e_ffb3_882d, "search fingerprint moved: {h:#018x}");
}

// ---------------------------------------------------------------------
// Settled-policy handoff.

/// Forwards to the wrapped policy but never reports settled, so the run
/// stays in policy mode to the end: the reference for the handoff.
struct NeverSettled<P>(P);

impl<P: SchedulePolicy> SchedulePolicy for NeverSettled<P> {
    fn pick(&mut self, ready: &[ReadyOp], min_running: Option<(f64, usize)>) -> ScheduleDecision {
        self.0.pick(ready, min_running)
    }

    fn weak(&mut self, op: &WeakOp) -> WeakDecision {
        self.0.weak(op)
    }
}

/// One conformance trial of `algorithm` under `policy`, recorded.
fn barrier_trial(
    topo: &Arc<Topology>,
    algorithm: AlgorithmId,
    seed: u64,
    policy: impl SchedulePolicy + 'static,
) -> String {
    let cfg = ConformConfig::default();
    let (_, result) = simulate_trial(
        topo,
        &|arena, p, t| algorithm.build(arena, p, t),
        cfg.threads,
        cfg.episodes,
        seed,
        cfg.op_budget,
        policy,
    );
    record(&result)
}

/// One churn trial of `algorithm` under `policy`, recorded with the
/// slots' verdicts.
fn phaser_trial(
    topo: &Arc<Topology>,
    algorithm: AlgorithmId,
    scenario: Scenario,
    seed: u64,
    policy: impl SchedulePolicy + 'static,
) -> String {
    let pcfg = PhaserConformConfig::default();
    let (_, result, verdicts) = simulate_phaser_trial(
        topo,
        &|arena, cap, initial, t| {
            build_phaser(algorithm, arena, cap, initial, t).expect("a phaser")
        },
        scenario,
        &pcfg,
        pcfg.episodes,
        seed,
        policy,
    );
    format!("{} verdicts {verdicts:?}", record(&result))
}

#[test]
fn settled_handoff_matches_never_settled_barriers() {
    let cfg = ConformConfig::default();
    for platform in Platform::ARM {
        let topo = Arc::new(Topology::preset(platform));
        for explorer in [cfg.explorer, weak_explorer()] {
            for &algorithm in &cfg.algorithms {
                for i in 0..2 {
                    let seed = trial_seed(cfg.base_seed, i);
                    let policy = ExplorerPolicy::new(seed, explorer);
                    assert_eq!(
                        barrier_trial(&topo, algorithm, seed, policy.clone()),
                        barrier_trial(&topo, algorithm, seed, NeverSettled(policy)),
                        "{platform:?} {algorithm:?} rbudget {} seed {seed:#x}",
                        explorer.reorder_budget
                    );
                }
            }
        }
    }
}

#[test]
fn settled_handoff_matches_never_settled_phasers() {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let pcfg = PhaserConformConfig::default();
    let seed = trial_seed(pcfg.base_seed, 0);
    for algorithm in AlgorithmId::PHASERS {
        for scenario in Scenario::CHURN {
            let policy = ExplorerPolicy::new(seed, pcfg.explorer);
            assert_eq!(
                phaser_trial(&topo, algorithm, scenario, seed, policy.clone()),
                phaser_trial(&topo, algorithm, scenario, seed, NeverSettled(policy)),
                "{algorithm:?} {scenario:?}"
            );
        }
    }
}

#[test]
fn settled_handoff_keeps_each_waiters_own_view() {
    // t1 observes a == 0, t0 then commits 2, and t1 spins for a 3 that
    // never comes. The budgets are 0, so the policy settles at once and the
    // deadlock is reported from the heap path; it must still show the 0
    // t1 last observed next to the committed 2.
    let run = |policy: Box<dyn Fn(SimBuilder) -> SimBuilder>| {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let err = policy(SimBuilder::new(topo, 2))
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(500.0);
                    ctx.store(a, 2);
                } else {
                    ctx.load(a);
                    ctx.compute_ns(1_000.0);
                    ctx.spin_until_eq(a, 3);
                }
            })
            .unwrap_err();
        err.to_string()
    };
    let cfg = ExplorerConfig::default().with_budget(0);
    let settled = run(Box::new(move |b| b.schedule_policy(ExplorerPolicy::new(1, cfg))));
    let never =
        run(Box::new(move |b| b.schedule_policy(NeverSettled(ExplorerPolicy::new(1, cfg)))));
    assert_eq!(settled, never);
    assert!(settled.contains("saw 2, thread view 0"), "{settled}");
}

/// Counts the `pick` calls the engine makes, split by whether the wrapped
/// policy had already settled.
struct PickCounter {
    inner: ExplorerPolicy,
    log: Arc<Mutex<(u32, u32)>>,
}

impl SchedulePolicy for PickCounter {
    fn pick(&mut self, ready: &[ReadyOp], min_running: Option<(f64, usize)>) -> ScheduleDecision {
        let mut log = self.log.lock().unwrap();
        if self.inner.settled() {
            log.1 += 1;
        } else {
            log.0 += 1;
        }
        self.inner.pick(ready, min_running)
    }

    fn weak(&mut self, op: &WeakOp) -> WeakDecision {
        self.inner.weak(op)
    }

    fn settled(&self) -> bool {
        self.inner.settled()
    }
}

#[test]
fn settled_policy_is_no_longer_consulted() {
    // Under SC no store is ever buffered, so the first settlement point
    // after the budget is spent hands the run to the heap scheduler.
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let cfg = ConformConfig::default();
    let log = Arc::new(Mutex::new((0, 0)));
    let policy = PickCounter {
        inner: ExplorerPolicy::new(trial_seed(cfg.base_seed, 0), cfg.explorer),
        log: Arc::clone(&log),
    };
    let (_, result) = simulate_trial(
        &topo,
        &|arena, p, t| AlgorithmId::Sense.build(arena, p, t),
        cfg.threads,
        8,
        1,
        cfg.op_budget,
        policy,
    );
    let stats = result.expect("SENSE conforms");
    let (unsettled, settled) = *log.lock().unwrap();
    assert!(unsettled > 0, "the policy must be consulted while its budget lasts");
    assert_eq!(settled, 0, "pick called {settled} times after the policy settled");
    assert!(
        stats.engine().pops > u64::from(unsettled),
        "the run must go on past the handoff ({} pops, {unsettled} picks)",
        stats.engine().pops
    );
}

// ---------------------------------------------------------------------
// Engine-side bounded polls.

/// A `MemCtx` over a simulated thread that hides the engine-side polls:
/// bounded waits on it take the default one-`load`-per-call loop.
struct LoadLoop<'a>(&'a SimThread);

impl MemCtx for LoadLoop<'_> {
    fn tid(&self) -> usize {
        self.0.tid()
    }
    fn nthreads(&self) -> usize {
        self.0.nthreads()
    }
    fn load(&self, addr: Addr) -> u32 {
        self.0.load(addr)
    }
    fn store(&self, addr: Addr, value: u32) {
        self.0.store(addr, value)
    }
    fn load_relaxed(&self, addr: Addr) -> u32 {
        self.0.load_relaxed(addr)
    }
    fn store_relaxed(&self, addr: Addr, value: u32) {
        self.0.store_relaxed(addr, value)
    }
    fn fence(&self) {
        self.0.fence()
    }
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        self.0.fetch_add(addr, delta)
    }
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        self.0.compare_exchange(addr, current, new)
    }
    fn swap(&self, addr: Addr, new: u32) -> u32 {
        self.0.swap(addr, new)
    }
    fn spin_until_eq(&self, addr: Addr, value: u32) -> u32 {
        self.0.spin_until_eq(addr, value)
    }
    fn spin_until_ge(&self, addr: Addr, value: u32) -> u32 {
        self.0.spin_until_ge(addr, value)
    }
    fn spin_until_all_ge(&self, addrs: &[Addr], value: u32) {
        self.0.spin_until_all_ge(addrs, value)
    }
    fn compute_ns(&self, ns: f64) {
        self.0.compute_ns(ns)
    }
    fn mark(&self, label: u32) {
        self.0.mark(label)
    }
}

/// A barrier whose episode is an arbitrary script over the bounded
/// context it is handed.
struct Scripted(Box<Script>);

type Script = dyn Fn(&dyn MemCtx) + Send + Sync;

impl Barrier for Scripted {
    fn wait(&self, ctx: &dyn MemCtx) {
        (self.0)(ctx)
    }
    fn name(&self) -> &str {
        "scripted"
    }
}

/// One simulated program: `(body, op budget)`, the body taking the
/// context to run the bounded waits over.
type PollCase = (Arc<dyn Fn(&SimThread, &dyn MemCtx) -> String + Send + Sync>, u64);

const P: usize = 4;

/// A [`RobustBarrier`] with poll deadline `max_polls` around `script`.
fn robust(
    arena: &mut Arena,
    max_polls: u64,
    script: impl Fn(&dyn MemCtx) + Send + Sync + 'static,
) -> Arc<RobustBarrier> {
    let config = RobustConfig { max_polls: Some(max_polls), ..RobustConfig::default() };
    Arc::new(RobustBarrier::new(arena, 64, Box::new(Scripted(Box::new(script))), config))
}

fn poll_cases() -> Vec<(&'static str, PollCase)> {
    let mut arena = Arena::new();
    let mut cases: Vec<(&'static str, PollCase)> = Vec::new();

    // Nobody ever releases: every waiter times out at exactly max_polls
    // (not a multiple of the check stride) or sees the first timeout's
    // poison at a check index.
    let flag = arena.alloc_padded_u32(64);
    let b = robust(&mut arena, 150, move |ctx| {
        ctx.spin_until_eq(flag, 1);
    });
    cases.push((
        "timeout",
        (
            Arc::new(move |sim, ctx| {
                sim.compute_ns(37.0 * sim.tid() as f64);
                format!("{:?}", b.wait(ctx))
            }),
            4_000_000,
        ),
    ));

    // Thread 0 crashes holding a poison guard; the waiters see the poison
    // at their next check index.
    let flag = arena.alloc_padded_u32(64);
    let b = robust(&mut arena, 20_000, move |ctx| {
        ctx.spin_until_ge(flag, 1);
    });
    cases.push((
        "poison",
        (
            Arc::new(move |sim, ctx| {
                if sim.tid() == 0 {
                    sim.compute_ns(3_000.0);
                    let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let _guard = b.guard(ctx);
                        std::panic::resume_unwind(Box::new("crash"));
                    }));
                    format!("crashed {}", crashed.is_err())
                } else {
                    format!("{:?}", b.wait(ctx))
                }
            }),
            4_000_000,
        ),
    ));

    // The releaser hammers the polled line with RMWs on a neighbouring
    // word: the pollers' loads find it busy, stall and form cohorts.
    let line = arena.alloc_padded_u32(64);
    let (counter, flag) = (line, line + 4);
    let b = robust(&mut arena, 20_000, move |ctx| {
        if ctx.tid() == 0 {
            for _ in 0..40 {
                ctx.fetch_add(counter, 1);
            }
            ctx.store(flag, 1);
        } else {
            ctx.spin_until_eq(flag, 1);
        }
    });
    cases.push(("busy line", (Arc::new(move |_, ctx| format!("{:?}", b.wait(ctx))), 4_000_000)));

    // Each thread polls a word it holds a relaxed store to: under the
    // weak search the store sits in its buffer and every load of the
    // poll is forwarded from there.
    let words: Vec<Addr> = (0..P).map(|_| arena.alloc_padded_u32(64)).collect();
    let ws = words.clone();
    let b = robust(&mut arena, 300, move |ctx| {
        ctx.spin_until_eq(ws[ctx.tid()], 6);
    });
    cases.push((
        "forwarding",
        (
            Arc::new(move |sim, ctx| {
                let t = sim.tid();
                ctx.store_relaxed(words[t], 5);
                ctx.compute_ns(100.0);
                ctx.store_relaxed(words[(t + 1) % P], 6);
                format!("{:?}", b.wait(ctx))
            }),
            4_000_000,
        ),
    ));

    // The op budget runs out in the middle of a poll.
    let flag = arena.alloc_padded_u32(64);
    let b = robust(&mut arena, 100_000, move |ctx| {
        ctx.spin_until_eq(flag, 1);
    });
    cases.push(("budget", (Arc::new(move |_, ctx| format!("{:?}", b.wait(ctx))), 3_000)));

    // A crash-evict churn script of each phaser: the survivors' stalled
    // waits are what the eviction vote is built on.
    let topo = Topology::preset(Platform::Kunpeng920);
    for algorithm in AlgorithmId::PHASERS {
        let plan = ChurnPlan::scenario(Scenario::CrashEvict, 0xE71C, P, 5);
        let inner = build_phaser(algorithm, &mut arena, P, plan.initial_members(), &topo)
            .expect("a phaser");
        let aux = arena.alloc_padded_u32(64);
        let config = RobustConfig { max_polls: Some(2_000), ..RobustConfig::default() };
        let phaser = Arc::new(RobustPhaser::new(&mut arena, 64, inner, config));
        cases.push((
            algorithm.label(),
            (
                Arc::new(move |_, ctx| format!("{:?}", churn_thread(&phaser, ctx, &plan, aux, 5))),
                4_000_000,
            ),
        ));
    }
    cases
}

#[derive(Debug, Clone, Copy)]
enum Runner {
    Heap,
    MinTime,
    Explorer(u32),
    OsThreads,
}

/// Runs `case` under `runner`, its bounded waits over the engine-side
/// polls (`engine_polls`) or over the default load loop; returns the run
/// and each thread's verdict.
fn run_case(
    case: &PollCase,
    runner: Runner,
    engine_polls: bool,
) -> (Result<RunStats, SimError>, Vec<String>) {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let b = SimBuilder::new(topo, P).seed(0x5EED_0013).op_budget(case.1);
    let b = match runner {
        Runner::Heap | Runner::OsThreads => b,
        Runner::MinTime => b.schedule_policy(MinTimePolicy),
        Runner::Explorer(rbudget) => b.schedule_policy(ExplorerPolicy::new(
            0xE7,
            ExplorerConfig { reorder_prob: 1.0, ..ExplorerConfig::default() }
                .with_reorder_budget(rbudget),
        )),
    };
    let verdicts = Arc::new(Mutex::new(vec![String::new(); P]));
    let body = {
        let (verdicts, script) = (Arc::clone(&verdicts), Arc::clone(&case.0));
        move |sim: &SimThread| {
            let v = if engine_polls { script(sim, sim) } else { script(sim, &LoadLoop(sim)) };
            verdicts.lock().unwrap()[sim.tid()] = v;
        }
    };
    let result = match runner {
        Runner::OsThreads => SimTeam::new(P).run(b, body),
        _ => b.run(body),
    };
    let verdicts = verdicts.lock().unwrap().clone();
    (result, verdicts)
}

#[test]
fn engine_polls_match_the_load_loop() {
    let runners = [
        Runner::Heap,
        Runner::MinTime,
        Runner::Explorer(0),
        Runner::Explorer(64),
        Runner::OsThreads,
    ];
    for (name, case) in poll_cases() {
        for runner in runners {
            let (result, verdicts) = run_case(&case, runner, true);
            let engine = format!("{} verdicts {verdicts:?}", record(&result));
            let (result, verdicts) = run_case(&case, runner, false);
            let looped = format!("{} verdicts {verdicts:?}", record(&result));
            assert_eq!(engine, looped, "{name} under {runner:?}");
            // Each case exercises the path it is named for.
            let expect = match name {
                "timeout" => "spins: 150",
                "poison" => "Poisoned",
                "forwarding" if matches!(runner, Runner::Explorer(64)) => "spins: 300",
                "budget" => "OpBudgetExhausted",
                _ => "",
            };
            assert!(engine.contains(expect), "{name} under {runner:?}: {engine}");
            if name == "busy line" {
                let stalls = result.expect("busy line completes").coherence().total().read_stalls;
                assert!(stalls > 0, "busy line under {runner:?}: no poll load stalled");
            }
        }
    }
}
