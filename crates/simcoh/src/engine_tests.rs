//! Additional engine tests: the batched (MLP) wait, the NoC bandwidth
//! queue, and the busy-line requeue discipline. Split from `engine.rs` to
//! keep the engine readable.

use std::sync::Arc;

use armbar_topology::{Platform, Topology, TopologyBuilder};

use crate::arena::{Addr, Arena};
use crate::engine::{SimBuilder, SimThread};
use crate::error::SimError;
use crate::stats::{OpKind, RunStats};

/// 8 cores, clusters of 4, zero jitter, no NoC charge:
/// ε = 1, L0 = 10 (α 0.5), L1 = 40 (α 0.5), inv = 2, read contention = 3.
fn topo() -> Arc<Topology> {
    Arc::new(
        TopologyBuilder::new("t8", 8)
            .epsilon_ns(1.0)
            .layer("near", 10.0, 0.5)
            .layer("far", 40.0, 0.5)
            .hierarchy(&[4])
            .coherence(2.0, 3.0, 0.0)
            .build(),
    )
}

/// Same machine with a 5 ns/transaction NoC.
fn topo_noc() -> Arc<Topology> {
    Arc::new(
        TopologyBuilder::new("t8noc", 8)
            .epsilon_ns(1.0)
            .layer("near", 10.0, 0.5)
            .layer("far", 40.0, 0.5)
            .hierarchy(&[4])
            .coherence(2.0, 3.0, 0.0)
            .noc_ns(5.0)
            .build(),
    )
}

#[test]
fn batched_wait_pays_max_not_sum() {
    // Thread 3 batch-waits on flags owned by threads 0 (L0), 1 (L0) and
    // 4 (L1 = 40). All were written before the wait begins, so the probe
    // fetches three lines: max(40) + 0.3·(10+10) = 46, not 60.
    let mut arena = Arena::new();
    let f0 = arena.alloc_padded_u32(64);
    let f1 = arena.alloc_padded_u32(64);
    let f4 = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 5)
        .run(move |ctx| match ctx.tid() {
            0 => ctx.store(f0, 1),
            1 => ctx.store(f1, 1),
            4 => ctx.store(f4, 1),
            3 => {
                ctx.compute_ns(1000.0); // let the writers go first
                let t0 = ctx.now_ns();
                ctx.spin_until_all_ge(&[f0, f1, f4], 1);
                let dt = ctx.now_ns() - t0;
                assert!((dt - 46.0).abs() < 1e-9, "batched probe cost {dt}");
            }
            _ => {}
        })
        .unwrap();
    assert_eq!(stats.ops(OpKind::RemoteRead), 3);
}

#[test]
fn batched_wait_blocks_until_all_satisfied() {
    let mut arena = Arena::new();
    let f0 = arena.alloc_padded_u32(64);
    let f1 = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 3)
        .run(move |ctx| match ctx.tid() {
            0 => {
                ctx.compute_ns(100.0);
                ctx.store(f0, 1);
            }
            1 => {
                ctx.compute_ns(500.0);
                ctx.store(f1, 1);
            }
            2 => {
                ctx.spin_until_all_ge(&[f0, f1], 1);
                // Released only after the slower writer (t=500) plus wake.
                assert!(ctx.now_ns() > 500.0, "woke at {}", ctx.now_ns());
            }
            _ => unreachable!(),
        })
        .unwrap();
    assert_eq!(stats.ops(OpKind::SpinWakeup), 1);
}

#[test]
fn batched_wait_empty_list_is_noop() {
    let stats = SimBuilder::new(topo(), 1)
        .run(move |ctx| {
            ctx.spin_until_all_ge(&[], 99);
            ctx.compute_ns(7.0);
        })
        .unwrap();
    assert_eq!(stats.max_time_ns(), 7.0);
}

#[test]
fn batched_deadlock_is_detected() {
    let mut arena = Arena::new();
    let f0 = arena.alloc_padded_u32(64);
    let f1 = arena.alloc_padded_u32(64);
    let err = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.store(f0, 1); // f1 never written
            } else {
                ctx.spin_until_all_ge(&[f0, f1], 1);
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn noc_queue_serializes_concurrent_remote_traffic() {
    // Seven threads each pull a line owned by thread 0 at the same time.
    // Without the NoC each pays its own latency; with a 5 ns service
    // interval the k-th transaction queues behind k−1 others.
    let run = |topo: Arc<Topology>| {
        let mut arena = Arena::new();
        let lines = arena.alloc_padded_u32_array(8, 64);
        SimBuilder::new(topo, 8)
            .run(move |ctx| {
                let me = ctx.tid();
                if me == 0 {
                    for i in 0..8usize {
                        ctx.store(lines + 64 * i as u32, 1);
                    }
                    ctx.store(lines + 64 * 7, 2); // "ready" signal on line 7
                } else {
                    ctx.spin_until(lines + 64 * 7, |v| v >= 1);
                    ctx.load(lines + 64 * me as u32);
                }
            })
            .unwrap()
            .max_time_ns()
    };
    let without = run(topo());
    let with = run(topo_noc());
    assert!(with > without + 10.0, "NoC queueing should slow the burst: {without} vs {with}");
}

#[test]
fn noc_charge_skips_local_traffic() {
    // A thread hammering its own exclusive line never touches the NoC.
    let run = |topo: Arc<Topology>| {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo, 1)
            .run(move |ctx| {
                for i in 0..100 {
                    ctx.store(a, i);
                }
            })
            .unwrap()
            .max_time_ns()
    };
    assert_eq!(run(topo()), run(topo_noc()));
}

#[test]
fn busy_line_requeue_interleaves_spinner_registration() {
    // The signature effect of the requeue discipline: a spinner that
    // *issues* its first read while a queue of RMWs is draining still
    // registers mid-queue, so later RMWs pay invalidations to it. With
    // five RMW threads and one spinner, the spinner's crowd presence makes
    // the total strictly larger than the sum of uncontended RMWs.
    let mut arena = Arena::new();
    let counter = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 6)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.spin_until(counter, |v| v >= 5);
            } else {
                ctx.fetch_add(counter, 1);
            }
        })
        .unwrap();
    // All five RMWs completed and the spinner woke exactly once.
    assert_eq!(stats.ops(OpKind::SpinWakeup), 1);
    let total = stats.max_time_ns();
    assert!(total > 5.0 * 16.0, "crowd effects missing? total {total}");
}

#[test]
fn rmw_surcharge_makes_atomics_costlier_than_stores() {
    let mut arena = Arena::new();
    let a = arena.alloc_padded_u32(64);
    let b = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.store(a, 1);
                ctx.store(b, 1);
            } else {
                ctx.spin_until(a, |v| v == 1);
                ctx.spin_until(b, |v| v == 1);
                let t0 = ctx.now_ns();
                ctx.store(a, 2); // plain store to a remote-owned line
                let store_cost = ctx.now_ns() - t0;
                let t1 = ctx.now_ns();
                ctx.fetch_add(b, 1); // RMW on an equivalent line
                let rmw_cost = ctx.now_ns() - t1;
                assert!(rmw_cost > store_cost, "RMW ({rmw_cost}) must exceed store ({store_cost})");
            }
        })
        .unwrap();
    assert!(stats.total_mem_ops() > 0);
}

#[test]
fn hotspot_accounting_identifies_the_hot_line() {
    // Everyone hammers one counter; a second line sees a single write.
    let mut arena = Arena::new();
    let hot = arena.alloc_padded_u32(64);
    let cold = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 8)
        .run(move |ctx| {
            for _ in 0..10 {
                ctx.fetch_add(hot, 1);
            }
            if ctx.tid() == 0 {
                ctx.store(cold, 1);
            }
        })
        .unwrap();
    let hottest = stats.hottest_lines(1);
    assert_eq!(hottest.len(), 1);
    assert_eq!(hottest[0].0, hot / 64);
    assert_eq!(hottest[0].1.writes, 80);
    assert!(stats.hotspot_concentration() > 0.95);
}

#[test]
fn spread_traffic_has_low_concentration() {
    let mut arena = Arena::new();
    let lines = arena.alloc_padded_u32_array(8, 64);
    let stats = SimBuilder::new(topo(), 8)
        .run(move |ctx| {
            let mine = lines + 64 * ctx.tid() as u32;
            for i in 0..10 {
                ctx.store(mine, i);
            }
        })
        .unwrap();
    assert!((stats.hotspot_concentration() - 0.125).abs() < 1e-9);
    assert_eq!(stats.hottest_lines(100).len(), 8);
}

#[test]
fn invalidation_counts_reflect_sharer_crowds() {
    let mut arena = Arena::new();
    let flag = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 5)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.compute_ns(500.0); // let all four spinners subscribe
                ctx.store(flag, 1);
            } else {
                ctx.spin_until(flag, |v| v == 1);
            }
        })
        .unwrap();
    let t = stats.line_traffic()[&(flag / 64)];
    assert_eq!(t.writes, 1);
    assert_eq!(t.invalidations, 4, "the release must invalidate all four spinners");
    assert_eq!(t.peak_sharers, 4);
}

// ---------------------------------------------------------------------------
// Schedule-policy tests: the policy engine path must be semantically
// identical to the default heap path under MinTimePolicy, stay deterministic
// under perturbation, and survive adversarial policies.

use crate::schedule::{MinTimePolicy, ReadyOp, ScheduleDecision, SchedulePolicy};

/// A contended episode body: every thread RMWs a shared counter, the last
/// arriver releases a flag, the rest spin on it.
fn barrier_body(counter: u32, flag: u32, n: u32) -> impl Fn(&crate::engine::SimThread) + Clone {
    move |ctx: &crate::engine::SimThread| {
        for round in 1..=3u32 {
            let prev = ctx.fetch_add(counter, 1);
            if prev + 1 == round * n {
                ctx.store(flag, round);
            } else {
                ctx.spin_until_ge(flag, round);
            }
        }
    }
}

/// A shareable simulated-thread body.
type Body = Arc<dyn Fn(&SimThread) + Send + Sync>;

/// One contended input: a machine, a width and a body whose addresses are
/// already allocated, so several runs of it see the same memory.
struct Case {
    name: &'static str,
    topo: Arc<Topology>,
    p: usize,
    body: Body,
}

impl Case {
    fn builder(&self) -> SimBuilder {
        SimBuilder::new(Arc::clone(&self.topo), self.p).seed(42)
    }

    fn run(&self, policy: bool) -> RunStats {
        let b = self.builder();
        let b = if policy { b.schedule_policy(MinTimePolicy) } else { b };
        let body = Arc::clone(&self.body);
        b.run(move |ctx| body(ctx)).unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }
}

/// Asserts two runs made the same decisions with the same costs: order
/// fingerprint, per-thread times, op counts, per-thread coherence counters
/// (stall counts and stall time included) and engine work counters.
fn assert_same_run(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.schedule_hash(), b.schedule_hash(), "{what}: processing order");
    assert_eq!(a.per_thread_time_ns(), b.per_thread_time_ns(), "{what}: thread times");
    for k in OpKind::ALL {
        assert_eq!(a.ops(k), b.ops(k), "{what}: {k:?} count");
    }
    assert_eq!(a.coherence().per_thread(), b.coherence().per_thread(), "{what}: counters");
    assert_eq!(a.engine(), b.engine(), "{what}: engine counters");
}

/// Test-and-test-and-set CAS lock around a read-modify-write of `data`.
fn cas_storm(lock: Addr, data: Addr, rounds: u32) -> Body {
    Arc::new(move |ctx: &SimThread| {
        for _ in 0..rounds {
            while ctx.compare_exchange(lock, 0, 1) != 0 {
                ctx.spin_until_eq(lock, 0);
            }
            let v = ctx.load(data);
            ctx.store(data, v + 1);
            ctx.store(lock, 0);
        }
    })
}

/// SHY-CTR's shape: a CAS lock and a monotonic counter on one line, the
/// waiters spinning for the counter to reach the episode's multiple of P.
fn shy_ctr(lock: Addr, count: Addr, episodes: u32) -> Body {
    Arc::new(move |ctx: &SimThread| {
        let p = ctx.nthreads() as u32;
        for _ in 0..episodes {
            while ctx.compare_exchange(lock, 0, 1) != 0 {
                ctx.spin_until_eq(lock, 0);
            }
            let c = ctx.load(count) + 1;
            ctx.store_relaxed(count, c);
            ctx.store(lock, 0);
            ctx.spin_until_ge(count, c.div_ceil(p) * p);
        }
    })
}

/// SENSE's shape (libgomp layout): counter and global sense on one line.
fn sense(counter: Addr, gsense: Addr, episodes: u32) -> Body {
    Arc::new(move |ctx: &SimThread| {
        let p = ctx.nthreads() as u32;
        let mut local = 0;
        for _ in 0..episodes {
            local = 1 - local;
            if ctx.fetch_add(counter, 1) + 1 == p {
                ctx.store(counter, 0);
                ctx.store(gsense, local);
            } else {
                ctx.spin_until_eq(gsense, local);
            }
        }
    })
}

/// Every kind of waiter on one line: `Eq` on word `a`, `Ge` and an opaque
/// predicate on word `b`, an all-≥ wait over `a` and a word on another
/// line, while RMWs on a third word of the line keep it busy.
fn mixed_waiters(a: Addr, b: Addr, d: Addr, other: Addr) -> Body {
    Arc::new(move |ctx: &SimThread| match ctx.tid() {
        0 => {
            for r in 1..=4 {
                ctx.compute_ns(200.0);
                ctx.store(a, r);
                ctx.compute_ns(7.0);
                ctx.store(b, r);
                ctx.store(other, r);
            }
        }
        1 => {
            for r in 1..=4 {
                ctx.spin_until_eq(a, r);
            }
        }
        2 => {
            for r in 1..=4 {
                ctx.spin_until_ge(b, r);
            }
        }
        3 => {
            for r in 1..=4 {
                ctx.spin_until_all_ge(&[a, other], r);
            }
        }
        4 => {
            for r in 1..=4 {
                ctx.spin_until(b, move |v| v >= r);
            }
        }
        5 => {
            ctx.spin_until_ge(a, 4);
        }
        _ => {
            for _ in 0..8 {
                ctx.fetch_add(d, 1);
                ctx.compute_ns(20.0);
            }
        }
    })
}

fn jittery8() -> Arc<Topology> {
    Arc::new(
        TopologyBuilder::new("t8j", 8)
            .epsilon_ns(1.0)
            .layer("near", 10.0, 0.5)
            .layer("far", 40.0, 0.5)
            .hierarchy(&[4])
            .coherence(2.0, 3.0, 0.2)
            .build(),
    )
}

/// The contended inputs the default engine's fast paths (stall cohorts,
/// condition-indexed waiters) must reproduce exactly.
fn contended_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut arena = Arena::new();
    let (counter, flag) = (arena.alloc_padded_u32(64), arena.alloc_padded_u32(64));
    let body = barrier_body(counter, flag, 6);
    cases.push(Case { name: "counter barrier", topo: topo(), p: 6, body: Arc::new(body) });

    let tx2 = Arc::new(Topology::preset(Platform::ThunderX2));
    let mut arena = Arena::new();
    let (lock, data) = (arena.alloc_padded_u32(64), arena.alloc_padded_u32(64));
    cases.push(Case {
        name: "CAS storm P=48 ThunderX2",
        topo: tx2,
        p: 48,
        body: cas_storm(lock, data, 3),
    });

    let phytium = Arc::new(Topology::preset(Platform::Phytium2000Plus));
    let line = phytium.cacheline_bytes();
    let mut arena = Arena::new();
    let base = arena.alloc(line, line);
    cases.push(Case {
        name: "SHY-CTR P=64 Phytium",
        topo: Arc::clone(&phytium),
        p: 64,
        body: shy_ctr(base, base + 4, 3),
    });
    let mut arena = Arena::new();
    let base = arena.alloc(line, line);
    cases.push(Case {
        name: "SENSE P=64 Phytium",
        topo: phytium,
        p: 64,
        body: sense(base, base + 4, 3),
    });

    let mut arena = Arena::new();
    let base = arena.alloc(64, 64);
    let other = arena.alloc_padded_u32(64);
    cases.push(Case {
        name: "mixed waiters on one line",
        topo: jittery8(),
        p: 8,
        body: mixed_waiters(base, base + 4, base + 8, other),
    });
    cases
}

#[test]
fn policy_mode_matches_default_with_min_time_policy() {
    // Policy mode re-posts every busy-line stall through the ready list
    // and shares nothing with the stall cohorts, so it is an independent
    // reference for the default engine's contended-line fast path.
    for case in contended_cases() {
        let default = case.run(false);
        let policied = case.run(true);
        assert_same_run(&default, &policied, case.name);
    }
}

#[test]
fn engine_counters_match_across_transports() {
    // `SimBuilder::run` takes the default transport (fibers unless
    // ARMBAR_SIM_FIBERS=0); an explicit `SimTeam` always runs OS threads.
    for case in contended_cases() {
        let ambient = case.run(false);
        let body = Arc::clone(&case.body);
        let os = crate::team::SimTeam::new(case.p)
            .run(case.builder(), move |ctx| body(ctx))
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_same_run(&ambient, &os, case.name);
        // Every stall re-stamps once and every woken spinner is a wake.
        let (e, total) = (ambient.engine(), ambient.coherence().total());
        assert_eq!(e.restamps, total.write_stalls + total.read_stalls, "{}", case.name);
        assert_eq!(e.wakes, ambient.ops(OpKind::SpinWakeup), "{}", case.name);
    }
}

#[test]
fn wakes_follow_registration_order_across_condition_kinds() {
    // One write satisfies an opaque predicate, a `Ge` and an `Eq` waiter,
    // registered in that order. The reader-contention stagger (3 ns per
    // earlier wake) must follow registration order, as the flat waiter
    // scan did — not the index's grouping.
    let mut arena = Arena::new();
    let b = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 5)
        .run(move |ctx| match ctx.tid() {
            0 => {
                ctx.compute_ns(100.0);
                ctx.store(b, 1);
            }
            1 => {
                ctx.spin_until(b, |v| v >= 1);
            }
            4 => {
                ctx.compute_ns(5.0);
                ctx.spin_until_ge(b, 1);
            }
            2 => {
                ctx.compute_ns(10.0);
                ctx.spin_until_eq(b, 1);
            }
            _ => {}
        })
        .unwrap();
    let t = stats.per_thread_time_ns();
    // Near waiters pay L0 = 10, the far one L1 = 40, plus 3 ns per wake
    // ahead of them.
    assert_eq!(t[1] - t[0], 10.0);
    assert_eq!(t[4] - t[0], 40.0 + 3.0);
    assert_eq!(t[2] - t[0], 10.0 + 6.0);
    assert_eq!(stats.engine().wakes, 3);
}

#[test]
fn run_releases_the_body_and_engine_state() {
    // The body (and everything it captures) must be dropped by the time
    // `run` returns, on success and on failure alike — a transport that
    // keeps it alive leaks the episode's engine state with it.
    let sentinel = Arc::new(());
    let mut arena = Arena::new();
    let flag = arena.alloc_padded_u32(64);
    let keep = Arc::clone(&sentinel);
    SimBuilder::new(topo(), 4)
        .run(move |ctx| {
            let _held = &keep;
            if ctx.tid() == 0 {
                ctx.store(flag, 1);
            } else {
                ctx.spin_until_eq(flag, 1);
            }
        })
        .unwrap();
    assert_eq!(Arc::strong_count(&sentinel), 1, "a completed run kept its body alive");
    let keep = Arc::clone(&sentinel);
    let err = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            let _held = &keep;
            ctx.spin_until_eq(flag, 1); // nobody writes: deadlock
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    assert_eq!(Arc::strong_count(&sentinel), 1, "a failed run kept its body alive");
}

/// Always runs the highest-index ready op: a maximally unfair order that
/// ignores virtual time entirely.
struct ReversePolicy;

impl SchedulePolicy for ReversePolicy {
    fn pick(&mut self, ready: &[ReadyOp], _min: Option<(f64, usize)>) -> ScheduleDecision {
        ScheduleDecision::Run(ready.len() - 1)
    }
}

#[test]
fn adversarial_order_still_completes_the_barrier() {
    let mut arena = Arena::new();
    let counter = arena.alloc_padded_u32(64);
    let flag = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 8)
        .schedule_policy(ReversePolicy)
        .run(barrier_body(counter, flag, 8))
        .unwrap();
    // 3 rounds × 7 spinners woke (the releaser never spins).
    assert_eq!(stats.ops(OpKind::SpinWakeup), 21);
}

/// Delays every flag-site write once by a fixed amount, then behaves
/// normally.
struct DelayOncePolicy {
    delays_left: u32,
}

impl SchedulePolicy for DelayOncePolicy {
    fn pick(&mut self, ready: &[ReadyOp], min: Option<(f64, usize)>) -> ScheduleDecision {
        if self.delays_left > 0 {
            if let Some(i) =
                ready.iter().position(|r| matches!(r.kind, crate::schedule::ReadyOpKind::Write))
            {
                self.delays_left -= 1;
                return ScheduleDecision::Delay { index: i, ns: 250.0 };
            }
        }
        MinTimePolicy.pick(ready, min)
    }
}

#[test]
fn injected_delays_change_the_schedule_but_not_the_outcome() {
    let run = |delays: u32| {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 4)
            .schedule_policy(DelayOncePolicy { delays_left: delays })
            .run(barrier_body(counter, flag, 4))
            .unwrap()
    };
    let plain = run(0);
    let delayed = run(3);
    assert_eq!(plain.ops(OpKind::SpinWakeup), delayed.ops(OpKind::SpinWakeup));
    assert_ne!(
        plain.schedule_hash(),
        delayed.schedule_hash(),
        "delay injection must register as a distinct schedule"
    );
}

/// Returns garbage decisions; the engine must fall back instead of wedging.
struct MisbehavingPolicy;

impl SchedulePolicy for MisbehavingPolicy {
    fn pick(&mut self, ready: &[ReadyOp], _min: Option<(f64, usize)>) -> ScheduleDecision {
        // Out-of-range index and, via Wait-with-nobody-running at episode
        // start, an unservable stall request.
        if ready.len().is_multiple_of(2) {
            ScheduleDecision::Run(usize::MAX)
        } else {
            ScheduleDecision::Delay { index: 0, ns: f64::NAN }
        }
    }
}

#[test]
fn misbehaving_policy_falls_back_to_oldest() {
    let mut arena = Arena::new();
    let counter = arena.alloc_padded_u32(64);
    let flag = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 4)
        .schedule_policy(MisbehavingPolicy)
        .run(barrier_body(counter, flag, 4))
        .unwrap();
    assert_eq!(stats.ops(OpKind::SpinWakeup), 9);
}

#[test]
fn policy_runs_are_deterministic() {
    let run = || {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        let s = SimBuilder::new(topo(), 8)
            .schedule_policy(ReversePolicy)
            .run(barrier_body(counter, flag, 8))
            .unwrap();
        (s.schedule_hash(), s.total_mem_ops())
    };
    assert_eq!(run(), run());
}

#[test]
fn policy_mode_detects_deadlock() {
    let mut arena = Arena::new();
    let a = arena.alloc_u32();
    let err = SimBuilder::new(topo(), 2)
        .schedule_policy(ReversePolicy)
        .run(move |ctx| {
            ctx.spin_until_ge(a, 1); // nobody ever writes
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn policy_mode_respects_op_budget() {
    let mut arena = Arena::new();
    let a = arena.alloc_u32();
    let err = SimBuilder::new(topo(), 1)
        .schedule_policy(ReversePolicy)
        .op_budget(500)
        .run(move |ctx| loop {
            ctx.store(a, 1);
        })
        .unwrap_err();
    assert!(matches!(err, SimError::OpBudgetExhausted { .. }), "{err}");
}

#[test]
fn default_schedule_hash_is_stable_and_seed_independent_ops() {
    // Zero-jitter topology: different seeds draw identical jitter factors,
    // so the processing order — and hence the hash — must match.
    let run = |seed: u64| {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 4).seed(seed).run(barrier_body(counter, flag, 4)).unwrap()
    };
    assert_eq!(run(1).schedule_hash(), run(2).schedule_hash());
    assert_ne!(run(1).schedule_hash(), 0, "hash must record the processed ops");
}

/// Takes the first weak decision on offer, then settles: oldest-first
/// picks and strong decisions from then on. Counts the picks it is asked
/// for after settling.
struct WeakOncePolicy {
    spent: bool,
    picks_after: Arc<std::sync::atomic::AtomicU32>,
}

impl SchedulePolicy for WeakOncePolicy {
    fn pick(&mut self, ready: &[ReadyOp], _min: Option<(f64, usize)>) -> ScheduleDecision {
        if self.spent {
            self.picks_after.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        ScheduleDecision::Run(crate::schedule::oldest_index(ready))
    }

    fn weak(&mut self, _op: &crate::schedule::WeakOp) -> crate::schedule::WeakDecision {
        if self.spent {
            crate::schedule::WeakDecision::Strong
        } else {
            self.spent = true;
            crate::schedule::WeakDecision::Weak
        }
    }

    fn settled(&self) -> bool {
        self.spent
    }
}

#[test]
fn settled_policy_stays_in_charge_until_store_buffers_drain() {
    let mut arena = Arena::new();
    let a = arena.alloc_padded_u32(64);
    let b = arena.alloc_padded_u32(64);
    let picks_after = Arc::new(std::sync::atomic::AtomicU32::new(0));
    SimBuilder::new(topo(), 1)
        .schedule_policy(WeakOncePolicy { spent: false, picks_after: Arc::clone(&picks_after) })
        .run(move |ctx| {
            ctx.store_relaxed(a, 1); // the one weak decision: buffered
            for _ in 0..3 {
                ctx.load(b); // settled, but the buffer holds a store
            }
            ctx.fence(); // drains the buffer
            for _ in 0..3 {
                ctx.load(b); // settled and drained: heap scheduler
            }
            assert_eq!(ctx.load(a), 1);
        })
        .unwrap();
    // Three loads and the fence are picked while the store is buffered.
    assert_eq!(picks_after.load(std::sync::atomic::Ordering::Relaxed), 4);
}

#[test]
fn engine_poll_matches_a_load_loop() {
    // Two pollers: one satisfied in the middle of its poll, one that runs
    // out of loads and gets the last value back.
    let body = |engine: bool| {
        move |ctx: &SimThread, flag: Addr| -> u32 {
            let poll = |value: u32, ge: bool, loads: u32| {
                if engine {
                    if ge {
                        ctx.poll_until_ge(flag, value, loads)
                    } else {
                        ctx.poll_until_eq(flag, value, loads)
                    }
                } else {
                    let mut v = ctx.load(flag);
                    for _ in 1..loads {
                        if (ge && v >= value) || (!ge && v == value) {
                            break;
                        }
                        v = ctx.load(flag);
                    }
                    v
                }
            };
            match ctx.tid() {
                0 => {
                    ctx.compute_ns(300.0);
                    ctx.store(flag, 1);
                    0
                }
                1 => poll(1, false, 1_000),
                _ => poll(5, true, 1_000),
            }
        }
    };
    let run = |engine: bool, policy: bool| {
        let mut arena = Arena::new();
        let flag = arena.alloc_padded_u32(64);
        let seen = Arc::new(std::sync::Mutex::new(vec![0; 3]));
        let b = SimBuilder::new(jittery8(), 3).seed(9);
        let b = if policy { b.schedule_policy(MinTimePolicy) } else { b };
        let out = Arc::clone(&seen);
        let stats = b
            .run(move |ctx| {
                let v = body(engine)(ctx, flag);
                out.lock().unwrap()[ctx.tid()] = v;
            })
            .unwrap();
        let seen = seen.lock().unwrap().clone();
        (stats, seen)
    };
    for policy in [false, true] {
        let (engine, seen) = run(true, policy);
        let (looped, seen_looped) = run(false, policy);
        assert_same_run(&engine, &looped, if policy { "policy" } else { "heap" });
        assert_eq!(seen, seen_looped);
        assert_eq!(seen[1..], [1, 1], "satisfied mid-poll, then out of loads on the last value");
        assert_eq!(engine.ops(OpKind::SpinWakeup), 0, "polls never register as waiters");
    }
}
