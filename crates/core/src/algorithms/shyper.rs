//! SHY-CTR / SHY-PROXY — the spinlock-guarded counter barriers the
//! rust_shyper / rtshyper hypervisors actually ship (SNIPPETS.md).
//!
//! The hypervisor's `CpuSyncToken` packs a spinlock and a *monotonic*
//! arrival counter into one struct. An arriving core takes the lock,
//! increments the counter, computes `next_count = round_up(count, n)` —
//! the end of the episode its own arrival belongs to — releases the lock,
//! and spins until the counter reaches `next_count`. Because the counter
//! never resets, a late waiter that only starts spinning after faster
//! cores have raced into the *next* episode still observes
//! `count ≥ next_count` and falls through: the `round_up` exit is what
//! makes the naive counter barrier reuse-safe (the classic counter-barrier
//! bug is resetting the count and stranding the straggler).
//!
//! Two variants:
//!
//! * [`ShyCtrBarrier`] (`SHY-CTR`) — the `barrier()` path verbatim: a
//!   CAS spinlock around the increment. Its arrival cost is dominated by
//!   the platform's CAS pricing (one successful CAS per arrival plus a
//!   failed CAS per contender that loses the grab), which is exactly the
//!   per-op-kind cost split the crossover experiment measures.
//! * [`ShyProxyBarrier`] (`SHY-PROXY`) — adds the hypervisor's
//!   `add_barrier_count()` entry point as [`ShyProxyBarrier::proxy_arrive`]:
//!   a locked increment *without* waiting, used to arrive on behalf of an
//!   offline core (shyper calls it when a secondary core is parked). The
//!   lock here is a SWP test-and-set — the other LSE primitive — and each
//!   thread tracks its episode in a padded per-thread slot so `wait` knows
//!   which multiple of `p` to spin for.
//!
//! Both are *contenders*, not paper algorithms: they exist to give the
//! atomics-aware cost model something to predict against SENSE/STOUR
//! (DESIGN.md §17), and they lose at scale for the same reason SENSE does
//! — a single hot line — plus the lock's serialization on top.

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};

/// Spinlock-guarded counter barrier with the `round_up` reuse-safe exit
/// (rust_shyper `barrier()`).
#[derive(Debug)]
pub struct ShyCtrBarrier {
    /// Test-and-set word; shares a cache line with `count`, like the
    /// hypervisor's `CpuSyncToken { lock, n, count, .. }`.
    lock: Addr,
    /// Monotonic arrival counter (never reset).
    count: Addr,
}

impl ShyCtrBarrier {
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        // One line holding [lock, count, ...padding].
        let base = arena.alloc(line, line);
        Self { lock: base, count: base + 4 }
    }

    /// Takes the CAS spinlock: one successful CAS per acquisition, one
    /// *failed* CAS per lost race (then a read-only spin until the lock
    /// looks free — test-and-test-and-set, so losers don't hammer
    /// exclusive grabs).
    fn lock(&self, ctx: &dyn MemCtx) {
        loop {
            if ctx.compare_exchange(self.lock, 0, 1) == 0 {
                return;
            }
            ctx.spin_until_eq(self.lock, 0);
        }
    }
}

impl Barrier for ShyCtrBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads() as u32;
        if p == 1 {
            return;
        }
        self.lock(ctx);
        // We hold the lock: plain read-increment-write (shyper's Volatile
        // update). The relaxed store is ordered before the lock release
        // below, so the next holder reads the fresh count.
        let c = ctx.load(self.count).wrapping_add(1);
        ctx.store_relaxed(self.count, c);
        // round_up(count, p): the counter value that ends this episode.
        let target = c.div_ceil(p) * p;
        ctx.store(self.lock, 0);
        if c == target {
            ctx.mark(crate::env::MARK_ARRIVED);
        }
        // Monotonic exit: `≥`, never `==` — a late waiter entering after
        // faster threads started the next episode still passes.
        ctx.spin_until_ge(self.count, target);
    }

    fn name(&self) -> &str {
        "SHY-CTR"
    }
}

/// Counter barrier with a proxy-arrival path (rust_shyper
/// `add_barrier_count()`), SWP test-and-set lock.
#[derive(Debug)]
pub struct ShyProxyBarrier {
    lock: Addr,
    count: Addr,
    /// Padded per-thread episode counters (purely local).
    episodes: Addr,
    stride: usize,
}

impl ShyProxyBarrier {
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        let base = arena.alloc(line, line);
        Self {
            lock: base,
            count: base + 4,
            episodes: arena.alloc_padded_u32_array(p, line),
            stride: line,
        }
    }

    /// The locked increment shared by `wait` and `proxy_arrive`; returns
    /// the post-increment count. The lock is a SWP test-and-test-and-set:
    /// `swap(lock, 1)` returning 0 means we took it.
    fn arrive(&self, ctx: &dyn MemCtx) -> u32 {
        loop {
            if ctx.swap(self.lock, 1) == 0 {
                break;
            }
            ctx.spin_until_eq(self.lock, 0);
        }
        let c = ctx.load(self.count).wrapping_add(1);
        ctx.store_relaxed(self.count, c);
        ctx.store(self.lock, 0);
        c
    }

    /// Arrives on behalf of an offline core without waiting — shyper's
    /// `add_barrier_count()`. Each episode needs `p` total increments; a
    /// survivor calls this once per offline core per episode (the
    /// hypervisor does it when a parked secondary core cannot reach the
    /// barrier itself).
    pub fn proxy_arrive(&self, ctx: &dyn MemCtx) {
        self.arrive(ctx);
    }
}

impl Barrier for ShyProxyBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads() as u32;
        // Track which episode this thread is in (local padded slot).
        let ep_addr = padded_elem(self.episodes, ctx.tid(), self.stride);
        let ep = ctx.load_relaxed(ep_addr).wrapping_add(1);
        ctx.store_relaxed(ep_addr, ep);
        if p == 1 {
            return;
        }
        let c = self.arrive(ctx);
        let target = ep * p;
        if c == target {
            ctx.mark(crate::env::MARK_ARRIVED);
        }
        // `count` only reaches `ep·p` once every participant of episode
        // `ep` has arrived (in person or by proxy); monotonic, so reuse
        // can never strand a late spinner.
        ctx.spin_until_ge(self.count, target);
    }

    fn name(&self) -> &str {
        "SHY-PROXY"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{check_host, check_sim, HOST_SIZES, SIM_SIZES};
    use armbar_simcoh::SimBuilder;
    use armbar_topology::Platform;
    use std::sync::Arc;

    #[test]
    fn shy_ctr_sim_correct_across_sizes() {
        for &p in &SIM_SIZES {
            check_sim(Platform::ThunderX2, p, 4, |a, p, t| Box::new(ShyCtrBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn shy_ctr_sim_correct_on_llsc_platform() {
        for &p in &SIM_SIZES {
            check_sim(Platform::Phytium2000Plus, p, 4, |a, p, t| {
                Box::new(ShyCtrBarrier::new(a, p, t))
            });
        }
    }

    #[test]
    fn shy_proxy_sim_correct_across_sizes() {
        for &p in &SIM_SIZES {
            check_sim(Platform::Kunpeng920, p, 4, |a, p, t| {
                Box::new(ShyProxyBarrier::new(a, p, t))
            });
        }
    }

    #[test]
    fn shy_ctr_host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(ShyCtrBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn shy_proxy_host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(ShyProxyBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn lock_and_count_share_a_line() {
        let topo = Topology::preset(Platform::Phytium2000Plus);
        let mut arena = Arena::new();
        let b = ShyCtrBarrier::new(&mut arena, 8, &topo);
        let line = topo.cacheline_bytes() as u32;
        assert_eq!(b.lock / line, b.count / line, "CpuSyncToken packs lock and count");
    }

    /// SHY-CTR spins only with `spin_until_eq`/`spin_until_ge`, which the
    /// simulator indexes by target: every waiter a write examines is one it
    /// wakes, however many spinners crowd the lock-and-count line.
    #[test]
    fn shy_ctr_writes_visit_only_the_waiters_they_wake() {
        let topo = Arc::new(Topology::preset(Platform::Phytium2000Plus));
        let mut arena = Arena::new();
        let barrier = Arc::new(ShyCtrBarrier::new(&mut arena, 64, &topo));
        let stats = SimBuilder::new(topo, 64)
            .reserve_for(&arena)
            .run(move |ctx| {
                for _ in 0..4 {
                    barrier.wait(ctx);
                }
            })
            .unwrap();
        let e = stats.engine();
        assert!(e.wakes > 0 && e.restamps > 0, "{e:?}");
        assert_eq!(e.waiter_visits, e.wakes, "{e:?}");
    }

    /// Litmus: the classic counter-barrier reuse bug. A straggler that
    /// begins spinning only after the other threads have raced through
    /// the barrier and *re-entered* for the next episode must still exit.
    /// With a reset-based exit it would hang forever (the count it waits
    /// for has been wiped); the `round_up` exit over a monotonic counter
    /// must pass. Five episodes, one thread heavily delayed each time.
    #[test]
    fn round_up_exit_does_not_strand_late_waiter() {
        for make in [
            |a: &mut Arena, p: usize, t: &Topology| {
                Box::new(ShyCtrBarrier::new(a, p, t)) as Box<dyn Barrier>
            },
            |a: &mut Arena, p: usize, t: &Topology| {
                Box::new(ShyProxyBarrier::new(a, p, t)) as Box<dyn Barrier>
            },
        ] {
            let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
            let mut arena = Arena::new();
            let barrier: Arc<Box<dyn Barrier>> = Arc::new(make(&mut arena, 4, &topo));
            let done = arena.alloc_padded_u32_array(4, topo.cacheline_bytes());
            let stride = topo.cacheline_bytes();
            SimBuilder::new(topo, 4)
                .run({
                    let barrier = Arc::clone(&barrier);
                    move |ctx| {
                        for ep in 0..5u32 {
                            if ctx.tid() == 3 {
                                // Enter long after the others have left the
                                // episode (and begun the next one).
                                ctx.compute_ns(50_000.0);
                            }
                            barrier.wait(ctx);
                            ctx.store(padded_elem(done, ctx.tid(), stride), ep + 1);
                        }
                    }
                })
                .expect("a stranded waiter would deadlock here");
        }
    }

    /// The proxy path: a 4-thread team where core 3 is offline and never
    /// reaches the barrier; core 0 arrives on its behalf each episode via
    /// `add_barrier_count`-style [`ShyProxyBarrier::proxy_arrive`].
    #[test]
    fn proxy_arrival_substitutes_for_offline_core() {
        let topo = Arc::new(Topology::preset(Platform::ThunderX2));
        let mut arena = Arena::new();
        let barrier = Arc::new(ShyProxyBarrier::new(&mut arena, 4, &topo));
        let stats = SimBuilder::new(topo, 4)
            .run({
                let barrier = Arc::clone(&barrier);
                move |ctx| {
                    if ctx.tid() == 3 {
                        return; // offline: parked before the first episode
                    }
                    for _ in 0..3 {
                        if ctx.tid() == 0 {
                            barrier.proxy_arrive(ctx);
                        }
                        barrier.wait(ctx);
                    }
                }
            })
            .expect("survivors must pass with the proxy arrivals");
        assert!(stats.max_time_ns() > 0.0);
    }

    #[test]
    fn names_are_stable() {
        let topo = Topology::preset(Platform::ThunderX2);
        let mut arena = Arena::new();
        assert_eq!(ShyCtrBarrier::new(&mut arena, 2, &topo).name(), "SHY-CTR");
        assert_eq!(ShyProxyBarrier::new(&mut arena, 2, &topo).name(), "SHY-PROXY");
    }
}
