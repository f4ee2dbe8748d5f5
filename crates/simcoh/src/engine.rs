//! The discrete-event engine: deterministic execution of real thread bodies
//! with per-operation coherence costing.
//!
//! Simulated threads are stackful fibers multiplexed on the calling thread
//! (the default; see the `fiber` module) or OS threads (the fallback
//! transport, and what explicit [`SimTeam`](crate::team::SimTeam) runs
//! use). Either way each [`SimThread`] operation is a rendezvous with the
//! engine, which processes operations in virtual-time order (ties broken
//! by thread id). Host scheduling therefore cannot influence results: a
//! run is a pure function of `(topology, seed, program)` — identical bytes
//! under both transports.
//!
//! ## One scheduler heap
//!
//! Posted operations wait in one ready heap and threads executing user code
//! sit in one running set, both keyed by `(virtual time, tid)`. A pass
//! processes the minimal ready key iff it is ≤ every running key; see
//! `DESIGN.md` §13.
//!
//! ## Cooperative scheduling
//!
//! There is no dedicated scheduler thread. The engine state lives inside one
//! mutex, and whichever worker posts an operation runs the engine *inline*
//! under that lock until no further operation is processable. The scheduling
//! rule exploits a lookahead invariant: a thread that is executing user code
//! ("running") will post its next operation at exactly its current
//! engine-known virtual time, so the operation at the head of the ready
//! queue can be processed as soon as its `(time, tid)` key is smaller than
//! every running thread's key — *without* waiting for global settlement.
//! The processing order is provably identical to a lock-step "wait for all,
//! pick the minimum" scheduler, but a serial phase (one thread strictly
//! ahead of the rest) executes with zero context switches: the worker posts,
//! services its own operation, and continues.
//!
//! Replies travel through per-thread lock-free cells (a sequence counter
//! plus a slot); a blocked simulated thread resumes via a ~100 ns fiber
//! switch on the fiber transport or `thread::unpark` on the OS transport —
//! receipt never touches the lock, and pending wakeups are deferred until
//! the engine lock is released so a woken worker never piles onto a held
//! mutex. State
//! tables are dense `Vec`s indexed by arena-derived word/line slots rather
//! than hash maps — see `DESIGN.md` §11 for the performance numbers.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use armbar_topology::{RmwOp, Topology};

use crate::arena::{Addr, Arena};
use crate::error::{DeadlockWaiter, SimError, WaitKind};
use crate::line::{CoreSet, Line};
use crate::rng::SplitMix64;
use crate::schedule::{
    LoadOrder, ReadyOp, ReadyOpKind, ScheduleDecision, SchedulePolicy, StoreOrder, WeakDecision,
    WeakOp, WeakOpKind,
};
use crate::stats::{CoherenceCounters, Mark, OpKind, RunStats};

/// Typed panic payload used to tear down worker threads when the simulation
/// aborts (deadlock, budget exhaustion). Recognized and swallowed by the
/// worker wrapper; never reported as a user panic.
pub(crate) struct AbortSignal;

/// Saturation point of the per-extra-sharer invalidation charge. Real
/// interconnects multicast invalidations; the serialization at the network
/// controller grows with the crowd only up to a point. Without this cap a
/// centralized barrier would cost Θ(P²·inv_ns), whereas measurements (the
/// paper's Figures 5–6) show near-linear growth from 32 to 64 threads.
const INV_FANOUT_CAP: usize = 16;

/// Deferred-compute accumulator cap: after this many lazily-buffered
/// `compute_ns` calls the thread posts a heartbeat op, so a compute-only
/// infinite loop still trips the operation budget instead of hanging.
const DEFERRED_COMPUTE_FLUSH: u64 = 1024;

type Pred = Box<dyn Fn(u32) -> bool + Send>;

/// What a blocked spinner waits for. `Eq` and `Ge` waiters are indexed by
/// watched word and target, so a write visits only the waiters it
/// satisfies; `Pred` and `AllGe` are opaque to the index and are
/// re-evaluated on every write to a line they watch.
enum WaitCond {
    /// The word equals the value (`spin_until_eq`).
    Eq(u32),
    /// The word is ≥ the value (`spin_until_ge`).
    Ge(u32),
    /// An opaque `spin_until` predicate on the word.
    Pred(Pred),
    /// Every listed word is ≥ the epoch (batched, MLP-overlapped).
    AllGe(Vec<Addr>, u32),
}

impl WaitCond {
    /// The condition as deadlock diagnostics report it.
    fn kind(&self) -> WaitKind {
        match self {
            WaitCond::Eq(v) => WaitKind::Eq(*v),
            WaitCond::Ge(v) => WaitKind::Ge(*v),
            WaitCond::Pred(_) => WaitKind::Pred,
            WaitCond::AllGe(_, e) => WaitKind::AllGe(*e),
        }
    }

    /// Whether the condition holds, given the word values.
    fn holds(&self, values: &[u32], addr: Addr) -> bool {
        match self {
            WaitCond::AllGe(addrs, e) => addrs.iter().all(|&a| read_word(values, a) >= *e),
            _ => self.accepts(read_word(values, addr)),
        }
    }

    /// Whether a single-word condition accepts the value `v`.
    fn accepts(&self, v: u32) -> bool {
        match self {
            WaitCond::Eq(t) => v == *t,
            WaitCond::Ge(t) => v >= *t,
            WaitCond::Pred(p) => p(v),
            WaitCond::AllGe(..) => unreachable!("all-≥ waits watch several words"),
        }
    }
}

/// The word at `addr` in the dense value table; unbacked words read 0.
#[inline]
fn read_word(values: &[u32], addr: Addr) -> u32 {
    values.get((addr >> 2) as usize).copied().unwrap_or(0)
}

enum OpReq {
    Load(Addr, LoadOrder),
    Store(Addr, u32, StoreOrder),
    FetchAdd(Addr, u32),
    /// Compare-exchange `(addr, current, new)`: stores `new` iff the word
    /// equals `current`; replies with the previous value either way.
    CmpXchg(Addr, u32, u32),
    /// Single-word spin (`WaitCond::{Eq, Ge, Pred}`).
    SpinUntil(Addr, WaitCond),
    /// Wait until every listed word is ≥ the epoch. The fetches of the
    /// involved lines overlap (memory-level parallelism), unlike a chain of
    /// `SpinUntil`s.
    SpinUntilAllGe(Vec<Addr>, u32),
    Mark(u32),
    Now,
    /// Zero-cost snapshot of the machine-wide coherence counters.
    Counters,
    /// Full barrier (`dmb ish`): drains the thread's store buffer and
    /// discards its stale-value cache. A no-op outside weak mode.
    Fence,
    /// Atomic exchange `(addr, new)`: stores `new` unconditionally and
    /// replies with the previous value (ARMv8.1 `SWP`).
    Swap(Addr, u32),
    /// Bounded poll `(addr, cond, loads)`: up to `loads` acquire loads of
    /// `addr` (`cond` is `Eq` or `Ge`), each its own scheduling event
    /// exactly like a posted [`OpReq::Load`]. After a load that fails
    /// `cond` with loads left, the engine posts the rest of the poll at the
    /// thread's clock instead of replying; the reply carries the first
    /// accepted value or the last value loaded.
    Poll(Addr, WaitCond, u32),
}

enum Reply {
    Value(u32),
    TimeNs(f64),
    Counters(Box<CoherenceCounters>),
    Abort,
}

/// Classifies a pending op for a [`SchedulePolicy`] (kind + target address;
/// no values or predicates leak to the policy).
fn describe_op(op: &OpReq) -> (ReadyOpKind, Option<Addr>) {
    match op {
        OpReq::Load(a, _) | OpReq::Poll(a, ..) => (ReadyOpKind::Read, Some(*a)),
        OpReq::Store(a, _, _) => (ReadyOpKind::Write, Some(*a)),
        OpReq::FetchAdd(a, _) => (ReadyOpKind::Rmw, Some(*a)),
        OpReq::CmpXchg(a, _, _) => (ReadyOpKind::Rmw, Some(*a)),
        OpReq::Swap(a, _) => (ReadyOpKind::Rmw, Some(*a)),
        OpReq::SpinUntil(a, _) => (ReadyOpKind::Spin, Some(*a)),
        OpReq::SpinUntilAllGe(addrs, _) => (ReadyOpKind::Spin, addrs.first().copied()),
        OpReq::Mark(_) | OpReq::Now | OpReq::Counters | OpReq::Fence => (ReadyOpKind::Free, None),
    }
}

/// Small distinct tag per op class for the schedule fingerprint.
fn op_tag(op: &OpReq) -> u64 {
    match op {
        // Each load of a poll fingerprints as the plain load it replaces.
        OpReq::Load(..) | OpReq::Poll(..) => 1,
        OpReq::Store(..) => 2,
        OpReq::FetchAdd(..) => 3,
        OpReq::SpinUntil(..) => 4,
        OpReq::SpinUntilAllGe(..) => 5,
        OpReq::Mark(_) => 6,
        OpReq::Now => 7,
        OpReq::Counters => 8,
        OpReq::CmpXchg(..) => 9,
        // Appended (never reordered) so pre-weak schedule fingerprints are
        // unchanged for programs that issue no fences.
        OpReq::Fence => 10,
        // Appended in PR 10: fingerprints of swap-free programs are
        // unchanged.
        OpReq::Swap(..) => 11,
    }
}

/// Total order on virtual times for the scheduler's ready/running keys.
/// `total_cmp` matches the tie-breaking of the original `min_by` scan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Scheduler key: `(virtual time, tid)`. Unique per thread (a thread is in
/// exactly one of the ready queue or the running set), so comparisons are
/// never ambiguous.
type SchedKey = (TimeKey, usize);

/// The ready/running scheduler: one ready heap of posted-but-unprocessed
/// operations and one running set of threads executing user code.
/// `pop_next` implements the rule "process the minimal ready key iff it is
/// ≤ every running key".
struct Sched {
    /// Posted-but-unprocessed operations (heap mode).
    ready: BinaryHeap<Reverse<SchedKey>>,
    /// Threads executing user code.
    running: BTreeSet<SchedKey>,
    /// tid → key of the thread's heap entry, if it has one. A thread has at
    /// most one, consumed by its pop; a stall-cohort member has one iff it
    /// was its cohort's lowest tid at some point (`drain_cohort` then finds
    /// it gated by its own entry and leaves it to `pop_next`).
    queued: Vec<Option<SchedKey>>,
}

impl Sched {
    fn new(nthreads: usize) -> Self {
        Self {
            ready: BinaryHeap::new(),
            running: (0..nthreads).map(|t| (TimeKey(0.0), t)).collect(),
            queued: vec![None; nthreads],
        }
    }

    fn push_ready(&mut self, key: SchedKey) {
        debug_assert!(self.queued[key.1].is_none(), "thread queued twice");
        self.queued[key.1] = Some(key);
        self.ready.push(Reverse(key));
    }

    /// Whether `key` is the heap entry of its thread.
    fn is_queued(&self, key: SchedKey) -> bool {
        self.queued[key.1] == Some(key)
    }

    /// The smallest ready head and running key: an op that sits in no heap
    /// is what `pop_next` would process now iff its key is below this bound.
    fn bound(&self) -> Option<SchedKey> {
        let r = self.ready.peek().map(|&Reverse(k)| k);
        r.into_iter().chain(self.running.first().copied()).min()
    }

    /// Pops the next processable operation: the minimal ready key, iff it is
    /// ≤ every running key. Returns `None` when the pass must end (no ready
    /// op, or the head is gated by a running thread that will post an
    /// earlier key).
    fn pop_next(&mut self) -> Option<SchedKey> {
        let &Reverse(head) = self.ready.peek()?;
        if self.running.first().is_some_and(|&r| r < head) {
            return None;
        }
        self.ready.pop();
        debug_assert!(self.is_queued(head), "heap entry without a queued thread");
        self.queued[head.1] = None;
        Some(head)
    }

    fn clear(&mut self) {
        self.ready.clear();
        self.running.clear();
        self.queued.fill(None);
    }
}

/// Blocked spin-waiters, indexed by watched line and condition.
///
/// Every registration gets a sequence number: the global wake order (the
/// registration order of the flat list this table replaced), and the guard
/// against slot reuse — an index entry `(seq, slot)` whose slot was
/// recycled no longer matches.
struct WaiterTable {
    line_shift: u32,
    slots: Vec<Option<(u64, Waiter)>>,
    free: Vec<u32>,
    /// line key → the waiters registered on it. Dense, parallel to the line
    /// directory, grown on demand.
    by_line: Vec<LineWaiters>,
    next_seq: u64,
    /// Reused buffers: the satisfied entries of the current wake sweep, and
    /// member lists of emptied `Eq`/`Ge` groups.
    satisfied: Vec<(u64, u32)>,
    spare: Vec<Vec<(u64, u32)>>,
}

/// The live waiters of one line.
#[derive(Default)]
struct LineWaiters {
    /// Threads of every live waiter watching this line, and how many there
    /// are. A write makes all of them re-fetch the line, satisfied or not:
    /// one OR into the sharer set and one add to the reader count.
    live: CoreSet,
    count: u32,
    /// `Eq`/`Ge` waiters grouped by `(word, condition, target)`.
    groups: Vec<WaitGroup>,
    /// `Pred` and `AllGe` waiters in seq order; may hold stale entries of
    /// all-≥ waiters already woken through another line.
    opaque: Vec<(u64, u32)>,
}

/// `Eq`/`Ge` waiters on one word with one target, in seq order. A write of
/// `v` to the word satisfies either every member or none.
struct WaitGroup {
    addr: Addr,
    ge: bool,
    target: u32,
    members: Vec<(u64, u32)>,
}

impl WaitGroup {
    fn holds(&self, v: u32) -> bool {
        if self.ge {
            v >= self.target
        } else {
            v == self.target
        }
    }
}

impl WaiterTable {
    fn new(line_shift: u32) -> Self {
        Self {
            line_shift,
            slots: Vec::new(),
            free: Vec::new(),
            by_line: Vec::new(),
            next_seq: 0,
            satisfied: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The live waiter set of a line, if any waiter watches it.
    fn live_on(&self, line_key: u32) -> Option<(CoreSet, u32)> {
        self.by_line.get(line_key as usize).filter(|lw| lw.count > 0).map(|lw| (lw.live, lw.count))
    }

    /// Registers a waiter under every line it watches.
    fn register(&mut self, w: Waiter) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tid = w.tid;
        let group = match w.cond {
            WaitCond::Eq(t) => Some((w.addr, false, t)),
            WaitCond::Ge(t) => Some((w.addr, true, t)),
            WaitCond::Pred(_) | WaitCond::AllGe(..) => None,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some((seq, w));
                i
            }
            None => {
                self.slots.push(Some((seq, w)));
                (self.slots.len() - 1) as u32
            }
        };
        let Self { line_shift, slots, by_line, spare, .. } = self;
        let (_, w) = slots[slot as usize].as_ref().expect("just stored");
        for k in w.lines(*line_shift) {
            let i = k as usize;
            if i >= by_line.len() {
                by_line.resize_with(i + 1, LineWaiters::default);
            }
            let lw = &mut by_line[i];
            // A repeated line of an all-≥ wait: a thread has at most one
            // live waiter, so it is already registered here.
            if lw.live.contains(tid) {
                continue;
            }
            lw.live.insert(tid);
            lw.count += 1;
            match group {
                Some((addr, ge, target)) => {
                    match lw
                        .groups
                        .iter_mut()
                        .find(|g| g.addr == addr && g.ge == ge && g.target == target)
                    {
                        Some(g) => g.members.push((seq, slot)),
                        None => {
                            let mut members = spare.pop().unwrap_or_default();
                            members.push((seq, slot));
                            lw.groups.push(WaitGroup { addr, ge, target, members });
                        }
                    }
                }
                None => lw.opaque.push((seq, slot)),
            }
        }
    }

    /// Removes from line `line_key`'s index every waiter that a write of
    /// `value` to `addr` satisfies, and returns them in seq order with the
    /// number of live entries examined. The caller wakes them and hands
    /// the buffer back through [`WaiterTable::recycle`].
    fn take_satisfied(
        &mut self,
        line_key: u32,
        addr: Addr,
        value: u32,
        values: &[u32],
    ) -> (Vec<(u64, u32)>, u64) {
        let mut out = std::mem::take(&mut self.satisfied);
        let mut visits = 0u64;
        // Each matched group and the opaque list are seq-ordered runs; the
        // merged list needs a sort only when more than one run contributed.
        let mut runs = 0;
        let Self { slots, by_line, spare, .. } = self;
        let lw = &mut by_line[line_key as usize];
        // Live `Eq`/`Ge` waiters on other words of the line stay
        // unsatisfied: their word did not change, and it did not satisfy
        // them at their last check.
        let mut i = 0;
        while i < lw.groups.len() {
            let g = &lw.groups[i];
            if g.addr == addr && g.holds(value) {
                let mut members = lw.groups.swap_remove(i).members;
                visits += members.len() as u64;
                runs += 1;
                out.extend_from_slice(&members);
                members.clear();
                spare.push(members);
            } else {
                i += 1;
            }
        }
        let from_groups = out.len();
        lw.opaque.retain(|&(seq, slot)| match &slots[slot as usize] {
            Some((s, w)) if *s == seq => {
                visits += 1;
                if w.cond.holds(values, w.addr) {
                    out.push((seq, slot));
                    false
                } else {
                    true
                }
            }
            _ => false, // stale: woken through another of its lines
        });
        if out.len() > from_groups {
            runs += 1;
        }
        if runs > 1 {
            out.sort_unstable_by_key(|&(seq, _)| seq);
        }
        (out, visits)
    }

    /// Returns a sweep buffer from [`WaiterTable::take_satisfied`].
    fn recycle(&mut self, mut buf: Vec<(u64, u32)>) {
        buf.clear();
        self.satisfied = buf;
    }

    /// Takes a satisfied waiter out of the table: frees its slot and drops
    /// it from the live sets of every line it watched.
    fn remove(&mut self, slot: u32) -> Waiter {
        let (_, w) = self.slots[slot as usize].take().expect("satisfied waiter has a live slot");
        self.free.push(slot);
        for k in w.lines(self.line_shift) {
            let lw = &mut self.by_line[k as usize];
            if lw.live.contains(w.tid) {
                lw.live.remove(w.tid);
                lw.count -= 1;
            }
        }
        w
    }

    /// All blocked waiters in registration order (diagnostics snapshots).
    fn in_order(&self) -> Vec<&Waiter> {
        let mut v: Vec<(u64, &Waiter)> =
            self.slots.iter().flatten().map(|(s, w)| (*s, w)).collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v.into_iter().map(|(_, w)| w).collect()
    }

    /// Drains every waiter in registration order (abort tear-down).
    fn drain_in_order(&mut self) -> Vec<Waiter> {
        let mut v: Vec<(u64, Waiter)> = self.slots.drain(..).flatten().collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        self.free.clear();
        self.by_line.clear();
        v.into_iter().map(|(_, w)| w).collect()
    }
}

/// Busy-line stall cohorts (heap mode only; DESIGN.md §11).
///
/// A single-line op that finds its line busy is re-stamped to the line's
/// `available_at` and joins the cohort of ops waiting for that instant.
/// Only the cohort's lowest tid has an entry in the ready heap; the rest run
/// inline after it while each is still the key the scheduler would pick.
/// A line has at most two cohorts: one draining at `A` and one filling at
/// the `A2 > A` the draining one's writes moved the line to. Nothing joins
/// a draining cohort (a joiner's clock is below `A`, and the drain runs at
/// `A`), and no write can move the line past `A2` before every `(A, tid)`
/// key has been processed.
#[derive(Default)]
struct Cohorts {
    by_line: Vec<[Cohort; 2]>,
    /// tid → line whose cohort holds the thread's pending op.
    member_of: Vec<Option<u32>>,
}

/// The ops waiting for one line instant. Empty `members` = free.
#[derive(Default)]
struct Cohort {
    at: f64,
    /// Member tids ascending; `members[..next]` are already dispatched.
    members: Vec<u32>,
    next: usize,
}

impl Cohorts {
    fn new(nthreads: usize) -> Self {
        Self { by_line: Vec::new(), member_of: vec![None; nthreads] }
    }

    /// Adds `tid`'s op to the cohort of `line` at `at`; returns whether it
    /// is the cohort's new lowest tid, which then needs a heap entry.
    fn join(&mut self, line: u32, at: f64, tid: usize) -> bool {
        let i = line as usize;
        if i >= self.by_line.len() {
            self.by_line.resize_with(i + 1, Default::default);
        }
        let pair = &mut self.by_line[i];
        let c = match pair.iter().position(|c| !c.members.is_empty() && c.at == at) {
            Some(j) => &mut pair[j],
            None => {
                let j = pair
                    .iter()
                    .position(|c| c.members.is_empty())
                    .expect("a line has at most two stall cohorts");
                pair[j].at = at;
                pair[j].next = 0;
                &mut pair[j]
            }
        };
        debug_assert_eq!(c.next, 0, "an op joined a draining cohort");
        let pos = c.members.partition_point(|&m| (m as usize) < tid);
        c.members.insert(pos, tid as u32);
        self.member_of[tid] = Some(line);
        pos == 0
    }

    /// The next undispatched member of `line`'s cohort at `at`.
    fn peek_next(&self, line: u32, at: f64) -> Option<usize> {
        self.by_line[line as usize]
            .iter()
            .find(|c| !c.members.is_empty() && c.at == at)
            .map(|c| c.members[c.next] as usize)
    }

    /// Takes `tid` out of its cohort as the op about to be dispatched;
    /// returns the cohort's line, or `None` when `tid` is in no cohort.
    fn leave(&mut self, tid: usize) -> Option<u32> {
        let line = self.member_of[tid].take()?;
        let c = self.by_line[line as usize]
            .iter_mut()
            .find(|c| c.members.get(c.next) == Some(&(tid as u32)))
            .expect("a dispatched cohort member is its cohort's lowest tid");
        c.next += 1;
        if c.next == c.members.len() {
            c.members.clear();
            c.next = 0;
        }
        Some(line)
    }

    fn clear(&mut self) {
        self.by_line.clear();
        self.member_of.fill(None);
    }
}

/// Per-thread lock-free reply mailbox. The engine (always the lock holder)
/// writes the reply and then bumps `seq` with release ordering; the owning
/// worker observes the bump with acquire ordering and takes the reply
/// without touching the lock. Alignment keeps cells on distinct cache lines
/// so spinning workers do not false-share.
#[repr(align(128))]
struct ReplyCell {
    seq: AtomicU32,
    reply: UnsafeCell<Option<Reply>>,
}

// SAFETY: the cell is a single-producer single-consumer mailbox. Only the
// engine (serialized by the state mutex) writes `reply`, and only while the
// owning worker is provably blocked awaiting it; the owner reads only after
// observing the `seq` bump that the write precedes (release/acquire pair).
unsafe impl Sync for ReplyCell {}

impl ReplyCell {
    fn new() -> Self {
        Self { seq: AtomicU32::new(0), reply: UnsafeCell::new(None) }
    }
}

struct Slot {
    pending: Option<OpReq>,
    finished: bool,
}

struct Waiter {
    tid: usize,
    /// The watched word (for `AllGe`, the first listed one).
    addr: Addr,
    cond: WaitCond,
}

impl Waiter {
    /// Keys of the lines the waiter watches (may repeat for `AllGe`).
    fn lines(&self, line_shift: u32) -> impl Iterator<Item = u32> + '_ {
        let addrs = match &self.cond {
            WaitCond::AllGe(addrs, _) => addrs.as_slice(),
            _ => std::slice::from_ref(&self.addr),
        };
        addrs.iter().map(move |&a| a >> line_shift)
    }
}

/// The complete mutable episode state, engine tables included. Everything
/// lives behind one mutex so the worker that holds it can both post its
/// operation and run the engine to quiescence.
struct State {
    slots: Vec<Slot>,
    /// The ready/running scheduler. Used for ready ordering only in
    /// default (heap-order) mode; the running sets are live in both modes.
    sched: Sched,
    /// Posted-but-unprocessed operations in policy mode, unordered — the
    /// installed [`SchedulePolicy`] picks among them.
    ready_list: Vec<SchedKey>,
    /// Per-run schedule policy; `None` = default heap order. Taken out of
    /// the state for the duration of a policy engine pass, and kept but no
    /// longer consulted after the settled handoff, so routing must consult
    /// `policy_mode`, not this option.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// Whether the policy still drives this run: set when it was configured
    /// with one, stable across the take/restore in `run_engine_policy`, and
    /// cleared for good by the settled handoff.
    policy_mode: bool,
    /// Blocked spin-waiters, indexed by watched line and condition.
    waiters: WaiterTable,
    /// Busy-line stall cohorts (heap mode only).
    cohorts: Cohorts,
    time: Vec<f64>,
    /// Dense per-line directory, indexed `addr >> line_shift`.
    lines: Vec<Line>,
    /// Dense word values, indexed `addr >> 2`.
    values: Vec<u32>,
    stats: RunStats,
    rng: SplitMix64,
    ops: u64,
    op_budget: u64,
    /// Machine-wide interconnect serialization point: each remote transfer
    /// occupies the network for `noc_ns`, so all-to-all communication
    /// phases (dissemination) queue here while O(log P)-message tree phases
    /// barely notice.
    noc_available_at: f64,
    /// Threads whose replies were published during the current engine pass.
    /// Their `unpark` is deferred until after the state lock is released, so
    /// a woken worker never immediately blocks on the held mutex (which
    /// would double the context switches per operation).
    wake_list: Vec<usize>,
    finished: usize,
    panics: Vec<(usize, String)>,
    /// Waiter snapshot taken when a body panic tears the run down; attached
    /// to the resulting `ThreadPanic` diagnostic.
    panic_waiters: Vec<DeadlockWaiter>,
    aborted: bool,
    outcome: Option<Result<(), SimError>>,
    /// Bounded ARMv8-style weak-memory state. `Some` only in runs
    /// configured with a policy — the default heap engine never buffers or
    /// stales, so default runs are byte-identical to the pre-weak engine.
    /// With a policy installed but a zero reordering budget every decision
    /// resolves to [`WeakDecision::Strong`] and the buffers stay empty,
    /// reproducing sequentially consistent execution exactly. It outlives
    /// the settled handoff with empty buffers (heap dispatch keeps every
    /// relaxed op strong), still tracking each thread's observed values.
    weak: Option<WeakMem>,
}

/// Per-thread weak-memory machinery (see `DESIGN.md` §15).
struct WeakMem {
    /// FIFO store buffers: relaxed stores a policy chose to defer, not yet
    /// committed to the coherence state. Drained by release stores, RMWs,
    /// fences, spins watching a buffered address, and the quiescence drain.
    buffers: Vec<std::collections::VecDeque<(Addr, u32)>>,
    /// Stale-value caches: the last value each thread observed per address.
    /// A relaxed load may (policy permitting) be satisfied from here,
    /// modeling a read that completes before an invalidation arrives.
    /// Cleared by acquire loads, RMWs, fences, and spin entries.
    last_seen: Vec<std::collections::HashMap<Addr, u32, AddrHash>>,
}

/// Hasher for the stale-value caches, which every load and write of a weak
/// run updates: one multiply per word address instead of SipHash. Nothing
/// iterates the caches, so the hash function cannot reach any result.
type AddrHash = std::hash::BuildHasherDefault<AddrHasher>;

#[derive(Default)]
struct AddrHasher(u64);

impl std::hash::Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8 | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl WeakMem {
    fn new(nthreads: usize) -> Self {
        Self {
            buffers: (0..nthreads).map(|_| std::collections::VecDeque::new()).collect(),
            last_seen: (0..nthreads).map(|_| Default::default()).collect(),
        }
    }

    /// Whether no thread holds a deferred store.
    fn drained(&self) -> bool {
        self.buffers.iter().all(|b| b.is_empty())
    }

    /// Youngest buffered value this thread holds for `addr`, if any —
    /// store-to-load forwarding reads from here unconditionally, keeping
    /// each thread's own program order intact.
    fn forwarded(&self, tid: usize, addr: Addr) -> Option<u32> {
        self.buffers[tid].iter().rev().find(|(a, _)| *a == addr).map(|&(_, v)| v)
    }
}

impl State {
    fn new(
        nthreads: usize,
        seed: u64,
        op_budget: u64,
        reserve_bytes: usize,
        line_shift: u32,
        policy: Option<Box<dyn SchedulePolicy>>,
    ) -> Self {
        let policy_mode = policy.is_some();
        Self {
            slots: (0..nthreads).map(|_| Slot { pending: None, finished: false }).collect(),
            sched: Sched::new(nthreads),
            ready_list: if policy_mode { Vec::with_capacity(nthreads) } else { Vec::new() },
            policy,
            policy_mode,
            waiters: WaiterTable::new(line_shift),
            cohorts: Cohorts::new(nthreads),
            time: vec![0.0; nthreads],
            lines: vec![Line::default(); reserve_bytes.div_ceil(1usize << line_shift)],
            values: vec![0; reserve_bytes.div_ceil(4)],
            stats: RunStats::new(nthreads),
            rng: SplitMix64::new(seed),
            ops: 0,
            op_budget,
            noc_available_at: 0.0,
            wake_list: Vec::with_capacity(nthreads),
            finished: 0,
            panics: Vec::new(),
            panic_waiters: Vec::new(),
            aborted: false,
            outcome: None,
            weak: policy_mode.then(|| WeakMem::new(nthreads)),
        }
    }

    /// Posts an operation key into whichever ready structure this run's
    /// scheduling mode uses.
    #[inline]
    fn post_ready(&mut self, key: SchedKey) {
        if self.policy_mode {
            self.ready_list.push(key);
        } else {
            self.sched.push_ready(key);
        }
    }
}

/// Everything one episode's threads share: the state mutex, the reply cells,
/// the worker park handles, and the immutable machine model.
pub(crate) struct Shared {
    mx: Mutex<State>,
    done_cv: Condvar,
    cells: Vec<ReplyCell>,
    /// Park/unpark handles, registered by each worker at episode entry
    /// (before it can post, and therefore before anything can address it).
    handles: Vec<std::sync::OnceLock<std::thread::Thread>>,
    topo: Arc<Topology>,
    line_shift: u32,
}

/// Handle through which a simulated thread performs memory operations.
///
/// Thread `tid` is pinned to core `tid` of the modeled machine, mirroring
/// the paper's methodology ("each thread is pinned to a distinct physical
/// core").
pub struct SimThread {
    shared: Arc<Shared>,
    tid: usize,
    nthreads: usize,
    /// Fiber transport: when the episode runs on the single-threaded fiber
    /// runtime, wakes are enqueued with the scheduler and blocking yields
    /// the fiber instead of parking the OS thread. `None` = OS transport.
    /// (Makes `SimThread` `!Send`, which is fine — a handle never leaves
    /// the thread it was created on in either transport.)
    fiber: Option<std::ptr::NonNull<crate::fiber::FiberRt>>,
    /// Locally accumulated `compute_ns` time `(total ns, op count)` not yet
    /// applied to the engine clock. A compute touches no line, draws no
    /// jitter and occupies no interconnect — its only effect is to raise
    /// this thread's own scheduling key — so it needs no rendezvous: the
    /// accumulator is folded into the clock at the next real operation (or
    /// at thread finish). Other threads' operations gate on this thread's
    /// key exactly as they would have gated on the posted compute op, so
    /// results are bit-identical; only the context switches disappear.
    deferred: std::cell::Cell<(f64, u64)>,
}

impl SimThread {
    /// Must be called on the worker thread itself: registers its park handle
    /// so reply deliveries can wake it.
    pub(crate) fn new(shared: Arc<Shared>, tid: usize, nthreads: usize) -> Self {
        shared.handles[tid]
            .set(std::thread::current())
            .expect("worker registered twice for one episode");
        Self { shared, tid, nthreads, fiber: None, deferred: std::cell::Cell::new((0.0, 0)) }
    }

    /// Fiber-transport constructor: no park handle — the fiber runtime, not
    /// `unpark`, resumes blocked threads.
    pub(crate) fn new_fiber(
        shared: Arc<Shared>,
        tid: usize,
        nthreads: usize,
        rt: std::ptr::NonNull<crate::fiber::FiberRt>,
    ) -> Self {
        Self { shared, tid, nthreads, fiber: Some(rt), deferred: std::cell::Cell::new((0.0, 0)) }
    }

    /// Takes the not-yet-applied compute accumulator (for the finish path).
    pub(crate) fn take_deferred(&self) -> (f64, u64) {
        self.deferred.replace((0.0, 0))
    }

    /// This thread's id (= its core id).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of threads participating in the simulation.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    fn call(&self, op: OpReq) -> Reply {
        let cell = &self.shared.cells[self.tid];
        // Our own sequence number only advances when the engine replies to
        // us, and we have consumed every previous reply; read it before
        // posting so the bump cannot be missed.
        let my_seq = cell.seq.load(Ordering::Acquire);
        let mut g = self.shared.mx.lock();
        if g.aborted {
            drop(g);
            std::panic::panic_any(AbortSignal);
        }
        debug_assert!(g.slots[self.tid].pending.is_none(), "op already pending");
        let old_key = (TimeKey(g.time[self.tid]), self.tid);
        let was_running = g.sched.running.remove(&old_key);
        debug_assert!(was_running, "posting thread must be in the running set");
        let (def_ns, def_count) = self.deferred.replace((0.0, 0));
        if def_count > 0 {
            g.time[self.tid] += def_ns;
            g.ops += def_count;
            g.stats.count_ops(OpKind::Compute, def_count);
        }
        let key = (TimeKey(g.time[self.tid]), self.tid);
        g.slots[self.tid].pending = Some(op);
        g.post_ready(key);
        self.shared.run_engine(&mut g);
        // Fast path: when our own op was processable (the common case for
        // serial phases), the inline engine run above already delivered the
        // reply — no context switch, no further synchronization (both
        // transports). Otherwise block: a fiber yields to its scheduler
        // (the deliverer enqueues it runnable); an OS worker parks (the
        // deliverer's deferred `unpark` cannot be lost — a token posted
        // before we park makes the park return immediately, and a stale
        // token merely costs one extra loop iteration).
        match self.fiber {
            Some(rt) => {
                // SAFETY: the runtime outlives every fiber it drives, and
                // all fibers run on its OS thread (no concurrent access).
                let rt = unsafe { rt.as_ref() };
                // Every fiber runs on this OS thread, so nobody can be
                // blocked on the lock: queue the wakes while holding it
                // rather than moving the wake list out per rendezvous.
                rt.enqueue_wakes(&g.wake_list, self.tid);
                g.wake_list.clear();
                drop(g);
                while cell.seq.load(Ordering::Acquire) == my_seq {
                    rt.suspend();
                }
            }
            None => {
                let wakes = std::mem::take(&mut g.wake_list);
                drop(g);
                self.shared.unpark(&wakes, self.tid);
                while cell.seq.load(Ordering::Acquire) == my_seq {
                    std::thread::park();
                }
            }
        }
        // SAFETY: the seq bump (release) happens after the engine published
        // our reply, and the engine will not touch the cell again until our
        // next post.
        let r = unsafe { (*cell.reply.get()).take() }.expect("reply published without a value");
        if matches!(r, Reply::Abort) {
            std::panic::panic_any(AbortSignal);
        }
        r
    }

    fn call_value(&self, op: OpReq) -> u32 {
        match self.call(op) {
            Reply::Value(v) => v,
            _ => unreachable!("engine sent a non-value reply to a value op"),
        }
    }

    /// Load-acquire of the 32-bit word at `addr` (`ldar`), paying `ε` on a
    /// local hit or `L_i` (plus contention) on a remote transfer. Always
    /// reads the committed coherence state, even under weak mode.
    pub fn load(&self, addr: Addr) -> u32 {
        self.call_value(OpReq::Load(addr, LoadOrder::Acquire))
    }

    /// Relaxed load (`ldr`): under weak mode a schedule policy may satisfy
    /// it from this thread's stale-value cache instead of the committed
    /// state. Identical to [`SimThread::load`] in default mode.
    pub fn load_relaxed(&self, addr: Addr) -> u32 {
        self.call_value(OpReq::Load(addr, LoadOrder::Relaxed))
    }

    /// Store-release to the word at `addr` (`stlr`), acquiring line
    /// ownership and paying the RFO fan-out to current sharers. Under weak
    /// mode it first drains this thread's store buffer, so every earlier
    /// store is visible before this one.
    pub fn store(&self, addr: Addr, value: u32) {
        self.call_value(OpReq::Store(addr, value, StoreOrder::Release));
    }

    /// Relaxed store (`str`): under weak mode a schedule policy may defer
    /// its commit past later operations of this thread. Identical to
    /// [`SimThread::store`] in default mode.
    pub fn store_relaxed(&self, addr: Addr, value: u32) {
        self.call_value(OpReq::Store(addr, value, StoreOrder::Relaxed));
    }

    /// Full memory barrier (`dmb ish`): drains this thread's store buffer
    /// and discards its stale-value cache. Free outside weak mode (charged
    /// `ε` like a local op either way).
    pub fn fence(&self) {
        self.call_value(OpReq::Fence);
    }

    /// Atomic wrapping fetch-add; returns the previous value. Serializes
    /// with other writes/RMWs on the same line.
    pub fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        self.call_value(OpReq::FetchAdd(addr, delta))
    }

    /// Atomic compare-exchange: stores `new` iff the word equals `current`
    /// and returns the previous value either way (success iff it equals
    /// `current`). Charged like any RMW — an ARMv8.1 `CAS` takes the line
    /// exclusively whether or not the comparison succeeds — but the
    /// success and failure paths may carry different surcharges
    /// (`RmwCosts::cas_ok` vs `RmwCosts::cas_fail`).
    pub fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        self.call_value(OpReq::CmpXchg(addr, current, new))
    }

    /// Atomic exchange (ARMv8.1 `SWP`): unconditionally stores `new` and
    /// returns the previous value. Serializes with other writes/RMWs on
    /// the same line; charged with the platform's `RmwCosts::swap` entry.
    pub fn swap(&self, addr: Addr, new: u32) -> u32 {
        self.call_value(OpReq::Swap(addr, new))
    }

    /// Spins until `pred(value_at(addr))` holds; returns the satisfying
    /// value. While blocked, this thread holds a read copy of the line, so
    /// every intervening write pays invalidation costs to it — exactly the
    /// crowd effect of hardware spin-waiting.
    ///
    /// The predicate is opaque to deadlock diagnostics; prefer
    /// [`SimThread::spin_until_eq`] / [`SimThread::spin_until_ge`] when the
    /// condition has one of those shapes, so a hang reports its target.
    pub fn spin_until(&self, addr: Addr, pred: impl Fn(u32) -> bool + Send + 'static) -> u32 {
        self.call_value(OpReq::SpinUntil(addr, WaitCond::Pred(Box::new(pred))))
    }

    /// Spins until the word at `addr` equals `value`. Identical costs to
    /// [`SimThread::spin_until`], but a deadlock report names the target.
    pub fn spin_until_eq(&self, addr: Addr, value: u32) -> u32 {
        self.call_value(OpReq::SpinUntil(addr, WaitCond::Eq(value)))
    }

    /// Spins until the word at `addr` is ≥ `value` (monotonic epochs), with
    /// the target recorded for deadlock diagnostics.
    pub fn spin_until_ge(&self, addr: Addr, value: u32) -> u32 {
        self.call_value(OpReq::SpinUntil(addr, WaitCond::Ge(value)))
    }

    /// Loads `addr` (acquire) up to `loads` times, stopping at the first
    /// value equal to `value`; returns that value, or the last one loaded.
    ///
    /// Costs, fingerprint and op budget are exactly those of `loads`
    /// separate [`SimThread::load`] calls issued back to back, but the
    /// engine issues the reloads itself: a failed load costs no fiber
    /// round trip.
    pub fn poll_until_eq(&self, addr: Addr, value: u32, loads: u32) -> u32 {
        assert!(loads > 0, "a poll issues at least one load");
        self.call_value(OpReq::Poll(addr, WaitCond::Eq(value), loads))
    }

    /// [`SimThread::poll_until_eq`] for the condition "≥ `value`".
    pub fn poll_until_ge(&self, addr: Addr, value: u32, loads: u32) -> u32 {
        assert!(loads > 0, "a poll issues at least one load");
        self.call_value(OpReq::Poll(addr, WaitCond::Ge(value), loads))
    }

    /// Spins until every word in `addrs` is ≥ `value`. A polling loop over
    /// independent flags keeps several line fetches in flight at once
    /// (memory-level parallelism), so on satisfaction the thread pays the
    /// *slowest* outstanding fetch plus a small pipelining charge per extra
    /// line — not the sum of all fetches. This is how a tournament winner
    /// with one-flag-per-line children observes all arrivals in roughly one
    /// transfer time.
    pub fn spin_until_all_ge(&self, addrs: &[Addr], value: u32) {
        if addrs.is_empty() {
            return;
        }
        self.call_value(OpReq::SpinUntilAllGe(addrs.to_vec(), value));
    }

    /// Advances this thread's clock by `ns` of pure local computation.
    ///
    /// Free of any engine rendezvous: the time is accumulated locally and
    /// folded into the clock at the next real operation. A long compute-only
    /// stretch still posts a heartbeat every [`DEFERRED_COMPUTE_FLUSH`] ops
    /// so the live-lock budget keeps counting.
    pub fn compute_ns(&self, ns: f64) {
        assert!(ns >= 0.0 && ns.is_finite(), "bad compute duration {ns}");
        let (acc, count) = self.deferred.get();
        self.deferred.set((acc + ns, count + 1));
        if count + 1 >= DEFERRED_COMPUTE_FLUSH {
            self.call(OpReq::Now); // flushes the accumulator as a side effect
        }
    }

    /// Records a timestamp with a user label (see `RunStats::marks`).
    pub fn mark(&self, label: u32) {
        self.call_value(OpReq::Mark(label));
    }

    /// This thread's current virtual time in ns.
    pub fn now_ns(&self) -> f64 {
        match self.call(OpReq::Now) {
            Reply::TimeNs(t) => t,
            _ => unreachable!(),
        }
    }

    /// Machine-wide coherence-op counters accumulated so far, summed over
    /// all threads. Free: advances no virtual time and touches no lines, so
    /// instrumented and uninstrumented runs report identical latencies.
    ///
    /// Because threads progress at different virtual times, a snapshot taken
    /// right after a barrier episode may include a few operations of threads
    /// that already raced into the next episode; per-episode deltas are
    /// therefore attributions, exact only at full-run granularity.
    pub fn coherence_counters(&self) -> CoherenceCounters {
        match self.call(OpReq::Counters) {
            Reply::Counters(c) => *c,
            _ => unreachable!("engine sent a non-counter reply to a counter op"),
        }
    }
}

/// Configures and launches simulations.
pub struct SimBuilder {
    pub(crate) topo: Arc<Topology>,
    pub(crate) nthreads: usize,
    pub(crate) seed: u64,
    pub(crate) op_budget: u64,
    pub(crate) reserve_bytes: usize,
    pub(crate) policy: Option<Box<dyn SchedulePolicy>>,
}

impl SimBuilder {
    /// Prepares a simulation of `nthreads` threads on `topo` (thread `i`
    /// pinned to core `i`).
    ///
    /// # Panics
    /// Panics when `nthreads` is zero or exceeds the core count.
    pub fn new(topo: Arc<Topology>, nthreads: usize) -> Self {
        assert!(nthreads >= 1, "need at least one thread");
        assert!(
            nthreads <= topo.num_cores(),
            "{} threads exceed the {} cores of {}",
            nthreads,
            topo.num_cores(),
            topo.name()
        );
        assert!(
            topo.num_cores() <= CoreSet::CAPACITY,
            "simulator supports at most {} cores",
            CoreSet::CAPACITY
        );
        Self {
            topo,
            nthreads,
            seed: 0x5EED,
            op_budget: 200_000_000,
            reserve_bytes: 0,
            policy: None,
        }
    }

    /// Installs a [`SchedulePolicy`] controlling which ready operation the
    /// engine processes next. Without one (the default) the engine keeps its
    /// virtual-time heap order, byte-identical to previous releases; with
    /// one, interleavings follow the policy and latency figures lose their
    /// meaning — policy runs are for conformance checking, not measurement.
    pub fn schedule_policy(mut self, policy: impl SchedulePolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Sets the jitter seed (default `0x5EED`). Runs with equal seeds are
    /// bit-identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the operation budget guarding against live-lock (default 2·10⁸).
    pub fn op_budget(mut self, ops: u64) -> Self {
        assert!(ops > 0);
        self.op_budget = ops;
        self
    }

    /// Pre-sizes the engine's dense value/directory tables to cover every
    /// address `arena` has handed out, eliminating growth reallocation
    /// during the run. Purely a performance hint — results are identical
    /// with or without it (the tables grow on demand).
    pub fn reserve_for(mut self, arena: &Arena) -> Self {
        self.reserve_bytes = arena.len();
        self
    }

    pub(crate) fn into_shared(self) -> Shared {
        let line_bytes = self.topo.cacheline_bytes();
        debug_assert!(line_bytes.is_power_of_two(), "topology validates the line size");
        let line_shift = line_bytes.trailing_zeros();
        Shared {
            mx: Mutex::new(State::new(
                self.nthreads,
                self.seed,
                self.op_budget,
                self.reserve_bytes,
                line_shift,
                self.policy,
            )),
            done_cv: Condvar::new(),
            cells: (0..self.nthreads).map(|_| ReplyCell::new()).collect(),
            handles: (0..self.nthreads).map(|_| std::sync::OnceLock::new()).collect(),
            topo: self.topo,
            line_shift,
        }
    }

    /// Runs `body` on every simulated thread to completion and returns the
    /// run statistics, or an error on deadlock / live-lock / panic.
    ///
    /// Episodes run as fibers on the calling thread, or on the OS-thread
    /// transport on a per-host-thread ambient [`crate::SimTeam`] whose
    /// workers are reused across calls (results are identical).
    pub fn run(
        self,
        body: impl Fn(&SimThread) + Send + Sync + 'static,
    ) -> Result<RunStats, SimError> {
        crate::team::run_with_ambient_team(self, Arc::new(body))
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for [`AbortSignal`] tear-down panics — they are an internal
/// control-flow mechanism, not failures — while delegating everything else
/// to the previous hook.
pub(crate) fn silence_abort_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<AbortSignal>() {
                prev(info);
            }
        }));
    });
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Shared {
    /// Marks `tid` finished (recording its panic message, if any) and lets
    /// the engine drain anything its departure unblocked. Hands the wake
    /// list to `take_wakes` while the lock is held — the transport wrapper
    /// decides how to deliver the wakes — and returns its result with
    /// whether every participant is now finished.
    pub(crate) fn finish_thread_core<R>(
        &self,
        tid: usize,
        panic_msg: Option<String>,
        deferred: (f64, u64),
        take_wakes: impl FnOnce(&mut Vec<usize>) -> R,
    ) -> (R, bool) {
        let mut g = self.mx.lock();
        let key = (TimeKey(g.time[tid]), tid);
        g.sched.running.remove(&key); // may already be gone after an abort
        let (def_ns, def_count) = deferred;
        if def_count > 0 && !g.aborted {
            // Trailing computes never followed by a real op: fold them
            // in now so per-thread times include them.
            g.time[tid] += def_ns;
            g.ops += def_count;
            g.stats.count_ops(OpKind::Compute, def_count);
        }
        if let Some(m) = panic_msg {
            g.panics.push((tid, m));
        }
        debug_assert!(!g.slots[tid].finished, "thread finished twice");
        g.slots[tid].finished = true;
        g.finished += 1;
        self.run_engine(&mut g);
        (take_wakes(&mut g.wake_list), g.finished == g.slots.len())
    }

    /// OS-transport finish: processes the departure, unparks the woken
    /// workers, and notifies the collecting driver.
    pub(crate) fn finish_thread(
        &self,
        tid: usize,
        panic_msg: Option<String>,
        deferred: (f64, u64),
    ) {
        let (wakes, all_done) = self.finish_thread_core(tid, panic_msg, deferred, std::mem::take);
        self.unpark(&wakes, tid);
        if all_done {
            self.done_cv.notify_all();
        }
    }

    /// Issues the deferred wakeups of an engine pass (self excluded: the
    /// caller checks its own reply cell directly, and skipping it avoids a
    /// stale park token).
    fn unpark(&self, tids: &[usize], me: usize) {
        for &t in tids {
            if t != me {
                self.handles[t].get().expect("woken thread never registered").unpark();
            }
        }
    }

    /// Driver side: blocks until every participant has passed its finish
    /// point, then converts the episode outcome into the public result.
    pub(crate) fn collect(&self) -> Result<RunStats, SimError> {
        let mut g = self.mx.lock();
        let n = g.slots.len();
        while g.finished < n {
            self.done_cv.wait(&mut g);
        }
        // A body panic takes precedence over the (sentinel-Ok) outcome.
        if !g.panics.is_empty() {
            let (tid, message) = g.panics.remove(0);
            let waiters = std::mem::take(&mut g.panic_waiters);
            return Err(SimError::ThreadPanic { tid, message, waiters });
        }
        match g.outcome.take().expect("all threads finished without an outcome") {
            Err(e) => Err(e),
            Ok(()) => {
                let mut stats = std::mem::replace(&mut g.stats, RunStats::new(0));
                for tid in 0..n {
                    stats.set_thread_time(tid, g.time[tid]);
                }
                Ok(stats)
            }
        }
    }

    /// Processes ready operations until none is processable, then applies
    /// the terminal checks. Called with the state lock held, from whichever
    /// thread last changed the schedule.
    fn run_engine(&self, g: &mut State) {
        if g.policy_mode && !self.run_engine_policy(g) {
            return;
        }
        while g.outcome.is_none() && g.panics.is_empty() {
            // `pop_next` yields the minimal ready key unless it is
            // gated by a running thread that will post an earlier one.
            let Some((TimeKey(at), tid)) = g.sched.pop_next() else { break };
            let cohort = g.cohorts.leave(tid);
            if !self.dispatch(g, tid) {
                return;
            }
            if let Some(line) = cohort {
                if !self.drain_cohort(g, line, at) {
                    return;
                }
            }
        }
        self.terminal_check(g);
    }

    /// Hands `tid`'s pending op to the cost model. Returns `false` when the
    /// op budget ran out and the episode was aborted.
    fn dispatch(&self, g: &mut State, tid: usize) -> bool {
        if !self.tick(g, tid) {
            return false;
        }
        let op = g.slots[tid].pending.take().expect("ticked op is pending");
        self.step(g, tid, op, WeakDecision::Strong);
        true
    }

    /// The scheduling event every dispatch starts with: one op-budget tick
    /// and one fingerprint event for `tid`'s pending op. Returns `false`
    /// when the budget ran out and the episode was aborted.
    fn tick(&self, g: &mut State, tid: usize) -> bool {
        if self.charge_op(g) {
            return false;
        }
        let tag = op_tag(g.slots[tid].pending.as_ref().expect("ready thread has no pending op"));
        g.stats.engine_mut().pops += 1;
        g.stats.mix_schedule(tag, tid as u64);
        true
    }

    /// Runs the members of `line`'s stall cohort at `at` that follow the
    /// just-dispatched one, inline, for as long as each is exactly the key
    /// `pop_next` would return: below the ready head and every running
    /// key. The first member that is not becomes the cohort's
    /// queued head. Returns `false` when the episode was aborted.
    ///
    /// A member whose line is still busy only re-stamps: it gets the
    /// dispatch's tick and the stall's effects without a trip through
    /// `step`. A re-stamp adds no running key and pushes only keys above
    /// `at`, so the scheduler bound stays valid until a real dispatch.
    fn drain_cohort(&self, g: &mut State, line: u32, at: f64) -> bool {
        let mut bound = None;
        while g.outcome.is_none() && g.panics.is_empty() {
            let Some(tid) = g.cohorts.peek_next(line, at) else { break };
            let key = (TimeKey(at), tid);
            if bound.get_or_insert_with(|| g.sched.bound()).is_some_and(|b| b <= key) {
                if !g.sched.is_queued(key) {
                    g.sched.push_ready(key);
                }
                break;
            }
            g.cohorts.leave(tid);
            let busy_until = self.available_at(g, line);
            if busy_until > at {
                if !self.tick(g, tid) {
                    return false;
                }
                self.stall(g, tid, busy_until, Some(line));
            } else {
                if !self.dispatch(g, tid) {
                    return false;
                }
                bound = None;
            }
        }
        true
    }

    /// A dispatched op found its line(s) busy until `busy_until`: the
    /// thread's clock moves there and the op, still pending, waits again.
    /// In heap mode a single-line op joins the line's stall cohort (only a
    /// new lowest tid needs a heap entry); policy mode and all-≥ waits
    /// (several lines) re-post.
    fn stall(&self, g: &mut State, tid: usize, busy_until: f64, line: Option<u32>) {
        let is_write = matches!(
            g.slots[tid].pending,
            Some(OpReq::Store(..) | OpReq::FetchAdd(..) | OpReq::CmpXchg(..) | OpReq::Swap(..))
        );
        g.stats.record_stall(tid, is_write, busy_until - g.time[tid]);
        g.stats.engine_mut().restamps += 1;
        g.time[tid] = busy_until;
        let key = (TimeKey(busy_until), tid);
        match line {
            Some(line) if !g.policy_mode => {
                if g.cohorts.join(line, busy_until, tid) {
                    g.sched.push_ready(key);
                }
            }
            _ => g.post_ready(key),
        }
    }

    /// Policy-mode engine pass: at every decision point, describe all ready
    /// operations to the installed [`SchedulePolicy`] and act on its pick.
    /// The policy is moved out of the state for the pass (it and the state
    /// cannot be borrowed simultaneously), so all posting paths route on
    /// `policy_mode` instead of `policy.is_some()`.
    ///
    /// Determinism: the policy is consulted only at *settlement points* —
    /// when no thread is executing user code, so every live thread has
    /// either posted its next op or parked in a spin-wait. The ready set at
    /// such a point is a pure function of simulation history (host posting
    /// order cannot change it), and sorting it by `(time, tid)` makes the
    /// indices the policy sees canonical. This lock-step discipline still
    /// reaches every sequentially consistent interleaving: at each step any
    /// posted op may be chosen.
    ///
    /// Settled handoff: at a settlement point where the policy reports
    /// [`SchedulePolicy::settled`] and no store buffer holds a deferred
    /// store, the pass moves the ready set into the heap scheduler and
    /// leaves policy mode for the rest of the run, returning `true` so the
    /// caller continues on the heap path. The two paths then agree op for
    /// op: a settled policy picks the oldest ready op at every settlement
    /// point — the op the heap would process next — and keeps every
    /// relaxed op strong, which the heap path's dispatch does too. The
    /// weak-memory state stays: its buffers are empty and nothing defers a
    /// store again, so there is nothing to forward or drain, and its
    /// stale-value caches go on recording what each thread last observed —
    /// the view a deadlock report prints. Returns `false` after the
    /// terminal checks otherwise.
    fn run_engine_policy(&self, g: &mut State) -> bool {
        let mut policy = g.policy.take().expect("policy mode without a policy");
        'pass: loop {
            while g.outcome.is_none()
                && g.panics.is_empty()
                && !g.ready_list.is_empty()
                && g.sched.running.is_empty()
            {
                if policy.settled() && g.weak.as_ref().is_none_or(WeakMem::drained) {
                    for key in std::mem::take(&mut g.ready_list) {
                        g.sched.push_ready(key);
                    }
                    g.policy_mode = false;
                    g.policy = Some(policy);
                    return true;
                }
                g.ready_list.sort_unstable();
                let ready: Vec<ReadyOp> = g
                    .ready_list
                    .iter()
                    .map(|&(TimeKey(t), tid)| {
                        let (kind, addr) = g.slots[tid]
                            .pending
                            .as_ref()
                            .map(describe_op)
                            .expect("ready thread has no pending op");
                        ReadyOp { tid, time_ns: t, kind, addr }
                    })
                    .collect();
                let min_running = g.sched.running.first().map(|&(TimeKey(t), tid)| (t, tid));
                let pick = match policy.pick(&ready, min_running) {
                    ScheduleDecision::Run(i) if i < ready.len() => i,
                    ScheduleDecision::Delay { index, ns }
                        if index < ready.len() && ns.is_finite() && ns >= 0.0 =>
                    {
                        // A delay consumes budget (so delay storms cannot
                        // live-lock the run) and advances the thread's clock;
                        // the op stays posted and is offered again.
                        if self.charge_op(g) {
                            break;
                        }
                        let tid = ready[index].tid;
                        g.time[tid] += ns;
                        g.ready_list[index] = (TimeKey(g.time[tid]), tid);
                        g.stats.mix_schedule(0xDE1A, (tid as u64) ^ ns.to_bits());
                        continue;
                    }
                    ScheduleDecision::Wait if min_running.is_some() => break,
                    // Misbehaving policy (bad index, bad delay, or Wait with
                    // nothing running): fall back to the oldest ready op rather
                    // than wedging the engine.
                    _ => crate::schedule::oldest_index(&ready),
                };
                let (TimeKey(_), tid) = g.ready_list.swap_remove(pick);
                if !self.tick(g, tid) {
                    break;
                }
                let op = g.slots[tid].pending.take().expect("ticked op is pending");
                let weak = match self.weak_offer(g, tid, &op) {
                    Some(wop) => policy.weak(&wop),
                    None => WeakDecision::Strong,
                };
                self.step(g, tid, op, weak);
            }
            // Quiescence drain: nobody ready or running, threads still
            // blocked, buffered stores pending — not a deadlock yet. ARMv8
            // store buffers drain in finite time, so every buffered store
            // commits (lowest tid first, FIFO within a thread) before the
            // terminal check may call this state stuck. Infinite deferral is
            // not an ARMv8 behavior.
            if g.outcome.is_none()
                && g.panics.is_empty()
                && g.ready_list.is_empty()
                && g.sched.running.is_empty()
                && g.finished < g.slots.len()
                && self.weak_drain_one(g)
            {
                continue 'pass;
            }
            break;
        }
        debug_assert!(g.policy.is_none(), "policy restored twice");
        g.policy = Some(policy);
        self.terminal_check(g);
        false
    }

    /// Counts one scheduling action against the op budget; on exhaustion
    /// records the error, aborts the episode, and returns `true`.
    fn charge_op(&self, g: &mut State) -> bool {
        g.ops += 1;
        if g.ops > g.op_budget {
            g.outcome = Some(Err(SimError::OpBudgetExhausted { ops: g.ops, budget: g.op_budget }));
            self.abort(g);
            true
        } else {
            false
        }
    }

    /// Detects episode completion, deadlock, and body panics once the
    /// engine has quiesced.
    fn terminal_check(&self, g: &mut State) {
        if g.outcome.is_some() {
            return;
        }
        if !g.panics.is_empty() {
            // A body panicked (surfaced by the caller as ThreadPanic, with
            // the blocked peers attached). Tear everyone else down — parked
            // waiters AND threads still running or mid-rendezvous — so the
            // driver can hand the workers back.
            g.panic_waiters = self.waiter_info(g);
            g.outcome = Some(Ok(())); // sentinel; collect() reports the panic
            self.abort(g);
        } else if g.finished == g.slots.len() {
            g.outcome = Some(Ok(()));
        } else if g.sched.ready.is_empty() && g.ready_list.is_empty() && g.sched.running.is_empty()
        {
            // Everyone alive is parked in a spin-wait: deadlock. (This also
            // catches stragglers still spinning after every peer finished.)
            let waiters = self.waiter_info(g);
            g.outcome = Some(Err(SimError::Deadlock { waiters }));
            self.abort(g);
        }
    }

    /// Snapshot of every blocked thread for diagnostics. For batched waits,
    /// points at the first flag still below the epoch — that is the arrival
    /// the waiter never observed.
    fn waiter_info(&self, g: &State) -> Vec<DeadlockWaiter> {
        g.waiters
            .in_order()
            .into_iter()
            .map(|w| {
                let addr = match &w.cond {
                    WaitCond::AllGe(addrs, epoch) => {
                        addrs.iter().copied().find(|&a| self.value(g, a) < *epoch).unwrap_or(w.addr)
                    }
                    _ => w.addr,
                };
                let committed = self.value(g, addr);
                // The waiter's own view: its buffered store (youngest) wins,
                // then its stale cache, then the committed value. Reported
                // so weak-mode reproducers never show a "last seen" value
                // that no fence ordering could explain.
                let view = g
                    .weak
                    .as_ref()
                    .and_then(|wm| {
                        wm.forwarded(w.tid, addr)
                            .or_else(|| wm.last_seen[w.tid].get(&addr).copied())
                    })
                    .unwrap_or(committed);
                DeadlockWaiter {
                    tid: w.tid,
                    addr,
                    kind: w.cond.kind(),
                    last_value: committed,
                    view,
                }
            })
            .collect()
    }

    /// Tears the episode down: every thread blocked in a rendezvous (posted
    /// or spin-waiting) receives `Reply::Abort`; running threads observe the
    /// `aborted` flag at their next call. Does not block — the driver waits
    /// for the workers in `collect`.
    fn abort(&self, g: &mut State) {
        g.aborted = true;
        g.sched.clear();
        g.cohorts.clear();
        g.ready_list.clear();
        for tid in 0..g.slots.len() {
            if g.slots[tid].pending.take().is_some() {
                self.deliver(g, tid, Reply::Abort);
            }
        }
        let blocked: Vec<usize> = g.waiters.drain_in_order().into_iter().map(|w| w.tid).collect();
        for tid in blocked {
            self.deliver(g, tid, Reply::Abort);
        }
    }

    /// Publishes a reply to a blocked thread's cell and queues its wakeup
    /// (issued by the engine-pass caller after the lock drops).
    ///
    /// Only call for threads provably blocked in [`SimThread::call`] — a
    /// running thread may still be draining its previous reply, and writing
    /// its cell would race with that lock-free read.
    fn deliver(&self, g: &mut State, tid: usize, r: Reply) {
        // SAFETY: see ReplyCell — the owner is blocked awaiting this reply,
        // and we hold the state lock, serializing all writers.
        unsafe {
            *self.cells[tid].reply.get() = Some(r);
        }
        self.cells[tid].seq.fetch_add(1, Ordering::Release);
        g.wake_list.push(tid);
    }

    /// Replies to a processed operation: the thread resumes user code, so it
    /// re-enters the running set at its (new) virtual time.
    fn reply(&self, g: &mut State, tid: usize, r: Reply) {
        g.sched.running.insert((TimeKey(g.time[tid]), tid));
        self.deliver(g, tid, r);
    }

    #[inline]
    fn line_key(&self, addr: Addr) -> u32 {
        addr >> self.line_shift
    }

    /// Read-only directory lookup; unbacked lines read as cold defaults.
    #[inline]
    fn line_at(&self, g: &State, key: u32) -> Line {
        g.lines.get(key as usize).copied().unwrap_or_default()
    }

    /// When the line is next free for a write (0 for an unbacked line).
    #[inline]
    fn available_at(&self, g: &State, key: u32) -> f64 {
        g.lines.get(key as usize).map_or(0.0, |l| l.available_at)
    }

    /// Mutable directory lookup, growing the dense table on demand.
    #[inline]
    fn line_mut<'a>(&self, g: &'a mut State, key: u32) -> &'a mut Line {
        let i = key as usize;
        if i >= g.lines.len() {
            g.lines.resize(i + 1, Line::default());
        }
        &mut g.lines[i]
    }

    #[inline]
    fn value(&self, g: &State, addr: Addr) -> u32 {
        read_word(&g.values, addr)
    }

    #[inline]
    fn set_value(&self, g: &mut State, addr: Addr, v: u32) {
        let i = (addr >> 2) as usize;
        if i >= g.values.len() {
            g.values.resize(i + 1, 0);
        }
        g.values[i] = v;
    }

    fn jitter(&self, g: &mut State) -> f64 {
        let amp = self.topo.coherence().jitter;
        g.rng.jitter_factor(amp)
    }

    /// Charges one remote transaction to the shared interconnect starting
    /// no earlier than `start`; returns the queueing delay incurred.
    fn noc_queue(&self, g: &mut State, start: f64) -> f64 {
        let nu = self.topo.coherence().noc_ns;
        if nu == 0.0 {
            return 0.0;
        }
        let begin = g.noc_available_at.max(start);
        g.noc_available_at = begin + nu;
        begin - start
    }

    /// Describes the weak-memory decision point `op` offers, if any: a
    /// relaxed store (always deferrable), or a relaxed load for which the
    /// thread holds a stale value and no forwardable buffered store (own
    /// buffered stores take precedence — program order within a thread is
    /// never weakened). `None` outside weak mode and for every ordered op,
    /// so the policy's `weak` hook is never consulted — and its rng never
    /// drawn — unless an actual weakening is on offer.
    fn weak_offer(&self, g: &State, tid: usize, op: &OpReq) -> Option<WeakOp> {
        let w = g.weak.as_ref()?;
        match op {
            OpReq::Store(a, _, StoreOrder::Relaxed) => {
                Some(WeakOp { tid, addr: *a, kind: WeakOpKind::RelaxedStore })
            }
            OpReq::Load(a, LoadOrder::Relaxed)
                if w.forwarded(tid, *a).is_none() && w.last_seen[tid].contains_key(a) =>
            {
                Some(WeakOp { tid, addr: *a, kind: WeakOpKind::RelaxedLoad })
            }
            _ => None,
        }
    }

    /// Drains `tid`'s store buffer in FIFO order, committing each entry to
    /// the coherence state (paying full write costs now) and waking any spin
    /// waiters the commits satisfy.
    fn weak_flush(&self, g: &mut State, tid: usize) {
        while let Some((addr, v)) = g.weak.as_mut().and_then(|w| w.buffers[tid].pop_front()) {
            self.do_write(g, tid, addr, v, None);
            self.wake_waiters(g, addr, tid);
        }
    }

    /// Commits (oldest first) every buffered store of `tid` to an address in
    /// `watched`: a thread about to spin must not block waiting for a value
    /// it is itself hiding in its own store buffer.
    fn weak_commit_watched(&self, g: &mut State, tid: usize, watched: &[Addr]) {
        loop {
            let Some(pos) = g
                .weak
                .as_ref()
                .and_then(|w| w.buffers[tid].iter().position(|(a, _)| watched.contains(a)))
            else {
                return;
            };
            let (addr, v) = g.weak.as_mut().unwrap().buffers[tid].remove(pos).unwrap();
            self.do_write(g, tid, addr, v, None);
            self.wake_waiters(g, addr, tid);
        }
    }

    /// Acquire obligation of a satisfied spin: the successful load of the
    /// loop orders everything after it, so the stale cache is discarded and
    /// reseeded with the value the spin observed.
    fn weak_spin_success(&self, g: &mut State, tid: usize, addr: Addr, v: u32) {
        if let Some(w) = g.weak.as_mut() {
            w.last_seen[tid].clear();
            w.last_seen[tid].insert(addr, v);
        }
    }

    /// Commits the oldest buffered store of the lowest-tid thread holding
    /// one; returns `false` when every buffer is empty. The deterministic
    /// unit of the quiescence drain.
    fn weak_drain_one(&self, g: &mut State) -> bool {
        let Some(tid) =
            g.weak.as_ref().and_then(|w| (0..w.buffers.len()).find(|&t| !w.buffers[t].is_empty()))
        else {
            return false;
        };
        let (addr, v) = g.weak.as_mut().unwrap().buffers[tid].pop_front().unwrap();
        g.stats.mix_schedule(0xD5A1, (tid as u64) ^ u64::from(addr));
        self.do_write(g, tid, addr, v, None);
        self.wake_waiters(g, addr, tid);
        true
    }

    /// Weak-mode front end for one operation (`DESIGN.md` §15). Returns
    /// `None` when the op was fully satisfied from per-thread weak state
    /// (deferred store, forwarded or stale load) without touching the
    /// coherence machinery; otherwise applies the op's drain/invalidate
    /// obligations and hands the op back for strong execution.
    fn weak_pre(&self, g: &mut State, tid: usize, op: OpReq, weak: WeakDecision) -> Option<OpReq> {
        let eps = self.topo.epsilon_ns();
        match &op {
            OpReq::Store(addr, v, StoreOrder::Relaxed) => {
                let (addr, v) = (*addr, *v);
                if weak == WeakDecision::Weak {
                    // Defer: the store sits in this thread's buffer until
                    // the next drain point (or the quiescence drain). ε —
                    // a store-buffer entry costs no coherence traffic.
                    g.weak.as_mut().unwrap().buffers[tid].push_back((addr, v));
                    g.time[tid] += eps;
                    g.stats.mix_schedule(0xB0FD, (tid as u64) ^ u64::from(addr));
                    self.reply(g, tid, Reply::Value(0));
                    return None;
                }
                // Committing now: coalesce away older buffered stores to the
                // same address (committing them after this one would invert
                // per-location order; a zero-length visibility window for
                // the overwritten values is ARMv8-legal write coalescing).
                g.weak.as_mut().unwrap().buffers[tid].retain(|&(a, _)| a != addr);
                Some(op)
            }
            // A release store publishes everything before it: drain the
            // buffer, then commit this store through the normal write path.
            OpReq::Store(_, _, StoreOrder::Release) => {
                self.weak_flush(g, tid);
                Some(op)
            }
            OpReq::Poll(addr, ..) => {
                // Every load of a poll is an acquire load.
                let addr = *addr;
                let w = g.weak.as_mut().unwrap();
                w.last_seen[tid].clear();
                let Some(v) = w.forwarded(tid, addr) else { return Some(op) };
                g.time[tid] += eps;
                g.stats.record_read(tid, self.line_key(addr), true, false);
                let OpReq::Poll(_, cond, loads) = op else { unreachable!() };
                self.poll_next(g, tid, addr, cond, loads, v);
                None
            }
            OpReq::Load(addr, order) => {
                let addr = *addr;
                if *order == LoadOrder::Acquire {
                    // Acquire discards local stale state; it must observe
                    // the committed coherence value.
                    g.weak.as_mut().unwrap().last_seen[tid].clear();
                }
                if let Some(v) = g.weak.as_ref().unwrap().forwarded(tid, addr) {
                    // Store-to-load forwarding from the thread's own buffer.
                    g.time[tid] += eps;
                    g.stats.record_read(tid, self.line_key(addr), true, false);
                    self.reply(g, tid, Reply::Value(v));
                    return None;
                }
                if *order == LoadOrder::Relaxed && weak == WeakDecision::Weak {
                    if let Some(&v) = g.weak.as_ref().unwrap().last_seen[tid].get(&addr) {
                        // Stale read: satisfied from the thread's local copy
                        // before the invalidation arrives. Touches no line
                        // state — the copy is already local.
                        g.time[tid] += eps;
                        g.stats.record_read(tid, self.line_key(addr), true, false);
                        g.stats.mix_schedule(0x57A1, (tid as u64) ^ u64::from(addr));
                        self.reply(g, tid, Reply::Value(v));
                        return None;
                    }
                }
                Some(op)
            }
            // RMWs are acquire+release: drain the buffer and discard stale
            // state, then run the committed read-modify-write.
            OpReq::FetchAdd(..) | OpReq::CmpXchg(..) | OpReq::Swap(..) | OpReq::Fence => {
                self.weak_flush(g, tid);
                g.weak.as_mut().unwrap().last_seen[tid].clear();
                Some(op)
            }
            // Spin entries evaluate the committed state (and their wakeups
            // deliver committed values). The acquire obligation — clearing
            // the stale cache — lands at spin *success* (the final load of
            // the loop is the one that orders subsequent accesses), so a
            // still-blocked waiter keeps its pre-spin view for diagnostics.
            // The self-hiding rule applies at entry: a thread must not block
            // waiting for a value sitting in its own store buffer.
            OpReq::SpinUntil(a, _) => {
                self.weak_commit_watched(g, tid, std::slice::from_ref(a));
                Some(op)
            }
            OpReq::SpinUntilAllGe(addrs, _) => {
                let watched = addrs.clone();
                self.weak_commit_watched(g, tid, &watched);
                Some(op)
            }
            OpReq::Mark(_) | OpReq::Now | OpReq::Counters => Some(op),
        }
    }

    fn step(&self, g: &mut State, tid: usize, op: OpReq, weak: WeakDecision) {
        let op = if g.weak.is_some() {
            match self.weak_pre(g, tid, op, weak) {
                Some(op) => op,
                // Satisfied from weak per-thread state; no coherence traffic.
                None => return,
            }
        } else {
            op
        };
        // Memory ops that hit a busy line (a write in flight) do not jump
        // the queue: the thread's clock advances to the line's availability
        // point and the op waits again (`stall`). This interleaves spin-loop
        // registrations with queued RMWs in true time order — without it,
        // all arrivals of a centralized barrier would be serviced before
        // any spinner subscribes to the line, and the invalidation-crowd
        // cost that dominates SENSE on many-cores would vanish.
        let (busy_until, line) = match &op {
            OpReq::Load(a, _)
            | OpReq::Poll(a, ..)
            | OpReq::Store(a, _, _)
            | OpReq::FetchAdd(a, _)
            | OpReq::CmpXchg(a, _, _)
            | OpReq::Swap(a, _)
            | OpReq::SpinUntil(a, _) => {
                let key = self.line_key(*a);
                (self.available_at(g, key), Some(key))
            }
            OpReq::SpinUntilAllGe(addrs, _) => (
                addrs.iter().map(|&a| self.available_at(g, self.line_key(a))).fold(0.0, f64::max),
                None,
            ),
            _ => (0.0, None),
        };
        if busy_until > g.time[tid] {
            g.slots[tid].pending = Some(op);
            self.stall(g, tid, busy_until, line);
            return;
        }

        match op {
            OpReq::Load(addr, _) => {
                let v = self.value(g, addr);
                self.do_read(g, tid, addr);
                if let Some(w) = g.weak.as_mut() {
                    // Remember the observed value: a later relaxed load may
                    // (policy permitting) be satisfied from this stale copy.
                    w.last_seen[tid].insert(addr, v);
                }
                self.reply(g, tid, Reply::Value(v));
            }
            OpReq::Poll(addr, cond, loads) => {
                let v = self.value(g, addr);
                self.do_read(g, tid, addr);
                if let Some(w) = g.weak.as_mut() {
                    w.last_seen[tid].insert(addr, v);
                }
                self.poll_next(g, tid, addr, cond, loads, v);
            }
            OpReq::Store(addr, v, _) => {
                self.do_write(g, tid, addr, v, None);
                self.wake_waiters(g, addr, tid);
                self.reply(g, tid, Reply::Value(0));
            }
            OpReq::FetchAdd(addr, d) => {
                let old = self.value(g, addr);
                self.do_write(g, tid, addr, old.wrapping_add(d), Some(RmwOp::FetchAdd));
                self.wake_waiters(g, addr, tid);
                self.reply(g, tid, Reply::Value(old));
            }
            OpReq::CmpXchg(addr, current, new) => {
                // ARMv8.1 LSE `CAS` issues the RMW regardless of the
                // comparison outcome — a failed exchange still takes the
                // line exclusively — so both branches perform the RMW write
                // (the failure rewrites the unchanged value). Only the
                // *surcharge* differs: the platform's `RmwCosts` may price
                // the failed compare below the successful exchange.
                let old = self.value(g, addr);
                let (stored, kind) = if old == current {
                    (new, RmwOp::CmpXchgOk)
                } else {
                    (old, RmwOp::CmpXchgFail)
                };
                self.do_write(g, tid, addr, stored, Some(kind));
                self.wake_waiters(g, addr, tid);
                self.reply(g, tid, Reply::Value(old));
            }
            OpReq::Swap(addr, new) => {
                let old = self.value(g, addr);
                self.do_write(g, tid, addr, new, Some(RmwOp::Swap));
                self.wake_waiters(g, addr, tid);
                self.reply(g, tid, Reply::Value(old));
            }
            OpReq::SpinUntil(addr, cond) => {
                let v = self.value(g, addr);
                self.do_read(g, tid, addr);
                if cond.holds(&g.values, addr) {
                    self.weak_spin_success(g, tid, addr, v);
                    self.reply(g, tid, Reply::Value(v));
                } else {
                    g.waiters.register(Waiter { tid, addr, cond });
                }
            }
            OpReq::SpinUntilAllGe(addrs, epoch) => {
                self.do_batched_probe(g, tid, &addrs);
                let addr = addrs[0];
                let cond = WaitCond::AllGe(addrs, epoch);
                if cond.holds(&g.values, addr) {
                    let seen = self.value(g, addr);
                    self.weak_spin_success(g, tid, addr, seen);
                    self.reply(g, tid, Reply::Value(epoch));
                } else {
                    g.waiters.register(Waiter { tid, addr, cond });
                }
            }
            OpReq::Mark(label) => {
                g.stats.push_mark(Mark { tid, label, time_ns: g.time[tid] });
                self.reply(g, tid, Reply::Value(0));
            }
            OpReq::Now => {
                let t = g.time[tid];
                self.reply(g, tid, Reply::TimeNs(t));
            }
            OpReq::Counters => {
                let total = g.stats.coherence().total();
                self.reply(g, tid, Reply::Counters(Box::new(total)));
            }
            OpReq::Fence => {
                // Drain/invalidate obligations ran in `weak_pre`; outside
                // weak mode a fence only costs its issue slot.
                g.time[tid] += self.topo.epsilon_ns();
                self.reply(g, tid, Reply::Value(0));
            }
        }
    }

    /// Ends one load of a poll that read `v`: replies when `v` satisfies
    /// `cond` or no load is left, and otherwise posts the rest of the poll
    /// at the thread's clock — the key the thread itself would post its
    /// next load at, since between two loads of a poll it runs no code
    /// that takes virtual time.
    fn poll_next(&self, g: &mut State, tid: usize, addr: Addr, cond: WaitCond, loads: u32, v: u32) {
        if loads <= 1 || cond.accepts(v) {
            self.reply(g, tid, Reply::Value(v));
        } else {
            g.slots[tid].pending = Some(OpReq::Poll(addr, cond, loads - 1));
            g.post_ready((TimeKey(g.time[tid]), tid));
        }
    }

    fn do_read(&self, g: &mut State, tid: usize, addr: Addr) {
        let now = g.time[tid];
        let eps = self.topo.epsilon_ns();
        let read_c = self.topo.coherence().read_contention_ns;
        let key = self.line_key(addr);
        let line = self.line_at(g, key);
        if line.sharers.contains(tid) {
            g.time[tid] = now + eps;
            g.stats.record_read(tid, key, true, false);
        } else {
            let start = now.max(line.available_at);
            let row = self.topo.latency_row(tid);
            let src = if let Some(o) = line.owner {
                row[o]
            } else if !line.sharers.is_empty() {
                line.sharers.iter().map(|s| row[s]).fold(f64::INFINITY, f64::min)
            } else {
                self.topo.max_latency_ns()
            };
            let queue = self.noc_queue(g, start);
            let lm = self.line_mut(g, key);
            lm.readers_since_write += 1;
            let contended = lm.readers_since_write > 1;
            let contention = read_c * (lm.readers_since_write - 1) as f64;
            lm.sharers.insert(tid);
            let jf = self.jitter(g);
            g.time[tid] = start + queue + (src + contention) * jf;
            g.stats.record_read(tid, key, false, contended);
        }
    }

    /// Initial probe of a batched wait: fetch every line the thread does
    /// not already share, overlapping the misses — pay the slowest fetch in
    /// full and a pipelining fraction of the rest.
    fn do_batched_probe(&self, g: &mut State, tid: usize, addrs: &[Addr]) {
        /// Fraction of each additional overlapped miss that still shows up
        /// on the critical path (finite load-queue bandwidth).
        const MLP_OVERLAP: f64 = 0.3;
        let read_c = self.topo.coherence().read_contention_ns;
        let now = g.time[tid];
        let mut max_l = 0.0f64;
        let mut sum_l = 0.0f64;
        let mut fetched = 0usize;
        for &a in addrs {
            let key = self.line_key(a);
            let snapshot = self.line_at(g, key);
            if snapshot.sharers.contains(tid) {
                continue;
            }
            let row = self.topo.latency_row(tid);
            let src = if let Some(o) = snapshot.owner {
                row[o]
            } else if !snapshot.sharers.is_empty() {
                snapshot.sharers.iter().map(|s| row[s]).fold(f64::INFINITY, f64::min)
            } else {
                self.topo.max_latency_ns()
            };
            let queue = self.noc_queue(g, now);
            let line = self.line_mut(g, key);
            line.readers_since_write += 1;
            let contended = line.readers_since_write > 1;
            let contention = read_c * (line.readers_since_write - 1) as f64;
            line.sharers.insert(tid);
            max_l = max_l.max(src + contention + queue);
            sum_l += src + contention + queue;
            fetched += 1;
            g.stats.record_read(tid, key, false, contended);
        }
        let jf = self.jitter(g);
        let cost = if fetched == 0 {
            self.topo.epsilon_ns()
        } else {
            max_l + MLP_OVERLAP * (sum_l - max_l)
        };
        g.time[tid] = now + cost * jf;
    }

    fn do_write(&self, g: &mut State, tid: usize, addr: Addr, new_value: u32, rmw: Option<RmwOp>) {
        let now = g.time[tid];
        let eps = self.topo.epsilon_ns();
        let key = self.line_key(addr);
        let line = self.line_at(g, key);
        let start = now.max(line.available_at);
        let lat = self.topo.latency_row(tid);
        let rfo_row = self.topo.rfo_row(tid);
        // One pass over the sharers: the nearest copy (the transfer source
        // when no core owns the line), the farthest other holder (an
        // exclusive acquisition cannot commit before it acknowledges — the
        // paper's `W_R = (1+α)·L_far` when a spinning reader sits across
        // the machine), the farthest invalidation `α_i·L_i`, and how many
        // copies are invalidated.
        let mut nearest = f64::INFINITY;
        let mut farthest = 0.0f64;
        let mut worst_rfo = 0.0f64;
        let mut invalidated = 0usize;
        for s in line.sharers.iter() {
            nearest = nearest.min(lat[s]);
            if s != tid {
                farthest = farthest.max(lat[s]);
                worst_rfo = worst_rfo.max(rfo_row[s]);
                invalidated += 1;
            }
        }
        let (near_transfer, remote) = match line.owner {
            Some(o) if o == tid => (eps, false),
            Some(o) => {
                farthest = farthest.max(lat[o]);
                (lat[o], true)
            }
            None if line.sharers.is_empty() => (eps, false),
            None => (nearest, true),
        };
        let transfer = near_transfer.max(farthest);
        // RFO fan-out: the farthest invalidation plus the per-extra-sharer
        // serialization charge at the network controller.
        let rfo = if invalidated == 0 {
            0.0
        } else {
            worst_rfo + self.topo.coherence().inv_ns * (invalidated - 1).min(INV_FANOUT_CAP) as f64
        };
        // Atomic RMWs carry a surcharge beyond a plain store: on ARMv8 the
        // far-atomic / exclusive-monitor handshake adds another partial
        // round trip. This is the cost the paper credits static tournament
        // schemes for avoiding ("no overhead introduced by atomic
        // instructions of a dynamic scheme", Section V-A). The surcharge is
        // per-op-kind (DESIGN.md §17): LSE parts price FAA/SWP below CAS,
        // LL/SC parts the reverse, and a failed CAS has its own entry.
        // Under `RmwCosts::legacy` this is bit-identical to the pre-split
        // `ε + 0.5·transfer`.
        let rmw_alu = match rmw {
            Some(op) => self.topo.rmw_costs().surcharge_ns(op, eps, transfer),
            None => 0.0,
        };
        // Remote transfers occupy the shared interconnect; local writes to
        // an exclusively-held line do not.
        let queue = if remote || invalidated > 0 { self.noc_queue(g, start) } else { 0.0 };
        let jf = self.jitter(g);
        let end = start + queue + (transfer + rfo + rmw_alu) * jf;

        let line = self.line_mut(g, key);
        line.owner = Some(tid);
        line.sharers.clear();
        line.sharers.insert(tid);
        line.available_at = end;
        line.readers_since_write = 0;

        self.set_value(g, addr, new_value);
        if let Some(w) = g.weak.as_mut() {
            // CoWR: the writer's own stale copy is superseded by its write —
            // a later relaxed load of this thread must never read backward
            // past it (other threads' copies stay stale; that is the model).
            w.last_seen[tid].insert(addr, new_value);
        }
        g.time[tid] = end;
        g.stats.record_write(tid, key, remote, invalidated);
    }

    /// After a write to `addr`'s line completes: every live waiter on the
    /// line re-fetches it (they are spinning), so they rejoin the sharer set
    /// and future writes keep paying invalidation costs to them; those whose
    /// condition now holds wake, paying the transfer from the writer plus
    /// the staggered reader-contention term.
    fn wake_waiters(&self, g: &mut State, addr: Addr, writer: usize) {
        let key = self.line_key(addr);
        let Some((live, count)) = g.waiters.live_on(key) else { return };
        let line = self.line_mut(g, key);
        line.sharers.union_with(&live);
        line.readers_since_write += count;
        let value = self.value(g, addr);
        // Satisfied waiters come back in registration order, so every
        // staggered wake time and jitter draw matches the order of the flat
        // waiter list this index replaced.
        let (satisfied, visits) = g.waiters.take_satisfied(key, addr, value, &g.values);
        let engine = g.stats.engine_mut();
        engine.waiter_visits += visits;
        engine.wakes += satisfied.len() as u64;
        let end = g.time[writer];
        let read_c = self.topo.coherence().read_contention_ns;
        for (woken, &(_, slot)) in satisfied.iter().enumerate() {
            let w = g.waiters.remove(slot);
            let lat = self.topo.latency_row(w.tid)[writer];
            // A batched waiter re-fetched every other flag line as its
            // writers dirtied it; those (pipelined) refetches are paid now,
            // as the overlap fraction of each line's pull from its current
            // owner. Without this, a flat 64-way group would observe 63
            // arrivals for the price of one.
            let mlp_extra: f64 = match &w.cond {
                WaitCond::AllGe(addrs, _) => addrs
                    .iter()
                    .filter(|&&a| self.line_key(a) != key)
                    .map(|&a| {
                        self.line_at(g, self.line_key(a))
                            .owner
                            .map_or(0.0, |o| 0.3 * self.topo.latency_row(w.tid)[o])
                    })
                    .sum(),
                _ => 0.0,
            };
            let jf = self.jitter(g);
            g.time[w.tid] = end + (lat + mlp_extra + read_c * woken as f64) * jf;
            let reply_value = self.value(g, w.addr);
            self.weak_spin_success(g, w.tid, w.addr, reply_value);
            g.stats.record_spin_wakeup(w.tid);
            self.reply(g, w.tid, Reply::Value(reply_value));
        }
        g.waiters.recycle(satisfied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use armbar_topology::TopologyBuilder;

    /// 8 cores, clusters of 4; zero jitter, known constants:
    /// ε = 1, L0 = 10 (α .5), L1 = 40 (α .5), inv = 2, read contention = 3.
    fn topo() -> Arc<Topology> {
        Arc::new(
            TopologyBuilder::new("test8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.0)
                .build(),
        )
    }

    #[test]
    fn single_thread_local_costs() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                ctx.store(a, 7); // cold line, local: ε = 1
                assert_eq!(ctx.load(a), 7); // local hit: ε = 1
                ctx.compute_ns(5.0);
            })
            .unwrap();
        assert_eq!(stats.max_time_ns(), 7.0);
        assert_eq!(stats.ops(OpKind::LocalWrite), 1);
        assert_eq!(stats.ops(OpKind::LocalRead), 1);
    }

    #[test]
    fn remote_read_pays_layer_latency() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // Thread 0 writes (owner), thread 1 (same cluster) then reads.
        let stats = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    // Compute first so t1 parks before the store happens.
                    ctx.compute_ns(100.0);
                    ctx.store(a, 1);
                } else {
                    ctx.spin_until(a, |v| v == 1);
                    // After waking, the next read is a local hit.
                    let t0 = ctx.now_ns();
                    ctx.load(a);
                    assert_eq!(ctx.now_ns() - t0, 1.0);
                }
            })
            .unwrap();
        // t1's initial read of the cold line makes it a sharer. t0's store
        // at t=100 then transfers from that sharer (L0 = 10) and pays RFO to
        // it (α·L0 = 5), ending at 115. t1 wakes at 115 + L0 = 125 and its
        // local re-read adds ε → 126.
        assert_eq!(stats.per_thread_time_ns()[1], 126.0);
        assert_eq!(stats.ops(OpKind::SpinWakeup), 1);
    }

    #[test]
    fn cross_cluster_read_costs_more() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 5)
            .run(move |ctx| match ctx.tid() {
                0 => ctx.store(a, 1),
                4 => {
                    // Core 4 is in the other cluster: wake pays L1 = 40.
                    ctx.spin_until(a, |v| v == 1);
                }
                _ => {}
            })
            .unwrap();
        assert_eq!(stats.per_thread_time_ns()[4], 1.0 + 40.0);
    }

    #[test]
    fn writes_to_one_line_serialize() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // Both threads fetch_add the same counter at t=0. The winner (t0)
        // runs first (tie broken by tid): cold local write ε + RMW
        // surcharge (ε + 0.5·ε) = 2.5. t1 must wait for available_at=2.5,
        // then pays L0 transfer (10) + RFO to t0's copy (α·L0 = 5) + RMW
        // surcharge (ε + 0.5·10 = 6) = 21 → ends at 23.5.
        let stats = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                ctx.fetch_add(a, 1);
            })
            .unwrap();
        assert_eq!(stats.per_thread_time_ns()[0], 2.5);
        assert_eq!(stats.per_thread_time_ns()[1], 23.5);
        assert_eq!(stats.ops(OpKind::RemoteWrite), 1);
    }

    #[test]
    fn fetch_add_returns_old_and_accumulates() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 4)
            .run(move |ctx| {
                let old = ctx.fetch_add(a, 1);
                assert!(old < 4);
                if old == 3 {
                    // Last arriver observes the full count.
                    assert_eq!(ctx.load(a), 4);
                }
            })
            .unwrap();
        assert!(stats.total_mem_ops() >= 4);
    }

    #[test]
    fn compare_exchange_arbitrates_one_winner() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // All four threads CAS 0 -> tid+1 on the same word: exactly one
        // succeeds and every loser observes a non-zero previous value.
        let winners = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        SimBuilder::new(topo(), 4)
            .run({
                let winners = std::sync::Arc::clone(&winners);
                move |ctx| {
                    let old = ctx.compare_exchange(a, 0, ctx.tid() as u32 + 1);
                    if old == 0 {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    let settled = ctx.load(a);
                    assert!((1..=4).contains(&settled), "some CAS must have landed");
                }
            })
            .unwrap();
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn compare_exchange_success_and_failure_report_previous() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                assert_eq!(ctx.compare_exchange(a, 0, 7), 0); // success
                assert_eq!(ctx.load(a), 7);
                assert_eq!(ctx.compare_exchange(a, 3, 9), 7); // failure
                assert_eq!(ctx.load(a), 7, "failed CAS must not store");
                assert_eq!(ctx.compare_exchange(a, 7, 9), 7); // success again
                assert_eq!(ctx.load(a), 9);
            })
            .unwrap();
    }

    #[test]
    fn swap_returns_old_stores_new_and_wakes_spinners() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(100.0); // let t1 park first
                    assert_eq!(ctx.swap(a, 5), 0);
                    assert_eq!(ctx.swap(a, 9), 5);
                    assert_eq!(ctx.load(a), 9);
                } else {
                    // Both exchanges wake the spinner chain.
                    assert_eq!(ctx.spin_until_eq(a, 5), 5);
                    assert_eq!(ctx.spin_until_eq(a, 9), 9);
                }
            })
            .unwrap();
    }

    #[test]
    fn failed_cas_charged_below_successful_under_split_costs() {
        use armbar_topology::{RmwCost, RmwCosts};
        // A part that prices a failed compare below a successful exchange
        // (both LSE and LL/SC shapes do). Jitter off → exact durations.
        let costs = RmwCosts {
            fetch_add: RmwCost::new(1.0, 0.5),
            swap: RmwCost::new(1.0, 0.5),
            cas_ok: RmwCost::new(1.0, 0.5),
            cas_fail: RmwCost::new(0.5, 0.2),
        };
        let topo = std::sync::Arc::new(
            TopologyBuilder::new("split8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.0)
                .rmw_costs(costs)
                .build(),
        );
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo, 1)
            .run(move |ctx| {
                ctx.store(a, 5); // own the line: both RMWs below are local
                let t0 = ctx.now_ns();
                assert_eq!(ctx.compare_exchange(a, 5, 6), 5); // success
                let ok_dt = ctx.now_ns() - t0;
                let t1 = ctx.now_ns();
                assert_eq!(ctx.compare_exchange(a, 9, 7), 6); // failure
                let fail_dt = ctx.now_ns() - t1;
                // Local exclusive write: transfer = ε = 1, no RFO. Success
                // pays 1 + (1.0·1 + 0.5·1) = 2.5; failure 1 + (0.5·1 +
                // 0.2·1) = 1.7.
                assert!((ok_dt - 2.5).abs() < 1e-9, "ok_dt = {ok_dt}");
                assert!((fail_dt - 1.7).abs() < 1e-9, "fail_dt = {fail_dt}");
                assert!(fail_dt < ok_dt);
            })
            .unwrap();
    }

    #[test]
    fn legacy_costs_charge_every_rmw_kind_alike() {
        // Under the default (legacy) table, FAA, SWP, successful CAS and
        // failed CAS on an owned line all cost ε + (ε + 0.5·ε) = 2.5 —
        // the pre-split engine's single surcharge.
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                ctx.store(a, 0);
                let mut durations = Vec::new();
                let t = ctx.now_ns();
                ctx.fetch_add(a, 1);
                durations.push(ctx.now_ns() - t);
                let t = ctx.now_ns();
                ctx.swap(a, 3);
                durations.push(ctx.now_ns() - t);
                let t = ctx.now_ns();
                ctx.compare_exchange(a, 3, 4); // success
                durations.push(ctx.now_ns() - t);
                let t = ctx.now_ns();
                ctx.compare_exchange(a, 0, 9); // failure
                durations.push(ctx.now_ns() - t);
                for d in durations {
                    assert_eq!(d, 2.5);
                }
            })
            .unwrap();
    }

    #[test]
    fn compare_exchange_wakes_spinners_on_success() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(100.0); // let t1 park first
                    assert_eq!(ctx.compare_exchange(a, 0, 5), 0);
                } else {
                    assert_eq!(ctx.spin_until_eq(a, 5), 5);
                }
            })
            .unwrap();
    }

    #[test]
    fn spinner_false_sharing_charges_writer() {
        let mut arena = Arena::new();
        let base = arena.alloc_u32_array(2); // two words, same line
        let w0 = base;
        let w1 = base + 4;
        // t1 spins on word 1. t0 writes word 0 (same line): must pay RFO to
        // the spinning t1 even though the value t1 wants never changes.
        let stats = SimBuilder::new(topo(), 3)
            .run(move |ctx| match ctx.tid() {
                0 => {
                    ctx.compute_ns(100.0); // let t1 get parked first
                    let t0 = ctx.now_ns();
                    ctx.store(w0, 9);
                    let dt = ctx.now_ns() - t0;
                    // Ownership transfer: t1 read the cold line and became a
                    // sharer (no owner); transfer = L0 (10, remote) + RFO to
                    // t1 (α·L0 = 5) = 15.
                    assert_eq!(dt, 15.0);
                    ctx.store(w1, 1); // release the spinner
                }
                1 => {
                    ctx.spin_until(w1, |v| v == 1);
                }
                _ => {}
            })
            .unwrap();
        assert!(stats.max_time_ns() > 100.0);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                // Nobody ever writes 1: both threads block forever.
                ctx.spin_until(a, |v| v == 1);
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                assert_eq!(waiters.len(), 2);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn straggler_spinner_is_a_deadlock() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // t0 finishes immediately; t1 spins forever.
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 1 {
                    ctx.spin_until(a, |v| v == 1);
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn deadlock_reports_wait_kind_and_target() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let b = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.spin_until_eq(a, 3);
                } else {
                    ctx.spin_until_ge(b, 7);
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                let w0 = waiters.iter().find(|w| w.tid == 0).unwrap();
                assert_eq!((w0.addr, w0.kind, w0.last_value), (a, WaitKind::Eq(3), 0));
                let w1 = waiters.iter().find(|w| w.tid == 1).unwrap();
                assert_eq!((w1.addr, w1.kind), (b, WaitKind::Ge(7)));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn batched_deadlock_points_at_the_missing_flag() {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let b = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                ctx.store(a, 1); // a satisfied, b never written
                ctx.spin_until_all_ge(&[a, b], 1);
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                assert_eq!(waiters.len(), 1);
                assert_eq!(waiters[0].addr, b, "must name the flag still unsatisfied");
                assert_eq!(waiters[0].kind, WaitKind::AllGe(1));
                assert_eq!(waiters[0].last_value, 0);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn op_budget_catches_livelock() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let err = SimBuilder::new(topo(), 1)
            .op_budget(1000)
            .run(move |ctx| loop {
                ctx.store(a, 1);
            })
            .unwrap_err();
        match err {
            SimError::OpBudgetExhausted { ops, budget } => {
                assert_eq!(budget, 1000, "error must carry the configured budget");
                assert!(ops > budget);
            }
            other => panic!("expected budget error, got {other}"),
        }
    }

    #[test]
    fn thread_panic_is_reported() {
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 1 {
                    panic!("intentional test failure");
                }
            })
            .unwrap_err();
        match err {
            SimError::ThreadPanic { tid, message, waiters } => {
                assert_eq!(tid, 1);
                assert!(message.contains("intentional"));
                assert!(waiters.is_empty(), "no thread was blocked here");
            }
            other => panic!("expected panic error, got {other}"),
        }
    }

    #[test]
    fn thread_panic_attaches_blocked_peer_snapshot() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // t0 parks on a flag t1 was supposed to release; t1 dies first. The
        // diagnostic must name the orphaned waiter and its target.
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.spin_until_ge(a, 1);
                } else {
                    // A real rendezvous op: its reply is gated behind t0's
                    // wait registration, so the snapshot is deterministic.
                    ctx.now_ns();
                    panic!("writer died before releasing");
                }
            })
            .unwrap_err();
        match err {
            SimError::ThreadPanic { tid, message, waiters } => {
                assert_eq!(tid, 1);
                assert!(message.contains("before releasing"));
                assert_eq!(waiters.len(), 1, "the parked spinner must be snapshotted");
                assert_eq!(waiters[0].tid, 0);
                assert_eq!(waiters[0].addr, a);
                assert_eq!(waiters[0].kind, WaitKind::Ge(1));
                assert_eq!(waiters[0].last_value, 0);
            }
            other => panic!("expected panic error, got {other}"),
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let jittery = Arc::new(
            TopologyBuilder::new("jitter8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.2)
                .build(),
        );
        let run = |seed: u64| {
            let mut arena = Arena::new();
            let a = arena.alloc_u32();
            SimBuilder::new(Arc::clone(&jittery), 8)
                .seed(seed)
                .run(move |ctx| {
                    for _ in 0..50 {
                        ctx.fetch_add(a, 1);
                        ctx.compute_ns(3.0);
                    }
                })
                .unwrap()
                .max_time_ns()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
        assert_ne!(run(1), run(3), "different seeds should jitter differently");
    }

    #[test]
    fn arena_reservation_changes_nothing() {
        // reserve_for is a pure pre-sizing hint: identical results with it.
        let body = |a: Addr| {
            move |ctx: &SimThread| {
                let prev = ctx.fetch_add(a, 1);
                if prev + 1 < ctx.nthreads() as u32 {
                    ctx.spin_until_ge(a, ctx.nthreads() as u32);
                }
            }
        };
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let plain = SimBuilder::new(topo(), 4).run(body(a)).unwrap();
        let mut arena2 = Arena::new();
        let a2 = arena2.alloc_padded_u32(64);
        let reserved = SimBuilder::new(topo(), 4).reserve_for(&arena2).run(body(a2)).unwrap();
        assert_eq!(plain.max_time_ns(), reserved.max_time_ns());
        assert_eq!(plain.per_thread_time_ns(), reserved.per_thread_time_ns());
        assert_eq!(plain.total_mem_ops(), reserved.total_mem_ops());
    }

    #[test]
    fn marks_are_recorded_in_time() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                ctx.mark(1);
                if ctx.tid() == 0 {
                    ctx.store(a, 1);
                } else {
                    ctx.spin_until(a, |v| v == 1);
                }
                ctx.mark(2);
            })
            .unwrap();
        let m1 = stats.last_mark_time(1).unwrap();
        let m2 = stats.last_mark_time(2).unwrap();
        assert_eq!(m1, 0.0);
        assert!(m2 > 0.0);
    }

    #[test]
    fn many_threads_complete() {
        let t = Arc::new(
            TopologyBuilder::new("wide", 64)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[8])
                .coherence(2.0, 1.0, 0.0)
                .build(),
        );
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let g = arena.alloc_padded_u32(64);
        let stats = SimBuilder::new(t, 64)
            .run(move |ctx| {
                // A hand-rolled centralized barrier episode.
                let prev = ctx.fetch_add(a, 1);
                if prev == 63 {
                    ctx.store(g, 1);
                } else {
                    ctx.spin_until(g, |v| v == 1);
                }
            })
            .unwrap();
        assert_eq!(stats.ops(OpKind::SpinWakeup), 63);
        assert!(stats.max_time_ns() > 0.0);
    }

    #[test]
    fn coherence_counters_capture_rfo_and_stalls() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let g64 = arena.alloc_padded_u32(64);
        // Four threads hammer one counter, then rendezvous on a flag: the
        // RMWs serialize (write stalls), the flag write invalidates the
        // spinners' copies (RFO fan-out), and the spinners wake remotely.
        let stats = SimBuilder::new(topo(), 4)
            .run(move |ctx| {
                let prev = ctx.fetch_add(a, 1);
                if prev == 3 {
                    ctx.store(g64, 1);
                } else {
                    ctx.spin_until(g64, |v| v == 1);
                }
            })
            .unwrap();
        let total = stats.coherence().total();
        // Aggregate counters must agree with the legacy op-kind counts.
        assert_eq!(total.local_reads, stats.ops(OpKind::LocalRead));
        assert_eq!(total.remote_reads, stats.ops(OpKind::RemoteRead));
        assert_eq!(
            total.local_writes + total.remote_writes,
            stats.ops(OpKind::LocalWrite) + stats.ops(OpKind::RemoteWrite)
        );
        assert_eq!(total.spin_wakeups, 3);
        // Three of the four RMWs found the counter line busy.
        assert!(total.write_stalls >= 3, "stalls: {total:?}");
        assert!(total.write_stall_ns > 0.0);
        // The release store invalidated the three spinners' copies.
        assert!(total.rfo_invalidations >= 3, "fan-out: {total:?}");
        // Per-thread view: the thread that never owned the counter line
        // first must have paid a remote write.
        assert!(stats.coherence().per_thread().iter().any(|c| c.remote_writes > 0));
    }

    #[test]
    fn live_counter_snapshot_is_free_and_monotone() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                let before = ctx.coherence_counters();
                let t0 = ctx.now_ns();
                let mid = ctx.coherence_counters();
                assert_eq!(ctx.now_ns(), t0, "snapshot must cost no virtual time");
                ctx.store(a, 1);
                ctx.load(a);
                let after = ctx.coherence_counters();
                let d = after.delta_since(&mid);
                assert_eq!(d.local_writes, 1);
                assert_eq!(d.local_reads, 1);
                assert_eq!(before.total_mem_ops(), 0);
            })
            .unwrap();
        assert_eq!(stats.coherence().total().total_mem_ops(), 2);
    }

    #[test]
    fn reader_contention_staggers_wakeups() {
        let mut arena = Arena::new();
        let g = arena.alloc_padded_u32(64);
        let stats = SimBuilder::new(topo(), 5)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(50.0);
                    ctx.store(g, 1);
                } else {
                    ctx.spin_until(g, |v| v == 1);
                }
            })
            .unwrap();
        // Waiters 1..4 wake at end + L + c·j; with L identical within the
        // cluster the wake times must be strictly increasing for same-layer
        // waiters and all distinct here.
        let mut times: Vec<f64> = stats.per_thread_time_ns()[1..].to_vec();
        let orig = times.clone();
        times.sort_by(f64::total_cmp);
        times.dedup();
        assert_eq!(times.len(), 4, "staggered wakeups must differ: {orig:?}");
    }

    /// Min-time scheduling (deterministic interleaving by virtual time) that
    /// takes every weak behavior on offer — the maximally weak execution.
    struct AlwaysWeak;

    impl SchedulePolicy for AlwaysWeak {
        fn pick(
            &mut self,
            ready: &[ReadyOp],
            min_running: Option<(f64, usize)>,
        ) -> ScheduleDecision {
            MinTimePolicy.pick(ready, min_running)
        }

        fn weak(&mut self, _op: &WeakOp) -> WeakDecision {
            WeakDecision::Weak
        }
    }

    use crate::schedule::MinTimePolicy;

    #[test]
    fn buffered_store_forwards_to_own_loads() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 1)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                ctx.store_relaxed(a, 9); // deferred into the store buffer
                assert_eq!(ctx.load_relaxed(a), 9, "relaxed load must forward");
                assert_eq!(ctx.load(a), 9, "acquire load must forward");
                ctx.fence(); // drains the buffer
                assert_eq!(ctx.load(a), 9, "committed after the fence");
            })
            .unwrap();
    }

    #[test]
    fn release_store_publishes_buffered_stores_first() {
        // Message passing: the data store is relaxed and deferred, but the
        // release flag store must flush it, so the reader can never observe
        // flag == 1 with stale data.
        let mut arena = Arena::new();
        let data = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store_relaxed(data, 42);
                    ctx.store(flag, 1); // release: flushes data first
                } else {
                    ctx.spin_until_eq(flag, 1);
                    assert_eq!(ctx.load(data), 42);
                }
            })
            .unwrap();
    }

    #[test]
    fn quiescence_drain_commits_buffered_stores_instead_of_deadlocking() {
        // The writer's only store stays in its buffer when it finishes; the
        // spinner must still be released (ARMv8 buffers drain in finite
        // time), so this run completes instead of reporting a deadlock.
        let mut arena = Arena::new();
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store_relaxed(flag, 1);
                } else {
                    ctx.spin_until_eq(flag, 1);
                }
            })
            .unwrap();
    }

    #[test]
    fn relaxed_load_may_return_stale_value_until_acquire() {
        // t0 observes a == 0, then t1 commits a = 7 (virtual-time ordered);
        // t0's later relaxed load is served the stale 0, and its acquire
        // load discards the stale copy and sees the committed 7.
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    assert_eq!(ctx.load(a), 0); // caches 0
                    ctx.compute_ns(1000.0); // let t1's store land
                    assert_eq!(ctx.load_relaxed(a), 0, "stale read");
                    assert_eq!(ctx.load(a), 7, "acquire reads committed state");
                    assert_eq!(ctx.load_relaxed(a), 7, "stale cache was refreshed");
                } else {
                    ctx.compute_ns(100.0);
                    ctx.store(a, 7);
                }
            })
            .unwrap();
    }

    #[test]
    fn same_address_relaxed_stores_coalesce_in_order() {
        // Per-location order: two buffered stores to one address drain FIFO,
        // so the final committed value is the program-order-last one.
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store_relaxed(a, 1);
                    ctx.store_relaxed(a, 2);
                    ctx.fence();
                    assert_eq!(ctx.load(a), 2);
                } else {
                    ctx.spin_until_ge(a, 2);
                    assert_eq!(ctx.load(a), 2);
                }
            })
            .unwrap();
    }

    #[test]
    fn weak_mode_with_strong_decisions_matches_default_engine() {
        // Budget-0 byte-identity: a policy that keeps every relaxed op
        // strong must reproduce the default heap engine's results exactly,
        // even for programs using the relaxed/fence API.
        let body = |ctx: &SimThread, a: Addr, flag: Addr| {
            if ctx.tid() == 0 {
                ctx.store_relaxed(a, 5);
                ctx.store(flag, 1);
            } else {
                ctx.spin_until_eq(flag, 1);
                assert_eq!(ctx.load_relaxed(a), 5);
            }
        };
        let run = |policy: bool| {
            let mut arena = Arena::new();
            let a = arena.alloc_padded_u32(64);
            let flag = arena.alloc_padded_u32(64);
            let mut b = SimBuilder::new(topo(), 2).seed(7);
            if policy {
                b = b.schedule_policy(MinTimePolicy);
            }
            let stats = b.run(move |ctx| body(ctx, a, flag)).unwrap();
            (stats.per_thread_time_ns().to_vec(), stats.schedule_hash())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn deadlock_report_carries_divergent_thread_view() {
        // t1 cached a == 0 before spinning for a value that never comes;
        // the committed word reaches 2. The report must show both: the
        // committed 2 and the 0 the thread itself last observed.
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(500.0);
                    ctx.store(a, 2);
                } else {
                    assert_eq!(ctx.load(a), 0); // caches 0
                    ctx.spin_until_eq(a, 3); // never satisfied
                }
            })
            .unwrap_err();
        let SimError::Deadlock { waiters } = err else { panic!("expected deadlock: {err}") };
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].last_value, 2);
        assert_eq!(waiters[0].view, 0);
        assert!(waiters[0].to_string().contains("saw 2, thread view 0"), "{}", waiters[0]);
    }

    #[test]
    fn cowr_own_committed_store_not_read_backward() {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 1)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                assert_eq!(ctx.load(a), 0); // caches 0
                ctx.store(a, 5); // release store, committed
                assert_eq!(
                    ctx.load_relaxed(a),
                    5,
                    "CoWR: relaxed load after own committed store must not go backward"
                );
            })
            .unwrap();
    }
}
