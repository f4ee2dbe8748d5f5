//! The `serve` workload: a seeded Zipf (s = 0.8) tenant mix of 4-member
//! teams on one `serve::Registry`, driven by two closed-loop driver
//! threads.
//!
//! Every team's members are split across the drivers (slots 0-1 on one,
//! 2-3 on the other), so a member's `Conn::wait` really waits for the
//! other thread and can park. Both drivers walk the same episode plan in
//! windows of distinct teams: arrive for each of their members in the
//! window, then wait for each. A member arrives again only after its wait
//! returned. There are no scripted drops: drop handling is timed by
//! deadlines and belongs to the chaos experiments.
//!
//! Each pass drives a freshly registered server (built outside the timed
//! region) and ends by checking every team's committed episodes and
//! closing its connections, so passes start from the same state and no
//! team runs out of its 20-bit epoch space however long the run. The traced run records
//! the spans of one episode in [`SPAN_SAMPLE`], which keeps the trace
//! small; the per-call percentiles come from that sample.

use std::time::Instant;

use armbar_serve::{Conn, Registry, TeamConfig};
use armbar_simcoh::rng::SplitMix64;
use armbar_sweep::{Job, SweepPool};

use crate::stats::{median, percentile_u64, Histogram};
use crate::trace::Tracer;
use crate::{run_passes, timed_setup, Opts, Outcome, WORKERS};

const MEMBERS: usize = 4;
/// One episode in this many is traced.
const SPAN_SAMPLE: usize = 128;

pub struct Spec {
    pub teams: usize,
    pub shards: usize,
    /// Team episodes per pass, drawn by Zipf weight.
    pub episodes: usize,
    pub zipf: f64,
    /// Most episodes a driver keeps in flight (all of distinct teams).
    pub window: usize,
}

impl Spec {
    pub fn standard() -> Self {
        Self { teams: 4096, shards: 8, episodes: 200_000, zipf: 0.8, window: 8 }
    }
}

fn team_name(i: usize) -> String {
    format!("tenant-{i:05}")
}

/// The team of each episode: a seeded Zipf draw, team `i` weighted
/// `(i + 1)^-zipf`.
fn plan(spec: &Spec, seed: u64) -> Vec<usize> {
    let mut cumulative = Vec::with_capacity(spec.teams);
    let mut total = 0.0;
    for i in 0..spec.teams {
        total += ((i + 1) as f64).powf(-spec.zipf);
        cumulative.push(total);
    }
    let mut rng = SplitMix64::new(seed);
    (0..spec.episodes)
        .map(|_| {
            let r = rng.next_f64() * total;
            cumulative.partition_point(|&c| c <= r).min(spec.teams - 1)
        })
        .collect()
}

/// Splits the plan into runs of at most `window` episodes of distinct teams.
fn windows(plan: &[usize], window: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < plan.len() {
        let mut hi = lo + 1;
        while hi < plan.len() && hi - lo < window && !plan[lo..hi].contains(&plan[hi]) {
            hi += 1;
        }
        out.push((lo, hi));
        lo = hi;
    }
    out
}

struct Server {
    registry: Registry,
    /// `conns[team][slot]`.
    conns: Vec<Vec<Conn>>,
}

fn setup(spec: &Spec, tracer: &Tracer, root: u64) -> Result<Server, String> {
    let registry = Registry::new(spec.shards, TeamConfig::default());
    let _s = tracer.span("serve.register", root);
    let mut conns = Vec::with_capacity(spec.teams);
    for i in 0..spec.teams {
        let team = registry.register(&team_name(i), MEMBERS)?;
        let c: Option<Vec<Conn>> = (0..MEMBERS).map(|_| team.connect()).collect();
        conns.push(c.ok_or("team refused a connection")?);
    }
    Ok(Server { registry, conns })
}

/// One driver's share of a pass.
struct DriverOut {
    calls: u64,
    errors: u64,
    /// Per-member arrive-to-wait-return times, ns.
    latency: Histogram,
}

/// Wake-path counters summed over the registry's teams and shards.
#[derive(Debug, Clone, Copy, Default)]
struct WakeTotals {
    parked_waits: u64,
    flushes: u64,
    elided: u64,
    coalesced: u64,
}

impl WakeTotals {
    fn of(s: &Server) -> Self {
        let w = s.registry.wake_stats();
        let parked_waits = s.conns.iter().map(|c| c[0].team().metrics().parked_waits).sum();
        Self { parked_waits, flushes: w.flushes, elided: w.elided, coalesced: w.coalesced }
    }

    fn since(self, before: Self) -> Self {
        Self {
            parked_waits: self.parked_waits - before.parked_waits,
            flushes: self.flushes - before.flushes,
            elided: self.elided - before.elided,
            coalesced: self.coalesced - before.coalesced,
        }
    }
}

struct PassOut {
    drivers: Vec<DriverOut>,
    wake: WakeTotals,
    /// Every team committed exactly its planned episodes with status ok.
    committed_ok: bool,
}

fn drive(
    d: usize,
    server: &Server,
    plan: &[usize],
    windows: &[(usize, usize)],
    tracer: &Tracer,
    parent: u64,
    pass_id: u64,
) -> DriverOut {
    let mut out = DriverOut { calls: 0, errors: 0, latency: Histogram::new() };
    let mut pending = Vec::with_capacity(2 * windows.len().min(64));
    // Episode ids: unique per pass, shared by both drivers' spans.
    let group_base = pass_id << 24;
    for &(lo, hi) in windows {
        pending.clear();
        for (k, &team) in plan.iter().enumerate().take(hi).skip(lo) {
            let group = (k % SPAN_SAMPLE == 0).then_some(group_base + k as u64 + 1);
            for slot in [2 * d, 2 * d + 1] {
                let conn = &server.conns[team][slot];
                let t0 = Instant::now();
                let r = {
                    let _s = group.map(|g| tracer.span_in("serve.arrive", parent, g));
                    conn.arrive()
                };
                out.calls += 1;
                match r {
                    Ok(epoch) => pending.push((conn, epoch, t0, group)),
                    Err(_) => out.errors += 1,
                }
            }
        }
        for &(conn, epoch, t0, group) in &pending {
            let r = {
                let _s = group.map(|g| tracer.span_in("serve.wait", parent, g));
                conn.wait(epoch)
            };
            out.calls += 1;
            match r {
                Ok(()) => out.latency.record(t0.elapsed().as_nanos() as u64),
                Err(_) => out.errors += 1,
            }
        }
    }
    out
}

fn pass(
    server: Server,
    planned: &[u64],
    plan: &[usize],
    windows: &[(usize, usize)],
    pool: &SweepPool,
    tracer: &Tracer,
    root: u64,
) -> PassOut {
    let before = WakeTotals::of(&server);
    let sweep = tracer.span("sweep.run", root);
    let sid = sweep.id();
    let s = &server;
    let jobs = (0..WORKERS)
        .map(|d| {
            Job::parallel(move || {
                let job = tracer.span("sweep.job", sid);
                let span = tracer.span("serve.drive", job.id());
                drive(d, s, plan, windows, tracer, span.id(), root)
            })
        })
        .collect();
    let drivers = pool.run(jobs);
    drop(sweep);
    let wake = WakeTotals::of(&server).since(before);
    let mut committed_ok = true;
    for (conns, &want) in server.conns.into_iter().zip(planned) {
        let team = conns[0].team();
        committed_ok &= team.metrics().episodes == want && team.status() == "ok";
        conns.into_iter().for_each(Conn::close);
    }
    PassOut { drivers, wake, committed_ok }
}

pub fn run(spec: &Spec, opts: &Opts, tracer: &Tracer) -> Outcome {
    assert_eq!(WORKERS * 2, MEMBERS, "each driver owns two members of every team");
    let mut o = Outcome::default();
    let (setup_s, first) = timed_setup(tracer, |t, root| setup(spec, t, root));
    o.setup_s = setup_s;
    if let Err(e) = first {
        o.check(&format!("registry set-up ({e})"), false);
        return o;
    }
    let plan = plan(spec, opts.seed);
    let windows = windows(&plan, spec.window);
    let pool = SweepPool::new(WORKERS);
    let mut planned = vec![0u64; spec.teams];
    plan.iter().for_each(|&t| planned[t] += 1);
    let fresh = || setup(spec, &Tracer::new(false), 0).expect("set-up succeeded above");
    let passes = run_passes(opts, tracer, fresh, |server, t, root| {
        pass(server, &planned, &plan, &windows, &pool, t, root)
    });

    let (mut committed_ok, mut flush_ok) = (true, true);
    for p in passes.all() {
        o.attempted += p.drivers.iter().map(|d| d.calls).sum::<u64>();
        o.failed += p.drivers.iter().map(|d| d.errors).sum::<u64>();
        committed_ok &= p.committed_ok;
        let w = p.wake;
        flush_ok &= w.flushes + w.elided + w.coalesced == plan.len() as u64;
    }
    o.check("every team committed exactly its planned episodes, status ok", committed_ok);
    o.check("one wake flush per committed episode", flush_ok);

    o.episodes_per_pass = plan.len() as u64;
    o.set_timing(&passes);
    let mut lat = Histogram::new();
    passes.untraced.iter().flat_map(|p| &p.1.drivers).for_each(|d| lat.merge(&d.latency));
    o.metric("episode_p50_ns", lat.quantile(0.50) as f64, "ns");
    o.metric("episode_p99_ns", lat.quantile(0.99) as f64, "ns");
    o.metric("episode_samples", lat.count() as f64, "count");
    let parked: Vec<f64> = passes
        .untraced
        .iter()
        .map(|p| p.1.wake.parked_waits as f64 / (plan.len() * MEMBERS) as f64)
        .collect();
    o.note(format!("parked share of waits (untraced passes, median): {:.5}", median(&parked)));

    if tracer.on() {
        let traced: Vec<&PassOut> = passes.traced.iter().map(|p| &p.1).collect();
        layers(spec, &plan, &traced, tracer, &mut o);
    }
    o
}

fn layers(spec: &Spec, plan: &[usize], traced: &[&PassOut], tracer: &Tracer, o: &mut Outcome) {
    let spans = tracer.spans();
    o.layer(
        "serve.register_s",
        crate::stats::median_span_sum(&spans, "bench.setup", "serve.register"),
    );
    let durs = |name: &str| -> Vec<u64> {
        let mut v: Vec<u64> = spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns()).collect();
        v.sort_unstable();
        v
    };
    let arrive = durs("serve.arrive");
    let wait = durs("serve.wait");
    o.layer("serve.arrive_ns.p50", percentile_u64(&arrive, 0.50) as f64);
    o.layer("serve.wait_ns.p50", percentile_u64(&wait, 0.50) as f64);
    o.layer("serve.wait_ns.p99", percentile_u64(&wait, 0.99) as f64);
    let eps = plan.len() as f64;
    let per_pass = |f: &dyn Fn(&WakeTotals) -> f64| {
        median(&traced.iter().map(|p| f(&p.wake)).collect::<Vec<_>>())
    };
    o.layer("serve.parked_frac", per_pass(&|w| w.parked_waits as f64 / (eps * MEMBERS as f64)));
    o.layer("serve.flushes_per_episode", per_pass(&|w| w.flushes as f64 / eps));
    o.layer("serve.elided_frac", per_pass(&|w| w.elided as f64 / eps));
    o.layer("serve.coalesced_frac", per_pass(&|w| w.coalesced as f64 / eps));
    let registry = Registry::new(spec.shards, TeamConfig::default());
    let mut per_shard = vec![0u64; spec.shards];
    for &t in plan {
        per_shard[registry.shard_of(&team_name(t))] += 1;
    }
    let (max, min) = (per_shard.iter().max(), per_shard.iter().min());
    if let (Some(&max), Some(&min)) = (max, min) {
        o.layer("serve.shard_balance", max as f64 / min.max(1) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_distinct_teams_and_cover_the_plan() {
        let plan = [1, 2, 1, 3, 4, 5, 6, 7, 8, 9];
        let w = windows(&plan, 4);
        assert_eq!(w, vec![(0, 2), (2, 6), (6, 10)]);
    }

    #[test]
    fn a_small_mix_commits_every_episode() {
        let spec = Spec { teams: 16, shards: 2, episodes: 200, zipf: 0.8, window: 4 };
        let o = run(&spec, &Opts { seed: 3, seconds: 0.0, trace: false }, &Tracer::new(false));
        assert_eq!(o.failed, 0);
        assert!(o.checks.iter().all(|c| c.1), "{:?}", o.checks);
    }
}
