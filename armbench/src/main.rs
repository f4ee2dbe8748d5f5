//! armbench: end-to-end and per-layer benchmark of the armbar workspace.
//!
//! ```text
//! armbench --workload <paper|kilocore|explore|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up several times
//! (median reported as `setup_s`), then repeats a fixed amount of work
//! ("a pass") until `--seconds` have been measured and reports medians
//! over the passes. Outputs are checked on every pass. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md for
//! the metric table and why each workload was chosen.

mod explore;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use stats::median;
use trace::{Span, Tracer};

/// Sweep-pool workers and `serve` driver threads; the load is sized for
/// a 2-core machine.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest passes per kind (untraced, traced) in one run.
const MIN_PASSES: usize = 3;

/// Every workload; `BENCHMARK.json` gates the first three. `kilocore`
/// runs by hand only: on a small shared machine its host times drift by
/// more than any bound between two sets of runs (see README.md).
const WORKLOADS: [&str; 4] = ["paper", "explore", "serve", "kilocore"];

/// End-to-end metrics, reported on every workload (`--trace 0`).
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("episodes_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics in the JSON of a traced run (`--trace 1`): counts,
/// shares, simulated times and the host times every workload has. A
/// metric of a layer the workload does not call reads 0 and is listed as
/// not applicable.
const PER_LAYER: [(&str, &str); 42] = [
    ("simcoh.ops.local_read", "count"),
    ("simcoh.ops.remote_read", "count"),
    ("simcoh.ops.local_write", "count"),
    ("simcoh.ops.remote_write", "count"),
    ("simcoh.ops.spin_wakeup", "count"),
    ("simcoh.ops.compute", "count"),
    ("simcoh.rfo_invalidations", "count"),
    ("simcoh.reader_contention_events", "count"),
    ("simcoh.hot_line_share", "fraction"),
    ("simcoh.write_stall_ns", "sim_ns"),
    ("simcoh.read_stall_ns", "sim_ns"),
    ("simcoh.wakeups_per_op", "ratio"),
    ("epcc.arrival_ns.phytium", "sim_ns"),
    ("epcc.arrival_ns.thunderx2", "sim_ns"),
    ("epcc.arrival_ns.kunpeng920", "sim_ns"),
    ("epcc.arrival_ns.mempool256", "sim_ns"),
    ("epcc.arrival_ns.mempool1024", "sim_ns"),
    ("epcc.notification_ns.phytium", "sim_ns"),
    ("epcc.notification_ns.thunderx2", "sim_ns"),
    ("epcc.notification_ns.kunpeng920", "sim_ns"),
    ("epcc.notification_ns.mempool256", "sim_ns"),
    ("epcc.notification_ns.mempool1024", "sim_ns"),
    ("sweep.busy_frac", "fraction"),
    ("sweep.straggler_s", "s"),
    ("model.err_pct.phytium", "%"),
    ("model.err_pct.thunderx2", "%"),
    ("model.err_pct.kunpeng920", "%"),
    ("model.err_pct.sense", "%"),
    ("model.err_pct.stour", "%"),
    ("model.err_pct.shy-ctr", "%"),
    ("model.err_pct.shy-proxy", "%"),
    ("model.max_err_pct", "%"),
    ("conformance.distinct_frac", "fraction"),
    ("conformance.violations", "count"),
    ("serve.parked_frac", "fraction"),
    ("serve.flushes_per_episode", "ratio"),
    ("serve.elided_frac", "fraction"),
    ("serve.coalesced_frac", "fraction"),
    ("serve.shard_balance", "ratio"),
    ("trace_overhead_pct", "%"),
    ("bench.self_s", "s"),
    ("sweep.self_s", "s"),
];

/// Per-layer host times of layers that not every workload calls. They
/// are printed as `layer` lines only: on the other workloads they would
/// read a constant 0, and the JSON carries no time that never changes.
const LAYER_LINES: [(&str, &str); 20] = [
    ("topology.build_s", "s"),
    ("core.build_s", "s"),
    ("simcoh.first_run_s", "s"),
    ("simcoh.run_s", "s"),
    ("simcoh.ns_per_op.p16", "ns"),
    ("simcoh.ns_per_op.p64", "ns"),
    ("simcoh.ns_per_op.p256", "ns"),
    ("simcoh.ns_per_op.p1024", "ns"),
    ("conformance.sc_trial_us", "us"),
    ("conformance.weak_trial_us", "us"),
    ("conformance.phaser_trial_us", "us"),
    ("serve.register_s", "s"),
    ("serve.arrive_ns.p50", "ns"),
    ("serve.wait_ns.p50", "ns"),
    ("serve.wait_ns.p99", "ns"),
    ("simcoh.self_s", "s"),
    ("epcc.self_s", "s"),
    ("model.self_s", "s"),
    ("conformance.self_s", "s"),
    ("serve.self_s", "s"),
];

/// Layers whose self time per traced pass is reported as `<layer>.self_s`.
const SELF_TIME_LAYERS: [&str; 7] =
    ["bench", "sweep", "simcoh", "epcc", "model", "conformance", "serve"];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produces.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Wall time of each untraced pass.
    pub walls: Vec<f64>,
    /// Wall time of each traced pass (traced runs only).
    pub traced_walls: Vec<f64>,
    /// Peak resident set after set-up and the first untraced passes.
    pub peak_rss_mb: Option<f64>,
    /// Barrier episodes one pass completes.
    pub episodes_per_pass: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, passed)` for every output check.
    pub checks: Vec<(String, bool)>,
    /// Workload-specific metrics, printed by name beside the end-to-end set.
    pub report: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Takes the pass wall times and the peak memory from a run's passes.
    pub fn set_timing<T>(&mut self, passes: &Passes<T>) {
        self.walls = passes.untraced.iter().map(|p| p.0).collect();
        self.traced_walls = passes.traced.iter().map(|p| p.0).collect();
        self.peak_rss_mb = passes.peak_rss_mb;
    }
}

/// Passes of one run, each with its wall time in seconds.
pub struct Passes<T> {
    pub untraced: Vec<(f64, T)>,
    pub traced: Vec<(f64, T)>,
    /// Peak RSS once [`MIN_PASSES`] untraced passes are done: a fixed
    /// amount of work, so the figure does not depend on host speed.
    pub peak_rss_mb: Option<f64>,
}

impl<T> Passes<T> {
    pub fn all(&self) -> impl Iterator<Item = &T> {
        self.untraced.iter().chain(&self.traced).map(|p| &p.1)
    }
}

/// Repeats `pass` until `opts.seconds` have elapsed and every kind has
/// [`MIN_PASSES`] passes. A traced run alternates untraced and traced
/// passes, so the tracing overhead compares passes under the same host
/// conditions. `prepare` builds a pass's input outside the timed region;
/// `pass` gets it, the tracer to use and the id of its root span.
pub fn run_passes<S, T>(
    opts: &Opts,
    tracer: &Tracer,
    mut prepare: impl FnMut() -> S,
    mut pass: impl FnMut(S, &Tracer, u64) -> T,
) -> Passes<T> {
    let off = Tracer::new(false);
    let start = Instant::now();
    let mut out = Passes { untraced: Vec::new(), traced: Vec::new(), peak_rss_mb: None };
    for i in 0.. {
        let traced = opts.trace && i % 2 == 1;
        let t = if traced { tracer } else { &off };
        let input = prepare();
        let root = t.span("bench.pass", 0);
        let t0 = Instant::now();
        let v = pass(input, t, root.id());
        let wall = t0.elapsed().as_secs_f64();
        drop(root);
        if traced { &mut out.traced } else { &mut out.untraced }.push((wall, v));
        if !traced && out.untraced.len() == MIN_PASSES {
            out.peak_rss_mb = stats::peak_rss_mb();
        }
        let enough =
            out.untraced.len() >= MIN_PASSES && (!opts.trace || out.traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    out
}

/// Runs `setup` [`SETUP_REPS`] times, each on a fresh thread so that
/// thread-local caches (fiber stacks, sim teams) start empty as in a new
/// process. Returns the median time and the last result.
pub fn timed_setup<T: Send>(tracer: &Tracer, setup: impl Fn(&Tracer, u64) -> T + Sync) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (secs, v) = std::thread::scope(|s| {
            s.spawn(|| {
                let root = tracer.span("bench.setup", 0);
                let t0 = Instant::now();
                let v = setup(tracer, root.id());
                (t0.elapsed().as_secs_f64(), v)
            })
            .join()
            .expect("setup thread panicked")
        });
        times.push(secs);
        last = Some(v);
    }
    (median(&times), last.expect("SETUP_REPS >= 1"))
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&val.as_str()) {
                    return Err(format!("unknown workload {val:?} (expected {WORKLOADS:?})"));
                }
                workload = Some(val.clone());
            }
            "--seed" => opts.seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("bad --seconds {val:?}"));
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// Per-layer metrics every workload has: the sweep pool's busy share and
/// straggler tail, and each layer's self time, per traced pass.
fn common_layers(spans: &[Span], o: &mut Outcome) {
    let passes = stats::per_root_sums(spans, "bench.pass");
    let mut busy = Vec::new();
    let mut straggle = Vec::new();
    for p in &passes {
        let (jobs, runs) = (p.get("sweep.job"), p.get("sweep.run"));
        if let (Some(&jobs), Some(&runs)) = (jobs, runs) {
            busy.push(jobs / (WORKERS as f64 * runs));
            straggle.push((runs - jobs / WORKERS as f64).max(0.0));
        }
    }
    if !busy.is_empty() {
        o.layer("sweep.busy_frac", median(&busy));
        o.layer("sweep.straggler_s", median(&straggle));
    }
    let in_pass = stats::under_root(spans, "bench.pass");
    let n = passes.len().max(1) as f64;
    let self_times = trace::self_time_by_layer(&in_pass);
    for layer in SELF_TIME_LAYERS {
        if let Some(s) = self_times.get(layer) {
            o.layer(format!("{layer}.self_s"), s / n);
        }
    }
    let (traced, plain) = (median(&o.traced_walls), median(&o.walls));
    if plain > 0.0 {
        o.layer("trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    }
}

fn json_metrics(items: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// JSON has no NaN or infinity; such a value is reported as 0 and the
/// run is marked incorrect by the caller.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("armbench: {e}");
            eprintln!(
                "usage: armbench --workload <paper|kilocore|explore|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(opts.trace);
    let mut o = match workload.as_str() {
        "paper" => sim::run(&sim::paper(), &opts, &tracer),
        "kilocore" => sim::run(&sim::kilocore(), &opts, &tracer),
        "explore" => explore::run(&explore::Spec::standard(), &opts, &tracer),
        _ => serve::run(&serve::Spec::standard(), &opts, &tracer),
    };

    println!(
        "== armbench {workload}: seed {} seconds {} trace {} workers {WORKERS} host cores {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let wall_s = median(&o.walls);
    let peak = o.peak_rss_mb;
    o.check("peak RSS readable", peak.is_some());
    let q = |v: &[f64], x| stats::quantile(v, x);
    o.note(format!(
        "{} untraced passes, wall quartiles {:.4} / {:.4} / {:.4} s; {} traced passes",
        o.walls.len(),
        q(&o.walls, 0.25),
        q(&o.walls, 0.5),
        q(&o.walls, 0.75),
        o.traced_walls.len()
    ));
    let e2e = [o.setup_s, wall_s, o.episodes_per_pass as f64 / wall_s, peak.unwrap_or(0.0)];
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    o.check("no failed operations", o.failed == 0 && o.attempted > 0);

    let mut printed: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let spans = tracer.spans();
        common_layers(&spans, &mut o);
        let path = std::path::Path::new(".bench_trace").join(format!("{workload}.tsv"));
        match trace::write_tsv(&path, &spans) {
            Ok(()) => o.note(format!("{} spans written to {}", spans.len(), path.display())),
            Err(e) => o.note(format!("spans not written to {}: {e}", path.display())),
        }
        let mut na = Vec::new();
        for (name, unit) in PER_LAYER {
            let v = o.layers.get(name).copied();
            if v.is_none() {
                na.push(name);
            }
            printed.push((name, v.unwrap_or(0.0), unit));
        }
        for (name, _) in LAYER_LINES {
            if !o.layers.contains_key(name) {
                na.push(name);
            }
        }
        o.note(format!(
            "per-layer metrics not applicable to {workload} (layer not called): {}",
            if na.is_empty() { "none".to_string() } else { na.join(", ") }
        ));
        o.note(format!(
            "tracing overhead: traced pass {:.4} s vs untraced {:.4} s (medians)",
            median(&o.traced_walls),
            wall_s
        ));
    } else {
        printed.extend(END_TO_END.iter().zip(e2e).map(|(&(n, u), v)| (n, v, u)));
    }
    let all_finite = printed.iter().all(|m| m.1.is_finite());
    o.check("every reported metric is finite", all_finite);

    for (name, ok) in &o.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (&(name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("metric {name} = {v} {unit}");
    }
    println!("metric failed_frac = {failed_frac} fraction ({} of {})", o.failed, o.attempted);
    for (name, v, unit) in &o.report {
        println!("metric {name} = {v} {unit}");
    }
    if opts.trace {
        for (name, v, unit) in &printed {
            println!("layer {name} = {v} {unit}");
        }
        for (name, unit) in LAYER_LINES {
            match o.layers.get(name) {
                Some(v) => println!("layer {name} = {v} {unit}"),
                None => println!("layer {name} = n/a {unit}"),
            }
        }
    }
    for n in &o.notes {
        println!("note {n}");
    }
    let correct = o.checks.iter().all(|c| c.1);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted.max(1),
        o.failed,
        json_metrics(&printed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // `(name, unit)` of every entry of one list; unit empty for workloads.
        let entries = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closed") + start;
            let field = |s: &str, f: &str| {
                s.split(&format!("\"{f}\": \""))
                    .nth(1)
                    .map_or(String::new(), |v| v[..v.find('"').expect("closed string")].to_string())
            };
            text[start..end]
                .split('{')
                .skip(1)
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(entries("end_to_end"), own(&END_TO_END));
        assert_eq!(entries("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = entries("workloads").into_iter().map(|e| e.0).collect();
        assert_eq!(workloads, WORKLOADS[..3]);
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload paper --seed 3 --seconds 2 --trace 1")).is_ok());
        assert!(parse_args(&a("--workload nope --seed 3")).is_err());
        assert!(parse_args(&a("--workload paper --trace 2")).is_err());
        assert!(parse_args(&a("--seed 3")).is_err());
        assert!(parse_args(&a("--workload serve --seconds")).is_err());
    }
}
