//! Machine-readable serve throughput: `BENCH_serve.json`.
//!
//! Drives the seeded Zipf multi-tenant load (10k teams of 4 by default,
//! heavy-tailed episode skew, 1% scripted connection drops) through a
//! fresh [`armbar_serve::Registry`] and records aggregate episodes/sec,
//! sampled episode-latency percentiles, and the per-shard episode balance.
//!
//! ```text
//! serve_load [--quick] [--teams N] [--members N] [--episodes N]
//!            [--shards N] [--seed N] [--zipf S] [--drop-frac F]
//!            [--out PATH] [--summary PATH]
//! ```
//!
//! Same reporting conventions as `bench_sim`/`bench_churn`: best of
//! several timed attempts (shared-VM clocks are noisy; the max estimates
//! capability), delta versus the committed file on stderr, an optional
//! `--summary` markdown append for the CI step summary, and the committed
//! `baseline` section carried forward. The per-shard balance is reported
//! as `max/min × 100` so it fits the integral-value JSON convention.

use armbar_serve::{run_load, LoadConfig, LoadReport};
use armbar_sweep::bench_json::{
    append_summary, deltas, print_deltas, render_doc, summary_markdown, Point,
};

/// Timed attempts; best throughput wins (outcomes are identical across
/// attempts by the determinism contract, so any attempt's report serves).
const ATTEMPTS: u32 = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned());
    let parse = |flag: &str, default: f64| -> f64 {
        flag_value(flag)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {flag} value: {v:?}")))
            .unwrap_or(default)
    };
    let quick = args.iter().any(|a| a == "--quick");
    let (d_teams, d_episodes) = if quick { (2_000.0, 400_000.0) } else { (10_000.0, 3_000_000.0) };
    let cfg = LoadConfig {
        teams: parse("--teams", d_teams) as usize,
        members: parse("--members", 4.0) as usize,
        episodes: parse("--episodes", d_episodes) as u64,
        shards: parse("--shards", 8.0) as usize,
        zipf: parse("--zipf", 0.8),
        drop_frac: parse("--drop-frac", 0.01),
        seed: parse("--seed", 0xBA5E as f64) as u64,
        ..LoadConfig::default()
    };
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let summary_path = flag_value("--summary");

    let mut best: Option<LoadReport> = None;
    for attempt in 0..ATTEMPTS {
        let report = run_load(&cfg);
        eprintln!(
            "attempt {}/{ATTEMPTS}: {:.0} episodes/s (p50 {} ns, p99 {} ns)",
            attempt + 1,
            report.eps,
            report.p50_ns,
            report.p99_ns
        );
        if best.as_ref().is_none_or(|b| report.eps > b.eps) {
            best = Some(report);
        }
    }
    let report = best.expect("at least one attempt");
    eprint!("{}", armbar_serve::summary_text(&report));

    let points = vec![
        Point::new("serve_episodes_per_sec", report.eps),
        Point::new("serve_p50_episode_ns", report.p50_ns as f64),
        Point::new("serve_p99_episode_ns", report.p99_ns as f64),
        Point::new("serve_shard_balance_x100", report.shard_balance() * 100.0),
        Point::new("serve_teams", report.outcomes.len() as f64),
    ];

    let previous = std::fs::read_to_string(&out).ok();
    let rows = previous.as_deref().map(|p| deltas(&points, p)).unwrap_or_default();
    print_deltas(&out, &rows);
    if let Some(path) = &summary_path {
        append_summary(path, &summary_markdown("Serve load bench (non-gating)", &points, &rows));
    }
    std::fs::write(&out, render_doc(&points, &[], previous.as_deref()))
        .expect("failed to write bench JSON");
    eprintln!("wrote {out}");
}
