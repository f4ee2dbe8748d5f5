//! The workspace's one bench-JSON writer, shared by `bench_sim`,
//! `bench_churn` and `serve_load`.
//!
//! Document shape:
//!
//! ```json
//! {
//!   "benches": { "serve_episodes_per_sec": 123, ... },
//!   "baseline": { "serve_episodes_per_sec": 120, ... }
//! }
//! ```
//!
//! `benches` is always this run; `baseline` is carried forward from the
//! committed file, with keys new to this run seeded from the fresh
//! measurement so future deltas always have a reference.

/// One reported metric: a stable key and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// JSON key (e.g. `serve_episodes_per_sec`).
    pub key: String,
    /// Value, rendered with `decimals` fractional digits.
    pub value: f64,
    /// Fractional digits in the rendered value (0 unless set).
    pub decimals: usize,
}

impl Point {
    /// A point rendered with no fractional digits.
    pub fn new(key: &str, value: f64) -> Self {
        Self { key: key.to_string(), value, decimals: 0 }
    }

    /// The same point rendered with `decimals` fractional digits.
    pub fn with_decimals(self, decimals: usize) -> Self {
        Self { decimals, ..self }
    }
}

/// Minimal flat-JSON number extraction: finds `"key": <number>` anywhere
/// (first hit wins — `benches` precedes `baseline`).
pub fn first_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))?;
    rest[..end].parse().ok()
}

/// Extracts the committed `baseline` section verbatim, if present.
fn baseline_section(json: &str) -> Option<String> {
    let at = json.find("\"baseline\": {")?;
    let open = at + "\"baseline\": ".len();
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn render_section(points: &[Point]) -> String {
    let mut s = String::from("{\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {:.*}{sep}\n", p.key, p.decimals, p.value));
    }
    s.push_str("  }");
    s
}

/// Renders the full two-section document, carrying `previous`'s baseline
/// forward (new keys seeded from the fresh points). `unmeasured` names the
/// keys this run skipped, with their decimals: each keeps its previous
/// baseline value after the fresh keys, or is left out if it has none.
pub fn render_doc(
    points: &[Point],
    unmeasured: &[(&str, usize)],
    previous: Option<&str>,
) -> String {
    let old_baseline = previous.and_then(baseline_section);
    let old = |key: &str| old_baseline.as_deref().and_then(|o| first_number(o, key));
    let carried: Vec<Point> = points
        .iter()
        .map(|p| Point { value: old(&p.key).unwrap_or(p.value), ..p.clone() })
        .chain(unmeasured.iter().filter_map(|&(key, decimals)| {
            old(key).map(|value| Point::new(key, value).with_decimals(decimals))
        }))
        .collect();
    format!(
        "{{\n  \"benches\": {},\n  \"baseline\": {}\n}}\n",
        render_section(points),
        render_section(&carried)
    )
}

/// `(key, committed, fresh)` rows for every point also present in the
/// committed document's `benches` section.
pub fn deltas(points: &[Point], previous: &str) -> Vec<(String, f64, f64)> {
    points
        .iter()
        .filter_map(|p| first_number(previous, &p.key).map(|old| (p.key.clone(), old, p.value)))
        .collect()
}

/// Prints the delta rows against the committed file `out` to stderr.
pub fn print_deltas(out: &str, rows: &[(String, f64, f64)]) {
    if !rows.is_empty() {
        eprintln!("-- delta vs committed {out} --");
    }
    for (key, old, new) in rows {
        eprintln!("{key:>40}: {:+.1}% ({old:.0} -> {new:.0})", (new / old - 1.0) * 100.0);
    }
}

/// The CI step-summary markdown table for a set of deltas (falls back to
/// a committed-less table when `rows` is empty).
pub fn summary_markdown(title: &str, points: &[Point], rows: &[(String, f64, f64)]) -> String {
    let mut md =
        format!("## {title}\n\n| key | committed | this run | delta |\n|---|---:|---:|---:|\n");
    if rows.is_empty() {
        for p in points {
            md.push_str(&format!("| `{}` | _none_ | {:.0} | |\n", p.key, p.value));
        }
    } else {
        for (key, old, new) in rows {
            md.push_str(&format!(
                "| `{key}` | {old:.0} | {new:.0} | {:+.1}% |\n",
                (new / old - 1.0) * 100.0
            ));
        }
    }
    md
}

/// Appends `md` to the step-summary file at `path`.
pub fn append_summary(path: &str, md: &str) {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(md.as_bytes()))
        .expect("failed to append --summary file");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        vec![Point::new("serve_episodes_per_sec", 1_500_000.0), Point::new("serve_teams", 10_000.0)]
    }

    #[test]
    fn fresh_doc_seeds_baseline_from_run() {
        let doc = render_doc(&pts(), &[], None);
        let base = baseline_section(&doc).expect("baseline present");
        assert_eq!(first_number(&base, "serve_episodes_per_sec"), Some(1_500_000.0));
        assert_eq!(first_number(&doc, "serve_teams"), Some(10_000.0));
    }

    #[test]
    fn baseline_carries_forward_and_new_keys_seed_fresh() {
        let first = render_doc(&pts(), &[], None);
        let mut next = pts();
        next[0].value = 2_000_000.0; // faster run must not move the baseline
        next.push(Point::new("serve_p99_episode_ns", 900.0)); // new key
        let doc = render_doc(&next, &[], Some(&first));
        let base = baseline_section(&doc).expect("baseline present");
        assert_eq!(first_number(&base, "serve_episodes_per_sec"), Some(1_500_000.0));
        assert_eq!(first_number(&base, "serve_p99_episode_ns"), Some(900.0));
        // benches section always reflects this run (first hit wins).
        assert_eq!(first_number(&doc, "serve_episodes_per_sec"), Some(2_000_000.0));
    }

    #[test]
    fn deltas_pair_committed_with_fresh() {
        let first = render_doc(&pts(), &[], None);
        let mut next = pts();
        next[1].value = 20_000.0;
        let d = deltas(&next, &first);
        assert!(d.contains(&("serve_teams".to_string(), 10_000.0, 20_000.0)));
    }

    #[test]
    fn summary_markdown_has_header_and_rows() {
        let rows = vec![("serve_teams".to_string(), 10_000.0, 11_000.0)];
        let md = summary_markdown("Serve load", &pts(), &rows);
        assert!(md.contains("## Serve load"));
        assert!(md.contains("| `serve_teams` | 10000 | 11000 | +10.0% |"));
        let md_empty = summary_markdown("Serve load", &pts(), &[]);
        assert!(md_empty.contains("_none_"));
    }

    /// The documents each writer rendered with its own private copy of
    /// this code, for fixed fresh numbers: `bench_sim` (engine keys plus
    /// the two-decimal quick-suite key, measured or skipped), `bench_churn`
    /// and `serve_load`, each without and with a committed file.
    #[test]
    fn every_writer_renders_the_bytes_of_its_former_copy() {
        const QUICK: &str = "all_experiments_quick_secs";
        let sim = |quick: Option<f64>| {
            let mut v = vec![
                Point::new("engine_ops_per_sec_sense_p16", 3257889.4),
                Point::new("engine_ops_per_sec_sense_p1024", 113150.6),
                Point::new("engine_ops_per_sec_stour_p256", 2023998.5),
            ];
            v.extend(quick.map(|q| Point::new(QUICK, q).with_decimals(2)));
            v
        };
        let sim_prev = "{\n  \"benches\": {\n    \"engine_ops_per_sec_sense_p16\": 3000000,\n    \
            \"engine_ops_per_sec_sense_p1024\": 120000,\n    \"all_experiments_quick_secs\": 20.50\n  \
            },\n  \"baseline\": {\n    \"engine_ops_per_sec_sense_p16\": 163488,\n    \
            \"engine_ops_per_sec_sense_p1024\": 132938,\n    \"all_experiments_quick_secs\": 11.95\n  \
            }\n}\n";
        let churn = vec![
            Point::new("episodes_per_sec_ph-ctr_p64_steady", 3941.49),
            Point::new("episodes_per_sec_ph-tree_p64_churn10", 4272.5),
        ];
        let churn_prev =
            "{\n  \"benches\": {\n    \"episodes_per_sec_ph-ctr_p64_steady\": 3900\n  \
            },\n  \"baseline\": {\n    \"episodes_per_sec_ph-ctr_p64_steady\": 3800\n  }\n}\n";
        let serve = vec![
            Point::new("serve_episodes_per_sec", 866012.7),
            Point::new("serve_p99_episode_ns", 1537.0),
            Point::new("serve_teams", 4096.0),
        ];
        let serve_prev = "{\n  \"benches\": {\n    \"serve_episodes_per_sec\": 900000,\n    \
            \"serve_teams\": 4096\n  },\n  \"baseline\": {\n    \"serve_episodes_per_sec\": 1500000\n  \
            }\n}\n";
        let sim_keys = "    \"engine_ops_per_sec_sense_p16\": 3257889,\n    \
            \"engine_ops_per_sec_sense_p1024\": 113151,\n    \
            \"engine_ops_per_sec_stour_p256\": 2023998";
        let sim_old = "    \"engine_ops_per_sec_sense_p16\": 163488,\n    \
            \"engine_ops_per_sec_sense_p1024\": 132938,\n    \
            \"engine_ops_per_sec_stour_p256\": 2023998";
        let doc = |benches: &str, baseline: &str| {
            format!("{{\n  \"benches\": {{\n{benches}\n  }},\n  \"baseline\": {{\n{baseline}\n  }}\n}}\n")
        };
        let quick = ",\n    \"all_experiments_quick_secs\": 24.21";
        let old_quick = ",\n    \"all_experiments_quick_secs\": 11.95";
        let unmeasured = [(QUICK, 2)];
        let table: Vec<(&str, String, String)> = vec![
            (
                "sim, fresh",
                render_doc(&sim(Some(24.214)), &[], None),
                doc(&format!("{sim_keys}{quick}"), &format!("{sim_keys}{quick}")),
            ),
            (
                "sim, committed",
                render_doc(&sim(Some(24.214)), &[], Some(sim_prev)),
                doc(&format!("{sim_keys}{quick}"), &format!("{sim_old}{old_quick}")),
            ),
            (
                "sim, --skip-experiments, committed",
                render_doc(&sim(None), &unmeasured, Some(sim_prev)),
                doc(sim_keys, &format!("{sim_old}{old_quick}")),
            ),
            ("sim, --skip-experiments, fresh", render_doc(&sim(None), &unmeasured, None), {
                doc(sim_keys, sim_keys)
            }),
            (
                "churn, fresh",
                render_doc(&churn, &[], None),
                doc(
                    "    \"episodes_per_sec_ph-ctr_p64_steady\": 3941,\n    \
                     \"episodes_per_sec_ph-tree_p64_churn10\": 4272",
                    "    \"episodes_per_sec_ph-ctr_p64_steady\": 3941,\n    \
                     \"episodes_per_sec_ph-tree_p64_churn10\": 4272",
                ),
            ),
            (
                "churn, committed",
                render_doc(&churn, &[], Some(churn_prev)),
                doc(
                    "    \"episodes_per_sec_ph-ctr_p64_steady\": 3941,\n    \
                     \"episodes_per_sec_ph-tree_p64_churn10\": 4272",
                    "    \"episodes_per_sec_ph-ctr_p64_steady\": 3800,\n    \
                     \"episodes_per_sec_ph-tree_p64_churn10\": 4272",
                ),
            ),
            (
                "serve, fresh",
                render_doc(&serve, &[], None),
                doc(
                    "    \"serve_episodes_per_sec\": 866013,\n    \
                     \"serve_p99_episode_ns\": 1537,\n    \"serve_teams\": 4096",
                    "    \"serve_episodes_per_sec\": 866013,\n    \
                     \"serve_p99_episode_ns\": 1537,\n    \"serve_teams\": 4096",
                ),
            ),
            (
                "serve, committed",
                render_doc(&serve, &[], Some(serve_prev)),
                doc(
                    "    \"serve_episodes_per_sec\": 866013,\n    \
                     \"serve_p99_episode_ns\": 1537,\n    \"serve_teams\": 4096",
                    "    \"serve_episodes_per_sec\": 1500000,\n    \
                     \"serve_p99_episode_ns\": 1537,\n    \"serve_teams\": 4096",
                ),
            ),
            (
                "sim summary",
                summary_markdown("Simulator perf gate", &sim(None), &deltas(&sim(None), sim_prev)),
                "## Simulator perf gate\n\n| key | committed | this run | delta |\n\
                 |---|---:|---:|---:|\n\
                 | `engine_ops_per_sec_sense_p16` | 3000000 | 3257889 | +8.6% |\n\
                 | `engine_ops_per_sec_sense_p1024` | 120000 | 113151 | -5.7% |\n"
                    .to_string(),
            ),
            (
                "churn summary",
                summary_markdown("Phaser churn bench (non-blocking)", &churn, &[]),
                "## Phaser churn bench (non-blocking)\n\n| key | committed | this run | delta |\n\
                 |---|---:|---:|---:|\n\
                 | `episodes_per_sec_ph-ctr_p64_steady` | _none_ | 3941 | |\n\
                 | `episodes_per_sec_ph-tree_p64_churn10` | _none_ | 4272 | |\n"
                    .to_string(),
            ),
        ];
        for (name, got, want) in table {
            assert_eq!(got, want, "{name}");
        }
    }
}
