//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a workspace layer in a
//! span (name, start, end, parent, and for `serve` the episode id shared
//! by every span of one episode). Spans stay in memory and are written
//! out once the run ends. A disabled tracer records nothing and never
//! reads the clock, so untraced passes pay one branch per call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are ns since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request id shared by related spans (one `serve` episode); 0 if none.
    pub group: u64,
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64) -> Guard<'_> {
        self.span_in(name, parent, 0)
    }

    /// [`Tracer::span`] tagged with a request id.
    pub fn span_in(&self, name: &'static str, parent: u64, group: u64) -> Guard<'_> {
        if !self.on {
            return Guard { tracer: self, id: 0, parent, group, name, start_ns: 0 };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Guard { tracer: self, id, parent, group, name, start_ns: self.now_ns() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").clone()
    }
}

/// An open span; records itself on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard<'_> {
    /// Id to pass as the parent of child spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.tracer.on {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            group: self.group,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // Never panic in drop: a poisoned buffer just loses the span.
        if let Ok(mut v) = self.tracer.spans.lock() {
            v.push(span);
        }
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval that its children cover (children may overlap when
/// they ran on different pool workers, so their union is subtracted).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = kids.get_mut(&s.id).map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        *out.entry(s.layer()).or_insert(0.0) += (s.dur_ns() - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `iv` clipped to `[lo, hi]`.
fn union_len(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

/// Writes spans as tab-separated lines with a header.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tgroup\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, group: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "sweep.run", 0, 100),
            span(2, 1, "simcoh.run", 10, 60),
            span(3, 1, "simcoh.run", 40, 80), // overlaps the first child
        ];
        let st = self_time_by_layer(&spans);
        assert!((st["sweep"] - 30e-9).abs() < 1e-15, "{st:?}");
        assert!((st["simcoh"] - 90e-9).abs() < 1e-15, "{st:?}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("bench.pass", 0);
        assert_eq!(g.id(), 0);
        drop(g);
        assert!(t.spans().is_empty());
    }
}
