//! Small statistics helpers: medians, quantiles, the output digest and
//! the process's peak memory.

use std::collections::HashMap;

use crate::trace::Span;

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of integer samples (`q` in [0, 1]).
pub fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Log-linear histogram of non-negative integers (ns): exact below 32,
/// then 32 buckets per power of two (about 3% resolution). Fixed size, so
/// a long run records every sample without growing.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    const SUB_BITS: u32 = 5;

    pub fn new() -> Self {
        Self { counts: vec![0; 64 << Self::SUB_BITS] }
    }

    fn index(v: u64) -> usize {
        if v < 1 << Self::SUB_BITS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - Self::SUB_BITS)) & ((1 << Self::SUB_BITS) - 1);
        (((e - Self::SUB_BITS + 1) << Self::SUB_BITS) as u64 + sub) as usize
    }

    /// Smallest value that falls into bucket `i`.
    fn lower(i: usize) -> u64 {
        let sub_n = 1usize << Self::SUB_BITS;
        if i < sub_n {
            return i as u64;
        }
        let e = (i >> Self::SUB_BITS) as u32 + Self::SUB_BITS - 1;
        ((sub_n + i % sub_n) as u64) << (e - Self::SUB_BITS)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        self.counts.iter_mut().zip(&other.counts).for_each(|(a, b)| *a += b);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank quantile `q` in [0, 1], as its bucket's lower bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(i);
            }
        }
        0
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Order-sensitive 64-bit fingerprint of a stream of words (SplitMix64
/// finalizer over the running state), for comparing simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0x243F_6A88_85A3_08D3)
    }

    pub fn add(&mut self, word: u64) {
        let mut z = self.0.wrapping_add(word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Seed of item `i` under base seed `base`: independent streams per item.
pub fn item_seed(base: u64, i: u64) -> u64 {
    let mut d = Digest::new();
    d.add(base);
    d.add(i);
    d.value()
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// For every root span named `root` (in start order), the summed duration
/// in seconds of each span name among its descendants.
pub fn per_root_sums(spans: &[Span], root: &str) -> Vec<HashMap<&'static str, f64>> {
    let parent: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    roots.sort_by_key(|s| s.start_ns);
    let index: HashMap<u64, usize> = roots.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out = vec![HashMap::new(); roots.len()];
    for s in spans {
        let mut cur = s.parent;
        while cur != 0 {
            if let Some(&i) = index.get(&cur) {
                *out[i].entry(s.name).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
                break;
            }
            cur = parent.get(&cur).copied().unwrap_or(0);
        }
    }
    out
}

/// The spans named `root` together with all their descendants.
pub fn under_root(spans: &[Span], root: &str) -> Vec<Span> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| {
            let mut cur = Some(*s);
            while let Some(c) = cur {
                if c.name == root {
                    return true;
                }
                cur = by_id.get(&c.parent).copied();
            }
            false
        })
        .copied()
        .collect()
}

/// Median over roots named `root` of the summed seconds of spans `name`.
pub fn median_span_sum(spans: &[Span], root: &str, name: &str) -> f64 {
    let v: Vec<f64> =
        per_root_sums(spans, root).iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_linear_interpolation() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(percentile_u64(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.99), 10);
        assert_eq!(percentile_u64(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.5), 5);
    }

    #[test]
    fn histogram_buckets_round_down_within_three_percent() {
        let mut h = Histogram::new();
        for v in [0, 31, 32, 33, 1000, 123_456_789, u64::MAX] {
            let lo = Histogram::lower(Histogram::index(v));
            assert!(lo <= v && v - lo <= v / 32, "{v} -> {lo}");
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 33);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
    }
}
