//! The [`Topology`] type: a complete latency/coherence description of one
//! machine.

use crate::atomics::RmwCosts;
use crate::layer::{Layer, LayerId};
use crate::platforms::Platform;

/// Index of a physical processor core. The paper pins OpenMP thread `i` to
/// core `i`, and every harness in this workspace does the same, so thread
/// ids and core ids coincide throughout.
pub type CoreId = usize;

/// Coherence-protocol cost parameters consumed by the cache simulator
/// (`armbar-simcoh`), complementing the per-layer `α_i` weights.
///
/// The paper's analytical model (Section III-B) covers the per-operation
/// costs; these additional coefficients capture the *contention* effects the
/// paper describes qualitatively (hot-spot serialization on the on-chip
/// network, Section IV-B) and quantitatively via the reader-contention
/// coefficient `c` of Eq. (3).
#[derive(Debug, Clone, PartialEq)]
pub struct CoherenceParams {
    /// Per-extra-sharer cost (ns) of a store's invalidation fan-out.
    ///
    /// A store to a line shared by `n` other cores pays
    /// `α_i·L_i + inv_ns·(n−1)` on top of the ownership transfer. This is
    /// the serialization of invalidation traffic at the network controller;
    /// it is the term that makes centralized barriers collapse on many-core
    /// ARM parts.
    pub inv_ns: f64,
    /// The paper's reader-contention coefficient `c` (ns): the `j`-th of a
    /// crowd of simultaneous readers of one line pays an extra `c·(j−1)`.
    pub read_contention_ns: f64,
    /// Multiplicative jitter amplitude (fraction of each op's cost),
    /// modelling run-to-run fluctuation. Near zero everywhere except
    /// Kunpeng 920, whose barrier overhead the paper reports as
    /// "fluctuating dramatically".
    pub jitter: f64,
    /// On-chip network service interval (ns per remote transaction).
    ///
    /// Models the aggregate bandwidth of the interconnect: concurrent
    /// remote transfers queue at this rate machine-wide. Near zero for
    /// algorithms that send O(log P) messages per phase; decisive for
    /// all-to-all patterns — the paper blames exactly this for the
    /// dissemination barrier's poor scalability on ARMv8 ("the concurrent
    /// memory accesses for setting flags during pairwise communications
    /// increase the contention of the on-chip network", Section IV-B).
    pub noc_ns: f64,
}

impl CoherenceParams {
    /// Validates ranges. `inv_ns`/`read_contention_ns` must be ≥ 0 and
    /// finite; `jitter` must lie in `[0, 1)`.
    pub fn new(inv_ns: f64, read_contention_ns: f64, jitter: f64) -> Self {
        assert!(inv_ns.is_finite() && inv_ns >= 0.0, "inv_ns out of range: {inv_ns}");
        assert!(
            read_contention_ns.is_finite() && read_contention_ns >= 0.0,
            "read_contention_ns out of range: {read_contention_ns}"
        );
        assert!((0.0..1.0).contains(&jitter), "jitter out of range: {jitter}");
        Self { inv_ns, read_contention_ns, jitter, noc_ns: 0.0 }
    }

    /// Sets the on-chip network service interval (ns per remote
    /// transaction); see [`CoherenceParams::noc_ns`].
    pub fn with_noc_ns(mut self, noc_ns: f64) -> Self {
        assert!(noc_ns.is_finite() && noc_ns >= 0.0, "noc_ns out of range: {noc_ns}");
        self.noc_ns = noc_ns;
        self
    }
}

/// A complete machine model: core count, cache-line size, cluster
/// hierarchy, and the layered core-to-core latency table.
///
/// Construct presets with [`Topology::preset`] or custom machines with
/// [`crate::TopologyBuilder`].
#[derive(Debug, Clone)]
pub struct Topology {
    pub(crate) name: String,
    pub(crate) num_cores: usize,
    pub(crate) cacheline_bytes: usize,
    /// Local cache access latency `ε` in ns.
    pub(crate) epsilon_ns: f64,
    /// Latency layers `L_0..L_k`.
    pub(crate) layers: Vec<Layer>,
    /// Dense `num_cores × num_cores` matrix of layer ids; diagonal is LOCAL.
    pub(crate) pair_layer: Vec<LayerId>,
    /// Dense `num_cores × num_cores` cache of [`Topology::latency_ns`]:
    /// `latency_matrix[a·n + b] = layer_latency_ns(layer(a, b))`. Built once
    /// at construction so the simulator's per-operation hot path is a single
    /// indexed load instead of layer lookup + branch.
    pub(crate) latency_matrix: Vec<f64>,
    /// Dense `num_cores × num_cores` cache of [`Topology::rfo_ns`]:
    /// `rfo_matrix[w·n + h] = α_i · L_i` for the layer joining `w` and `h`.
    pub(crate) rfo_matrix: Vec<f64>,
    /// Logical core-cluster size `N_c` (Section III-A).
    pub(crate) n_c: usize,
    pub(crate) coherence: CoherenceParams,
    /// Per-op-kind atomic RMW surcharge parameters (DESIGN.md §17).
    /// [`RmwCosts::legacy`] unless the preset/builder differentiates.
    pub(crate) rmw_costs: RmwCosts,
}

impl Topology {
    /// Builds one of the preset machines: the four evaluated in the paper
    /// plus the two MemPool-style kilocore extrapolations.
    pub fn preset(platform: Platform) -> Self {
        match platform {
            Platform::Phytium2000Plus => crate::platforms::phytium_2000plus(),
            Platform::ThunderX2 => crate::platforms::thunderx2(),
            Platform::Kunpeng920 => crate::platforms::kunpeng920(),
            Platform::XeonGold => crate::platforms::xeon_gold(),
            Platform::MemPool256 => crate::platforms::mempool_256(),
            Platform::MemPool1024 => crate::platforms::mempool_1024(),
        }
    }

    /// Machine name, e.g. `"Phytium 2000+"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical cores (= maximum number of pinned threads).
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Cache-line size in bytes (64 on Phytium 2000+/ThunderX2/Xeon,
    /// 128 on Kunpeng 920).
    pub fn cacheline_bytes(&self) -> usize {
        self.cacheline_bytes
    }

    /// Local cache access latency `ε` in nanoseconds.
    pub fn epsilon_ns(&self) -> f64 {
        self.epsilon_ns
    }

    /// The logical core-cluster size `N_c`: 4 on Phytium 2000+ (core
    /// group), 32 on ThunderX2 (socket), 4 on Kunpeng 920 (CCL).
    pub fn n_c(&self) -> usize {
        self.n_c
    }

    /// The latency layers `L_0..L_k`, innermost first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Coherence contention parameters for the simulator.
    pub fn coherence(&self) -> &CoherenceParams {
        &self.coherence
    }

    /// Per-op-kind atomic RMW surcharge parameters.
    #[inline]
    pub fn rmw_costs(&self) -> &RmwCosts {
        &self.rmw_costs
    }

    /// Returns a copy of this machine with a different RMW cost table —
    /// everything else (latencies, coherence) unchanged. Used by
    /// the identity tests to run an ARM preset under the legacy shared
    /// surcharge, and by experiments that sweep cost shapes.
    pub fn with_rmw_costs(mut self, costs: RmwCosts) -> Self {
        self.rmw_costs = costs;
        self
    }

    /// The latency layer joining cores `a` and `b` ([`LayerId::LOCAL`] when
    /// `a == b`).
    ///
    /// # Panics
    /// Panics if either core id is out of range.
    #[inline]
    pub fn layer(&self, a: CoreId, b: CoreId) -> LayerId {
        assert!(a < self.num_cores && b < self.num_cores, "core id out of range");
        self.pair_layer[a * self.num_cores + b]
    }

    /// Cache-to-cache transfer latency between cores `a` and `b` in ns
    /// (`ε` when `a == b`). Served from the precomputed latency matrix.
    ///
    /// # Panics
    /// Panics if either core id is out of range.
    #[inline]
    pub fn latency_ns(&self, a: CoreId, b: CoreId) -> f64 {
        assert!(a < self.num_cores && b < self.num_cores, "core id out of range");
        self.latency_matrix[a * self.num_cores + b]
    }

    /// Latency of a given layer in ns.
    #[inline]
    pub fn layer_latency_ns(&self, layer: LayerId) -> f64 {
        if layer.is_local() {
            self.epsilon_ns
        } else {
            self.layers[layer.index()].latency_ns
        }
    }

    /// RFO weight `α_i` of a layer (`0` for the local layer: invalidating
    /// your own copy is free).
    #[inline]
    pub fn alpha(&self, layer: LayerId) -> f64 {
        if layer.is_local() {
            0.0
        } else {
            self.layers[layer.index()].alpha
        }
    }

    /// Cost in ns of sending an RFO invalidation from `writer` to a sharer
    /// at `holder`: `α_i · L_i` (Section III-B). Served from the precomputed
    /// RFO matrix.
    ///
    /// # Panics
    /// Panics if either core id is out of range.
    #[inline]
    pub fn rfo_ns(&self, writer: CoreId, holder: CoreId) -> f64 {
        assert!(writer < self.num_cores && holder < self.num_cores, "core id out of range");
        self.rfo_matrix[writer * self.num_cores + holder]
    }

    /// Row `a` of the latency matrix: `latency_ns(a, b)` for every `b`.
    /// The simulator iterates these rows in its per-sharer loops.
    #[inline]
    pub fn latency_row(&self, a: CoreId) -> &[f64] {
        &self.latency_matrix[a * self.num_cores..(a + 1) * self.num_cores]
    }

    /// Row `w` of the RFO matrix: `rfo_ns(w, h)` for every `h`.
    #[inline]
    pub fn rfo_row(&self, w: CoreId) -> &[f64] {
        &self.rfo_matrix[w * self.num_cores..(w + 1) * self.num_cores]
    }

    /// Logical cluster index of a core (cores `[k·N_c, (k+1)·N_c)` form
    /// cluster `k`). Thread grouping and the NUMA-aware wake-up tree are
    /// built from this.
    #[inline]
    pub fn cluster_of(&self, core: CoreId) -> usize {
        core / self.n_c
    }

    /// Number of logical clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_cores.div_ceil(self.n_c)
    }

    /// `true` when the two cores are in the same logical cluster.
    #[inline]
    pub fn same_cluster(&self, a: CoreId, b: CoreId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// The largest (outermost) layer latency of the machine, in ns.
    pub fn max_latency_ns(&self) -> f64 {
        self.layers.iter().map(|l| l.latency_ns).fold(self.epsilon_ns, f64::max)
    }

    /// Average of `latency_ns(a, b)` over all ordered pairs of *distinct*
    /// cores among the first `p` cores. Used by the analytical model to
    /// collapse the layered table into a single effective `L`.
    pub fn mean_remote_latency_ns(&self, p: usize) -> f64 {
        let p = p.min(self.num_cores);
        if p < 2 {
            return self.epsilon_ns;
        }
        let mut sum = 0.0;
        let mut n = 0u64;
        for a in 0..p {
            for b in 0..p {
                if a != b {
                    sum += self.latency_ns(a, b);
                    n += 1;
                }
            }
        }
        sum / n as f64
    }

    /// Fills the dense latency/RFO caches from the layer table. Called once
    /// by the builder, after validation; the cached values are exactly the
    /// per-call layer math they replace (same expressions, same `f64`
    /// results), so lookups are bit-identical to the formulas.
    pub(crate) fn compute_matrices(&mut self) {
        let n = self.num_cores;
        let mut latency = vec![0.0; n * n];
        let mut rfo = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                let l = self.pair_layer[a * n + b];
                latency[a * n + b] = self.layer_latency_ns(l);
                rfo[a * n + b] = self.alpha(l) * self.layer_latency_ns(l);
            }
        }
        self.latency_matrix = latency;
        self.rfo_matrix = rfo;
    }

    /// Verifies internal consistency; called by the builder and presets.
    /// Checks the matrix is symmetric, the diagonal is LOCAL, and every
    /// referenced layer exists.
    pub(crate) fn validate(&self) {
        assert_eq!(self.pair_layer.len(), self.num_cores * self.num_cores);
        assert!(self.n_c >= 1 && self.n_c <= self.num_cores);
        for a in 0..self.num_cores {
            for b in 0..self.num_cores {
                let l = self.pair_layer[a * self.num_cores + b];
                if a == b {
                    assert!(l.is_local(), "diagonal of pair_layer must be LOCAL");
                } else {
                    assert!(!l.is_local(), "off-diagonal must not be LOCAL");
                    assert!(
                        l.index() < self.layers.len(),
                        "layer {l} out of range (machine has {} layers)",
                        self.layers.len()
                    );
                    assert_eq!(
                        self.pair_layer[a * self.num_cores + b],
                        self.pair_layer[b * self.num_cores + a],
                        "pair_layer must be symmetric"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in Platform::ALL {
            let t = Topology::preset(p);
            t.validate();
            assert!(t.num_cores() >= 32);
            assert!(t.epsilon_ns() > 0.0);
            assert!(!t.layers().is_empty());
        }
    }

    #[test]
    fn latency_is_symmetric_on_all_presets() {
        for p in Platform::ALL {
            let t = Topology::preset(p);
            for a in (0..t.num_cores()).step_by(7) {
                for b in (0..t.num_cores()).step_by(5) {
                    assert_eq!(t.latency_ns(a, b), t.latency_ns(b, a), "{p:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn local_latency_is_epsilon() {
        let t = Topology::preset(Platform::ThunderX2);
        for c in 0..t.num_cores() {
            assert_eq!(t.latency_ns(c, c), t.epsilon_ns());
            assert!(t.layer(c, c).is_local());
        }
    }

    #[test]
    fn cluster_partitions_cores() {
        for p in Platform::ALL {
            let t = Topology::preset(p);
            let mut seen = vec![0usize; t.num_clusters()];
            for c in 0..t.num_cores() {
                seen[t.cluster_of(c)] += 1;
            }
            assert!(seen.iter().all(|&n| n == t.n_c()), "{p:?}: {seen:?}");
        }
    }

    #[test]
    fn cached_matrices_equal_layer_math_exactly() {
        // The simulator's hot path reads the dense caches; they must be
        // bit-identical to the formulas they replace, on every preset.
        for p in Platform::ALL {
            let t = Topology::preset(p);
            for a in 0..t.num_cores() {
                for b in 0..t.num_cores() {
                    let l = t.layer(a, b);
                    assert_eq!(t.latency_ns(a, b), t.layer_latency_ns(l), "{p:?} {a} {b}");
                    assert_eq!(t.rfo_ns(a, b), t.alpha(l) * t.layer_latency_ns(l), "{p:?} {a} {b}");
                    assert_eq!(t.latency_row(a)[b], t.latency_ns(a, b));
                    assert_eq!(t.rfo_row(a)[b], t.rfo_ns(a, b));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn latency_rejects_out_of_range_core() {
        let t = Topology::preset(Platform::ThunderX2);
        let _ = t.latency_ns(64, 0);
    }

    #[test]
    fn rfo_cost_is_alpha_scaled() {
        let t = Topology::preset(Platform::Phytium2000Plus);
        let l = t.layer(0, 1);
        assert!((t.rfo_ns(0, 1) - t.alpha(l) * t.layer_latency_ns(l)).abs() < 1e-12);
        // RFO to self-cluster is cheaper than cross-panel.
        assert!(t.rfo_ns(0, 1) < t.rfo_ns(0, 63));
    }

    #[test]
    fn mean_remote_latency_grows_with_span() {
        let t = Topology::preset(Platform::Kunpeng920);
        let within_ccl = t.mean_remote_latency_ns(4);
        let within_sccl = t.mean_remote_latency_ns(32);
        let whole = t.mean_remote_latency_ns(64);
        assert!(within_ccl < within_sccl, "{within_ccl} !< {within_sccl}");
        assert!(within_sccl < whole, "{within_sccl} !< {whole}");
    }

    #[test]
    fn mean_remote_latency_degenerate_cases() {
        let t = Topology::preset(Platform::ThunderX2);
        assert_eq!(t.mean_remote_latency_ns(0), t.epsilon_ns());
        assert_eq!(t.mean_remote_latency_ns(1), t.epsilon_ns());
        // Requests beyond the core count clamp.
        assert_eq!(t.mean_remote_latency_ns(10_000), t.mean_remote_latency_ns(64));
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn layer_rejects_out_of_range_core() {
        let t = Topology::preset(Platform::ThunderX2);
        let _ = t.layer(0, 64);
    }

    #[test]
    fn coherence_params_validate() {
        let p = CoherenceParams::new(5.0, 2.0, 0.1);
        assert_eq!(p.inv_ns, 5.0);
    }

    #[test]
    #[should_panic(expected = "jitter out of range")]
    fn coherence_params_reject_bad_jitter() {
        let _ = CoherenceParams::new(5.0, 2.0, 1.0);
    }
}
