//! Fixed-bucket histograms and counters behind span-recording tracers.
//!
//! Buckets are powers of two in nanoseconds (bucket `i` holds samples in
//! `[2^i, 2^(i+1))`), so observation is a leading-zeros instruction plus
//! an array increment — cheap enough for WAL-append hot paths. The same
//! registry doubles as a per-phase event counter for virtual-clock spans
//! (tick durations use the identical bucket math).

use std::sync::Mutex;

use crate::event::Phase;

const N_BUCKETS: usize = 64;

/// One phase's histogram: power-of-two buckets plus exact sum/count/max.
#[derive(Debug, Clone)]
struct PhaseHist {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl PhaseHist {
    fn new() -> PhaseHist {
        PhaseHist { buckets: [0; N_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    fn observe(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(N_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// The upper bound of the bucket holding the q-quantile sample (a
    /// conservative estimate: true value ≤ reported value < 2× true).
    fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i.min(63);
            }
        }
        self.max
    }
}

/// A thread-safe span registry: one histogram per [`Phase`].
#[derive(Debug)]
pub struct Registry {
    hists: Mutex<Vec<PhaseHist>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry covering every phase.
    pub fn new() -> Registry {
        Registry { hists: Mutex::new(vec![PhaseHist::new(); Phase::ALL.len()]) }
    }

    /// Records one sample (nanoseconds for wall-clock spans, ticks for
    /// virtual-clock spans) under `phase`.
    pub fn observe(&self, phase: Phase, value: u64) {
        let mut hists = self.hists.lock().expect("registry lock");
        hists[phase.index()].observe(value);
    }

    /// One phase's `(p50_bound, p99_bound)` without allocating a
    /// snapshot — two bucket scans under the lock. `None` when the phase
    /// has no samples.
    pub fn phase_quantiles(&self, phase: Phase) -> Option<(u64, u64)> {
        let hists = self.hists.lock().expect("registry lock");
        let h = &hists[phase.index()];
        (h.count > 0).then(|| (h.quantile_bound(0.50), h.quantile_bound(0.99)))
    }

    /// An immutable snapshot of every phase with at least one sample.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let hists = self.hists.lock().expect("registry lock");
        let phases = Phase::ALL
            .iter()
            .zip(hists.iter())
            .filter(|(_, h)| h.count > 0)
            .map(|(&phase, h)| PhaseSnapshot {
                phase,
                count: h.count,
                total: h.sum,
                max: h.max,
                p50_bound: h.quantile_bound(0.50),
                p99_bound: h.quantile_bound(0.99),
            })
            .collect();
        RegistrySnapshot { phases }
    }
}

/// Aggregates for one phase, frozen by [`Registry::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// The phase.
    pub phase: Phase,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns or ticks).
    pub total: u64,
    /// Largest sample.
    pub max: u64,
    /// Upper bucket bound of the median sample.
    pub p50_bound: u64,
    /// Upper bucket bound of the 99th-percentile sample.
    pub p99_bound: u64,
}

impl PhaseSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Every phase with samples, in [`Phase::ALL`] order.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Per-phase aggregates.
    pub phases: Vec<PhaseSnapshot>,
}

impl RegistrySnapshot {
    /// The snapshot for `phase`, if it recorded any sample.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_aggregate_per_phase() {
        let r = Registry::new();
        r.observe(Phase::Install, 100);
        r.observe(Phase::Install, 300);
        r.observe(Phase::WalAppend, 7);
        let snap = r.snapshot();
        assert_eq!(snap.phases.len(), 2);
        let install = snap.phase(Phase::Install).unwrap();
        assert_eq!(install.count, 2);
        assert_eq!(install.total, 400);
        assert_eq!(install.max, 300);
        assert!((install.mean() - 200.0).abs() < 1e-9);
        assert_eq!(snap.phase(Phase::WalAppend).unwrap().count, 1);
        assert!(snap.phase(Phase::Rewrite).is_none());
    }

    #[test]
    fn quantile_bounds_bracket_samples() {
        let r = Registry::new();
        for v in [1u64, 2, 4, 8, 1000] {
            r.observe(Phase::Sync, v);
        }
        let s = *r.snapshot().phase(Phase::Sync).unwrap();
        // Median sample is 4 → its bucket's upper bound is 8.
        assert_eq!(s.p50_bound, 8);
        // p99 lands in the 1000 sample's bucket: bound within [1000, 2000).
        assert!(s.p99_bound >= 1000 && s.p99_bound < 2000, "{}", s.p99_bound);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn zero_and_huge_samples_stay_in_range() {
        let r = Registry::new();
        r.observe(Phase::Recovery, 0);
        r.observe(Phase::Recovery, u64::MAX);
        let s = *r.snapshot().phase(Phase::Recovery).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // Saturating sum, no panic.
        assert_eq!(s.total, u64::MAX);
    }

    #[test]
    fn snapshot_orders_phases_canonically() {
        let r = Registry::new();
        r.observe(Phase::WalAppend, 1);
        r.observe(Phase::GraphBuild, 1);
        let snap = r.snapshot();
        assert_eq!(snap.phases[0].phase, Phase::GraphBuild);
        assert_eq!(snap.phases[1].phase, Phase::WalAppend);
    }
}
