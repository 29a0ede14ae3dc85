//! Closest-match subsequence search (§2.1, "closest (best) match").
//!
//! Given a pattern `S` and a series `T`, the closest match is the
//! length-`|S|` window of `T` minimizing the Euclidean distance to `S`. Both
//! the pattern and every candidate window are z-normalized (the patterns the
//! pipeline produces are centroids of z-normalized subsequences, and test
//! series arrive in raw units), and the distance is divided by `sqrt(|S|)`
//! so that closest-match distances of *different-length* patterns are
//! commensurable — Algorithm 2 compares a candidate against previously kept
//! candidates of other lengths, and the feature-space transform mixes
//! per-pattern distances of many lengths in one vector.
//!
//! # The fused rolling-statistics kernel
//!
//! [`best_match`] is the hot kernel of the whole reproduction (§5.3: every
//! train/test series is scanned against every candidate and representative
//! pattern). It is implemented UCR-Suite style:
//!
//! * **O(1) window statistics.** Per-window mean/σ come from
//!   [`RollingStats`] (compensated rolling sums of `x` and `x²` over the
//!   globally centered series) instead of an O(n) [`znorm_into`] pass per
//!   window.
//! * **Fused normalization.** The z-normalized window is never
//!   materialized: each term of the distance is computed as
//!   `(zp_i − (x_i − μ)/σ)²` on the fly. (The closed dot-product
//!   expansion `d² = Σzp² + n − (2/σ)·(Σ zpᵢxᵢ − μ·Σzpᵢ)` is
//!   deliberately *not* used: it cancels catastrophically at d ≈ 0 —
//!   see the comment in the exhaustive branch.)
//! * **Early abandoning in decreasing-|zp| order.** The largest pattern
//!   coefficients contribute the largest squared differences on average, so
//!   accumulating in that order crosses the best-so-far cutoff far sooner
//!   than left-to-right order does.
//! * **[`MatchPlan`]** caches the per-pattern work (z-normalization, the
//!   |zp| sort, `Σzp²`): prepare once, search many series.
//!
//! The pre-optimization kernel survives as [`best_match_naive`] behind the
//! same signature — it is the oracle of the differential test suite
//! (`tests/kernel_diff.rs`) and the ablation baseline in the benches.
//! Because the two kernels accumulate in different orders, their distances
//! are *tolerance-equal* (≤1e-9 relative), not bit-equal; winning positions
//! agree exactly (ties at exactly 0.0 resolve to the first window in both).
//!
//! σ = 0 windows follow the [`crate::norm`] convention in every kernel: a
//! window whose σ falls below [`ZNORM_EPSILON`] z-normalizes to all zeros,
//! so its distance is `‖z(pattern)‖` (and a constant *pattern* is
//! degenerate — the plan falls back to the naive scan, where every
//! non-constant window scores the same and the first wins).

use crate::norm::{znorm, znorm_into, ZNORM_EPSILON};
use crate::stats::RollingStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-request kernel counters for the closest-match search: a shared
/// accumulator threaded (as `Option<&ScanCounters>`) from the serving
/// path down through the feature transform into
/// [`MatchPlan::best_match_counted`]. Atomic so one request's batch can
/// be transformed across worker threads into the same accumulator;
/// relaxed ordering is enough because the totals are only read after the
/// batch joins.
///
/// Distinct from the process-wide `rpm-obs` counters the kernel already
/// self-reports: these are scoped to one request and end up as
/// attributes on its `predict` trace span.
#[derive(Debug, Default)]
pub struct ScanCounters {
    /// Closest-match searches (pattern × series pairs scanned).
    pub searches: AtomicU64,
    /// Candidate windows considered across all searches.
    pub windows: AtomicU64,
    /// Windows abandoned early (distance accumulation crossed the
    /// best-so-far cutoff before finishing).
    pub abandoned: AtomicU64,
    /// Windows killed by the O(1) first/last z-value bound (tier 1 of
    /// the batched cascade) before any exact accumulation.
    pub pruned_first_last: AtomicU64,
    /// Windows killed by the PAA envelope bound (tier 2).
    pub pruned_envelope: AtomicU64,
    /// Always 0: the cascade has no SAX MINDIST tier. Kept so reports,
    /// dashboards and trace attributes that name the field still parse.
    pub pruned_sax: AtomicU64,
    /// `RollingStats` constructions: once per scan for the rolling
    /// kernel, once per (series, pattern length) for the batched kernel
    /// — the shared-statistics win is visible as `stats_builds` ≪
    /// `searches`.
    pub stats_builds: AtomicU64,
    /// Wall nanoseconds spent inside the match kernel.
    pub match_ns: AtomicU64,
}

impl ScanCounters {
    /// A fresh all-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the totals accumulated so far.
    pub fn snapshot(&self) -> ScanStats {
        ScanStats {
            searches: self.searches.load(Ordering::Relaxed),
            windows: self.windows.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            pruned_first_last: self.pruned_first_last.load(Ordering::Relaxed),
            pruned_envelope: self.pruned_envelope.load(Ordering::Relaxed),
            pruned_sax: self.pruned_sax.load(Ordering::Relaxed),
            stats_builds: self.stats_builds.load(Ordering::Relaxed),
            match_ns: self.match_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a [`ScanCounters`] accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Closest-match searches performed.
    pub searches: u64,
    /// Candidate windows considered.
    pub windows: u64,
    /// Windows abandoned before full accumulation.
    pub abandoned: u64,
    /// Windows killed by the first/last z-value bound (cascade tier 1).
    pub pruned_first_last: u64,
    /// Windows killed by the PAA envelope bound (cascade tier 2).
    pub pruned_envelope: u64,
    /// Always 0 (see [`ScanCounters::pruned_sax`]).
    pub pruned_sax: u64,
    /// `RollingStats` constructions performed.
    pub stats_builds: u64,
    /// Wall nanoseconds inside the match kernel.
    pub match_ns: u64,
}

impl ScanStats {
    /// Fraction of considered windows that were abandoned early
    /// (0.0 when nothing was scanned).
    pub fn abandon_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.abandoned as f64 / self.windows as f64
        }
    }

    /// Total windows killed by a lower-bound tier before the exact
    /// distance loop ran.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_first_last + self.pruned_envelope + self.pruned_sax
    }

    /// Fraction of considered windows killed by a lower-bound tier
    /// (0.0 when nothing was scanned; always 0.0 for the per-pattern
    /// kernels, which have no cascade).
    pub fn prune_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.pruned_total() as f64 / self.windows as f64
        }
    }
}

/// Result of a closest-match search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestMatch {
    /// Start offset of the winning window in the target series.
    pub position: usize,
    /// Length-normalized z-normalized Euclidean distance
    /// (`||znorm(S) - znorm(T_p)|| / sqrt(|S|)`).
    pub distance: f64,
}

/// Which closest-match implementation a plan (and everything built on top
/// of it) dispatches to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MatchKernel {
    /// The fused rolling-statistics kernel.
    Rolling,
    /// The pre-optimization per-window re-normalizing scan — the
    /// differential-test oracle and ablation baseline.
    Naive,
    /// The pattern-set × series cascade kernel (the default): shared
    /// `RollingStats` per series, per-window lower-bound pruning
    /// (first/last z-values, PAA envelope) before the exact rolling
    /// accumulation. Bit-identical to
    /// [`Rolling`](Self::Rolling) — a single-pattern scan through a
    /// `Batched` plan dispatches to the rolling scan, and the batched
    /// entry point ([`crate::batched::BatchedMatch`]) only ever prunes
    /// windows whose admissible lower bound already exceeds the
    /// per-pattern best. Appended last: the discriminant feeds config
    /// fingerprints (`kernel as u64`), so variant order is ABI.
    #[default]
    Batched,
}

/// Pre-computed per-pattern state for the closest-match search: the
/// z-normalized pattern, its indices sorted by decreasing |zp| (the
/// early-abandon visit order), and `Σzp²`. Building a plan is
/// O(n log n); reusing it across every series a pattern is matched
/// against removes that work — and the pattern's z-normalization — from
/// the per-series cost entirely.
#[derive(Clone, Debug)]
pub struct MatchPlan {
    /// The raw (un-normalized) pattern, kept for callers that need the
    /// original values (e.g. the resampling fallback in the feature
    /// transform).
    raw: Vec<f64>,
    /// Z-normalized pattern in natural index order.
    pub(crate) zp: Vec<f64>,
    /// Indices of `zp` sorted by decreasing |zp| (ties by index).
    pub(crate) order: Vec<u32>,
    /// `zp` permuted into `order` (one cache-friendly stream for the
    /// abandoning loop).
    pub(crate) zp_ord: Vec<f64>,
    /// Σ zp² (plain sequential sum — bit-identical to what the naive
    /// kernel scores against an all-zero constant window).
    pub(crate) sq_norm: f64,
    /// True when the pattern itself is constant (zp all zeros): the
    /// rolling kernel's distances would tie at exactly `n` for every
    /// non-constant window, so the plan delegates to the naive scan for
    /// exact positional agreement.
    pub(crate) degenerate: bool,
    kernel: MatchKernel,
}

impl MatchPlan {
    /// Prepares `pattern` for repeated closest-match searches with the
    /// rolling kernel. (A lone plan gains nothing from `Batched`; the
    /// cascade needs a pattern *set* — see [`crate::batched`].)
    pub fn new(pattern: &[f64]) -> Self {
        Self::with_kernel(pattern, MatchKernel::Rolling)
    }

    /// Prepares `pattern` for searches with an explicit kernel choice.
    pub fn with_kernel(pattern: &[f64], kernel: MatchKernel) -> Self {
        let zp = znorm(pattern);
        let mut order: Vec<u32> = (0..zp.len() as u32).collect();
        order.sort_by(|&a, &b| {
            zp[b as usize]
                .abs()
                .total_cmp(&zp[a as usize].abs())
                .then(a.cmp(&b))
        });
        let zp_ord: Vec<f64> = order.iter().map(|&i| zp[i as usize]).collect();
        let mut sq_norm = 0.0;
        for &v in &zp {
            sq_norm += v * v;
        }
        let degenerate = zp.iter().all(|&v| v == 0.0);
        Self {
            raw: pattern.to_vec(),
            zp,
            order,
            zp_ord,
            sq_norm,
            degenerate,
            kernel,
        }
    }

    /// Pattern length.
    pub fn len(&self) -> usize {
        self.zp.len()
    }

    /// True for an empty pattern.
    pub fn is_empty(&self) -> bool {
        self.zp.is_empty()
    }

    /// The original (un-normalized) pattern values.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// The z-normalized pattern.
    pub fn znormed(&self) -> &[f64] {
        &self.zp
    }

    /// The kernel this plan dispatches to.
    pub fn kernel(&self) -> MatchKernel {
        self.kernel
    }

    /// Finds the closest match of this plan's pattern inside `series`.
    ///
    /// Returns `None` when the pattern is empty or longer than the
    /// series. Set `early_abandon = false` only for the ablation
    /// benchmark; results are tolerance-equal either way.
    pub fn best_match(&self, series: &[f64], early_abandon: bool) -> Option<BestMatch> {
        self.best_match_counted(series, early_abandon, None)
    }

    /// [`best_match`](Self::best_match) with an optional per-request
    /// accumulator. The scan itself is identical — counting touches only
    /// integers, never the float path — so results are bit-identical
    /// with or without `counters`; kernel wall time is measured only
    /// when an accumulator is attached.
    pub fn best_match_counted(
        &self,
        series: &[f64],
        early_abandon: bool,
        counters: Option<&ScanCounters>,
    ) -> Option<BestMatch> {
        let n = self.zp.len();
        if n == 0 || n > series.len() {
            return None;
        }
        // Self-gated counters (no-ops while rpm-obs is off): search volume
        // for the serving dashboards. Per-window probes would distort the
        // kernel they measure; two adds per search are in the noise.
        let m = rpm_obs::metrics();
        m.match_searches.inc();
        m.match_windows.add((series.len() - n + 1) as u64);
        let started = counters.map(|_| std::time::Instant::now());
        // A `Batched` plan scanned alone has no pattern set to share
        // statistics or bounds with: it takes the rolling path, which
        // the batched cascade is bit-identical to by construction.
        let (best, abandoned) = if self.kernel == MatchKernel::Naive || self.degenerate {
            naive_scan(&self.zp, series, early_abandon)
        } else {
            if let Some(c) = counters {
                c.stats_builds.fetch_add(1, Ordering::Relaxed);
            }
            let stats = RollingStats::new(series, n).expect("bounds checked above");
            self.rolling_scan(&stats, early_abandon)
        };
        m.match_abandoned.add(abandoned);
        if let (Some(c), Some(t0)) = (counters, started) {
            c.searches.fetch_add(1, Ordering::Relaxed);
            c.windows
                .fetch_add((series.len() - n + 1) as u64, Ordering::Relaxed);
            c.abandoned.fetch_add(abandoned, Ordering::Relaxed);
            c.match_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        Some(best)
    }

    /// The rolling-statistics scan over pre-built window statistics.
    /// Returns the winner and the number of windows abandoned early.
    fn rolling_scan(&self, stats: &RollingStats, early_abandon: bool) -> (BestMatch, u64) {
        let n = self.zp.len();
        let nf = n as f64;
        let xc = stats.centered();
        let mut best_pos = 0usize;
        let mut best_sq = f64::INFINITY;
        let mut abandoned = 0u64;
        for p in 0..stats.count() {
            let sd = stats.std(p);
            let d_sq = if sd < ZNORM_EPSILON {
                // Constant window → all-zero z-scores (the norm.rs
                // convention): distance is the pattern's own norm.
                self.sq_norm
            } else {
                let mu = stats.mean_centered(p);
                let inv = 1.0 / sd;
                let w = &xc[p..p + n];
                if early_abandon {
                    match self.fused_early_abandon(w, mu, inv, best_sq) {
                        Some(d) => d,
                        None => {
                            abandoned += 1;
                            continue;
                        }
                    }
                } else {
                    self.fused_exhaustive(w, mu, inv)
                }
            };
            if d_sq < best_sq {
                best_sq = d_sq;
                best_pos = p;
            }
        }
        (
            BestMatch {
                position: best_pos,
                distance: (best_sq.max(0.0) / nf).sqrt(),
            },
            abandoned,
        )
    }

    /// One window's fused distance, accumulating `(zpᵢ − (xᵢ−μ)/σ)²` in
    /// natural order (vectorizable; no abandon). The closed dot-product
    /// expansion `Σzp² + n − (2/σ)(Σzpᵢxᵢ − μΣzpᵢ)` would save a
    /// subtraction per lane but cancels catastrophically near d ≈ 0
    /// (absolute error ~n·ε on d², i.e. ~√ε on d) — the per-element
    /// form keeps full precision at exact matches, which the 1e-9
    /// differential tolerance requires. Shared with the batched
    /// cascade's exact tier, so both kernels produce the same floats.
    #[inline]
    pub(crate) fn fused_exhaustive(&self, w: &[f64], mu: f64, inv: f64) -> f64 {
        let mut acc = 0.0;
        for (zi, xi) in self.zp.iter().zip(w) {
            let d = zi - (xi - mu) * inv;
            acc += d * d;
        }
        acc
    }

    /// One window's fused distance, accumulating `(zpᵢ − (xᵢ−μ)/σ)²` in
    /// decreasing-|zp| order and abandoning against `cutoff` every 8
    /// terms (strict `>`, matching [`sq_euclidean_early_abandon`]).
    /// Shared with the batched cascade's exact tier — identical floats,
    /// identical abandon decisions for an identical cutoff.
    ///
    /// [`sq_euclidean_early_abandon`]: crate::dist::sq_euclidean_early_abandon
    #[inline]
    pub(crate) fn fused_early_abandon(
        &self,
        w: &[f64],
        mu: f64,
        inv: f64,
        cutoff: f64,
    ) -> Option<f64> {
        let n = self.zp_ord.len();
        let mut acc = 0.0;
        let mut i = 0;
        while i < n {
            let end = (i + 8).min(n);
            for k in i..end {
                let z = (w[self.order[k] as usize] - mu) * inv;
                let d = self.zp_ord[k] - z;
                acc += d * d;
            }
            if acc > cutoff {
                return None;
            }
            i = end;
        }
        Some(acc)
    }
}

/// Prepares a pattern for repeated closest-match searches — compute the
/// plan once per pattern and reuse it across every series it is matched
/// against. Alias for [`MatchPlan::new`].
pub fn prepare_pattern(pattern: &[f64]) -> MatchPlan {
    MatchPlan::new(pattern)
}

/// Finds the closest match of `pattern` inside `series` with the fused
/// rolling-statistics kernel.
///
/// Returns `None` when the pattern is empty or longer than the series.
/// Set `early_abandon = false` only for the ablation benchmark; results
/// are tolerance-equal either way. Callers matching one pattern against
/// many series should build a [`MatchPlan`] once instead.
pub fn best_match(pattern: &[f64], series: &[f64], early_abandon: bool) -> Option<BestMatch> {
    MatchPlan::new(pattern).best_match(series, early_abandon)
}

/// The pre-optimization closest-match scan: re-z-normalizes every window
/// into a scratch buffer (O(n) work and a buffer write per window) before
/// the distance loop. Kept behind the same signature as [`best_match`] as
/// the differential-test oracle and the ablation baseline.
pub fn best_match_naive(pattern: &[f64], series: &[f64], early_abandon: bool) -> Option<BestMatch> {
    let n = pattern.len();
    if n == 0 || n > series.len() {
        return None;
    }
    let m = rpm_obs::metrics();
    m.match_searches.inc();
    m.match_windows.add((series.len() - n + 1) as u64);
    let zp = znorm(pattern);
    let (best, abandoned) = naive_scan(&zp, series, early_abandon);
    m.match_abandoned.add(abandoned);
    Some(best)
}

/// The shared naive scan over an already z-normalized pattern. Returns
/// the winner and the number of windows abandoned early.
fn naive_scan(zp: &[f64], series: &[f64], early_abandon: bool) -> (BestMatch, u64) {
    let n = zp.len();
    let mut window_buf = vec![0.0; n];
    let mut best_pos = 0usize;
    let mut best_sq = f64::INFINITY;
    let mut abandoned = 0u64;
    for p in 0..=(series.len() - n) {
        znorm_into(&series[p..p + n], &mut window_buf);
        let d_sq = if early_abandon {
            match crate::dist::sq_euclidean_early_abandon(zp, &window_buf, best_sq) {
                Some(d) => d,
                None => {
                    abandoned += 1;
                    continue;
                }
            }
        } else {
            crate::dist::sq_euclidean(zp, &window_buf)
        };
        if d_sq < best_sq {
            best_sq = d_sq;
            best_pos = p;
        }
    }
    (
        BestMatch {
            position: best_pos,
            distance: (best_sq / n as f64).sqrt(),
        },
        abandoned,
    )
}

/// Convenience wrapper returning only the closest-match distance, with
/// early abandoning enabled. `f64::INFINITY` when no window fits.
pub fn closest_match_distance(pattern: &[f64], series: &[f64]) -> f64 {
    best_match(pattern, series, true).map_or(f64::INFINITY, |m| m.distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_series(len: usize, mut state: u64) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push(((state >> 33) as f64) / (u32::MAX as f64) - 0.5);
        }
        out
    }

    #[test]
    fn exact_occurrence_has_zero_distance() {
        // The pattern's z-normalized shape (up then down) appears only at
        // offset 2; neighboring windows normalize to different shapes.
        let series = [0.0, 0.0, 1.0, 3.0, 2.0, 0.0, 0.0];
        let pattern = [1.0, 3.0, 2.0];
        let m = best_match(&pattern, &series, true).unwrap();
        assert_eq!(m.position, 2);
        assert!(m.distance < 1e-9);
    }

    #[test]
    fn scaled_occurrence_still_matches_exactly() {
        // z-normalization makes amplitude irrelevant.
        let series = [5.0, 5.0, 10.0, 20.0, 30.0, 5.0];
        let pattern = [1.0, 2.0, 3.0];
        let m = best_match(&pattern, &series, true).unwrap();
        assert_eq!(m.position, 2);
        assert!(m.distance < 1e-9);
    }

    #[test]
    fn oversized_pattern_returns_none() {
        assert!(best_match(&[1.0, 2.0, 3.0], &[1.0, 2.0], true).is_none());
        assert!(best_match_naive(&[1.0, 2.0, 3.0], &[1.0, 2.0], true).is_none());
        assert_eq!(
            closest_match_distance(&[1.0, 2.0, 3.0], &[1.0]),
            f64::INFINITY
        );
    }

    #[test]
    fn empty_pattern_returns_none() {
        assert!(best_match(&[], &[1.0, 2.0], true).is_none());
        assert!(best_match_naive(&[], &[1.0, 2.0], true).is_none());
        assert!(MatchPlan::new(&[]).best_match(&[1.0], true).is_none());
    }

    #[test]
    fn abandoning_matches_exhaustive() {
        // Pseudo-random series; the two modes accumulate in different
        // orders, so they agree to tolerance (positions exactly).
        let series = pseudo_random_series(200, 0x12345678);
        let pattern = &series[40..70].to_vec();
        let fast = best_match(pattern, &series, true).unwrap();
        let slow = best_match(pattern, &series, false).unwrap();
        assert_eq!(fast.position, slow.position);
        assert!((fast.distance - slow.distance).abs() < 1e-10);
    }

    #[test]
    fn rolling_agrees_with_naive_oracle() {
        let series = pseudo_random_series(300, 0xBEEF);
        for (start, len) in [(12usize, 17usize), (100, 64), (250, 50), (0, 300)] {
            let pattern = series[start..start + len].to_vec();
            for ea in [true, false] {
                let fast = best_match(&pattern, &series, ea).unwrap();
                let slow = best_match_naive(&pattern, &series, ea).unwrap();
                assert_eq!(fast.position, slow.position, "len {len} ea {ea}");
                assert!(
                    (fast.distance - slow.distance).abs() < 1e-10,
                    "len {len} ea {ea}: {} vs {}",
                    fast.distance,
                    slow.distance
                );
            }
        }
    }

    #[test]
    fn plan_reuse_is_bit_identical_to_direct_calls() {
        let series_a = pseudo_random_series(150, 1);
        let series_b = pseudo_random_series(90, 2);
        let pattern = pseudo_random_series(24, 3);
        let plan = prepare_pattern(&pattern);
        for s in [&series_a, &series_b] {
            let via_plan = plan.best_match(s, true).unwrap();
            let direct = best_match(&pattern, s, true).unwrap();
            assert_eq!(via_plan, direct);
        }
        assert_eq!(plan.len(), 24);
        assert!(!plan.is_empty());
        assert_eq!(plan.raw(), &pattern[..]);
        assert_eq!(plan.kernel(), MatchKernel::Rolling);
    }

    #[test]
    fn naive_kernel_plan_dispatches_to_oracle() {
        let series = pseudo_random_series(120, 11);
        let pattern = series[30..54].to_vec();
        let plan = MatchPlan::with_kernel(&pattern, MatchKernel::Naive);
        let via_plan = plan.best_match(&series, true).unwrap();
        let oracle = best_match_naive(&pattern, &series, true).unwrap();
        assert_eq!(via_plan, oracle);
    }

    #[test]
    fn constant_pattern_falls_back_to_naive_tie_breaking() {
        // A constant pattern z-normalizes to zeros; every non-constant
        // window scores ~‖zw‖ and the first window must win in both
        // kernels.
        let series = pseudo_random_series(80, 21);
        let pattern = [4.2; 12];
        let fast = best_match(&pattern, &series, true).unwrap();
        let slow = best_match_naive(&pattern, &series, true).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn constant_window_scores_pattern_norm() {
        // One flat region in the series: its distance to any pattern is
        // ‖zp‖/√n = 1, identical in both kernels (σ=0 convention).
        let mut series = pseudo_random_series(60, 31);
        for v in &mut series[20..40] {
            *v = 7.5;
        }
        let pattern = pseudo_random_series(16, 33);
        let plan = MatchPlan::new(&pattern);
        let fast = plan.best_match(&series, true).unwrap();
        let slow = best_match_naive(&pattern, &series, true).unwrap();
        assert_eq!(fast.position, slow.position);
        assert!((fast.distance - slow.distance).abs() < 1e-10);
    }

    #[test]
    fn length_normalization_makes_lengths_comparable() {
        // A pattern matching perfectly should give ~0 regardless of length;
        // a constant-vs-ramp mismatch gives O(1) regardless of length.
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let short = &ramp[10..20];
        let long = &ramp[10..60];
        assert!(closest_match_distance(short, &ramp) < 1e-9);
        assert!(closest_match_distance(long, &ramp) < 1e-9);
    }

    #[test]
    fn full_length_pattern_single_window() {
        let series = [1.0, 5.0, 2.0];
        let m = best_match(&[1.0, 5.0, 2.0], &series, true).unwrap();
        assert_eq!(m.position, 0);
        assert!(m.distance < 1e-9);
    }

    #[test]
    fn counted_search_is_bit_identical_and_fills_the_accumulator() {
        let series = pseudo_random_series(400, 0xACE);
        let pattern = series[120..180].to_vec();
        let plan = MatchPlan::new(&pattern);
        let plain = plan.best_match(&series, true).unwrap();
        let counters = ScanCounters::new();
        let counted = plan
            .best_match_counted(&series, true, Some(&counters))
            .unwrap();
        assert_eq!(plain, counted, "counting must not perturb the scan");
        let stats = counters.snapshot();
        assert_eq!(stats.searches, 1);
        assert_eq!(stats.windows, (series.len() - pattern.len() + 1) as u64);
        assert!(
            stats.abandoned > 0,
            "a random series with an exact occurrence must abandon most windows"
        );
        assert!(
            stats.abandoned < stats.windows,
            "the winner is never abandoned"
        );
        assert!(stats.match_ns > 0);
        assert!(stats.abandon_rate() > 0.0 && stats.abandon_rate() < 1.0);
    }

    #[test]
    fn counted_naive_kernel_reports_abandons_too() {
        let series = pseudo_random_series(200, 0xF00D);
        let pattern = series[50..90].to_vec();
        let plan = MatchPlan::with_kernel(&pattern, MatchKernel::Naive);
        let counters = ScanCounters::new();
        plan.best_match_counted(&series, true, Some(&counters))
            .unwrap();
        let stats = counters.snapshot();
        assert!(stats.abandoned > 0, "{stats:?}");

        // Without early abandoning nothing can be abandoned.
        let exhaustive = ScanCounters::new();
        plan.best_match_counted(&series, false, Some(&exhaustive))
            .unwrap();
        assert_eq!(exhaustive.snapshot().abandoned, 0);
        assert_eq!(ScanStats::default().abandon_rate(), 0.0);
    }

    #[test]
    fn large_offset_series_matches_oracle() {
        // A 1e6 baseline stresses the rolling-sum cancellation paths.
        let series: Vec<f64> = pseudo_random_series(200, 41)
            .into_iter()
            .map(|v| v + 1e6)
            .collect();
        let pattern = series[70..110].to_vec();
        let fast = best_match(&pattern, &series, true).unwrap();
        let slow = best_match_naive(&pattern, &series, true).unwrap();
        assert_eq!(fast.position, slow.position);
        assert!(
            (fast.distance - slow.distance).abs() < 1e-9 * slow.distance.max(1.0),
            "{} vs {}",
            fast.distance,
            slow.distance
        );
    }
}
