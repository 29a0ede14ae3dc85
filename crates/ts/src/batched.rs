//! Batched pattern-set × series closest-match kernel with an admissible
//! lower-bound cascade.
//!
//! The per-pattern kernels in [`crate::matching`] rebuild the same
//! [`RollingStats`] for every pattern matched against a series: K
//! patterns × S series = K·S O(n) statistics passes over identical
//! data, plus K·S full window scans. [`BatchedMatch`] restructures the
//! search around the *series*: statistics are built once per (series,
//! pattern length), and every window position is pushed through a
//! cascade of increasingly expensive admissible lower bounds before the
//! exact distance loop runs:
//!
//! 1. **First/last z-value bound** — O(1) per (pattern, window):
//!    `(zp₀−zw₀)² + (zpₙ₋₁−zwₙ₋₁)² ≤ Σᵢ(zpᵢ−zwᵢ)²` because the right
//!    side sums those two squares plus other non-negative terms
//!    (LB_Kim's cheap core). The per-pattern first/last coefficients
//!    live in contiguous arrays so the K-wide evaluation is a
//!    branch-free, f64x4-shaped pass.
//! 2. **PAA envelope bound** — O(B) per (pattern, window), B = 8
//!    segments: `Σⱼ lenⱼ·(p̄ⱼ−w̄ⱼ)² ≤ Σᵢ(zpᵢ−zwᵢ)²` by per-segment
//!    Cauchy–Schwarz (`Σ_{i∈j}(aᵢ−bᵢ)² ≥ (Σ_{i∈j}(aᵢ−bᵢ))²/lenⱼ`) —
//!    LB_Keogh with a zero warping radius. Window segment means come
//!    from rolling per-segment sums, re-initialized with a compensated
//!    pass every [`BLOCK`] positions so drift never approaches the
//!    pruning safety margin.
//! 3. **Exact distance** — the *same* fused accumulation the rolling
//!    kernel runs ([`MatchPlan::fused_early_abandon`] /
//!    [`MatchPlan::fused_exhaustive`]), against the same per-pattern
//!    best-so-far cutoff.
//!
//! # Bit-identity with the rolling kernel
//!
//! The cascade is not "close to" the rolling kernel — it is
//! bit-identical, which is what lets training pipelines flip kernels
//! without re-validating models:
//!
//! * The sweep visits window positions in increasing order, exactly
//!   like [`MatchPlan::best_match`]. A strided *seed pass* probes a
//!   sparse subset of positions with the exact kernel first — out of
//!   order, but outcome-free: a probe only tightens the best-so-far
//!   with a true window distance, every probed position is re-visited
//!   by the sweep (admissible bounds cannot prune a window equal to
//!   the current best under strict `>`), and bit-equal distances
//!   resolve to the earliest position via an explicit tie-break — the
//!   same winner the increasing-order scan picks.
//! * A window is pruned only when `lb · DEFLATE > best_sq` for that
//!   pattern. The bounds are admissible in exact arithmetic
//!   (`lb ≤ d²`), and the deflation factors absorb the floating-point
//!   slack between a bound and the exact loop's rounding (≤ ~(n+2)·ε
//!   relative for tier 1, whose terms are bitwise addends of the exact
//!   sum; tier 2 carries independent rounding and gets a wider margin).
//!   So a pruned window satisfies `d²_fl ≥ best_sq` — and since the
//!   rolling kernel updates its best strictly (`d_sq < best_sq`), that
//!   window could not have changed the best there either.
//! * Surviving windows run the identical exact code with the identical
//!   cutoff, producing identical floats and identical abandon
//!   decisions.
//!
//! By induction over positions the per-pattern best trajectory — and
//! hence the final [`BestMatch`] — is the one the rolling kernel
//! produces. `tests/kernel_diff.rs` pins this differentially;
//! `tests/lb_admissibility.rs` property-tests each bound (through
//! [`BatchedMatch::audit`], i.e. against the production bound
//! computation including its rolling segment sums) on random and
//! adversarial inputs.
//!
//! # Kernel choice
//!
//! `BatchedMatch::build` is the one place a plan's [`MatchKernel`]
//! picks an implementation for a pattern set: `Batched` plans join the
//! cascade, while `Rolling`, `Naive` and degenerate (constant) plans
//! take the per-pattern fallback through
//! [`MatchPlan::best_match_counted`], which honours their kernel.
//! Callers hand every plan slice to a `BatchedMatch` and never branch on
//! the kernel themselves.

use crate::matching::{BestMatch, MatchKernel, MatchPlan, ScanCounters};
use crate::norm::ZNORM_EPSILON;
use crate::stats::{CompensatedSum, RollingStats};
use std::sync::atomic::Ordering;

/// Number of PAA segments for the envelope bound.
pub const ENVELOPE_SEGMENTS: usize = 8;

/// Patterns shorter than this skip tier 2: with fewer than two
/// points per segment the envelope degenerates toward the exact
/// distance it is supposed to be cheaper than.
pub const MIN_ENVELOPE_LEN: usize = 16;

/// Rolling segment sums are rebuilt with a compensated pass every this
/// many positions, bounding the incremental add/subtract drift.
const BLOCK: usize = 256;

/// Tier-1 deflation: the bound's two terms are bitwise addends of the
/// exact sum, so the only slack is summation rounding (≤ ~(n+2)·ε
/// relative); 1e-9 covers patterns up to ~10⁶ points.
const TIER1_DEFLATE: f64 = 1.0 - 1e-9;

/// Tier-2 deflation: segment means come from independently rounded
/// rolling sums, so the margin is wider. Pruning power lost is
/// negligible (a bound this close to the best is about to be beaten by
/// the exact loop anyway).
const TIER2_DEFLATE: f64 = 1.0 - 1e-7;

/// Plans of one shared length, flattened into contiguous per-pattern
/// arrays for the cascade's inner loops.
#[derive(Clone, Debug)]
struct LengthGroup {
    /// Pattern length.
    n: usize,
    /// Index of each member in the original plan slice.
    idx: Vec<u32>,
    /// The member plans (exact tier + `sq_norm` for σ=0 windows).
    plans: Vec<MatchPlan>,
    /// `zp[0]` per member (tier-1 stream).
    first: Vec<f64>,
    /// `zp[n-1]` per member (tier-1 stream).
    last: Vec<f64>,
    /// Segment boundaries `[start, end)` shared by every member.
    /// Empty when `n < MIN_ENVELOPE_LEN` (tier 2 skipped).
    seg: Vec<(u32, u32)>,
    /// Segment lengths as f64, aligned with `seg`.
    seg_len: Vec<f64>,
    /// Reciprocal segment lengths: the hot loops multiply by these
    /// instead of dividing (8 divisions per surviving position dominate
    /// the tier-2 cost otherwise). The ≤1-ulp difference vs division is
    /// absorbed by `TIER2_DEFLATE`.
    seg_inv_len: Vec<f64>,
    /// PAA means of `zp`, `seg.len()` per member, row-major.
    paa: Vec<f64>,
}

/// A pattern set prepared for batched closest-match scans. Build once
/// (from the same [`MatchPlan`]s the per-pattern path uses), then call
/// [`match_all`](Self::match_all) per series. Owns its data — `Send +
/// Sync`, shareable across batch workers.
#[derive(Clone, Debug)]
pub struct BatchedMatch {
    groups: Vec<LengthGroup>,
    /// (original index, plan) pairs the cascade does not serve —
    /// plans whose kernel is `Rolling` or `Naive`, and degenerate
    /// (constant) patterns — scanned per-pattern through
    /// `best_match_counted`, which dispatches on the plan's own kernel,
    /// so their results and counters are exactly the per-pattern ones.
    fallback: Vec<(u32, MatchPlan)>,
    /// Total patterns (group members + fallbacks).
    count: usize,
}

/// Per-(pattern, window) bound/exact observations from
/// [`BatchedMatch::audit`] — the raw material of the admissibility
/// property tests.
#[derive(Clone, Copy, Debug)]
pub struct LbAudit {
    /// Pattern index in the original plan slice.
    pub pattern: usize,
    /// Window start position.
    pub position: usize,
    /// Tier-1 squared bound (un-normalized), as the cascade computes it.
    pub lb_first_last: f64,
    /// Tier-2 squared bound, `None` when the tier is skipped for this
    /// pattern length.
    pub lb_envelope: Option<f64>,
    /// The exact squared distance (exhaustive fused accumulation).
    pub exact: f64,
}

impl BatchedMatch {
    /// Prepares `plans` for batched scans.
    pub fn new(plans: &[MatchPlan]) -> Self {
        Self::build(plans.iter(), plans.len())
    }

    /// [`new`](Self::new) over borrowed plans — for callers batching a
    /// filtered subset (e.g. the dedup scan) without cloning it into a
    /// contiguous slice first.
    pub fn from_refs(plans: &[&MatchPlan]) -> Self {
        Self::build(plans.iter().copied(), plans.len())
    }

    /// Sorts plans by kernel: `Batched` plans are grouped by length for
    /// the cascade; `Rolling`, `Naive` and degenerate plans go to the
    /// per-pattern fallback (see the module docs, "Kernel choice").
    fn build<'a>(plans: impl Iterator<Item = &'a MatchPlan>, count: usize) -> Self {
        let mut groups: Vec<LengthGroup> = Vec::new();
        let mut fallback = Vec::new();
        for (i, plan) in plans.enumerate() {
            if plan.is_empty() {
                continue; // matches per-pattern behavior: None at call time
            }
            if plan.degenerate || plan.kernel() != MatchKernel::Batched {
                fallback.push((i as u32, plan.clone()));
                continue;
            }
            let n = plan.len();
            let group = match groups.iter_mut().find(|g| g.n == n) {
                Some(g) => g,
                None => {
                    groups.push(LengthGroup::empty(n));
                    groups.last_mut().unwrap()
                }
            };
            group.push(i as u32, plan);
        }
        Self {
            groups,
            fallback,
            count,
        }
    }

    /// Number of patterns the set was built from (including empty and
    /// fallback patterns).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finds the closest match of every pattern inside `series` in one
    /// pass per pattern length. The result is indexed like the plan
    /// slice the set was built from; an entry is `None` exactly when
    /// the per-pattern kernel would return `None` (empty pattern, or
    /// pattern longer than the series).
    ///
    /// Bit-identical to calling
    /// [`MatchPlan::best_match`](crate::matching::MatchPlan::best_match)
    /// per pattern: grouped `Batched` plans equal the rolling kernel,
    /// and fallback plans run their own kernel.
    pub fn match_all(
        &self,
        series: &[f64],
        early_abandon: bool,
        counters: Option<&ScanCounters>,
    ) -> Vec<Option<BestMatch>> {
        let mut out: Vec<Option<BestMatch>> = vec![None; self.count];
        for (idx, plan) in &self.fallback {
            out[*idx as usize] = plan.best_match_counted(series, early_abandon, counters);
        }
        let started = counters.map(|_| std::time::Instant::now());
        let mut tally = Tally::default();
        for group in &self.groups {
            if group.plans.len() == 1 {
                // Singleton length group: the cascade's shared costs
                // (segment-sum slides, K-wide tier passes) amortize over
                // zero siblings, and measured end-to-end they cost more
                // than they prune. The rolling kernel — the cascade's
                // bit-identical oracle — is the faster engine here.
                out[group.idx[0] as usize] =
                    group.plans[0].best_match_counted(series, early_abandon, counters);
                continue;
            }
            group.scan(series, early_abandon, &mut tally, &mut out);
        }
        tally.publish(counters, started);
        out
    }

    /// Recomputes every cascade bound alongside the exhaustive exact
    /// distance for every (grouped pattern, window) pair — the bounds
    /// come from the same code paths (including the rolling segment
    /// sums) the pruning scan uses, so the admissibility property tests
    /// exercise production arithmetic, not a reference reimplementation.
    /// Fallback patterns have no bounds and are omitted.
    pub fn audit(&self, series: &[f64]) -> Vec<LbAudit> {
        let mut rows = Vec::new();
        for group in &self.groups {
            group.audit(series, &mut rows);
        }
        rows
    }
}

/// Scan-local counter accumulation, published once per `match_all`.
#[derive(Default)]
struct Tally {
    searches: u64,
    windows: u64,
    abandoned: u64,
    pruned_first_last: u64,
    pruned_envelope: u64,
    stats_builds: u64,
}

impl Tally {
    fn publish(&self, counters: Option<&ScanCounters>, started: Option<std::time::Instant>) {
        let m = rpm_obs::metrics();
        m.match_searches.add(self.searches);
        m.match_windows.add(self.windows);
        m.match_abandoned.add(self.abandoned);
        m.match_pruned_first_last.add(self.pruned_first_last);
        m.match_pruned_envelope.add(self.pruned_envelope);
        m.match_stats_builds.add(self.stats_builds);
        if let (Some(c), Some(t0)) = (counters, started) {
            c.searches.fetch_add(self.searches, Ordering::Relaxed);
            c.windows.fetch_add(self.windows, Ordering::Relaxed);
            c.abandoned.fetch_add(self.abandoned, Ordering::Relaxed);
            c.pruned_first_last
                .fetch_add(self.pruned_first_last, Ordering::Relaxed);
            c.pruned_envelope
                .fetch_add(self.pruned_envelope, Ordering::Relaxed);
            c.stats_builds
                .fetch_add(self.stats_builds, Ordering::Relaxed);
            c.match_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl LengthGroup {
    fn empty(n: usize) -> Self {
        let seg = if n >= MIN_ENVELOPE_LEN {
            segment_bounds(n, ENVELOPE_SEGMENTS)
        } else {
            Vec::new()
        };
        let seg_len: Vec<f64> = seg.iter().map(|&(s, e)| (e - s) as f64).collect();
        let seg_inv_len: Vec<f64> = seg_len.iter().map(|&l| 1.0 / l).collect();
        Self {
            n,
            idx: Vec::new(),
            plans: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            seg,
            seg_len,
            seg_inv_len,
            paa: Vec::new(),
        }
    }

    fn push(&mut self, idx: u32, plan: &MatchPlan) {
        let zp = plan.znormed();
        self.idx.push(idx);
        self.first.push(zp[0]);
        self.last.push(zp[self.n - 1]);
        for &(s, e) in &self.seg {
            let mut sum = CompensatedSum::new();
            for &v in &zp[s as usize..e as usize] {
                sum.add(v);
            }
            self.paa.push(sum.value() / (e - s) as f64);
        }
        self.plans.push(plan.clone());
    }

    /// The cascade scan: one `RollingStats` build, then per position a
    /// K-wide tier-1 pass over the contiguous first/last streams,
    /// falling through per pattern to the envelope bound and the exact
    /// distance.
    fn scan(
        &self,
        series: &[f64],
        early_abandon: bool,
        tally: &mut Tally,
        out: &mut [Option<BestMatch>],
    ) {
        let n = self.n;
        let k_count = self.plans.len();
        if k_count == 0 || n > series.len() {
            return; // per-pattern kernels return None here; `out` stays None
        }
        let stats = RollingStats::new(series, n).expect("bounds checked above");
        tally.stats_builds += 1;
        tally.searches += k_count as u64;
        tally.windows += (k_count * stats.count()) as u64;
        let xc = stats.centered();
        let nf = n as f64;
        let b = self.seg.len();
        let mut best_sq = vec![f64::INFINITY; k_count];
        let mut best_pos = vec![0usize; k_count];
        // Seed pass: probe a sparse stride of positions with the exact
        // kernel before the sweep, so best-so-far is tight from the
        // first position. Without it, a pattern whose occurrence sits
        // late in the series leaves its best loose across the whole
        // prefix — a regime where no admissible bound can prune. The
        // probes change no outcome: probed windows are re-visited by
        // the sweep (a bound never prunes its own best: lb ≤ d = best
        // under strict `>`), and exact ties resolve to the earliest
        // position via the `best_pos` tie-breaks below, exactly like
        // the increasing-order rolling scan. Probes are not tallied —
        // counters describe the logical K×count scan.
        let count = stats.count();
        let stride = (n / 4).max(16);
        let mut p = stride;
        while p < count {
            for k in 0..k_count {
                self.probe(k, &stats, xc, p, early_abandon, &mut best_sq, &mut best_pos);
            }
            p += stride;
        }
        // Local refinement: walk each member's best probe neighborhood.
        // When the pattern actually occurs in the series — the premise
        // of a classifier matching mined patterns against in-class
        // series — the nearest strided probe lands within `stride` of
        // the occurrence, and this walk drives the best to ~0, after
        // which tier 1 closes almost the entire sweep.
        for k in 0..k_count {
            if best_sq[k] == f64::INFINITY {
                continue;
            }
            let lo = best_pos[k].saturating_sub(stride - 1);
            let hi = (best_pos[k] + stride - 1).min(count - 1);
            for p in lo..=hi {
                self.probe(k, &stats, xc, p, early_abandon, &mut best_sq, &mut best_pos);
            }
        }
        let mut seg_sums = SegSums::new(xc, &self.seg);
        let mut paa_w = vec![0.0; b];
        let mut lb1 = vec![0.0; k_count];
        for p in 0..stats.count() {
            let sd = stats.std(p);
            if sd < ZNORM_EPSILON {
                // Constant window: every pattern scores its own norm —
                // the rolling kernel's σ=0 convention, no bounds needed.
                for k in 0..k_count {
                    let d = self.plans[k].sq_norm;
                    if d < best_sq[k] || (d == best_sq[k] && p < best_pos[k]) {
                        best_sq[k] = d;
                        best_pos[k] = p;
                    }
                }
                continue;
            }
            let mu = stats.mean_centered(p);
            let inv = 1.0 / sd;
            let w = &xc[p..p + n];
            let zw0 = (xc[p] - mu) * inv;
            let zwl = (xc[p + n - 1] - mu) * inv;
            // Tier 1, K-wide over the contiguous streams: branch-free
            // slice zips (no bounds checks), 4 independent f64 lanes
            // per iteration for the autovectorizer, with the survivor
            // count fused into the same pass as a popcount-style
            // boolean reduction.
            let mut survivors = 0usize;
            for (((lb, &f), &l), &bs) in lb1
                .iter_mut()
                .zip(&self.first)
                .zip(&self.last)
                .zip(&best_sq)
            {
                let d0 = f - zw0;
                let dl = l - zwl;
                let v = d0 * d0 + dl * dl;
                *lb = v;
                survivors += (v * TIER1_DEFLATE <= bs) as usize;
            }
            // Cheap whole-position exit: if tier 1 prunes every member,
            // skip the per-pattern dispatch loop — and the segment-sum
            // slide, which is lazy for the same reason the PAA is.
            if survivors == 0 {
                tally.pruned_first_last += k_count as u64;
                continue;
            }
            // Window PAA means are shared by every pattern in the group
            // but computed lazily: when tier 1 prunes the whole set at
            // this position (the common case once a good match is found),
            // the segment divisions are never paid.
            let mut paa_ready = false;
            for k in 0..k_count {
                if lb1[k] * TIER1_DEFLATE > best_sq[k] {
                    tally.pruned_first_last += 1;
                    continue;
                }
                if b > 0 {
                    if !paa_ready {
                        seg_sums.at(p);
                        for (j, &inv_len) in self.seg_inv_len.iter().enumerate() {
                            paa_w[j] = (seg_sums.sums[j] * inv_len - mu) * inv;
                        }
                        paa_ready = true;
                    }
                    let lb2 = self.envelope_lb(k, &paa_w);
                    if lb2 * TIER2_DEFLATE > best_sq[k] {
                        tally.pruned_envelope += 1;
                        continue;
                    }
                }
                let plan = &self.plans[k];
                let d_sq = if early_abandon {
                    match plan.fused_early_abandon(w, mu, inv, best_sq[k]) {
                        Some(d) => d,
                        None => {
                            tally.abandoned += 1;
                            continue;
                        }
                    }
                } else {
                    plan.fused_exhaustive(w, mu, inv)
                };
                // The position tie-break only ever fires against a
                // seed-pass probe: the sweep itself visits positions in
                // increasing order, so an equal distance at a *lower*
                // position means the probe got there first.
                if d_sq < best_sq[k] || (d_sq == best_sq[k] && p < best_pos[k]) {
                    best_sq[k] = d_sq;
                    best_pos[k] = p;
                }
            }
        }
        for k in 0..k_count {
            out[self.idx[k] as usize] = Some(BestMatch {
                position: best_pos[k],
                distance: (best_sq[k].max(0.0) / nf).sqrt(),
            });
        }
    }

    /// One exact probe of member `k` at position `p`, updating its
    /// best-so-far under the sweep's strict-`<` rule (ties keep the
    /// incumbent; the sweep's position tie-break restores first-argmin
    /// order). Probes are an outcome-free accelerant — see the
    /// seed-pass comment in [`scan`](Self::scan).
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat hot-path plumbing, crate-private
    fn probe(
        &self,
        k: usize,
        stats: &RollingStats,
        xc: &[f64],
        p: usize,
        early_abandon: bool,
        best_sq: &mut [f64],
        best_pos: &mut [usize],
    ) {
        let sd = stats.std(p);
        let d = if sd < ZNORM_EPSILON {
            Some(self.plans[k].sq_norm)
        } else {
            let mu = stats.mean_centered(p);
            let inv = 1.0 / sd;
            let w = &xc[p..p + self.n];
            if early_abandon {
                self.plans[k].fused_early_abandon(w, mu, inv, best_sq[k])
            } else {
                Some(self.plans[k].fused_exhaustive(w, mu, inv))
            }
        };
        if let Some(d) = d {
            if d < best_sq[k] {
                best_sq[k] = d;
                best_pos[k] = p;
            }
        }
    }

    /// Tier-2 squared bound for member `k` against precomputed window
    /// PAA means.
    #[inline]
    fn envelope_lb(&self, k: usize, paa_w: &[f64]) -> f64 {
        let b = self.seg.len();
        let row = &self.paa[k * b..(k + 1) * b];
        let mut lb = 0.0;
        for (j, (&pm, &wm)) in row.iter().zip(paa_w).enumerate() {
            let d = pm - wm;
            lb += self.seg_len[j] * d * d;
        }
        lb
    }

    fn audit(&self, series: &[f64], rows: &mut Vec<LbAudit>) {
        let n = self.n;
        if self.plans.is_empty() || n > series.len() {
            return;
        }
        let stats = RollingStats::new(series, n).expect("bounds checked above");
        let xc = stats.centered();
        let b = self.seg.len();
        let mut seg_sums = SegSums::new(xc, &self.seg);
        let mut paa_w = vec![0.0; b];
        for p in 0..stats.count() {
            seg_sums.at(p);
            let sd = stats.std(p);
            if sd < ZNORM_EPSILON {
                continue; // the scan computes no bounds for σ=0 windows
            }
            let mu = stats.mean_centered(p);
            let inv = 1.0 / sd;
            let w = &xc[p..p + n];
            let zw0 = (xc[p] - mu) * inv;
            let zwl = (xc[p + n - 1] - mu) * inv;
            for (j, &inv_len) in self.seg_inv_len.iter().enumerate() {
                paa_w[j] = (seg_sums.sums[j] * inv_len - mu) * inv;
            }
            for k in 0..self.plans.len() {
                let d0 = self.first[k] - zw0;
                let dl = self.last[k] - zwl;
                rows.push(LbAudit {
                    pattern: self.idx[k] as usize,
                    position: p,
                    lb_first_last: d0 * d0 + dl * dl,
                    lb_envelope: (b > 0).then(|| self.envelope_lb(k, &paa_w)),
                    exact: self.plans[k].fused_exhaustive(w, mu, inv),
                });
            }
        }
    }
}

/// Rolling per-segment window sums over the centered series, rebuilt
/// exactly every [`BLOCK`] positions and after any skipped positions.
struct SegSums<'a> {
    xc: &'a [f64],
    seg: &'a [(u32, u32)],
    sums: Vec<f64>,
    /// Last materialized position; `usize::MAX` before the first call,
    /// so position 0 takes the rebuild path.
    pos: usize,
    /// Largest gap worth closing by repeated slides instead of an
    /// exact rebuild: a slide step costs ~2 flops per segment, a
    /// compensated rebuild ~4 per point, so the break-even gap is
    /// about a quarter of the window span.
    max_catchup: usize,
}

impl<'a> SegSums<'a> {
    fn new(xc: &'a [f64], seg: &'a [(u32, u32)]) -> Self {
        let span: usize = seg.iter().map(|&(s, e)| (e - s) as usize).sum();
        Self {
            xc,
            seg,
            sums: vec![0.0; seg.len()],
            pos: usize::MAX,
            max_catchup: (span / 4).max(1),
        }
    }

    /// Makes `sums` current for position `p`. Callers visit positions
    /// in increasing order but may skip any of them (the scan only
    /// materializes sums at positions tier 1 failed to close). Small
    /// same-block gaps are closed by sliding the sums one step at a
    /// time; anything else — block starts, long gaps, block-crossing
    /// gaps — triggers an exact compensated rebuild. Slides therefore
    /// never span more than [`BLOCK`] consecutive positions between
    /// rebuilds, which keeps the incremental drift inside the
    /// [`TIER2_DEFLATE`] pruning margin.
    #[inline]
    fn at(&mut self, p: usize) {
        let catchup = self.pos != usize::MAX
            && p > self.pos
            && p - self.pos <= self.max_catchup
            && p / BLOCK == self.pos / BLOCK;
        if catchup {
            for q in self.pos + 1..=p {
                for (j, &(s, e)) in self.seg.iter().enumerate() {
                    self.sums[j] += self.xc[q - 1 + e as usize] - self.xc[q - 1 + s as usize];
                }
            }
        } else {
            for (j, &(s, e)) in self.seg.iter().enumerate() {
                let mut sum = CompensatedSum::new();
                for &v in &self.xc[p + s as usize..p + e as usize] {
                    sum.add(v);
                }
                self.sums[j] = sum.value();
            }
        }
        self.pos = p;
    }
}

/// Standard PAA segmentation: segment `j` of `b` spans
/// `[j·n/b, (j+1)·n/b)` — non-empty, contiguous, covering.
fn segment_bounds(n: usize, b: usize) -> Vec<(u32, u32)> {
    let b = b.min(n);
    (0..b)
        .map(|j| ((j * n / b) as u32, ((j + 1) * n / b) as u32))
        .collect()
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

    fn batched_plan(pattern: &[f64]) -> MatchPlan {
        MatchPlan::with_kernel(pattern, MatchKernel::Batched)
    }

    fn plans_from(series: &[f64], spans: &[(usize, usize)]) -> Vec<MatchPlan> {
        spans
            .iter()
            .map(|&(s, l)| batched_plan(&series[s..s + l]))
            .collect()
    }

    #[test]
    fn batched_is_bit_identical_to_per_pattern_rolling() {
        let series = pseudo_random_series(600, 0xD1CE);
        let plans = plans_from(&series, &[(10, 32), (100, 32), (250, 64), (400, 17)]);
        let batched = BatchedMatch::new(&plans);
        for ea in [true, false] {
            let got = batched.match_all(&series, ea, None);
            for (plan, got) in plans.iter().zip(&got) {
                let want = plan.best_match(&series, ea).unwrap();
                assert_eq!(Some(want), *got, "ea={ea}");
            }
        }
    }

    #[test]
    fn duplicate_and_degenerate_patterns_resolve_like_their_plans() {
        let series = pseudo_random_series(300, 7);
        let mut plans = plans_from(&series, &[(50, 24), (50, 24)]);
        plans.push(batched_plan(&[3.3; 24])); // degenerate → naive fallback
        plans.push(MatchPlan::with_kernel(&series[80..104], MatchKernel::Naive));
        let batched = BatchedMatch::new(&plans);
        let got = batched.match_all(&series, true, None);
        for (plan, got) in plans.iter().zip(&got) {
            assert_eq!(plan.best_match(&series, true), *got);
        }
        assert_eq!(got[0], got[1], "duplicates share a result");
    }

    #[test]
    fn oversized_and_empty_patterns_yield_none() {
        let series = pseudo_random_series(40, 9);
        let plans = vec![
            batched_plan(&pseudo_random_series(64, 10)), // longer than series
            batched_plan(&[]),
            batched_plan(&series[5..25]),
        ];
        let batched = BatchedMatch::new(&plans);
        assert_eq!(batched.len(), 3);
        assert!(!batched.is_empty());
        let got = batched.match_all(&series, true, None);
        assert_eq!(got[0], None);
        assert_eq!(got[1], None);
        assert_eq!(got[2], plans[2].best_match(&series, true));
    }

    #[test]
    fn counters_account_for_the_whole_set() {
        let series = pseudo_random_series(500, 0xBEE);
        let plans = plans_from(&series, &[(0, 40), (60, 40), (200, 40), (300, 80)]);
        let batched = BatchedMatch::new(&plans);
        let counters = ScanCounters::new();
        let got = batched.match_all(&series, true, Some(&counters));
        assert!(got.iter().all(Option::is_some));
        let stats = counters.snapshot();
        assert_eq!(stats.searches, 4);
        let expected_windows = 3 * (500 - 40 + 1) + (500 - 80 + 1);
        assert_eq!(stats.windows, expected_windows as u64);
        assert_eq!(stats.stats_builds, 2, "one RollingStats per length group");
        assert!(stats.pruned_total() > 0, "cascade must prune: {stats:?}");
        assert!(
            stats.pruned_total() + stats.abandoned < stats.windows,
            "winners are never pruned"
        );
        assert!(stats.prune_rate() > 0.0 && stats.prune_rate() < 1.0);
        assert!(stats.match_ns > 0);
    }

    #[test]
    fn non_batched_plans_take_the_per_pattern_fallback() {
        // The set honours each plan's kernel: Rolling plans never join
        // the cascade, so every one builds its own statistics and
        // nothing is pruned, with results identical to the plan's own.
        let series = pseudo_random_series(400, 0xF00);
        let spans = [(0, 40), (60, 40), (200, 40)];
        let plans: Vec<MatchPlan> = spans
            .iter()
            .map(|&(s, l)| MatchPlan::with_kernel(&series[s..s + l], MatchKernel::Rolling))
            .collect();
        let counters = ScanCounters::new();
        let got = BatchedMatch::new(&plans).match_all(&series, true, Some(&counters));
        for (plan, got) in plans.iter().zip(&got) {
            assert_eq!(plan.best_match(&series, true), *got);
        }
        let stats = counters.snapshot();
        assert_eq!(stats.searches, 3);
        assert_eq!(stats.stats_builds, 3, "one RollingStats per rolling plan");
        assert_eq!(stats.pruned_total(), 0);
        // The same patterns as Batched plans share one build and prune.
        let counters = ScanCounters::new();
        let cascade = BatchedMatch::new(&plans_from(&series, &spans));
        assert_eq!(cascade.match_all(&series, true, Some(&counters)), got);
        assert_eq!(counters.snapshot().stats_builds, 1);
    }

    #[test]
    fn segment_bounds_cover_without_gaps() {
        for n in [16usize, 17, 31, 64, 100] {
            let seg = segment_bounds(n, ENVELOPE_SEGMENTS);
            assert_eq!(seg[0].0, 0);
            assert_eq!(seg.last().unwrap().1 as usize, n);
            for w in seg.windows(2) {
                assert_eq!(w[0].1, w[1].0);
                assert!(w[0].0 < w[0].1);
            }
        }
    }
}
