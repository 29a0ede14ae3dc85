//! Feature-space transformation (§3.1) and the pattern distance.
//!
//! A time series becomes the vector of closest-match distances to the K
//! representative patterns — the "universal data type" the paper feeds to
//! the SVM. The rotation-invariant variant (§6.1) additionally matches
//! against the series rotated at its midpoint and keeps the minimum, so a
//! best match severed by rotation is re-joined in one of the two views.
//!
//! Batch transforms run on the shared training [`Engine`]
//! (`rpm_core::engine`): workers pull series indices from a shared
//! counter and results merge by index, so the parallel output is
//! bit-identical to the serial one, and worker panics surface as
//! [`EngineError`] values instead of aborting the process.
//!
//! Every feature row is computed the same way: [`MatchPlan`]s are
//! prepared once per pattern (z-normalization, the early-abandon |zp|
//! sort, `Σzp²`), gathered into one [`BatchedMatch`], and each series
//! takes one `match_all` per view. The set alone decides how each plan
//! is scanned — `Batched` plans share the lower-bound cascade, `Rolling`
//! and `Naive` plans run their own per-pattern kernel — so nothing here
//! branches on the kernel. The train-set transform, CFS scoring and
//! batch prediction all pay O(patterns) plan builds instead of
//! O(patterns · series).

use crate::cache::Ctx;
use crate::engine::{Engine, EngineError};
use rpm_cluster::resample;
use rpm_ts::{euclidean, rotate_half, znorm, BatchedMatch, MatchKernel, MatchPlan, ScanCounters};
use std::sync::Arc;

/// Distance between two patterns / subsequences of possibly different
/// lengths: the shorter is slid over the longer (both z-normalized) and
/// the length-normalized closest-match distance is returned. Symmetric by
/// construction. Falls back to resampling when one side is empty-window
/// degenerate (cannot happen for grammar-derived patterns, but keeps the
/// function total).
pub fn pattern_distance(a: &[f64], b: &[f64], early_abandon: bool) -> f64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match MatchPlan::new(short).best_match(long, early_abandon) {
        Some(m) => m.distance,
        None => f64::INFINITY,
    }
}

/// [`pattern_distance`] between two *prepared* sides: the shorter plan is
/// slid over the longer side's raw values. Callers holding a plan per
/// subsequence (candidate refinement, the τ pool, medoid selection) avoid
/// re-preparing the shorter pattern on every pair.
pub fn pattern_distance_plans(a: &MatchPlan, b: &MatchPlan, early_abandon: bool) -> f64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match short.best_match(long.raw(), early_abandon) {
        Some(m) => m.distance,
        None => f64::INFINITY,
    }
}

/// Prepares one [`MatchPlan`] per pattern with the given kernel — the
/// entry ticket to [`transform_set_plans_engine_counted`].
pub fn prepare_patterns(patterns: &[Vec<f64>], kernel: MatchKernel) -> Vec<MatchPlan> {
    patterns
        .iter()
        .map(|p| MatchPlan::with_kernel(p, kernel))
        .collect()
}

/// One series' feature row through a prebuilt pattern set. `plans` must
/// be the slice `batched` was built from. While `rpm-obs` is enabled
/// each call also feeds the `transform.series_ns` histogram; the
/// disabled path skips the clock reads entirely.
pub(crate) fn feature_row(
    batched: &BatchedMatch,
    plans: &[MatchPlan],
    series: &[f64],
    rotation_invariant: bool,
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    if !rpm_obs::enabled() {
        return series_row(
            batched,
            plans,
            series,
            rotation_invariant,
            early_abandon,
            counters,
        );
    }
    let start = rpm_obs::now_ns();
    let out = series_row(
        batched,
        plans,
        series,
        rotation_invariant,
        early_abandon,
        counters,
    );
    rpm_obs::metrics()
        .transform_series
        .observe(rpm_obs::now_ns().saturating_sub(start));
    out
}

/// [`feature_row`] without the latency histogram: one `match_all` per
/// view (plus one for the rotated view, keeping the per-pattern
/// minimum, §6.1).
fn series_row(
    batched: &BatchedMatch,
    plans: &[MatchPlan],
    series: &[f64],
    rotation_invariant: bool,
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    let mut row = feature_distances(batched, plans, series, early_abandon, counters);
    if rotation_invariant {
        let rotated = rotate_half(series);
        let rot = feature_distances(batched, plans, &rotated, early_abandon, counters);
        for (d, r) in row.iter_mut().zip(rot) {
            *d = d.min(r);
        }
    }
    row
}

/// Closest-match distance of every pattern inside `series`, with the
/// resampling fallback for a pattern longer than the series (possible
/// when test series are shorter than the training series the pattern
/// came from): the pattern is linearly resampled to the series length
/// and compared directly, keeping the feature finite.
fn feature_distances(
    batched: &BatchedMatch,
    plans: &[MatchPlan],
    series: &[f64],
    early_abandon: bool,
    counters: Option<&ScanCounters>,
) -> Vec<f64> {
    let matches = batched.match_all(series, early_abandon, counters);
    plans
        .iter()
        .zip(&matches)
        .map(|(plan, m)| match m {
            Some(m) => m.distance,
            None if !plan.is_empty() && plan.len() > series.len() => {
                let shrunk = resample(plan.raw(), series.len());
                euclidean(&znorm(&shrunk), &znorm(series)) / (series.len() as f64).sqrt()
            }
            None => 0.0, // empty pattern: degenerate, treat as zero signal
        })
        .collect()
}

/// Transforms a batch of series into the K-dimensional pattern-distance
/// space of `plans` on an explicit [`Engine`]: series are distributed
/// across the engine's workers and merged by index, so results are
/// identical to a serial run. A panic inside a worker becomes an
/// [`EngineError`] instead of a process abort.
///
/// The batch is borrowed — any `&[S]` whose items view as `&[f64]`
/// (`&[Vec<f64>]`, `&[&[f64]]`, …) works. The optional shared
/// [`ScanCounters`] accumulator receives every worker's kernel counts;
/// counting is integer-only side work, so results stay bit-identical
/// with or without it. The pattern set is built once per call; callers
/// transforming repeatedly against the same patterns (a trained model)
/// keep their own [`BatchedMatch`].
pub fn transform_set_plans_engine_counted<S: AsRef<[f64]> + Sync>(
    series: &[S],
    plans: &[MatchPlan],
    rotation_invariant: bool,
    early_abandon: bool,
    engine: &Engine,
    counters: Option<&ScanCounters>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let batched = BatchedMatch::new(plans);
    engine.map(series, |_, s| {
        feature_row(
            &batched,
            plans,
            s.as_ref(),
            rotation_invariant,
            early_abandon,
            counters,
        )
    })
}

/// Training-internal transform, memoizing per-pattern *columns* in the
/// run's cache, keyed by the context's set identity. The CFS-selection
/// transform and the final SVM transform both call this over the same
/// training series, so every pattern surviving selection reuses its
/// column instead of re-running the closest-match scan.
///
/// Lookups record one hit or miss per pattern column. The *missing*
/// columns are then computed together, one pattern-set scan per series
/// with the workers fanning out over series, and stored for reuse.
/// Rows are assembled in index order, bit-identical to
/// [`transform_set_plans_engine_counted`].
pub(crate) fn transform_set_ctx(
    series: &[Vec<f64>],
    patterns: &[Vec<f64>],
    rotation_invariant: bool,
    early_abandon: bool,
    kernel: MatchKernel,
    ctx: &Ctx<'_>,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let _span = rpm_obs::span!("transform");
    rpm_obs::metrics()
        .transform_columns
        .add(patterns.len() as u64);
    let cached: Vec<Option<Arc<Vec<f64>>>> = patterns
        .iter()
        .map(|p| {
            ctx.cache
                .try_column(ctx.set, p, rotation_invariant, early_abandon, kernel)
        })
        .collect();
    let missing: Vec<usize> = cached
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.is_none().then_some(i))
        .collect();
    let computed: Vec<Arc<Vec<f64>>> = if missing.is_empty() {
        Vec::new()
    } else {
        let missing_patterns: Vec<Vec<f64>> =
            missing.iter().map(|&i| patterns[i].clone()).collect();
        let plans = prepare_patterns(&missing_patterns, kernel);
        let batched = BatchedMatch::new(&plans);
        let rows = ctx.engine.map(series, |_, s| {
            series_row(&batched, &plans, s, rotation_invariant, early_abandon, None)
        })?;
        missing
            .iter()
            .enumerate()
            .map(|(k, &pattern_idx)| {
                let col: Vec<f64> = rows.iter().map(|r| r[k]).collect();
                ctx.cache.store_column(
                    ctx.set,
                    &patterns[pattern_idx],
                    rotation_invariant,
                    early_abandon,
                    kernel,
                    Arc::new(col),
                )
            })
            .collect()
    };
    let mut from_scan = computed.into_iter();
    let columns: Vec<Arc<Vec<f64>>> = cached
        .into_iter()
        .map(|c| c.unwrap_or_else(|| from_scan.next().expect("one computed column per miss")))
        .collect();
    Ok((0..series.len())
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SaxCache;

    fn bump(at: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let d = (i as f64 - at as f64) / 3.0;
                (-0.5 * d * d).exp()
            })
            .collect()
    }

    /// Feature rows of `set` against `pats` (default kernel) on `engine`.
    fn rows_on(
        set: &[Vec<f64>],
        pats: &[Vec<f64>],
        rotation: bool,
        early_abandon: bool,
        engine: &Engine,
    ) -> Vec<Vec<f64>> {
        let plans = prepare_patterns(pats, MatchKernel::default());
        transform_set_plans_engine_counted(set, &plans, rotation, early_abandon, engine, None)
            .unwrap()
    }

    /// One series' feature row against `pats`.
    fn row(series: &[f64], pats: &[Vec<f64>], rotation: bool, early_abandon: bool) -> Vec<f64> {
        rows_on(
            &[series.to_vec()],
            pats,
            rotation,
            early_abandon,
            &Engine::serial(),
        )
        .remove(0)
    }

    #[test]
    fn pattern_distance_is_symmetric() {
        let a = bump(10, 30);
        let b = bump(20, 50);
        let d1 = pattern_distance(&a, &b, true);
        let d2 = pattern_distance(&b, &a, true);
        assert_eq!(d1, d2);
    }

    #[test]
    fn identical_patterns_have_zero_distance() {
        let a = bump(5, 20);
        assert!(pattern_distance(&a, &a, true) < 1e-9);
    }

    #[test]
    fn containing_series_matches_its_pattern() {
        let series = bump(40, 100);
        let pattern = series[30..55].to_vec();
        let f = row(&series, &[pattern], false, true);
        assert!(f[0] < 1e-9, "{f:?}");
    }

    #[test]
    fn transform_width_equals_pattern_count() {
        let series = bump(10, 64);
        let pats = vec![bump(3, 10), bump(5, 12), bump(7, 20)];
        let f = row(&series, &pats, false, true);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn oversized_pattern_stays_finite() {
        let series = bump(5, 16);
        let pattern = bump(30, 64);
        let f = row(&series, &[pattern], false, true);
        assert!(f[0].is_finite());
    }

    #[test]
    fn rotation_invariance_recovers_severed_match() {
        // Series with the bump at the end; rotate so the bump is split
        // across the wrap point; the plain transform misses it while the
        // rotation-invariant one recovers a near-zero distance.
        let series = bump(50, 100);
        let pattern = series[38..63].to_vec();
        let severed = rpm_ts::rotate(&series, 50); // cut through the bump
        let plain = row(&severed, std::slice::from_ref(&pattern), false, true);
        let invariant = row(&severed, &[pattern], true, true);
        assert!(invariant[0] < 1e-6, "{invariant:?}");
        assert!(
            plain[0] > invariant[0] + 0.05,
            "plain {plain:?} vs {invariant:?}"
        );
    }

    #[test]
    fn rotation_invariant_distance_never_exceeds_plain() {
        let series = bump(20, 80);
        let pats = vec![bump(4, 15), bump(9, 25)];
        let plain = row(&series, &pats, false, true);
        let inv = row(&series, &pats, true, true);
        for (p, i) in plain.iter().zip(&inv) {
            assert!(i <= p, "invariant must take the min: {i} > {p}");
        }
    }

    #[test]
    fn parallel_transform_matches_serial() {
        let set: Vec<Vec<f64>> = (0..17).map(|k| bump(5 + k, 60)).collect();
        let pats = vec![bump(3, 10), bump(7, 22)];
        let serial = rows_on(&set, &pats, false, true, &Engine::serial());
        assert_eq!(serial.len(), 17);
        assert_eq!(serial[0].len(), 2);
        for threads in [2usize, 4, 32] {
            let par = rows_on(&set, &pats, false, true, &Engine::new(threads));
            assert_eq!(serial, par, "threads = {threads}");
        }
        assert!(rows_on(&[], &pats, false, true, &Engine::new(4)).is_empty());
    }

    #[test]
    fn cached_transform_matches_plain_for_every_kernel_and_rotation() {
        let set: Vec<Vec<f64>> = (0..9).map(|k| bump(4 + 3 * k, 48)).collect();
        let pats = vec![bump(2, 9), bump(6, 14), bump(3, 11)];
        let kernels = [
            MatchKernel::Rolling,
            MatchKernel::Naive,
            MatchKernel::Batched,
        ];
        let cache = SaxCache::new(true);
        for kernel in kernels {
            for rotation in [false, true] {
                let plans = prepare_patterns(&pats, kernel);
                let plain = transform_set_plans_engine_counted(
                    &set,
                    &plans,
                    rotation,
                    true,
                    &Engine::serial(),
                    None,
                )
                .unwrap();
                for threads in [1usize, 4] {
                    let ctx = Ctx::new(Engine::new(threads), &cache);
                    // Twice: cold (misses) then warm (all columns hit).
                    for _ in 0..2 {
                        let got =
                            transform_set_ctx(&set, &pats, rotation, true, kernel, &ctx).unwrap();
                        assert_eq!(
                            plain, got,
                            "{kernel:?} rotation={rotation} threads={threads}"
                        );
                    }
                }
            }
        }
        // Lookups run on the caller's thread, so the split is exact: each
        // (kernel, rotation) misses its 3 columns once, then hits them on
        // the 3 remaining calls.
        let stats = cache.stats();
        assert_eq!(
            stats.misses,
            3 * 2 * 3,
            "3 patterns x 2 rotations x 3 kernels"
        );
        assert_eq!(stats.hits, 3 * 2 * 3 * 3, "{stats:?}");
    }

    #[test]
    fn kernels_agree_on_feature_rows() {
        let set: Vec<Vec<f64>> = (0..5).map(|k| bump(9 + 4 * k, 64)).collect();
        let pats = vec![bump(4, 13), bump(2, 21), bump(6, 21)];
        let engine = Engine::serial();
        let rows = |kernel| {
            let plans = prepare_patterns(&pats, kernel);
            transform_set_plans_engine_counted(&set, &plans, true, true, &engine, None).unwrap()
        };
        let rolling = rows(MatchKernel::Rolling);
        assert_eq!(rows(MatchKernel::Batched), rolling, "bit-identical");
        for (a, b) in rolling
            .iter()
            .flatten()
            .zip(rows(MatchKernel::Naive).iter().flatten())
        {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn pattern_distance_plans_matches_raw_form() {
        let a = bump(10, 30);
        let b = bump(20, 50);
        let pa = MatchPlan::new(&a);
        let pb = MatchPlan::new(&b);
        assert_eq!(
            pattern_distance(&a, &b, true),
            pattern_distance_plans(&pa, &pb, true)
        );
        assert_eq!(
            pattern_distance_plans(&pa, &pb, true),
            pattern_distance_plans(&pb, &pa, true),
            "plan form stays symmetric"
        );
    }

    #[test]
    fn counted_batch_transform_is_bit_identical_and_sums_across_workers() {
        let set: Vec<Vec<f64>> = (0..12).map(|k| bump(3 + 4 * k, 72)).collect();
        let pats = vec![bump(5, 16), bump(2, 24)];
        let plans = prepare_patterns(&pats, MatchKernel::Rolling);
        let engine = Engine::new(4);
        let plain =
            transform_set_plans_engine_counted(&set, &plans, true, true, &engine, None).unwrap();
        let counters = ScanCounters::new();
        let counted =
            transform_set_plans_engine_counted(&set, &plans, true, true, &engine, Some(&counters))
                .unwrap();
        assert_eq!(plain, counted, "counting must not perturb the transform");
        let stats = counters.snapshot();
        // rotation-invariant: 2 scans per (series, pattern) pair.
        assert_eq!(stats.searches, (set.len() * pats.len() * 2) as u64);
        assert!(stats.windows > 0);
        assert!(stats.match_ns > 0);
    }

    #[test]
    fn batched_transform_builds_stats_once_per_series() {
        // The CFS-scoring fix: with K same-length patterns, the batched
        // path computes the per-series rolling statistics ONCE and shares
        // them across all K cascade scans, where the per-pattern rolling
        // path rebuilds them K times. The `stats_builds` counter is the
        // contract: series.len() × length-groups for batched, series.len()
        // × K for rolling.
        let set: Vec<Vec<f64>> = (0..6).map(|k| bump(3 + 5 * k, 72)).collect();
        let pats = vec![bump(5, 16), bump(2, 16), bump(9, 16), bump(12, 16)];
        let engine = Engine::serial();

        let batched_plans = prepare_patterns(&pats, MatchKernel::Batched);
        let batched_counters = ScanCounters::new();
        let batched_rows = transform_set_plans_engine_counted(
            &set,
            &batched_plans,
            false,
            true,
            &engine,
            Some(&batched_counters),
        )
        .unwrap();
        let batched_stats = batched_counters.snapshot();
        assert_eq!(
            batched_stats.stats_builds,
            set.len() as u64,
            "one RollingStats build per (series, length-group)"
        );
        // Pair accounting is preserved: still one search per (series,
        // pattern), and the cascade pruned at least something.
        assert_eq!(batched_stats.searches, (set.len() * pats.len()) as u64);
        assert!(batched_stats.pruned_total() > 0, "{batched_stats:?}");

        let rolling_plans = prepare_patterns(&pats, MatchKernel::Rolling);
        let rolling_counters = ScanCounters::new();
        let rolling_rows = transform_set_plans_engine_counted(
            &set,
            &rolling_plans,
            false,
            true,
            &engine,
            Some(&rolling_counters),
        )
        .unwrap();
        let rolling_stats = rolling_counters.snapshot();
        assert_eq!(
            rolling_stats.stats_builds,
            (set.len() * pats.len()) as u64,
            "per-pattern path rebuilds stats K times per series"
        );

        // And the shared-stats rows are bit-identical to the per-pattern ones.
        assert_eq!(batched_rows, rolling_rows);
    }

    #[test]
    fn early_abandon_matches_exhaustive() {
        let series = bump(33, 120);
        let pats = vec![bump(4, 17), bump(2, 9)];
        let fast = row(&series, &pats, false, true);
        let slow = row(&series, &pats, false, false);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
