//! Admissibility property tests for the batched cascade's lower bounds.
//!
//! The batched kernel prunes a (pattern, window) pair whenever a cheap
//! lower bound on the squared z-normalized distance exceeds the pattern's
//! best-so-far. Pruning is sound only if every tier is **admissible**:
//! `lb(pattern, window) ≤ exact(pattern, window)` on every input the
//! cascade can see. These tests drive [`rpm::ts::BatchedMatch::audit`] —
//! which recomputes each tier's bound exactly as the production scan does
//! alongside the exhaustive exact distance — over random and adversarial
//! inputs, and assert the inequality for both bound tiers at every
//! window.
//!
//! All quantities are *squared un-normalized* distances, matching the
//! cascade's internal accumulator. Tolerance mirrors the production
//! deflation guards (`TIER1_DEFLATE`/`TIER2_DEFLATE` in
//! `crates/ts/src/batched.rs`): a bound may exceed the exact value only
//! by floating-point rounding, never materially.
//!
//! Case count is read from `PROPTEST_CASES` (default 256 — the PR-gate
//! budget); the nightly CI sweep runs with `PROPTEST_CASES=2048`.

use proptest::prelude::*;
use rpm::ts::{BatchedMatch, MatchKernel, MatchPlan};

/// Relative slack granted for bound-vs-exact comparison: the production
/// cascade deflates tier-2 bounds by `1e-7` before pruning, so a bound
/// is admissible-in-practice iff it stays within this band of the exact
/// value. Tier 1's terms are bitwise addends of the exact sum, but the
/// audit recomputes them from the same rolling stats the scan uses, so
/// the same band applies.
const REL_SLACK: f64 = 1e-7;
/// Absolute floor for near-zero exact distances.
const ABS_SLACK: f64 = 1e-9;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn admissible(lb: f64, exact: f64) -> bool {
    lb <= exact * (1.0 + REL_SLACK) + ABS_SLACK
}

/// Build a batched set and audit it over `series`, asserting every
/// tier's bound is admissible at every (pattern, window) pair.
fn assert_all_tiers_admissible(patterns: &[Vec<f64>], series: &[f64]) {
    let plans: Vec<MatchPlan> = patterns
        .iter()
        .map(|p| MatchPlan::with_kernel(p, MatchKernel::Batched))
        .collect();
    let set = BatchedMatch::new(&plans);
    for row in set.audit(series) {
        assert!(
            admissible(row.lb_first_last, row.exact),
            "tier 1 inadmissible: pattern {} pos {}: lb {:.17e} > exact {:.17e}",
            row.pattern,
            row.position,
            row.lb_first_last,
            row.exact
        );
        if let Some(lb2) = row.lb_envelope {
            assert!(
                admissible(lb2, row.exact),
                "tier 2 inadmissible: pattern {} pos {}: lb {:.17e} > exact {:.17e}",
                row.pattern,
                row.position,
                lb2,
                row.exact
            );
        }
    }
}

/// Random-walk series generator (realistic autocorrelation).
fn random_walk(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, len).prop_map(|steps| {
        let mut acc = 0.0;
        steps
            .into_iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect()
    })
}

/// Coin-flip strategy (the vendored proptest shim has no `any::<bool>()`).
fn coin() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random walks, pattern lengths straddling the envelope-tier
    /// threshold (`MIN_ENVELOPE_LEN = 16`) so both the tier-1-only and
    /// full-cascade paths are audited.
    #[test]
    fn bounds_admissible_on_random_walks(
        patterns in proptest::collection::vec(random_walk(4..48), 1..5),
        series in random_walk(48..224),
    ) {
        assert_all_tiers_admissible(&patterns, &series);
    }

    /// Constant plateaus spliced mid-series create σ = 0 windows right
    /// next to barely-variable ones — the regime where rolling-stat
    /// cancellation is most dangerous for a bound.
    #[test]
    fn bounds_admissible_with_plateaus(
        patterns in proptest::collection::vec(random_walk(16..40), 1..4),
        series in random_walk(64..160),
        start in 0usize..64,
        run in 8usize..48,
        level in -50.0f64..50.0,
    ) {
        let mut series = series;
        let begin = start.min(series.len());
        let end = (start + run).min(series.len());
        for v in &mut series[begin..end] {
            *v = level;
        }
        assert_all_tiers_admissible(&patterns, &series);
    }

    /// ±1e5..1e6 vertical offsets: window means dwarf window variance, so
    /// any bound computed from rolling statistics inherits maximal
    /// cancellation error. Admissibility must survive.
    #[test]
    fn bounds_admissible_with_large_offsets(
        patterns in proptest::collection::vec(random_walk(16..40), 1..4),
        series in random_walk(48..128),
        magnitude in 1.0e5f64..1.0e6,
        negative in coin(),
    ) {
        let offset = if negative { -magnitude } else { magnitude };
        let shifted: Vec<f64> = series.iter().map(|x| x + offset).collect();
        assert_all_tiers_admissible(&patterns, &shifted);
    }

    /// Near-constant series: jitter well above the σ = 0 threshold but
    /// small against the level, the other cancellation-heavy regime.
    #[test]
    fn bounds_admissible_on_near_constant_series(
        patterns in proptest::collection::vec(random_walk(16..32), 1..4),
        jitter in proptest::collection::vec(-1.0f64..1.0, 48..128),
        amplitude in 1.0e-3f64..10.0,
        level in -1.0e4f64..1.0e4,
    ) {
        let series: Vec<f64> = jitter.iter().map(|j| level + amplitude * j).collect();
        assert_all_tiers_admissible(&patterns, &series);
    }

    /// The bound at the *matching* window of an embedded pattern must be
    /// ~0 (it cannot price a perfect match out of the scan), and stay
    /// admissible everywhere else.
    #[test]
    fn embedded_pattern_window_is_not_priced_out(
        pattern in random_walk(16..32),
        prefix in random_walk(8..48),
        suffix in random_walk(8..48),
        scale in 0.5f64..3.0,
        shift in -10.0f64..10.0,
    ) {
        let mut series = prefix.clone();
        let at = series.len();
        // Affine copies z-normalize to the pattern exactly: exact ≈ 0.
        series.extend(pattern.iter().map(|v| v * scale + shift));
        series.extend_from_slice(&suffix);
        assert_all_tiers_admissible(std::slice::from_ref(&pattern), &series);

        let plans = vec![MatchPlan::with_kernel(&pattern, MatchKernel::Batched)];
        let set = BatchedMatch::new(&plans);
        let at_match: Vec<_> = set
            .audit(&series)
            .into_iter()
            .filter(|r| r.position == at)
            .collect();
        // The embedded window may coincide with a σ = 0 window (audit
        // skips those), but when present its bounds must be ≈ 0.
        for row in at_match {
            let n = pattern.len() as f64;
            prop_assert!(row.lb_first_last <= 1e-6 * n, "tier 1 at match: {:.3e}", row.lb_first_last);
            if let Some(lb2) = row.lb_envelope {
                prop_assert!(lb2 <= 1e-6 * n, "tier 2 at match: {lb2:.3e}");
            }
        }
    }
}
