//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the SAX → grammar → candidate → transform pipeline.

use proptest::prelude::*;
use rpm::core::{
    pattern_distance, prepare_patterns, transform_set_plans_engine_counted, Engine, MatchKernel,
};
use rpm::grammar::infer;
use rpm::sax::{discretize, SaxConfig};
use rpm::ts::{paa, rotate, znorm};
use rpm_baselines::dtw_distance;

/// One series' feature row against `patterns` (default kernel).
fn transform_series(series: &[f64], patterns: &[Vec<f64>], rotation_invariant: bool) -> Vec<f64> {
    let plans = prepare_patterns(patterns, MatchKernel::default());
    let engine = Engine::serial();
    transform_set_plans_engine_counted(&[series], &plans, rotation_invariant, true, &engine, None)
        .expect("serial transform runs no workers")
        .remove(0)
}

/// Random-walk series generator (realistic autocorrelation).
fn random_walk(len: usize) -> impl Strategy<Value = Vec<f64>> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Discretizing any series and feeding the interned words into
    /// Sequitur must reproduce the exact token stream on expansion.
    #[test]
    fn sax_to_grammar_roundtrip(series in random_walk(120)) {
        let cfg = SaxConfig::new(16, 4, 4);
        let words = discretize(&series, &cfg, true);
        let mut interner = std::collections::HashMap::new();
        let tokens: Vec<u32> = words
            .iter()
            .map(|w| {
                let next = interner.len() as u32;
                *interner.entry(w.word.clone()).or_insert(next)
            })
            .collect();
        let g = infer(&tokens);
        prop_assert_eq!(&g.axiom().expansion, &tokens);
    }

    /// Numerosity reduction never reorders offsets and never produces
    /// adjacent duplicates.
    #[test]
    fn numerosity_reduction_invariants(series in random_walk(100)) {
        let cfg = SaxConfig::new(12, 4, 3);
        let words = discretize(&series, &cfg, true);
        for pair in words.windows(2) {
            prop_assert!(pair[0].offset < pair[1].offset);
            prop_assert!(pair[0].word != pair[1].word);
        }
    }

    /// The pattern distance is symmetric and zero on identity.
    #[test]
    fn pattern_distance_symmetry(a in random_walk(40), b in random_walk(25)) {
        let d1 = pattern_distance(&a, &b, true);
        let d2 = pattern_distance(&b, &a, true);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!(pattern_distance(&a, &a, true) < 1e-9);
    }

    /// The rotation-invariant transform never exceeds the plain one.
    #[test]
    fn rotation_invariant_transform_is_a_lower_envelope(
        series in random_walk(80),
        p1 in random_walk(12),
        p2 in random_walk(20),
    ) {
        let pats = vec![p1, p2];
        let plain = transform_series(&series, &pats, false);
        let inv = transform_series(&series, &pats, true);
        for (a, b) in inv.iter().zip(&plain) {
            prop_assert!(a <= b);
        }
    }

    /// Rotating a series twice by complementary cuts restores it.
    #[test]
    fn rotation_composes(series in random_walk(50), cut in 0usize..50) {
        let r = rotate(&series, cut);
        let back = rotate(&r, (50 - cut) % 50);
        prop_assert_eq!(back, series);
    }

    /// PAA of the z-normalized series keeps values within the z-range.
    #[test]
    fn paa_preserves_value_envelope(series in random_walk(64), w in 1usize..32) {
        let z = znorm(&series);
        let lo = z.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for v in paa(&z, w) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// DTW never exceeds the Euclidean (identity-alignment) distance.
    #[test]
    fn dtw_lower_bounds_euclidean(a in random_walk(30), b in random_walk(30)) {
        let eu = rpm::ts::euclidean(&a, &b);
        prop_assert!(dtw_distance(&a, &b) <= eu + 1e-9);
    }

    /// Transform features are always finite and non-negative.
    #[test]
    fn transform_features_are_finite(series in random_walk(60), p in random_walk(90)) {
        // Pattern deliberately longer than the series to hit the
        // resampling fallback too.
        let f = transform_series(&series, &[p], false);
        prop_assert!(f[0].is_finite());
        prop_assert!(f[0] >= 0.0);
    }

    /// A linear SVM trained on any cleanly margin-separated 1-D data must
    /// classify the training points correctly.
    #[test]
    fn linear_svm_fits_separated_clusters(
        gap in 2.0f64..20.0,
        spread in 0.01f64..0.4,
        n in 4usize..20,
    ) {
        use rpm::ml::{LinearSvm, SvmParams};
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let jitter = spread * ((i * 2654435761) % 97) as f64 / 97.0;
            rows.push(vec![jitter]);
            labels.push(0);
            rows.push(vec![gap + jitter]);
            labels.push(1);
        }
        let m = LinearSvm::train(&rows, &labels, &SvmParams::default());
        for (r, &l) in rows.iter().zip(&labels) {
            prop_assert_eq!(m.predict(r), l);
        }
    }

    /// k-means inertia never increases when k grows (with fixed seed the
    /// solver may be suboptimal, so allow a generous tolerance factor).
    #[test]
    fn kmeans_more_clusters_never_much_worse(seed in 0u64..500) {
        use rpm::cluster::kmeans;
        let points: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![((i * 37 + seed as usize) % 11) as f64, (i % 5) as f64])
            .collect();
        let k2 = kmeans(&points, 2, 50, seed);
        let k6 = kmeans(&points, 6, 50, seed);
        prop_assert!(k6.inertia <= k2.inertia * 1.5 + 1e-9);
    }

    /// CFS always returns in-range, deduplicated feature indices.
    #[test]
    fn cfs_indices_are_valid(n_features in 1usize..8, n in 6usize..30) {
        use rpm::ml::{cfs_select, CfsParams};
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n_features).map(|j| ((i * (j + 3) * 7919) % 23) as f64).collect())
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let sel = cfs_select(&rows, &labels, &CfsParams::default());
        let mut sorted = sel.clone();
        sorted.dedup();
        prop_assert_eq!(&sorted, &sel, "sorted + deduplicated");
        for &i in &sel {
            prop_assert!(i < n_features);
        }
    }

    /// Wilcoxon p-values are valid probabilities, and identical samples
    /// are never significant.
    #[test]
    fn wilcoxon_p_is_a_probability(
        a in proptest::collection::vec(-10.0f64..10.0, 5..40),
    ) {
        use rpm::ml::wilcoxon_signed_rank;
        let b: Vec<f64> = a.iter().map(|x| x * 0.9 + 0.1).collect();
        let r = wilcoxon_signed_rank(&a, &b);
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        let same = wilcoxon_signed_rank(&a, &a);
        prop_assert_eq!(same.p_value, 1.0);
    }

    /// Model persistence round trip preserves predictions for any
    /// trainable random dataset.
    #[test]
    fn persistence_roundtrip_random_data(seed in 0u64..20) {
        use rpm::prelude::*;
        let train = rpm::data::cbf::generate(6, 64, seed);
        let config = RpmConfig::fixed(SaxConfig::new(16, 4, 4));
        if let Ok(model) = RpmClassifier::train(&train, &config) {
            let mut buf = Vec::new();
            model.save(&mut buf).unwrap();
            let loaded = RpmClassifier::load(buf.as_slice()).unwrap();
            let probe = rpm::data::cbf::generate(2, 64, seed + 1000);
            prop_assert_eq!(
                model.predict_batch(&probe.series),
                loaded.predict_batch(&probe.series)
            );
        }
    }
}
