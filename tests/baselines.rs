//! Integration tests for the five comparison classifiers on generated
//! suite data: each must be clearly better than chance on datasets that
//! suit it, and the cross-method relationships the paper relies on must
//! hold in the small.

use rpm::baselines::{
    Classifier, FastShapelets, FastShapeletsParams, LearningShapelets, LearningShapeletsParams,
    OneNnDtw, OneNnEuclidean, SaxVsm, SaxVsmParams,
};
use rpm::prelude::*;
use rpm_data::{generate, registry::spec_by_name};

fn small(name: &str, train_n: usize, test_n: usize) -> (Dataset, Dataset) {
    let mut spec = spec_by_name(name).unwrap();
    spec.train = train_n;
    spec.test = test_n;
    generate(&spec, 100)
}

#[test]
fn nn_ed_on_gun_point() {
    let (train, test) = small("GunPoint", 30, 40);
    let m = OneNnEuclidean::train(&train);
    let err = error_rate(&test.labels, &m.predict_batch(&test.series));
    assert!(err < 0.2, "NN-ED error {err}");
}

#[test]
fn nn_dtw_on_cbf_beats_chance() {
    let (train, test) = small("CBF", 18, 30);
    let m = OneNnDtw::train(&train);
    let err = error_rate(&test.labels, &m.predict_batch(&test.series));
    assert!(err < 0.3, "NN-DTWB error {err} (chance 0.67)");
}

#[test]
fn sax_vsm_on_cbf() {
    let (train, test) = small("CBF", 18, 30);
    let m = SaxVsm::train(&train, &SaxVsmParams::for_length(128));
    let err = error_rate(&test.labels, &m.predict_batch(&test.series));
    assert!(err < 0.35, "SAX-VSM error {err}");
}

#[test]
fn fast_shapelets_on_gun_point() {
    let (train, test) = small("GunPoint", 30, 40);
    let m = FastShapelets::train(&train, &FastShapeletsParams::default());
    let err = error_rate(&test.labels, &m.predict_batch(&test.series));
    assert!(err < 0.3, "FS error {err}");
}

#[test]
fn learning_shapelets_on_gun_point() {
    let (train, test) = small("GunPoint", 30, 40);
    let m = LearningShapelets::train(
        &train,
        &LearningShapeletsParams {
            max_iter: 150,
            ..Default::default()
        },
    );
    let err = error_rate(&test.labels, &m.predict_batch(&test.series));
    assert!(err < 0.3, "LS error {err}");
}

#[test]
fn all_methods_agree_on_an_easy_dataset() {
    // Trace transients are nearly separable; every method should be far
    // from chance (0.75), demonstrating the harness treats them fairly.
    let (train, test) = small("Trace", 40, 40);
    let errs = [
        error_rate(
            &test.labels,
            &OneNnEuclidean::train(&train).predict_batch(&test.series),
        ),
        error_rate(
            &test.labels,
            &SaxVsm::train(&train, &SaxVsmParams::for_length(200)).predict_batch(&test.series),
        ),
        error_rate(
            &test.labels,
            &FastShapelets::train(&train, &FastShapeletsParams::default())
                .predict_batch(&test.series),
        ),
        error_rate(
            &test.labels,
            &RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(40, 4, 4)))
                .unwrap()
                .predict_batch(&test.series),
        ),
    ];
    for (i, e) in errs.iter().enumerate() {
        assert!(*e < 0.4, "method {i} error {e}");
    }
}

#[test]
fn shapelet_transform_on_gun_point() {
    use rpm::baselines::{ShapeletTransform, ShapeletTransformParams};
    let (train, test) = small("GunPoint", 30, 40);
    let m = ShapeletTransform::train(&train, &ShapeletTransformParams::default());
    let err = error_rate(&test.labels, &m.predict_batch(&test.series));
    assert!(err < 0.3, "ST error {err}");
}

#[test]
fn any_classifier_works_on_rpm_features() {
    // §3.1: the transformed space works with any classifier. Train RPM
    // once, reuse its features with SVM (built in), kNN, logistic, and
    // the RBF kernel SVM; all must beat chance clearly.
    use rpm::ml::{KernelSvm, KernelSvmParams};
    use rpm::ml::{Knn, Logistic, LogisticParams};
    let (train, test) = small("CBF", 18, 30);
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(24, 4, 4))).unwrap();
    let train_f: Vec<Vec<f64>> = train.series.iter().map(|s| model.transform(s)).collect();
    let test_f: Vec<Vec<f64>> = test.series.iter().map(|s| model.transform(s)).collect();

    let svm_err = error_rate(&test.labels, &model.predict_batch(&test.series));
    let knn = Knn::train(&train_f, &train.labels, 3);
    let knn_err = error_rate(&test.labels, &knn.predict_batch(&test_f));
    let lg = Logistic::train(&train_f, &train.labels, &LogisticParams::default());
    let lg_preds: Vec<usize> = test_f.iter().map(|r| lg.predict(r)).collect();
    let lg_err = error_rate(&test.labels, &lg_preds);
    let rbf = KernelSvm::train(&train_f, &train.labels, &KernelSvmParams::default());
    let rbf_err = error_rate(&test.labels, &rbf.predict_batch(&test_f));

    for (name, err) in [
        ("svm", svm_err),
        ("knn", knn_err),
        ("logistic", lg_err),
        ("rbf-svm", rbf_err),
    ] {
        assert!(err < 0.35, "{name} error {err} (chance 0.67)");
    }
}

#[test]
fn rpm_is_much_faster_than_learning_shapelets() {
    // The core Table 2 claim, verified in the small: same data, wall
    // clock, identical fixed-parameter footing for RPM.
    let (train, test) = small("CBF", 18, 20);
    let t0 = std::time::Instant::now();
    let rpm = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(32, 4, 4))).unwrap();
    rpm.predict_batch(&test.series);
    let rpm_t = t0.elapsed();

    let t1 = std::time::Instant::now();
    let ls = LearningShapelets::train(
        &train,
        &LearningShapeletsParams {
            max_iter: 200,
            ..Default::default()
        },
    );
    ls.predict_batch(&test.series);
    let ls_t = t1.elapsed();

    assert!(
        ls_t > rpm_t,
        "LS ({ls_t:?}) should be slower than fixed-parameter RPM ({rpm_t:?})"
    );
}
