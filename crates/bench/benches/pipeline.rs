//! Pipeline-level benchmarks: RPM training stages and the rival
//! classifiers on a common small dataset, so relative costs (the substance
//! of Table 2) are visible at criterion precision.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpm_baselines::{
    Classifier, FastShapelets, FastShapeletsParams, LearningShapelets, LearningShapeletsParams,
    OneNnDtw, OneNnEuclidean, SaxVsm, SaxVsmParams,
};
use rpm_core::{find_candidates_for_class, RpmClassifier, RpmConfig};
use rpm_sax::SaxConfig;
use rpm_ts::Dataset;

fn train_set() -> Dataset {
    rpm_data::cbf::generate(6, 128, 1)
}

fn bench_rpm_stages(c: &mut Criterion) {
    let train = train_set();
    let sax = SaxConfig::new(32, 4, 4);
    let config = RpmConfig::fixed(sax);
    let view = train.by_class().into_iter().next().unwrap();
    let model = RpmClassifier::train(&train, &config).unwrap();
    let query = train.series[0].clone();

    let mut g = c.benchmark_group("rpm_stages");
    g.bench_function("find_candidates_one_class", |b| {
        b.iter(|| find_candidates_for_class(black_box(&view.members), 0, &sax, &config))
    });
    g.bench_function("train_full_fixed_params", |b| {
        b.iter(|| RpmClassifier::train(black_box(&train), &config).unwrap())
    });
    g.bench_function("transform_one_series", |b| {
        b.iter(|| model.transform(black_box(&query)))
    });
    g.bench_function("predict_one_series", |b| {
        b.iter(|| model.predict(black_box(&query)))
    });
    g.finish();
}

fn bench_rivals(c: &mut Criterion) {
    let train = train_set();
    let query = train.series[0].clone();
    let mut g = c.benchmark_group("rival_training");
    g.sample_size(10);
    g.bench_function("nn_ed", |b| {
        b.iter(|| OneNnEuclidean::train(black_box(&train)))
    });
    g.bench_function("nn_dtw_best_window", |b| {
        b.iter(|| OneNnDtw::train(black_box(&train)))
    });
    g.bench_function("sax_vsm", |b| {
        b.iter(|| SaxVsm::train(black_box(&train), &SaxVsmParams::for_length(128)))
    });
    g.bench_function("fast_shapelets", |b| {
        b.iter(|| FastShapelets::train(black_box(&train), &FastShapeletsParams::default()))
    });
    g.bench_function("learning_shapelets_50it", |b| {
        b.iter(|| {
            LearningShapelets::train(
                black_box(&train),
                &LearningShapeletsParams {
                    max_iter: 50,
                    ..Default::default()
                },
            )
        })
    });
    g.finish();

    let nn = OneNnEuclidean::train(&train);
    let mut g2 = c.benchmark_group("rival_prediction");
    g2.bench_function("nn_ed_predict", |b| {
        b.iter(|| nn.predict(black_box(&query)))
    });
    g2.finish();
}

criterion_group!(benches, bench_rpm_stages, bench_rivals);
criterion_main!(benches);
