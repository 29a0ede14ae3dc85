//! Microbenchmarks of the numeric kernels: the closest-match search (with
//! and without early abandoning — the §5.3 optimization), SAX
//! discretization, Sequitur induction, banded DTW, and the disabled-path
//! cost of the observability probes (one relaxed atomic load each).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rpm_baselines::dtw_distance_banded;
use rpm_grammar::infer;
use rpm_sax::{discretize, SaxConfig};
use rpm_ts::{best_match, best_match_naive, prepare_pattern};

fn synthetic_series(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    let mut acc = 0.0f64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            acc += ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            acc
        })
        .collect()
}

fn bench_best_match(c: &mut Criterion) {
    let series = synthetic_series(2048, 7);
    let pattern = series[512..576].to_vec();
    let mut g = c.benchmark_group("best_match");
    g.bench_function("early_abandon", |b| {
        b.iter(|| best_match(black_box(&pattern), black_box(&series), true))
    });
    g.bench_function("exhaustive", |b| {
        b.iter(|| best_match(black_box(&pattern), black_box(&series), false))
    });
    g.finish();
}

/// Naive per-window z-normalization vs the rolling-statistics kernel, and
/// the plan-reuse path that amortizes pattern preparation across series —
/// the acceptance gate is rolling ≥ 3× naive for patterns ≥ 64 over
/// series ≥ 1024 (see BENCH.md).
fn bench_match_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_kernel");
    for &(m, n) in &[(64usize, 2048usize), (64, 8192), (128, 2048), (128, 8192)] {
        let series = synthetic_series(n, 7);
        let pattern = series[n / 4..n / 4 + m].to_vec();
        let id = format!("m{m}_n{n}");
        g.bench_with_input(BenchmarkId::new("naive", &id), &pattern, |b, p| {
            b.iter(|| best_match_naive(black_box(p), black_box(&series), true))
        });
        g.bench_with_input(BenchmarkId::new("rolling", &id), &pattern, |b, p| {
            b.iter(|| best_match(black_box(p), black_box(&series), true))
        });
        let plan = prepare_pattern(&pattern);
        g.bench_with_input(BenchmarkId::new("plan_reuse", &id), &plan, |b, plan| {
            b.iter(|| plan.best_match(black_box(&series), true))
        });
    }

    // Pattern-set scans: K patterns over one series — the per-pattern
    // rolling loop (K RollingStats builds, K full window sweeps) vs one
    // batched cascade pass (stats shared, most exact loops pruned by the
    // lower-bound tiers). The acceptance gate is batched ≥ 3× per-pattern
    // on the multi-pattern transform (see BENCH.md).
    for &(k, m, n) in &[
        (8usize, 64usize, 2048usize),
        (16, 64, 8192),
        (16, 128, 8192),
    ] {
        let series = synthetic_series(n, 7);
        // Patterns are staggered subsequences of the series itself —
        // mined patterns come from the data they later scan, so every
        // pattern has a (near-)perfect window somewhere and the cascade's
        // bounds are exercised at realistic best-so-far levels.
        let patterns: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                let at = (i * (n - m)) / k;
                series[at..at + m].to_vec()
            })
            .collect();
        let rolling_plans: Vec<rpm_ts::MatchPlan> =
            patterns.iter().map(|p| prepare_pattern(p)).collect();
        let batched_plans: Vec<rpm_ts::MatchPlan> = patterns
            .iter()
            .map(|p| rpm_ts::MatchPlan::with_kernel(p, rpm_ts::MatchKernel::Batched))
            .collect();
        let set = rpm_ts::BatchedMatch::new(&batched_plans);
        let id = format!("k{k}_m{m}_n{n}");
        g.bench_with_input(
            BenchmarkId::new("set_per_pattern", &id),
            &rolling_plans,
            |b, plans| {
                b.iter(|| {
                    plans
                        .iter()
                        .map(|p| p.best_match(black_box(&series), true))
                        .collect::<Vec<_>>()
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("set_batched", &id), &set, |b, set| {
            b.iter(|| set.match_all(black_box(&series), true, None))
        });
    }

    // The classification-path composite: transform a batch of series into
    // the K-pattern feature space — what `predict_batch` pays per batch.
    // Mined patterns recur across instances (that is what makes them
    // patterns), so each batch series embeds the pattern set at
    // staggered, per-series-shuffled offsets: the cascade runs at the
    // tight best-so-far levels the real pipeline sees once a pattern
    // finds its occurrence.
    for (k, n) in [(16usize, 2048usize), (32, 4096)] {
        use rpm_core::{prepare_patterns, transform_set_plans_engine_counted, Engine, MatchKernel};
        let master = synthetic_series(n, 97);
        let patterns: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                let at = (i * (n - 64)) / k;
                master[at..at + 64].to_vec()
            })
            .collect();
        let batch: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let mut s = synthetic_series(n, 200 + i as u64);
                for j in 0..k {
                    let p = &patterns[(j + i) % k];
                    let at = j * (n / k) + (i % 3) * 17;
                    s[at..at + p.len()].copy_from_slice(p);
                }
                s
            })
            .collect();
        let rolling_plans = prepare_patterns(&patterns, MatchKernel::Rolling);
        let batched_plans = prepare_patterns(&patterns, MatchKernel::Batched);
        let engine = Engine::serial();
        g.bench_function(format!("transform_rolling_k{k}"), |b| {
            b.iter(|| {
                let batch = black_box(&batch);
                transform_set_plans_engine_counted(
                    batch,
                    &rolling_plans,
                    false,
                    true,
                    &engine,
                    None,
                )
                .unwrap()
            })
        });
        g.bench_function(format!("transform_batched_k{k}"), |b| {
            b.iter(|| {
                let batch = black_box(&batch);
                transform_set_plans_engine_counted(
                    batch,
                    &batched_plans,
                    false,
                    true,
                    &engine,
                    None,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_discretize(c: &mut Criterion) {
    let series = synthetic_series(1024, 11);
    let cfg = SaxConfig::new(64, 8, 4);
    let mut g = c.benchmark_group("sax_discretize");
    g.bench_function("with_numerosity_reduction", |b| {
        b.iter(|| discretize(black_box(&series), &cfg, true))
    });
    g.bench_function("without_numerosity_reduction", |b| {
        b.iter(|| discretize(black_box(&series), &cfg, false))
    });
    g.finish();
}

fn bench_sequitur(c: &mut Criterion) {
    let mut g = c.benchmark_group("sequitur");
    for &n in &[256usize, 1024, 4096] {
        let tokens: Vec<u32> = (0..n).map(|i| ((i * i) % 17) as u32).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &tokens, |b, t| {
            b.iter(|| infer(black_box(t)))
        });
    }
    g.finish();
}

fn bench_dtw(c: &mut Criterion) {
    let a = synthetic_series(256, 3);
    let b_series = synthetic_series(256, 5);
    let mut g = c.benchmark_group("dtw_banded");
    for &band in &[0usize, 8, 32, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(band), &band, |b, &band| {
            b.iter(|| dtw_distance_banded(black_box(&a), black_box(&b_series), band))
        });
    }
    g.finish();
}

/// Cost of observability probes while recording is OFF — the state every
/// production run pays. Each probe must compile down to one relaxed
/// atomic load plus a branch; the instrumented kernel is compared against
/// an identical closure with no probe.
fn bench_obs_disabled(c: &mut Criterion) {
    assert_eq!(rpm_obs::level(), rpm_obs::ObsLevel::Off);
    let mut g = c.benchmark_group("obs_disabled");
    g.bench_function("span_enter_drop", |b| {
        b.iter(|| {
            let _span = rpm_obs::span!("bench");
            black_box(())
        })
    });
    g.bench_function("counter_add", |b| {
        b.iter(|| rpm_obs::metrics().engine_jobs.add(black_box(1)))
    });
    g.bench_function("histogram_observe", |b| {
        b.iter(|| rpm_obs::metrics().engine_drain.observe(black_box(42)))
    });
    // The same tight loop with and without a probe inside: the delta is
    // the per-iteration overhead an instrumented hot loop pays when off.
    let series = synthetic_series(256, 13);
    g.bench_function("sum_loop_plain", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for v in black_box(&series) {
                acc += v;
            }
            black_box(acc)
        })
    });
    g.bench_function("sum_loop_probed", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for v in black_box(&series) {
                rpm_obs::metrics().engine_jobs.add(1);
                acc += v;
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Cost of fault-injection sites while no plan is armed — the state every
/// run outside chaos testing pays. `point`/`fire` must compile down to
/// one relaxed atomic load plus a branch, like the obs probes above.
fn bench_fault_disabled(c: &mut Criterion) {
    assert!(!rpm_obs::fault::active());
    let mut g = c.benchmark_group("fault_disabled");
    g.bench_function("point", |b| {
        b.iter(|| rpm_obs::fault::point(black_box("bench.site")))
    });
    g.bench_function("fire", |b| {
        b.iter(|| rpm_obs::fault::fire(black_box("bench.site")))
    });
    // The same tight loop with and without a site inside: the delta is
    // the per-iteration overhead a guarded hot loop pays when off.
    let series = synthetic_series(256, 13);
    g.bench_function("sum_loop_plain", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for v in black_box(&series) {
                acc += v;
            }
            black_box(acc)
        })
    });
    g.bench_function("sum_loop_with_site", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for v in black_box(&series) {
                rpm_obs::fault::fire("bench.site");
                acc += v;
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Single-series predict latency with recording off vs on — the serving
/// acceptance gate: turning the metrics level up must not measurably
/// slow the inference path (two histogram observations + two clock
/// reads per predict, against a closest-match scan over every pattern).
/// Runs last: `bench_obs_disabled` asserts the level is still Off.
fn bench_predict_latency(c: &mut Criterion) {
    use rpm_core::{RpmClassifier, RpmConfig};
    let train = rpm_data::cbf::generate(8, 128, 21);
    let series = rpm_data::cbf::generate(1, 128, 22).series.remove(0);
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(32, 4, 4)))
        .expect("train for predict bench");
    let mut g = c.benchmark_group("predict_latency");
    g.bench_function("obs_off", |b| b.iter(|| model.predict(black_box(&series))));
    rpm_obs::ObsConfig {
        level: rpm_obs::ObsLevel::Summary,
        ..Default::default()
    }
    .install();
    g.bench_function("obs_summary", |b| {
        b.iter(|| model.predict(black_box(&series)))
    });
    rpm_obs::ObsConfig::default().install();
    g.finish();
}

/// Cost of request-scoped tracing on the serving path — the acceptance
/// gate (BENCH.md): the traced batch predict (kernel counters attached)
/// must stay within 2% of the untraced path at p99, and the per-request
/// bookkeeping (build a trace, add the serving span tree, finish, offer
/// it to the flight recorder) must be microseconds, dwarfed by any real
/// predict.
fn bench_trace_overhead(c: &mut Criterion) {
    use rpm_core::{Parallelism, RpmClassifier, RpmConfig};
    use rpm_ts::ScanCounters;
    let train = rpm_data::cbf::generate(8, 128, 21);
    let batch = rpm_data::cbf::generate(4, 128, 22).series;
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(32, 4, 4)))
        .expect("train for trace bench");
    let mut g = c.benchmark_group("trace_overhead");
    g.bench_function("predict_untraced", |b| {
        b.iter(|| {
            model
                .predict_batch_with(black_box(&batch), Parallelism::Serial, None)
                .expect("predict")
        })
    });
    let counters = ScanCounters::new();
    g.bench_function("predict_counted", |b| {
        b.iter(|| {
            model
                .predict_batch_with(black_box(&batch), Parallelism::Serial, Some(&counters))
                .expect("predict")
        })
    });
    g.bench_function("trace_record_cycle", |b| {
        b.iter(|| {
            let ctx = rpm_obs::TraceCtx::begin(black_box(None));
            let t0 = ctx.start_ns();
            ctx.add_span("parse", t0, 1_000);
            ctx.add_span("queue_wait", t0 + 1_000, 2_000);
            let batch_span = ctx.add_span_with(
                "batch",
                Some(ctx.root_span()),
                t0 + 3_000,
                10_000,
                vec![
                    ("batch", "1".to_string()),
                    ("series", "4".to_string()),
                    ("requests", "4".to_string()),
                ],
                Vec::new(),
            );
            ctx.add_span_with(
                "predict",
                Some(batch_span),
                t0 + 3_000,
                9_000,
                vec![
                    ("searches", "128".to_string()),
                    ("windows", "4096".to_string()),
                ],
                Vec::new(),
            );
            ctx.add_span("respond", t0 + 13_000, 500);
            rpm_obs::recorder().record(ctx.finish(rpm_obs::TraceOutcome::Ok, 200))
        })
    });
    g.finish();
}

/// Cost of online drift monitoring on the serving path — the acceptance
/// gate (BENCH.md): the observed batch predict (drift samples extracted
/// and folded into the monitor's epoch sketches) must stay within 2% of
/// the traced path at p99. The per-sample fold is a handful of relaxed
/// atomic increments into log₂ buckets; scoring the window (PSI + KS
/// per metric, what `/debug/drift` pays per request) is also measured
/// so the read side stays honest.
fn bench_drift_overhead(c: &mut Criterion) {
    use rpm_core::{Parallelism, RpmClassifier, RpmConfig};
    use rpm_obs::{DriftConfig, DriftMonitor};
    use rpm_ts::ScanCounters;
    let train = rpm_data::cbf::generate(8, 128, 21);
    let batch = rpm_data::cbf::generate(4, 128, 22).series;
    let model = RpmClassifier::train(&train, &RpmConfig::fixed(SaxConfig::new(32, 4, 4)))
        .expect("train for drift bench");
    let profile = model
        .reference_profile()
        .expect("training builds a reference profile");
    let monitor = DriftMonitor::new(profile, DriftConfig::default());
    let counters = ScanCounters::new();

    let mut g = c.benchmark_group("drift_overhead");
    g.bench_function("predict_traced", |b| {
        b.iter(|| {
            model
                .predict_batch_with(black_box(&batch), Parallelism::Serial, Some(&counters))
                .expect("predict")
        })
    });
    g.bench_function("predict_observed", |b| {
        b.iter(|| {
            let observed = model
                .predict_batch_observed(black_box(&batch), Parallelism::Serial, Some(&counters))
                .expect("predict");
            for (label, sample) in &observed {
                monitor.observe(sample);
                black_box(label);
            }
        })
    });
    // Warm the window so report() scores real sketches, then measure the
    // on-demand scoring cost (read side: /debug/drift, /metrics gauges).
    let samples: Vec<_> = model
        .predict_batch_observed(&batch, Parallelism::Serial, None)
        .expect("predict");
    for (_, sample) in &samples {
        monitor.observe(sample);
    }
    g.bench_function("drift_report", |b| b.iter(|| monitor.report()));
    g.finish();
}

criterion_group!(
    benches,
    bench_best_match,
    bench_match_kernel,
    bench_discretize,
    bench_sequitur,
    bench_dtw,
    bench_obs_disabled,
    bench_fault_disabled,
    bench_predict_latency,
    bench_trace_overhead,
    bench_drift_overhead
);
criterion_main!(benches);
