//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro table1    Table 1  : classification error rates, 6 classifiers
//! repro fig7      Figure 7 : pairwise error scatter + Wilcoxon p-values
//! repro table2    Table 2  : training+classification runtimes
//! repro fig8      Figure 8 : log-runtime scatter pairs
//! repro table3    Table 3/Fig. 9: τ percentile sweep (runtime & error)
//! repro table4    Table 4/Fig.10: rotated-test-set error rates
//!                 (--dropout [FRAC]: NaN dropout + interpolation instead)
//! repro fig2      Figure 2 : best representative patterns on CBF
//! repro fig3      Figure 3 : best representative patterns on Coffee
//! repro fig4      Figure 4 : grammar-rule occurrences (variable length)
//! repro fig56     Figures 5-6: ECGFiveDays patterns + 2-D feature space
//! repro alarm     §6.2    : medical-alarm case study (ABP)
//! repro ablation  DESIGN.md ablations (NR, medoid, search, classifier)
//! repro all       everything above (suite is evaluated once)
//! ```

use rpm_baselines::{OneNnDtw, OneNnEuclidean, SaxVsm, SaxVsmParams};
use rpm_bench::{
    harness::evaluate_dataset_with, run_suite, ClassifierKind, DatasetResult, SuiteOptions,
};
use rpm_core::{ParamSearch, RpmClassifier, RpmConfig};
use rpm_data::{
    dropout_dataset, generate, interpolate_gaps, registry::spec_by_name, rotate_dataset, suite,
};
use rpm_grammar::infer;
use rpm_ml::{error_rate, wilcoxon_signed_rank};
use rpm_sax::{discretize, SaxConfig};
use rpm_ts::{Classifier, Dataset};
use std::collections::HashMap;
use std::time::Instant;

/// Worker count for parallel RPM training: the `RPM_THREADS` environment
/// variable if set, otherwise one per available CPU (results are
/// bit-identical at any thread count).
fn threads() -> usize {
    std::env::var("RPM_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Test error of any trained method, through the shared [`Classifier`]
/// trait object — the single evaluation path for all six methods.
fn eval_method(model: &dyn Classifier, test: &Dataset) -> f64 {
    let refs: Vec<&[f64]> = test.series.iter().map(Vec::as_slice).collect();
    error_rate(&test.labels, &model.predict_batch_refs(&refs))
}

fn main() {
    rpm_obs::init_env_default(rpm_obs::ObsLevel::Summary);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let mut cache = SuiteCache::default();
    match cmd {
        "table1" => table1(&mut cache),
        "fig7" => fig7(&mut cache),
        "table2" => table2(&mut cache),
        "fig8" => fig8(&mut cache),
        "table3" | "fig9" => table3(),
        "table4" | "fig10" => table4(dropout_flag(&args)),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig56" => fig56(),
        "alarm" => alarm(),
        "ablation" => ablation(),
        "extras" => extras(),
        "all" => {
            table1(&mut cache);
            fig7(&mut cache);
            table2(&mut cache);
            fig8(&mut cache);
            table3();
            table4(dropout_flag(&args));
            fig2();
            fig3();
            fig4();
            fig56();
            alarm();
            ablation();
            extras();
        }
        other => {
            eprintln!("unknown experiment {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
    // Stage tree to stderr + optional JSONL report (RPM_LOG=...,json=PATH).
    rpm_obs::finish();
}

/// The Table 1/2 suite run is shared by four views; compute it once.
#[derive(Default)]
struct SuiteCache {
    results: Option<Vec<DatasetResult>>,
}

impl SuiteCache {
    fn results(&mut self) -> &[DatasetResult] {
        if self.results.is_none() {
            let mut options = SuiteOptions::default();
            options.rpm.n_threads = threads();
            let results = run_suite(&suite(), &options);
            // Machine-readable companion to the printed tables: next free
            // BENCH_<n>.json in the working directory (never overwrites).
            match rpm_bench::write_bench_json(std::path::Path::new("."), &results) {
                Ok(path) => eprintln!("suite results written to {}", path.display()),
                Err(e) => eprintln!("could not write bench JSON: {e}"),
            }
            self.results = Some(results);
        }
        self.results.as_ref().unwrap()
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

// ---------------------------------------------------------------- Table 1

fn table1(cache: &mut SuiteCache) {
    header("Table 1: classification error rates");
    let results = cache.results();
    print!("{:<18}", "Dataset");
    for k in ClassifierKind::ALL {
        print!("{:>9}", k.name());
    }
    println!();
    let mut wins: HashMap<ClassifierKind, usize> = HashMap::new();
    for r in results {
        print!("{:<18}", r.name);
        let best = r
            .outcomes
            .iter()
            .map(|(_, o)| o.error)
            .fold(f64::INFINITY, f64::min);
        for k in ClassifierKind::ALL {
            let e = r.get(k).error;
            print!("{e:>9.3}");
            if (e - best).abs() < 1e-12 {
                *wins.entry(k).or_insert(0) += 1;
            }
        }
        println!();
    }
    print!("{:<18}", "# best (w/ ties)");
    for k in ClassifierKind::ALL {
        print!("{:>9}", wins.get(&k).copied().unwrap_or(0));
    }
    println!();
}

// ---------------------------------------------------------------- Figure 7

fn fig7(cache: &mut SuiteCache) {
    header("Figure 7: pairwise error comparison vs RPM (+ Wilcoxon)");
    let results = cache.results();
    let rpm: Vec<f64> = results
        .iter()
        .map(|r| r.get(ClassifierKind::Rpm).error)
        .collect();
    for rival in [
        ClassifierKind::NnDtwB,
        ClassifierKind::SaxVsm,
        ClassifierKind::Fs,
        ClassifierKind::Ls,
    ] {
        let other: Vec<f64> = results.iter().map(|r| r.get(rival).error).collect();
        println!(
            "\n--- {} vs RPM (x = {}, y = RPM; below diagonal = RPM wins)",
            rival.name(),
            rival.name()
        );
        for (r, (o, p)) in results.iter().zip(other.iter().zip(&rpm)) {
            println!("  {:<18} {o:.3} {p:.3}", r.name);
        }
        let w = wilcoxon_signed_rank(&rpm, &other);
        let rpm_wins = other.iter().zip(&rpm).filter(|(o, p)| p < o).count();
        let rival_wins = other.iter().zip(&rpm).filter(|(o, p)| p > o).count();
        println!(
            "  Wilcoxon p = {:.4}  (RPM wins {rpm_wins}, {} wins {rival_wins}, ties {})",
            w.p_value,
            rival.name(),
            results.len() - rpm_wins - rival_wins,
        );
    }
}

// ---------------------------------------------------------------- Table 2

fn table2(cache: &mut SuiteCache) {
    header("Table 2: running time (train + classify, seconds)");
    let results = cache.results();
    let kinds = [ClassifierKind::Ls, ClassifierKind::Fs, ClassifierKind::Rpm];
    print!("{:<18}", "Dataset");
    for k in kinds {
        print!("{:>10}", k.name());
    }
    println!("{:>12}", "LS/RPM");
    let mut wins: HashMap<ClassifierKind, usize> = HashMap::new();
    let mut speedups = Vec::new();
    for r in results {
        print!("{:<18}", r.name);
        let best = kinds
            .iter()
            .map(|&k| r.get(k).time.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        for k in kinds {
            let t = r.get(k).time.as_secs_f64();
            print!("{t:>10.3}");
            if (t - best).abs() < 1e-12 {
                *wins.entry(k).or_insert(0) += 1;
            }
        }
        let speedup = r.get(ClassifierKind::Ls).time.as_secs_f64()
            / r.get(ClassifierKind::Rpm).time.as_secs_f64().max(1e-9);
        speedups.push(speedup);
        println!("{speedup:>11.1}x");
    }
    print!("{:<18}", "# best (w/ ties)");
    for k in kinds {
        print!("{:>10}", wins.get(&k).copied().unwrap_or(0));
    }
    println!();
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let max = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("LS vs RPM speedup: average {avg:.1}x, max {max:.1}x");
}

// ---------------------------------------------------------------- Figure 8

fn fig8(cache: &mut SuiteCache) {
    header("Figure 8: runtime scatter, log10 seconds (x = rival, y = RPM)");
    let results = cache.results();
    for rival in [ClassifierKind::Ls, ClassifierKind::Fs] {
        println!("\n--- {} vs RPM", rival.name());
        for r in results {
            let x = r.get(rival).time.as_secs_f64().max(1e-6).log10();
            let y = r
                .get(ClassifierKind::Rpm)
                .time
                .as_secs_f64()
                .max(1e-6)
                .log10();
            println!("  {:<18} {x:>7.3} {y:>7.3}", r.name);
        }
    }
}

// ------------------------------------------------------- Table 3 / Figure 9

fn table3() {
    header("Table 3 / Figure 9: similarity threshold τ percentile sweep");
    let names = ["CBF", "GunPoint", "ECGFiveDays", "ItalyPowerDemand"];
    let percentiles = [10.0, 30.0, 50.0, 70.0, 90.0];
    println!(
        "{:<18}{:>10}{:>12}{:>12}",
        "Dataset", "tau pct", "time (s)", "error"
    );
    let mut base: HashMap<&str, (f64, f64)> = HashMap::new();
    for name in names {
        let spec = spec_by_name(name).expect("suite dataset");
        let (train, test) = generate(&spec, 2016);
        for &pct in &percentiles {
            let config = RpmConfig {
                tau_percentile: pct,
                param_search: ParamSearch::Direct {
                    max_evals: 8,
                    per_class: false,
                },
                n_validation_splits: 2,
                n_threads: threads(),
                ..RpmConfig::default()
            };
            let start = Instant::now();
            let model = RpmClassifier::train(&train, &config).expect("train");
            let err = eval_method(&model, &test);
            let secs = start.elapsed().as_secs_f64();
            println!("{name:<18}{pct:>10.0}{secs:>12.3}{err:>12.3}");
            if pct == 30.0 {
                base.insert(name, (secs, err));
            }
        }
    }
    println!("(the paper reports <2% average error change across the sweep)");
}

// ------------------------------------------------------ Table 4 / Figure 10

/// `--dropout [FRACTION]`: swap Table 4's rotation corruption for NaN
/// dropout + linear-interpolation repair. Bare `--dropout` uses 0.1.
fn dropout_flag(args: &[String]) -> Option<f64> {
    let at = args.iter().position(|a| a == "--dropout")?;
    Some(
        args.get(at + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.1),
    )
}

fn table4(dropout: Option<f64>) {
    match dropout {
        Some(frac) => header(&format!(
            "Table 4 variant: error rates with {:.0}% sensor dropout (repaired by interpolation)",
            frac * 100.0
        )),
        None => header("Table 4 / Figure 10: error rates on rotated test sets"),
    }
    let names = ["Coffee", "FaceFour", "GunPoint", "SwedishLeaf", "OSULeaf"];
    let methods = [
        ClassifierKind::NnEd,
        ClassifierKind::NnDtwB,
        ClassifierKind::SaxVsm,
        ClassifierKind::Ls,
        ClassifierKind::Rpm,
    ];
    print!("{:<14}", "Dataset");
    for k in methods {
        print!("{:>9}", k.name());
    }
    println!();
    let mut wins: HashMap<ClassifierKind, usize> = HashMap::new();
    for name in names {
        let spec = spec_by_name(name).expect("suite dataset");
        let options = SuiteOptions {
            methods: methods.to_vec(),
            rpm: RpmConfig {
                rotation_invariant: true,
                param_search: ParamSearch::Direct {
                    max_evals: 8,
                    per_class: false,
                },
                n_validation_splits: 2,
                n_threads: threads(),
                ..RpmConfig::default()
            },
            ..SuiteOptions::default()
        };
        let result = evaluate_dataset_with(&spec, &options, |test| match dropout {
            // Repair before classifying: distance kernels cannot digest
            // NaN, so the serving-side contract is dropout → interpolate.
            Some(frac) => interpolate_gaps(&dropout_dataset(test, frac, 99)),
            None => rotate_dataset(test, 99),
        });
        print!("{name:<14}");
        let best = result
            .outcomes
            .iter()
            .map(|(_, o)| o.error)
            .fold(f64::INFINITY, f64::min);
        for k in methods {
            let e = result.get(k).error;
            print!("{e:>9.3}");
            if (e - best).abs() < 1e-12 {
                *wins.entry(k).or_insert(0) += 1;
            }
        }
        println!();
    }
    print!("{:<14}", "# best");
    for k in methods {
        print!("{:>9}", wins.get(&k).copied().unwrap_or(0));
    }
    println!();
}

// ---------------------------------------------------------------- Figures

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| BARS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

fn print_patterns(model: &RpmClassifier, train: &Dataset) {
    for class in train.classes() {
        let pats = model.patterns_for_class(class);
        println!("class {class}: {} representative pattern(s)", pats.len());
        for (i, p) in pats.iter().enumerate() {
            println!(
                "  #{i} len={} freq={} coverage={} {}",
                p.values.len(),
                p.frequency,
                p.coverage,
                sparkline(&p.values)
            );
        }
    }
}

fn train_for_figure(name: &str) -> (RpmClassifier, Dataset, Dataset) {
    let spec = spec_by_name(name).expect("suite dataset");
    let (train, test) = generate(&spec, 2016);
    let config = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 8,
            per_class: false,
        },
        n_validation_splits: 2,
        n_threads: threads(),
        ..RpmConfig::default()
    };
    let model = RpmClassifier::train(&train, &config).expect("train");
    (model, train, test)
}

fn fig2() {
    header("Figure 2: best representative patterns on CBF");
    let (model, train, test) = train_for_figure("CBF");
    print_patterns(&model, &train);
    println!("CBF test error: {:.3}", eval_method(&model, &test));
    println!("training cache: {}", model.cache_stats());
}

fn fig3() {
    header("Figure 3: best representative patterns on Coffee");
    let (model, train, test) = train_for_figure("Coffee");
    print_patterns(&model, &train);
    println!("Coffee test error: {:.3}", eval_method(&model, &test));
    println!("training cache: {}", model.cache_stats());
}

fn fig4() {
    header("Figure 4: variable-length grammar-rule occurrences (SwedishLeaf class 4)");
    let spec = spec_by_name("SwedishLeaf").expect("suite dataset");
    let (train, _) = generate(&spec, 2016);
    let view = &train.by_class()[4];
    // Discretize each member, concatenate with sentinels (the rpm-core
    // pipeline), and show the most frequent rule's occurrence spans.
    let sax = SaxConfig::new(24, 4, 4);
    let mut tokens = Vec::new();
    let mut origin = Vec::new();
    let mut interner: HashMap<String, u32> = HashMap::new();
    let mut sentinel = u32::MAX;
    for (inst, series) in view.members.iter().enumerate() {
        for w in discretize(series, &sax, true) {
            let next = interner.len() as u32;
            let t = *interner.entry(w.word.letters()).or_insert(next);
            tokens.push(t);
            origin.push(Some((inst, w.offset)));
        }
        if inst + 1 < view.members.len() {
            tokens.push(sentinel);
            origin.push(None);
            sentinel -= 1;
        }
    }
    let grammar = infer(&tokens);
    // Prefer the rule that best demonstrates the variable-length property:
    // most distinct occurrence lengths, then most occurrences.
    let best_rule = grammar
        .repeated_rules()
        .max_by_key(|(_, r)| {
            let mut lens: Vec<usize> = r.occurrences.iter().map(|s| s.len()).collect();
            lens.sort_unstable();
            lens.dedup();
            (lens.len(), r.occurrences.len())
        })
        .expect("a repeated rule exists");
    println!(
        "most frequent rule: {} occurrences, {} words",
        best_rule.1.occurrences.len(),
        best_rule.1.expansion.len()
    );
    println!(
        "{:<10}{:>10}{:>10}{:>10}",
        "instance", "start", "end", "length"
    );
    for span in &best_rule.1.occurrences {
        if let (Some((inst, start)), Some((last_inst, last_off))) =
            (origin[span.start], origin[span.end - 1])
        {
            if inst == last_inst {
                let end = (last_off + sax.window).min(view.members[inst].len());
                println!("{inst:<10}{start:>10}{end:>10}{:>10}", end - start);
            }
        }
    }
    println!("(lengths vary across occurrences — the paper's Fig. 4 point)");
}

fn fig56() {
    header("Figures 5-6: ECGFiveDays patterns and the transformed feature space");
    let (model, train, test) = train_for_figure("ECGFiveDays");
    print_patterns(&model, &train);
    println!("ECGFiveDays test error: {:.3}", eval_method(&model, &test));
    println!("training cache: {}", model.cache_stats());
    // Figure 6: project the training data on the first two pattern axes.
    let k = model.patterns().len().min(2);
    println!("\ntransformed training data (first {k} feature(s)):");
    println!("{:<8}features", "label");
    for (s, l) in train.iter() {
        let f = model.transform(s);
        let coords: Vec<String> = f.iter().take(2).map(|v| format!("{v:.3}")).collect();
        println!("{l:<8}{}", coords.join(" "));
    }
}

// ---------------------------------------------------------------- §6.2

fn alarm() {
    header("Case study §6.2: medical alarm (synthetic ABP)");
    let train = rpm_data::abp::generate(20, 400, 7);
    let test = rpm_data::abp::generate(40, 400, 8);
    let config = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 8,
            per_class: false,
        },
        n_validation_splits: 2,
        n_threads: threads(),
        ..RpmConfig::default()
    };
    let start = Instant::now();
    let model = RpmClassifier::train(&train, &config).expect("train");
    let rpm_t = start.elapsed().as_secs_f64();

    // Every method goes through the shared trait object.
    let rivals: Vec<(&str, Box<dyn Classifier>)> = vec![
        ("NN-ED", Box::new(OneNnEuclidean::train(&train))),
        ("NN-DTWB", Box::new(OneNnDtw::train(&train))),
        (
            "SAX-VSM",
            Box::new(SaxVsm::train(&train, &SaxVsmParams::for_length(400))),
        ),
    ];
    println!("{:<10}{:>10}", "method", "error");
    for (name, m) in &rivals {
        println!("{name:<10}{:>10.3}", eval_method(m.as_ref(), &test));
    }
    println!(
        "{:<10}{:>10.3}  ({rpm_t:.2}s)",
        "RPM",
        eval_method(&model, &test)
    );
    println!("training cache: {}", model.cache_stats());
    println!("\nRPM patterns on the alarm class:");
    for p in model.patterns_for_class(rpm_data::abp::ALARM) {
        println!(
            "  len={} freq={} {}",
            p.values.len(),
            p.frequency,
            sparkline(&p.values)
        );
    }

    // The harder 4-class variant: which alarm phenomenon fired?
    println!("\n--- alarm-type variant (normal / hypotension / damped / artifact)");
    let train4 = rpm_data::abp::generate_by_type(15, 400, 17);
    let test4 = rpm_data::abp::generate_by_type(25, 400, 18);
    let start4 = Instant::now();
    let model4 = RpmClassifier::train(&train4, &config).expect("train");
    let rpm4_t = start4.elapsed().as_secs_f64();
    let rivals4: Vec<(&str, Box<dyn Classifier>)> = vec![
        ("NN-ED", Box::new(OneNnEuclidean::train(&train4))),
        (
            "SAX-VSM",
            Box::new(SaxVsm::train(&train4, &SaxVsmParams::for_length(400))),
        ),
    ];
    println!("{:<10}{:>10}", "method", "error");
    for (name, m) in &rivals4 {
        println!("{name:<10}{:>10.3}", eval_method(m.as_ref(), &test4));
    }
    println!(
        "{:<10}{:>10.3}  ({rpm4_t:.2}s)",
        "RPM",
        eval_method(&model4, &test4)
    );
    println!(
        "(chance = 0.75; patterns per class: {:?})",
        (0..4)
            .map(|c| model4.patterns_for_class(c).len())
            .collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------- Ablation

fn ablation() {
    header("Ablations (DESIGN.md §5)");
    let spec = spec_by_name("CBF").expect("suite dataset");
    let (train, test) = generate(&spec, 2016);
    let base_sax = SaxConfig::new(32, 4, 4);

    let run = |label: &str, config: &RpmConfig| {
        let start = Instant::now();
        match RpmClassifier::train(&train, config) {
            Ok(model) => {
                let err = eval_method(&model, &test);
                let t = start.elapsed().as_secs_f64();
                println!(
                    "{label:<34} error {err:>6.3}  time {t:>7.3}s  patterns {}",
                    model.patterns().len()
                );
            }
            Err(e) => println!("{label:<34} failed: {e}"),
        }
    };

    let base = RpmConfig::fixed(base_sax);
    run("baseline (NR on, centroid)", &base);
    run(
        "numerosity reduction OFF",
        &RpmConfig {
            numerosity_reduction: false,
            ..base.clone()
        },
    );
    run(
        "medoid representatives",
        &RpmConfig {
            use_medoid: true,
            ..base.clone()
        },
    );
    run(
        "early abandoning OFF",
        &RpmConfig {
            early_abandon: false,
            ..base.clone()
        },
    );
    run(
        "Re-Pair grammar induction",
        &RpmConfig {
            grammar: rpm_core::GrammarAlgorithm::RePair,
            ..base.clone()
        },
    );

    // Grid vs DIRECT parameter selection.
    let grid = RpmConfig {
        param_search: ParamSearch::Grid {
            windows: vec![16, 24, 32, 48],
            paas: vec![4, 6],
            alphas: vec![3, 4, 6],
            per_class: false,
        },
        n_validation_splits: 2,
        n_threads: threads(),
        ..RpmConfig::default()
    };
    run("grid search (24 combos)", &grid);
    let direct = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 12,
            per_class: false,
        },
        n_validation_splits: 2,
        n_threads: threads(),
        ..RpmConfig::default()
    };
    run("DIRECT (<=12 distinct evals)", &direct);
    let per_class = RpmConfig {
        param_search: ParamSearch::Direct {
            max_evals: 6,
            per_class: true,
        },
        n_validation_splits: 2,
        n_threads: threads(),
        ..RpmConfig::default()
    };
    run("DIRECT per class (paper mode)", &per_class);

    // "Works with any classifier": SVM vs 1-NN on the transformed space.
    let model = RpmClassifier::train(&train, &base).expect("train");
    let train_f: Vec<Vec<f64>> = train.series.iter().map(|s| model.transform(s)).collect();
    let test_f: Vec<Vec<f64>> = test.series.iter().map(|s| model.transform(s)).collect();
    let mut correct = 0usize;
    for (f, l) in test_f.iter().zip(&test.labels) {
        let mut best = (0usize, f64::INFINITY);
        for (i, t) in train_f.iter().enumerate() {
            let d = rpm_ts::sq_euclidean(f, t);
            if d < best.1 {
                best = (i, d);
            }
        }
        if train.labels[best.0] == *l {
            correct += 1;
        }
    }
    println!(
        "{:<34} error {:>6.3}",
        "1-NN on transformed features",
        1.0 - correct as f64 / test_f.len() as f64
    );

    // The full "any classifier" sweep over the same transformed features.
    use rpm_ml::{KernelSvm, KernelSvmParams};
    use rpm_ml::{Knn, Logistic, LogisticParams};
    let knn = Knn::train(&train_f, &train.labels, 3);
    println!(
        "{:<34} error {:>6.3}",
        "3-NN on transformed features",
        error_rate(&test.labels, &knn.predict_batch(&test_f))
    );
    let logistic = Logistic::train(&train_f, &train.labels, &LogisticParams::default());
    println!(
        "{:<34} error {:>6.3}",
        "logistic on transformed features",
        error_rate(&test.labels, &logistic_predict(&logistic, &test_f))
    );
    let rbf = KernelSvm::train(&train_f, &train.labels, &KernelSvmParams::default());
    println!(
        "{:<34} error {:>6.3}",
        "RBF-SVM on transformed features",
        error_rate(&test.labels, &rbf.predict_batch(&test_f))
    );
}

fn logistic_predict(model: &rpm_ml::Logistic, rows: &[Vec<f64>]) -> Vec<usize> {
    rows.iter().map(|r| model.predict(r)).collect()
}

// ---------------------------------------------------------------- Extras

/// Beyond the paper's tables: RPM vs the Shapelet Transform (§2.2's
/// closest structural relative — same transform-then-classify shape,
/// different candidate source), on a few suite datasets.
fn extras() {
    header("Extras: RPM vs Shapelet Transform (related work, §2.2)");
    use rpm_baselines::{ShapeletTransform, ShapeletTransformParams};
    println!(
        "{:<18}{:>10}{:>10}{:>12}{:>12}",
        "Dataset", "ST err", "RPM err", "ST time", "RPM time"
    );
    for name in ["CBF", "GunPoint", "ECGFiveDays", "ItalyPowerDemand"] {
        let spec = spec_by_name(name).expect("suite dataset");
        let (train, test) = generate(&spec, 2016);

        let t0 = Instant::now();
        let st = ShapeletTransform::train(&train, &ShapeletTransformParams::default());
        let st_preds = st.predict_batch(&test.series);
        let st_t = t0.elapsed().as_secs_f64();
        let st_err = error_rate(&test.labels, &st_preds);

        let t1 = Instant::now();
        let config = RpmConfig {
            param_search: ParamSearch::Direct {
                max_evals: 8,
                per_class: false,
            },
            n_validation_splits: 2,
            n_threads: threads(),
            ..RpmConfig::default()
        };
        let rpm = RpmClassifier::train(&train, &config).expect("train");
        let rpm_err = eval_method(&rpm, &test);
        let rpm_t = t1.elapsed().as_secs_f64();

        println!("{name:<18}{st_err:>10.3}{rpm_err:>10.3}{st_t:>11.2}s{rpm_t:>11.2}s");
    }
    println!("(the exhaustive ST candidate scan vs RPM's grammar-sourced candidates)");
}
