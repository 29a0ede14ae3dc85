//! `train_search`: `RpmClassifier::train` with the default configuration
//! (DIRECT parameter search) on four registry datasets, and its traced
//! split into the layers a fit runs through.

use crate::report::Run;
use crate::serve;
use crate::stats::median;
use rpm_core::{
    compute_tau, find_candidates_for_class, prepare_patterns, remove_similar_kernel,
    search_parameters, transform_set_plans_engine_counted, Candidate, Engine, RpmClassifier,
    RpmConfig,
};
use rpm_data::{generate, registry::spec_by_name};
use rpm_grammar::Token;
use rpm_sax::{discretize, SaxConfig, SaxWord};
use rpm_ts::{Dataset, Label, ScanCounters};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// The datasets, each with the test error rate its model must stay
/// under. At the default seed the rates are 0.033, 0.042, 0 and 0, but
/// over seeds 1-40 the parameter search settles on a configuration
/// with one to three patterns for a few seeds, and CBF then errs at up
/// to 0.35 and SyntheticControl at up to 0.56. The ceilings sit above
/// those rates and well below chance (0.67, 0.83, 0.75, 0.83), so they
/// catch a model that learned nothing on any seed.
const DATASETS: [(&str, f64); 4] = [
    ("CBF", 0.45),
    ("SyntheticControl", 0.65),
    ("Trace", 0.10),
    ("OSULeaf", 0.10),
];

/// Data generations timed for the median `setup_s`.
const SETUP_REPEATS: usize = 9;

fn generate_all(seed: u64) -> Vec<(Dataset, Dataset)> {
    DATASETS
        .iter()
        .map(|(name, _)| generate(&spec_by_name(name).expect("registry dataset"), seed))
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Run) {
    let mut setups = Vec::new();
    let mut data = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let begun = Instant::now();
        data = generate_all(seed);
        setups.push(begun.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setups));

    // One training pass over the four datasets; the rest of the run's
    // time, and at least a quarter of it, serves the CBF model, so the
    // classify metrics exist on this workload too.
    let config = RpmConfig::default();
    let begun = Instant::now();
    let mut fit_s = Vec::new();
    let models: Vec<_> = data
        .iter()
        .map(|(train, _)| {
            let fit = Instant::now();
            let model = RpmClassifier::train(train, &config);
            fit_s.push(fit.elapsed().as_secs_f64());
            model
        })
        .collect();
    let train_s = begun.elapsed().as_secs_f64();
    out.set("train_s", train_s);
    println!("train: one pass, per dataset {fit_s:.3?} s, in all {train_s:.3} s");
    let serve_s = (seconds - train_s).max(0.25 * seconds);

    let mut trained = Vec::new();
    for (((name, ceiling), (train, test)), model) in DATASETS.iter().zip(&data).zip(models) {
        let model = match model {
            Ok(m) => m,
            Err(e) => {
                out.check(Err(format!("{name}: training failed: {e}")));
                continue;
            }
        };
        let predicted = model.predict_batch(&test.series);
        let wrong = predicted
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p != l)
            .count();
        let rate = wrong as f64 / test.len() as f64;
        let stats = model.cache_stats();
        println!(
            "train: {name} test_error={rate:.4} (ceiling {ceiling}) patterns={} sax={} \
             cache_hits={} cache_lookups={}",
            model.patterns().len(),
            render_sax(model.sax_configs()),
            stats.hits,
            stats.lookups()
        );
        out.check(if rate <= *ceiling {
            Ok(())
        } else {
            Err(format!("{name}: test error {rate:.4} above {ceiling}"))
        });
        trained.push((name, train, test, model));
    }

    if trace {
        let begun = Instant::now();
        trace_layers(&trained, &config, train_s, out);
        out.set("trace.extra_s", begun.elapsed().as_secs_f64());
    }

    // The serving layers are traced on the serve workloads; here the
    // ts.match counters stay those of the training transform.
    match trained.iter().find(|(name, ..)| **name == "CBF") {
        Some((_, _, test, model)) => {
            serve::deploy(model.clone(), test, &serve::SINGLE, serve_s, out)
        }
        None => out.check(Err("no CBF model to serve".to_string())),
    }
}

fn render_sax(per_class: &BTreeMap<Label, SaxConfig>) -> String {
    let mut distinct: Vec<String> = per_class
        .values()
        .map(|s| format!("({},{},{})", s.window, s.paa_size, s.alphabet))
        .collect();
    distinct.dedup();
    distinct.join("")
}

/// Sums of the per-layer figures over the datasets.
#[derive(Default)]
struct Layers {
    mine: Duration,
    candidates: usize,
    discretize: Duration,
    induce: Duration,
    dedup: Duration,
    kept: usize,
    transform: Duration,
    cfs: Duration,
    svm: Duration,
}

/// Times the parameter search and the final fit as two public calls,
/// then replays each final fit stage by stage, and checks that both
/// reach the model `RpmClassifier::train` built.
fn trace_layers(
    trained: &[(&&str, &Dataset, &Dataset, RpmClassifier)],
    config: &RpmConfig,
    train_s: f64,
    out: &mut Run,
) {
    let (mut search_s, mut fit_s, mut evals) = (0.0, 0.0, 0usize);
    let (mut hits, mut lookups) = (0usize, 0usize);
    let mut layers = Layers::default();
    let counters = ScanCounters::new();
    for (name, train, _, model) in trained {
        let stats = model.cache_stats();
        hits += stats.hits;
        lookups += stats.lookups();

        let begun = Instant::now();
        let outcome = match search_parameters(train, config) {
            Ok(o) => o,
            Err(e) => return out.check(Err(format!("{name}: search failed: {e}"))),
        };
        search_s += begun.elapsed().as_secs_f64();
        evals += outcome.evaluations;

        let begun = Instant::now();
        let fit = RpmClassifier::train_with_configs(train, config, &outcome.per_class);
        fit_s += begun.elapsed().as_secs_f64();
        out.check(match fit {
            Ok(fit) if same_patterns(fit.patterns(), model.patterns()) => Ok(()),
            Ok(_) => Err(format!(
                "{name}: search + fit chose other patterns than train"
            )),
            Err(e) => Err(format!("{name}: fit failed: {e}")),
        });

        let replayed = replay_fit(train, config, &outcome.per_class, &counters, &mut layers);
        out.check(match replayed {
            Ok(selected) if same_patterns(&selected, model.patterns()) => Ok(()),
            Ok(_) => Err(format!("{name}: the replayed fit selected other patterns")),
            Err(e) => Err(format!("{name}: {e}")),
        });
    }
    out.set("core.params.search_s", search_s);
    out.set("core.params.evals", evals as f64);
    out.set("core.model.fit_s", fit_s);
    out.set("core.cache.hits", hits as f64);
    out.set("core.cache.lookups", lookups as f64);
    out.set("core.cache.hit_rate", hits as f64 / lookups.max(1) as f64);
    out.set("core.candidates.mine_s", layers.mine.as_secs_f64());
    out.set("core.candidates.count", layers.candidates as f64);
    out.set("sax.discretize_s", layers.discretize.as_secs_f64());
    out.set("grammar.induce_s", layers.induce.as_secs_f64());
    out.set("core.distinct.dedup_s", layers.dedup.as_secs_f64());
    out.set("core.distinct.kept", layers.kept as f64);
    out.set("core.transform.transform_s", layers.transform.as_secs_f64());
    out.set("ml.cfs.select_s", layers.cfs.as_secs_f64());
    out.set("ml.svm.train_s", layers.svm.as_secs_f64());
    out.set_scan(&counters.snapshot());
    let gap = (search_s + fit_s) / train_s - 1.0;
    out.set("trace.split_gap_share", gap);
    println!(
        "trace: search_s + fit_s = {:.3} s against train_s = {train_s:.3} s ({:+.1}%); \
         evals={evals} cache_hits={hits} cache_lookups={lookups} candidates={} kept={}",
        search_s + fit_s,
        gap * 100.0,
        layers.candidates,
        layers.kept
    );
}

/// Patterns equal in order, class and every value bit.
fn same_patterns(a: &[Candidate], b: &[Candidate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.class == y.class
                && x.values.len() == y.values.len()
                && x.values
                    .iter()
                    .zip(&y.values)
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// One fit at `per_class` through public calls, in the order
/// `RpmClassifier::train_with_configs` runs them: mine every class,
/// deduplicate, transform, CFS, SVM. Discretization and grammar
/// induction, which mining runs inside, are timed by a second pass of
/// their own. Returns the selected patterns.
fn replay_fit(
    train: &Dataset,
    config: &RpmConfig,
    per_class: &BTreeMap<Label, SaxConfig>,
    counters: &ScanCounters,
    layers: &mut Layers,
) -> Result<Vec<Candidate>, String> {
    let mut pool: Vec<Candidate> = Vec::new();
    let mut tau_pool: Vec<f64> = Vec::new();
    for view in train.by_class() {
        let sax = per_class[&view.label];
        let begun = Instant::now();
        let set = find_candidates_for_class(&view.members, view.label, &sax, config);
        layers.mine += begun.elapsed();

        let begun = Instant::now();
        let words: Vec<_> = view
            .members
            .iter()
            .map(|m| discretize(m, &sax, config.numerosity_reduction))
            .collect();
        layers.discretize += begun.elapsed();
        let tokens = token_stream(words.iter().map(|w| w.iter().map(|x| &x.word)));
        let begun = Instant::now();
        let grammar = rpm_grammar::infer(&tokens);
        layers.induce += begun.elapsed();
        if grammar.repeated_rules().count() != set.rules_inspected {
            return Err("the replayed grammar differs from the one mining inspected".to_string());
        }

        pool.extend(set.candidates);
        tau_pool.extend(set.intra_cluster_distances);
    }
    layers.candidates += pool.len();

    let tau = compute_tau(&tau_pool, config.tau_percentile);
    let begun = Instant::now();
    let mut deduped = remove_similar_kernel(pool.clone(), tau, config.early_abandon, config.kernel);
    layers.dedup += begun.elapsed();
    if deduped.len() > config.max_candidates {
        deduped.sort_by_key(|c| std::cmp::Reverse((c.coverage, c.frequency)));
        deduped.truncate(config.max_candidates);
    }
    layers.kept += deduped.len();
    if deduped.len() <= 1 {
        return Ok(deduped);
    }

    let values: Vec<Vec<f64>> = deduped.iter().map(|c| c.values.clone()).collect();
    let plans = prepare_patterns(&values, config.kernel);
    let begun = Instant::now();
    let rows = transform_set_plans_engine_counted(
        &train.series,
        &plans,
        false,
        config.early_abandon,
        &Engine::serial(),
        Some(counters),
    )
    .map_err(|e| format!("transform failed: {e}"))?;
    layers.transform += begun.elapsed();

    let begun = Instant::now();
    let chosen = rpm_ml::cfs_select(&rows, &train.labels, &config.cfs);
    layers.cfs += begun.elapsed();
    let mut keep = vec![false; deduped.len()];
    for &i in &chosen {
        keep[i] = true;
    }
    let columns: Vec<usize> = (0..deduped.len()).filter(|&i| keep[i]).collect();
    let selected: Vec<Candidate> = deduped
        .into_iter()
        .zip(&keep)
        .filter_map(|(c, &k)| k.then_some(c))
        .collect();
    // The fit's own fallback when CFS rejects every feature.
    if selected.is_empty() {
        return Ok(pool);
    }

    // Columns are independent of the pattern set around them, so the
    // selected patterns' rows are the kept columns of the CFS rows.
    let svm_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| columns.iter().map(|&i| r[i]).collect())
        .collect();
    let begun = Instant::now();
    std::hint::black_box(rpm_ml::LinearSvm::train(
        &svm_rows,
        &train.labels,
        &config.svm,
    ));
    layers.svm += begun.elapsed();
    Ok(selected)
}

/// The grammar input mining builds: each distinct SAX word becomes a
/// token, and a unique sentinel separates consecutive series so no rule
/// spans two of them.
fn token_stream<'a>(series: impl Iterator<Item = impl Iterator<Item = &'a SaxWord>>) -> Vec<Token> {
    let mut interner: HashMap<&SaxWord, Token> = HashMap::new();
    let mut tokens = Vec::new();
    let mut sentinel = Token::MAX;
    for (i, words) in series.enumerate() {
        if i > 0 {
            tokens.push(sentinel);
            sentinel -= 1;
        }
        for w in words {
            let next = interner.len() as Token;
            tokens.push(*interner.entry(w).or_insert(next));
        }
    }
    tokens
}
