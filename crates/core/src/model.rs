//! The RPM classifier (training stage §3.2, classification stage §3.1).

use crate::cache::{CacheStats, Ctx, SaxCache};
use crate::candidates::{find_candidates_for_class_ctx, Candidate, CandidateSet};
use crate::config::{ParamSearch, RpmConfig};
use crate::distinct::select_representative_ctx;
use crate::engine::{Engine, EngineError};
use crate::params::search_parameters_ctx;
use crate::transform::{feature_row, prepare_patterns, transform_set_ctx};
use crate::usage::{render_usage, PatternStats, PatternUsage};
use rpm_ml::{LinearSvm, SvmParams};
use rpm_sax::SaxConfig;
use rpm_ts::{BatchedMatch, Dataset, Label, MatchPlan, Parallelism, ScanCounters};
use std::collections::BTreeMap;
use std::fmt;

/// A trained representative pattern — the candidate that survived
/// Algorithm 2's selection.
pub type Pattern = Candidate;

/// Training failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// The training set is empty.
    EmptyTrainingSet,
    /// Training data holds fewer than two classes.
    TooFewClasses,
    /// No class produced any candidate under the chosen SAX parameters
    /// (window too long, γ too strict, or nothing repeats).
    NoCandidates,
    /// A training-engine worker failed (a panic inside a parallel stage,
    /// surfaced as an error instead of aborting the process).
    Engine(EngineError),
    /// The parameter-search checkpoint could not be opened or resumed
    /// (corrupt file, unsupported version, or a context mismatch —
    /// resuming against different data or scoring configuration would
    /// silently produce a different model, so it is refused).
    Checkpoint(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTrainingSet => write!(f, "training set is empty"),
            Self::TooFewClasses => write!(f, "training data holds fewer than two classes"),
            Self::NoCandidates => {
                write!(
                    f,
                    "no candidate patterns found; relax gamma or the SAX parameters"
                )
            }
            Self::Engine(e) => write!(f, "training failed: {e}"),
            Self::Checkpoint(msg) => write!(f, "checkpoint unusable: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<EngineError> for TrainError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

/// A trained RPM model: the representative patterns plus the SVM over the
/// transformed feature space.
#[derive(Clone, Debug)]
pub struct RpmClassifier {
    pub(crate) patterns: Vec<Pattern>,
    /// One prepared closest-match plan per pattern (same order as
    /// `patterns`): the per-pattern z-normalization and early-abandon
    /// sort are paid once at construction and reused by every
    /// `transform`/`predict` call. Rebuilt (with the default kernel)
    /// when a model is loaded from disk — the kernel is an execution
    /// strategy, not part of the persisted model.
    pub(crate) plans: Vec<MatchPlan>,
    /// Prebuilt pattern-set scanner over `plans`: the cascade's
    /// per-pattern envelope and tier-1 streams (and the per-pattern
    /// fallback for non-batched kernels) are set up once here and shared
    /// by every `transform`/`predict` call on this model.
    pub(crate) batched: BatchedMatch,
    pub(crate) svm: LinearSvm,
    pub(crate) per_class_sax: BTreeMap<Label, SaxConfig>,
    pub(crate) rotation_invariant: bool,
    pub(crate) early_abandon: bool,
    /// True when the parameter search ran out of its [`crate::TrainBudget`]
    /// and the model was fit with best-so-far parameters; persisted so a
    /// loaded model still discloses it.
    pub(crate) degraded: bool,
    /// Memoization-cache counters of the training run that produced this
    /// model (zero for models loaded from disk).
    pub(crate) cache_stats: CacheStats,
    /// Serving-path utilization accumulators (one slot per pattern);
    /// populated only while `rpm-obs` is enabled, never persisted.
    pub(crate) usage: PatternUsage,
    /// Training-time reference profile: per-predicted-class distributions
    /// of the drift metrics over the training set, persisted as the
    /// optional `profile` section of model v2 files. `None` for models
    /// saved before the section existed — drift detection then reports
    /// `unavailable` instead of guessing.
    pub(crate) profile: Option<rpm_obs::ReferenceProfile>,
}

/// Reduces one classified series to the quantities the drift sketches
/// track: the winning closest-match distance, the class margin (runner-up
/// class's best distance minus the winning class's), and input summary
/// statistics. `row` is the series' feature vector (one distance per
/// pattern, aligned with `pattern_classes`).
fn drift_sample(
    series: &[f64],
    row: &[f64],
    pattern_classes: &[Label],
    label: Label,
) -> rpm_obs::DriftSample {
    let mut class_best: BTreeMap<Label, f64> = BTreeMap::new();
    for (&class, &d) in pattern_classes.iter().zip(row) {
        let e = class_best.entry(class).or_insert(f64::INFINITY);
        if d < *e {
            *e = d;
        }
    }
    let mut dists: Vec<f64> = class_best.into_values().collect();
    dists.sort_by(f64::total_cmp);
    let best_distance = dists.first().copied().unwrap_or(0.0);
    let margin = if dists.len() > 1 {
        (dists[1] - dists[0]).max(0.0)
    } else {
        0.0
    };
    let n = series.len().max(1) as f64;
    let mean = series.iter().sum::<f64>() / n;
    let var = series
        .iter()
        .map(|v| {
            let d = v - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let stddev = var.sqrt();
    let z_extreme = if stddev > 0.0 {
        series
            .iter()
            .map(|v| ((v - mean) / stddev).abs())
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    rpm_obs::DriftSample {
        class: label,
        best_distance,
        margin,
        len: series.len(),
        mean,
        stddev,
        z_extreme,
    }
}

impl RpmClassifier {
    /// Trains on `train` per `config`, running the configured SAX
    /// parameter search first (§4), then Algorithms 1 + 2, then the SVM.
    pub fn train(train: &Dataset, config: &RpmConfig) -> Result<Self, TrainError> {
        if config.obs.level != rpm_obs::ObsLevel::Off {
            config.obs.install();
        }
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let classes = train.classes();
        if classes.len() < 2 {
            return Err(TrainError::TooFewClasses);
        }
        let _train_span = rpm_obs::span!("train");
        // One cache and one engine serve both the parameter search and
        // the final fit: cached values are pure functions of their keys,
        // so combinations probed by the search stay warm for the final
        // training pass (and the surfaced CacheStats cover the whole
        // call).
        let cache = SaxCache::new(config.cache);
        // A checkpoint only makes sense when there is a search to resume;
        // fixed-parameter training ignores `config.checkpoint`.
        let searching = matches!(
            config.param_search,
            ParamSearch::Direct { .. } | ParamSearch::Grid { .. }
        );
        let checkpoint = match &config.checkpoint {
            Some(path) if searching => {
                let fingerprint = crate::checkpoint::context_fingerprint(train, config);
                let (cp, restored) = crate::checkpoint::Checkpoint::open(path, fingerprint)
                    .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
                // Completed evaluations from the previous run become cache
                // hits: the search re-runs only the missing cells and the
                // resumed trajectory is bit-identical to an uninterrupted
                // one (eval scores are pure functions of their SaxConfig).
                for (sax, value) in restored {
                    cache.preload_eval(sax, value);
                }
                Some(cp)
            }
            _ => None,
        };
        let budget = crate::budget::BudgetState::new(&config.budget);
        let ctx = Ctx::new(Engine::new(config.n_threads), &cache)
            .with_budget(&budget)
            .with_checkpoint(checkpoint.as_ref());
        let (per_class_sax, degraded): (BTreeMap<Label, SaxConfig>, bool) =
            match &config.param_search {
                ParamSearch::Fixed(sax) => (classes.iter().map(|&c| (c, *sax)).collect(), false),
                ParamSearch::PerClassFixed(saxes) => {
                    assert_eq!(
                        saxes.len(),
                        classes.len(),
                        "PerClassFixed needs one SaxConfig per class"
                    );
                    (
                        classes.iter().copied().zip(saxes.iter().copied()).collect(),
                        false,
                    )
                }
                ParamSearch::Direct { .. } | ParamSearch::Grid { .. } => {
                    let outcome = search_parameters_ctx(train, config, &ctx)?;
                    (outcome.per_class, outcome.degraded)
                }
            };
        let mut model = Self::train_with_configs_ctx(train, config, &per_class_sax, &ctx)?;
        model.degraded = degraded;
        Ok(model)
    }

    /// Trains with explicit per-class SAX configurations (the §4.3 path
    /// after parameter learning). Exposed for the parameter-search
    /// objective and the benchmarks. Runs on `config.n_threads` workers
    /// with the memoization cache from `config.cache`; results are
    /// identical to the serial path for any thread count.
    pub fn train_with_configs(
        train: &Dataset,
        config: &RpmConfig,
        per_class_sax: &BTreeMap<Label, SaxConfig>,
    ) -> Result<Self, TrainError> {
        let cache = SaxCache::new(config.cache);
        let ctx = Ctx::new(Engine::new(config.n_threads), &cache);
        Self::train_with_configs_ctx(train, config, per_class_sax, &ctx)
    }

    /// [`RpmClassifier::train_with_configs`] inside an existing training
    /// context — the parameter search trains fold models through this so
    /// every stage shares one engine and one cache.
    pub(crate) fn train_with_configs_ctx(
        train: &Dataset,
        config: &RpmConfig,
        per_class_sax: &BTreeMap<Label, SaxConfig>,
        ctx: &Ctx<'_>,
    ) -> Result<Self, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        if train.n_classes() < 2 {
            return Err(TrainError::TooFewClasses);
        }
        let _fit_span = rpm_obs::span!("fit");

        // --- Algorithm 1 per class, fanned out across the engine's
        //     workers. The SAX lookup happens before the fan-out so a
        //     missing class still panics on the caller's thread.
        let mine_span = rpm_obs::span!("mine");
        let views = train.by_class();
        let saxes: Vec<SaxConfig> = views
            .iter()
            .map(|view| {
                per_class_sax
                    .get(&view.label)
                    .copied()
                    .unwrap_or_else(|| panic!("missing SaxConfig for class {}", view.label))
            })
            .collect();
        let sets: Vec<CandidateSet> = ctx.engine.map(&views, |i, view| {
            find_candidates_for_class_ctx(
                &view.members,
                view.label,
                &saxes[i],
                config,
                &ctx.serial(),
            )
        })?;
        // Merge in ascending-label order (`by_class` order), exactly as
        // the serial per-class loop did.
        let mut all_candidates: Vec<Candidate> = Vec::new();
        let mut tau_pool: Vec<f64> = Vec::new();
        for set in sets {
            all_candidates.extend(set.candidates);
            tau_pool.extend(set.intra_cluster_distances);
        }
        if all_candidates.is_empty() {
            return Err(TrainError::NoCandidates);
        }
        drop(mine_span);

        // --- Algorithm 2 over the pooled candidates.
        let mut selected = select_representative_ctx(
            all_candidates.clone(),
            &tau_pool,
            &train.series,
            &train.labels,
            config,
            ctx,
        )?;
        if selected.is_empty() {
            // CFS can in principle reject everything on degenerate data;
            // fall back to the deduplicated pool so training still works.
            selected = all_candidates;
        }

        // --- SVM over the transformed training set (training data is
        //     clean, so the plain transform is used here even when
        //     rotation-invariant classification is requested; §6.1). The
        //     selected patterns' columns were cached by the CFS transform
        //     above, so this pass is mostly cache hits.
        let pattern_values: Vec<Vec<f64>> = selected.iter().map(|c| c.values.clone()).collect();
        let svm_span = rpm_obs::span!("svm");
        let rows = transform_set_ctx(
            &train.series,
            &pattern_values,
            false,
            config.early_abandon,
            config.kernel,
            ctx,
        )?;
        let svm = LinearSvm::train(&rows, &train.labels, &config.svm);
        drop(svm_span);

        // --- Reference profile: the training-set distributions of the
        //     drift metrics, keyed by the model's *own* predictions so
        //     serve-time comparisons are apples-to-apples even where the
        //     model disagrees with the training labels.
        let profile_span = rpm_obs::span!("profile");
        let pattern_classes: Vec<Label> = selected.iter().map(|p| p.class).collect();
        let mut profile = rpm_obs::ReferenceProfile::new();
        for (series, row) in train.series.iter().zip(&rows) {
            let label = svm.predict(row);
            profile.observe(&drift_sample(series, row, &pattern_classes, label));
        }
        drop(profile_span);

        let plans = prepare_patterns(&pattern_values, config.kernel);
        let batched = BatchedMatch::new(&plans);
        let usage = PatternUsage::new(pattern_values.len());
        Ok(Self {
            patterns: selected,
            plans,
            batched,
            svm,
            per_class_sax: per_class_sax.clone(),
            rotation_invariant: config.rotation_invariant,
            early_abandon: config.early_abandon,
            degraded: false,
            cache_stats: ctx.cache.stats(),
            usage,
            profile: Some(profile),
        })
    }

    /// Transforms a series into this model's feature space, reusing the
    /// per-pattern match plans built at training (or load) time.
    pub fn transform(&self, series: &[f64]) -> Vec<f64> {
        self.feature_row(series, None)
    }

    /// One series' feature row through the model's prebuilt pattern set.
    /// Every transform/predict path funnels here, so the set is built
    /// once per model, not once per call.
    fn feature_row(&self, series: &[f64], counters: Option<&ScanCounters>) -> Vec<f64> {
        feature_row(
            &self.batched,
            &self.plans,
            series,
            self.rotation_invariant,
            self.early_abandon,
            counters,
        )
    }

    /// One series through transform + SVM, returning the feature row with
    /// the label. With observability on it also feeds the per-pattern
    /// utilization accumulators and the `predict.latency_ns` histogram;
    /// instrumentation only observes, so labels are bit-identical either
    /// way.
    fn predict_row(&self, series: &[f64], counters: Option<&ScanCounters>) -> (Vec<f64>, Label) {
        let start = rpm_obs::enabled().then(rpm_obs::now_ns);
        let row = self.feature_row(series, counters);
        let label = self.svm.predict(&row);
        if let Some(start) = start {
            self.usage.note(&row);
            rpm_obs::metrics()
                .predict_latency
                .observe(rpm_obs::now_ns().saturating_sub(start));
        }
        (row, label)
    }

    /// The one batch core behind every batch entry point: rows and labels
    /// for each series, computed inline under [`Parallelism::Serial`] or
    /// on that many [`Engine`] workers under [`Parallelism::Threads`].
    /// Both run over the model's own pattern set and produce identical
    /// results; a worker panic surfaces as an [`EngineError`].
    fn predict_rows<S: AsRef<[f64]> + Sync>(
        &self,
        series: &[S],
        parallelism: Parallelism,
        counters: Option<&ScanCounters>,
    ) -> Result<Vec<(Vec<f64>, Label)>, EngineError> {
        let _span = rpm_obs::span!("predict");
        let m = rpm_obs::metrics();
        m.predict_batches.inc();
        m.predict_series.add(series.len() as u64);
        match parallelism {
            Parallelism::Serial => Ok(series
                .iter()
                .map(|s| self.predict_row(s.as_ref(), counters))
                .collect()),
            Parallelism::Threads(_) => Engine::new(parallelism.workers())
                .map(series, |_, s| self.predict_row(s.as_ref(), counters)),
        }
    }

    /// Predicts the class label of one series.
    ///
    /// With observability off this is transform + SVM with zero probes;
    /// with it on, the same computation additionally feeds the
    /// `predict.series` counter, the `predict.latency_ns` histogram and
    /// the per-pattern utilization accumulators. Instrumentation only
    /// observes — predictions are bit-identical either way.
    pub fn predict(&self, series: &[f64]) -> Label {
        rpm_obs::metrics().predict_series.inc();
        self.predict_row(series, None).1
    }

    /// Predicts a batch serially. The batch is *borrowed*: any slice
    /// whose items view as `&[f64]` works (`&[Vec<f64>]` from a dataset,
    /// `&[&[f64]]` gathered across request buffers) — no sample data is
    /// copied to cross this call.
    pub fn predict_batch<S: AsRef<[f64]> + Sync>(&self, series: &[S]) -> Vec<Label> {
        self.predict_batch_with(series, Parallelism::Serial, None)
            .expect("serial prediction runs no engine workers")
    }

    /// The configurable batch entry point: predicts every series in the
    /// borrowed batch under the given [`Parallelism`], with an optional
    /// per-request [`ScanCounters`] accumulator — the request-tracing
    /// hook.
    ///
    /// [`Parallelism::Serial`] cannot fail; [`Parallelism::Threads`] runs
    /// the pattern-distance transform — the classification bottleneck —
    /// on that many engine workers, producing bit-identical labels, with
    /// a worker panic surfacing as an [`EngineError`] instead of aborting
    /// the process. With an accumulator attached, the kernel's search
    /// volume (searches, windows, prune and abandon counts, match wall
    /// time) for *this batch alone* lands in it; counting is
    /// integer-only side work, so labels stay bit-identical either way.
    pub fn predict_batch_with<S: AsRef<[f64]> + Sync>(
        &self,
        series: &[S],
        parallelism: Parallelism,
        counters: Option<&ScanCounters>,
    ) -> Result<Vec<Label>, EngineError> {
        let rows = self.predict_rows(series, parallelism, counters)?;
        Ok(rows.into_iter().map(|(_, label)| label).collect())
    }

    /// [`predict_batch_with`](Self::predict_batch_with), additionally
    /// returning one [`rpm_obs::DriftSample`] per series — the serving
    /// path feeds these into the installed drift monitor. The samples are
    /// derived from the same feature rows the SVM sees, so labels stay
    /// bit-identical to every other batch entry point.
    pub fn predict_batch_observed<S: AsRef<[f64]> + Sync>(
        &self,
        series: &[S],
        parallelism: Parallelism,
        counters: Option<&ScanCounters>,
    ) -> Result<Vec<(Label, rpm_obs::DriftSample)>, EngineError> {
        let rows = self.predict_rows(series, parallelism, counters)?;
        let classes: Vec<Label> = self.patterns.iter().map(|p| p.class).collect();
        Ok(series
            .iter()
            .zip(&rows)
            .map(|(s, (row, label))| (*label, drift_sample(s.as_ref(), row, &classes, *label)))
            .collect())
    }

    /// The training-time drift reference profile, when the model carries
    /// one (models persisted before the `profile` section return `None`).
    pub fn reference_profile(&self) -> Option<&rpm_obs::ReferenceProfile> {
        self.profile.as_ref()
    }

    /// Per-pattern utilization accumulated on the serving path while
    /// `rpm-obs` is enabled: argmin (closest-match) counts and mean match
    /// distances, in pattern order. All zeros when observability was off.
    pub fn pattern_usage(&self) -> Vec<PatternStats> {
        self.usage.stats()
    }

    /// Predictions observed by the utilization tracker.
    pub fn usage_observations(&self) -> u64 {
        self.usage.observations()
    }

    /// Zeroes the utilization accumulators (e.g. between traffic
    /// windows).
    pub fn reset_pattern_usage(&self) {
        self.usage.reset();
    }

    /// Human-readable utilization table (see [`crate::usage`]): patterns
    /// by argmin share, dead patterns flagged.
    pub fn render_pattern_usage(&self) -> String {
        let classes: Vec<usize> = self.patterns.iter().map(|p| p.class).collect();
        render_usage(&self.usage.stats(), &classes)
    }

    /// Classifies every `hop`-strided window of a long streaming series,
    /// returning `(window start, predicted label)` pairs — the deployment
    /// shape for continuous monitoring (e.g. the §6.2 ICU feed, where the
    /// stream is scored window by window rather than pre-segmented).
    ///
    /// Windows shorter than `window` at the tail are skipped. `hop == 0`
    /// is clamped to 1.
    pub fn classify_stream(
        &self,
        stream: &[f64],
        window: usize,
        hop: usize,
    ) -> Vec<(usize, Label)> {
        let hop = hop.max(1);
        let mut out = Vec::new();
        if window == 0 || stream.len() < window {
            return out;
        }
        let mut start = 0;
        while start + window <= stream.len() {
            out.push((start, self.predict(&stream[start..start + window])));
            start += hop;
        }
        out
    }

    /// The learned representative patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Patterns belonging to one class.
    pub fn patterns_for_class(&self, class: Label) -> Vec<&Pattern> {
        self.patterns.iter().filter(|p| p.class == class).collect()
    }

    /// The per-class SAX configurations the model was trained with.
    pub fn sax_configs(&self) -> &BTreeMap<Label, SaxConfig> {
        &self.per_class_sax
    }

    /// Memoization-cache counters of the training run that produced this
    /// model (`CacheStats::default()` for models loaded from disk).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Whether rotation-invariant classification is enabled.
    pub fn is_rotation_invariant(&self) -> bool {
        self.rotation_invariant
    }

    /// Whether the parameter search exhausted its [`crate::TrainBudget`]
    /// before completing — the model was fit with the best parameters
    /// found so far and may score below a full search. Survives
    /// save/load.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The SVM hyper-parameters type, re-exported for convenience.
    pub fn svm_params_type() -> SvmParams {
        SvmParams::default()
    }

    /// The model's wire-visible shape, for serving-side compatibility
    /// checks: a hot reload must not change the label vocabulary
    /// clients see mid-flight.
    pub fn schema(&self) -> ModelSchema {
        ModelSchema {
            classes: self.per_class_sax.keys().copied().collect(),
            patterns: self.patterns.len(),
            rotation_invariant: self.rotation_invariant,
        }
    }
}

/// Shape summary of a trained model as seen over the wire. The serving
/// reload gate compares the incumbent's schema against a candidate's
/// before swapping: labels are part of the `/classify` contract, so a
/// candidate with a different class set is an operator error (wrong
/// file), not a retrain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSchema {
    /// Distinct class labels, ascending (the `/classify` vocabulary).
    pub classes: Vec<Label>,
    /// Representative patterns in the model (informational).
    pub patterns: usize,
    /// Whether rotation-invariant matching is enabled (informational).
    pub rotation_invariant: bool,
}

impl ModelSchema {
    /// Checks that `candidate` can replace a model with this schema
    /// without changing what clients observe. Only the class set is a
    /// hard gate; pattern count and rotation mode legitimately change
    /// across retrains.
    pub fn check_compat(&self, candidate: &ModelSchema) -> Result<(), SchemaMismatch> {
        if self.classes != candidate.classes {
            return Err(SchemaMismatch {
                incumbent_classes: self.classes.clone(),
                candidate_classes: candidate.classes.clone(),
            });
        }
        Ok(())
    }
}

/// Why a candidate model cannot replace the incumbent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaMismatch {
    /// Class labels the serving model answers with.
    pub incumbent_classes: Vec<Label>,
    /// Class labels the rejected candidate would answer with.
    pub candidate_classes: Vec<Label>,
}

impl std::fmt::Display for SchemaMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "class set changed: serving {:?}, candidate {:?}",
            self.incumbent_classes, self.candidate_classes
        )
    }
}

impl std::error::Error for SchemaMismatch {}

/// RPM through the shared [`rpm_ts::Classifier`] interface, so harnesses
/// can drive it and the baselines through one trait object.
impl rpm_ts::Classifier for RpmClassifier {
    fn predict(&self, series: &[f64]) -> Label {
        RpmClassifier::predict(self, series)
    }

    fn predict_batch_refs(&self, series: &[&[f64]]) -> Vec<Label> {
        RpmClassifier::predict_batch(self, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use rpm_ts::MatchKernel;

    /// Two-class set: class 0 plants an up-chirp, class 1 a down-chirp,
    /// at random positions.
    fn two_class_dataset(n_per_class: usize, len: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new("synthetic", Vec::new(), Vec::new());
        for class in 0..2usize {
            for _ in 0..n_per_class {
                let mut s: Vec<f64> = (0..len).map(|_| 0.2 * (rng.gen::<f64>() - 0.5)).collect();
                let motif = 24;
                let at = rng.gen_range(0..len - motif);
                for i in 0..motif {
                    let t = i as f64 / motif as f64;
                    let v = (std::f64::consts::TAU * (1.0 + 2.0 * t) * t).sin();
                    s[at + i] += 3.0 * if class == 0 { v } else { -v };
                }
                d.push(s, class);
            }
        }
        d
    }

    fn fixed_config() -> RpmConfig {
        RpmConfig::fixed(SaxConfig::new(24, 4, 4))
    }

    #[test]
    fn trains_and_classifies_plantd_motifs() {
        let train = two_class_dataset(12, 128, 1);
        let test = two_class_dataset(10, 128, 2);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        assert!(!model.patterns().is_empty());
        let preds = model.predict_batch(&test.series);
        let err = preds
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p != l)
            .count() as f64
            / preds.len() as f64;
        assert!(err <= 0.25, "error rate {err}");
    }

    #[test]
    fn patterns_carry_class_labels() {
        let train = two_class_dataset(12, 128, 3);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let classes: std::collections::BTreeSet<usize> =
            model.patterns().iter().map(|p| p.class).collect();
        assert!(!classes.is_empty());
        for &c in &classes {
            assert!(c < 2);
            assert_eq!(
                model.patterns_for_class(c).len(),
                model.patterns().iter().filter(|p| p.class == c).count()
            );
        }
    }

    #[test]
    fn transform_dimension_matches_pattern_count() {
        let train = two_class_dataset(12, 128, 4);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let f = model.transform(&train.series[0]);
        assert_eq!(f.len(), model.patterns().len());
    }

    #[test]
    fn empty_training_set_errors() {
        let d = Dataset::default();
        assert_eq!(
            RpmClassifier::train(&d, &fixed_config()).unwrap_err(),
            TrainError::EmptyTrainingSet
        );
    }

    #[test]
    fn single_class_errors() {
        let mut d = Dataset::default();
        d.push(vec![0.0; 64], 0);
        d.push(vec![1.0; 64], 0);
        assert_eq!(
            RpmClassifier::train(&d, &fixed_config()).unwrap_err(),
            TrainError::TooFewClasses
        );
    }

    #[test]
    fn oversized_window_gives_no_candidates() {
        let train = two_class_dataset(6, 40, 5);
        let cfg = RpmConfig::fixed(SaxConfig::new(64, 4, 4));
        assert_eq!(
            RpmClassifier::train(&train, &cfg).unwrap_err(),
            TrainError::NoCandidates
        );
    }

    #[test]
    fn per_class_fixed_configs_are_applied() {
        let train = two_class_dataset(12, 128, 6);
        let cfg = RpmConfig {
            param_search: ParamSearch::PerClassFixed(vec![
                SaxConfig::new(24, 4, 4),
                SaxConfig::new(32, 4, 5),
            ]),
            ..RpmConfig::default()
        };
        let model = RpmClassifier::train(&train, &cfg).unwrap();
        assert_eq!(model.sax_configs()[&0].window, 24);
        assert_eq!(model.sax_configs()[&1].window, 32);
    }

    #[test]
    fn rotation_invariant_flag_propagates() {
        let train = two_class_dataset(12, 128, 7);
        let cfg = RpmConfig {
            rotation_invariant: true,
            ..fixed_config()
        };
        let model = RpmClassifier::train(&train, &cfg).unwrap();
        assert!(model.is_rotation_invariant());
    }

    #[test]
    fn stream_classification_tracks_regime_changes() {
        let train = two_class_dataset(12, 128, 31);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        // A stream that is class 0 for its first half and class 1 after.
        let probe = two_class_dataset(1, 128, 32);
        let mut stream = probe.series[probe.labels.iter().position(|&l| l == 0).unwrap()].clone();
        stream.extend_from_slice(&probe.series[probe.labels.iter().position(|&l| l == 1).unwrap()]);
        let verdicts = model.classify_stream(&stream, 128, 64);
        assert_eq!(verdicts.len(), 3); // starts 0, 64, 128
        assert_eq!(verdicts[0], (0, 0));
        assert_eq!(verdicts[2], (128, 1));
    }

    #[test]
    fn stream_edge_cases() {
        let train = two_class_dataset(10, 128, 33);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        assert!(model.classify_stream(&[1.0; 10], 128, 1).is_empty());
        assert!(model.classify_stream(&[1.0; 200], 0, 1).is_empty());
        // hop 0 clamps to 1 and terminates.
        let v = model.classify_stream(&train.series[0], 128, 0);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn parallel_training_matches_serial() {
        let train = two_class_dataset(10, 128, 40);
        let test = two_class_dataset(6, 128, 41);
        let serial = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let parallel_cfg = RpmConfig {
            n_threads: 4,
            ..fixed_config()
        };
        let parallel = RpmClassifier::train(&train, &parallel_cfg).unwrap();
        assert_eq!(
            serial.predict_batch(&test.series),
            parallel.predict_batch(&test.series)
        );
        assert_eq!(serial.patterns().len(), parallel.patterns().len());
        let batched = parallel
            .predict_batch_with(&test.series, Parallelism::Threads(4), None)
            .unwrap();
        assert_eq!(batched, serial.predict_batch(&test.series));
    }

    #[test]
    fn every_predict_entry_point_agrees_for_every_kernel() {
        let train = two_class_dataset(10, 128, 44);
        let test = two_class_dataset(4, 128, 45);
        // The serving shape: slices borrowed from buffers owned elsewhere.
        let refs: Vec<&[f64]> = test.series.iter().map(Vec::as_slice).collect();
        let kernels = [
            MatchKernel::Rolling,
            MatchKernel::Batched,
            MatchKernel::Naive,
        ];
        for rotation_invariant in [false, true] {
            let mut kernel_labels = BTreeMap::new();
            for kernel in kernels {
                let cfg = RpmConfig {
                    kernel,
                    rotation_invariant,
                    ..fixed_config()
                };
                let model = RpmClassifier::train(&train, &cfg).unwrap();
                let case = format!("{kernel:?} rotation={rotation_invariant}");
                let as_trait: &dyn rpm_ts::Classifier = &model;
                let mut entries: Vec<(String, Vec<Label>)> = vec![
                    (
                        "predict".into(),
                        test.series.iter().map(|s| model.predict(s)).collect(),
                    ),
                    (
                        "predict_batch(owned)".into(),
                        model.predict_batch(&test.series),
                    ),
                    ("predict_batch(borrowed)".into(), model.predict_batch(&refs)),
                    (
                        "Classifier::predict_batch_refs".into(),
                        as_trait.predict_batch_refs(&refs),
                    ),
                ];
                let mut counted = Vec::new();
                for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
                    entries.push((
                        format!("predict_batch_with({parallelism:?}, None)"),
                        model.predict_batch_with(&refs, parallelism, None).unwrap(),
                    ));
                    let counters = ScanCounters::new();
                    entries.push((
                        format!("predict_batch_with({parallelism:?}, Some)"),
                        model
                            .predict_batch_with(&refs, parallelism, Some(&counters))
                            .unwrap(),
                    ));
                    counted.push(counters.snapshot());
                    let observed_counters = ScanCounters::new();
                    let observed = model
                        .predict_batch_observed(&refs, parallelism, Some(&observed_counters))
                        .unwrap();
                    assert_eq!(
                        observed_counters.snapshot().searches,
                        counters.snapshot().searches,
                        "{case} {parallelism:?}"
                    );
                    for ((label, sample), series) in observed.iter().zip(&test.series) {
                        assert_eq!(sample.class, *label);
                        assert_eq!(sample.len, series.len());
                        assert!(sample.best_distance.is_finite() && sample.best_distance >= 0.0);
                        assert!(sample.margin >= 0.0);
                        assert!(sample.stddev > 0.0, "noisy series have spread");
                        assert!(sample.z_extreme > 0.0);
                    }
                    // The winning distance is the row minimum.
                    let row = model.transform(&test.series[0]);
                    let expected = row.iter().copied().fold(f64::INFINITY, f64::min);
                    assert_eq!(observed[0].1.best_distance, expected, "{case}");
                    entries.push((
                        format!("predict_batch_observed({parallelism:?})"),
                        observed.iter().map(|(l, _)| *l).collect(),
                    ));
                }
                let reference = entries[0].1.clone();
                for (entry, labels) in &entries {
                    assert_eq!(labels, &reference, "{case}: {entry}");
                }
                let (serial, threads) = (counted[0], counted[1]);
                assert!(serial.searches > 0, "{case}: {serial:?}");
                assert!(serial.windows >= serial.searches);
                assert_eq!(serial.searches, threads.searches, "{case}");
                assert_eq!(serial.windows, threads.windows, "{case}");
                if kernel == MatchKernel::Rolling {
                    // The pattern set honours the plans' kernel: a Rolling
                    // model scans each pattern on its own statistics.
                    let views = if rotation_invariant { 2 } else { 1 };
                    let pairs = test.series.len() * model.patterns().len() * views;
                    assert_eq!(serial.stats_builds, pairs as u64, "{case}");
                    assert_eq!(threads.stats_builds, pairs as u64, "{case}");
                }
                kernel_labels.insert(format!("{kernel:?}"), reference);
            }
            assert_eq!(
                kernel_labels["Rolling"], kernel_labels["Batched"],
                "rotation={rotation_invariant}: Rolling and Batched are bit-identical"
            );
        }
    }

    #[test]
    fn training_builds_a_reference_profile() {
        let train = two_class_dataset(10, 128, 50);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let profile = model.reference_profile().expect("training always profiles");
        assert_eq!(profile.total_samples(), train.series.len() as u64);
        // The model predicts both classes on its own training set, so the
        // profile holds a sketch per class.
        assert_eq!(profile.class_labels(), vec![0, 1]);
    }

    #[test]
    fn classifier_trait_dispatches_to_rpm() {
        let train = two_class_dataset(10, 128, 42);
        let model = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let as_trait: &dyn rpm_ts::Classifier = &model;
        let direct = model.predict_batch(&train.series);
        let via_trait = rpm_ts::Classifier::predict_batch(&as_trait, &train.series);
        assert_eq!(direct, via_trait);
        let refs: Vec<&[f64]> = train.series.iter().map(Vec::as_slice).collect();
        assert_eq!(direct, as_trait.predict_batch_refs(&refs));
    }

    #[test]
    fn training_is_deterministic() {
        let train = two_class_dataset(10, 128, 8);
        let m1 = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let m2 = RpmClassifier::train(&train, &fixed_config()).unwrap();
        let test = two_class_dataset(5, 128, 9);
        assert_eq!(
            m1.predict_batch(&test.series),
            m2.predict_batch(&test.series)
        );
        assert_eq!(m1.patterns().len(), m2.patterns().len());
    }
}
