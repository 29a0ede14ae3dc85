//! # rpm-core — Representative Pattern Mining
//!
//! The primary contribution of *RPM: Representative Pattern Mining for
//! Efficient Time Series Classification* (EDBT 2016), assembled from the
//! substrate crates:
//!
//! 1. **Candidate generation** ([`candidates`], Algorithm 1) — per class:
//!    discretize with SAX + numerosity reduction, infer a Sequitur grammar
//!    over the word stream (junction-safe), map every rule occurrence back
//!    to a raw subsequence, refine each rule's occurrence set by iterative
//!    bisection clustering, and keep cluster representatives shared by at
//!    least `γ` of the class's training instances.
//! 2. **Distinct-pattern selection** ([`distinct`], Algorithm 2) — drop
//!    near-duplicate candidates below the τ similarity threshold (30th
//!    percentile of intra-cluster distances), transform the training set
//!    into the candidate-distance feature space, and run CFS; the selected
//!    features *are* the representative patterns.
//! 3. **Classification** ([`model`], §3.1) — a linear SVM over the
//!    transformed feature vectors, with the optional rotation-invariant
//!    transform of §6.1.
//! 4. **Parameter selection** ([`params`], Algorithm 3 / §4.2) — per-class
//!    or shared SAX parameters via exhaustive grid search or DIRECT.
//!
//! ```no_run
//! use rpm_core::{RpmClassifier, RpmConfig};
//! use rpm_ts::Dataset;
//!
//! let train: Dataset = unimplemented!("load or generate a dataset");
//! let test: Dataset = unimplemented!();
//! let model = RpmClassifier::train(&train, &RpmConfig::default()).unwrap();
//! let predictions: Vec<usize> = test.series.iter().map(|s| model.predict(s)).collect();
//! ```

pub(crate) mod budget;
pub mod cache;
pub mod candidates;
pub mod checkpoint;
pub mod config;
pub mod distinct;
pub mod engine;
pub mod explore;
pub mod model;
pub mod params;
pub mod persist;
pub mod transform;
pub mod usage;

pub use cache::{CacheStats, SaxCache, SetId};
pub use candidates::{find_candidates_for_class, Candidate, CandidateSet};
pub use checkpoint::CheckpointError;
pub use config::{
    ConfigError, GrammarAlgorithm, ParamSearch, RpmConfig, RpmConfigBuilder, TrainBudget,
};
pub use distinct::{compute_tau, remove_similar_kernel, select_representative};
pub use engine::{Engine, EngineError};
pub use explore::{
    discover_motifs, discover_motifs_batch, find_discords, find_discords_batch, rule_coverage,
    Discord, Motif,
};
pub use model::{ModelSchema, Pattern, RpmClassifier, SchemaMismatch, TrainError};
pub use params::{default_bounds, search_parameters, SearchOutcome};
pub use persist::{model_fingerprint, PersistError, VerifyReport};
pub use rpm_obs::{ObsConfig, ObsLevel};
pub use rpm_ts::{MatchKernel, MatchPlan, Parallelism};
pub use transform::{
    pattern_distance, pattern_distance_plans, prepare_patterns, transform_set_plans_engine_counted,
};
