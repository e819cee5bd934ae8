//! # iot-ml
//!
//! From-scratch machine learning substrate for the device-activity
//! inference of §6.3 in *Information Exposure From Consumer IoT Devices*
//! (IMC 2019): CART decision trees, bagged random forests, classification
//! metrics, and the paper's cross-validation protocol.
//!
//! The paper trains one random-forest classifier per device on features
//! derived from packet sizes and inter-arrival times, validates with a 7/3
//! split repeated 10 times, and calls an activity or device *inferrable*
//! when its F1 score exceeds 0.75 (0.9 for the unexpected-behavior models
//! of §7).
//!
//! * [`stats`] — the paper's feature statistics: min, max, mean, deciles,
//!   skewness, kurtosis.
//! * [`dataset`] — labeled feature matrices.
//! * [`tree`] — CART decision trees (Gini impurity).
//! * [`forest`] — bootstrap-aggregated trees with feature subsampling.
//! * [`metrics`] — confusion matrices, precision/recall/F1.
//! * [`crossval`] — stratified repeated hold-out validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossval;
pub mod dataset;
pub mod forest;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod tree;

pub use crossval::{cross_validate, CrossValReport};
pub use dataset::Dataset;
pub use forest::{RandomForest, RandomForestConfig};
pub use metrics::ConfusionMatrix;
pub use tree::DecisionTree;
