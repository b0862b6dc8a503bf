//! # sns-core
//!
//! The SliceNStitch algorithms — continuous CP decomposition of sparse
//! tensor streams (Section V of the paper), plus the batch ALS used for
//! initialization and as the fitness reference.
//!
//! ## Layout
//!
//! - [`config`] — hyperparameters (`R`, `θ`, `η`, seeds),
//! - [`kruskal`] — the factorization object `[[λ; A(1),…,A(M)]]`,
//! - [`grams`] — incrementally maintained Gram matrices `A(m)ᵀA(m)`,
//! - [`mttkrp`] — sparse MTTKRP kernels (full, per-row with entry-pair
//!   blocking over the row-major factors, fused sampled-residual),
//! - [`workspace`] — [`workspace::KernelWorkspace`]: per-updater scratch
//!   buffers and version-keyed cached `H(m)` Cholesky solves that make
//!   the steady-state per-event path allocation-free,
//! - [`fitness`] — exact sparse fitness via the Gram identity,
//! - [`als`] — batch ALS (Eq. 4) with column normalization,
//! - [`update`] — the five per-event updaters:
//!   [`update::SnsMat`] (Alg. 2), [`update::SnsVec`] (Eqs. 9/12/13),
//!   [`update::SnsRnd`] (Eqs. 16/17), [`update::SnsPlusVec`] and
//!   [`update::SnsPlusRnd`] (coordinate descent, Eqs. 20–26, with
//!   clipping),
//! - [`engine`] — glue: a continuous window + an updater = a continuously
//!   maintained CP decomposition,
//! - [`anomaly`] — the z-score anomaly detector of Section VI-G.

pub mod als;
pub mod anomaly;
pub mod config;
pub mod engine;
pub mod fitness;
pub mod grams;
pub mod kruskal;
pub mod mttkrp;
pub mod update;
pub mod workspace;

pub use anomaly::{AnomalyDetector, DetectorState, ZScoreTracker};
pub use config::{AlgorithmKind, Precision, SnsConfig};
pub use engine::{SnsEngine, SnsEngineState};
pub use kruskal::KruskalTensor;
pub use update::{ContinuousUpdater, UpdaterState};
