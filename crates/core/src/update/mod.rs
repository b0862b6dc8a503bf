//! Per-event factor updaters (Section V of the paper).
//!
//! All five algorithms consume the same inputs (Problem 2): the current
//! tensor window `X + ΔX` (the [`sns_stream::ContinuousWindow`] applies
//! deltas *before* notifying), the change `ΔX` (≤ 2 entries), and the
//! maintained factor matrices with their Gram matrices. They differ in how
//! much of the window they touch per event:
//!
//! | Updater | rows touched | entries read per row | stabilized |
//! |---|---|---|---|
//! | [`SnsMat`] | all | all | normalization |
//! | [`SnsVec`] | affected only | `deg(m, i_m)` | no |
//! | [`SnsRnd`] | affected only | `≤ θ` | no |
//! | [`SnsPlusVec`] | affected only | `deg(m, i_m)` | clipping |
//! | [`SnsPlusRnd`] | affected only | `≤ θ` | clipping |

pub mod common;
pub mod snsmat;
pub mod snsplus;
pub mod snsrnd;
pub mod snsvec;

pub use crate::workspace::{GramSolves, KernelWorkspace, RowBufs};
pub use common::FactorState;
pub use snsmat::SnsMat;
pub use snsplus::{SnsPlusRnd, SnsPlusVec};
pub use snsrnd::SnsRnd;
pub use snsvec::SnsVec;

use crate::config::AlgorithmKind;
use crate::kruskal::KruskalTensor;
use sns_linalg::Mat;
use sns_stream::Delta;
use sns_tensor::SparseTensor;

/// A CP-factor updater reacting to single-entry window changes.
///
/// Contract: `window` already contains the change described by `delta`
/// (i.e. `window = X + ΔX`), matching the way
/// [`sns_stream::ContinuousWindow`] reports events.
pub trait ContinuousUpdater {
    /// Reacts to one window change.
    fn apply(&mut self, window: &SparseTensor, delta: &Delta);

    /// Current factorization.
    fn kruskal(&self) -> &KruskalTensor;

    /// Maintained Gram matrices `A(m)ᵀA(m)`.
    fn grams(&self) -> &[Mat];

    /// Which algorithm this is.
    fn kind(&self) -> AlgorithmKind;

    /// Installs a (warm-started) factorization, replacing current state.
    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>);

    /// True once the updater has hit non-finite values and stopped
    /// updating (the instability of Observation 3; only the unclipped
    /// variants ever set this).
    fn diverged(&self) -> bool {
        false
    }

    /// Fitness of the current factorization against `window`.
    fn fitness(&self, window: &SparseTensor) -> f64 {
        crate::fitness::fitness_with_grams(window, self.kruskal(), self.grams())
    }
}

/// Enum dispatch over the five updaters (avoids `dyn` in hot loops and
/// keeps engines trivially movable).
///
/// [`Updater::capture_state`] freezes the factors, Gram matrices, and —
/// for the sampling variants — the RNG mid-stream state as an
/// [`UpdaterState`], from which a rebuilt updater continues
/// bitwise-identically (the basis of engine snapshots).
pub enum Updater {
    /// SNS_MAT.
    Mat(SnsMat),
    /// SNS_VEC.
    Vec(SnsVec),
    /// SNS_RND.
    Rnd(SnsRnd),
    /// SNS⁺_VEC.
    PlusVec(SnsPlusVec),
    /// SNS⁺_RND.
    PlusRnd(SnsPlusRnd),
}

/// Captured state of an [`Updater`], sufficient to rebuild one that
/// continues **bitwise-identically** — factors, Gram matrices, sampling
/// RNG state, clipping/sampling hyperparameters, and the divergence
/// freeze flag.
///
/// Deliberately *not* captured, because it is unobservable dead state:
/// kernel workspaces (scratch + caches, rebuilt cold), `A_prev` Gram
/// snapshots of the sampling variants (overwritten from the live Grams
/// at the start of every event), and version counters (cache keys only).
#[derive(Clone)]
pub enum UpdaterState {
    /// SNS_MAT: normalized factors (λ carries scale) + Grams.
    Mat {
        /// The factorization.
        factors: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
    },
    /// SNS_VEC.
    Vec {
        /// The factorization (unit weights).
        factors: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// Whether the updater froze after numerical runaway.
        diverged: bool,
    },
    /// SNS_RND.
    Rnd {
        /// The factorization (unit weights).
        factors: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// Sampling threshold `θ`.
        theta: usize,
        /// Sampling RNG state, mid-stream.
        rng: [u64; 4],
        /// Whether the updater froze after numerical runaway.
        diverged: bool,
    },
    /// SNS⁺_VEC.
    PlusVec {
        /// The factorization (unit weights).
        factors: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// Clipping bound `η`.
        eta: f64,
    },
    /// SNS⁺_RND.
    PlusRnd {
        /// The factorization (unit weights).
        factors: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// Sampling threshold `θ`.
        theta: usize,
        /// Clipping bound `η`.
        eta: f64,
        /// Sampling RNG state, mid-stream.
        rng: [u64; 4],
    },
}

impl UpdaterState {
    /// Which algorithm the captured state belongs to.
    pub fn kind(&self) -> AlgorithmKind {
        match self {
            UpdaterState::Mat { .. } => AlgorithmKind::Mat,
            UpdaterState::Vec { .. } => AlgorithmKind::Vec,
            UpdaterState::Rnd { .. } => AlgorithmKind::Rnd,
            UpdaterState::PlusVec { .. } => AlgorithmKind::PlusVec,
            UpdaterState::PlusRnd { .. } => AlgorithmKind::PlusRnd,
        }
    }

    /// The captured factorization.
    pub fn factors(&self) -> &KruskalTensor {
        match self {
            UpdaterState::Mat { factors, .. }
            | UpdaterState::Vec { factors, .. }
            | UpdaterState::Rnd { factors, .. }
            | UpdaterState::PlusVec { factors, .. }
            | UpdaterState::PlusRnd { factors, .. } => factors,
        }
    }
}

impl Updater {
    /// Builds the updater selected by `kind` with random initial factors.
    pub fn new(kind: AlgorithmKind, dims: &[usize], config: &crate::config::SnsConfig) -> Self {
        match kind {
            AlgorithmKind::Mat => Updater::Mat(SnsMat::new(dims, config)),
            AlgorithmKind::Vec => Updater::Vec(SnsVec::new(dims, config)),
            AlgorithmKind::Rnd => Updater::Rnd(SnsRnd::new(dims, config)),
            AlgorithmKind::PlusVec => Updater::PlusVec(SnsPlusVec::new(dims, config)),
            AlgorithmKind::PlusRnd => Updater::PlusRnd(SnsPlusRnd::new(dims, config)),
        }
    }

    /// Captures the updater's complete live state (see [`UpdaterState`]).
    pub fn capture_state(&self) -> UpdaterState {
        match self {
            Updater::Mat(u) => u.capture_state(),
            Updater::Vec(u) => u.capture_state(),
            Updater::Rnd(u) => u.capture_state(),
            Updater::PlusVec(u) => u.capture_state(),
            Updater::PlusRnd(u) => u.capture_state(),
        }
    }

    /// Rebuilds an updater from captured state; it continues
    /// bitwise-identically to the captured one.
    ///
    /// # Errors
    /// Returns a description of the first shape inconsistency (decoded
    /// snapshots are validated, not trusted).
    pub fn from_state(state: UpdaterState) -> Result<Self, String> {
        Ok(match state {
            UpdaterState::Mat { factors, grams } => {
                Updater::Mat(SnsMat::from_state(factors, grams)?)
            }
            UpdaterState::Vec { factors, grams, diverged } => {
                Updater::Vec(SnsVec::from_state(factors, grams, diverged)?)
            }
            UpdaterState::Rnd { factors, grams, theta, rng, diverged } => {
                Updater::Rnd(SnsRnd::from_state(factors, grams, theta, rng, diverged)?)
            }
            UpdaterState::PlusVec { factors, grams, eta } => {
                Updater::PlusVec(SnsPlusVec::from_state(factors, grams, eta)?)
            }
            UpdaterState::PlusRnd { factors, grams, theta, eta, rng } => {
                Updater::PlusRnd(SnsPlusRnd::from_state(factors, grams, theta, eta, rng)?)
            }
        })
    }
}

macro_rules! delegate {
    ($self:ident, $u:ident => $body:expr) => {
        match $self {
            Updater::Mat($u) => $body,
            Updater::Vec($u) => $body,
            Updater::Rnd($u) => $body,
            Updater::PlusVec($u) => $body,
            Updater::PlusRnd($u) => $body,
        }
    };
}

impl ContinuousUpdater for Updater {
    fn apply(&mut self, window: &SparseTensor, delta: &Delta) {
        delegate!(self, u => u.apply(window, delta))
    }

    fn kruskal(&self) -> &KruskalTensor {
        delegate!(self, u => u.kruskal())
    }

    fn grams(&self) -> &[Mat] {
        delegate!(self, u => u.grams())
    }

    fn kind(&self) -> AlgorithmKind {
        delegate!(self, u => u.kind())
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        delegate!(self, u => u.install(kruskal, grams))
    }

    fn diverged(&self) -> bool {
        delegate!(self, u => u.diverged())
    }
}
