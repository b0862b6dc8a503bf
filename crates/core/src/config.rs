//! Hyperparameters and algorithm selection.

/// Which SliceNStitch updater to run (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// SNS_MAT — one full ALS sweep per event (Algorithm 2).
    Mat,
    /// SNS_VEC — affected-row updates (Eqs. 9, 12, 13).
    Vec,
    /// SNS_RND — sampled affected-row updates (Eqs. 16, 17).
    Rnd,
    /// SNS⁺_VEC — coordinate descent with clipping (Eqs. 21, 22, 24, 25).
    PlusVec,
    /// SNS⁺_RND — sampled coordinate descent with clipping
    /// (Eqs. 21, 23, 24–26).
    PlusRnd,
}

impl AlgorithmKind {
    /// All variants, in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::Mat,
        AlgorithmKind::Vec,
        AlgorithmKind::Rnd,
        AlgorithmKind::PlusVec,
        AlgorithmKind::PlusRnd,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::Mat => "SNS_MAT",
            AlgorithmKind::Vec => "SNS_VEC",
            AlgorithmKind::Rnd => "SNS_RND",
            AlgorithmKind::PlusVec => "SNS+_VEC",
            AlgorithmKind::PlusRnd => "SNS+_RND",
        }
    }

    /// True for the clipped (numerically stable) variants.
    pub fn is_stable(&self) -> bool {
        matches!(self, AlgorithmKind::Mat | AlgorithmKind::PlusVec | AlgorithmKind::PlusRnd)
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Factor-storage precision. Factors are always `f64`, so this has one
/// variant; it stays only because `perfbench`'s shadow replay
/// destructures `EngineSpec::Sns { precision }` and builds
/// `SnsConfig { precision, .. }`. Dropping the field is a change to that
/// benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// `f64` factors.
    #[default]
    F64,
}

/// Hyperparameters shared by all updaters (Table III of the paper).
#[derive(Debug, Clone)]
pub struct SnsConfig {
    /// CP rank `R` (paper default: 20).
    pub rank: usize,
    /// Sampling threshold `θ` for SNS_RND / SNS⁺_RND (paper: 20–50).
    pub theta: usize,
    /// Clipping bound `η` for SNS⁺ variants (paper default: 1000).
    pub eta: f64,
    /// Scale of the uniform random factor initialization.
    pub init_scale: f64,
    /// RNG seed (factor init + sampling), for reproducible runs.
    pub seed: u64,
    /// Factor-storage precision (always [`Precision::F64`]).
    pub precision: Precision,
}

impl Default for SnsConfig {
    fn default() -> Self {
        SnsConfig {
            rank: 20,
            theta: 20,
            eta: 1000.0,
            init_scale: 1.0,
            seed: 0x5eed,
            precision: Precision::F64,
        }
    }
}

impl SnsConfig {
    /// Config with a given rank, other fields at paper defaults.
    pub fn with_rank(rank: usize) -> Self {
        SnsConfig { rank, ..Default::default() }
    }

    /// Builder-style θ override.
    pub fn theta(mut self, theta: usize) -> Self {
        self.theta = theta;
        self
    }

    /// Builder-style η override.
    pub fn eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table3() {
        let c = SnsConfig::default();
        assert_eq!(c.rank, 20);
        assert_eq!(c.theta, 20);
        assert_eq!(c.eta, 1000.0);
    }

    #[test]
    fn builders() {
        let c = SnsConfig::with_rank(5).theta(7).eta(32.0).seed(1);
        assert_eq!(c.rank, 5);
        assert_eq!(c.theta, 7);
        assert_eq!(c.eta, 32.0);
        assert_eq!(c.seed, 1);
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(AlgorithmKind::ALL.len(), 5);
        assert!(AlgorithmKind::PlusRnd.is_stable());
        assert!(!AlgorithmKind::Vec.is_stable());
        assert_eq!(AlgorithmKind::PlusVec.to_string(), "SNS+_VEC");
    }
}
