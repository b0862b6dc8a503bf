//! Declarative engine construction: [`EngineSpec`] describes *what* to
//! build; the runtime decides *where* (which worker thread) and *with
//! which seed*.
//!
//! The pool used to take opaque `FnOnce(u64) -> Box<dyn StreamingCpd>`
//! factories, which could not be inspected, compared, logged, or shipped
//! alongside a snapshot. A spec is plain data: the worker materializes
//! the engine with [`EngineSpec::build`], and the same spec + the same
//! seed always produce bitwise-identical engines — the property both the
//! pool's determinism contract and snapshot restoration rely on.

use crate::anomaly::{AnomalyConfig, AnomalyCpd};
use crate::chaos::{ChaosConfig, ChaosCpd};
use crate::streaming::StreamingCpd;
use sns_baselines::{AlsPeriodic, BaselineEngine, CpStream, NeCpd, OnlineScp, PeriodicCpd};
use sns_core::config::{AlgorithmKind, Precision, SnsConfig};
use sns_core::engine::SnsEngine;

/// Which conventional once-per-period baseline to run behind a
/// [`BaselineEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaselineKind {
    /// Periodic warm-started batch ALS with the given sweep count.
    AlsPeriodic {
        /// ALS sweeps per period.
        sweeps: usize,
    },
    /// Windowed OnlineSCP.
    OnlineScp,
    /// Windowed CP-stream.
    CpStream {
        /// Forgetting factor `μ`.
        decay: f64,
        /// Inner iterations per period.
        iters: usize,
    },
    /// Windowed NeCPD with the given epoch count.
    NeCpd {
        /// SGD epochs per period.
        epochs: usize,
    },
}

/// A declarative description of one stream's engine: tensor shape,
/// window geometry, algorithm, and hyperparameters — everything a worker
/// needs to rebuild the engine deterministically from a seed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSpec {
    /// A continuous SliceNStitch engine ([`SnsEngine`]).
    Sns {
        /// Categorical mode lengths `N₁,…,N_{M−1}`.
        base_dims: Vec<usize>,
        /// Window length `W`.
        window: usize,
        /// Period `T`.
        period: u64,
        /// Which per-event updater to run.
        kind: AlgorithmKind,
        /// CP rank `R`.
        rank: usize,
        /// Sampling threshold `θ` (RND variants).
        theta: usize,
        /// Clipping bound `η` (SNS⁺ variants).
        eta: f64,
        /// Scale of the random factor initialization.
        init_scale: f64,
        /// Factor-storage precision (always [`Precision::F64`]).
        precision: Precision,
        /// Fixed seed; `None` lets the runtime supply one (the pool's
        /// deterministic per-stream seed).
        seed: Option<u64>,
    },
    /// A conventional once-per-period baseline ([`BaselineEngine`]).
    Baseline {
        /// Categorical mode lengths `N₁,…,N_{M−1}`.
        base_dims: Vec<usize>,
        /// Window length `W`.
        window: usize,
        /// Period `T`.
        period: u64,
        /// CP rank `R`.
        rank: usize,
        /// Which baseline algorithm to wrap.
        algo: BaselineKind,
        /// Fixed seed; `None` lets the runtime supply one.
        seed: Option<u64>,
    },
    /// An anomaly-scoring decorator ([`AnomalyCpd`]) around another spec.
    /// Declarative, so pool workers can build decorated engines on their
    /// own threads; construct with [`EngineSpec::with_anomaly`].
    Anomaly {
        /// The engine being decorated.
        inner: Box<EngineSpec>,
        /// Detector threshold and retention.
        config: AnomalyConfig,
    },
    /// A fault-injecting chaos decorator ([`ChaosCpd`]) around another
    /// spec — deterministic poison panics and apply-path delays for
    /// soak-testing quarantine and backpressure; construct with
    /// [`EngineSpec::with_chaos`].
    Chaos {
        /// The engine being decorated.
        inner: Box<EngineSpec>,
        /// Poison sentinel and per-tuple delay.
        config: ChaosConfig,
    },
}

impl EngineSpec {
    /// Spec for a continuous SliceNStitch engine. The config's `seed` is
    /// **not** captured — the runtime supplies one at build time; use
    /// [`EngineSpec::with_seed`] to pin it instead.
    pub fn sns(
        base_dims: &[usize],
        window: usize,
        period: u64,
        kind: AlgorithmKind,
        config: &SnsConfig,
    ) -> Self {
        EngineSpec::Sns {
            base_dims: base_dims.to_vec(),
            window,
            period,
            kind,
            rank: config.rank,
            theta: config.theta,
            eta: config.eta,
            init_scale: config.init_scale,
            precision: config.precision,
            seed: None,
        }
    }

    /// Spec for a conventional once-per-period baseline engine.
    pub fn baseline(
        base_dims: &[usize],
        window: usize,
        period: u64,
        rank: usize,
        algo: BaselineKind,
    ) -> Self {
        EngineSpec::Baseline {
            base_dims: base_dims.to_vec(),
            window,
            period,
            rank,
            algo,
            seed: None,
        }
    }

    /// Wraps this spec in an anomaly-scoring decorator: the built engine
    /// becomes an [`AnomalyCpd`] around whatever this spec describes.
    /// Decoration never perturbs the wrapped engine's factors.
    pub fn with_anomaly(self, config: AnomalyConfig) -> Self {
        EngineSpec::Anomaly { inner: Box::new(self), config }
    }

    /// Wraps this spec in a fault-injecting chaos decorator: the built
    /// engine becomes a [`ChaosCpd`] around whatever this spec
    /// describes. Benign tuples are untouched (bitwise).
    pub fn with_chaos(self, config: ChaosConfig) -> Self {
        EngineSpec::Chaos { inner: Box::new(self), config }
    }

    /// Pins the seed, overriding whatever the runtime would supply.
    pub fn with_seed(mut self, pinned: u64) -> Self {
        self.pin_seed(pinned);
        self
    }

    fn pin_seed(&mut self, pinned: u64) {
        match self {
            EngineSpec::Sns { seed, .. } | EngineSpec::Baseline { seed, .. } => {
                *seed = Some(pinned);
            }
            EngineSpec::Anomaly { inner, .. } | EngineSpec::Chaos { inner, .. } => {
                inner.pin_seed(pinned)
            }
        }
    }

    /// The seed a build with `fallback` would actually use.
    pub fn effective_seed(&self, fallback: u64) -> u64 {
        match self {
            EngineSpec::Sns { seed, .. } | EngineSpec::Baseline { seed, .. } => {
                seed.unwrap_or(fallback)
            }
            EngineSpec::Anomaly { inner, .. } | EngineSpec::Chaos { inner, .. } => {
                inner.effective_seed(fallback)
            }
        }
    }

    /// Materializes the engine. `fallback_seed` is used unless the spec
    /// pins its own; same spec + same seed ⇒ bitwise-identical engines.
    ///
    /// # Panics
    /// Propagates constructor panics (e.g. `window == 0`); the pool
    /// catches these on the worker and reports
    /// [`SnsError::EngineBuildFailed`](sns_error::SnsError::EngineBuildFailed).
    pub fn build(&self, fallback_seed: u64) -> Box<dyn StreamingCpd> {
        let seed = self.effective_seed(fallback_seed);
        match self {
            EngineSpec::Sns {
                base_dims,
                window,
                period,
                kind,
                rank,
                theta,
                eta,
                init_scale,
                precision,
                ..
            } => {
                let config = SnsConfig {
                    rank: *rank,
                    theta: *theta,
                    eta: *eta,
                    init_scale: *init_scale,
                    seed,
                    precision: *precision,
                };
                Box::new(SnsEngine::new(base_dims, *window, *period, *kind, &config))
            }
            EngineSpec::Baseline { base_dims, window, period, rank, algo, .. } => {
                let mut dims = base_dims.clone();
                dims.push(*window);
                let algo: Box<dyn PeriodicCpd> = match *algo {
                    BaselineKind::AlsPeriodic { sweeps } => {
                        Box::new(AlsPeriodic::new(&dims, *rank, sweeps, seed))
                    }
                    BaselineKind::OnlineScp => Box::new(OnlineScp::new(&dims, *rank, seed)),
                    BaselineKind::CpStream { decay, iters } => {
                        Box::new(CpStream::new(&dims, *rank, decay, iters, seed))
                    }
                    BaselineKind::NeCpd { epochs } => {
                        Box::new(NeCpd::new(&dims, *rank, epochs, seed))
                    }
                };
                Box::new(BaselineEngine::new(base_dims, *window, *period, algo))
            }
            EngineSpec::Anomaly { inner, config } => {
                Box::new(AnomalyCpd::new(inner.build(fallback_seed), *config))
            }
            EngineSpec::Chaos { inner, config } => {
                Box::new(ChaosCpd::new(inner.build(fallback_seed), *config))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_stream::StreamTuple;

    fn drive(mut e: Box<dyn StreamingCpd>) -> (String, f64, u64) {
        for t in 0..80u64 {
            e.ingest(StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).unwrap();
        }
        (e.name(), e.fitness(), e.updates_applied())
    }

    #[test]
    fn same_spec_same_seed_is_bitwise_deterministic() {
        let spec = EngineSpec::sns(
            &[4, 3],
            3,
            10,
            AlgorithmKind::PlusRnd,
            &SnsConfig { rank: 2, theta: 2, ..Default::default() },
        );
        let (na, fa, ua) = drive(spec.build(42));
        let (nb, fb, ub) = drive(spec.build(42));
        assert_eq!(na, nb);
        assert_eq!(fa.to_bits(), fb.to_bits());
        assert_eq!(ua, ub);
    }

    #[test]
    fn pinned_seed_wins_over_fallback() {
        let spec = EngineSpec::sns(
            &[4, 3],
            3,
            10,
            AlgorithmKind::PlusRnd,
            &SnsConfig { rank: 2, theta: 2, ..Default::default() },
        )
        .with_seed(7);
        assert_eq!(spec.effective_seed(999), 7);
        let (_, fa, _) = drive(spec.build(1));
        let (_, fb, _) = drive(spec.build(2));
        assert_eq!(fa.to_bits(), fb.to_bits(), "fallback must be ignored once pinned");
    }

    #[test]
    fn anomaly_spec_builds_a_transparent_decorator() {
        let plain = EngineSpec::sns(
            &[4, 3],
            3,
            10,
            AlgorithmKind::PlusRnd,
            &SnsConfig { rank: 2, theta: 2, ..Default::default() },
        );
        let wrapped = plain.clone().with_anomaly(AnomalyConfig::default());
        assert_eq!(wrapped.effective_seed(9), plain.effective_seed(9));
        let pinned = wrapped.clone().with_seed(7);
        assert_eq!(pinned.effective_seed(999), 7);
        let (np, fp, up) = drive(plain.build(42));
        let (nw, fw, uw) = drive(wrapped.build(42));
        assert_eq!(nw, format!("Anomaly({np})"));
        assert_eq!(fp.to_bits(), fw.to_bits(), "decoration must not perturb the factors");
        assert_eq!(up, uw);
        let e = wrapped.build(42);
        assert!(e.anomalies().is_some());
    }

    #[test]
    fn chaos_spec_builds_a_transparent_decorator() {
        let plain = EngineSpec::sns(
            &[4, 3],
            3,
            10,
            AlgorithmKind::PlusRnd,
            &SnsConfig { rank: 2, theta: 2, ..Default::default() },
        );
        let wrapped = plain.clone().with_chaos(crate::chaos::ChaosConfig::default());
        assert_eq!(wrapped.effective_seed(9), plain.effective_seed(9));
        assert_eq!(wrapped.clone().with_seed(7).effective_seed(999), 7);
        let (np, fp, up) = drive(plain.build(42));
        let (nw, fw, uw) = drive(wrapped.build(42));
        assert_eq!(nw, format!("Chaos({np})"));
        assert_eq!(fp.to_bits(), fw.to_bits(), "benign tuples must pass through bitwise");
        assert_eq!(up, uw);
    }

    #[test]
    fn baseline_specs_build_every_kind() {
        for (algo, name) in [
            (BaselineKind::AlsPeriodic { sweeps: 1 }, "ALS(1)"),
            (BaselineKind::OnlineScp, "OnlineSCP"),
            (BaselineKind::CpStream { decay: 0.99, iters: 3 }, "CP-stream"),
            (BaselineKind::NeCpd { epochs: 1 }, "NeCPD(1)"),
        ] {
            let spec = EngineSpec::baseline(&[4, 3], 3, 10, 2, algo);
            let (n, f, _) = drive(spec.build(5));
            assert_eq!(n, name);
            assert!(f.is_finite() || f.is_nan(), "{name} produced {f}");
        }
    }
}
