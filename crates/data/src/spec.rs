//! Dataset descriptors: paper-reported statistics plus generation-scale
//! parameters.

use crate::generator::GeneratorConfig;

/// Everything known about one of the paper's datasets (Tables II–III) and
/// how we mirror it synthetically.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Short name used in harness output (matches the paper).
    pub name: &'static str,
    /// One-line description of the modes.
    pub description: &'static str,
    /// Stream tick unit, for display ("seconds", "minutes", "hours").
    pub tick_unit: &'static str,

    // ---- Table II (paper-reported, full-scale) ----
    /// Paper's mode lengths, time mode last.
    pub paper_dims: &'static [usize],
    /// Paper's non-zero count.
    pub paper_nnz: f64,
    /// Paper's density.
    pub paper_density: f64,

    // ---- Table III (paper defaults) ----
    /// CP rank `R`.
    pub rank: usize,
    /// Window length `W`.
    pub window: usize,
    /// Period `T` in ticks.
    pub period: u64,
    /// Sampling threshold `θ`.
    pub theta: usize,
    /// Clipping bound `η`.
    pub eta: f64,

    // ---- generation scale (ours) ----
    /// Categorical mode lengths for the synthetic twin (scaled down where
    /// the original is huge so experiments fit the session budget).
    pub base_dims: &'static [usize],
    /// Default number of events generated for experiments.
    pub default_events: usize,
    /// Latent component count of the generator.
    pub latent_rank: usize,
    /// Fraction of events drawn uniformly at random (unstructured noise).
    pub noise_fraction: f64,
    /// Zipf exponent of the categorical profiles (popularity skew).
    pub zipf_exponent: f64,
    /// Ticks per synthetic "day" (drives the diurnal activity profile).
    pub day_ticks: u64,
}

impl DatasetSpec {
    /// Total stream duration covering prefill (`W·T`) plus the paper's
    /// measured horizon (`5·W·T`).
    pub fn duration(&self) -> u64 {
        6 * self.window as u64 * self.period
    }

    /// Generator configuration scaled to `events` tuples (pass
    /// `self.default_events` for the standard runs).
    pub fn generator(&self, events: usize, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            base_dims: self.base_dims.to_vec(),
            n_components: self.latent_rank,
            events,
            duration: self.duration(),
            noise_fraction: self.noise_fraction,
            zipf_exponent: self.zipf_exponent,
            day_ticks: self.day_ticks,
            max_value: 3,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::datasets::nytaxi_like;

    #[test]
    fn duration_covers_prefill_plus_measurement() {
        let d = nytaxi_like();
        assert_eq!(d.duration(), 6 * d.window as u64 * d.period);
    }

    #[test]
    fn generator_config_inherits_scale() {
        let d = nytaxi_like();
        let g = d.generator(1000, 42);
        assert_eq!(g.events, 1000);
        assert_eq!(g.base_dims, d.base_dims.to_vec());
        assert_eq!(g.duration, d.duration());
    }
}
