//! The once-per-period update interface shared by all baselines.

use crate::state::BaselineAlgoState;
use sns_core::kruskal::KruskalTensor;
use sns_linalg::{LinalgError, Mat};
use sns_stream::{PeriodUpdate, SnsError};
use sns_tensor::SparseTensor;

/// A conventional online CPD algorithm: reacts only when a period
/// completes and the window slides by one unit.
pub trait PeriodicCpd {
    /// Called once per completed period. `window` is the post-slide
    /// discrete window (completed units only); `update` carries the new
    /// slice and the evicted unit.
    ///
    /// # Errors
    /// [`SnsError::Diverged`] when a least-squares solve fails (a
    /// non-finite Gram system); the factors are then unusable.
    fn on_period(&mut self, window: &SparseTensor, update: &PeriodUpdate) -> Result<(), SnsError>;

    /// Current factorization (time factor has `W` rows aligned with the
    /// window's time indices).
    fn kruskal(&self) -> &KruskalTensor;

    /// Gram matrices of the current factors.
    fn grams(&self) -> &[Mat];

    /// Algorithm display name.
    fn name(&self) -> String;

    /// Installs a warm-started factorization.
    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>);

    /// Captures the algorithm's carried-forward state
    /// ([`BaselineAlgoState`]) so the baseline can be frozen and resumed
    /// bitwise-identically.
    fn capture(&self) -> BaselineAlgoState;

    /// Fitness against a window tensor.
    fn fitness(&self, window: &SparseTensor) -> f64 {
        sns_core::fitness::fitness_with_grams(window, self.kruskal(), self.grams())
    }
}

/// Boxed baselines are baselines too, so `BaselineEngine<Box<dyn
/// PeriodicCpd>>` can wrap a runtime-chosen algorithm.
impl<P: PeriodicCpd + ?Sized> PeriodicCpd for Box<P> {
    fn on_period(&mut self, window: &SparseTensor, update: &PeriodUpdate) -> Result<(), SnsError> {
        (**self).on_period(window, update)
    }

    fn kruskal(&self) -> &KruskalTensor {
        (**self).kruskal()
    }

    fn grams(&self) -> &[Mat] {
        (**self).grams()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        (**self).install(kruskal, grams)
    }

    fn capture(&self) -> BaselineAlgoState {
        (**self).capture()
    }

    fn fitness(&self, window: &SparseTensor) -> f64 {
        (**self).fitness(window)
    }
}

/// Wraps a failed least-squares solve of baseline `engine` as
/// [`SnsError::Diverged`].
pub(crate) fn diverged(engine: String, cause: LinalgError) -> SnsError {
    SnsError::Diverged { engine, detail: cause.to_string() }
}

/// Shifts the time factor one row up (window slide) and refreshes its
/// Gram: row `k ← k+1`, last row zeroed. Shared by every baseline.
pub fn slide_time_factor(kruskal: &mut KruskalTensor, grams: &mut [Mat], time_mode: usize) {
    kruskal.factors[time_mode].shift_rows_up();
    grams[time_mode] = sns_linalg::ops::gram(&kruskal.factors[time_mode]);
}

/// Solves the newest time-factor row by least squares against the
/// categorical factors from the completed slice, writes it in place and
/// refreshes the time Gram. Every baseline performs this step right after
/// the slide — a zeroed newest row would otherwise zero the MTTKRP of the
/// newest unit and can collapse ALS-style refreshes entirely.
///
/// # Errors
/// The row solve's error when the categorical Grams are not finite.
pub fn solve_new_time_row(
    kruskal: &mut KruskalTensor,
    grams: &mut [Mat],
    update: &PeriodUpdate,
) -> sns_linalg::Result<()> {
    let tm = kruskal.order() - 1;
    let rank = kruskal.rank();
    let newest = (kruskal.factors[tm].rows() - 1) as u32;
    let entries: Vec<(sns_tensor::Coord, f64)> =
        update.slice.iter().map(|&(c, v)| (c.extended(newest), v)).collect();
    let mut u = vec![0.0; rank];
    let mut prod = vec![0.0; rank];
    sns_core::mttkrp::mttkrp_row_from_entries(&entries, &kruskal.factors, tm, &mut u, &mut prod)
        .expect("rank-sized buffers");
    let h = sns_core::grams::hadamard_except(grams, tm, rank);
    let mut s = vec![0.0; rank];
    sns_linalg::lstsq::solve_row_sym(&h, &u, &mut s)?;
    kruskal.factors[tm].set_row(newest as usize, &s);
    grams[tm] = sns_linalg::ops::gram(&kruskal.factors[tm]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slide_shifts_and_refreshes_gram() {
        let mut k = KruskalTensor::zeros(&[2, 3], 2);
        k.factors[1].set_row(0, &[1.0, 1.0]);
        k.factors[1].set_row(1, &[2.0, 0.0]);
        k.factors[1].set_row(2, &[0.0, 3.0]);
        let mut grams = sns_core::grams::compute_grams(&k.factors);
        slide_time_factor(&mut k, &mut grams, 1);
        assert_eq!(k.factors[1].row(0), &[2.0, 0.0]);
        assert_eq!(k.factors[1].row(1), &[0.0, 3.0]);
        assert_eq!(k.factors[1].row(2), &[0.0, 0.0]);
        let fresh = sns_linalg::ops::gram(&k.factors[1]);
        assert_eq!(grams[1], fresh);
    }
}
