//! Parity proptests pinning the hot-path kernels against their
//! straightforward references: cached Cholesky solves vs fresh solves, the fused
//! sampled-residual MTTKRP vs the eval-then-multiply route, and
//! bitwise-identical engine math under workspace reuse.
//!
//! Test bodies live in plain functions returning `Result<(), String>`
//! (the vendored `proptest!` macro recurses per statement, so the macro
//! bodies stay one-liners).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sns_core::grams::{compute_grams, gram_row_update, hadamard_except};
use sns_core::kruskal::KruskalTensor;
use sns_core::mttkrp::{
    khatri_rao_row, mttkrp_row, mttkrp_row_from_entries, mttkrp_row_sampled_residuals,
};
use sns_core::update::common::update_row_exact;
use sns_core::update::FactorState;
use sns_core::workspace::{GramSolves, KernelWorkspace};
use sns_linalg::lstsq::solve_row_sym;
use sns_linalg::Mat;
use sns_tensor::{Coord, Shape, SparseTensor};

/// Random mode lengths (order 2–4), rank, and an RNG seed.
fn geometry() -> impl Strategy<Value = (Vec<usize>, usize, u64)> {
    (proptest::collection::vec(2usize..6, 2..5), 1usize..6, 0u64..u64::MAX)
}

/// Three-mode geometry with ranks spanning the register-block width
/// (scalar tail, one block, several blocks) for the fiber kernels.
fn geometry3() -> impl Strategy<Value = (Vec<usize>, usize, u64)> {
    (proptest::collection::vec(2usize..7, 3..4), 1usize..25, 0u64..u64::MAX)
}

fn random_factors(rng: &mut StdRng, dims: &[usize], rank: usize) -> Vec<Mat> {
    dims.iter().map(|&n| Mat::random(rng, n, rank, 1.0)).collect()
}

fn random_sparse(rng: &mut StdRng, dims: &[usize], nnz: usize) -> SparseTensor {
    let mut x = SparseTensor::new(Shape::new(dims));
    for _ in 0..nnz {
        let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
        x.add(&Coord::new(&c), rng.gen_range(1..5) as f64);
    }
    x
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Cached H(m) Cholesky solves must track fresh `solve_row_sym` to 1e-12
/// across a random sequence of Gram row updates, including solves where
/// the cache is warm (same versions) and stale (bumped).
fn check_cached_gram_solves(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors = random_factors(&mut rng, dims, rank);
    let mut grams = compute_grams(&factors);
    let mut versions = vec![1u64; dims.len()];
    let mut ws = GramSolves::new(dims.len(), rank);
    for step in 0..8 {
        let mode = rng.gen_range(0..dims.len());
        let u: Vec<f64> = (0..rank).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let mut cached = vec![0.0; rank];
        let mut fresh = vec![0.0; rank];
        ws.solve(&grams, &versions, mode, &u, &mut cached);
        let h = hadamard_except(&grams, mode, rank);
        solve_row_sym(&h, &u, &mut fresh).map_err(|e| e.to_string())?;
        for k in 0..rank {
            ensure(close(cached[k], fresh[k]), || {
                format!("step {step} mode {mode} k {k}: {} vs {}", cached[k], fresh[k])
            })?;
        }
        // Re-solving with unchanged versions must reuse and agree bitwise.
        let mut warm = vec![0.0; rank];
        ws.solve(&grams, &versions, mode, &u, &mut warm);
        ensure(warm == cached, || format!("step {step}: warm solve diverged"))?;
        // Mutate one random factor row, updating the Gram + version.
        let vm = rng.gen_range(0..dims.len());
        let i = rng.gen_range(0..dims[vm]);
        let old: Vec<f64> = factors[vm].row(i).to_vec();
        let new: Vec<f64> = (0..rank).map(|_| rng.gen::<f64>()).collect();
        factors[vm].set_row(i, &new);
        gram_row_update(&mut grams[vm], &old, &new);
        versions[vm] += 1;
    }
    Ok(())
}

/// The fused sampled-residual kernel must match the unfused
/// eval-then-`mttkrp_row_from_entries` route to 1e-12.
fn check_fused_residuals(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k =
        KruskalTensor { factors: random_factors(&mut rng, dims, rank), lambda: vec![1.0; rank] };
    let x = random_sparse(&mut rng, dims, 25);
    let mode = rng.gen_range(0..dims.len());
    let samples: Vec<Coord> = (0..12)
        .map(|_| {
            let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            Coord::new(&c)
        })
        .collect();
    let mut fused = vec![0.0; rank];
    let mut scratch = vec![0.0; rank];
    mttkrp_row_sampled_residuals(&x, &k, mode, &samples, &mut fused, &mut scratch)
        .map_err(|e| e.to_string())?;
    let entries: Vec<(Coord, f64)> = samples.iter().map(|c| (*c, x.get(c) - k.eval(c))).collect();
    let mut unfused = vec![0.0; rank];
    mttkrp_row_from_entries(&entries, &k.factors, mode, &mut unfused, &mut scratch)
        .map_err(|e| e.to_string())?;
    for j in 0..rank {
        ensure(close(fused[j], unfused[j]), || format!("k {j}: {} vs {}", fused[j], unfused[j]))?;
    }
    Ok(())
}

/// One long-lived workspace must leave the factor state bitwise identical
/// to a fresh workspace per call: cache reuse may only skip redundant
/// work, never change results.
fn check_workspace_reuse(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = random_sparse(&mut rng, dims, 30);
    let mut shared_state = FactorState::random(dims, rank, 0.7, seed ^ 1);
    let mut fresh_state = shared_state.clone();
    let mut shared_ws = KernelWorkspace::new(dims.len(), rank);
    for step in 0..10 {
        let mode = rng.gen_range(0..dims.len());
        let index = rng.gen_range(0..dims[mode]) as u32;
        update_row_exact(&mut shared_state, &x, mode, index, &mut shared_ws);
        let mut fresh_ws = KernelWorkspace::new(dims.len(), rank);
        update_row_exact(&mut fresh_state, &x, mode, index, &mut fresh_ws);
        for m in 0..dims.len() {
            ensure(
                shared_state.kruskal.factors[m].as_slice()
                    == fresh_state.kruskal.factors[m].as_slice(),
                || format!("step {step}: factor {m} diverged"),
            )?;
            ensure(shared_state.grams[m].as_slice() == fresh_state.grams[m].as_slice(), || {
                format!("step {step}: gram {m} diverged")
            })?;
        }
    }
    Ok(())
}

/// The register-blocked 3-mode fiber kernel must match the per-entry
/// `khatri_rao_row` accumulation route to 1e-12 (the pair-blocked walk
/// reassociates the fiber sum).
fn check_blocked_fiber_row(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = random_factors(&mut rng, dims, rank);
    let x = random_sparse(&mut rng, dims, 30);
    let mode = rng.gen_range(0..dims.len());
    let index = rng.gen_range(0..dims[mode]) as u32;
    let mut got = vec![0.0; rank];
    let mut scratch = vec![0.0; rank];
    mttkrp_row(&x, &f, mode, index, &mut got, &mut scratch).map_err(|e| e.to_string())?;
    let (coords, values) = x.fiber_slices(mode, index);
    let mut reference = vec![0.0; rank];
    for (coord, &value) in coords.iter().zip(values) {
        khatri_rao_row(&f, coord, mode, &mut scratch);
        reference.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += value * p);
    }
    for k in 0..rank {
        ensure(close(got[k], reference[k]), || format!("k {k}: {} vs {}", got[k], reference[k]))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_gram_solves_match_fresh(g in geometry()) {
        check_cached_gram_solves(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn fused_sampled_residuals_match_unfused(g in geometry()) {
        check_fused_residuals(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn workspace_reuse_is_bitwise_invisible(g in geometry()) {
        check_workspace_reuse(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn blocked_fiber_row_matches_per_entry_route(g in geometry3()) {
        check_blocked_fiber_row(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }
}
