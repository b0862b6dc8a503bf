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
use sns_core::config::Precision;
use sns_core::grams::{compute_grams, gram_row_update, hadamard_except};
use sns_core::kruskal::KruskalTensor;
use sns_core::mirror::{round_row_f32, FactorMirror};
use sns_core::mttkrp::{
    khatri_rao_row, mttkrp_row, mttkrp_row_from_entries, mttkrp_row_interleaved,
    mttkrp_row_sampled_residuals,
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
        solve_row_sym(&h, &u, &mut fresh);
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
    let mut shared_state = FactorState::random(dims, rank, 0.7, seed ^ 1, Precision::F64);
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

/// The interleaved-mirror fiber kernel must match the row-major walk
/// **bitwise**: both routes accumulate per-`k` in the identical order.
fn check_interleaved_bitwise(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = random_factors(&mut rng, dims, rank);
    let x = random_sparse(&mut rng, dims, 30);
    let mirror = FactorMirror::new(&f, Precision::F64);
    let mode = rng.gen_range(0..dims.len());
    let index = rng.gen_range(0..dims[mode]) as u32;
    let mut row_major = vec![0.0; rank];
    let mut scratch = vec![0.0; rank];
    mttkrp_row(&x, &f, mode, index, &mut row_major, &mut scratch).map_err(|e| e.to_string())?;
    let mut interleaved = vec![0.0; rank];
    mttkrp_row_interleaved(&x, &mirror, mode, index, &mut interleaved)
        .map_err(|e| e.to_string())?;
    ensure(interleaved == row_major, || {
        format!("interleaved diverged from row-major: {interleaved:?} vs {row_major:?}")
    })
}

/// The `f32` speed profile's two contracts: (1) an `f32` mirror of
/// f32-rounded masters reproduces the master-factor walk **bitwise**
/// (widening is exact, accumulation is `f64` either way); (2) against
/// unrounded `f64` factors the result stays within the documented
/// f32-rounding tolerance.
fn check_f32_mirror(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f64_factors = random_factors(&mut rng, dims, rank);
    let x = random_sparse(&mut rng, dims, 30);
    let mode = rng.gen_range(0..dims.len());
    let index = rng.gen_range(0..dims[mode]) as u32;
    let mut rounded = f64_factors.clone();
    for m in &mut rounded {
        for i in 0..m.rows() {
            round_row_f32(m.row_mut(i));
        }
    }
    let mirror = FactorMirror::new(&rounded, Precision::F32);
    let mut scratch = vec![0.0; rank];
    let mut masters = vec![0.0; rank];
    mttkrp_row(&x, &rounded, mode, index, &mut masters, &mut scratch).map_err(|e| e.to_string())?;
    let mut via_f32 = vec![0.0; rank];
    mttkrp_row_interleaved(&x, &mirror, mode, index, &mut via_f32).map_err(|e| e.to_string())?;
    ensure(via_f32 == masters, || {
        format!("f32 mirror diverged from rounded masters: {via_f32:?} vs {masters:?}")
    })?;
    let mut full = vec![0.0; rank];
    mttkrp_row(&x, &f64_factors, mode, index, &mut full, &mut scratch)
        .map_err(|e| e.to_string())?;
    for k in 0..rank {
        // Fiber values are ≤ 5, ≤ 30 entries, factor entries O(1): the
        // f32 rounding of two multiplicands bounds the absolute error.
        ensure(
            (via_f32[k] - full[k]).abs() <= 1e-3 * (1.0 + via_f32[k].abs().max(full[k].abs())),
            || format!("k {k}: f32 route {} too far from f64 route {}", via_f32[k], full[k]),
        )?;
    }
    Ok(())
}

/// Updates on an `f32`-profile state must preserve its invariant: every
/// master factor entry stays exactly `f32`-representable, so the mirror
/// (widened) always equals the masters bit for bit.
fn check_f32_state_invariant(dims: &[usize], rank: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = random_sparse(&mut rng, dims, 30);
    let mut state = FactorState::random(dims, rank, 0.7, seed ^ 1, Precision::F32);
    let mut ws = KernelWorkspace::new(dims.len(), rank);
    for _ in 0..8 {
        let mode = rng.gen_range(0..dims.len());
        let index = rng.gen_range(0..dims[mode]) as u32;
        update_row_exact(&mut state, &x, mode, index, &mut ws);
    }
    for (m, &dim) in dims.iter().enumerate() {
        for &v in state.kruskal.factors[m].as_slice() {
            ensure(v == v as f32 as f64, || format!("mode {m}: {v} is not f32-representable"))?;
        }
        let plane = state.mirror().f32_plane(m).ok_or("f32 state lost its f32 mirror")?;
        let stride = state.mirror().stride();
        for i in 0..dim {
            let row = state.kruskal.factors[m].row(i);
            let mrow = &plane[i * stride..i * stride + rank];
            for k in 0..rank {
                ensure(mrow[k] as f64 == row[k], || {
                    format!("mode {m} row {i} k {k}: mirror {} vs master {}", mrow[k], row[k])
                })?;
            }
        }
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

    #[test]
    fn interleaved_mirror_is_bitwise_row_major(g in geometry3()) {
        check_interleaved_bitwise(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn f32_mirror_is_exact_vs_rounded_and_close_vs_f64(g in geometry3()) {
        check_f32_mirror(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn f32_state_updates_preserve_representability(g in geometry()) {
        check_f32_state_invariant(&g.0, g.1, g.2).map_err(TestCaseError::fail)?;
    }
}
