//! Sparse MTTKRP kernels.
//!
//! The matricized-tensor-times-Khatri-Rao product `X(m)·K(m)` is the hot
//! kernel of every CP algorithm. For a sparse `X` it reduces to, per
//! non-zero `x_J`, a scaled element-wise product of factor rows — the
//! Khatri–Rao product is never materialized.
//!
//! # Fiber walk
//!
//! [`mttkrp_row`] walks one fiber over the row-major factor matrices.
//! For 3-mode tensors it accumulates fiber entries in *pairs* (two
//! entries fused per pass over `out`, halving the accumulator traffic)
//! over explicit width-4 register blocks with a scalar tail, so the
//! inner loops autovectorize on stable Rust.
//!
//! # Rank invariants
//!
//! Every kernel here works on length-`R` row buffers, where `R` is the
//! common column count of all `factors`. The public entry points return
//! [`SnsError::KernelShape`] when `out`/`scratch` do not match (a longer
//! `scratch` would silently leave stale tail entries in the product,
//! a shorter one would truncate it); the inner loops keep
//! `debug_assert!`s only. The updaters pass buffers from
//! [`KernelWorkspace`](crate::workspace::KernelWorkspace), which sizes
//! them once at construction.

use crate::kruskal::KruskalTensor;
use sns_error::SnsError;
use sns_linalg::Mat;
use sns_tensor::{Coord, SparseTensor};

#[inline]
fn debug_assert_rank(factors: &[Mat], len: usize, what: &str) {
    debug_assert!(
        factors.iter().all(|f| f.cols() == len),
        "{what}: buffer length {len} must equal the factor rank {:?}",
        factors.iter().map(|f| f.cols()).collect::<Vec<_>>()
    );
}

/// Typed rank check for the public kernel entry points (panic-free
/// release behavior for malformed buffer lengths).
#[inline]
fn check_rank(factors: &[Mat], len: usize, what: &'static str) -> Result<(), SnsError> {
    match factors.iter().find(|f| f.cols() != len) {
        None => Ok(()),
        Some(f) => Err(SnsError::KernelShape { what, expected: f.cols(), got: len }),
    }
}

/// The two categorical-or-time modes a 3-mode fiber kernel reads when
/// mode `skip` is being updated, in ascending order (which fixes the
/// multiplication grouping `a·b` across every kernel variant).
#[inline]
fn other_two(skip: usize) -> (usize, usize) {
    match skip {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// `out[k] += v0·(a0[k]·b0[k]) + v1·(a1[k]·b1[k])` over explicit
/// width-4 blocks plus a scalar tail — the fused two-entry
/// accumulation of the fiber walk.
#[inline]
fn accum_pair(out: &mut [f64], v0: f64, a0: &[f64], b0: &[f64], v1: f64, a1: &[f64], b1: &[f64]) {
    let n = out.len();
    debug_assert!(a0.len() == n && b0.len() == n && a1.len() == n && b1.len() == n);
    let mut o = out.chunks_exact_mut(4);
    let mut a0c = a0.chunks_exact(4);
    let mut b0c = b0.chunks_exact(4);
    let mut a1c = a1.chunks_exact(4);
    let mut b1c = b1.chunks_exact(4);
    for ((((o, x0), y0), x1), y1) in
        (&mut o).zip(&mut a0c).zip(&mut b0c).zip(&mut a1c).zip(&mut b1c)
    {
        o[0] += v0 * (x0[0] * y0[0]) + v1 * (x1[0] * y1[0]);
        o[1] += v0 * (x0[1] * y0[1]) + v1 * (x1[1] * y1[1]);
        o[2] += v0 * (x0[2] * y0[2]) + v1 * (x1[2] * y1[2]);
        o[3] += v0 * (x0[3] * y0[3]) + v1 * (x1[3] * y1[3]);
    }
    for ((((o, x0), y0), x1), y1) in o
        .into_remainder()
        .iter_mut()
        .zip(a0c.remainder())
        .zip(b0c.remainder())
        .zip(a1c.remainder())
        .zip(b1c.remainder())
    {
        *o += v0 * (x0 * y0) + v1 * (x1 * y1);
    }
}

/// `out[k] += v·(a[k]·b[k])` — the odd-entry tail of the pair-blocked
/// fiber walk, same blocking and grouping as [`accum_pair`].
#[inline]
fn accum_single(out: &mut [f64], v: f64, a: &[f64], b: &[f64]) {
    let n = out.len();
    debug_assert!(a.len() == n && b.len() == n);
    let mut o = out.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((o, x), y) in (&mut o).zip(&mut ac).zip(&mut bc) {
        o[0] += v * (x[0] * y[0]);
        o[1] += v * (x[1] * y[1]);
        o[2] += v * (x[2] * y[2]);
        o[3] += v * (x[3] * y[3]);
    }
    for ((o, x), y) in o.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o += v * (x * y);
    }
}

/// Pair-blocked fiber walk over two row-major factor planes whose row
/// stride is the rank `out.len()` (the 3-mode path of [`mttkrp_row`]).
fn fiber_accum_planes(
    coords: &[Coord],
    values: &[f64],
    pa: &[f64],
    pb: &[f64],
    ma: usize,
    mb: usize,
    out: &mut [f64],
) {
    let w = out.len();
    let n = coords.len();
    let mut i = 0;
    while i + 2 <= n {
        let (c0, c1) = (&coords[i], &coords[i + 1]);
        let a0 = c0.get(ma) as usize * w;
        let b0 = c0.get(mb) as usize * w;
        let a1 = c1.get(ma) as usize * w;
        let b1 = c1.get(mb) as usize * w;
        accum_pair(
            out,
            values[i],
            &pa[a0..a0 + w],
            &pb[b0..b0 + w],
            values[i + 1],
            &pa[a1..a1 + w],
            &pb[b1..b1 + w],
        );
        i += 2;
    }
    if i < n {
        let c = &coords[i];
        let a = c.get(ma) as usize * w;
        let b = c.get(mb) as usize * w;
        accum_single(out, values[i], &pa[a..a + w], &pb[b..b + w]);
    }
}

/// Collects the participating factor rows of one coordinate (all modes
/// but `skip`) into a stack array — one bounds-checked lookup per mode,
/// after which the product kernels run over plain slices.
#[inline]
fn gather_rows<'a>(
    factors: &'a [Mat],
    coord: &Coord,
    skip: usize,
) -> ([&'a [f64]; sns_tensor::MAX_ORDER], usize) {
    let mut rows: [&[f64]; sns_tensor::MAX_ORDER] = [&[]; sns_tensor::MAX_ORDER];
    let mut n = 0;
    for (m, f) in factors.iter().enumerate() {
        if m != skip {
            rows[n] = f.row(coord.get(m) as usize);
            n += 1;
        }
    }
    (rows, n)
}

/// `out[k] = Π_{n≠skip} factors[n](coord_n, k)` — the Khatri–Rao *row*
/// product for one coordinate. `O(M·R)`.
///
/// `out.len()` must equal the factor rank `R`. The ubiquitous
/// three-mode/one-skip case runs as a single fused element-wise multiply
/// (one pass over `out` instead of init + one pass per mode); products
/// accumulate in ascending-mode order in every case, so results are
/// bitwise independent of which path runs.
#[inline]
pub fn khatri_rao_row(factors: &[Mat], coord: &Coord, skip: usize, out: &mut [f64]) {
    debug_assert_rank(factors, out.len(), "khatri_rao_row");
    let (rows, n) = gather_rows(factors, coord, skip);
    match n {
        0 => out.iter_mut().for_each(|x| *x = 1.0),
        1 => out.copy_from_slice(rows[0]),
        2 => {
            out.iter_mut().zip(rows[0].iter().zip(rows[1])).for_each(|(o, (&a, &b))| *o = a * b);
        }
        _ => {
            out.iter_mut().zip(rows[0].iter().zip(rows[1])).for_each(|(o, (&a, &b))| *o = a * b);
            for row in &rows[2..n] {
                out.iter_mut().zip(*row).for_each(|(o, &v)| *o *= v);
            }
        }
    }
}

/// Full MTTKRP `U = X(m)·K(m) ∈ R^{N_m×R}` over all non-zeros of `x`.
/// `O(|X|·M·R)`.
pub fn mttkrp_full(x: &SparseTensor, factors: &[Mat], mode: usize) -> Mat {
    let rank = factors[0].cols();
    let mut u = Mat::zeros(x.shape().dim(mode), rank);
    let mut prod = vec![0.0; rank];
    for (coord, value) in x.iter() {
        khatri_rao_row(factors, coord, mode, &mut prod);
        let row = u.row_mut(coord.get(mode) as usize);
        row.iter_mut().zip(&prod).for_each(|(r, &p)| *r += value * p);
    }
    u
}

/// Row MTTKRP over one fiber:
/// `out[k] = Σ_{J : J_mode = index} x_J · Π_{n≠mode} factors[n](J_n, k)`.
/// This is `(X)(m)(i,:)·K(m)` of Eq. (12). `O(deg·M·R)`.
///
/// Three-mode tensors (every Table-III dataset but one) run the
/// pair-blocked fast path: two fiber entries fuse into one pass over
/// `out`, halving the accumulator load/store traffic, with explicit
/// width-4 register blocks inside.
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` or `scratch` does not match the
/// factor rank (see the module docs on rank invariants).
pub fn mttkrp_row(
    x: &SparseTensor,
    factors: &[Mat],
    mode: usize,
    index: u32,
    out: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), SnsError> {
    check_rank(factors, out.len(), "mttkrp_row(out)")?;
    check_rank(factors, scratch.len(), "mttkrp_row(scratch)")?;
    out.iter_mut().for_each(|v| *v = 0.0);
    let (coords, values) = x.fiber_slices(mode, index);
    if coords.is_empty() {
        return Ok(());
    }
    if factors.len() == 3 {
        let (ma, mb) = other_two(mode);
        let (pa, pb) = (factors[ma].as_slice(), factors[mb].as_slice());
        fiber_accum_planes(coords, values, pa, pb, ma, mb, out);
    } else {
        for (coord, &value) in coords.iter().zip(values) {
            khatri_rao_row(factors, coord, mode, scratch);
            out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += value * p);
        }
    }
    Ok(())
}

/// Row MTTKRP over an explicit list of `(coord, value)` pairs (used for
/// the sampled correction `X̄ + ΔX` of Eq. (16) and Eq. (23)).
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` or `scratch` does not match the
/// factor rank (see the module docs on rank invariants).
pub fn mttkrp_row_from_entries(
    entries: &[(Coord, f64)],
    factors: &[Mat],
    mode: usize,
    out: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), SnsError> {
    check_rank(factors, out.len(), "mttkrp_row_from_entries(out)")?;
    check_rank(factors, scratch.len(), "mttkrp_row_from_entries(scratch)")?;
    out.iter_mut().for_each(|v| *v = 0.0);
    for (coord, value) in entries {
        khatri_rao_row(factors, coord, mode, scratch);
        out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += value * p);
    }
    Ok(())
}

/// The sampled-correction row MTTKRP of Eq. (16)/Eq. (23), fused:
/// `out[k] = Σ_{J ∈ samples} (x_J − x̃_J) · Π_{n≠mode} a(n)_{J_n k}`
/// (`out` is zeroed first; the caller appends the `ΔX` terms).
///
/// The residual `x̃_J = Σ_k λ_k Π_n a(n)_{J_n k}` shares its all-modes
/// product with the Khatri–Rao row: the kernel computes the skip-`mode`
/// row once and derives `x̃_J` from it with a single extra
/// multiply-accumulate against `a(mode)_{J_mode}` — one pass over the
/// factor rows instead of the separate `eval` + `khatri_rao_row` passes.
/// Matches the unfused form to ≤ 1e-12: the model value
/// multiplies factors in a different order than
/// [`KruskalTensor::eval`].
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` or `scratch` does not match the
/// factor rank (see the module docs on rank invariants).
pub fn mttkrp_row_sampled_residuals(
    window: &SparseTensor,
    kruskal: &KruskalTensor,
    mode: usize,
    samples: &[Coord],
    out: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), SnsError> {
    check_rank(&kruskal.factors, out.len(), "mttkrp_row_sampled_residuals(out)")?;
    check_rank(&kruskal.factors, scratch.len(), "mttkrp_row_sampled_residuals(scratch)")?;
    out.iter_mut().for_each(|v| *v = 0.0);
    if kruskal.factors.len() == 3 {
        // Fast path for the ubiquitous 3-mode case: the Khatri–Rao row
        // is a single element-wise product (same ascending-mode order as
        // `khatri_rao_row`, so `scratch` is bitwise identical), and the
        // model evaluation fuses into the same register-blocked sweep.
        let (ma, mb) = other_two(mode);
        let (fa, fb) = (&kruskal.factors[ma], &kruskal.factors[mb]);
        let fm = &kruskal.factors[mode];
        let r = out.len();
        for coord in samples {
            let a = &fa.row(coord.get(ma) as usize)[..r];
            let b = &fb.row(coord.get(mb) as usize)[..r];
            let frow = &fm.row(coord.get(mode) as usize)[..r];
            let model = fused_model_pass(a, b, frow, &kruskal.lambda, scratch);
            let residual = window.get(coord) - model;
            out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += residual * p);
        }
    } else {
        for coord in samples {
            khatri_rao_row(&kruskal.factors, coord, mode, scratch);
            let frow = kruskal.factors[mode].row(coord.get(mode) as usize);
            let model: f64 = scratch
                .iter()
                .zip(frow.iter().zip(&kruskal.lambda))
                .map(|(&p, (&a, &l))| l * p * a)
                .sum();
            let residual = window.get(coord) - model;
            out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += residual * p);
        }
    }
    Ok(())
}

/// One fused sample pass of the 3-mode sampled-residual kernel:
/// `scratch[k] = a[k]·b[k]` (the Khatri–Rao row) while accumulating the
/// model value `Σ_k λ[k]·scratch[k]·f[k]` in four independent lanes —
/// one register-blocked sweep instead of a product pass plus a dot pass.
/// The lane sums reduce as `((m0+m1)+(m2+m3))+tail` (≤ 1e-12 relative
/// reassociation versus the sequential sum).
#[inline]
fn fused_model_pass(
    a: &[f64],
    b: &[f64],
    frow: &[f64],
    lambda: &[f64],
    scratch: &mut [f64],
) -> f64 {
    let n = scratch.len();
    debug_assert!(a.len() == n && b.len() == n && frow.len() == n && lambda.len() >= n);
    let mut s = scratch.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut fc = frow.chunks_exact(4);
    let mut lc = lambda[..n].chunks_exact(4);
    let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0, 0.0, 0.0);
    for ((((s, x), y), f), l) in (&mut s).zip(&mut ac).zip(&mut bc).zip(&mut fc).zip(&mut lc) {
        s[0] = x[0] * y[0];
        s[1] = x[1] * y[1];
        s[2] = x[2] * y[2];
        s[3] = x[3] * y[3];
        m0 += l[0] * s[0] * f[0];
        m1 += l[1] * s[1] * f[1];
        m2 += l[2] * s[2] * f[2];
        m3 += l[3] * s[3] * f[3];
    }
    let mut tail = 0.0;
    for ((((s, &x), &y), &f), &l) in s
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
        .zip(fc.remainder())
        .zip(lc.remainder())
    {
        *s = x * y;
        tail += l * *s * f;
    }
    ((m0 + m1) + (m2 + m3)) + tail
}

/// Dense-oracle MTTKRP: materializes `X(m)` and the full Khatri–Rao
/// product and multiplies them. Small shapes only; used to pin the sparse
/// kernels in tests.
pub fn mttkrp_dense_oracle(x: &sns_tensor::DenseTensor, factors: &[Mat], mode: usize) -> Mat {
    use sns_linalg::ops::{khatri_rao_all, matmul};
    use sns_tensor::matricize::kr_ordering;
    let ordering = kr_ordering(factors.len(), mode);
    let parts: Vec<&Mat> = ordering.iter().map(|&n| &factors[n]).collect();
    let k = khatri_rao_all(&parts).expect("rank-consistent factors");
    matmul(&x.matricize(mode), &k).expect("shape-consistent MTTKRP")
}

/// Inner product `⟨X, X̃⟩ = Σ_{J non-zero} x_J · x̃_J`. `O(|X|·M·R)`.
pub fn inner_with_kruskal(x: &SparseTensor, k: &KruskalTensor) -> f64 {
    x.iter().map(|(c, v)| v * k.eval(c)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sns_tensor::{DenseTensor, Shape};

    fn random_sparse(rng: &mut StdRng, dims: &[usize], nnz: usize) -> SparseTensor {
        let mut x = SparseTensor::new(Shape::new(dims));
        for _ in 0..nnz {
            let coord: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            x.add(&Coord::new(&coord), rng.gen_range(1..5) as f64);
        }
        x
    }

    fn random_factors(rng: &mut StdRng, dims: &[usize], rank: usize) -> Vec<Mat> {
        dims.iter().map(|&n| Mat::random(rng, n, rank, 1.0)).collect()
    }

    #[test]
    fn khatri_rao_row_products() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = random_factors(&mut rng, &[3, 4, 2], 5);
        let c = Coord::new(&[2, 3, 1]);
        let mut out = vec![0.0; 5];
        khatri_rao_row(&f, &c, 1, &mut out);
        for k in 0..5 {
            let expect = f[0][(2, k)] * f[2][(1, k)];
            assert!((out[k] - expect).abs() < 1e-14);
        }
        // skip = every mode — result excludes exactly that factor.
        khatri_rao_row(&f, &c, 0, &mut out);
        for k in 0..5 {
            let expect = f[1][(3, k)] * f[2][(1, k)];
            assert!((out[k] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn sparse_mttkrp_matches_dense_oracle_all_modes() {
        let mut rng = StdRng::seed_from_u64(2);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 25);
        let f = random_factors(&mut rng, &dims, 3);
        let dense = DenseTensor::from_sparse(&x);
        for mode in 0..3 {
            let fast = mttkrp_full(&x, &f, mode);
            let oracle = mttkrp_dense_oracle(&dense, &f, mode);
            assert_eq!(fast.shape(), oracle.shape());
            for i in 0..fast.rows() {
                for j in 0..fast.cols() {
                    assert!(
                        (fast[(i, j)] - oracle[(i, j)]).abs() < 1e-9,
                        "mode {mode} ({i},{j}): {} vs {}",
                        fast[(i, j)],
                        oracle[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn mttkrp_4mode_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        let dims = [3usize, 2, 4, 3];
        let x = random_sparse(&mut rng, &dims, 20);
        let f = random_factors(&mut rng, &dims, 2);
        let dense = DenseTensor::from_sparse(&x);
        for mode in 0..4 {
            let fast = mttkrp_full(&x, &f, mode);
            let oracle = mttkrp_dense_oracle(&dense, &f, mode);
            for i in 0..fast.rows() {
                for j in 0..fast.cols() {
                    assert!((fast[(i, j)] - oracle[(i, j)]).abs() < 1e-9, "mode {mode}");
                }
            }
        }
    }

    #[test]
    fn row_mttkrp_matches_full() {
        let mut rng = StdRng::seed_from_u64(4);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 30);
        let f = random_factors(&mut rng, &dims, 4);
        let mut out = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        for (mode, &dim) in dims.iter().enumerate() {
            let full = mttkrp_full(&x, &f, mode);
            for i in 0..dim as u32 {
                mttkrp_row(&x, &f, mode, i, &mut out, &mut scratch).unwrap();
                for k in 0..4 {
                    assert!((out[k] - full[(i as usize, k)]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn row_mttkrp_4mode_matches_full() {
        // The non-3-mode (scratch) path of mttkrp_row.
        let mut rng = StdRng::seed_from_u64(14);
        let dims = [3usize, 2, 4, 3];
        let x = random_sparse(&mut rng, &dims, 25);
        let f = random_factors(&mut rng, &dims, 3);
        let mut out = vec![0.0; 3];
        let mut scratch = vec![0.0; 3];
        for (mode, &dim) in dims.iter().enumerate() {
            let full = mttkrp_full(&x, &f, mode);
            for i in 0..dim as u32 {
                mttkrp_row(&x, &f, mode, i, &mut out, &mut scratch).unwrap();
                for k in 0..3 {
                    assert!((out[k] - full[(i as usize, k)]).abs() < 1e-10, "mode {mode} row {i}");
                }
            }
        }
    }

    #[test]
    fn kernel_shape_errors_are_typed_not_panics() {
        let mut rng = StdRng::seed_from_u64(15);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 10);
        let f = random_factors(&mut rng, &dims, 4);
        let mut short = vec![0.0; 3];
        let mut ok = vec![0.0; 4];
        assert!(matches!(
            mttkrp_row(&x, &f, 0, 0, &mut short, &mut ok),
            Err(SnsError::KernelShape { what: "mttkrp_row(out)", expected: 4, got: 3 })
        ));
        assert!(matches!(
            mttkrp_row(&x, &f, 0, 0, &mut ok, &mut short),
            Err(SnsError::KernelShape { what: "mttkrp_row(scratch)", .. })
        ));
        let entries: Vec<(Coord, f64)> = vec![];
        assert!(mttkrp_row_from_entries(&entries, &f, 0, &mut short, &mut ok).is_err());
        let k = KruskalTensor::random(&mut rng, &dims, 4, 1.0);
        assert!(mttkrp_row_sampled_residuals(&x, &k, 0, &[], &mut short, &mut ok).is_err());
    }

    #[test]
    fn row_from_entries_matches_row() {
        let mut rng = StdRng::seed_from_u64(5);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 30);
        let f = random_factors(&mut rng, &dims, 4);
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        let entries: Vec<(Coord, f64)> = x.fiber_entries(0, 2).map(|(c, v)| (*c, v)).collect();
        mttkrp_row(&x, &f, 0, 2, &mut a, &mut scratch).unwrap();
        mttkrp_row_from_entries(&entries, &f, 0, &mut b, &mut scratch).unwrap();
        for k in 0..4 {
            assert!((a[k] - b[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn inner_with_kruskal_matches_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let dims = [3usize, 4, 2];
        let x = random_sparse(&mut rng, &dims, 15);
        let k = KruskalTensor::random(&mut rng, &dims, 3, 1.0);
        let dense_x = DenseTensor::from_sparse(&x);
        let dense_k = k.reconstruct_dense();
        let brute: f64 =
            Shape::new(&dims).iter_coords().map(|c| dense_x.get(&c) * dense_k.get(&c)).sum();
        assert!((inner_with_kruskal(&x, &k) - brute).abs() < 1e-9);
    }

    #[test]
    fn fused_sampled_residuals_match_eval_route() {
        let mut rng = StdRng::seed_from_u64(10);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 30);
        let k = KruskalTensor::random(&mut rng, &dims, 4, 1.0);
        let mode = 1;
        let samples: Vec<Coord> = (0..10)
            .map(|_| {
                let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
                Coord::new(&c)
            })
            .collect();
        let mut fused = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        mttkrp_row_sampled_residuals(&x, &k, mode, &samples, &mut fused, &mut scratch).unwrap();
        // Unfused reference: residuals via eval, then the entry-list MTTKRP.
        let entries: Vec<(Coord, f64)> =
            samples.iter().map(|c| (*c, x.get(c) - k.eval(c))).collect();
        let mut reference = vec![0.0; 4];
        mttkrp_row_from_entries(&entries, &k.factors, mode, &mut reference, &mut scratch).unwrap();
        for j in 0..4 {
            assert!(
                (fused[j] - reference[j]).abs() <= 1e-12 * (1.0 + reference[j].abs()),
                "{} vs {}",
                fused[j],
                reference[j]
            );
        }
    }

    #[test]
    fn empty_tensor_gives_zero_mttkrp() {
        let mut rng = StdRng::seed_from_u64(7);
        let dims = [3usize, 3, 3];
        let x = SparseTensor::new(Shape::new(&dims));
        let f = random_factors(&mut rng, &dims, 2);
        let u = mttkrp_full(&x, &f, 0);
        assert_eq!(u.frob_norm(), 0.0);
        // Empty fibers also zero the row kernel.
        let mut out = vec![9.0; 2];
        let mut scratch = vec![0.0; 2];
        mttkrp_row(&x, &f, 0, 1, &mut out, &mut scratch).unwrap();
        assert_eq!(out, vec![0.0; 2]);
    }
}
