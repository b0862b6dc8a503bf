//! Microbenchmarks of the hot kernels: the continuous window (Alg. 1),
//! sparse MTTKRP, Gram solves, fitness evaluation, and a full ALS sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sns_core::grams::{compute_grams, hadamard_except};
use sns_core::kruskal::KruskalTensor;
use sns_core::mttkrp::{mttkrp_full, mttkrp_row};
use sns_linalg::lstsq::solve_row_sym;
use sns_linalg::pinv::pinv_sym;
use sns_stream::{ContinuousWindow, StreamTuple};
use sns_tensor::{Coord, Shape, SparseTensor};

fn window_tensor(rng: &mut StdRng, dims: &[usize], nnz: usize) -> SparseTensor {
    let mut x = SparseTensor::new(Shape::new(dims));
    for _ in 0..nnz {
        let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
        x.add(&Coord::new(&c), rng.gen_range(1..4) as f64);
    }
    x
}

fn bench_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    group.sample_size(20);
    group.bench_function("alg1_ingest_throughput", |b| {
        b.iter_custom(|iters| {
            let mut w = ContinuousWindow::new(&[150, 150], 10, 3600);
            let mut rng = StdRng::seed_from_u64(7);
            let mut buf = Vec::new();
            let start = std::time::Instant::now();
            let mut t = 0u64;
            for _ in 0..iters {
                t += rng.gen_range(0..5);
                let tu =
                    StreamTuple::new([rng.gen_range(0..150u32), rng.gen_range(0..150u32)], 1.0, t);
                buf.clear();
                w.ingest(tu, &mut buf).unwrap();
            }
            start.elapsed()
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let dims = [150usize, 150, 10];
    let x = window_tensor(&mut rng, &dims, 10_000);
    let k = KruskalTensor::random(&mut rng, &dims, 20, 1.0);
    let grams = compute_grams(&k.factors);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.bench_function("mttkrp_full_10k_nnz_r20", |b| {
        b.iter(|| std::hint::black_box(mttkrp_full(&x, &k.factors, 0)))
    });
    group.bench_function("mttkrp_row_r20", |b| {
        let mut out = vec![0.0; 20];
        let mut scratch = vec![0.0; 20];
        b.iter(|| {
            mttkrp_row(&x, &k.factors, 0, 7, &mut out, &mut scratch).expect("rank-sized buffers");
            std::hint::black_box(out[0])
        })
    });
    let h = hadamard_except(&grams, 0, 20);
    group.bench_function("solve_row_sym_r20", |b| {
        let u: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut out = vec![0.0; 20];
        b.iter(|| {
            solve_row_sym(&h, &u, &mut out).expect("finite Gram system");
            std::hint::black_box(out[0])
        })
    });
    group
        .bench_function("pinv_sym_r20", |b| b.iter(|| std::hint::black_box(pinv_sym(&h).unwrap())));
    group.bench_function("fitness_10k_nnz_r20", |b| {
        b.iter(|| std::hint::black_box(sns_core::fitness::fitness_with_grams(&x, &k, &grams)))
    });
    group.bench_function("als_sweep_10k_nnz_r20", |b| {
        b.iter_batched(
            || (k.clone(), grams.clone()),
            |(mut kk, mut gg)| {
                sns_core::als::als_sweep(&x, &mut kk, &mut gg);
                std::hint::black_box(kk.lambda[0])
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_window, bench_kernels);
criterion_main!(benches);
