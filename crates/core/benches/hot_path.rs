//! Criterion suite for the per-event hot path, at the Table-III default
//! scale (`R = 20`, three modes, `W = 10`).
//!
//! Groups:
//! - `per_event`: one full factor update per window event, per updater —
//!   the number the paper's microsecond claim lives or dies on;
//! - `ingest_batch`: the engine's `ingest_all` batch path (window +
//!   updater + bookkeeping), tuples/second shape;
//! - `mttkrp`: full (one mode) and per-row kernels;
//! - `gram_solve`: the `x = u·H†` row solve — fresh factorization per
//!   solve versus the version-keyed cached factorization;
//! - `pool_round_trip`: the same batch ingest behind a one-shard
//!   `EnginePool` session (submit → worker ingest → ack), so the
//!   command pipeline's overhead over the bare `ingest_all` loop is a
//!   number, not a claim.
//!
//! Run with `cargo bench -p sns-core --bench hot_path`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_core::engine::SnsEngine;
use sns_core::grams::compute_grams;
use sns_core::kruskal::KruskalTensor;
use sns_core::mttkrp::{mttkrp_full, mttkrp_row};
use sns_core::update::{ContinuousUpdater, Updater};
use sns_core::workspace::GramSolves;
use sns_linalg::lstsq::solve_row_sym;
use sns_runtime::{EnginePool, EngineSpec, PoolConfig, QuarantinePolicy};
use sns_stream::{ContinuousWindow, StreamTuple};
use sns_tensor::{Coord, Shape, SparseTensor};

const RANK: usize = 20;
const DIMS: [usize; 2] = [150, 150];
const WINDOW: usize = 10;
const PERIOD: u64 = 40;

/// A synthetic chronological stream over `DIMS` with mild hot spots.
fn stream(n: usize, seed: u64) -> Vec<StreamTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.gen_range(0..3);
            // Square the draw to skew mass toward low indices (hot rows).
            let skew = |rng: &mut StdRng, d: usize| {
                let x: f64 = rng.gen::<f64>();
                ((x * x) * d as f64) as u32
            };
            StreamTuple::new([skew(&mut rng, DIMS[0]), skew(&mut rng, DIMS[1])], 1.0, t)
        })
        .collect()
}

fn window_tensor(rng: &mut StdRng, dims: &[usize], nnz: usize) -> SparseTensor {
    let mut x = SparseTensor::new(Shape::new(dims));
    for _ in 0..nnz {
        let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
        x.add(&Coord::new(&c), rng.gen_range(1..4) as f64);
    }
    x
}

fn bench_per_event(c: &mut Criterion) {
    let tuples = stream(30_000, 7);
    let mut group = c.benchmark_group("per_event");
    group.sample_size(10);
    for kind in
        [AlgorithmKind::Vec, AlgorithmKind::Rnd, AlgorithmKind::PlusVec, AlgorithmKind::PlusRnd]
    {
        group.bench_function(BenchmarkId::new("update", kind.name()), |b| {
            b.iter_custom(|iters| {
                let config = SnsConfig { rank: RANK, theta: 20, eta: 1000.0, ..Default::default() };
                let mut dims = DIMS.to_vec();
                dims.push(WINDOW);
                let mut window = ContinuousWindow::new(&DIMS, WINDOW, PERIOD);
                let mut updater = Updater::new(kind, &dims, &config);
                let mut buf = Vec::new();
                // Pre-fill so the measured events see a realistic window.
                let (head, tail) = tuples.split_at(tuples.len() / 2);
                for tu in head {
                    buf.clear();
                    window.ingest(*tu, &mut buf).unwrap();
                }
                let mut applied = 0u64;
                let start = std::time::Instant::now();
                'outer: for tu in tail {
                    buf.clear();
                    window.ingest(*tu, &mut buf).unwrap();
                    for d in &buf {
                        updater.apply(window.tensor(), d);
                        applied += 1;
                        if applied >= iters {
                            break 'outer;
                        }
                    }
                }
                let elapsed = start.elapsed();
                // The stream is finite; if the harness asked for more
                // events than it holds, scale the measurement to the
                // requested count so elapsed/iters stays an honest
                // per-event time.
                if applied < iters {
                    elapsed.mul_f64(iters as f64 / applied.max(1) as f64)
                } else {
                    elapsed
                }
            })
        });
    }
    group.finish();
}

fn bench_ingest_batch(c: &mut Criterion) {
    let tuples = stream(30_000, 11);
    let mut group = c.benchmark_group("ingest_batch");
    group.sample_size(10);
    group.bench_function("ingest_all_plus_rnd", |b| {
        b.iter_custom(|iters| {
            let config = SnsConfig { rank: RANK, theta: 20, eta: 1000.0, ..Default::default() };
            let mut engine = SnsEngine::new(&DIMS, WINDOW, PERIOD, AlgorithmKind::PlusRnd, &config);
            let (head, tail) = tuples.split_at(tuples.len() / 2);
            for tu in head {
                engine.prefill(*tu).unwrap();
            }
            let n = (iters as usize).min(tail.len());
            let start = std::time::Instant::now();
            engine.ingest_all(&tail[..n]).unwrap();
            let elapsed = start.elapsed();
            // Scale to the requested iteration count when the finite
            // stream is shorter (see bench_per_event).
            if n < iters as usize {
                elapsed.mul_f64(iters as f64 / n.max(1) as f64)
            } else {
                elapsed
            }
        })
    });
    group.finish();
}

fn bench_mttkrp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let dims = [DIMS[0], DIMS[1], WINDOW];
    let x = window_tensor(&mut rng, &dims, 10_000);
    let k = KruskalTensor::random(&mut rng, &dims, RANK, 1.0);

    let mut group = c.benchmark_group("mttkrp");
    group.sample_size(10);
    group.bench_function("full_mode0_10k_nnz", |b| {
        b.iter(|| std::hint::black_box(mttkrp_full(&x, &k.factors, 0)))
    });
    group.bench_function("row_fiber", |b| {
        let mut out = vec![0.0; RANK];
        let mut scratch = vec![0.0; RANK];
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % DIMS[0] as u32;
            mttkrp_row(&x, &k.factors, 0, i, &mut out, &mut scratch).expect("rank-sized buffers");
            std::hint::black_box(out[0])
        })
    });
    group.finish();
}

fn bench_gram_solve(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let dims = [DIMS[0], DIMS[1], WINDOW];
    let k = KruskalTensor::random(&mut rng, &dims, RANK, 1.0);
    let grams = compute_grams(&k.factors);
    let versions = vec![1u64; 3];
    let u: Vec<f64> = (0..RANK).map(|i| i as f64 * 0.25 - 2.0).collect();

    let mut group = c.benchmark_group("gram_solve");
    group.sample_size(10);
    group.bench_function("fresh_solve_row_sym", |b| {
        // Pre-PR shape: Hadamard + Cholesky from scratch per solve.
        let h = sns_core::grams::hadamard_except(&grams, 0, RANK);
        let mut out = vec![0.0; RANK];
        b.iter(|| {
            solve_row_sym(&h, &u, &mut out).expect("finite Gram system");
            std::hint::black_box(out[0])
        })
    });
    group.bench_function("cached_cold", |b| {
        // Rebuild + refactorize every solve (version always stale).
        let mut ws = GramSolves::new(3, RANK);
        let mut out = vec![0.0; RANK];
        b.iter(|| {
            ws.invalidate();
            ws.solve(&grams, &versions, 0, &u, &mut out);
            std::hint::black_box(out[0])
        })
    });
    group.bench_function("cached_warm", |b| {
        // Steady state: versions unchanged, factorization reused.
        let mut ws = GramSolves::new(3, RANK);
        let mut out = vec![0.0; RANK];
        ws.solve(&grams, &versions, 0, &u, &mut out);
        b.iter(|| {
            ws.solve(&grams, &versions, 0, &u, &mut out);
            std::hint::black_box(out[0])
        })
    });
    group.finish();
}

fn bench_pool_round_trip(c: &mut Criterion) {
    let tuples = stream(30_000, 19);
    let mut group = c.benchmark_group("pool_round_trip");
    group.sample_size(10);
    group.bench_function("open_ingest_ack_plus_rnd", |b| {
        b.iter_custom(|iters| {
            let config = SnsConfig { rank: RANK, theta: 20, eta: 1000.0, ..Default::default() };
            let pool = EnginePool::new(PoolConfig {
                shards: 1,
                base_seed: 42,
                queue_depth: 64,
                bus_capacity: 1 << 10,
                quarantine: QuarantinePolicy::Disabled,
                ..Default::default()
            });
            let spec = EngineSpec::sns(&DIMS, WINDOW, PERIOD, AlgorithmKind::PlusRnd, &config);
            let mut session = pool.open(0, spec).unwrap();
            let (head, tail) = tuples.split_at(tuples.len() / 2);
            for chunk in head.chunks(4096) {
                let _ = session.prefill_batch(chunk).unwrap();
            }
            let n = (iters as usize).min(tail.len());
            // The blocking round-trip: each batch is submit → worker
            // ingest → ack before the next, so the measurement includes
            // the full command-pipeline cost (batch buffer copy, channel
            // hops, receipt stamping) on top of the engine work.
            let start = std::time::Instant::now();
            for chunk in tail[..n].chunks(256) {
                let _ = session.ingest_batch(chunk).unwrap();
            }
            let elapsed = start.elapsed();
            drop(session);
            pool.join();
            // Scale to the requested iteration count when the finite
            // stream is shorter (see bench_per_event).
            if n < iters as usize {
                elapsed.mul_f64(iters as f64 / n.max(1) as f64)
            } else {
                elapsed
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_per_event,
    bench_ingest_batch,
    bench_mttkrp,
    bench_gram_solve,
    bench_pool_round_trip
);
criterion_main!(benches);
