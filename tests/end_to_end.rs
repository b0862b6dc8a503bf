//! Cross-crate integration tests: the full pipeline from raw stream
//! tuples to continuously maintained CP factors, against every algorithm
//! and both window models — plus the engine-parity suite pinning the
//! unified `StreamingCpd` runner to the historical split drive loops.

use slicenstitch::baselines::{AlsPeriodic, BaselineEngine, CpStream, NeCpd, OnlineScp};
use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig, SnsEngine};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::stream::StreamTuple;

fn structured_stream(events: usize, seed: u64) -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: vec![25, 20],
        n_components: 4,
        events,
        duration: 18_000,
        zipf_exponent: 1.6,
        noise_fraction: 0.1,
        day_ticks: 3_000,
        seed,
        ..Default::default()
    })
}

const W: usize = 6;
const T: u64 = 500;

fn warmed_engine(kind: AlgorithmKind, stream: &[StreamTuple]) -> (SnsEngine, usize) {
    let sns = SnsConfig { rank: 8, theta: 15, eta: 1000.0, ..Default::default() };
    let mut engine = SnsEngine::new(&[25, 20], W, T, kind, &sns);
    let cut = stream.partition_point(|t| t.time <= W as u64 * T);
    for tu in &stream[..cut] {
        engine.prefill(*tu).unwrap();
    }
    engine.warm_start(&AlsOptions { max_iters: 25, ..Default::default() });
    (engine, cut)
}

#[test]
fn every_sns_variant_tracks_a_structured_stream() {
    let stream = structured_stream(6_000, 1);
    for kind in AlgorithmKind::ALL {
        let (mut engine, cut) = warmed_engine(kind, &stream);
        let warm_fit = engine.fitness();
        // SNS_MAT is too slow for the whole stream; a shorter run suffices.
        let n = if kind == AlgorithmKind::Mat { 200 } else { stream.len() - cut };
        for tu in stream[cut..].iter().take(n) {
            engine.ingest(*tu).unwrap();
        }
        let fit = engine.fitness();
        if kind.is_stable() {
            assert!(!engine.diverged(), "{kind} diverged");
            assert!(fit > 0.4 * warm_fit, "{kind}: fitness {fit} collapsed from warm {warm_fit}");
        }
        // Every variant keeps the parameter count constant.
        assert_eq!(engine.num_parameters(), 8 * (25 + 20 + W));
    }
}

#[test]
fn continuous_beats_periodic_update_latency() {
    // The core claim: per-event updates are far cheaper than per-period
    // ones (the baselines re-sweep slices/windows once per period).
    let stream = structured_stream(6_000, 2);
    let (mut engine, cut) = warmed_engine(AlgorithmKind::PlusRnd, &stream);
    let start = std::time::Instant::now();
    for tu in &stream[cut..] {
        engine.ingest(*tu).unwrap();
    }
    let sns_us = start.elapsed().as_secs_f64() * 1e6 / engine.updates_applied() as f64;

    let mut baseline = BaselineEngine::new(&[25, 20], W, T, OnlineScp::new(&[25, 20, W], 8, 3));
    for tu in &stream[..cut] {
        baseline.prefill(*tu).unwrap();
    }
    baseline.warm_start(&AlsOptions { max_iters: 25, ..Default::default() });
    let start = std::time::Instant::now();
    for tu in &stream[cut..] {
        baseline.ingest(*tu).unwrap();
    }
    let periods = baseline.periods().max(1);
    let base_us = start.elapsed().as_secs_f64() * 1e6 / periods as f64;
    assert!(
        sns_us < base_us,
        "per-event update ({sns_us:.1} us) should beat per-period update ({base_us:.1} us)"
    );
}

#[test]
fn all_baselines_run_and_stay_finite() {
    let stream = structured_stream(5_000, 3);
    let dims = [25usize, 20, W];
    let cut = stream.partition_point(|t| t.time <= W as u64 * T);
    macro_rules! drive {
        ($algo:expr, $name:expr) => {{
            let mut e = BaselineEngine::new(&[25, 20], W, T, $algo);
            for tu in &stream[..cut] {
                e.prefill(*tu).unwrap();
            }
            e.warm_start(&AlsOptions { max_iters: 20, ..Default::default() });
            for tu in &stream[cut..] {
                e.ingest(*tu).unwrap();
            }
            let fit = e.fitness();
            assert!(fit.is_finite(), "{} produced non-finite fitness", $name);
            assert!(fit > -1.0, "{} fitness {} unreasonable", $name, fit);
            fit
        }};
    }
    let f1 = drive!(AlsPeriodic::new(&dims, 8, 3, 4), "ALS(3)");
    let f2 = drive!(OnlineScp::new(&dims, 8, 4), "OnlineSCP");
    let f3 = drive!(CpStream::new(&dims, 8, 0.99, 3, 4), "CP-stream");
    let f4 = drive!(NeCpd::new(&dims, 8, 2, 4), "NeCPD(2)");
    // Periodic ALS with several sweeps should be the best of the four.
    assert!(f1 >= f2.min(f3).min(f4) - 0.05, "ALS(3)={f1} vs {f2}/{f3}/{f4}");
}

#[test]
fn engine_survives_bursts_gaps_and_duplicates() {
    // Stress the event machinery: bursts at one timestamp, long silences,
    // duplicate coordinates, and values that cancel in and out.
    let sns = SnsConfig { rank: 4, theta: 8, ..Default::default() };
    let mut engine = SnsEngine::new(&[10, 10], 4, 100, AlgorithmKind::PlusVec, &sns);
    let mut t = 0u64;
    for burst in 0..50 {
        // Burst of identical-timestamp events.
        for i in 0..20u32 {
            engine.ingest(StreamTuple::new([i % 10, (i / 2) % 10], 1.0, t)).unwrap();
        }
        // Long gap that expires everything every few bursts.
        t += if burst % 5 == 4 { 1_000 } else { 37 };
    }
    engine.advance_to(t + 10_000);
    assert_eq!(engine.window().nnz(), 0, "all mass must expire after a long gap");
    assert!(engine.kruskal().is_finite());
    engine.window().check_invariants().unwrap();
}

#[test]
fn four_mode_streams_work_end_to_end() {
    // Ride-Austin-shaped: src × dst × color × time.
    let stream: Vec<StreamTuple> = generate(&GeneratorConfig {
        base_dims: vec![12, 12, 4],
        n_components: 3,
        events: 4_000,
        duration: 12_000,
        zipf_exponent: 1.5,
        noise_fraction: 0.1,
        day_ticks: 2_000,
        seed: 5,
        ..Default::default()
    });
    let sns = SnsConfig { rank: 5, theta: 10, ..Default::default() };
    let mut engine = SnsEngine::new(&[12, 12, 4], 5, 400, AlgorithmKind::PlusRnd, &sns);
    let cut = stream.partition_point(|t| t.time <= 2_000);
    for tu in &stream[..cut] {
        engine.prefill(*tu).unwrap();
    }
    engine.warm_start(&AlsOptions { max_iters: 20, ..Default::default() });
    for tu in &stream[cut..] {
        engine.ingest(*tu).unwrap();
    }
    assert!(engine.fitness() > 0.0, "4-mode fitness {}", engine.fitness());
    assert_eq!(engine.kruskal().order(), 4);
}

/// Engine parity: the unified trait-based runner (`Method::build` +
/// `runner::drive`) must reproduce the historical split
/// `run_continuous`/`run_periodic` loops **bitwise**. The reference
/// implementations below are faithful copies of those seed loops (minus
/// wall-clock bookkeeping, which checkpoints never depended on).
mod engine_parity {
    use super::*;
    use slicenstitch::baselines::PeriodicCpd;
    use slicenstitch::core::als::als;
    use slicenstitch::stream::DiscreteWindow;
    use sns_bench::runner::{
        checkpoint_indices, run_method, split_prefill, ExperimentParams, RunConfig, RunResult,
    };
    use sns_bench::Method;

    /// One reference checkpoint: `(tuple_idx, time, fitness, reference)`.
    type RefPoint = (usize, u64, f64, f64);

    struct Reference {
        series: Vec<RefPoint>,
        updates: u64,
        tuples: usize,
        diverged: bool,
        parameters: usize,
    }

    fn params() -> ExperimentParams {
        ExperimentParams {
            base_dims: vec![9, 7],
            window: 4,
            period: 25,
            rank: 3,
            theta: 10,
            eta: 1000.0,
        }
    }

    fn stream(p: &ExperimentParams) -> Vec<StreamTuple> {
        generate(&GeneratorConfig {
            base_dims: p.base_dims.clone(),
            n_components: 3,
            events: 2_000,
            duration: 6 * p.window as u64 * p.period,
            day_ticks: 50,
            seed: 0x7a17,
            ..Default::default()
        })
    }

    /// Faithful copy of the seed runner's continuous loop.
    fn reference_continuous(
        p: &ExperimentParams,
        stream: &[StreamTuple],
        kind: AlgorithmKind,
        cfg: &RunConfig,
    ) -> Reference {
        let sns_config = SnsConfig {
            rank: p.rank,
            theta: p.theta,
            eta: p.eta,
            init_scale: 1.0,
            seed: cfg.seed,
            ..Default::default()
        };
        let mut engine = SnsEngine::new(&p.base_dims, p.window, p.period, kind, &sns_config);
        let (prefill, measured) = split_prefill(p, stream);
        for tu in prefill {
            engine.prefill(*tu).unwrap();
        }
        engine.warm_start(&cfg.als);
        let measured = match cfg.max_measured_tuples {
            Some(cap) => &measured[..measured.len().min(cap)],
            None => measured,
        };
        let marks = checkpoint_indices(measured.len(), cfg.checkpoints);
        let mut series = Vec::new();
        let mut next_mark = 0usize;
        for (i, tu) in measured.iter().enumerate() {
            engine.ingest(*tu).unwrap();
            if next_mark < marks.len() && i == marks[next_mark] {
                let fitness = engine.fitness();
                let reference = als(engine.window(), p.rank, &cfg.als).fitness;
                series.push((i, tu.time, fitness, reference));
                next_mark += 1;
            }
        }
        Reference {
            series,
            updates: engine.updates_applied(),
            tuples: measured.len(),
            diverged: engine.diverged(),
            parameters: engine.num_parameters(),
        }
    }

    /// Faithful copy of the seed runner's periodic loop, including its
    /// fresh-`als()` warm start and its `cfg.seed`-seeded constructors
    /// (whose initial factors the warm start overwrote).
    fn reference_periodic(
        p: &ExperimentParams,
        stream: &[StreamTuple],
        method: Method,
        cfg: &RunConfig,
    ) -> Reference {
        let mut dims = p.base_dims.clone();
        dims.push(p.window);
        let mut algo: Box<dyn PeriodicCpd> = match method {
            Method::AlsPeriodic(sweeps) => {
                Box::new(AlsPeriodic::new(&dims, p.rank, sweeps, cfg.seed))
            }
            Method::OnlineScp => Box::new(OnlineScp::new(&dims, p.rank, cfg.seed)),
            Method::CpStream => Box::new(CpStream::new(&dims, p.rank, 0.99, 3, cfg.seed)),
            Method::NeCpd(epochs) => Box::new(NeCpd::new(&dims, p.rank, epochs, cfg.seed)),
            Method::Sns(_) => unreachable!("continuous methods use reference_continuous"),
        };
        let mut window = DiscreteWindow::new(&p.base_dims, p.window, p.period);
        let (prefill, measured) = split_prefill(p, stream);
        let mut updates_buf = Vec::new();
        for tu in prefill {
            updates_buf.clear();
            window.ingest(*tu, &mut updates_buf).unwrap();
        }
        {
            let warm = als(window.tensor(), p.rank, &cfg.als);
            algo.install(warm.kruskal, warm.grams);
        }
        let measured = match cfg.max_measured_tuples {
            Some(cap) => &measured[..measured.len().min(cap)],
            None => measured,
        };
        let marks = checkpoint_indices(measured.len(), cfg.checkpoints);
        let mut series = Vec::new();
        let mut next_mark = 0usize;
        let mut updates = 0u64;
        for (i, tu) in measured.iter().enumerate() {
            updates_buf.clear();
            window.ingest(*tu, &mut updates_buf).unwrap();
            for u in &updates_buf {
                algo.on_period(window.tensor(), u).expect("finite Gram systems");
            }
            updates += updates_buf.len() as u64;
            if next_mark < marks.len() && i == marks[next_mark] {
                let fitness = algo.fitness(window.tensor());
                let reference = als(window.tensor(), p.rank, &cfg.als).fitness;
                series.push((i, tu.time, fitness, reference));
                next_mark += 1;
            }
        }
        Reference {
            series,
            updates,
            tuples: measured.len(),
            diverged: !algo.kruskal().is_finite(),
            parameters: p.rank * (p.base_dims.iter().sum::<usize>() + p.window),
        }
    }

    fn assert_bitwise_parity(run: &RunResult, reference: &Reference, label: &str) {
        assert_eq!(run.updates, reference.updates, "{label}: update count");
        assert_eq!(run.tuples, reference.tuples, "{label}: tuple count");
        assert_eq!(run.diverged, reference.diverged, "{label}: divergence flag");
        assert_eq!(run.parameters, reference.parameters, "{label}: parameter count");
        assert_eq!(run.series.len(), reference.series.len(), "{label}: series length");
        for (c, &(idx, time, fitness, reffit)) in run.series.iter().zip(&reference.series) {
            assert_eq!(c.tuple_idx, idx, "{label}: checkpoint index");
            assert_eq!(c.time, time, "{label}: checkpoint time");
            assert_eq!(
                c.fitness.to_bits(),
                fitness.to_bits(),
                "{label}: fitness differs at tuple {idx} ({} vs {fitness})",
                c.fitness
            );
            assert_eq!(
                c.reference.to_bits(),
                reffit.to_bits(),
                "{label}: reference fitness differs at tuple {idx}"
            );
        }
    }

    #[test]
    fn continuous_runner_matches_seed_loop_bitwise() {
        let p = params();
        let s = stream(&p);
        let cfg = RunConfig { checkpoints: 5, ..Default::default() };
        for kind in [AlgorithmKind::PlusRnd, AlgorithmKind::Vec] {
            let run = run_method(&p, &s, Method::Sns(kind), &cfg);
            let reference = reference_continuous(&p, &s, kind, &cfg);
            assert_eq!(run.method, kind.name());
            assert_bitwise_parity(&run, &reference, kind.name());
        }
    }

    #[test]
    fn periodic_runner_matches_seed_loop_bitwise() {
        let p = params();
        let s = stream(&p);
        let cfg = RunConfig { checkpoints: 5, ..Default::default() };
        // OnlineSCP and periodic ALS are RNG-free after their warm start,
        // so the unified runner must reproduce the seed loop bitwise.
        // (NeCPD keeps a live SGD sampler whose seed moved from
        // `cfg.seed` to `cfg.als.seed` in the unified factory, so it is
        // statistically — not bitwise — equivalent.)
        for method in [Method::OnlineScp, Method::AlsPeriodic(2)] {
            let run = run_method(&p, &s, method, &cfg);
            let reference = reference_periodic(&p, &s, method, &cfg);
            assert_eq!(run.method, method.name());
            assert_bitwise_parity(&run, &reference, &method.name());
        }
    }
}

#[test]
fn relative_fitness_of_stable_variants_in_paper_band() {
    // Observation 4 in miniature: stable variants within 72–100%+ of the
    // ALS reference (the generous lower end accounts for the small scale).
    let stream = structured_stream(8_000, 6);
    for kind in [AlgorithmKind::PlusVec, AlgorithmKind::PlusRnd] {
        let (mut engine, cut) = warmed_engine(kind, &stream);
        for tu in &stream[cut..] {
            engine.ingest(*tu).unwrap();
        }
        let reference = slicenstitch::core::als::als(
            engine.window(),
            8,
            &AlsOptions { max_iters: 30, ..Default::default() },
        );
        let rel = engine.fitness() / reference.fitness;
        assert!(
            rel > 0.55 && rel < 1.2,
            "{kind}: relative fitness {rel} outside the plausible band"
        );
    }
}
