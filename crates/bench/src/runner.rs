//! Shared experiment runner implementing the paper's protocol
//! (Section VI-A): ALS initialization on the first full window, then
//! stream processing over `5·W·T` with per-update timing and periodic
//! relative-fitness checkpoints.
//!
//! There is exactly **one** drive loop, [`drive`], generic over
//! `Box<dyn StreamingCpd>`: the continuous SliceNStitch engines and the
//! once-per-period baselines run through identical code, differing only
//! in the engine [`Method::build`] hands back.

use crate::method::Method;
use sns_core::als::{als, AlsOptions};
use sns_data::spec::DatasetSpec;
use sns_runtime::StreamingCpd;
use sns_stream::{SnsError, StreamTuple};
use std::time::{Duration, Instant};

/// Tensor-window parameters for one experiment (a [`DatasetSpec`] with
/// possible overrides for the parameter-sweep figures).
#[derive(Debug, Clone)]
pub struct ExperimentParams {
    /// Categorical mode lengths.
    pub base_dims: Vec<usize>,
    /// Window length `W`.
    pub window: usize,
    /// Period `T`.
    pub period: u64,
    /// CP rank `R`.
    pub rank: usize,
    /// Sampling threshold `θ`.
    pub theta: usize,
    /// Clipping bound `η`.
    pub eta: f64,
}

impl ExperimentParams {
    /// Parameters straight from a dataset spec (Table III defaults).
    pub fn from_spec(spec: &DatasetSpec) -> Self {
        ExperimentParams {
            base_dims: spec.base_dims.to_vec(),
            window: spec.window,
            period: spec.period,
            rank: spec.rank,
            theta: spec.theta,
            eta: spec.eta,
        }
    }

    /// Prefill horizon: the first full window `W·T`.
    pub fn prefill_until(&self) -> u64 {
        self.window as u64 * self.period
    }
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// RNG seed for factor init / sampling.
    pub seed: u64,
    /// Number of fitness checkpoints over the measured stream.
    pub checkpoints: usize,
    /// ALS options for the warm start and the fitness reference.
    pub als: AlsOptions,
    /// Optional cap on measured tuples (for per-event methods that are
    /// too slow to run over the whole stream, e.g. SNS_MAT).
    pub max_measured_tuples: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0xbe7c,
            checkpoints: 10,
            als: AlsOptions { max_iters: 25, tol: 1e-4, ..Default::default() },
            max_measured_tuples: None,
        }
    }
}

/// One relative-fitness sample.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    /// Index into the measured tuple slice.
    pub tuple_idx: usize,
    /// Stream time at the checkpoint.
    pub time: u64,
    /// Method fitness at the checkpoint.
    pub fitness: f64,
    /// Reference (batch ALS) fitness at the checkpoint.
    pub reference: f64,
}

impl Checkpoint {
    /// Relative fitness (Section VI-A).
    pub fn relative(&self) -> f64 {
        self.fitness / self.reference
    }
}

/// Result of running one method over one stream.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method display name.
    pub method: String,
    /// Mean wall time per factor update, microseconds. For continuous
    /// methods an update is one event; for baselines, one period. The
    /// measured span is the whole drive loop (window maintenance
    /// included, checkpoint evaluation excluded).
    pub avg_update_us: f64,
    /// Number of factor updates performed.
    pub updates: u64,
    /// Number of measured tuples processed.
    pub tuples: usize,
    /// Relative fitness samples over the measured horizon.
    pub series: Vec<Checkpoint>,
    /// Mean relative fitness across checkpoints.
    pub avg_relative_fitness: f64,
    /// Fitness at the final checkpoint.
    pub final_fitness: f64,
    /// Whether an unclipped variant diverged.
    pub diverged: bool,
    /// Model parameter count.
    pub parameters: usize,
    /// Total measured wall time, seconds.
    pub total_seconds: f64,
}

/// Splits a stream at the prefill horizon.
pub fn split_prefill<'a>(
    params: &ExperimentParams,
    stream: &'a [StreamTuple],
) -> (&'a [StreamTuple], &'a [StreamTuple]) {
    let cut = stream.partition_point(|t| t.time <= params.prefill_until());
    stream.split_at(cut)
}

/// Evenly spaced checkpoint indices into a measured slice of length `n`.
pub fn checkpoint_indices(n: usize, k: usize) -> Vec<usize> {
    if n == 0 || k == 0 {
        return vec![];
    }
    let k = k.min(n);
    (1..=k).map(|j| (j * n) / k - 1).collect()
}

fn reference_fitness(window: &sns_tensor::SparseTensor, rank: usize, als_opts: &AlsOptions) -> f64 {
    als(window, rank, als_opts).fitness
}

/// Runs one method over one pre-generated stream: builds its engine via
/// [`Method::build`] and hands it to the generic [`drive`] loop.
pub fn run_method(
    params: &ExperimentParams,
    stream: &[StreamTuple],
    method: Method,
    cfg: &RunConfig,
) -> RunResult {
    drive(params, stream, method.build(params, cfg), cfg)
}

/// The single drive loop of the experiment protocol, shared by every
/// method: prefill the first window, ALS warm start, then ingest the
/// measured stream **in batches** ([`StreamingCpd::ingest_all`]) between
/// relative-fitness checkpoints — the same amortized path the pooled
/// runtime's workers use. The engine decides *when* factors update; the
/// loop neither knows nor cares.
///
/// An engine error (a tuple the window rejects, a baseline solve that
/// fails) stops the run: the result keeps the checkpoints taken so far
/// and reports `diverged`, as Figs. 1 and 9 do, so one failing method
/// never aborts the other experiments.
pub fn drive(
    params: &ExperimentParams,
    stream: &[StreamTuple],
    mut engine: Box<dyn StreamingCpd>,
    cfg: &RunConfig,
) -> RunResult {
    let (prefill, measured) = split_prefill(params, stream);
    let measured = match cfg.max_measured_tuples {
        Some(cap) => &measured[..measured.len().min(cap)],
        None => measured,
    };
    let mut series = Vec::with_capacity(cfg.checkpoints);
    let mut total = Duration::ZERO;
    let failed =
        feed(engine.as_mut(), params, prefill, measured, cfg, &mut series, &mut total).is_err();
    finish_result(
        engine.name(),
        total.as_secs_f64(),
        engine.updates_applied(),
        measured.len(),
        series,
        failed || engine.diverged(),
        engine.num_parameters(),
    )
}

/// [`drive`]'s protocol up to the first engine error: one batch per
/// inter-checkpoint span (plus a tail batch when the last mark is not
/// the final tuple); each batch's time is added to `total`, each mark
/// evaluated outside the timed span.
fn feed(
    engine: &mut dyn StreamingCpd,
    params: &ExperimentParams,
    prefill: &[StreamTuple],
    measured: &[StreamTuple],
    cfg: &RunConfig,
    series: &mut Vec<Checkpoint>,
    total: &mut Duration,
) -> Result<(), SnsError> {
    engine.prefill_all(prefill)?;
    engine.warm_start(&cfg.als);
    let mut done = 0usize;
    for mark in checkpoint_indices(measured.len(), cfg.checkpoints) {
        let chunk_start = Instant::now();
        let ingested = engine.ingest_all(&measured[done..=mark]);
        *total += chunk_start.elapsed();
        ingested?;
        done = mark + 1;
        let fitness = engine.fitness();
        let reference = reference_fitness(engine.window(), params.rank, &cfg.als);
        series.push(Checkpoint { tuple_idx: mark, time: measured[mark].time, fitness, reference });
    }
    if done < measured.len() {
        let chunk_start = Instant::now();
        let ingested = engine.ingest_all(&measured[done..]);
        *total += chunk_start.elapsed();
        ingested?;
    }
    Ok(())
}

fn finish_result(
    method: String,
    total_seconds: f64,
    updates: u64,
    tuples: usize,
    series: Vec<Checkpoint>,
    diverged: bool,
    parameters: usize,
) -> RunResult {
    let avg_update_us = if updates > 0 { total_seconds * 1e6 / updates as f64 } else { 0.0 };
    let rels: Vec<f64> = series.iter().map(|c| c.relative()).filter(|r| r.is_finite()).collect();
    let avg_relative_fitness =
        if rels.is_empty() { f64::NAN } else { rels.iter().sum::<f64>() / rels.len() as f64 };
    let final_fitness = series.last().map_or(f64::NAN, |c| c.fitness);
    RunResult {
        method,
        avg_update_us,
        updates,
        tuples,
        series,
        avg_relative_fitness,
        final_fitness,
        diverged,
        parameters,
        total_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::AlgorithmKind;
    use sns_data::generator::generate;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            base_dims: vec![8, 6],
            window: 4,
            period: 20,
            rank: 3,
            theta: 10,
            eta: 1000.0,
        }
    }

    fn tiny_stream(params: &ExperimentParams) -> Vec<StreamTuple> {
        generate(&sns_data::GeneratorConfig {
            base_dims: params.base_dims.clone(),
            n_components: 3,
            events: 1200,
            duration: 6 * params.window as u64 * params.period,
            day_ticks: 40,
            seed: 5,
            ..Default::default()
        })
    }

    #[test]
    fn checkpoint_indices_are_sane() {
        assert_eq!(checkpoint_indices(100, 4), vec![24, 49, 74, 99]);
        assert_eq!(checkpoint_indices(0, 4), Vec::<usize>::new());
        assert_eq!(checkpoint_indices(3, 10), vec![0, 1, 2]);
        assert_eq!(checkpoint_indices(10, 1), vec![9]);
    }

    #[test]
    fn split_prefill_respects_horizon() {
        let p = tiny_params();
        let s = tiny_stream(&p);
        let (pre, post) = split_prefill(&p, &s);
        assert!(pre.iter().all(|t| t.time <= p.prefill_until()));
        assert!(post.iter().all(|t| t.time > p.prefill_until()));
        assert_eq!(pre.len() + post.len(), s.len());
    }

    #[test]
    fn continuous_run_produces_sane_result() {
        let p = tiny_params();
        let s = tiny_stream(&p);
        let cfg = RunConfig { checkpoints: 4, ..Default::default() };
        let r = run_method(&p, &s, Method::Sns(AlgorithmKind::PlusRnd), &cfg);
        assert_eq!(r.method, "SNS+_RND");
        assert!(r.updates > r.tuples as u64, "boundary events must add updates");
        assert_eq!(r.series.len(), 4);
        assert!(r.avg_update_us > 0.0);
        assert!(!r.diverged);
        assert!(r.avg_relative_fitness.is_finite());
        assert_eq!(r.parameters, 3 * (8 + 6 + 4));
    }

    #[test]
    fn periodic_run_produces_sane_result() {
        let p = tiny_params();
        let s = tiny_stream(&p);
        let cfg = RunConfig { checkpoints: 4, ..Default::default() };
        let r = run_method(&p, &s, Method::OnlineScp, &cfg);
        assert_eq!(r.method, "OnlineSCP");
        // Periodic methods update once per period: far fewer updates than
        // tuples.
        assert!(r.updates < r.tuples as u64 / 2, "{} updates", r.updates);
        assert!(r.avg_update_us > 0.0);
        assert_eq!(r.series.len(), 4);
    }

    #[test]
    fn engine_error_reports_diverged_instead_of_panicking() {
        let p = tiny_params();
        let mut s = tiny_stream(&p);
        let cut = split_prefill(&p, &s).0.len();
        let measured = s.len() - cut;
        s[cut + measured / 2].value = f64::NAN;
        let cfg = RunConfig { checkpoints: 4, ..Default::default() };
        let r = run_method(&p, &s, Method::Sns(AlgorithmKind::PlusRnd), &cfg);
        assert!(r.diverged, "a rejected tuple must end the run as diverged");
        assert!(r.series.len() < 4, "no checkpoint past the rejected tuple");
        assert_eq!(r.tuples, measured);
    }

    #[test]
    fn measured_cap_limits_tuples() {
        let p = tiny_params();
        let s = tiny_stream(&p);
        let cfg = RunConfig { checkpoints: 2, max_measured_tuples: Some(50), ..Default::default() };
        let r = run_method(&p, &s, Method::Sns(AlgorithmKind::Mat), &cfg);
        assert_eq!(r.tuples, 50);
    }
}
