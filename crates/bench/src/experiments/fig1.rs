//! Figure 1 — advantages of continuous CPD over conventional CPD.
//!
//! Protocol (Section VI-B): on the New York Taxi stream, run SNS_RND with
//! `T = 1 hour` (continuous), and the conventional methods (periodic ALS,
//! OnlineSCP, CP-stream) with the time-mode granularity `T'` swept from
//! fine to 1 hour. Before measuring conventional fitness, fine-grained
//! time-factor rows are merged (summed) so that one row corresponds to an
//! hour — exactly the paper's post-processing (footnote 7).
//!
//! Reported per configuration: average (hourly) fitness — Fig. 1c,
//! parameter count — Fig. 1d, runtime per update — Fig. 1e.

use crate::method::Method;
use crate::report::{banner, f, observation, Table};
use crate::runner::{checkpoint_indices, ExperimentParams, RunConfig};
use sns_baselines::{AlsPeriodic, CpStream, OnlineScp, PeriodicCpd};
use sns_core::als::als;
use sns_core::fitness::fitness_with_grams;
use sns_core::grams::compute_grams;
use sns_core::kruskal::KruskalTensor;
use sns_data::{generate, nytaxi_like};
use sns_linalg::Mat;
use sns_stream::{DiscreteWindow, StreamTuple};
use sns_tensor::{Shape, SparseTensor};
use std::time::Instant;

/// Sums groups of `group` adjacent time indices of `x` into one, giving a
/// tensor with `merged_len` time indices (the paper's hourly view).
fn merge_window(x: &SparseTensor, group: usize, merged_len: usize) -> SparseTensor {
    let tm = x.order() - 1;
    let mut dims = x.shape().dims().to_vec();
    dims[tm] = merged_len;
    let mut out = SparseTensor::new(Shape::new(&dims));
    for (c, v) in x.iter() {
        let merged_t = (c.get(tm) as usize / group).min(merged_len - 1) as u32;
        out.add(&c.with(tm, merged_t), v);
    }
    out
}

/// Sums groups of `group` adjacent time-factor rows (footnote 7).
fn merge_time_factor(m: &Mat, group: usize, merged_len: usize) -> Mat {
    let mut out = Mat::zeros(merged_len, m.cols());
    for r in 0..m.rows() {
        let target = (r / group).min(merged_len - 1);
        for k in 0..m.cols() {
            out[(target, k)] += m[(r, k)];
        }
    }
    out
}

/// Fitness of a fine-grained model measured on the hourly view.
fn merged_fitness(x: &SparseTensor, k: &KruskalTensor, group: usize, merged_len: usize) -> f64 {
    if group == 1 {
        return fitness_with_grams(x, k, &compute_grams(&k.factors));
    }
    let tm = k.order() - 1;
    let merged_x = merge_window(x, group, merged_len);
    let mut merged_k = k.clone();
    merged_k.factors[tm] = merge_time_factor(&k.factors[tm], group, merged_len);
    let grams = compute_grams(&merged_k.factors);
    fitness_with_grams(&merged_x, &merged_k, &grams)
}

struct ConvResult {
    fitness: f64,
    params: usize,
    update_us: f64,
}

/// Runs one conventional method at granularity `t_int` over the stream,
/// measuring hourly-merged fitness and per-period update time.
fn run_conventional(
    spec: &sns_data::DatasetSpec,
    stream: &[StreamTuple],
    method: Method,
    t_int: u64,
    measured_span: u64,
    seed: u64,
) -> ConvResult {
    let span = spec.window as u64 * spec.period; // 10 hours of wall time
    let fine_w = (span / t_int) as usize;
    let group = (spec.period / t_int) as usize;
    let mut dims = spec.base_dims.to_vec();
    dims.push(fine_w);
    let mut algo: Box<dyn PeriodicCpd> = match method {
        Method::AlsPeriodic(sweeps) => Box::new(AlsPeriodic::new(&dims, spec.rank, sweeps, seed)),
        Method::OnlineScp => Box::new(OnlineScp::new(&dims, spec.rank, seed)),
        Method::CpStream => Box::new(CpStream::new(&dims, spec.rank, 0.99, 3, seed)),
        _ => unreachable!("fig1 conventional methods"),
    };
    let mut window = DiscreteWindow::new(spec.base_dims, fine_w, t_int);
    let mut buf = Vec::new();

    // Prefill one full window, warm start.
    let cut = stream.partition_point(|t| t.time <= span);
    for tu in &stream[..cut] {
        buf.clear();
        window.ingest(*tu, &mut buf).expect("chronological");
    }
    {
        let warm = als(
            window.tensor(),
            spec.rank,
            &sns_core::als::AlsOptions { max_iters: 10, tol: 1e-3, ..Default::default() },
        );
        algo.install(warm.kruskal, warm.grams);
    }

    // Measure over a capped span.
    let end = span + measured_span;
    let measured: Vec<&StreamTuple> = stream[cut..].iter().take_while(|t| t.time <= end).collect();
    let marks = checkpoint_indices(measured.len(), 3);
    let mut next_mark = 0;
    let mut total = std::time::Duration::ZERO;
    let mut updates = 0u64;
    let mut fits = Vec::new();
    'stream: for (i, tu) in measured.iter().enumerate() {
        buf.clear();
        window.ingest(**tu, &mut buf).expect("chronological");
        if !buf.is_empty() {
            let start = Instant::now();
            for u in &buf {
                if algo.on_period(window.tensor(), u).is_err() {
                    // A failed solve means the model diverged: report it
                    // as NaN fitness and stop driving it.
                    fits = vec![f64::NAN];
                    break 'stream;
                }
            }
            total += start.elapsed();
            updates += buf.len() as u64;
        }
        if next_mark < marks.len() && i == marks[next_mark] {
            fits.push(merged_fitness(window.tensor(), algo.kruskal(), group, spec.window));
            next_mark += 1;
        }
    }
    let fitness =
        if fits.is_empty() { f64::NAN } else { fits.iter().sum::<f64>() / fits.len() as f64 };
    let params = spec.rank * (spec.base_dims.iter().sum::<usize>() + fine_w);
    let update_us = if updates > 0 { total.as_secs_f64() * 1e6 / updates as f64 } else { 0.0 };
    ConvResult { fitness, params, update_us }
}

/// Renders Figure 1 (c, d, e).
pub fn run(scale: f64) -> String {
    let spec = nytaxi_like();
    let events = ((spec.default_events as f64 * scale * 0.6) as usize).max(2_000);
    let stream = generate(&spec.generator(events, 0xf161));
    let mut out = banner("Fig 1 — continuous CPD vs conventional CPD (New York Taxi-like)");
    out.push_str(&format!(
        "events = {events}, span = W*T = {} s\n\n",
        spec.window as u64 * spec.period
    ));

    // Continuous CPD: SNS_RND at T = 1 hour.
    let params = ExperimentParams::from_spec(&spec);
    let cfg = RunConfig { checkpoints: 3, ..Default::default() };
    let cont = crate::runner::run_method(
        &params,
        &stream,
        Method::Sns(sns_core::config::AlgorithmKind::Rnd),
        &cfg,
    );
    let cont_fit: f64 = {
        let v: Vec<f64> = cont.series.iter().map(|c| c.fitness).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };

    // Conventional CPD at granularities T' (paper: 1 s … 1 h; we sweep a
    // 100× range so the full run fits the session budget — the trend
    // direction is what Fig. 1 establishes).
    let intervals = [36u64, 180, 900, 3600];
    let measured_span = (1.5 * spec.window as f64 * spec.period as f64) as u64;
    let methods = [Method::AlsPeriodic(1), Method::OnlineScp, Method::CpStream];

    let mut t = Table::new(&[
        "Method",
        "Update interval (s)",
        "Avg fitness (hourly)",
        "#Params",
        "us/update",
    ]);
    t.row(vec![
        "SNS_RND (continuous)".to_string(),
        "per event".to_string(),
        f(cont_fit),
        cont.parameters.to_string(),
        f(cont.avg_update_us),
    ]);
    let mut fine_fits = Vec::new();
    let mut fine_params = 0usize;
    for method in methods {
        for &t_int in &intervals {
            let r = run_conventional(&spec, &stream, method, t_int, measured_span, 0xf162);
            if t_int == intervals[0] {
                fine_fits.push(r.fitness);
                fine_params = r.params;
            }
            t.row(vec![
                method.name(),
                t_int.to_string(),
                f(r.fitness),
                r.params.to_string(),
                f(r.update_us),
            ]);
        }
    }
    out.push_str(&t.render());

    // Observation 1 verdicts.
    let best_fine = fine_fits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    out.push('\n');
    out.push_str(&observation(
        "1a",
        "continuous CPD achieves near-instant updates (per event, not per period)",
        true,
    ));
    out.push('\n');
    out.push_str(&observation(
        "1b",
        &format!(
            "at matched update latency, continuous fitness ({}) exceeds fine-grained conventional ({})",
            f(cont_fit),
            f(best_fine)
        ),
        cont_fit > best_fine,
    ));
    out.push('\n');
    out.push_str(&observation(
        "1c",
        &format!(
            "continuous model needs {}x fewer parameters than the finest conventional model",
            f(fine_params as f64 / cont.parameters as f64)
        ),
        fine_params > cont.parameters,
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_tensor::Coord;

    #[test]
    fn merge_window_sums_groups() {
        let mut x = SparseTensor::new(Shape::new(&[2, 6]));
        x.add(&Coord::new(&[0, 0]), 1.0);
        x.add(&Coord::new(&[0, 1]), 2.0);
        x.add(&Coord::new(&[0, 5]), 4.0);
        let merged = merge_window(&x, 3, 2);
        assert_eq!(merged.shape().dims(), &[2, 2]);
        assert_eq!(merged.get(&Coord::new(&[0, 0])), 3.0);
        assert_eq!(merged.get(&Coord::new(&[0, 1])), 4.0);
    }

    #[test]
    fn merge_factor_sums_rows() {
        let m = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let merged = merge_time_factor(&m, 2, 2);
        assert_eq!(merged[(0, 0)], 3.0);
        assert_eq!(merged[(1, 0)], 7.0);
    }

    #[test]
    fn merged_fitness_group1_is_plain_fitness() {
        let mut x = SparseTensor::new(Shape::new(&[2, 3]));
        x.add(&Coord::new(&[0, 0]), 1.0);
        let k = KruskalTensor::zeros(&[2, 3], 1);
        assert_eq!(merged_fitness(&x, &k, 1, 3), 0.0);
    }
}
