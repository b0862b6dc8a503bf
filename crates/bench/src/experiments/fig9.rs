//! Figure 9 — application: anomaly detection on the New York Taxi stream.
//!
//! Protocol (Section VI-G): inject 20 spikes of 5× the maximum 1-second
//! change into random entries; score every arrival by the z-score of its
//! reconstruction error (against the *pre-update* model — the model must
//! not absorb the spike before it is scored); report precision@20 and the
//! time between occurrence and detection. SliceNStitch scores each event
//! the moment it arrives; the per-period baselines can only score a spike
//! when its period completes — a gap of up to `T` (the paper measures
//! ~1400–1600 s at `T` = 1 h, vs 0.0015 s for SNS+_RND).

use crate::report::{banner, f, observation, Table};
use crate::runner::ExperimentParams;
use sns_baselines::{CpStream, OnlineScp, PeriodicCpd};
use sns_core::anomaly::AnomalyDetector;
use sns_core::config::{AlgorithmKind, Precision, SnsConfig};
use sns_core::update::{ContinuousUpdater, Updater};
use sns_data::{generate, inject_anomalies, nytaxi_like, InjectedAnomaly};
use sns_stream::{ContinuousWindow, DeltaKind, DiscreteWindow, StreamTuple};

struct DetectionOutcome {
    method: String,
    precision: f64,
    mean_gap: f64,
    scored: usize,
}

fn is_hit(
    e: &sns_core::anomaly::ScoredEvent,
    injected: &[InjectedAnomaly],
    tolerance: u64,
) -> Option<usize> {
    let tm = e.coord.order() - 1;
    injected.iter().position(|a| {
        e.time >= a.time
            && e.time - a.time <= tolerance
            && a.coords.as_slice() == &e.coord.as_slice()[..tm]
    })
}

fn outcome(
    method: &str,
    det: &AnomalyDetector,
    injected: &[InjectedAnomaly],
    tolerance: u64,
) -> DetectionOutcome {
    let top = det.top_k(injected.len());
    let mut hits = 0usize;
    let mut gap_sum = 0.0;
    let mut matched = vec![false; injected.len()];
    for e in &top {
        if let Some(idx) = is_hit(e, injected, tolerance) {
            if !matched[idx] {
                matched[idx] = true;
                hits += 1;
                gap_sum += (e.time - injected[idx].time) as f64;
            }
        }
    }
    DetectionOutcome {
        method: method.to_string(),
        precision: hits as f64 / injected.len() as f64,
        mean_gap: if hits > 0 { gap_sum / hits as f64 } else { f64::NAN },
        scored: det.events().len(),
    }
}

/// Continuous detector: SNS+_RND scoring each arrival *before* the factor
/// update absorbs it.
fn detect_continuous(
    params: &ExperimentParams,
    stream: &[StreamTuple],
    injected: &[InjectedAnomaly],
    seed: u64,
) -> DetectionOutcome {
    let config = SnsConfig {
        rank: params.rank,
        theta: params.theta,
        eta: params.eta,
        init_scale: 1.0,
        seed,
        precision: Precision::F64,
    };
    let mut dims = params.base_dims.clone();
    dims.push(params.window);
    let mut window = ContinuousWindow::new(&params.base_dims, params.window, params.period);
    let mut updater = Updater::new(AlgorithmKind::PlusRnd, &dims, &config);
    let mut det = AnomalyDetector::new();
    let mut buf = Vec::new();
    let prefill = params.prefill_until();
    let mut warmed = false;
    for tu in stream {
        if !warmed && tu.time > prefill {
            let warm = sns_core::als::als(
                window.tensor(),
                params.rank,
                &sns_core::als::AlsOptions { max_iters: 20, tol: 1e-4, ..Default::default() },
            );
            updater.install(warm.kruskal, warm.grams);
            warmed = true;
        }
        buf.clear();
        window.ingest(*tu, &mut buf).expect("chronological");
        for d in &buf {
            if warmed {
                if d.kind == DeltaKind::Arrival {
                    // Score before the model sees the event.
                    let (coord, _) = d.changes.as_slice()[0];
                    det.observe(window.tensor(), updater.kruskal(), &coord, d.time);
                }
                updater.apply(window.tensor(), d);
            }
        }
    }
    outcome("SNS+_RND", &det, injected, 0)
}

/// Periodic detector: scores every slice entry at the period boundary,
/// before the baseline's factor update.
fn detect_periodic(
    params: &ExperimentParams,
    stream: &[StreamTuple],
    injected: &[InjectedAnomaly],
    mut algo: Box<dyn PeriodicCpd>,
    name: &str,
) -> DetectionOutcome {
    let mut window = DiscreteWindow::new(&params.base_dims, params.window, params.period);
    let mut det = AnomalyDetector::new();
    let mut buf = Vec::new();
    let prefill = params.prefill_until();
    let mut warmed = false;
    let newest = (params.window - 1) as u32;
    for tu in stream {
        if !warmed && tu.time > prefill {
            let warm = sns_core::als::als(
                window.tensor(),
                params.rank,
                &sns_core::als::AlsOptions { max_iters: 20, tol: 1e-4, ..Default::default() },
            );
            algo.install(warm.kruskal, warm.grams);
            warmed = true;
        }
        buf.clear();
        window.ingest(*tu, &mut buf).expect("chronological");
        for u in &buf {
            if warmed {
                // Score the completed slice against the stale model; the
                // detection timestamp is the period boundary.
                for (c, _v) in &u.slice {
                    let coord = c.extended(newest);
                    det.observe(window.tensor(), algo.kruskal(), &coord, u.boundary);
                }
                if algo.on_period(window.tensor(), u).is_err() {
                    // A failed solve means the model diverged: report it
                    // as NaN precision and stop driving it.
                    let mut diverged = outcome(name, &det, injected, params.period);
                    diverged.precision = f64::NAN;
                    diverged.mean_gap = f64::NAN;
                    return diverged;
                }
            }
        }
    }
    outcome(name, &det, injected, params.period)
}

/// Renders Fig. 9.
pub fn run(scale: f64) -> String {
    let spec = nytaxi_like();
    let params = ExperimentParams::from_spec(&spec);
    let events = ((spec.default_events as f64 * scale * 0.6) as usize).max(3_000);
    let clean = generate(&spec.generator(events, 0xf199));
    // Inject after the prefill horizon so the warm start is clean.
    let (stream, injected) = inject_anomalies(
        &clean,
        &params.base_dims,
        20,
        5.0,
        params.prefill_until() + 1,
        spec.duration(),
        0xabc,
    );

    let mut out = banner("Fig 9 — anomaly detection (New York Taxi-like, 20 injected spikes)");
    let mut t = Table::new(&[
        "Method",
        "Precision@20",
        "Mean occurrence->detection gap (s)",
        "Events scored",
    ]);

    let cont = detect_continuous(&params, &stream, &injected, 0x99);
    let mut dims = params.base_dims.clone();
    dims.push(params.window);
    let scp = detect_periodic(
        &params,
        &stream,
        &injected,
        Box::new(OnlineScp::new(&dims, params.rank, 0x99)),
        "OnlineSCP",
    );
    let cps = detect_periodic(
        &params,
        &stream,
        &injected,
        Box::new(CpStream::new(&dims, params.rank, 0.99, 3, 0x99)),
        "CP-stream",
    );

    let mut gap_ok = true;
    for o in [&cont, &scp, &cps] {
        t.row(vec![o.method.clone(), f(o.precision), f(o.mean_gap), o.scored.to_string()]);
    }
    if !(cont.mean_gap == 0.0 || cont.mean_gap.is_nan()) {
        gap_ok = false;
    }
    if scp.mean_gap.is_finite() && scp.mean_gap <= cont.mean_gap.max(0.0) {
        gap_ok = false;
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "Paper: SNS+_RND precision 0.80 @ gap 0.0015 s; OnlineSCP 0.80 @ 1601 s; CP-stream 0.70 @ 1424 s.\n",
    );
    out.push_str(&observation(
        "Fig9",
        "continuous detection is immediate (gap = 0 stream seconds); periodic methods wait for the boundary",
        gap_ok,
    ));
    out.push('\n');
    out.push_str(&observation(
        "Fig9b",
        &format!(
            "continuous precision ({}) is comparable to the best periodic precision ({})",
            f(cont.precision),
            f(scp.precision.max(cps.precision))
        ),
        cont.precision + 0.25 >= scp.precision.max(cps.precision),
    ));
    out.push('\n');
    out
}
