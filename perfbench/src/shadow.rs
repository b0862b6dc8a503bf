//! Shadow replay: each pooled stream's exact input (prefill, warm start,
//! every acknowledged batch) fed single-threaded through a bench-owned
//! `ContinuousWindow` + `Updater`, the public parts `SnsEngine` composes.
//! Timing the calls from outside attributes engine time to `sns-stream`
//! (window and slice bookkeeping) and `sns-core` (per-event updates).
//!
//! The shadow must end bitwise equal to the pooled stream's snapshot.

use crate::trace::{Span, Tracer};
use crate::workload::{StreamPlan, Workload};
use sns_core::als::warm_start_from;
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_core::engine::SnsEngineState;
use sns_core::update::{ContinuousUpdater, Updater};
use sns_runtime::{EngineSnapshot, EngineSpec, EngineState};
use sns_stream::{ContinuousWindow, Delta, DeltaKind};
use std::time::Instant;

/// Span names of the per-event update, by variant and delta kind.
pub const APPLY_SPANS: [(AlgorithmKind, DeltaKind, &str); 6] = [
    (AlgorithmKind::PlusRnd, DeltaKind::Arrival, "core.apply.plus_rnd.arrival"),
    (AlgorithmKind::PlusRnd, DeltaKind::Shift, "core.apply.plus_rnd.shift"),
    (AlgorithmKind::PlusRnd, DeltaKind::Expiry, "core.apply.plus_rnd.expiry"),
    (AlgorithmKind::PlusVec, DeltaKind::Arrival, "core.apply.plus_vec.arrival"),
    (AlgorithmKind::PlusVec, DeltaKind::Shift, "core.apply.plus_vec.shift"),
    (AlgorithmKind::PlusVec, DeltaKind::Expiry, "core.apply.plus_vec.expiry"),
];

fn apply_span(algo: AlgorithmKind, kind: DeltaKind) -> &'static str {
    APPLY_SPANS
        .iter()
        .find(|(a, k, _)| *a == algo && *k == kind)
        .map_or("core.apply.other", |(_, _, name)| name)
}

/// Tracing knobs of one shadow pass.
pub struct TraceCfg<'a> {
    pub tracer: &'a Tracer,
    /// Per-call spans are recorded for every `sample_every`-th batch.
    pub sample_every: usize,
    /// Rollback capture is timed at every `capture_every`-th boundary.
    pub capture_every: usize,
}

/// What one shadow pass measured.
#[derive(Default)]
pub struct Pass {
    /// Engine time and events over the first `prefix` batches.
    pub prefix_s: f64,
    pub prefix_events: u64,
    pub tuples: u64,
    pub events: u64,
    pub horizon_fitness: f64,
    pub warm_start_s: f64,
    pub fitness_ms: f64,
    pub capture_us: Vec<f64>,
    pub active_tuples: usize,
    /// The final state as a snapshot comparable to the pooled one.
    pub snapshot: Option<EngineSnapshot>,
}

/// Replays stream `plan`'s first `batches` live batches, timing the first
/// `prefix` of them separately. With `trace`, per-call spans are recorded
/// (the untraced pass takes only two clock reads per batch).
pub fn replay(
    w: &Workload,
    plan: &StreamPlan,
    batches: usize,
    prefix: usize,
    wal_seq: u64,
    trace: Option<&TraceCfg<'_>>,
) -> Result<Pass, String> {
    let spec = w.spec(plan);
    let EngineSpec::Sns {
        base_dims,
        window,
        period,
        kind,
        rank,
        theta,
        eta,
        init_scale,
        precision,
        ..
    } = &spec
    else {
        return Err("shadow replay covers continuous engines only".to_string());
    };
    let config = SnsConfig {
        rank: *rank,
        theta: *theta,
        eta: *eta,
        init_scale: *init_scale,
        seed: plan.seed,
        precision: *precision,
    };
    let mut dims = base_dims.clone();
    dims.push(*window);
    let mut win = ContinuousWindow::new(base_dims, *window, *period);
    let mut updater = Updater::new(*kind, &dims, &config);
    let mut buf: Vec<Delta> = Vec::with_capacity(16);
    let fail = |e: sns_stream::SnsError| format!("stream {}: shadow ingest: {e}", plan.id);

    for t in w.prefill(plan) {
        buf.clear();
        win.ingest(*t, &mut buf).map_err(fail)?;
    }
    let mut pass = Pass::default();
    let t = Instant::now();
    let fitted = warm_start_from(win.tensor(), updater.kruskal(), &w.als);
    updater.install(fitted.kruskal, fitted.grams);
    let t_end = Instant::now();
    pass.warm_start_s = t_end.duration_since(t).as_secs_f64();
    if let Some(tc) = trace {
        tc.tracer.record("core.warm_start", t, t_end, plan.id, 0);
    }

    let mut local: Vec<Span> = Vec::new();
    let mut updates = 0u64;
    for b in 0..batches {
        if b == w.warmup_batches {
            pass.horizon_fitness = updater.fitness(win.tensor());
        }
        let sampled = trace.is_some_and(|tc| b % tc.sample_every == 0);
        let start = Instant::now();
        for tuple in w.batch(plan, b) {
            buf.clear();
            if sampled {
                let tc = trace.expect("sampled implies traced");
                let a = Instant::now();
                win.ingest(*tuple, &mut buf).map_err(fail)?;
                let z = Instant::now();
                local.push(span(tc.tracer, "stream.ingest", a, z, plan.id, b));
                for d in &buf {
                    let a = Instant::now();
                    updater.apply(win.tensor(), d);
                    let z = Instant::now();
                    local.push(span(tc.tracer, apply_span(*kind, d.kind), a, z, plan.id, b));
                }
            } else {
                win.ingest(*tuple, &mut buf).map_err(fail)?;
                for d in &buf {
                    updater.apply(win.tensor(), d);
                }
            }
            updates += buf.len() as u64;
            pass.events += buf.len() as u64;
            if b < prefix {
                pass.prefix_events += buf.len() as u64;
            }
        }
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        if b < prefix {
            pass.prefix_s += secs;
        }
        pass.tuples += w.batch as u64;
        if let Some(tc) = trace {
            if sampled {
                let root = tc.tracer.record("shadow.batch", start, end, plan.id, b as u64);
                tc.tracer.extend_children(root, &local);
                local.clear();
            }
            if b % tc.capture_every == 0 {
                // What `QuarantinePolicy::Rollback` captures before each
                // batch group; read-only, outside the engine clock.
                let a = Instant::now();
                let captured = (win.capture_state(), updater.capture_state());
                let z = Instant::now();
                std::hint::black_box(&captured);
                drop(captured);
                pass.capture_us.push(z.duration_since(a).as_secs_f64() * 1e6);
                tc.tracer.record("runtime.rollback_capture", a, z, plan.id, b as u64);
            }
        }
    }
    if batches == w.warmup_batches {
        pass.horizon_fitness = updater.fitness(win.tensor());
    }

    let mut fit_ms = Vec::with_capacity(5);
    for _ in 0..5 {
        let a = Instant::now();
        std::hint::black_box(updater.fitness(win.tensor()));
        let z = Instant::now();
        fit_ms.push(z.duration_since(a).as_secs_f64() * 1e3);
        if let Some(tc) = trace {
            tc.tracer.record("core.fitness", a, z, plan.id, 0);
        }
    }
    pass.fitness_ms = crate::stats::median(&fit_ms);
    pass.active_tuples = win.active_tuples();
    let state = SnsEngineState {
        window: win.capture_state(),
        updater: updater.capture_state(),
        updates_applied: updates,
    };
    pass.snapshot = Some(EngineSnapshot {
        stream_id: plan.id,
        spec,
        seed: plan.seed,
        wal_seq,
        state: EngineState::Sns(Box::new(state)),
    });
    Ok(pass)
}

fn span(
    tracer: &Tracer,
    name: &'static str,
    a: Instant,
    z: Instant,
    stream: u64,
    batch: usize,
) -> Span {
    Span {
        name,
        start_ns: tracer.ns(a),
        end_ns: tracer.ns(z),
        parent: 0,
        stream,
        batch: batch as u64,
    }
}
