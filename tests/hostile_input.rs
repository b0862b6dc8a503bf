//! Hostile tuple values at the session boundary:
//!
//! - a batch carrying a NaN or infinite value stops at that tuple with a
//!   typed `SnsError::NonFiniteValue` root cause, and the stream's state
//!   is byte-identical to a run that was only ever fed the tuples before
//!   it (the bad tuple never touches the window or the factors);
//! - an anomaly-decorated stream does not score the rejected tuple, so
//!   its roll-up stays finite and equals the clean run's.

use slicenstitch::codec::to_bytes;
use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::runtime::{
    AnomalyConfig, EnginePool, EngineSpec, PoolConfig, SnsError, StreamReport,
};
use slicenstitch::stream::StreamTuple;

const BASE_DIMS: [usize; 2] = [10, 8];
const W: usize = 4;
const T: u64 = 50;

fn spec(kind: AlgorithmKind) -> EngineSpec {
    let config = SnsConfig { rank: 3, theta: 8, ..Default::default() };
    EngineSpec::sns(&BASE_DIMS, W, T, kind, &config)
}

fn trace() -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: BASE_DIMS.to_vec(),
        n_components: 3,
        events: 600,
        duration: 6 * W as u64 * T,
        day_ticks: 40,
        seed: 0xbad,
        ..Default::default()
    })
}

/// Opens stream 3 on a fresh pool, prefills and warm-starts it, then
/// ingests `live` as one batch. Returns the batch result, the snapshot
/// bytes and the report taken afterwards.
fn run(
    spec: EngineSpec,
    prefix: &[StreamTuple],
    live: &[StreamTuple],
) -> (Result<u64, SnsError>, Vec<u8>, StreamReport) {
    let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 0x5eed, ..Default::default() });
    let mut session = pool.open(3, spec).unwrap();
    let _ = session.prefill_batch(prefix).unwrap();
    let opts = AlsOptions { max_iters: 10, tol: 1e-4, ..Default::default() };
    let _ = session.warm_start(&opts).unwrap();
    let outcome = session.ingest_batch(live).map(|receipt| receipt.updates);
    let bytes = to_bytes(&session.snapshot().unwrap());
    let report = session.report().unwrap();
    session.close();
    pool.join();
    (outcome, bytes, report)
}

fn poisoned(live: &[StreamTuple], k: usize, value: f64) -> Vec<StreamTuple> {
    let mut bad = live.to_vec();
    bad[k].value = value;
    bad
}

#[test]
fn non_finite_value_aborts_the_batch_before_touching_the_model() {
    let tuples = trace();
    let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
    let (prefix, live) = tuples.split_at(cut);
    let live = &live[..120];
    let k = 57;
    for (kind, value) in
        [(AlgorithmKind::PlusRnd, f64::NAN), (AlgorithmKind::PlusVec, f64::INFINITY)]
    {
        let (outcome, bytes, _) = run(spec(kind), prefix, &poisoned(live, k, value));
        let err = outcome.expect_err("a non-finite value must be rejected");
        assert!(
            matches!(err, SnsError::BatchAborted { accepted, .. } if accepted == k),
            "{kind:?}: {err:?}"
        );
        assert_eq!(err.root_cause(), &SnsError::NonFiniteValue { time: live[k].time });

        let (clean, clean_bytes, _) = run(spec(kind), prefix, &live[..k]);
        clean.unwrap();
        assert!(bytes == clean_bytes, "{kind:?}: the rejected tuple changed the state");
    }
}

#[test]
fn anomaly_decorator_does_not_score_a_rejected_tuple() {
    let tuples = trace();
    let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
    let (prefix, live) = tuples.split_at(cut);
    let live = &live[..120];
    let k = 80;
    let decorated =
        spec(AlgorithmKind::PlusRnd).with_anomaly(AnomalyConfig { threshold: 3.0, max_events: 64 });

    let (outcome, _, report) = run(decorated.clone(), prefix, &poisoned(live, k, f64::NAN));
    assert!(outcome.is_err());
    let (_, _, clean) = run(decorated, prefix, &live[..k]);

    let summary = report.anomalies.expect("decorated stream reports a summary");
    let reference = clean.anomalies.expect("decorated stream reports a summary");
    assert_eq!(summary.scored, k as u64);
    assert_eq!(summary.scored, reference.scored);
    assert!(summary.max_z.is_finite() && summary.mean_error.is_finite(), "{summary:?}");
    assert_eq!(summary.max_z.to_bits(), reference.max_z.to_bits());
    assert_eq!(summary.mean_error.to_bits(), reference.mean_error.to_bits());
}
