//! Wire forms of every captured domain type.
//!
//! One encode/decode pair per type, kept adjacent so the two halves
//! cannot drift apart silently (the golden-fixture test catches drift
//! that slips through review without a schema-version bump).
//!
//! All integers are little-endian; floats travel by bit pattern, so
//! accumulated rounding (e.g. the window's incrementally maintained
//! `‖X‖²`) survives exactly. Enums are one tag byte plus fields.

use crate::bytes::{Reader, Writer};
use sns_baselines::{BaselineAlgoState, BaselineEngineState};
use sns_core::anomaly::{DetectorState, ScoredEvent};
use sns_core::config::{AlgorithmKind, Precision};
use sns_core::engine::SnsEngineState;
use sns_core::kruskal::KruskalTensor;
use sns_core::update::UpdaterState;
use sns_error::SnsError;
use sns_linalg::Mat;
use sns_runtime::anomaly::{AnomalyConfig, AnomalyState};
use sns_runtime::chaos::{ChaosConfig, ChaosState};
use sns_runtime::{BaselineKind, EngineSpec, EngineState};
use sns_stream::{ContinuousWindowState, DiscreteWindowState, ScheduledEvent, StreamTuple};
use sns_tensor::{Coord, SparseTensorState, MAX_ORDER};

// ---- coordinates, tuples, matrices ---------------------------------------

/// Encodes a coordinate as order byte + one `u32` per mode.
pub fn put_coord(w: &mut Writer, c: &Coord) {
    w.u8(c.order() as u8);
    for &i in c.as_slice() {
        w.u32(i);
    }
}

/// Decodes a coordinate, rejecting orders beyond [`MAX_ORDER`].
pub fn get_coord(r: &mut Reader) -> Result<Coord, SnsError> {
    let order = r.u8("coord order")? as usize;
    if order > MAX_ORDER {
        return Err(r.invalid(format!("coord order {order} exceeds {MAX_ORDER}")));
    }
    let mut idx = [0u32; MAX_ORDER];
    for slot in idx.iter_mut().take(order) {
        *slot = r.u32("coord index")?;
    }
    Ok(Coord::new(&idx[..order]))
}

/// Encodes a stream tuple: coordinate, value bits, arrival time.
pub fn put_tuple(w: &mut Writer, t: &StreamTuple) {
    put_coord(w, &t.coords);
    w.f64(t.value);
    w.u64(t.time);
}

/// Decodes a stream tuple written by [`put_tuple`].
pub fn get_tuple(r: &mut Reader) -> Result<StreamTuple, SnsError> {
    let coords = get_coord(r)?;
    let value = r.f64("tuple value")?;
    let time = r.u64("tuple time")?;
    Ok(StreamTuple { coords, value, time })
}

/// Encodes a dense matrix: dims then row-major `f64` bit patterns.
pub fn put_mat(w: &mut Writer, m: &Mat) {
    w.usize(m.rows());
    w.usize(m.cols());
    for &v in m.as_slice() {
        w.f64(v);
    }
}

/// Decodes a matrix, bounding the claimed size by the bytes actually
/// present (resource-bomb guard).
pub fn get_mat(r: &mut Reader) -> Result<Mat, SnsError> {
    let rows = r.usize("mat rows")?;
    let cols = r.usize("mat cols")?;
    let n = rows.checked_mul(cols).ok_or_else(|| r.invalid("mat size overflow"))?;
    if n.saturating_mul(8) > r.remaining() {
        return Err(r.err(
            sns_error::CodecFault::Truncated,
            format!("mat {rows}x{cols} cannot fit in {} bytes", r.remaining()),
        ));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.f64("mat entry")?);
    }
    Ok(Mat::from_vec(rows, cols, data))
}

/// Encodes a factor-matrix list (count + each matrix).
pub fn put_mats(w: &mut Writer, mats: &[Mat]) {
    w.usize(mats.len());
    for m in mats {
        put_mat(w, m);
    }
}

/// Decodes a factor-matrix list written by [`put_mats`].
pub fn get_mats(r: &mut Reader) -> Result<Vec<Mat>, SnsError> {
    let n = r.len(16, "mat count")?;
    (0..n).map(|_| get_mat(r)).collect()
}

/// Encodes a Kruskal (CP-factorized) tensor: factors then lambda.
pub fn put_kruskal(w: &mut Writer, k: &KruskalTensor) {
    put_mats(w, &k.factors);
    w.usize(k.lambda.len());
    for &l in &k.lambda {
        w.f64(l);
    }
}

/// Decodes a Kruskal tensor, checking every factor agrees on the rank.
pub fn get_kruskal(r: &mut Reader) -> Result<KruskalTensor, SnsError> {
    let factors = get_mats(r)?;
    let rank = r.len(8, "lambda len")?;
    let lambda = (0..rank).map(|_| r.f64("lambda")).collect::<Result<Vec<_>, _>>()?;
    for (m, f) in factors.iter().enumerate() {
        if f.cols() != rank {
            return Err(r.invalid(format!("mode {m} factor has {} cols, rank {rank}", f.cols())));
        }
    }
    Ok(KruskalTensor { factors, lambda })
}

// ---- sparse tensor state -------------------------------------------------

/// Encodes sparse-tensor state including fiber indexes and the
/// incrementally maintained `‖X‖²` (bit-exact).
pub fn put_tensor(w: &mut Writer, t: &SparseTensorState) {
    w.usize(t.dims.len());
    for &d in &t.dims {
        w.usize(d);
    }
    w.usize(t.coords.len());
    for c in &t.coords {
        put_coord(w, c);
    }
    for &v in &t.values {
        w.f64(v);
    }
    for mode in &t.fibers {
        w.usize(mode.len());
        for (index, positions) in mode {
            w.u32(*index);
            w.usize(positions.len());
            for &p in positions {
                w.u32(p);
            }
        }
    }
    w.f64(t.norm_sq);
}

/// Decodes sparse-tensor state written by [`put_tensor`].
pub fn get_tensor(r: &mut Reader) -> Result<SparseTensorState, SnsError> {
    let order = r.len(8, "tensor order")?;
    let dims = (0..order).map(|_| r.usize("tensor dim")).collect::<Result<Vec<_>, _>>()?;
    let nnz = r.len(1, "tensor nnz")?;
    let coords = (0..nnz).map(|_| get_coord(r)).collect::<Result<Vec<_>, _>>()?;
    let values = (0..nnz).map(|_| r.f64("tensor value")).collect::<Result<Vec<_>, _>>()?;
    let mut fibers = Vec::with_capacity(order);
    for _ in 0..order {
        let sets = r.len(8, "fiber set count")?;
        let mut mode = Vec::with_capacity(sets);
        for _ in 0..sets {
            let index = r.u32("fiber index")?;
            let members = r.len(4, "fiber member count")?;
            let positions =
                (0..members).map(|_| r.u32("fiber position")).collect::<Result<Vec<_>, _>>()?;
            mode.push((index, positions));
        }
        fibers.push(mode);
    }
    let norm_sq = r.f64("tensor norm")?;
    Ok(SparseTensorState { dims, coords, values, fibers, norm_sq })
}

// ---- window states -------------------------------------------------------

/// Encodes the continuous (event-scheduled) window state.
pub fn put_continuous_window(w: &mut Writer, s: &ContinuousWindowState) {
    put_tensor(w, &s.tensor);
    w.u64(s.period);
    w.usize(s.window);
    w.usize(s.events.len());
    for ev in &s.events {
        w.u64(ev.due);
        w.u64(ev.seq);
        w.u32(ev.w);
        put_tuple(w, &ev.tuple);
    }
    w.u64(s.next_seq);
    w.u64(s.now);
    w.opt_u64(s.last_arrival);
    w.u64(s.events_processed);
}

/// Decodes the continuous window state written by
/// [`put_continuous_window`].
pub fn get_continuous_window(r: &mut Reader) -> Result<ContinuousWindowState, SnsError> {
    let tensor = get_tensor(r)?;
    let period = r.u64("window period")?;
    let window = r.usize("window W")?;
    let n = r.len(21, "event count")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let due = r.u64("event due")?;
        let seq = r.u64("event seq")?;
        let wb = r.u32("event w")?;
        let tuple = get_tuple(r)?;
        events.push(ScheduledEvent { due, seq, w: wb, tuple });
    }
    let next_seq = r.u64("next_seq")?;
    let now = r.u64("now")?;
    let last_arrival = r.opt_u64("last_arrival")?;
    let events_processed = r.u64("events_processed")?;
    Ok(ContinuousWindowState {
        tensor,
        period,
        window,
        events,
        next_seq,
        now,
        last_arrival,
        events_processed,
    })
}

/// Encodes the discrete (period-boundary) window state.
pub fn put_discrete_window(w: &mut Writer, s: &DiscreteWindowState) {
    put_tensor(w, &s.tensor);
    w.u64(s.period);
    w.usize(s.window);
    w.u64(s.boundary);
    w.usize(s.pending.len());
    for (c, v) in &s.pending {
        put_coord(w, c);
        w.f64(*v);
    }
    w.opt_u64(s.last_arrival);
    w.u64(s.periods_completed);
}

/// Decodes the discrete window state written by
/// [`put_discrete_window`].
pub fn get_discrete_window(r: &mut Reader) -> Result<DiscreteWindowState, SnsError> {
    let tensor = get_tensor(r)?;
    let period = r.u64("window period")?;
    let window = r.usize("window W")?;
    let boundary = r.u64("boundary")?;
    let n = r.len(9, "pending count")?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        let c = get_coord(r)?;
        let v = r.f64("pending value")?;
        pending.push((c, v));
    }
    let last_arrival = r.opt_u64("last_arrival")?;
    let periods_completed = r.u64("periods_completed")?;
    Ok(DiscreteWindowState {
        tensor,
        period,
        window,
        boundary,
        pending,
        last_arrival,
        periods_completed,
    })
}

// ---- algorithm kinds and specs -------------------------------------------

/// Decoder cap on decorator nesting (`Anomaly` around `Anomaly` around
/// …). Legitimate snapshots nest one or two levels; without a cap, a
/// crafted payload of repeated decorator tags would recurse once per
/// byte and overflow the stack — an abort, which the codec's
/// never-panic contract forbids.
const MAX_NESTING: usize = 8;

fn check_depth(r: &Reader, depth: usize, what: &str) -> Result<(), SnsError> {
    if depth >= MAX_NESTING {
        return Err(r.invalid(format!("{what} nested deeper than {MAX_NESTING}")));
    }
    Ok(())
}

fn kind_tag(kind: AlgorithmKind) -> u8 {
    match kind {
        AlgorithmKind::Mat => 0,
        AlgorithmKind::Vec => 1,
        AlgorithmKind::Rnd => 2,
        AlgorithmKind::PlusVec => 3,
        AlgorithmKind::PlusRnd => 4,
    }
}

fn kind_from_tag(r: &Reader, tag: u8) -> Result<AlgorithmKind, SnsError> {
    Ok(match tag {
        0 => AlgorithmKind::Mat,
        1 => AlgorithmKind::Vec,
        2 => AlgorithmKind::Rnd,
        3 => AlgorithmKind::PlusVec,
        4 => AlgorithmKind::PlusRnd,
        t => return Err(r.invalid(format!("algorithm tag {t}"))),
    })
}

/// Encodes an engine spec (tagged by engine family).
pub fn put_spec(w: &mut Writer, spec: &EngineSpec) {
    match spec {
        EngineSpec::Sns {
            base_dims,
            window,
            period,
            kind,
            rank,
            theta,
            eta,
            init_scale,
            precision: Precision::F64,
            seed,
        } => {
            w.u8(0);
            w.usize(base_dims.len());
            for &d in base_dims {
                w.usize(d);
            }
            w.usize(*window);
            w.u64(*period);
            w.u8(kind_tag(*kind));
            w.usize(*rank);
            w.usize(*theta);
            w.f64(*eta);
            w.f64(*init_scale);
            w.opt_u64(*seed);
        }
        EngineSpec::Baseline { base_dims, window, period, rank, algo, seed } => {
            w.u8(1);
            w.usize(base_dims.len());
            for &d in base_dims {
                w.usize(d);
            }
            w.usize(*window);
            w.u64(*period);
            w.usize(*rank);
            match algo {
                BaselineKind::AlsPeriodic { sweeps } => {
                    w.u8(0);
                    w.usize(*sweeps);
                }
                BaselineKind::OnlineScp => w.u8(1),
                BaselineKind::CpStream { decay, iters } => {
                    w.u8(2);
                    w.f64(*decay);
                    w.usize(*iters);
                }
                BaselineKind::NeCpd { epochs } => {
                    w.u8(3);
                    w.usize(*epochs);
                }
            }
            w.opt_u64(*seed);
        }
        EngineSpec::Anomaly { inner, config } => {
            w.u8(2);
            put_spec(w, inner);
            put_anomaly_config(w, config);
        }
        EngineSpec::Chaos { inner, config } => {
            w.u8(4);
            put_spec(w, inner);
            put_chaos_config(w, config);
        }
    }
}

/// Decodes an engine spec written by [`put_spec`]. Spec tag 3, which
/// older builds wrote for their `f32` factor profile, is an unknown tag.
pub fn get_spec(r: &mut Reader) -> Result<EngineSpec, SnsError> {
    get_spec_at(r, 0)
}

fn get_spec_at(r: &mut Reader, depth: usize) -> Result<EngineSpec, SnsError> {
    match r.u8("spec tag")? {
        0 => {
            let n = r.len(8, "base dims")?;
            let base_dims = (0..n).map(|_| r.usize("base dim")).collect::<Result<Vec<_>, _>>()?;
            let window = r.usize("window")?;
            let period = r.u64("period")?;
            let kind = {
                let tag = r.u8("kind")?;
                kind_from_tag(r, tag)?
            };
            let rank = r.usize("rank")?;
            let theta = r.usize("theta")?;
            let eta = r.f64("eta")?;
            let init_scale = r.f64("init_scale")?;
            let seed = r.opt_u64("seed")?;
            Ok(EngineSpec::Sns {
                base_dims,
                window,
                period,
                kind,
                rank,
                theta,
                eta,
                init_scale,
                precision: Precision::F64,
                seed,
            })
        }
        1 => {
            let n = r.len(8, "base dims")?;
            let base_dims = (0..n).map(|_| r.usize("base dim")).collect::<Result<Vec<_>, _>>()?;
            let window = r.usize("window")?;
            let period = r.u64("period")?;
            let rank = r.usize("rank")?;
            let algo = match r.u8("baseline tag")? {
                0 => BaselineKind::AlsPeriodic { sweeps: r.usize("sweeps")? },
                1 => BaselineKind::OnlineScp,
                2 => BaselineKind::CpStream { decay: r.f64("decay")?, iters: r.usize("iters")? },
                3 => BaselineKind::NeCpd { epochs: r.usize("epochs")? },
                t => return Err(r.invalid(format!("baseline tag {t}"))),
            };
            let seed = r.opt_u64("seed")?;
            Ok(EngineSpec::Baseline { base_dims, window, period, rank, algo, seed })
        }
        2 => {
            check_depth(r, depth, "anomaly spec")?;
            let inner = Box::new(get_spec_at(r, depth + 1)?);
            let config = get_anomaly_config(r)?;
            Ok(EngineSpec::Anomaly { inner, config })
        }
        4 => {
            check_depth(r, depth, "chaos spec")?;
            let inner = Box::new(get_spec_at(r, depth + 1)?);
            let config = get_chaos_config(r)?;
            Ok(EngineSpec::Chaos { inner, config })
        }
        t => Err(r.invalid(format!("spec tag {t}"))),
    }
}

fn put_anomaly_config(w: &mut Writer, c: &AnomalyConfig) {
    w.f64(c.threshold);
    w.usize(c.max_events);
}

fn get_anomaly_config(r: &mut Reader) -> Result<AnomalyConfig, SnsError> {
    let threshold = r.f64("threshold")?;
    let max_events = r.usize("max_events")?;
    Ok(AnomalyConfig { threshold, max_events })
}

fn put_chaos_config(w: &mut Writer, c: &ChaosConfig) {
    w.f64(c.poison_value);
    w.u64(c.delay_micros);
}

fn get_chaos_config(r: &mut Reader) -> Result<ChaosConfig, SnsError> {
    let poison_value = r.f64("poison_value")?;
    let delay_micros = r.u64("delay_micros")?;
    Ok(ChaosConfig { poison_value, delay_micros })
}

// ---- updater / engine states ---------------------------------------------

fn put_rng(w: &mut Writer, s: &[u64; 4]) {
    for &word in s {
        w.u64(word);
    }
}

fn get_rng(r: &mut Reader) -> Result<[u64; 4], SnsError> {
    Ok([r.u64("rng")?, r.u64("rng")?, r.u64("rng")?, r.u64("rng")?])
}

/// Encodes the SliceNStitch updater state (tagged by algorithm).
pub fn put_updater(w: &mut Writer, u: &UpdaterState) {
    match u {
        UpdaterState::Mat { factors, grams } => {
            w.u8(0);
            put_kruskal(w, factors);
            put_mats(w, grams);
        }
        UpdaterState::Vec { factors, grams, diverged } => {
            w.u8(1);
            put_kruskal(w, factors);
            put_mats(w, grams);
            w.bool(*diverged);
        }
        UpdaterState::Rnd { factors, grams, theta, rng, diverged } => {
            w.u8(2);
            put_kruskal(w, factors);
            put_mats(w, grams);
            w.usize(*theta);
            put_rng(w, rng);
            w.bool(*diverged);
        }
        UpdaterState::PlusVec { factors, grams, eta } => {
            w.u8(3);
            put_kruskal(w, factors);
            put_mats(w, grams);
            w.f64(*eta);
        }
        UpdaterState::PlusRnd { factors, grams, theta, eta, rng } => {
            w.u8(4);
            put_kruskal(w, factors);
            put_mats(w, grams);
            w.usize(*theta);
            w.f64(*eta);
            put_rng(w, rng);
        }
    }
}

/// Decodes the updater state written by [`put_updater`]. Tags 17–20,
/// which older builds wrote for their `f32` factor profile, are unknown
/// tags.
pub fn get_updater(r: &mut Reader) -> Result<UpdaterState, SnsError> {
    let tag = r.u8("updater tag")?;
    match tag {
        0 => Ok(UpdaterState::Mat { factors: get_kruskal(r)?, grams: get_mats(r)? }),
        1 => Ok(UpdaterState::Vec {
            factors: get_kruskal(r)?,
            grams: get_mats(r)?,
            diverged: r.bool("diverged")?,
        }),
        2 => Ok(UpdaterState::Rnd {
            factors: get_kruskal(r)?,
            grams: get_mats(r)?,
            theta: r.usize("theta")?,
            rng: get_rng(r)?,
            diverged: r.bool("diverged")?,
        }),
        3 => Ok(UpdaterState::PlusVec {
            factors: get_kruskal(r)?,
            grams: get_mats(r)?,
            eta: r.f64("eta")?,
        }),
        4 => Ok(UpdaterState::PlusRnd {
            factors: get_kruskal(r)?,
            grams: get_mats(r)?,
            theta: r.usize("theta")?,
            eta: r.f64("eta")?,
            rng: get_rng(r)?,
        }),
        _ => Err(r.invalid(format!("updater tag {tag}"))),
    }
}

/// Encodes a baseline algorithm's state (tagged by baseline kind).
pub fn put_baseline_algo(w: &mut Writer, s: &BaselineAlgoState) {
    match s {
        BaselineAlgoState::AlsPeriodic { kruskal, grams, sweeps } => {
            w.u8(0);
            put_kruskal(w, kruskal);
            put_mats(w, grams);
            w.usize(*sweeps);
        }
        BaselineAlgoState::OnlineScp { kruskal, grams } => {
            w.u8(1);
            put_kruskal(w, kruskal);
            put_mats(w, grams);
        }
        BaselineAlgoState::CpStream { kruskal, grams, p_hist, g_hist, mu, inner_iters } => {
            w.u8(2);
            put_kruskal(w, kruskal);
            put_mats(w, grams);
            put_mats(w, p_hist);
            put_mats(w, g_hist);
            w.f64(*mu);
            w.usize(*inner_iters);
        }
        BaselineAlgoState::NeCpd { kruskal, grams, epochs, periods_seen, rng } => {
            w.u8(3);
            put_kruskal(w, kruskal);
            put_mats(w, grams);
            w.usize(*epochs);
            w.u64(*periods_seen);
            put_rng(w, rng);
        }
    }
}

/// Decodes a baseline algorithm's state written by
/// [`put_baseline_algo`].
pub fn get_baseline_algo(r: &mut Reader) -> Result<BaselineAlgoState, SnsError> {
    match r.u8("baseline algo tag")? {
        0 => Ok(BaselineAlgoState::AlsPeriodic {
            kruskal: get_kruskal(r)?,
            grams: get_mats(r)?,
            sweeps: r.usize("sweeps")?,
        }),
        1 => Ok(BaselineAlgoState::OnlineScp { kruskal: get_kruskal(r)?, grams: get_mats(r)? }),
        2 => Ok(BaselineAlgoState::CpStream {
            kruskal: get_kruskal(r)?,
            grams: get_mats(r)?,
            p_hist: get_mats(r)?,
            g_hist: get_mats(r)?,
            mu: r.f64("mu")?,
            inner_iters: r.usize("inner_iters")?,
        }),
        3 => Ok(BaselineAlgoState::NeCpd {
            kruskal: get_kruskal(r)?,
            grams: get_mats(r)?,
            epochs: r.usize("epochs")?,
            periods_seen: r.u64("periods_seen")?,
            rng: get_rng(r)?,
        }),
        t => Err(r.invalid(format!("baseline algo tag {t}"))),
    }
}

fn put_detector(w: &mut Writer, d: &DetectorState) {
    w.u64(d.count);
    w.f64(d.mean);
    w.f64(d.m2);
    w.usize(d.events.len());
    for ev in &d.events {
        w.u64(ev.time);
        put_coord(w, &ev.coord);
        w.f64(ev.error);
        w.f64(ev.z);
    }
    // usize::MAX is the "unbounded" sentinel; u64::MAX round-trips it.
    w.u64(d.max_events as u64);
}

fn get_detector(r: &mut Reader) -> Result<DetectorState, SnsError> {
    let count = r.u64("detector count")?;
    let mean = r.f64("detector mean")?;
    let m2 = r.f64("detector m2")?;
    let n = r.len(25, "detector events")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let time = r.u64("event time")?;
        let coord = get_coord(r)?;
        let error = r.f64("event error")?;
        let z = r.f64("event z")?;
        events.push(ScoredEvent { time, coord, error, z });
    }
    let max_events = r.u64("max_events")?;
    let max_events = usize::try_from(max_events).unwrap_or(usize::MAX);
    Ok(DetectorState { count, mean, m2, events, max_events })
}

/// Encodes a full engine state — the STATE section payload of a
/// snapshot envelope.
pub fn put_engine_state(w: &mut Writer, s: &EngineState) {
    match s {
        EngineState::Sns(e) => {
            w.u8(0);
            put_continuous_window(w, &e.window);
            put_updater(w, &e.updater);
            w.u64(e.updates_applied);
        }
        EngineState::Baseline(e) => {
            w.u8(1);
            put_discrete_window(w, &e.window);
            put_baseline_algo(w, &e.algo);
            w.u64(e.periods);
        }
        EngineState::Anomaly(a) => {
            w.u8(2);
            put_engine_state(w, &a.inner);
            put_detector(w, &a.detector);
            put_anomaly_config(w, &a.config);
            w.u64(a.flagged);
            w.f64(a.max_z);
            w.f64(a.error_sum);
            w.opt_u64(a.last_time);
        }
        EngineState::Chaos(c) => {
            w.u8(3);
            put_engine_state(w, &c.inner);
            put_chaos_config(w, &c.config);
        }
    }
}

/// Decodes a full engine state written by [`put_engine_state`].
pub fn get_engine_state(r: &mut Reader) -> Result<EngineState, SnsError> {
    get_engine_state_at(r, 0)
}

fn get_engine_state_at(r: &mut Reader, depth: usize) -> Result<EngineState, SnsError> {
    match r.u8("engine state tag")? {
        0 => {
            let window = get_continuous_window(r)?;
            let updater = get_updater(r)?;
            let updates_applied = r.u64("updates_applied")?;
            Ok(EngineState::Sns(Box::new(SnsEngineState { window, updater, updates_applied })))
        }
        1 => {
            let window = get_discrete_window(r)?;
            let algo = get_baseline_algo(r)?;
            let periods = r.u64("periods")?;
            Ok(EngineState::Baseline(Box::new(BaselineEngineState { window, algo, periods })))
        }
        2 => {
            check_depth(r, depth, "anomaly state")?;
            let inner = get_engine_state_at(r, depth + 1)?;
            let detector = get_detector(r)?;
            let config = get_anomaly_config(r)?;
            let flagged = r.u64("flagged")?;
            let max_z = r.f64("max_z")?;
            let error_sum = r.f64("error_sum")?;
            let last_time = r.opt_u64("last_time")?;
            Ok(EngineState::Anomaly(Box::new(AnomalyState {
                inner,
                detector,
                config,
                flagged,
                max_z,
                error_sum,
                last_time,
            })))
        }
        3 => {
            check_depth(r, depth, "chaos state")?;
            let inner = get_engine_state_at(r, depth + 1)?;
            let config = get_chaos_config(r)?;
            Ok(EngineState::Chaos(Box::new(ChaosState { inner, config })))
        }
        t => Err(r.invalid(format!("engine state tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_error::CodecFault;

    fn is_invalid<T>(decoded: Result<T, SnsError>) -> bool {
        matches!(decoded, Err(SnsError::Codec { fault: CodecFault::Invalid, .. }))
    }

    /// Spec tag 3 and updater tags 17–20 are the layouts older builds
    /// wrote for their `f32` factor profile: they must decode to a typed
    /// error, never thaw as an `f64` engine.
    #[test]
    fn f32_profile_tags_decode_to_a_typed_error() {
        let mut w = Writer::new();
        w.u8(3);
        w.usize(2);
        w.usize(4);
        w.usize(3);
        w.usize(5);
        w.u64(10);
        w.u8(kind_tag(AlgorithmKind::PlusRnd));
        w.u8(1);
        w.usize(2);
        w.usize(20);
        w.f64(1000.0);
        w.f64(1.0);
        w.opt_u64(Some(7));
        let bytes = w.into_bytes();
        assert!(is_invalid(get_spec(&mut Reader::new(&bytes))));

        let mut w = Writer::new();
        w.u8(16 + 1);
        put_kruskal(&mut w, &KruskalTensor::zeros(&[4, 3, 5], 2));
        put_mats(&mut w, &vec![Mat::zeros(2, 2); 3]);
        w.bool(false);
        let bytes = w.into_bytes();
        assert!(is_invalid(get_updater(&mut Reader::new(&bytes))));
    }
}
